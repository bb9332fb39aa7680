"""Scalar and element-wise vector primitives for the controller family.

Everything here is pure and stateless: the signed power function, its
magnitude-limited variant, the C1 potential-energy kernel obtained by
integrating the saturated power, and the anisotropic dilation used by the
homogeneity audit. Vector inputs are handled element-wise. All arithmetic
is 64-bit floating point.

The powers share two unchecked kernels, ``channel`` and its integral
``channel_integral``; the control law calls them directly on inputs that
were validated once, and the public functions check their inputs first.
The checked constructors (RobotParams, RobotState, ControllerConfig,
ControllerState, Weights, ForceProfile, HomogeneitySpec, the Scenario
rules) and the public functions here convert numbers by ``_real_number``
and ``_real_array``: a value that is not real numbers, or lies beyond the
float range, is a ValueError naming its field.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Weights",
    "signed_pow",
    "sat_clip",
    "sat_pow",
    "s_integral",
    "channel",
    "channel_integral",
    "dilate",
]


def _real_number(name: str, value) -> float:
    """value, a real number (numpy's included) but not a bool, as a Python
    float, or a ValueError naming ``name`` and the fault."""
    if type(value) is float:   # first: isinstance against the numbers ABC is slower
        return value
    if isinstance(value, (complex, np.complexfloating)):
        raise ValueError(f"{name} must be a real number")
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number")
    try:
        return float(value)
    except OverflowError:   # an int beyond the float range
        raise ValueError(f"{name} must lie within the float range") from None


def _real_array(name: str, value) -> np.ndarray:
    """value as a float array, or a ValueError naming ``name`` and the fault."""
    try:
        arr = np.asarray(value)
        # an object array: numpy would cast None to NaN and parse numeric text
        if arr.dtype.kind == "O" and not all(isinstance(v, numbers.Real) for v in arr.flat):
            raise TypeError
        if arr.dtype.kind not in "USc":
            return arr.astype(float, copy=False)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be numbers") from None
    except OverflowError:   # an int beyond the float range
        raise ValueError(f"{name} must lie within the float range") from None
    # numpy would parse numeric text (as _real_number does not "0.5"), and
    # casting a complex array would drop its imaginary part
    raise ValueError(f"{name} must be {'real ' if arr.dtype.kind == 'c' else ''}numbers")


def _check_positive(name: str, value) -> float:
    value = _real_number(name, value)
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a finite positive real, got {value!r}")
    return value


def _as_finite_array(name: str, x) -> np.ndarray:
    arr = _real_array(name, x)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return arr


def channel(x: np.ndarray, p, delta=None) -> np.ndarray:
    """Signed power |x|^p sign(x), saturated at |x| = delta (None or inf: never).

    Unchecked; p and delta broadcast against x.
    """
    a = np.abs(x)
    return np.copysign((a if delta is None else np.minimum(a, delta)) ** p, x)


def channel_integral(x: np.ndarray, p, delta=None) -> np.ndarray:
    """Integral of the channel map from 0 to x. Unchecked."""
    a = np.abs(x)
    m = a if delta is None else np.minimum(a, delta)
    return m ** (p + 1.0) / (p + 1.0) + m**p * (a - m)


def signed_pow(x, p: float):
    """|x|^p * sign(x), element-wise.

    Odd, strictly increasing and continuous in x for any p > 0, with
    signed_pow(0, p) = 0. Scalar input returns a float.
    """
    p = _check_positive("p", p)
    arr = _as_finite_array("x", x)
    out = channel(arr, p)
    return float(out) if arr.ndim == 0 else out


def sat_clip(x, delta: float):
    """Standard magnitude clip: x limited to [-delta, delta]."""
    delta = _check_positive("delta", delta)
    arr = _as_finite_array("x", x)
    out = np.clip(arr, -delta, delta)
    return float(out) if arr.ndim == 0 else out


def sat_pow(x, p: float, delta: float):
    """Saturated signed power.

    Returns |x|^p * sign(x) while |x| < delta and delta^p * sign(x) beyond,
    so the output magnitude never exceeds delta^p; the two branches agree at
    |x| = delta. Commutes with the magnitude clip: sat_pow(x, p, d) equals
    signed_pow(sat_clip(x, d), p) exactly.
    """
    p = _check_positive("p", p)
    delta = _check_positive("delta", delta)
    arr = _as_finite_array("x", x)
    out = channel(arr, p, delta)
    return float(out) if arr.ndim == 0 else out


def s_integral(x, delta: float, p: float):
    """Integral of sat_pow from 0 to x; the bounded potential-energy kernel.

    Piecewise: |x|^(p+1) / (p+1) inside the linear band, and the affine
    continuation delta^(p+1) / (p+1) + delta^p (|x| - delta) beyond.
    Nonnegative, zero only at x = 0, continuously differentiable with
    derivative sat_pow(x, p, delta), and bounded below by
    delta^p |x| / (p+1) for |x| >= delta.
    """
    p = _check_positive("p", p)
    delta = _check_positive("delta", delta)
    arr = _as_finite_array("x", x)
    out = channel_integral(arr, p, delta)
    return float(out) if arr.ndim == 0 else out


def dilate(x, weights, epsilon: float) -> np.ndarray:
    """Anisotropic dilation: component j of x scaled by epsilon^weights[j]."""
    epsilon = _check_positive("epsilon", epsilon)
    arr = _real_array("x", x)
    w = _real_array("weights", weights)
    if arr.shape != w.shape:
        raise ValueError(
            f"x and weights must have equal length, got {arr.shape} vs {w.shape}"
        )
    if np.any(w <= 0.0):
        raise ValueError("dilation weights must be positive")
    return epsilon**w * arr


@dataclass(frozen=True)
class Weights:
    """Homogeneity weight pair (r1 for position-like, r2 for velocity-like).

    Admissible region is 2*r2 > r1 >= r2 > 0. Strict r1 > r2 yields the
    finite-time exponent regime (both derived exponents in (0, 1)); r1 = r2
    yields the linear, asymptotically stable regime. r1 >= 2*r2 would make
    the control laws discontinuous and is rejected.
    """

    r1: float
    r2: float

    def __post_init__(self):
        r1, r2 = _real_number("r1", self.r1), _real_number("r2", self.r2)
        object.__setattr__(self, "r1", r1)
        object.__setattr__(self, "r2", r2)
        if not (np.isfinite(r1) and np.isfinite(r2)) or r2 <= 0.0 or r1 <= 0.0:
            raise ValueError(f"weights must be positive reals, got r1={r1}, r2={r2}")
        if r1 < r2:
            raise ValueError(
                f"weight ordering violated: need r1 >= r2 > 0, got r1={r1} < r2={r2}"
            )
        if 2.0 * r2 <= r1:
            raise ValueError(
                "discontinuous-controller regime rejected: "
                f"need 2*r2 > r1, got r1={r1}, r2={r2}"
            )

    @property
    def is_finite_time(self) -> bool:
        """True when r1 > r2, the negative-homogeneity-degree regime."""
        return self.r1 > self.r2

    @property
    def degree(self) -> float:
        """Homogeneity degree r2 - r1 of the shaped closed loop (< 0 iff FT)."""
        return self.r2 - self.r1

    @property
    def pos_exponent(self) -> float:
        """Exponent (2*r2 - r1) / r1 applied to position-like signals."""
        return (2.0 * self.r2 - self.r1) / self.r1

    @property
    def vel_exponent(self) -> float:
        """Exponent (2*r2 - r1) / r2 applied to velocity-like signals."""
        return (2.0 * self.r2 - self.r1) / self.r2

    @property
    def theta_exponent(self) -> float:
        """Exponent r2 / r1 in the virtual-state rate law."""
        return self.r2 / self.r1
