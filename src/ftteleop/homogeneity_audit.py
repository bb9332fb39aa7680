"""Numerical audit of the closed loop's weighted-homogeneity structure.

The shaped closed loop splits into a dilation-homogeneous core and a
remainder. The core is the unbounded control law with gravity dropped and
the inertia matrix frozen at a consensus position; it scales exactly under
the anisotropic dilation with degree r2 - r1 (negative in the finite-time
regime). The remainder - Coriolis forces plus the configuration dependence
of the inertia - must fade faster than the core as the dilation shrinks
toward the origin.

Both facts are audited by sampling: an exact degree check on the core, and a
shrinking-dilation sweep measuring the worst remainder over a fixed sphere
of directions. Sampling can falsify but not certify the limit; the audit is
evidence for the structure, not a proof.

Both fields map stacks of error-coordinate states of shape (..., dim) to
their time derivatives of the same shape, so every sample of an audit is
evaluated in one call of the engine's kernels. Only `sphere_points` needs
scipy: `scipy.stats` loads on its first call, not on import, so simulating,
comparing and validating a scenario need numpy only.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .controllers import ControllerConfig, control_law, stack_laws
from .robot_dynamics import (
    RobotParams,
    SingularInertiaError,
    _spd_solve,
    acceleration_kernel,
    inertia_kernel,
    link_angles,
    stack_arm_arrays,
)

__all__ = [
    "HomogeneitySpec",
    "sphere_points",
    "stacked_weights",
    "homogeneous_field",
    "full_field",
    "check_degree",
    "vanishing_sweep",
    "fitted_decay_slope",
]


def stacked_weights(config: ControllerConfig, n: int) -> np.ndarray:
    """Dilation weights of the stacked closed-loop state.

    Layout (err coordinates relative to the consensus position): position
    blocks of both robots get r1, velocity blocks r2; C2/C4 append the
    virtual-mismatch blocks, also weighted r1. n must be the controller's
    joint count.
    """
    if not (_is_integer(n) and n == config.n):
        raise ValueError(f"n = {n!r} does not match the controller's joint count {config.n}")
    r1, r2 = config.weights.r1, config.weights.r2
    w = [r1] * (2 * n) + [r2] * (2 * n)
    if config.has_virtual_state:
        w += [r1] * (2 * n)
    return np.array(w)


def _is_integer(value) -> bool:
    """An int or numpy integer, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True, eq=False)
class HomogeneitySpec:
    """Sampling plan for one audit: weights, claimed degree, sphere size and
    the decreasing dilation grid."""

    weights: np.ndarray
    degree: float
    samples: int = 256
    eps_grid: np.ndarray = field(default_factory=lambda: np.geomspace(1.0, 1e-3, 13))
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, float))
        object.__setattr__(self, "eps_grid", np.asarray(self.eps_grid, float))
        for name, arr in (("weights", self.weights), ("eps grid", self.eps_grid)):
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError(f"{name} must be a nonempty 1-D array, got shape {arr.shape}")
        if not np.all((self.weights > 0) & np.isfinite(self.weights)):
            raise ValueError("weights must be positive and finite")
        if not math.isfinite(self.degree):
            raise ValueError(f"degree must be finite, got {self.degree!r}")
        if not _is_integer(self.samples) or self.samples < 1:
            raise ValueError(f"samples must be a positive integer, got {self.samples!r}")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not (np.all((self.eps_grid > 0) & np.isfinite(self.eps_grid))
                and np.all(np.diff(self.eps_grid) < 0)):
            raise ValueError("eps grid must be strictly decreasing positive finite reals")

    @classmethod
    def for_config(cls, config: ControllerConfig, n: int, samples: int = 256,
                   seed: int = 0) -> "HomogeneitySpec":
        return cls(
            weights=stacked_weights(config, n),
            degree=config.weights.degree,
            samples=samples,
            seed=seed,
        )


@lru_cache(maxsize=32)
def sphere_points(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """Deterministic low-discrepancy directions on the unit sphere, (count, dim).

    Scrambled Sobol points mapped through the normal quantile and
    normalized; identical (dim, count, seed) always give the same set. The
    set is cached and returned read-only.
    """
    from scipy.stats import norm, qmc   # here, so runs that never audit skip loading scipy
    sampler = qmc.Sobol(d=dim, scramble=True, seed=seed)
    m = int(np.ceil(np.log2(max(count, 2))))
    pts = sampler.random_base2(m)[:count]
    z = norm.ppf(pts)
    out = z / np.linalg.norm(z, axis=1, keepdims=True)
    out.setflags(write=False)
    return out


def _dilations(spec: HomogeneitySpec, points: np.ndarray) -> np.ndarray:
    """The points dilated by every grid epsilon, shape (eps, sample, dim)."""
    return spec.eps_grid[:, None, None] ** spec.weights * points


def _field_inputs(config: ControllerConfig, params_l, params_r, q_c):
    """q_c as n floats, the law and the arms.

    Raises ValueError unless q_c holds n finite entries whose link angles
    and their differences stay finite too.
    """
    q_c = np.asarray(q_c, float)
    with np.errstate(over="ignore", invalid="ignore"):
        # the widest angle difference is finite only if every entry and angle is
        if q_c.size != config.n or not np.isfinite(np.ptp(link_angles(q_c.ravel()))):
            raise ValueError("q_c must have n finite entries")
    return q_c.reshape(config.n), stack_laws([config]), stack_arm_arrays([(params_l, params_r)])


def _error_field(config: ControllerConfig, q_c, dynamics):
    """A field over stacks of error-coordinate states of shape (..., dim).

    Each state is laid out as position errors, velocities and, for C2/C4,
    virtual-state mismatches theta - q, each with rows (local, remote) of n
    joints: the engine's (k, 2, n) layout, flattened. ``dynamics(q, qdot,
    theta)`` receives positions shifted by q_c as (N, 2, n) stacks and
    returns the accelerations and the virtual-state rates (None for C1/C3).
    """
    k = 3 if config.has_virtual_state else 2
    dim = 2 * k * config.n

    def field_fn(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, float)
        if x.shape[-1:] != (dim,):
            raise ValueError(f"states must have last-axis length {dim}, got shape {x.shape}")
        blocks = x.reshape(-1, k, 2, config.n)
        q, qdot = blocks[:, 0] + q_c, blocks[:, 1]
        theta = blocks[:, 2] + q if k == 3 else None
        acc, theta_dot = dynamics(q, qdot, theta)
        rows = [qdot, acc] if theta_dot is None else [qdot, acc, theta_dot - qdot]
        return np.stack(rows, axis=1).reshape(x.shape)

    return field_fn


def homogeneous_field(config: ControllerConfig, params_l: RobotParams,
                      params_r: RobotParams, q_c: np.ndarray):
    """Dilation-homogeneous core of the closed loop, inertia frozen at q_c.

    The unbounded control law of the configured variant with gravity
    dropped, accelerating through the inverse inertia at the consensus
    position. Saturations never enter the core: near the origin the bounded
    variants coincide with their unbounded counterparts. ``q_c`` must hold
    n finite entries, else ValueError.
    """
    q_c, law, arms = _field_inputs(config, params_l, params_r, q_c)
    law = law._replace(levels=None)
    inv = np.linalg.inv(inertia_kernel(arms, link_angles(q_c)))[0]   # (2, n, n), one per arm
    if not np.all(np.isfinite(inv)):
        raise SingularInertiaError("frozen inertia matrix is singular at the consensus position")
    inv_t = np.swapaxes(inv, -1, -2)

    def dynamics(q, qdot, theta):
        tau, theta_dot = control_law(law, q, qdot, theta, q[:, ::-1])
        # one (N, n) x (n, n) product per arm, not N mat-vecs
        return np.swapaxes(np.swapaxes(tau, 0, 1) @ inv_t, 0, 1), theta_dot

    return _error_field(config, 0.0, dynamics)


def full_field(config: ControllerConfig, params_l: RobotParams,
               params_r: RobotParams, q_c: np.ndarray):
    """The complete free-motion closed loop in error coordinates around q_c.

    The torque laws return the torque net of the gravity they cancel, and it
    drives the engine's link-coordinate kernel, so the field evaluates no gravity
    and depends on q_c only through the configuration-varying inertia and Coriolis.
    An audit evaluates thousands of states in one call, so the kernel solves
    them by the stacked elimination, not by one LAPACK call per matrix.
    ``q_c`` must hold n finite entries, else ValueError.
    """
    q_c, law, arms = _field_inputs(config, params_l, params_r, q_c)

    def dynamics(q, qdot, theta):
        tau, theta_dot = control_law(law, q, qdot, theta, q[:, ::-1])
        acc = acceleration_kernel(arms, link_angles(q), link_angles(qdot), tau, _spd_solve)
        return acc, theta_dot

    return _error_field(config, q_c, dynamics)


def check_degree(field_fn, spec: HomogeneitySpec) -> float:
    """Worst relative defect of the claimed dilation scaling.

    For each sampled direction x and each grid epsilon, compares
    field(dilate(x)) against eps^(degree + w_j) field_j(x) component-wise,
    relative to |field_j(x)| with a 1e-12 absolute floor; output j carries
    the weight w_j of input j. An exactly homogeneous field returns
    rounding-level defects. ``field_fn`` must map stacks (..., dim) to (..., dim).
    """
    points = sphere_points(spec.weights.size, spec.samples, spec.seed)
    fx = np.asarray(field_fn(points), float)
    fd = np.asarray(field_fn(_dilations(spec, points)), float)
    scale = spec.eps_grid[:, None, None] ** (spec.degree + spec.weights)
    return float(np.max(np.abs(fd - scale * fx) / (np.abs(fx) + 1e-12)))


def vanishing_sweep(config: ControllerConfig, params_l: RobotParams,
                    params_r: RobotParams, q_c, spec: HomogeneitySpec):
    """Worst back-scaled difference between the full loop and its core.

    For each grid epsilon, evaluates the full field at the dilated sphere
    samples, undoes the dilation and degree scaling, and measures the
    largest norm distance to the core. A sound homogeneous approximation
    sends the column to zero as epsilon does.

    Returns (eps_grid, deviations).
    """
    points = sphere_points(spec.weights.size, spec.samples, spec.seed)
    core_values = homogeneous_field(config, params_l, params_r, q_c)(points)
    fd = full_field(config, params_l, params_r, q_c)(_dilations(spec, points))
    bad = ~np.all(np.isfinite(fd), axis=(1, 2))
    if np.any(bad):
        raise FloatingPointError(f"full field non-finite at eps={spec.eps_grid[bad.argmax()]}")
    back = spec.eps_grid[:, None, None] ** -(spec.degree + spec.weights)
    devs = np.linalg.norm(back * fd - core_values, axis=-1).max(axis=1)
    return spec.eps_grid.copy(), devs


def fitted_decay_slope(eps: np.ndarray, devs: np.ndarray) -> float:
    """Log-log slope of the sweep over its final decade of epsilon.

    Raises ValueError unless that decade holds two or more grid points and
    every deviation in it is positive and finite.
    """
    eps = np.asarray(eps, float)
    devs = np.asarray(devs, float)
    mask = eps <= eps.min() * 10.0 * (1 + 1e-9)
    if mask.sum() < 2:
        raise ValueError("need at least two grid points in the final decade")
    devs = devs[mask]
    if not np.all((devs > 0) & np.isfinite(devs)):
        raise ValueError("deviations must be positive and finite")
    return float(np.polyfit(np.log(eps[mask]), np.log(devs), 1)[0])
