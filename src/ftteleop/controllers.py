"""The four energy-shaping teleoperation control laws.

All variants shape the coupled system's potential energy around the
zero-position-error manifold and inject dissipation, cancelling each robot's
own gravity torque exactly (the kernels return the torque net of it):

    C1  state feedback:     tau_i = -k_s o |e|^p_pos - d_s,i o |qd_i|^p_vel + grav_i
    C2  output feedback:    damping enters through a virtual state theta_i
                            driven toward q_i; no velocity appears anywhere.
    C3  bounded C1:         both terms pass through the saturated power, so
                            each joint torque (net of gravity) is capped.
    C4  bounded C2:         saturated proportional and virtual-state terms.

Here e = q_i - q_j is the inter-robot position error, o is element-wise gain
application (per-joint gain vectors; scalars broadcast), and the exponents
p_pos, p_vel derive from the homogeneity weight pair. Signed powers are
written |x|^p as shorthand for the odd function signed_pow.

C1/C3 read measured velocities directly; C2/C4 integrate the virtual state
theta (by convention initialized at the robot's starting position).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .robot_dynamics import (
    RobotParams,
    RobotState,
    gravity_kernel,
    link_angles,
    stack_arm_arrays,
)
from .scalar_ops import Weights, _real_array, _real_number, channel, channel_integral

__all__ = [
    "VARIANTS",
    "LOCAL",
    "REMOTE",
    "ControllerConfig",
    "ControllerState",
    "ControlAction",
    "SaturationReport",
    "control_action",
    "StackedLaw",
    "stack_laws",
    "control_law",
    "law_potential",
    "law_dissipation",
    "shaped_potential",
    "dissipation_rate",
    "validate_saturation",
]

VARIANTS = ("C1", "C2", "C3", "C4")
LOCAL, REMOTE = 0, 1


def _gain(value, shape: tuple, name: str, allow_zero: bool = False) -> np.ndarray:
    """Broadcast a gain spec to ``shape`` and check it.

    The shape is (n,) for the shared k_s and (2, n), rows (local, remote),
    for the per-robot gains; a scalar or a length-n vector applies to every
    joint (and to both robots), a (2, 1) pair to every joint of each robot.
    """
    arr = _real_array(name, value)
    try:
        out = np.array(np.broadcast_to(arr, shape))
    except ValueError:
        raise ValueError(
            f"{name}: cannot interpret shape {arr.shape} for {shape[-1]} joints") from None
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must be finite")
    if allow_zero:
        if np.any(out < 0):
            raise ValueError(f"{name} must be nonnegative")
    elif np.any(out <= 0):
        raise ValueError(f"{name} must be positive")
    return out


@dataclass(frozen=True, eq=False)
class ControllerConfig:
    """Variant tag, weight pair, gains and saturation levels for one run.

    k_s is the shared inter-robot stiffness (per joint). d_s (C1/C3), k_c and
    d_c (C2/C4) are per-robot per-joint arrays with rows (local, remote).
    delta_p / delta_d are the saturation levels of the proportional and
    damping channels (C3/C4 only; C1/C2 reject them). The weight pair may be
    a Weights or an (r1, r2) pair, and n is a positive integer. Gains may be
    given as scalars, per-joint vectors or (2, n) pairs; they are normalized
    and checked on construction, also by dataclasses.replace, and a bad value
    raises ValueError.
    """

    variant: str
    weights: Weights
    n: int
    k_s: np.ndarray
    d_s: np.ndarray | None = None
    k_c: np.ndarray | None = None
    d_c: np.ndarray | None = None
    delta_p: float | None = None
    delta_d: float | None = None
    p_pos: float = field(init=False)
    p_vel: float = field(init=False)

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        n = int(self.n)
        object.__setattr__(self, "n", n)
        if not isinstance(self.weights, Weights):
            try:
                r1, r2 = self.weights
            except (TypeError, ValueError):
                raise ValueError("weights must be a Weights or an (r1, r2) pair, "
                                 f"got {self.weights!r}") from None
            object.__setattr__(self, "weights", Weights(r1, r2))
        object.__setattr__(self, "k_s", _gain(self.k_s, (n,), "k_s"))
        for name in ("d_s", "k_c", "d_c"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _gain(
                    getattr(self, name), (2, n), name, allow_zero=name == "d_s"))
        for name in ("delta_p", "delta_d"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _real_number(name, getattr(self, name)))
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        object.__setattr__(self, "p_pos", self.weights.pos_exponent)
        object.__setattr__(self, "p_vel", self.weights.vel_exponent)
        if self.has_virtual_state:
            if self.k_c is None or self.d_c is None:
                raise ValueError(f"{self.variant} requires the virtual-state gains k_c and d_c")
        elif self.d_s is None:
            raise ValueError(f"{self.variant} requires the velocity damping gain d_s")
        if self.is_bounded:
            if self.delta_p is None or self.delta_d is None:
                raise ValueError(f"{self.variant} requires saturation levels delta_p and delta_d")
            if not (0 < self.delta_p < math.inf and 0 < self.delta_d < math.inf):
                raise ValueError("saturation levels must be positive and finite")
        elif self.delta_p is not None or self.delta_d is not None:
            raise ValueError("delta_p and delta_d apply to C3/C4 only")

    @classmethod
    def build(cls, variant, n, weights, k_s, d_s=None, k_c=None, d_c=None,
              delta_p=None, delta_d=None) -> "ControllerConfig":
        """The constructor with the joint count before the weight pair."""
        return cls(variant, weights, n, k_s, d_s, k_c, d_c, delta_p, delta_d)

    @property
    def is_bounded(self) -> bool:
        return self.variant in ("C3", "C4")

    @property
    def has_virtual_state(self) -> bool:
        return self.variant in ("C2", "C4")


@dataclass(frozen=True, eq=False)
class ControllerState:
    """Virtual positions of the output-feedback controllers (C2/C4)."""

    theta_l: np.ndarray
    theta_r: np.ndarray

    def __post_init__(self):
        for name in ("theta_l", "theta_r"):
            object.__setattr__(self, name, np.atleast_1d(_real_array(name, getattr(self, name))))
        if not (np.all(np.isfinite(self.theta_l)) and np.all(np.isfinite(self.theta_r))):
            raise ValueError("controller state must be finite")


@dataclass(frozen=True)
class ControlAction:
    tau_l: np.ndarray
    tau_r: np.ndarray
    theta_dot_l: np.ndarray | None = None
    theta_dot_r: np.ndarray | None = None


# --- the stacked law ------------------------------------------------------
#
# C1-C4 differ in the channel map (signed power, or saturated power with a
# level delta) and in the damping source (the measured velocity, or the
# virtual state theta with its rate law). The kernels below evaluate the law
# for B configs of one joint count at once, any mix of variants, on states of
# shape (B, 2, n) with rows (local, remote); the single-state functions are
# their B = 1 case.


class StackedLaw(NamedTuple):
    """Gains of B controller configs of one joint count, stacked for the kernels.

    ``exponents``, ``levels`` and ``gains`` are (c, B, 2, n) with rows (local,
    remote), one slot per channel: proportional on q - q_seen, damping on
    qdot (C1/C3) or theta - q (C2/C4) and, if some member holds theta
    (c = 3), the theta rate on theta - q. The slot axis leads so that each
    slot is one contiguous (B, 2, n) block. The gains are signed (-k_s; -d_s or
    +k_c; -speed with speed = (k_c / d_c)^(1 / p_vel)), and the energy terms
    read the same slots. The saturation levels are infinite for the unbounded
    members, and ``levels`` is None when no member is bounded.
    ``virtual_mask`` is the (B, 1, 1) mask of the C2/C4 members; in a stack
    that holds theta the C1/C3 members get speed = 0, so their theta stays.
    """

    exponents: np.ndarray
    levels: np.ndarray | None
    gains: np.ndarray
    virtual_mask: np.ndarray

    @property
    def virtual(self) -> bool:
        """Whether the stack holds theta (some member is C2/C4)."""
        return len(self.gains) == 3

    def level(self, slot: int) -> np.ndarray | None:
        """Saturation levels of one channel slot (None: no member is bounded)."""
        return None if self.levels is None else self.levels[slot]

    def take(self, members: slice) -> "StackedLaw":
        """The members in the slice ``members`` (None stays None); the first
        three fields hold them on their second axis."""
        return StackedLaw(*(None if v is None else v[:, members] if i < 3 else v[members]
                            for i, v in enumerate(self)))


def stack_laws(configs) -> StackedLaw:
    """Stack configs that share the joint count (checked); variants may mix."""
    first = configs[0]
    if any(c.n != first.n for c in configs):
        raise ValueError("stacked configs must share the joint count")
    mask = np.array([c.has_virtual_state for c in configs])[:, None, None]
    slots, shape, zeros = (3 if mask.any() else 2), (2, first.n), np.zeros((2, first.n))

    def stacked(channels):
        # full arrays: numpy's power takes another code path for a broadcast
        # exponent, which would make results depend on B
        out = np.empty((slots, len(configs)) + shape)
        for b, c in enumerate(configs):
            for row, value in zip(out[:, b], channels(c)):
                row[...] = value
        return out

    bounded = any(c.is_bounded for c in configs)
    return StackedLaw(
        exponents=stacked(lambda c: (c.p_pos, c.p_pos if c.has_virtual_state else c.p_vel,
                                     c.weights.theta_exponent)),
        levels=stacked(lambda c: (c.delta_p, c.delta_d, c.delta_d) if c.is_bounded
                       else (np.inf,) * 3) if bounded else None,
        gains=stacked(lambda c: (-c.k_s, c.k_c, -(c.k_c / c.d_c) ** (1.0 / c.p_vel))
                      if c.has_virtual_state else (-c.k_s, -c.d_s, zeros)),
        virtual_mask=mask,
    )


def control_law(law: StackedLaw, q, qdot, theta, q_seen):
    """Torques (B, 2, n) net of gravity, and theta rates (None if no member holds theta).

    ``q_seen`` holds, per side, the other robot's position as this side
    receives it (q with its rows swapped when nothing delays the exchange).
    The applied torque adds each robot's own gravity torque, cancelled exactly.
    Every channel is evaluated in one pass over a (c, B, 2, n) argument
    array, whose slots are contiguous blocks like the law's. When the stack
    holds theta, its C1/C3 members damp through qdot and get a zero theta
    rate. Negating a gain negates its term exactly, so each member gets the
    torque its variant gives alone, to the bit. The terms are scaled in the
    channel map's own buffer.
    """
    virtual = law.virtual
    arg = np.empty((len(law.gains),) + q.shape)
    np.subtract(q, q_seen, arg[0])
    arg[1] = qdot
    if virtual:
        np.subtract(theta, q, arg[2])
        np.copyto(arg[1], arg[2], where=law.virtual_mask)   # C2/C4 damp through theta - q
    term = channel(arg, law.exponents, law.levels)
    term *= law.gains
    return term[0] + term[1], term[2] if virtual else None


def law_potential(law: StackedLaw, q, theta=None) -> np.ndarray:
    """Shaped potential energy of states (..., B, 2, n), shape (..., B).

    Positive definite in the error (and, for C2/C4, the virtual-state
    mismatch); its error gradient is minus the proportional torque term and
    its theta gradient minus the damping one.
    """
    err = q[..., :1, :] - q[..., 1:, :]
    delta_p = None if law.levels is None else law.levels[0, :, :1]
    value = np.sum(-law.gains[0, :, :1] * channel_integral(err, law.exponents[0, :, :1], delta_p),
                   axis=(-2, -1))
    if law.virtual:
        virtual = law.gains[1] * channel_integral(theta - q, law.exponents[1], law.level(1))
        value = value + np.sum(np.where(law.virtual_mask, virtual, 0.0), axis=(-2, -1))
    return value


def law_dissipation(law: StackedLaw, q, qdot, theta=None) -> np.ndarray:
    """Analytic decay rate (<= 0) of the shaped energy in free motion,
    shape (..., B): the power of the damping channel.

    C1/C3 damp the measured joint velocities. For C2/C4 the damping torque's
    qdot part cancels against the potential's theta gradient, which leaves
    the channel's power on the virtual-state velocity. Saturation only slows
    the decay, it never changes its sign.
    """
    arg = vel = qdot
    if law.virtual:
        theta_err = theta - q
        rate = law.gains[2] * channel(theta_err, law.exponents[2], law.level(2))
        arg = np.where(law.virtual_mask, theta_err, qdot)
        vel = np.where(law.virtual_mask, rate, qdot)
    power = law.gains[1] * vel * channel(arg, law.exponents[1], law.level(1))
    return np.sum(power, axis=(-2, -1))


def _stacked(config, state_l, state_r, ctrl):
    """The law and the (k, 1, 2, n) engine state: q, qdot and, for C2/C4,
    theta, which needs a ControllerState (ValueError without one)."""
    rows = [[(state_l.q, state_r.q)], [(state_l.qdot, state_r.qdot)]]
    if config.has_virtual_state:
        if ctrl is None:
            raise ValueError(f"{config.variant} requires a ControllerState")
        rows.append([(ctrl.theta_l, ctrl.theta_r)])
    return stack_laws([config]), np.array(rows, dtype=float)


def control_action(config, params_l, params_r, state_l, state_r,
                   ctrl: ControllerState | None = None) -> ControlAction:
    """The configured variant's torques (and virtual-state rates)."""
    law, x = _stacked(config, state_l, state_r, ctrl)
    q = x[0]
    tau, theta_dot = control_law(law, q, x[1], x[2] if law.virtual else None, q[:, ::-1])
    tau = tau + gravity_kernel(stack_arm_arrays([(params_l, params_r)]), link_angles(q))
    theta_dot = () if theta_dot is None else (theta_dot[0, LOCAL], theta_dot[0, REMOTE])
    return ControlAction(tau[0, LOCAL], tau[0, REMOTE], *theta_dot)


def shaped_potential(config, state_l: RobotState, state_r: RobotState,
                     ctrl: ControllerState | None = None) -> float:
    """Designed potential energy of the shaped closed loop (see law_potential)."""
    law, x = _stacked(config, state_l, state_r, ctrl)
    return float(law_potential(law, x[0], x[2] if law.virtual else None)[0])


def dissipation_rate(config, state_l: RobotState, state_r: RobotState,
                     ctrl: ControllerState | None = None) -> float:
    """Analytic decay rate of the total shaped energy (see law_dissipation)."""
    law, x = _stacked(config, state_l, state_r, ctrl)
    return float(law_dissipation(law, x[0], x[1], x[2] if law.virtual else None)[0])


@dataclass(frozen=True)
class SaturationReport:
    """Per-joint non-saturation check for the bounded variants.

    Two torque budgets are reported for each robot and joint. The literal
    budget multiplies gains by the raw saturation levels (k_s*delta_p +
    gain*delta_d); the implemented budget uses the actual output caps of the
    saturated power (delta^exponent), which is what the control law can
    really emit. The gate compares the larger of the two against the margin
    tau_limit - gravity_cap, so a passing report guarantees the emitted
    torque never reaches the limit under either reading.
    """

    literal_budget: np.ndarray      # (2, n)
    implemented_budget: np.ndarray  # (2, n)
    margin: np.ndarray              # (2, n), torque_limit - gravity_cap - budget
    passed: np.ndarray              # (2, n) bool
    unlimited: bool

    @property
    def ok(self) -> bool:
        return bool(np.all(self.passed))

    def describe(self) -> str:
        lines = []
        if self.unlimited:
            lines.append("torque limits: unlimited -> non-saturation holds trivially")
        for side, name in ((LOCAL, "local"), (REMOTE, "remote")):
            for k in range(self.literal_budget.shape[1]):
                status = "pass" if self.passed[side, k] else "FAIL"
                lines.append(
                    f"{name} joint {k + 1}: budget literal={self.literal_budget[side, k]:.4f}"
                    f" implemented={self.implemented_budget[side, k]:.4f}"
                    f" margin={self.margin[side, k]:.4f} [{status}]"
                )
        return "\n".join(lines)


def validate_saturation(config, params_l: RobotParams, params_r: RobotParams) -> SaturationReport:
    """Check the per-joint saturation condition for a C3/C4 configuration.

    Required to pass before a bounded-variant run may claim that actuator
    limits are never reached.
    """
    if not config.is_bounded:
        raise ValueError("saturation validation applies to the bounded variants C3/C4")
    n = config.n
    # damping gain, and the exponent acting inside its channel's saturation
    gain, p_d = ((config.k_c, config.p_pos) if config.has_virtual_state
                 else (config.d_s, config.p_vel))
    lit = config.k_s * config.delta_p + gain * config.delta_d
    imp = config.k_s * config.delta_p**config.p_pos + gain * config.delta_d**p_d
    conservative = np.maximum(lit, imp)

    margin = np.full((2, n), np.inf)
    passed = np.ones((2, n), dtype=bool)
    unlimited = True
    for side, params in ((LOCAL, params_l), (REMOTE, params_r)):
        if params.torque_limits is None:
            continue
        unlimited = False
        headroom = params.torque_limits - params.bounds.gravity_caps
        margin[side] = headroom - conservative[side]
        passed[side] = margin[side] > 0.0
    return SaturationReport(
        literal_budget=lit,
        implemented_budget=imp,
        margin=margin,
        passed=passed,
        unlimited=unlimited,
    )
