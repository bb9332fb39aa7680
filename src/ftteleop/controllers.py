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
from .scalar_ops import Weights, channel, channel_integral

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
    arr = np.asarray(value, dtype=float)
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
    damping channels (C3/C4 only; C1/C2 reject them). Gains may be given as
    scalars, per-joint vectors or (2, n) pairs; they are normalized and
    checked on construction, also by dataclasses.replace, and a bad value
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
        n = int(self.n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k_s", _gain(self.k_s, (n,), "k_s"))
        for name in ("d_s", "k_c", "d_c"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _gain(
                    getattr(self, name), (2, n), name, allow_zero=name == "d_s"))
        for name in ("delta_p", "delta_d"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, float(getattr(self, name)))
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
            if not (self.delta_p > 0 and self.delta_d > 0):
                raise ValueError("saturation levels must be positive")
        elif self.delta_p is not None or self.delta_d is not None:
            raise ValueError("delta_p and delta_d apply to C3/C4 only")

    @classmethod
    def build(cls, variant, n, weights, k_s, d_s=None, k_c=None, d_c=None,
              delta_p=None, delta_d=None) -> "ControllerConfig":
        """Construct with the weight pair given as Weights or an (r1, r2) tuple."""
        if not isinstance(weights, Weights):
            weights = Weights(*weights)
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
        object.__setattr__(self, "theta_l", np.atleast_1d(np.asarray(self.theta_l, float)))
        object.__setattr__(self, "theta_r", np.atleast_1d(np.asarray(self.theta_r, float)))
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

    Gains, exponents and saturation levels are (B, 2, n) with rows (local,
    remote), except the shared k_s, which is (B, 1, n). The saturation
    levels are infinite for the unbounded variants.
    ``damping`` is d_s for the members that damp through the measured
    velocity (C1/C3) and k_c for those that damp through theta (C2/C4).
    ``virtual_mask`` is the (B, 1, 1) mask of the C2/C4 members, and
    ``p_damp`` the exponent of each member's damping channel: p_vel on qdot,
    or p_pos on the mismatch theta - q. ``d_c`` and ``speed`` =
    (k_c / d_c)^(1 / p_vel), the virtual-state rate gain, are None when no
    member holds theta; otherwise the C1/C3 members get d_c = speed = 0, so
    their theta stays where it starts.
    """

    k_s: np.ndarray
    damping: np.ndarray
    d_c: np.ndarray | None
    speed: np.ndarray | None
    p_pos: np.ndarray
    p_vel: np.ndarray
    p_theta: np.ndarray
    p_damp: np.ndarray
    delta_p: np.ndarray
    delta_d: np.ndarray
    virtual_mask: np.ndarray

    @property
    def virtual(self) -> bool:
        """Whether the stack holds theta (some member is C2/C4)."""
        return self.d_c is not None


def stack_laws(configs) -> StackedLaw:
    """Stack configs that share the joint count (checked); variants may mix."""
    first = configs[0]
    if any(c.n != first.n for c in configs):
        raise ValueError("stacked configs must share the joint count")
    mask = np.array([c.has_virtual_state for c in configs])[:, None, None]
    zeros = np.zeros((2, first.n))

    def per_member(get):
        # full (B, 2, n) exponents: numpy's power takes another code path for
        # a broadcast exponent, which would make results depend on B
        return np.repeat(np.array([get(c) for c in configs], dtype=float), 2 * first.n) \
            .reshape(len(configs), 2, first.n)

    def theta_gain(get):
        if not mask.any():
            return None
        return np.array([get(c) if c.has_virtual_state else zeros for c in configs])

    p_pos, p_vel = per_member(lambda c: c.p_pos), per_member(lambda c: c.p_vel)
    return StackedLaw(
        k_s=np.array([c.k_s for c in configs])[:, None, :],
        damping=np.array([c.k_c if c.has_virtual_state else c.d_s for c in configs]),
        d_c=theta_gain(lambda c: c.d_c),
        speed=theta_gain(lambda c: (c.k_c / c.d_c) ** (1.0 / c.p_vel)),
        p_pos=p_pos,
        p_vel=p_vel,
        p_theta=per_member(lambda c: c.weights.theta_exponent),
        p_damp=np.where(mask, p_pos, p_vel),
        delta_p=per_member(lambda c: c.delta_p if c.is_bounded else np.inf),
        delta_d=per_member(lambda c: c.delta_d if c.is_bounded else np.inf),
        virtual_mask=mask,
    )


def _theta_rate(law: StackedLaw, theta_err: np.ndarray) -> np.ndarray:
    return -law.speed * channel(theta_err, law.p_theta, law.delta_d)


def control_law(law: StackedLaw, q, qdot, theta, q_seen):
    """Torques (B, 2, n) net of gravity, and theta rates (None if no member holds theta).

    ``q_seen`` holds, per side, the other robot's position as this side
    receives it (q with its rows swapped when nothing delays the exchange).
    The applied torque adds each robot's own gravity torque, cancelled exactly.
    When the stack holds theta, its C1/C3 members damp through qdot and get
    a zero theta rate; since the channel is odd, their damping term is that of
    -qdot with the sign flipped, which gives each member the torque its
    variant gives alone, to the bit.
    """
    prop = law.k_s * channel(q - q_seen, law.p_pos, law.delta_p)
    if not law.virtual:
        return -prop - law.damping * channel(qdot, law.p_damp, law.delta_d), None
    theta_err = theta - q
    damped = np.where(law.virtual_mask, theta_err, -qdot)
    tau = -prop + law.damping * channel(damped, law.p_damp, law.delta_d)
    return tau, _theta_rate(law, theta_err)


def law_potential(law: StackedLaw, q, theta=None) -> np.ndarray:
    """Shaped potential energy of states (..., B, 2, n), shape (..., B).

    Positive definite in the error (and, for C2/C4, the virtual-state
    mismatch); its error gradient is minus the proportional torque term.
    """
    err = q[..., :1, :] - q[..., 1:, :]
    value = np.sum(law.k_s * channel_integral(err, law.p_pos[:, :1], law.delta_p[:, :1]),
                   axis=(-2, -1))
    if law.virtual:
        virtual = law.damping * channel_integral(theta - q, law.p_pos, law.delta_d)
        value = value + np.sum(np.where(law.virtual_mask, virtual, 0.0), axis=(-2, -1))
    return value


def law_dissipation(law: StackedLaw, q, qdot, theta=None) -> np.ndarray:
    """Analytic decay rate (<= 0) of the shaped energy in free motion,
    shape (..., B).

    C1/C3 dissipate through the measured joint velocities, C2/C4 through the
    virtual-state velocities; saturation only slows the decay, it never
    changes its sign.
    """
    power = law.damping * qdot * channel(qdot, law.p_vel, law.delta_d)
    if law.virtual:
        rate = law.d_c * np.abs(_theta_rate(law, theta - q)) ** (law.p_vel + 1.0)
        power = np.where(law.virtual_mask, rate, power)
    return -np.sum(power, axis=(-2, -1))


def _stacked(config, state_l, state_r, ctrl):
    """The law and the (1, k, 2, n) engine state: q, qdot and, for C2/C4,
    theta, which needs a ControllerState (ValueError without one)."""
    rows = [(state_l.q, state_r.q), (state_l.qdot, state_r.qdot)]
    if config.has_virtual_state:
        if ctrl is None:
            raise ValueError(f"{config.variant} requires a ControllerState")
        rows.append((ctrl.theta_l, ctrl.theta_r))
    return stack_laws([config]), np.array([rows], dtype=float)


def control_action(config, params_l, params_r, state_l, state_r,
                   ctrl: ControllerState | None = None) -> ControlAction:
    """The configured variant's torques (and virtual-state rates)."""
    law, x = _stacked(config, state_l, state_r, ctrl)
    q = x[:, 0]
    tau, theta_dot = control_law(law, q, x[:, 1], x[:, 2] if law.virtual else None, q[:, ::-1])
    tau = tau + gravity_kernel(stack_arm_arrays([(params_l, params_r)]), link_angles(q))
    theta_dot = () if theta_dot is None else (theta_dot[0, LOCAL], theta_dot[0, REMOTE])
    return ControlAction(tau[0, LOCAL], tau[0, REMOTE], *theta_dot)


def shaped_potential(config, state_l: RobotState, state_r: RobotState,
                     ctrl: ControllerState | None = None) -> float:
    """Designed potential energy of the shaped closed loop (see law_potential)."""
    law, x = _stacked(config, state_l, state_r, ctrl)
    return float(law_potential(law, x[:, 0], x[:, 2] if law.virtual else None)[0])


def dissipation_rate(config, state_l: RobotState, state_r: RobotState,
                     ctrl: ControllerState | None = None) -> float:
    """Analytic decay rate of the total shaped energy (see law_dissipation)."""
    law, x = _stacked(config, state_l, state_r, ctrl)
    return float(law_dissipation(law, x[:, 0], x[:, 1], x[:, 2] if law.virtual else None)[0])


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
