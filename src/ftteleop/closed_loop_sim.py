"""Fixed-step integration of the coupled two-robot closed loop.

A scenario couples two manipulators through one of the controller variants,
optionally applies scripted external force profiles, and is integrated with
an explicit fixed-step scheme (forward Euler by default, classic RK4 for
step-size studies). One engine integrates many scenarios at once as stacked
arrays (run_batch); a single run is its B = 1 case. Runs are deterministic:
identical scenarios produce bit-identical traces, alone or in a batch.

The recorded trace carries the full state, torques, forces, the inter-robot
error norm and the shaped total energy at a decimated sample interval, and
can round-trip through CSV at full float64 precision. Post-hoc monitors
check the analytic energy-decay rate against the sampled energy and build
the passive-environment energy ledger.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .controllers import (
    LOCAL,
    REMOTE,
    ControllerConfig,
    ControllerState,
    _stacked,
    control_law,
    law_dissipation,
    law_potential,
    stack_laws,
    validate_saturation,
)
from .robot_dynamics import (
    RobotParams,
    RobotState,
    acceleration_kernel,
    gravity_kernel,
    kinetic_kernel,
    link_angles,
    stack_arm_arrays,
)

__all__ = [
    "ForceProfile",
    "TeleopState",
    "SimTrace",
    "Scenario",
    "ScenarioError",
    "SimulationUnstableError",
    "step",
    "rk4_step",
    "run",
    "run_batch",
    "convergence_time",
    "energy_audit",
    "EnergyAudit",
    "passivity_ledger",
    "PassivityLedger",
    "state_bounds_from_energy",
]


class ScenarioError(ValueError):
    """Carries every validation problem found in a scenario."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid scenario:\n" + "\n".join(f"  - {p}" for p in self.problems))


class SimulationUnstableError(RuntimeError):
    """Raised when the integrated state stops being finite.

    Usually means the step size is too large for the chosen gains; refine dt
    or soften the gains.
    """


def _is_number(value) -> bool:
    """A real number (numpy's included), but not a bool."""
    # a float first: isinstance against the numbers ABC is several times slower
    return type(value) is float or (isinstance(value, numbers.Real)
                                    and not isinstance(value, bool))


@dataclass(frozen=True, eq=False)
class ForceProfile:
    """Scripted external force acting on one robot.

    Kinds:
        zero: no force.
        pulse: constant per-joint amplitude on [start, stop).
        spring_damper: passive environment -stiffness*(q - anchor) - damping*qd
            with nonnegative coefficients, so it can only inject the energy
            initially stored in the spring.
    """

    kind: str = "zero"
    start: float = 0.0
    stop: float = 0.0
    amplitude: np.ndarray | None = None
    stiffness: np.ndarray | None = None
    damping: np.ndarray | None = None
    anchor: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("zero", "pulse", "spring_damper"):
            raise ValueError(f"unknown force profile kind {self.kind!r}")
        for name in ("start", "stop"):
            if not _is_number(getattr(self, name)):
                raise ValueError(f"{name} must be a number")
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("amplitude", "stiffness", "damping", "anchor"):
            value = getattr(self, name)
            if value is not None:
                value = np.atleast_1d(np.asarray(value, float))
                if not np.isfinite(value).all():
                    raise ValueError(f"{name} must be finite")
                object.__setattr__(self, name, value)
        if self.kind == "pulse":
            if self.amplitude is None:
                raise ValueError("pulse profile requires an amplitude vector")
            if not (0.0 <= self.start < self.stop):
                raise ValueError("pulse profile requires 0 <= start < stop")
        if self.kind == "spring_damper":
            if self.stiffness is None or self.anchor is None:
                raise ValueError("spring_damper profile requires stiffness and anchor")
            if np.any(self.stiffness < 0):
                raise ValueError("spring stiffness must be nonnegative (passive map)")
            if self.damping is not None and np.any(self.damping < 0):
                raise ValueError("spring damping must be nonnegative (passive map)")

    def spring_energy(self, q: np.ndarray) -> float:
        """Energy stored in the spring at position q (0 for other kinds)."""
        if self.kind != "spring_damper":
            return 0.0
        return float(0.5 * np.sum(self.stiffness * (np.asarray(q, float) - self.anchor) ** 2))


@dataclass(frozen=True, eq=False)
class TeleopState:
    """Full closed-loop state: both robots, virtual state if any, and time."""

    local: RobotState
    remote: RobotState
    ctrl: ControllerState | None = None
    time: float = 0.0

    def __post_init__(self):
        if self.local.q.size != self.remote.q.size:
            raise ValueError("local and remote joint counts differ")
        if self.ctrl is not None and not (
                self.ctrl.theta_l.size == self.ctrl.theta_r.size == self.local.q.size):
            raise ValueError("controller state dimension mismatch")


# the most samples a trace may hold; the engine allocates the record up front
_MAX_SAMPLES = 10**7
# the most steps a run may take, round(horizon / dt): hours at one member
_MAX_STEPS = 10**9

# scenario-file key of each initial vector, with its Scenario field
_INITIAL_FIELDS = (("q_local", "q0_l"), ("q_remote", "q0_r"), ("qdot_local", "qd0_l"),
                   ("qdot_remote", "qd0_r"), ("theta_local", "theta0_l"),
                   ("theta_remote", "theta0_r"))
# the [simulation] keys that hold numbers, each the Scenario field of that name
_SIMULATION_NUMBERS = ("horizon", "dt", "decimation", "delay")


# each part of a Scenario: its scenario-file section, field and type
_PARTS = (("robot.local", "params_l", RobotParams), ("robot.remote", "params_r", RobotParams),
          ("controller", "config", ControllerConfig), ("forces.local", "profile_l", ForceProfile),
          ("forces.remote", "profile_r", ForceProfile))


def _scenario_problems(parts) -> list[str]:
    """Every rule that ties a scenario's parts together, named as in the
    scenario file.

    ``parts`` maps each Scenario field name to its value. A robot, the
    config or a profile counts only when it is an instance of its type; any
    other value (None included) failed to parse or is named by Scenario, and
    is skipped. An initial vector of None was not given; a [simulation]
    value of None is reported. Each [simulation] number that converts is
    written back to ``parts`` as a Python float.
    """
    params_l, params_r, config, profile_l, profile_r = [
        parts[name] if isinstance(parts[name], kind) else None for _, name, kind in _PARTS]
    integrator = parts["integrator"]
    problems = []
    counts = [p.n for p in (params_l, params_r) if p is not None]
    if len(set(counts)) > 1:
        problems.append("local and remote robots must have the same joint count")
    n = counts[0] if counts else None
    if config is not None and n is not None and config.n != n:
        problems.append(f"[controller] gains are set for {config.n} joints, "
                        f"the robots have {n}")
    for key, name in _INITIAL_FIELDS:
        vec = parts[name]
        if vec is None:
            continue
        try:
            vec = np.asarray(vec)
            if vec.dtype.kind == "c":   # casting would drop the imaginary part
                problems.append(f"[initial] {key} must be real numbers")
                continue
            vec = vec.astype(float, copy=False)
        except (TypeError, ValueError):
            problems.append(f"[initial] {key} must be numbers")
            continue
        except OverflowError:   # an int beyond the float range
            problems.append(f"[initial] {key} must lie within the float range")
            continue
        if n is not None and (vec.ndim > 1 or vec.size != n):
            problems.append(f"[initial] {key} must have {n} entries")
        if not np.isfinite(vec).all():
            problems.append(f"[initial] {key} must be finite")
    for side, profile in (("local", profile_l), ("remote", profile_r)):
        for name in ("amplitude", "stiffness", "damping", "anchor"):
            vec = getattr(profile, name, None)
            if vec is not None and n is not None and vec.shape not in ((1,), (n,)):
                problems.append(f"[forces.{side}] {name} must have 1 or {n} entries")

    if not isinstance(integrator, str) or integrator not in ("euler", "rk4"):
        problems.append("[simulation] integrator must be 'euler' or 'rk4'")
    # each number is converted once; one that is not a number (a bool
    # included) or beyond the float range is named, and nothing is compared
    wrong = []
    for key in _SIMULATION_NUMBERS:
        value = parts[key]
        if value is None or type(value) is float:
            continue
        if not _is_number(value):
            wrong.append(f"[simulation] {key} must be a number")
            continue
        try:
            parts[key] = float(value)
        except OverflowError:   # an int beyond the float range
            wrong.append(f"[simulation] {key} must lie within the float range")
    horizon, dt, decimation, delay = [parts[key] for key in _SIMULATION_NUMBERS]
    problems += wrong
    if not wrong:
        # NaN fails every comparison, so "not x > 0" also rejects it
        if horizon is None or not horizon > 0:
            problems.append("[simulation] horizon must be positive")
        elif math.isinf(horizon):
            problems.append("[simulation] horizon must be finite")
        if dt is None or not dt > 0:
            problems.append("[simulation] dt must be positive")
        elif math.isinf(dt):
            problems.append("[simulation] dt must be finite")
        elif decimation is not None:
            if not dt <= decimation:
                problems.append("[simulation] dt must not exceed the decimation interval")
            elif math.isinf(decimation):
                problems.append("[simulation] decimation must be finite")
            # every ratio that is rounded to a step count must be finite
            elif math.isinf(decimation / dt):
                problems.append("[simulation] decimation / dt must be finite")
            elif abs(decimation / dt - round(decimation / dt)) > 1e-9:
                problems.append("[simulation] decimation must be an integer multiple of dt")
            elif horizon is not None and 0 < horizon < math.inf:
                samples = horizon / decimation   # inf holds more than any cap
                if samples > _MAX_SAMPLES or round(samples) + 1 > _MAX_SAMPLES:
                    problems.append(f"[simulation] the trace must hold at most {_MAX_SAMPLES} "
                                    "samples (horizon / decimation + 1)")
                elif math.isinf(horizon / dt):
                    problems.append("[simulation] horizon / dt must be finite")
                elif round(horizon / dt) > _MAX_STEPS:
                    problems.append(f"[simulation] the run must take at most {_MAX_STEPS} "
                                    "steps (horizon / dt)")
        if decimation is None:
            problems.append("[simulation] decimation must be positive")
        # a longer step rounds the horizon to zero steps (a non-finite dt is reported above)
        if dt is not None and horizon is not None and 0 < horizon < dt < math.inf:
            problems.append("[simulation] dt must not exceed the horizon")
        if delay is None or not delay >= 0:
            problems.append("[simulation] delay must be nonnegative")
        elif math.isinf(delay):
            problems.append("[simulation] delay must be finite")
        elif delay > 0 and integrator != "euler":
            problems.append("[simulation] delay > 0 requires integrator = euler")
        elif dt is not None and 0 < dt < math.inf and math.isinf(delay / dt):
            problems.append("[simulation] delay / dt must be finite")

    # a bounded variant may claim its torque limits only if the gate passes
    if (config is not None and config.is_bounded and len(counts) == 2
            and counts[0] == counts[1] == config.n):
        report = validate_saturation(config, params_l, params_r)
        if not report.ok:
            problems.append(
                "saturation condition violated (per-joint torque budget must stay "
                "below torque_limit - gravity_cap):\n" + report.describe())
    return problems


@dataclass(frozen=True, eq=False)
class Scenario:
    """Everything one closed-loop run needs.

    Every rule that ties the parts together (both robots, the controller and
    the profiles are of their types and the robots and controller share the
    joint count, q0_l and q0_r are given, the initial vectors are real numbers,
    scalars or 1-D of that length, the profiles' vector lengths, the
    [simulation] values and, for C3/C4, the saturation gate) is checked when
    a scenario is built, also by dataclasses.replace; a violation raises
    ScenarioError listing them all. The [simulation] numbers are then held
    as Python floats.
    """

    params_l: RobotParams
    params_r: RobotParams
    config: ControllerConfig
    q0_l: np.ndarray
    q0_r: np.ndarray
    qd0_l: np.ndarray | None = None
    qd0_r: np.ndarray | None = None
    theta0_l: np.ndarray | None = None
    theta0_r: np.ndarray | None = None
    profile_l: ForceProfile = field(default_factory=ForceProfile)
    profile_r: ForceProfile = field(default_factory=ForceProfile)
    horizon: float = 8.0
    dt: float = 1e-4
    decimation: float = 1e-3
    integrator: str = "euler"
    delay: float = 0.0
    label: str = "scenario"
    # output file paths, the scenario file's optional [output] section
    trace_path: str | None = None
    report_path: str | None = None
    audit_path: str | None = None

    def __post_init__(self):
        # _scenario_problems skips a part that is not of its type (the parser
        # names it); a Scenario needs every part
        problems = []
        for section, name, kind in _PARTS:
            part = getattr(self, name)
            if part is None and kind is not ForceProfile:
                problems.append(f"missing section [{section}]")
            elif not isinstance(part, kind):
                problems.append(f"[{section}] must be a {kind.__name__}")
        problems += [f"[initial] missing required key '{key}'"
                     for key, name in _INITIAL_FIELDS[:2] if getattr(self, name) is None]
        # the rule pass also stores the [simulation] numbers as Python
        # floats, so that dump_scenario writes text that parses
        problems += _scenario_problems(vars(self))
        if problems:
            raise ScenarioError(problems)

    def initial_state(self) -> TeleopState:
        return _teleop_state(_initial_array(self, self.config.has_virtual_state), 0.0)


class _Forces(NamedTuple):
    """Force profiles of a (B, 2) grid of robots, stacked for the engine.

    A field is None when no profile of the grid uses it. Robots without a
    pulse get an empty window, robots without a spring zero coefficients.
    """

    amplitude: np.ndarray | None   # (B, 2, n)
    start: np.ndarray | None       # (B, 2, 1)
    stop: np.ndarray | None        # (B, 2, 1)
    stiffness: np.ndarray | None   # (B, 2, n)
    damping: np.ndarray | None     # (B, 2, n)
    anchor: np.ndarray | None      # (B, 2, n)


def _stack_forces(rows, n: int) -> _Forces:
    kinds = {p.kind for row in rows for p in row}

    def grid(kind, get, default):
        # a 1-entry vector applies to every joint
        if kind not in kinds:
            return None
        return np.array([[np.broadcast_to(get(p), np.shape(default))
                          if p.kind == kind and get(p) is not None else default
                          for p in row] for row in rows], dtype=float)

    zeros = np.zeros(n)
    return _Forces(
        amplitude=grid("pulse", lambda p: p.amplitude, zeros),
        start=grid("pulse", lambda p: [p.start], [np.inf]),
        stop=grid("pulse", lambda p: [p.stop], [-np.inf]),
        stiffness=grid("spring_damper", lambda p: p.stiffness, zeros),
        damping=grid("spring_damper", lambda p: p.damping, zeros),
        anchor=grid("spring_damper", lambda p: p.anchor, zeros),
    )


def _force(forces: _Forces, t: float, q: np.ndarray, qdot: np.ndarray) -> np.ndarray:
    f = np.zeros_like(q)
    if forces.amplitude is not None:
        f = np.where((forces.start <= t) & (t < forces.stop), forces.amplitude, 0.0)
    if forces.stiffness is not None:
        f = f - forces.stiffness * (q - forces.anchor) - forces.damping * qdot
    return f


def _teleop_state(x: np.ndarray, t: float) -> TeleopState:
    ctrl = ControllerState(theta_l=x[2, 0], theta_r=x[2, 1]) if len(x) == 3 else None
    return TeleopState(local=RobotState(q=x[0, 0], qdot=x[1, 0]),
                       remote=RobotState(q=x[0, 1], qdot=x[1, 1]), ctrl=ctrl, time=t)


def _initial_array(scenario: Scenario, virtual: bool) -> np.ndarray:
    """The (k, 2, n) engine layout of a scenario's start: q0, qd0 (zero when
    not given) and, with ``virtual``, theta0 (q0 when not given, and always
    for a C1/C3 scenario, whose law holds theta still)."""
    s, n = scenario, scenario.params_l.n
    q0 = (s.q0_l, s.q0_r)
    rows = [q0, [np.zeros(n) if v is None else v for v in (s.qd0_l, s.qd0_r)]]
    if virtual:
        theta0 = (s.theta0_l, s.theta0_r) if s.config.has_virtual_state else (None, None)
        rows.append([q if v is None else v for q, v in zip(q0, theta0)])
    # reshape: at n = 1 a scalar passes the validator's size check
    return np.array([[np.reshape(v, n) for v in row] for row in rows], dtype=float)


def _take(fields, members: slice):
    """The members in the slice ``members`` of a tuple of stacked arrays
    (None stays None)."""
    return type(fields)(*(None if v is None else v[members] for v in fields))


class _Batch:
    """The closed loop of B scenarios that share the joint count.

    The state is one array x of shape (k, B, 2, n): q, qdot and, when some
    member is C2/C4, theta (k = 3), each with rows (local, remote). With the
    member axis second, each of them is one contiguous (B, 2, n) block, which
    numpy's ufuncs run faster than a strided view.
    """

    def __init__(self, arms, law, forces, labels, order):
        self.arms, self.law, self.forces, self.labels = arms, law, forces, list(labels)
        self.order = np.asarray(order)   # each member's input position
        self.free = all(v is None for v in forces)   # no member has a force profile

    @classmethod
    def of(cls, scenarios, order) -> "_Batch":
        """The scenarios stacked in ``order``, a list of their input positions."""
        stacked = [scenarios[i] for i in order]
        return cls(stack_arm_arrays([(s.params_l, s.params_r) for s in stacked]),
                   stack_laws([s.config for s in stacked]),
                   _stack_forces([(s.profile_l, s.profile_r) for s in stacked],
                                 stacked[0].config.n),
                   [s.label for s in stacked], order)

    def take(self, members: slice) -> "_Batch":
        """The members in the slice ``members``."""
        return _Batch(_take(self.arms, members), self.law.take(members),
                      _take(self.forces, members), self.labels[members], self.order[members])

    def check_finite(self, x: np.ndarray, t: float) -> None:
        """Raise SimulationUnstableError naming the member, first in input
        order, whose slice of x (member axis second) is not finite."""
        if not math.isfinite(x.sum()):   # one reduction; scan only when it is not finite
            bad = ~np.isfinite(x).all(axis=(0, 2, 3))
            if bad.any():   # False when only the sum of a finite state overflowed
                first = np.flatnonzero(bad)[np.argmin(self.order[bad])]
                raise SimulationUnstableError(
                    f"{self.labels[first]}: non-finite state at t = {t:.6f} s; "
                    "reduce dt or soften the gains")

    def rhs(self, t: float, x: np.ndarray, q_seen: np.ndarray | None = None):
        """dx/dt at (t, x), plus the torques (net of gravity) and forces used
        (None when no member has a force profile).

        ``q_seen`` is the exchanged position each side receives; by default
        the other side's current one.
        """
        q, qdot = x[0], x[1]
        tau, theta_dot = control_law(self.law, q, qdot, x[2] if self.law.virtual else None,
                                     q[:, ::-1] if q_seen is None else q_seen)
        f = None if self.free else _force(self.forces, t, q, qdot)
        link = link_angles(x[:2])   # phi and omega
        dx = np.empty_like(x)
        dx[0] = qdot
        try:
            dx[1] = acceleration_kernel(self.arms, link[0], link[1],
                                        tau if f is None else tau + f)
        except np.linalg.LinAlgError:
            self.check_finite(x, t)
            raise
        if self.law.virtual:
            dx[2] = theta_dot
        return dx, tau, f

    def euler(self, t: float, x: np.ndarray, dx: np.ndarray, dt: float) -> np.ndarray:
        x1 = x + dt * dx
        self.check_finite(x1, t + dt)
        return x1

    def rk4(self, t: float, x: np.ndarray, k1: np.ndarray, dt: float) -> np.ndarray:
        """Classic RK4 from x, given the slope k1 = rhs(t, x) already evaluated."""
        k2 = self.rhs(t + 0.5 * dt, x + 0.5 * dt * k1)[0]
        k3 = self.rhs(t + 0.5 * dt, x + 0.5 * dt * k2)[0]
        k4 = self.rhs(t + dt, x + dt * k3)[0]
        x1 = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        self.check_finite(x1, t + dt)
        return x1


def _advance(update, state, config, params_l, params_r, profiles, dt: float) -> TeleopState:
    """One ``update`` (_Batch.euler or _Batch.rk4) of one state as a one-member batch."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    law, x = _stacked(config, state.local, state.remote, state.ctrl)
    batch = _Batch(stack_arm_arrays([(params_l, params_r)]), law,
                   _stack_forces([profiles], config.n), ["step"], [0])
    dx = batch.rhs(state.time, x)[0]
    return _teleop_state(update(batch, state.time, x, dx, dt)[:, 0], state.time + dt)


def step(state: TeleopState, config: ControllerConfig, params_l: RobotParams,
         params_r: RobotParams, profiles, dt: float) -> TeleopState:
    """One explicit-Euler step of the closed loop.

    Positions advance with the pre-step velocities, velocities with the
    torque-driven accelerations, and the virtual state with its rate law.
    A non-finite result raises SimulationUnstableError.
    """
    return _advance(_Batch.euler, state, config, params_l, params_r, profiles, dt)


def rk4_step(state: TeleopState, config, params_l, params_r, profiles, dt: float) -> TeleopState:
    """Classic fourth-order Runge-Kutta step (for step-size studies)."""
    return _advance(_Batch.rk4, state, config, params_l, params_r, profiles, dt)


# (CSV column stem, SimTrace field) in file order; a per-joint field has one
# column per joint, numbered from 1, a per-sample field one column
_TRACE_COLUMNS = (("t", "t"), ("ql", "q_l"), ("qr", "q_r"), ("dql", "qd_l"), ("dqr", "qd_r"),
                  ("thl", "th_l"), ("thr", "th_r"), ("taul", "tau_l"), ("taur", "tau_r"),
                  ("fl", "f_l"), ("fr", "f_r"), ("err_norm", "err_norm"), ("H", "energy"))
_SAMPLE_FIELDS = ("t", "err_norm", "energy")


@dataclass(eq=False)
class SimTrace:
    """Time-indexed record of one closed-loop run (decimated samples)."""

    t: np.ndarray
    q_l: np.ndarray
    q_r: np.ndarray
    qd_l: np.ndarray
    qd_r: np.ndarray
    th_l: np.ndarray
    th_r: np.ndarray
    tau_l: np.ndarray
    tau_r: np.ndarray
    f_l: np.ndarray
    f_r: np.ndarray
    err_norm: np.ndarray
    energy: np.ndarray
    dt: float = float("nan")

    @property
    def n(self) -> int:
        return self.q_l.shape[1]

    @property
    def samples(self) -> int:
        return self.t.size

    def header(self) -> str:
        cols = []
        for stem, name in _TRACE_COLUMNS:
            cols += [stem] if name in _SAMPLE_FIELDS else [f"{stem}{k + 1}" for k in range(self.n)]
        return ",".join(cols)

    def matrix(self) -> np.ndarray:
        return np.column_stack([getattr(self, name) for _, name in _TRACE_COLUMNS])

    def to_csv(self, path) -> None:
        """Write the trace to a path or open file at 17 digits, for bit-faithful reload."""
        np.savetxt(path, self.matrix(), fmt="%.17g", delimiter=",",
                   header=self.header(), comments="")

    @classmethod
    def from_csv(cls, path, dt: float = float("nan")) -> "SimTrace":
        """Read a trace written by to_csv; a file whose header or data does
        not have 3 + 10 n columns raises ValueError."""
        with open(path) as fh:
            width = len(fh.readline().split(","))
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        n = (width - len(_SAMPLE_FIELDS)) // (len(_TRACE_COLUMNS) - len(_SAMPLE_FIELDS))
        widths = [1 if name in _SAMPLE_FIELDS else n for _, name in _TRACE_COLUMNS]
        for count in (width, data.shape[1] if data.size else width):   # header, then data
            if n < 1 or count != sum(widths):
                raise ValueError(f"{path}: {count} columns, a trace has 3 + 10 n")
        blocks = np.split(data, np.cumsum(widths)[:-1], axis=1)
        return cls(**{name: block.ravel() if name in _SAMPLE_FIELDS else block
                      for (_, name), block in zip(_TRACE_COLUMNS, blocks)}, dt=dt)

    def has_forces(self) -> bool:
        return bool(np.any(self.f_l != 0.0) or np.any(self.f_r != 0.0))


def _schedule(scenario) -> tuple:
    """What scenarios must share to be integrated together: joint count,
    integrator, dt, decimation stride and delay steps. Variants and horizons
    may differ."""
    dt = float(scenario.dt)
    delay_steps = int(round(scenario.delay / dt)) if scenario.delay else 0
    return (scenario.params_l.n, scenario.integrator, dt,
            max(1, int(round(scenario.decimation / dt))), delay_steps)


class _Cohort:
    """The members of a group that share a step count, with their records:
    one row per recorded step, so a group's records hold its members' own
    samples, not B times the longest horizon. The members are the fixed
    slice ``cols`` of the stacked state. The force record exists only when
    some member of the group has a force profile (``forced``)."""

    def __init__(self, cols: slice, last: int, every: int, k: int, n: int, forced: bool):
        self.cols, self.last = cols, last
        rows = (-(-last // every) + 1, cols.stop - cols.start)
        self.t = np.zeros(rows[0])
        self.x = np.zeros(rows + (k, 2, n))
        self.tau = np.zeros(rows + (2, n))
        self.f = np.zeros(rows + (2, n)) if forced else None

    def record(self, row: int, t: float, x, tau, f) -> None:
        """Record one step of the engine state x (k, B, 2, n); f is None
        exactly when the group has no force record."""
        self.t[row] = t
        self.x[row] = x[:, self.cols].swapaxes(0, 1)
        self.tau[row] = tau[self.cols]
        if f is not None:
            self.f[row] = f[self.cols]

    def traces(self, members: "_Batch", dt: float) -> list[SimTrace]:
        law = members.law
        q, qdot = self.x[:, :, 0], self.x[:, :, 1]
        theta = self.x[:, :, 2] if law.virtual else np.full_like(q, np.nan)
        phi = link_angles(q)
        kinetic = kinetic_kernel(members.arms, phi, qdot)
        tau = self.tau + gravity_kernel(members.arms, phi)   # the applied torque
        energy = law_potential(law, q, theta) + kinetic[..., LOCAL] + kinetic[..., REMOTE]
        if law.virtual:
            theta = np.where(law.virtual_mask, theta, np.nan)
        err_norm = np.linalg.norm(q[:, :, LOCAL] - q[:, :, REMOTE], axis=-1)
        f = np.zeros_like(self.tau) if self.f is None else self.f   # free motion: zero forces
        return [
            SimTrace(t=self.t.copy(), q_l=q[:, b, LOCAL], q_r=q[:, b, REMOTE],
                     qd_l=qdot[:, b, LOCAL], qd_r=qdot[:, b, REMOTE],
                     th_l=theta[:, b, LOCAL], th_r=theta[:, b, REMOTE],
                     tau_l=tau[:, b, LOCAL], tau_r=tau[:, b, REMOTE],
                     f_l=f[:, b, LOCAL], f_r=f[:, b, REMOTE],
                     err_norm=err_norm[:, b], energy=energy[:, b], dt=dt)
            for b in range(q.shape[1])
        ]


def _integrate(scenarios, integrator: str, dt: float, every: int,
               delay_steps: int) -> list[SimTrace]:
    """Integrate one group of scenarios together and record their traces.

    Each member runs its own step count and is recorded every ``every``
    steps and at its last step. The members are stacked longest first, so
    the running ones are always a prefix: past its last step a member is
    cut off the end of the stacked state, and is no longer updated,
    finite-checked or recorded.
    """
    steps = [int(round(s.horizon / dt)) for s in scenarios]
    order = sorted(range(len(scenarios)), key=lambda i: -steps[i])   # stable
    batch = group = _Batch.of(scenarios, order)
    x = np.stack([_initial_array(scenarios[i], batch.law.virtual) for i in order], axis=1)
    lasts = [steps[i] for i in order]
    cuts = [b for b in range(len(lasts)) if b == 0 or lasts[b] < lasts[b - 1]] + [len(lasts)]
    cohorts = [_Cohort(slice(a, b), lasts[a], every, len(x), x.shape[-1], not batch.free)
               for a, b in zip(cuts, cuts[1:])]   # longest first
    live = list(cohorts)
    # transport delay: ring buffer of the last delay_steps + 1 exchanged
    # positions; a delay past the horizon only ever reads the start positions
    ring = (np.empty((min(delay_steps, cohorts[0].last) + 1,) + x[0].shape)
            if delay_steps else None)
    t = 0.0
    for k in range(cohorts[0].last + 1):
        q_seen = None
        if ring is not None:
            ring[k % len(ring)] = x[0]
            q_seen = ring[max(0, k - delay_steps) % len(ring)][:, ::-1]
        dx, tau, f = batch.rhs(t, x, q_seen)
        for cohort in live:
            if k % every == 0 or k == cohort.last:
                cohort.record(-(-k // every), t, x, tau, f)
        if k == live[-1].last:
            live.pop()
            if not live:
                break
            running = slice(live[-1].cols.stop)
            x, dx, batch = x[:, running], dx[:, running], batch.take(running)
            if ring is not None:
                ring = ring[:, running]
        x = batch.rk4(t, x, dx, dt) if integrator == "rk4" else batch.euler(t, x, dx, dt)
        t = t + dt

    traces: list = [None] * len(scenarios)
    for cohort in cohorts:
        for i, trace in zip(order[cohort.cols], cohort.traces(group.take(cohort.cols), dt)):
            traces[i] = trace
    return traces


def run_batch(scenarios) -> list[SimTrace]:
    """Integrate many scenarios over [0, horizon]; traces in input order.

    Scenarios that share the joint count, integrator, dt, decimation stride
    and delay steps are integrated together as one stacked array, whatever
    their variants and horizons. A member past its horizon is frozen (no
    longer updated, checked or recorded), so each trace ends at its own
    horizon and equals that of ``run`` on its scenario alone. C1/C3 traces
    hold NaN theta columns. If a member's state stops being finite,
    SimulationUnstableError names the first such member of its group, in
    input order, and the time.
    """
    scenarios = list(scenarios)
    groups: dict[tuple, list[int]] = {}
    for i, scenario in enumerate(scenarios):
        groups.setdefault(_schedule(scenario), []).append(i)
    traces: list = [None] * len(scenarios)
    for (_, integrator, dt, every, delay_steps), members in groups.items():
        group = _integrate([scenarios[i] for i in members], integrator, dt, every, delay_steps)
        for i, trace in zip(members, group):
            traces[i] = trace
    return traces


def run(scenario) -> SimTrace:
    """Integrate a scenario over [0, horizon] and record the decimated trace.

    The B = 1 case of run_batch. Raises SimulationUnstableError with the
    offending time if the state leaves the finite range.
    """
    return run_batch([scenario])[0]


def convergence_time(trace: SimTrace, tol: float):
    """First recorded time after which the error norm stays below tol.

    Returns None when the error is not sustained below tol through the end
    of the trace (a transient dip does not count).
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    if trace.samples == 0:
        raise ValueError("empty trace")
    above = trace.err_norm >= tol
    if above[-1]:
        return None
    idx = np.flatnonzero(above)
    if idx.size == 0:
        return float(trace.t[0])
    return float(trace.t[idx[-1] + 1])


@dataclass(frozen=True)
class EnergyAudit:
    """Sampled total energy against its analytic decay rate (free motion)."""

    t: np.ndarray
    energy: np.ndarray
    hdot_analytic: np.ndarray       # per sample, always <= 0 in exact arithmetic
    hdot_numeric: np.ndarray        # forward difference, one shorter
    step_increase_tol: float
    flagged: np.ndarray             # sample indices violating either check

    @property
    def positive_variation(self) -> float:
        return float(np.sum(np.maximum(np.diff(self.energy), 0.0)))

    @property
    def ok(self) -> bool:
        return self.flagged.size == 0


def energy_audit(trace: SimTrace, config: ControllerConfig,
                 params_l: RobotParams, params_r: RobotParams) -> EnergyAudit:
    """Check the free-motion energy decrease on a recorded trace.

    Refuses traces with nonzero external forces (the monotone decrease is
    only claimed in free motion). The analytic rate is rebuilt per sample
    from the recorded state; the numeric rate differences the sampled
    energy. Samples are flagged when the analytic rate turns positive or
    the sampled energy rises by more than the discretization tolerance
    0.5 dt max(1, H(0)) per recorded interval: linear in dt (so it halves
    with the step) yet far below the rise a sign error in the dissipation
    would cause.
    """
    if trace.has_forces():
        raise ValueError("energy audit requires a free-motion trace (all forces zero)")
    pair = lambda local, remote: np.stack([local, remote], axis=1)[:, None]
    theta = pair(trace.th_l, trace.th_r) if config.has_virtual_state else None
    hdot = law_dissipation(stack_laws([config]), pair(trace.q_l, trace.q_r),
                           pair(trace.qd_l, trace.qd_r), theta)[:, 0]
    hdot_numeric = np.diff(trace.energy) / np.diff(trace.t)
    dt = trace.dt if math.isfinite(trace.dt) else float(np.min(np.diff(trace.t)))
    step_increase_tol = 0.5 * dt * max(1.0, abs(float(trace.energy[0])))
    rising = np.flatnonzero(np.diff(trace.energy) > step_increase_tol)
    positive = np.flatnonzero(hdot > 0.0)
    return EnergyAudit(
        t=trace.t,
        energy=trace.energy,
        hdot_analytic=hdot,
        hdot_numeric=hdot_numeric,
        step_increase_tol=step_increase_tol,
        flagged=np.union1d(rising, positive),
    )


@dataclass(frozen=True)
class PassivityLedger:
    """Per-robot injected-energy ledger for the external force channels.

    work[i] is the running integral of qd^T f for robot i (trapezoidal);
    kappa[i] is the smallest budget that keeps the ledger
    kappa[i] - work[i](t) nonnegative over the whole trace.
    """

    t: np.ndarray
    work: np.ndarray    # (2, samples)
    kappa: np.ndarray   # (2,)

    def ledger(self, side: int) -> np.ndarray:
        return self.kappa[side] - self.work[side]

    @property
    def total_budget(self) -> float:
        return float(self.kappa.sum())


def passivity_ledger(trace: SimTrace) -> PassivityLedger:
    work = np.zeros((2, trace.samples))
    for side, (qd, f) in enumerate(((trace.qd_l, trace.f_l), (trace.qd_r, trace.f_r))):
        power = np.sum(qd * f, axis=1)
        mids = 0.5 * (power[1:] + power[:-1]) * np.diff(trace.t)
        work[side, 1:] = np.cumsum(mids)
    kappa = np.maximum(work.max(axis=1), 0.0)
    return PassivityLedger(t=trace.t, work=work, kappa=kappa)


def state_bounds_from_energy(config: ControllerConfig, params_l: RobotParams,
                             params_r: RobotParams, budget: float) -> dict:
    """State bounds implied by a total-energy budget.

    Every term of the shaped energy is nonnegative, so each one is
    individually capped by the budget; inverting the term gives a bound on
    the corresponding coordinate. Returns the error-norm cap, per-robot
    velocity-norm caps, and virtual-mismatch-norm caps (C2/C4 only).
    """
    if not budget >= 0:   # NaN fails every comparison
        raise ValueError("energy budget must be nonnegative")
    law = stack_laws([config])

    def invert(slot: int, side: int) -> float:
        # the slot's term |gain| channel_integral(x, p, delta): beyond the level
        # delta it exceeds delta^p |x| / (p+1), so either the unsaturated
        # inversion holds or the affine branch caps |x|
        gains, p = np.abs(law.gains[slot, 0, side]), law.exponents[slot, 0, side]
        per_joint = ((p + 1.0) * budget / gains) ** (1.0 / (p + 1.0))
        if law.levels is not None:
            delta = law.levels[slot, 0, side]
            per_joint = np.maximum(
                per_joint, (budget / gains + p / (p + 1.0) * delta ** (p + 1.0)) / delta**p)
        return float(np.linalg.norm(per_joint))

    vel_caps = tuple(math.sqrt(2.0 * budget / params.bounds.inertia_min)
                     for params in (params_l, params_r))
    theta_caps = tuple(invert(1, side) for side in (LOCAL, REMOTE)) if law.virtual else None
    return {"err_norm": invert(0, LOCAL), "vel_norm": vel_caps, "theta_err_norm": theta_caps}
