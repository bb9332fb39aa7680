"""Fixed-step integration of the coupled two-robot closed loop.

A scenario couples two manipulators through one of the controller variants,
optionally applies scripted external force profiles, and is integrated with
an explicit fixed-step scheme (forward Euler by default, classic RK4 for
step-size studies). One engine integrates many scenarios at once as stacked
arrays (run_batch); a single run is its B = 1 case. Runs are deterministic:
identical scenarios produce bit-identical traces, alone or in a batch.
The step evaluates in place: the Euler and RK4 updates and the force write
into their first temporaries, operation by operation in the order of the
written expressions, so every value keeps its bits, and the pulse part of
the external force is cached between the edges of the stacked windows.
The step sizes the updates multiply by (dt, dt/2, dt/6 and 2) are built
once per group as 0-d float64 arrays, which give the same IEEE products
without numpy converting a Python float on every multiply, and the link
solve writes the accelerations straight into the step's own dx[1] block.

Each group's step loop, and each step and rk4_step, runs under one fresh
np.errstate(all="ignore"), not one error state per solve. An instability
is reported only by name: the finite check after each update raises
SimulationUnstableError naming the member and the time, and numpy emits
no warning and raises no FloatingPointError on the way, whatever error
state or warning filter the caller has set. The caller's error state is
restored when the run returns or raises.

The recorded trace carries the full state, torques, forces, the inter-robot
error norm and the shaped total energy at a decimated sample interval, and
can round-trip through CSV at full float64 precision. Time is read off the
scenario's step schedule, never summed: step k runs at t = k * dt, and the
trace's time column is the step count of each sample times dt. Post-hoc
monitors check the analytic energy-decay rate against the sampled energy
and build the passive-environment energy ledger.
"""

from __future__ import annotations

import bisect
import math
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
    _solve1,
    acceleration_kernel,
    gravity_kernel,
    kinetic_kernel,
    link_angles,
    stack_arm_arrays,
)
from .scalar_ops import _real_array, _real_number

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


# the per-joint vectors of a force profile: a pulse reads amplitude, a
# spring_damper the other three
_PROFILE_VECTORS = ("amplitude", "stiffness", "damping", "anchor")


@dataclass(frozen=True, eq=False)
class ForceProfile:
    """Scripted external force acting on one robot.

    Kinds:
        zero: no force.
        pulse: constant per-joint amplitude on [start, stop).
        spring_damper: passive environment -stiffness*(q - anchor) - damping*qd
            with nonnegative coefficients, so it can only inject the energy
            initially stored in the spring.

    A field that the kind does not read is refused, not dropped: amplitude
    and a nonzero start or stop only on a pulse, stiffness, damping and
    anchor only on a spring_damper.
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
            object.__setattr__(self, name, _real_number(name, getattr(self, name)))
        for name in _PROFILE_VECTORS:
            value = getattr(self, name)
            if value is not None:
                value = np.atleast_1d(_real_array(name, value))
                if not np.isfinite(value).all():
                    raise ValueError(f"{name} must be finite")
                object.__setattr__(self, name, value)
        given = [name for name in ("start", "stop") if getattr(self, name) != 0.0]
        given += [name for name in _PROFILE_VECTORS if getattr(self, name) is not None]
        for name in given:
            kind = "pulse" if name in ("start", "stop", "amplitude") else "spring_damper"
            if kind != self.kind:
                raise ValueError(f"{name} applies to {kind} profiles only")
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
# the most steps a run may take: hours at one member
_MAX_STEPS = 10**9


def _rows(steps: int, stride: int) -> int:
    """The samples of a run of ``steps`` steps: every ``stride``-th step and the last."""
    return -(-steps // stride) + 1


# scenario-file key of each initial vector, with its Scenario field
_INITIAL_FIELDS = (("q_local", "q0_l"), ("q_remote", "q0_r"), ("qdot_local", "qd0_l"),
                   ("qdot_remote", "qd0_r"), ("theta_local", "theta0_l"),
                   ("theta_remote", "theta0_r"))
# the [simulation] keys that hold numbers, each the Scenario field of that name
_SIMULATION_NUMBERS = ("horizon", "dt", "decimation", "delay")
# each [simulation] time in the order its rules run: the Scenario field of its
# whole number of dt steps and, if it takes at least one, what dt must not exceed
_TIMES = (("horizon", "steps", "the horizon"), ("dt", None, None),
          ("decimation", "stride", "the decimation interval"), ("delay", "delay_steps", None))


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
    written back to ``parts`` as a Python float, and once their rules pass,
    the step counts as ``steps``, ``stride`` and ``delay_steps``.
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
        if parts[name] is None:
            continue
        if name.startswith("theta") and config is not None and not config.has_virtual_state:
            problems.append(f"[initial] {key} applies to C2/C4 only")
            continue
        try:
            vec = _real_array(key, parts[name])
        except ValueError as exc:
            problems.append(f"[initial] {exc}")
            continue
        if n is not None and (vec.ndim > 1 or vec.size != n):
            problems.append(f"[initial] {key} must have {n} entries")
        if not np.isfinite(vec).all():
            problems.append(f"[initial] {key} must be finite")
    for side, profile in (("local", profile_l), ("remote", profile_r)):
        for name in _PROFILE_VECTORS:
            vec = getattr(profile, name, None)
            if vec is not None and n is not None and vec.shape not in ((1,), (n,)):
                problems.append(f"[forces.{side}] {name} must have 1 or {n} entries")

    if not isinstance(integrator, str) or integrator not in ("euler", "rk4"):
        problems.append("[simulation] integrator must be 'euler' or 'rk4'")
    # each number is converted once; one that is not a number (a bool
    # included) or beyond the float range is named, and nothing is compared
    wrong = []
    for key in _SIMULATION_NUMBERS:
        try:
            if parts[key] is not None:
                parts[key] = _real_number(key, parts[key])
        except ValueError as exc:
            wrong.append(f"[simulation] {exc}")
    problems += wrong
    dt = parts["dt"]
    if not wrong:
        for key, count, span in _TIMES:
            value = parts[key]
            # NaN fails every comparison, so "not x > 0" also rejects it
            if value is None or not (value >= 0 if key == "delay" else value > 0):
                problem = f"{key} must be {'nonnegative' if key == 'delay' else 'positive'}"
            elif math.isinf(value):
                problem = f"{key} must be finite"
            elif key == "dt" or dt is None or not 0 < dt < math.inf:   # named in dt's row
                continue
            elif math.isinf(value / dt):
                problem = f"{key} / dt must be finite"
            elif span and value < dt:
                problem = f"dt must not exceed {span}"
            # value / dt misses a whole number by a few of its own ulps; a
            # positive delay must not round to no delay
            elif math.isclose(value / dt, steps := round(value / dt), rel_tol=1e-12,
                              abs_tol=1e-9) and (steps or not value):
                parts[count] = steps
                continue
            else:
                problem = f"{key} must be an integer multiple of dt"
            problems.append(f"[simulation] {problem}")
        # str(): an integrator that is not a string (an array) is named above
        if parts.get("delay_steps") and str(integrator) != "euler":
            problems.append("[simulation] delay > 0 requires integrator = euler")
        if "steps" in parts and "stride" in parts:
            if _rows(parts["steps"], parts["stride"]) > _MAX_SAMPLES:
                problems.append(f"[simulation] the trace must hold at most {_MAX_SAMPLES} "
                                "samples (horizon / decimation + 1)")
            elif parts["steps"] > _MAX_STEPS:
                problems.append(f"[simulation] the run must take at most {_MAX_STEPS} "
                                "steps (horizon / dt)")

    # a bounded variant may claim its torque limits only if the gate passes
    if (config is not None and config.is_bounded and len(counts) == 2
            and counts[0] == counts[1] == config.n):
        report = validate_saturation(config, params_l, params_r)
        if not report.ok:
            problems.append(
                "[controller] saturation condition violated (per-joint torque budget must stay "
                "below torque_limit - gravity_cap):\n" + report.describe())
    return problems


@dataclass(frozen=True, eq=False)
class Scenario:
    """Everything one closed-loop run needs.

    Every rule that ties the parts together (both robots, the controller and
    the profiles are of their types and the robots and controller share the
    joint count, q0_l and q0_r are given, theta0_l and theta0_r only for C2/C4,
    the initial vectors are real numbers, scalars or 1-D of that length, the
    profiles' vector lengths, the [simulation] values and, for C3/C4, the
    saturation gate) is checked when a scenario is built, also by
    dataclasses.replace; a violation raises ScenarioError listing them all.
    The horizon, decimation and delay must each be a whole number of dt
    steps, held as the derived, read-only fields steps, stride and
    delay_steps; the [simulation] numbers are held as Python floats.
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
    steps: int = field(init=False, repr=False)
    stride: int = field(init=False, repr=False)
    delay_steps: int = field(init=False, repr=False)

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
        # the rule pass also stores the step counts, and the [simulation]
        # numbers as Python floats, so that dump_scenario writes text that parses
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


class _Pulse:
    """The pulse part of the force of a (B, 2) grid, kept between the edges
    of the stacked windows.

    Between two consecutive edges (starts and stops) every window is on or
    off throughout, so the part is recomputed only when t leaves the
    interval [lo, hi) of the last evaluation: stage times rise through a
    batch (up to a rounding error between a step's last stage, t + dt, and
    the next step's (k + 1) * dt), so when t reaches the next edge. The
    cached array is read-only.
    """

    def __init__(self, forces: _Forces):
        self.forces = forces
        self.edges = sorted(set(forces.start.ravel().tolist() + forces.stop.ravel().tolist()))
        self.lo, self.hi, self.value = math.inf, -math.inf, None   # nothing cached yet

    def at(self, t: float) -> np.ndarray:
        if not self.lo <= t < self.hi:
            f = self.forces
            self.value = np.where((f.start <= t) & (t < f.stop), f.amplitude, 0.0)
            self.value.setflags(write=False)
            i = bisect.bisect_right(self.edges, t)   # edges[i - 1] <= t < edges[i]
            self.lo = self.edges[i - 1] if i else -math.inf
            self.hi = self.edges[i] if i < len(self.edges) else math.inf
        return self.value


def _force(forces: _Forces, pulse: _Pulse | None, t: float, q: np.ndarray,
           qdot: np.ndarray) -> np.ndarray:
    """The external force on each robot of a grid with some force profile:
    the pulse part (``pulse``, None when no profile is a pulse) minus the
    spring-damper part, which is formed in its first temporary."""
    f = 0.0 if pulse is None else pulse.at(t)
    if forces.stiffness is None:
        return f
    spring = q - forces.anchor
    spring *= forces.stiffness
    np.subtract(f, spring, spring)
    spring -= forces.damping * qdot
    return spring


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
        rows.append([q if v is None else v for q, v in zip(q0, (s.theta0_l, s.theta0_r))])
    # reshape: at n = 1 a scalar passes the validator's size check
    return np.array([[np.reshape(v, n) for v in row] for row in rows], dtype=float)


class _StepSize(NamedTuple):
    """A step size as the updates use it: ``dt`` as a Python float for the
    stage times, and ``h`` = dt, ``half`` = dt/2, ``sixth`` = dt/6 and
    ``two`` = 2 as 0-d float64 arrays."""

    dt: float
    h: np.ndarray
    half: np.ndarray
    sixth: np.ndarray
    two: np.ndarray

    @classmethod
    def of(cls, dt: float) -> "_StepSize":
        return cls(dt, *(np.array(v) for v in (dt, 0.5 * dt, dt / 6.0, 2.0)))


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
        # a cut builds a new batch, and with it a cache for its own members
        self.pulse = None if forces.amplitude is None else _Pulse(forces)

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
        # one reduction, without ndarray.sum's Python wrapper; scan only when it is not finite
        if not math.isfinite(np.add.reduce(x, None)):
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
        f = None if self.free else _force(self.forces, self.pulse, t, q, qdot)
        link = link_angles(x[:2])   # phi and omega
        dx = np.empty_like(x)
        dx[0] = qdot
        # the link solve is the vector LAPACK gufunc behind np.linalg.solve,
        # bare; the step loop runs under an error state that ignores every
        # floating-point error, so a failed solve is a NaN that check_finite names
        acceleration_kernel(self.arms, link[0], link[1], tau if f is None else tau + f,
                            _solve1, dx[1])
        if theta_dot is not None:
            dx[2] = theta_dot
        return dx, tau, f

    def euler(self, t: float, x: np.ndarray, dx: np.ndarray, size: _StepSize) -> np.ndarray:
        """x + dt dx, in the product's buffer."""
        x1 = size.h * dx
        x1 += x
        self.check_finite(x1, t + size.dt)
        return x1

    def rk4(self, t: float, x: np.ndarray, k1: np.ndarray, size: _StepSize) -> np.ndarray:
        """Classic RK4 from x, given the slope k1 = rhs(t, x) already evaluated.

        The stage states share one buffer (rhs keeps no reference to its x)
        and the weighted sum x + dt/6 (k1 + 2 k2 + 2 k3 + k4) is formed in
        k2's, operation by operation as written."""
        mid = t + 0.5 * size.dt
        stage = size.half * k1
        stage += x
        k2 = self.rhs(mid, stage)[0]
        np.multiply(size.half, k2, stage)
        stage += x
        k3 = self.rhs(mid, stage)[0]
        np.multiply(size.h, k3, stage)
        stage += x
        k4 = self.rhs(t + size.dt, stage)[0]
        k2 *= size.two
        k2 += k1
        k3 *= size.two
        k2 += k3
        k2 += k4
        k2 *= size.sixth
        k2 += x
        self.check_finite(k2, t + size.dt)
        return k2


def _advance(update, state, config, params_l, params_r, profiles, dt: float) -> TeleopState:
    """One ``update`` (_Batch.euler or _Batch.rk4) of one state as a one-member batch."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    law, x = _stacked(config, state.local, state.remote, state.ctrl)
    batch = _Batch(stack_arm_arrays([(params_l, params_r)]), law,
                   _stack_forces([profiles], config.n), ["step"], [0])
    with np.errstate(all="ignore"):   # a non-finite state is named by check_finite
        dx = batch.rhs(state.time, x)[0]
        x = update(batch, state.time, x, dx, _StepSize.of(dt))
    return _teleop_state(x[:, 0], state.time + dt)


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
# rows per format call of SimTrace.to_csv: blocks of 256 write a bundled 8 s
# run (8 001 rows) as fast as one call does, at a sixth of its peak memory
_CSV_BLOCK = 256


@dataclass(eq=False)
class SimTrace:
    """Time-indexed record of one closed-loop run (decimated samples).

    A sample recorded at step k has t = k * dt, from the run's step
    schedule: every ``stride``-th step and the last, at steps * dt. That is
    the horizon only to rounding: 0.35 at dt 1e-3 ends at 0.35000000000000003."""

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
        """Write the trace to a path or open text file at 17 digits, for
        bit-faithful reload: the text np.savetxt writes with fmt="%.17g".
        Each block of up to _CSV_BLOCK rows is formed by one format call
        over its values and written at once, so a long trace never holds
        its whole text."""
        if not hasattr(path, "write"):
            with open(path, "w") as fh:
                self.to_csv(fh)
            return
        data = self.matrix()
        row = ",".join(["%.17g"] * data.shape[1]) + "\n"
        path.write(self.header() + "\n")
        for start in range(0, len(data), _CSV_BLOCK):
            block = data[start:start + _CSV_BLOCK]
            path.write((row * len(block)) % tuple(block.ravel().tolist()))

    @classmethod
    def from_csv(cls, path, dt: float = float("nan")) -> "SimTrace":
        """Read a trace written by to_csv; a file whose header or data does
        not have 3 + 10 n columns, or that holds no sample, raises ValueError."""
        with open(path) as fh:
            width = len(fh.readline().split(","))
            has_samples = any(line.strip() for line in fh)   # stops at the first one
        n = (width - len(_SAMPLE_FIELDS)) // (len(_TRACE_COLUMNS) - len(_SAMPLE_FIELDS))
        widths = [1 if name in _SAMPLE_FIELDS else n for _, name in _TRACE_COLUMNS]
        if n < 1 or width != sum(widths):
            raise ValueError(f"{path}: {width} columns, a trace has 3 + 10 n")
        if not has_samples:
            raise ValueError(f"{path}: no samples")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[1] != sum(widths):
            raise ValueError(f"{path}: {data.shape[1]} columns, a trace has 3 + 10 n")
        blocks = np.split(data, np.cumsum(widths)[:-1], axis=1)
        return cls(**{name: block.ravel() if name in _SAMPLE_FIELDS else block
                      for (_, name), block in zip(_TRACE_COLUMNS, blocks)}, dt=dt)

    def has_forces(self) -> bool:
        return bool(np.any(self.f_l != 0.0) or np.any(self.f_r != 0.0))


class _Cohort:
    """The members of a group that share a step count, with their records:
    one row per recorded step, so a group's records hold its members' own
    samples, not B times the longest horizon. The members are the fixed
    slice ``cols`` of the stacked state. The force record exists only when
    some member of the group has a force profile (``forced``). No time is
    recorded: the traces' time axis is derived from the schedule, row i at
    step min(i * stride, last)."""

    def __init__(self, cols: slice, last: int, stride: int, k: int, n: int, forced: bool):
        self.cols, self.last, self.stride = cols, last, stride
        rows = (_rows(last, stride), cols.stop - cols.start)
        self.x = np.zeros(rows + (k, 2, n))
        self.tau = np.zeros(rows + (2, n))
        self.f = np.zeros(rows + (2, n)) if forced else None

    def record(self, row: int, x, tau, f) -> None:
        """Record one step of the engine state x (k, B, 2, n); f is None
        exactly when the group has no force record."""
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
        t = np.minimum(np.arange(len(self.x)) * self.stride, self.last) * dt
        return [
            SimTrace(t=t.copy(), q_l=q[:, b, LOCAL], q_r=q[:, b, REMOTE],
                     qd_l=qdot[:, b, LOCAL], qd_r=qdot[:, b, REMOTE],
                     th_l=theta[:, b, LOCAL], th_r=theta[:, b, REMOTE],
                     tau_l=tau[:, b, LOCAL], tau_r=tau[:, b, REMOTE],
                     f_l=f[:, b, LOCAL], f_r=f[:, b, REMOTE],
                     err_norm=err_norm[:, b], energy=energy[:, b], dt=dt)
            for b in range(q.shape[1])
        ]


def _integrate(scenarios) -> list[SimTrace]:
    """Integrate one group of scenarios together and record their traces.

    The members share the integrator, dt, stride and delay steps. Each runs
    its own step count and is recorded every ``stride`` steps and at its
    last step. The members are stacked longest first, so the running ones
    are always a prefix: past its last step a member is cut off the end of
    the stacked state, and is no longer updated, finite-checked or recorded.
    """
    first = scenarios[0]   # the group's integrator, dt, stride and delay steps
    order = sorted(range(len(scenarios)), key=lambda i: -scenarios[i].steps)   # stable
    batch = group = _Batch.of(scenarios, order)
    x = np.stack([_initial_array(scenarios[i], batch.law.virtual) for i in order], axis=1)
    lasts = [scenarios[i].steps for i in order]
    cuts = [b for b in range(len(lasts)) if b == 0 or lasts[b] < lasts[b - 1]] + [len(lasts)]
    cohorts = [_Cohort(slice(a, b), lasts[a], first.stride, len(x), x.shape[-1], not batch.free)
               for a, b in zip(cuts, cuts[1:])]   # longest first
    live = list(cohorts)
    # transport delay: ring buffer of the last delay_steps + 1 exchanged
    # positions; a delay past the horizon only ever reads the start positions
    ring = (np.empty((min(first.delay_steps, cohorts[0].last) + 1,) + x[0].shape)
            if first.delay_steps else None)
    size = _StepSize.of(first.dt)
    # one error state per group: numpy's own warnings and errors stay silent,
    # and a non-finite state is reported only by check_finite, by name
    with np.errstate(all="ignore"):
        for k in range(cohorts[0].last + 1):
            t = k * first.dt
            q_seen = None
            if ring is not None:
                ring[k % len(ring)] = x[0]
                q_seen = ring[max(0, k - first.delay_steps) % len(ring)][:, ::-1]
            dx, tau, f = batch.rhs(t, x, q_seen)
            for cohort in live:
                if k % first.stride == 0 or k == cohort.last:
                    cohort.record(-(-k // first.stride), x, tau, f)
            if k == live[-1].last:
                live.pop()
                if not live:
                    break
                running = slice(live[-1].cols.stop)
                x, dx, batch = x[:, running], dx[:, running], batch.take(running)
                if ring is not None:
                    ring = ring[:, running]
            x = (batch.rk4 if first.integrator == "rk4" else batch.euler)(t, x, dx, size)

    traces: list = [None] * len(scenarios)
    for cohort in cohorts:
        for i, trace in zip(order[cohort.cols], cohort.traces(group.take(cohort.cols), first.dt)):
            traces[i] = trace
    return traces


def run_batch(scenarios) -> list[SimTrace]:
    """Integrate many scenarios over [0, horizon]; traces in input order.

    Scenarios that share the joint count, integrator, dt, stride and
    delay_steps are integrated together as one stacked array, whatever their
    variants and horizons (their steps). A member past its horizon is frozen (no
    longer updated, checked or recorded), so each trace ends at its own
    step count and equals that of ``run`` on its scenario alone. Each trace's
    time column is k * dt at the step k of each sample, so its last entry is
    steps * dt, whatever the batch: no step-by-step sum of dt. That equals
    the horizon only to rounding (350 * 1e-3 = 0.35000000000000003). C1/C3
    traces hold NaN theta columns. If a member's state stops being finite,
    SimulationUnstableError names the first such member of its group, in
    input order, and the time.
    """
    scenarios = list(scenarios)
    groups: dict[tuple, list[int]] = {}
    for i, s in enumerate(scenarios):
        groups.setdefault((s.config.n, s.integrator, s.dt, s.stride, s.delay_steps), []).append(i)
    traces: list = [None] * len(scenarios)
    for members in groups.values():
        for i, trace in zip(members, _integrate([scenarios[i] for i in members])):
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
    would cause. The tolerance needs the run's step, not the sample
    interval: a trace without a positive finite ``dt`` (one read by
    ``SimTrace.from_csv(path)``) raises ValueError.
    """
    if trace.has_forces():
        raise ValueError("energy audit requires a free-motion trace (all forces zero)")
    if not (math.isfinite(trace.dt) and trace.dt > 0):
        raise ValueError(f"energy audit requires the run's step dt > 0, got dt = {trace.dt!r}: "
                         "read a CSV trace with SimTrace.from_csv(path, dt=...)")
    pair = lambda local, remote: np.stack([local, remote], axis=1)[:, None]
    theta = pair(trace.th_l, trace.th_r) if config.has_virtual_state else None
    hdot = law_dissipation(stack_laws([config]), pair(trace.q_l, trace.q_r),
                           pair(trace.qd_l, trace.qd_r), theta)[:, 0]
    hdot_numeric = np.diff(trace.energy) / np.diff(trace.t)
    step_increase_tol = 0.5 * trace.dt * max(1.0, abs(float(trace.energy[0])))
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
