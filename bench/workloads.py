"""The benchmark's three workloads: bundled, sweep and verify.

Each workload has a set-up, a round (one pass over all its operations, the
unit the timed phase repeats) and a final check run once after the timed
phase. Every call into ftteleop goes through the module attribute at call
time (``sim.run``, ``cli.run_command``, ...), so the traced run can patch the
public functions where their callers look them up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import ftteleop
import reference
import speed
from ftteleop import cli
from ftteleop import closed_loop_sim as sim
from ftteleop import controllers as ctl
from ftteleop import homogeneity_audit as ha
from ftteleop import robot_dynamics as rd
from ftteleop import scenario as sc

BUNDLED = ("c1_sim", "c2_sim", "c3_sim", "c4_sim", "c1_spring")
SLICE = 0.1                     # seconds of simulated time per bundled slice
PULSE = (0.03, 0.07)            # c3/c4 force pulse moved inside the slice
Q0_JITTER = 0.05                # seeded perturbation of the start positions [rad]
RK4_DT, RK4_DECIMATION = 5e-4, 2e-3   # the coarser step of the RK4 test fixtures

# Reference-model bounds on the largest gap in q, qd (and theta) at the
# horizon, as gain * dt. RK4 loses its order where the laws are not smooth
# (|x|^p at x = 0, e.g. theta = q at the start of C2/C4), and both schemes
# are first order across a force pulse, whose edges a fixed step resolves
# only to within one step; so both bounds scale with dt.
EULER_GAIN, EULER_GAIN_PULSE = 100.0, 500.0
RK4_GAIN, RK4_GAIN_PULSE = 2.0, 50.0

# the 2-link benchmark arm of the bundled scenarios
ARM = dict(masses=[1.8, 1.6], lengths=[0.8, 0.6], com_offsets=[0.4, 0.3],
           inertias=[0.096, 0.048])
ARM_LIMITS = [40.0, 16.0]
GRAVITY = 9.81

SWEEP_MEMBERS = 16              # per round, half C1 and half C4
SWEEP_HORIZON = 0.05
SWEEP_DT, SWEEP_DECIMATION = 1e-4, 1e-3
SWEEP_REFERENCE_MEMBERS = 4     # seeded subset checked against the reference

Q_C = np.array([1.15, -0.05])   # fixed consensus position of the audits
CHAIN_CHECK_POINTS = 200        # random configurations per chain bound check
FIXED_CHAIN_SEED = 6            # the n = 6 chain and its check points do not vary
BOUND_MARGIN = 1.05             # the package's documented safety margin


@dataclass
class Round:
    """What one round did: named segment times, checks and outcome counts.

    Segment names start with "op:" for the workload's main operations and
    with "check:" for the property checks on recorded traces. The speed
    probe runs after every segment; its time is in ``wall`` and in no
    segment.
    """

    attempted: int
    wall: float = 0.0
    segments: dict = field(default_factory=dict)
    probes: list = field(default_factory=list)
    failures: list = field(default_factory=list)   # operations that failed
    problems: list = field(default_factory=list)   # wrong outputs of the others

    def timed(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.segments[name] = time.perf_counter() - start
        self.probes.append(speed.probe())
        return out


def random_chain(rng, n: int) -> dict:
    """Plain parameters of a random planar n-link chain (no torque limits)."""
    lengths = rng.uniform(0.3, 1.0, n)
    return dict(masses=rng.uniform(0.5, 2.0, n), lengths=lengths,
                com_offsets=lengths * rng.uniform(0.2, 0.9, n),
                inertias=rng.uniform(0.005, 0.1, n))


def chain_set(seed: int) -> list:
    """Seeded chains at n = 2 and 4, plus the fixed n = 6 chain."""
    rng = np.random.default_rng([seed, 2024])
    return [random_chain(rng, 2), random_chain(rng, 4),
            random_chain(np.random.default_rng(FIXED_CHAIN_SEED), 6)]


def gravity_closed_form(chain: dict, gravity: float = GRAVITY) -> np.ndarray:
    """Exact per-joint gravity-torque cap g * sum_{a>=j} (masses @ lever)_a."""
    n = len(chain["masses"])
    lever = np.zeros((n, n))
    for k in range(n):
        lever[k, :k] = chain["lengths"][:k]
        lever[k, k] = chain["com_offsets"][k]
    weights = np.asarray(chain["masses"]) @ lever
    return gravity * np.cumsum(weights[::-1])[::-1]


def check_chain_bounds(params, chain: dict, rng) -> list:
    """Sampled bounds must bracket the model at random configurations."""
    b = params.bounds
    n = params.n
    lo, hi, growth = np.inf, 0.0, 0.0
    for _ in range(CHAIN_CHECK_POINTS):
        q = rng.uniform(-np.pi, np.pi, n)
        v = rng.normal(size=n)
        eig = np.linalg.eigvalsh(rd.mass_matrix(params, q))
        lo, hi = min(lo, eig[0]), max(hi, eig[-1])
        growth = max(growth, np.linalg.norm(rd.coriolis_matrix(params, q, v) @ v) / (v @ v))
    problems = []
    if lo < b.inertia_min or hi > b.inertia_max:
        problems.append(f"n={n}: inertia eigenvalues [{lo:.4g}, {hi:.4g}] leave the bounds "
                        f"[{b.inertia_min:.4g}, {b.inertia_max:.4g}]")
    if growth > b.coriolis_gain:
        problems.append(f"n={n}: Coriolis growth {growth:.4g} exceeds {b.coriolis_gain:.4g}")
    exact = gravity_closed_form(chain, params.gravity)
    caps = np.asarray(b.gravity_caps)
    if np.any(caps < exact * (1 - 1e-12)) or np.any(caps > BOUND_MARGIN * exact * (1 + 1e-12)):
        problems.append(f"n={n}: gravity caps / closed form = {np.round(caps / exact, 4).tolist()}, "
                        f"outside [1, {BOUND_MARGIN}]")
    return problems


def reference_gap_bound(integrator: str, dt: float, pulsed: bool) -> float:
    if integrator == "rk4":
        return (RK4_GAIN_PULSE if pulsed else RK4_GAIN) * dt
    return (EULER_GAIN_PULSE if pulsed else EULER_GAIN) * dt


def traces_equal(a, b) -> bool:
    return np.array_equal(a.matrix(), b.matrix(), equal_nan=True)


def energy_problems(label, trace, config, params_l, params_r) -> list:
    audit = sim.energy_audit(trace, config, params_l, params_r)
    return [] if audit.ok else [f"{label}: energy audit flags samples {audit.flagged[:5].tolist()}"]


def torque_problems(label, trace, limits) -> list:
    worst = max(np.max(np.abs(trace.tau_l) / limits), np.max(np.abs(trace.tau_r) / limits))
    return [] if worst < 1.0 else [f"{label}: torque reaches {worst:.3f} of its limit"]


def ledger_problems(label, trace, stiffness, q0, anchor) -> list:
    """The passive spring can inject at most the energy it stores at the start."""
    stored = 0.5 * float(np.sum(stiffness * (q0 - anchor) ** 2))
    budget = sim.passivity_ledger(trace).total_budget
    return [] if budget <= stored else [
        f"{label}: ledger budget {budget:.6g} J exceeds the spring's {stored:.6g} J"]


class Workload:
    name = ""
    ops_per_round = 0       # operations attempted per round
    main_ops = 0            # of which the "op:" segments cover this many

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> Round:
        raise NotImplementedError

    def final_check(self) -> list:
        return []


@dataclass
class _Slice:
    path: str
    csv: str
    cfg: object          # the program's ScenarioConfig, for energy_audit
    spec: dict           # plain numbers for the reference model
    kind: str            # free | pulse | spring


class Bundled(Workload):
    """The five bundled scenarios as short slices, each through the CLI
    ``simulate`` command with Euler at its native dt and with RK4 at the
    coarser fixture step."""

    name = "bundled"
    ops_per_round = main_ops = 2 * len(BUNDLED)

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.out = os.path.join(self.workdir, "out")
        self.slices = []
        for name in BUNDLED:
            base = sc.read_bundled_scenario(name)
            q0_l = base.q0_l + rng.uniform(-Q0_JITTER, Q0_JITTER, base.q0_l.size)
            q0_r = base.q0_r + rng.uniform(-Q0_JITTER, Q0_JITTER, base.q0_r.size)
            extra = {}
            kind = "free"
            if base.profile_r.kind == "pulse":
                extra["profile_r"] = replace(base.profile_r, start=PULSE[0], stop=PULSE[1])
                kind = "pulse"
            elif base.profile_r.kind == "spring_damper":
                kind = "spring"
            euler = replace(base, horizon=SLICE, q0_l=q0_l, q0_r=q0_r, **extra)
            rk4 = replace(euler, integrator="rk4", dt=RK4_DT, decimation=RK4_DECIMATION)
            for tag, cfg in (("euler", euler), ("rk4", rk4)):
                label = f"{name}_{tag}"
                cfg = replace(cfg, label=label)
                text = sc.dump_scenario(cfg)
                path = os.path.join(self.workdir, f"{label}.cfg")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                self.slices.append(_Slice(
                    path=path, csv=os.path.join(self.out, f"{label}_trace.csv"), cfg=cfg,
                    spec=reference.read_scenario_text(text), kind=kind))
        self.first_digests = None
        self.last_traces = None

    def _check_trace(self, s: _Slice, problems: list):
        """Reload the command's CSV and check the property its scenario has."""
        trace = sim.SimTrace.from_csv(s.csv, dt=s.cfg.dt)
        label, spec = s.cfg.label, s.spec
        if s.kind == "free":
            problems += energy_problems(label, trace, s.cfg.config, s.cfg.params_l, s.cfg.params_r)
        elif s.kind == "pulse":
            problems += torque_problems(label, trace, spec["torque_limits"])
        else:
            force = spec["forces"][1]
            problems += ledger_problems(label, trace, force["stiffness"], spec["q0"][1],
                                        force["anchor"])
        return trace

    def round(self) -> Round:
        r = Round(attempted=self.ops_per_round)
        start = time.perf_counter()
        for s in self.slices:
            with contextlib.redirect_stdout(io.StringIO()) as report:
                code = r.timed(f"op:{s.cfg.label}", cli.run_command,
                               ["simulate", s.path, "--out", self.out])
            if code != 0 or "final error" not in report.getvalue():
                r.failures.append(f"simulate {s.cfg.label} exited with {code}")
        traces = []
        for s in self.slices:
            trace = r.timed(f"check:{s.cfg.label}", self._check_trace, s, r.problems)
            traces.append(trace)
        r.wall = time.perf_counter() - start
        digests = [hashlib.sha256(Path(s.csv).read_bytes()).hexdigest() for s in self.slices]
        if self.first_digests is None:
            self.first_digests = digests
        elif digests != self.first_digests:
            r.problems.append("a repeated simulate command wrote a different trace")
        self.last_traces = traces
        return r

    def final_check(self) -> list:
        problems = []
        references = {}
        for s, trace in zip(self.slices, self.last_traces):
            name = s.cfg.label.rsplit("_", 1)[0]
            if name not in references:
                references[name] = reference.final_state(s.spec)
            gap = reference.max_deviation(references[name], trace)
            bound = reference_gap_bound(s.cfg.integrator, s.cfg.dt, s.kind == "pulse")
            if not gap <= bound:
                problems.append(f"{s.cfg.label}: final state {gap:.3g} from the reference "
                                f"(bound {bound:.3g})")
        return problems


class Sweep(Workload):
    """Monte Carlo gain and initial-condition sweep on the 2-link arm."""

    name = "sweep"
    ops_per_round = main_ops = SWEEP_MEMBERS

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        arm = rd.RobotParams(**ARM, gravity=GRAVITY, torque_limits=ARM_LIMITS)
        self.members, self.specs = [], []
        for i in range(SWEEP_MEMBERS):
            variant = "C1" if i % 2 == 0 else "C4"
            r1 = rng.uniform(1.3, 1.5)
            q0_l = rng.uniform(-1.2, 1.2, 2)
            q0_r = q0_l + rng.uniform(-0.4, 0.4, 2)
            qd0_l, qd0_r = rng.uniform(-0.3, 0.3, 2), rng.uniform(-0.3, 0.3, 2)
            if variant == "C1":
                gains = dict(k_s=rng.uniform(4.0, 8.0), d_s=rng.uniform(4.0, 10.0))
            else:
                gains = dict(k_s=rng.uniform(4.0, 6.0), k_c=rng.uniform(15.0, 20.0),
                             d_c=rng.uniform(3.0, 6.0), delta_p=rng.uniform(0.2, 0.35),
                             delta_d=rng.uniform(0.005, 0.01))
            config = ctl.ControllerConfig.build(variant=variant, n=2, weights=(r1, 1.0), **gains)
            if config.is_bounded and not ctl.validate_saturation(config, arm, arm).ok:
                raise RuntimeError(f"sweep member {i} breaks the saturation condition")
            self.members.append(sim.Scenario(
                params_l=arm, params_r=arm, config=config, q0_l=q0_l, q0_r=q0_r,
                qd0_l=qd0_l, qd0_r=qd0_r, horizon=SWEEP_HORIZON, dt=SWEEP_DT,
                decimation=SWEEP_DECIMATION, label=f"member{i}"))
            pair = lambda key: None if key not in gains else (np.full(2, gains[key]),) * 2
            self.specs.append({
                "arm": {k: np.asarray(v, float) for k, v in ARM.items()},
                "variant": variant, "r1": r1, "r2": 1.0, "k_s": np.full(2, gains["k_s"]),
                "d_s": pair("d_s"), "k_c": pair("k_c"), "d_c": pair("d_c"),
                "delta_p": gains.get("delta_p"), "delta_d": gains.get("delta_d"),
                "q0": (q0_l, q0_r), "qd0": (qd0_l, qd0_r), "theta0": (q0_l, q0_r),
                "horizon": SWEEP_HORIZON, "forces": ({"kind": "zero"}, {"kind": "zero"}),
            })
        self.limits = np.asarray(ARM_LIMITS)
        self.checked = sorted(rng.choice(SWEEP_MEMBERS, SWEEP_REFERENCE_MEMBERS, replace=False))
        self.first_traces = None
        self.last_traces = None

    def _run_members(self, r: Round) -> list:
        batch = getattr(ftteleop, "run_batch", None)
        if batch is not None:
            return list(r.timed("op:batch", batch, self.members))
        return [r.timed(f"op:{m.label}", sim.run, m) for m in self.members]

    def _check_member(self, m, trace, problems: list) -> None:
        if m.config.is_bounded:
            problems += torque_problems(m.label, trace, self.limits)
        problems += energy_problems(m.label, trace, m.config, m.params_l, m.params_r)

    def round(self) -> Round:
        r = Round(attempted=self.ops_per_round)
        start = time.perf_counter()
        traces = self._run_members(r)
        for m, trace in zip(self.members, traces):
            r.timed(f"check:{m.label}", self._check_member, m, trace, r.problems)
        r.wall = time.perf_counter() - start
        if self.first_traces is None:
            self.first_traces = traces
        elif not all(traces_equal(a, b) for a, b in zip(traces, self.first_traces)):
            r.problems.append("a repeated sweep gave different traces")
        self.last_traces = traces
        return r

    def final_check(self) -> list:
        problems = []
        for m, trace in zip(self.members, self.last_traces):
            alone = sim.run(m)
            gap = float(np.nanmax(np.abs(alone.matrix() - trace.matrix())))
            if not gap <= 1e-10:
                problems.append(f"{m.label}: swept trace differs from the member run alone by {gap:.3g}")
        for i in self.checked:
            gap = reference.max_deviation(reference.final_state(self.specs[i]), self.last_traces[i])
            bound = reference_gap_bound("euler", SWEEP_DT, False)
            if not gap <= bound:
                problems.append(f"member{i}: final state {gap:.3g} from the reference (bound {bound:.3g})")
        return problems


class Verify(Workload):
    """Homogeneity audits, chain bound sampling and checks on recorded traces."""

    name = "verify"
    ops_per_round = 4 + 3 + 2     # four audits, three chain checks, two trace checks
    main_ops = 4

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        self.variants = []
        for name in ("c1_sim", "c2_sim", "c3_sim", "c4_sim"):
            cfg = sc.read_bundled_scenario(name)
            self.variants.append((cfg.config, cfg.params_l, cfg.params_r))
        self.traces = []
        for name in ("c1_sim", "c1_spring"):
            base = sc.read_bundled_scenario(name)
            cfg = replace(base, horizon=SLICE, decimation=base.dt,
                          q0_l=base.q0_l + rng.uniform(-Q0_JITTER, Q0_JITTER, 2),
                          q0_r=base.q0_r + rng.uniform(-Q0_JITTER, Q0_JITTER, 2))
            self.traces.append((cfg, sim.run(cfg), os.path.join(self.workdir, f"{name}.csv")))
        self.chains = chain_set(self.seed)
        self.check_seeds = [[self.seed, 4, 2], [self.seed, 4, 4], [FIXED_CHAIN_SEED, 6]]

    def _audit(self, config, params_l, params_r) -> list:
        spec = ha.HomogeneitySpec.for_config(config, params_l.n, seed=self.seed)
        defect = ha.check_degree(ha.homogeneous_field(config, params_l, params_r, Q_C), spec)
        eps, devs = ha.vanishing_sweep(config, params_l, params_r, Q_C, spec)
        slope = ha.fitted_decay_slope(eps, devs)
        checks = {
            "core degree defect <= 1e-9": defect <= 1e-9,
            "negative degree": config.weights.degree < 0,
            "sweep tail monotone": bool(np.all(np.diff(devs[-4:]) <= 0.0)),
            "sweep shrinks by >= 100x": devs[-1] / devs[0] < 1e-2,
            "decay slope >= 1": slope >= 1.0,
        }
        return [f"{config.variant}: {name} fails" for name, ok in checks.items() if not ok]

    def _trace_check(self, cfg, trace, path) -> list:
        trace.to_csv(path)
        reloaded = sim.SimTrace.from_csv(path, dt=trace.dt)
        problems = [] if traces_equal(trace, reloaded) else [f"{cfg.label}: CSV reload differs"]
        if cfg.profile_r.kind == "zero":
            return problems + energy_problems(cfg.label, reloaded, cfg.config,
                                              cfg.params_l, cfg.params_r)
        profile = cfg.profile_r
        return problems + ledger_problems(cfg.label, reloaded, profile.stiffness, cfg.q0_r,
                                          profile.anchor)

    def round(self) -> Round:
        r = Round(attempted=self.ops_per_round)
        start = time.perf_counter()

        def op(problems):
            if problems:
                r.failures.append("; ".join(problems))

        for variant in self.variants:
            op(r.timed(f"op:audit {variant[0].variant}", self._audit, *variant))
        for chain, seed in zip(self.chains, self.check_seeds):
            n = len(chain["masses"])
            params = r.timed(f"bounds:n{n}", rd.RobotParams, **chain)
            op(r.timed(f"bounds check:n{n}", check_chain_bounds, params, chain,
                       np.random.default_rng(seed)))
        for cfg, trace, path in self.traces:
            op(r.timed(f"check:{cfg.label}", self._trace_check, cfg, trace, path))
        r.wall = time.perf_counter() - start
        return r


WORKLOADS = {cls.name: cls for cls in (Bundled, Sweep, Verify)}
