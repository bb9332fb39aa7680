"""Per-layer measurements: microbenchmarks, per-step call counts, tracing.

Layers are the package's modules. The microbenchmarks time single calls
into their public functions. The tracer measures from outside: it replaces
public functions by timing wrappers in every module namespace that holds
them (the places their callers look them up), and records per-layer self
time (a span's duration minus that of the spans it caused) and call counts.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import replace

import numpy as np

import workloads
from ftteleop import closed_loop_sim as sim
from ftteleop import controllers as ctl
from ftteleop import homogeneity_audit as ha
from ftteleop import robot_dynamics as rd
from ftteleop import scalar_ops as so
from ftteleop import scenario as sc

BATCH_SECONDS = 0.02            # calls per timed batch are calibrated to this
BATCHES = 5

# layer -> (module, public function names); the record layer also covers the
# per-sample energy of the trace and the trace's CSV methods
TRACED = {
    "robot_dynamics": ("robot_dynamics", ("mass_matrix", "coriolis_matrix", "gravity_vector",
                                          "potential_energy", "forward_dynamics", "energies",
                                          "derive_bounds")),
    "controllers": ("controllers", ("control_action", "shaped_potential", "dissipation_rate",
                                    "validate_saturation")),
    "record": ("closed_loop_sim", ("_total_energy", "energy_audit", "passivity_ledger",
                                   "convergence_time")),
    "scenario": ("scenario", ("parse_scenario", "load_scenario", "dump_scenario",
                              "read_bundled_scenario", "with_weights")),
    "homogeneity_audit": ("homogeneity_audit", ("homogeneous_field", "full_field",
                                                "check_degree", "vanishing_sweep",
                                                "fitted_decay_slope")),
}
TRACE_METHODS = {"record": ("to_csv", "from_csv")}   # methods of SimTrace
COUNTED = ("control_action", "forward_dynamics", "mass_matrix")


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "ftteleop" or name.startswith("ftteleop."))]


class Tracer:
    """Self time per layer and call counts per function, from outside."""

    def __init__(self):
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self._children = []       # child time accumulated by each open span

    def _wrap(self, layer, name, fn):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            tracer.calls[name] += 1
            tracer._children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer.self_time[layer] += elapsed - tracer._children.pop()
                if tracer._children:
                    tracer._children[-1] += elapsed
        return span

    @contextlib.contextmanager
    def patched(self):
        """Install the spans and a counting RobotState; undo on exit."""
        modules = _package_modules()
        undo = []

        def replace_everywhere(original, wrapper):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, value))
                        setattr(module, attr, wrapper)

        for layer, (module_name, names) in TRACED.items():
            module = sys.modules[f"ftteleop.{module_name}"]
            for name in names:
                original = getattr(module, name, None)
                if callable(original):
                    replace_everywhere(original, self._wrap(layer, name, original))
        for layer, names in TRACE_METHODS.items():
            for name in names:
                raw = vars(sim.SimTrace).get(name)
                if raw is None:
                    continue
                undo.append((sim.SimTrace, name, raw))
                if isinstance(raw, classmethod):
                    setattr(sim.SimTrace, name, classmethod(self._wrap(layer, name, raw.__func__)))
                else:
                    setattr(sim.SimTrace, name, self._wrap(layer, name, raw))

        tracer = self

        class CountedRobotState(rd.RobotState):
            def __post_init__(self):
                tracer.calls["robot_state"] += 1
                super().__post_init__()

        replace_everywhere(rd.RobotState, CountedRobotState)
        try:
            yield self
        finally:
            for module, attr, value in reversed(undo):
                setattr(module, attr, value)

    def layer_self_times(self, wall: float) -> dict:
        """Self time per traced layer; 'other' is the rest of the wall time."""
        out = {layer: self.self_time.get(layer, 0.0) for layer in TRACED}
        out["other"] = wall - sum(out.values())
        return out


def per_call(fn, batches: int = BATCHES) -> float:
    """Median seconds per call over timed batches of a calibrated size."""
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= BATCH_SECONDS or calls >= 1 << 16:
            break
        calls = max(calls * 2, int(calls * BATCH_SECONDS / max(elapsed, 1e-9)))
    samples = [elapsed / calls]
    for _ in range(batches - 1):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def _variant_scenarios():
    return {f"C{k}": sc.read_bundled_scenario(f"c{k}_sim") for k in range(1, 5)}


def microbenchmarks(seed: int, workdir: str) -> dict:
    """name -> (value, unit) for every layer microbenchmark."""
    out = {}
    rng = np.random.default_rng([seed, 5])
    chains = {len(c["masses"]): c for c in workloads.chain_set(seed)}
    for n, chain in sorted(chains.items()):
        params = rd.RobotParams(**chain)
        q, qd, tau = rng.uniform(-np.pi, np.pi, n), rng.normal(size=n), rng.normal(size=n)
        state = rd.RobotState(q=q, qdot=qd)
        for name, fn in (
            ("mass_matrix", lambda: rd.mass_matrix(params, q)),
            ("coriolis_matrix", lambda: rd.coriolis_matrix(params, q, qd)),
            ("gravity_vector", lambda: rd.gravity_vector(params, q)),
            ("forward_dynamics", lambda: rd.forward_dynamics(params, state, tau)),
            ("energies", lambda: rd.energies(params, state)),
        ):
            out[f"robot_dynamics.{name}_us.n{n}"] = (per_call(fn) * 1e6, "us")
        out[f"robot_dynamics.robot_params_ms.n{n}"] = (
            per_call(lambda: rd.RobotParams(**chain), batches=3) * 1e3, "ms")

    x = rng.uniform(-0.5, 0.5, 2)
    for name, fn in (
        ("signed_pow", lambda: so.signed_pow(x, 1.0 / 3.0)),
        ("sat_pow", lambda: so.sat_pow(x, 1.0 / 3.0, 0.2)),
        ("s_integral", lambda: so.s_integral(x, 0.2, 1.0 / 3.0)),
    ):
        out[f"scalar_ops.{name}_us"] = (per_call(fn) * 1e6, "us")

    scenarios = _variant_scenarios()
    for variant, cfg in scenarios.items():
        state = cfg.initial_state()
        profiles = (cfg.profile_l, cfg.profile_r)
        out[f"controllers.control_action_us.{variant}"] = (per_call(
            lambda: ctl.control_action(cfg.config, cfg.params_l, cfg.params_r,
                                       state.local, state.remote, state.ctrl)) * 1e6, "us")
        out[f"closed_loop_sim.step_us.{variant}"] = (per_call(
            lambda: sim.step(state, cfg.config, cfg.params_l, cfg.params_r, profiles,
                             cfg.dt)) * 1e6, "us")
        out[f"closed_loop_sim.rk4_step_us.{variant}"] = (per_call(
            lambda: sim.rk4_step(state, cfg.config, cfg.params_l, cfg.params_r, profiles,
                                 workloads.RK4_DT)) * 1e6, "us")
    c4 = scenarios["C4"]
    s4 = c4.initial_state()
    moved = rd.RobotState(q=s4.local.q + 0.1, qdot=s4.local.qdot + 0.2)
    for name, fn in (
        ("shaped_potential", lambda: ctl.shaped_potential(c4.config, moved, s4.remote, s4.ctrl)),
        ("dissipation_rate", lambda: ctl.dissipation_rate(c4.config, moved, s4.remote, s4.ctrl)),
    ):
        out[f"controllers.{name}_us"] = (per_call(fn) * 1e6, "us")

    c1 = scenarios["C1"]
    trace = sim.run(replace(c1, horizon=workloads.SLICE, decimation=c1.dt))
    path = os.path.join(workdir, "layers_trace.csv")
    trace.to_csv(path)
    for name, fn in (
        ("to_csv", lambda: trace.to_csv(path)),
        ("from_csv", lambda: sim.SimTrace.from_csv(path, dt=c1.dt)),
        ("energy_audit", lambda: sim.energy_audit(trace, c1.config, c1.params_l, c1.params_r)),
        ("passivity_ledger", lambda: sim.passivity_ledger(trace)),
    ):
        out[f"closed_loop_sim.{name}_ms"] = (per_call(fn) * 1e3, "ms")

    n = c1.params_l.n
    spec = ha.HomogeneitySpec.for_config(c1.config, n, seed=seed)
    point = ha.sphere_points(spec.weights.size, 1, seed)[0]
    core = ha.homogeneous_field(c1.config, c1.params_l, c1.params_r, workloads.Q_C)
    full = ha.full_field(c1.config, c1.params_l, c1.params_r, workloads.Q_C)
    out["homogeneity_audit.core_eval_us"] = (per_call(lambda: core(point)) * 1e6, "us")
    out["homogeneity_audit.full_field_eval_us"] = (per_call(lambda: full(point)) * 1e6, "us")
    out["homogeneity_audit.check_degree_s"] = (
        per_call(lambda: ha.check_degree(core, spec), batches=3), "s")
    out["homogeneity_audit.vanishing_sweep_s"] = (per_call(
        lambda: ha.vanishing_sweep(c1.config, c1.params_l, c1.params_r, workloads.Q_C, spec),
        batches=1), "s")

    text = sc.dump_scenario(c4)
    out["scenario.parse_ms"] = (per_call(lambda: sc.parse_scenario(text), batches=3) * 1e3, "ms")
    out["scenario.dump_ms"] = (per_call(lambda: sc.dump_scenario(c4)) * 1e3, "ms")
    return out


def step_counts() -> dict:
    """Exact calls per closed-loop step inside ``run``, Euler and RK4.

    Counted as the difference between two runs of the c1_sim slice at its
    native decimation, 40 and 80 steps long, divided by the 40 extra steps,
    so the record's share per step is included and the final sample is not.
    """
    base = sc.read_bundled_scenario("c1_sim")
    out = {}
    for tag, cfg in (("euler", base),
                     ("rk4", replace(base, integrator="rk4", dt=workloads.RK4_DT,
                                     decimation=workloads.RK4_DECIMATION))):
        totals = []
        for steps in (40, 80):
            tracer = Tracer()
            with tracer.patched():
                sim.run(replace(cfg, horizon=steps * cfg.dt))
            totals.append(tracer.calls)
        for name in COUNTED + ("robot_state",):
            out[f"count.{name}_per_step.{tag}"] = (totals[1][name] - totals[0][name]) / 40.0
    return out
