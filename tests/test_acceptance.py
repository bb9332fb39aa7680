"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete. The expensive closed-loop runs are shared session
fixtures (see conftest).
"""

import numpy as np
import pytest

import ftteleop as ft
from ftteleop.controllers import control_law, stack_laws
from ftteleop.homogeneity_audit import HomogeneitySpec

from conftest import BENCHMARK


def _report(num: int, name: str, checks: dict, detail: str = ""):
    ok = all(checks.values())
    line = f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" | {detail}"
    print(line)
    for key, value in checks.items():
        if not value:
            print(f"    failed: {key}")
    assert ok, f"criterion {num}: {[k for k, v in checks.items() if not v]}"


def test_criterion_01_benchmark_reproduction(c1_run):
    """Free-motion C1 benchmark settles at 2.3 +- 0.5 s, under 60 s wall."""
    tstar = ft.convergence_time(c1_run.trace, 1e-3)
    checks = {
        "settling time found": tstar is not None,
        "within 2.3 +- 0.5 s": tstar is not None and 1.8 <= tstar <= 2.8,
        "wall clock < 60 s": c1_run.wall < 60.0,
    }
    _report(1, "benchmark reproduction",
            checks, f"t* = {tstar} s, wall = {c1_run.wall:.1f} s")


def test_criterion_02_energy_dissipation(c1_run, c1_run_half_dt):
    """Analytic energy rate never positive; sampled drift halves with dt."""
    cfg = c1_run.scenario
    audit = ft.energy_audit(c1_run.trace, cfg.config, cfg.params_l, cfg.params_r)
    audit_half = ft.energy_audit(c1_run_half_dt.trace, cfg.config,
                                 cfg.params_l, cfg.params_r)
    drift = audit.positive_variation
    drift_half = audit_half.positive_variation
    checks = {
        "analytic rate <= 0 at every sample": bool(np.all(audit.hdot_analytic <= 0.0)),
        "no sample flagged at native dt": audit.ok,
        "no sample flagged at half dt": audit_half.ok,
        "positive drift shrinks at least linearly":
            drift_half <= max(0.6 * drift, 1e-14),
    }
    _report(2, "energy dissipation", checks,
            f"drift {drift:.2e} -> {drift_half:.2e} when dt halves")


def test_criterion_03_model_properties(benchmark_params):
    """Skew-symmetry, Coriolis growth, inertia and gravity bounds, 1000 draws."""
    rng = np.random.default_rng(2024)
    bounds = benchmark_params.bounds
    h = 2e-6
    worst_skew = 0.0
    growth_ok = eig_ok = grav_ok = True
    for _ in range(1000):
        q = rng.uniform(-np.pi, np.pi, 2)
        qd = rng.normal(size=2)
        x = rng.normal(size=2)
        c = ft.coriolis_matrix(benchmark_params, q, qd)
        m_dot = (ft.mass_matrix(benchmark_params, q + h * qd)
                 - ft.mass_matrix(benchmark_params, q - h * qd)) / (2 * h)
        worst_skew = max(worst_skew, abs(x @ ((m_dot - 2 * c) @ x)) / (x @ x))
        growth_ok &= bool(np.linalg.norm(c @ qd) <= bounds.coriolis_gain * (qd @ qd) + 1e-12)
        eigs = np.linalg.eigvalsh(ft.mass_matrix(benchmark_params, q))
        eig_ok &= bool(bounds.inertia_min <= eigs[0] and eigs[-1] <= bounds.inertia_max)
        grav_ok &= bool(np.all(np.abs(ft.gravity_vector(benchmark_params, q))
                               <= bounds.gravity_caps))
    checks = {
        "skew-symmetry defect < 1e-9": worst_skew < 1e-9,
        "quadratic Coriolis growth bound": growth_ok,
        "inertia eigenvalues inside derived range": eig_ok,
        "gravity components inside caps": grav_ok,
    }
    _report(3, "manipulator model properties", checks,
            f"worst skew defect {worst_skew:.2e}")


def test_criterion_04_scalar_primitives():
    """Clip commutation exact on 1e4 draws; kernel derivative and lower bound."""
    rng = np.random.default_rng(7)
    commute_exact = True
    for _ in range(10_000):
        x = rng.normal() * rng.choice([0.1, 1.0, 10.0])
        p = rng.uniform(0.05, 3.0)
        d = rng.uniform(0.01, 5.0)
        if ft.sat_pow(x, p, d) != ft.signed_pow(ft.sat_clip(x, d), p):
            commute_exact = False
            break

    deriv_ok = True
    worst_rel = 0.0
    for _ in range(2000):
        p = rng.uniform(0.1, 3.0)
        d = rng.uniform(0.05, 3.0)
        x = rng.uniform(0.01, 3.0 * d) * rng.choice([-1.0, 1.0])
        h = 1e-6 * max(1.0, abs(x))
        if abs(abs(x) - d) < 10 * h:
            continue
        fd = (ft.s_integral(x + h, d, p) - ft.s_integral(x - h, d, p)) / (2 * h)
        target = ft.sat_pow(x, p, d)
        rel = abs(fd - target) / max(abs(target), 1e-12)
        worst_rel = max(worst_rel, rel)
        deriv_ok &= rel < 1e-6

    lower_ok = True
    for _ in range(2000):
        p = rng.uniform(0.05, 3.0)
        d = rng.uniform(0.01, 5.0)
        x = d * rng.uniform(1.0, 10.0) * rng.choice([-1.0, 1.0])
        bound = d**p * abs(x) / (p + 1.0)
        lower_ok &= ft.s_integral(x, d, p) >= bound * (1.0 - 1e-12)

    checks = {
        "clip commutation exact on 1e4 draws": commute_exact,
        "kernel derivative within 1e-6 relative": deriv_ok,
        "kernel lower bound beyond the level": lower_ok,
    }
    _report(4, "scalar primitives", checks, f"worst derivative defect {worst_rel:.2e}")


@pytest.fixture(scope="session")
def consensus_q(c1_run):
    """Frozen-inertia point: the consensus the benchmark run actually reaches."""
    return c1_run.trace.q_l[-1]


def _variant_config(variant):
    base = dict(variant=variant, n=2, weights=(1.5, 1.0), k_s=6.0)
    if variant in ("C1", "C3"):
        base["d_s"] = 8.0
    else:
        base["k_c"] = 20.0
        base["d_c"] = 4.0
    if variant in ("C3", "C4"):
        base["delta_p"] = 0.2
        base["delta_d"] = 0.5
    return ft.ControllerConfig.build(**base)


def test_criterion_05_homogeneity_degree(benchmark_params, consensus_q):
    """Frozen-inertia core is dilation-homogeneous of negative degree."""
    checks = {}
    worst = 0.0
    for variant in ("C1", "C2", "C3", "C4"):
        config = _variant_config(variant)
        spec = HomogeneitySpec.for_config(config, 2)
        core = ft.homogeneous_field(config, benchmark_params, benchmark_params, consensus_q)
        defect = ft.check_degree(core, spec)
        worst = max(worst, defect)
        checks[f"{variant} degree defect <= 1e-9"] = defect <= 1e-9
        checks[f"{variant} degree negative"] = config.weights.degree < 0.0
    checks["degree equals r2 - r1"] = _variant_config("C1").weights.degree == 1.0 - 1.5
    _report(5, "homogeneity degree check", checks, f"worst defect {worst:.2e}")


def test_criterion_06_vanishing_condition(benchmark_params, consensus_q):
    """Remainder sweep shrinks 100x over three decades with slope >= 1."""
    config = _variant_config("C1")
    spec = HomogeneitySpec.for_config(config, 2)
    eps, devs = ft.vanishing_sweep(config, benchmark_params, benchmark_params,
                                   consensus_q, spec)
    slope = ft.fitted_decay_slope(eps, devs)
    ratio = devs[-1] / devs[0]
    checks = {
        "deviation at 1e-3 below 1e-2 of its value at 1": ratio < 1e-2,
        "log-log decay slope >= 1.0": slope >= 1.0,
    }
    _report(6, "vanishing condition sweep", checks,
            f"ratio {ratio:.2e}, slope {slope:.2f}")


def test_criterion_07_saturation_avoidance(c3_run, c4_run):
    """Validated bounded variants never reach the torque limits, exactly."""
    checks = {}
    for tag, timed in (("C3", c3_run), ("C4", c4_run)):
        cfg = timed.scenario
        trace = timed.trace
        report = ft.validate_saturation(cfg.config, cfg.params_l, cfg.params_r)
        checks[f"{tag} saturation condition passes"] = report.ok
        limits = cfg.params_l.torque_limits
        checks[f"{tag} torques strictly inside limits"] = bool(
            np.all(np.abs(trace.tau_l) < limits)
            and np.all(np.abs(trace.tau_r) < cfg.params_r.torque_limits))
        # the pulse must actually drive both shaped channels to their caps
        err_max = np.abs(trace.q_l - trace.q_r).max(axis=0)
        checks[f"{tag} proportional channel saturated"] = bool(
            np.any(err_max >= cfg.config.delta_p))
        if tag == "C3":
            sat_hit = np.abs(np.concatenate([trace.qd_l, trace.qd_r])) >= cfg.config.delta_d
        else:
            sat_hit = np.abs(np.concatenate([trace.th_l - trace.q_l,
                                             trace.th_r - trace.q_r])) >= cfg.config.delta_d
        checks[f"{tag} damping channel saturated"] = bool(np.any(sat_hit))
    _report(7, "saturation avoidance", checks)


def test_criterion_08_finite_time_vs_asymptotic(c1_run, c1_asymptotic_run):
    """Matched gains: the finite-time law settles strictly first and holds."""
    t_ft = ft.convergence_time(c1_run.trace, 1e-3)
    t_asym = ft.convergence_time(c1_asymptotic_run.trace, 1e-3)
    tail = c1_run.trace.err_norm[c1_run.trace.t >= (t_ft if t_ft else 0.0)]
    checks = {
        "finite-time settles": t_ft is not None,
        "finite-time strictly faster": t_ft is not None
            and (t_asym is None or t_ft < t_asym),
        "error never exceeds 2x tolerance after settling": bool(np.all(tail <= 2e-3)),
    }
    _report(8, "finite-time vs asymptotic", checks,
            f"t*_ft = {t_ft} s, t*_asym = {t_asym} s")


def test_criterion_09_boundedness_under_passive_forces(spring_run, c2_spring_run):
    """Every state norm stays under the H(0) + injected-energy budget."""
    checks = {}
    for tag, timed in (("C1", spring_run), ("C2", c2_spring_run)):
        trace = timed.trace
        scenario = timed.scenario
        ledger = ft.passivity_ledger(trace)
        budget = trace.energy[0] + ledger.total_budget
        bounds = ft.state_bounds_from_energy(scenario.config, scenario.params_l,
                                             scenario.params_r, budget)
        checks[f"{tag} error norm bounded"] = bool(
            np.all(trace.err_norm <= bounds["err_norm"]))
        checks[f"{tag} velocity norms bounded"] = bool(
            np.all(np.linalg.norm(trace.qd_l, axis=1) <= bounds["vel_norm"][0])
            and np.all(np.linalg.norm(trace.qd_r, axis=1) <= bounds["vel_norm"][1]))
        if bounds["theta_err_norm"] is not None:
            tt_l = np.linalg.norm(trace.th_l - trace.q_l, axis=1)
            tt_r = np.linalg.norm(trace.th_r - trace.q_r, axis=1)
            checks[f"{tag} virtual mismatch bounded"] = bool(
                np.all(tt_l <= bounds["theta_err_norm"][0])
                and np.all(tt_r <= bounds["theta_err_norm"][1]))
        checks[f"{tag} ledger nonnegative"] = bool(
            np.all(ledger.ledger(0) >= -1e-12) and np.all(ledger.ledger(1) >= -1e-12))
    _report(9, "boundedness under passive forces", checks)


def _theta_rate_norms(trace, config):
    """Per sample, the larger of the two sides' virtual-state rate norms."""
    q = np.stack([trace.q_l, trace.q_r], axis=1)
    theta = np.stack([trace.th_l, trace.th_r], axis=1)
    zeros = np.zeros_like(q)
    _, rates = control_law(stack_laws([config]), q, zeros, theta, q[:, ::-1])
    return np.linalg.norm(rates, axis=-1).max(axis=1)


def test_criterion_10_output_feedback(c2_run, c4_run, c2_rk4_run, c4_rk4_run):
    """Velocity-free variants settle; the detectability chain holds.

    The rate law is algebraically invertible, so a rate norm below 1e-6
    forces the virtual mismatch far below 1e-3; the implication is asserted
    over every recorded sample (the consensus-rest sample satisfies the
    antecedent exactly). Fixed-step forward Euler chatters at the non-smooth
    origin with velocity amplitude above the tolerance, so the dynamic tail
    chain (small rate with small mismatch and small velocity together) is
    spot-checked on the high-accuracy RK4 twin of the same scenario.
    """
    checks = {}
    for tag, timed, timed_rk4 in (("C2", c2_run, c2_rk4_run),
                                  ("C4", c4_run, c4_rk4_run)):
        trace = timed.trace
        config = timed.scenario.config
        tstar = ft.convergence_time(trace, 1e-3)
        checks[f"{tag} sustained error below 1e-3"] = tstar is not None

        for sub, tr in ((f"{tag} bundled", trace), (f"{tag} rk4 twin", timed_rk4.trace)):
            rate = _theta_rate_norms(tr, config)
            tt = np.maximum(np.linalg.norm(tr.th_l - tr.q_l, axis=1),
                            np.linalg.norm(tr.th_r - tr.q_r, axis=1))
            qd = np.maximum(np.linalg.norm(tr.qd_l, axis=1),
                            np.linalg.norm(tr.qd_r, axis=1))
            quiet = rate < 1e-6
            checks[f"{sub}: quiet samples exist"] = bool(np.any(quiet))
            checks[f"{sub}: rate < 1e-6 implies mismatch and velocity < 1e-3"] = bool(
                np.all(tt[quiet] < 1e-3) and np.all(qd[quiet] < 1e-3))

        # algebraic inversion: a rate norm below 1e-6 caps the per-joint
        # mismatch at (1e-6 / speed)^(r1/r2), far below 1e-3
        speed = np.min((config.k_c / config.d_c) ** (1.0 / config.p_vel))
        implied = (1e-6 / speed) ** (config.weights.r1 / config.weights.r2)
        checks[f"{tag} inversion bound far below 1e-3"] = implied < 1e-3

        tr = timed_rk4.trace
        rate = _theta_rate_norms(tr, config)
        tt = np.maximum(np.linalg.norm(tr.th_l - tr.q_l, axis=1),
                        np.linalg.norm(tr.th_r - tr.q_r, axis=1))
        qd = np.maximum(np.linalg.norm(tr.qd_l, axis=1),
                        np.linalg.norm(tr.qd_r, axis=1))
        checks[f"{tag} rk4 twin settles"] = ft.convergence_time(tr, 1e-3) is not None
        calm = (tr.t >= tr.t[-1] - 1.0) & (rate < 1e-3)
        checks[f"{tag} converged-tail chain on the rk4 twin"] = bool(
            np.any(calm) and np.all(tt[calm] < 1e-3) and np.all(qd[calm] < 1e-3))
    _report(10, "output feedback detectability", checks)
