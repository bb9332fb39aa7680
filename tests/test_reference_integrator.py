"""Fixed-step runs against an independent adaptive integrator.

The reference is scipy's DOP853 at tight tolerances on a closed-form model
of the two-link arm under C1, written out here without the package's
dynamics kernels. Gravity cancels exactly in the law, so it is left out.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import ftteleop as ft

EULER_DTS = (1e-3, 5e-4, 2.5e-4, 1.25e-4)
RK4_DTS = (1e-2, 5e-3, 2.5e-3, 1.25e-3)


def _sig(x, p):
    return np.sign(x) * np.abs(x) ** p


def _closed_form_rhs(scenario):
    """dx/dt of x = (q_l, q_r, qd_l, qd_r) for a two-link C1 scenario."""
    arm, cfg = scenario.params_l, scenario.config
    m1, m2 = arm.masses
    l1 = arm.lengths[0]
    c1, c2 = arm.com_offsets
    i1, i2 = arm.inertias

    def acceleration(q, qd, tau):
        cos, sin = np.cos(q[1]), np.sin(q[1])
        m12 = i2 + m2 * (c2**2 + l1 * c2 * cos)
        mass = np.array([[i1 + i2 + m1 * c1**2 + m2 * (l1**2 + c2**2 + 2 * l1 * c2 * cos), m12],
                         [m12, i2 + m2 * c2**2]])
        h = m2 * l1 * c2 * sin
        coriolis = np.array([-h * qd[1] * (2 * qd[0] + qd[1]), h * qd[0] ** 2])
        return np.linalg.solve(mass, tau - coriolis)

    def rhs(t, x):
        q_l, q_r, qd_l, qd_r = x[0:2], x[2:4], x[4:6], x[6:8]
        tau_l = -cfg.k_s * _sig(q_l - q_r, cfg.p_pos) - cfg.d_s[0] * _sig(qd_l, cfg.p_vel)
        tau_r = -cfg.k_s * _sig(q_r - q_l, cfg.p_pos) - cfg.d_s[1] * _sig(qd_r, cfg.p_vel)
        return np.concatenate([qd_l, qd_r, acceleration(q_l, qd_l, tau_l),
                               acceleration(q_r, qd_r, tau_r)])

    return rhs


@pytest.fixture(scope="module")
def ladder():
    """A 0.5 s C1 slice whose arms start toward each other, its DOP853
    reference, and its traces over both dt ladders from one run_batch call."""
    base = replace(ft.read_bundled_scenario("c1_sim"), horizon=0.5, decimation=1e-2,
                   qd0_l=np.array([0.5, 0.5]), qd0_r=np.array([-0.5, -0.5]))
    x0 = np.concatenate([base.q0_l, base.q0_r, base.qd0_l, base.qd0_r])
    reference = solve_ivp(_closed_form_rhs(base), (0.0, base.horizon), x0, method="DOP853",
                          rtol=1e-12, atol=1e-12, dense_output=True)
    assert reference.success
    scenarios = [replace(base, integrator="euler", dt=dt) for dt in EULER_DTS]
    scenarios += [replace(base, integrator="rk4", dt=dt) for dt in RK4_DTS]
    traces = ft.run_batch(scenarios)
    return reference, traces[:len(EULER_DTS)], traces[len(EULER_DTS):]


def _error(trace, reference, until=np.inf) -> float:
    keep = trace.t <= until
    state = np.hstack([trace.q_l, trace.q_r, trace.qd_l, trace.qd_r])[keep]
    return float(np.max(np.abs(state - reference.sol(trace.t[keep]).T)))


def _order(dts, errors) -> float:
    return float(np.polyfit(np.log(dts), np.log(errors), 1)[0])


def _first_crossing(reference, horizon) -> float:
    """First time a velocity or error component of the reference changes sign:
    there the law's fractional powers stop being smooth."""
    t = np.linspace(0.0, horizon, 5001)
    x = reference.sol(t)
    channels = np.vstack([x[4:8], x[0:2] - x[2:4]])
    flipped = np.any(np.sign(channels) != np.sign(channels[:, :1]), axis=0)
    return float(t[np.argmax(flipped)]) if flipped.any() else horizon


def test_euler_error_shrinks_like_dt(ladder):
    reference, euler, _ = ladder
    errors = [_error(trace, reference) for trace in euler]
    assert errors[-1] < 5e-4
    assert 0.9 <= _order(EULER_DTS, errors) <= 1.1


def test_rk4_error_shrinks_like_dt4_away_from_the_origin(ladder):
    reference, _, rk4 = ladder
    smooth_until = 0.8 * _first_crossing(reference, 0.5)
    assert smooth_until > 0.3
    errors = [_error(trace, reference, smooth_until) for trace in rk4]
    assert errors[-1] < 1e-7
    assert 3.7 <= _order(RK4_DTS, errors) <= 5.0
