"""Tests for the four control laws, their exponents and the saturation gate."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

import ftteleop as ft
from ftteleop import controllers
from ftteleop.controllers import LOCAL, REMOTE, VARIANTS
from ftteleop.scalar_ops import channel, channel_integral

from conftest import BENCHMARK


def _rest_consensus(q):
    state = ft.RobotState(q=q, qdot=np.zeros_like(q))
    return state, state


def _flat_params():
    return ft.RobotParams(**BENCHMARK, gravity=0.0)


def _torques(*args):
    action = ft.control_action(*args)
    return action.tau_l, action.tau_r


def _theta_rate(config, theta_err, side):
    """One side's virtual-state rate from the stacked law, at q = 0."""
    q = np.zeros((1, 2, config.n))
    theta = q.copy()
    theta[0, side] = theta_err
    _, theta_dot = controllers.control_law(controllers.stack_laws([config]), q, q, theta, q)
    return theta_dot[0, side]


def _torques_and_theta_dot(*args):
    action = ft.control_action(*args)
    return action.tau_l, action.tau_r, action.theta_dot_l, action.theta_dot_r


def _config(variant, **kwargs):
    base = dict(variant=variant, n=2, weights=(1.5, 1.0), k_s=6.0)
    if variant in ("C1", "C3"):
        base["d_s"] = 8.0
    else:
        base["k_c"] = 20.0
        base["d_c"] = 8.0
    if variant in ("C3", "C4"):
        base["delta_p"] = 0.2
        base["delta_d"] = 0.5
    base.update(kwargs)
    return ft.ControllerConfig.build(**base)


def _exponents(weights):
    return weights.pos_exponent, weights.vel_exponent


class TestExponents:
    def test_benchmark_weights(self):
        p_pos, p_vel = _exponents(ft.Weights(1.5, 1.0))
        assert p_pos == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert p_vel == pytest.approx(0.5, rel=1e-15)

    def test_equal_weights_are_linear(self):
        assert _exponents(ft.Weights(1.0, 1.0)) == (1.0, 1.0)

    def test_rejects_discontinuous(self):
        with pytest.raises(ValueError):
            _exponents(ft.Weights(2.0, 1.0))

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            _exponents(ft.Weights(0.8, 1.0))


class TestGravityCancellation:
    @pytest.mark.parametrize("variant", ["C1", "C2", "C3", "C4"])
    def test_consensus_rest_outputs_gravity(self, benchmark_params, variant):
        q = np.array([0.7, -1.1])
        state_l, state_r = _rest_consensus(q)
        config = _config(variant)
        ctrl = ft.ControllerState(theta_l=q, theta_r=q)
        action = ft.control_action(config, benchmark_params, benchmark_params,
                                   state_l, state_r, ctrl)
        expected = ft.gravity_vector(benchmark_params, q)
        np.testing.assert_array_equal(action.tau_l, expected)
        np.testing.assert_array_equal(action.tau_r, expected)
        if action.theta_dot_l is not None:
            np.testing.assert_array_equal(action.theta_dot_l, np.zeros(2))
            np.testing.assert_array_equal(action.theta_dot_r, np.zeros(2))


class TestC1:
    def test_unit_error_flat(self):
        params = _flat_params()
        state_l = ft.RobotState(q=[1.0, 0.0], qdot=[0.0, 0.0])
        state_r = ft.RobotState(q=[0.0, 0.0], qdot=[0.0, 0.0])
        tau_l, tau_r = _torques(_config("C1"), params, params, state_l, state_r)
        np.testing.assert_allclose(tau_l, [-6.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(tau_r, [6.0, 0.0], atol=1e-15)

    def test_cube_root_scaling(self):
        # 0.008^(1/3) = 0.2, so the first joint sees -6 * 0.2
        params = _flat_params()
        state_l = ft.RobotState(q=[0.008, 0.0], qdot=[0.0, 0.0])
        state_r = ft.RobotState(q=[0.0, 0.0], qdot=[0.0, 0.0])
        tau_l, _ = _torques(_config("C1"), params, params, state_l, state_r)
        assert tau_l[0] == pytest.approx(-1.2, rel=1e-12)

    def test_proportional_antisymmetry(self):
        # at rest with no gravity the torque IS the proportional term
        params = _flat_params()
        rng = np.random.default_rng(0)
        config = _config("C1")
        for _ in range(20):
            q_l, q_r = rng.normal(size=(2, 2))
            state_l = ft.RobotState(q=q_l, qdot=np.zeros(2))
            state_r = ft.RobotState(q=q_r, qdot=np.zeros(2))
            tau_l, tau_r = _torques(config, params, params, state_l, state_r)
            np.testing.assert_array_equal(tau_l, -tau_r)

    def test_damping_uses_own_velocity_only(self):
        params = _flat_params()
        config = _config("C1")
        state_l = ft.RobotState(q=[0.0, 0.0], qdot=[4.0, 0.0])
        state_r = ft.RobotState(q=[0.0, 0.0], qdot=[0.0, 0.0])
        tau_l, tau_r = _torques(config, params, params, state_l, state_r)
        np.testing.assert_allclose(tau_l, [-8.0 * 2.0, 0.0], rtol=1e-14)
        np.testing.assert_array_equal(tau_r, np.zeros(2))


class TestC2:
    def test_theta_rate_exponent(self):
        # mismatch enters the rate law through the power r2/r1 = 2/3
        config = _config("C2", k_c=1.0, d_c=1.0)
        rate = _theta_rate(config, np.array([0.125, 0.0]), LOCAL)
        assert rate[0] == pytest.approx(-(0.125 ** (2.0 / 3.0)), rel=1e-12)

    def test_scalar_chain_unit_rate(self):
        # k_c = d_c = 1, p_vel = 0.5: speed factor 1, unit mismatch -> rate -1
        config = ft.ControllerConfig.build(variant="C2", n=2, weights=(1.5, 1.0),
                                           k_s=1.0, k_c=1.0, d_c=1.0)
        rate = _theta_rate(config, np.array([1.0, 0.0]), LOCAL)
        np.testing.assert_allclose(rate, [-1.0, 0.0], rtol=1e-15)

    def test_velocity_free(self):
        # outputs must not change when velocities do
        params = _flat_params()
        config = _config("C2")
        ctrl = ft.ControllerState(theta_l=[0.3, 0.1], theta_r=[0.0, 0.0])
        out = []
        for qd in ([0.0, 0.0], [3.0, -2.0]):
            state_l = ft.RobotState(q=[1.0, -0.4], qdot=qd)
            state_r = ft.RobotState(q=[0.2, 0.3], qdot=qd)
            out.append(_torques_and_theta_dot(config, params, params,
                                                   state_l, state_r, ctrl))
        for a, b in zip(out[0], out[1]):
            np.testing.assert_array_equal(a, b)

    def test_virtual_spring_sign(self):
        # theta ahead of q pulls the torque up through +k_c
        params = _flat_params()
        config = _config("C2")
        state_l = ft.RobotState(q=[0.0, 0.0], qdot=[0.0, 0.0])
        state_r = ft.RobotState(q=[0.0, 0.0], qdot=[0.0, 0.0])
        ctrl = ft.ControllerState(theta_l=[0.001, 0.0], theta_r=[0.0, 0.0])
        tau_l, tau_r, td_l, td_r = _torques_and_theta_dot(
            config, params, params, state_l, state_r, ctrl)
        assert tau_l[0] == pytest.approx(20.0 * 0.001 ** (1.0 / 3.0), rel=1e-12)
        assert td_l[0] < 0.0
        np.testing.assert_array_equal(tau_r, np.zeros(2))


class TestC3:
    def test_saturated_proportional_branch(self):
        # |error| = 8 with level 0.2: the term caps at k_s * 0.2^(1/3)
        params = _flat_params()
        config = ft.ControllerConfig.build(variant="C3", n=2, weights=(1.5, 1.0),
                                           k_s=1.0, d_s=0.0, delta_p=0.2, delta_d=0.5)
        state_l = ft.RobotState(q=[8.0, 0.0], qdot=[0.0, 0.0])
        state_r = ft.RobotState(q=[0.0, 0.0], qdot=[0.0, 0.0])
        tau_l, _ = _torques(config, params, params, state_l, state_r)
        assert tau_l[0] == pytest.approx(-(0.2 ** (1.0 / 3.0)), rel=1e-12)
        assert tau_l[0] == -ft.sat_pow(8.0, 1.0 / 3.0, 0.2)

    def test_net_torque_budget(self, benchmark_params):
        rng = np.random.default_rng(1)
        config = _config("C3")
        cap = (6.0 * 0.2 ** (1.0 / 3.0) + 8.0 * 0.5**0.5) * (1 + 1e-12)
        for _ in range(100):
            state_l = ft.RobotState(q=rng.normal(size=2) * 3, qdot=rng.normal(size=2) * 3)
            state_r = ft.RobotState(q=rng.normal(size=2) * 3, qdot=rng.normal(size=2) * 3)
            tau_l, tau_r = _torques(config, benchmark_params, benchmark_params,
                                         state_l, state_r)
            net_l = tau_l - ft.gravity_vector(benchmark_params, state_l.q)
            net_r = tau_r - ft.gravity_vector(benchmark_params, state_r.q)
            assert np.all(np.abs(net_l) <= cap)
            assert np.all(np.abs(net_r) <= cap)


class TestC4:
    def test_saturated_caps(self):
        params = _flat_params()
        config = _config("C4", d_c=4.0)
        state_l = ft.RobotState(q=[5.0, 0.0], qdot=[0.0, 0.0])
        state_r = ft.RobotState(q=[0.0, 0.0], qdot=[0.0, 0.0])
        ctrl = ft.ControllerState(theta_l=[-3.0, 0.0], theta_r=[0.0, 0.0])
        tau_l, tau_r, td_l, _ = _torques_and_theta_dot(
            config, params, params, state_l, state_r, ctrl)
        # proportional cap k_s delta_p^p_pos, virtual cap k_c delta_d^p_pos
        assert tau_l[0] == pytest.approx(
            -6.0 * 0.2 ** (1.0 / 3.0) - 20.0 * 0.5 ** (1.0 / 3.0), rel=1e-12)
        # rate law saturates at (k_c/d_c)^(1/p_vel) * delta_d^(r2/r1)
        assert td_l[0] == pytest.approx(25.0 * 0.5 ** (2.0 / 3.0), rel=1e-12)

    def test_consensus_fixed_point(self, benchmark_params):
        q = np.array([0.4, 0.9])
        state_l, state_r = _rest_consensus(q)
        ctrl = ft.ControllerState(theta_l=q, theta_r=q)
        config = _config("C4", d_c=4.0)
        tau_l, tau_r, td_l, td_r = _torques_and_theta_dot(
            config, benchmark_params, benchmark_params, state_l, state_r, ctrl)
        grav = ft.gravity_vector(benchmark_params, q)
        np.testing.assert_array_equal(tau_l, grav)
        np.testing.assert_array_equal(tau_r, grav)
        np.testing.assert_array_equal(td_l, np.zeros(2))
        np.testing.assert_array_equal(td_r, np.zeros(2))


class TestContinuity:
    @pytest.mark.parametrize("variant", ["C1", "C2", "C3", "C4"])
    def test_no_jumps_through_critical_points(self, variant):
        """Sweep each torque law through the power-law kinks and saturation
        crossings; the observed increments must shrink with the spacing.

        The spacing is chosen per exponent so a continuous law keeps
        increments below 1e-3 while a genuine jump of that size would stay
        visible at any spacing.
        """
        params = _flat_params()
        config = _config(variant)
        p_min = min(config.p_pos, config.p_vel)
        gain_max = 26.0  # largest gain in play
        h = min(1e-6, (1e-3 / (gain_max * 2.0)) ** (1.0 / p_min))
        crossings = [0.0]
        if config.is_bounded:
            crossings += [config.delta_p, -config.delta_p, config.delta_d, -config.delta_d]
        worst = 0.0
        ctrl = ft.ControllerState(theta_l=[0.05, 0.0], theta_r=[0.0, 0.0])
        for center in crossings:
            sweep = center + h * np.arange(-50, 51)
            prev = None
            for value in sweep:
                state_l = ft.RobotState(q=[value, 0.0], qdot=[value, 0.0])
                state_r = ft.RobotState(q=[0.0, 0.0], qdot=[0.0, 0.0])
                action = ft.control_action(config, params, params, state_l, state_r, ctrl)
                if prev is not None:
                    worst = max(worst, float(np.max(np.abs(action.tau_l - prev))))
                prev = action.tau_l
        assert worst < 1e-3


class TestShapedPotential:
    @pytest.mark.parametrize("variant", ["C1", "C2", "C3", "C4"])
    def test_gradient_reproduces_proportional_term(self, variant):
        # finite-difference gradient of the designed potential w.r.t. the
        # local position equals minus the proportional torque part
        params = _flat_params()
        config = _config(variant)
        rng = np.random.default_rng(2)
        h = 1e-7
        for _ in range(10):
            q_l, q_r = rng.normal(size=(2, 2)) * 0.8
            ctrl = ft.ControllerState(theta_l=q_l + rng.normal(size=2) * 0.3,
                                      theta_r=q_r + rng.normal(size=2) * 0.3)
            state_r = ft.RobotState(q=q_r, qdot=np.zeros(2))
            grad = np.empty(2)
            for j in range(2):
                e = np.eye(2)[j]
                up = ft.shaped_potential(config, ft.RobotState(q=q_l + h * e, qdot=np.zeros(2)),
                                         state_r, ctrl)
                dn = ft.shaped_potential(config, ft.RobotState(q=q_l - h * e, qdot=np.zeros(2)),
                                         state_r, ctrl)
                grad[j] = (up - dn) / (2 * h)
            state_l = ft.RobotState(q=q_l, qdot=np.zeros(2))
            action = ft.control_action(config, params, params, state_l, state_r, ctrl)
            np.testing.assert_allclose(action.tau_l, -grad, rtol=1e-6, atol=1e-6)

    def test_zero_only_at_consensus(self):
        config = _config("C1")
        q = np.array([0.5, -0.2])
        state_l, state_r = _rest_consensus(q)
        assert ft.shaped_potential(config, state_l, state_r) == 0.0
        state_off = ft.RobotState(q=q + 0.01, qdot=np.zeros(2))
        assert ft.shaped_potential(config, state_off, state_r) > 0.0


class TestDissipation:
    @pytest.mark.parametrize("variant", ["C1", "C2", "C3", "C4"])
    def test_never_positive(self, variant):
        config = _config(variant)
        rng = np.random.default_rng(3)
        for _ in range(50):
            state_l = ft.RobotState(q=rng.normal(size=2), qdot=rng.normal(size=2) * 3)
            state_r = ft.RobotState(q=rng.normal(size=2), qdot=rng.normal(size=2) * 3)
            ctrl = ft.ControllerState(theta_l=rng.normal(size=2), theta_r=rng.normal(size=2))
            assert ft.dissipation_rate(config, state_l, state_r, ctrl) <= 0.0

    def test_c1_closed_form(self):
        config = _config("C1")
        state_l = ft.RobotState(q=np.zeros(2), qdot=[2.0, -1.0])
        state_r = ft.RobotState(q=np.zeros(2), qdot=[0.5, 0.0])
        expected = -8.0 * (2.0**1.5 + 1.0**1.5 + 0.5**1.5)
        assert ft.dissipation_rate(config, state_l, state_r) == pytest.approx(expected, rel=1e-12)


class TestMixedStack:
    """One stack of C1-C4 gives each member what its own stack gives."""

    VARIANTS = ("C1", "C2", "C3", "C4")

    def _states(self, rng, size):
        q, qdot, theta = (rng.normal(size=(size, 2, 2)) for _ in range(3))
        return q, qdot, theta

    def test_kernels_match_each_member_alone(self):
        configs = [_config(v) for v in self.VARIANTS]
        law = controllers.stack_laws(configs)
        assert law.virtual
        np.testing.assert_array_equal(law.virtual_mask.ravel(), [False, True, False, True])
        q, qdot, theta = self._states(np.random.default_rng(5), len(configs))
        tau, theta_dot = controllers.control_law(law, q, qdot, theta, q[:, ::-1])
        potential = controllers.law_potential(law, q, theta)
        dissipation = controllers.law_dissipation(law, q, qdot, theta)
        for b, config in enumerate(configs):
            alone = controllers.stack_laws([config])
            one = slice(b, b + 1)
            th = theta[one] if config.has_virtual_state else None
            tau_b, theta_dot_b = controllers.control_law(alone, q[one], qdot[one], th,
                                                q[one, ::-1])
            np.testing.assert_array_equal(tau[one], tau_b)
            assert controllers.law_potential(alone, q[one], th) == potential[b]
            assert controllers.law_dissipation(alone, q[one], qdot[one], th) == dissipation[b]
            if config.has_virtual_state:
                np.testing.assert_array_equal(theta_dot[one], theta_dot_b)
            else:
                assert theta_dot_b is None
                np.testing.assert_array_equal(theta_dot[one], np.zeros((1, 2, 2)))

    @pytest.mark.parametrize("variants", [("C1", "C3"), ("C2", "C4")])
    def test_one_damping_source_keeps_one_mask_value(self, variants):
        law = controllers.stack_laws([_config(v) for v in variants])
        virtual = variants[0] == "C2"
        np.testing.assert_array_equal(law.virtual_mask.ravel(), [virtual, virtual])
        assert law.virtual == virtual

    def test_joint_counts_must_match(self):
        with pytest.raises(ValueError, match="joint count"):
            controllers.stack_laws([_config("C1"), _config("C2", n=3)])


def _member(configs, get):
    """A per-config value as one full (B, 2, n) array."""
    return np.array([np.broadcast_to(np.asarray(get(c), float), (2, c.n)) for c in configs])


def _reference_law(configs, q, qdot, theta, q_seen, unbounded=False):
    """The stacked law channel by channel, as the kernels evaluated it before
    one pass over all channels: saturation levels are inf for the unbounded
    members (and for all with ``unbounded``), and the C1/C3 members of a
    stack that holds theta damp through -qdot with the unsigned gain."""
    def member(get):
        return _member(configs, get)

    def level(get):
        return member(lambda c: get(c) if c.is_bounded and not unbounded else np.inf)

    mask = np.array([c.has_virtual_state for c in configs])[:, None, None]
    k_s = np.array([c.k_s for c in configs])[:, None, :]
    damping = member(lambda c: c.k_c if c.has_virtual_state else c.d_s)
    p_damp = member(lambda c: c.p_pos if c.has_virtual_state else c.p_vel)
    delta_d = level(lambda c: c.delta_d)
    prop = k_s * channel(q - q_seen, member(lambda c: c.p_pos), level(lambda c: c.delta_p))
    if not mask.any():
        return -prop - damping * channel(qdot, p_damp, delta_d), None
    theta_err = theta - q
    tau = -prop + damping * channel(np.where(mask, theta_err, -qdot), p_damp, delta_d)
    speed = member(lambda c: (c.k_c / c.d_c) ** (1.0 / c.p_vel) if c.has_virtual_state
                   else 0.0)
    rate = -speed * channel(theta_err, member(lambda c: c.weights.theta_exponent), delta_d)
    return tau, rate


def _reference_energy(configs, q, qdot, theta):
    """law_potential and law_dissipation from the config gains, as they were
    evaluated before the energy terms read the law's channel slots: the C2/C4
    decay is d_c |theta_dot|^(p_vel + 1), the C1/C3 one d_s qdot ch(qdot)."""
    mask = np.array([c.has_virtual_state for c in configs])[:, None, None]
    delta_p, delta_d = (_member(configs, lambda c: getattr(c, name) if c.is_bounded else np.inf)
                        for name in ("delta_p", "delta_d"))
    p_pos, p_vel = _member(configs, lambda c: c.p_pos), _member(configs, lambda c: c.p_vel)
    k_s = np.array([c.k_s for c in configs])[:, None, :]
    err = q[..., :1, :] - q[..., 1:, :]
    potential = np.sum(k_s * channel_integral(err, p_pos[:, :1], delta_p[:, :1]), axis=(-2, -1))
    damping = _member(configs, lambda c: c.k_c if c.has_virtual_state else c.d_s)
    power = damping * qdot * channel(qdot, p_vel, delta_d)
    if mask.any():
        virtual = damping * channel_integral(theta - q, p_pos, delta_d)
        potential = potential + np.sum(np.where(mask, virtual, 0.0), axis=(-2, -1))
        _, theta_dot = _reference_law(configs, q, qdot, theta, q[..., ::-1, :])
        d_c = _member(configs, lambda c: c.d_c if c.has_virtual_state else 0.0)
        power = np.where(mask, d_c * np.abs(theta_dot) ** (p_vel + 1.0), power)
    return potential, -np.sum(power, axis=(-2, -1))


def _reference_bounds(config, budget):
    """state_bounds_from_energy's error and theta caps from the config gains,
    as they were computed before the bounds read the law's channel slots."""
    p = config.p_pos

    def invert(gains, delta):
        per_joint = ((p + 1.0) * budget / gains) ** (1.0 / (p + 1.0))
        if delta is not None:
            per_joint = np.maximum(
                per_joint, (budget / gains + p / (p + 1.0) * delta ** (p + 1.0)) / delta**p)
        return float(np.linalg.norm(per_joint))

    theta = (tuple(invert(config.k_c[side], config.delta_d) for side in (LOCAL, REMOTE))
             if config.has_virtual_state else None)
    return invert(config.k_s, config.delta_p), theta


class TestFusedLaw:
    """control_law equals the per-channel reference bit for bit."""

    STACKS = [("C1",), ("C2",), ("C3",), ("C4",), ("C1", "C3"), ("C2", "C4"),
              ("C1", "C2", "C3", "C4"), ("C4", "C1", "C1", "C3", "C2")]

    @staticmethod
    def _configs(variants, n):
        rng = np.random.default_rng(n)
        return [_config(v, n=n, k_s=rng.uniform(1, 9, n),
                        **({"d_s": rng.uniform(0, 9, (2, n))} if v in ("C1", "C3") else
                           {"k_c": rng.uniform(5, 30, (2, n)), "d_c": rng.uniform(1, 9, (2, n))}))
                for v in variants]

    @staticmethod
    def _states(rng, size, n):
        # wide enough to cross every saturation level, with exact zeros
        q, qdot, theta, seen = (rng.normal(scale=1.5, size=(size, 2, n)) for _ in range(4))
        qdot[0, 0] = 0.0
        theta[-1] = q[-1]
        return q, qdot, theta, seen

    def _check(self, law, configs, q, qdot, theta, q_seen, unbounded=False):
        theta = theta if law.virtual else None
        tau, rate = controllers.control_law(law, q, qdot, theta, q_seen)
        ref_tau, ref_rate = _reference_law(configs, q, qdot, theta, q_seen, unbounded)
        assert np.array_equal(tau, ref_tau)
        if ref_rate is None:
            assert rate is None
        else:
            assert np.array_equal(rate, ref_rate)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("variants", STACKS, ids="-".join)
    def test_mixed_stacks(self, variants, n):
        configs = self._configs(variants, n)
        law = controllers.stack_laws(configs)
        assert (law.levels is None) == (not any(c.is_bounded for c in configs))
        assert law.gains.shape == law.exponents.shape == (2 + law.virtual, len(configs), 2, n)
        q, qdot, theta, _ = self._states(np.random.default_rng([n, 3]), len(configs), n)
        self._check(law, configs, q, qdot, theta, q[:, ::-1])

    @pytest.mark.parametrize("variants", STACKS, ids="-".join)
    def test_delayed_position(self, variants):
        configs = self._configs(variants, 2)
        q, qdot, theta, seen = self._states(np.random.default_rng(7), len(configs), 2)
        self._check(controllers.stack_laws(configs), configs, q, qdot, theta, seen)

    @pytest.mark.parametrize("unbounded", [False, True], ids=["law", "core"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_law_broadcast_over_states(self, variant, unbounded):
        # the audit's case: one member's law on N states; its core drops the levels
        configs = self._configs((variant,), 2)
        law = controllers.stack_laws(configs)
        if unbounded:
            law = law._replace(levels=None)
        q, qdot, theta, _ = self._states(np.random.default_rng(11), 257, 2)
        self._check(law, configs, q, qdot, theta, q[:, ::-1], unbounded)


class TestEnergyTerms:
    """The energy terms read the law's channel slots and give what the
    config formulas give: the potential and the C1/C3 decay bit for bit, the
    C2/C4 decay (the damping channel's power on theta_dot) to rounding."""

    @staticmethod
    def _states(rng, size, n):
        # 64 states per member, wide enough to cross every saturation level,
        # with exact zeros in qdot, in the error and in theta - q
        q, qdot, theta = (rng.normal(scale=1.5, size=(64, size, 2, n)) for _ in range(3))
        qdot[0] = 0.0
        q[1, :, 1] = q[1, :, 0]
        theta[2] = q[2]
        return q, qdot, theta

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("variants", TestFusedLaw.STACKS, ids="-".join)
    def test_match_the_config_formulas(self, variants, n):
        configs = TestFusedLaw._configs(variants, n)
        law = controllers.stack_laws(configs)
        q, qdot, theta = self._states(np.random.default_rng([n, 13]), len(configs), n)
        theta = theta if law.virtual else None
        ref_potential, ref_dissipation = _reference_energy(configs, q, qdot, theta)
        assert np.array_equal(controllers.law_potential(law, q, theta), ref_potential)
        dissipation = controllers.law_dissipation(law, q, qdot, theta)
        virtual = law.virtual_mask.ravel()
        assert np.array_equal(dissipation[:, ~virtual], ref_dissipation[:, ~virtual])
        np.testing.assert_allclose(dissipation[:, virtual], ref_dissipation[:, virtual],
                                   rtol=1e-13, atol=0.0)
        assert np.array_equal(np.sign(dissipation), np.sign(ref_dissipation))
        assert np.all(dissipation <= 0.0)

    @pytest.mark.parametrize("budget", [0.0, 1e-3, 0.7, 50.0])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_state_bounds_match_the_config_formula(self, variant, budget):
        config = _config(variant, k_s=[6.0, 2.5], **(
            {"d_s": [[8.0, 3.0], [1.0, 2.0]]} if variant in ("C1", "C3") else
            {"k_c": [[20.0, 11.0], [7.0, 30.0]], "d_c": [[8.0, 2.0], [5.0, 1.0]]}))
        bounds = ft.state_bounds_from_energy(config, _flat_params(), _flat_params(), budget)
        err_norm, theta_err_norm = _reference_bounds(config, budget)
        np.testing.assert_array_max_ulp(bounds["err_norm"], err_norm, maxulp=2)
        if theta_err_norm is None:
            assert bounds["theta_err_norm"] is None
        else:
            np.testing.assert_array_max_ulp(np.array(bounds["theta_err_norm"]),
                                            np.array(theta_err_norm), maxulp=2)


class TestSaturationGate:
    def _params_with_limits(self, limits):
        return ft.RobotParams(**BENCHMARK, gravity=0.0, torque_limits=limits)

    def test_unit_levels_budget(self):
        # with unit levels both budget readings coincide: k_s + d_s
        params = self._params_with_limits([8.0, 8.0])
        config = ft.ControllerConfig.build(variant="C3", n=2, weights=(1.5, 1.0),
                                           k_s=6.0, d_s=1.0, delta_p=1.0, delta_d=1.0)
        report = ft.validate_saturation(config, params, params)
        assert report.ok
        np.testing.assert_allclose(report.literal_budget, report.implemented_budget)
        np.testing.assert_allclose(report.literal_budget[0], [7.0, 7.0])

        config_hot = ft.ControllerConfig.build(variant="C3", n=2, weights=(1.5, 1.0),
                                               k_s=6.0, d_s=3.0, delta_p=1.0, delta_d=1.0)
        report_hot = ft.validate_saturation(config_hot, params, params)
        assert not report_hot.ok  # 9 >= 8

    def test_unlimited_passes_trivially(self, benchmark_params_flat):
        config = ft.ControllerConfig.build(variant="C3", n=2, weights=(1.5, 1.0),
                                           k_s=6.0, d_s=8.0, delta_p=0.2, delta_d=0.5)
        report = ft.validate_saturation(config, benchmark_params_flat, benchmark_params_flat)
        assert report.unlimited
        assert report.ok
        assert np.all(np.isinf(report.margin))

    def test_both_budget_readings_reported(self):
        # sub-unit levels: the implemented caps delta^p exceed the raw deltas
        params = self._params_with_limits([12.0, 12.0])
        config = ft.ControllerConfig.build(variant="C3", n=2, weights=(1.5, 1.0),
                                           k_s=6.0, d_s=8.0, delta_p=0.2, delta_d=0.5)
        report = ft.validate_saturation(config, params, params)
        lit = 6.0 * 0.2 + 8.0 * 0.5
        imp = 6.0 * 0.2 ** (1.0 / 3.0) + 8.0 * 0.5**0.5
        np.testing.assert_allclose(report.literal_budget[0], [lit, lit], rtol=1e-12)
        np.testing.assert_allclose(report.implemented_budget[0], [imp, imp], rtol=1e-12)
        assert report.ok  # conservative reading 9.17 < 12
        assert "pass" in report.describe()

    def test_c4_uses_virtual_gain(self):
        params = self._params_with_limits([30.0, 30.0])
        config = ft.ControllerConfig.build(variant="C4", n=2, weights=(1.5, 1.0),
                                           k_s=6.0, k_c=20.0, d_c=4.0,
                                           delta_p=0.3, delta_d=0.5)
        report = ft.validate_saturation(config, params, params)
        imp = 6.0 * 0.3 ** (1.0 / 3.0) + 20.0 * 0.5 ** (1.0 / 3.0)
        np.testing.assert_allclose(report.implemented_budget[0], [imp, imp], rtol=1e-12)
        assert report.ok

    def test_rejects_unbounded_variant(self, benchmark_params):
        with pytest.raises(ValueError):
            ft.validate_saturation(_config("C1"), benchmark_params, benchmark_params)


class TestConfigValidation:
    def test_c1_requires_damping(self):
        with pytest.raises(ValueError, match="d_s"):
            ft.ControllerConfig.build(variant="C1", n=2, weights=(1.5, 1.0), k_s=6.0)

    def test_c2_requires_virtual_gains(self):
        with pytest.raises(ValueError, match="k_c"):
            ft.ControllerConfig.build(variant="C2", n=2, weights=(1.5, 1.0), k_s=6.0)

    def test_zero_virtual_damping_rejected(self):
        with pytest.raises(ValueError, match="d_c"):
            ft.ControllerConfig.build(variant="C2", n=2, weights=(1.5, 1.0),
                                      k_s=6.0, k_c=1.0, d_c=0.0)

    @pytest.mark.parametrize("variant", ["C2", "C4"])
    @pytest.mark.parametrize("gains", [dict(k_c=1e308, d_c=8.0), dict(k_c=20.0, d_c=1e-308)],
                             ids=["huge-k_c", "tiny-d_c"])
    def test_theta_gain_beyond_the_float_range_rejected(self, variant, gains):
        # finite gains whose theta gain overflows: named, and no numpy warning
        levels = dict(delta_p=0.3, delta_d=0.008) if variant == "C4" else {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^\(k_c / d_c\)\^\(1/p_vel\) must be finite$"):
                ft.ControllerConfig.build(variant=variant, n=2, weights=(1.5, 1.0), k_s=6.0,
                                          **gains, **levels)

    def test_bounded_requires_levels(self):
        with pytest.raises(ValueError, match="delta"):
            ft.ControllerConfig.build(variant="C3", n=2, weights=(1.5, 1.0),
                                      k_s=6.0, d_s=8.0)

    @pytest.mark.parametrize("variant", ["C1", "C2"])
    @pytest.mark.parametrize("levels", [dict(delta_p=0.2, delta_d=0.5), dict(delta_p=0.2),
                                        dict(delta_d=0.5)], ids=["both", "delta_p", "delta_d"])
    def test_unbounded_rejects_levels(self, variant, levels):
        # the unbounded laws would ignore them
        with pytest.raises(ValueError, match=r"^delta_p and delta_d apply to C3/C4 only$"):
            _config(variant, **levels)
        with pytest.raises(ValueError, match=r"^delta_p and delta_d apply to C3/C4 only$"):
            replace(_config(variant), **levels)

    @pytest.mark.parametrize("variant, gains, problem", [
        ("C2", dict(d_s=8.0), "d_s applies to C1/C3 only"),
        ("C4", dict(d_s=8.0), "d_s applies to C1/C3 only"),
        ("C1", dict(k_c=20.0), "k_c and d_c apply to C2/C4 only"),
        ("C1", dict(d_c=8.0), "k_c and d_c apply to C2/C4 only"),
        ("C3", dict(k_c=20.0, d_c=8.0), "k_c and d_c apply to C2/C4 only"),
    ], ids=["C2-d_s", "C4-d_s", "C1-k_c", "C1-d_c", "C3-both"])
    def test_variant_rejects_gains_it_does_not_read(self, variant, gains, problem):
        # the law would ignore them, and dump_scenario would write them back
        with pytest.raises(ValueError, match=f"^{problem}$"):
            _config(variant, **gains)
        with pytest.raises(ValueError, match=f"^{problem}$"):
            replace(_config(variant), **gains)

    def test_per_robot_gains(self):
        config = ft.ControllerConfig.build(
            variant="C1", n=2, weights=(1.5, 1.0), k_s=[6.0, 5.0],
            d_s=np.array([[8.0, 8.0], [2.0, 3.0]]))
        np.testing.assert_array_equal(config.d_s[LOCAL], [8.0, 8.0])
        np.testing.assert_array_equal(config.d_s[REMOTE], [2.0, 3.0])
        np.testing.assert_array_equal(config.k_s, [6.0, 5.0])

    @pytest.mark.parametrize("n", [2.5, True, 0, -1, "2", None],
                             ids=["float", "bool", "zero", "negative", "str", "none"])
    def test_joint_count_must_be_a_positive_integer(self, n):
        with pytest.raises(ValueError, match=r"^n must be a positive integer, got "):
            ft.ControllerConfig.build(variant="C1", n=n, weights=(1.5, 1.0), k_s=6.0, d_s=8.0)

    def test_numpy_integer_joint_count(self):
        config = ft.ControllerConfig.build(variant="C1", n=np.int64(3), weights=(1.5, 1.0),
                                           k_s=6.0, d_s=8.0)
        assert config.n == 3 and type(config.n) is int
        assert config.k_s.shape == (3,)

    def test_constructor_takes_a_weight_pair_like_build(self):
        config = ft.ControllerConfig("C1", (1.5, 1.0), 2, 6.0, 8.0)
        assert config.weights == ft.Weights(1.5, 1.0)
        assert config.p_pos == _config("C1").p_pos
        assert replace(config, weights=[1.2, 1.0]).weights == ft.Weights(1.2, 1.0)

    @pytest.mark.parametrize("weights", [1.5, (1.5, 1.0, 0.5), None],
                             ids=["scalar", "triple", "none"])
    def test_weights_that_are_not_a_pair(self, weights):
        with pytest.raises(ValueError, match=r"^weights must be a Weights or an \(r1, r2\) pair"):
            ft.ControllerConfig("C1", weights, 2, 6.0, 8.0)

    @pytest.mark.parametrize("variant", ["C3", "C4"])
    @pytest.mark.parametrize("levels", [dict(delta_p=np.inf), dict(delta_d=np.inf),
                                        dict(delta_p=np.nan), dict(delta_d=0.0)],
                             ids=["inf-delta_p", "inf-delta_d", "nan-delta_p", "zero-delta_d"])
    def test_saturation_levels_positive_and_finite(self, variant, levels):
        with pytest.raises(ValueError, match=r"^saturation levels must be positive and finite$"):
            _config(variant, **levels)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            ft.ControllerConfig.build(variant="C9", n=2, weights=(1.5, 1.0), k_s=1.0)

    @pytest.mark.parametrize("gains", [
        dict(k_s=np.array([-6.0, 6.0])),
        dict(k_s=np.array([6.0, 6.0, 6.0])),
        dict(d_s=np.array([[8.0, np.nan], [8.0, 8.0]])),
    ], ids=["negative-k_s", "three-entry-k_s", "nan-d_s"])
    def test_replace_checks_gains_like_build(self, gains):
        with pytest.raises(ValueError) as from_build:
            ft.ControllerConfig.build(**{**dict(variant="C1", n=2, weights=(1.5, 1.0),
                                                k_s=6.0, d_s=8.0), **gains})
        with pytest.raises(ValueError) as from_replace:
            replace(_config("C1"), **gains)
        assert str(from_replace.value) == str(from_build.value)

    @pytest.mark.parametrize("name, value, message", [
        ("k_s", -6.0, "k_s must be positive"),
        ("k_s", np.nan, "k_s must be finite"),
        ("k_s", [6.0, 6.0, 6.0], "k_s: cannot interpret shape (3,) for 2 joints"),
        ("d_s", -1.0, "d_s must be nonnegative"),
        ("d_s", [np.inf, 8.0], "d_s must be finite"),
        ("d_s", np.ones((3, 2)), "d_s: cannot interpret shape (3, 2) for 2 joints"),
    ])
    def test_every_gain_is_checked_with_one_wording(self, name, value, message):
        with pytest.raises(ValueError) as info:
            replace(_config("C1"), **{name: value})
        assert str(info.value) == message

    @pytest.mark.parametrize("name, value, expected", [
        ("k_s", 6.0, [6.0, 6.0]),
        ("k_s", [5.0], [5.0, 5.0]),
        ("d_s", [8.0, 7.0], [[8.0, 7.0], [8.0, 7.0]]),
        ("d_s", [[8.0], [2.0]], [[8.0, 8.0], [2.0, 2.0]]),
    ])
    def test_gain_specs_broadcast_to_the_joints(self, name, value, expected):
        np.testing.assert_array_equal(getattr(replace(_config("C1"), **{name: value}), name),
                                      expected)
