"""Tests for the dilation-degree check and the vanishing sweep."""

from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest

import ftteleop as ft
from ftteleop import closed_loop_sim, controllers, homogeneity_audit, robot_dynamics
from ftteleop.cli import run_command
from ftteleop.homogeneity_audit import HomogeneitySpec, sphere_points

from conftest import BENCHMARK

Q_C = np.array([1.15, -0.05])


def _params():
    return ft.RobotParams(**BENCHMARK)


def _config(variant, weights=(1.5, 1.0)):
    base = dict(variant=variant, n=2, weights=weights, k_s=6.0)
    if variant in ("C1", "C3"):
        base["d_s"] = 8.0
    else:
        base["k_c"] = 20.0
        base["d_c"] = 4.0
    if variant in ("C3", "C4"):
        base["delta_p"] = 0.2
        base["delta_d"] = 0.5
    return ft.ControllerConfig.build(**base)


class TestSpherePoints:
    def test_unit_norm(self):
        pts = sphere_points(8, 64, seed=3)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=1e-12)

    def test_deterministic(self):
        np.testing.assert_array_equal(sphere_points(8, 64, seed=3),
                                      sphere_points(8, 64, seed=3))

    def test_seed_changes_points(self):
        assert not np.array_equal(sphere_points(8, 64, seed=3),
                                  sphere_points(8, 64, seed=4))


class TestSpec:
    def test_stacked_weights_layout(self):
        w = ft.stacked_weights(_config("C1"), 2)
        np.testing.assert_array_equal(w, [1.5, 1.5, 1.5, 1.5, 1.0, 1.0, 1.0, 1.0])
        w4 = ft.stacked_weights(_config("C4"), 2)
        assert w4.size == 12
        np.testing.assert_array_equal(w4[8:], [1.5] * 4)

    @pytest.mark.parametrize("n", [5, 1, 2.5, 2.0, True, None], ids=str)
    def test_stacked_weights_rejects_another_joint_count(self, n):
        # the layout is the controller's: a count other than config.n is named
        with pytest.raises(ValueError, match=rf"^n = {n!r} does not match the controller's "
                                             "joint count 2$"):
            ft.stacked_weights(_config("C1"), n)

    def test_for_config_rejects_another_joint_count(self):
        with pytest.raises(ValueError, match="n = 3 does not match the controller's joint"):
            HomogeneitySpec.for_config(_config("C4"), 3)

    def test_stacked_weights_accepts_a_numpy_integer(self):
        np.testing.assert_array_equal(ft.stacked_weights(_config("C1"), np.int64(2)),
                                      ft.stacked_weights(_config("C1"), 2))

    def test_for_config_negative_degree(self):
        spec = HomogeneitySpec.for_config(_config("C1"), 2)
        assert spec.degree == pytest.approx(-0.5)
        assert spec.weights.size == 8

    @pytest.mark.parametrize("variant", ["C1", "C2", "C3", "C4"])
    def test_for_config_takes_the_family_with_r2_one(self, variant):
        # (3, 2) runs the same loop as (1.5, 1.0): one dilation family per ratio
        spec = HomogeneitySpec.for_config(_config(variant), 2)
        scaled = HomogeneitySpec.for_config(_config(variant, (3.0, 2.0)), 2)
        np.testing.assert_array_equal(scaled.weights, spec.weights)
        assert scaled.degree == spec.degree == -0.5

    @pytest.mark.parametrize("changes, problem", [
        (dict(degree=np.nan), "degree must be finite"),
        (dict(degree=-np.inf), "degree must be finite"),
        (dict(weights=[1.0, np.nan, 1.0, 1.0]), "weights must be positive"),
        (dict(seed=-1), "seed must be a nonnegative integer"),
        (dict(seed=1.5), "seed must be a nonnegative integer"),
        (dict(seed=True), "seed must be a nonnegative integer"),
        (dict(weights=np.ones((2, 4))), "weights must be a nonempty 1-D array"),
        (dict(weights=[1.0, np.inf, 1.0, 1.0]), "weights must be positive and finite"),
    ])
    def test_rejects_bad_weights_degree_and_seed(self, changes, problem):
        with pytest.raises(ValueError, match=problem):
            HomogeneitySpec(**{"weights": np.ones(4), "degree": -0.5, **changes})

    def test_accepts_a_numpy_integer_seed(self):
        spec = HomogeneitySpec(weights=np.ones(3), degree=0.0, seed=np.int64(4))
        np.testing.assert_array_equal(ft.check_degree(lambda x: x, spec), 0.0)
        assert spec.seed == 4

    def test_one_sampling_plan(self):
        # 256 directions and 13 epsilons from 1 to 1e-3 for every audit; the
        # spec holds only the weights, the degree and the seed
        spec = HomogeneitySpec.for_config(_config("C2"), 2, seed=5)
        assert spec.samples == HomogeneitySpec.samples == 256
        np.testing.assert_array_equal(spec.eps_grid, np.geomspace(1.0, 1e-3, 13))
        assert not spec.eps_grid.flags.writeable
        assert [f.name for f in fields(HomogeneitySpec)] == ["weights", "degree", "seed"]

    @pytest.mark.parametrize("args, changes", [
        ((), dict(samples=64)),
        ((), dict(eps_grid=[1.0, 0.1])),
        ((64,), {}),
    ], ids=["samples", "eps_grid", "positional"])
    def test_sampling_plan_is_not_settable(self, args, changes):
        # an old positional sample count must not silently become the seed
        with pytest.raises(TypeError):
            HomogeneitySpec(np.ones(4), -0.5, *args, **changes)


class TestCheckDegree:
    def test_scalar_power_law(self):
        # |x|^(1/3) with weight 1.5 scales as eps^0.5 = eps^(degree + 1.5),
        # so its degree is -1
        spec = HomogeneitySpec(weights=np.array([1.5]), degree=-1.0)
        defect = ft.check_degree(lambda x: ft.signed_pow(x, 1.0 / 3.0), spec)
        assert defect < 1e-12

    @pytest.mark.parametrize("variant", ["C1", "C2", "C3", "C4"])
    def test_core_field_is_exactly_homogeneous(self, variant):
        params = _params()
        config = _config(variant)
        spec = HomogeneitySpec.for_config(config, 2)
        core = ft.homogeneous_field(config, params, params, Q_C)
        assert ft.check_degree(core, spec) <= 1e-9

    def test_full_field_is_not_homogeneous(self):
        params = _params()
        config = _config("C1")
        spec = HomogeneitySpec.for_config(config, 2)
        full = ft.full_field(config, params, params, Q_C)
        assert ft.check_degree(full, spec) > 0.1

    @pytest.mark.parametrize("variant", ["C1", "C2", "C3", "C4"])
    def test_core_vanishes_at_origin(self, variant):
        params = _params()
        config = _config(variant)
        dim = ft.stacked_weights(config, 2).size
        value = ft.homogeneous_field(config, params, params, Q_C)(np.zeros(dim))
        np.testing.assert_array_equal(value, np.zeros(dim))


class TestFieldComposition:
    def test_core_matches_hand_composition(self):
        # rebuild the frozen-inertia core directly from mass_matrix and
        # signed_pow at one random point
        params = _params()
        config = _config("C1")
        rng = np.random.default_rng(7)
        x = rng.normal(size=8)
        tq_l, tq_r, qd_l, qd_r = x[:2], x[2:4], x[4:6], x[6:8]
        inv = np.linalg.inv(ft.mass_matrix(params, Q_C))
        acc_l = -inv @ (6.0 * ft.signed_pow(tq_l - tq_r, 1.0 / 3.0)
                        + 8.0 * ft.signed_pow(qd_l, 0.5))
        acc_r = -inv @ (6.0 * ft.signed_pow(tq_r - tq_l, 1.0 / 3.0)
                        + 8.0 * ft.signed_pow(qd_r, 0.5))
        expected = np.concatenate([qd_l, qd_r, acc_l, acc_r])
        actual = ft.homogeneous_field(config, params, params, Q_C)(x)
        np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-14)

    def test_remainder_is_full_minus_core(self):
        params = _params()
        config = _config("C2")
        core = ft.homogeneous_field(config, params, params, Q_C)
        full = ft.full_field(config, params, params, Q_C)
        rng = np.random.default_rng(8)
        x = rng.normal(size=12) * 0.1
        remainder = full(x) - core(x)
        # both fields share one law call on the error coordinates, so the
        # position and virtual-state rows agree exactly
        np.testing.assert_array_equal(remainder[:4], np.zeros(4))
        np.testing.assert_array_equal(remainder[8:], np.zeros(4))
        assert np.linalg.norm(remainder) > 0.0

    @pytest.mark.parametrize("variant", ["C1", "C2", "C3", "C4"])
    def test_stack_matches_single_points(self, variant):
        # an (E, S, dim) stack gives the same values as each row alone, and
        # a 1-D point keeps its shape. Both fields run a stack of an audit's
        # size (13 epsilons x 256 samples): their stacked solve is
        # elementwise along the stack, so bit for bit
        params = _params()
        config = _config(variant)
        dim = ft.stacked_weights(config, 2).size
        rng = np.random.default_rng(10)
        shape = (13, 256)
        for make in (ft.homogeneous_field, ft.full_field):
            stack = rng.normal(size=shape + (dim,)) * 0.5
            field_fn = make(config, params, params, Q_C)
            values = field_fn(stack)
            assert values.shape == stack.shape
            for index in np.ndindex(shape):
                single = field_fn(stack[index])
                assert single.shape == (dim,)
                np.testing.assert_array_equal(values[index], single, err_msg=make.__name__)

    @pytest.mark.parametrize("shape", [(2, 16), (4, 6), (3, 7), ()],
                             ids=["wide", "narrow", "not-dividing", "scalar"])
    @pytest.mark.parametrize("make", ["homogeneous_field", "full_field"])
    def test_wrong_state_length_is_a_named_problem(self, make, shape):
        # the 8-dim C1 fields used to reshape any stack whose size divides by 8
        params, config = _params(), _config("C1")
        field_fn = getattr(ft, make)(config, params, params, Q_C)
        with pytest.raises(ValueError, match="states must have last-axis length 8"):
            field_fn(np.ones(shape))

    def test_check_degree_with_wrong_dimension_fails(self):
        params = _params()
        core = ft.homogeneous_field(_config("C1"), params, params, Q_C)
        with pytest.raises(ValueError, match=r"last-axis length 8, got shape \(256, 5\)"):
            ft.check_degree(core, HomogeneitySpec(weights=np.ones(5), degree=-0.5))

    def test_full_field_matches_simulation_rhs(self):
        # one Euler step of the simulator equals x + dt * f(x) in the
        # error coordinates
        params = _params()
        config = _config("C1")
        dt = 1e-4
        rng = np.random.default_rng(9)
        x = rng.normal(size=8) * 0.4
        full = ft.full_field(config, params, params, Q_C)
        state = ft.TeleopState(
            local=ft.RobotState(q=x[:2] + Q_C, qdot=x[4:6]),
            remote=ft.RobotState(q=x[2:4] + Q_C, qdot=x[6:8]))
        out = ft.step(state, config, params, params,
                      (ft.ForceProfile(), ft.ForceProfile()), dt)
        stepped = np.concatenate([out.local.q - Q_C, out.remote.q - Q_C,
                                  out.local.qdot, out.remote.qdot])
        np.testing.assert_allclose(stepped, x + dt * full(x), rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("variant", ["C1", "C2", "C3", "C4"])
    def test_full_field_evaluates_no_gravity(self, variant):
        # the laws return the torque net of gravity, which drives the solve
        assert not hasattr(homogeneity_audit, "gravity_kernel")
        params = _params()
        config = _config(variant)
        points = sphere_points(ft.stacked_weights(config, 2).size, 16)
        gravity = robot_dynamics.gravity_kernel
        with mock.patch.object(robot_dynamics, "gravity_kernel", wraps=gravity) as in_model, \
                mock.patch.object(controllers, "gravity_kernel", wraps=gravity) as in_laws, \
                mock.patch.object(closed_loop_sim, "gravity_kernel", wraps=gravity) as in_engine:
            values = ft.full_field(config, params, params, Q_C)(points)
        assert np.all(np.isfinite(values))
        assert in_model.call_count + in_laws.call_count + in_engine.call_count == 0


class TestConsensusPosition:
    # finite entries whose link angle q_1 + q_2 overflows are rejected before
    # any overflow warning
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("q_c", [[np.nan, 0.0], [np.inf, 0.0], [1.15, -0.05, 0.0],
                                     [1e308, 1e308]],
                             ids=["nan", "inf", "length", "angle-overflow"])
    @pytest.mark.parametrize("audit", ["homogeneous_field", "full_field", "vanishing_sweep"])
    def test_invalid_q_c_is_a_named_problem(self, audit, q_c):
        params, config = _params(), _config("C2")
        args = (config, params, params, np.array(q_c))
        if audit == "vanishing_sweep":
            args += (HomogeneitySpec.for_config(config, 2),)
        with pytest.raises(ValueError, match="^q_c must have n finite entries$"):
            getattr(ft, audit)(*args)


class TestVanishingSweep:
    @pytest.mark.parametrize("variant", ["C1", "C2", "C3", "C4"])
    def test_tail_monotone_and_shrinking(self, variant):
        params = _params()
        config = _config(variant)
        spec = HomogeneitySpec.for_config(config, 2)
        eps, devs = ft.vanishing_sweep(config, params, params, Q_C, spec)
        assert np.all(np.diff(devs[-4:]) <= 0.0)
        assert devs[-1] < devs[0]

    @pytest.mark.parametrize("weights", [(3.0, 2.0), (0.9, 0.6)], ids=str)
    @pytest.mark.parametrize("variant", ["C1", "C2", "C3", "C4"])
    def test_sweep_reads_the_weight_ratio_only(self, variant, weights):
        # pairs with the ratio 1.5 run one loop and get one audit: bit for bit
        # where the ratio and the normalised family are exact, as at (3, 2)
        params = _params()
        devs = []
        for pair in ((1.5, 1.0), weights):
            config = _config(variant, pair)
            spec = HomogeneitySpec.for_config(config, 2)
            devs.append(ft.vanishing_sweep(config, params, params, Q_C, spec)[1])
        if weights == (3.0, 2.0):
            np.testing.assert_array_equal(devs[1], devs[0])
        else:
            np.testing.assert_allclose(devs[1], devs[0], rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("name", ["c1_sim", "c2_sim"])
    def test_tail_falls_below_the_rounding_floor_of_absolute_positions(self, name):
        # at q_c2 = 0 the remainder decays as eps^(2 r1 / r2) = eps^3.8. A law
        # on absolute positions q_c + x cancelled digits against q_c, and its
        # tail rose at the finest epsilons (c2_sim: slope -0.37)
        cfg = ft.read_bundled_scenario(name)
        config = replace(cfg.config, weights=(1.9, 1.0))
        spec = HomogeneitySpec.for_config(config, 2)
        eps, devs = ft.vanishing_sweep(config, cfg.params_l, cfg.params_r,
                                       np.array([1.15, 0.0]), spec)
        assert np.all(np.diff(devs[-4:]) <= 0.0)
        assert ft.fitted_decay_slope(eps, devs) == pytest.approx(3.8, abs=0.05)

    @pytest.mark.parametrize("weights", [(0.9, 0.6), (3.0, 2.0)], ids=str)
    @pytest.mark.parametrize("name", ["c1_sim", "c4_sim"])
    def test_cli_audit_passes_at_any_weight_scale(self, tmp_path, capsys, name, weights):
        cfg = ft.read_bundled_scenario(name)
        cfg = replace(cfg, config=replace(cfg.config, weights=weights))
        path = tmp_path / f"{name}.cfg"
        path.write_text(ft.dump_scenario(cfg))
        code = run_command(["audit", str(path), "--dt", "1e-3", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "FAIL" not in out

    def test_c1_decay_rate_matches_position_weight(self):
        # the remainder is dominated by terms scaling with eps^r1 = eps^1.5
        params = _params()
        config = _config("C1")
        spec = HomogeneitySpec.for_config(config, 2)
        eps, devs = ft.vanishing_sweep(config, params, params, Q_C, spec)
        slope = ft.fitted_decay_slope(eps, devs)
        assert slope == pytest.approx(1.5, abs=0.15)

    def test_bounded_variant_coincides_with_unbounded_near_origin(self):
        # once the dilation pulls every coordinate inside the saturation
        # levels, the bounded laws equal the unbounded ones exactly
        params = _params()
        cfg_plain = _config("C1")
        cfg_sat = _config("C3")
        spec = HomogeneitySpec.for_config(cfg_plain, 2)
        _, devs_plain = ft.vanishing_sweep(cfg_plain, params, params, Q_C, spec)
        _, devs_sat = ft.vanishing_sweep(cfg_sat, params, params, Q_C, spec)
        np.testing.assert_array_equal(devs_plain[-4:], devs_sat[-4:])
        assert not np.array_equal(devs_plain[0], devs_sat[0])

    # at k_s = 1e307 the field values overflow (the full field for C1/C2, the
    # unsaturated core for C3/C4); at 1e300 every value is finite, about
    # 2.4e301, but the norm of the deviation overflows: the sweep names both
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("k_s", [1e307, 1e300], ids=str)
    @pytest.mark.parametrize("name", ["c1_sim", "c2_sim", "c3_sim", "c4_sim"])
    def test_overflowing_sweep_is_named(self, name, k_s):
        cfg = ft.read_bundled_scenario(name)
        config = replace(cfg.config, k_s=k_s)
        spec = HomogeneitySpec.for_config(config, 2)
        with pytest.raises(FloatingPointError, match=r"^sweep deviation non-finite at eps=1\.0$"):
            ft.vanishing_sweep(config, cfg.params_l, cfg.params_r, Q_C, spec)

    def test_slope_helper_on_synthetic_power_law(self):
        eps = np.geomspace(1.0, 1e-3, 13)
        devs = 3.0 * eps**1.7
        assert ft.fitted_decay_slope(eps, devs) == pytest.approx(1.7, rel=1e-9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [0.0, -1e-6, np.nan, np.inf],
                             ids=["zero", "negative", "nan", "inf"])
    def test_slope_helper_rejects_bad_deviations(self, bad):
        eps = np.geomspace(1.0, 1e-3, 13)
        devs = 3.0 * eps**1.7
        devs[-2] = bad
        with pytest.raises(ValueError, match="^deviations must be positive and finite$"):
            ft.fitted_decay_slope(eps, devs)
