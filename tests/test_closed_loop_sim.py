"""Integration-loop tests: stepping, traces, monitors and ledgers."""

import contextlib
import itertools
import re
import tracemalloc
import warnings
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest

import ftteleop as ft
from ftteleop import closed_loop_sim
from ftteleop.controllers import control_law, stack_laws
from ftteleop.robot_dynamics import _solve1, acceleration_kernel, link_angles, stack_arm_arrays

from conftest import BENCHMARK, random_chain


def _config(variant, n=2):
    if variant in ("C1", "C3"):
        gains = dict(d_s=8.0)
    else:
        gains = dict(k_c=20.0, d_c=8.0)
    if variant in ("C3", "C4"):
        gains.update(delta_p=0.2, delta_d=0.5)
    return ft.ControllerConfig.build(variant=variant, n=n, weights=(1.5, 1.0), k_s=6.0,
                                     **gains)


def _scenario(variant="C1", horizon=0.5, dt=1e-3, gravity=9.81, **kwargs):
    params = ft.RobotParams(**BENCHMARK, gravity=gravity)
    config = _config(variant)
    base = dict(
        params_l=params, params_r=params, config=config,
        q0_l=np.array([1.0, -0.4]), q0_r=np.array([1.3, 0.3]),
        horizon=horizon, dt=dt, decimation=max(dt, 1e-2), label="test",
    )
    base.update(kwargs)
    return ft.Scenario(**base)


class TestStep:
    @staticmethod
    def _engine_acceleration(params, config, state):
        """Accelerations (2, n) in the engine's order: the net torque of the
        stacked law on the (1, 2, n) state, then the link-coordinate solve.
        Each side agrees with forward_dynamics on its applied torque."""
        q = np.array([[state.local.q, state.remote.q]], dtype=float)
        qdot = np.array([[state.local.qdot, state.remote.qdot]], dtype=float)
        tau, _ = control_law(stack_laws([config]), q, qdot, None, q[:, ::-1])
        acc = acceleration_kernel(stack_arm_arrays([(params, params)]), link_angles(q),
                                  link_angles(qdot), tau, _solve1)[0]
        action = ft.control_action(config, params, params, state.local, state.remote)
        for side, robot, applied in ((0, state.local, action.tau_l),
                                     (1, state.remote, action.tau_r)):
            np.testing.assert_allclose(acc[side], ft.forward_dynamics(params, robot, applied),
                                       rtol=1e-12)
        return acc

    def test_consensus_rest_is_fixed_point(self):
        # exact: at rest the net torque is 0, so the solve returns 0 to the bit
        profiles = (ft.ForceProfile(), ft.ForceProfile())
        for variant, n in itertools.product(("C1", "C2", "C3", "C4"), (1, 2, 4)):
            rng = np.random.default_rng([n, 11])
            params = ft.RobotParams(**random_chain(rng, n))
            config = _config(variant, n)
            for q in rng.uniform(-np.pi, np.pi, (5, n)):
                rest = ft.RobotState(q=q, qdot=np.zeros(n))
                ctrl = (ft.ControllerState(theta_l=q, theta_r=q)
                        if config.has_virtual_state else None)
                out = ft.step(ft.TeleopState(local=rest, remote=rest, ctrl=ctrl), config,
                              params, params, profiles, 1e-3)
                case = f"{variant}, n={n}, q={q}"
                for side in (out.local, out.remote):
                    np.testing.assert_array_equal(side.q, q, err_msg=case)
                    np.testing.assert_array_equal(side.qdot, np.zeros(n), err_msg=case)
                if ctrl is not None:
                    np.testing.assert_array_equal(out.ctrl.theta_l, q, err_msg=case)
                    np.testing.assert_array_equal(out.ctrl.theta_r, q, err_msg=case)
                assert out.time == pytest.approx(1e-3)

    def test_euler_velocity_update_exact(self, benchmark_params, c1_config):
        # from rest, one step changes velocity by acceleration * dt exactly
        dt = 1e-3
        state = ft.TeleopState(
            local=ft.RobotState(q=[1.0, -0.4], qdot=np.zeros(2)),
            remote=ft.RobotState(q=[1.3, 0.3], qdot=np.zeros(2)))
        profiles = (ft.ForceProfile(), ft.ForceProfile())
        acc_l, acc_r = self._engine_acceleration(benchmark_params, c1_config, state)
        out = ft.step(state, c1_config, benchmark_params, benchmark_params, profiles, dt)
        np.testing.assert_array_equal(out.local.qdot, dt * acc_l)
        np.testing.assert_array_equal(out.remote.qdot, dt * acc_r)
        np.testing.assert_array_equal(out.local.q, state.local.q)  # rest: q unchanged

    def test_matches_hand_rolled_reference_step(self, benchmark_params, c1_config):
        # one benchmark step composed manually from the module operations
        dt = 1e-4
        state = ft.TeleopState(
            local=ft.RobotState(q=[1.0, -0.4], qdot=[0.1, -0.2]),
            remote=ft.RobotState(q=[1.3, 0.3], qdot=[0.0, 0.3]))
        acc_l, acc_r = self._engine_acceleration(benchmark_params, c1_config, state)
        profiles = (ft.ForceProfile(), ft.ForceProfile())
        out = ft.step(state, c1_config, benchmark_params, benchmark_params, profiles, dt)
        np.testing.assert_array_equal(out.local.q, state.local.q + dt * np.array([0.1, -0.2]))
        np.testing.assert_array_equal(out.local.qdot, state.local.qdot + dt * acc_l)
        np.testing.assert_array_equal(out.remote.qdot, state.remote.qdot + dt * acc_r)

    def test_rejects_bad_dt(self, benchmark_params, c1_config):
        state = ft.TeleopState(
            local=ft.RobotState(q=np.zeros(2), qdot=np.zeros(2)),
            remote=ft.RobotState(q=np.zeros(2), qdot=np.zeros(2)))
        with pytest.raises(ValueError):
            ft.step(state, c1_config, benchmark_params, benchmark_params,
                    (ft.ForceProfile(), ft.ForceProfile()), 0.0)

    @pytest.mark.parametrize("integrator, dt", [("euler", None), ("rk4", 5e-4)])
    @pytest.mark.parametrize("name", ["c1_sim", "c2_sim", "c3_sim", "c4_sim", "c1_spring",
                                      "c4_pulse"])
    def test_equals_the_first_step_of_run(self, name, integrator, dt):
        # the single-state adapter is the engine's one-member case, to the bit
        s = ft.read_bundled_scenario(name.replace("_pulse", "_sim"))
        if name == "c4_pulse":   # the pulse acts from the first step on
            s = replace(s, profile_r=replace(s.profile_r, start=0.0, stop=0.01))
        dt = s.dt if dt is None else dt
        trace = ft.run(replace(s, integrator=integrator, dt=dt, decimation=dt, horizon=dt))
        advance = ft.rk4_step if integrator == "rk4" else ft.step
        out = advance(s.initial_state(), s.config, s.params_l, s.params_r,
                      (s.profile_l, s.profile_r), dt)
        assert out.time == dt
        for got, recorded in ((out.local.q, trace.q_l), (out.remote.q, trace.q_r),
                              (out.local.qdot, trace.qd_l), (out.remote.qdot, trace.qd_r)):
            np.testing.assert_array_equal(got, recorded[1])
        if s.config.has_virtual_state:
            np.testing.assert_array_equal(out.ctrl.theta_l, trace.th_l[1])
            np.testing.assert_array_equal(out.ctrl.theta_r, trace.th_r[1])
        else:
            assert out.ctrl is None

    @pytest.mark.parametrize("variant", ["C2", "C4"])
    def test_output_feedback_requires_a_controller_state(self, variant):
        s = _scenario(variant, horizon=0.1)
        state = replace(s.initial_state(), ctrl=None)
        profiles = (s.profile_l, s.profile_r)
        calls = (
            lambda: ft.step(state, s.config, s.params_l, s.params_r, profiles, 1e-3),
            lambda: ft.rk4_step(state, s.config, s.params_l, s.params_r, profiles, 1e-3),
            lambda: ft.control_action(s.config, s.params_l, s.params_r, state.local,
                                      state.remote),
            lambda: ft.shaped_potential(s.config, state.local, state.remote),
            lambda: ft.dissipation_rate(s.config, state.local, state.remote),
        )
        for call in calls:
            with pytest.raises(ValueError, match="requires a ControllerState"):
                call()


class TestTeleopState:
    @pytest.mark.parametrize("side", ["theta_l", "theta_r"])
    def test_controller_state_must_match_the_joint_count(self, side):
        # a 3-entry theta on a 2-joint C2 state is named before any step
        s = _scenario("C2", horizon=0.1)
        state = s.initial_state()
        ctrl = replace(state.ctrl, **{side: np.zeros(3)})
        with pytest.raises(ValueError, match="controller state dimension mismatch"):
            replace(state, ctrl=ctrl)


class TestScenarioValidation:
    """The [simulation] rules hold for a Scenario however it is built."""

    @pytest.mark.parametrize("changes, problem", [
        (dict(horizon=-1.0), "horizon must be positive"),
        (dict(dt=0.0), "dt must be positive"),
        (dict(dt=2e-3), "dt must not exceed the decimation interval"),
        # 8 s is not a whole number of 0.3 ms steps either
        (dict(dt=3e-4), ["horizon must be an integer multiple of dt",
                         "decimation must be an integer multiple of dt"]),
        # rounded to steps, 3.5 and 4.5 would both run 4 and end past the horizon
        (dict(horizon=0.00035, decimation=1e-4), "horizon must be an integer multiple of dt"),
        (dict(horizon=0.00045, decimation=1e-4), "horizon must be an integer multiple of dt"),
        (dict(integrator="rk45"), "integrator must be 'euler' or 'rk4'"),
        (dict(delay=-0.5), "delay must be nonnegative"),
        # rounded to steps, a part of one would be no delay, and 2.5 would be 2
        (dict(delay=4e-5), "delay must be an integer multiple of dt"),
        (dict(delay=2.5e-4), "delay must be an integer multiple of dt"),
        (dict(integrator="rk4", delay=2e-3), "delay > 0 requires integrator = euler"),
        (dict(integrator=np.array(["euler", "rk4"]), delay=2e-3),
         ["integrator must be 'euler' or 'rk4'", "delay > 0 requires integrator = euler"]),
        (dict(horizon=np.nan), "horizon must be positive"),
        (dict(horizon=np.inf), "horizon must be finite"),
        (dict(dt=np.nan), "dt must be positive"),
        (dict(dt=np.inf), "dt must be finite"),
        (dict(decimation=np.nan), "decimation must be positive"),
        (dict(decimation=np.inf), "decimation must be finite"),
        (dict(decimation=None), "decimation must be positive"),
        (dict(delay=np.nan), "delay must be nonnegative"),
        (dict(delay=np.inf), "delay must be finite"),
        (dict(horizon="0.5"), "horizon must be a number"),
        (dict(dt="0.5"), "dt must be a number"),
        (dict(delay="0.5"), "delay must be a number"),
        (dict(decimation="x"), "decimation must be a number"),
        (dict(horizon=True), "horizon must be a number"),
        (dict(delay=np.bool_(False)), "delay must be a number"),
        (dict(integrator=None), "integrator must be 'euler' or 'rk4'"),
        (dict(integrator=np.array(["euler", "rk4"])), "integrator must be 'euler' or 'rk4'"),
        # every ratio the rules round to a count must be finite
        (dict(horizon=1e308), "horizon / dt must be finite"),
        (dict(decimation=1e308), "decimation / dt must be finite"),
        (dict(horizon=1e305, decimation=1e300), "horizon / dt must be finite"),
        (dict(delay=1e308), "delay / dt must be finite"),
        (dict(horizon=10**400), "horizon must lie within the float range"),
        (dict(delay=10**400), "delay must lie within the float range"),
        (dict(dt=-10**400), "dt must lie within the float range"),
    ], ids=["horizon", "dt", "dt-above-decimation", "decimation-multiple", "horizon-multiple",
            "horizon-multiple-even", "integrator", "delay", "delay-below-dt", "delay-multiple",
            "delay-integrator", "array-integrator-delay", "nan-horizon",
            "inf-horizon", "nan-dt", "inf-dt",
            "nan-decimation", "inf-decimation", "none-decimation", "nan-delay", "inf-delay",
            "str-horizon", "str-dt", "str-delay", "str-decimation", "bool-horizon",
            "numpy-bool-delay", "none-integrator", "array-integrator", "overflow-samples",
            "overflow-decimation-steps", "overflow-horizon-steps", "overflow-delay-steps",
            "int-beyond-float-horizon", "int-beyond-float-delay",
            "int-beyond-float-dt"])
    def test_replace_checks_each_rule(self, changes, problem):
        base = ft.read_bundled_scenario("c1_sim")   # dt 1e-4, decimation 1e-3
        with pytest.raises(ft.ScenarioError) as info:
            replace(base, **changes)
        problems = [problem] if isinstance(problem, str) else problem
        assert info.value.problems == [f"[simulation] {p}" for p in problems]

    @pytest.mark.parametrize("changes, schedule", [
        # 21 391 326 steps of 1e-4: value / dt is 4e-9 off the whole number
        (dict(horizon=2139.1326), (21391326, 10, 0)),
        (dict(decimation=2139.1326, horizon=4278.2652), (42782652, 21391326, 0)),
        (dict(delay=2139.1326), (80000, 10, 21391326)),
    ], ids=["horizon", "decimation", "delay"])
    def test_whole_steps_test_scales_with_the_count(self, changes, schedule):
        s = replace(ft.read_bundled_scenario("c1_sim"), **changes)
        assert (s.steps, s.stride, s.delay_steps) == schedule

    @pytest.mark.parametrize("changes, problems", [
        (dict(config=None), ["missing section [controller]"]),
        (dict(params_l=None), ["missing section [robot.local]"]),
        (dict(params_r=None), ["missing section [robot.remote]"]),
        (dict(profile_l=None), ["[forces.local] must be a ForceProfile"]),
        (dict(profile_r="zero"), ["[forces.remote] must be a ForceProfile"]),
        (dict(params_l=None, params_r=None, config=None),
         ["missing section [robot.local]", "missing section [robot.remote]",
          "missing section [controller]"]),
        (dict(params_l="x"), ["[robot.local] must be a RobotParams"]),
        (dict(params_r=3), ["[robot.remote] must be a RobotParams"]),
        (dict(config="C1"), ["[controller] must be a ControllerConfig"]),
        (dict(params_l=ft.read_bundled_scenario("c3_sim").config, params_r=None),
         ["[robot.local] must be a RobotParams", "missing section [robot.remote]"]),
        (dict(q0_l=None), ["[initial] missing required key 'q_local'"]),
        (dict(q0_r=None), ["[initial] missing required key 'q_remote'"]),
    ], ids=["config", "params_l", "params_r", "profile_l", "profile_r-str", "all-parts",
            "params_l-str", "params_r-int", "config-str", "params_l-a-config",
            "q0_l-none", "q0_r-none"])
    def test_replace_requires_every_part(self, changes, problems):
        base = ft.read_bundled_scenario("c3_sim")
        with pytest.raises(ft.ScenarioError) as info:
            replace(base, **changes)
        assert info.value.problems == problems

    def test_constructor_lists_every_problem(self):
        with pytest.raises(ft.ScenarioError) as info:
            _scenario(horizon=0.0, integrator="midpoint")
        assert len(info.value.problems) == 2

    _INITIAL = [("q0_l", "q_local"), ("q0_r", "q_remote"), ("qd0_l", "qdot_local"),
                ("qd0_r", "qdot_remote"), ("theta0_l", "theta_local"),
                ("theta0_r", "theta_remote")]

    _SHAPES = (("", (3,)), ("-1x2", (1, 2)), ("-2x1", (2, 1)))

    @pytest.mark.parametrize("name, key, value", [
        (name, key, np.zeros(shape))
        for (_, shape), (name, key) in itertools.product(_SHAPES, _INITIAL)],
        ids=[key + suffix for (suffix, _), (_, key) in itertools.product(_SHAPES, _INITIAL)])
    def test_replace_checks_initial_length(self, name, key, value):
        # only a scalar (at n = 1) or a 1-D vector can be written back; C2
        # reads theta
        base = ft.read_bundled_scenario("c2_sim")
        with pytest.raises(ft.ScenarioError) as info:
            replace(base, **{name: value})
        assert info.value.problems == [f"[initial] {key} must have 2 entries"]

    @pytest.mark.parametrize("value", ["ab", [1.0, "a"], {}, ["0.1", "0"], [None, 0.0]],
                             ids=["str", "list", "dict", "numeric-text", "none-entry"])
    @pytest.mark.parametrize("name, key", _INITIAL, ids=[key for _, key in _INITIAL])
    def test_replace_checks_initial_numbers(self, name, key, value):
        base = ft.read_bundled_scenario("c4_sim")
        with pytest.raises(ft.ScenarioError) as info:
            replace(base, **{name: value})
        assert info.value.problems == [f"[initial] {key} must be numbers"]

    @pytest.mark.parametrize("value, problem", [
        # casting a complex vector to float would drop its imaginary part
        (np.array([1 + 1j, 0.0]), "must be real numbers"), (1j, "must be real numbers"),
        ([0.5, 2j], "must be real numbers"), (10**400, "must lie within the float range"),
        ([0.1, -10**400], "must lie within the float range"),
    ], ids=["complex-array", "complex-scalar", "complex-list", "huge-int", "huge-int-list"])
    @pytest.mark.parametrize("name, key", _INITIAL, ids=[key for _, key in _INITIAL])
    def test_replace_checks_initial_real_floats(self, name, key, value, problem):
        base = ft.read_bundled_scenario("c4_sim")
        with pytest.raises(ft.ScenarioError) as info:
            replace(base, **{name: value})
        assert info.value.problems == [f"[initial] {key} {problem}"]

    @pytest.mark.parametrize("name, key", _INITIAL, ids=[key for _, key in _INITIAL])
    def test_replace_checks_initial_finite(self, name, key):
        base = ft.read_bundled_scenario("c2_sim")
        with pytest.raises(ft.ScenarioError) as info:
            replace(base, **{name: np.array([0.1, np.nan])})
        assert info.value.problems == [f"[initial] {key} must be finite"]

    def test_replace_checks_joint_counts(self):
        base = ft.read_bundled_scenario("c1_sim")
        three = ft.RobotParams(masses=[1.0] * 3, lengths=[0.5] * 3, com_offsets=[0.25] * 3,
                               inertias=[0.02] * 3)
        with pytest.raises(ft.ScenarioError) as info:
            replace(base, params_r=three)
        assert info.value.problems == ["local and remote robots must have the same joint count"]

    def test_constructor_checks_initial_vectors(self):
        with pytest.raises(ft.ScenarioError) as info:
            _scenario(q0_l=np.zeros(3), qd0_r=np.array([np.inf, 0.0]), dt=0.0)
        assert info.value.problems == ["[initial] q_local must have 2 entries",
                                       "[initial] qdot_remote must be finite",
                                       "[simulation] dt must be positive"]

    def test_file_and_library_name_the_same_problem(self):
        base = ft.read_bundled_scenario("c1_sim")
        text = ft.dump_scenario(base).replace("q_local = 1.0, -0.4", "q_local = 1.0, -0.4, 0.2")
        with pytest.raises(ft.ScenarioError) as from_file:
            ft.parse_scenario(text)
        with pytest.raises(ft.ScenarioError) as from_replace:
            replace(base, q0_l=np.array([1.0, -0.4, 0.2]))
        assert from_file.value.problems == from_replace.value.problems

    # a bundled scenario, edits to its dumped text, the same change as
    # Scenario fields, and the one problem expected
    _THREE_WAYS = {
        "controller-joint-count": (
            "c1_sim", {"k_s = 6.0, 6.0": "k_s = 6.0, 6.0, 6.0", "d_s = 8.0, 8.0": "d_s = 8.0"},
            lambda s: dict(config=ft.ControllerConfig.build(
                variant="C1", n=3, weights=(1.5, 1.0), k_s=6.0, d_s=8.0)),
            "[controller] gains are set for 3 joints, the robots have 2"),
        "saturation-gate": (
            "c3_sim", {"delta_p = 0.2": "delta_p = 5.0", "delta_d = 0.3": "delta_d = 5.0"},
            lambda s: dict(config=replace(s.config, delta_p=5.0, delta_d=5.0)),
            "[controller] saturation condition violated"),
        "theta-on-state-feedback": (
            "c1_sim", {"qdot_remote = 0.0, 0.0\n": "qdot_remote = 0.0, 0.0\n"
                                                   "theta_remote = 1.3, 0.3\n"},
            lambda s: dict(theta0_r=np.array([1.3, 0.3])),
            "[initial] theta_remote applies to C2/C4 only"),
        "profile-length": (
            "c3_sim", {"amplitude = 9.0, -6.0": "amplitude = 9.0, -6.0, 1.0"},
            lambda s: dict(profile_r=replace(s.profile_r, amplitude=[9.0, -6.0, 1.0])),
            "[forces.remote] amplitude must have 1 or 2 entries"),
        "inf-horizon": ("c1_sim", {"horizon = 8.0": "horizon = inf"},
                        lambda s: dict(horizon=np.inf), "[simulation] horizon must be finite"),
        "nan-dt": ("c1_sim", {"dt = 0.0001": "dt = nan"},
                   lambda s: dict(dt=np.nan), "[simulation] dt must be positive"),
        "inf-decimation": ("c1_sim", {"decimation = 0.001": "decimation = inf"},
                           lambda s: dict(decimation=np.inf),
                           "[simulation] decimation must be finite"),
        "inf-delay": ("c1_sim", {"delay = 0.0": "delay = inf"},
                      lambda s: dict(delay=np.inf), "[simulation] delay must be finite"),
        "horizon-multiple": ("c1_sim", {"horizon = 8.0": "horizon = 0.00035"},
                             lambda s: dict(horizon=0.00035),
                             "[simulation] horizon must be an integer multiple of dt"),
        "dt-above-horizon": ("c1_sim", {"horizon = 8.0": "horizon = 5e-05"},
                             lambda s: dict(horizon=5e-5),
                             "[simulation] dt must not exceed the horizon"),
        # 1e9 + 1 samples at decimation 1e-3: rejected before any allocation
        "trace-samples": ("c1_sim", {"horizon = 8.0": "horizon = 1e6"},
                          lambda s: dict(horizon=1e6),
                          "[simulation] the trace must hold at most 10000000 samples"),
        "missing-q-local": ("c1_sim", {"q_local = 1.0, -0.4\n": ""}, lambda s: dict(q0_l=None),
                            "[initial] missing required key 'q_local'"),
        "overflow-samples": ("c1_sim", {"horizon = 8.0": "horizon = 1e308"},
                             lambda s: dict(horizon=1e308),
                             "[simulation] horizon / dt must be finite"),
        "overflow-decimation-steps": ("c1_sim", {"decimation = 0.001": "decimation = 1e308"},
                                      lambda s: dict(decimation=1e308),
                                      "[simulation] decimation / dt must be finite"),
        "overflow-horizon-steps": (
            "c1_sim", {"horizon = 8.0": "horizon = 1e305",
                       "decimation = 0.001": "decimation = 1e300"},
            lambda s: dict(horizon=1e305, decimation=1e300),
            "[simulation] horizon / dt must be finite"),
        "delay-multiple": ("c1_sim", {"delay = 0.0": "delay = 4e-05"},
                           lambda s: dict(delay=4e-5),
                           "[simulation] delay must be an integer multiple of dt"),
        "overflow-delay-steps": ("c1_sim", {"delay = 0.0": "delay = 1e308"},
                                 lambda s: dict(delay=1e308),
                                 "[simulation] delay / dt must be finite"),
        "long-run": (
            "c1_sim", {"dt = 0.0001": "dt = 0.001", "horizon = 8.0": "horizon = 1e305",
                       "decimation = 0.001": "decimation = 1e300"},
            lambda s: dict(dt=1e-3, horizon=1e305, decimation=1e300),
            "[simulation] the run must take at most 1000000000 steps"),
        # 99 999 994 steps recorded every 10th and at the last: 10^7 + 1 samples,
        # although round(horizon / decimation) + 1 is 10^7
        "trace-samples-off-multiple": (
            "c1_sim", {"horizon = 8.0": "horizon = 9999.9994"},
            lambda s: dict(horizon=9999.9994),
            "[simulation] the trace must hold at most 10000000 samples"),
    }

    @pytest.mark.parametrize("case", list(_THREE_WAYS))
    def test_file_replace_and_constructor_agree(self, case):
        name, edits, changes, problem = self._THREE_WAYS[case]
        base = ft.read_bundled_scenario(name)
        text = ft.dump_scenario(base)
        for old, new in edits.items():
            assert text.count(old) == 1
            text = text.replace(old, new)
        plain = {f.name: getattr(base, f.name) for f in fields(ft.Scenario) if f.init}
        problems = []
        for build in (lambda: ft.parse_scenario(text, label=base.label),
                      lambda: replace(base, **changes(base)),
                      lambda: ft.Scenario(**{**plain, **changes(base)})):
            with pytest.raises(ft.ScenarioError) as info:
                build()
            problems.append(info.value.problems)
        assert problems[0] == problems[1] == problems[2]
        assert len(problems[0]) == 1 and problems[0][0].startswith(problem)

    def test_trace_sample_cap_counts_horizon_over_decimation(self):
        # the rule reads the computed size only; neither scenario is run
        base = ft.read_bundled_scenario("c1_sim")   # decimation 1e-3
        cap = closed_loop_sim._MAX_SAMPLES
        at_cap = replace(base, horizon=(cap - 1) * base.decimation)
        assert round(at_cap.horizon / at_cap.decimation) + 1 == cap
        # a horizon short of cap samples by a fraction of one (whole steps of
        # dt) still records its last step in a row of its own: cap + 1 rows
        for fraction in (0.0, 0.5, 0.6, 0.9):
            with pytest.raises(ft.ScenarioError) as info:
                replace(base, horizon=(cap - fraction) * base.decimation)
            assert info.value.problems == [f"[simulation] the trace must hold at most {cap} "
                                           "samples (horizon / decimation + 1)"]

    def test_trace_holds_the_rows_the_cap_counts(self):
        # 105 steps recorded every 10th and at the last: 12 samples, where
        # round(horizon / decimation) + 1 counts 11
        s = replace(ft.read_bundled_scenario("c1_sim"), horizon=0.0105)
        assert ft.run(s).samples == closed_loop_sim._rows(s.steps, s.stride) == 12

    @pytest.mark.parametrize("build, schedule", [
        (lambda: ft.read_bundled_scenario("c1_sim"), (80000, 10, 0)),
        (lambda: replace(ft.read_bundled_scenario("c1_sim"), horizon=0.0105), (105, 10, 0)),
        (lambda: replace(ft.read_bundled_scenario("c1_sim"), dt=5e-4, delay=2e-3),
         (16000, 2, 4)),
        (lambda: ft.parse_scenario(ft.dump_scenario(ft.read_bundled_scenario("c3_sim"))
                                   .replace("horizon = 8.0", "horizon = 0.0105")),
         (105, 10, 0)),
    ], ids=["bundled", "replaced", "replaced-delay", "parsed"])
    def test_schedule_is_derived_once(self, build, schedule):
        s = build()
        assert (s.steps, s.stride, s.delay_steps) == schedule
        assert all(type(v) is int for v in (s.steps, s.stride, s.delay_steps))
        with pytest.raises(ValueError, match="init=False"):
            replace(s, steps=1)
        with pytest.raises(TypeError):
            ft.Scenario(params_l=s.params_l, params_r=s.params_r, config=s.config,
                        q0_l=s.q0_l, q0_r=s.q0_r, stride=1)

    def test_step_cap_counts_horizon_over_dt(self):
        # the rule reads the step count only; neither scenario is run
        base = ft.read_bundled_scenario("c1_sim")   # dt 1e-4
        cap = closed_loop_sim._MAX_STEPS
        at_cap = replace(base, horizon=cap * base.dt, decimation=0.1)
        assert round(at_cap.horizon / at_cap.dt) == cap
        with pytest.raises(ft.ScenarioError) as info:
            replace(at_cap, horizon=(cap + 1) * base.dt)
        assert info.value.problems == [
            f"[simulation] the run must take at most {cap} steps (horizon / dt)"]
        # the whole-steps test scales with the count, but not to half a step
        with pytest.raises(ft.ScenarioError) as info:
            replace(at_cap, horizon=(cap - 0.5) * base.dt)
        assert info.value.problems == ["[simulation] horizon must be an integer multiple of dt"]

    @pytest.mark.parametrize("changes", [
        dict(horizon=np.float64(0.05)), dict(horizon=1), dict(delay=np.int64(0)),
        dict(dt=np.float32(0.0005), decimation=np.float32(0.0005),
             horizon=100 * float(np.float32(0.0005))),
    ], ids=["float64-horizon", "int-horizon", "int64-delay", "float32-dt"])
    def test_simulation_numbers_are_stored_as_floats(self, changes):
        # a numpy or int value is kept as the Python float of the same value, so
        # the scenario dumps to text that parses back, and runs as the float
        base = replace(ft.read_bundled_scenario("c3_sim"), horizon=0.05)
        s = replace(base, **changes)
        for key in ("horizon", "dt", "decimation", "delay"):
            assert type(getattr(s, key)) is float
        assert ft.dump_scenario(ft.parse_scenario(ft.dump_scenario(s))) == ft.dump_scenario(s)
        plain = replace(base, **{key: float(value) for key, value in changes.items()})
        np.testing.assert_array_equal(ft.run(replace(s, horizon=100 * s.dt)).matrix(),
                                      ft.run(replace(plain, horizon=100 * plain.dt)).matrix())

    def test_one_entry_force_vector_applies_to_every_joint(self):
        base = ft.read_bundled_scenario("c3_sim")
        pulse = replace(base.profile_r, start=0.0, stop=0.01)
        short = replace(base, horizon=0.02, profile_r=replace(pulse, amplitude=[9.0]))
        full = replace(short, profile_r=replace(pulse, amplitude=[9.0, 9.0]))
        np.testing.assert_array_equal(ft.run(short).matrix(), ft.run(full).matrix())


_FIELD_NAMES = [f.name for f in fields(ft.Scenario)]


class TestBuildOrName:
    """Whatever value a rule-bearing Scenario field is given, the build either
    raises ScenarioError or gives a scenario whose dump parses back and dumps
    to the same text: no other exception, and nothing built that cannot be
    written back."""

    _FIELDS = _FIELD_NAMES[_FIELD_NAMES.index("params_l"):_FIELD_NAMES.index("delay") + 1]
    _POOL = (None, "x", 3, True, np.float64(np.nan), np.float64(0.5), np.int64(2),
             [[1.0, 2.0]], [1.0, "a"], -1.0, 0.0, 1e308, 10**400, np.array([1 + 1j, 0.0]),
             [None, 0.0])

    @pytest.mark.parametrize("name", _FIELDS)
    def test_builds_or_names_the_problem(self, name):
        failures = []
        for base in (ft.read_bundled_scenario("c1_sim"), ft.read_bundled_scenario("c4_sim")):
            for value in self._POOL:
                case = f"{base.label}, {name} = {value!r}"
                try:
                    s = replace(base, **{name: value})
                except ft.ScenarioError:
                    continue
                except Exception as exc:   # collect every case, not only the first
                    failures.append(f"{case}: build raised {type(exc).__name__}: {exc}")
                    continue
                text = ft.dump_scenario(s)
                try:
                    again = ft.dump_scenario(ft.parse_scenario(text, label=s.label))
                except ft.ScenarioError as exc:
                    failures.append(f"{case}: its dump does not parse: {exc.problems}")
                    continue
                if again != text:
                    failures.append(f"{case}: its dump changes on a reload")
        assert failures == []


class TestRun:
    def test_zero_initial_error_stays_zero(self):
        for variant in ("C1", "C2", "C3", "C4"):
            scenario = _scenario(variant, horizon=0.2,
                                 q0_l=np.array([0.5, 0.5]), q0_r=np.array([0.5, 0.5]))
            trace = ft.run(scenario)
            assert np.max(trace.err_norm) <= 1e-10

    def test_deterministic_bit_identical(self):
        t1 = ft.run(_scenario(horizon=0.3))
        t2 = ft.run(_scenario(horizon=0.3))
        np.testing.assert_array_equal(t1.matrix(), t2.matrix())

    def test_decimation_and_endpoints(self):
        trace = ft.run(_scenario(horizon=0.5, dt=1e-3))
        assert trace.t[0] == 0.0
        assert trace.t[-1] == pytest.approx(0.5, abs=1e-12)
        assert trace.samples == 51
        assert np.all(np.diff(trace.t) > 0)

    def test_instability_reported(self):
        scenario = _scenario(horizon=10.0, dt=5e-2,
                             config=ft.ControllerConfig.build(
                                 variant="C1", n=2, weights=(1.5, 1.0),
                                 k_s=1e6, d_s=1e6))
        with np.errstate(all="ignore"):
            with pytest.raises(ft.SimulationUnstableError, match="t ="):
                ft.run(scenario)

    def test_theta_recorded_for_output_feedback(self):
        trace = ft.run(_scenario("C2", horizon=0.2))
        assert np.all(np.isfinite(trace.th_l))
        trace_c1 = ft.run(_scenario("C1", horizon=0.2))
        assert np.all(np.isnan(trace_c1.th_l))

    def test_delay_plumbing_runs(self):
        base = _scenario(horizon=0.3, dt=1e-3)
        delayed = ft.run(replace(base, delay=5e-3))
        plain = ft.run(base)
        # same start, different evolution once the buffer fills
        np.testing.assert_array_equal(delayed.q_l[0], plain.q_l[0])
        assert not np.array_equal(delayed.q_l[-1], plain.q_l[-1])
        again = ft.run(replace(base, delay=5e-3))
        np.testing.assert_array_equal(delayed.matrix(), again.matrix())

    @pytest.mark.parametrize("delay", [0.3, 0.5, 1e9])
    def test_delay_past_the_horizon_sees_the_start(self, delay):
        # the remote sees the start positions throughout, however long the delay
        base = _scenario(horizon=0.3, dt=1e-3)
        np.testing.assert_array_equal(ft.run(replace(base, delay=delay)).matrix(),
                                      ft.run(replace(base, delay=0.3 + 1e-3)).matrix())

    def test_delay_requires_euler(self):
        with pytest.raises(ValueError, match="euler"):
            ft.run(_scenario(horizon=0.1, delay=1e-2, integrator="rk4"))

    def test_rk4_conserves_energy_better(self):
        # free spin, no gravity: RK4 drift is orders below Euler drift
        params = ft.RobotParams(**BENCHMARK, gravity=0.0)
        config = ft.ControllerConfig.build(variant="C1", n=2, weights=(1.5, 1.0),
                                           k_s=1e-12, d_s=0.0)
        drift = {}
        for integrator in ("euler", "rk4"):
            scenario = ft.Scenario(
                params_l=params, params_r=params, config=config,
                q0_l=np.array([0.3, -0.2]), q0_r=np.array([0.3, -0.2]),
                qd0_l=np.array([1.0, 0.5]), qd0_r=np.array([1.0, 0.5]),
                horizon=1.0, dt=1e-3, decimation=1e-2, integrator=integrator)
            trace = ft.run(scenario)
            drift[integrator] = abs(trace.energy[-1] - trace.energy[0]) / trace.energy[0]
        assert drift["rk4"] < 1e-9
        assert drift["rk4"] < drift["euler"] * 1e-2


class TestTimeAxis:
    """The time of sample k is its step count times dt, taken from the
    scenario's step schedule, not summed step by step."""

    def test_ten_steps_end_at_ten_steps(self):
        c1 = ft.read_bundled_scenario("c1_sim")
        t = ft.run(replace(c1, horizon=1e-3, decimation=1e-4)).t
        np.testing.assert_array_equal(t, np.arange(11) * 1e-4)

    def test_last_sample_off_the_stride(self):
        c1 = ft.read_bundled_scenario("c1_sim")
        trace = ft.run(replace(c1, horizon=1.5e-3, decimation=1e-3))
        assert c1.dt == 1e-4
        assert trace.t.tolist() == [0.0, 0.001, 0.0015]

    def test_staggered_members_end_at_their_horizons(self):
        horizons = (0.3, 0.1, 0.55, 0.2)
        scenarios = [_scenario(variant, horizon=h, decimation=2e-2)
                     for variant, h in zip(("C1", "C4", "C2", "C3"), horizons)]
        for scenario, trace in zip(scenarios, ft.run_batch(scenarios)):
            assert trace.t[-1] == scenario.horizon
            np.testing.assert_array_equal(trace.t, np.minimum(
                np.arange(trace.samples) * scenario.stride, scenario.steps) * scenario.dt)

    def test_bundled_c1_ends_at_its_horizon(self, c1_run):
        assert c1_run.trace.t[-1] == c1_run.scenario.horizon == 8.0


_PULSE = ft.ForceProfile(kind="pulse", start=0.05, stop=0.1, amplitude=np.array([2.0, -1.0]))
_SPRING = ft.ForceProfile(kind="spring_damper", stiffness=np.array([30.0, 30.0]),
                          damping=np.array([1.0, 2.0]), anchor=np.zeros(2))
_STIFF = ft.ControllerConfig.build(variant="C1", n=2, weights=(1.5, 1.0), k_s=1e6, d_s=1e6)


class TestRunBatch:
    def _law_calls(self, scenarios) -> int:
        law = closed_loop_sim.control_law
        with mock.patch.object(closed_loop_sim, "control_law", wraps=law) as counted:
            ft.run_batch(scenarios)
        return counted.call_count

    @pytest.mark.parametrize("integrator, per_step", [("euler", 1), ("rk4", 4)])
    def test_law_calls_per_step(self, integrator, per_step):
        # the record reuses the step's first evaluation; one more for the last sample
        base = _scenario(dt=1e-3, integrator=integrator)
        short = self._law_calls([replace(base, horizon=0.04)])
        longer = self._law_calls([replace(base, horizon=0.08)])
        assert short == 40 * per_step + 1
        assert longer - short == 40 * per_step

    @pytest.mark.parametrize("integrator, per_step", [("euler", 1), ("rk4", 4)])
    def test_law_calls_per_step_in_a_mixed_group(self, integrator, per_step):
        # C1, C4 and a C2 member that stops halfway share each law call
        def group(horizon):
            return [_scenario(variant, dt=1e-3, integrator=integrator, horizon=h)
                    for variant, h in (("C1", horizon), ("C4", horizon), ("C2", horizon / 2))]
        short = self._law_calls(group(0.04))
        longer = self._law_calls(group(0.08))
        assert short == 40 * per_step + 1
        assert longer - short == 40 * per_step

    @pytest.mark.parametrize("schedule", [{}, dict(integrator="rk4"), dict(delay=5e-3)],
                             ids=["euler", "rk4", "delay"])
    def test_mixed_variants_and_horizons_match_their_run_alone(self, schedule):
        scenarios = [
            _scenario("C1", horizon=0.2, label="a"),
            _scenario("C2", horizon=0.137, label="b", profile_r=_PULSE),   # off the stride
            _scenario("C3", horizon=0.25, label="c", profile_l=_SPRING),
            _scenario("C4", horizon=0.1, label="d", profile_r=_PULSE),
            _scenario("C1", horizon=0.3, label="e", q0_l=np.array([0.2, 0.1])),
        ]
        scenarios = [replace(s, **schedule) for s in scenarios]
        with mock.patch.object(closed_loop_sim, "_integrate",
                               wraps=closed_loop_sim._integrate) as groups:
            traces = ft.run_batch(scenarios)
        assert groups.call_count == 1
        for scenario, trace in zip(scenarios, traces):
            assert trace.t[-1] == pytest.approx(scenario.horizon, abs=1e-12)
            assert trace.samples == int(np.ceil(round(scenario.horizon / 1e-3) / 10)) + 1
            assert np.array_equal(trace.matrix(), ft.run(scenario).matrix(), equal_nan=True)

    def test_c1_c3_keep_nan_theta_in_a_virtual_group(self):
        scenarios = [_scenario("C1"), _scenario("C2"), _scenario("C3"), _scenario("C4")]
        traces = ft.run_batch(scenarios)
        for scenario, trace in zip(scenarios, traces):
            for theta in (trace.th_l, trace.th_r):
                if scenario.config.has_virtual_state:
                    assert np.all(np.isfinite(theta))
                else:
                    assert np.all(np.isnan(theta))

    def test_instability_names_the_first_member_across_variants(self):
        # C3 with unreachable levels steps exactly like C1: both blow up together
        wild3 = ft.ControllerConfig.build(variant="C3", n=2, weights=(1.5, 1.0), k_s=1e6,
                                          d_s=1e6, delta_p=1e300, delta_d=1e300)
        scenarios = [_scenario("C2", horizon=1.0, dt=5e-2, label="calm"),
                     _scenario(horizon=1.0, dt=5e-2, label="wild3", config=wild3),
                     _scenario(horizon=1.0, dt=5e-2, label="wild1", config=_STIFF)]
        with np.errstate(all="ignore"):
            with pytest.raises(ft.SimulationUnstableError, match=r"^wild3: .* t = 0.4"):
                ft.run_batch(scenarios)
            with pytest.raises(ft.SimulationUnstableError, match=r"^wild1: .* t = 0.4"):
                ft.run_batch(scenarios[::-1])

    def test_instability_is_named_in_input_order_not_stack_order(self):
        # stacked longest first, wild3 sits after wild1; both blow up at t = 0.4 s
        wild3 = ft.ControllerConfig.build(variant="C3", n=2, weights=(1.5, 1.0), k_s=1e6,
                                          d_s=1e6, delta_p=1e300, delta_d=1e300)
        scenarios = [_scenario("C2", horizon=1.0, dt=5e-2, label="calm"),
                     _scenario(horizon=0.6, dt=5e-2, label="wild3", config=wild3),
                     _scenario(horizon=1.0, dt=5e-2, label="wild1", config=_STIFF)]
        with np.errstate(all="ignore"):
            with pytest.raises(ft.SimulationUnstableError, match=r"^wild3: .* t = 0.4"):
                ft.run_batch(scenarios)
            with pytest.raises(ft.SimulationUnstableError, match=r"^wild1: .* t = 0.4"):
                ft.run_batch(scenarios[::-1])

    def test_starts_from_the_scenario_arrays(self):
        # the engine builds no single-state object for any variant
        built = []

        def counted(cls):
            original = cls.__post_init__

            def post_init(self):
                built.append(cls.__name__)
                original(self)
            return mock.patch.object(cls, "__post_init__", post_init)

        scenarios = [_scenario(variant, horizon=0.02) for variant in ("C1", "C2", "C3", "C4")]
        with counted(ft.RobotState), counted(ft.ControllerState), counted(ft.TeleopState):
            ft.run_batch(scenarios)
        assert built == []

    def test_frozen_member_is_not_stepped_past_its_horizon(self):
        # alone, the stiff member turns non-finite at t = 0.4 s
        wild = _scenario(horizon=0.35, dt=5e-2, label="wild", config=_STIFF)
        calm = _scenario("C4", horizon=1.0, dt=5e-2, label="calm")
        with np.errstate(all="ignore"):
            traces = ft.run_batch([wild, calm])
            assert traces[0].t[-1] == pytest.approx(0.35)
            assert np.array_equal(traces[0].matrix(), ft.run(wild).matrix(), equal_nan=True)
            with pytest.raises(ft.SimulationUnstableError, match="wild"):
                ft.run(replace(wild, horizon=1.0))

    def test_records_grow_with_the_members_own_samples(self):
        # 200 members of 3 samples and one of 1001, 224 bytes a sample: about
        # 0.4 MB of records, against 45 MB for 201 members of 1001 samples
        short = [_scenario("C4", horizon=2e-3, decimation=1e-3, label=f"s{i}")
                 for i in range(200)]
        long = _scenario("C2", horizon=1.0, decimation=1e-3, label="long")
        tracemalloc.start()
        try:
            traces = ft.run_batch(short + [long])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [trace.samples for trace in traces] == [3] * 200 + [1001]
        assert peak < 10e6

    def test_members_match_their_run_alone_in_input_order(self):
        scenarios = [
            _scenario("C1", horizon=0.2, label="a"),
            _scenario("C4", horizon=0.2, label="b"),
            _scenario("C1", horizon=0.2, label="c", q0_l=np.array([0.2, 0.1])),
            _scenario("C1", horizon=0.2, label="d", integrator="rk4"),
            _scenario("C4", horizon=0.2, label="e", config=ft.ControllerConfig.build(
                variant="C4", n=2, weights=(1.3, 1.0), k_s=5.0, k_c=18.0, d_c=4.0,
                delta_p=0.3, delta_d=0.4)),
            _scenario("C1", horizon=0.2, label="f", delay=5e-3, dt=1e-3),
        ]
        traces = ft.run_batch(scenarios)
        assert len(traces) == len(scenarios)
        for scenario, trace in zip(scenarios, traces):
            np.testing.assert_array_equal(trace.matrix(), ft.run(scenario).matrix())

    def test_mixed_forces_in_one_group(self):
        pulse = ft.ForceProfile(kind="pulse", start=0.05, stop=0.1,
                                amplitude=np.array([2.0, -1.0]))
        spring = ft.ForceProfile(kind="spring_damper", stiffness=np.array([30.0, 30.0]),
                                 anchor=np.zeros(2))
        scenarios = [_scenario(horizon=0.2, profile_r=pulse), _scenario(horizon=0.2),
                     _scenario(horizon=0.2, profile_l=spring)]
        traces = ft.run_batch(scenarios)
        np.testing.assert_array_equal(traces[1].f_r, np.zeros_like(traces[1].f_r))
        on = (traces[0].t >= 0.05) & (traces[0].t < 0.1)
        np.testing.assert_array_equal(traces[0].f_r[on], np.tile([2.0, -1.0], (on.sum(), 1)))
        np.testing.assert_array_equal(traces[0].f_r[~on], np.zeros(((~on).sum(), 2)))
        np.testing.assert_allclose(traces[2].f_l, -30.0 * traces[2].q_l)
        for scenario, trace in zip(scenarios, traces):
            np.testing.assert_array_equal(trace.matrix(), ft.run(scenario).matrix())

    @pytest.mark.parametrize("integrator", ["euler", "rk4"])
    def test_pulse_windows_in_one_group(self, integrator):
        # the pulse force is cached between the edges of the stacked windows:
        # edges on step times and on RK4 half-step times, one window past the
        # cut of a shorter member, one empty and one past its member's horizon
        dt = 1e-3
        times = [k * dt for k in range(101)]   # the engine's own step times
        half = 0.5 * dt

        def pulse(start, stop):
            return ft.ForceProfile(kind="pulse", start=start, stop=stop,
                                   amplitude=np.array([2.0, -1.0]))

        windows = [(times[20], times[40] + half), (times[10], times[30]),
                   (times[30] + half, times[80]), None, (0.5, 0.6)]
        scenarios = [
            _scenario("C1", horizon=0.1, profile_r=pulse(*windows[0])),
            _scenario("C4", horizon=0.05, profile_r=pulse(*windows[1])),
            _scenario("C3", horizon=0.1, profile_r=pulse(*windows[2]), profile_l=_SPRING),
            _scenario("C2", horizon=0.08),
            _scenario("C1", horizon=0.03, profile_r=pulse(*windows[4])),
        ]
        scenarios = [replace(s, integrator=integrator, decimation=dt) for s in scenarios]
        traces = ft.run_batch(scenarios)
        for scenario, trace, window in zip(scenarios, traces, windows):
            np.testing.assert_array_equal(trace.matrix(), ft.run(scenario).matrix())
            assert trace.t[-1] == times[round(scenario.horizon / dt)]
            on = np.zeros(trace.samples, bool) if window is None else (
                (window[0] <= trace.t) & (trace.t < window[1]))
            np.testing.assert_array_equal(trace.f_r[on], np.tile([2.0, -1.0], (on.sum(), 1)))
            np.testing.assert_array_equal(trace.f_r[~on], np.zeros(((~on).sum(), 2)))
        assert [round(trace.t[trace.f_r[:, 0] != 0].sum() / dt) for trace in traces] == [
            sum(range(20, 41)), sum(range(10, 30)), sum(range(31, 80)), 0, 0]

    def test_instability_names_the_member(self):
        stiff = ft.ControllerConfig.build(variant="C1", n=2, weights=(1.5, 1.0),
                                          k_s=1e6, d_s=1e6)
        scenarios = [_scenario(horizon=1.0, dt=5e-2, label="calm"),
                     _scenario(horizon=1.0, dt=5e-2, label="wild", config=stiff)]
        with np.errstate(all="ignore"):
            with pytest.raises(ft.SimulationUnstableError, match=r"^wild: .* t = "):
                ft.run_batch(scenarios)

    def test_rk4_blow_up_is_an_instability(self):
        scenario = replace(ft.read_bundled_scenario("c1_sim"), integrator="rk4",
                           dt=0.2, decimation=0.2)
        with np.errstate(all="ignore"):
            with pytest.raises(ft.SimulationUnstableError, match="c1_sim"):
                ft.run(scenario)

    def test_empty_batch(self):
        assert ft.run_batch([]) == []

    def test_heterogeneous_three_link_pair(self):
        # two different 3-link arms, C1-C4 and three horizons in one group of 40
        arm_l = ft.RobotParams(**random_chain(np.random.default_rng(31), 3))
        arm_r = ft.RobotParams(**random_chain(np.random.default_rng(32), 3))
        rng = np.random.default_rng(33)
        scenarios = []
        for i in range(40):
            q0_l = rng.uniform(-1.0, 1.0, 3)
            scenarios.append(ft.Scenario(
                params_l=arm_l, params_r=arm_r, config=_config(f"C{i % 4 + 1}", n=3),
                q0_l=q0_l, q0_r=q0_l + rng.uniform(-0.3, 0.3, 3),
                qd0_l=rng.uniform(-0.3, 0.3, 3), qd0_r=rng.uniform(-0.3, 0.3, 3),
                horizon=(0.05, 0.037, 0.02)[i % 3], dt=1e-3, decimation=5e-3,
                label=f"m{i}"))
        with mock.patch.object(closed_loop_sim, "_integrate",
                               wraps=closed_loop_sim._integrate) as groups:
            traces = ft.run_batch(scenarios)
        assert groups.call_count == 1
        for scenario, trace in zip(scenarios, traces):
            assert trace.t[-1] == pytest.approx(scenario.horizon, abs=1e-12)
            assert np.array_equal(trace.matrix(), ft.run(scenario).matrix(), equal_nan=True)


class TestFreeMotion:
    @pytest.mark.parametrize("integrator", ["euler", "rk4"])
    def test_run_batch_evaluates_no_force(self, integrator):
        # no member has a force profile: the force pass is skipped, f stays zero
        scenarios = [_scenario(v, horizon=h, integrator=integrator)
                     for v, h in (("C1", 0.05), ("C4", 0.03), ("C2", 0.05))]
        force = closed_loop_sim._force
        with mock.patch.object(closed_loop_sim, "_force", wraps=force) as counted:
            traces = ft.run_batch(scenarios)
            assert counted.call_count == 0
            ft.run_batch([replace(scenarios[0], profile_r=_PULSE)])
            assert counted.call_count > 0
        for trace in traces:
            assert trace.samples > 1
            np.testing.assert_array_equal(trace.f_l, np.zeros_like(trace.q_l))
            np.testing.assert_array_equal(trace.f_r, np.zeros_like(trace.q_r))


class TestNetTorque:
    """The laws return the torque net of gravity: the steps evaluate no
    gravity, and the record adds it back once."""

    def test_recorded_torque_is_the_applied_torque(self):
        euler = [replace(ft.read_bundled_scenario(name), horizon=0.05)
                 for name in ("c1_sim", "c2_sim", "c3_sim", "c4_sim", "c1_spring")]
        scenarios = euler + [replace(s, integrator="rk4", dt=5e-4) for s in euler]
        for scenario, trace in zip(scenarios, ft.run_batch(scenarios)):
            for i in range(trace.samples):
                ctrl = (ft.ControllerState(theta_l=trace.th_l[i], theta_r=trace.th_r[i])
                        if scenario.config.has_virtual_state else None)
                action = ft.control_action(
                    scenario.config, scenario.params_l, scenario.params_r,
                    ft.RobotState(q=trace.q_l[i], qdot=trace.qd_l[i]),
                    ft.RobotState(q=trace.q_r[i], qdot=trace.qd_r[i]), ctrl)
                case = f"{scenario.label} {scenario.integrator}, t = {trace.t[i]}"
                np.testing.assert_array_equal(trace.tau_l[i], action.tau_l, err_msg=case)
                np.testing.assert_array_equal(trace.tau_r[i], action.tau_r, err_msg=case)

    @pytest.mark.parametrize("integrator", ["euler", "rk4"])
    @pytest.mark.parametrize("horizons, cohorts", [((0.04,), 1), ((0.08,), 1),
                                                   ((0.04, 0.08), 2)])
    def test_gravity_only_in_the_record(self, integrator, horizons, cohorts):
        base = _scenario("C2", dt=1e-3, integrator=integrator)
        gravity = closed_loop_sim.gravity_kernel
        with mock.patch.object(closed_loop_sim, "gravity_kernel", wraps=gravity) as counted:
            ft.run_batch([replace(base, horizon=h) for h in horizons])
        assert counted.call_count == cohorts


class TestCheckFinite:
    """The one-reduction fast path skips the scan only for a finite state."""

    MESSAGE = "{}: non-finite state at t = 0.250000 s; reduce dt or soften the gains"

    def _batch(self, size, order):
        scenarios = [_scenario(label=f"m{i}") for i in range(size)]
        return closed_loop_sim._Batch.of(scenarios, order)

    def test_finite_state_whose_sum_overflows_passes(self):
        batch = self._batch(2, [0, 1])
        x = np.full((2, 2, 2, 2), 1e308)   # (k, B, 2, n): q and q-dot of two members
        x[:, 1, 1] = -1e308                 # every row of member 1's remote side
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(x.sum())
            batch.check_finite(x, 0.25)
            batch.check_finite(np.abs(x), 0.25)

    # each bad entry is (state row, stacked member, value); stacked members
    # 0, 1, 2 are the input members m2, m0, m1
    @pytest.mark.parametrize("bad, first", [
        ([(0, 0, np.nan), (2, 2, np.inf)], "m1"),     # stacked members m2, m1
        ([(0, 0, -np.inf), (1, 1, np.nan)], "m0"),    # stacked members m2, m0
        ([(0, 0, np.nan), (1, 1, np.inf), (2, 2, np.nan)], "m0"),
        ([(0, 0, np.inf)], "m2"),
        # theta row of m2 and q-dot row of m1: reading the row axis as the
        # member axis would name m0
        ([(2, 0, np.nan), (1, 2, np.inf)], "m1"),
    ])
    def test_names_the_first_bad_member_in_input_order(self, bad, first):
        batch = self._batch(3, [2, 0, 1])
        x = np.zeros((3, 3, 2, 2))   # (k, B, 2, n): q, q-dot and theta of three members
        x[1, :, 0, 0] = 1e308        # the sum would overflow without the bad entries
        for row, member, value in bad:
            x[row, member, member % 2, 1] = value
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ft.SimulationUnstableError) as info:
                batch.check_finite(x, 0.25)
        assert str(info.value) == self.MESSAGE.format(first)


@contextlib.contextmanager
def _warnings_as_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


# a caller's settings under which any numpy warning or error would escape
_CALLER_SETTINGS = {"warnings-as-errors": _warnings_as_errors,
                    "errstate-raise": lambda: np.errstate(all="raise")}


def _wild3():
    # C3 with unreachable levels steps exactly like C1
    return ft.ControllerConfig.build(variant="C3", n=2, weights=(1.5, 1.0), k_s=1e6,
                                     d_s=1e6, delta_p=1e300, delta_d=1e300)


def _single_step(update):
    # q-dot squared overflows in the first Coriolis term
    robot = ft.RobotState(q=np.array([1.0, -0.4]), qdot=np.array([1e200, -1e200]))
    params = ft.RobotParams(**BENCHMARK)
    return update(ft.TeleopState(local=robot, remote=robot), _STIFF, params, params,
                  (ft.ForceProfile(), ft.ForceProfile()), 1e-3)


class TestInstabilityIsNamedOnly:
    """The unstable rows of TestRun and TestRunBatch, plus a delayed run and
    single steps, without their errstate wrapper: each raises the same
    SimulationUnstableError, naming the same member and time, whatever numpy
    error state or warning filter the caller has set, and the caller's
    error state is as it was after the run returns or raises."""

    ROWS = {
        "reported": (lambda: ft.run(_scenario(horizon=10.0, dt=5e-2, config=_STIFF)),
                     "test", "0.400000"),
        "across-variants": (lambda: ft.run_batch([
            _scenario("C2", horizon=1.0, dt=5e-2, label="calm"),
            _scenario(horizon=1.0, dt=5e-2, label="wild3", config=_wild3()),
            _scenario(horizon=1.0, dt=5e-2, label="wild1", config=_STIFF)]), "wild3", "0.400000"),
        "across-variants-reversed": (lambda: ft.run_batch([
            _scenario(horizon=1.0, dt=5e-2, label="wild1", config=_STIFF),
            _scenario(horizon=1.0, dt=5e-2, label="wild3", config=_wild3()),
            _scenario("C2", horizon=1.0, dt=5e-2, label="calm")]), "wild1", "0.400000"),
        "input-order": (lambda: ft.run_batch([
            _scenario("C2", horizon=1.0, dt=5e-2, label="calm"),
            _scenario(horizon=0.6, dt=5e-2, label="wild3", config=_wild3()),
            _scenario(horizon=1.0, dt=5e-2, label="wild1", config=_STIFF)]), "wild3", "0.400000"),
        "member": (lambda: ft.run_batch([
            _scenario(horizon=1.0, dt=5e-2, label="calm"),
            _scenario(horizon=1.0, dt=5e-2, label="wild", config=_STIFF)]), "wild", "0.400000"),
        "rk4": (lambda: ft.run(replace(ft.read_bundled_scenario("c1_sim"), integrator="rk4",
                                       dt=0.2, decimation=0.2)), "c1_sim", "0.800000"),
        "delayed": (lambda: ft.run(_scenario(horizon=2.0, dt=5e-2, config=_STIFF, delay=0.1)),
                    "test", "0.400000"),
        "step": (lambda: _single_step(ft.step), "step", "0.001000"),
        "rk4-step": (lambda: _single_step(ft.rk4_step), "step", "0.001000"),
    }

    @pytest.mark.parametrize("setting", list(_CALLER_SETTINGS))
    @pytest.mark.parametrize("row", list(ROWS))
    def test_named_whatever_the_caller_set(self, row, setting):
        unstable, member, t = self.ROWS[row]
        with _CALLER_SETTINGS[setting]():
            before = np.geterr()
            with pytest.raises(ft.SimulationUnstableError) as info:
                unstable()
            assert np.geterr() == before
        assert str(info.value) == (f"{member}: non-finite state at t = {t} s; "
                                   "reduce dt or soften the gains")

    def test_a_singular_solve_is_named_by_the_finite_check(self):
        # the engine's solve turns an exactly singular link inertia into NaN
        # accelerations, and the update after it names the member
        batch = closed_loop_sim._Batch.of([_scenario(label=f"m{i}") for i in range(3)],
                                          [2, 0, 1])
        weights = batch.arms.weights.copy()
        weights[1, 1] = 0.0   # stacked member 1, input member m0, remote arm
        batch.arms = batch.arms._replace(weights=weights)
        x = np.zeros((2, 3, 2, 2))
        with np.errstate(all="ignore"):
            dx = batch.rhs(0.0, x)[0]
            with pytest.raises(ft.SimulationUnstableError, match=r"^m0: .* t = 0.001000 s"):
                batch.euler(0.0, x, dx, closed_loop_sim._StepSize.of(1e-3))
        assert np.isnan(dx[1, 1, 1]).all() and np.isfinite(dx[:, [0, 2]]).all()

    @pytest.mark.parametrize("setting", list(_CALLER_SETTINGS))
    def test_a_stable_run_keeps_the_callers_error_state(self, setting):
        scenario = replace(ft.read_bundled_scenario("c1_sim"), horizon=0.01)
        with _CALLER_SETTINGS[setting]():
            before = np.geterr()
            ft.run(scenario)
            ft.run(replace(scenario, integrator="rk4"))
            ft.run(replace(scenario, delay=2e-3))
            state = scenario.initial_state()
            args = (scenario.config, scenario.params_l, scenario.params_r,
                    (scenario.profile_l, scenario.profile_r), scenario.dt)
            ft.step(state, *args)
            ft.rk4_step(state, *args)
            assert np.geterr() == before


class TestConvergenceTime:
    def _trace(self, t, err):
        s = len(t)
        z = np.zeros((s, 2))
        return ft.SimTrace(t=np.asarray(t, float), q_l=z, q_r=z, qd_l=z, qd_r=z,
                           th_l=z, th_r=z, tau_l=z, tau_r=z, f_l=z, f_r=z,
                           err_norm=np.asarray(err, float), energy=np.zeros(s))

    def test_identically_zero_error(self):
        trace = self._trace([0.0, 0.1, 0.2], [0.0, 0.0, 0.0])
        assert ft.convergence_time(trace, 1e-3) == 0.0

    def test_transient_dip_does_not_count(self):
        trace = self._trace([0.0, 1.0, 2.0, 3.0, 4.0],
                            [1.0, 1e-4, 0.5, 1e-4, 1e-5])
        assert ft.convergence_time(trace, 1e-3) == 3.0

    def test_not_reached(self):
        trace = self._trace([0.0, 1.0, 2.0], [1.0, 0.5, 0.2])
        assert ft.convergence_time(trace, 1e-3) is None

    def test_rejects_bad_inputs(self):
        trace = self._trace([0.0], [0.0])
        with pytest.raises(ValueError):
            ft.convergence_time(trace, 0.0)
        empty = self._trace([], [])
        with pytest.raises(ValueError):
            ft.convergence_time(empty, 1e-3)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            ft.convergence_time(self._trace([0.0], [0.0]), tol)


class TestTraceCsv:
    def test_header_layout(self):
        trace = ft.run(_scenario(horizon=0.1))
        assert trace.header() == (
            "t,ql1,ql2,qr1,qr2,dql1,dql2,dqr1,dqr2,thl1,thl2,thr1,thr2,"
            "taul1,taul2,taur1,taur2,fl1,fl2,fr1,fr2,err_norm,H")

    def test_round_trip_bit_faithful(self, tmp_path):
        trace = ft.run(_scenario(horizon=0.2))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        back = ft.SimTrace.from_csv(path)
        for name in ("t", "q_l", "q_r", "qd_l", "qd_r", "tau_l", "tau_r",
                     "f_l", "f_r", "err_norm", "energy"):
            np.testing.assert_array_equal(getattr(back, name), getattr(trace, name),
                                          err_msg=name)

    @pytest.mark.parametrize("edit, columns", [
        (lambda row, is_header: row[:-1], 22),                  # the H column dropped
        (lambda row, is_header: row + ["0"], 24),               # one column too many
        (lambda row, is_header: row if is_header else row[:-1], 22),   # data only
    ], ids=["missing-column", "extra-column", "data-narrower-than-header"])
    def test_rejects_column_count_off_the_layout(self, tmp_path, edit, columns):
        path = tmp_path / "trace.csv"
        ft.run(_scenario(horizon=0.05)).to_csv(path)
        lines = path.read_text().splitlines()
        path.write_text("".join(",".join(edit(line.split(","), i == 0)) + "\n"
                                for i, line in enumerate(lines)))
        with pytest.raises(ValueError, match=f"{columns} columns, a trace has 3 \\+ 10 n"):
            ft.SimTrace.from_csv(path)

    @staticmethod
    def _special_trace(n: int) -> ft.SimTrace:
        # random values with NaN theta columns, -0.0 and +-inf spread over the fields
        rng = np.random.default_rng([n, 36])
        rows = 7
        per_joint = {name: rng.normal(size=(rows, n)) * 10.0 ** rng.integers(-20, 20, (rows, n))
                     for _, name in closed_loop_sim._TRACE_COLUMNS
                     if name not in closed_loop_sim._SAMPLE_FIELDS}
        per_joint["th_l"][:] = np.nan
        per_joint["th_r"][:] = np.nan
        per_joint["q_l"][0] = -0.0
        per_joint["qd_r"][1] = np.inf
        per_joint["tau_l"][2] = -np.inf
        per_joint["f_r"][3, -1] = 0.0
        energy = rng.normal(size=rows)
        energy[4] = -0.0
        return ft.SimTrace(t=np.arange(rows) * 1e-3, err_norm=np.abs(rng.normal(size=rows)),
                           energy=energy, **per_joint)

    @pytest.mark.parametrize("block", [256, 3], ids=["one-block", "three-blocks"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bytes_equal_savetxt(self, tmp_path, n, block, monkeypatch):
        trace = self._special_trace(n)
        np.savetxt(tmp_path / "ref.csv", trace.matrix(), fmt="%.17g", delimiter=",",
                   header=trace.header(), comments="")
        monkeypatch.setattr(closed_loop_sim, "_CSV_BLOCK", block)
        trace.to_csv(tmp_path / "path.csv")
        with open(tmp_path / "file.csv", "w") as fh:   # an open file
            trace.to_csv(fh)
        expected = (tmp_path / "ref.csv").read_bytes()
        assert (tmp_path / "path.csv").read_bytes() == expected
        assert (tmp_path / "file.csv").read_bytes() == expected
        back = ft.SimTrace.from_csv(tmp_path / "path.csv")
        assert np.array_equal(back.matrix(), trace.matrix(), equal_nan=True)
        assert np.array_equal(np.signbit(back.matrix()), np.signbit(trace.matrix()))

    def test_rejects_a_file_without_samples(self, tmp_path):
        path = tmp_path / "trace.csv"
        ft.run(_scenario(horizon=0.05)).to_csv(path)
        for body in ("", "\n", " \n\n"):
            path.write_text(path.read_text().splitlines()[0] + "\n" + body)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no samples$"):
                    ft.SimTrace.from_csv(path)


class TestEnergyAudit:
    def test_refuses_forced_traces(self):
        scenario = _scenario(horizon=0.2, profile_r=ft.ForceProfile(
            kind="pulse", start=0.0, stop=0.1, amplitude=np.array([1.0, 0.0])))
        trace = ft.run(scenario)
        with pytest.raises(ValueError, match="free-motion"):
            ft.energy_audit(trace, scenario.config, scenario.params_l, scenario.params_r)

    def test_needs_the_step_of_a_reloaded_trace(self, tmp_path, c1_run):
        # the sample interval is not the step: at decimation 10 dt it made the
        # tolerance 10 times too loose, and a rise flagged in memory passed
        cfg, trace = c1_run.scenario, c1_run.trace
        args = (cfg.config, cfg.params_l, cfg.params_r)
        tol = ft.energy_audit(trace, *args).step_increase_tol
        lifted = replace(trace, energy=trace.energy.copy())
        lifted.energy[-1000:] += 3 * tol
        rise = [trace.samples - 1001]   # the interval into the first lifted sample
        assert ft.energy_audit(lifted, *args).flagged.tolist() == rise
        lifted.to_csv(tmp_path / "lifted.csv")
        with pytest.raises(ValueError, match=r"^energy audit requires the run's step dt > 0, "
                                             r"got dt = nan: read a CSV trace with "
                                             r"SimTrace\.from_csv\(path, dt=\.\.\.\)$"):
            ft.energy_audit(ft.SimTrace.from_csv(tmp_path / "lifted.csv"), *args)
        reloaded = ft.SimTrace.from_csv(tmp_path / "lifted.csv", dt=cfg.dt)
        audit = ft.energy_audit(reloaded, *args)
        assert audit.step_increase_tol == tol
        assert audit.flagged.tolist() == rise

    @pytest.mark.parametrize("dt", [0.0, -1e-4, np.inf], ids=str)
    def test_refuses_a_trace_without_a_step(self, c1_run, dt):
        cfg = c1_run.scenario
        with pytest.raises(ValueError, match=f"got dt = {dt!r}:"):
            ft.energy_audit(replace(c1_run.trace, dt=dt), cfg.config, cfg.params_l, cfg.params_r)

    @pytest.mark.parametrize("variant", ["C1", "C2", "C3", "C4"])
    def test_clean_free_motion(self, variant):
        scenario = _scenario(variant, horizon=1.0, dt=1e-4, decimation=1e-3)
        trace = ft.run(scenario)
        audit = ft.energy_audit(trace, scenario.config, scenario.params_l, scenario.params_r)
        assert np.all(audit.hdot_analytic <= 0.0)
        assert audit.ok
        # the sampled decrement tracks the analytic rate
        mid = 0.5 * (audit.hdot_analytic[1:] + audit.hdot_analytic[:-1])
        scale = max(1.0, np.abs(mid).max())
        assert np.max(np.abs(audit.hdot_numeric - mid)) / scale < 0.05


class TestPassivityLedger:
    def test_zero_forces_zero_budget(self):
        trace = ft.run(_scenario(horizon=0.2))
        ledger = ft.passivity_ledger(trace)
        np.testing.assert_array_equal(ledger.kappa, np.zeros(2))
        np.testing.assert_array_equal(ledger.work, np.zeros_like(ledger.work))
        assert np.all(ledger.ledger(0) >= 0.0)

    def test_spring_budget_bounded_by_stored_energy(self):
        profile = ft.ForceProfile(kind="spring_damper",
                                  stiffness=np.array([30.0, 30.0]),
                                  damping=np.array([2.0, 2.0]),
                                  anchor=np.zeros(2))
        scenario = _scenario(horizon=2.0, dt=1e-4, decimation=1e-3, profile_r=profile)
        trace = ft.run(scenario)
        ledger = ft.passivity_ledger(trace)
        stored = profile.spring_energy(scenario.q0_r)
        assert ledger.kappa[1] <= stored * (1 + 1e-6)
        assert ledger.kappa[0] == 0.0
        assert np.all(stored - ledger.work[1] >= -1e-9)

    def test_pulse_budget_matches_injected_work(self):
        profile = ft.ForceProfile(kind="pulse", start=0.05, stop=0.25,
                                  amplitude=np.array([3.0, -2.0]))
        scenario = _scenario(horizon=1.0, dt=1e-4, decimation=1e-3, profile_r=profile)
        trace = ft.run(scenario)
        ledger = ft.passivity_ledger(trace)
        power = np.sum(trace.qd_r * trace.f_r, axis=1)
        injected = np.max(np.concatenate(
            [[0.0], np.cumsum(0.5 * (power[1:] + power[:-1]) * np.diff(trace.t))]))
        assert ledger.kappa[1] == pytest.approx(injected, rel=1e-12, abs=1e-15)
        assert np.all(ledger.ledger(1) >= -1e-12)


class TestForceProfiles:
    def test_pulse_window(self):
        profile = ft.ForceProfile(kind="pulse", start=1.0, stop=2.0,
                                  amplitude=np.array([5.0, 0.0]))
        # dt = 1/64 s keeps the recorded times 0.5, 1.5 and 2.0 exact
        trace = ft.run(_scenario(horizon=2.0, dt=1 / 64, decimation=0.5, profile_r=profile))
        f_r = dict(zip(trace.t.tolist(), trace.f_r))
        np.testing.assert_array_equal(f_r[0.5], np.zeros(2))
        np.testing.assert_array_equal(f_r[1.5], [5.0, 0.0])
        np.testing.assert_array_equal(f_r[2.0], np.zeros(2))

    def test_pulse_starts_on_its_step(self):
        # at dt 1e-4 the window [0.2, 0.3) holds the steps 2000..2999 exactly
        pulse = ft.ForceProfile(kind="pulse", start=0.2, stop=0.3, amplitude=np.array([2.0, -1.0]))
        trace = ft.run(_scenario(horizon=0.35, dt=1e-4, decimation=1e-4, profile_r=pulse))
        assert trace.samples == 3501
        np.testing.assert_array_equal(np.flatnonzero(trace.f_r.any(axis=1)), np.arange(2000, 3000))

    def test_spring_damper_force(self):
        profile = ft.ForceProfile(kind="spring_damper", stiffness=np.array([10.0, 10.0]),
                                  damping=np.array([1.0, 1.0]), anchor=np.zeros(2))
        trace = ft.run(_scenario(horizon=1e-3, decimation=1e-3, q0_r=np.array([0.5, 0.0]),
                                 qd0_r=np.array([0.0, 2.0]), profile_r=profile))
        np.testing.assert_allclose(trace.f_r[0], [-5.0, -2.0])

    def test_rejects_negative_spring(self):
        with pytest.raises(ValueError, match="passive"):
            ft.ForceProfile(kind="spring_damper", stiffness=np.array([-1.0, 1.0]),
                            anchor=np.zeros(2))

    def test_rejects_bad_pulse_window(self):
        with pytest.raises(ValueError):
            ft.ForceProfile(kind="pulse", start=2.0, stop=1.0, amplitude=np.ones(2))

    @pytest.mark.parametrize("kind, extra, problem", [
        ("pulse", dict(stiffness=[5.0], anchor=[0.0]), "stiffness applies to spring_damper"),
        ("pulse", dict(damping=np.ones(2)), "damping applies to spring_damper"),
        ("zero", dict(amplitude=[3, 4]), "amplitude applies to pulse"),
        ("zero", dict(anchor=np.zeros(2)), "anchor applies to spring_damper"),
        ("zero", dict(stop=1.0), "stop applies to pulse"),
        ("spring_damper", dict(amplitude=np.ones(2)), "amplitude applies to pulse"),
        ("spring_damper", dict(start=0.5), "start applies to pulse"),
    ], ids=["pulse-spring", "pulse-damping", "zero-amplitude", "zero-anchor", "zero-stop",
            "spring-amplitude", "spring-start"])
    def test_rejects_fields_its_kind_does_not_read(self, kind, extra, problem):
        # a dump would silently drop the field; the rule pass named the wrong
        # length of a field no run reads
        fields = {"pulse": dict(start=0.0, stop=1.0, amplitude=np.ones(2)),
                  "spring_damper": dict(stiffness=np.ones(2), anchor=np.zeros(2)),
                  "zero": {}}[kind]
        with pytest.raises(ValueError, match=f"^{problem} profiles only$"):
            ft.ForceProfile(kind=kind, **{**fields, **extra})

    @pytest.mark.parametrize("start, stop", [(np.float64(3.0), 4), (0, np.int64(1))],
                             ids=["float64-start", "int64-stop"])
    def test_window_is_stored_as_floats(self, start, stop):
        profile = ft.ForceProfile(kind="pulse", start=start, stop=stop, amplitude=np.ones(2))
        assert (profile.start, profile.stop) == (start, stop)
        assert type(profile.start) is float and type(profile.stop) is float
        s = replace(ft.read_bundled_scenario("c3_sim"), profile_r=profile)
        assert ft.dump_scenario(ft.parse_scenario(ft.dump_scenario(s))) == ft.dump_scenario(s)

    @pytest.mark.parametrize("changes, problem", [
        (dict(start=True), "start must be a number"), (dict(stop="1.0"), "stop must be a number"),
        (dict(stop=None), "stop must be a number"),
        (dict(start=10**400), "start must lie within the float range"),
        (dict(stop=-10**400), "stop must lie within the float range"),
        (dict(stop=1.0 + 1j), "stop must be a real number"),
    ], ids=["bool-start", "str-stop", "none-stop", "huge-start", "huge-stop", "complex-stop"])
    def test_rejects_a_window_that_is_not_numbers(self, changes, problem):
        with pytest.raises(ValueError, match=f"^{problem}$"):
            ft.ForceProfile(**{"kind": "pulse", "start": 0.0, "stop": 1.0,
                               "amplitude": np.ones(2), **changes})

    @pytest.mark.parametrize("name", ["amplitude", "stiffness", "damping", "anchor"])
    def test_rejects_non_finite_vectors(self, name):
        vectors = dict(amplitude=np.ones(2), stiffness=np.ones(2), damping=np.ones(2),
                       anchor=np.zeros(2))
        vectors[name] = np.array([np.nan, 1.0])
        kind = "pulse" if name == "amplitude" else "spring_damper"
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            ft.ForceProfile(kind=kind, start=0.0, stop=1.0, **vectors)

    @pytest.mark.parametrize("value, problem", [
        # casting a complex vector to float would drop its imaginary part
        (np.array([1 + 1j, 0.0]), "must be real numbers"), ([0.5, 2j], "must be real numbers"),
        ([10**400, 1.0], "must lie within the float range"), (["a", 1.0], "must be numbers"),
        (["9", "-6"], "must be numbers"), ([None, 1.0], "must be numbers"),
    ], ids=["complex-array", "complex-list", "huge-int", "text", "numeric-text", "none-entry"])
    @pytest.mark.parametrize("name", ["amplitude", "stiffness", "damping", "anchor"])
    def test_names_a_vector_that_is_not_real_numbers(self, name, value, problem):
        vectors = dict(amplitude=np.ones(2), stiffness=np.ones(2), damping=np.ones(2),
                       anchor=np.zeros(2))
        vectors[name] = value
        kind = "pulse" if name == "amplitude" else "spring_damper"
        with pytest.raises(ValueError, match=f"^{name} {problem}$"):
            ft.ForceProfile(kind=kind, start=0.0, stop=1.0, **vectors)

    def test_file_rejects_non_finite_vectors(self):
        text = ft.dump_scenario(ft.read_bundled_scenario("c3_sim"))
        with pytest.raises(ft.ScenarioError) as info:
            ft.parse_scenario(text.replace("amplitude = 9.0, -6.0", "amplitude = nan, -6.0"))
        assert info.value.problems == ["[forces.remote] amplitude must be finite"]


class TestEnergyBounds:
    def test_budget_inversion_bounds_initial_state(self):
        scenario = _scenario("C2", horizon=0.1)
        state = scenario.initial_state()
        h0 = ft.shaped_potential(scenario.config, state.local, state.remote, state.ctrl)
        bounds = ft.state_bounds_from_energy(scenario.config, scenario.params_l,
                                             scenario.params_r, h0)
        assert bounds["err_norm"] >= np.linalg.norm(scenario.q0_l - scenario.q0_r)
        assert bounds["vel_norm"][0] == 0.0 or bounds["vel_norm"][0] > 0.0
        assert bounds["theta_err_norm"] is not None

    @pytest.mark.parametrize("budget", [-1.0, np.nan, -np.inf])
    def test_rejects_a_negative_or_nan_budget(self, budget):
        s = _scenario("C4", horizon=0.1)
        with pytest.raises(ValueError, match="energy budget must be nonnegative"):
            ft.state_bounds_from_energy(s.config, s.params_l, s.params_r, budget)

    @pytest.mark.parametrize("variant", ["C1", "C4"])
    def test_infinite_budget_gives_infinite_caps(self, variant):
        s = _scenario(variant, horizon=0.1)
        bounds = ft.state_bounds_from_energy(s.config, s.params_l, s.params_r, np.inf)
        caps = [bounds["err_norm"], *bounds["vel_norm"], *(bounds["theta_err_norm"] or ())]
        assert caps and all(cap == np.inf for cap in caps)

    def test_boundedness_under_passive_environment(self, c2_spring_run):
        trace = c2_spring_run.trace
        scenario = c2_spring_run.scenario
        ledger = ft.passivity_ledger(trace)
        budget = trace.energy[0] + ledger.total_budget
        bounds = ft.state_bounds_from_energy(scenario.config, scenario.params_l,
                                             scenario.params_r, budget)
        assert np.max(trace.err_norm) <= bounds["err_norm"]
        assert np.max(np.linalg.norm(trace.qd_l, axis=1)) <= bounds["vel_norm"][0]
        assert np.max(np.linalg.norm(trace.qd_r, axis=1)) <= bounds["vel_norm"][1]
        theta_err_l = np.linalg.norm(trace.th_l - trace.q_l, axis=1)
        theta_err_r = np.linalg.norm(trace.th_r - trace.q_r, axis=1)
        assert np.max(theta_err_l) <= bounds["theta_err_norm"][0]
        assert np.max(theta_err_r) <= bounds["theta_err_norm"][1]
