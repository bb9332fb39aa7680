"""Scenario-file grammar, validation reporting and the CLI front end."""

import os
import stat
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import ftteleop as ft
from ftteleop.cli import run_command

FAST_SCENARIO = """
[robot.local]
masses = 1.8, 1.6
lengths = 0.8, 0.6
com_offsets = 0.4, 0.3
inertias = 0.096, 0.048
gravity = 9.81
torque_limits = unlimited

[robot.remote]
masses = 1.8, 1.6
lengths = 0.8, 0.6
com_offsets = 0.4, 0.3
inertias = 0.096, 0.048
gravity = 9.81
torque_limits = unlimited

[controller]
variant = C1
r1 = 1.5
r2 = 1.0
k_s = 6.0
d_s = 8.0

[initial]
q_local = 1.0, -0.4
q_remote = 1.3, 0.3

[forces.local]
kind = zero

[forces.remote]
kind = zero

[simulation]
horizon = 0.5
dt = 1e-3
decimation = 1e-2
"""


def _write(tmp_path, text, name="fast.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadScenario:
    def test_bundled_benchmark_values(self):
        cfg = ft.read_bundled_scenario("c1_sim")
        np.testing.assert_array_equal(cfg.params_l.masses, [1.8, 1.6])
        np.testing.assert_array_equal(cfg.params_l.lengths, [0.8, 0.6])
        np.testing.assert_array_equal(cfg.params_l.com_offsets, [0.4, 0.3])
        np.testing.assert_array_equal(cfg.params_l.inertias, [0.096, 0.048])
        assert cfg.config.variant == "C1"
        assert cfg.config.weights.r1 == 1.5
        assert cfg.config.weights.r2 == 1.0
        np.testing.assert_array_equal(cfg.config.k_s, [6.0, 6.0])
        np.testing.assert_array_equal(cfg.config.d_s, np.full((2, 2), 8.0))
        np.testing.assert_array_equal(cfg.q0_l, [1.0, -0.4])
        np.testing.assert_array_equal(cfg.q0_r, [1.3, 0.3])
        assert cfg.dt == 1e-4
        assert cfg.horizon == 8.0
        assert cfg.integrator == "euler"

    def test_all_bundled_scenarios_load(self):
        for name in ft.bundled_scenario_names():
            cfg = ft.read_bundled_scenario(name)
            assert cfg.params_l.n == 2

    def test_collects_every_problem(self, tmp_path):
        text = FAST_SCENARIO.replace("masses = 1.8, 1.6", "masses = -1, 1.6", 1)
        text = text.replace("r1 = 1.5", "r1 = 2.0")
        with pytest.raises(ft.ScenarioError) as info:
            ft.load_scenario(_write(tmp_path, text))
        message = str(info.value)
        assert "masses" in message
        assert "discontinuous" in message

    def test_rejects_inverted_weights(self, tmp_path):
        text = FAST_SCENARIO.replace("r1 = 1.5", "r1 = 0.8")
        with pytest.raises(ft.ScenarioError, match="ordering"):
            ft.load_scenario(_write(tmp_path, text))

    def test_rejects_saturation_budget_overrun(self, tmp_path):
        text = FAST_SCENARIO.replace("variant = C1", "variant = C3")
        text = text.replace("d_s = 8.0", "d_s = 8.0\ndelta_p = 1.0\ndelta_d = 1.0")
        text = text.replace("torque_limits = unlimited", "torque_limits = 30.0, 12.0")
        with pytest.raises(ft.ScenarioError, match="saturation condition"):
            ft.load_scenario(_write(tmp_path, text))

    def test_unknown_keys_and_sections_flagged(self, tmp_path):
        text = FAST_SCENARIO + "\n[mystery]\nvalue = 1\n"
        text = text.replace("kind = zero", "kind = zero\nbogus = 3", 1)
        with pytest.raises(ft.ScenarioError) as info:
            ft.load_scenario(_write(tmp_path, text))
        assert "unknown section [mystery]" in str(info.value)
        assert "unknown key 'bogus'" in str(info.value)

    def test_rejects_binary(self, tmp_path):
        path = tmp_path / "bin.cfg"
        path.write_bytes(b"\x00\x01\x02binary")
        with pytest.raises(ft.ScenarioError, match="binary"):
            ft.load_scenario(str(path))

    def test_missing_sections_reported(self, tmp_path):
        with pytest.raises(ft.ScenarioError) as info:
            ft.load_scenario(_write(tmp_path, "[controller]\nvariant = C1\n"))
        message = str(info.value)
        assert "[robot.local]" in message
        assert "[initial]" in message

    def test_parse_error_carries_line_number(self, tmp_path):
        text = FAST_SCENARIO.replace("k_s = 6.0", "k_s 6.0")
        with pytest.raises(ft.ScenarioError, match="line"):
            ft.load_scenario(_write(tmp_path, text))

    def test_dt_decimation_consistency(self, tmp_path):
        text = FAST_SCENARIO.replace("dt = 1e-3", "dt = 3e-2")
        with pytest.raises(ft.ScenarioError, match="decimation"):
            ft.load_scenario(_write(tmp_path, text))

    def test_delay_needs_euler(self, tmp_path):
        text = FAST_SCENARIO.replace("decimation = 1e-2",
                                     "decimation = 1e-2\nintegrator = rk4\ndelay = 2e-3")
        with pytest.raises(ft.ScenarioError, match="delay > 0 requires integrator = euler"):
            ft.load_scenario(_write(tmp_path, text))

    def test_per_robot_overrides(self, tmp_path):
        text = FAST_SCENARIO.replace(
            "d_s = 8.0", "d_s_local = 8.0\nd_s_remote = 2.0, 3.0")
        cfg = ft.load_scenario(_write(tmp_path, text))
        np.testing.assert_array_equal(cfg.config.d_s[0], [8.0, 8.0])
        np.testing.assert_array_equal(cfg.config.d_s[1], [2.0, 3.0])

    def test_per_robot_pair_of_different_lengths(self, tmp_path):
        text = FAST_SCENARIO.replace(
            "d_s = 8.0", "d_s_local = 8.0, 7.0\nd_s_remote = 2.0, 3.0, 4.0")
        with pytest.raises(ft.ScenarioError) as info:
            ft.load_scenario(_write(tmp_path, text))
        assert "[controller] d_s_local and d_s_remote have different lengths" in \
            info.value.problems

    @pytest.mark.parametrize("gains, problem", [
        ("d_s_local = 8.0, 7.0\nd_s_remote = 2.0, 3.0, 4.0",
         "[controller] d_s_local and d_s_remote have different lengths"),
        ("d_s_local = 8.0", "[controller] d_s_local and d_s_remote must be given together"),
    ], ids=["different-lengths", "local-only"])
    def test_failed_gain_pair_is_the_only_problem(self, tmp_path, gains, problem):
        text = FAST_SCENARIO.replace("d_s = 8.0", gains)
        with pytest.raises(ft.ScenarioError) as info:
            ft.load_scenario(_write(tmp_path, text))
        assert info.value.problems == [problem]


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["c1_sim", "c2_sim", "c3_sim", "c4_sim", "c1_spring"])
    def test_dump_parse_fixed_point(self, name):
        cfg = ft.read_bundled_scenario(name)
        text = ft.dump_scenario(cfg)
        back = ft.parse_scenario(text, label=cfg.label)
        assert ft.dump_scenario(back) == text
        np.testing.assert_array_equal(back.q0_l, cfg.q0_l)
        np.testing.assert_array_equal(back.config.k_s, cfg.config.k_s)
        assert back.config.variant == cfg.config.variant
        assert back.dt == cfg.dt
        assert back.horizon == cfg.horizon
        assert back.profile_r.kind == cfg.profile_r.kind

    def test_library_scenario_round_trip(self):
        # the README's library example, shortened
        params = ft.RobotParams(masses=[1.8, 1.6], lengths=[0.8, 0.6],
                                com_offsets=[0.4, 0.3], inertias=[0.096, 0.048])
        config = ft.ControllerConfig.build(variant="C1", n=2, weights=(1.5, 1.0),
                                           k_s=6.0, d_s=8.0)
        scenario = ft.Scenario(params_l=params, params_r=params, config=config,
                               q0_l=np.array([1.0, -0.4]), q0_r=np.array([1.3, 0.3]),
                               horizon=0.05, dt=1e-4, decimation=1e-3)
        text = ft.dump_scenario(scenario)
        back = ft.parse_scenario(text)
        assert type(back) is ft.Scenario
        assert ft.dump_scenario(back) == text

    def test_output_paths_are_scenario_fields(self, tmp_path):
        text = FAST_SCENARIO + "\n[output]\ntrace = a.csv\naudit = b.csv\n"
        cfg = ft.load_scenario(_write(tmp_path, text))
        assert (cfg.trace_path, cfg.report_path, cfg.audit_path) == ("a.csv", None, "b.csv")
        assert ft.dump_scenario(cfg).endswith("[output]\ntrace = a.csv\naudit = b.csv\n\n")
        moved = replace(cfg, report_path="r.txt")
        assert ft.parse_scenario(ft.dump_scenario(moved)).report_path == "r.txt"

    def test_weight_swap_helper(self):
        cfg = ft.read_bundled_scenario("c1_sim")
        twin = ft.with_weights(cfg, 1.0, 1.0)
        assert twin.config.weights.r1 == 1.0
        assert twin.config.p_pos == 1.0
        np.testing.assert_array_equal(twin.config.k_s, cfg.config.k_s)


class TestCli:
    def test_simulate_writes_outputs(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, FAST_SCENARIO)
        code = run_command(["simulate", cfg_path, "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "t* ~" in out
        assert (tmp_path / "fast_trace.csv").exists()
        assert (tmp_path / "fast_report.txt").exists()
        trace = ft.SimTrace.from_csv(tmp_path / "fast_trace.csv")
        assert trace.samples == 51

    def test_failed_trace_write_leaves_no_file(self, tmp_path, capsys):
        # the trace goes through a temp file renamed into place, like the report
        cfg_path = _write(tmp_path, FAST_SCENARIO)
        out = tmp_path / "out"

        def fail_partway(fh, *args, **kwargs):
            fh.write("t,ql1,ql2\n0,1.0")
            raise OSError("no space left on device")

        with mock.patch("numpy.savetxt", side_effect=fail_partway), \
                pytest.raises(OSError, match="no space left"):
            run_command(["simulate", cfg_path, "--out", str(out)])
        assert sorted(p.name for p in out.iterdir()) == []

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_outputs_follow_the_umask(self, tmp_path, capsys, umask, mode):
        cfg_path = _write(tmp_path, FAST_SCENARIO)
        out = tmp_path / "out"
        previous = os.umask(umask)
        try:
            for command in ("simulate", "compare", "audit"):
                run_command([command, cfg_path, "--out", str(out)])
        finally:
            os.umask(previous)
        names = ["fast_audit.csv", "fast_compare.txt", "fast_report.txt", "fast_trace.csv"]
        assert sorted(p.name for p in out.iterdir()) == names   # no temp file left
        for name in names:
            assert stat.S_IMODE((out / name).stat().st_mode) == mode, name

    def test_simulate_accepts_bundled_name(self, tmp_path, capsys):
        code = run_command(["simulate", "c1_sim", "--out", str(tmp_path),
                            "--dt", "2e-3"])
        # coarse override keeps this fast; convergence quality is irrelevant
        assert code in (0, 4)

    def test_missing_file_exit_code(self, capsys):
        assert run_command(["simulate", "no_such_scenario.cfg"]) == 2

    def test_invalid_scenario_exit_code(self, tmp_path, capsys):
        bad = _write(tmp_path, FAST_SCENARIO.replace("r1 = 1.5", "r1 = 2.0"))
        assert run_command(["simulate", bad]) == 3
        assert "discontinuous" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_oversized_trace_exit_code(self, tmp_path, capsys, command):
        bad = _write(tmp_path, FAST_SCENARIO.replace("horizon = 0.5", "horizon = 1e6"))
        assert run_command([command, bad, "--out", str(tmp_path)]) == 3
        assert "the trace must hold at most 10000000 samples" in capsys.readouterr().err

    @pytest.mark.parametrize("edits, problem", [
        ({"horizon = 0.5": "horizon = 1e308"}, "the trace must hold at most 10000000 samples"),
        ({"decimation = 1e-2": "decimation = 1e308"}, "decimation / dt must be finite"),
        ({"horizon = 0.5": "horizon = 1e306", "decimation = 1e-2": "decimation = 1e300"},
         "horizon / dt must be finite"),
        ({"decimation = 1e-2": "decimation = 1e-2\ndelay = 1e308"}, "delay / dt must be finite"),
    ], ids=["horizon", "decimation", "horizon-over-dt", "delay"])
    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_overflowing_step_ratio_exit_code(self, tmp_path, capsys, command, edits, problem):
        text = FAST_SCENARIO
        for old, new in edits.items():
            text = text.replace(old, new)
        bad = _write(tmp_path, text)
        assert run_command([command, bad, "--out", str(tmp_path)]) == 3
        assert f"[simulation] {problem}" in capsys.readouterr().err

    def test_long_run_exit_code(self, tmp_path, capsys):
        # finite ratios (10^5 samples) but 10^308 steps; validate only, so that
        # a regression fails here instead of integrating without end
        bad = _write(tmp_path, FAST_SCENARIO.replace("horizon = 0.5", "horizon = 1e305")
                     .replace("decimation = 1e-2", "decimation = 1e300"))
        assert run_command(["validate", bad]) == 3
        assert "[simulation] the run must take at most 1000000000 steps (horizon / dt)" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_non_finite_robot_vector_exit_code(self, tmp_path, capsys, command):
        bad = _write(tmp_path, FAST_SCENARIO.replace("masses = 1.8, 1.6", "masses = nan, 1.6", 1))
        assert run_command([command, bad, "--out", str(tmp_path)]) == 3
        assert "[robot.local] invalid robot parameters: masses must be finite" \
            in capsys.readouterr().err

    def test_levels_on_unbounded_variant_exit_code(self, tmp_path, capsys):
        bad = _write(tmp_path, FAST_SCENARIO.replace("d_s = 8.0", "d_s = 8.0\ndelta_p = 0.2"))
        assert run_command(["validate", bad, "--out", str(tmp_path)]) == 3
        assert "[controller] delta_p and delta_d apply to C3/C4 only" in capsys.readouterr().err

    def test_unstable_exit_code(self, tmp_path, capsys):
        text = FAST_SCENARIO.replace("k_s = 6.0", "k_s = 1e9")
        text = text.replace("dt = 1e-3", "dt = 1e-2")
        text = text.replace("decimation = 1e-2", "decimation = 1e-2")
        text = text.replace("horizon = 0.5", "horizon = 20.0")
        with np.errstate(all="ignore"):
            code = run_command(["simulate", _write(tmp_path, text)])
        assert code == 4

    def test_rk4_blow_up_exit_code(self, tmp_path, capsys):
        cfg = ft.read_bundled_scenario("c1_sim")
        path = _write(tmp_path, ft.dump_scenario(replace(cfg, integrator="rk4")), "c1_rk4.cfg")
        with np.errstate(all="ignore"):
            code = run_command(["simulate", path, "--dt", "0.2", "--out", str(tmp_path)])
        assert code == 4
        assert "c1_rk4: non-finite state at t =" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags, problem", [
        ("simulate", ["--dt", "-1"], "dt must be positive"),
        ("simulate", ["--dt", "3e-4"], "decimation must be an integer multiple of dt"),
        ("simulate", ["--delay", "-0.5"], "delay must be nonnegative"),
        ("simulate", ["--delay", "0.002"], "delay > 0 requires integrator = euler"),
        ("simulate", ["--dt", "nan"], "dt must be positive"),
        ("simulate", ["--dt", "inf"], "dt must be finite"),
        ("simulate", ["--delay", "nan"], "delay must be nonnegative"),
        ("simulate", ["--delay", "inf"], "delay must be finite"),
        ("simulate", ["--dt", "20"], "dt must not exceed the horizon"),
    ] + [(command, ["--tol", tol], f"--tol must be positive and finite, got {tol}")
         for command in ("simulate", "compare") for tol in ("-1", "0", "nan", "inf")],
        ids=["negative-dt", "dt-not-dividing-decimation", "negative-delay", "delay-with-rk4",
             "nan-dt", "inf-dt", "nan-delay", "inf-delay", "dt-above-horizon"]
        + [f"{command}-{tol}-tol" for command in ("simulate", "compare")
           for tol in ("negative", "zero", "nan", "inf")])
    def test_override_validated_like_the_file(self, tmp_path, capsys, command, flags, problem):
        text = FAST_SCENARIO.replace("horizon = 0.5", "horizon = 0.01")
        text = text.replace("decimation = 1e-2", "decimation = 1e-3")
        if "--delay" in flags and flags[1] == "0.002":
            text = text.replace("decimation = 1e-3", "decimation = 1e-3\nintegrator = rk4")
        code = run_command([command, _write(tmp_path, text), "--out", str(tmp_path)] + flags)
        assert code == 3
        assert problem in capsys.readouterr().err

    def test_delay_past_the_horizon_runs(self, tmp_path):
        text = FAST_SCENARIO.replace("horizon = 0.5", "horizon = 0.01")
        assert run_command(["simulate", _write(tmp_path, text), "--out", str(tmp_path),
                            "--delay", "1e9"]) == 0

    def test_validate_passes_on_bundled_bounded(self, tmp_path, capsys):
        code = run_command(["validate", "c3_sim", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "margin" in out
        assert "pass" in out

    def test_compare_reports_both_runs(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, FAST_SCENARIO)
        code = run_command(["compare", cfg_path, "--out", str(tmp_path), "--tol", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "finite-time" in out
        assert "asymptotic" in out
        assert (tmp_path / "fast_compare.txt").exists()

    def test_audit_passes_on_fast_scenario(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, FAST_SCENARIO)
        code = run_command(["audit", cfg_path, "--out", str(tmp_path), "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[pass] core degree defect" in out
        assert (tmp_path / "fast_audit.csv").exists()
        table = np.loadtxt(tmp_path / "fast_audit.csv", delimiter=",", skiprows=1)
        assert table.shape[1] == 2
        assert np.all(np.diff(table[:, 0]) < 0)

    def test_negative_audit_seed_exit_code(self, tmp_path, capsys):
        # checked before the run, so nothing is simulated and no table written
        cfg_path = _write(tmp_path, FAST_SCENARIO)
        with mock.patch("ftteleop.cli.run") as simulate:
            code = run_command(["audit", cfg_path, "--out", str(tmp_path), "--seed", "-1"])
        assert code == 3
        err = capsys.readouterr().err
        assert "--seed must be a nonnegative integer, got -1" in err
        assert "Traceback" not in err
        simulate.assert_not_called()
        assert not (tmp_path / "fast_audit.csv").exists()

    def test_config_flag_alias(self, tmp_path):
        cfg_path = _write(tmp_path, FAST_SCENARIO)
        assert run_command(["validate", "--config", cfg_path]) == 0

    @pytest.mark.parametrize("argv, flag", [
        (["simulate", "c1_sim", "--dt", "abc"], "argument --dt: invalid float value: 'abc'"),
        (["audit", "c4_sim", "--seed", "1.5"], "argument --seed: invalid int value: '1.5'"),
        (["audit", "c4_sim", "--tol", "x"], "argument --tol: invalid float value: 'x'"),
        (["simulate", "c1_sim", "--bogus"], "unrecognized arguments: --bogus"),
        (["simulate", "c1_sim", "--dt"], "argument --dt: expected one argument"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
    ], ids=["float-dt", "float-seed", "str-tol", "unknown-flag", "dt-without-value",
            "unknown-command"])
    def test_malformed_flag_exit_code(self, capsys, argv, flag):
        # the invalid-flag code, returned rather than raised, and nothing is run
        with mock.patch("ftteleop.cli.run") as simulate:
            assert run_command(argv) == 3
        err = capsys.readouterr().err
        assert flag in err
        assert "Traceback" not in err
        simulate.assert_not_called()

    @pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            run_command(argv)
        assert info.value.code == 0
        assert "usage: ftteleop" in capsys.readouterr().out

    def test_no_scenario_given(self, capsys):
        assert run_command(["simulate"]) == 2
