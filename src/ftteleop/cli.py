"""Command-line front end: scenario runs, comparisons, audits, validation.

Subcommands:
    simulate   integrate a scenario; write the trace CSV and a text report
    compare    run the scenario and its r1 = r2 (linear) twin side by side
    audit      homogeneity degree check and shrinking-dilation sweep
    validate   configuration checks only (incl. saturation margins)

Exit codes: 0 success, 1 failed check (audit), 2 missing file, 3 invalid
scenario or flag, 4 simulation instability.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import uuid
from dataclasses import replace

import numpy as np

from .closed_loop_sim import (
    SimulationUnstableError,
    convergence_time,
    passivity_ledger,
    run,
    run_batch,
)
from .controllers import validate_saturation
from .homogeneity_audit import (
    HomogeneitySpec,
    check_degree,
    fitted_decay_slope,
    homogeneous_field,
    vanishing_sweep,
)
from .scenario import (
    _OUTPUT_KEYS,
    ScenarioError,
    bundled_scenario_names,
    load_scenario,
    read_bundled_scenario,
    with_weights,
)

__all__ = ["run_command", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_MISSING_FILE = 2
EXIT_BAD_SCENARIO = 3
EXIT_UNSTABLE = 4


def _write_atomic(path: str, content) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # 0o666 under the umask, like open(); mkstemp's 0o600 would survive the rename
    tmp = os.path.join(directory, f".tmp_{uuid.uuid4().hex}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            content(fh) if callable(content) else fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _output_problem(name: str, path: str, directory: str) -> str | None:
    """Named when ``directory``, where ``path`` is written, cannot be made:
    its nearest existing part is not a directory."""
    part = os.path.abspath(directory)
    while not os.path.exists(part):   # the root always exists
        part = os.path.dirname(part)
    if os.path.isdir(part):
        return None
    if part == os.path.abspath(path):
        return f"{name} {path} is not a directory"
    return f"{name} {path} lies under {part}, which is not a directory"


def _load(args):
    # a command's parser holds only the flags it reads
    if "tol" in args and not (args.tol > 0 and math.isfinite(args.tol)):   # NaN fails too
        raise ScenarioError([f"--tol must be positive and finite, got {args.tol:g}"])
    if "seed" in args and args.seed < 0:   # argparse already made it an int
        raise ScenarioError([f"--seed must be a nonnegative integer, got {args.seed}"])
    name = args.scenario
    if name is None:
        raise FileNotFoundError("no scenario given")
    if os.path.exists(name):
        cfg = load_scenario(name)
    elif name in bundled_scenario_names() or f"{name}.cfg" in bundled_scenario_names():
        cfg = read_bundled_scenario(name)
    else:
        raise FileNotFoundError(
            f"scenario '{name}' not found on disk and not bundled "
            f"(bundled: {', '.join(bundled_scenario_names())})")
    # an output directory that cannot be made is named before any run
    outputs = [("--out", args.out, args.out)] if "out" in args else []
    outputs += [(f"[output] {key} =", path, os.path.dirname(path))
                for key in _OUTPUT_KEYS if (path := getattr(cfg, f"{key}_path"))]
    problems = [p for p in (_output_problem(*output) for output in outputs) if p]
    if problems:
        raise ScenarioError(problems)
    overrides = {}
    if args.dt is not None:
        overrides["dt"] = args.dt
        if cfg.decimation < args.dt:
            overrides["decimation"] = args.dt
    if args.delay is not None:
        overrides["delay"] = args.delay
    return replace(cfg, **overrides) if overrides else cfg


def _out_path(args, cfg, suffix: str, explicit: str | None) -> str:
    if explicit:
        return explicit
    return os.path.join(args.out, f"{cfg.label}_{suffix}")


def _settle_text(tstar) -> str:
    return "not reached" if tstar is None else f"{tstar:.1f} s"


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    trace = run(cfg)
    tstar = convergence_time(trace, args.tol)
    ledger = passivity_ledger(trace)
    lines = [
        f"scenario:        {cfg.label} ({cfg.config.variant}, "
        f"r1={cfg.config.weights.r1}, r2={cfg.config.weights.r2})",
        f"horizon:         {cfg.horizon} s at dt = {cfg.dt} s ({cfg.integrator})",
        f"final error:     {trace.err_norm[-1]:.3e} rad",
        f"t* ~ {_settle_text(tstar)} (sustained error norm < {args.tol:g} rad)",
        f"max |tau|:       local {np.abs(trace.tau_l).max():.3f}, "
        f"remote {np.abs(trace.tau_r).max():.3f} N m",
        f"energy:          H(0) = {trace.energy[0]:.6f} J -> "
        f"H(end) = {trace.energy[-1]:.6f} J",
        f"injected energy: kappa_local = {ledger.kappa[0]:.6f} J, "
        f"kappa_remote = {ledger.kappa[1]:.6f} J",
    ]
    report = "\n".join(lines) + "\n"
    trace_path = _out_path(args, cfg, "trace.csv", cfg.trace_path)
    _write_atomic(trace_path, trace.to_csv)
    report_path = _out_path(args, cfg, "report.txt", cfg.report_path)
    _write_atomic(report_path, report)
    print(report, end="")
    print(f"trace written to {trace_path}")
    print(f"report written to {report_path}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    cfg = _load(args)
    results = {}
    traces = run_batch([cfg, with_weights(cfg, 1.0, 1.0)])
    for tag, trace in zip(("finite-time", "asymptotic"), traces):
        tstar = convergence_time(trace, args.tol)
        tail_max = None
        if tstar is not None:
            tail = trace.err_norm[trace.t >= tstar]
            tail_max = float(tail.max()) if tail.size else 0.0
        results[tag] = (tstar, tail_max, float(trace.err_norm[-1]))
    lines = [f"settling comparison at tolerance {args.tol:g} rad "
             f"(weights {cfg.config.weights.r1}/{cfg.config.weights.r2} vs 1.0/1.0):"]
    for tag, (tstar, tail_max, final_err) in results.items():
        extra = "" if tail_max is None else f", post-settling max error {tail_max:.2e}"
        lines.append(f"  {tag:12s} t* = {_settle_text(tstar)}"
                     f" (final error {final_err:.2e}{extra})")
    ft_t, asym_t = results["finite-time"][0], results["asymptotic"][0]
    if ft_t is not None and (asym_t is None or ft_t < asym_t):
        lines.append("  finite-time settles first")
    report = "\n".join(lines) + "\n"
    _write_atomic(_out_path(args, cfg, "compare.txt", None), report)
    print(report, end="")
    return EXIT_OK


def _cmd_audit(args) -> int:
    cfg = _load(args)
    if not cfg.config.weights.is_finite_time:
        print("audit requires a finite-time weight pair (r1 > r2)")
        return EXIT_CHECK_FAILED
    # frozen-inertia point: the consensus the configured run actually reaches
    trace = run(cfg)
    q_c = trace.q_l[-1]
    print(f"consensus position from the configured run: {np.array2string(q_c, precision=6)}")

    spec = HomogeneitySpec.for_config(cfg.config, cfg.params_l.n, seed=args.seed)
    core = homogeneous_field(cfg.config, cfg.params_l, cfg.params_r, q_c)
    defect = check_degree(core, spec)
    degree = cfg.config.weights.degree
    eps, devs = vanishing_sweep(cfg.config, cfg.params_l, cfg.params_r, q_c, spec)
    slope = fitted_decay_slope(eps, devs)
    tail_monotone = bool(np.all(np.diff(devs[-4:]) <= 0.0))
    ratio = devs[-1] / devs[0] if devs[0] > 0 else 0.0

    checks = [
        ("core degree defect <= 1e-9", defect <= 1e-9, f"defect = {defect:.3e}"),
        ("negative degree", degree < 0, f"degree = {degree}"),
        ("sweep tail monotone (last 4)", tail_monotone,
         f"tail = {np.array2string(devs[-4:], precision=3)}"),
        ("sweep shrinks by >= 100x", ratio < 1e-2,
         f"dev({eps[-1]:g}) / dev({eps[0]:g}) = {ratio:.3e}"),
        ("decay slope >= 1.0", slope >= 1.0, f"slope = {slope:.3f}"),
    ]
    csv_lines = ["epsilon,sup_deviation"]
    csv_lines += [f"{e:.17g},{d:.17g}" for e, d in zip(eps, devs)]
    audit_path = _out_path(args, cfg, "audit.csv", cfg.audit_path)
    _write_atomic(audit_path, "\n".join(csv_lines) + "\n")

    all_ok = True
    for label, ok, detail in checks:
        all_ok &= ok
        print(f"[{'pass' if ok else 'FAIL'}] {label}: {detail}")
    print(f"audit table written to {audit_path}")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _cmd_validate(args) -> int:
    cfg = _load(args)  # full validation happens here
    print(f"scenario '{cfg.label}' is valid "
          f"({cfg.config.variant}, {cfg.params_l.n} joints)")
    if cfg.config.is_bounded:
        print(validate_saturation(cfg.config, cfg.params_l, cfg.params_r).describe())
    for side, params in (("local", cfg.params_l), ("remote", cfg.params_r)):
        b = params.bounds
        print(f"{side}: inertia range [{b.inertia_min:.4f}, {b.inertia_max:.4f}], "
              f"coriolis gain {b.coriolis_gain:.4f}, "
              f"gravity caps {np.array2string(b.gravity_caps, precision=4)}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line to run_command instead of exiting."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


_FLAGS = {   # each flag's argparse settings
    "--out": dict(default=".", help="output directory (default: cwd)"),
    "--tol": dict(type=float, default=1e-3, help="settling tolerance on the error norm [rad]"),
    "--dt": dict(type=float, help="override the scenario step size [s]; horizon, "
                 "decimation and delay are whole steps, a smaller decimation is raised"),
    "--delay": dict(type=float, help="experimental: constant exchanged-position delay [s], "
                    "a whole number of dt steps (euler only)"),
    "--seed": dict(type=int, default=0, help="audit sampling seed"),
}


@functools.lru_cache(maxsize=None)   # parsing does not change the parser
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ftteleop",
        description="finite-time energy-shaping teleoperation simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    # each command takes only the flags it reads; any other is unrecognized
    for name, handler, doc, flags in (
        ("simulate", _cmd_simulate, "run one scenario and export trace + report",
         ("--out", "--tol", "--dt", "--delay")),
        ("compare", _cmd_compare, "settle-time comparison against the linear twin",
         ("--out", "--tol", "--dt", "--delay")),
        ("audit", _cmd_audit, "homogeneity degree check and vanishing sweep",
         ("--out", "--dt", "--delay", "--seed")),
        ("validate", _cmd_validate, "validate a scenario and print gain margins",
         ("--dt", "--delay")),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("scenario", nargs="?", help="scenario file path or bundled name")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(handler=handler)
    return parser


def run_command(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"error: {exc} (see ftteleop --help)", file=sys.stderr)
        return EXIT_BAD_SCENARIO
    try:
        return args.handler(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_SCENARIO
    except SimulationUnstableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
