"""Benchmark of ftteleop, end to end and layer by layer.

    python3 bench/run.py --workload {bundled,sweep,verify} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. The package is imported from ./src, never from
an installed copy; without ./src/ftteleop the benchmark exits with code 2.
With --trace 0 it sets the workload up five times, repeats whole rounds of
the workload for --seconds seconds, checks the outputs and prints the
end-to-end metrics in reference seconds (see speed.py). With --trace 1 it
runs the layer microbenchmarks, the per-step call counts and one traced
round, and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See bench/README.md.
"""

from __future__ import annotations

import os

# one process, no extra threads: pin BLAS before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
SETUP_PROBES = 3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("bundled", "sweep", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_package():
    """Put ./src first on the path and make sure ftteleop comes from there."""
    if not os.path.isfile(os.path.join(SRC, "ftteleop", "__init__.py")):
        raise ImportError(f"no ftteleop package under {SRC}")
    sys.path.insert(0, SRC)
    import ftteleop
    if os.path.dirname(os.path.dirname(os.path.abspath(ftteleop.__file__))) != SRC:
        raise ImportError(f"ftteleop was imported from {ftteleop.__file__}, not {SRC}")


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _run_timed(workload, seconds):
    setups, probes = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
        probes += [speed.probe() for _ in range(SETUP_PROBES)]
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(workload.round())
    problems = workload.final_check()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # each segment's median over rounds, so that a slow moment of the
    # machine moves one segment of one round, not the whole figure
    median = {name: statistics.median(r.segments[name] for r in rounds)
              for name in rounds[0].segments}
    untimed = statistics.median(r.wall - sum(r.probes) - sum(r.segments.values())
                                for r in rounds)
    times = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(median.values()) + untimed,
        "op_s": sum(v for k, v in median.items() if k.startswith("op:")) / workload.main_ops,
    }
    probes += [p for r in rounds for p in r.probes]
    k = speed.scale(probes)
    print(f"measured seconds: {times}; probe median {statistics.median(probes):.6g} s, "
          f"so reference seconds = measured x {k:.4f}", file=sys.stderr)
    metrics = {name: _metric(value * k, "s") for name, value in times.items()}
    metrics["peak_rss_mb"] = _metric(peak_mb, "MB")
    return rounds, problems, metrics


def _run_traced(workload, seed, workdir):
    import layers
    workload.setup()
    metrics = {name: _metric(value, unit)
               for name, (value, unit) in layers.microbenchmarks(seed, workdir).items()}
    metrics.update({name: _metric(value, "count")
                    for name, value in layers.step_counts().items()})
    rounds = [workload.round(), workload.round()]   # the first warms caches
    tracer = layers.Tracer()
    with tracer.patched():
        rounds.append(workload.round())
    untraced, traced = (r.wall - sum(r.probes) for r in rounds[-2:])
    metrics.update({f"trace.{layer}_self_s": _metric(value, "s")
                    for layer, value in tracer.layer_self_times(traced).items()})
    metrics["trace.overhead_s"] = _metric(traced - untraced, "s")
    return rounds, workload.final_check(), metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        _import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            rounds, problems, metrics = _run_traced(workload, args.seed, workdir)
        else:
            rounds, problems, metrics = _run_timed(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for r in rounds for p in r.problems] + problems
    for problem in dict.fromkeys(problems):
        print(f"wrong output: {problem}", file=sys.stderr)
    for failure in dict.fromkeys(f for r in rounds for f in r.failures):
        print(f"failed operation: {failure}", file=sys.stderr)
    failed = sum(len(r.failures) for r in rounds)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": failed,
        "metrics": metrics,
    }
    print(f"{args.workload}: {len(rounds)} rounds, {result['attempted']} operations, "
          f"{failed} failed", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
