"""Golden traces: the integrator must keep reproducing recorded runs.

The reference traces in ``golden_traces.npz`` were recorded from the
per-step object engine that preceded the batched engine. They hold 0.5 s
slices of the five bundled scenarios, each with forward Euler at its native
dt and with RK4 at dt = 5e-4 (decimation 2e-3), one delayed Euler slice of
c1_sim, and c4_sim (Euler and RK4) and c3_sim (Euler) slices with the
force pulse moved inside the slice. Only every ``STRIDE``-th recorded
sample is stored; the c4_sim RK4 and c3_sim pulse rows were added later,
recorded from the engine before it was evaluated in place, without
re-recording the others. So were the two rows of a heterogeneous 3-link
pair (a C1 Euler and a C2 RK4 slice), recorded from the engine before its
Coriolis sum and solve called numpy's C entry points directly: at n = 2
each Coriolis row has one nonzero term, so only n >= 3 can see a change in
the order that sum is taken in.

The c4_sim_pulse and c3_sim_pulse rows were re-recorded, and only they,
when the engine stopped summing its clock step by step and took t = k dt
from the step schedule. At dt 1e-4 the running sum read 0.1999999999999943
at step 2000, so the pulse on [0.2, 0.3) began one step late (steps 2001 to
3000); it now acts on steps 2000 to 2999. Every state column of both new
rows equals, bit for bit, the old engine run with each pulse edge lowered by
1e-9 s. The other 14 rows are kept as recorded: their state columns did not
move, and their t columns moved by at most 3.9e-14 s, within TOL.

Regenerate (only when a change of the model itself is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ftteleop as ft
from conftest import random_chain

GOLDEN = Path(__file__).with_name("golden_traces.npz")
BUNDLED = ("c1_sim", "c2_sim", "c3_sim", "c4_sim", "c1_spring")
SLICE = 0.5
STRIDE = 5
TOL = 1e-10


def golden_scenarios() -> dict:
    """Slice name -> scenario, in a fixed order."""
    out = {}
    for name in BUNDLED:
        base = replace(ft.read_bundled_scenario(name), horizon=SLICE)
        out[f"{name}_euler"] = base
        out[f"{name}_rk4"] = replace(base, integrator="rk4", dt=5e-4, decimation=2e-3)
    c1 = out["c1_sim_euler"]
    out["c1_sim_delay"] = replace(c1, delay=5e-3)
    for key, base in (("c4_sim_pulse", "c4_sim_euler"), ("c4_sim_pulse_rk4", "c4_sim_rk4"),
                      ("c3_sim_pulse", "c3_sim_euler")):   # the pulse inside the slice
        base = out[base]
        out[key] = replace(base, profile_r=replace(base.profile_r, start=0.2, stop=0.3))
    # a heterogeneous 3-link pair, with the bundled gains
    arms = [ft.RobotParams(**random_chain(np.random.default_rng(seed), 3)) for seed in (31, 32)]
    for key, base in (("chain3_c1_euler", "c1_sim_rk4"), ("chain3_c2_rk4", "c2_sim_rk4")):
        base = out[base]
        config = ft.ControllerConfig.build(
            variant=base.config.variant, n=3, weights=base.config.weights, k_s=6.0,
            **({"d_s": 8.0} if base.config.variant == "C1" else {"k_c": 20.0, "d_c": 8.0}))
        out[key] = replace(base, params_l=arms[0], params_r=arms[1], config=config,
                           q0_l=np.array([1.0, -0.4, 0.6]), q0_r=np.array([1.3, 0.3, -0.2]),
                           qd0_l=np.array([0.0, 0.5, -0.3]), qd0_r=None, theta0_l=None,
                           theta0_r=None, integrator=key.rsplit("_", 1)[1])
    return {key: replace(s, label=key) for key, s in out.items()}


def _gap(trace: ft.SimTrace, expected: np.ndarray) -> float:
    got = trace.matrix()[::STRIDE]
    assert got.shape == expected.shape
    assert np.array_equal(np.isnan(got), np.isnan(expected))
    return float(np.nanmax(np.abs(got - expected)))


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return {key: data[key] for key in data.files}


def test_golden_file_covers_every_slice(golden):
    assert sorted(golden) == sorted(golden_scenarios())
    assert GOLDEN.stat().st_size < 300_000


@pytest.mark.parametrize("key", list(golden_scenarios()))
def test_run_matches_golden(golden, key):
    assert _gap(ft.run(golden_scenarios()[key]), golden[key]) <= TOL


def test_mixed_run_batch_matches_golden(golden):
    scenarios = golden_scenarios()
    traces = ft.run_batch(list(scenarios.values()))
    gaps = {key: _gap(trace, golden[key]) for key, trace in zip(scenarios, traces)}
    assert max(gaps.values()) <= TOL, gaps


_PUBLIC_FORMS = """
import sys
import numpy as np
import numpy._core.multiarray, numpy.linalg._umath_linalg
del numpy._core.multiarray.c_einsum, numpy.linalg._umath_linalg.solve1
import ftteleop as ft
from ftteleop import robot_dynamics
from test_golden import golden_scenarios
bound = (robot_dynamics._c_einsum, robot_dynamics._solve1)
assert all(f.__module__ == "ftteleop.robot_dynamics" for f in bound), bound
np.savez(sys.argv[1], **{key: ft.run(s).matrix() for key, s in golden_scenarios().items()})
"""


def test_public_numpy_forms_give_the_same_bits(tmp_path):
    # a fresh interpreter whose numpy lacks the private C entry points binds
    # the public forms at import; every slice keeps its bits
    path = tmp_path / "public.npz"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(ft.__file__).parent.parent), str(Path(__file__).parent),
        os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", _PUBLIC_FORMS, str(path)],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    with np.load(path) as public:
        assert sorted(public.files) == sorted(golden_scenarios())
        for key, s in golden_scenarios().items():
            np.testing.assert_array_equal(public[key], ft.run(s).matrix(), err_msg=key)


if __name__ == "__main__":
    slices = golden_scenarios()
    np.savez_compressed(GOLDEN, **{key: ft.run(s).matrix()[::STRIDE]
                                   for key, s in slices.items()})
    print(f"wrote {len(slices)} slices to {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
