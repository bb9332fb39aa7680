"""Shared fixtures: the benchmark arm and the expensive session-scoped runs."""

import time
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import settings

import ftteleop as ft

settings.register_profile("numeric", deadline=None, max_examples=100)
settings.load_profile("numeric")


BENCHMARK = dict(
    masses=[1.8, 1.6],
    lengths=[0.8, 0.6],
    com_offsets=[0.4, 0.3],
    inertias=[0.096, 0.048],
)


def random_chain(rng, n):
    """A random planar n-link chain, drawn as the benchmark draws its chains."""
    lengths = rng.uniform(0.3, 1.0, n)
    return dict(masses=rng.uniform(0.5, 2.0, n), lengths=lengths,
                com_offsets=lengths * rng.uniform(0.2, 0.9, n),
                inertias=rng.uniform(0.005, 0.1, n))


@dataclass(frozen=True)
class TimedRun:
    """One member of a batched run; ``wall`` is the wall time of the whole
    run_batch call that held it."""

    trace: ft.SimTrace
    wall: float
    scenario: object


def _timed_batch(scenarios: dict) -> dict:
    """Integrate the named scenarios in one run_batch call."""
    start = time.perf_counter()
    traces = ft.run_batch(scenarios.values())
    wall = time.perf_counter() - start
    return {name: TimedRun(trace=trace, wall=wall, scenario=scenario)
            for (name, scenario), trace in zip(scenarios.items(), traces)}


@pytest.fixture(scope="session")
def benchmark_params() -> ft.RobotParams:
    return ft.RobotParams(**BENCHMARK)


@pytest.fixture(scope="session")
def benchmark_params_flat() -> ft.RobotParams:
    return ft.RobotParams(**BENCHMARK, gravity=0.0)


@pytest.fixture(scope="session")
def c1_config() -> ft.ControllerConfig:
    return ft.ControllerConfig.build(
        variant="C1", n=2, weights=(1.5, 1.0), k_s=6.0, d_s=8.0)


@pytest.fixture(scope="session")
def euler_runs() -> dict:
    """The Euler runs at the bundled dt 1e-4, as one batched call."""
    c1 = ft.read_bundled_scenario("c1_sim")
    spring = ft.read_bundled_scenario("c1_spring")
    c2_spring = ft.ControllerConfig.build(
        variant="C2", n=2, weights=(1.5, 1.0), k_s=6.0, k_c=20.0, d_c=8.0)
    return _timed_batch({
        "c1": c1,
        "c1_asymptotic": ft.with_weights(c1, 1.0, 1.0),
        "c2": ft.read_bundled_scenario("c2_sim"),
        "c3": ft.read_bundled_scenario("c3_sim"),
        "c4": ft.read_bundled_scenario("c4_sim"),
        "spring": spring,
        # the output-feedback variant under the same passive environment
        "c2_spring": replace(spring, config=c2_spring, horizon=4.0),
    })


@pytest.fixture(scope="session")
def rk4_runs() -> dict:
    """High-accuracy RK4 twins of C2 and C4 for tail-behavior checks.

    Forward Euler chatters at the non-smooth origin with velocity amplitude
    above 1e-3; the RK4 option resolves the converged tail cleanly."""
    return _timed_batch({
        name: replace(ft.read_bundled_scenario(f"{name}_sim"), integrator="rk4",
                      dt=5e-4, decimation=2e-3)
        for name in ("c2", "c4")
    })


@pytest.fixture(scope="session")
def c1_run(euler_runs) -> TimedRun:
    """The bundled free-motion C1 benchmark at its native resolution."""
    return euler_runs["c1"]


@pytest.fixture(scope="session")
def c1_run_half_dt() -> TimedRun:
    cfg = ft.read_bundled_scenario("c1_sim")
    return _timed_batch({"c1": replace(cfg, dt=cfg.dt / 2.0)})["c1"]


@pytest.fixture(scope="session")
def c1_asymptotic_run(euler_runs) -> TimedRun:
    return euler_runs["c1_asymptotic"]


@pytest.fixture(scope="session")
def c2_run(euler_runs) -> TimedRun:
    return euler_runs["c2"]


@pytest.fixture(scope="session")
def c3_run(euler_runs) -> TimedRun:
    return euler_runs["c3"]


@pytest.fixture(scope="session")
def c4_run(euler_runs) -> TimedRun:
    return euler_runs["c4"]


@pytest.fixture(scope="session")
def c2_rk4_run(rk4_runs) -> TimedRun:
    return rk4_runs["c2"]


@pytest.fixture(scope="session")
def c4_rk4_run(rk4_runs) -> TimedRun:
    return rk4_runs["c4"]


@pytest.fixture(scope="session")
def spring_run(euler_runs) -> TimedRun:
    return euler_runs["spring"]


@pytest.fixture(scope="session")
def c2_spring_run(euler_runs) -> TimedRun:
    return euler_runs["c2_spring"]
