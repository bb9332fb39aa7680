"""Golden audit numbers: the homogeneity audit must keep its recorded results.

``golden_audit.json`` holds, for the bundled c1_sim .. c4_sim scenarios at
the consensus position Q_C with sphere seed 201 and 256 samples, the
``check_degree`` defect of the frozen-inertia core, the 13
``vanishing_sweep`` deviations and their fitted decay slope. The numbers
were recorded from the audit that evaluated the fields one sample at a time.

Regenerate (only when a change of the model itself is intended) with

    PYTHONPATH=src python tests/test_golden_audit.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

import ftteleop as ft

GOLDEN = Path(__file__).with_name("golden_audit.json")
SCENARIOS = ("c1_sim", "c2_sim", "c3_sim", "c4_sim")
Q_C = np.array([1.15, -0.05])
SEED = 201
SAMPLES = 256


def audit(name: str) -> dict:
    cfg = ft.read_bundled_scenario(name)
    spec = ft.HomogeneitySpec.for_config(cfg.config, cfg.params_l.n, samples=SAMPLES, seed=SEED)
    defect = ft.check_degree(ft.homogeneous_field(cfg.config, cfg.params_l, cfg.params_r, Q_C),
                             spec)
    eps, devs = ft.vanishing_sweep(cfg.config, cfg.params_l, cfg.params_r, Q_C, spec)
    return {"defect": defect, "eps": eps.tolist(), "devs": devs.tolist(),
            "slope": ft.fitted_decay_slope(eps, devs)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_scenario(golden):
    assert sorted(golden) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", SCENARIOS)
def test_audit_matches_golden(golden, name):
    expected, got = golden[name], audit(name)
    assert got["defect"] <= 1e-9
    np.testing.assert_array_equal(got["eps"], expected["eps"])
    np.testing.assert_allclose(got["devs"], expected["devs"], rtol=1e-9, atol=0.0)
    assert abs(got["slope"] - expected["slope"]) <= 1e-6


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: audit(name) for name in SCENARIOS}, indent=1) + "\n")
    print(f"wrote {len(SCENARIOS)} audits to {GOLDEN}")
