"""Golden audit numbers: the homogeneity audit must keep its recorded results.

``golden_audit.json`` holds, for the bundled c1_sim .. c4_sim scenarios at
the consensus position Q_C with sphere seed 201 (the audit's fixed plan of
256 directions), the ``check_degree`` defect of the frozen-inertia core, the
13 ``vanishing_sweep`` deviations and their fitted decay slope. The numbers
were recorded from the audit that runs the control law on the error
coordinates. The audit before it formed absolute positions q_c + x and let
the law take their differences again, which cancelled digits against q_c: its
deviations differ by up to 5.8e-9 relative (C1/C3) and 1.34e-7 (C2/C4) at the
smallest epsilon, and its slopes by up to 4e-8. That cancellation set a
rounding floor, which the error-coordinate law removes:

- (r1, r2) = (1.9, 1.0) with the c1_sim and c2_sim gains at q_c = (1.15, 0.0):
  C2's tail rose from 1.09e-6 to 2.22e-5 at slope -0.37; C1 and C2 now fall
  monotonically at slope 3.800, which is 2 r1 / r2.
- (3, 2) at q_c = (1.15, 0.5), with the dilation family left unnormalised:
  the slopes were -0.15 (C1) and -0.98 (C2); they are now 3.000.

Regenerate (only when a change of the model is intended, or a more accurate
audit, with the evidence for it as above) with

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


def audit(name: str) -> dict:
    cfg = ft.read_bundled_scenario(name)
    spec = ft.HomogeneitySpec.for_config(cfg.config, cfg.params_l.n, seed=SEED)
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
