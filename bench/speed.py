"""Machine-speed probe, so that runs at different moments compare.

On a shared 2-core machine the same work takes up to 2x longer from one
call to the next, and its median drifts by 10-20% over tens of seconds.
Per-segment medians remove the first; the probe removes most of the
second. The probe is a fixed piece of work of the same kind as the
measured code: 60 Euler steps of the reference model's C4 closed loop
(small numpy operations driven by Python). It imports nothing from
ftteleop, so no change to the package moves it. A run probes after every
timed segment, and its times are reported in reference seconds: measured
seconds times NOMINAL_S / (median probe time of the run). On a machine
whose probe runs at NOMINAL_S they are plain seconds. Changing the probe or
NOMINAL_S changes every reported time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import reference

NOMINAL_S = 6.0e-3      # probe median on the 2-core machine of the README figures
_STEPS, _DT = 60, 1e-4
_PAIR = lambda value: (np.full(2, value), np.full(2, value))
_SPEC = {
    "arm": {"masses": np.array([1.8, 1.6]), "lengths": np.array([0.8, 0.6]),
            "com_offsets": np.array([0.4, 0.3]), "inertias": np.array([0.096, 0.048])},
    "variant": "C4", "r1": 1.5, "r2": 1.0, "k_s": np.full(2, 6.0),
    "d_s": None, "k_c": _PAIR(20.0), "d_c": _PAIR(4.0), "delta_p": 0.3, "delta_d": 0.008,
    "forces": ({"kind": "zero"}, {"kind": "zero"}),
}
_RHS = reference.closed_loop_rhs(_SPEC)
_X0 = np.array([1.0, -0.4, 1.3, 0.3, 0.0, 0.0, 0.0, 0.0, 1.0, -0.4, 1.3, 0.3])


def probe() -> float:
    """Seconds one pass of the fixed probe work takes now."""
    start = time.perf_counter()
    x = _X0
    for k in range(_STEPS):
        x = x + _DT * _RHS(k * _DT, x)
    return time.perf_counter() - start


def scale(probe_times) -> float:
    """Factor from measured seconds to reference seconds."""
    return NOMINAL_S / statistics.median(probe_times)
