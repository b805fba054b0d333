"""Host-speed calibration kernel.

The benchmark host is a shared 2-core machine whose speed drifts by up to 2x
over seconds to minutes while CPU time keeps tracking wall time: other
tenants slow it, not the scheduler. ``calibrate`` times a fixed mix of
small numpy calls, dict and list work and JSON encoding, the program's kind
of work, so its time follows how fast the host runs at that moment. A time
t measured beside a calibration c is reported as ``t * CAL_REF_S / c``.
"""

import json
from time import perf_counter

import numpy as np

CAL_ITERS = 2500
CAL_REF_S = 0.010   # about the kernel's time on the quiet 2-core Xeon host it was tuned on

_A = np.linspace(1.0, 2.0, 10)
_B = np.linspace(0.5, 3.0, 10)


def calibrate() -> float:
    """Seconds the fixed kernel takes now."""
    t0 = perf_counter()
    table = {}
    for i in range(CAL_ITERS):
        s = float(np.sum(_A / (_B + i)))
        table[i % 97] = (s, [s] * 3)
    json.dumps(table)
    return perf_counter() - t0
