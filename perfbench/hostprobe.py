"""Host-speed probe: a fixed piece of work that uses nothing from the package.

On a shared VM the speed of one core changes by up to 2x for tens of
seconds at a time, and CPU time inflates with it, so raw times of the same
code spread by more than any regression bound.  The benchmark runs this
probe next to every timed command (the same core, the same moment) and
reports times at a fixed reference speed:

    time_at_reference = measured_time * REFERENCE_S / probe_time

The probe mixes the three kinds of work the package does: per-point
Python loops over 2x2 ``numpy.linalg`` calls, vectorised passes over
arrays of 10^5 doubles and plain interpreter arithmetic.  A change to the
package cannot move the probe, so a slower program still reads slower;
only the host's drift divides out.  Raw times are kept in each result
file next to the probe times.
"""

from __future__ import annotations

import time

# probe wall time that defines the reference speed (about its median on a
# 2-vCPU x86-64 VM with Python 3.11 and numpy 2.4)
REFERENCE_S = 0.125


def probe() -> tuple[float, float]:
    """Run the probe once; return its (wall, CPU) seconds."""
    import numpy as np  # here, so the orchestrator can read REFERENCE_S

    rng = np.random.default_rng(0)
    m = rng.standard_normal((2, 2))
    m = m + m.T
    x = rng.standard_normal(100_000)
    t0, c0 = time.perf_counter(), time.process_time()
    acc = 0.0
    for i in range(8000):
        acc += float(np.linalg.eigh(m + i * 1e-6)[0][0])
    for _ in range(80):
        x = np.cumsum(x) * 1e-3
    n = 0
    for i in range(400_000):
        n += i % 7
    return time.perf_counter() - t0, time.process_time() - c0
