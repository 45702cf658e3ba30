"""Machine-speed calibration: a fixed kernel timed next to the jobs.

On a shared machine the speed of a core drifts by tens of percent within
seconds.  The benchmark times a fixed kernel of its own (plain Python and
small numpy operations, like the package's own work, but none of the
package's code) right before and right after each timed part of a job, and
scales the part's wall time by NOMINAL_S / (mean of those two kernel times).
A reported time is thus wall seconds at the speed where the kernel takes
NOMINAL_S; raw wall times are printed beside them.
"""

from __future__ import annotations

import math
import time

import numpy as np

NOMINAL_S = 2.5e-3   # kernel time that defines the reference speed


def kernel() -> float:
    acc = 0.0
    v = np.array([0.3 + 0.1j, -0.2 + 0.4j])
    for i in range(200):
        w = v * (1.0 + 1e-3 * i)
        acc += float(np.sum(np.abs(w) ** 2))
        z = complex(acc % 3.0, 0.5)
        acc += abs(z * z.conjugate() - 1.0)
        t = tuple(complex(c) for c in w)
        acc += math.sqrt(sum(abs(c) ** 2 for c in t))
    return acc


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def reference_seconds(seconds: float, before: float, after: float) -> float:
    """Wall time `seconds`, timed between kernel runs of `before` and `after`
    seconds, at the reference speed."""
    return seconds * 2.0 * NOMINAL_S / (before + after)
