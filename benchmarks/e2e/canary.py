"""Machine-speed canary: what this box can do *right now*.

The shared two-core box this benchmark was built on does not run at one
speed: for stretches of 5 to 60 s it is 15 to 25% faster (an idle
neighbour) or slower than its usual state, which moves every time
metric of a whole run and which no amount of repetition inside the run
averages out.  So every pass (and every set-up) is bracketed by two
short bursts of fixed work, one interpreter-bound and one numpy-bound
like the two halves of the code under test, and its times are
multiplied by the speed the bursts saw.  Reported times are therefore
*reference-state* times: what the run would have measured with the box
in its usual state.  The canary uses nothing from ``src/repro``, so no
change to the program can move it.

Measured here (12 runs each, one seed, quartile spread of ``qps``):
``churn_read_write`` 17.2% as measured, 3.0% scaled by the geometric
mean of the two bursts (8.3% by the interpreter burst alone, 5.6% by
the numpy burst alone); ``graph_hot_preds`` 9.8% and 5.7%.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Best-of-three burst times on the reference box in its usual state.
REFERENCE_PYTHON_S = 0.001705
REFERENCE_NUMPY_S = 0.001502
_BLOCK = np.arange(4096, dtype=np.float32).reshape(64, 64) / 4096.0


def _python_burst() -> float:
    start = time.perf_counter()
    total = 0
    seen: dict[int, int] = {}
    for i in range(30_000):
        total += i % 7
        if i % 5 == 0:
            seen[i & 255] = total
    return time.perf_counter() - start


def _numpy_burst() -> float:
    start = time.perf_counter()
    total = 0.0
    for i in range(300):
        total += float((_BLOCK @ _BLOCK)[i % 64, 0])
    return time.perf_counter() - start


def machine_speed() -> float:
    """Speed relative to the reference state (1.0 = reference, 1.2 = a
    fifth faster): the geometric mean of the two bursts' speeds, each
    the best of three; about 10 ms in all."""
    python_s = min(_python_burst() for _ in range(3))
    numpy_s = min(_numpy_burst() for _ in range(3))
    return math.sqrt((REFERENCE_PYTHON_S / python_s) * (REFERENCE_NUMPY_S / numpy_s))


def between(before: float, after: float) -> float:
    """The speed to charge work that ran between two readings."""
    return math.sqrt(before * after)
