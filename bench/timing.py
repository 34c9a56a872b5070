"""Reference-scaled timing shared by the runner and the workload process.

The benchmark host is shared, and its speed drifts by tens of percent within
a minute.  Each timed operation is therefore paired with adjacent runs of a
fixed reference computation, and its wall time is scaled by
``nominal / (reference time around it)``.  In-process operations use a
pure-Python loop (:func:`ref_loop`); process start-ups use a fresh
interpreter that imports numpy (:func:`ref_process`), since start-up cost
moves with library loading, which the loop does not track.  The result keeps
the unit of seconds: it is the time the operation would take on a host where
the reference takes its nominal time.  Raw wall times are reported next to
the scaled ones.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time

# Typical times of one ref_loop() and one ref_process() on a quiet 2-core
# x86-64 host with Python 3.11 and numpy 2.4.
REF_NOMINAL_S = 0.8e-3
REF_PROCESS_NOMINAL_S = 0.15
REF_PROCESS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ref_process.py")

def ref_loop() -> float:
    """Wall time of a fixed pure-Python computation: complex arithmetic,
    calls and small containers, the mix admrelay's own code runs."""
    start = time.perf_counter()
    acc = 0j
    seen = {}
    for i in range(1400):
        z = complex(i % 7 + 1, i % 5 - 2)
        acc += z * z / (z + 1.5)
        seen[i & 63] = (acc, i)
    assert len(seen) == 64
    return time.perf_counter() - start


def ref_process() -> float:
    """Wall time of starting the reference process until it has exited."""
    start = time.perf_counter()
    subprocess.run([sys.executable, REF_PROCESS], check=True)
    return time.perf_counter() - start


def scaled(raw: list[float], refs: list[float], nominal: float) -> list[float]:
    """Scale raw[i] by the mean of the reference times just before it
    (refs[i]) and just after it (refs[i + 1]).

    The host's speed changes within a second, so only the adjacent
    references track it; wider windows leave twice the spread.
    """
    return [t * 2.0 * nominal / (refs[i] + refs[i + 1]) for i, t in enumerate(raw)]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
