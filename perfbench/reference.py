"""Reference kernel that tracks the host's speed during a run.

On a shared virtual host the CPU time of the same loop moves by up to 1.9x
over seconds to minutes, with the load of other tenants. A fixed unit of
small dense linear algebra, the kind of work quadmodel does, is timed in
CPU seconds between the operations of an in-process workload, in the
worker process that runs them. Each operation's CPU time is then scaled by
``NOMINAL_S`` over the median unit time measured around it, which reads as
"CPU time on a host where one unit takes NOMINAL_S". The kernel is the
benchmark's own code, so no change to quadmodel moves it.

In 86 windows of 5 s of one design_sweep worker, the median operation had
a quartile spread of 17 % and its ratio to this unit one of 1.9 %. The
unit must run in the process it measures: timed in the parent, it did not
follow the CPU time of a child at all (correlation 0.0 over 60 cli_sim
operations and 40 set-ups), so child processes are not scaled.
"""

from __future__ import annotations

import math
import statistics
from time import process_time

import numpy as np

# CPU seconds of one unit on the reference host (2-vCPU KVM guest, Intel
# Xeon, Python 3.11, numpy 2.4 with one BLAS thread); it measured 0.24 to
# 0.45 ms there, as the host's load changed.
NOMINAL_S = 4.0e-4
SAMPLES_PER_WINDOW = 20  # unit timings that make one local speed estimate
# Units timed before each in-process operation: about a quarter of the
# operation's own CPU time (1.2 s and 3.5 ms).
UNITS_PER_OP = {"tilt_sweep": 900, "design_sweep": 2}

_A = np.random.default_rng(0).standard_normal((12, 12))


def unit() -> float:
    """Run one unit; return its CPU seconds."""
    a = _A.copy()
    t = process_time()
    for _ in range(5):
        np.linalg.matrix_rank(a[:6, :8])
        np.linalg.eigvals(a[:6, :6])
        a[0, 0] += 1e-9
    return process_time() - t


def sample(units: int) -> list:
    return [unit() for _ in range(units)]


def half_width(units_per_op: int) -> int:
    """Operations on each side whose unit timings join an operation's own,
    so that a local estimate rests on about SAMPLES_PER_WINDOW timings."""
    return max(0, math.ceil(SAMPLES_PER_WINDOW / (2 * units_per_op)) - 1)


def scales(refs: list, units_per_op: int) -> list:
    """Speed scale of each operation: NOMINAL_S over the median unit time
    around it. ``refs[i]`` holds the unit timings taken just before
    operation i, and the last entry those taken after the last operation,
    so operation i is bracketed by ``refs[i]`` and ``refs[i + 1]``."""
    w = half_width(units_per_op)
    out = []
    for i in range(len(refs) - 1):
        window = [t for chunk in refs[max(0, i - w):i + w + 2] for t in chunk]
        out.append(NOMINAL_S / statistics.median(window))
    return out
