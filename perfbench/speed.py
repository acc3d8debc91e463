"""CPU-speed normalization: time a call against a fixed reference kernel.

The machine this benchmark was built on (2 vCPUs of a shared host) runs
Python-bound code up to ~2x slower for stretches of seconds to minutes,
as other tenants load the host; no steal time shows, so thread CPU time
swings exactly as wall time does. A statistic taken within one run
(median, p10, even the minimum) cannot remove a slowdown that lasts the
whole run. What does hold still is the *ratio* of a call's time to the
time of a fixed kernel run on the same thread right before it: over 10 s
windows of one session, the batch-64 call p50 spread 0.39 (quartile
distance over median) while its ratio to the kernel spread 0.007, and the
batch-1 p50 spread 0.32 against 0.04 for the ratio.

So a session call's time is reported at the reference speed:
``seconds * REFERENCE_KERNEL_S / kernel seconds measured beside it``. The
kernel lives here, not in the program, and mixes what a session call does
(a regex tokenize, dict counting, a small numpy recurrence and a plain
Python loop). ``REFERENCE_KERNEL_S`` is a fixed constant, so the scaled
figures read in ordinary seconds on an unloaded core of that machine.

Only where the program slows down in step with the kernel does this hold.
Full-graph training steps (large numpy arrays) slowed by ~20% where the
kernel slowed by ~70%, checkpoint loading barely at all, and the HTTP
path's slow spells did not show in the kernel; those are reported raw.
"""

from __future__ import annotations

import re
from time import perf_counter

import numpy as np

#: Kernel time on an unloaded core of the reference machine (Intel Xeon,
#: 2 vCPUs, Python 3.11, numpy 2.4); the unit the scaled figures are in.
REFERENCE_KERNEL_S = 125e-6

_RNG = np.random.default_rng(20180522)
_W = _RNG.standard_normal((64, 64)) / 8.0
_X = _RNG.standard_normal((1, 64))
_TEXT = " ".join(f"word{i % 37} the governor said tax {i % 11}" for i in range(40))
_WORD = re.compile(r"[a-z0-9]+")


def kernel() -> float:
    """The fixed reference work; returns a value so nothing is skipped."""
    counts = {}
    for token in _WORD.findall(_TEXT):
        counts[token] = counts.get(token, 0) + 1
    h = _X
    for _ in range(16):
        h = np.tanh(h @ _W + 0.1)
    acc = 0
    for i in range(300):
        acc += i * i
    return acc + len(counts) + float(h[0, 0])


def kernel_seconds() -> float:
    """One timed run of :func:`kernel`."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


def scale(kernel_s: float) -> float:
    """Factor that takes a time measured beside ``kernel_s`` to reference speed."""
    return REFERENCE_KERNEL_S / kernel_s
