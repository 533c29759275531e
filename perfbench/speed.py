"""Machine-speed sampling, so episode times can be compared across runs.

The CPU speed of a small shared VM drifts: the same episode can take 1.3–2×
longer from one minute to the next. ``SpeedSampler`` runs a fixed
reference kernel every ``PERIOD_S`` seconds from a SIGALRM handler, in the
episode's own thread, so the kernel meets the same contention as the work
around it.  The kernel uses no credence code (a faster program must not
make it faster): the trigram hashing, small-vector numpy and JSON work the
engine does.  ``normalised`` converts a measured interval into seconds at
reference speed: its length minus the kernel runs inside it, scaled by
``REFERENCE_S`` over the kernel time sampled around it.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import signal
import time

import numpy as np

PERIOD_S = 0.05
REFERENCE_S = 0.5e-3  # kernel time that defines "reference speed"
_TEXT = "residents who allocate part of the budget themselves hold spending to real needs"
_VECTORS = np.linspace(0.0, 1.0, 40 * 512).reshape(40, 512)
_EVENT = {"seq": 7, "kind": "stored", "payload": {"id": 3, "claim": _TEXT, "strength": 0.123456789, "active": True}}
clock = time.perf_counter


def _kernel() -> None:
    vec = np.zeros(512)
    for i in range(len(_TEXT) - 2):
        digest = hashlib.blake2b(_TEXT[i : i + 3].encode(), digest_size=8).digest()
        vec[int.from_bytes(digest, "big") % 512] += 1.0
    vec /= np.linalg.norm(vec)
    for row in _VECTORS:
        float(np.dot(vec, row) / (np.linalg.norm(vec) * np.linalg.norm(row)))
    for _ in range(10):
        json.dumps(_EVENT, check_circular=False)


class SpeedSampler:
    """Samples kernel time (best of three) every PERIOD_S while running."""

    def __init__(self):
        self.starts = []  # perf_counter time each sample began
        self.ends = []
        self.kernel_s = []  # best kernel time of each sample
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = clock()
        best = _timed_kernel()
        for _ in range(2):
            best = min(best, _timed_kernel())
        self.starts.append(start)
        self.ends.append(clock())
        self.kernel_s.append(best)

    def start(self) -> "SpeedSampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
        return False

    def raw(self, start: float, end: float) -> float:
        """Seconds of work in [start, end]: its length minus sampling time."""
        return end - start - self.sampling_within(start, end)

    def sampling_within(self, start: float, end: float) -> float:
        """Time the sampler itself took inside [start, end]."""
        return sum(max(0.0, min(end, b) - max(start, a)) for a, b in zip(self.starts, self.ends) if a < end and b > start)

    def normalised(self, start: float, end: float) -> float:
        """Seconds at reference speed for the work done in [start, end]: the
        gaps between samples, each scaled by the kernel time around it."""
        total = 0.0
        i = max(0, bisect.bisect_right(self.ends, start) - 1)
        while i + 1 < len(self.starts) and self.ends[i] < end:
            overlap = min(end, self.starts[i + 1]) - max(start, self.ends[i])
            if overlap > 0:
                total += overlap * 2 * REFERENCE_S / (self.kernel_s[i] + self.kernel_s[i + 1])
            i += 1
        return total


def _timed_kernel() -> float:
    start = clock()
    _kernel()
    return clock() - start
