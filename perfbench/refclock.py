"""Timings scaled to a reference machine speed.

The benchmark shares a host whose speed drifts: a fixed pure-Python loop
took anywhere from 35 to 61 ms a call from one minute to the next, and that
drift moves every wall time with it.  A RefClock times a fixed reference loop
(code of the benchmark's own, never the package) between timed operations,
and scales each operation by REF_NOMINAL_S over the reference time measured
around it.  A scaled time is the operation's time on a machine that runs the
reference loop in REF_NOMINAL_S: a change to the package moves it, and a
change of host speed moves the reference samples too, so it mostly cancels.
"""

from __future__ import annotations

import statistics
import time

REF_ROUNDS = 15000
# about the reference loop's median time on the 2-vCPU host that the
# reference figures in README.md were measured on
REF_NOMINAL_S = 0.0080
REF_LONG_S = 0.1
REF_MAX_EXTRA = 5


def ref_loop(rounds: int = REF_ROUNDS) -> int:
    """Dict, list, tuple, hashing and sorting work, as the package does."""
    table: dict = {}
    pending: list = []
    acc = 0
    for i in range(rounds):
        k = (i * 7919) % 1021
        table[k] = table.get(k, 0) + i
        pending.append((k, i & 255))
        if len(pending) > 64:
            pending.sort()
            del pending[:32]
        acc ^= hash(pending[-1])
    return acc + len(table)


def ref_sample() -> float:
    t0 = time.perf_counter()
    ref_loop()
    return time.perf_counter() - t0


class RefClock:
    """Reference samples taken after each recorded operation.

    An operation is scaled by the median of the `half` samples taken before
    it and the `half` taken after it: the median drops an interrupted sample,
    and samples on both sides follow a host that speeds up or slows down
    while the operation runs.  A long operation is followed by one more
    sample per REF_LONG_S it ran (up to REF_MAX_EXTRA), so that its window
    sits close to it.
    """

    def __init__(self, half: int = 5):
        self.half = half
        ref_loop()  # the first call of a fresh interpreter runs cold
        self.refs = [ref_sample()]
        self.ops: list[tuple[float, int]] = []  # (seconds, samples taken before it)

    def record(self, seconds: float) -> int:
        """Sample after an operation; return its mark for scaled()."""
        self.ops.append((seconds, len(self.refs)))
        for _ in range(1 + min(REF_MAX_EXTRA, int(seconds / REF_LONG_S))):
            self.refs.append(ref_sample())
        return len(self.ops) - 1

    def scaled(self, mark: int) -> float:
        """The operation's seconds, scaled; final once `half` more samples
        have been taken after it, or no more will be."""
        seconds, i = self.ops[mark]
        window = self.refs[max(0, i - self.half): i + self.half]
        return seconds * REF_NOMINAL_S / statistics.median(window)

    def median_ref(self) -> float:
        return statistics.median(self.refs)
