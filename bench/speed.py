"""The machine's current speed, from a reference loop timed in the background.

On a shared host the same operation can take 1.5 to 2 times as long
from one half-minute to the next, because the processor is shared with
other tenants. A run that falls in a slow stretch then reads slow
throughout, and no statistic taken inside the run removes that. So the
benchmark also expresses each operation's time in units of a fixed
reference loop, timed every ``PERIOD`` seconds in a background thread
while the operation runs. Both run at the speed the host gives at that
moment, so their ratio changes far less than either.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

import numpy as np

PERIOD = 0.05
MIN_SAMPLES = 9


def reference(gen: np.random.Generator) -> float:
    """About a millisecond of interpreter arithmetic, small-object
    allocation, small numpy calls and re-keying of the Philox generator
    ``gen``: the mix the program spends its time in, without calling
    the program."""
    total = 0.0
    for i in range(4500):
        total += i * i
    table = {}
    for i in range(600):
        table[(i, i + 1)] = [i]
    a = np.arange(32.0)
    for _ in range(120):
        total += float((a * 2.0).sum())
    bitgen = gen.bit_generator
    state = bitgen.state
    for i in range(60):
        state["state"]["key"][:] = (1, i)
        state["state"]["counter"][:] = 0
        bitgen.state = state
        total += gen.random()
    return total + len(table)


class SpeedProbe:
    """Background thread that times ``reference()`` every ``period`` seconds."""

    def __init__(self, period: float = PERIOD):
        self.period = period
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._gen = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=10)
        return False

    def _loop(self) -> None:
        while not self._stop.wait(self.period):
            start = time.perf_counter()
            reference(self._gen)
            end = time.perf_counter()
            self.ends.append(end)
            self.durations.append(end - start)

    def unit(self, start: float, end: float) -> float:
        """Median reference time over [start, end], widened to at least
        MIN_SAMPLES samples around the interval."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.ends)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.ends))
        return statistics.median(self.durations[lo:hi])
