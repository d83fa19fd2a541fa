"""Wall times expressed at a fixed host speed.

The CPU of a shared host does not run at one speed: on a 2-vCPU test
host, the same pure-Python Fraction loop took 60 ms or 105 ms depending
on the moment, for spans of seconds to minutes, while its process time
tracked its wall time and steal time stayed near zero.  A benchmark that
reports plain wall time then measures the host's state as much as the
code.

So while the benchmark times verdicts, a timer signal runs a fixed
reference kernel (stdlib Fraction elimination, no rigidlab code) every
PERIOD_S of wall time and records how long it took.  A verdict's time is
its wall time less the kernel runs inside it, scaled by the host's speed
around it: the mean of REF_S / (kernel time) over the kernel runs from
WINDOW_S before the verdict to WINDOW_S after it, with the top and bottom
tenth trimmed.  The result is the time the verdict would take on a host
where one kernel run takes exactly REF_S.  The kernel is sized so that
this is close to wall time on the test host.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

# One kernel run takes this long on the reference host, by definition.
REF_S = 1e-3
# Wall time between kernel runs, and the reach of the speed estimate.
PERIOD_S = 0.02
WINDOW_S = 0.1

_N = 6
_MATRIX = [[Fraction((3 * i + 5 * j + i * j) % 13 - 6, 1 + (i + 2 * j) % 5)
            for j in range(_N + 1)] for i in range(_N)]


def kernel() -> Fraction:
    """Gauss-Jordan elimination of a fixed 6 x 7 rational matrix."""
    rows = [row[:] for row in _MATRIX]
    for col in range(_N):
        pivot = next((r for r in range(col, _N) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(_N):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return sum(row[-1] for row in rows)


class Reference:
    """Kernel runs on a wall-clock timer; use as a context manager around
    the timed code, then ask `scaled` for each timed window."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._old = None
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:  # a late signal arrived during a run: skip it
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self._busy = False

    def __enter__(self) -> "Reference":
        self._old = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.sample()

    def burst(self, runs: int) -> range:
        """Run the kernel `runs` times in a row; their sample indices."""
        first = len(self.starts)
        for _ in range(runs):
            self.sample()
        return range(first, len(self.starts))

    def mean_speed(self, samples) -> float:
        """Mean of REF_S / kernel time over the given sample indices, top
        and bottom tenth trimmed."""
        speeds = sorted(REF_S / (self.ends[k] - self.starts[k]) for k in samples)
        cut = len(speeds) // 10
        kept = speeds[cut:len(speeds) - cut]
        return sum(kept) / len(kept)

    def speed(self, start: float, end: float) -> float:
        """Host speed over the kernel runs that start within WINDOW_S of
        [start, end] (the nearest run if none does)."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if lo >= hi:
            lo = min(lo, len(self.starts) - 1)
            hi = lo + 1
        return self.mean_speed(range(lo, hi))

    def scaled(self, start: float, end: float) -> float:
        """Seconds of [start, end] at the reference speed, kernel runs
        inside the window left out."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.ends, end)
        inside = sum(self.ends[k] - self.starts[k] for k in range(lo, hi))
        return (end - start - inside) * self.speed(start, end)

    def kernel_share(self) -> float:
        """Share of the wall time since the first run spent in the kernel."""
        if len(self.starts) < 2:
            return 0.0
        busy = sum(e - s for s, e in zip(self.starts, self.ends))
        return busy / (self.ends[-1] - self.starts[0])
