"""Machine-speed calibration for times measured on a shared, drifting host.

On small shared hosts the speed of pure-Python code swings between about
0.4x and 1.25x of its usual value within a second, while the process keeps
its core (CPU time moves with wall time), so raw times spread far wider
from run to run than any useful regression bound. While a ``SpeedProbe``
is active, a timer interrupts the program every INTERVAL_S and runs a short
fixed loop, a "piece". A span of library time is then reported in seconds
of a machine that runs a piece in NOMINAL_PIECE_S: its raw length, less the
pieces that ran inside it, times the mean of NOMINAL_PIECE_S / piece time
over the pieces nearby. The loop lives in the benchmark, so a change to
the sampler cannot change it; it allocates no containers and runs with the
cyclic collector off, so the sampler's heap cannot slow it either.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

INTERVAL_S = 0.02
PIECE_ITERATIONS = 600
NOMINAL_PIECE_S = 0.0005
_M64 = (1 << 64) - 1
clock = time.perf_counter


def _loop(n: int) -> int:
    """Integer mixing, bit tricks, small tuples and dict stores: the sampler's mix."""
    z = 0
    acc = 0
    slots: dict[int, tuple] = {}
    for i in range(n):
        z = (z + 0x9E3779B97F4A7C15) & _M64
        x = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
        x ^= x >> 31
        m = x & 0xFFFF
        t = (m.bit_count(), m & -m, i)
        slots[i & 63] = t
        acc += t[0]
    return acc


class SpeedProbe:
    """Context manager that runs a timed piece every INTERVAL_S of wall time.

    Spans are calibrated after the probe has stopped, when the pieces on
    both sides of every span are known.
    """

    def __init__(self, on_piece=None):
        """``on_piece(seconds)`` is told the length of every piece run by the timer."""
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.on_piece = on_piece
        self._saved = None

    def _piece(self, *_signal) -> None:
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = clock()
            _loop(PIECE_ITERATIONS)
            t1 = clock()
        finally:
            if was_enabled:
                gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)
        if _signal and self.on_piece:
            self.on_piece(t1 - t0)

    def __enter__(self) -> "SpeedProbe":
        _loop(PIECE_ITERATIONS)  # specialises the loop's bytecode
        self._piece()
        self._saved = signal.signal(signal.SIGALRM, self._piece)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self._piece()

    def factor(self, a: float, b: float) -> float:
        """Mean speed factor of the pieces that start within INTERVAL_S of [a, b]."""
        lo = bisect.bisect_left(self.starts, a - INTERVAL_S)
        hi = bisect.bisect_right(self.starts, b + INTERVAL_S)
        if lo == hi:  # the timer was held up; take the nearest pieces
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        return statistics.fmean(
            NOMINAL_PIECE_S / (self.ends[i] - self.starts[i]) for i in range(lo, hi)
        )

    def calibrated(self, a: float, b: float) -> float:
        """Calibrated seconds of library work in the raw span [a, b]."""
        lo = bisect.bisect_right(self.ends, a)
        hi = bisect.bisect_left(self.starts, b)
        probed = sum(
            min(self.ends[i], b) - max(self.starts[i], a) for i in range(lo, hi)
        )
        return (b - a - probed) * self.factor(a, b)

    def split(self, a: float, b: float, parts: list[float]) -> list[float]:
        """Calibrated seconds of consecutive parts of [a, b] with raw lengths ``parts``.

        The span's time outside the parts (the caller's own overhead) is
        shared evenly between them.
        """
        slack = (b - a - sum(parts)) / len(parts)
        out = []
        for d in parts:
            out.append(self.calibrated(a, a + d + slack))
            a += d + slack
        return out
