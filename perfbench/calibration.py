"""A fixed slice of pure-Python work that tracks the host's speed.

The 2-core host this benchmark was built on changes speed by up to 1.7x
within minutes, and by tens of percent from one second to the next,
because other tenants share its cores: the means of a fixed loop over
20-second windows spread by 13% (quartile distance over median) in four
minutes.  A run therefore times one slice before every timed call and
one after the last, and reports times in reference seconds: raw seconds
times REFERENCE_SLICE_S over a slice time.  The latency of one op uses
the mean of the two slices around it, which halves the spread of
repeated calls' times on that host; the total of a call weights its
ops' factors by their durations.  A call that performs many ops runs a
slice before each op (see run.OP_SPANS), so that a sweep of a second is
sampled as often as its points.  The slice uses none of the code under
test, so a change to the library moves the scaled times exactly as much
as the raw ones.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# Mean slice time on the 2-core host of the seed baseline.
REFERENCE_SLICE_S = 0.005


def _tables() -> tuple[list[int], list[int]]:
    exp, log, x = [0] * 510, [0] * 256, 1
    for i in range(255):
        exp[i] = exp[i + 255] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= 0x11D
    return exp, log


_EXP, _LOG = _tables()


def work() -> int:
    """The kind of work the library does: table lookups and integer
    operations, Fraction arithmetic and dict updates."""
    exp, log, acc = _EXP, _LOG, 0
    for i in range(1, 16000):
        acc ^= exp[log[(i * 7) & 255 or 1] + log[(i * 13) & 255 or 1]]
    for i in range(1, 240):
        acc ^= (Fraction(i, i + 3) * Fraction(2, 3) + Fraction(1, i)).denominator
    counts: dict[int, int] = {}
    for i in range(4000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return acc ^ len(counts)


class Calibration:
    """Slice times of one run, in order."""

    def __init__(self):
        self.slices: list[float] = []

    def slice(self) -> None:
        start = perf_counter()
        work()
        self.slices.append(perf_counter() - start)

    @property
    def scale(self) -> float:
        """Reference seconds per raw second over the whole run."""
        return self.factor(0, len(self.slices))

    def factor(self, lo: int, hi: int) -> float:
        """Reference seconds per raw second over slices lo to hi - 1."""
        window = self.slices[lo:hi]
        return REFERENCE_SLICE_S * len(window) / sum(window)
