"""A fixed exact-arithmetic kernel that measures the machine's current speed.

This host's speed drifts by up to 2x over tens of seconds (other tenants
share its cores), which no within-run statistic can average away.  The
kernel runs the benchmark's own reference routines on fixed inputs and
shares no code or data with hlab, so a change to hlab cannot move it.
The runner times the kernel around every timed step and scales the step's
time by ``NOMINAL_S / kernel time``, which reports throughput at one
nominal machine speed.
"""

from __future__ import annotations

from fractions import Fraction as F
from time import perf_counter

import reference as ref

NOMINAL_S = 0.025  # the kernel's wall time at the nominal machine speed

SQUARE = ((F(-1), F(-1)), (F(1), F(-1)), (F(1), F(1)), (F(-1), F(1)))


def polygon(shift: int) -> tuple:
    """CCW hull (monotone chain) of nine fixed points."""
    pts = sorted({(F(3 * i + shift, 7), F((i * i + shift) % 11, 5)) for i in range(9)})
    lower, upper = [], []
    for chain, seq in ((lower, pts), (upper, pts[::-1])):
        for p in seq:
            while len(chain) >= 2 and ref.cross(ref.sub(chain[-1], chain[-2]),
                                                ref.sub(p, chain[-1])) <= 0:
                chain.pop()
            chain.append(p)
    return tuple(lower[:-1] + upper[:-1])


PAIRS = [(polygon(s), polygon(s + 5)) for s in range(4)]


def kernel_s() -> float:
    """Wall time of one pass of the kernel."""
    t0 = perf_counter()
    for P, Q in PAIRS:
        ref.hausdorff(ref.f_eval(P, Q, F(1, 2), SQUARE), ref.f_eval(Q, P, F(1, 2), SQUARE), SQUARE)
    return perf_counter() - t0
