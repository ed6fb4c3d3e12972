"""Seeded input generators.  hlab only ever sees the polygons and norms
built here; the seed never reaches it."""

from __future__ import annotations

import math
import random

from hlab._scalar import rat
from hlab.geometry import ConvexPolygon, Point
from hlab.norms import PolyhedralNorm


def rational(rng: random.Random, lo: int, hi: int, denom_max: int):
    den = rng.randint(1, denom_max)
    return rat(rng.randint(lo * den, hi * den), den)


def random_polygon(rng: random.Random, nmin: int = 4, nmax: int = 10, lo: int = -4,
                   hi: int = 4, denom_max: int = 16) -> ConvexPolygon:
    """Hull of 12 random rational points, kept when it has nmin..nmax vertices."""
    while True:
        pts = [Point(rational(rng, lo, hi, denom_max), rational(rng, lo, hi, denom_max))
               for _ in range(12)]
        hull = ConvexPolygon.hull(pts)
        if nmin <= hull.n <= nmax:
            return hull


def random_hexagon_norm(rng: random.Random) -> PolyhedralNorm:
    """Random centrally symmetric hexagon unit ball."""
    while True:
        a = Point(rational(rng, 1, 3, 4), rational(rng, 1, 3, 4))
        b = Point(-rational(rng, 1, 3, 4), rational(rng, 1, 3, 4))
        c = Point(rational(rng, -1, 1, 4), rational(rng, 2, 4, 4))
        ball = ConvexPolygon.hull([a, b, c, a.scaled(rat(-1)), b.scaled(rat(-1)), c.scaled(rat(-1))])
        if ball.n == 6:
            try:
                return PolyhedralNorm(ball)
            except ValueError:
                continue


def jittered_hexagon_norm(rng: random.Random) -> PolyhedralNorm:
    """Regular hexagon unit ball (circumradius 1) whose vertices are rounded
    to multiples of 1/16 and moved by at most 1/16, the opposite vertices
    mirrored: a fixed shape whose digits the seed moves."""
    half = [Point(rat(round(math.cos(t) * 16) + rng.randint(-1, 1), 16),
                  rat(round(math.sin(t) * 16) + rng.randint(-1, 1), 16))
            for t in (0.0, math.pi / 3, 2 * math.pi / 3)]
    return PolyhedralNorm(ConvexPolygon.hull(half + [p.scaled(rat(-1)) for p in half]))


def regular_pair(rng: random.Random, m: int, radius: float, gap: float, turn: float,
                 denom: int, jitter: int) -> tuple:
    """Two regular m-gons of circumradius ``radius``, the second turned by
    ``turn`` radians and centred ``gap`` to the right of the first.  Each
    coordinate is rounded to a multiple of 1/denom and then moved by a
    random multiple of 1/denom, at most ``jitter`` of them.  The shapes,
    and so the work done on them, are fixed; the seed moves only the
    low-order digits that set the rationals' sizes."""
    def polygon(cx: float, start: float) -> ConvexPolygon:
        pts = []
        for i in range(m):
            t = start + 2 * math.pi * i / m
            pts.append(Point(rat(round((cx + radius * math.cos(t)) * denom)
                                 + rng.randint(-jitter, jitter), denom),
                             rat(round(radius * math.sin(t) * denom)
                                 + rng.randint(-jitter, jitter), denom)))
        return ConvexPolygon.hull(pts)

    return polygon(0.0, 0.1), polygon(gap, 0.1 + turn)
