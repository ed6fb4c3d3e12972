import random

import pytest

from hlab import ConvexPolygon, PolyhedralNorm, linf_norm, l1_norm
from hlab._scalar import rat
from hlab.geometry import Point


def rational_coord(rng: random.Random, lo=-4, hi=4, denom_max=16):
    den = rng.randint(1, denom_max)
    return rat(rng.randint(lo * den, hi * den), den)


def random_point(rng: random.Random, lo=-4, hi=4, denom_max=16) -> Point:
    return Point(rational_coord(rng, lo, hi, denom_max),
                 rational_coord(rng, lo, hi, denom_max))


def random_polygon(rng: random.Random, nmin=4, nmax=10, lo=-4, hi=4,
                   denom_max=16) -> ConvexPolygon:
    """Random convex polygon with nmin..nmax vertices and small rational coords."""
    while True:
        pts = [random_point(rng, lo, hi, denom_max) for _ in range(12)]
        hull = ConvexPolygon.hull(pts)
        if nmin <= hull.n <= nmax:
            return hull


def random_hexagon_norm(rng: random.Random):
    """Random centrally symmetric hexagon norm."""
    while True:
        a = random_point(rng, 1, 3, 4)
        b = Point(-rational_coord(rng, 1, 3, 4), rational_coord(rng, 1, 3, 4))
        c = Point(rational_coord(rng, -1, 1, 4), rational_coord(rng, 2, 4, 4))
        ball = ConvexPolygon.hull(
            [a, b, c, a.scaled(rat(-1)), b.scaled(rat(-1)), c.scaled(rat(-1))])
        if ball.n == 6:
            try:
                return PolyhedralNorm(ball)
            except ValueError:
                continue


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def linf():
    return linf_norm()


@pytest.fixture
def l1():
    return l1_norm()
