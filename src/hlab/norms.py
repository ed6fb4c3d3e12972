"""Polyhedral norms: gauges of symmetric convex unit balls.

A polyhedral norm is represented by its unit ball, a centrally symmetric
convex polygon with the origin strictly inside.  The gauge (Minkowski
functional) of a rational vector against such a ball is itself rational, so
every distance this package computes stays exact.

The Euclidean norm cannot live in exact rational arithmetic; instead
``euclidean_approx`` builds a certified sandwich: an inscribed polygon with
vertices exactly on the unit circle (rational points from the Pythagorean
parametrization) and a scaled copy certified to contain the unit disc.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt

from ._scalar import R0, Rat, rat
from .geometry import ORIGIN, ConvexPolygon, Membership, Point, contains_point, pt


@dataclass(frozen=True)
class PolyhedralNorm:
    unit_ball: ConvexPolygon

    def __post_init__(self):
        ball = self.unit_ball
        if ball.n < 4:
            raise ValueError("ball not centrally symmetric")
        vset = set(ball.vertices)
        if any(v.scaled(rat(-1)) not in vset for v in ball.vertices):
            raise ValueError("ball not centrally symmetric")
        if contains_point(ball, ORIGIN) != Membership.INTERIOR:
            raise ValueError("origin not interior")
        # outward edge normals (a, b) with <a, x> <= b, b > 0; the gauge of v
        # is then max_e <a_e, v> / b_e
        rows = tuple((a, a.dot(p)) for a, p in zip(ball.edge_normals(), ball.vertices))
        object.__setattr__(self, "_edge_normals", rows)

    def gauge(self, v: Point) -> Rat:
        """min{t >= 0 : v in t * unit_ball}; exact, 0 iff v = 0."""
        if v.x == 0 and v.y == 0:
            return R0
        return max(a.dot(v) / b for a, b in self._edge_normals)

    def ball_of_radius(self, r: Rat) -> ConvexPolygon:
        return self.unit_ball.scaled(r)


def support(P: ConvexPolygon, u: Point) -> Rat:
    """Support function h_P(u) = max over vertices of <vertex, u>."""
    if u.x == 0 and u.y == 0:
        raise ValueError("zero direction")
    return max(v.dot(u) for v in P.vertices)


def linf_norm() -> PolyhedralNorm:
    return PolyhedralNorm(ConvexPolygon.hull([pt(1, 1), pt(-1, 1), pt(-1, -1), pt(1, -1)]))


def l1_norm() -> PolyhedralNorm:
    return PolyhedralNorm(ConvexPolygon.hull([pt(1, 0), pt(0, 1), pt(-1, 0), pt(0, -1)]))


@dataclass(frozen=True)
class NormSandwich:
    """inner unit ball <= Euclidean unit disc <= outer unit ball.

    For every vector, outer.gauge(v) <= |v|_2 <= inner.gauge(v) and
    inner.gauge(v) / outer.gauge(v) <= ratio_bound.
    """

    inner: PolyhedralNorm
    outer: PolyhedralNorm
    ratio_bound: Rat


def _circle_point(t: Rat) -> Point:
    """Rational point on the unit circle from the tangent half-angle t."""
    one = rat(1)
    d = one + t * t
    return Point((one - t * t) / d, (t + t) / d)


def _sqrt_upper_bound(q: Rat, scale: int = 10**6) -> Rat:
    """Rational r with r >= sqrt(q) and r - sqrt(q) <= 2/scale, for q >= 0."""
    num, den = int(q.numerator), int(q.denominator)
    m = isqrt((num * scale * scale) // den) + 1
    return rat(m, scale)


def _tan_pi(i: int, m: int) -> Fraction:
    """tan(pi i / m) for 0 <= i / m < 1/2, to 60 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        # Machin: pi = 16 atan(1/5) - 4 atan(1/239), each by its power series
        pi = Decimal(0)
        for c, q in ((16, 5), (-4, 239)):
            term, j = Decimal(c) / q, 1
            while pi + term / j != pi:
                pi += term / j
                term, j = -term / (q * q), j + 2
        # the series of exp(ix), split by j mod 4 into +cos, +sin, -cos, -sin
        x = pi * i / m
        sums, term, j = [Decimal(0)] * 4, Decimal(1), 0
        while sums[j % 4] + term != sums[j % 4]:
            sums[j % 4] += term
            j += 1
            term = term * x / j
        return Fraction((sums[1] - sums[3]) / (sums[0] - sums[2]))


def euclidean_approx(k: int) -> NormSandwich:
    """Certified polygonal sandwich of the Euclidean norm.

    The inner ball is a 2k-gon inscribed in the unit disc: k near-equiangular
    rational points on the upper half circle plus their negations.  The outer
    ball is the inner ball scaled by a rational upper bound of the secant
    factor, checked exactly edge by edge against the unit disc.
    """
    if k < 3:
        raise ValueError("k too small")
    params = [_tan_pi(i, 2 * k).limit_denominator(10**4) for i in range(k)]
    upper = [_circle_point(rat(t)) for t in params]
    inner_ball = ConvexPolygon.hull(upper + [p.scaled(rat(-1)) for p in upper])
    inner = PolyhedralNorm(inner_ball)
    # squared reciprocal distance from the origin to each chord is rational
    worst = max(a.dot(a) / (b * b) for a, b in inner._edge_normals)
    s = _sqrt_upper_bound(worst)
    outer = PolyhedralNorm(inner_ball.scaled(s))
    # certify disc <= outer: every outer edge at Euclidean distance >= 1,
    # i.e. b^2 >= |a|^2 for the edge line <a, x> = b
    for a, b in outer._edge_normals:
        if b * b < a.dot(a):
            raise AssertionError("sandwich certification failed")
    return NormSandwich(inner=inner, outer=outer, ratio_bound=s)
