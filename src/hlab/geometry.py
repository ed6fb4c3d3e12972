"""Exact planar primitives: points, segments, convex polygons, predicates.

Everything here is pure and exact: no floats, no epsilons.  Convex polygons
are kept in a canonical form (CCW, strictly convex, starting at the
lexicographically smallest vertex) so structural equality is set equality.
Degenerate polygons (a single point, a segment) are legal values; they show
up naturally as intersections at critical radii.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from ._scalar import R0, R1, Rat, rat


@dataclass(frozen=True)
class Point:
    x: Rat
    y: Rat

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def scaled(self, t: Rat) -> "Point":
        return Point(self.x * t, self.y * t)

    def dot(self, other: "Point") -> Rat:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> Rat:
        return self.x * other.y - self.y * other.x

    def key(self) -> tuple:
        """Lexicographic sort key."""
        return (self.x, self.y)


ORIGIN = Point(R0, R0)


def pt(x, y) -> Point:
    """Point from anything ``rat`` accepts (ints, 'p/q' strings, Fractions)."""
    return Point(rat(x), rat(y))


def orientation(p: Point, q: Point, r: Point) -> int:
    """Sign of the cross product (q - p) x (r - p): +1 CCW, -1 CW, 0 collinear."""
    c = (q - p).cross(r - p)
    if c > 0:
        return 1
    if c < 0:
        return -1
    return 0


@dataclass(frozen=True)
class Segment:
    a: Point
    b: Point

    @property
    def is_degenerate(self) -> bool:
        return self.a == self.b

    def point_at(self, t: Rat) -> Point:
        return self.a + (self.b - self.a).scaled(t)

    def contains(self, p: Point) -> bool:
        if self.is_degenerate:
            return p == self.a
        if orientation(self.a, self.b, p) != 0:
            return False
        d = self.b - self.a
        s = (p - self.a).dot(d)
        return R0 <= s <= d.dot(d)


class Membership(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class ConvexPolygon:
    """Convex compact as a canonical CCW vertex tuple (cardinality >= 1)."""

    vertices: tuple

    @staticmethod
    def hull(points: Iterable[Point]) -> "ConvexPolygon":
        return ConvexPolygon(tuple(convex_hull_vertices(points)))

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def is_point(self) -> bool:
        return self.n == 1

    @property
    def is_segment(self) -> bool:
        return self.n == 2

    def edges(self) -> list[Segment]:
        """Boundary segments: the full cycle for 2D polygons, the single
        segment for a degenerate segment, the point itself for a point."""
        v = self.vertices
        if self.n == 1:
            return [Segment(v[0], v[0])]
        if self.n == 2:
            return [Segment(v[0], v[1])]
        return [Segment(v[i], v[(i + 1) % self.n]) for i in range(self.n)]

    def edge_normals(self) -> list[Point]:
        """Outward normals (d.y, -d.x) of the CCW edges d; a segment has two."""
        v = self.vertices
        if self.n == 1:
            return []
        return [Point(q.y - p.y, p.x - q.x) for p, q in zip(v, v[1:] + v[:1])]

    # Translation and positive scaling keep the canonical order (lexicographic
    # start, CCW, strict convexity); reflection rotates it, t = 0 collapses it.
    def translate(self, d: Point) -> "ConvexPolygon":
        return ConvexPolygon(tuple(v + d for v in self.vertices))

    def scaled(self, t: Rat) -> "ConvexPolygon":
        if t > 0:
            return ConvexPolygon(tuple(v.scaled(t) for v in self.vertices))
        return ConvexPolygon.hull(v.scaled(t) for v in self.vertices)

    def reflected(self) -> "ConvexPolygon":
        """Point reflection through the origin."""
        return self.scaled(rat(-1))

    def bounding_box(self) -> tuple[Rat, Rat, Rat, Rat]:
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        return (min(xs), max(xs), min(ys), max(ys))


def convex_hull_vertices(points: Iterable[Point]) -> list[Point]:
    """Monotone-chain hull; strictly convex output (collinear points dropped).

    Returns the canonical CCW list starting at the lexicographically
    smallest vertex.  Degenerate outputs (one or two points) are allowed.
    """
    pts = sorted(set(points), key=Point.key)
    if not pts:
        raise ValueError("empty point set")
    if len(pts) == 1:
        return pts
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and orientation(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and orientation(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    if len(lower) == 2 and len(upper) == 2:
        return [pts[0], pts[-1]]  # all collinear
    return lower[:-1] + upper[:-1]


def contains_point(P: ConvexPolygon, x: Point) -> Membership:
    """Exact three-way membership test against a convex polygon."""
    v = P.vertices
    if P.n == 1:
        return Membership.BOUNDARY if x == v[0] else Membership.OUTSIDE
    if P.n == 2:
        return Membership.BOUNDARY if Segment(v[0], v[1]).contains(x) else Membership.OUTSIDE
    on_edge = False
    for i in range(P.n):
        o = orientation(v[i], v[(i + 1) % P.n], x)
        if o < 0:
            return Membership.OUTSIDE
        if o == 0:
            on_edge = True
    return Membership.BOUNDARY if on_edge else Membership.INTERIOR


def _clip_to_segment(s: Segment, t: Segment) -> Optional[Segment]:
    """Intersection of two segments as a (possibly degenerate) segment."""
    if s.is_degenerate:
        return Segment(s.a, s.a) if t.contains(s.a) else None
    if t.is_degenerate:
        return Segment(t.a, t.a) if s.contains(t.a) else None
    da, db = s.b - s.a, t.b - t.a
    denom = da.cross(db)
    if denom == 0:
        if orientation(s.a, s.b, t.a) != 0:
            return None
        # collinear overlap: parametrize t's endpoints on s
        dd = da.dot(da)
        lo = (t.a - s.a).dot(da) / dd
        hi = (t.b - s.a).dot(da) / dd
        if lo > hi:
            lo, hi = hi, lo
        lo = max(lo, R0)
        hi = min(hi, R1)
        if lo > hi:
            return None
        return Segment(s.point_at(lo), s.point_at(hi))
    u = (t.a - s.a).cross(db) / denom
    w = (t.a - s.a).cross(da) / denom
    if R0 <= u <= R1 and R0 <= w <= R1:
        p = s.point_at(u)
        return Segment(p, p)
    return None


def clip_segment(s: Segment, P: ConvexPolygon) -> Optional[Segment]:
    """The (possibly degenerate) sub-segment s n P, or None when disjoint."""
    if P.n == 1:
        p = P.vertices[0]
        return Segment(p, p) if s.contains(p) else None
    if P.n == 2:
        return _clip_to_segment(s, Segment(P.vertices[0], P.vertices[1]))
    if s.is_degenerate:
        return Segment(s.a, s.a) if contains_point(P, s.a) != Membership.OUTSIDE else None
    d = s.b - s.a
    tlo, thi = R0, R1
    v = P.vertices
    for i in range(P.n):
        a, b = v[i], v[(i + 1) % P.n]
        e = b - a
        # inside: e x (x - a) >= 0; along s this is c0 + t*c1 >= 0
        c0 = e.cross(s.a - a)
        c1 = e.cross(d)
        if c1 == 0:
            if c0 < 0:
                return None
        elif c1 > 0:
            tlo = max(tlo, -c0 / c1)
        else:
            thi = min(thi, -c0 / c1)
        if tlo > thi:
            return None
    return Segment(s.point_at(tlo), s.point_at(thi))
