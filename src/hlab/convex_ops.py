"""Set-level vocabulary: neighborhoods, intersections, distances, Hausdorff.

Distances are taken in an arbitrary polyhedral norm.  The point-to-polygon
solver enumerates a complete finite candidate set (polygon vertices plus the
edge points where the displacement crosses a cone ray of the unit ball), so
the minimum is exact.  Set-to-set distances reduce to a single point query
against a Minkowski difference.

Directed Hausdorff distances are evaluated over source vertices only: the
distance-to-a-convex-set function is convex, so its maximum over a convex
compact is attained at an extreme point; against a union of convex parts
it only brackets the value, and an open bracket is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ._scalar import R0, R1, Rat, format_rat
from .geometry import (
    ORIGIN,
    ConvexPolygon,
    Membership,
    Point,
    Segment,
    clip_segment,
    contains_point,
)
from .norms import PolyhedralNorm, support


@dataclass(frozen=True)
class DistanceWitness:
    distance: Rat
    projection_point: Point


def minkowski_sum(P: ConvexPolygon, Q: ConvexPolygon) -> ConvexPolygon:
    """Exact Minkowski sum via the CCW edge-merge sweep."""
    if P.is_point:
        return Q.translate(P.vertices[0])
    if Q.is_point:
        return P.translate(Q.vertices[0])
    ep, eq = _sweep_edges(P), _sweep_edges(Q)
    start = _sweep_start(P) + _sweep_start(Q)
    chain = [start]
    i = j = 0
    cur = start
    while i < len(ep) or j < len(eq):
        if j >= len(eq):
            step = ep[i]
            i += 1
        elif i >= len(ep):
            step = eq[j]
            j += 1
        else:
            c = _angle_cmp(ep[i], eq[j])
            if c < 0:
                step = ep[i]
                i += 1
            elif c > 0:
                step = eq[j]
                j += 1
            else:
                step = ep[i] + eq[j]
                i += 1
                j += 1
        cur = cur + step
        chain.append(cur)
    return ConvexPolygon.hull(chain)


def _sweep_start(P: ConvexPolygon) -> Point:
    return min(P.vertices, key=lambda v: (v.y, v.x))


def _sweep_edges(P: ConvexPolygon) -> list[Point]:
    """Edge vectors in CCW angular order starting at the bottom-most vertex.

    A degenerate segment contributes its two opposite directed edges.
    """
    v = list(P.vertices)
    k = min(range(len(v)), key=lambda i: (v[i].y, v[i].x))
    v = v[k:] + v[:k]
    if P.n == 2:
        return [v[1] - v[0], v[0] - v[1]]
    return [v[(i + 1) % P.n] - v[i] for i in range(P.n)]


def _angle_half(d: Point) -> int:
    return 0 if d.y > 0 or (d.y == 0 and d.x > 0) else 1

def _angle_cmp(u: Point, w: Point) -> int:
    hu, hw = _angle_half(u), _angle_half(w)
    if hu != hw:
        return -1 if hu < hw else 1
    c = u.cross(w)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


def neighborhood(A: ConvexPolygon, r: Rat, n: PolyhedralNorm) -> ConvexPolygon:
    """Closed r-neighborhood of A: the Minkowski sum with the scaled ball."""
    if r < 0:
        raise ValueError("negative radius")
    if r == 0:
        return A
    return minkowski_sum(A, n.ball_of_radius(r))


def intersect(P: ConvexPolygon, Q: ConvexPolygon) -> Optional[ConvexPolygon]:
    """Exact convex intersection; None when disjoint."""
    if P.n <= 2:
        return _intersect_degenerate(P, Q)
    if Q.n <= 2:
        return _intersect_degenerate(Q, P)
    candidates: list[Point] = []
    for e in P.edges():
        c = clip_segment(e, Q)
        if c is not None:
            candidates.extend((c.a, c.b))
    for v in Q.vertices:
        if contains_point(P, v) != Membership.OUTSIDE:
            candidates.append(v)
    if not candidates:
        return None
    return ConvexPolygon.hull(candidates)


def _intersect_degenerate(D: ConvexPolygon, Q: ConvexPolygon) -> Optional[ConvexPolygon]:
    if D.is_point:
        p = D.vertices[0]
        return D if contains_point(Q, p) != Membership.OUTSIDE else None
    c = clip_segment(Segment(D.vertices[0], D.vertices[1]), Q)
    if c is None:
        return None
    return ConvexPolygon.hull([c.a, c.b])


def point_distance(x: Point, P: ConvexPolygon, n: PolyhedralNorm) -> DistanceWitness:
    """Exact gauge distance from x to P with a realizing projection point.

    Ties are broken toward the lexicographically smallest realizer; the full
    metric projection may be a segment, of which this is one endpoint.
    """
    if contains_point(P, x) != Membership.OUTSIDE:
        return DistanceWitness(R0, x)
    candidates = list(P.vertices)
    for e in P.edges():  # a point's one degenerate edge adds no candidate
        d, xa = e.b - e.a, x - e.a
        for w in n.unit_ball.vertices:
            denom = d.cross(w)
            if denom == 0:
                continue
            # a on the edge with (x - a) parallel to the ball vertex w
            s = xa.cross(w) / denom
            if R0 < s < R1:
                candidates.append(e.a + d.scaled(s))
    best: Optional[Point] = None
    best_d: Optional[Rat] = None
    for a in candidates:
        dist = n.gauge(x - a)
        if best_d is None or dist < best_d or (dist == best_d and a.key() < best.key()):
            best, best_d = a, dist
    return DistanceWitness(best_d, best)


def signed_distance(x: Point, P: ConvexPolygon, n: PolyhedralNorm) -> Rat:
    """Gauge distance from x to P outside P, minus the depth of x inside P:
    max over directions u of (<x, u> - h_P(u)) / h_K(u), K the unit ball.
    The ratio is linear-fractional on each cone of the common normal fan of
    P and K, so its maximum sits at an edge normal of P or of K."""
    K = n.unit_ball
    return max((x.dot(u) - support(P, u)) / support(K, u)
               for u in P.edge_normals() + K.edge_normals())


def set_distance(P: ConvexPolygon, Q: ConvexPolygon, n: PolyhedralNorm) -> Rat:
    """min over p in P, q in Q of the gauge distance; 0 iff the sets meet."""
    diff = minkowski_sum(Q, P.reflected())
    return point_distance(ORIGIN, diff, n).distance


def segment_distance(s: Segment, P: ConvexPolygon, n: PolyhedralNorm) -> Rat:
    return set_distance(ConvexPolygon.hull([s.a, s.b]), P, n)


def hausdorff(P: ConvexPolygon, Q: ConvexPolygon, n: PolyhedralNorm) -> Rat:
    return hausdorff_union((P,), (Q,), n)


def _directed_union(Ps: Sequence[ConvexPolygon], Qs: Sequence[ConvexPolygon],
                    n: PolyhedralNorm) -> Rat:
    """sup over the union of Ps of the distance to the union of Qs, pinned on
    each part P between max_v min_j |v Q_j| and min_j max_v |v Q_j| over its
    vertices v (each |. Q_j| is convex); ValueError unless the bounds meet."""
    lower = upper = R0
    for P in Ps:
        table = [[point_distance(v, Q, n).distance for Q in Qs] for v in P.vertices]
        lower = max(lower, max(min(row) for row in table))
        upper = max(upper, min(max(col) for col in zip(*table)))
    if lower != upper:
        raise ValueError("union Hausdorff distance not certified: vertex bounds "
                         f"{format_rat(lower)} and {format_rat(upper)} differ")
    return lower


def hausdorff_union(Ps: Sequence[ConvexPolygon], Qs: Sequence[ConvexPolygon],
                    n: PolyhedralNorm) -> Rat:
    """Hausdorff distance between finite unions, vertex-enumerated per part."""
    if not Ps or not Qs:
        raise ValueError("empty union")
    return max(_directed_union(Ps, Qs, n), _directed_union(Qs, Ps, n))


def subset_of(P: ConvexPolygon, Q: ConvexPolygon) -> bool:
    """P <= Q, decided on vertices (sufficient by convexity)."""
    return all(contains_point(Q, v) != Membership.OUTSIDE for v in P.vertices)
