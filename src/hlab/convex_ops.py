"""Set-level vocabulary: neighborhoods, intersections, distances, Hausdorff.

Distances are taken in an arbitrary polyhedral norm with unit ball K, and
every one of them comes from one kernel over support functions h:

    excess(P, Q) = max over x in P of sd_Q(x)
                 = max over directions u of (h_P(u) - h_Q(u)) / h_K(u),

with sd_Q the signed distance to Q (the distance outside Q, minus the depth
inside).  sd_Q is convex, so its maximum over P swaps with the maximum over
u; the ratio is linear-fractional on each cone of the common normal fan of
P, Q and K, so only their edge normals need to be tried (Schneider, *Convex
Bodies*, section 1.8).  A point has no edge normals, so sd_Q(x) is the
excess of {x}; the Hausdorff distance is max(0, excess(P, Q), excess(Q, P));
the distance between two sets is that from the origin to Q + (-P).

Against a union of convex parts the distance is no longer convex: each
directed pass is pinned per source part between a vertex bound and the
convex bound min_j excess(P, Q_j), and an open bracket is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ._scalar import R0, Rat, format_rat
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
    """Exact convex intersection; None when disjoint.  A point or a segment
    has one (possibly degenerate) edge, so every operand takes one path."""
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


def _excess(P: ConvexPolygon, Q: ConvexPolygon, n: PolyhedralNorm) -> Rat:
    """max over x in P of sd_Q(x), over the edge normals of P, Q and K."""
    K = n.unit_ball
    return max((support(P, u) - support(Q, u)) / support(K, u)
               for u in P.edge_normals() + Q.edge_normals() + K.edge_normals())


def point_distance(x: Point, P: ConvexPolygon, n: PolyhedralNorm) -> DistanceWitness:
    """Exact gauge distance from x to P with a realizing projection point.

    The projection is the lexicographically smallest point of P nearest x,
    the first vertex of P n (x + d K); the full metric projection may be a
    segment, of which this is one endpoint.
    """
    d = max(R0, signed_distance(x, P, n))
    if d == 0:
        return DistanceWitness(R0, x)
    return DistanceWitness(d, intersect(P, n.ball_of_radius(d).translate(x)).vertices[0])


def signed_distance(x: Point, P: ConvexPolygon, n: PolyhedralNorm) -> Rat:
    """Gauge distance from x to P outside P, minus the depth of x inside P."""
    return _excess(ConvexPolygon((x,)), P, n)


def set_distance(P: ConvexPolygon, Q: ConvexPolygon, n: PolyhedralNorm) -> Rat:
    """min over p in P, q in Q of the gauge distance; 0 iff the sets meet."""
    return max(R0, signed_distance(ORIGIN, minkowski_sum(Q, P.reflected()), n))


def segment_distance(s: Segment, P: ConvexPolygon, n: PolyhedralNorm) -> Rat:
    return set_distance(ConvexPolygon.hull([s.a, s.b]), P, n)


def hausdorff(P: ConvexPolygon, Q: ConvexPolygon, n: PolyhedralNorm) -> Rat:
    return max(R0, _excess(P, Q, n), _excess(Q, P, n))


def _directed_union(Ps: Sequence[ConvexPolygon], Qs: Sequence[ConvexPolygon],
                    n: PolyhedralNorm) -> Rat:
    """sup over the union of Ps of the distance to the union of Qs, pinned on
    each part P between max_v min_j |v Q_j| over its vertices v and
    min_j sup_P |. Q_j| (each |. Q_j| is convex); ValueError unless the
    bounds meet."""
    lower = upper = R0
    for P in Ps:
        lower = max(lower, max(min(signed_distance(v, Q, n) for Q in Qs) for v in P.vertices))
        upper = max(upper, min(max(R0, _excess(P, Q, n)) for Q in Qs))
    if lower != upper:
        raise ValueError("union Hausdorff distance not certified: vertex bounds "
                         f"{format_rat(lower)} and {format_rat(upper)} differ")
    return lower


def hausdorff_union(Ps: Sequence[ConvexPolygon], Qs: Sequence[ConvexPolygon],
                    n: PolyhedralNorm) -> Rat:
    """Hausdorff distance between finite unions, certified per part."""
    if not Ps or not Qs:
        raise ValueError("empty union")
    return max(_directed_union(Ps, Qs, n), _directed_union(Qs, Ps, n))


def subset_of(P: ConvexPolygon, Q: ConvexPolygon) -> bool:
    """P <= Q, decided on vertices (sufficient by convexity)."""
    return all(contains_point(Q, v) != Membership.OUTSIDE for v in P.vertices)
