"""Independent exact reference for the benchmark's checks.

Every routine works on plain ``fractions.Fraction`` pairs and reads nothing
from hlab but polygon vertex lists, so it shares no code with hlab's
Minkowski-sum and vertex-enumeration paths.  Distances use support
functions (Schneider, *Convex Bodies: The Brunn-Minkowski Theory*, 1.8):

* a convex polygon C with unit ball K: ``x in C + tK`` iff
  ``<x,u> <= h_C(u) + t h_K(u)`` for every edge normal u of C and K;
* so ``dist(x, C) = max(0, max_u (<x,u> - h_C(u)) / h_K(u))`` and
  ``d_H(P, Q) = max_u |h_P(u) - h_Q(u)| / h_K(u)``, with u over the edge
  normals of the sets involved (the ratios are linear-fractional on each
  cone of the common normal fan, so the extremes sit on its rays).

A polygon is a tuple of (x, y) Fraction pairs in hlab's canonical order:
counter-clockwise, strictly convex, starting at the lexicographically
smallest vertex; one or two vertices stand for a point or a segment.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

Pt = tuple  # (Fraction, Fraction)


def vertices(P) -> tuple:
    """Vertex tuple of an hlab polygon as Fraction pairs."""
    return tuple((Fraction(v.x), Fraction(v.y)) for v in P.vertices)


def dot(p: Pt, q: Pt) -> Fraction:
    return p[0] * q[0] + p[1] * q[1]


def cross(p: Pt, q: Pt) -> Fraction:
    return p[0] * q[1] - p[1] * q[0]


def sub(p: Pt, q: Pt) -> Pt:
    return (p[0] - q[0], p[1] - q[1])


def normals(P: Sequence[Pt]) -> list:
    """Outward edge normals of a CCW polygon; both sides of a segment;
    none for a point."""
    if len(P) == 1:
        return []
    if len(P) == 2:
        d = sub(P[1], P[0])
        return [(d[1], -d[0]), (-d[1], d[0])]
    out = []
    for i, p in enumerate(P):
        d = sub(P[(i + 1) % len(P)], p)
        out.append((d[1], -d[0]))
    return out


def support(P: Sequence[Pt], u: Pt) -> Fraction:
    return max(dot(v, u) for v in P)


def gauge(K: Sequence[Pt], v: Pt) -> Fraction:
    """Gauge of v for the unit ball K: max over K's edges of <a,v>/h_K(a)."""
    return max(Fraction(0), max(dot(a, v) / support(K, a) for a in normals(K)))


def point_distance(x: Pt, C: Sequence[Pt], K: Sequence[Pt]) -> Fraction:
    worst = Fraction(0)
    for u in normals(C) + normals(K):
        worst = max(worst, (dot(x, u) - support(C, u)) / support(K, u))
    return worst


def set_distance(A: Sequence[Pt], B: Sequence[Pt], K: Sequence[Pt]) -> Fraction:
    """Distance from the origin to B - A, over the normals of B, of -A and
    of K: ``max(0, max_u -(h_B(u) + h_A(-u)) / h_K(u))``."""
    worst = Fraction(0)
    for u in normals(B) + [(-a, -b) for a, b in normals(A)] + normals(K):
        h = support(B, u) + support(A, (-u[0], -u[1]))
        worst = max(worst, -h / support(K, u))
    return worst


def hausdorff(P: Sequence[Pt], Q: Sequence[Pt], K: Sequence[Pt]) -> Fraction:
    return max(abs(support(P, u) - support(Q, u)) / support(K, u)
               for u in normals(P) + normals(Q) + normals(K))


def hausdorff_union(Ps: Sequence[Sequence[Pt]], Qs: Sequence[Sequence[Pt]],
                    K: Sequence[Pt]) -> Fraction:
    """Hausdorff distance of finite unions of convex parts.  The distance to
    a union is the min over its parts, and the largest distance from a
    convex part to a fixed set sits at one of its vertices."""
    def directed(Xs, Ys):
        return max(min(point_distance(v, Y, K) for Y in Ys) for X in Xs for v in X)
    return max(directed(Ps, Qs), directed(Qs, Ps))


def contains(C: Sequence[Pt], x: Pt) -> bool:
    """x in C, closed, for any convex polygon including points and segments."""
    if len(C) == 1:
        return x == C[0]
    if len(C) == 2:
        d = sub(C[1], C[0])
        s = dot(sub(x, C[0]), d)
        return cross(d, sub(x, C[0])) == 0 and 0 <= s <= dot(d, d)
    return all(cross(sub(C[(i + 1) % len(C)], p), sub(x, p)) >= 0
               for i, p in enumerate(C))


def canonical(points: Iterable[Pt]) -> tuple:
    """Canonical vertex tuple of the convex polygon traced CCW by ``points``
    (repeats and collinear points allowed)."""
    ring = []
    for p in points:
        if not ring or ring[-1] != p:
            ring.append(p)
    while len(ring) > 1 and ring[0] == ring[-1]:
        ring.pop()
    if len(ring) == 1:
        return tuple(ring)
    if all(cross(sub(ring[1], ring[0]), sub(p, ring[0])) == 0 for p in ring):
        return (min(ring), max(ring))
    ring = [b for i, b in enumerate(ring)
            if cross(sub(b, ring[i - 1]), sub(ring[(i + 1) % len(ring)], b)) != 0]
    k = ring.index(min(ring))
    return tuple(ring[k:] + ring[:k])


def clip(B: Sequence[Pt], halfplanes: Iterable[tuple]) -> Optional[tuple]:
    """B intersected with ``<x,u> <= c`` for each (u, c); None when empty."""
    poly = list(B)
    for u, c in halfplanes:
        if not poly:
            return None
        out = []
        m = len(poly)
        for i in range(m):
            p, q = poly[i], poly[(i + 1) % m]
            fp, fq = dot(p, u) - c, dot(q, u) - c
            if fp <= 0:
                out.append(p)
            if (fp < 0 < fq) or (fq < 0 < fp):
                t = fp / (fp - fq)
                out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
            if m == 1:
                break
        poly = out
    return canonical(poly) if poly else None


def f_eval(A: Sequence[Pt], B: Sequence[Pt], r: Fraction,
           K: Sequence[Pt]) -> Optional[tuple]:
    """f(r) = B_r(A) n B, clipping B against the facets
    ``<x,u> <= h_A(u) + r h_K(u)`` of B_r(A)."""
    return clip(B, [(u, support(A, u) + r * support(K, u))
                    for u in normals(A) + normals(K)])


def edge_lines(P: Sequence[Pt]) -> list:
    """(a, b) for each edge line <a, x> = b of a CCW polygon, a outward."""
    return [(u, dot(u, P[i])) for i, u in enumerate(normals(P))]
