"""Continuity witnesses for f(r) = B_r(A) n B.

The main theorem's proof is constructive on both sides:

* right: K = B n boundary(B_eps(M)) with M = f(r); any r' in [r, r + delta)
  with delta = |K B_r(A)| keeps d_H(f(r), f(r')) <= eps (delta infinite when
  K is empty, i.e. B already sits inside B_eps(M));
* left: pull M toward a point p of B strictly inside B_r(A) by the
  contraction g(x) = x + lambda (p - x) with lambda L <= eps; then
  delta = |g(M) boundary(B_r(A))| works for r' in (r - delta, r].

B_r(A) is the r-sublevel set of the distance to A, so both radii are
distances to A and B_r(A) is never built: |x B_r(A)| = max(0, |x A| - r)
gives delta_right = min over s in K of |s A| - r, and for x in B_r(A),
|x boundary(B_r(A))| = r - sd_A(x) with sd_A the (convex) signed distance to
A, so delta_left = r - max over the vertices v of g(M) of sd_A(v).

Both witnesses are computed exactly and can be re-verified sample by sample;
each verified radius is a machine-checked instance of the theorem.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import gcd, lcm
from typing import Optional, Sequence, Union

from ._scalar import R0, R1, Rat, rat, rat_ceil, rat_floor
from .geometry import ConvexPolygon, Point, clip_segment
from .norms import PolyhedralNorm
from .convex_ops import (hausdorff, intersect, neighborhood, segment_distance, set_distance,
                         signed_distance)


class DomainError(ValueError):
    """A query outside the mathematical domain of an operation."""


def f_eval(A: ConvexPolygon, B: ConvexPolygon, r: Rat, n: PolyhedralNorm) -> ConvexPolygon:
    """f(r) = B_r(A) n B; defined for r >= |A B| and then non-empty.

    Both sets are closed and the clip is exact, so it is empty exactly when
    r < |A B|: emptiness is the domain test.
    """
    M = intersect(neighborhood(A, r, n), B) if r >= 0 else None
    if M is None:
        raise DomainError("radius below set distance")
    return M


@dataclass(frozen=True)
class RightWitness:
    epsilon: Rat
    M: ConvexPolygon
    K: tuple
    delta: Optional[Rat]  # None encodes +infinity (K empty: any r' >= r works)

    @property
    def delta_is_infinite(self) -> bool:
        return self.delta is None


def delta_right(A: ConvexPolygon, B: ConvexPolygon, r: Rat, epsilon: Rat,
                n: PolyhedralNorm) -> RightWitness:
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    M = f_eval(A, B, r, n)
    N = neighborhood(M, epsilon, n)
    K = []
    for e in N.edges():
        c = clip_segment(e, B)
        if c is not None:
            K.append(c)
    if not K:
        return RightWitness(epsilon, M, (), None)
    delta = min(segment_distance(seg, A, n) for seg in K) - r
    if delta <= 0:
        raise AssertionError("right witness certification failed: delta <= 0")
    return RightWitness(epsilon, M, tuple(K), delta)


@dataclass(frozen=True)
class LeftWitness:
    epsilon: Rat
    M: ConvexPolygon
    p: Point
    lam: Rat
    L: Rat
    gM: ConvexPolygon
    delta: Rat


def delta_left(A: ConvexPolygon, B: ConvexPolygon, r: Rat, epsilon: Rat,
               n: PolyhedralNorm) -> LeftWitness:
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    d = set_distance(A, B, n)
    if r <= d:
        raise DomainError("left witness needs r strictly above set distance")
    M = f_eval(A, B, r, n)
    # f(|A B|) is the set of points of B nearest A; canonical order starts at its lex-min
    p = f_eval(A, B, d, n).vertices[0]
    L = max(n.gauge(p - x) for x in M.vertices)
    half = rat(1, 2)
    lam = min(epsilon / L, half) if L > 0 else half
    gM = ConvexPolygon.hull(x + (p - x).scaled(lam) for x in M.vertices)
    delta = r - max(signed_distance(v, A, n) for v in gM.vertices)
    if delta <= 0:
        raise AssertionError("left witness certification failed: delta <= 0")
    return LeftWitness(epsilon, M, p, lam, L, gM, delta)


@dataclass(frozen=True)
class ModulusReport:
    r: Rat
    r_prime_samples: tuple
    epsilon: Rat
    side: str  # "left" | "right"
    all_passed: bool
    worst_gap: Rat
    note: Optional[str] = None
    # the witness whose window was sampled; None for the left side at r = |A B|
    witness: Union[RightWitness, LeftWitness, None] = None


def verify_modulus(A: ConvexPolygon, B: ConvexPolygon, r: Rat, epsilon: Rat,
                   n: PolyhedralNorm, samples: int = 8) -> tuple[ModulusReport, ModulusReport]:
    """Sample both one-sided witnesses and check d_H(f(r), f(r')) <= eps exactly.

    Each side samples its witness window, capped at width 1.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if epsilon <= 0:
        f_eval(A, B, r, n)  # a radius below |A B| is reported before a bad epsilon
    right = delta_right(A, B, r, epsilon, n)
    M = right.M

    def sampled(witness, side: str, span: Rat) -> ModulusReport:
        # span < 0 samples to the left of r
        rs = tuple(r + span * i / (samples + 1) for i in range(1, samples + 1))
        gaps = [hausdorff(M, f_eval(A, B, rp, n), n) for rp in rs]
        return ModulusReport(r, rs, epsilon, side, all(g <= epsilon for g in gaps),
                             max(gaps), witness=witness)

    right_report = sampled(right, "right", R1 if right.delta is None else min(right.delta, R1))
    try:
        left = delta_left(A, B, r, epsilon, n)
    except DomainError:  # delta_right has ruled out r < |A B| and epsilon <= 0
        return right_report, ModulusReport(r, (), epsilon, "left", True, R0,
                                           note="not applicable at domain endpoint")
    # g(M) <= B puts each vertex of g(M) at distance >= |A B| from A, so
    # delta_left <= r - |A B| whenever |A B| > 0
    return right_report, sampled(left, "left", -min(left.delta, r, R1))


@dataclass(frozen=True)
class ScanRow:
    r: Rat
    r_next: Rat
    gap: Rat
    ratio: Rat


def modulus_table(A: ConvexPolygon, B: ConvexPolygon, n: PolyhedralNorm,
                  radii: Sequence[Rat], h: Rat) -> list[ScanRow]:
    ahead: dict = {}  # f(r + h) of earlier rows, reused when a later row starts there
    rows = []
    for r in sorted(radii):
        M = ahead.pop(r) if r in ahead else f_eval(A, B, r, n)
        M_next = ahead[r + h] = f_eval(A, B, r + h, n)
        g = hausdorff(M, M_next, n)
        rows.append(ScanRow(r, r + h, g, g / h))
    return rows


def modulus_scan(A: ConvexPolygon, B: ConvexPolygon, n: PolyhedralNorm,
                 r_lo: Rat, r_hi: Rat, steps: int) -> list[ScanRow]:
    """Gap table d_H(f(r), f(r+h)) over equispaced radii, h = (r_hi-r_lo)/steps.

    A range starting below |A B| fails on the first row's f(r_lo).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if r_hi <= r_lo:
        raise ValueError("empty radius range")
    h = (r_hi - r_lo) / steps
    return modulus_table(A, B, n, [r_lo + h * j for j in range(steps)], h)


def _num_den(q: Rat) -> tuple[int, int]:
    return int(q.numerator), int(q.denominator)


def _edge_coords(u0: Rat, u1: Rat, m: int) -> list[tuple[int, int]]:
    """(u0 (m - j) + u1 j) / m for j = 1 .. m - 1, each as a reduced
    (numerator, denominator) pair."""
    (n0, d0), (n1, d1) = _num_den(u0), _num_den(u1)
    d = lcm(d0, d1)
    n0, n1, den = n0 * (d // d0), n1 * (d // d1), d * m
    out = []
    for j in range(1, m):
        num = n0 * (m - j) + n1 * j
        g = gcd(num, den)
        out.append((num // g, den // g))
    return out


def _boundary_samples(P: ConvexPolygon, n: PolyhedralNorm,
                      spacing: Rat) -> list[tuple[int, int, int, int]]:
    """The vertices of P, then the points that split each edge into pieces
    of gauge length <= ``spacing``, each as (x numerator, x denominator,
    y numerator, y denominator) in lowest terms."""
    out = [(*_num_den(v.x), *_num_den(v.y)) for v in P.vertices]
    for e in P.edges():
        if e.is_degenerate:
            continue
        m = rat_ceil(n.gauge(e.b - e.a) / spacing)
        out.extend(x + y for x, y in zip(_edge_coords(e.a.x, e.b.x, m),
                                         _edge_coords(e.a.y, e.b.y, m)))
    return out


def _grid_samples(parts: Sequence[ConvexPolygon], boundaries: list, D: int,
                  SD: int) -> list[tuple[int, int]]:
    """Sample points of a union on the integer lattice of pitch 1/D: each
    part's boundary samples, then every node (jx, jy) * step = (jx, jy) *
    SD / D inside or on the part.  Covering radius of the result is at most
    cell_diameter/2 + spacing/2."""
    out = []
    for P, boundary in zip(parts, boundaries):
        pts = [(xn * (D // xd), yn * (D // yd)) for xn, xd, yn, yd in boundary]
        out += pts
        V = pts[:P.n]  # the vertices come first
        xs, ys = [X for X, _ in V], [Y for _, Y in V]
        x_lo, x_hi = -(-min(xs) // SD), max(xs) // SD
        nodes = 0
        for jy in range(-(-min(ys) // SD), max(ys) // SD + 1):
            Y = jy * SD
            lo, hi = x_lo, x_hi
            # the row keeps the nodes X = jx * SD of the bounding box left of
            # (or on) each CCW edge a -> b: ey * X <= ex * (Y - ay) + ey * ax;
            # a segment's two opposite edges cut out its line, and a point's
            # one edge a -> a keeps every node
            for (ax, ay), (bx, by) in zip(V, V[1:] + V[:1]):
                ex, ey = bx - ax, by - ay
                rhs = ex * (Y - ay) + ey * ax
                if ey > 0:
                    hi = min(hi, rhs // (ey * SD))
                elif ey < 0:
                    lo = max(lo, -(rhs // (-ey * SD)))
                elif rhs < 0:
                    hi = lo - 1
            out.extend((jx * SD, Y) for jx in range(lo, hi + 1))
            nodes += max(0, hi - lo + 1)
        if P.n >= 3 and nodes == 0:
            raise ValueError("grid too coarse")
    return out


def _finite_directed(S: list, T: list, rows: list, SD: int, unit: int, mb_num: int) -> int:
    """max over s in S of min over t in T of the scaled gauge of s - t.

    Points are integer pairs on the common lattice, and the scaled gauge of
    (X, Y) is max over ``rows`` of |p X + q Y|, an integer.  Target points
    are bucketed on the sampling lattice (pitch SD); each search walks the
    bucket rows outward from s, and each row's occupied buckets outward
    from s's column.  Two exits leave the result exact:

    * prune: a bucket at Chebyshev bucket distance c from the bucket of s
      only holds points at Chebyshev distance > (c-1) * SD, hence at scaled
      gauge > (c-1) * unit / mb_num (the unit ball lies in the square of
      half-side mb); so no bucket, and no row, beyond the integer
      reach = best * mb_num // unit + 1 holds a target nearer than best;
    * early break: once s has a target within the current maximum, its
      minimum cannot raise that maximum, so its search stops there.
    """
    buckets: dict = {}
    for t in T:
        buckets.setdefault((t[0] // SD, t[1] // SD), []).append(t)
    row_cols: dict = {}  # bucket row -> its occupied bucket columns, ascending
    for bx, by in sorted(buckets):
        row_cols.setdefault(by, []).append(bx)

    def nearest(X: int, Y: int, bound: int) -> int:
        """min over T of the scaled gauge of (X, Y) - t, or the first value <= bound."""
        kx, ky = X // SD, Y // SD
        best = reach = None
        k = 0
        while reach is None or k <= reach:
            for by in {ky - k, ky + k}:
                cols = row_cols.get(by, ())
                i = bisect_left(cols, kx)
                for js in (range(i, len(cols)), range(i - 1, -1, -1)):
                    for j in js:
                        if reach is not None and max(k, abs(cols[j] - kx)) > reach:
                            break
                        for tx, ty in buckets[cols[j], by]:
                            dx, dy = X - tx, Y - ty
                            d = max([abs(p * dx + q * dy) for p, q in rows])
                            if d <= bound:
                                return d
                            if best is None or d < best:
                                best, reach = d, d * mb_num // unit + 1
            k += 1
        return best

    worst = 0
    for X, Y in S:
        worst = max(worst, nearest(X, Y, worst))
    return worst


PolyOrUnion = Union[ConvexPolygon, Sequence[ConvexPolygon]]


def grid_oracle_hausdorff(P: PolyOrUnion, Q: PolyOrUnion, n: PolyhedralNorm,
                          step: Rat) -> tuple[Rat, Rat]:
    """Brute-force bracket [lo, hi] guaranteed to contain the true Hausdorff
    distance, from lattice-plus-boundary samplings of both sets.

    The bracket half-width is 3/4 of one grid-cell diameter under the norm.
    More than 2**18 lattice nodes in the parts' bounding boxes is refused
    before any sampling.

    The search runs on Python ints.  Every sample of both sets lies on one
    integer lattice of pitch 1/D, where D is the lcm of the step's
    denominator and of every vertex and boundary-sample denominator; so a
    lattice node is (jx, jy) * step * D and a point (x, y) is (x D, y D).
    The gauge rows (a, b) become the integer rows (p, q) = C a / b over
    their common denominator C, and for the centrally symmetric ball
    gauge(v) * C * D = max over half the rows of |p X + q Y|.  The
    finite Hausdorff distance is thus an integer over C * D, and the one
    rational built per bracket is that quotient.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    Ps = [P] if isinstance(P, ConvexPolygon) else list(P)
    Qs = [Q] if isinstance(Q, ConvexPolygon) else list(Q)
    nodes = sum((rat_floor(x1 / step) - rat_ceil(x0 / step) + 1)
                * (rat_floor(y1 / step) - rat_ceil(y0 / step) + 1)
                for x0, x1, y0, y1 in (part.bounding_box() for part in Ps + Qs))
    if nodes > 2**18:
        raise ValueError("grid too fine")
    cell = step * max(n.gauge(Point(R1, R1)), n.gauge(Point(R1, -R1)))
    spacing = cell / 2
    bS = [_boundary_samples(part, n, spacing) for part in Ps]
    bT = [_boundary_samples(part, n, spacing) for part in Qs]
    step_num, step_den = _num_den(step)
    D = lcm(step_den, *{d for b in bS + bT for s in b for d in (s[1], s[3])})
    SD = step_num * (D // step_den)
    S, T = _grid_samples(Ps, bS, D, SD), _grid_samples(Qs, bT, D, SD)
    # the ball is centrally symmetric: edge i + n/2 is edge i reflected, and
    # its row is row i negated
    half = n._edge_normals[: len(n._edge_normals) // 2]
    coeffs = [(_num_den(a.x / b), _num_den(a.y / b)) for a, b in half]
    C = lcm(*(d for (_, dp), (_, dq) in coeffs for d in (dp, dq)))
    rows = [(p * (C // dp), q * (C // dq)) for (p, dp), (q, dq) in coeffs]
    mb_num, mb_den = _num_den(max(max(abs(v.x), abs(v.y)) for v in n.unit_ball.vertices))
    unit = SD * C * mb_den
    H = rat(max(_finite_directed(S, T, rows, SD, unit, mb_num),
                _finite_directed(T, S, rows, SD, unit, mb_num)), C * D)
    err = cell / 2 + spacing / 2
    return (max(R0, H - err), H + err)
