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

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ._scalar import R0, R1, Rat, rat, rat_ceil, rat_floor
from .geometry import ConvexPolygon, Point, Segment, clip_segment
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


def _grid_samples(parts: Sequence[ConvexPolygon], n: PolyhedralNorm,
                  step: Rat, spacing: Rat) -> list[Point]:
    """Sample points of a union: lattice nodes inside each part plus boundary
    points at gauge spacing <= ``spacing``.  Covering radius of the result is
    at most cell_diameter/2 + spacing/2."""
    out: list[Point] = []
    for P in parts:
        out.extend(P.vertices)
        for e in P.edges():
            if e.is_degenerate:
                continue
            glen = n.gauge(e.b - e.a)
            m = rat_ceil(glen / spacing)
            for j in range(1, m):
                out.append(e.point_at(rat(j, m)))
        xmin, xmax, ymin, ymax = P.bounding_box()
        nodes = 0
        for jy in range(rat_ceil(ymin / step), rat_floor(ymax / step) + 1):
            y = step * jy
            row = clip_segment(Segment(Point(xmin, y), Point(xmax, y)), P)
            if row is None:
                continue
            lo, hi = row.a.x, row.b.x
            if lo > hi:
                lo, hi = hi, lo
            for jx in range(rat_ceil(lo / step), rat_floor(hi / step) + 1):
                out.append(Point(step * jx, y))
                nodes += 1
        if P.n >= 3 and nodes == 0:
            raise ValueError("grid too coarse")
    return out


def _finite_directed(S: list[Point], T: list[Point], n: PolyhedralNorm,
                     step: Rat) -> Rat:
    """max over s in S of min over t in T of gauge(s - t), by brute force.

    Target points are bucketed on the sampling lattice and searched in
    expanding Chebyshev rings; a ring at bucket distance k only holds points
    at gauge distance >= (k-1) * step / mb, which prunes the scan exactly.
    """
    mb = max(max(abs(v.x), abs(v.y)) for v in n.unit_ball.vertices)
    buckets: dict = {}
    for t in T:
        key = (rat_floor(t.x / step), rat_floor(t.y / step))
        buckets.setdefault(key, []).append(t)
    worst = R0
    for s in S:
        kx, ky = rat_floor(s.x / step), rat_floor(s.y / step)
        best: Optional[Rat] = None
        k = 0
        while True:
            if best is not None and (k - 1) * step > best * mb:
                break
            ring = []
            if k == 0:
                ring.append((kx, ky))
            else:
                for dx in range(-k, k + 1):
                    ring.append((kx + dx, ky - k))
                    ring.append((kx + dx, ky + k))
                for dy in range(-k + 1, k):
                    ring.append((kx - k, ky + dy))
                    ring.append((kx + k, ky + dy))
            for key in ring:
                for t in buckets.get(key, ()):
                    d = n.gauge(s - t)
                    if best is None or d < best:
                        best = d
            k += 1
        if best > worst:
            worst = best
    return worst


def _finite_hausdorff(S: list[Point], T: list[Point], n: PolyhedralNorm,
                      step: Rat) -> Rat:
    return max(_finite_directed(S, T, n, step), _finite_directed(T, S, n, step))


PolyOrUnion = Union[ConvexPolygon, Sequence[ConvexPolygon]]


def grid_oracle_hausdorff(P: PolyOrUnion, Q: PolyOrUnion, n: PolyhedralNorm,
                          step: Rat) -> tuple[Rat, Rat]:
    """Brute-force bracket [lo, hi] guaranteed to contain the true Hausdorff
    distance, from lattice-plus-boundary samplings of both sets.

    The bracket half-width is 3/4 of one grid-cell diameter under the norm.
    More than 2**18 lattice nodes in the parts' bounding boxes is refused
    before any sampling.
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
    S = _grid_samples(Ps, n, step, spacing)
    T = _grid_samples(Qs, n, step, spacing)
    H = _finite_hausdorff(S, T, n, step)
    err = cell / 2 + spacing / 2
    return (max(R0, H - err), H + err)
