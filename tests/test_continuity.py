import os
import subprocess
import sys
import textwrap
from math import lcm

import pytest

import hlab.continuity as continuity
from hlab._scalar import R0, R1, rat, rat_ceil, rat_floor
from hlab.geometry import ConvexPolygon, Membership, Point, Segment, clip_segment, contains_point, pt
from hlab.norms import euclidean_approx, l1_norm, linf_norm
from hlab.convex_ops import (
    hausdorff,
    intersect,
    neighborhood,
    segment_distance,
    set_distance,
    signed_distance,
    subset_of,
)
from hlab.continuity import (
    DomainError,
    delta_left,
    delta_right,
    f_eval,
    grid_oracle_hausdorff,
    modulus_scan,
    verify_modulus,
)

from conftest import random_hexagon_norm, random_point, random_polygon


def box(x0, y0, x1, y1):
    return ConvexPolygon.hull([pt(x0, y0), pt(x1, y0), pt(x1, y1), pt(x0, y1)])


A = box(0, 0, 1, 1)
B = box(2, 0, 3, 1)
N = linf_norm()


class TestFEval:
    def test_touching_offset_is_segment(self):
        M = f_eval(A, B, rat(1), N)
        assert M == ConvexPolygon.hull([pt(2, 0), pt(2, 1)])

    def test_box_clip(self):
        assert f_eval(A, B, rat(3, 2), N) == box(2, 0, rat(5, 2), 1)

    def test_saturation(self):
        assert f_eval(A, B, rat(10), N) == B

    def test_domain_violation(self):
        with pytest.raises(DomainError, match="radius below set distance"):
            f_eval(A, B, rat(1, 2), N)

    def test_domain_is_exactly_r_at_least_set_distance(self, rng):
        for n in (N, l1_norm(), random_hexagon_norm(rng)):
            for _ in range(4):
                P, Q = random_polygon(rng), random_polygon(rng)
                d = set_distance(P, Q, n)
                for r in (d - rat(1, 1000), rat(-1)):
                    with pytest.raises(DomainError, match="radius below set distance"):
                        f_eval(P, Q, r, n)
                for r in (d, d + rat(1, 1000)):
                    assert subset_of(f_eval(P, Q, r, n), Q)

    def test_monotone_and_contained(self, rng):
        for _ in range(10):
            P = random_polygon(rng)
            Q = random_polygon(rng)
            d = set_distance(P, Q, N)
            radii = sorted(d + rat(k, 4) for k in range(4))
            vals = [f_eval(P, Q, r, N) for r in radii]
            for lo, hi in zip(vals, vals[1:]):
                assert subset_of(lo, hi)
            for r, M in zip(radii, vals):
                assert subset_of(M, Q)
                assert subset_of(M, neighborhood(P, r, N))


class TestDeltaRight:
    def test_worked_instance(self):
        w = delta_right(A, B, rat(1), rat(1, 4), N)
        assert w.K == (Segment(pt(rat(9, 4), 0), pt(rat(9, 4), 1)),)
        assert w.delta == rat(1, 4)

    def test_k_segments_lie_in_B_on_shell(self):
        w = delta_right(A, B, rat(1), rat(1, 4), N)
        shell = neighborhood(w.M, w.epsilon, N)
        for seg in w.K:
            for q in (seg.a, seg.b, seg.point_at(rat(1, 2))):
                assert contains_point(B, q) != Membership.OUTSIDE
                assert contains_point(shell, q) == Membership.BOUNDARY

    def test_k_empty_gives_infinite_delta(self):
        inner = box(rat(1, 4), rat(1, 4), rat(3, 4), rat(3, 4))
        w = delta_right(A, inner, rat(2), rat(10), N)
        assert w.K == ()
        assert w.delta is None and w.delta_is_infinite

    def test_theorem_conclusion_at_sampled_radii(self):
        w = delta_right(A, B, rat(1), rat(1, 4), N)
        M = f_eval(A, B, rat(1), N)
        for rp in (rat(17, 16), rat(9, 8), rat(19, 16)):
            assert rp - rat(1) < w.delta
            gap = hausdorff(M, f_eval(A, B, rp, N), N)
            assert gap == rp - rat(1)
            assert gap <= w.epsilon


class TestDeltaLeft:
    def test_worked_instance(self):
        w = delta_left(A, B, rat(3, 2), rat(1, 4), N)
        assert w.p == pt(2, 0)
        assert w.L == 1
        assert w.lam == rat(1, 4)
        assert w.gM == box(2, 0, rat(19, 8), rat(3, 4))
        assert w.delta == rat(1, 8)

    def test_requires_r_strictly_above_set_distance(self):
        with pytest.raises(DomainError, match="strictly above"):
            delta_left(A, B, rat(1), rat(1, 4), N)

    def test_theorem_conclusion_at_sampled_radii(self):
        r = rat(3, 2)
        w = delta_left(A, B, r, rat(1, 4), N)
        M = f_eval(A, B, r, N)
        for rp in (r - rat(1, 16), r - rat(1, 10)):
            assert r - rp < w.delta
            Mp = f_eval(A, B, rp, N)
            assert hausdorff(M, Mp, N) <= w.epsilon
            assert subset_of(w.gM, Mp)

    def test_single_point_intersection(self):
        # B is a single point strictly inside B_r(A): M = {p}, g fixes p
        P = ConvexPolygon.hull([pt(3, rat(1, 2))])
        r = rat(5, 2)
        w = delta_left(A, P, r, rat(1), N)
        assert w.M == P and w.gM == P
        assert w.L == 0 and w.lam == rat(1, 2)
        assert w.delta > 0

    def test_internal_invariants(self, rng):
        for _ in range(5):
            P = random_polygon(rng)
            Q = random_polygon(rng)
            r = set_distance(P, Q, N) + rat(1, 2)
            eps = rat(1, 4)
            w = delta_left(P, Q, r, eps, N)
            assert 0 < w.lam < 1
            assert w.lam * w.L <= eps
            # M inside the eps-neighborhood of g(M)
            assert subset_of(w.M, neighborhood(w.gM, eps, N))
            # g(M) strictly inside B_r(A), at distance >= delta from its boundary
            shell = neighborhood(P, r, N)
            assert all(contains_point(shell, v) == Membership.INTERIOR
                       for v in w.gM.vertices)
            for e in shell.edges():
                assert segment_distance(e, w.gM, N) >= w.delta


class TestWitnessesAgainstConstructions:
    """The distance-to-A witnesses against the theorem's constructions on B_r(A)."""

    @staticmethod
    def nearest_point_of_B(A, B, d, n):
        """Lex-min point of B at |A B|, from the shell B_d(A) clipped edge by edge."""
        if d == 0:
            return intersect(A, B).vertices[0]
        ends = []
        for e in neighborhood(A, d, n).edges():
            c = clip_segment(e, B)
            if c is not None:
                ends.extend((c.a, c.b))
        return min(ends, key=Point.key)

    @staticmethod
    def pairs(rng):
        """Polygons, segments, points and overlapping pairs (|A B| = 0)."""
        for _ in range(2):
            P, Q = random_polygon(rng), random_polygon(rng)
            yield P, Q
            yield ConvexPolygon.hull(P.vertices[:2]), ConvexPolygon.hull(Q.vertices[:1])
            yield P, ConvexPolygon.hull([v + random_point(rng, -1, 1, 4) for v in P.vertices])
        yield box(0, 0, 4, 4), box(1, 1, 2, 2)  # g(M) deep inside A

    def test_match_on_random_pairs(self, rng):
        norms = (N, l1_norm(), random_hexagon_norm(rng), euclidean_approx(4).inner)
        for n in norms:
            for P, Q in self.pairs(rng):
                d = set_distance(P, Q, n)
                for r, eps in ((d, rat(1, 4)), (d + rat(1, 2), rat(1, 16))):
                    BrA = neighborhood(P, r, n)
                    right = delta_right(P, Q, r, eps, n)
                    if right.K:
                        assert right.delta == min(segment_distance(s, BrA, n) for s in right.K)
                    if r == d:
                        continue
                    left = delta_left(P, Q, r, eps, n)
                    assert left.p == self.nearest_point_of_B(P, Q, d, n)
                    assert left.delta == min(segment_distance(e, left.gM, n) for e in BrA.edges())

    def test_left_delta_exceeds_r_when_gM_lies_inside_A(self):
        # |x boundary(B_r(A))| = r - signed distance, not r - unsigned distance
        P, Q, r = box(0, 0, 4, 4), box(1, 1, 2, 2), rat(1)
        w = delta_left(P, Q, r, rat(1, 4), N)
        assert w.gM == box(1, 1, rat(7, 4), rat(7, 4))
        assert max(signed_distance(v, P, N) for v in w.gM.vertices) == -1
        assert w.delta == 2


class TestVerifyModulus:
    def test_worked_instance_both_sides(self):
        right, left = verify_modulus(A, B, rat(3, 2), rat(1, 4), N, samples=8)
        assert right.all_passed and left.all_passed
        assert len(right.r_prime_samples) == 8
        assert right.worst_gap <= rat(1, 4)

    def test_left_skipped_at_domain_endpoint(self):
        right, left = verify_modulus(A, B, rat(1), rat(1, 4), N)
        assert right.all_passed
        assert left.note == "not applicable at domain endpoint"
        assert left.r_prime_samples == ()

    def test_huge_epsilon(self):
        right, left = verify_modulus(A, B, rat(3, 2), rat(10**6), N)
        assert right.all_passed and left.all_passed
        w = delta_right(A, B, rat(3, 2), rat(10**6), N)
        assert w.K == () and w.delta is None

    def test_reports_carry_the_sampled_witnesses(self):
        r, eps = rat(3, 2), rat(1, 4)
        right, left = verify_modulus(A, B, r, eps, N)
        assert right.witness == delta_right(A, B, r, eps, N)
        assert left.witness == delta_left(A, B, r, eps, N)
        _, endpoint = verify_modulus(A, B, rat(1), eps, N)
        assert endpoint.witness is None

    def test_left_window_capped_at_r_when_sets_meet(self):
        # |A B| = 0 and delta_left = 3/2 > r: the left window is (0, r]
        P, Q, r, samples = box(0, 0, 4, 4), box(1, 1, 2, 2), rat(1, 2), 3
        _, left = verify_modulus(P, Q, r, rat(1, 4), N, samples=samples)
        assert left.witness.delta == rat(3, 2)
        assert left.r_prime_samples == tuple(r - r * i / (samples + 1)
                                             for i in range(1, samples + 1))
        assert left.all_passed

    def test_radius_error_precedes_epsilon_error(self):
        with pytest.raises(DomainError, match="radius below set distance"):
            verify_modulus(A, B, rat(1, 2), R0, N)
        with pytest.raises(DomainError, match="epsilon must be positive"):
            verify_modulus(A, B, rat(3, 2), R0, N)


def test_certificates_survive_optimize():
    """The delta > 0 checks are explicit raises, not asserts stripped by -O."""
    script = textwrap.dedent("""
        import hlab.continuity as c
        from hlab._scalar import rat
        from hlab.geometry import ConvexPolygon, pt
        from hlab.norms import linf_norm

        if __debug__:
            raise SystemExit("not running under -O")
        box = lambda x0, x1: ConvexPolygon.hull([pt(x0, 0), pt(x1, 0), pt(x1, 1), pt(x0, 1)])
        A, B, n = box(0, 1), box(2, 3), linf_norm()
        # force delta = 0 on each side through the distance that side takes:
        # right: min |s A| - r, left: r - max sd_A(v), at r = 3/2
        c.segment_distance = lambda s, P, n: rat(3, 2)
        c.signed_distance = lambda x, P, n: rat(3, 2)
        for witness in (c.delta_right, c.delta_left):
            try:
                witness(A, B, rat(3, 2), rat(1, 4), n)
            except AssertionError as exc:
                print(exc)
            else:
                raise SystemExit(witness.__name__ + " accepted delta = 0")
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "right witness certification failed: delta <= 0",
        "left witness certification failed: delta <= 0",
    ]


def fraction_grid_samples(parts, n, step, spacing):
    """The rational sampling of the grid oracle (test oracle): lattice nodes
    inside each part plus boundary points at gauge spacing <= ``spacing``."""
    out = []
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


def fraction_finite_directed(S, T, n, step):
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
        best = None
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


def fraction_grid_oracle(P, Q, n, step):
    """The grid oracle's bracket on Fraction points and gauges (test oracle)."""
    Ps = [P] if isinstance(P, ConvexPolygon) else list(P)
    Qs = [Q] if isinstance(Q, ConvexPolygon) else list(Q)
    cell = step * max(n.gauge(Point(R1, R1)), n.gauge(Point(R1, -R1)))
    spacing = cell / 2
    S = fraction_grid_samples(Ps, n, step, spacing)
    T = fraction_grid_samples(Qs, n, step, spacing)
    H = max(fraction_finite_directed(S, T, n, step), fraction_finite_directed(T, S, n, step))
    err = cell / 2 + spacing / 2
    return (max(R0, H - err), H + err)


class TestGridOracle:
    def test_identical_sets(self):
        lo, hi = grid_oracle_hausdorff(A, A, N, rat(1, 8))
        assert lo == 0 and hi >= 0

    def test_translated_squares(self):
        t = rat(3, 7)
        lo, hi = grid_oracle_hausdorff(A, A.translate(pt(t, 0)), N, rat(1, 64))
        assert lo <= t <= hi

    def test_brackets_exact_value(self, rng):
        for _ in range(3):
            P = random_polygon(rng, lo=-2, hi=2)
            Q = random_polygon(rng, lo=-2, hi=2)
            exact = hausdorff(P, Q, N)
            lo, hi = grid_oracle_hausdorff(P, Q, N, rat(1, 16))
            assert lo <= exact <= hi

    def test_integer_kernel_matches_fraction_kernel(self, rng):
        shapes = {
            "polygon": lambda: random_polygon(rng, lo=-1, hi=1),
            "segment": lambda: ConvexPolygon.hull([random_point(rng, -1, 1), random_point(rng, -1, 1)]),
            "point": lambda: ConvexPolygon.hull([random_point(rng, -1, 1)]),
            "union": lambda: [random_polygon(rng, lo=-1, hi=1),
                              random_polygon(rng, lo=-1, hi=1).translate(pt(rat(1, 2), rat(-1, 3)))],
        }
        pairs = (("polygon", "polygon"), ("segment", "polygon"), ("point", "segment"),
                 ("polygon", "union"))
        for n in (N, l1_norm(), random_hexagon_norm(rng), euclidean_approx(4).inner):
            for a, b in pairs:
                P, Q = shapes[a](), shapes[b]()
                for step in (rat(1, 8), rat(1, 16)):
                    assert grid_oracle_hausdorff(P, Q, n, step) == fraction_grid_oracle(P, Q, n, step)

    def test_integer_samples_match_fraction_samples(self, rng):
        # small denominators put vertices and edges on lattice nodes
        shapes = [random_polygon(rng, lo=-1, hi=1, denom_max=4) for _ in range(6)]
        shapes += [ConvexPolygon.hull(pts) for pts in (
            [pt(-1, rat(1, 4)), pt(1, rat(1, 4))], [pt(rat(3, 8), -1), pt(rat(3, 8), 1)],
            [pt(-1, -1), pt(1, rat(1, 2))], [pt(rat(1, 3), 0), pt(1, rat(2, 3))],
            [pt(rat(1, 4), rat(-3, 4))], [pt(rat(1, 3), 0)])]
        step = rat(1, 8)
        for n in (N, l1_norm()):
            for P in shapes:
                boundary = continuity._boundary_samples(P, n, step / 3)
                D = lcm(8, *(d for s in boundary for d in (s[1], s[3])))
                got = continuity._grid_samples([P], [boundary], D, D // 8)
                want = fraction_grid_samples([P], n, step, step / 3)
                assert [Point(rat(X, D), rat(Y, D)) for X, Y in got] == want

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError, match="step must be positive"):
            grid_oracle_hausdorff(A, B, N, R0)

    def test_lattice_capped_before_sampling(self, monkeypatch):
        # a diagonal segment holds 513 lattice nodes at step 1/512, but its
        # bounding box holds 513^2 > 2**18
        def no_sampling(*args):
            raise AssertionError("sampled a lattice over the cap")
        monkeypatch.setattr(continuity, "_grid_samples", no_sampling)
        diagonal = ConvexPolygon.hull([pt(0, 0), pt(1, 1)])
        with pytest.raises(ValueError, match="grid too fine"):
            grid_oracle_hausdorff(diagonal, ConvexPolygon.hull([pt(0, 0)]), N, rat(1, 512))


class TestModulusScan:
    def test_constant_f(self):
        rows = modulus_scan(A, A, N, R0, rat(2), 8)
        assert all(row.gap == 0 for row in rows)

    def test_translated_squares_ratio_one(self):
        rows = modulus_scan(A, box(3, 0, 4, 1), N, rat(2), rat(5, 2), 8)
        assert all(row.ratio == 1 for row in rows)

    def test_steps_validation(self):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            modulus_scan(A, B, N, rat(1), rat(2), 0)

    def test_range_below_set_distance(self):
        with pytest.raises(DomainError, match="radius below set distance"):
            modulus_scan(A, B, N, rat(1, 2), rat(2), 4)

    def test_rows_match_pairwise_evaluation(self, rng):
        for n in (N, l1_norm(), random_hexagon_norm(rng)):
            for _ in range(3):
                P, Q = random_polygon(rng), random_polygon(rng)
                d = set_distance(P, Q, n)
                h = rat(1, 3)
                rows = modulus_scan(P, Q, n, d, d + 1, 3)
                assert [row.r for row in rows] == [d, d + h, d + 2 * h]
                for row in rows:
                    gap = hausdorff(f_eval(P, Q, row.r, n), f_eval(P, Q, row.r + h, n), n)
                    assert (row.r_next, row.gap, row.ratio) == (row.r + h, gap, gap / h)
