import random

import pytest

from hlab._scalar import R0, rat, rat_ceil, rat_floor
from hlab.geometry import (ORIGIN, ConvexPolygon, Membership, Point, Segment, clip_segment,
                           contains_point, pt)
from hlab.norms import euclidean_approx, l1_norm, linf_norm, support
from hlab.convex_ops import (
    hausdorff,
    hausdorff_union,
    intersect,
    minkowski_sum,
    neighborhood,
    point_distance,
    segment_distance,
    set_distance,
    signed_distance,
    subset_of,
)

from conftest import random_hexagon_norm, random_point, random_polygon


def box(x0, y0, x1, y1):
    return ConvexPolygon.hull([pt(x0, y0), pt(x1, y0), pt(x1, y1), pt(x0, y1)])


SQ = box(0, 0, 1, 1)


def grid_points(P, step):
    """All lattice points of pitch `step` inside-or-on P (test oracle), row
    by row over the row's exact x-range clipped from P."""
    xmin, xmax, ymin, ymax = P.bounding_box()
    out = []
    for jy in range(rat_ceil(ymin / step), rat_floor(ymax / step) + 1):
        y = step * jy
        row = clip_segment(Segment(Point(xmin, y), Point(xmax, y)), P)
        if row is None:
            continue
        lo, hi = sorted((row.a.x, row.b.x))
        out.extend(Point(step * jx, y) for jx in range(rat_ceil(lo / step), rat_floor(hi / step) + 1))
    return out


def grid_points_per_node(P, step):
    """grid_points by a membership test on every node of P's bounding box."""
    xmin, xmax, ymin, ymax = P.bounding_box()
    out = []
    for jy in range(rat_ceil(ymin / step), rat_floor(ymax / step) + 1):
        for jx in range(rat_ceil(xmin / step), rat_floor(xmax / step) + 1):
            q = Point(step * jx, step * jy)
            if contains_point(P, q) != Membership.OUTSIDE:
                out.append(q)
    return out


class TestMinkowskiSum:
    def test_squares_add(self):
        assert minkowski_sum(SQ, SQ) == box(0, 0, 2, 2)

    def test_point_translates(self):
        singleton = ConvexPolygon.hull([pt(3, -1)])
        assert minkowski_sum(SQ, singleton) == box(3, -1, 4, 0)

    def test_segment_plus_segment(self):
        s1 = ConvexPolygon.hull([pt(0, 0), pt(1, 0)])
        s2 = ConvexPolygon.hull([pt(0, 0), pt(0, 1)])
        assert minkowski_sum(s1, s2) == SQ

    def test_collinear_segments_stay_degenerate(self):
        s1 = ConvexPolygon.hull([pt(0, 0), pt(1, 1)])
        s2 = ConvexPolygon.hull([pt(0, 0), pt(2, 2)])
        assert minkowski_sum(s1, s2) == ConvexPolygon.hull([pt(0, 0), pt(3, 3)])

    def test_support_additivity_on_random_pairs(self, rng):
        # independent oracle: h_{P+Q} = h_P + h_Q on sampled directions
        for _ in range(8):
            P = random_polygon(rng)
            Q = random_polygon(rng)
            S = minkowski_sum(P, Q)
            for _ in range(64):
                u = random_point(rng)
                if u.x == 0 and u.y == 0:
                    continue
                assert support(S, u) == support(P, u) + support(Q, u)


class TestNeighborhood:
    def test_box_offset(self, linf):
        assert neighborhood(SQ, rat(1), linf) == box(-1, -1, 2, 2)

    def test_ball_around_point(self, l1):
        got = neighborhood(ConvexPolygon.hull([pt(0, 0)]), rat(1), l1)
        assert got == ConvexPolygon.hull([pt(1, 0), pt(0, 1), pt(-1, 0), pt(0, -1)])

    def test_zero_radius_is_identity(self, linf):
        assert neighborhood(SQ, R0, linf) == SQ

    def test_negative_radius(self, linf):
        with pytest.raises(ValueError, match="negative radius"):
            neighborhood(SQ, rat(-1), linf)

    def test_semigroup(self, rng, linf):
        for _ in range(20):
            A = random_polygon(rng)
            r1 = rat(rng.randint(1, 8), rng.randint(1, 8))
            r2 = rat(rng.randint(1, 8), rng.randint(1, 8))
            assert neighborhood(neighborhood(A, r1, linf), r2, linf) == \
                neighborhood(A, r1 + r2, linf)


class TestIntersect:
    def test_box_overlap(self):
        assert intersect(box(0, 0, 2, 2), box(1, 1, 3, 3)) == box(1, 1, 2, 2)

    def test_disjoint(self):
        assert intersect(SQ, box(2, 2, 3, 3)) is None

    def test_corner_touch(self):
        got = intersect(SQ, box(1, 1, 2, 2))
        assert got == ConvexPolygon.hull([pt(1, 1)])

    def test_random_pairs_against_membership(self, rng):
        step = rat(1, 4)
        for _ in range(10):
            P = random_polygon(rng)
            Q = random_polygon(rng)
            R = intersect(P, Q)
            for q in grid_points(P, step):
                both = contains_point(Q, q) != Membership.OUTSIDE
                in_R = R is not None and contains_point(R, q) != Membership.OUTSIDE
                assert both == in_R


class TestPointDistance:
    def test_axis_gap(self, linf):
        # under L-infinity the whole right edge realizes the distance;
        # ties break to the lexicographically smallest realizer
        w = point_distance(pt(2, rat(1, 2)), SQ, linf)
        assert w.distance == 1
        assert w.projection_point == pt(1, 0)
        assert linf.gauge(pt(2, rat(1, 2)) - pt(1, rat(1, 2))) == w.distance

    def test_interior_point(self, linf):
        w = point_distance(pt(rat(1, 2), rat(1, 2)), SQ, linf)
        assert w.distance == 0

    def test_l1_corner(self, l1):
        assert point_distance(pt(3, 3), SQ, l1).distance == 4

    def test_grid_points_match_per_node_enumeration(self, rng):
        shapes = [random_polygon(rng, lo=-2, hi=2) for _ in range(5)]
        shapes += [ConvexPolygon.hull([pt(0, 0), pt(1, rat(1, 2))]), ConvexPolygon.hull([pt(0, 0), pt(0, 1)]),
                   ConvexPolygon.hull([pt(rat(1, 4), rat(-1, 2))]), ConvexPolygon.hull([pt(rat(1, 3), 0)])]
        for P in shapes:
            assert grid_points(P, rat(1, 16)) == grid_points_per_node(P, rat(1, 16))

    def test_matches_grid_brute_force(self, rng, l1, linf):
        step = rat(1, 64)
        for norm in (l1, linf):
            bound = 2 * step * max(norm.gauge(pt(1, 1)), norm.gauge(pt(1, -1)))
            for _ in range(5):
                P = random_polygon(rng, lo=-2, hi=2)
                x = random_point(rng, lo=-4, hi=4)
                exact = point_distance(x, P, norm).distance
                brute = min(norm.gauge(x - q) for q in grid_points(P, step))
                assert exact <= brute <= exact + bound

    def test_witness_lies_in_set_and_realizes(self, rng, l1):
        for _ in range(20):
            P = random_polygon(rng)
            x = random_point(rng)
            w = point_distance(x, P, l1)
            assert contains_point(P, w.projection_point) != Membership.OUTSIDE
            assert l1.gauge(x - w.projection_point) == w.distance


class TestSignedDistance:
    def test_box(self, linf):
        assert signed_distance(pt(3, rat(1, 2)), SQ, linf) == 2
        assert signed_distance(pt(1, rat(1, 3)), SQ, linf) == 0
        assert signed_distance(pt(rat(1, 4), rat(1, 2)), SQ, linf) == rat(-1, 4)

    def test_against_point_distance_and_depth(self, rng):
        norms = (linf_norm(), l1_norm(), random_hexagon_norm(rng), euclidean_approx(4).inner)
        for n in norms:
            for _ in range(8):
                P = random_polygon(rng, lo=-2, hi=2)
                for Q in (P, ConvexPolygon.hull(P.vertices[:2])):
                    x = random_point(rng, lo=-3, hi=3)
                    sd = signed_distance(x, Q, n)
                    assert max(R0, sd) == point_distance(x, Q, n).distance
                    inside = contains_point(Q, x)
                    assert (sd < 0) == (inside == Membership.INTERIOR)
                    assert (sd == 0) == (inside == Membership.BOUNDARY)
                    if sd < 0:  # the ball of radius -sd about x fits in Q, no larger one does
                        X = ConvexPolygon.hull([x])
                        assert subset_of(neighborhood(X, -sd, n), Q)
                        assert not subset_of(neighborhood(X, -sd + rat(1, 1000), n), Q)

    def test_point_set_is_gauge(self, rng):
        for n in (linf_norm(), l1_norm(), random_hexagon_norm(rng)):
            for _ in range(10):
                q, x = random_point(rng), random_point(rng)
                assert signed_distance(x, ConvexPolygon.hull([q]), n) == n.gauge(x - q)


class TestSegmentAndSetDistance:
    def test_contained_segment(self, linf):
        assert segment_distance(Segment(pt(rat(1, 4), rat(1, 4)),
                                        pt(rat(3, 4), rat(1, 2))), SQ, linf) == 0

    def test_parallel_gap(self, linf):
        assert segment_distance(Segment(pt(2, 0), pt(2, 1)), SQ, linf) == 1

    def test_skew_segment_vs_triangle_brute_force(self, rng, l1):
        tri = ConvexPolygon.hull([pt(0, 0), pt(2, 0), pt(0, 2)])
        s = Segment(pt(3, -1), pt(4, 2))
        exact = segment_distance(s, tri, l1)
        step = rat(1, 128)
        seg_pts = [s.point_at(rat(i, 128)) for i in range(129)]
        brute = min(point_distance(q, tri, l1).distance for q in seg_pts)
        bound = 2 * step * l1.gauge(s.b - s.a)
        assert exact <= brute <= exact + bound

    def test_identical_sets(self, linf):
        assert set_distance(SQ, SQ, linf) == 0

    def test_box_gap_linf_and_l1(self, linf, l1):
        other = box(2, 0, 3, 1)
        assert set_distance(SQ, other, linf) == 1
        assert set_distance(SQ, other, l1) == 1

    def test_zero_iff_intersecting(self, rng, linf):
        for _ in range(20):
            P = random_polygon(rng)
            Q = random_polygon(rng)
            d = set_distance(P, Q, linf)
            assert (d == 0) == (intersect(P, Q) is not None)


class TestHausdorff:
    def test_identity(self, linf):
        assert hausdorff(SQ, SQ, linf) == 0

    def test_translation(self, linf):
        t = rat(3, 7)
        shifted = SQ.translate(pt(t, 0))
        assert hausdorff(SQ, shifted, linf) == t

    def test_nested_boxes(self, linf):
        assert hausdorff(box(0, 0, 3, 3), box(1, 1, 2, 2), linf) == 1

    def test_union_reduces_to_convex_case(self, rng, linf):
        for _ in range(5):
            P = random_polygon(rng)
            Q = random_polygon(rng)
            assert hausdorff_union([P], [Q], linf) == hausdorff(P, Q, linf)

    def test_union_containment_side(self, linf):
        P = SQ
        far = box(5, 5, 6, 6)
        got = hausdorff_union([P], [P, far], linf)
        expected = max(point_distance(v, P, linf).distance for v in far.vertices)
        assert got == expected

    def test_union_each_part_matched_to_its_nearest_part(self, linf):
        right = box(5, 0, 6, 1)
        shifted = right.translate(pt(rat(1, 2), 0))
        assert hausdorff_union([SQ, right], [SQ, shifted], linf) == rat(1, 2)

    def test_union_gap_between_parts_refused(self, linf):
        # the midpoint (0, 0) of A sits at distance 1 from both points; vertex
        # enumeration alone would report 0
        A = ConvexPolygon.hull([pt(-1, 0), pt(1, 0)])
        parts = [ConvexPolygon.hull([pt(-1, 0)]), ConvexPolygon.hull([pt(1, 0)])]
        with pytest.raises(ValueError, match="not certified: vertex bounds 0 and 2 differ"):
            hausdorff_union([A], parts, linf)

    def test_empty_union(self, linf):
        with pytest.raises(ValueError, match="empty union"):
            hausdorff_union([], [SQ], linf)


def enumerated_point_distance(x, P, n):
    """Candidate-enumeration point distance (test oracle): the least gauge
    over P's vertices and the edge points a with x - a parallel to a vertex
    of the unit ball, ties broken toward the lexicographically smallest a."""
    if contains_point(P, x) != Membership.OUTSIDE:
        return R0, x
    candidates = list(P.vertices)
    for e in P.edges():
        d, xa = e.b - e.a, x - e.a
        for w in n.unit_ball.vertices:
            denom = d.cross(w)
            if denom != 0 and 0 < xa.cross(w) / denom < 1:
                candidates.append(e.a + d.scaled(xa.cross(w) / denom))
    best = min(candidates, key=lambda a: (n.gauge(x - a), a.key()))
    return n.gauge(x - best), best


def degenerate_intersect(P, Q):
    """Intersection with a point or segment operand by direct membership and
    clipping (test oracle)."""
    D, other = (P, Q) if P.n <= 2 else (Q, P)
    if D.is_point:
        return D if contains_point(other, D.vertices[0]) != Membership.OUTSIDE else None
    c = clip_segment(Segment(D.vertices[0], D.vertices[1]), other)
    return None if c is None else ConvexPolygon.hull([c.a, c.b])


class TestAgainstEnumeration:
    """The support-function kernel against the candidate enumeration."""

    @staticmethod
    def shapes(rng):
        P, Q = random_polygon(rng, lo=-2, hi=2), random_polygon(rng, lo=-2, hi=2)
        return [P, ConvexPolygon.hull(P.vertices[:2]), ConvexPolygon.hull(P.vertices[:1]),
                Q, ConvexPolygon.hull(Q.vertices[-2:]), ConvexPolygon.hull(Q.vertices[-1:]),
                P.translate(random_point(rng, -3, 3, 4)),
                ConvexPolygon.hull([v + random_point(rng, -1, 1, 4) for v in P.vertices])]

    def test_match_on_random_shapes(self, rng):
        norms = (linf_norm(), l1_norm(), random_hexagon_norm(rng), euclidean_approx(4).inner)
        for n in norms:
            for _ in range(2):
                shapes = self.shapes(rng)
                for X in shapes:
                    for x in list(shapes[3].vertices) + [random_point(rng) for _ in range(4)]:
                        w = point_distance(x, X, n)
                        assert (w.distance, w.projection_point) == enumerated_point_distance(x, X, n)
                    for Y in shapes:
                        assert hausdorff(X, Y, n) == max(
                            [enumerated_point_distance(v, Y, n)[0] for v in X.vertices]
                            + [enumerated_point_distance(v, X, n)[0] for v in Y.vertices])
                        diff = minkowski_sum(Y, X.reflected())
                        assert set_distance(X, Y, n) == enumerated_point_distance(ORIGIN, diff, n)[0]
                        if X.n <= 2 or Y.n <= 2:
                            assert intersect(X, Y) == degenerate_intersect(X, Y)


class TestSubsetOf:
    def test_nested(self):
        assert subset_of(box(1, 1, 2, 2), box(0, 0, 3, 3))

    def test_not_nested(self):
        assert not subset_of(SQ, box(1, 1, 2, 2))

    def test_reflexive(self, rng):
        for _ in range(10):
            P = random_polygon(rng)
            assert subset_of(P, P)
