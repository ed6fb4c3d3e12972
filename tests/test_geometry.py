import random

import pytest
from hypothesis import given, strategies as st

from hlab._scalar import rat
from hlab.geometry import (
    ConvexPolygon,
    Membership,
    Point,
    Segment,
    clip_segment,
    contains_point,
    orientation,
    pt,
)

from conftest import random_point, random_polygon


def square01():
    return ConvexPolygon.hull([pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)])


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)
points = st.builds(lambda x, y: Point(rat(x), rat(y)), rationals, rationals)


class TestOrientation:
    def test_ccw(self):
        assert orientation(pt(0, 0), pt(1, 0), pt(0, 1)) == 1

    def test_collinear(self):
        assert orientation(pt(0, 0), pt(1, 1), pt(2, 2)) == 0

    def test_cw(self):
        assert orientation(pt(0, 0), pt(0, 1), pt(1, 0)) == -1

    @given(points, points, points)
    def test_antisymmetric_in_last_two_args(self, p, q, r):
        assert orientation(p, q, r) == -orientation(p, r, q)


class TestConvexHull:
    def test_single_point(self):
        assert ConvexPolygon.hull([pt(0, 0)]).vertices == (pt(0, 0),)

    def test_collinear_collapse(self):
        hull = ConvexPolygon.hull([pt(0, 0), pt(2, 0), pt(1, 0)])
        assert hull.vertices == (pt(0, 0), pt(2, 0))

    def test_interior_point_dropped(self):
        hull = ConvexPolygon.hull(
            [pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1), pt(rat(1, 2), rat(1, 2))])
        assert hull == square01()

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty point set"):
            ConvexPolygon.hull([])

    def test_canonical_start_and_orientation(self):
        hull = ConvexPolygon.hull([pt(2, 1), pt(0, 0), pt(1, 2)])
        assert hull.vertices[0] == pt(0, 0)
        v = hull.vertices
        assert all(orientation(v[i], v[(i + 1) % 3], v[(i + 2) % 3]) == 1
                   for i in range(3))

    @given(st.lists(points, min_size=1, max_size=12))
    def test_idempotent(self, pts):
        h1 = ConvexPolygon.hull(pts)
        assert ConvexPolygon.hull(h1.vertices) == h1

    @given(st.lists(points, min_size=1, max_size=12))
    def test_inputs_inside_hull(self, pts):
        hull = ConvexPolygon.hull(pts)
        assert all(contains_point(hull, p) != Membership.OUTSIDE for p in pts)


class TestCanonicalMaps:
    """translate and scaled(t > 0) skip the hull; they must agree with it."""

    FACTORS = (rat(2), rat(1, 3), rat(0), rat(-1), rat(-5, 2))

    def test_match_hull_of_mapped_vertices(self, rng):
        for _ in range(20):
            P = random_polygon(rng)
            shapes = (P, ConvexPolygon.hull(P.vertices[:2]), ConvexPolygon.hull(P.vertices[:1]))
            for Q in shapes:
                d = random_point(rng)
                assert Q.translate(d) == ConvexPolygon.hull(v + d for v in Q.vertices)
                for t in self.FACTORS:
                    assert Q.scaled(t) == ConvexPolygon.hull(v.scaled(t) for v in Q.vertices)


class TestEdgeNormals:
    def test_point_has_none(self):
        assert ConvexPolygon.hull([pt(1, 2)]).edge_normals() == []

    def test_segment_has_both_sides(self):
        S = ConvexPolygon.hull([pt(0, 0), pt(2, 1)])
        assert S.edge_normals() == [pt(1, -2), pt(-1, 2)]

    def test_square(self):
        assert square01().edge_normals() == [pt(0, -1), pt(1, 0), pt(0, 1), pt(-1, 0)]

    def test_outward_and_orthogonal_to_each_edge(self, rng):
        for _ in range(20):
            P = random_polygon(rng)
            for e, u in zip(P.edges(), P.edge_normals()):
                assert u.dot(e.b - e.a) == 0 and u != Point(rat(0), rat(0))
                assert all(u.dot(v - e.a) <= 0 for v in P.vertices)


class TestContainsPoint:
    def test_interior(self):
        assert contains_point(square01(), pt(rat(1, 2), rat(1, 2))) == Membership.INTERIOR

    def test_boundary(self):
        assert contains_point(square01(), pt(0, rat(1, 2))) == Membership.BOUNDARY

    def test_outside(self):
        assert contains_point(square01(), pt(2, 0)) == Membership.OUTSIDE

    def test_degenerate_point(self):
        P = ConvexPolygon.hull([pt(1, 1)])
        assert contains_point(P, pt(1, 1)) == Membership.BOUNDARY
        assert contains_point(P, pt(1, 2)) == Membership.OUTSIDE

    def test_degenerate_segment(self):
        P = ConvexPolygon.hull([pt(0, 0), pt(2, 2)])
        assert contains_point(P, pt(1, 1)) == Membership.BOUNDARY
        assert contains_point(P, pt(1, 0)) == Membership.OUTSIDE


class TestClipSegment:
    def test_axis_cut(self):
        s = Segment(pt(-1, rat(1, 2)), pt(2, rat(1, 2)))
        c = clip_segment(s, square01())
        assert (c.a, c.b) == (pt(0, rat(1, 2)), pt(1, rat(1, 2)))

    def test_disjoint(self):
        assert clip_segment(Segment(pt(2, 2), pt(3, 3)), square01()) is None

    def test_corner_touch(self):
        c = clip_segment(Segment(pt(1, 0), pt(2, 0)), square01())
        assert c.a == c.b == pt(1, 0)

    def test_clip_to_degenerate_segment(self):
        P = ConvexPolygon.hull([pt(0, 0), pt(2, 0)])
        c = clip_segment(Segment(pt(-1, 0), pt(1, 0)), P)
        assert (c.a, c.b) == (pt(0, 0), pt(1, 0))
        c = clip_segment(Segment(pt(1, -1), pt(1, 1)), P)
        assert c.a == c.b == pt(1, 0)

    def test_point_against_point(self):
        p, q = pt(1, 2), pt(3, 4)
        assert not Segment(p, p).contains(q)
        assert clip_segment(Segment(p, p), ConvexPolygon.hull([q])) is None
        c = clip_segment(Segment(q, q), ConvexPolygon.hull([q]))
        assert c.a == c.b == q

    @given(points, points, st.lists(points, min_size=3, max_size=8))
    def test_output_inside_polygon_and_on_line(self, a, b, pts):
        P = ConvexPolygon.hull(pts)
        s = Segment(a, b)
        c = clip_segment(s, P)
        if c is None:
            return
        for e in (c.a, c.b):
            assert contains_point(P, e) != Membership.OUTSIDE
            assert orientation(a, b, e) == 0 or s.is_degenerate
