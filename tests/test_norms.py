import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hlab._scalar import rat
from hlab.geometry import ConvexPolygon, Membership, Point, contains_point, pt
from hlab.norms import PolyhedralNorm, _tan_pi, euclidean_approx, l1_norm, linf_norm, support

from conftest import random_hexagon_norm

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)
vectors = st.builds(lambda x, y: Point(rat(x), rat(y)), rationals, rationals)


def square01():
    return ConvexPolygon.hull([pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)])


class TestMakeNorm:
    def test_linf_ball(self):
        n = linf_norm()
        assert n.unit_ball.n == 4
        assert n.gauge(pt(1, 1)) == 1

    def test_l1_ball(self):
        assert l1_norm().gauge(pt(rat(1, 2), rat(1, 2))) == 1

    def test_asymmetric_rejected(self):
        tri = ConvexPolygon.hull([pt(0, 0), pt(1, 0), pt(0, 1)])
        with pytest.raises(ValueError, match="ball not centrally symmetric"):
            PolyhedralNorm(tri)

    def test_degenerate_ball_rejected(self):
        # symmetric but collinear: collapses to a segment, not a 2D ball
        seg = ConvexPolygon.hull([pt(2, 0), pt(1, 0), pt(-1, 0), pt(-2, 0)])
        with pytest.raises(ValueError):
            PolyhedralNorm(seg)

    def test_shifted_ball_rejected(self):
        shifted = ConvexPolygon.hull([pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2)])
        with pytest.raises(ValueError):
            PolyhedralNorm(shifted)


class TestGauge:
    def test_linf_value(self):
        assert linf_norm().gauge(pt(3, -2)) == 3

    def test_zero_vector(self):
        assert l1_norm().gauge(pt(0, 0)) == 0

    @given(vectors, st.fractions(min_value=0, max_value=4, max_denominator=8))
    def test_positive_homogeneity(self, v, t):
        n = l1_norm()
        assert n.gauge(v.scaled(rat(t))) == rat(t) * n.gauge(v)

    @given(vectors)
    def test_symmetry(self, v):
        n = linf_norm()
        assert n.gauge(v.scaled(rat(-1))) == n.gauge(v)

    @given(vectors, vectors)
    def test_triangle_inequality(self, v, w):
        for n in (linf_norm(), l1_norm()):
            assert n.gauge(v + w) <= n.gauge(v) + n.gauge(w)

    @given(vectors)
    def test_unit_ball_is_sublevel_set(self, v):
        n = l1_norm()
        inside = contains_point(n.unit_ball, v) != Membership.OUTSIDE
        assert (n.gauge(v) <= 1) == inside

    def test_random_hexagon_norm_axioms(self, rng):
        n = random_hexagon_norm(rng)
        from conftest import random_point
        for _ in range(50):
            v, w = random_point(rng), random_point(rng)
            assert n.gauge(v + w) <= n.gauge(v) + n.gauge(w)
            assert n.gauge(v.scaled(rat(-1))) == n.gauge(v)


class TestSupport:
    def test_square(self):
        assert support(square01(), pt(1, 0)) == 1

    def test_attained_at_origin_vertex(self):
        assert support(square01(), pt(-1, -1)) == 0

    def test_singleton(self):
        assert support(ConvexPolygon.hull([pt(2, 3)]), pt(0, 1)) == 3

    def test_zero_direction(self):
        with pytest.raises(ValueError, match="zero direction"):
            support(square01(), pt(0, 0))


class TestEuclideanApprox:
    def test_k_too_small(self):
        with pytest.raises(ValueError, match="k too small"):
            euclidean_approx(2)

    def test_axis_vertices(self):
        s = euclidean_approx(3)
        verts = set(s.inner.unit_ball.vertices)
        assert pt(1, 0) in verts and pt(-1, 0) in verts

    def test_gauge_on_axis(self):
        s = euclidean_approx(3)
        assert s.inner.gauge(pt(1, 0)) == 1
        assert s.outer.gauge(pt(1, 0)) <= 1

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_inner_vertices_on_unit_circle(self, k):
        s = euclidean_approx(k)
        assert s.inner.unit_ball.n == 2 * k
        for v in s.inner.unit_ball.vertices:
            assert v.x * v.x + v.y * v.y == 1

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_outer_contains_disc(self, k):
        # each outer edge line <a, x> = b must satisfy b^2 >= |a|^2,
        # i.e. Euclidean distance from the origin to the edge is >= 1
        s = euclidean_approx(k)
        for a, b in s.outer._edge_normals:
            assert b * b >= a.dot(a)

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_sandwich_gauge_ordering(self, k, rng):
        from conftest import random_point
        s = euclidean_approx(k)
        for _ in range(30):
            v = random_point(rng)
            gi, go = s.inner.gauge(v), s.outer.gauge(v)
            assert go <= gi <= s.ratio_bound * go

    def test_ratio_bound_shrinks_with_k(self):
        r3 = euclidean_approx(3).ratio_bound
        r8 = euclidean_approx(8).ratio_bound
        assert 1 < r8 < r3

    # k with a parameter near a tie between two best approximations (2378/5741
    # and 3363/8119 at pi/8), where a float tangent picks the wrong one
    NEAR_TIES = (52, 104, 188, 208, 332, 376, 396)

    def test_parameters_match_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for k in list(range(3, 65)) + list(self.NEAR_TIES):
            with mpmath.workdps(30):
                expected = [
                    Fraction(mpmath.nstr(mpmath.tan(mpmath.pi * i / (2 * k)), 25))
                    .limit_denominator(10**4)
                    for i in range(k)
                ]
            got = [_tan_pi(i, 2 * k).limit_denominator(10**4) for i in range(k)]
            assert got == expected, k

    def test_imports_without_mpmath(self):
        script = textwrap.dedent("""
            import sys
            sys.modules["mpmath"] = None  # any import of mpmath now fails
            import hlab
            print(hlab.euclidean_approx(12).inner.unit_ball.n)
        """)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "24\n"
