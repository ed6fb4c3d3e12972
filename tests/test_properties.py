"""Cross-cutting exact invariants: metric axioms, Lipschitz distance,
projection rays, boundary distances, and the continuity moduli on random
instances under several norms."""

import random

import pytest

from hlab._scalar import rat
from hlab.geometry import ConvexPolygon, pt
from hlab.norms import l1_norm, linf_norm
from hlab.convex_ops import (
    hausdorff,
    neighborhood,
    point_distance,
    set_distance,
    subset_of,
)
from hlab.continuity import delta_left, delta_right, f_eval, verify_modulus

from conftest import random_hexagon_norm, random_point, random_polygon


class TestHausdorffMetricAxioms:
    def test_symmetry_identity_triangle(self, rng, linf):
        for _ in range(40):
            P = random_polygon(rng)
            Q = random_polygon(rng)
            R = random_polygon(rng)
            dpq = hausdorff(P, Q, linf)
            assert dpq == hausdorff(Q, P, linf)
            assert hausdorff(P, P, linf) == 0
            assert (dpq == 0) == (P == Q)
            assert dpq <= hausdorff(P, R, linf) + hausdorff(R, Q, linf)


class TestDistanceIsOneLipschitz:
    def test_point_distance_lipschitz(self, rng, l1):
        P = None
        for i in range(100):
            if i % 10 == 0:
                P = random_polygon(rng)
            x, y = random_point(rng), random_point(rng)
            dx = point_distance(x, P, l1).distance
            dy = point_distance(y, P, l1).distance
            assert abs(dx - dy) <= l1.gauge(x - y)


class TestProjectionRay:
    def test_distance_along_the_ray(self, rng, linf):
        # moving away from P through a projection point scales the distance:
        # the projection point keeps realizing it at every lambda >= 1
        done = 0
        while done < 40:
            P = random_polygon(rng)
            x = random_point(rng)
            w = point_distance(x, P, linf)
            if w.distance == 0:
                continue
            y = w.projection_point
            for lam in (rat(1), rat(2), rat(3)):
                z = y + (x - y).scaled(lam)
                assert point_distance(z, P, linf).distance == linf.gauge(z - y)
            done += 1


class TestBoundaryDistance:
    def test_shell_points_at_exact_distance(self, rng, linf):
        # every vertex and edge midpoint of the eps-shell is at distance eps
        for _ in range(15):
            A = random_polygon(rng)
            eps = rat(rng.randint(1, 8), rng.randint(1, 8))
            shell = neighborhood(A, eps, linf)
            probes = list(shell.vertices)
            probes += [e.point_at(rat(1, 2)) for e in shell.edges()]
            for q in probes:
                assert point_distance(q, A, linf).distance == eps


class TestWitnessesOnRandomInstances:
    @pytest.mark.parametrize("norm_name", ["linf", "l1", "hexagon"])
    def test_witnesses_positive_and_verified(self, norm_name):
        rng = random.Random(hash(norm_name) & 0xFFFF)
        n = {"linf": linf_norm(), "l1": l1_norm()}.get(norm_name) or \
            random_hexagon_norm(rng)
        eps = rat(1, 4)
        for _ in range(5):
            A = random_polygon(rng)
            B = random_polygon(rng)
            d = set_distance(A, B, n)
            for r in (d, d + rat(1, 2)):
                w = delta_right(A, B, r, eps, n)
                assert w.delta is None or w.delta > 0
                if r > d:
                    assert delta_left(A, B, r, eps, n).delta > 0
                right, left = verify_modulus(A, B, r, eps, n, samples=4)
                assert right.all_passed and left.all_passed


class TestMonotonicity:
    def test_f_is_monotone_in_r(self, rng, linf):
        for _ in range(15):
            A = random_polygon(rng)
            B = random_polygon(rng)
            d = set_distance(A, B, linf)
            radii = [d + rat(k, 3) for k in range(4)]
            for rlo, rhi in zip(radii, radii[1:]):
                assert subset_of(f_eval(A, B, rlo, linf), f_eval(A, B, rhi, linf))
