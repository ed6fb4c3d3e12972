"""The benchmark's independent reference against hand values, brute force
and hlab itself.  Run: python3 -m pytest perfbench -q"""

import os
import random
import sys
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import gen  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from hlab import convex_ops, norms  # noqa: E402

LINF = workloads.LINF
L1 = workloads.L1


def square(x, y, side=1):
    return tuple((F(a), F(b)) for a, b in ((x, y), (x + side, y), (x + side, y + side), (x, y + side)))


def test_gauge_hand_values():
    assert ref.gauge(LINF, (F(3), F(-1))) == 3
    assert ref.gauge(L1, (F(3), F(-1))) == 4
    assert ref.gauge(LINF, (F(0), F(0))) == 0


def test_worked_scene_distance_is_one():
    scene = workloads.Scene(os.path.join(os.path.dirname(HERE), "scenes", "worked.json"))
    assert ref.set_distance(scene.A, scene.parts[0], scene.K) == 1


def test_figure1_gap_ratio_is_eight():
    scene = workloads.Scene(os.path.join(os.path.dirname(HERE), "scenes", "figure1.json"))
    h = F(1, 32)
    for r in (F(5, 4), F(3, 2), F(7, 4)):
        M0 = ref.f_eval(scene.A, scene.parts[0], r, scene.K)
        M1 = ref.f_eval(scene.A, scene.parts[0], r + h, scene.K)
        assert ref.hausdorff(M0, M1, scene.K) / h == 8


def test_translated_square_hausdorff_is_t():
    for t in (F(1, 3), F(2), F(7, 5)):
        P, Q = square(0, 0), tuple((x + t, y) for x, y in square(0, 0))
        assert ref.hausdorff(P, Q, LINF) == t
        assert ref.hausdorff(P, Q, L1) == t


def test_canonical_order():
    pts = [(F(1), F(0)), (F(1), F(1)), (F(0), F(1)), (F(0), F(0)), (F(1, 2), F(0))]
    assert ref.canonical(pts) == square(0, 0)
    assert ref.canonical([(F(2), F(2)), (F(1), F(1)), (F(0), F(0)), (F(1), F(1))]) == \
        ((F(0), F(0)), (F(2), F(2)))
    assert ref.canonical([(F(1), F(1))] * 3) == ((F(1), F(1)),)


def lattice(lo, hi, q):
    return [(F(i, q), F(j, q)) for i in range(lo * q, hi * q + 1) for j in range(lo * q, hi * q + 1)]


def test_clip_matches_lattice_membership():
    """On tiny lattice instances a grid point lies in f(r) exactly when it
    lies in B and within r of A."""
    rng = random.Random(3)
    grid = lattice(-3, 3, 2)
    for K in (LINF, L1):
        for _ in range(4):
            A = ref.vertices(gen.random_polygon(rng, 3, 5, -2, 2, 2))
            B = ref.vertices(gen.random_polygon(rng, 3, 5, -2, 2, 2))
            r = ref.set_distance(A, B, K) + F(rng.randint(0, 4), 2)
            M = ref.f_eval(A, B, r, K)
            for x in grid:
                want = ref.contains(B, x) and ref.point_distance(x, A, K) <= r
                assert (M is not None and ref.contains(M, x)) == want


def test_distances_bracketed_by_lattice_brute_force():
    """Brute-force minima over lattice points of a set bracket the exact
    distance from above, within one lattice cell per set."""
    rng = random.Random(4)
    for K in (LINF, L1):
        cell = {q: F(1, q) * max(ref.gauge(K, (F(1), F(1))), ref.gauge(K, (F(1), F(-1))))
                for q in (2, 4)}
        for _ in range(3):
            A = ref.vertices(gen.random_polygon(rng, 3, 5, -2, 2, 1))
            B = ref.vertices(gen.random_polygon(rng, 3, 5, -2, 2, 1))
            x = (F(rng.randint(-8, 8), 4), F(rng.randint(-8, 8), 4))
            d = ref.point_distance(x, A, K)
            brute = min(ref.gauge(K, ref.sub(x, p)) for p in lattice(-2, 2, 4) if ref.contains(A, p))
            assert d <= brute <= d + cell[4]
            in_a = [p for p in lattice(-2, 2, 2) if ref.contains(A, p)]
            in_b = [p for p in lattice(-2, 2, 2) if ref.contains(B, p)]
            d = ref.set_distance(A, B, K)
            brute = min(ref.gauge(K, ref.sub(p, s)) for p in in_a for s in in_b)
            assert d <= brute <= d + 2 * cell[2]


def test_agrees_with_hlab_on_random_pairs():
    rng = random.Random(5)
    ns = [norms.linf_norm(), norms.l1_norm(), gen.random_hexagon_norm(rng)]
    for i in range(12):
        n = ns[i % 3]
        A, B = gen.random_polygon(rng), gen.random_polygon(rng)
        K = ref.vertices(n.unit_ball)
        assert ref.hausdorff(ref.vertices(A), ref.vertices(B), K) == convex_ops.hausdorff(A, B, n)
        assert ref.set_distance(ref.vertices(A), ref.vertices(B), K) == \
            convex_ops.set_distance(A, B, n)
        assert ref.hausdorff_union([ref.vertices(A)], [ref.vertices(B)], K) == \
            convex_ops.hausdorff(A, B, n)


def test_separated_pairs_agree_with_hlab():
    rng = random.Random(6)
    n = norms.euclidean_approx(6).inner
    K = ref.vertices(n.unit_ball)
    for _ in range(3):
        A, B = gen.regular_pair(rng, 4, 1.0, 3.0, 0.4, 64, 1)
        a, b = ref.vertices(A), ref.vertices(B)
        d = ref.set_distance(a, b, K)
        assert d == convex_ops.set_distance(A, B, n) > 0
        assert ref.f_eval(a, b, d - F(1, 8), K) is None
