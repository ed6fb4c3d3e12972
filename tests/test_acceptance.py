"""Acceptance suite: one test per shipped guarantee, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every comparison is exact rational arithmetic; the only tolerances are the
stated runtime budgets and the oracle's rigorous bracket width.
"""

import random
import time

from hlab._scalar import rat
from hlab.geometry import pt
from hlab.norms import l1_norm, linf_norm, support
from hlab.convex_ops import (
    hausdorff,
    minkowski_sum,
    neighborhood,
    point_distance,
    set_distance,
    subset_of,
)
from hlab.continuity import (
    delta_left,
    delta_right,
    f_eval,
    grid_oracle_hausdorff,
    verify_modulus,
)
from hlab.scenarios import FIGURE2_DELTAS, figure1_scenario, figure2_convex_control, figure2_scenario
from hlab.cli import main as cli_main

from conftest import random_hexagon_norm, random_point, random_polygon


def _report(num, name):
    print(f"[PASS] criterion {num}: {name}")


def test_criterion_1_continuity_witness_suite():
    started = time.perf_counter()
    epsilons = (rat(1), rat(1, 4), rat(1, 16))
    norms = [("linf", linf_norm()), ("l1", l1_norm()),
             ("hexagon", random_hexagon_norm(random.Random(7)))]
    checked = 0
    for seed, (label, n) in enumerate(norms, start=1001):
        rng = random.Random(seed)
        for _ in range(50):
            A = random_polygon(rng)
            B = random_polygon(rng)
            d = set_distance(A, B, n)
            for eps in epsilons:
                for r in (d, d + rat(1, 2), d + rat(2)):
                    w = delta_right(A, B, r, eps, n)
                    assert w.delta is None or w.delta > 0
                    if r > d:
                        assert delta_left(A, B, r, eps, n).delta > 0
                    right, left = verify_modulus(A, B, r, eps, n, samples=8)
                    assert right.all_passed
                    assert left.all_passed
                    checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 50 * 3 * 3 * 3
    assert elapsed < 300, f"witness suite took {elapsed:.1f}s"
    _report(1, f"continuity witnesses on {checked} configurations "
               f"({elapsed:.1f}s, 100% verified)")


def test_criterion_2_figure1_certificate():
    started = time.perf_counter()
    _, rows, max_ratio = figure1_scenario()
    elapsed = time.perf_counter() - started
    assert max_ratio == 8
    assert all(row.ratio > 1 for row in rows)
    assert elapsed < 1.0, f"figure1 took {elapsed:.2f}s"
    _report(2, f"figure-1 gap ratio exactly 8 > 1 at every radius ({elapsed:.2f}s)")


def test_criterion_3_figure2_certificate():
    started = time.perf_counter()
    _, jump = figure2_scenario()
    _, control_gaps = figure2_convex_control()
    elapsed = time.perf_counter() - started
    assert min(jump.deltas) == rat(1, 32)
    assert all(g >= 4 for g in jump.gaps)
    assert all(g <= 2 * d for d, g in zip(FIGURE2_DELTAS, control_gaps))
    assert elapsed < 1.0, f"figure2 took {elapsed:.2f}s"
    _report(3, f"figure-2 jump >= 4 for deltas down to 1/32; "
               f"convexified control <= 2*delta ({elapsed:.2f}s)")


def test_criterion_4_oracle_equivalence():
    rng = random.Random(42)
    step = rat(1, 64)
    n = linf_norm()
    cell = step * max(n.gauge(pt(1, 1)), n.gauge(pt(1, -1)))
    for _ in range(20):
        P = random_polygon(rng, lo=-1, hi=1)
        Q = random_polygon(rng, lo=-1, hi=1)
        exact = hausdorff(P, Q, n)
        lo, hi = grid_oracle_hausdorff(P, Q, n, step)
        assert lo <= exact <= hi
        assert hi - lo <= 2 * cell
    _report(4, "exact Hausdorff inside the grid-oracle bracket on 20 instances, "
               "width <= 2 grid diameters")


def test_criterion_5_metric_and_structure_axioms():
    rng = random.Random(5)
    n = linf_norm()
    for _ in range(200):
        P, Q, R = (random_polygon(rng) for _ in range(3))
        dpq = hausdorff(P, Q, n)
        assert dpq == hausdorff(Q, P, n)
        assert dpq <= hausdorff(P, R, n) + hausdorff(R, Q, n)
    for _ in range(200):
        A = random_polygon(rng)
        r1 = rat(rng.randint(1, 8), rng.randint(1, 8))
        r2 = rat(rng.randint(1, 8), rng.randint(1, 8))
        assert neighborhood(neighborhood(A, r1, n), r2, n) == \
            neighborhood(A, r1 + r2, n)
    P = random_polygon(rng)
    Q = random_polygon(rng)
    S = minkowski_sum(P, Q)
    done = 0
    while done < 200:
        u = random_point(rng)
        if u.x == 0 and u.y == 0:
            continue
        assert support(S, u) == support(P, u) + support(Q, u)
        done += 1
    _report(5, "metric axioms, neighborhood semigroup and support additivity "
               "(200 cases each, exact)")


def test_criterion_6_distance_identity_suite():
    rng = random.Random(6)
    n = l1_norm()
    # boundary-distance equality on shells
    for _ in range(50):
        A = random_polygon(rng)
        eps = rat(rng.randint(1, 8), rng.randint(1, 8))
        shell = neighborhood(A, eps, n)
        probes = list(shell.vertices) + [e.point_at(rat(1, 2)) for e in shell.edges()]
        for q in probes:
            assert point_distance(q, A, n).distance == eps
    # 1-Lipschitz point-to-set distance
    P = random_polygon(rng)
    for i in range(500):
        if i % 25 == 0:
            P = random_polygon(rng)
        x, y = random_point(rng), random_point(rng)
        dx = point_distance(x, P, n).distance
        dy = point_distance(y, P, n).distance
        assert abs(dx - dy) <= n.gauge(x - y)
    # projection-ray distance equality
    done = 0
    while done < 100:
        P = random_polygon(rng)
        x = random_point(rng)
        w = point_distance(x, P, n)
        if w.distance == 0:
            continue
        y = w.projection_point
        for lam in (rat(1), rat(2), rat(3)):
            z = y + (x - y).scaled(lam)
            assert point_distance(z, P, n).distance == n.gauge(z - y)
        done += 1
    _report(6, "boundary-distance, 1-Lipschitz and projection-ray identities "
               "(50 + 500 + 100 cases, exact)")


def test_criterion_7_monotonicity():
    rng = random.Random(7)
    n = linf_norm()
    for _ in range(50):
        A = random_polygon(rng)
        B = random_polygon(rng)
        d = set_distance(A, B, n)
        for _ in range(5):
            r1 = d + rat(rng.randint(0, 16), 8)
            r2 = d + rat(rng.randint(0, 16), 8)
            if r1 > r2:
                r1, r2 = r2, r1
            assert subset_of(f_eval(A, B, r1, n), f_eval(A, B, r2, n))
    _report(7, "f(r) monotone in r on 50 instances x 5 radius pairs")


def test_criterion_8_cli_determinism(tmp_path, capsys):
    import os

    scenes = os.path.join(os.path.dirname(__file__), os.pardir, "scenes")
    worked = os.path.join(scenes, "worked.json")
    figure1 = os.path.join(scenes, "figure1.json")

    def run(*argv):
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        assert code == 0
        return out

    commands = [
        ("eval", worked, "--r", "3/2"),
        ("witness", worked, "--side", "right", "--r", "1", "--epsilon", "1/4"),
        ("witness", worked, "--side", "left"),
        ("oracle", worked, "--step", "1/16"),
        ("scenario", "figure2"),
    ]
    for argv in commands:
        assert run(*argv) == run(*argv)

    svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
    out1 = run("scan", figure1, "--steps", "8", "--svg", str(svg1))
    out2 = run("scan", figure1, "--steps", "8", "--svg", str(svg2))
    assert out1 == out2 and svg1.read_bytes() == svg2.read_bytes()

    svg1, svg2 = tmp_path / "c.svg", tmp_path / "d.svg"
    out1 = run("scenario", "figure1", "--svg", str(svg1))
    out2 = run("scenario", "figure1", "--svg", str(svg2))
    assert out1 == out2 and svg1.read_bytes() == svg2.read_bytes()

    # scene round trip is a fixed point
    from hlab.sceneio import load_scene, save_scene

    for name in ("worked.json", "figure1.json", "figure2.json"):
        src = os.path.join(scenes, name)
        first = open(src, "r", encoding="utf-8").read()
        copy = tmp_path / name
        save_scene(load_scene(src), str(copy))
        assert copy.read_text() == first
    _report(8, "CLI byte-determinism on shipped scenes and scene round-trip "
               "fixed point")
