"""The four workloads: seeded inputs, the calls into hlab, and the checks.

Each workload builds its norms once (``__init__``), then hands out rounds,
drawing each round's inputs from its seeded generator as the round is
asked for, so no input repeats within a run and rounds must be asked for
in order.  A round is a fixed list of operations; an operation's ``run`` makes the
timed calls into hlab and returns the raw results, ``record`` turns them
into plain values (Fractions, tuples, strings) outside the timed region,
and ``check`` compares a record with the independent reference, raising
``CheckFailed`` on the first mismatch.  Records are also what the digests
are taken over.

hlab is always reached through module attributes (``continuity.f_eval``),
never through names bound at import, so that the traced run's wrappers see
every call the benchmark makes.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

import hlab.cli as cli
import hlab.continuity as continuity
import hlab.convex_ops as convex_ops
import hlab.norms as norms
from hlab._scalar import rat

import gen
import reference as ref

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class CheckFailed(Exception):
    """A program output disagrees with the reference or a required property."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str                      # label used for per-kind rates and medians
    run: Callable[[Callable], Any]  # timed: the calls into hlab; may call
                                    # its argument between calls (a clock tick)
    record: Callable[[Any], Any]   # untimed: raw results -> plain values
    check: Callable[[Any], None]   # untimed: raises CheckFailed


def P(v) -> tuple:
    return (Fraction(v.x), Fraction(v.y))


def V(poly) -> tuple:
    return ref.vertices(poly)


def frac(q) -> Optional[Fraction]:
    return None if q is None else Fraction(q)


# ---------------------------------------------------------------- certification

def certify_run(A, B, n, r, eps, d, samples):
    """One configuration: delta_right, delta_left (for r > |AB|) and
    verify_modulus, exactly as the criterion-1 suite calls them."""
    right = continuity.delta_right(A, B, r, eps, n)
    left = continuity.delta_left(A, B, r, eps, n) if r > d else None
    return right, left, continuity.verify_modulus(A, B, r, eps, n, samples=samples)


def certify_record(r, eps, raw) -> dict:
    right, left, reports = raw
    return {
        "r": Fraction(r), "eps": Fraction(eps), "M": V(right.M),
        "K": [(P(s.a), P(s.b)) for s in right.K], "delta_right": frac(right.delta),
        "left": None if left is None else {
            "p": P(left.p), "lam": Fraction(left.lam), "L": Fraction(left.L),
            "delta": Fraction(left.delta)},
        "reports": [{"side": rep.side, "samples": [Fraction(x) for x in rep.r_prime_samples],
                     "all_passed": rep.all_passed, "worst_gap": Fraction(rep.worst_gap)}
                    for rep in reports],
    }


def check_config(A, B, K, d, c) -> None:
    r, eps = c["r"], c["eps"]
    M = ref.f_eval(A, B, r, K)
    require(c["M"] == M, f"f({r}) differs from the reference clip")
    require(c["delta_right"] is None or c["delta_right"] > 0, "delta_right <= 0")
    left = c["left"]
    if r > d:
        require(left is not None, "no left witness")
        require(left["delta"] > 0, "delta_left <= 0")
        require(ref.contains(B, left["p"]), "left witness p not in B")
        require(ref.point_distance(left["p"], A, K) == d, "left witness p not at |AB| from A")
        require(left["lam"] * left["L"] <= eps, "lambda * L > epsilon")
    for rep in c["reports"]:
        require(rep["all_passed"], f"{rep['side']} report did not pass")
        if not rep["samples"]:
            require(rep["side"] == "left" and r == d and rep["worst_gap"] == 0,
                    "empty sample list away from the domain endpoint")
            continue
        gaps = [ref.hausdorff(M, ref.f_eval(A, B, rp, K), K) for rp in rep["samples"]]
        require(all(g <= eps for g in gaps), f"{rep['side']}: reference gap above epsilon")
        require(max(gaps) == rep["worst_gap"], f"{rep['side']}: worst_gap differs from reference")


def check_rows(A, B, K, rows) -> None:
    for r, r_next, gap, ratio in rows:
        g = ref.hausdorff(ref.f_eval(A, B, r, K), ref.f_eval(A, B, r_next, K), K)
        require(gap == g, f"scan row at r={r}: d_H differs from reference")
        require(ratio == g / (r_next - r), f"scan row at r={r}: ratio != d_H/h")


def check_subset(Ms) -> None:
    """f(r) is monotone: each clip lies inside the next larger one."""
    for small, big in zip(Ms, Ms[1:]):
        require(all(ref.contains(big, v) for v in small), "f(r) not inside f(r + h)")


# ---------------------------------------------------------------- witness

EPSILONS = (rat(1), rat(1, 4), rat(1, 16))


class Witness:
    """Criterion-1 traffic: random 4-10-gons in [-4, 4]^2 (denominators
    <= 16) under L-inf, L1 and a random hexagon norm; radius |AB|,
    |AB| + 1/2 or |AB| + 2; epsilon 1, 1/4 or 1/16; verify_modulus with 8
    samples.  A round is one pair per norm, each certified at one radius;
    radius and epsilon rotate with the round, so every combination recurs.
    One configuration per pair (not three) puts three times as many pairs
    in a run, which is what keeps the run's cost from hinging on a few
    pairs' vertex counts."""

    TRACE_ROUNDS = 3  # every radius and every epsilon under every norm

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.linf, self.l1 = norms.linf_norm(), norms.l1_norm()

    def round(self, i: int) -> list:
        rng = self.rng
        # a fresh hexagon each round, for the same reason as fresh pairs
        pairs = [(n, gen.random_polygon(rng), gen.random_polygon(rng))
                 for n in (self.linf, self.l1, gen.random_hexagon_norm(rng))]
        return [self.op(A, B, n, (i + j) % 3, (i + 2 * j) % 3)
                for j, (n, A, B) in enumerate(pairs)]

    @staticmethod
    def op(A, B, n, radius: int, epsilon: int) -> Op:
        eps = EPSILONS[epsilon]
        extra = (rat(0), rat(1, 2), rat(2))

        def run(tick):
            d = convex_ops.set_distance(A, B, n)
            r = d + extra[radius]
            return d, r, certify_run(A, B, n, r, eps, d, 8), continuity.f_eval(A, B, r + 1, n)

        def record(raw):
            d, r, config, wider = raw
            return {"d": Fraction(d), "config": certify_record(r, eps, config), "wider": V(wider)}

        a, b, k = V(A), V(B), V(n.unit_ball)

        def check(rec):
            require(rec["d"] == ref.set_distance(a, b, k), "set_distance differs from reference")
            c = rec["config"]
            check_config(a, b, k, rec["d"], c)
            require(rec["wider"] == ref.f_eval(a, b, c["r"] + 1, k),
                    "f(r + 1) differs from the reference clip")
            check_subset([c["M"], rec["wider"]])

        return Op("config", run, record, check)


# ---------------------------------------------------------------- euclid

SCAN_STEPS = 2  # gap-table rows per euclid pair


class Euclid:
    """The witness calls plus gap tables under euclidean_approx(12), a
    24-gon unit ball, on squares whose coordinates have denominator 1024,
    so rationals run past 100 bits.  The squares are jittered copies of
    one fixed pair (see gen.regular_pair): one configuration here costs
    seconds and its cost swings by 2x with the pair's shape, so free-form
    pairs would leave a run's cost to the few pairs it holds.  For the same
    reason k stays at 12: at k = 16 one configuration costs twice as much,
    and a run would hold too few.  One op is one pair: set_distance, one
    configuration at r = |AB| + 1/8 with epsilon 1/16 and 2 samples,
    f(r + 1/2), and a 2-row gap table over [|AB|, |AB| + 1]."""

    K = 12
    PAIRS = 2  # per round
    TRACE_ROUNDS = 1

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.sandwich = norms.euclidean_approx(self.K)

    def round(self, i: int) -> list:
        return [self.op(*gen.regular_pair(self.rng, 4, 1.0, 3.0, 0.4, 1024, 3), self.sandwich)
                for _ in range(self.PAIRS)]

    @staticmethod
    def op(A, B, sandwich) -> Op:
        n = sandwich.inner
        eps = rat(1, 16)

        def run(tick):
            # ticks between the calls: one op runs for seconds, and the
            # machine's speed can change within that
            d = convex_ops.set_distance(A, B, n)
            r = d + rat(1, 8)
            right = continuity.delta_right(A, B, r, eps, n)
            tick()
            left = continuity.delta_left(A, B, r, eps, n)
            tick()
            reports = continuity.verify_modulus(A, B, r, eps, n, samples=2)
            tick()
            wider = continuity.f_eval(A, B, r + rat(1, 2), n)
            rows = continuity.modulus_scan(A, B, n, d, d + 1, SCAN_STEPS)
            return d, r, (right, left, reports), wider, rows

        def record(raw):
            d, r, config, wider, rows = raw
            return {"d": Fraction(d), "config": certify_record(r, eps, config),
                    "wider": V(wider),
                    "rows": [tuple(Fraction(x) for x in (w.r, w.r_next, w.gap, w.ratio))
                             for w in rows],
                    "inner": V(sandwich.inner.unit_ball), "outer": V(sandwich.outer.unit_ball)}

        a, b, k = V(A), V(B), V(n.unit_ball)

        def check(rec):
            check_sandwich(rec["inner"], rec["outer"])
            require(rec["d"] == ref.set_distance(a, b, k), "set_distance differs from reference")
            c = rec["config"]
            check_config(a, b, k, rec["d"], c)
            require(rec["wider"] == ref.f_eval(a, b, c["r"] + Fraction(1, 2), k),
                    "f(r + 1/2) differs from the reference clip")
            check_subset([c["M"], rec["wider"]])
            require(len(rec["rows"]) == SCAN_STEPS, "wrong number of scan rows")
            check_rows(a, b, k, rec["rows"])

        return Op("config", run, record, check)


def check_sandwich(inner, outer) -> None:
    require(all(x * x + y * y == 1 for x, y in inner), "inner vertex off the unit circle")
    require(all(c * c >= ref.dot(a, a) for a, c in ref.edge_lines(outer)),
            "outer edge cuts the unit disc")


# ---------------------------------------------------------------- oracle

class Oracle:
    """Criterion-4 traffic: grid_oracle_hausdorff brackets under L-inf and
    L1 at steps 1/32 and 1/64, on jittered copies of one pair of regular
    6-gons (circumradius 3/8, centres 1/8 apart, coordinates in [-1, 1]
    over 64).  The oracle's cost grows with (d_H / step)^2 per sample, so
    free-form pairs would swing it by 50x; a fixed pair shape keeps it
    near-fixed."""

    CASES = ((0, rat(1, 32)), (1, rat(1, 32)), (0, rat(1, 64)), (1, rat(1, 64)))
    TRACE_ROUNDS = 1

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.norms = [norms.linf_norm(), norms.l1_norm()]

    def round(self, i: int) -> list:
        return [self.op(*gen.regular_pair(self.rng, 6, 0.375, 0.125, 0.3, 64, 1), self.norms[j], step)
                for j, step in self.CASES]

    @staticmethod
    def op(Pp, Q, n, step) -> Op:
        def run(tick):
            return continuity.grid_oracle_hausdorff(Pp, Q, n, step)

        p, q, k = V(Pp), V(Q), V(n.unit_ball)

        def check(rec):
            lo, hi = rec
            exact = ref.hausdorff(p, q, k)
            cell = Fraction(step) * max(ref.gauge(k, (1, 1)), ref.gauge(k, (1, -1)))
            require(lo <= exact <= hi, "reference d_H outside the oracle bracket")
            require(hi - lo <= 2 * cell, "oracle bracket wider than two cells")

        return Op("bracket", run, lambda raw: tuple(Fraction(x) for x in raw), check)


# ---------------------------------------------------------------- cli

def parse_q(text: str) -> Fraction:
    return Fraction(text)


def parse_poly(rows) -> tuple:
    return tuple((parse_q(x), parse_q(y)) for x, y in rows)


LINF = ((Fraction(-1), Fraction(-1)), (Fraction(1), Fraction(-1)),
        (Fraction(1), Fraction(1)), (Fraction(-1), Fraction(1)))
L1 = ((Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1)),
      (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def scene_ball(spec: dict) -> tuple:
    if spec["kind"] == "linf":
        return LINF
    if spec["kind"] == "l1":
        return L1
    if spec["kind"] == "ball":
        return parse_poly(spec["ball"])
    return V(norms.euclidean_approx(spec["k"]).inner.unit_ball)


class Scene:
    """A scene file as the reference sees it."""

    def __init__(self, path: str):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        self.K = scene_ball(doc["norm"])
        self.A = parse_poly(doc["A"])
        self.parts = [parse_poly(p) for p in doc["B"]]
        self.r = parse_q(doc["r"]) if "r" in doc else None
        self.eps = parse_q(doc["epsilon"]) if "epsilon" in doc else None
        self.r_range = tuple(parse_q(x) for x in doc["r_range"]) if "r_range" in doc else None


def write_scene(path: str, norm_spec: dict, A, B, K, eps) -> None:
    a, b = V(A), V(B)
    d = ref.set_distance(a, b, K)
    doc = {"norm": norm_spec, "A": [[str(x), str(y)] for x, y in a],
           "B": [[[str(x), str(y)] for x, y in b]], "r": str(d + Fraction(1, 2)),
           "r_range": [str(d), str(d + 1)], "epsilon": str(eps)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def svg_ok(data: Optional[bytes]) -> None:
    require(data is not None, "no SVG written")
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise CheckFailed(f"SVG does not parse: {exc}") from exc
    require(root.tag.endswith("svg"), "SVG root is not <svg>")


def check_eval(scene: Scene, out: dict) -> None:
    r = parse_q(out["r"])
    want = [c for c in (ref.f_eval(scene.A, part, r, scene.K) for part in scene.parts)
            if c is not None]
    require([parse_poly(c) for c in out["components"]] == want,
            "eval components differ from the reference clip")


def check_witness(scene: Scene, out: dict) -> None:
    require(out["verification"]["all_passed"] is True, "witness verification failed")
    B, K = scene.parts[0], scene.K
    M = parse_poly(out["M"])
    r, eps = parse_q(out["r"]), parse_q(out["epsilon"])
    require(M == ref.f_eval(scene.A, B, r, K), "witness M differs from the reference clip")
    for seg in out.get("K", []):
        a, b = parse_poly(seg)
        mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        for x in (a, mid, b):
            require(ref.contains(B, x), "K segment leaves B")
            require(ref.point_distance(x, M, K) == eps, "K segment not at distance epsilon from M")
    if out["side"] == "left":
        p = parse_poly([out["p"]])[0]
        require(ref.contains(B, p), "left witness p not in B")
        require(ref.point_distance(p, scene.A, K) == ref.set_distance(scene.A, B, K),
                "left witness p not at |AB| from A")


def check_scan(scene: Scene, text: str, steps: int) -> None:
    lines = text.splitlines()
    require(lines[0] == "r,r_next,d_H,ratio", "scan header")
    rows = [tuple(parse_q(x) for x in line.split(",")) for line in lines[1:]]
    lo, hi = scene.r_range
    h = (hi - lo) / steps
    require([row[0] for row in rows] == [lo + h * j for j in range(steps)], "scan radii")
    require(all(row[1] == row[0] + h for row in rows), "scan r_next")
    check_rows(scene.A, scene.parts[0], scene.K, rows)


def check_figure1(out: dict) -> None:
    require(parse_q(out["max_ratio"]) == 8, "figure1 max_ratio is not 8")
    s = out["scene"]
    A, B, K = parse_poly(s["A"]), parse_poly(s["B"][0]), LINF
    check_rows(A, B, K, [tuple(parse_q(row[key]) for key in ("r", "r_next", "d_H", "ratio"))
                         for row in out["table"]])


def check_figure2(out: dict) -> None:
    deltas = [parse_q(x) for x in out["deltas"]]
    require(all(parse_q(g) >= 4 for g in out["gaps"]), "figure2 gap below 4")
    require(all(parse_q(g) <= 2 * d for d, g in zip(deltas, out["convex_control_gaps"])),
            "figure2 convex control gap above 2 delta")
    require(len(out["gaps"]) == len(deltas) == len(out["convex_control_gaps"]),
            "figure2 table lengths")


def check_oracle(scene: Scene, out: dict) -> None:
    exact = ref.hausdorff_union([scene.A], scene.parts, scene.K)
    require(parse_q(out["exact"]) == exact, "oracle exact differs from reference")
    require(out["contains_exact"] is True, "oracle bracket misses exact")
    require(parse_q(out["lo"]) <= exact <= parse_q(out["hi"]), "reference outside bracket")


class Cli:
    """What a user at the shell waits for: every command as a fresh
    ``python -m hlab`` process, on the shipped scenes and on two scenes
    generated per seed (a jittered regular hexagon ``ball`` norm and
    ``euclidean_approx`` with k = 6), including the SVG writers.  A round
    runs each command once; every command's bytes must equal those of the
    previous round."""

    TRACE_ROUNDS = 1

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        # fixed shapes with seeded digits, as for oracle and euclid: with
        # free-form polygons and norms the witness commands' cost swung 3x
        # between seeds
        hexagon = gen.jittered_hexagon_norm(rng)
        ball, euclid = os.path.join(workdir, "ball.json"), os.path.join(workdir, "euclid.json")
        write_scene(ball, {"kind": "ball", "ball": [[str(x), str(y)] for x, y in V(hexagon.unit_ball)]},
                    *gen.regular_pair(rng, 5, 1.0, 3.0, 0.3, 16, 1), V(hexagon.unit_ball),
                    Fraction(1, 4))
        k6 = norms.euclidean_approx(6).inner
        write_scene(euclid, {"kind": "euclidean_approx", "k": 6},
                    *gen.regular_pair(rng, 4, 1.0, 3.0, 0.4, 64, 1), V(k6.unit_ball), Fraction(1, 4))
        scenes = os.path.join(ROOT, "scenes")
        worked, fig1, fig2 = (os.path.join(scenes, f) for f in ("worked.json", "figure1.json", "figure2.json"))
        self.scenes = {p: Scene(p) for p in (worked, fig1, fig2, ball, euclid)}
        svg = lambda name: os.path.join(workdir, name)
        S = self.scenes
        self.commands = [
            ("eval", ["eval", worked, "--r", "3/2"], None, lambda o, t: check_eval(S[worked], o)),
            ("eval", ["eval", fig2], None, lambda o, t: check_eval(S[fig2], o)),
            ("eval", ["eval", ball], None, lambda o, t: check_eval(S[ball], o)),
            ("eval", ["eval", euclid], None, lambda o, t: check_eval(S[euclid], o)),
            ("witness", ["witness", worked, "--side", "right", "--r", "1", "--epsilon", "1/4"], None,
             lambda o, t: check_witness(S[worked], o)),
            ("witness", ["witness", ball, "--side", "left"], None, lambda o, t: check_witness(S[ball], o)),
            ("witness", ["witness", ball, "--side", "right"], None, lambda o, t: check_witness(S[ball], o)),
            ("witness", ["witness", euclid, "--side", "right"], None,
             lambda o, t: check_witness(S[euclid], o)),
            ("scan", ["scan", fig1, "--steps", "16", "--svg", svg("scan1.svg")], svg("scan1.svg"),
             lambda o, t: check_scan(S[fig1], t, 16)),
            ("scan", ["scan", ball, "--steps", "4", "--svg", svg("scan2.svg")], svg("scan2.svg"),
             lambda o, t: check_scan(S[ball], t, 4)),
            ("scenario", ["scenario", "figure1", "--svg", svg("fig1.svg")], svg("fig1.svg"),
             lambda o, t: check_figure1(o)),
            ("scenario", ["scenario", "figure2", "--svg", svg("fig2.svg")], svg("fig2.svg"),
             lambda o, t: check_figure2(o)),
            ("oracle", ["oracle", worked, "--step", "1/16"], None, lambda o, t: check_oracle(S[worked], o)),
        ]
        self.previous: dict = {}
        self.in_process = False

    def round(self, i: int) -> list:
        return [self.op(j, *c) for j, c in enumerate(self.commands)]

    def invoke(self, argv: list) -> tuple:
        """Run one command; (exit code, stdout bytes)."""
        if self.in_process:
            import contextlib
            import io
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue().encode()
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        proc = subprocess.run([sys.executable, "-m", "hlab", *argv], cwd=self.workdir, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=120)
        return proc.returncode, proc.stdout

    def op(self, j: int, kind: str, argv: list, svg_path, check_out) -> Op:
        def run(tick):
            if svg_path and os.path.exists(svg_path):
                os.remove(svg_path)
            return self.invoke(argv)

        def record(raw):
            code, out = raw
            svg = None
            if svg_path and os.path.exists(svg_path):
                with open(svg_path, "rb") as fh:
                    svg = fh.read()
            return {"command": j, "code": code, "stdout": out, "svg": svg}

        def check(rec):
            require(rec["code"] == 0, f"{' '.join(argv[:1])} exited {rec['code']}")
            try:
                text = rec["stdout"].decode()
                out = None if kind == "scan" else json.loads(text)
            except ValueError as exc:  # undecodable bytes or not JSON
                raise CheckFailed(f"unreadable output: {exc}") from exc
            check_out(out, text)
            if svg_path:
                svg_ok(rec["svg"])
            key = (rec["command"], self.in_process)
            before = self.previous.setdefault(key, (rec["stdout"], rec["svg"]))
            require(before == (rec["stdout"], rec["svg"]), "output differs from the previous run")

        return Op(kind, run, record, check)


WORKLOADS = {"witness": Witness, "oracle": Oracle, "euclid": Euclid, "cli": Cli}
