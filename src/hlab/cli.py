"""Command-line surface: eval, witness, scan, scenario, oracle.

Exit codes: 0 success, 1 input/usage error, 2 domain violation (a
mathematically meaningful failure such as a radius below |A B|).  All
output is deterministic; rationals are printed as exact "p/q" strings.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from ._scalar import Rat, format_rat
from .geometry import Segment
from .convex_ops import hausdorff_union
from .continuity import (
    DomainError,
    ModulusReport,
    f_eval,
    grid_oracle_hausdorff,
    modulus_scan,
    verify_modulus,
)
from .scenarios import (
    Scene,
    f_union_eval,
    figure1_scenario,
    figure2_convex_control,
    figure2_scenario,
)
from .sceneio import SceneFormatError, load_scene, parse_rational, polygon_to_json, scene_to_json
from .svg import render_scan_svg, render_scene_svg


# largest gap table `scan` computes: one f(r) and one Hausdorff distance per row
MAX_STEPS = 4096


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1 in this tool, not argparse's 2
    def error(self, message):
        raise UsageError(message)


def _segment_json(s: Segment) -> list:
    return [[format_rat(s.a.x), format_rat(s.a.y)],
            [format_rat(s.b.x), format_rat(s.b.y)]]


def _report_json(rep: ModulusReport) -> dict:
    doc = {
        "side": rep.side,
        "r": format_rat(rep.r),
        "epsilon": format_rat(rep.epsilon),
        "r_prime_samples": [format_rat(x) for x in rep.r_prime_samples],
        "all_passed": rep.all_passed,
        "worst_gap": format_rat(rep.worst_gap),
    }
    if rep.note:
        doc["note"] = rep.note
    return doc


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _scene_r(scene: Scene, override: Optional[str]) -> Rat:
    if override is not None:
        return parse_rational(override, "--r")
    if scene.r is None:
        raise SceneFormatError("r: missing from scene and not given with --r")
    return scene.r


def cmd_eval(args) -> int:
    scene = load_scene(args.scene)
    r = _scene_r(scene, args.r)
    if len(scene.b_parts) == 1:
        components = [f_eval(scene.A, scene.B, r, scene.norm)]
    else:
        components = f_union_eval(scene.A, scene.b_parts, r, scene.norm)
    _emit({"r": format_rat(r),
           "components": [polygon_to_json(c) for c in components]})
    return 0


def cmd_witness(args) -> int:
    scene = load_scene(args.scene)
    if len(scene.b_parts) != 1:
        raise SceneFormatError("B: witness computation needs a convex (single-part) B")
    r = _scene_r(scene, args.r)
    if args.epsilon is not None:
        epsilon = parse_rational(args.epsilon, "--epsilon")
    elif scene.epsilon is not None:
        epsilon = scene.epsilon
    else:
        raise SceneFormatError("epsilon: missing from scene and not given with --epsilon")
    right_rep, left_rep = verify_modulus(scene.A, scene.B, r, epsilon, scene.norm)
    if args.side == "right":
        w = right_rep.witness
        doc = {
            "side": "right",
            "r": format_rat(r),
            "epsilon": format_rat(epsilon),
            "M": polygon_to_json(w.M),
            "K": [_segment_json(s) for s in w.K],
            "delta": "inf" if w.delta is None else format_rat(w.delta),
            "verification": _report_json(right_rep),
        }
    else:
        w = left_rep.witness
        if w is None:
            raise DomainError("left witness needs r strictly above set distance")
        doc = {
            "side": "left",
            "r": format_rat(r),
            "epsilon": format_rat(epsilon),
            "M": polygon_to_json(w.M),
            "p": [format_rat(w.p.x), format_rat(w.p.y)],
            "lambda": format_rat(w.lam),
            "L": format_rat(w.L),
            "gM": polygon_to_json(w.gM),
            "delta": format_rat(w.delta),
            "verification": _report_json(left_rep),
        }
    _emit(doc)
    return 0


def cmd_scan(args) -> int:
    if args.steps < 1:
        raise UsageError("steps must be >= 1")
    if args.steps > MAX_STEPS:
        raise UsageError(f"steps must be <= {MAX_STEPS}")
    scene = load_scene(args.scene)
    if scene.r_range is None:
        raise SceneFormatError("r_range: missing from scene")
    if len(scene.b_parts) != 1:
        raise SceneFormatError("B: scan needs a convex (single-part) B")
    rows = modulus_scan(scene.A, scene.B, scene.norm,
                        scene.r_range[0], scene.r_range[1], args.steps)
    out = ["r,r_next,d_H,ratio"]
    for row in rows:
        out.append(",".join(format_rat(v) for v in (row.r, row.r_next, row.gap, row.ratio)))
    sys.stdout.write("\n".join(out) + "\n")
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_scan_svg(rows))
    return 0


def cmd_scenario(args) -> int:
    if args.name == "figure1":
        scene, rows, max_ratio = figure1_scenario()
        doc = {
            "name": "figure1",
            "scene": scene_to_json(scene),
            "table": [
                {"r": format_rat(row.r), "r_next": format_rat(row.r_next),
                 "d_H": format_rat(row.gap), "ratio": format_rat(row.ratio)}
                for row in rows
            ],
            "max_ratio": format_rat(max_ratio),
            "certified_strictly_greater_than_one": bool(max_ratio > 1),
        }
        f_parts = [f_eval(scene.A, scene.B, scene.r, scene.norm)]
        svg = render_scene_svg(scene.A, scene.b_parts, scene.norm, scene.r, f_parts)
    elif args.name == "figure2":
        scene, jump = figure2_scenario()
        _, control_gaps = figure2_convex_control()
        doc = {
            "name": "figure2",
            "scene": scene_to_json(scene),
            "rho": format_rat(jump.rho),
            "deltas": [format_rat(d) for d in jump.deltas],
            "gaps": [format_rat(g) for g in jump.gaps],
            "jump_lower_bound": format_rat(jump.jump_lower_bound),
            "convex_control_gaps": [format_rat(g) for g in control_gaps],
        }
        f_parts = f_union_eval(scene.A, scene.b_parts, scene.r, scene.norm)
        svg = render_scene_svg(scene.A, scene.b_parts, scene.norm, scene.r, f_parts)
    else:
        raise UsageError(f"unknown scenario {args.name!r}; available: figure1, figure2")
    _emit(doc)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return 0


def cmd_oracle(args) -> int:
    scene = load_scene(args.scene)
    step = parse_rational(args.step, "--step")
    try:
        exact = hausdorff_union([scene.A], list(scene.b_parts), scene.norm)
    except ValueError as exc:  # a union distance its vertex bounds leave open
        raise DomainError(str(exc)) from exc
    try:
        lo, hi = grid_oracle_hausdorff(scene.A, list(scene.b_parts), scene.norm, step)
    except ValueError as exc:  # step not positive, too fine, or too coarse to sample a part
        raise UsageError(f"--step: {exc}") from exc
    _emit({
        "step": format_rat(step),
        "exact": format_rat(exact),
        "lo": format_rat(lo),
        "hi": format_rat(hi),
        "contains_exact": bool(lo <= exact <= hi),
    })
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hlab",
                     description="exact continuity lab for f(r) = B_r(A) n B")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate f(r) on a scene")
    p.add_argument("scene")
    p.add_argument("--r", help="radius as 'p/q' (default: scene's r)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("witness", help="compute and verify a one-sided witness")
    p.add_argument("scene")
    p.add_argument("--side", choices=("left", "right"), required=True)
    p.add_argument("--r")
    p.add_argument("--epsilon")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("scan", help="gap table d_H(f(r), f(r+h)) over r_range")
    p.add_argument("scene")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--svg")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("scenario", help="run a built-in certified instance")
    p.add_argument("name")
    p.add_argument("--svg")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("oracle", help="grid-oracle bracket of d_H(A, B)")
    p.add_argument("scene")
    p.add_argument("--step", required=True)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"hlab: {exc}\n")
        return 1
    except SceneFormatError as exc:
        sys.stderr.write(f"hlab: {exc}\n")
        return 1
    except DomainError as exc:
        sys.stderr.write(f"hlab: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
