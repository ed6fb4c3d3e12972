"""Scene JSON loading and canonical saving.

All numbers are exact rational strings ("p/q" or "p"); decimal floats are
rejected.  Polygons are validated for strict convexity and canonicalized
(CCW, lexicographically smallest vertex first) on load, so load -> save is a
fixed point after one round trip.
"""

from __future__ import annotations

import json
import re
from typing import Any

from ._scalar import Rat, format_rat, rat
from .geometry import ConvexPolygon, Point
from .norms import PolyhedralNorm, euclidean_approx, l1_norm, linf_norm
from .scenarios import Scene


class SceneFormatError(ValueError):
    """Malformed scene file: bad JSON, non-rational numerals, bad polygons."""


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")

# largest euclidean_approx k a scene may ask for: the unit ball is a 2k-gon
MAX_K = 1024


def parse_rational(text: Any, key: str) -> Rat:
    if isinstance(text, int) and not isinstance(text, bool):
        return rat(text)
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise SceneFormatError(f"{key}: expected a rational string 'p/q', got {text!r}")
    return rat(text)


def _parse_point(obj: Any, key: str) -> Point:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise SceneFormatError(f"{key}: expected [x, y]")
    return Point(parse_rational(obj[0], key), parse_rational(obj[1], key))


def parse_polygon(obj: Any, key: str) -> ConvexPolygon:
    if not isinstance(obj, list) or not obj:
        raise SceneFormatError(f"{key}: expected a non-empty vertex list")
    points = [_parse_point(v, key) for v in obj]
    hull = ConvexPolygon.hull(points)
    if hull.n != len(set(points)):
        raise SceneFormatError(f"{key}: vertex list is not strictly convex")
    return hull


def _parse_norm(obj: Any) -> tuple:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SceneFormatError("norm: expected an object with a 'kind'")
    kind = obj["kind"]
    if kind == "linf":
        return linf_norm(), {"kind": "linf"}
    if kind == "l1":
        return l1_norm(), {"kind": "l1"}
    if kind == "ball":
        ball = parse_polygon(obj.get("ball"), "norm.ball")
        try:
            norm = PolyhedralNorm(ball)
        except ValueError as exc:
            raise SceneFormatError(f"norm.ball: {exc}") from exc
        return norm, {"kind": "ball", "ball": polygon_to_json(ball)}
    if kind == "euclidean_approx":
        k = obj.get("k")
        if not isinstance(k, int) or isinstance(k, bool):
            raise SceneFormatError("norm.k: expected an integer")
        if k > MAX_K:
            raise SceneFormatError(f"norm.k: k must be <= {MAX_K}")
        try:
            sandwich = euclidean_approx(k)
        except ValueError as exc:
            raise SceneFormatError(f"norm.k: {exc}") from exc
        # computations run on the inner (inscribed) norm of the sandwich
        return sandwich.inner, {"kind": "euclidean_approx", "k": k}
    raise SceneFormatError(f"norm.kind: unknown kind {kind!r}")


def polygon_to_json(P: ConvexPolygon) -> list:
    return [[format_rat(v.x), format_rat(v.y)] for v in P.vertices]


def load_scene(path: str) -> Scene:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SceneFormatError(f"cannot read scene: {exc}") from exc
    if not isinstance(doc, dict):
        raise SceneFormatError("scene: expected a JSON object")
    norm, norm_spec = _parse_norm(doc.get("norm"))
    A = parse_polygon(doc.get("A"), "A")
    raw_B = doc.get("B")
    if not isinstance(raw_B, list) or not raw_B:
        raise SceneFormatError("B: expected a non-empty list of parts")
    parts = tuple(parse_polygon(p, f"B[{i}]") for i, p in enumerate(raw_B))
    r = parse_rational(doc["r"], "r") if "r" in doc else None
    epsilon = parse_rational(doc["epsilon"], "epsilon") if "epsilon" in doc else None
    r_range = None
    if "r_range" in doc:
        rr = doc["r_range"]
        if not isinstance(rr, list) or len(rr) != 2:
            raise SceneFormatError("r_range: expected [lo, hi]")
        lo = parse_rational(rr[0], "r_range")
        hi = parse_rational(rr[1], "r_range")
        if hi < lo:
            raise SceneFormatError("r_range: lo must not exceed hi")
        if hi == lo:
            raise SceneFormatError("r_range: empty radius range")
        r_range = (lo, hi)
    label = doc.get("label", "")
    if not isinstance(label, str):
        raise SceneFormatError("label: expected a string")
    return Scene(norm=norm, norm_spec=norm_spec, A=A, b_parts=parts,
                 r_range=r_range, r=r, epsilon=epsilon, label=label)


def scene_to_json(scene: Scene) -> dict:
    doc: dict = {"norm": scene.norm_spec, "A": polygon_to_json(scene.A),
                 "B": [polygon_to_json(p) for p in scene.b_parts]}
    if scene.r is not None:
        doc["r"] = format_rat(scene.r)
    if scene.r_range is not None:
        doc["r_range"] = [format_rat(scene.r_range[0]), format_rat(scene.r_range[1])]
    if scene.epsilon is not None:
        doc["epsilon"] = format_rat(scene.epsilon)
    if scene.label:
        doc["label"] = scene.label
    return doc


def save_scene(scene: Scene, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(scene_to_json(scene), indent=2) + "\n")
