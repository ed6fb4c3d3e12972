"""Per-layer spans, installed from outside hlab.

``Tracer.install`` wraps each function named in ``LAYERS`` in every hlab
module namespace that binds it (modules import with ``from .geometry
import orientation``, so one function object sits under several names) and
wraps ``PolyhedralNorm.gauge`` on the class.  Each call records a span:
function id, parent span, start and end, kept in flat arrays in memory and
written out once when the run ends.  A function's self time is its spans'
duration minus the time covered by wrapped calls nested directly in them.
"""

from __future__ import annotations

import json
import pstats
import sys
from array import array
from time import perf_counter

import hlab.norms

LAYERS = {
    "geometry": ("orientation", "convex_hull_vertices", "contains_point", "clip_segment"),
    "norms": ("PolyhedralNorm.gauge", "euclidean_approx"),
    "convex_ops": ("minkowski_sum", "neighborhood", "intersect", "point_distance",
                   "set_distance", "segment_distance", "hausdorff", "hausdorff_union"),
    "continuity": ("f_eval", "delta_right", "delta_left", "verify_modulus", "modulus_scan",
                   "grid_oracle_hausdorff"),
    "scenarios": ("f_union_eval", "figure1_scenario", "figure2_scenario"),
    "sceneio": ("load_scene",),
    "svg": ("render_scan_svg", "render_scene_svg"),
    "cli": ("main",),
}

NAMES = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def hlab_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hlab" or name.startswith("hlab."))]


class Tracer:
    def __init__(self):
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        self.span_fn = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list = []     # span ids of the active wrapped calls
        self._nested: list = []   # time covered by wrapped calls inside each active one
        self._patches: list = []  # (owner, attribute, original)

    def install(self) -> None:
        modules = hlab_modules()
        for idx, name in enumerate(NAMES):
            layer, fn_name = name.split(".", 1)
            if fn_name == "PolyhedralNorm.gauge":
                owner = hlab.norms.PolyhedralNorm
                original = owner.__dict__["gauge"]
                wrapper = self._wrap(idx, original)
                self._patches.append((owner, "gauge", original))
                setattr(owner, "gauge", wrapper)
                continue
            original = getattr(sys.modules[f"hlab.{layer}"], fn_name)
            wrapper = self._wrap(idx, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def _wrap(self, idx: int, fn):
        calls, self_s = self.calls, self.self_s
        open_spans, nested = self._open, self._nested
        span_fn, span_parent = self.span_fn, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        def traced(*args, **kwargs):
            sid = len(span_fn)
            span_fn.append(idx)
            span_parent.append(open_spans[-1] if open_spans else -1)
            span_end.append(0.0)
            open_spans.append(sid)
            nested.append(0.0)
            t0 = perf_counter()
            span_start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                span_end[sid] = t1
                open_spans.pop()
                dt = t1 - t0
                calls[idx] += 1
                self_s[idx] += dt - nested.pop()
                if nested:
                    nested[-1] += dt

        traced.__wrapped__ = fn
        return traced

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def metrics(self) -> dict:
        out = {}
        for idx, name in enumerate(NAMES):
            out[f"{name}.calls"] = {"value": self.calls[idx], "unit": "count"}
            out[f"{name}.self_s"] = {"value": self.self_s[idx], "unit": "s"}
        return out

    def write(self, stem: str) -> None:
        """Spans as four flat arrays in native byte order (``<stem>.spans``) plus a
        JSON index (``<stem>.json``) giving the layout and the names."""
        arrays = (self.span_fn, self.span_parent, self.span_start, self.span_end)
        with open(stem + ".spans", "wb") as fh:
            for a in arrays:
                a.tofile(fh)
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({"spans": len(self.span_fn), "names": NAMES,
                       "layout": ["fn:int32", "parent:int32", "start_s:float64", "end_s:float64"],
                       "calls": dict(zip(NAMES, self.calls)),
                       "self_s": dict(zip(NAMES, self.self_s))}, fh, indent=1)


def fraction_seconds(profiler) -> float:
    """Total self time inside fractions.py in a cProfile profile."""
    stats = pstats.Stats(profiler)
    return sum(row[2] for (path, _, _), row in stats.stats.items()
               if path.endswith("fractions.py"))
