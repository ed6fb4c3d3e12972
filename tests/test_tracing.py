"""The benchmark's tracer wraps hlab functions by name; every name must stay bound."""

import importlib.util
import os

import hlab.cli  # noqa: F401  (loads every hlab module the tracer patches)
import hlab.continuity as continuity
import hlab.norms as norms
from hlab._scalar import rat
from hlab.geometry import ConvexPolygon, pt

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("hlab_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_every_traced_name():
    tracing = load_tracing()
    originals = {name: getattr(continuity, name) for name in tracing.LAYERS["continuity"]}
    gauge = norms.PolyhedralNorm.__dict__["gauge"]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for name in tracing.LAYERS["continuity"]:
            assert getattr(continuity, name).__wrapped__ is originals[name]
        A = ConvexPolygon.hull([pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)])
        B = A.translate(pt(2, 0))
        continuity.f_eval(A, B, rat(3, 2), norms.linf_norm())
    finally:
        tracer.uninstall()
    calls = dict(zip(tracing.NAMES, tracer.calls))
    assert calls["continuity.f_eval"] == 1
    assert calls["convex_ops.intersect"] == 1
    assert all(getattr(continuity, name) is fn for name, fn in originals.items())
    assert norms.PolyhedralNorm.__dict__["gauge"] is gauge
