"""Built-in certified instances of the two boundary phenomena.

figure1: a slanted exit makes f non-Lipschitz -- growing the radius by h
moves the intersection along a slope-1/8 edge, so the Hausdorff gap is 8h.

figure2: a non-convex B (a rectangle plus a far point) makes f jump -- at
the threshold radius a new connected component appears at distance 4, no
matter how small the radius step.  A convexified control shows the jump
disappears once B is convex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ._scalar import Rat, rat
from .geometry import ConvexPolygon, pt
from .norms import PolyhedralNorm, linf_norm
from .convex_ops import hausdorff_union, intersect, neighborhood, point_distance
from .continuity import DomainError, ScanRow, modulus_table


@dataclass(frozen=True)
class Scene:
    norm: PolyhedralNorm
    norm_spec: dict  # serializable description, e.g. {"kind": "linf"}
    A: ConvexPolygon
    b_parts: tuple
    r_range: Optional[tuple] = None
    r: Optional[Rat] = None
    epsilon: Optional[Rat] = None
    label: str = ""

    @property
    def B(self) -> ConvexPolygon:
        if len(self.b_parts) != 1:
            raise ValueError("scene has a union-valued B")
        return self.b_parts[0]


@dataclass(frozen=True)
class JumpReport:
    rho: Rat
    deltas: tuple
    gaps: tuple
    jump_lower_bound: Rat


def f_union_eval(A: ConvexPolygon, B_parts: Sequence[ConvexPolygon], r: Rat,
                 n: PolyhedralNorm) -> list[ConvexPolygon]:
    """f extended componentwise to a finite union; empty components dropped."""
    shell = neighborhood(A, r, n)
    components = []
    for part in B_parts:
        piece = intersect(shell, part)
        if piece is not None:
            components.append(piece)
    if not components:
        raise DomainError("radius below union distance")
    return components


def figure1_scene() -> Scene:
    return Scene(
        norm=linf_norm(),
        norm_spec={"kind": "linf"},
        A=ConvexPolygon.hull([pt(0, 0), pt(8, 0)]),
        b_parts=(ConvexPolygon.hull([pt(0, 1), pt(8, 2), pt(0, 3)]),),
        r_range=(rat(5, 4), rat(7, 4)),
        r=rat(3, 2),
        epsilon=rat(1, 4),
        label="slanted-exit instance: f is continuous but not 1-Lipschitz",
    )


def figure1_scenario() -> tuple[Scene, list[ScanRow], Rat]:
    scene = figure1_scene()
    h = rat(1, 32)
    radii = [rat(5, 4), rat(3, 2), rat(7, 4)]
    rows = modulus_table(scene.A, scene.B, scene.norm, radii, h)
    max_ratio = max(row.ratio for row in rows)
    return scene, rows, max_ratio


def figure2_scene() -> Scene:
    near = ConvexPolygon.hull([pt(-2, 0), pt(-1, 0), pt(-1, 1), pt(-2, 1)])
    far = ConvexPolygon.hull([pt(3, rat(1, 2))])
    return Scene(
        norm=linf_norm(),
        norm_spec={"kind": "linf"},
        A=ConvexPolygon.hull([pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)]),
        b_parts=(near, far),
        r=rat(2),
        label="non-convex B: a new component appears at r = 2",
    )


FIGURE2_DELTAS = (rat(1, 2), rat(1, 4), rat(1, 8), rat(1, 16), rat(1, 32))


def _gaps_below(scene: Scene) -> tuple:
    """d_H(f(r - delta), f(r)) at the scene's r for each delta in FIGURE2_DELTAS."""
    n = scene.norm
    at_rho = f_union_eval(scene.A, scene.b_parts, scene.r, n)
    return tuple(
        hausdorff_union(f_union_eval(scene.A, scene.b_parts, scene.r - d, n), at_rho, n)
        for d in FIGURE2_DELTAS
    )


def figure2_scenario() -> tuple[Scene, JumpReport]:
    scene = figure2_scene()
    far_point = scene.b_parts[1].vertices[0]
    bound = point_distance(far_point, scene.b_parts[0], scene.norm).distance
    return scene, JumpReport(scene.r, FIGURE2_DELTAS, _gaps_below(scene), bound)


def figure2_convex_control() -> tuple[Scene, tuple]:
    """Same instance with B replaced by its convex hull: gaps shrink with delta."""
    base = figure2_scene()
    hull = ConvexPolygon.hull(
        [v for part in base.b_parts for v in part.vertices]
    )
    scene = Scene(
        norm=base.norm,
        norm_spec=base.norm_spec,
        A=base.A,
        b_parts=(hull,),
        r=base.r,
        label="convexified control for the jump instance",
    )
    return scene, _gaps_below(scene)
