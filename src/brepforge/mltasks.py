"""Baseline-task tooling on solids: surface sampling and defect injection.

Point clouds are sampled area-uniformly from the solid's face cells, two
triangles per cell, with no mesh built, and normalized either to the unit
cube (regression task) or the unit sphere (defect-detection task).
Defects remove one to three envelope faces, which always breaks
watertightness.  The labels and metrics that score both tasks live in
`records`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .brep import BRepSolid, _frames, drop_faces
from .errors import BrepForgeError
from .rng import SeededRng

UNIT_CUBE = "cube"
UNIT_SPHERE = "sphere"


@dataclass
class PointCloud:
    points: np.ndarray  # (n, 3) float64

    def to_xyz(self) -> str:
        """One line of three shortest round-trip floats per point, from one
        ``%``-format over the flat coordinates."""
        return "\n".join(["%r %r %r"] * len(self.points)) % tuple(self.points.ravel().tolist()) + "\n"

    def to_f32(self) -> bytes:
        return np.ascontiguousarray(self.points, dtype="<f4").tobytes()


def _cell_areas(solid: BRepSolid) -> np.ndarray:
    """Per face cell of the solid (`fill_faces`), the area in m² of each of
    the two triangles it stands for: half the cell's.

    A cell's triangles (c0, c1, c2) and (c0, c2, c3) have edges from c0
    along the face's u and v axes only, so two of the three cross-product
    terms are exact zeros and, in binary64, the length of the third is
    its absolute value: these are the bits of the cross-product formula
    on the triangles' corner floats (grid value / 10.0).
    """
    cells = solid.face_cells
    metres = cells.grid / 10.0
    du = metres[cells.u + 1] - metres[cells.u]
    dv = metres[cells.v + 1] - metres[cells.v]
    return 0.5 * np.abs(du * dv)


def sample_points(solid: BRepSolid, n: int, mode: str, rng: SeededRng) -> PointCloud:
    """Area-weighted surface sampling with deterministic draws.

    The surface is the solid's face cells, each split into the triangles
    (c0, c1, c2) and (c0, c2, c3) over its corners (u0, v0), (u1, v0),
    (u1, v1), (u0, v1), in cell order.  Point i takes draws 3i, 3i+1 and
    3i+2 of one block: the first picks the triangle by cumulative-area
    inversion, the other two give barycentric coordinates (folded into
    the triangle).  Points that all coincide (say n = 1) have no extent
    to normalize by and raise BrepForgeError.
    """
    if mode not in (UNIT_CUBE, UNIT_SPHERE):
        raise ValueError(f"unknown normalization mode {mode!r}")
    areas = np.repeat(_cell_areas(solid), 2)
    total = float(areas.sum())
    if total <= 0.0:
        raise BrepForgeError("mesh has zero surface area")
    cum = np.cumsum(areas)
    draws = rng.unit_floats(3 * n).reshape(n, 3)
    tri_idx = np.searchsorted(cum, draws[:, 0] * total, side="right")
    tri_idx = np.minimum(tri_idx, len(areas) - 1)
    r1, r2 = draws[:, 1], draws[:, 2]
    fold = r1 + r2 > 1.0
    r1 = np.where(fold, 1.0 - r1, r1)
    r2 = np.where(fold, 1.0 - r2, r2)

    # The picked triangles' corners: c0, then c1 and c2 of an even
    # triangle or c2 and c3 of an odd one, on the face's plane.
    cells = solid.face_cells
    cell, odd = tri_idx >> 1, (tri_idx & 1).astype(bool)
    face = cells.face[cell]
    axis = solid.axis[face]
    ua, va = _frames(axis, solid.sign[face])
    metres = cells.grid / 10.0
    u0, u1 = metres[cells.u[cell]], metres[cells.u[cell] + 1]
    v0, v1 = metres[cells.v[cell]], metres[cells.v[cell] + 1]
    k = np.arange(n)
    tri = np.empty((n, 3, 3), dtype=np.float64)
    tri[k, :, axis] = (solid.offset[face] / 10.0)[:, None]
    tri[k, :, ua] = np.stack([u0, u1, np.where(odd, u0, u1)], axis=1)
    tri[k, :, va] = np.stack([v0, np.where(odd, v1, v0), v1], axis=1)
    pts = tri[:, 0] + r1[:, None] * (tri[:, 1] - tri[:, 0]) + r2[:, None] * (tri[:, 2] - tri[:, 0])

    if mode == UNIT_CUBE:
        lo = pts.min(axis=0)
        extent = float((pts.max(axis=0) - lo).max())
        if extent == 0.0:
            raise BrepForgeError("sampled points have zero extent")
        pts = (pts - lo) / extent
    else:
        pts = pts - pts.mean(axis=0)
        radius = float(np.linalg.norm(pts, axis=1).max())
        if radius == 0.0:
            raise BrepForgeError("sampled points have zero radius")
        pts = pts / radius
    return PointCloud(pts)


def is_exterior_face(solid: BRepSolid, face_index: int) -> bool:
    """True when nothing blocks the face along its outward normal (an
    envelope face): its entry in `BRepSolid.envelope`."""
    return bool(solid.envelope[face_index])


def inject_defect(solid: BRepSolid, rng: SeededRng) -> BRepSolid:
    """Remove 1-3 randomly chosen envelope faces; relabels the solid DEFECT."""
    if solid.label != "GOOD":
        raise ValueError("solid is already DEFECT")
    k = rng.uniform_int(1, 3)
    chosen: set[int] = set()
    attempts = 0
    while len(chosen) < k:
        attempts += 1
        if attempts > 100 * len(solid.axis):
            raise ValueError("could not find enough exterior faces to remove")
        fi = rng.uniform_index(len(solid.axis))
        if fi in chosen or not is_exterior_face(solid, fi):
            continue
        chosen.add(fi)
    return drop_faces(solid, chosen, label="DEFECT")
