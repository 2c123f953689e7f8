"""Baseline-task tooling on solids: surface sampling and defect injection.

Point clouds are sampled area-uniformly from the triangulated solid and
normalized either to the unit cube (regression task) or the unit sphere
(defect-detection task).  Defects remove one to three envelope faces,
which always breaks watertightness.  The labels and metrics that score
both tasks live in `records`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .brep import BRepSolid, TriMesh, drop_faces
from .errors import EmptyMeshError
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


def sample_points(mesh: TriMesh, n: int, mode: str, rng: SeededRng) -> PointCloud:
    """Area-weighted surface sampling with deterministic draws.

    Point i takes draws 3i, 3i+1 and 3i+2 of one block: the first picks the
    triangle by cumulative-area inversion, the other two give barycentric
    coordinates (folded into the triangle).
    """
    if mode not in (UNIT_CUBE, UNIT_SPHERE):
        raise ValueError(f"unknown normalization mode {mode!r}")
    areas = mesh.areas
    total = float(areas.sum())
    if total <= 0.0:
        raise EmptyMeshError("mesh has zero surface area")
    cum = np.cumsum(areas)
    draws = rng.unit_floats(3 * n).reshape(n, 3)
    tri_idx = np.searchsorted(cum, draws[:, 0] * total, side="right")
    tri_idx = np.minimum(tri_idx, len(areas) - 1)
    r1, r2 = draws[:, 1], draws[:, 2]
    fold = r1 + r2 > 1.0
    r1 = np.where(fold, 1.0 - r1, r1)
    r2 = np.where(fold, 1.0 - r2, r2)
    tri = mesh.vertices[mesh.triangles[tri_idx]]
    pts = tri[:, 0] + r1[:, None] * (tri[:, 1] - tri[:, 0]) + r2[:, None] * (tri[:, 2] - tri[:, 0])

    if mode == UNIT_CUBE:
        lo = pts.min(axis=0)
        extent = float((pts.max(axis=0) - lo).max())
        pts = (pts - lo) / extent
    else:
        pts = pts - pts.mean(axis=0)
        radius = float(np.linalg.norm(pts, axis=1).max())
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
        if attempts > 100 * len(solid.faces):
            raise ValueError("could not find enough exterior faces to remove")
        fi = rng.uniform_index(len(solid.faces))
        if fi in chosen or not is_exterior_face(solid, fi):
            continue
        chosen.add(fi)
    return drop_faces(solid, chosen, label="DEFECT")
