"""Baseline-task tooling: surface sampling, defect injection, labels, metrics.

Point clouds are sampled area-uniformly from the triangulated solid and
normalized either to the unit cube (regression task) or the unit sphere
(defect-detection task).  Defects remove one to three envelope faces,
which always breaks watertightness.  The evaluation functions implement
the error arithmetic used for both benchmark tables, with ground truth
per-floor counts reconstructed from the storey count's fixed pattern
(s, s-1, ..., 1, 0, ...).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from math import isfinite, sqrt
from pathlib import Path

import numpy as np

from .brep import BRepSolid, TriMesh, drop_faces
from .dataset import BuildingMeta, tiered_room_counts
from .errors import EmptyMeshError
from .rng import SeededRng

UNIT_CUBE = "cube"
UNIT_SPHERE = "sphere"
DEFECT_SUFFIX = "_def"


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


@dataclass
class LabelVector:
    storey: int
    room_total: int
    room_per_floor: list[int]
    avg_area: float


def oracle_labels(meta: BuildingMeta) -> LabelVector:
    """Ground-truth labels from metadata via the deterministic floor pattern."""
    room_total, room_per_floor = tiered_room_counts(meta.storey_count)
    return LabelVector(
        storey=meta.storey_count,
        room_total=room_total,
        room_per_floor=room_per_floor,
        avg_area=meta.avg_room_area,
    )


REGRESSION_HEADER = (
    ["filename", "pred_storey", "pred_room_tot", "pred_avg_area"]
    + [f"pred_room_per_{i}" for i in range(1, 11)]
)


@dataclass
class RegressionMetrics:
    storey_accuracy: float
    storey_mae: float
    roomtot_rmse: float
    roomtot_mae: float
    avgarea_mae: float
    perfloor_mae: float

    def text(self) -> str:
        return "\n".join(
            [
                f"storey accuracy:        {self.storey_accuracy:.3f}",
                f"storey MAE (floors):    {self.storey_mae:.3f}",
                f"room-total RMSE:        {self.roomtot_rmse:.3f}",
                f"room-total MAE:         {self.roomtot_mae:.3f}",
                f"avg-area MAE (m^2):     {self.avgarea_mae:.3f}",
                f"per-floor MAE (rooms):  {self.perfloor_mae:.3f}",
            ]
        )


def eval_regression(
    predictions: list[dict], truths: dict[str, LabelVector]
) -> RegressionMetrics:
    """Error arithmetic for the multi-attribute regression task.

    Prediction rows use the spreadsheet columns (pred_storey, pred_room_tot,
    pred_avg_area, pred_room_per_1..10); truths are keyed by building id
    (the filename with any extension stripped).
    """
    missing = [p["filename"] for p in predictions if _base_id(p["filename"]) not in truths]
    if missing:
        raise KeyError(f"predictions without matching truth ids: {missing[:10]}")
    if not predictions:
        raise ValueError("no prediction rows")
    storey_err, storey_hit, rt_err, aa_err, pf_err = [], [], [], [], []
    for p in predictions:
        truth = truths[_base_id(p["filename"])]
        ps = _finite_cell(p, "pred_storey")
        storey_err.append(abs(ps - truth.storey))
        storey_hit.append(float(round(ps) == truth.storey))
        rt_err.append(_finite_cell(p, "pred_room_tot") - truth.room_total)
        aa_err.append(_finite_cell(p, "pred_avg_area") - truth.avg_area)
        per = [_finite_cell(p, f"pred_room_per_{i}") for i in range(1, 11)]
        pf_err.append(
            sum(abs(a - b) for a, b in zip(per, truth.room_per_floor)) / 10.0
        )
    n = len(predictions)
    return RegressionMetrics(
        storey_accuracy=sum(storey_hit) / n,
        storey_mae=sum(storey_err) / n,
        roomtot_rmse=sqrt(sum(e * e for e in rt_err) / n),
        roomtot_mae=sum(abs(e) for e in rt_err) / n,
        avgarea_mae=sum(abs(e) for e in aa_err) / n,
        perfloor_mae=sum(pf_err) / n,
    )


@dataclass
class BinaryMetrics:
    tp: int
    fn: int
    fp: int
    tn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    degenerate: list[str] = field(default_factory=list)

    @classmethod
    def from_counts(cls, tp: int, fn: int, fp: int, tn: int) -> "BinaryMetrics":
        total = tp + fn + fp + tn
        if not total:
            raise ValueError("empty confusion matrix")
        degenerate = []
        if tp + fp:
            precision = tp / (tp + fp)
        else:
            precision = 0.0
            degenerate.append("precision")
        if tp + fn:
            recall = tp / (tp + fn)
        else:
            recall = 0.0
            degenerate.append("recall")
        if precision + recall:
            f1 = 2 * precision * recall / (precision + recall)
        else:
            f1 = 0.0
            degenerate.append("f1")
        return cls(tp, fn, fp, tn, (tp + tn) / total, precision, recall, f1, degenerate)

    def text(self) -> str:
        flag = f"  (degenerate: {', '.join(self.degenerate)})" if self.degenerate else ""
        return "\n".join(
            [
                f"confusion: tp={self.tp} fn={self.fn} fp={self.fp} tn={self.tn}",
                f"accuracy:  {self.accuracy:.3f}",
                f"precision: {self.precision:.3f}",
                f"recall:    {self.recall:.3f}",
                f"f1:        {self.f1:.3f}{flag}",
            ]
        )


def eval_binary(rows: list[tuple[str, str]]) -> BinaryMetrics:
    """Confusion matrix for GOOD/DEFECT predictions; truth from the filename."""
    tp = fn = fp = tn = 0
    for filename, prediction in rows:
        if prediction not in ("GOOD", "DEFECT"):
            raise ValueError(f"unknown label {prediction!r} for {filename}")
        truth_defect = DEFECT_SUFFIX in filename
        pred_defect = prediction == "DEFECT"
        if truth_defect and pred_defect:
            tp += 1
        elif truth_defect:
            fn += 1
        elif pred_defect:
            fp += 1
        else:
            tn += 1
    return BinaryMetrics.from_counts(tp, fn, fp, tn)


def _finite_cell(row: dict, column: str) -> float:
    value = float(row[column])
    if not isfinite(value):
        raise ValueError(f"{row['filename']}: {column} {row[column]!r} is not a finite number")
    return value


def _base_id(filename: str) -> str:
    return Path(filename).name.split(".")[0]


def read_regression_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    needed = set(REGRESSION_HEADER)
    if rows and not needed.issubset(rows[0]):
        raise ValueError(f"missing columns: {sorted(needed - set(rows[0]))}")
    return rows


def read_binary_csv(path: Path) -> list[tuple[str, str]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if not {"filename", "prediction"}.issubset(reader.fieldnames or ()):
            raise ValueError("binary predictions need filename,prediction columns")
        return [(row["filename"], row["prediction"]) for row in reader]


def truths_from_metas(metas: list[BuildingMeta]) -> dict[str, LabelVector]:
    return {m.id: oracle_labels(m) for m in metas}
