"""Acceptance gate: one test per criterion, each at its stated tolerance.

Batch criteria run against a shared default-config generation over seeds
0..999 (the `batch_dir` session fixture).  Each test prints one
PASS line when its criterion holds.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from brepforge.assembly import assemble
from brepforge.brep import is_watertight, triangulate
from brepforge.cli import main as cli
from brepforge.config import GeneratorConfig
from brepforge.dataset import solid_from_dict
from brepforge.geom2d import union_rect
from brepforge.grammar import Termination, grow
from brepforge.mltasks import UNIT_CUBE, UNIT_SPHERE, inject_defect, sample_points
from brepforge.records import BinaryMetrics, LabelVector, eval_regression, load_dataset_meta, stats
from brepforge.rng import SeededRng
from brepforge.storey import Opening, WallSegment, prune_windows
from brepforge.geom2d import Point2
from oracles import (
    drawn_footprint,
    euler_characteristic,
    extrude_prism,
    faces_of,
    loop_area2,
    mesh_areas,
    rect_from_metres,
    total_face_area_m2,
)

GEN_SECONDS_BUDGET = 300.0


@pytest.fixture(scope="session")
def timed_batch(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance1000")
    start = time.monotonic()
    rc = cli(["gen", "--count", "1000", "--seed", "0", "--out", str(out)])
    elapsed = time.monotonic() - start
    assert rc == 0
    return out, elapsed


def exported_solids(directory: Path):
    for path in sorted(directory.glob("*.brep.json")):
        yield path, solid_from_dict(json.loads(path.read_text()))


def test_watertightness_batch_and_runtime(timed_batch):
    directory, elapsed = timed_batch
    checked = 0
    for path, solid in exported_solids(directory):
        ok, problems = is_watertight(solid)
        assert ok, f"{path.name}: {problems[:3]}"
        checked += 1
    assert checked > 0
    assert elapsed < GEN_SECONDS_BUDGET, f"generation took {elapsed:.0f}s"
    print(f"ACCEPTANCE PASS: watertightness 100% over {checked} exported solids "
          f"(generated in {elapsed:.0f}s < {GEN_SECONDS_BUDGET:.0f}s)")


def test_no_loop_passes_a_vertex_twice(timed_batch):
    # A loop starts at the first occurrence of its smallest vertex id, which
    # does not depend on where the region tracer began it only when the
    # loop passes no vertex twice: the output bytes rest on that.
    directory, _ = timed_batch
    for path, solid in exported_solids(directory):
        for k, face in enumerate(faces_of(solid)):
            for loop in face.loops():
                assert len(set(loop)) == len(loop), f"{path.name}: face {k} passes a vertex twice"


def test_per_floor_pattern(timed_batch):
    directory, _ = timed_batch
    ds = load_dataset_meta(directory / "meta.json")
    assert ds.records
    for record in ds.records:
        s = record.storey_count
        expected = [max(s - k, 0) for k in range(10)]
        assert record.room_per_floor == expected, record.id
        assert record.room_total == s * (s + 1) // 2, record.id
    print(f"ACCEPTANCE PASS: per-floor pattern (S..1, 0-padded) on all "
          f"{len(ds.records)} exported buildings")


def test_storey_class_truncation():
    config = GeneratorConfig.build()
    rng = SeededRng(7, 7)
    trace = grow(config.grammar(), rng)
    assert trace.terminated_by is Termination.COLLISION
    assert len(trace.snapshots) == 5  # the sixth production exhausts the budget
    building = assemble(trace, config.building(), rng)
    assert building.meta.storey_count == 5
    print("ACCEPTANCE PASS: collision at the 6th rectangle yields a 5-storey building")


def test_distribution_shape(timed_batch):
    directory, _ = timed_batch
    ds = load_dataset_meta(directory / "meta.json")
    report = stats(ds)
    present = {k for k, v in report.storey_hist.items() if v > 0}
    assert present == set(range(2, 11)), f"storey span incomplete: {sorted(present)}"
    mode = max(report.storey_hist, key=report.storey_hist.get)
    assert mode == 10
    share = report.storey_hist[10] / sum(report.storey_hist.values())
    assert 0.20 <= share <= 0.70, f"10-storey share {share:.1%}"
    assert 10.0 <= report.room_area_mode <= 25.0, report.room_area_mode
    print(
        f"ACCEPTANCE PASS: storey span 2-10, mode 10 ({share:.1%} share), "
        f"room-area mode {report.room_area_mode:.1f} m^2 in [10, 25]"
    )


def test_metric_arithmetic_reproduction():
    metrics = BinaryMetrics.from_counts(tp=41, fn=9, fp=37, tn=13)
    assert round(metrics.accuracy, 3) == 0.540
    assert round(metrics.precision, 3) == 0.526
    assert round(metrics.recall, 3) == 0.820
    # F1 is exactly 82/128 = 0.640625, i.e. 0.64 at the published precision.
    assert metrics.f1 == 41 / 64
    assert f"{metrics.f1:.2f}" == "0.64"

    label = LabelVector(storey=6, room_total=21, room_per_floor=[6, 5, 4, 3, 2, 1, 0, 0, 0, 0], avg_area=15.5)
    row = {
        "filename": "b",
        "pred_storey": 6,
        "pred_room_tot": 21,
        "pred_avg_area": 15.5,
    }
    row.update({f"pred_room_per_{i + 1}": label.room_per_floor[i] for i in range(10)})
    reg = eval_regression([row], {"b": label})
    assert (
        reg.storey_accuracy,
        reg.storey_mae,
        reg.roomtot_rmse,
        reg.roomtot_mae,
        reg.avgarea_mae,
        reg.perfloor_mae,
    ) == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    print("ACCEPTANCE PASS: binary metrics 0.540/0.526/0.820/F1=0.64 exact; "
          "regression identity all-zero")


def test_learned_model_results_out_of_scope(timed_batch):
    """No training here by design; the artifact only guarantees the files a
    training run would consume: the label matrix and the metric code."""
    directory, _ = timed_batch
    matrix = np.load(directory / "meta.npy")
    assert matrix.shape[1] == 14  # storey, total, avg area, footprint, 10 per-floor
    from brepforge.records import REGRESSION_HEADER

    assert REGRESSION_HEADER[:4] == ["filename", "pred_storey", "pred_room_tot", "pred_avg_area"]
    assert REGRESSION_HEADER[4:] == [f"pred_room_per_{i}" for i in range(1, 11)]
    print("ACCEPTANCE PASS: learned-model numbers excluded; label matrix and "
          "metric surfaces are in place")


def test_determinism_repeated_gen(tmp_path):
    import hashlib

    trees = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli(["gen", "--count", "50", "--seed", "7", "--out", str(out)]) == 0
        tree = {}
        for path in sorted(out.rglob("*")):
            # The manifest records wall-clock timestamps and is excluded.
            if path.is_file() and path.name != "manifest.json":
                tree[path.relative_to(out).as_posix()] = hashlib.sha256(
                    path.read_bytes()
                ).hexdigest()
        trees.append(tree)
    assert trees[0] == trees[1]
    assert any(name.endswith("meta.npy") for name in trees[0])
    print(f"ACCEPTANCE PASS: repeated gen --count 50 --seed 7 byte-identical "
          f"({len(trees[0])} files incl. meta.npy)")


def test_npy_conformance(timed_batch):
    directory, _ = timed_batch
    raw = (directory / "meta.npy").read_bytes()
    assert raw[:8] == bytes.fromhex("934E554D50590100")
    header_len = int.from_bytes(raw[8:10], "little")
    header = raw[10 : 10 + header_len].decode("latin1")
    assert "'descr': '<f8'" in header and "'fortran_order': False" in header
    matrix = np.load(directory / "meta.npy")
    assert matrix.dtype == np.dtype("<f8")
    assert matrix.shape[1] == 14
    assert matrix.flags["C_CONTIGUOUS"]
    payload = raw[10 + header_len :]
    assert np.array_equal(np.frombuffer(payload, dtype="<f8").reshape(matrix.shape), matrix)
    ds = load_dataset_meta(directory / "meta.json")
    assert matrix.shape[0] == len(ds.records)
    print(f"ACCEPTANCE PASS: meta.npy v1.0 header and bit-exact round-trip "
          f"({matrix.shape[0]} x 14)")


def test_defect_oracle_and_point_normalization(timed_batch):
    directory, _ = timed_batch
    solids = []
    for _, solid in exported_solids(directory):
        solids.append(solid)
        if len(solids) == 100:
            break
    assert len(solids) == 100
    for i, solid in enumerate(solids):
        assert is_watertight(solid)[0]
        defect = inject_defect(solid, SeededRng(1000 + i, 1000 + i))
        assert not is_watertight(defect)[0], f"defect {i} still watertight"

    for i, solid in enumerate(solids[:10]):
        cube = sample_points(solid, 4000, UNIT_CUBE, SeededRng(2000 + i, 2000 + i))
        assert len(cube.points) == 4000
        assert cube.points.min() >= 0.0 and cube.points.max() <= 1.0
        sphere = sample_points(solid, 4000, UNIT_SPHERE, SeededRng(3000 + i, 3000 + i))
        assert len(sphere.points) == 4000
        radii = np.linalg.norm(sphere.points, axis=1)
        assert abs(radii.max() - 1.0) <= 1e-9
    print("ACCEPTANCE PASS: 100 defects all open, 100 GOOD all watertight, "
          "4000-point clouds normalized to cube/sphere")


def test_geometry_oracles():
    # Union area additivity at 1e-9 m².
    square = drawn_footprint([(0, 0), (4, 0), (4, 4), (0, 4)])
    rect = rect_from_metres(4, 1, 7, 3)
    union = union_rect(square, rect)
    assert abs((loop_area2(union.vertices) - loop_area2(square.vertices)) / 200.0 - rect.area_m2) <= 1e-9

    # Triangulation area conservation at 1e-6 relative.
    outer = drawn_footprint([(0, 0), (6, 0), (6, 6), (0, 6)])
    hole = drawn_footprint([(2, 2), (4, 2), (4, 4), (2, 4)])
    prism = extrude_prism(outer, 0, 30, holes=[hole])
    mesh = triangulate(prism)
    face_area = total_face_area_m2(prism)
    assert abs(float(mesh_areas(mesh).sum()) - face_area) <= 1e-6 * face_area

    # Euler characteristic: cube chi=2, holed prism chi=0 (genus 1).
    cube = extrude_prism(drawn_footprint([(0, 0), (1, 0), (1, 1), (0, 1)]), 0, 10)
    assert euler_characteristic(triangulate(cube)) == 2
    assert euler_characteristic(mesh) == 0

    # Window pruning rules a, b, c on hand-trace fixtures.
    def windows_with(widths_orientations):
        return [
            Opening(
                WallSegment(Point2(0, 10 * i), Point2(40, 10 * i), "exterior", o, (1,)),
                "window", 1, w, 9, 14,
            )
            for i, (o, w) in enumerate(widths_orientations)
        ]

    kept_a = prune_windows(windows_with([("S", 32), ("N", 10), ("W", 8)]))
    assert [o.width for o in kept_a] == [32]
    kept_b = prune_windows(windows_with([("S", 24), ("N", 18), ("W", 12)]))
    assert sorted(o.width for o in kept_b) == [12, 24]
    kept_c = prune_windows(windows_with([("W", 9), ("N", 8), ("S", 7)]))
    assert {o.wall.orientation for o in kept_c} == {"N", "S"}
    print("ACCEPTANCE PASS: union additivity 1e-9, triangulation 1e-6, "
          "Euler chi fixtures, pruning rules a/b/c")
