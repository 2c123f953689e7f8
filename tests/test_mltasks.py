"""Sampling, defect, label, and metric tests.

Sampling shares are checked against binomial confidence bounds; the
confusion-matrix numbers replicate the published quality-control
benchmark exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings

from brepforge.assembly import assemble
from brepforge.brep import Box, is_watertight, solid_from_boxes, triangulate, TriMesh
from brepforge.dataset import BuildingMeta, check_solid
from brepforge.errors import BrepForgeError, EmptyMeshError
from brepforge.config import GeneratorConfig
from brepforge.grammar import grow
from brepforge.mltasks import (
    UNIT_CUBE,
    UNIT_SPHERE,
    BinaryMetrics,
    LabelVector,
    eval_binary,
    eval_regression,
    inject_defect,
    is_exterior_face,
    oracle_labels,
    sample_points,
)
from brepforge.rng import SeededRng
from oracles import drawn_footprint, extrude_prism, parity_is_exterior_face
from test_brep import box_solids

CUBE = extrude_prism(drawn_footprint([(0, 0), (1, 0), (1, 1), (0, 1)]), 0, 10)


def built(seed):
    rng = SeededRng(seed, seed)
    cfg = GeneratorConfig.build()
    return assemble(grow(cfg.grammar(), rng), cfg.building(), rng)


def test_sample_count_and_cube_bounds():
    cloud = sample_points(triangulate(CUBE), 4000, UNIT_CUBE, SeededRng(1, 1))
    assert len(cloud.points) == 4000
    assert cloud.points.min() >= 0.0 and cloud.points.max() <= 1.0
    assert np.allclose(cloud.points.min(axis=0), 0.0)
    assert math.isclose(cloud.points.max(), 1.0)


def test_sample_cube_face_shares_binomial():
    mesh = triangulate(CUBE)
    cloud = sample_points(mesh, 4000, UNIT_CUBE, SeededRng(2, 2))
    pts = cloud.points
    n = len(pts)
    p = 1 / 6
    sigma = math.sqrt(n * p * (1 - p))
    for axis in range(3):
        for value in (0.0, 1.0):
            share = int((np.abs(pts[:, axis] - value) < 1e-9).sum())
            assert abs(share - n * p) <= 3 * sigma, (axis, value, share)


def test_sample_two_triangle_weighting():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 0, 1], [4, 0, 1], [2, 2, 1]], dtype=float)
    tris = np.array([[0, 1, 2], [3, 4, 5]])  # areas 0.5 and 2.0
    mesh = TriMesh(verts, tris)
    cloud = sample_points(mesh, 4000, UNIT_SPHERE, SeededRng(3, 3))
    upper = int((np.abs(cloud.points[:, 2] - cloud.points[:, 2].max()) < 1e-9).sum())
    n, p = 4000, 0.8
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(upper - n * p) <= 3 * sigma


def test_sample_sphere_max_radius_one():
    cloud = sample_points(triangulate(CUBE), 4000, UNIT_SPHERE, SeededRng(4, 4))
    radii = np.linalg.norm(cloud.points, axis=1)
    assert abs(radii.max() - 1.0) <= 1e-9


def test_sample_deterministic():
    mesh = triangulate(CUBE)
    a = sample_points(mesh, 1000, UNIT_CUBE, SeededRng(5, 5))
    b = sample_points(mesh, 1000, UNIT_CUBE, SeededRng(5, 5))
    assert np.array_equal(a.points, b.points)


def test_sample_empty_mesh_rejected():
    degenerate = TriMesh(np.zeros((3, 3)), np.array([[0, 1, 2]]))
    with pytest.raises(EmptyMeshError):
        sample_points(degenerate, 10, UNIT_CUBE, SeededRng(1, 1))


def test_exterior_face_classification_on_wall():
    # A plain box: every face is an envelope face.
    assert all(is_exterior_face(CUBE, i) for i in range(len(CUBE.faces)))
    # Carve an opening: tunnel faces see the opposite tunnel wall.
    cut = solid_from_boxes([Box(0, 0, 0, 2, 40, 30)], [Box(0, 10, 5, 2, 19, 26)])
    tunnel = [
        i
        for i, f in enumerate(cut.faces)
        if f.axis != 0 and 10 <= f.offset <= 19 or (f.axis == 2 and 5 <= f.offset <= 26)
    ]
    interior = [i for i in range(len(cut.faces)) if not is_exterior_face(cut, i)]
    assert set(interior) == set(tunnel)


def parity_envelope(solid) -> list[bool]:
    return [parity_is_exterior_face(solid, i) for i in range(len(solid.faces))]


@settings(max_examples=200, deadline=None)
@given(box_solids())
def test_envelope_matches_parity_test_on_box_solids(solid):
    assume(check_solid(solid)[0])
    assert solid.envelope.tolist() == parity_envelope(solid)


def test_envelope_matches_parity_test_on_buildings():
    checked = 0
    for seed in range(24):
        try:
            solid = built(seed).solid
        except BrepForgeError:
            continue
        assert check_solid(solid)[0]
        want = parity_envelope(solid)
        assert solid.envelope.tolist() == want
        assert [is_exterior_face(solid, i) for i in range(len(solid.faces))] == want
        checked += 1
    assert checked >= 12


def test_inject_defect_breaks_watertightness():
    b = built(0)
    defect = inject_defect(b.solid, SeededRng(11, 11))
    assert defect.label == "DEFECT"
    assert not is_watertight(defect)[0]
    assert 1 <= len(b.solid.faces) - len(defect.faces) <= 3


def test_inject_defect_refuses_defect_input():
    b = built(0)
    defect = inject_defect(b.solid, SeededRng(11, 11))
    with pytest.raises(ValueError):
        inject_defect(defect, SeededRng(12, 12))


def test_defect_boundary_edge_count_on_cube():
    from brepforge.brep import drop_faces

    open_box = drop_faces(CUBE, [0], label="DEFECT")
    ok, problems = is_watertight(open_box)
    assert not ok
    assert len(problems) == 4  # one removed face leaves its 4 rim edges


def test_defect_adjacent_faces_share_cancelled_edge():
    # Removing two adjacent faces: 4 + 4 perimeter edges minus the shared
    # edge, which disappears entirely and is no longer reported.
    from brepforge.brep import drop_faces

    shared = None
    for i in range(len(CUBE.faces)):
        for j in range(i + 1, len(CUBE.faces)):
            edges_i = set()
            for loop in CUBE.faces[i].loops():
                n = len(loop)
                edges_i |= {frozenset((loop[k], loop[(k + 1) % n])) for k in range(n)}
            edges_j = set()
            for loop in CUBE.faces[j].loops():
                n = len(loop)
                edges_j |= {frozenset((loop[k], loop[(k + 1) % n])) for k in range(n)}
            if edges_i & edges_j:
                shared = (i, j)
                break
        if shared:
            break
    open_box = drop_faces(CUBE, shared, label="DEFECT")
    ok, problems = is_watertight(open_box)
    assert not ok
    assert len(problems) == 4 + 4 - 2


def meta_for(storeys):
    return BuildingMeta(
        id=f"b{storeys}",
        seed=0,
        storey_count=storeys,
        room_total=storeys * (storeys + 1) // 2,
        room_per_floor=[max(storeys - k, 0) for k in range(10)],
        rooms=[],
        openings=[],
        avg_room_area=14.5,
        footprint_area=120.0,
    )


def test_oracle_labels_patterns():
    three = oracle_labels(meta_for(3))
    assert three.room_per_floor == [3, 2, 1, 0, 0, 0, 0, 0, 0, 0]
    assert three.room_total == 6
    assert oracle_labels(meta_for(10)).room_total == 55
    two = oracle_labels(meta_for(2))
    assert two.room_per_floor == [2, 1, 0, 0, 0, 0, 0, 0, 0, 0]
    assert two.room_total == 3


def prediction_row(label: LabelVector, filename: str, **overrides):
    row = {
        "filename": filename,
        "pred_storey": label.storey,
        "pred_room_tot": label.room_total,
        "pred_avg_area": label.avg_area,
    }
    for i in range(10):
        row[f"pred_room_per_{i + 1}"] = label.room_per_floor[i]
    row.update(overrides)
    return row


def test_eval_regression_identity_zero():
    label = oracle_labels(meta_for(5))
    metrics = eval_regression(
        [prediction_row(label, "b5.brep.json")], {"b5": label}
    )
    assert metrics.storey_accuracy == 1.0
    assert metrics.storey_mae == 0.0
    assert metrics.roomtot_rmse == 0.0
    assert metrics.roomtot_mae == 0.0
    assert metrics.avgarea_mae == 0.0
    assert metrics.perfloor_mae == 0.0


def test_eval_regression_single_storey_miss():
    label = oracle_labels(meta_for(5))
    metrics = eval_regression(
        [prediction_row(label, "b5", pred_storey=4)], {"b5": label}
    )
    assert metrics.storey_mae == 1.0
    assert metrics.storey_accuracy == 0.0


def test_eval_regression_zero_perfloor_prediction():
    label = oracle_labels(meta_for(4))
    zeros = {f"pred_room_per_{i + 1}": 0 for i in range(10)}
    metrics = eval_regression(
        [prediction_row(label, "b4", **zeros)], {"b4": label}
    )
    assert metrics.perfloor_mae == (4 + 3 + 2 + 1) / 10


def test_eval_regression_missing_id():
    label = oracle_labels(meta_for(4))
    with pytest.raises(KeyError):
        eval_regression([prediction_row(label, "unknown")], {"b4": label})


def test_eval_binary_published_confusion_matrix():
    metrics = BinaryMetrics.from_counts(tp=41, fn=9, fp=37, tn=13)
    assert metrics.accuracy == 0.54
    assert round(metrics.precision, 3) == 0.526
    assert round(metrics.recall, 3) == 0.820
    assert metrics.f1 == 41 / 64  # exactly 0.640625
    assert f"{metrics.f1:.2f}" == "0.64"


def test_eval_binary_from_rows_matches_counts():
    rows = (
        [(f"a{i}_def.brep.json", "DEFECT") for i in range(41)]
        + [(f"b{i}_def.brep.json", "GOOD") for i in range(9)]
        + [(f"c{i}.brep.json", "DEFECT") for i in range(37)]
        + [(f"d{i}.brep.json", "GOOD") for i in range(13)]
    )
    metrics = eval_binary(rows)
    assert (metrics.tp, metrics.fn, metrics.fp, metrics.tn) == (41, 9, 37, 13)
    assert metrics.accuracy == 0.54


def test_eval_binary_all_correct():
    rows = [("x_def", "DEFECT"), ("y", "GOOD")]
    metrics = eval_binary(rows)
    assert metrics.accuracy == 1.0 and metrics.f1 == 1.0


def test_eval_binary_degenerate_no_positive_predictions():
    metrics = eval_binary([("x_def", "GOOD"), ("y", "GOOD")])
    assert metrics.precision == 0.0
    assert "precision" in metrics.degenerate


def test_eval_binary_unknown_label():
    with pytest.raises(ValueError):
        eval_binary([("x", "MAYBE")])
