"""Sampling, defect, label, and metric tests.

Sampling shares are checked against binomial confidence bounds, and the
face-cell sampler against the mesh sampler it replaced, bit for bit; the
confusion-matrix numbers replicate the published quality-control
benchmark exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from brepforge.assembly import assemble
from brepforge.brep import Box, drop_faces, is_watertight, solid_from_boxes, triangulate
from brepforge.dataset import check_solid
from brepforge.errors import BrepForgeError
from brepforge.config import GeneratorConfig
from brepforge.grammar import grow
from brepforge.mltasks import UNIT_CUBE, UNIT_SPHERE, _cell_areas, inject_defect, is_exterior_face, sample_points
from brepforge.records import (
    BinaryMetrics,
    BuildingMeta,
    LabelVector,
    defect_id,
    eval_binary,
    eval_regression,
    file_id,
    label_of,
    oracle_labels,
)
from brepforge.rng import SeededRng
from oracles import (
    Face,
    drawn_footprint,
    extrude_prism,
    faces_of,
    mesh_areas,
    mesh_sample_points,
    parity_is_exterior_face,
    solid_of,
    vertices_of,
)
from test_brep import box_solids

CUBE = extrude_prism(drawn_footprint([(0, 0), (1, 0), (1, 1), (0, 1)]), 0, 10)


def built(seed):
    rng = SeededRng(seed, seed)
    cfg = GeneratorConfig.build()
    return assemble(grow(cfg.grammar(), rng), cfg.building(), rng)


def test_sample_count_and_cube_bounds():
    cloud = sample_points(CUBE, 4000, UNIT_CUBE, SeededRng(1, 1))
    assert len(cloud.points) == 4000
    assert cloud.points.min() >= 0.0 and cloud.points.max() <= 1.0
    assert np.allclose(cloud.points.min(axis=0), 0.0)
    assert math.isclose(cloud.points.max(), 1.0)


def test_sample_cube_face_shares_binomial():
    cloud = sample_points(CUBE, 4000, UNIT_CUBE, SeededRng(2, 2))
    pts = cloud.points
    n = len(pts)
    p = 1 / 6
    sigma = math.sqrt(n * p * (1 - p))
    for axis in range(3):
        for value in (0.0, 1.0):
            share = int((np.abs(pts[:, axis] - value) < 1e-9).sum())
            assert abs(share - n * p) <= 3 * sigma, (axis, value, share)


def test_sample_two_triangle_weighting():
    # The open shell of two faces of a 1 x 4 x 1 m box: the top, 4 m², and
    # the +y end, 1 m², each one cell of two triangles.
    box = solid_from_boxes([Box(0, 0, 0, 10, 40, 10)])
    keep = {("+z", 10), ("+y", 40)}
    shell = drop_faces(box, [i for i, f in enumerate(faces_of(box)) if (f.normal_name, f.offset) not in keep])
    assert len(faces_of(shell)) == 2
    cloud = sample_points(shell, 4000, UNIT_SPHERE, SeededRng(3, 3))
    upper = int((np.abs(cloud.points[:, 2] - cloud.points[:, 2].max()) < 1e-9).sum())
    n, p = 4000, 0.8
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(upper - n * p) <= 3 * sigma


def test_sample_sphere_max_radius_one():
    cloud = sample_points(CUBE, 4000, UNIT_SPHERE, SeededRng(4, 4))
    radii = np.linalg.norm(cloud.points, axis=1)
    assert abs(radii.max() - 1.0) <= 1e-9


def test_sample_deterministic():
    a = sample_points(CUBE, 1000, UNIT_CUBE, SeededRng(5, 5))
    b = sample_points(CUBE, 1000, UNIT_CUBE, SeededRng(5, 5))
    assert np.array_equal(a.points, b.points)


def test_sample_empty_mesh_rejected():
    # A face whose loop runs out and back along one line fills no cell.
    degenerate = solid_of(((0, 0, 0), (10, 0, 0)), (Face(2, 0, 1, (0, 1)),))
    with pytest.raises(BrepForgeError, match="^mesh has zero surface area$"):
        sample_points(degenerate, 10, UNIT_CUBE, SeededRng(1, 1))
    with pytest.raises(BrepForgeError, match="^solid has no faces$"):
        sample_points(solid_of((), ()), 10, UNIT_CUBE, SeededRng(1, 1))
    with pytest.raises(BrepForgeError, match="^solid has no faces$"):
        triangulate(solid_of((), ()))


def test_sample_unknown_mode_rejected():
    # The points command passes its --mode straight through.
    with pytest.raises(ValueError, match="^unknown normalization mode 'ball'$"):
        sample_points(CUBE, 10, "ball", SeededRng(1, 1))


@pytest.mark.parametrize("mode, word", [(UNIT_CUBE, "extent"), (UNIT_SPHERE, "radius")])
def test_sample_single_point_rejected(mode, word):
    # One point, or any that coincide, would normalize by zero into NaN.
    with np.errstate(all="raise"), pytest.raises(BrepForgeError, match=f"^sampled points have zero {word}$"):
        sample_points(CUBE, 1, mode, SeededRng(1, 1))
    assert np.isfinite(sample_points(CUBE, 2, mode, SeededRng(1, 1)).points).all()


@settings(max_examples=150, deadline=None)
@given(box_solids(), st.data())
def test_sample_points_like_mesh_sampler(solid, data):
    """The cell sampler gives the mesh sampler's clouds bit for bit, on
    closed solids and on open shells, in both modes; its triangle areas
    are the mesh's."""
    n = len(faces_of(solid))
    dropped = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
    shell = drop_faces(solid, dropped) if dropped and len(set(dropped)) < n else solid
    mesh = triangulate(shell)
    assert np.repeat(_cell_areas(shell), 2).tobytes() == mesh_areas(mesh).tobytes()
    # One point has no extent to normalize by (test_sample_single_point_rejected).
    count = data.draw(st.integers(2, 300))
    seed = data.draw(st.integers(0, 2**64 - 1))
    for mode in (UNIT_CUBE, UNIT_SPHERE):
        got = sample_points(shell, count, mode, SeededRng(seed, seed))
        want = mesh_sample_points(mesh, count, mode, SeededRng(seed, seed))
        assert got.to_xyz() == want.to_xyz() and got.to_f32() == want.to_f32()


def test_exterior_face_classification_on_wall():
    # A plain box: every face is an envelope face.
    assert all(is_exterior_face(CUBE, i) for i in range(len(faces_of(CUBE))))
    # Carve an opening: tunnel faces see the opposite tunnel wall.
    cut = solid_from_boxes([Box(0, 0, 0, 2, 40, 30)], [Box(0, 10, 5, 2, 19, 26)])
    tunnel = [
        i
        for i, f in enumerate(faces_of(cut))
        if f.axis != 0 and 10 <= f.offset <= 19 or (f.axis == 2 and 5 <= f.offset <= 26)
    ]
    interior = [i for i in range(len(faces_of(cut))) if not is_exterior_face(cut, i)]
    assert set(interior) == set(tunnel)


def parity_envelope(solid) -> list[bool]:
    faces, vertices = faces_of(solid), vertices_of(solid)
    return [parity_is_exterior_face(faces, vertices, i) for i in range(len(faces))]


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
        assert [is_exterior_face(solid, i) for i in range(len(faces_of(solid)))] == want
        checked += 1
    assert checked >= 12


def test_inject_defect_breaks_watertightness():
    b = built(0)
    defect = inject_defect(b.solid, SeededRng(11, 11))
    assert defect.label == "DEFECT"
    assert not is_watertight(defect)[0]
    assert 1 <= len(faces_of(b.solid)) - len(faces_of(defect)) <= 3


def test_inject_defect_refuses_defect_input():
    b = built(0)
    defect = inject_defect(b.solid, SeededRng(11, 11))
    with pytest.raises(ValueError):
        inject_defect(defect, SeededRng(12, 12))


def test_defect_boundary_edge_count_on_cube():
    open_box = drop_faces(CUBE, [0], label="DEFECT")
    ok, problems = is_watertight(open_box)
    assert not ok
    assert len(problems) == 4  # one removed face leaves its 4 rim edges


def test_defect_adjacent_faces_share_cancelled_edge():
    # Removing two adjacent faces: 4 + 4 perimeter edges minus the shared
    # edge, which disappears entirely and is no longer reported.
    shared = None
    for i in range(len(faces_of(CUBE))):
        for j in range(i + 1, len(faces_of(CUBE))):
            edges_i = set()
            for loop in faces_of(CUBE)[i].loops():
                n = len(loop)
                edges_i |= {frozenset((loop[k], loop[(k + 1) % n])) for k in range(n)}
            edges_j = set()
            for loop in faces_of(CUBE)[j].loops():
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


def test_label_of_reads_the_ids_defect_id_writes():
    # An id is DEFECT when it ends in _def and optional digits, not when it
    # holds _def somewhere.
    names = ["x", "x_def", "x_def2.xyz", "d/x_def3.brep.json", "bld_default", "x_defect"]
    assert [label_of(name) for name in names] == ["GOOD", "DEFECT", "DEFECT", "DEFECT", "GOOD", "GOOD"]
    assert [defect_id("x", variant) for variant in range(3)] == ["x_def", "x_def2", "x_def3"]
    assert [label_of(defect_id("bld_default", variant)) for variant in range(3)] == ["DEFECT"] * 3
    # An id is the name before its first dot, whatever the directory.
    assert [file_id(name) for name in names] == ["x", "x_def", "x_def2", "x_def3", "bld_default", "x_defect"]
    assert [file_id(name) for name in ["a.b.brep.json", "d.e/a.meta.json"]] == ["a", "a"]
