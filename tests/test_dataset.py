"""Filter, export, NPY, and statistics tests with reload oracles."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brepforge.assembly import assemble
from brepforge.brep import drop_faces, is_watertight
from brepforge.dataset import (
    BuildingMeta,
    DatasetMeta,
    canonical_json,
    check_rooms,
    check_solid,
    export_building,
    load_dataset_meta,
    meta_matrix,
    solid_from_dict,
    solid_json,
    stats,
    write_dataset_meta,
    write_discards_csv,
    write_meta_npy,
)
from brepforge.config import GeneratorConfig
from brepforge.grammar import grow
from brepforge.mltasks import inject_defect
from brepforge.rng import SeededRng
from oracles import solid_to_dict
from test_brep import box_solids

DEFAULTS = GeneratorConfig.build()
FC = DEFAULTS.filters()


def meta_with_rooms(rooms, storeys=1):
    per_floor = [len(rooms)] + [0] * 9
    return BuildingMeta(
        id="t",
        seed=0,
        storey_count=storeys,
        room_total=len(rooms),
        room_per_floor=per_floor,
        rooms=[rooms],
        openings=[],
        avg_room_area=sum(w * h for w, h in rooms) / len(rooms),
        footprint_area=100.0,
    )


def built(seed):
    rng = SeededRng(seed, seed)
    trace = grow(DEFAULTS.grammar(), rng)
    return assemble(trace, DEFAULTS.building(), rng)


def test_check_rooms_pass():
    ok, violations = check_rooms([[[4.0, 4.0]]], FC)
    assert ok and not violations


def test_check_rooms_small_area_fails():
    ok, violations = check_rooms([[[2.4, 2.4]]], FC)
    assert not ok
    assert "area" in violations[0]


def test_check_rooms_aspect_fails():
    ok, violations = check_rooms([[[2.4, 12.0]]], FC)
    assert not ok
    assert any("aspect" in v for v in violations)


def test_check_solid_good_and_defect():
    b = built(0)
    assert check_solid(b.solid)[0]
    defect = inject_defect(b.solid, SeededRng(1, 1))
    assert not check_solid(defect)[0]


def test_check_solid_empty_fails():
    from brepforge.brep import BRepSolid

    ok, problems = check_solid(BRepSolid((), ()))
    assert not ok and problems


def test_export_byte_stable(tmp_path):
    b = built(0)
    paths1 = export_building(b, tmp_path / "a")
    paths2 = export_building(b, tmp_path / "b")
    for p1, p2 in zip(paths1, paths2):
        assert p1.read_bytes() == p2.read_bytes()


# Ids that JSON must escape: quotes, backslashes, control and non-ASCII
# characters (written as \uXXXX, surrogate pairs above the BMP).
IDS = st.sampled_from(["bld00000003", 'a"b\\c/d', "tab\tnew\nline\x00", "\u00fc\u20ac\U0001f600"]) | st.text(max_size=8)


@settings(max_examples=200, deadline=None)
@given(box_solids(), IDS, st.data())
def test_solid_json_is_canonical_json_of_dict(solid, building_id, data):
    n = len(solid.faces)
    dropped = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    for s in (solid, drop_faces(solid, dropped, "DEFECT")):
        text = solid_json(s, building_id)
        assert text == canonical_json(solid_to_dict(s, building_id))
        assert solid_from_dict(json.loads(text)) == s


def test_export_roundtrip_watertight(tmp_path):
    b = built(0)
    brep_path, meta_path = export_building(b, tmp_path)
    reloaded = solid_from_dict(json.loads(brep_path.read_text()))
    assert reloaded == b.solid
    assert is_watertight(reloaded)[0]


def test_meta_matches_geometry(tmp_path):
    """Recompute storey count, per-floor rooms, and footprint area from the
    exported B-rep alone and compare against the meta file."""
    b = built(0)
    brep_path, meta_path = export_building(b, tmp_path)
    solid = solid_from_dict(json.loads(brep_path.read_text()))
    meta = json.loads(meta_path.read_text())
    height = b.config.storey_height
    slab = b.config.slab_thickness
    z_top = max(v[2] for v in solid.vertices)
    storeys = z_top // height
    assert storeys == meta["storey_count"]
    # Room ceilings are the only downward faces at each storey's slab soffit
    # (the core shaft ceiling is cut away), one face per room.
    total = 0
    per_floor = []
    t = b.config.wall_thickness
    footprint_area_units = 0
    for k in range(1, storeys + 1):
        z = k * height - slab
        ceilings = [f for f in solid.faces if f.axis == 2 and f.sign < 0 and f.offset == z]
        per_floor.append(len(ceilings))
        total += len(ceilings)
        if k == 1:
            for f in ceilings:
                xs = [solid.vertices[i][0] for i in f.outer]
                ys = [solid.vertices[i][1] for i in f.outer]
                footprint_area_units += (max(xs) - min(xs) + t) * (max(ys) - min(ys) + t)
    assert total == meta["room_total"]
    assert per_floor == [c for c in meta["room_per_floor"] if c] == sorted(per_floor, reverse=True)
    # Ground floor rooms plus the core tile the footprint; the core is the
    # roof hole rect grown back by the wall thickness.
    roof = [f for f in solid.faces if f.axis == 2 and f.sign > 0 and f.offset == storeys * height]
    hole = [h for f in roof for h in f.inner]
    assert len(hole) == 1
    xs = [solid.vertices[i][0] for i in hole[0]]
    ys = [solid.vertices[i][1] for i in hole[0]]
    footprint_area_units += (max(xs) - min(xs) + t) * (max(ys) - min(ys) + t)
    assert footprint_area_units / 100.0 == meta["footprint_area"]


def test_npy_header_and_roundtrip(tmp_path):
    meta = BuildingMeta(
        id="bld1",
        seed=1,
        storey_count=3,
        room_total=6,
        room_per_floor=[3, 2, 1, 0, 0, 0, 0, 0, 0, 0],
        rooms=[[[3.0, 4.0]] * 3, [[3.0, 4.0]] * 2, [[3.0, 4.0]]],
        openings=[],
        avg_room_area=12.0,
        footprint_area=52.0,
    )
    ds = DatasetMeta(records=[meta])
    path = tmp_path / "meta.npy"
    write_meta_npy(ds, path)
    raw = path.read_bytes()
    assert raw[:8] == bytes([0x93, 0x4E, 0x55, 0x4D, 0x50, 0x59, 0x01, 0x00])
    header_len = int.from_bytes(raw[8:10], "little")
    assert (10 + header_len) % 64 == 0
    header = raw[10 : 10 + header_len].decode("latin1")
    assert "'descr': '<f8'" in header
    assert "'fortran_order': False" in header
    assert "(1, 14)" in header
    assert len(raw) == 10 + header_len + 1 * 14 * 8
    loaded = np.load(path)
    assert loaded.dtype == np.dtype("<f8") and loaded.shape == (1, 14)
    assert np.array_equal(loaded, meta_matrix(ds))
    assert loaded[0].tolist() == [3, 6, 12.0, 52.0, 3, 2, 1, 0, 0, 0, 0, 0, 0, 0]


def test_npy_refuses_empty(tmp_path):
    with pytest.raises(ValueError):
        write_meta_npy(DatasetMeta(), tmp_path / "m.npy")


def test_npy_payload_length_many(tmp_path):
    metas = [
        BuildingMeta(
            id=f"b{i}",
            seed=i,
            storey_count=2,
            room_total=3,
            room_per_floor=[2, 1, 0, 0, 0, 0, 0, 0, 0, 0],
            rooms=[[[3.0, 3.0]] * 2, [[3.0, 3.0]]],
            openings=[],
            avg_room_area=9.0,
            footprint_area=34.0,
        )
        for i in range(7)
    ]
    path = tmp_path / "meta.npy"
    write_meta_npy(DatasetMeta(records=metas), path)
    raw = path.read_bytes()
    header_len = int.from_bytes(raw[8:10], "little")
    assert len(raw) == 10 + header_len + 7 * 14 * 8
    assert np.load(path).shape == (7, 14)


def test_dataset_meta_roundtrip(tmp_path):
    b = built(0)
    ds = DatasetMeta(records=[b.meta], discard_log=[(3, "room-filter")])
    path = tmp_path / "meta.json"
    write_dataset_meta(ds, path)
    again = load_dataset_meta(path)
    assert again.records[0] == b.meta
    assert again.discard_log == [(3, "room-filter")]


def test_discards_csv(tmp_path):
    ds = DatasetMeta(discard_log=[(0, "growth-failed"), (9, "room-filter")])
    path = tmp_path / "d.csv"
    write_discards_csv(ds, path)
    assert path.read_text() == "seed,reason\n0,growth-failed\n9,room-filter\n"


def test_stats_single_building():
    meta = meta_with_rooms([[4.0, 4.0]], storeys=5)
    meta.storey_count = 5
    report = stats(DatasetMeta(records=[meta]))
    assert report.storey_hist == {5: 1}
    assert sum(report.storey_hist.values()) == 1
    assert report.room_area_hist == {16: 1}


def test_stats_counts_conserved():
    metas = [meta_with_rooms([[3.0, 4.0], [4.0, 5.0]], storeys=2) for _ in range(4)]
    for i, m in enumerate(metas):
        m.storey_count = 2 + i % 3
    report = stats(DatasetMeta(records=metas))
    assert sum(report.storey_hist.values()) == len(metas)
    assert sum(report.room_area_hist.values()) == sum(
        len(storey) for m in metas for storey in m.rooms
    )
