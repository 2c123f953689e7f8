"""Filter, export, NPY, and statistics tests with reload oracles."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brepforge.assembly import assemble
from brepforge.brep import drop_faces, is_watertight
from brepforge.dataset import _units, check_solid, export_building, solid_from_dict, solid_json
from brepforge.config import GeneratorConfig
from brepforge.grammar import grow
from brepforge.mltasks import inject_defect
from brepforge.records import (
    MAX_COORDINATE_M,
    BuildingMeta,
    DatasetMeta,
    DatasetWriter,
    canonical_json,
    check_rooms,
    load_dataset_meta,
    meta_row,
    stats,
    to_units,
)
from brepforge.rng import SeededRng
from oracles import assert_same_solid, faces_of, solid_of, solid_to_dict, vertices_of
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
    ok, problems = check_solid(solid_of((), ()))
    assert not ok and problems


def write_dataset(out_dir, metas, discards=()):
    """The dataset files of `metas` and `discards`, as `gen` writes them."""
    with DatasetWriter(out_dir) as writer:
        for meta in metas:
            writer.add(canonical_json(meta.to_dict()), meta_row(meta))
        for seed, reason in discards:
            writer.discard(seed, reason)
        writer.finish()


def test_export_byte_stable(tmp_path):
    b = built(0)
    text = export_building(b, tmp_path / "a")
    assert export_building(b, tmp_path / "b") == text
    assert (tmp_path / "a" / f"{b.meta.id}.meta.json").read_text() == text + "\n"
    for name in (f"{b.meta.id}.brep.json", f"{b.meta.id}.meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# Ids that JSON must escape: quotes, backslashes, control and non-ASCII
# characters (written as \uXXXX, surrogate pairs above the BMP).
IDS = st.sampled_from(["bld00000003", 'a"b\\c/d', "tab\tnew\nline\x00", "\u00fc\u20ac\U0001f600"]) | st.text(max_size=8)


@settings(max_examples=200, deadline=None)
@given(box_solids(), IDS, st.data())
def test_solid_json_is_canonical_json_of_dict(solid, building_id, data):
    """The text is `canonical_json` of the dict form, and reading it back
    gives the solid array for array, which writes the same text again."""
    n = len(faces_of(solid))
    dropped = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    for s in (solid, drop_faces(solid, dropped, "DEFECT")):
        text = solid_json(s, building_id)
        assert text == canonical_json(solid_to_dict(s, building_id))
        back = solid_from_dict(json.loads(text))
        assert_same_solid(back, s)
        assert solid_json(back, building_id) == text


def per_value_units(values) -> list[int]:
    """The coordinate reader as it was, one value at a time."""
    out = []
    for v in values:
        if not abs(v) <= MAX_COORDINATE_M:
            raise ValueError(f"coordinate {v!r} is not within {MAX_COORDINATE_M} m of the origin")
        out.append(to_units(v))
    return out


NUMBERS = st.one_of(
    st.integers(-(10**6), 10**6).map(lambda k: k / 10),
    st.integers(-(10**6), 10**6),
    st.floats(),
    st.sampled_from([100000.0, -100000.0, 100000.1, 0.05, 0.15, 1e-7, 10**400]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(NUMBERS, max_size=6))
def test_units_like_per_value_reader(values):
    """The array reader takes what the per-value one took, to the same
    units, and rejects the rest with the same first message; ints past
    float range, which numpy cannot convert, are rejected too."""
    try:
        want = per_value_units(values)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _units(values)
        assert str(got.value) == str(exc) or "too large" in str(got.value)
        return
    got = _units(values)
    assert got.dtype == np.int64 and got.tolist() == want


def test_export_roundtrip_watertight(tmp_path):
    b = built(0)
    export_building(b, tmp_path)
    reloaded = solid_from_dict(json.loads((tmp_path / f"{b.meta.id}.brep.json").read_text()))
    assert_same_solid(reloaded, b.solid)
    assert is_watertight(reloaded)[0]


def test_meta_matches_geometry(tmp_path):
    """Recompute storey count, per-floor rooms, and footprint area from the
    exported B-rep alone and compare against the meta file."""
    b = built(0)
    meta = json.loads(export_building(b, tmp_path))
    solid = solid_from_dict(json.loads((tmp_path / f"{b.meta.id}.brep.json").read_text()))
    height = b.config.storey_height
    slab = b.config.slab_thickness
    vertices = vertices_of(solid)
    z_top = max(v[2] for v in vertices)
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
        ceilings = [f for f in faces_of(solid) if f.axis == 2 and f.sign < 0 and f.offset == z]
        per_floor.append(len(ceilings))
        total += len(ceilings)
        if k == 1:
            for f in ceilings:
                xs = [vertices[i][0] for i in f.outer]
                ys = [vertices[i][1] for i in f.outer]
                footprint_area_units += (max(xs) - min(xs) + t) * (max(ys) - min(ys) + t)
    assert total == meta["room_total"]
    assert per_floor == [c for c in meta["room_per_floor"] if c] == sorted(per_floor, reverse=True)
    # Ground floor rooms plus the core tile the footprint; the core is the
    # roof hole rect grown back by the wall thickness.
    roof = [f for f in faces_of(solid) if f.axis == 2 and f.sign > 0 and f.offset == storeys * height]
    hole = [h for f in roof for h in f.inner]
    assert len(hole) == 1
    xs = [vertices[i][0] for i in hole[0]]
    ys = [vertices[i][1] for i in hole[0]]
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
    write_dataset(tmp_path, [meta])
    path = tmp_path / "meta.npy"
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
    assert loaded[0].tolist() == [3, 6, 12.0, 52.0, 3, 2, 1, 0, 0, 0, 0, 0, 0, 0]


def test_npy_refuses_empty(tmp_path):
    # No records: no empty matrix, and no meta.json either.
    write_dataset(tmp_path, [], [(4, "growth-failed")])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["discards.csv"]


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
    write_dataset(tmp_path, metas)
    raw = path.read_bytes()
    header_len = int.from_bytes(raw[8:10], "little")
    assert len(raw) == 10 + header_len + 7 * 14 * 8
    assert np.load(path).shape == (7, 14)
    assert np.load(path).tolist() == [[2, 3, 9.0, 34.0, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0]] * 7


def test_dataset_meta_roundtrip(tmp_path):
    b, c = built(0), built(1)
    write_dataset(tmp_path, [b.meta, c.meta], [(3, "room-filter")])
    path = tmp_path / "meta.json"
    again = load_dataset_meta(path)
    assert again.records == [b.meta, c.meta]
    assert again.discard_log == [(3, "room-filter")]
    records = [b.meta.to_dict(), c.meta.to_dict()]
    discards = [{"seed": 3, "reason": "room-filter"}]
    assert path.read_text() == canonical_json({"records": records, "discards": discards}) + "\n"


def test_discards_csv(tmp_path):
    write_dataset(tmp_path, [], [(0, "growth-failed"), (9, "room-filter")])
    path = tmp_path / "discards.csv"
    assert path.read_text() == "seed,reason\n0,growth-failed\n9,room-filter\n"


def test_stats_single_building():
    meta = meta_with_rooms([[4.0, 4.0]], storeys=5)
    meta.storey_count = 5
    report = stats(DatasetMeta(records=[meta]))
    assert report.storey_hist == {5: 1}
    assert sum(report.storey_hist.values()) == 1
    assert report.room_area_hist == {16: 1}


def test_stats_counts_only_the_records_with_rooms():
    roomless = meta_with_rooms([[4.0, 4.0]], storeys=2)
    roomless.rooms = []
    report = stats(DatasetMeta(records=[roomless, meta_with_rooms([[3.0, 4.0]], storeys=3)]))
    assert report.storey_hist == {2: 1, 3: 1}
    assert report.room_area_hist == {12: 1}
    with pytest.raises(ValueError, match="rooms"):
        stats(DatasetMeta(records=[roomless]))


def test_stats_counts_conserved():
    metas = [meta_with_rooms([[3.0, 4.0], [4.0, 5.0]], storeys=2) for _ in range(4)]
    for i, m in enumerate(metas):
        m.storey_count = 2 + i % 3
    report = stats(DatasetMeta(records=metas))
    assert sum(report.storey_hist.values()) == len(metas)
    assert sum(report.room_area_hist.values()) == sum(
        len(storey) for m in metas for storey in m.rooms
    )
