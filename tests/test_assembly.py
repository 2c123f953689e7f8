"""Building pipeline tests: storey ordering, slabs, entrance, atrium,
watertight assembly of real growth traces."""

import dataclasses

import numpy as np
import pytest

from brepforge.assembly import (
    _opening_box,
    assemble,
    build_storey_plan,
    place_entrance,
)
from brepforge.brep import is_watertight
from brepforge.dataset import solid_json
from brepforge.errors import Discard
from brepforge.geom2d import Footprint
from brepforge.config import GeneratorConfig
from brepforge.grammar import GrowthTrace, Termination, grow
from brepforge.rng import SeededRng
from brepforge.brep import FRAMES
from oracles import drawn_footprint, faces_of, loop_area2, rasterize_loops, rect_from_metres, vertices_of

GCFG = GeneratorConfig.build().grammar()
BCFG = GeneratorConfig.build().building()


def fake_trace(snapshots):
    return GrowthTrace(snapshots=tuple(snapshots), terminated_by=Termination.CAP)


def grown(seed):
    rng = SeededRng(seed, seed)
    return grow(GCFG, rng), rng


def storey_rooms(trace, rng):
    """Room count of each storey of the assembled building, bottom up."""
    return [len(plan.footprint.tiles) - 1 for plan in assemble(trace, BCFG, rng).storeys]


def test_order_storeys_counts_descend():
    trace, rng = grown(33)  # 10-room trace
    assert storey_rooms(trace, rng) == list(range(10, 0, -1))


def test_order_storeys_five():
    trace, rng = grown(7)  # collision after 5 rooms
    assert storey_rooms(trace, rng) == [5, 4, 3, 2, 1]


def test_order_storeys_minimum_two():
    # Fewer than two snapshots never reach `assemble`: `grow` discards them
    # (test_grammar's snapshot invariants hold it).
    trace, rng = grown(33)
    assert storey_rooms(fake_trace(trace.snapshots[:2]), rng) == [2, 1]


def ground_face(solid):
    """The single face at the underside of the ground slab (z = -0.2 m)."""
    bottom = [f for f in faces_of(solid) if f.axis == 2 and f.offset == -BCFG.slab_thickness]
    assert len(bottom) == 1
    assert bottom[0].sign < 0 and not bottom[0].inner
    return [vertices_of(solid)[i] for i in bottom[0].outer]


def test_ground_apron_dilated_bbox():
    trace, rng = grown(7)
    b = assemble(trace, BCFG, rng)
    pts = ground_face(b.solid)
    assert len(pts) == 4
    bbox = trace.snapshots[-1].bbox()
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    assert (min(xs), min(ys), max(xs), max(ys)) == (
        bbox.x0 - 30, bbox.y0 - 30, bbox.x1 + 30, bbox.y1 + 30
    )
    assert min(v[2] for v in vertices_of(b.solid)) == -2


def test_ground_apron_area_algebra():
    trace, rng = grown(7)
    b = assemble(trace, BCFG, rng)
    pts = ground_face(b.solid)
    area2 = sum(
        pts[i][0] * pts[i - 1][1] - pts[i - 1][0] * pts[i][1] for i in range(len(pts))
    )
    # (w + 6)(h + 6) m² for a w x h m bounding box; the loop is CCW about -z.
    bbox = trace.snapshots[-1].bbox()
    w, h = (bbox.x1 - bbox.x0) / 10.0, (bbox.y1 - bbox.y0) / 10.0
    assert area2 / 200.0 == (w + 6) * (h + 6)


def test_entrance_prefers_long_wall_nearest_centroid():
    trace, _ = grown(33)
    plan = build_storey_plan(trace.snapshots[-1], BCFG)
    entrance = place_entrance(plan, BCFG)
    wall = entrance.wall
    assert wall.kind == "exterior"
    assert wall.length > BCFG.entrance_min_wall
    assert entrance.kind == "entrance"
    assert (entrance.width, entrance.height, entrance.sill) == (12, 24, 0)
    assert entrance.offset == (wall.length - 12) // 2


def test_entrance_square_tie_breaks_to_lowest_id():
    # A bare 4 m core: no wall exceeds the 4 m preference threshold, so the
    # fallback set competes and all four midpoints tie on distance.
    core_fp = Footprint.from_rect(GCFG.core_tube)
    plan = build_storey_plan(core_fp, BCFG)
    entrance = place_entrance(plan, BCFG)
    assert entrance.wall.length == 40
    assert entrance.wall == plan.walls[0]


def test_entrance_nearest_centroid_among_long_walls():
    # 6 x 7 outline, walls [6, 5, 2, 6, 2, 5]; candidates are the four walls
    # over 4 m.  Hand-computed squared distances to the centroid (3, 3.5):
    # both 6 m walls 12.25, both 5 m walls 10.0 -> the east 5 m wall (first
    # in wall order) wins.
    core = rect_from_metres(0, 0, 6, 5)
    room = rect_from_metres(0, 5, 6, 7)
    fp = drawn_footprint([(0, 0), (6, 0), (6, 7), (0, 7)], [core, room])
    plan = build_storey_plan(fp, BCFG)
    entrance = place_entrance(plan, BCFG)
    wall = entrance.wall
    assert wall.length == 50
    assert wall.orientation == "E"
    assert wall.midpoint2() == (2 * 60, 50)


def test_openings_that_do_not_fit_are_boolean_failures():
    # A 4 m entrance needs a 4.2 m wall; the bare core's walls are 4 m.
    wide = dataclasses.replace(BCFG, entrance_width=40)
    plan = build_storey_plan(Footprint.from_rect(GCFG.core_tube), wide)
    with pytest.raises(Discard, match="^no exterior wall can host the entrance$") as exc:
        place_entrance(plan, wide)
    assert exc.value.reason == "boolean-failure"
    window = next(o for o in plan.openings if o.kind == "window")
    soffit = BCFG.storey_height - BCFG.slab_thickness
    tall = dataclasses.replace(window, height=soffit - window.sill + 1)
    with pytest.raises(Discard, match=r"^opening Opening\(.*\) does not fit its wall$") as exc:
        _opening_box(tall, 0, soffit, BCFG.wall_thickness // 2)
    assert exc.value.reason == "boolean-failure"
    _opening_box(dataclasses.replace(tall, height=tall.height - 1), 0, soffit, BCFG.wall_thickness // 2)


def shaft_rect(building):
    core = building.storeys[0].footprint.tiles[0]
    return core.eroded(building.config.wall_thickness // 2)


def faces_covering_rect_at(solid, z, sign, rect):
    """Cells of the rect covered by faces in plane z with the given sign."""
    covered = 0
    vertices = vertices_of(solid)
    for f in faces_of(solid):
        if f.axis != 2 or f.offset != z or f.sign != sign:
            continue
        ua, va = FRAMES[(2, f.sign)]
        loops = []
        for loop in f.loops():
            loops.append([(vertices[i][ua], vertices[i][va]) for i in loop])
        r = (rect.x0, rect.y0, rect.x1, rect.y1) if sign > 0 else (rect.y0, rect.x0, rect.y1, rect.x1)
        us = np.asarray(sorted({p[0] for lp in loops for p in lp} | {r[0], r[2]}), dtype=np.int64)
        vs = np.asarray(sorted({p[1] for lp in loops for p in lp} | {r[1], r[3]}), dtype=np.int64)
        region = rasterize_loops(loops, us, vs)
        iu0, iu1 = np.searchsorted(us, r[0]), np.searchsorted(us, r[2])
        iv0, iv1 = np.searchsorted(vs, r[1]), np.searchsorted(vs, r[3])
        cell = np.outer(np.diff(us), np.diff(vs))
        covered += int(cell[iu0:iu1, iv0:iv1][region.mask[iu0:iu1, iv0:iv1]].sum())
    return covered


def test_assemble_watertight_and_labeled():
    trace, rng = grown(0)
    b = assemble(trace, BCFG, rng)
    ok, problems = is_watertight(b.solid)
    assert ok, problems[:5]
    assert b.solid.label == "GOOD"


def test_assemble_five_storey_from_collision_trace():
    trace, rng = grown(7)
    b = assemble(trace, BCFG, rng)
    assert b.meta.storey_count == 5
    assert b.meta.room_per_floor == [5, 4, 3, 2, 1, 0, 0, 0, 0, 0]
    assert is_watertight(b.solid)[0]


def test_assemble_core_aligned_and_nested():
    trace, rng = grown(12)
    b = assemble(trace, BCFG, rng)
    for plan in b.storeys:
        assert plan.footprint.tiles[0] == GCFG.core_tube
    # Each storey's tiles are the storey above's and then one more room, and
    # they tile its footprint.
    for lower, upper in zip(b.storeys, b.storeys[1:]):
        assert lower.footprint.tiles[:-1] == upper.footprint.tiles
        assert loop_area2(lower.footprint.vertices) == 2 * sum(t.area_units for t in lower.footprint.tiles)


def test_assemble_single_entrance_on_ground_floor():
    trace, rng = grown(0)
    b = assemble(trace, BCFG, rng)
    entrances = [
        (k, o) for k, plan in enumerate(b.storeys) for o in plan.openings if o.kind == "entrance"
    ]
    assert len(entrances) == 1
    assert entrances[0][0] == 0


def test_atrium_open_above_ground_closed_at_ground():
    trace, rng = grown(7)
    b = assemble(trace, BCFG, rng)
    shaft = shaft_rect(b)
    s = b.meta.storey_count
    for k in range(1, s + 1):
        covered = faces_covering_rect_at(b.solid, k * BCFG.storey_height, +1, shaft)
        assert covered == 0, f"slab at storey {k} not opened"
    # Ground slab keeps the shaft floor.
    assert faces_covering_rect_at(b.solid, 0, +1, shaft) == shaft.area_units


def test_atrium_roof_hole_is_inner_loop():
    trace, rng = grown(7)
    b = assemble(trace, BCFG, rng)
    s = b.meta.storey_count
    roof = [
        f
        for f in faces_of(b.solid)
        if f.axis == 2 and f.offset == s * BCFG.storey_height and f.sign > 0
    ]
    assert sum(len(f.inner) for f in roof) == 1


def test_atrium_penetration_count_two_storey():
    trace, _ = grown(33)
    rng = SeededRng(33, 33)
    two = fake_trace(trace.snapshots[:2])
    b = assemble(two, BCFG, rng)
    shaft = shaft_rect(b)
    opened = [
        k
        for k in range(1, 3)
        if faces_covering_rect_at(b.solid, k * BCFG.storey_height, +1, shaft) == 0
    ]
    assert opened == [1, 2]  # slab between floors 1-2 and the roof
    assert is_watertight(b.solid)[0]


def test_assemble_deterministic_bytes():
    trace1, rng1 = grown(5)
    b1 = assemble(trace1, BCFG, rng1)
    trace2, rng2 = grown(5)
    b2 = assemble(trace2, BCFG, rng2)
    assert solid_json(b1.solid, "x") == solid_json(b2.solid, "x")


def test_meta_totals_consistent():
    trace, rng = grown(0)
    b = assemble(trace, BCFG, rng)
    s = b.meta.storey_count
    assert b.meta.room_total == s * (s + 1) // 2
    assert sum(b.meta.room_per_floor) == b.meta.room_total
    # The tiles' area is the ground loop's shoelace area, to the bit.
    assert b.meta.footprint_area == loop_area2(trace.snapshots[-1].vertices) / 200.0
    per_storey_total = sum(w * h for storey in b.meta.rooms for w, h in storey)
    assert abs(b.meta.avg_room_area - per_storey_total / b.meta.room_total) <= 1e-9


def test_opening_invariants_over_seeds():
    door_width = 9
    for seed in range(30):
        try:
            trace, rng = grown(seed)
        except Discard as exc:
            assert exc.reason == "growth-failed"
            continue
        b = assemble(trace, BCFG, rng)
        for plan in b.storeys:
            doors = [o for o in plan.openings if o.kind == "door"]
            n_rooms = len(plan.footprint.tiles) - 1
            assert len(doors) == n_rooms  # spanning-tree edge count
            reached = {r for d in doors for r in d.wall.rooms}
            assert set(range(1, n_rooms + 1)) <= reached
            for o in plan.openings:
                wall = o.wall
                assert 0 <= o.offset
                assert o.offset + o.width <= wall.length
                assert o.sill >= 0
                assert o.sill + o.height <= BCFG.storey_height
                if o.kind == "door":
                    assert o.sill == 0 and o.width == door_width
                if o.kind == "window":
                    assert wall.kind == "exterior"
