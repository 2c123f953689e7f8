"""Wall layout, door spanning tree, and window generation/pruning tests."""

import pytest

from brepforge.assembly import build_storey_plan
from brepforge.config import GeneratorConfig
from brepforge.errors import Discard
from brepforge.geom2d import Footprint, Point2
from brepforge.grammar import grow
from brepforge.rng import SeededRng
from brepforge.storey import (
    Opening,
    WallSegment,
    build_walls,
    generate_windows,
    place_doors,
    prune_windows,
)
from oracles import drawn_footprint, rect_from_metres

GRAMMAR = GeneratorConfig.build().grammar()
BUILDING = GeneratorConfig.build().building()
CORE = rect_from_metres(0, 0, 4, 4)


def test_core_only_four_exterior_walls():
    walls = build_walls(Footprint.from_rect(CORE))
    assert len(walls) == 4
    assert all(w.kind == "exterior" for w in walls)
    assert sorted(w.orientation for w in walls) == ["E", "N", "S", "W"]
    assert all(w.rooms == (0,) for w in walls)


def test_core_plus_east_room():
    room = rect_from_metres(4, 0, 8, 4)
    fp = drawn_footprint([(0, 0), (8, 0), (8, 4), (0, 4)], [CORE, room])
    walls = build_walls(fp)
    exterior = [w for w in walls if w.kind == "exterior"]
    interior = [w for w in walls if w.kind == "interior"]
    assert len(exterior) == 6
    assert len(interior) == 1
    assert interior[0].length == 40
    assert interior[0].rooms == (0, 1)
    # Orientation assignment from the outward normal.
    east = [w for w in exterior if w.orientation == "E"]
    assert len(east) == 1 and east[0].rooms == (1,)


def test_bump_plan_wall_count_equals_vertex_count():
    # Room grafted on a partial east edge: every boundary edge borders one
    # room, so exterior wall count equals the footprint vertex count.
    room = rect_from_metres(4, 1, 7, 3)
    fp = drawn_footprint(
        [(0, 0), (4, 0), (4, 1), (7, 1), (7, 3), (4, 3), (4, 4), (0, 4)], [CORE, room]
    )
    walls = build_walls(fp)
    exterior = [w for w in walls if w.kind == "exterior"]
    assert len(exterior) == len(fp.vertices) == 8


# The side of a room's tile that an exterior wall of each orientation lies on.
TILE_SIDE = {"E": "x1", "W": "x0", "N": "y1", "S": "y0"}


def test_exterior_walls_tile_each_footprint_edge():
    # Nothing checks this at run time: on every storey plan of streams
    # 0..199, the exterior walls on each footprint edge run along it end to
    # end, with no gap or overlap, and each lies on the outward side of its
    # room's tile.
    plans = 0
    for seed in range(200):
        try:
            snapshots = grow(GRAMMAR, SeededRng(seed, seed)).snapshots
        except Discard as exc:
            assert exc.reason == "growth-failed"
            continue
        for snap in snapshots:
            plans += 1
            exterior = [w for w in build_walls(snap) if w.kind == "exterior"]
            on_edges = 0
            for a, b in snap.edges():
                k = 1 if a.x == b.x else 0  # the coordinate that varies along the edge
                lo, hi = sorted((a[k], b[k]))
                spans = sorted(
                    (w.p1[k], w.p2[k])
                    for w in exterior
                    if w.p1[1 - k] == w.p2[1 - k] == a[1 - k] and lo <= w.p1[k] and w.p2[k] <= hi
                )
                assert all(s < e for s, e in spans)
                assert [s for s, _ in spans] == [lo] + [e for _, e in spans[:-1]]
                assert spans[-1][1] == hi
                on_edges += len(spans)
            assert on_edges == len(exterior)
            for w in exterior:
                (room,) = w.rooms
                tile = snap.tiles[room]
                k = 1 if w.along_y else 0
                assert getattr(tile, TILE_SIDE[w.orientation]) == w.p1[1 - k]
                assert (tile.x0, tile.y0)[k] <= w.p1[k] < w.p2[k] <= (tile.x1, tile.y1)[k]
    assert plans > 1400


def test_single_room_single_centered_door():
    room = rect_from_metres(4, 0, 8, 4)
    fp = drawn_footprint([(0, 0), (8, 0), (8, 4), (0, 4)], [CORE, room])
    doors = place_doors(build_walls(fp), 1)
    assert len(doors) == 1
    door = doors[0]
    wall = door.wall
    assert wall.kind == "interior"
    assert door.kind == "door" and door.sill == 0
    assert door.offset == (wall.length - door.width) // 2


def test_three_room_chain_three_doors():
    rooms = [
        rect_from_metres(4, 0, 8, 4),
        rect_from_metres(8, 0, 12, 4),
        rect_from_metres(12, 0, 16, 4),
    ]
    fp = drawn_footprint([(0, 0), (16, 0), (16, 4), (0, 4)], [CORE, *rooms])
    doors = place_doors(build_walls(fp), len(rooms))
    assert len(doors) == 3
    # BFS oracle: tree edges are exactly (core,1), (1,2), (2,3).
    pairs = {d.wall.rooms for d in doors}
    assert pairs == {(0, 1), (1, 2), (2, 3)}


def test_room_with_two_walls_gets_one_door():
    # Room 2 touches both the core and room 1; the spanning tree must reach
    # it through exactly one door.
    rooms = [rect_from_metres(4, 0, 8, 4), rect_from_metres(0, 4, 8, 8)]
    fp = drawn_footprint([(0, 0), (8, 0), (8, 8), (0, 8)], [CORE, *rooms])
    doors = place_doors(build_walls(fp), len(rooms))
    assert len(doors) == 2  # spanning tree edge count == room count
    incoming = [d for d in doors if 2 in d.wall.rooms]
    assert len(incoming) == 1


def test_unreachable_room_raises():
    # Shared wall shorter than a door: adjacency edge unusable.
    rooms = [rect_from_metres(4, 3, 7, 8)]
    fp = drawn_footprint([(0, 0), (4, 0), (4, 3), (7, 3), (7, 8), (4, 8), (4, 4), (0, 4)], [CORE, *rooms])
    walls = build_walls(fp)
    with pytest.raises(Discard, match=r"^rooms \[1\] unreachable from the core$") as exc:
        place_doors(walls, len(rooms))
    assert exc.value.reason == "unreachable-room"


def fake_wall(index, orientation, length=40, room=1):
    p1 = Point2(0, 10 * index)
    p2 = Point2(length, 10 * index)
    return WallSegment(p1, p2, "exterior", orientation, (room,))


def test_window_south_wall_bin2():
    room = rect_from_metres(0, 4, 4, 8)
    fp = drawn_footprint([(0, 0), (4, 0), (4, 8), (0, 8)], [CORE, room])
    windows = generate_windows(build_walls(fp), BUILDING.window_table)
    south = [w for w in windows if w.wall.orientation == "S"]
    assert len(south) == 1
    win = south[0]
    assert (win.width, win.height, win.sill) == (18, 15, 9)
    assert win.offset == (40 - 18) // 2 == 11


def test_window_west_wall_bin1_south_offset():
    # Canonical p1 is the southern end for walls running along y.
    walls = [WallSegment(Point2(0, 0), Point2(0, 20), "exterior", "W", (1,))]
    wins = generate_windows(walls, BUILDING.window_table)
    assert len(wins) == 1
    assert (wins[0].width, wins[0].height, wins[0].sill) == (6, 12, 10)
    assert wins[0].offset == 3


def test_window_short_wall_skipped():
    walls = [WallSegment(Point2(0, 0), Point2(10, 0), "exterior", "S", (0,))]
    assert generate_windows(walls, BUILDING.window_table) == []


def prune_fixture(specs):
    """specs: list of (orientation, width) for windows all on room 1, in
    wall order."""
    return [
        Opening(fake_wall(i, orientation), "window", 1, width, 9, 14)
        for i, (orientation, width) in enumerate(specs)
    ]


def test_prune_rule_a_wide_window_wins():
    kept = prune_windows(prune_fixture([("S", 32), ("N", 10), ("W", 8)]))
    assert [o.width for o in kept] == [32]


def test_prune_rule_b_keep_widest_and_narrowest():
    kept = prune_windows(prune_fixture([("S", 24), ("N", 18), ("W", 12)]))
    assert sorted(o.width for o in kept) == [12, 24]


def test_prune_rule_c_only_north_south_remain():
    kept = prune_windows(prune_fixture([("W", 9), ("N", 8), ("S", 7)]))
    assert {o.wall.orientation for o in kept} == {"N", "S"}


def test_prune_single_window_untouched():
    assert len(prune_windows(prune_fixture([("S", 24)]))) == 1


def test_prune_two_small_windows_kept():
    assert len(prune_windows(prune_fixture([("W", 9), ("N", 8)]))) == 2


def test_prune_never_increases_and_keeps_doors():
    windows = prune_fixture([("S", 24), ("N", 18), ("W", 12)])
    kept = prune_windows(windows)
    assert len(kept) <= len(windows)
    assert all(o in windows for o in kept)
    # Doors never pass through the window filter: a plan keeps every door.
    room = rect_from_metres(4, 0, 8, 4)
    fp = drawn_footprint([(0, 0), (8, 0), (8, 4), (0, 4)], [CORE, room])
    plan = build_storey_plan(fp, BUILDING)
    doors = place_doors(plan.walls, 1)
    assert doors and all(door in plan.openings for door in doors)


def test_prune_tiebreak_deterministic():
    windows = prune_fixture([("S", 24), ("N", 24), ("W", 24)])
    kept1 = prune_windows(windows)
    kept2 = prune_windows(windows)
    assert kept1 == kept2
    # Equal widths: widest is the first window in wall order; narrowest is
    # the next one.
    assert kept1 == windows[:2]


def test_ns_windows_at_least_as_large_as_ew():
    table = BUILDING.window_table
    for ns, ew in zip(table.ns, table.ew):
        assert ns.width * ns.height >= ew.width * ew.height
