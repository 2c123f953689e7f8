"""Grammar tests: productions against hand-traced fixtures, growth
determinism, footprint invariants and rejection causes over a seed sweep."""

from collections import Counter

import pytest

from brepforge import grammar
from brepforge.config import GeneratorConfig
from brepforge.errors import Discard, Rejected
from brepforge.geom2d import Footprint, Point2, Rect, union_rect
from brepforge.grammar import (
    Termination,
    expand_concave,
    expand_convex,
    grow,
)
from brepforge.rng import SeededRng
from oracles import drawn_footprint, loop_area2, vertex_kind_counts
from test_geom2d import reference_is_simple

CONFIG = GeneratorConfig.build().grammar()
SQUARE = drawn_footprint([(0, 0), (4, 0), (4, 4), (0, 4)])
L_SHAPE = drawn_footprint([(0, 0), (6, 0), (6, 3), (3, 3), (3, 6), (0, 6)])


class StubRng:
    """Feeds a fixed draw script through the SeededRng interface."""

    def __init__(self, ints=(), coins=()):
        self.ints = list(ints)
        self.coins = list(coins)
        self.stream = 0
        self.seed = 0

    def uniform_int(self, lo, hi):
        return self.ints.pop(0)

    def uniform_index(self, n):
        return self.ints.pop(0) % n

    def coin(self):
        return self.coins.pop(0)

    def unit_float(self):
        return 0.5


def test_concave_fills_notch_exactly():
    reflex = L_SHAPE.vertices.index(Point2(30, 30))
    rect = expand_concave(L_SHAPE, reflex, StubRng(ints=[30, 30]), CONFIG)
    assert rect == Rect(30, 30, 60, 60)
    grown = union_rect(L_SHAPE, rect)
    assert loop_area2(grown.vertices) == 2 * 3600
    assert len(grown.vertices) == 4


def test_concave_caps_sides_at_adjacent_edges():
    reflex = L_SHAPE.vertices.index(Point2(30, 30))
    rect = expand_concave(L_SHAPE, reflex, StubRng(ints=[55, 42]), CONFIG)
    assert rect == Rect(30, 30, 60, 60)  # both capped at 3 m edges


def test_concave_infeasible_short_edge():
    # Reflex corner whose outgoing edge is 2.0 m (< 2.4 minimum).
    shape = drawn_footprint([(0, 0), (6, 0), (6, 3), (3, 3), (3, 5), (0, 5)])
    reflex = shape.vertices.index(Point2(30, 30))
    with pytest.raises(Rejected, match="^adjacent edges 30x20 cannot host a room side >= 24$") as info:
        expand_concave(shape, reflex, StubRng(ints=[30, 30]), CONFIG)
    assert info.value.cause == "infeasible"


def test_concave_deterministic():
    reflex = L_SHAPE.vertices.index(Point2(30, 30))
    a = expand_concave(L_SHAPE, reflex, SeededRng(3, 3), CONFIG)
    b = expand_concave(L_SHAPE, reflex, SeededRng(3, 3), CONFIG)
    assert a == b


def test_convex_corner_anchor():
    corner = SQUARE.vertices.index(Point2(40, 40))
    rect = expand_convex(SQUARE, corner, StubRng(ints=[30, 30], coins=[False]), CONFIG)
    assert rect == Rect(40, 10, 70, 40)
    grown = union_rect(SQUARE, rect)
    assert loop_area2(grown.vertices) == 2 * 2500


def test_convex_midpoint_anchor_straddles_and_union_rejects():
    corner = SQUARE.vertices.index(Point2(40, 40))
    rect = expand_convex(SQUARE, corner, StubRng(ints=[30, 30], coins=[True]), CONFIG)
    assert rect == Rect(40, 20, 70, 50)
    with pytest.raises(Rejected, match=r"^partial contact on left side \(20 of 30 units\)$") as info:
        union_rect(SQUARE, rect)
    assert info.value.cause == "partial-contact"


def test_convex_deterministic():
    corner = SQUARE.vertices.index(Point2(40, 40))
    a = expand_convex(SQUARE, corner, SeededRng(9, 9), CONFIG)
    b = expand_convex(SQUARE, corner, SeededRng(9, 9), CONFIG)
    assert a == b


def test_grow_cap_termination():
    trace = grow(CONFIG, SeededRng(0, 0))
    assert trace.terminated_by is Termination.CAP
    assert len(trace.snapshots[-1].tiles[1:]) == 10
    assert len(trace.snapshots) == 10


def test_grow_collision_at_sixth_rectangle():
    trace = grow(CONFIG, SeededRng(7, 7))
    assert trace.terminated_by is Termination.COLLISION
    assert len(trace.snapshots[-1].tiles[1:]) == 5
    assert len(trace.snapshots) == 5


def test_grow_deterministic_across_seeds():
    for seed in range(100):
        try:
            a = grow(CONFIG, SeededRng(seed, seed))
            b = grow(CONFIG, SeededRng(seed, seed))
        except Discard as exc:
            assert exc.reason == "growth-failed"
            continue
        assert a == b


def check_snapshot_invariants(seeds) -> int:
    """Assert the footprint invariants on every snapshot of the streams;
    returns how many streams grew."""
    core_area2 = 2 * CONFIG.core_tube.area_units
    traced = 0
    for seed in seeds:
        try:
            trace = grow(CONFIG, SeededRng(seed, seed))
        except Discard as exc:
            assert exc.reason == "growth-failed"
            continue
        traced += 1
        rooms = trace.snapshots[-1].tiles[1:]
        # `grow` alone discards a growth of fewer than two rooms, so every
        # building `assemble` stacks has at least two storeys.
        assert 2 <= len(rooms) <= 10
        # The concave production's cap never cuts a side below the minimum.
        for r in rooms:
            assert CONFIG.room_side_min <= min(r.width, r.height)
            assert max(r.width, r.height) <= CONFIG.room_side_max
        for k, snap in enumerate(trace.snapshots):
            # A simple counter-clockwise loop of corners only, every edge
            # axis-parallel and of positive length, and the corner identity.
            # Nothing checks these at run time: this test and
            # test_geom2d::test_union_rect_matches_reference hold them.
            assert reference_is_simple(snap.vertices)
            v = snap.vertices
            n = len(v)
            for i in range(n):
                a, b, c = v[i - 1], v[i], v[(i + 1) % n]
                assert a != b and (a.x == b.x or a.y == b.y)
                assert (b.x - a.x) * (c.y - b.y) != (b.y - a.y) * (c.x - b.x)
            assert loop_area2(v) > 0
            assert n % 2 == 0 and n >= 4
            convex, concave = vertex_kind_counts(snap)
            assert convex == (n + 4) // 2 and concave == (n - 4) // 2
            # Exact area additivity: snapshot = core + first k+1 rooms.
            expected = core_area2 + 2 * sum(r.area_units for r in rooms[: k + 1])
            assert loop_area2(v) == expected
    return traced


def test_snapshot_footprint_invariants_1000_seeds():
    assert check_snapshot_invariants(range(1000)) > 900


def test_snapshot_monotone_containment():
    for seed in range(150):
        try:
            trace = grow(CONFIG, SeededRng(seed, seed))
        except Discard as exc:
            assert exc.reason == "growth-failed"
            continue
        previous = Footprint.from_rect(CONFIG.core_tube)
        assert previous.tiles == (CONFIG.core_tube,)
        for snap in trace.snapshots:
            # Snapshot k's tiles are snapshot k-1's and then room k, and
            # they tile it: their areas sum to its area.
            room = snap.tiles[-1]
            assert snap.tiles == previous.tiles + (room,)
            assert loop_area2(snap.vertices) > loop_area2(previous.vertices)
            assert loop_area2(snap.vertices) - loop_area2(previous.vertices) == 2 * room.area_units
            assert loop_area2(snap.vertices) == 2 * sum(t.area_units for t in snap.tiles)
            previous = snap


def test_grow_failure_below_two_rooms():
    seeds_failed = 0
    for seed in range(400):
        try:
            grow(CONFIG, SeededRng(seed, seed))
        except Discard as exc:
            assert exc.reason == "growth-failed"
            seeds_failed += 1
    assert seeds_failed > 0  # the discard path is reachable


def test_rejection_causes_over_1000_streams(monkeypatch):
    # Every production `grow` throws away over streams 0..999, by cause.
    causes = Counter()
    produce = grammar.try_production

    def counted(*args):
        try:
            return produce(*args)
        except Rejected as exc:
            causes[exc.cause] += 1
            raise

    monkeypatch.setattr(grammar, "try_production", counted)
    for seed in range(1000):
        try:
            grow(CONFIG, SeededRng(seed, seed))
        except Discard:
            pass
    assert causes == {"partial-contact": 9305, "infeasible": 3700, "collision": 1181, "sliver": 133}
