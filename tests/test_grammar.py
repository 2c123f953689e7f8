"""Grammar tests: productions against hand-traced fixtures, growth
determinism, and footprint invariants over a seed sweep."""

import pytest

from brepforge.config import GeneratorConfig
from brepforge.errors import ConflictError, GrowthFailedError, ProductionInfeasibleError
from brepforge.geom2d import (
    Footprint,
    Point2,
    Rect,
    polygon_area,
    union_rect,
)
from brepforge.grammar import (
    Termination,
    expand_concave,
    expand_convex,
    grow,
)
from brepforge.rng import SeededRng
from oracles import drawn_footprint, vertex_kind_counts
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
    assert polygon_area(grown) == 36.0
    assert len(grown.vertices) == 4


def test_concave_caps_sides_at_adjacent_edges():
    reflex = L_SHAPE.vertices.index(Point2(30, 30))
    rect = expand_concave(L_SHAPE, reflex, StubRng(ints=[55, 42]), CONFIG)
    assert rect == Rect(30, 30, 60, 60)  # both capped at 3 m edges


def test_concave_infeasible_short_edge():
    # Reflex corner whose outgoing edge is 2.0 m (< 2.4 minimum).
    shape = drawn_footprint([(0, 0), (6, 0), (6, 3), (3, 3), (3, 5), (0, 5)])
    reflex = shape.vertices.index(Point2(30, 30))
    with pytest.raises(ProductionInfeasibleError):
        expand_concave(shape, reflex, StubRng(ints=[30, 30]), CONFIG)


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
    assert polygon_area(grown) == 25.0


def test_convex_midpoint_anchor_straddles_and_union_rejects():
    corner = SQUARE.vertices.index(Point2(40, 40))
    rect = expand_convex(SQUARE, corner, StubRng(ints=[30, 30], coins=[True]), CONFIG)
    assert rect == Rect(40, 20, 70, 50)
    with pytest.raises(ConflictError):
        union_rect(SQUARE, rect)


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
        except GrowthFailedError:
            continue
        assert a == b


def test_snapshot_footprint_invariants_1000_seeds():
    core_area2 = 2 * CONFIG.core_tube.area_units
    traced = 0
    for seed in range(1000):
        try:
            trace = grow(CONFIG, SeededRng(seed, seed))
        except GrowthFailedError:
            continue
        traced += 1
        rooms = trace.snapshots[-1].tiles[1:]
        assert 2 <= len(rooms) <= 10
        for k, snap in enumerate(trace.snapshots):
            # A simple counter-clockwise loop of corners only (Footprint
            # construction checks axis-parallel edges), and the corner
            # identity.
            assert reference_is_simple(snap.vertices)
            v = snap.vertices
            n = len(v)
            for i in range(n):
                a, b, c = v[i - 1], v[i], v[(i + 1) % n]
                assert (b.x - a.x) * (c.y - b.y) != (b.y - a.y) * (c.x - b.x)
            assert snap.area_units2() > 0
            assert n % 2 == 0 and n >= 4
            convex, concave = vertex_kind_counts(snap)
            assert convex == (n + 4) // 2 and concave == (n - 4) // 2
            # Exact area additivity: snapshot = core + first k+1 rooms.
            expected = core_area2 + 2 * sum(r.area_units for r in rooms[: k + 1])
            assert snap.area_units2() == expected
    assert traced > 900


def test_snapshot_monotone_containment():
    for seed in range(150):
        try:
            trace = grow(CONFIG, SeededRng(seed, seed))
        except GrowthFailedError:
            continue
        previous = Footprint.from_rect(CONFIG.core_tube)
        assert previous.tiles == (CONFIG.core_tube,)
        for snap in trace.snapshots:
            # Snapshot k's tiles are snapshot k-1's and then room k, and
            # they tile it: their areas sum to its area.
            room = snap.tiles[-1]
            assert snap.tiles == previous.tiles + (room,)
            assert snap.area_units2() > previous.area_units2()
            assert snap.area_units2() - previous.area_units2() == 2 * room.area_units
            assert snap.area_units2() == 2 * sum(t.area_units for t in snap.tiles)
            previous = snap


def test_grow_failure_below_two_rooms():
    seeds_failed = 0
    for seed in range(400):
        try:
            grow(CONFIG, SeededRng(seed, seed))
        except GrowthFailedError:
            seeds_failed += 1
    assert seeds_failed > 0  # the discard path is reachable
