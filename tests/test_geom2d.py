"""Rectilinear kernel tests; derived expectations use a grid rasterizer
oracle independent of the kernel's own arithmetic."""

from functools import lru_cache

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from brepforge.errors import BrepForgeError, Discard, Rejected
from brepforge.geom2d import (
    Footprint,
    Point2,
    Rect,
    _contact_lengths,
    has_facing_gap,
    is_concave,
    overlaps,
    union_rect,
)
from brepforge.config import GeneratorConfig
from brepforge.records import to_units
from brepforge.grammar import grow
from brepforge.rng import SeededRng
from oracles import drawn_footprint, loop_area2, rect_from_metres, slab_partition, vertex_kind_counts

GRAMMAR = GeneratorConfig.build().grammar()
SQUARE = drawn_footprint([(0, 0), (4, 0), (4, 4), (0, 4)])
L_SHAPE = drawn_footprint([(0, 0), (6, 0), (6, 3), (3, 3), (3, 6), (0, 6)])


def area_m2(f: Footprint) -> float:
    """A footprint's area in m², from its tiles; the loop's shoelace area
    must agree."""
    units = sum(t.area_units for t in f.tiles)
    assert loop_area2(f.vertices) == 2 * units
    return units / 100.0


def raster_area_units(f: Footprint) -> int:
    """Oracle: count unit cells whose centre lies inside the loop."""
    bbox = f.bbox()
    count = 0
    for cx in range(bbox.x0, bbox.x1):
        for cy in range(bbox.y0, bbox.y1):
            # Cell centre (cx + .5, cy + .5); ray toward +x at half offset.
            crossings = 0
            for a, b in f.edges():
                if a.x != b.x:
                    continue
                lo, hi = sorted((a.y, b.y))
                if 2 * lo < 2 * cy + 1 < 2 * hi and 2 * a.x > 2 * cx + 1:
                    crossings += 1
            count += crossings % 2
    return count


def test_grid_snapping():
    assert to_units(2.4) == 24
    with pytest.raises(ValueError):
        to_units(2.45)


def test_area_unit_square():
    unit = drawn_footprint([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert area_m2(unit) == 1.0


def test_area_square_scaled():
    assert area_m2(SQUARE) == 16.0


def test_area_l_shape_two_rects():
    # Oracle: 6x3 plus 3x3 rectangles.
    assert area_m2(L_SHAPE) == 6 * 3 + 3 * 3
    assert raster_area_units(L_SHAPE) == 2700


def test_classify_rectangle_all_convex():
    for i in range(4):
        assert not is_concave(SQUARE, i)


def test_classify_l_reflex():
    reflex = L_SHAPE.vertices.index(Point2(30, 30))
    assert [is_concave(L_SHAPE, i) for i in range(6)] == [i == reflex for i in range(6)]


def test_classify_counts_match_identity():
    n = len(L_SHAPE.vertices)
    convex, concave = vertex_kind_counts(L_SHAPE)
    assert (convex, concave) == ((n + 4) // 2, (n - 4) // 2) == (5, 1)


def test_union_coplanar_merge():
    u = union_rect(SQUARE, rect_from_metres(4, 0, 8, 4))
    assert area_m2(u) == 32.0
    assert len(u.vertices) == 4


def test_union_partial_side_eight_vertices():
    r = rect_from_metres(4, 1, 7, 3)
    u = union_rect(SQUARE, r)
    assert len(u.vertices) == 8
    assert area_m2(u) == 22.0
    assert raster_area_units(u) == raster_area_units(SQUARE) + r.area_units


def test_union_area_additive_exact():
    r = rect_from_metres(4, 1, 7, 3)
    u = union_rect(SQUARE, r)
    assert abs(area_m2(u) - (area_m2(SQUARE) + r.area_m2)) <= 1e-9


def test_union_overlap_is_collision():
    with pytest.raises(Rejected, match=r"^rect Rect\(x0=30, y0=30, x1=60, y1=60\) overlaps footprint interior$") as info:
        union_rect(SQUARE, rect_from_metres(3, 3, 6, 6))
    assert info.value.cause == "collision"


def test_union_straddling_corner_rejected():
    with pytest.raises(Rejected, match=r"^partial contact on left side \(20 of 30 units\)$") as info:
        union_rect(SQUARE, rect_from_metres(4, 2, 7, 5))
    assert info.value.cause == "partial-contact"


def test_union_point_touch_rejected():
    with pytest.raises(Rejected, match="^rect does not share a boundary segment with footprint$") as info:
        union_rect(SQUARE, rect_from_metres(4, 4, 6, 6))
    assert info.value.cause == "no-contact"


def test_union_disjoint_rejected():
    with pytest.raises(Rejected, match="^rect does not share a boundary segment with footprint$") as info:
        union_rect(SQUARE, rect_from_metres(5, 0, 8, 4))
    assert info.value.cause == "no-contact"


SLIT = drawn_footprint(
    [(0, 0), (8, 0), (8, 4), (5, 4), (5, 3.7), (4.8, 3.7), (4.8, 4), (0, 4)]
)


def test_union_closes_narrow_slit():
    # The patch that closes the 0.2 m x 0.3 m slit.
    filled = union_rect(SLIT, rect_from_metres(4.8, 3.7, 5, 4))
    assert len(filled.vertices) == len(SLIT.vertices) - 4
    assert raster_area_units(filled) == raster_area_units(SLIT) + 2 * 3


def test_overlaps_edge_contact_false():
    assert not overlaps(SQUARE, rect_from_metres(4, 0, 6, 2))


def test_overlaps_interior_true():
    assert overlaps(SQUARE, rect_from_metres(3, 3, 6, 6))


def test_overlaps_disjoint_false():
    assert not overlaps(SQUARE, rect_from_metres(9, 9, 11, 11))


def test_overlaps_agrees_with_rasterization():
    rects = [
        rect_from_metres(1, 1, 2, 2),
        rect_from_metres(3, 2.9, 7, 5),
        rect_from_metres(5.9, 0, 9, 3),
        rect_from_metres(3, 3, 3.1, 3.1),
        rect_from_metres(-2, -2, 0, 6),
    ]
    for r in rects:
        expected = any(
            r.x0 <= cx < r.x1 and r.y0 <= cy < r.y1
            for cx in range(L_SHAPE.bbox().x0, L_SHAPE.bbox().x1)
            for cy in range(L_SHAPE.bbox().y0, L_SHAPE.bbox().y1)
            if raster_cell_inside(L_SHAPE, cx, cy)
        )
        assert overlaps(L_SHAPE, r) == expected, r


def raster_cell_inside(f: Footprint, cx: int, cy: int) -> bool:
    crossings = 0
    for a, b in f.edges():
        if a.x != b.x:
            continue
        lo, hi = sorted((a.y, b.y))
        if 2 * lo < 2 * cy + 1 < 2 * hi and 2 * a.x > 2 * cx + 1:
            crossings += 1
    return crossings % 2 == 1


def test_decompose_tiles_exactly():
    rects = slab_partition(L_SHAPE.vertices)
    assert sum(r.area_units for r in rects) * 2 == loop_area2(L_SHAPE.vertices)
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            assert not rects[i].interior_intersects(rects[j])


@lru_cache(maxsize=None)
def grown_snapshots(seed: int) -> tuple[Footprint, ...]:
    try:
        return grow(GRAMMAR, SeededRng(seed, seed)).snapshots
    except Discard as exc:
        assert exc.reason == "growth-failed"
        return ()


@st.composite
def footprint_and_rect(draw):
    """A grown storey footprint and a rectangle near it whose sides are often
    flush with the footprint's edge lines; half the rectangles sit against
    the outside of one edge, where contact and unions happen."""
    snapshots = grown_snapshots(draw(st.integers(0, 199)))
    assume(snapshots)
    f = draw(st.sampled_from(snapshots))

    def side_pair(pool):
        coord = st.one_of(st.sampled_from(pool), st.integers(pool[0] - 30, pool[-1] + 30))
        lo, hi = sorted((draw(coord), draw(coord)))
        assume(lo < hi)
        return lo, hi

    if not draw(st.booleans()):
        (x0, x1), (y0, y1) = (side_pair(sorted({p[k] for p in f.vertices})) for k in (0, 1))
        return f, Rect(x0, y0, x1, y1)
    a, b = draw(st.sampled_from(f.edges()))
    depth = draw(st.integers(1, 60))
    # The loop is counter-clockwise: an edge running +x has the outside below
    # it, one running +y has the outside to its right.
    if a.y == b.y:
        x0, x1 = side_pair(sorted((a.x, b.x)))
        y0, y1 = (a.y - depth, a.y) if b.x > a.x else (a.y, a.y + depth)
    else:
        y0, y1 = side_pair(sorted((a.y, b.y)))
        x0, x1 = (a.x, a.x + depth) if b.y > a.y else (a.x - depth, a.x)
    return f, Rect(x0, y0, x1, y1)


def grid_cells(*shapes):
    """(x, y, area) of the cells of the grid through every corner of the
    shapes.  No shape boundary crosses a cell, so the unit cell at a cell's
    lower-left corner decides membership for the whole cell."""
    xs, ys = set(), set()
    for shape in shapes:
        corners = shape.vertices if isinstance(shape, Footprint) else shape.corners()
        xs.update(p.x for p in corners)
        ys.update(p.y for p in corners)
    xs, ys = sorted(xs), sorted(ys)
    return [
        (x0, y0, (x1 - x0) * (y1 - y0))
        for x0, x1 in zip(xs, xs[1:])
        for y0, y1 in zip(ys, ys[1:])
    ]


def in_rect(r: Rect, x: int, y: int) -> bool:
    return r.x0 <= x < r.x1 and r.y0 <= y < r.y1


@settings(max_examples=300, deadline=None)
@given(footprint_and_rect())
def test_rect_predicates_match_cell_reference(case):
    f, r = case
    cells = grid_cells(f, r, *f.tiles)
    shared = sum(a for x, y, a in cells if in_rect(r, x, y) and raster_cell_inside(f, x, y))
    assert overlaps(f, r) == (shared > 0)
    covered = sum(
        max(0, min(t.x1, r.x1) - max(t.x0, r.x0)) * max(0, min(t.y1, r.y1) - max(t.y0, r.y0))
        for t in f.tiles
    )
    assert covered == shared

    # The tiles cover each cell inside f once and no cell outside it.
    for x, y, _ in cells:
        pieces = sum(in_rect(t, x, y) for t in f.tiles)
        assert pieces == raster_cell_inside(f, x, y)

    if shared:
        return
    # r's cells are all outside f, so a unit of r's side is f's boundary
    # exactly when the unit cell across it is inside f.
    ys = range(r.y0, r.y1)
    xs = range(r.x0, r.x1)
    assert _contact_lengths(f, r) == {
        "left": sum(raster_cell_inside(f, r.x0 - 1, y) for y in ys),
        "right": sum(raster_cell_inside(f, r.x1, y) for y in ys),
        "bottom": sum(raster_cell_inside(f, x, r.y0 - 1) for x in xs),
        "top": sum(raster_cell_inside(f, x, r.y1) for x in xs),
    }
    try:
        u = union_rect(f, r)
    except Rejected as exc:
        assert exc.cause != "collision"
        return
    assert loop_area2(u.vertices) == loop_area2(f.vertices) + 2 * r.area_units
    for x, y, _ in grid_cells(f, r, u):
        assert raster_cell_inside(u, x, y) == (raster_cell_inside(f, x, y) or in_rect(r, x, y))



def _reference_segments_cross(p1, p2, q1, q2) -> bool:
    """Interior crossing/overlap test for two axis-parallel segments."""
    v1 = p1.x == p2.x
    v2 = q1.x == q2.x
    if v1 != v2:
        vx, vy0, vy1 = (p1.x, *sorted((p1.y, p2.y))) if v1 else (q1.x, *sorted((q1.y, q2.y)))
        hy, hx0, hx1 = (q1.y, *sorted((q1.x, q2.x))) if v1 else (p1.y, *sorted((p1.x, p2.x)))
        # Endpoint contact is allowed; interior crossing is not.
        return hx0 < vx < hx1 and vy0 < hy < vy1
    if v1:
        if p1.x != q1.x:
            return False
        a0, a1 = sorted((p1.y, p2.y))
        b0, b1 = sorted((q1.y, q2.y))
    else:
        if p1.y != q1.y:
            return False
        a0, a1 = sorted((p1.x, p2.x))
        b0, b1 = sorted((q1.x, q2.x))
    return a0 < b1 and b0 < a1  # collinear overlap of positive length


def reference_is_simple(vertices) -> bool:
    """Oracle: no two edges of the loop cross or overlap, and no two
    non-adjacent edges share an endpoint (that would pinch the loop)."""
    vertices = tuple(Point2(*p) for p in vertices)
    edges = [(a, b) for a, b in zip(vertices, vertices[1:] + vertices[:1]) if a != b]
    n = len(edges)
    for i in range(n):
        for j in range(i + 1, n):
            adjacent = j == i + 1 or (i == 0 and j == n - 1)
            p1, p2 = edges[i]
            q1, q2 = edges[j]
            if _reference_segments_cross(p1, p2, q1, q2):
                return False
            if not adjacent and {p1, p2} & {q1, q2}:
                return False
    return True


def reference_clean(vertices) -> tuple[Point2, ...]:
    """Drop coincident/collinear vertices and normalize orientation to CCW."""
    pts = [Point2(*p) for p in vertices]
    if loop_area2(pts) < 0:
        pts.reverse()
    changed = True
    while changed:
        changed = False
        out: list[Point2] = []
        n = len(pts)
        for i in range(n):
            a, b, c = pts[(i - 1) % n], pts[i], pts[(i + 1) % n]
            if a == b:
                changed = True
                continue
            # A coincident successor is handled at its own index; dropping b
            # here as "collinear" would remove both copies.
            if b != c and ((a.x == b.x == c.x) or (a.y == b.y == c.y)):
                changed = True
                continue
            out.append(b)
        pts = out
        if len(pts) < 4:
            raise BrepForgeError("loop collapsed below 4 vertices during cleanup")
    return tuple(pts)


def reference_union_rect(f: Footprint, r: Rect) -> tuple[Point2, ...]:
    """Oracle: the union loop stitched from directed boundary edges.

    Edges of f and r cancel where the two loops traverse a shared segment
    in opposite directions; the survivors, cut at every breakpoint of
    their line, are stitched into one loop from the first survivor in the
    order lines are first met (f's edges, then r's sides), which is then
    cleaned.  Any pinch, second loop or area mismatch is a conflict.
    """
    if overlaps(f, r):
        raise Rejected("collision", f"rect {r} overlaps footprint interior")
    side_len = {"left": r.height, "right": r.height, "bottom": r.width, "top": r.width}
    contact = _contact_lengths(f, r)
    if all(c == 0 for c in contact.values()):
        raise Rejected("no-contact", "rect does not share a boundary segment with footprint")
    for name, c in contact.items():
        if c not in (0, side_len[name]):
            raise Rejected("partial-contact", f"partial contact on {name} side")

    lines: dict[tuple[str, int], list[tuple[int, int, int]]] = {}
    for a, b in f.edges() + Footprint.from_rect(r).edges():
        if a.x == b.x:
            lines.setdefault(("x", a.x), []).append((a.y, b.y, 1 if b.y > a.y else -1))
        else:
            lines.setdefault(("y", a.y), []).append((a.x, b.x, 1 if b.x > a.x else -1))

    segments: list[tuple[Point2, Point2]] = []
    for (axis, fixed), entries in lines.items():
        breaks = sorted({c for s, e, _ in entries for c in (s, e)})
        for lo, hi in zip(breaks, breaks[1:]):
            net = sum(d for s, e, d in entries if min(s, e) <= lo and hi <= max(s, e))
            if net == 0:
                continue
            if abs(net) > 1:
                raise Rejected("pinch", "union boundary is non-simple")
            a, b = (lo, hi) if net > 0 else (hi, lo)
            if axis == "x":
                segments.append((Point2(fixed, a), Point2(fixed, b)))
            else:
                segments.append((Point2(a, fixed), Point2(b, fixed)))

    outgoing: dict[Point2, Point2] = {}
    for a, b in segments:
        if a in outgoing:
            raise Rejected("pinch", f"union pinches at {a}")
        outgoing[a] = b
    start = segments[0][0]
    loop = [start]
    cur = outgoing[start]
    while cur != start:
        loop.append(cur)
        cur = outgoing.get(cur)
        if cur is None or len(loop) > len(segments):
            raise Rejected("hole", "union boundary does not close into one loop")
    if len(loop) != len(segments):
        raise Rejected("hole", "union produced more than one boundary loop")
    if not reference_is_simple(loop):
        raise BrepForgeError("stitched loop is not simple")
    result = reference_clean(loop)
    if not reference_is_simple(result):
        raise BrepForgeError("cleaned loop is not simple")
    if loop_area2(result) != loop_area2(f.vertices) + 2 * r.area_units:
        raise Rejected("pinch", "union area mismatch (shapes touch at a point?)")
    return result


# Unions from ``grow`` (seeds 0..299) that start on an edge running toward
# -x or -y: one with no corner strictly inside that edge, one with a corner
# of f inside it.
def slab_footprint(vertices) -> Footprint:
    return Footprint(tuple(Point2(*p) for p in vertices), slab_partition(vertices))


MINUS_CLEAR = (
    slab_footprint(
        ((-50, 0), (2, 0), (2, -44), (40, -44), (40, -7), (88, -7), (88, 40), (68, 40),
         (68, 85), (0, 85), (0, 67), (-16, 67), (-16, 93), (-59, 93), (-59, 43), (-50, 43))
    ),
    Rect(-50, -36, 2, 0),
)
MINUS_INSIDE = (
    slab_footprint(
        ((2, -36), (2, -44), (40, -44), (40, -7), (88, -7), (88, 40), (68, 40), (68, 85),
         (34, 85), (34, 130), (8, 130), (8, 85), (0, 85), (0, 67), (-16, 67), (-16, 93),
         (-59, 93), (-59, 43), (-50, 43), (-50, -36))
    ),
    Rect(2, -85, 30, -44),
)
PINCH_FOOTPRINT = slab_footprint(((0, 0), (30, 0), (30, 10), (10, 10), (10, 30), (20, 30), (20, 40), (0, 40)))
PINCH_RECT = Rect(20, 10, 30, 30)


# A U whose arms r joins part way up, closing the hole below it.
RING_FOOTPRINT = slab_footprint(((0, 0), (30, 0), (30, 30), (20, 30), (20, 10), (10, 10), (10, 30), (0, 30)))
RING_RECT = Rect(10, 20, 20, 30)


def test_union_enclosed_hole_rejected():
    with pytest.raises(Rejected, match="encloses a hole") as info:
        union_rect(RING_FOOTPRINT, RING_RECT)
    assert info.value.cause == "hole"


def test_union_pinched_hole_rejected():
    # r closes a hole whose corner touches the outside at (20, 30).
    with pytest.raises(Rejected, match="pinches") as info:
        union_rect(PINCH_FOOTPRINT, PINCH_RECT)
    assert info.value.cause == "pinch"


def outcome(fn, f, r):
    """The loop fn returns; for a rejection, whether it is a collision;
    for any other error, its class."""
    try:
        return tuple(fn(f, r))
    except Rejected as exc:
        return exc.cause == "collision"
    except BrepForgeError as exc:
        return type(exc)


@settings(max_examples=500, deadline=None)
@given(footprint_and_rect())
@example((PINCH_FOOTPRINT, PINCH_RECT))
@example((RING_FOOTPRINT, RING_RECT))
@example(MINUS_CLEAR)
@example(MINUS_INSIDE)
def test_union_rect_matches_reference(case):
    f, r = case
    want = outcome(reference_union_rect, f, r)
    got = outcome(lambda f, r: union_rect(f, r).vertices, f, r)
    # Same loop from the same first vertex, or the same kind of failure.
    assert got == want


@settings(max_examples=300, deadline=None)
@given(footprint_and_rect())
def test_union_rect_independent_of_tiling(case):
    # A grown footprint's tiles are its core and rooms; its loop's slab
    # partition tiles the same interior, so the union is the same loop.
    f, r = case
    slabbed = slab_footprint(f.vertices)
    got = outcome(lambda f, r: union_rect(f, r).vertices, f, r)
    assert got == outcome(lambda f, r: union_rect(f, r).vertices, slabbed, r)
    if isinstance(got, tuple):
        assert union_rect(f, r).tiles == f.tiles + (r,)


def reference_facing_gaps(f: Footprint, below: int) -> list[tuple[int, int, int]]:
    """Every facing pair as (edge a, edge b, gap), found by scanning every
    pair of edges: the O(n²) scan that `has_facing_gap` replaced."""
    edges = f.edges()
    # Outward normal of a CCW edge (dx, dy) is (sign(dy), -sign(dx)).
    out: list[tuple[int, int, int]] = []
    for i in range(len(edges)):
        a1, a2 = edges[i]
        for j in range(i + 1, len(edges)):
            b1, b2 = edges[j]
            if a1.x == a2.x and b1.x == b2.x:
                na = 1 if a2.y > a1.y else -1
                nb = 1 if b2.y > b1.y else -1
                # Facing: each normal points toward the other edge.
                gap = (b1.x - a1.x) * na
                if na == -nb and 0 < gap < below:
                    lo = max(min(a1.y, a2.y), min(b1.y, b2.y))
                    hi = min(max(a1.y, a2.y), max(b1.y, b2.y))
                    if lo < hi:
                        out.append((i, j, gap))
            elif a1.y == a2.y and b1.y == b2.y:
                na = -1 if a2.x > a1.x else 1
                nb = -1 if b2.x > b1.x else 1
                gap = (b1.y - a1.y) * na
                if na == -nb and 0 < gap < below:
                    lo = max(min(a1.x, a2.x), min(b1.x, b2.x))
                    hi = min(max(a1.x, a2.x), max(b1.x, b2.x))
                    if lo < hi:
                        out.append((i, j, gap))
    return out


# The grammar's sliver threshold, gaps of one and five units, a wide one,
# and one that takes every facing pair.
GAP_BOUNDS = sorted({1, GRAMMAR.min_exterior_gap, 5, 60, 10**9})


def test_facing_gaps_match_reference_on_grown_footprints():
    footprints = {f for seed in range(200) for f in grown_snapshots(seed)}
    found = 0
    for f in footprints:
        for below in GAP_BOUNDS:
            want = bool(reference_facing_gaps(f, below))
            assert has_facing_gap(f, below) == want
            found += want
    assert found > 0


@settings(max_examples=300, deadline=None)
@given(footprint_and_rect())
@example((SLIT, Rect(0, 0, 1, 1)))
def test_facing_gaps_match_reference(case):
    # The footprint and, where the rectangle joins it, the union, which can
    # hold the notches and slivers that growth rejects.
    f, r = case
    shapes = [f]
    try:
        shapes.append(union_rect(f, r))
    except BrepForgeError:
        pass
    for shape in shapes:
        for below in GAP_BOUNDS:
            assert has_facing_gap(shape, below) == bool(reference_facing_gaps(shape, below))
