"""Rectilinear kernel tests; derived expectations use a grid rasterizer
oracle independent of the kernel's own arithmetic."""

from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from brepforge.errors import (
    CollisionError,
    ConflictError,
    GrowthFailedError,
    InvalidFootprintError,
    MustCleanFirstError,
)
from brepforge.geom2d import (
    Footprint,
    Point2,
    Rect,
    VertexKind,
    _contact_lengths,
    classify_vertex,
    clean,
    fill_notches,
    overlaps,
    polygon_area,
    to_metres,
    to_units,
    union_rect,
    vertex_kind_counts,
)
from brepforge.grammar import GrammarConfig, grow
from brepforge.rng import SeededRng

SQUARE = Footprint.from_metres([(0, 0), (4, 0), (4, 4), (0, 4)])
L_SHAPE = Footprint.from_metres([(0, 0), (6, 0), (6, 3), (3, 3), (3, 6), (0, 6)])


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
    assert to_metres(24) == 2.4
    with pytest.raises(ValueError):
        to_units(2.45)


def test_area_unit_square():
    unit = Footprint.from_metres([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert polygon_area(unit) == 1.0


def test_area_square_scaled():
    assert polygon_area(SQUARE) == 16.0


def test_area_l_shape_two_rects():
    # Oracle: 6x3 plus 3x3 rectangles.
    assert polygon_area(L_SHAPE) == 6 * 3 + 3 * 3
    assert raster_area_units(L_SHAPE) == 2700


def test_degenerate_loop_rejected():
    with pytest.raises(InvalidFootprintError):
        Footprint(tuple([Point2(0, 0), Point2(10, 0), Point2(10, 10)]))


def test_classify_rectangle_all_convex():
    for i in range(4):
        assert classify_vertex(SQUARE, i) is VertexKind.CONVEX


def test_classify_l_reflex():
    reflex = L_SHAPE.vertices.index(Point2(30, 30))
    assert classify_vertex(L_SHAPE, reflex) is VertexKind.CONCAVE


def test_classify_counts_match_identity():
    n = len(L_SHAPE.vertices)
    convex, concave = vertex_kind_counts(L_SHAPE)
    assert (convex, concave) == ((n + 4) // 2, (n - 4) // 2) == (5, 1)


def test_classify_requires_clean():
    messy = Footprint.from_metres([(0, 0), (2, 0), (4, 0), (4, 4), (0, 4)])
    with pytest.raises(MustCleanFirstError):
        classify_vertex(messy, 1)


def test_union_coplanar_merge():
    u = union_rect(SQUARE, Rect.from_metres(4, 0, 8, 4))
    assert polygon_area(u) == 32.0
    assert len(u.vertices) == 4


def test_union_partial_side_eight_vertices():
    r = Rect.from_metres(4, 1, 7, 3)
    u = union_rect(SQUARE, r)
    assert len(u.vertices) == 8
    assert polygon_area(u) == 22.0
    assert raster_area_units(u) == raster_area_units(SQUARE) + r.area_units


def test_union_area_additive_exact():
    r = Rect.from_metres(4, 1, 7, 3)
    u = union_rect(SQUARE, r)
    assert abs(polygon_area(u) - (polygon_area(SQUARE) + r.area_m2)) <= 1e-9


def test_union_overlap_is_collision():
    with pytest.raises(CollisionError):
        union_rect(SQUARE, Rect.from_metres(3, 3, 6, 6))


def test_union_straddling_corner_rejected():
    with pytest.raises(ConflictError):
        union_rect(SQUARE, Rect.from_metres(4, 2, 7, 5))


def test_union_point_touch_rejected():
    with pytest.raises(ConflictError):
        union_rect(SQUARE, Rect.from_metres(4, 4, 6, 6))


def test_union_disjoint_rejected():
    with pytest.raises(ConflictError):
        union_rect(SQUARE, Rect.from_metres(5, 0, 8, 4))


def test_clean_collinear_midpoint():
    messy = Footprint.from_metres([(0, 0), (2, 0), (4, 0), (4, 4), (0, 4)])
    assert clean(messy).vertices == SQUARE.vertices


def test_clean_duplicate_vertex():
    messy = Footprint(
        (Point2(0, 0), Point2(40, 0), Point2(40, 0), Point2(40, 40), Point2(0, 40))
    )
    assert clean(messy).vertices == SQUARE.vertices


def test_clean_idempotent():
    assert clean(clean(L_SHAPE)).vertices == clean(L_SHAPE).vertices == L_SHAPE.vertices


def test_clean_collapse_error():
    line = Footprint(
        (Point2(0, 0), Point2(10, 0), Point2(20, 0), Point2(20, 10), Point2(0, 10))
    )
    # Removing the midpoint keeps 4 vertices; collapsing further must raise.
    slab = clean(line)
    assert len(slab.vertices) == 4
    with pytest.raises(InvalidFootprintError):
        clean(Footprint((Point2(0, 0), Point2(10, 0), Point2(10, 1), Point2(10, 0))))


SLIT = Footprint.from_metres(
    [(0, 0), (8, 0), (8, 4), (5, 4), (5, 3.7), (4.8, 3.7), (4.8, 4), (0, 4)]
)


def test_fill_notch_narrow_slit():
    filled = fill_notches(SLIT, to_units(0.5))
    assert len(filled.vertices) == len(SLIT.vertices) - 4
    assert raster_area_units(filled) == raster_area_units(SLIT) + 2 * 3


def test_fill_notch_square_noop():
    assert fill_notches(SQUARE, 5).vertices == SQUARE.vertices


def test_fill_notch_wide_slit_untouched():
    wide = Footprint.from_metres(
        [(0, 0), (8, 0), (8, 4), (5, 4), (5, 3.7), (4.2, 3.7), (4.2, 4), (0, 4)]
    )
    assert fill_notches(wide, 5).vertices == wide.vertices


def test_overlaps_edge_contact_false():
    assert not overlaps(SQUARE, Rect.from_metres(4, 0, 6, 2))


def test_overlaps_interior_true():
    assert overlaps(SQUARE, Rect.from_metres(3, 3, 6, 6))


def test_overlaps_disjoint_false():
    assert not overlaps(SQUARE, Rect.from_metres(9, 9, 11, 11))


def test_overlaps_agrees_with_rasterization():
    rects = [
        Rect.from_metres(1, 1, 2, 2),
        Rect.from_metres(3, 2.9, 7, 5),
        Rect.from_metres(5.9, 0, 9, 3),
        Rect.from_metres(3, 3, 3.1, 3.1),
        Rect.from_metres(-2, -2, 0, 6),
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
    rects = L_SHAPE.rects
    assert sum(r.area_units for r in rects) * 2 == L_SHAPE.area_units2()
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            assert not rects[i].interior_intersects(rects[j])


@lru_cache(maxsize=None)
def grown_snapshots(seed: int) -> tuple[Footprint, ...]:
    try:
        return grow(GrammarConfig(), SeededRng(seed, seed)).snapshots
    except GrowthFailedError:
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
    cells = grid_cells(f, r)
    shared = sum(a for x, y, a in cells if in_rect(r, x, y) and raster_cell_inside(f, x, y))
    assert overlaps(f, r) == (shared > 0)
    assert f.contains_rect(r) == (shared == r.area_units)

    for x, y, _ in cells:
        pieces = sum(in_rect(p, x, y) for p in f.rects)
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
    except ConflictError:
        return
    assert u.area_units2() == f.area_units2() + 2 * r.area_units
    for x, y, _ in grid_cells(f, r, u):
        assert raster_cell_inside(u, x, y) == (raster_cell_inside(f, x, y) or in_rect(r, x, y))

