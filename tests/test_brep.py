"""Kernel tests: Euler counts on fixtures, opening arithmetic, box unions,
watertight diagnostics, the geometric checks, triangulation conservation,
random box sets, `solid_from_boxes` against the cell-edge tracer and
scan-based weld it replaced, the batched triangulation against a
face-by-face reference and, array for array, against the lexsort
triangulation it replaced, and the mesh sampler's triangle areas against
`np.cross`."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from brepforge.brep import (
    FRAMES,
    BRepSolid,
    Box,
    TriMesh,
    drop_faces,
    geometry_problems,
    is_watertight,
    mesh_to_obj,
    solid_from_boxes,
    triangulate,
)
from brepforge.errors import BrepForgeError
from brepforge.regions import _distinct
from oracles import (
    SOLID_FIELDS,
    Face,
    Region,
    assert_same_solid,
    cross_areas,
    drawn_footprint,
    euler_characteristic,
    extrude_prism,
    faces_of,
    lexsort_triangulate,
    mesh_areas,
    loop_to_2d,
    rasterize_loops,
    scatter_geometry_problems,
    scatter_is_watertight,
    solid_of,
    total_face_area_m2,
    tuple_drop_faces,
    vertices_of,
)
from test_regions import reference_trace_region

UNIT_SQUARE = drawn_footprint([(0, 0), (1, 0), (1, 1), (0, 1)])
L_SHAPE = drawn_footprint([(0, 0), (6, 0), (6, 3), (3, 3), (3, 6), (0, 6)])


def edge_count(solid) -> int:
    edges = set()
    for f in faces_of(solid):
        for loop in f.loops():
            n = len(loop)
            for i in range(n):
                a, b = loop[i], loop[(i + 1) % n]
                edges.add((min(a, b), max(a, b)))
    return len(edges)


def mesh_closed(mesh) -> bool:
    """Oracle: every undirected triangle edge used exactly twice."""
    uses = {}
    for a, b, c in mesh.triangles:
        for p, q in ((a, b), (b, c), (c, a)):
            key = (min(p, q), max(p, q))
            uses[key] = uses.get(key, 0) + 1
    return all(v == 2 for v in uses.values())


def test_cube_topology():
    cube = extrude_prism(UNIT_SQUARE, 0, 10)
    assert len(faces_of(cube)) == 6
    assert len(vertices_of(cube)) == 8
    assert edge_count(cube) == 12
    assert len(vertices_of(cube)) - edge_count(cube) + len(faces_of(cube)) == 2
    assert is_watertight(cube)[0]


def test_l_prism_topology():
    prism = extrude_prism(L_SHAPE, 0, 30)
    assert len(faces_of(prism)) == 8
    assert len(vertices_of(prism)) == 12
    assert edge_count(prism) == 18
    assert len(vertices_of(prism)) - edge_count(prism) + len(faces_of(prism)) == 2
    assert euler_characteristic(triangulate(prism)) == 2


def test_holed_prism_genus_one():
    outer = drawn_footprint([(0, 0), (6, 0), (6, 6), (0, 6)])
    hole = drawn_footprint([(2, 2), (4, 2), (4, 4), (2, 4)])
    prism = extrude_prism(outer, 0, 30, holes=[hole])
    assert len(faces_of(prism)) == 10
    assert is_watertight(prism)[0]
    assert euler_characteristic(triangulate(prism)) == 0  # chi = 2 - 2g, g = 1


def test_extrude_degenerate_height():
    with pytest.raises(BrepForgeError, match=r"^height range \[5, 5\] is empty$"):
        extrude_prism(UNIT_SQUARE, 5, 5)


WALL = Box(0, 0, 0, 2, 40, 30)
DOOR = Box(0, 10, 5, 2, 19, 26)


def test_opening_face_arithmetic():
    cut = solid_from_boxes([WALL], [DOOR])
    assert len(faces_of(cut)) == 6 + 4
    holed = [f for f in faces_of(cut) if f.inner]
    assert len(holed) == 2
    assert all(len(f.inner) == 1 for f in holed)
    ok, _ = is_watertight(cut)
    assert ok


def test_opening_two_disjoint_windows():
    cut2 = solid_from_boxes([WALL], [DOOR, Box(0, 25, 8, 2, 33, 20)])
    assert len(faces_of(cut2)) == 6 + 8
    holed = [f for f in faces_of(cut2) if f.inner]
    assert sorted(len(f.inner) for f in holed) == [2, 2]
    assert is_watertight(cut2)[0]


def test_merge_stacked_cubes_single_box():
    merged = solid_from_boxes([Box(0, 0, 0, 10, 10, 10), Box(0, 0, 10, 10, 10, 20)])
    assert len(faces_of(merged)) == 6
    assert len(vertices_of(merged)) == 8
    assert is_watertight(merged)[0]


def test_merge_setback_terrace_watertight():
    merged = solid_from_boxes([Box(0, 0, 0, 20, 10, 10), Box(0, 0, 10, 10, 10, 20)])
    ok, problems = is_watertight(merged)
    assert ok, problems
    # The lower top face keeps an exposed remainder (the terrace).
    terrace = [f for f in faces_of(merged) if f.axis == 2 and f.offset == 10 and f.sign > 0]
    assert len(terrace) == 1


def _loop_area2(solid, face, loop) -> int:
    """Doubled signed area of a loop in the face's (u, v) frame."""
    ua, va = FRAMES[(face.axis, face.sign)]
    vertices = vertices_of(solid)
    pts = [(vertices[i][ua], vertices[i][va]) for i in loop]
    return sum(
        pts[i][0] * pts[(i + 1) % len(pts)][1] - pts[(i + 1) % len(pts)][0] * pts[i][1]
        for i in range(len(pts))
    )


def _divergence_volumes(solid) -> list[int]:
    """Volume as the flux of x_axis through the faces, once per axis.

    Outer loops are CCW and holes CW about the normal, so the signed loop
    areas of a face sum to its area.
    """
    flux2 = [0, 0, 0]
    for f in faces_of(solid):
        area2 = sum(_loop_area2(solid, f, loop) for loop in f.loops())
        flux2[f.axis] += f.sign * f.offset * area2
    return [v // 2 for v in flux2]


def _edge_pinched(mat: np.ndarray) -> bool:
    """Two cells meet along an edge with both other cells around it empty."""
    padded = np.pad(mat, 1)
    for axes in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        m = padded.transpose(axes)
        a, b, c, d = m[:-1, :-1], m[1:, :-1], m[:-1, 1:], m[1:, 1:]
        if ((a & d & ~b & ~c) | (b & c & ~a & ~d)).any():
            return True
    return False


GRID = 6
SPAN = st.integers(0, GRID - 1).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, GRID)))
BOXES = st.builds(lambda x, y, z: Box(x[0], y[0], z[0], x[1], y[1], z[1]), SPAN, SPAN, SPAN)
BOX_SETS = (st.lists(BOXES, min_size=1, max_size=4), st.lists(BOXES, max_size=3))


@settings(max_examples=150, deadline=None)
@given(*BOX_SETS)
def test_random_boxes_closed_with_cell_count_volume(positive, negative):
    mat = np.zeros((GRID, GRID, GRID), dtype=bool)
    for boxes, value in ((positive, True), (negative, False)):
        for b in boxes:
            mat[b.x0:b.x1, b.y0:b.y1, b.z0:b.z1] = value
    if not mat.any():
        with pytest.raises(BrepForgeError, match="^material is empty after subtraction$"):
            solid_from_boxes(positive, negative)
        return
    solid = solid_from_boxes(positive, negative)
    assert _divergence_volumes(solid) == [int(mat.sum())] * 3
    assert geometry_problems(solid) == []
    # Cells that meet only along an edge make that edge non-manifold (four
    # face uses); every other cell set has a closed, edge-manifold boundary.
    ok, problems = is_watertight(solid)
    assert ok != _edge_pinched(mat), problems[:3]


def _loop_to_3d(loop2d, axis, offset, sign):
    ua, va = FRAMES[(axis, sign)]
    out = []
    for u, v in loop2d:
        p = [0, 0, 0]
        p[axis], p[ua], p[va] = offset, u, v
        out.append(tuple(p))
    return out


def reference_finalize(raw_faces) -> BRepSolid:
    """Weld by a sorted point set, split each loop edge at every vertex found
    by scanning its whole grid line, rotate loops to their smallest id."""
    loops3d = []
    points = set()
    for axis, offset, sign, outer, holes in raw_faces:
        o3 = _loop_to_3d(outer, axis, offset, sign)
        h3 = [_loop_to_3d(h, axis, offset, sign) for h in holes]
        loops3d.append((axis, offset, sign, o3, h3))
        for loop in (o3, *h3):
            points.update(loop)
    lines = {}
    for x, y, z in points:
        lines.setdefault((0, y, z), []).append(x)
        lines.setdefault((1, x, z), []).append(y)
        lines.setdefault((2, x, y), []).append(z)
    for positions in lines.values():
        positions.sort()

    def split_loop(loop):
        out = []
        for i, a in enumerate(loop):
            b = loop[(i + 1) % len(loop)]
            out.append(a)
            (ax,) = [k for k in range(3) if a[k] != b[k]]
            key = (ax, *[a[k] for k in range(3) if k != ax])
            lo, hi = sorted((a[ax], b[ax]))
            between = [t for t in lines[key] if lo < t < hi]
            if a[ax] > b[ax]:
                between.reverse()
            for t in between:
                p = list(a)
                p[ax] = t
                out.append(tuple(p))
        return out

    def rotate_min(loop):
        k = loop.index(min(loop))
        return loop[k:] + loop[:k]

    vertices = sorted(points)
    vid = {p: i for i, p in enumerate(vertices)}
    faces = []
    for axis, offset, sign, o3, h3 in loops3d:
        outer = rotate_min(tuple(vid[p] for p in split_loop(o3)))
        inner = tuple(sorted(rotate_min(tuple(vid[p] for p in split_loop(h))) for h in h3))
        faces.append(Face(axis, offset, sign, outer, inner))
    faces.sort(key=lambda f: (f.axis, f.offset, f.sign, f.outer))
    return solid_of(vertices, faces)


def reference_solid_from_boxes(positive, negative) -> BRepSolid:
    """Plane by plane: face masks from the cell layers on either side, traced
    with the cell-edge tracer, welded with `reference_finalize`."""
    boxes = list(positive) + list(negative)
    axes_pts = [_distinct(np.array([b[k] for b in boxes for k in (a, a + 3)], dtype=np.int64)) for a in range(3)]
    mat = np.zeros([len(pts) - 1 for pts in axes_pts], dtype=bool)
    for box_set, value in ((positive, True), (negative, False)):
        for b in box_set:
            lo = [int(np.searchsorted(axes_pts[a], b[a])) for a in range(3)]
            hi = [int(np.searchsorted(axes_pts[a], b[a + 3])) for a in range(3)]
            mat[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = value
    if not mat.any():
        raise BrepForgeError("material is empty after subtraction")
    raw = []
    for axis in range(3):
        others = [a for a in range(3) if a != axis]
        n = mat.shape[axis]
        empty = np.zeros([mat.shape[a] for a in others], dtype=bool)
        for i in range(n + 1):
            below = np.take(mat, i - 1, axis=axis) if i > 0 else empty
            above = np.take(mat, i, axis=axis) if i < n else empty
            for sign, mask in ((+1, below & ~above), (-1, above & ~below)):
                ua, va = FRAMES[(axis, sign)]
                m = mask if (ua, va) == tuple(others) else mask.T
                for outer, holes in reference_trace_region(Region(axes_pts[ua], axes_pts[va], m)):
                    raw.append((axis, int(axes_pts[axis][i]), sign, outer, holes))
    return reference_finalize(raw)


@settings(max_examples=150, deadline=None)
@given(*BOX_SETS)
def test_random_boxes_like_reference_kernel(positive, negative):
    try:
        want = reference_solid_from_boxes(positive, negative)
    except BrepForgeError:
        with pytest.raises(BrepForgeError, match="^material is empty after subtraction$"):
            solid_from_boxes(positive, negative)
        return
    solid = solid_from_boxes(positive, negative)
    assert_same_solid(solid, want)


def test_face_hole_touching_outer_loop_at_a_vertex():
    # A 3 x 3 slab less its (2, 2) corner cell, with a unit box on its middle
    # cell: on the slab's top face the box's footprint is a hole that touches
    # the notch at (2, 2, 1), so the face is one loop through that vertex
    # twice.
    positive = [Box(0, 0, 0, 3, 2, 1), Box(0, 2, 0, 2, 3, 1), Box(1, 1, 1, 2, 2, 2)]
    solid = solid_from_boxes(positive)
    (top,) = [f for f in faces_of(solid) if (f.axis, f.offset, f.sign) == (2, 1, +1)]
    assert top.inner == ()
    pinch = vertices_of(solid).index((2, 2, 1))
    assert top.outer.count(pinch) == 2 and len(set(top.outer)) == len(top.outer) - 1
    assert_same_solid(solid, reference_solid_from_boxes(positive, []))
    assert is_watertight(solid) == (True, [])


def test_geometry_problems_flag_off_plane_and_bad_edges():
    cube = extrude_prism(UNIT_SQUARE, 0, 10)
    assert geometry_problems(cube) == []
    # Vertex 0 is the corner (0, 0, 0); lift it off the z = 0 plane.
    moved = solid_of(((0, 0, 50),) + vertices_of(cube)[1:], faces_of(cube))
    problems = geometry_problems(moved)
    assert any(p.endswith("vertex 0 is not on the face's plane") for p in problems)
    assert any(p.endswith("is not axis-parallel") for p in problems)
    assert is_watertight(moved)[0]  # edge pairing alone cannot see it
    f = faces_of(cube)[0]
    doubled = Face(f.axis, f.offset, f.sign, f.outer[:1] + f.outer)
    problems = geometry_problems(solid_of(vertices_of(cube), (doubled,) + faces_of(cube)[1:]))
    assert problems == [f"face 0: edge {f.outer[0]}-{f.outer[0]} has zero length"]


def test_geometry_problems_flag_misoriented_loops():
    cube = extrude_prism(UNIT_SQUARE, 0, 10)
    flipped = solid_of(vertices_of(cube), tuple(Face(f.axis, f.offset, -f.sign, f.outer) for f in faces_of(cube)))
    assert is_watertight(flipped)[0]
    assert geometry_problems(flipped) == [
        f"face {i}: outer loop is not counter-clockwise about its normal" for i in range(6)
    ]
    inside_out = solid_of(
        vertices_of(cube), tuple(Face(f.axis, f.offset, -f.sign, f.outer[::-1]) for f in faces_of(cube))
    )
    assert is_watertight(inside_out)[0]
    assert geometry_problems(inside_out) == ["solid encloses no positive volume"]
    outer = drawn_footprint([(0, 0), (6, 0), (6, 6), (0, 6)])
    hole = drawn_footprint([(2, 2), (4, 2), (4, 4), (2, 4)])
    ring = extrude_prism(outer, 0, 10, holes=[hole])
    assert geometry_problems(ring) == []
    k, f = next((k, f) for k, f in enumerate(faces_of(ring)) if f.inner)
    bad = Face(f.axis, f.offset, f.sign, f.outer, tuple(h[::-1] for h in f.inner))
    faces = faces_of(ring)[:k] + (bad,) + faces_of(ring)[k + 1 :]
    problems = geometry_problems(solid_of(vertices_of(ring), faces))
    assert problems == [f"face {k}: hole is not clockwise about its normal"]


def reference_triangulate(solid) -> TriMesh:
    """Face-by-face, cell-by-cell triangulation: each face rasterized on the
    solid's breakpoint grid, two triangles per filled cell in `np.argwhere`
    order, vertices numbered in the order quad corners first reach them."""
    coords, vertices = solid.coords, vertices_of(solid)
    axes_pts = [np.unique(coords[:, a]) for a in range(3)]
    vid, verts, tris = {}, [], []

    def vertex(p) -> int:
        if p not in vid:
            vid[p] = len(verts)
            verts.append(p)
        return vid[p]

    for f in faces_of(solid):
        ua, va = FRAMES[(f.axis, f.sign)]
        loops = [loop_to_2d([vertices[i] for i in loop], f.axis, f.sign) for loop in f.loops()]
        region = rasterize_loops(loops, axes_pts[ua], axes_pts[va])
        us, vs = region.us, region.vs
        for iu, iv in np.argwhere(region.mask):
            quad = []
            for u, v in ((us[iu], vs[iv]), (us[iu + 1], vs[iv]), (us[iu + 1], vs[iv + 1]), (us[iu], vs[iv + 1])):
                p = [0, 0, 0]
                p[f.axis], p[ua], p[va] = f.offset, int(u), int(v)
                quad.append(vertex(tuple(p)))
            tris += [(quad[0], quad[1], quad[2]), (quad[0], quad[2], quad[3])]
    return TriMesh(np.asarray(verts, dtype=np.float64) / 10.0, np.asarray(tris, dtype=np.int64))


@settings(max_examples=150, deadline=None)
@given(*BOX_SETS)
def test_random_boxes_triangulate_like_reference(positive, negative):
    try:
        solid = solid_from_boxes(positive, negative)
    except BrepForgeError:
        assume(False)
    mesh, ref = triangulate(solid), reference_triangulate(solid)
    for got, want in ((mesh.vertices, ref.vertices), (mesh.triangles, ref.triangles)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    face_area = total_face_area_m2(solid)
    assert abs(mesh_areas(mesh).sum() - face_area) <= 1e-9 * face_area
    if is_watertight(solid)[0]:
        assert mesh_closed(mesh)


def reference_is_watertight(solid) -> tuple[bool, list[str]]:
    """Loop-by-loop edge count in a dict, problems in the order found."""
    uses = {}
    problems = []
    for fi, f in enumerate(faces_of(solid)):
        for loop in f.loops():
            n = len(loop)
            if n < 4:
                problems.append(f"face {fi}: loop with {n} < 4 vertices")
            for i in range(n):
                a, b = loop[i], loop[(i + 1) % n]
                if a == b:
                    problems.append(f"face {fi}: degenerate edge at vertex {a}")
                    continue
                key = (a, b) if a < b else (b, a)
                uses.setdefault(key, []).append(1 if a < b else -1)
    for (a, b), dirs in uses.items():
        if len(dirs) != 2:
            problems.append(f"edge {a}-{b} used {len(dirs)} times")
        elif dirs[0] + dirs[1] != 0:
            problems.append(f"edge {a}-{b} traversed twice in the same direction")
    if not faces_of(solid):
        problems.append("solid has no faces")
    return (not problems), problems


@settings(max_examples=100, deadline=None)
@given(*BOX_SETS, st.data())
def test_is_watertight_like_reference(positive, negative, data):
    try:
        solid = solid_from_boxes(positive, negative)
    except BrepForgeError:
        assume(False)
    n = len(faces_of(solid))
    dropped = drop_faces(solid, data.draw(st.lists(st.integers(0, n - 1), max_size=n)))
    faces = list(faces_of(solid))
    for i in data.draw(st.lists(st.integers(0, n - 1), max_size=3)):
        f = faces[i]
        # A repeated vertex (degenerate edge), a short loop, or a reversed loop.
        outer = data.draw(st.sampled_from([f.outer[:1] + f.outer, f.outer[:3], f.outer[::-1]]))
        faces[i] = Face(f.axis, f.offset, f.sign, outer, f.inner)
    broken = solid_of(vertices_of(solid), tuple(faces))
    for s in (solid, dropped, broken, solid_of(vertices_of(solid), ())):
        assert is_watertight(s) == reference_is_watertight(s)


COORD = st.integers(-12, 12)


@st.composite
def box_solids(draw):
    """Solids of up to three boxes minus up to two, with coordinates on both
    sides of zero; about half have a hole through the first box, so some
    faces have inner loops."""

    def box(min_side=1):
        corner = [draw(COORD) for _ in range(3)]
        return Box(*corner, *(c + draw(st.integers(min_side, 6)) for c in corner))

    positive = [box(3)] + [box() for _ in range(draw(st.integers(0, 2)))]
    negative = [box() for _ in range(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        first, axis = positive[0], draw(st.integers(0, 2))
        lo, hi = [c + 1 for c in first[:3]], [c - 1 for c in first[3:]]
        lo[axis], hi[axis] = lo[axis] - 2, hi[axis] + 2
        negative.append(Box(*lo, *hi))
    try:
        return solid_from_boxes(positive, negative)
    except BrepForgeError:
        assume(False)


MUTATIONS = ("reverse loop", "move vertex", "drop face", "flip sign", "duplicate vertex", "empty loop")


@settings(max_examples=300, deadline=None)
@given(box_solids(), st.sampled_from(MUTATIONS), st.data())
def test_checks_like_scatter_reference_on_mutants(solid, mutation, data):
    """One mutation of a box solid; the checks on the shared loop-edge table
    give what the scatter-add versions give, problem for problem."""
    faces, vertices = list(faces_of(solid)), list(vertices_of(solid))
    i = data.draw(st.integers(0, len(faces) - 1))
    f = faces[i]
    loops = [f.outer, *f.inner]
    j = data.draw(st.integers(0, len(loops) - 1))
    loop = loops[j]
    if mutation == "reverse loop":
        loops[j] = loop[::-1]
    elif mutation == "move vertex":
        v, axis = data.draw(st.sampled_from(loop)), data.draw(st.integers(0, 2))
        moved = list(vertices[v])
        moved[axis] += data.draw(st.sampled_from([-2, -1, 1, 2]))
        vertices[v] = tuple(moved)
    elif mutation == "drop face":
        del faces[i]
    elif mutation == "flip sign":
        faces[i] = f._replace(sign=-f.sign)
    elif mutation == "duplicate vertex":
        k = data.draw(st.integers(0, len(loop) - 1))
        loops[j] = loop[: k + 1] + loop[k:]
    else:
        loops[j] = ()
    if mutation in ("reverse loop", "duplicate vertex", "empty loop"):
        faces[i] = f._replace(outer=loops[0], inner=tuple(loops[1:]))
    for s in (solid, solid_of(tuple(vertices), tuple(faces), solid.label)):
        assert is_watertight(s) == scatter_is_watertight(s)
        assert geometry_problems(s) == scatter_geometry_problems(s)


@settings(max_examples=200, deadline=None)
@given(box_solids(), st.data())
def test_drop_faces_like_tuple_reference(solid, data):
    n = len(solid.axis)
    dropped = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
    label = data.draw(st.sampled_from([None, "DEFECT"]))
    assert_same_solid(drop_faces(solid, dropped, label), tuple_drop_faces(solid, dropped, label))


def test_solid_arrays_are_read_only():
    cube = extrude_prism(UNIT_SQUARE, 0, 10)
    for name in SOLID_FIELDS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(cube, name)[0] = 1


TRIANGULATE_MUTATIONS = ("none", "drop faces", "empty loop", "short loop", "off-plane offset", "far vertex")


@settings(max_examples=300, deadline=None)
@given(box_solids(), st.sampled_from(TRIANGULATE_MUTATIONS), st.data())
def test_triangulate_like_lexsort_reference(solid, mutation, data):
    """`triangulate` gives the arrays, dtypes included, of the lexsort
    triangulation it replaced, on box solids, copies with faces dropped, and
    broken solids that the reference triangulates."""
    faces, vertices = list(faces_of(solid)), list(vertices_of(solid))
    i = data.draw(st.integers(0, len(faces) - 1))
    f = faces[i]
    if mutation == "drop faces":
        solid = drop_faces(solid, data.draw(st.lists(st.integers(0, len(faces) - 1), max_size=len(faces))))
    elif mutation in ("empty loop", "short loop"):
        keep = 0 if mutation == "empty loop" else data.draw(st.integers(1, 3))
        faces[i] = f._replace(outer=f.outer[:keep])
    elif mutation == "off-plane offset":
        faces[i] = f._replace(offset=f.offset + data.draw(st.sampled_from([-7, -1, 1, 2, 50])))
    elif mutation == "far vertex":
        v, axis = data.draw(st.integers(0, len(vertices) - 1)), data.draw(st.integers(0, 2))
        far = list(vertices[v])
        far[axis] += data.draw(st.sampled_from([-(10**12), -1000, 1000, 10**15]))
        vertices[v] = tuple(far)
    if mutation not in ("none", "drop faces"):
        solid = solid_of(tuple(vertices), tuple(faces))
    try:
        want = lexsort_triangulate(solid)
    except Exception:
        assume(False)
    got = triangulate(solid)
    for g, w in ((got.vertices, want.vertices), (got.triangles, want.triangles)):
        assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)


FLOATS = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def float_meshes(draw):
    vertices = draw(hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.just(3)), elements=FLOATS))
    triangles = draw(hnp.arrays(np.int64, st.tuples(st.integers(0, 30), st.just(3)), elements=st.integers(0, len(vertices) - 1)))
    return TriMesh(vertices, triangles)


@settings(max_examples=300, deadline=None)
@given(float_meshes())
def test_areas_match_cross_product_formula_bit_for_bit(mesh):
    with np.errstate(all="ignore"):  # huge coordinates overflow to inf and nan in both
        got, want = mesh_areas(mesh), cross_areas(mesh)
    assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_watertight_cube_true():
    ok, problems = is_watertight(extrude_prism(UNIT_SQUARE, 0, 10))
    assert ok and not problems


def test_watertight_open_box_reports_boundary():
    cube = extrude_prism(UNIT_SQUARE, 0, 10)
    open_box = drop_faces(cube, [0])
    ok, problems = is_watertight(open_box)
    assert not ok
    assert len(problems) == 4  # the removed face's perimeter edges


def test_triangulate_cube_counts_and_area():
    cube = extrude_prism(UNIT_SQUARE, 0, 10)
    mesh = triangulate(cube)
    assert len(mesh.triangles) == 12
    assert abs(mesh_areas(mesh).sum() - 6.0) <= 1e-12
    assert mesh_closed(mesh)
    assert euler_characteristic(mesh) == 2


def test_triangulate_holed_face_area_conservation():
    outer = drawn_footprint([(0, 0), (6, 0), (6, 6), (0, 6)])
    hole = drawn_footprint([(2, 2), (4, 2), (4, 4), (2, 4)])
    prism = extrude_prism(outer, 0, 30, holes=[hole])
    mesh = triangulate(prism)
    face_area = total_face_area_m2(prism)
    assert abs(mesh_areas(mesh).sum() - face_area) <= 1e-6 * face_area
    assert mesh_closed(mesh)


def test_triangulate_open_shell_not_closed():
    cube = extrude_prism(UNIT_SQUARE, 0, 10)
    mesh = triangulate(drop_faces(cube, [2]))
    assert not mesh_closed(mesh)


def test_obj_export_format():
    cube = extrude_prism(UNIT_SQUARE, 0, 10)
    text = mesh_to_obj(triangulate(cube))
    lines = text.splitlines()
    assert text.endswith("\n") and "\r" not in text
    v_lines = [l for l in lines if l.startswith("v ")]
    f_lines = [l for l in lines if l.startswith("f ")]
    assert len(v_lines) == 8 and len(f_lines) == 12
    indices = [int(tok) for l in f_lines for tok in l.split()[1:]]
    assert min(indices) == 1 and max(indices) == 8
    coords = [float(tok) for l in v_lines for tok in l.split()[1:]]
    assert len(coords) == 24 and set(coords) == {0.0, 1.0}
