"""Helpers that only tests call: a tuple view of a solid's faces and
vertices, the solid built from such tuples, a field-by-field solid
comparison, the tuple `drop_faces` that `brep.drop_faces` is checked
against, the run-walking tracer of one mask that
`regions.trace_planes` is checked against, prism extrusion, the parity fill
of rectilinear loops, face areas from that fill, the Euler characteristic
of a triangle mesh, corner counts of a footprint, rectangles given in
metres, the slab partition that tiles a hand-drawn footprint loop, the dict form of a solid that
`dataset.solid_json` is checked against, the scatter-add versions
of `brep.is_watertight` and `brep.geometry_problems` they are checked
against, the references `brep.triangulate` and `BRepSolid.envelope` are
checked against (the lexsort triangulation and the ray-parity envelope
test), and the mesh sampler `mltasks.sample_points` is checked against,
with its componentwise triangle areas and their `np.cross` reference."""

from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from brepforge.brep import AXIS_NAMES, FRAMES, BRepSolid, Box, TriMesh, _frames, solid_from_boxes
from brepforge.errors import BrepForgeError
from brepforge.geom2d import Footprint, Point2, Rect, is_concave
from brepforge.mltasks import UNIT_CUBE, UNIT_SPHERE, PointCloud
from brepforge.records import to_units
from brepforge.regions import _distinct, expand
from brepforge.rng import SeededRng

# A loop of (u, v) grid corners.
Loop = list[tuple[int, int]]


class Face(NamedTuple):
    """One face of a solid as tuples: outer loop counter-clockwise about
    the outward normal, holes clockwise."""

    axis: int
    offset: int
    sign: int
    outer: tuple[int, ...]
    inner: tuple[tuple[int, ...], ...] = ()

    @property
    def normal_name(self) -> str:
        return ("+" if self.sign > 0 else "-") + AXIS_NAMES[self.axis]

    def loops(self):
        yield self.outer
        yield from self.inner


def vertices_of(solid: BRepSolid) -> tuple[tuple[int, int, int], ...]:
    return tuple(map(tuple, solid.coords.tolist()))


def faces_of(solid: BRepSolid) -> tuple[Face, ...]:
    """The solid's faces in order, each its first loop as the outer one and
    the rest as holes."""
    ids, bounds = solid.ids.tolist(), np.cumsum(solid.lens).tolist()
    loops: list[list] = [[] for _ in range(len(solid.axis))]
    for f, a, b in zip(solid.loop_face.tolist(), [0] + bounds[:-1], bounds):
        loops[f].append(tuple(ids[a:b]))
    planes = zip(solid.axis.tolist(), solid.offset.tolist(), solid.sign.tolist())
    return tuple(Face(*plane, f[0], tuple(f[1:])) for plane, f in zip(planes, loops))


def solid_of(vertices, faces: Sequence[Face], label: str = "GOOD") -> BRepSolid:
    """The solid with these vertices and faces, through the constructor
    `dataset.solid_from_dict` uses."""
    loops = [loop for f in faces for loop in f.loops()]
    return BRepSolid(
        np.array(vertices, dtype=np.int64).reshape(-1, 3),
        list(chain.from_iterable(loops)),
        [len(loop) for loop in loops],
        np.repeat(np.arange(len(faces)), [1 + len(f.inner) for f in faces]),
        [f.axis for f in faces],
        [f.offset for f in faces],
        [f.sign for f in faces],
        label,
    )


SOLID_FIELDS = ("coords", "ids", "lens", "loop_face", "axis", "offset", "sign")


def assert_same_solid(got: BRepSolid, want: BRepSolid) -> None:
    """Array for array, dtypes and shapes included, and the same label."""
    for name in SOLID_FIELDS:
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w), name
    assert got.label == want.label


def tuple_drop_faces(solid: BRepSolid, indices: Iterable[int], label: str | None = None) -> BRepSolid:
    """`brep.drop_faces` on tuples, as it was: the kept faces' vertex ids
    remapped through a dict to their places among the used ids."""
    drop = set(indices)
    kept = [f for i, f in enumerate(faces_of(solid)) if i not in drop]
    used = sorted({i for f in kept for loop in f.loops() for i in loop})
    remap = {old: new for new, old in enumerate(used)}
    faces = []
    for f in kept:
        outer, *inner = (tuple(remap[i] for i in loop) for loop in f.loops())
        faces.append(Face(f.axis, f.offset, f.sign, outer, tuple(inner)))
    vertices = vertices_of(solid)
    return solid_of([vertices[i] for i in used], faces, label if label is not None else solid.label)


class Region:
    """Filled cells on the grid us × vs (breakpoints in grid units)."""

    __slots__ = ("us", "vs", "mask")

    def __init__(self, us: np.ndarray, vs: np.ndarray, mask: np.ndarray):
        self.us = us
        self.vs = vs
        self.mask = mask


def point_in_loop(p2u: int, p2v: int, loop: Loop) -> bool:
    """Parity test for a doubled-coordinate query point."""
    inside = False
    n = len(loop)
    for i in range(n):
        (u1, v1), (u2, v2) = loop[i], loop[(i + 1) % n]
        if u1 != u2:
            continue
        if (2 * v1 > p2v) != (2 * v2 > p2v) and 2 * u1 > p2u:
            inside = not inside
    return inside


def loop_to_2d(coords, axis: int, sign: int):
    ua, va = FRAMES[(axis, sign)]
    return [(p[ua], p[va]) for p in coords]


def loop_area2(loop: Loop) -> int:
    total = 0
    n = len(loop)
    for i in range(n):
        (x1, y1), (x2, y2) = loop[i], loop[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total


def _runs(d: np.ndarray):
    """Maximal runs of one non-zero value along the rows of ``d``, whose first
    and last columns are zero.

    Column c of ``d`` holds cell c - 1, so the lattice vertex between cells
    c - 1 and c is c.  Yields per run its row, the vertices where it begins
    and ends, its value, and whether another run ends or begins at each of
    those two vertices (a pinch).
    """
    flat = d.ravel()
    p = np.flatnonzero(flat[1:] != flat[:-1])
    width = d.shape[1]
    begin = pinched = 0
    for pos, before, after in zip(p.tolist(), flat[p].tolist(), flat[p + 1].tolist()):
        if before:
            row, col = divmod(pos, width)
            yield row, begin, col, before, pinched, after != 0
        if after:
            begin, pinched = pos % width, before != 0


def trace_region(region: Region) -> list[tuple[Loop, list[Loop]]]:
    """Boundary loops of the region as (outer, holes) groups.

    Directed boundary edges keep the region on the left, so outer loops come
    out counter-clockwise and holes clockwise.  Pinch vertices (diagonal
    cell contact) are resolved by preferring the sharpest left turn, which
    splits the contact into separate simple loops.

    Edges are traced as runs: maximal straight stretches of cell edges
    between two corners, found with one diff per axis, so the walk only
    visits corners.  Loops come out in the order, and from the vertex, of a
    walk over single cell edges started at the smallest non-pinch lattice
    vertex of each loop: the first corner at or after it begins the loop.
    """
    mask = region.mask
    if not mask.any():
        return []
    nu, nv = mask.shape
    cells = np.zeros((nu + 2, nv + 2), dtype=np.int8)
    cells[1:-1, 1:-1] = mask
    us, vs = region.us.tolist(), region.vs.tolist()
    w = nv + 1  # vertex (i, j) has key i * w + j, ordered like (i, j)
    pinch_last = w * (nu + 1)  # sorts loops of pinch corners after the rest

    # Per run: its start corner, its key (start vertex * 4 + direction, the
    # directions +u, +v, -u, -v counter-clockwise), the keys of the runs
    # that would turn left and right at its end, and where a cell-edge walk
    # would have begun its loop: at the run's smallest non-pinch lattice
    # vertex.  That is the start of a +u or +v run from a non-pinch vertex;
    # else the vertex one cell in from the run's low end, if the run is
    # longer than one cell, and the loop then begins at the next corner;
    # else nowhere on this run.
    corner, key, left, right, first, shift = [], [], [], [], [], []

    def run(si, sj, s, e, d, start_pinch, length, step):
        corner.append((us[si], vs[sj]))
        key.append(s * 4 + d)
        left.append(e * 4 + (d + 1) % 4)
        right.append(e * 4 + (d + 3) % 4)
        if d < 2 and not start_pinch:
            first.append(s), shift.append(False)
        elif length > 1:
            first.append(min(s, e) + step), shift.append(True)
        else:
            first.append(s + start_pinch * pinch_last), shift.append(False)

    # Region on the left: +v along right sides and -v along left sides of
    # cells (lines u = us[i]), +u along bottoms and -u along tops (v = vs[j]).
    for i, a, b, value, pa, pb in _runs(cells[1:] - cells[:-1]):
        if value < 0:
            run(i, a, i * w + a, i * w + b, 1, pa, b - a, 1)
        else:
            run(i, b, i * w + b, i * w + a, 3, pb, b - a, 1)
    for j, a, b, value, pa, pb in _runs(cells.T[1:] - cells.T[:-1]):
        if value > 0:
            run(a, j, a * w + j, b * w + j, 0, pa, b - a, w)
        else:
            run(b, j, b * w + j, a * w + j, 2, pb, b - a, w)

    # The next run turns left at the end vertex if a run leaves it that way,
    # else right: only a pinch has both, and there the sharpest left turn
    # wins.
    at = {k: r for r, k in enumerate(key)}
    succ = [at[rk] if (s := at.get(lk)) is None else s for lk, rk in zip(left, right)]
    seen = [False] * len(key)
    loops: list[tuple[Loop, int]] = []
    for r in sorted(range(len(key)), key=first.__getitem__):
        if shift[r]:
            r = succ[r]
        if seen[r]:
            continue
        loop: Loop = []
        while not seen[r]:
            seen[r] = True
            loop.append(corner[r])
            r = succ[r]
        loops.append((loop, loop_area2(loop)))

    outers = [(lp, area2) for lp, area2 in loops if area2 > 0]
    holes = [lp for lp, area2 in loops if area2 < 0]
    groups: list[tuple[Loop, list[Loop]]] = [(lp, []) for lp, _ in outers]
    for hole in holes:
        (u1, v1), (u2, v2) = hole[0], hole[1]
        m2u, m2v = u1 + u2, v1 + v2
        # Offset half a unit to the right of travel (into the hole void).
        du, dv = (u2 - u1 and (1 if u2 > u1 else -1)), (v2 - v1 and (1 if v2 > v1 else -1))
        p2u, p2v = m2u + dv, m2v - du
        best = None
        for gi, (outer, area2) in enumerate(outers):
            if point_in_loop(p2u, p2v, outer):
                if best is None or area2 < outers[best][1]:
                    best = gi
        if best is None:
            raise ValueError("hole loop not contained in any outer loop")
        groups[best][1].append(hole)
    return groups


def slab_partition(vertices) -> tuple[Rect, ...]:
    """Partition of the interior of a simple axis-parallel loop into
    horizontal slab rectangles, bottom to top and left to right: between
    each two consecutive vertex heights, the spans between the vertical
    edges crossed at mid-height, paired off from the left."""
    vertices = [Point2(*p) for p in vertices]
    edges = [(a, b) for a, b in zip(vertices, vertices[1:] + vertices[:1]) if a != b]
    ys = sorted({p.y for p in vertices})
    verticals = [(a.x, *sorted((2 * a.y, 2 * b.y))) for a, b in edges if a.x == b.x]
    rects: list[Rect] = []
    for y_lo, y_hi in zip(ys, ys[1:]):
        y2 = y_lo + y_hi  # 2 * midpoint, exact
        crossings = sorted(x for x, lo, hi in verticals if lo < y2 < hi)
        for x_lo, x_hi in zip(crossings[::2], crossings[1::2]):
            rects.append(Rect(x_lo, y_lo, x_hi, y_hi))
    return tuple(rects)


def rect_from_metres(x0: float, y0: float, x1: float, y1: float) -> Rect:
    return Rect(to_units(x0), to_units(y0), to_units(x1), to_units(y1))


def drawn_footprint(coords, tiles: Sequence[Rect] | None = None) -> Footprint:
    """A hand-drawn footprint from (x, y) corners in metres, tiled by
    ``tiles`` when given (the core, then the rooms) and else by the loop's
    slab partition."""
    vertices = tuple(Point2(to_units(x), to_units(y)) for x, y in coords)
    return Footprint(vertices, tuple(tiles) if tiles is not None else slab_partition(vertices))


def extrude_prism(outer: Footprint, z0: int, z1: int, holes: Sequence[Footprint] = ()) -> BRepSolid:
    """Closed prism over a rectilinear polygon (optionally with holes),
    built from the footprints' tiles."""
    if z1 <= z0:
        raise BrepForgeError(f"height range [{z0}, {z1}] is empty")
    pos = [Box(r.x0, r.y0, z0, r.x1, r.y1, z1) for r in outer.tiles]
    neg = [Box(r.x0, r.y0, z0, r.x1, r.y1, z1) for h in holes for r in h.tiles]
    return solid_from_boxes(pos, neg)


def rasterize_loops(loops: list[Loop], us: np.ndarray, vs: np.ndarray) -> Region:
    """Parity-fill the loops (any orientation; holes come out empty)."""
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    region = Region(us, vs, np.zeros((len(us) - 1, len(vs) - 1), dtype=bool))
    verticals: list[tuple[int, int, int]] = []
    for loop in loops:
        n = len(loop)
        for i in range(n):
            (u1, v1), (u2, v2) = loop[i], loop[(i + 1) % n]
            if u1 == u2 and v1 != v2:
                verticals.append((u1, min(v1, v2), max(v1, v2)))
    if not verticals:
        return region
    for j in range(len(vs) - 1):
        v2mid = int(vs[j]) + int(vs[j + 1])  # doubled midline
        crossings = sorted(u for u, vlo, vhi in verticals if 2 * vlo < v2mid < 2 * vhi)
        for u_lo, u_hi in zip(crossings[::2], crossings[1::2]):
            iu0 = int(np.searchsorted(us, u_lo))
            iu1 = int(np.searchsorted(us, u_hi))
            region.mask[iu0:iu1, j] = True
    return region


def area_units(region: Region) -> int:
    cell = np.outer(np.diff(region.us), np.diff(region.vs))
    return int(cell[region.mask].sum())


def total_face_area_m2(solid: BRepSolid) -> float:
    total = 0
    vertices = vertices_of(solid)
    for f in faces_of(solid):
        loops2d = [loop_to_2d([vertices[i] for i in loop], f.axis, f.sign) for loop in f.loops()]
        corners = np.array([p for lp in loops2d for p in lp], dtype=np.int64)
        us, vs = _distinct(corners[:, 0]), _distinct(corners[:, 1])
        total += area_units(rasterize_loops(loops2d, us, vs))
    return total / 100.0


def euler_characteristic(mesh: TriMesh) -> int:
    v = len(mesh.vertices)
    f = len(mesh.triangles)
    edges = set()
    for a, b, c in mesh.triangles:
        for p, q in ((a, b), (b, c), (c, a)):
            edges.add((min(p, q), max(p, q)))
    return v - len(edges) + f


def vertex_kind_counts(f: Footprint) -> tuple[int, int]:
    """(convex, concave) counts over the corner-only loop."""
    n = len(f.vertices)
    concave = sum(is_concave(f, i) for i in range(n))
    return n - concave, concave


def solid_to_dict(solid: BRepSolid, building_id: str) -> dict:
    """The `.brep.json` content as a dict; `canonical_json` of it gives the
    bytes `dataset.solid_json` writes."""
    faces = []
    for f in faces_of(solid):
        entry = {
            "plane": {"normal": f.normal_name, "offset": f.offset / 10.0},
            "outer": list(f.outer),
        }
        if f.inner:
            entry["inner"] = [list(h) for h in f.inner]
        faces.append(entry)
    return {
        "id": building_id,
        "units": "m",
        "vertices": [[x / 10.0, y / 10.0, z / 10.0] for x, y, z in vertices_of(solid)],
        "faces": faces,
        "label": solid.label,
    }


def _loop_edges(faces):
    """Every loop edge of every face, loop by loop: the vertex ids at its
    start and end and the index of its face; then per loop its face and
    its number of edges."""
    loops = [loop for f in faces for loop in (f.outer, *f.inner)]
    loop_face = np.repeat(np.arange(len(faces)), [1 + len(f.inner) for f in faces])
    lens = np.fromiter(map(len, loops), np.int64, len(loops))
    ids = np.fromiter(chain.from_iterable(loops), np.int64, int(lens.sum()))
    first = np.cumsum(lens) - lens
    nxt = np.arange(1, len(ids) + 1)
    closed = lens > 0
    nxt[(first + lens - 1)[closed]] = first[closed]
    return ids, ids[nxt], np.repeat(loop_face, lens), loop_face, lens


def scatter_is_watertight(solid: BRepSolid) -> tuple[bool, list[str]]:
    """`brep.is_watertight` on a loop-edge table of its own, with each edge's
    balance scattered by `np.add.at`."""
    faces = faces_of(solid)
    start, end, face, loop_face, lens = _loop_edges(faces)
    short = lens < 4
    found = [
        (at, 0, f"face {f}: loop with {n} < 4 vertices")
        for at, f, n in zip((np.cumsum(lens) - lens)[short].tolist(), loop_face[short].tolist(), lens[short].tolist())
    ]
    found += [
        (k, 1, f"face {face[k]}: degenerate edge at vertex {start[k]}")
        for k in np.flatnonzero(start == end).tolist()
    ]
    problems = [msg for *_, msg in sorted(found)]

    a, b = start[start != end], end[start != end]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    key = lo * (int(hi.max(initial=0)) + 1) + hi
    _, first_use, edge, uses = np.unique(key, return_index=True, return_inverse=True, return_counts=True)
    balance = np.zeros(len(uses), dtype=np.int64)
    np.add.at(balance, edge, np.where(a < b, 1, -1))
    bad = np.flatnonzero((uses != 2) | (balance != 0))
    for e in bad[np.argsort(first_use[bad])].tolist():
        k = int(first_use[e])
        if uses[e] != 2:
            problems.append(f"edge {int(lo[k])}-{int(hi[k])} used {int(uses[e])} times")
        else:
            problems.append(f"edge {int(lo[k])}-{int(hi[k])} traversed twice in the same direction")
    if not faces:
        problems.append("solid has no faces")
    return (not problems), problems


def scatter_geometry_problems(solid: BRepSolid) -> list[str]:
    """`brep.geometry_problems` on a loop-edge table of its own, with per-face
    frames from `FRAMES` and each loop's area scattered by `np.add.at`."""
    faces = faces_of(solid)
    coords = np.array(vertices_of(solid), dtype=np.int64).reshape(-1, 3)
    start, end, face, loop_face, lens = _loop_edges(faces)
    face_axis, face_offset, face_sign, face_ua, face_va = np.array(
        [(f.axis, f.offset, f.sign, *FRAMES[(f.axis, f.sign)]) for f in faces], dtype=np.int64
    ).reshape(-1, 5).T
    axis, offset = face_axis[face], face_offset[face]
    a, b = coords[start], coords[end]
    off_plane = a[np.arange(len(a)), axis] != offset
    moves = np.count_nonzero(a != b, axis=1)
    bad = moves != 1
    problems = [
        f"face {f}: vertex {v} is not on the face's plane"
        for f, v in zip(face[off_plane].tolist(), start[off_plane].tolist())
    ]
    problems += [
        f"face {f}: edge {p}-{q} " + ("has zero length" if m == 0 else "is not axis-parallel")
        for f, p, q, m in zip(face[bad].tolist(), start[bad].tolist(), end[bad].tolist(), moves[bad].tolist())
    ]
    k = np.arange(len(a))
    ua, va = face_ua[face], face_va[face]
    cross = a[k, ua] * b[k, va] - b[k, ua] * a[k, va]
    loop = np.repeat(np.arange(len(lens)), lens)
    area2 = np.zeros(len(lens), dtype=np.int64)
    np.add.at(area2, loop, cross)
    outer = np.ones(len(lens), dtype=bool)
    outer[1:] = loop_face[1:] != loop_face[:-1]
    wrong = np.flatnonzero(np.where(outer, area2 <= 0, area2 >= 0))
    problems += [
        f"face {f}: " + ("outer loop is not counter-clockwise" if o else "hole is not clockwise") + " about its normal"
        for f, o in zip(loop_face[wrong].tolist(), outer[wrong].tolist())
    ]
    sign = face_sign[loop_face]
    if faces and int((sign * face_offset[loop_face] * area2).sum()) <= 0:
        problems.append("solid encloses no positive volume")
    return problems


def _grid_index(grids, axis: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Position of each value in ``np.concatenate(grids)``, looked up in the
    part that holds ``grids[axis[k]]``; the values lie on those grids."""
    out = np.empty(len(values), dtype=np.int64)
    base = 0
    for a in range(3):
        on = axis == a
        out[on] = base + np.searchsorted(grids[a], values[on])
        base += len(grids[a])
    return out


def lexsort_triangulate(solid: BRepSolid) -> TriMesh:
    """`brep.triangulate` as it was before the shared face-cell fill:
    crossings and cells ordered by three-key `np.lexsort`s, a cells × 4 × 3
    corner array, one `searchsorted` per corner and axis, and `np.unique`
    for the first-sight vertex numbering."""
    if not len(solid.axis):
        raise BrepForgeError("solid has no faces")
    coords = solid.coords
    axes_pts = [_distinct(coords[:, a]) for a in range(3)]
    start, end, edge_face = solid.edges
    face_axis, face_offset, face_sign = solid.axis, solid.offset, solid.sign
    face_ua, face_va = _frames(face_axis, face_sign)
    ua, va = face_ua[edge_face], face_va[edge_face]
    k = np.arange(len(start))
    a, b = coords[start], coords[end]
    u, v1, v2 = a[k, ua], a[k, va], b[k, va]
    vertical = (u == b[k, ua]) & (v1 != v2)
    edge_face, ua, va, u = edge_face[vertical], ua[vertical], va[vertical], u[vertical]
    v1, v2 = v1[vertical], v2[vertical]

    iu = _grid_index(axes_pts, ua, u)
    row_lo = _grid_index(axes_pts, va, np.minimum(v1, v2))
    row_hi = _grid_index(axes_pts, va, np.maximum(v1, v2))
    owner, row = expand(row_lo, row_hi - row_lo)
    order = np.lexsort((iu[owner], row, edge_face[owner]))
    c_face, c_row, c_iu = edge_face[owner][order], row[order], iu[owner][order]

    n = len(c_face)
    new_row = np.ones(n, dtype=bool)
    new_row[1:] = (c_face[1:] != c_face[:-1]) | (c_row[1:] != c_row[:-1])
    rank = np.arange(n) - np.maximum.accumulate(np.where(new_row, np.arange(n), 0))
    has_next = np.zeros(n, dtype=bool)
    has_next[:-1] = ~new_row[1:]
    lo = np.nonzero((rank % 2 == 0) & has_next)[0]
    owner, cell_iu = expand(c_iu[lo], c_iu[lo + 1] - c_iu[lo])
    cell_face, cell_iv = c_face[lo][owner], c_row[lo][owner]
    order = np.lexsort((cell_iv, cell_iu, cell_face))
    cell_face, cell_iu, cell_iv = cell_face[order], cell_iu[order], cell_iv[order]

    grid = np.concatenate(axes_pts)
    u0, u1 = grid[cell_iu], grid[cell_iu + 1]
    v0, v1 = grid[cell_iv], grid[cell_iv + 1]
    ua, va = face_ua[cell_face], face_va[cell_face]
    cells = np.arange(len(cell_face))
    corners = np.empty((len(cell_face), 4, 3), dtype=np.int64)
    corners[cells, :, face_axis[cell_face]] = face_offset[cell_face][:, None]
    corners[cells, :, ua] = np.stack([u0, u1, u1, u0], axis=1)
    corners[cells, :, va] = np.stack([v0, v0, v1, v1], axis=1)
    corners = corners.reshape(-1, 3)

    key = np.zeros(len(corners), dtype=np.int64)
    for axis in range(3):
        values = _distinct(np.concatenate((axes_pts[axis], face_offset[face_axis == axis])))
        key = key * len(values) + np.searchsorted(values, corners[:, axis])
    _, seen, inverse = np.unique(key, return_index=True, return_inverse=True)
    by_first_sight = np.argsort(seen)
    vid = np.empty_like(by_first_sight)
    vid[by_first_sight] = np.arange(len(seen))
    quads = vid[inverse.reshape(-1)].reshape(-1, 4)
    vertices = corners[seen[by_first_sight]].astype(np.float64) / 10.0
    return TriMesh(vertices, quads[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3))


def cross_areas(mesh: TriMesh) -> np.ndarray:
    """Triangle areas by `np.cross` and `np.linalg.norm`."""
    a = mesh.vertices[mesh.triangles[:, 0]]
    b = mesh.vertices[mesh.triangles[:, 1]]
    c = mesh.vertices[mesh.triangles[:, 2]]
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def mesh_areas(mesh: TriMesh) -> np.ndarray:
    """Half the length of the cross product of each triangle's two edges
    from its first corner, written out componentwise on one contiguous
    row per axis and corner: the float operations of `np.cross` and
    `np.linalg.norm(axis=1)`, in their order, so the same bits."""
    corners = np.ascontiguousarray(mesh.triangles.T)
    x, y, z = (np.take(coord, corners) for coord in np.ascontiguousarray(mesh.vertices.T))
    for rows in (x, y, z):  # per axis: the first corner, then the two edges from it
        rows[1:] -= rows[0]
    (_, a0, b0), (_, a1, b1), (_, a2, b2) = x, y, z
    c = a1 * b2 - a2 * b1
    total = c * c
    c = a2 * b0 - a0 * b2
    total += c * c
    c = a0 * b1 - a1 * b0
    total += c * c
    return 0.5 * np.sqrt(total)


def mesh_sample_points(mesh: TriMesh, n: int, mode: str, rng: SeededRng) -> PointCloud:
    """`mltasks.sample_points` as it was on the welded mesh of
    `brep.triangulate`: point i takes draws 3i, 3i+1 and 3i+2 of one block,
    the first picking the triangle by cumulative-area inversion over
    `mesh_areas`, the other two giving folded barycentric coordinates."""
    if mode not in (UNIT_CUBE, UNIT_SPHERE):
        raise ValueError(f"unknown normalization mode {mode!r}")
    areas = mesh_areas(mesh)
    total = float(areas.sum())
    if total <= 0.0:
        raise BrepForgeError("mesh has zero surface area")
    cum = np.cumsum(areas)
    draws = rng.unit_floats(3 * n).reshape(n, 3)
    tri_idx = np.searchsorted(cum, draws[:, 0] * total, side="right")
    tri_idx = np.minimum(tri_idx, len(areas) - 1)
    r1, r2 = draws[:, 1], draws[:, 2]
    fold = r1 + r2 > 1.0
    r1 = np.where(fold, 1.0 - r1, r1)
    r2 = np.where(fold, 1.0 - r2, r2)
    tri = mesh.vertices[mesh.triangles[tri_idx]]
    pts = tri[:, 0] + r1[:, None] * (tri[:, 1] - tri[:, 0]) + r2[:, None] * (tri[:, 2] - tri[:, 0])

    if mode == UNIT_CUBE:
        lo = pts.min(axis=0)
        extent = float((pts.max(axis=0) - lo).max())
        pts = (pts - lo) / extent
    else:
        pts = pts - pts.mean(axis=0)
        radius = float(np.linalg.norm(pts, axis=1).max())
        pts = pts / radius
    return PointCloud(pts)


def face_interior_point2(vertices, face) -> tuple[int, int]:
    """Doubled (u, v) point inside the face region, just off its first corner.

    The canonical first vertex is the loop's lexicographic extreme, always a
    convex corner, so the cell diagonally inward along the travel direction
    is part of the face.
    """
    ua, va = FRAMES[(face.axis, face.sign)]
    a, b = vertices[face.outer[0]], vertices[face.outer[1]]
    du = b[ua] - a[ua]
    dv = b[va] - a[va]
    du = (du > 0) - (du < 0)
    dv = (dv > 0) - (dv < 0)
    # left normal of (du, dv) is (-dv, du)
    return 2 * a[ua] + du - dv, 2 * a[va] + dv + du


def parity_is_exterior_face(faces, vertices, face_index: int) -> bool:
    """True when nothing blocks the face's outward normal ray (envelope
    face), by a ray-parity test against every face beyond it.  ``faces``
    and ``vertices`` are a solid's `faces_of` and `vertices_of`."""
    face = faces[face_index]
    p2u, p2v = face_interior_point2(vertices, face)
    for other in faces:
        if other.axis != face.axis or other is face:
            continue
        if face.sign > 0 and other.offset <= face.offset:
            continue
        if face.sign < 0 and other.offset >= face.offset:
            continue
        # Both coordinates of the doubled point are odd, so it lies on no
        # edge line and parity does not depend on the frame the loops are
        # projected into.
        inside = False
        for loop in other.loops():
            loop2d = loop_to_2d([vertices[i] for i in loop], face.axis, face.sign)
            inside ^= point_in_loop(p2u, p2v, loop2d)
        if inside:
            return False
    return True
