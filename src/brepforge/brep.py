"""Axis-aligned B-rep kernel: solids as plane-bound faces with loop topology.

Solids are built from exact integer-grid boxes and represented as faces on
axis-aligned planes, all in integer arrays (`BRepSolid`): a vertex table
and a loop table of vertex ids, so watertightness is a pure combinatorial
check (every undirected edge used exactly twice, once per direction), and
every check and the triangulation are numpy passes over those arrays.
The only Boolean is `solid_from_boxes`: union minus difference
of boxes on one compressed cell grid, traced into maximal faces per plane —
no floating-point CSG.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import BrepForgeError
from .regions import _distinct, expand, trace_planes

AXIS_NAMES = "xyz"

# Right-handed in-plane frames (u_axis, v_axis) with u × v = outward normal.
FRAMES = {
    (0, +1): (1, 2),
    (0, -1): (2, 1),
    (1, +1): (2, 0),
    (1, -1): (0, 2),
    (2, +1): (0, 1),
    (2, -1): (1, 0),
}


class Box(NamedTuple):
    """Axis-aligned box in grid units."""

    x0: int
    y0: int
    z0: int
    x1: int
    y1: int
    z1: int


@dataclass(frozen=True, eq=False)
class BRepSolid:
    """A solid as read-only int64 arrays in grid units (0.1 m): ``coords``,
    one (x, y, z) row per vertex; ``ids``, the corner vertex ids of every
    loop back to back, face by face, each face's outer loop
    (counter-clockwise about its outward normal) and then its holes
    (clockwise); per loop its ``lens`` and face (``loop_face``); per face
    its plane ``x[axis] = offset`` and its outward normal's ``sign``.  The
    cached properties assume the arrays never change."""

    coords: np.ndarray  # (V, 3)
    ids: np.ndarray
    lens: np.ndarray
    loop_face: np.ndarray
    axis: np.ndarray
    offset: np.ndarray
    sign: np.ndarray
    label: str = "GOOD"

    def __post_init__(self):
        for name in ("coords", "ids", "lens", "loop_face", "axis", "offset", "sign"):
            a = np.asarray(getattr(self, name), dtype=np.int64)
            a = a.reshape(-1, 3) if name == "coords" else a.view()
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every loop edge, loop by loop: the vertex ids at its start and
        end and its face."""
        ids, lens = self.ids, self.lens
        last = (np.cumsum(lens) - 1)[lens > 0]  # the corner whose edge closes its loop
        nxt = np.arange(1, len(ids) + 1)
        nxt[last] = last + 1 - lens[lens > 0]
        return ids, ids[nxt], np.repeat(self.loop_face, lens)

    @cached_property
    def face_cells(self) -> FaceCells:
        """The filled grid cells of every face (`fill_faces`), which
        `triangulate`, `envelope` and `mltasks.sample_points` share, built
        once per solid."""
        return fill_faces(self)

    @cached_property
    def envelope(self) -> np.ndarray:
        """Per face, whether nothing blocks it along its outward normal (an
        envelope face); see `_envelope`.  Defined for solids that pass
        `dataset.check_solid`."""
        return _envelope(self)


# FRAMES as an array indexed by (axis, sign > 0).
_FRAME_AXES = np.array([[FRAMES[(axis, sign)] for sign in (-1, +1)] for axis in range(3)], dtype=np.int64)


def _frames(axis: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """The rows (u axes, v axes) of the frames of faces with these axes and
    signs."""
    return _FRAME_AXES[axis, (sign > 0).astype(np.int64)].T


def _finalize(grids, u, v, lens, axis, plane, sign, outer) -> BRepSolid:
    """Weld vertices, split T-junctions, and canonicalize ordering.

    Takes the breakpoints of each axis; per corner its (u, v) grid indices
    in its face's frame, the corners of each loop back to back; and per
    loop its number of corners, its face's axis, plane (a grid index) and
    sign, and its face's outer loop (its own index for an outer loop).
    One numpy pass over the corners of every loop, welded on their grid
    indices: the vertices are the distinct corners in (x, y, z) order, each
    loop edge gains the vertices strictly inside it (where another face has
    a corner) in order along it, each loop starts at its smallest vertex
    id, and faces are sorted by (axis, plane, sign, outer loop) and holes
    by value; the solid's arrays come straight from that pass, and only
    they read coordinates from the grids.

    The canonical order is made here: the tracer promises no loop order
    and no first vertex.  A loop that passes its smallest vertex twice
    starts at the first pass in the order it was traced, so its start
    follows the trace.
    """
    corner_loop = np.repeat(np.arange(len(lens)), lens)
    ua, va = _frames(axis, sign)[:, corner_loop]
    k = np.arange(len(u))
    at = np.empty((3, len(u)), dtype=np.int64)  # one row of grid indices per axis
    at[axis[corner_loop], k] = plane[corner_loop]
    at[ua, k] = u
    at[va, k] = v

    # Weld: one integer key per corner, ordered like (x, y, z).
    size = [len(g) for g in grids]
    _, first, vid = np.unique((at[0] * size[1] + at[1]) * size[2] + at[2], return_index=True, return_inverse=True)
    at = at[:, first]
    base = np.cumsum(size) - size  # each axis's first breakpoint in the grids back to back
    breakpoints = np.concatenate(grids)
    coords = breakpoints[(at + base[:, None]).T]  # one (x, y, z) row per vertex

    # Sorted by (the other two coordinates, this one), the vertices of each
    # grid line along an axis form one stretch, in order along the line, so
    # the vertices strictly inside an edge lie between its ends there.
    n = len(first)
    line_order = np.empty(3 * n, dtype=np.int64)
    place = np.empty((3, n), dtype=np.int64)
    for a in range(3):
        o1, o2 = [b for b in range(3) if b != a]
        order = np.argsort((at[o1] * size[o2] + at[o2]) * size[a] + at[a])
        line_order[a * n : (a + 1) * n] = order
        place[a, order] = np.arange(n)
    starts = np.cumsum(lens) - lens
    nxt = k + 1
    nxt[starts + lens - 1] = starts
    # An edge from place pa to place pb on its line gives the vertices at
    # pa, pa ± 1, ... short of pb, which starts the next edge.
    edge_axis = np.where(u != u[nxt], ua, va)
    pa, pb = place[edge_axis, vid], place[edge_axis, vid[nxt]]
    owner, t = expand(np.zeros_like(pa), np.abs(pb - pa))
    ids = line_order[edge_axis[owner] * n + pa[owner] + np.sign(pb - pa)[owner] * t]

    # Rotate every loop to start at the first occurrence of its smallest id.
    new_lens = np.add.reduceat(np.abs(pb - pa), starts)
    new_starts = np.cumsum(new_lens) - new_lens
    loop = np.repeat(np.arange(len(lens)), new_lens)
    smallest = np.minimum.reduceat(ids, new_starts)
    at_min = np.flatnonzero(ids == smallest[loop])
    shift = at_min[np.searchsorted(loop[at_min], np.arange(len(lens)))] - new_starts
    pos = np.arange(len(ids)) - new_starts[loop]

    # Faces in (axis, plane, sign, outer loop) order, each its outer loop
    # and then its holes by value.  A loop's two edges at its smallest id,
    # its first corner in (x, y, z) order, both run forwards from it, so any
    # other loop of its plane and sign through that corner has an edge to a
    # smaller id: no two share one, and their order is the id tuples' order.
    is_hole = outer != np.arange(len(lens))
    outers = np.flatnonzero(~is_hole)
    outers = outers[np.lexsort((smallest[outers], sign[outers], plane[outers], axis[outers]))]
    face = np.empty(len(lens), dtype=np.int64)
    face[outers] = np.arange(len(outers))
    face = face[outer]
    order = np.lexsort((smallest, is_hole, face))
    _, corner = expand(new_starts[order], new_lens[order])
    ids = ids[new_starts[loop] + (pos + shift[loop]) % new_lens[loop]][corner]
    offset = breakpoints[base[axis[outers]] + plane[outers]]
    return BRepSolid(coords, ids, new_lens[order], face[order], axis[outers], offset, sign[outers])


def solid_from_boxes(positive: Sequence[Box], negative: Sequence[Box] = ()) -> BRepSolid:
    """Exact boundary of (∪ positive) \\ (∪ negative) on the integer grid."""
    if not positive:
        raise BrepForgeError("no material boxes")
    boxes = np.array([*positive, *negative], dtype=np.int64)
    axes_pts = [_distinct(boxes[:, [axis, axis + 3]].ravel()) for axis in range(3)]
    spans = np.stack([np.searchsorted(axes_pts[k % 3], boxes[:, k]) for k in range(6)], axis=1)
    mat = np.zeros([len(pts) - 1 for pts in axes_pts], dtype=bool)
    for k, (x0, y0, z0, x1, y1, z1) in enumerate(spans.tolist()):
        mat[x0:x1, y0:y1, z0:z1] = k < len(positive)
    if not mat.any():
        raise BrepForgeError("material is empty after subtraction")

    # _finalize's arrays, one part per (axis, sign): every faced plane's
    # loops from one trace.
    u, v, lens, loop_axis, loop_plane, loop_sign, outer = ([] for _ in range(7))
    loops = 0
    for axis in range(3):
        # Plane i lies between cell layers i - 1 and i; material above it
        # minus material below is -1 on its +axis faces and +1 on its -axis
        # faces.
        layers = np.moveaxis(mat.view(np.int8), axis, 0)
        step = np.empty((len(layers) + 1, *layers.shape[1:]), dtype=np.int8)
        step[0], step[-1] = layers[0], -layers[-1]
        np.subtract(layers[1:], layers[:-1], out=step[1:-1])
        for sign, faced in ((+1, step.min(axis=(1, 2)) < 0), (-1, step.max(axis=(1, 2)) > 0)):
            # The other two axes stay in increasing order, which is the
            # face frame's (u, v) order when u < v.
            ua, va = FRAMES[(axis, sign)]
            planes = np.flatnonzero(faced)
            masks = step[planes] == -sign
            t = trace_planes(masks if ua < va else masks.transpose(0, 2, 1))
            u.append(t.u)
            v.append(t.v)
            lens.append(t.lens)
            loop_axis.append(np.full(len(t.lens), axis))
            loop_plane.append(planes[t.plane])
            loop_sign.append(np.full(len(t.lens), sign))
            outer.append(t.outer + loops)
            loops += len(t.lens)
    return _finalize(axes_pts, *map(np.concatenate, (u, v, lens, loop_axis, loop_plane, loop_sign, outer)))


def is_watertight(solid: BRepSolid) -> tuple[bool, list[str]]:
    """Edge-manifold check: every undirected edge used twice, once per way.

    Problems come in the order of a walk over the loops: each short loop
    and degenerate edge where the walk meets it, then each badly used edge
    in the order of its first use.
    """
    (start, end, face), loop_face, lens = solid.edges, solid.loop_face, solid.lens
    # (edge index, 0 for a loop or 1 for an edge, message)
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
    # Uses one way minus uses the other.
    balance = 2 * np.bincount(edge[a < b], minlength=len(uses)) - uses
    bad = np.flatnonzero((uses != 2) | (balance != 0))
    for e in bad[np.argsort(first_use[bad])].tolist():
        k = int(first_use[e])
        if uses[e] != 2:
            problems.append(f"edge {int(lo[k])}-{int(hi[k])} used {int(uses[e])} times")
        else:
            problems.append(f"edge {int(lo[k])}-{int(hi[k])} traversed twice in the same direction")
    if not len(solid.axis):
        problems.append("solid has no faces")
    return (not problems), problems


@dataclass(frozen=True)
class TriMesh:
    """Triangulated surface in metres."""

    vertices: np.ndarray  # (V, 3) float64
    triangles: np.ndarray  # (T, 3) int64


def geometry_problems(solid: BRepSolid) -> list[str]:
    """Loop vertices off their face's plane, loop edges that are not
    axis-parallel or have zero length, outer loops not counter-clockwise
    and holes not clockwise about the stated normal, and a solid whose
    divergence-theorem volume is not positive, from one pass over all loop
    edges."""
    (start, end, face), coords, lens, loop_face = solid.edges, solid.coords, solid.lens, solid.loop_face
    face_axis, face_offset, face_sign = solid.axis, solid.offset, solid.sign
    face_ua, face_va = _frames(face_axis, face_sign)
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

    # Twice each loop's signed area in its face's (u, v) frame, where u × v
    # is the stated normal: positive for an outer loop, negative for a hole.
    k = np.arange(len(a))
    ua, va = face_ua[face], face_va[face]
    cross = a[k, ua] * b[k, va] - b[k, ua] * a[k, va]
    # Loops are contiguous; the zero appended ends a trailing empty loop,
    # and an empty loop elsewhere would take its successor's first cross.
    area2 = np.where(lens > 0, np.add.reduceat(np.append(cross, 0), np.cumsum(lens) - lens), 0)
    outer = np.ones(len(lens), dtype=bool)
    outer[1:] = loop_face[1:] != loop_face[:-1]
    wrong = np.flatnonzero(np.where(outer, area2 <= 0, area2 >= 0))
    problems += [
        f"face {f}: " + ("outer loop is not counter-clockwise" if o else "hole is not clockwise") + " about its normal"
        for f, o in zip(loop_face[wrong].tolist(), outer[wrong].tolist())
    ]
    # Divergence theorem: the flux of the position field out of the solid,
    # the sum of sign * offset * area2 over every loop, is six times the
    # enclosed volume.
    sign = face_sign[loop_face]
    if len(face_axis) and int((sign * face_offset[loop_face] * area2).sum()) <= 0:
        problems.append("solid encloses no positive volume")
    return problems


class FaceCells(NamedTuple):
    """The parity fill of every face of a solid on its breakpoint grid.

    ``grid`` holds the distinct vertex coordinates of x, then y, then z;
    axis a's part is ``grid[starts[a]:starts[a + 1]]``, and a grid index is
    a place in ``grid``.  Per vertex, ``at`` holds its grid index on each
    axis.  The filled cells come face by face in (u, v) order, each with
    its face and the grid indices of its low u and low v corner.
    """

    grid: np.ndarray
    starts: np.ndarray  # 4 entries, the last len(grid)
    at: np.ndarray  # (3, vertices)
    face: np.ndarray
    u: np.ndarray
    v: np.ndarray


def fill_faces(solid: BRepSolid) -> FaceCells:
    """Parity-fill every face of the solid on its breakpoint grid in one
    numpy pass.

    Every vertical loop edge (u constant, v changing) crosses a run of grid
    rows, and in each (face, row) the crossings, sorted by u, pair up:
    crossings 0-1, 2-3, ... bound filled spans, and an odd last crossing
    bounds nothing.  Crossings and cells are each ordered by one int64 key
    that packs (face, row, u) or (face, u, v) into bit fields (it fits while
    faces × grid size² stays below 2**63); records with equal keys are
    equal, so any sort gives the same arrays; a solid with no faces raises.
    """
    if not len(solid.axis):
        raise BrepForgeError("solid has no faces")
    coords = solid.coords.T
    axes_pts = [_distinct(c) for c in coords]
    starts = np.cumsum([0] + [len(g) for g in axes_pts])
    at = np.empty_like(coords)
    for a in range(3):
        at[a] = starts[a] + np.searchsorted(axes_pts[a], coords[a])
    start, end, edge_face = solid.edges
    face_ua, face_va = _frames(solid.axis, solid.sign)
    ua, va = face_ua[edge_face], face_va[edge_face]
    u, v1, v2 = at[ua, start], at[va, start], at[va, end]
    vertical = (u == at[ua, end]) & (v1 != v2)
    owner, row = expand(np.minimum(v1, v2)[vertical], np.abs(v2 - v1)[vertical])
    bits = int(starts[-1]).bit_length()  # every grid index fits in `bits` bits
    mask = (1 << bits) - 1
    crossing = np.sort((edge_face[vertical][owner] << bits | row) << bits | u[vertical][owner])

    face_row = crossing >> bits
    n = len(crossing)
    new_row = np.ones(n, dtype=bool)
    new_row[1:] = face_row[1:] != face_row[:-1]
    rank = np.arange(n) - np.maximum.accumulate(np.where(new_row, np.arange(n), 0))
    has_next = np.zeros(n, dtype=bool)
    has_next[:-1] = ~new_row[1:]
    lo = np.flatnonzero((rank % 2 == 0) & has_next)
    first = crossing[lo] & mask
    owner, cell_u = expand(first, (crossing[lo + 1] & mask) - first)
    face_row = face_row[lo][owner]
    cell = np.sort(((face_row >> bits) << bits | cell_u) << bits | face_row & mask)
    return FaceCells(np.concatenate(axes_pts), starts, at, cell >> 2 * bits, cell >> bits & mask, cell & mask)


def _envelope(solid: BRepSolid) -> np.ndarray:
    """Per face, whether no face on its axis beyond its offset (along its
    outward normal) fills the grid column of its probe cell.

    The probe cell is the cell diagonally inward from the first corner of
    the face's outer loop: one step along its first edge and one to the
    left of it.  In a solid from `solid_from_boxes` that corner is the
    loop's lexicographically smallest, a convex corner, so the cell lies in
    the face.  In a solid that passes `dataset.check_solid` every loop is
    closed and rectilinear, so a cell's fill is the parity of the face's
    loops at any point inside it, seen in any frame: this is the ray-parity
    test of each face against every face beyond it, with the fill shared.
    """
    cells = solid.face_cells
    (start, end, _), lens, face_axis, face_sign = solid.edges, solid.lens, solid.axis, solid.sign
    face_ua, face_va = _frames(face_axis, face_sign)
    edge = (np.cumsum(lens) - lens)[np.searchsorted(solid.loop_face, np.arange(len(face_axis)))]
    a, b = start[edge], end[edge]
    at = cells.at
    au, av = at[face_ua, a], at[face_va, a]
    du, dv = np.sign(at[face_ua, b] - au), np.sign(at[face_va, b] - av)
    probe_u = au - (du - dv < 0)
    probe_v = av - (dv + du < 0)
    level = at[face_axis, a]  # the face's offset, as a grid index

    # A column is a cell's pair of grid indices, smaller first: they lie on
    # the two axes other than the face's, so the pair also names the axis.
    # A probe index off its axis's cells (-1, or the last point of an axis)
    # is no cell's index, so its column holds no cell.
    bits = len(cells.grid).bit_length()
    cell_column = np.minimum(cells.u, cells.v) << bits | np.maximum(cells.u, cells.v)
    filled = np.sort(cell_column << bits | level[cells.face])
    column = (np.minimum(probe_u, probe_v) << bits | np.maximum(probe_u, probe_v)) << bits
    beyond_lo = np.where(face_sign > 0, column + level + 1, column)
    beyond_hi = np.where(face_sign > 0, column + (1 << bits), column + level)
    return np.searchsorted(filled, beyond_hi) == np.searchsorted(filled, beyond_lo)


def triangulate(solid: BRepSolid) -> TriMesh:
    """Cell-decomposition triangulation on the solid's global grid.

    Faces are filled on the shared breakpoint grid (`fill_faces`), so
    triangle edges of adjacent faces subdivide identically: a GOOD solid
    yields a closed mesh.  Two triangles per cell, cells face by face in
    ``(u, v)`` order, and vertices numbered in the order the quad corners
    (u0, v0), (u1, v0), (u1, v1), (u0, v1) first reach them (`np.unique`
    with first indices, as `_finalize` welds).
    """
    cells, face_axis, face_offset = solid.face_cells, solid.axis, solid.offset
    grid, starts = cells.grid, cells.starts

    # A corner's key packs its places on per-axis grids of every vertex
    # coordinate and face offset into bit fields, x then y then z; each
    # grid index and each face's offset maps to its field once, so a
    # corner's key is the sum of three lookups.
    values, place, level = [], [], np.empty(len(face_axis), dtype=np.int64)
    for a in range(3):
        pts, on = grid[starts[a] : starts[a + 1]], face_axis == a
        values.append(_distinct(np.concatenate((pts, face_offset[on]))))
        place.append(np.searchsorted(values[a], pts))
        level[on] = np.searchsorted(values[a], face_offset[on])
    bits = [len(x).bit_length() for x in values]
    shift = [bits[1] + bits[2], bits[2], 0]
    place = np.concatenate([p << s for p, s in zip(place, shift)])
    level <<= np.array(shift)[face_axis]
    lvl = level[cells.face]
    u0, u1 = place[cells.u], place[cells.u + 1]
    v0, v1 = place[cells.v], place[cells.v + 1]
    lu0, lu1 = lvl + u0, lvl + u1
    key = np.empty((len(lvl), 4), dtype=np.int64)
    key[:, 0] = lu0 + v0
    key[:, 1] = lu1 + v0
    key[:, 2] = lu1 + v1
    key[:, 3] = lu0 + v1
    key = key.ravel()

    # Vertices by first sight: the distinct keys in the order of the corners
    # that first reach them; a corner's vertex is its key's rank there.
    distinct, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    by_sight = np.argsort(first)
    quads, distinct = np.argsort(by_sight)[inverse], distinct[by_sight]
    vertices = np.empty((len(distinct), 3), dtype=np.float64)
    for a in range(3):
        vertices[:, a] = values[a][distinct >> shift[a] & (1 << bits[a]) - 1]
    vertices /= 10.0
    return TriMesh(vertices, quads.reshape(-1, 4)[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3))


def mesh_to_obj(mesh: TriMesh) -> str:
    """Wavefront OBJ text: v lines then 1-indexed f lines, LF endings.

    One ``%``-format over the flat coordinates and indices; ``%r`` of a
    float is its shortest round-trip repr.
    """
    lines = ["v %r %r %r"] * len(mesh.vertices) + ["f %d %d %d"] * len(mesh.triangles)
    values = mesh.vertices.ravel().tolist() + (mesh.triangles + 1).ravel().tolist()
    return "\n".join(lines) % tuple(values) + "\n"


def drop_faces(solid: BRepSolid, indices: Iterable[int], label: str | None = None) -> BRepSolid:
    """The solid less the faces at these indices in [0, faces) (defect
    injection), with the vertices no kept loop uses pruned and the rest
    renumbered in order."""
    keep = np.ones(len(solid.axis), dtype=bool)
    keep[np.fromiter(indices, np.int64)] = False
    kept_loop = keep[solid.loop_face]
    ids = solid.ids[np.repeat(kept_loop, solid.lens)]
    used = np.zeros(len(solid.coords), dtype=bool)
    used[ids] = True
    new_id, new_face = np.cumsum(used) - 1, np.cumsum(keep) - 1
    loops = (new_id[ids], solid.lens[kept_loop], new_face[solid.loop_face[kept_loop]])
    planes = (x[keep] for x in (solid.axis, solid.offset, solid.sign))
    return BRepSolid(solid.coords[used], *loops, *planes, solid.label if label is None else label)
