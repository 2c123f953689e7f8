"""Axis-aligned B-rep kernel: solids as plane-bound faces with loop topology.

Solids are built from exact integer-grid boxes and represented as faces on
axis-aligned planes; loops store vertex ids, so watertightness is a pure
combinatorial check (every undirected edge used exactly twice, once per
direction).  The only Boolean is `solid_from_boxes`: union minus difference
of boxes on one compressed cell grid, traced into maximal faces per plane —
no floating-point CSG.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import EmptyMeshError, InvalidExtrusionError
from .geom2d import Footprint
from .regions import Region, merged_breakpoints, rasterize_loops, trace_region

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

    def lo(self, axis: int) -> int:
        return self[axis]

    def hi(self, axis: int) -> int:
        return self[axis + 3]


@dataclass(frozen=True)
class BRepFace:
    """Planar face: outer loop CCW about the outward normal, holes CW."""

    axis: int
    offset: int
    sign: int
    outer: tuple[int, ...]
    inner: tuple[tuple[int, ...], ...] = ()

    @property
    def normal_name(self) -> str:
        return ("+" if self.sign > 0 else "-") + AXIS_NAMES[self.axis]

    def loops(self) -> Iterable[tuple[int, ...]]:
        yield self.outer
        yield from self.inner


@dataclass(frozen=True)
class BRepSolid:
    vertices: tuple[tuple[int, int, int], ...]
    faces: tuple[BRepFace, ...]
    label: str = "GOOD"


RawFace = tuple[int, int, int, list, list]  # axis, offset, sign, outer2d, holes2d


def _loop_to_3d(loop2d, axis: int, offset: int, sign: int):
    ua, va = FRAMES[(axis, sign)]
    out = []
    for u, v in loop2d:
        p = [0, 0, 0]
        p[axis] = offset
        p[ua] = int(u)
        p[va] = int(v)
        out.append(tuple(p))
    return out


def _loop_to_2d(coords, axis: int, sign: int):
    ua, va = FRAMES[(axis, sign)]
    return [(p[ua], p[va]) for p in coords]


def _finalize(raw_faces: Sequence[RawFace]) -> BRepSolid:
    """Weld vertices, split T-junctions, and canonicalize ordering."""
    loops3d = []  # (axis, offset, sign, [outer coords], [hole coords ...])
    points: set[tuple[int, int, int]] = set()
    for axis, offset, sign, outer, holes in raw_faces:
        o3 = _loop_to_3d(outer, axis, offset, sign)
        h3 = [_loop_to_3d(h, axis, offset, sign) for h in holes]
        loops3d.append((axis, offset, sign, o3, h3))
        for loop in (o3, *h3):
            points.update(loop)

    # Index every vertex on its three grid lines so loop edges can be split
    # exactly where any other face has a corner.
    lines: dict[tuple[int, int, int], list[int]] = {}
    for x, y, z in points:
        lines.setdefault((0, y, z), []).append(x)
        lines.setdefault((1, x, z), []).append(y)
        lines.setdefault((2, x, y), []).append(z)
    for positions in lines.values():
        positions.sort()

    def split_loop(loop):
        out = []
        n = len(loop)
        for i in range(n):
            a, b = loop[i], loop[(i + 1) % n]
            out.append(a)
            diff = [k for k in range(3) if a[k] != b[k]]
            if len(diff) != 1:
                raise ValueError(f"loop edge {a}->{b} is not axis-parallel")
            ax = diff[0]
            if ax == 0:
                key = (0, a[1], a[2])
            elif ax == 1:
                key = (1, a[0], a[2])
            else:
                key = (2, a[0], a[1])
            lo, hi = sorted((a[ax], b[ax]))
            between = [t for t in lines[key] if lo < t < hi]
            if a[ax] > b[ax]:
                between.reverse()
            for t in between:
                p = list(a)
                p[ax] = t
                out.append(tuple(p))
        return out

    vertices = sorted(points)
    vid = {p: i for i, p in enumerate(vertices)}

    faces = []
    for axis, offset, sign, o3, h3 in loops3d:
        outer_ids = tuple(vid[p] for p in split_loop(o3))
        inner_ids = tuple(tuple(vid[p] for p in split_loop(h)) for h in h3)
        faces.append((axis, offset, sign, outer_ids, inner_ids))

    def rotate_min(loop: tuple[int, ...]) -> tuple[int, ...]:
        k = loop.index(min(loop))
        return loop[k:] + loop[:k]

    canon = []
    for axis, offset, sign, outer, inner in faces:
        outer = rotate_min(outer)
        inner = tuple(sorted(rotate_min(h) for h in inner))
        canon.append(BRepFace(axis, offset, sign, outer, inner))
    canon.sort(key=lambda f: (f.axis, f.offset, f.sign, f.outer))
    return BRepSolid(tuple(vertices), tuple(canon))


def solid_from_boxes(positive: Sequence[Box], negative: Sequence[Box] = ()) -> BRepSolid:
    """Exact boundary of (∪ positive) \\ (∪ negative) on the integer grid."""
    if not positive:
        raise InvalidExtrusionError("no material boxes")
    boxes = list(positive) + list(negative)
    axes_pts = []
    for axis in range(3):
        axes_pts.append(merged_breakpoints([b.lo(axis) for b in boxes], [b.hi(axis) for b in boxes]))
    xs, ys, zs = axes_pts
    mat = np.zeros((len(xs) - 1, len(ys) - 1, len(zs) - 1), dtype=bool)

    def span(vals, lo, hi):
        return int(np.searchsorted(vals, lo)), int(np.searchsorted(vals, hi))

    for b in positive:
        ix = span(xs, b.x0, b.x1)
        iy = span(ys, b.y0, b.y1)
        iz = span(zs, b.z0, b.z1)
        mat[ix[0]:ix[1], iy[0]:iy[1], iz[0]:iz[1]] = True
    for b in negative:
        ix = span(xs, b.x0, b.x1)
        iy = span(ys, b.y0, b.y1)
        iz = span(zs, b.z0, b.z1)
        mat[ix[0]:ix[1], iy[0]:iy[1], iz[0]:iz[1]] = False
    if not mat.any():
        raise InvalidExtrusionError("material is empty after subtraction")

    raw: list[RawFace] = []
    for axis in range(3):
        vals = axes_pts[axis]
        others = [a for a in range(3) if a != axis]
        grids = {others[0]: axes_pts[others[0]], others[1]: axes_pts[others[1]]}
        n = mat.shape[axis]
        empty = np.zeros([mat.shape[a] for a in others], dtype=bool)
        for i in range(n + 1):
            below = np.take(mat, i - 1, axis=axis) if i > 0 else empty
            above = np.take(mat, i, axis=axis) if i < n else empty
            for sign, mask in ((+1, below & ~above), (-1, above & ~below)):
                if not mask.any():
                    continue
                ua, va = FRAMES[(axis, sign)]
                m = mask if (ua, va) == tuple(others) else mask.T
                region = Region(grids[ua], grids[va], m)
                for outer, holes in trace_region(region):
                    raw.append((axis, int(vals[i]), sign, outer, holes))
    return _finalize(raw)


def extrude_prism(
    outer: Footprint,
    z0: int,
    z1: int,
    holes: Sequence[Footprint] = (),
) -> BRepSolid:
    """Closed prism over a rectilinear polygon (optionally with holes)."""
    if z1 <= z0:
        raise InvalidExtrusionError(f"height range [{z0}, {z1}] is empty")
    pos = [Box(r.x0, r.y0, z0, r.x1, r.y1, z1) for r in outer.rects]
    neg = [Box(r.x0, r.y0, z0, r.x1, r.y1, z1) for h in holes for r in h.rects]
    return solid_from_boxes(pos, neg)


def _face_region(solid: BRepSolid, face: BRepFace):
    loops = [[solid.vertices[i] for i in loop] for loop in face.loops()]
    loops2d = [_loop_to_2d(lp, face.axis, face.sign) for lp in loops]
    us = merged_breakpoints([p[0] for lp in loops2d for p in lp])
    vs = merged_breakpoints([p[1] for lp in loops2d for p in lp])
    return rasterize_loops(loops2d, us, vs)


def is_watertight(solid: BRepSolid) -> tuple[bool, list[str]]:
    """Edge-manifold check: every undirected edge used twice, once per way."""
    uses: dict[tuple[int, int], list[int]] = {}
    problems: list[str] = []
    for fi, f in enumerate(solid.faces):
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
    if not solid.faces:
        problems.append("solid has no faces")
    return (not problems), problems


@dataclass(frozen=True)
class TriMesh:
    """Triangulated surface in metres."""

    vertices: np.ndarray  # (V, 3) float64
    triangles: np.ndarray  # (T, 3) int64

    @property
    def areas(self) -> np.ndarray:
        a = self.vertices[self.triangles[:, 0]]
        b = self.vertices[self.triangles[:, 1]]
        c = self.vertices[self.triangles[:, 2]]
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


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


def _expand(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges ``[starts[k], starts[k] + counts[k])`` back to back, each
    value paired with its owner ``k``."""
    owner = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    return owner, starts[owner] + np.arange(len(owner)) - first[owner]


def triangulate(solid: BRepSolid) -> TriMesh:
    """Cell-decomposition triangulation on the solid's global grid.

    Faces are rasterized on the shared breakpoint grid so triangle edges of
    adjacent faces subdivide identically: a GOOD solid yields a closed mesh.
    All faces are filled in one batch: every vertical loop edge crosses a
    run of grid rows, and in each (face, row) the sorted crossings pair up
    into filled spans (the parity fill of ``rasterize_loops``).  Cells come
    out face by face in ``(u, v)`` order, two triangles per cell, and
    vertices are numbered in the order the quad corners first reach them.
    """
    faces = solid.faces
    if not faces:
        raise EmptyMeshError("solid has no faces")
    coords = np.asarray(solid.vertices, dtype=np.int64)
    axes_pts = [np.unique(coords[:, a]) for a in range(3)]
    face_axis, face_offset, face_ua, face_va = np.array(
        [(f.axis, f.offset, *FRAMES[(f.axis, f.sign)]) for f in faces], dtype=np.int64
    ).T

    # Every loop edge of every face; as in ``rasterize_loops`` only vertical
    # ones (u constant, v changing) count.
    loops = [loop for f in faces for loop in f.loops()]
    lens = np.fromiter(map(len, loops), np.int64, len(loops))
    ids = np.fromiter(chain.from_iterable(loops), np.int64, int(lens.sum()))
    first = np.cumsum(lens) - lens
    nxt = np.arange(1, len(ids) + 1)
    closed = lens > 0
    nxt[(first + lens - 1)[closed]] = first[closed]
    edge_face = np.repeat(np.repeat(np.arange(len(faces)), [1 + len(f.inner) for f in faces]), lens)
    ua, va = face_ua[edge_face], face_va[edge_face]
    k = np.arange(len(ids))
    a, b = coords[ids], coords[ids[nxt]]
    u, v1, v2 = a[k, ua], a[k, va], b[k, va]
    vertical = (u == b[k, ua]) & (v1 != v2)
    edge_face, ua, va, u = edge_face[vertical], ua[vertical], va[vertical], u[vertical]
    v1, v2 = v1[vertical], v2[vertical]

    # A vertical edge from v_lo to v_hi crosses the rows between them.
    iu = _grid_index(axes_pts, ua, u)
    row_lo = _grid_index(axes_pts, va, np.minimum(v1, v2))
    row_hi = _grid_index(axes_pts, va, np.maximum(v1, v2))
    owner, row = _expand(row_lo, row_hi - row_lo)
    order = np.lexsort((iu[owner], row, edge_face[owner]))
    c_face, c_row, c_iu = edge_face[owner][order], row[order], iu[owner][order]

    # Crossings 0-1, 2-3, ... of each (face, row) bound filled spans; an odd
    # last crossing bounds nothing.
    n = len(c_face)
    new_row = np.ones(n, dtype=bool)
    new_row[1:] = (c_face[1:] != c_face[:-1]) | (c_row[1:] != c_row[:-1])
    rank = np.arange(n) - np.maximum.accumulate(np.where(new_row, np.arange(n), 0))
    has_next = np.zeros(n, dtype=bool)
    has_next[:-1] = ~new_row[1:]
    lo = np.nonzero((rank % 2 == 0) & has_next)[0]
    owner, cell_iu = _expand(c_iu[lo], c_iu[lo + 1] - c_iu[lo])
    cell_face, cell_iv = c_face[lo][owner], c_row[lo][owner]
    order = np.lexsort((cell_iv, cell_iu, cell_face))
    cell_face, cell_iu, cell_iv = cell_face[order], cell_iu[order], cell_iv[order]

    # Quad corners (u0, v0), (u1, v0), (u1, v1), (u0, v1) in 3-D.
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

    # One integer key per point: its position on a per-axis grid of every
    # vertex coordinate and face offset (fits in int64 below ~2e6 per axis).
    key = np.zeros(len(corners), dtype=np.int64)
    for axis in range(3):
        values = np.union1d(axes_pts[axis], face_offset[face_axis == axis])
        key = key * len(values) + np.searchsorted(values, corners[:, axis])
    _, seen, inverse = np.unique(key, return_index=True, return_inverse=True)
    by_first_sight = np.argsort(seen)
    vid = np.empty_like(by_first_sight)
    vid[by_first_sight] = np.arange(len(seen))
    quads = vid[inverse.reshape(-1)].reshape(-1, 4)
    vertices = corners[seen[by_first_sight]].astype(np.float64) / 10.0
    return TriMesh(vertices, quads[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3))


def euler_characteristic(mesh: TriMesh) -> int:
    v = len(mesh.vertices)
    f = len(mesh.triangles)
    edges = set()
    for a, b, c in mesh.triangles:
        for p, q in ((a, b), (b, c), (c, a)):
            edges.add((min(p, q), max(p, q)))
    return v - len(edges) + f


def mesh_to_obj(mesh: TriMesh) -> str:
    """Wavefront OBJ text: v lines then 1-indexed f lines, LF endings."""
    lines = []
    for x, y, z in mesh.vertices:
        lines.append(f"v {float(x)!r} {float(y)!r} {float(z)!r}")
    for a, b, c in mesh.triangles:
        lines.append(f"f {int(a) + 1} {int(b) + 1} {int(c) + 1}")
    return "\n".join(lines) + "\n"


def total_face_area_m2(solid: BRepSolid) -> float:
    total = 0
    for f in solid.faces:
        region = _face_region(solid, f)
        total += region.area_units()
    return total / 100.0


def drop_faces(solid: BRepSolid, indices: Iterable[int], label: str | None = None) -> BRepSolid:
    """Remove faces by index (used for defect injection); prunes orphan vertices."""
    drop = set(indices)
    kept = [f for i, f in enumerate(solid.faces) if i not in drop]
    used = sorted({i for f in kept for loop in f.loops() for i in loop})
    remap = {old: new for new, old in enumerate(used)}
    faces = tuple(
        BRepFace(
            f.axis,
            f.offset,
            f.sign,
            tuple(remap[i] for i in f.outer),
            tuple(tuple(remap[i] for i in h) for h in f.inner),
        )
        for f in kept
    )
    vertices = tuple(solid.vertices[i] for i in used)
    return BRepSolid(vertices, faces, label if label is not None else solid.label)
