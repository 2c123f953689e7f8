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


def triangulate(solid: BRepSolid) -> TriMesh:
    """Cell-decomposition triangulation on the solid's global grid.

    Faces are rasterized on the shared breakpoint grid so triangle edges of
    adjacent faces subdivide identically: a GOOD solid yields a closed mesh.
    """
    if not solid.faces:
        raise EmptyMeshError("solid has no faces")
    coords = np.asarray(solid.vertices, dtype=np.int64)
    axes_pts = [np.unique(coords[:, a]) for a in range(3)]
    vid: dict[tuple[int, int, int], int] = {}
    verts: list[tuple[int, int, int]] = []
    tris: list[tuple[int, int, int]] = []

    def vertex(p) -> int:
        i = vid.get(p)
        if i is None:
            i = len(verts)
            vid[p] = i
            verts.append(p)
        return i

    for f in solid.faces:
        ua, va = FRAMES[(f.axis, f.sign)]
        loops = [
            _loop_to_2d([solid.vertices[i] for i in loop], f.axis, f.sign)
            for loop in f.loops()
        ]
        region = rasterize_loops(loops, axes_pts[ua], axes_pts[va])
        us, vs = region.us, region.vs
        for iu, iv in np.argwhere(region.mask):
            u0, u1 = int(us[iu]), int(us[iu + 1])
            v0, v1 = int(vs[iv]), int(vs[iv + 1])
            quad = []
            for u, v in ((u0, v0), (u1, v0), (u1, v1), (u0, v1)):
                p = [0, 0, 0]
                p[f.axis] = f.offset
                p[ua] = u
                p[va] = v
                quad.append(vertex(tuple(p)))
            tris.append((quad[0], quad[1], quad[2]))
            tris.append((quad[0], quad[2], quad[3]))
    vertices = np.asarray(verts, dtype=np.float64) / 10.0
    return TriMesh(vertices, np.asarray(tris, dtype=np.int64))


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
