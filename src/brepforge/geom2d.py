"""Exact rectilinear 2-D kernel: footprint loops and rectangle unions.

All coordinates are integers in grid units of 0.1 m.  Arithmetic is exact;
metres appear only at the API boundary (``to_units`` / ``to_metres``).
Footprints are simple axis-parallel loops stored counter-clockwise, each
with the rectangles that tile its interior (``Footprint.tiles``): a grown
footprint is its core and the rooms grafted onto it, in graft order.
Overlap and edge contact with a rectangle are answered tile by tile, and
the boundary of a union is traced from the tiles by the region tracer
(``regions.trace_planes``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    CollisionError,
    ConflictError,
    InvalidFootprintError,
    MustCleanFirstError,
)
from .regions import trace_planes


def to_units(metres: float) -> int:
    """Snap a metre value to the 0.1 m grid; reject off-grid inputs."""
    units = round(metres * 10)
    if abs(units - metres * 10) > 1e-6:
        raise ValueError(f"{metres} m is not on the 0.1 m grid")
    return units


def to_metres(units: int) -> float:
    return units / 10.0


class Point2(NamedTuple):
    x: int
    y: int


class VertexKind(enum.Enum):
    CONVEX = "convex"
    CONCAVE = "concave"


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle in grid units, min corner strictly below max."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        if self.x0 >= self.x1 or self.y0 >= self.y1:
            raise ValueError(f"degenerate rect {self}")

    @classmethod
    def from_metres(cls, x0: float, y0: float, x1: float, y1: float) -> "Rect":
        return cls(to_units(x0), to_units(y0), to_units(x1), to_units(y1))

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    @property
    def area_units(self) -> int:
        return self.width * self.height

    @property
    def area_m2(self) -> float:
        return self.area_units / 100.0

    def corners(self) -> tuple[Point2, Point2, Point2, Point2]:
        return (
            Point2(self.x0, self.y0),
            Point2(self.x1, self.y0),
            Point2(self.x1, self.y1),
            Point2(self.x0, self.y1),
        )

    def interior_intersects(self, other: "Rect") -> bool:
        return (
            self.x0 < other.x1
            and other.x0 < self.x1
            and self.y0 < other.y1
            and other.y0 < self.y1
        )

    def eroded(self, d: int) -> "Rect":
        return Rect(self.x0 + d, self.y0 + d, self.x1 - d, self.y1 - d)

    def dilated(self, d: int) -> "Rect":
        return Rect(self.x0 - d, self.y0 - d, self.x1 + d, self.y1 + d)


def _signed_area2(vertices: tuple[Point2, ...]) -> int:
    """Twice the shoelace signed area, exact."""
    total = 0
    n = len(vertices)
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        total += a.x * b.y - b.x * a.y
    return total


def _overlap_length(a0: int, a1: int, b0: int, b1: int) -> int:
    """Length shared by the intervals [a0, a1] and [b0, b1], 0 if disjoint."""
    return max(0, min(a1, b1) - max(a0, b0))


@dataclass(frozen=True)
class Footprint:
    """Axis-parallel loop and the interior-disjoint rectangles that tile it.

    Construction checks only the vertex count, axis-parallel edges and a
    non-zero area; the tiles are taken as given.  The generator makes
    footprints with ``from_rect`` and ``union_rect`` alone: their loops are
    simple, corner-only and counter-clockwise, and their tiles are the core
    and then each grafted room.
    """

    vertices: tuple[Point2, ...]
    tiles: tuple[Rect, ...]

    def __post_init__(self):
        v = tuple(Point2(int(p[0]), int(p[1])) for p in self.vertices)
        object.__setattr__(self, "vertices", v)
        n = len(v)
        if n < 4:
            raise InvalidFootprintError(f"loop has {n} < 4 vertices")
        for i in range(n):
            a, b = v[i], v[(i + 1) % n]
            if a != b and a.x != b.x and a.y != b.y:
                raise InvalidFootprintError(f"edge {a}->{b} is not axis-parallel")
        if _signed_area2(v) == 0:
            raise InvalidFootprintError("loop encloses zero area")

    @classmethod
    def from_rect(cls, r: Rect) -> "Footprint":
        return cls(r.corners(), (r,))

    def area_units2(self) -> int:
        """Twice the enclosed area in grid units² (sign follows orientation)."""
        return _signed_area2(self.vertices)

    def edges(self) -> list[tuple[Point2, Point2]]:
        v = self.vertices
        return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v)) if v[i] != v[(i + 1) % len(v)]]

    def bbox(self) -> Rect:
        xs = [p.x for p in self.vertices]
        ys = [p.y for p in self.vertices]
        return Rect(min(xs), min(ys), max(xs), max(ys))


def polygon_area(f: Footprint) -> float:
    """Positive area of the CCW loop in m²."""
    area2 = f.area_units2()
    if area2 <= 0:
        raise InvalidFootprintError("loop is not counter-clockwise")
    return area2 / 200.0


def classify_vertex(f: Footprint, i: int) -> VertexKind:
    """Corner type at vertex i: 90° interior angle is convex, 270° concave."""
    v = f.vertices
    n = len(v)
    a, b, c = v[(i - 1) % n], v[i], v[(i + 1) % n]
    cross = (b.x - a.x) * (c.y - b.y) - (b.y - a.y) * (c.x - b.x)
    if cross == 0:
        raise MustCleanFirstError(f"collinear or coincident triple at vertex {i}")
    return VertexKind.CONVEX if cross > 0 else VertexKind.CONCAVE


def overlaps(f: Footprint, r: Rect) -> bool:
    """True iff interior(f) ∩ interior(r) has positive area."""
    return any(t.interior_intersects(r) for t in f.tiles)


def _contact_lengths(f: Footprint, r: Rect) -> dict[str, int]:
    """Per-side length of r's boundary lying on f's boundary (grid units).

    Precondition: r does not overlap f (``union_rect`` checks it first).
    Then f's boundary on a side of r is exactly where a tile of f has its
    opposite side on that line: a tile's right side on r's left side, and
    so on.
    """
    out = {"left": 0, "right": 0, "bottom": 0, "top": 0}
    for t in f.tiles:
        if t.x1 == r.x0:
            out["left"] += _overlap_length(t.y0, t.y1, r.y0, r.y1)
        if t.x0 == r.x1:
            out["right"] += _overlap_length(t.y0, t.y1, r.y0, r.y1)
        if t.y1 == r.y0:
            out["bottom"] += _overlap_length(t.x0, t.x1, r.x0, r.x1)
        if t.y0 == r.y1:
            out["top"] += _overlap_length(t.x0, t.x1, r.x0, r.x1)
    return out


def union_rect(f: Footprint, r: Rect) -> Footprint:
    """Union of a footprint with an edge-adjacent rectangle, tiled by f's
    tiles and then r.

    The rectangle must touch f along full rectangle sides only: any side
    with partial contact (straddling a corner or hanging past an edge end)
    is rejected, as are point contacts and interior overlaps, and so is a
    union that is not one simple loop (it encloses a hole or pinches).
    """
    if overlaps(f, r):
        raise CollisionError(f"rect {r} overlaps footprint interior")
    side_len = {
        "left": r.height,
        "right": r.height,
        "bottom": r.width,
        "top": r.width,
    }
    contact = _contact_lengths(f, r)
    if all(c == 0 for c in contact.values()):
        raise ConflictError("rect does not share a boundary segment with footprint")
    for name, c in contact.items():
        if c not in (0, side_len[name]):
            raise ConflictError(f"partial contact on {name} side ({c} of {side_len[name]} units)")

    # The cells of the grid through every corner of the tiles and r (a tile
    # corner need not be a loop vertex), filled tile by tile and traced as
    # one region.
    tiles = (*f.tiles, r)
    xs = sorted({x for t in tiles for x in (t.x0, t.x1)})
    ys = sorted({y for t in tiles for y in (t.y0, t.y1)})
    ix = {x: i for i, x in enumerate(xs)}
    iy = {y: j for j, y in enumerate(ys)}
    mask = np.zeros((len(xs) - 1, len(ys) - 1), dtype=bool)
    for t in tiles:
        mask[ix[t.x0] : ix[t.x1], iy[t.y0] : iy[t.y1]] = True
    # r shares a boundary segment with f, so the union is connected: one
    # outer loop, and any other loop is a hole.
    traced = trace_planes(mask[None], np.asarray(xs), np.asarray(ys))
    if len(traced.lens) != 1:
        raise ConflictError("union encloses a hole")
    loop = list(zip(traced.u.tolist(), traced.v.tolist()))
    if len(set(loop)) != len(loop):
        # A hole that touches the outer boundary at one vertex is traced as
        # part of the outer loop, which passes that vertex twice.
        raise ConflictError("union pinches")
    k = _start_corner(f, r, loop)
    return Footprint(tuple(loop[k:] + loop[:k]), tiles)


def _start_corner(f: Footprint, r: Rect, loop: list[tuple[int, int]]) -> int:
    """Index in the traced union loop of the corner the footprint starts at.

    The lines of f's edges are searched, in edge order, for the first that
    holds a union edge (some line does: r cannot cover all of f's
    boundary without overlapping f); of the union edges on it, the one with
    the smallest low end is taken.  The loop starts at that edge's first
    vertex if the edge runs toward +x or +y, or if no corner of f or r lies
    strictly inside it; else at its last vertex.  Storey walls and window
    draws follow the loop's order, so this rule is part of the output.
    """
    n = len(loop)
    lowest: dict[tuple[int, int], tuple[int, int]] = {}
    for k in range(n):
        (x1, y1), (x2, y2) = loop[k], loop[(k + 1) % n]
        line, low = ((0, x1), min(y1, y2)) if x1 == x2 else ((1, y1), min(x1, x2))
        if line not in lowest or low < lowest[line][0]:
            lowest[line] = (low, k)
    edge_lines = (((0, a.x) if a.x == b.x else (1, a.y)) for a, b in f.edges())
    axis, c = line = next(line for line in edge_lines if line in lowest)
    low, k = lowest[line]
    a, b = loop[k], loop[(k + 1) % n]
    if b[1 - axis] > a[1 - axis]:
        return k
    high = a[1 - axis]
    inside = any(p[axis] == c and low < p[1 - axis] < high for p in (*f.vertices, *r.corners()))
    return (k + 1) % n if inside else k


def facing_gaps(f: Footprint, below: int) -> list[tuple[int, int, int]]:
    """Antiparallel boundary edge pairs whose outward normals face each other
    across an exterior gap narrower than ``below`` units.

    Returns (edge index a, edge index b, gap) triples with a < b, in (a, b)
    order; used both by the notch check and by the grammar's sliver guard.
    The edges of each orientation are sorted by their line, so only lines
    less than ``below`` apart are compared.
    """
    # Per edge: its line, its low and high end along the line, and whether
    # its outward normal points up the axis across the lines.  The outward
    # normal of a CCW edge (dx, dy) is (sign(dy), -sign(dx)).
    vertical, horizontal = [], []
    for i, (a, b) in enumerate(f.edges()):
        if a.x == b.x:
            vertical.append((a.x, min(a.y, b.y), max(a.y, b.y), b.y > a.y, i))
        elif a.y == b.y:
            horizontal.append((a.y, min(a.x, b.x), max(a.x, b.x), b.x < a.x, i))
    out: list[tuple[int, int, int]] = []
    for lines in (sorted(vertical), sorted(horizontal)):
        for k, (line, lo, hi, up, i) in enumerate(lines):
            if not up:
                continue
            # Facing: this edge's normal points up toward the other line,
            # whose edge's normal points back down, and the two overlap.
            for line2, lo2, hi2, up2, j in lines[k + 1 :]:
                if line2 - line >= below:
                    break
                if line2 > line and not up2 and max(lo, lo2) < min(hi, hi2):
                    out.append((min(i, j), max(i, j), line2 - line))
    out.sort()
    return out


def fillable_notch(f: Footprint, max_gap_units: int) -> bool:
    """True iff f has a notch that could be snapped closed: a facing edge
    pair closer than max_gap with both edges shorter than max_gap, whose
    bounding patch joins f by ``union_rect``."""
    edges = f.edges()
    for i, j, _gap in facing_gaps(f, max_gap_units):
        (a1, a2), (b1, b2) = edges[i], edges[j]
        len_a = abs(a2.x - a1.x) + abs(a2.y - a1.y)
        len_b = abs(b2.x - b1.x) + abs(b2.y - b1.y)
        if len_a >= max_gap_units or len_b >= max_gap_units:
            continue
        # The edges are a positive gap apart and overlap along their line,
        # so the patch is never degenerate.
        xs = (a1.x, a2.x, b1.x, b2.x)
        ys = (a1.y, a2.y, b1.y, b2.y)
        try:
            union_rect(f, Rect(min(xs), min(ys), max(xs), max(ys)))
        except (ConflictError, CollisionError):
            continue
        return True
    return False
