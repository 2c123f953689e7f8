"""Exact rectilinear 2-D kernel: footprint loops and rectangle unions.

All coordinates are integers in grid units of 0.1 m, and arithmetic is
exact; lengths in metres are snapped to the grid where they are read
(``records.to_units``).
Footprints are simple axis-parallel loops stored counter-clockwise, each
with the rectangles that tile its interior (``Footprint.tiles``): a grown
footprint is its core and the rooms grafted onto it, in graft order.
Overlap and edge contact with a rectangle are answered tile by tile, and
the loop of a union is walked from the two loops' edges: cut at each
other's corners, the pieces the two run both ways cancel, and the rest
close into the union's loop.  No loop the kernel builds is checked
again: property tests over grown streams hold its invariants.  The kernel
is pure Python and imports neither numpy nor the region tracer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import Rejected


class Point2(NamedTuple):
    x: int
    y: int


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


def _overlap_length(a0: int, a1: int, b0: int, b1: int) -> int:
    """Length shared by the intervals [a0, a1] and [b0, b1], 0 if disjoint."""
    return max(0, min(a1, b1) - max(a0, b0))


@dataclass(frozen=True)
class Footprint:
    """Axis-parallel loop and the interior-disjoint rectangles that tile it.

    A plain record: nothing is checked on construction.  The generator
    makes footprints with ``from_rect`` and ``union_rect`` alone, whose
    loops are simple, corner-only and counter-clockwise and whose tiles are
    the core and then each grafted room; property tests over grown streams
    hold those invariants.  The area is the tiles' area.
    """

    vertices: tuple[Point2, ...]
    tiles: tuple[Rect, ...]

    @classmethod
    def from_rect(cls, r: Rect) -> "Footprint":
        return cls(r.corners(), (r,))

    def edges(self) -> list[tuple[Point2, Point2]]:
        v = self.vertices
        return [(a, b) for a, b in zip(v, v[1:] + v[:1]) if a != b]

    def bbox(self) -> Rect:
        xs = [p.x for p in self.vertices]
        ys = [p.y for p in self.vertices]
        return Rect(min(xs), min(ys), max(xs), max(ys))


def is_concave(f: Footprint, i: int) -> bool:
    """True iff the loop turns clockwise at vertex i: a 270° interior
    angle.  On a corner-only loop each other vertex is a 90° convex one."""
    v = f.vertices
    n = len(v)
    a, b, c = v[(i - 1) % n], v[i], v[(i + 1) % n]
    return (b.x - a.x) * (c.y - b.y) < (b.y - a.y) * (c.x - b.x)


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
    The walked loop starts anywhere; `_start_corner` picks the canonical
    start from its edges.
    """
    if overlaps(f, r):
        raise Rejected("collision", f"rect {r} overlaps footprint interior")
    side_len = {
        "left": r.height,
        "right": r.height,
        "bottom": r.width,
        "top": r.width,
    }
    contact = _contact_lengths(f, r)
    if all(c == 0 for c in contact.values()):
        raise Rejected("no-contact", "rect does not share a boundary segment with footprint")
    for name, c in contact.items():
        if c not in (0, side_len[name]):
            raise Rejected("partial-contact", f"partial contact on {name} side ({c} of {side_len[name]} units)")

    # The union's boundary is f's loop and r's, less the stretches they
    # share: cut at each other's corners, a shared stretch is one piece run
    # once each way.  r shares a boundary segment with f, so the union is
    # connected: the pieces left form one outer loop, and any other loop is
    # a hole.
    corners = r.corners()
    sides = list(zip(corners, corners[1:] + corners[:1]))
    pieces = _cut(f.edges(), corners) + _cut(sides, f.vertices)
    reversed_pieces = {(b, a) for a, b in pieces}
    succ: dict[Point2, Point2] = {}
    for a, b in pieces:
        if (a, b) not in reversed_pieces:
            if a in succ:
                # The boundary touches itself at a: r meets f there at a
                # point, or closes a hole that touches the outside there.
                raise Rejected("pinch", "union pinches")
            succ[a] = b
    first = next(iter(succ))
    loop, p = [first], succ[first]
    while p != first:
        loop.append(p)
        p = succ[p]
    if len(loop) != len(succ):
        raise Rejected("hole", "union encloses a hole")
    loop = [
        b
        for a, b, c in zip(loop[-1:] + loop[:-1], loop, loop[1:] + loop[:1])
        if not (a.x == b.x == c.x or a.y == b.y == c.y)
    ]
    k = _start_corner(f, r, loop)
    return Footprint(tuple(loop[k:] + loop[:k]), (*f.tiles, r))


def _cut(edges, points) -> list[tuple[Point2, Point2]]:
    """The edges cut into pieces at the points that lie strictly inside
    them, each piece running the way its edge runs."""
    pieces = []
    for a, b in edges:
        k = 0 if a.y == b.y else 1  # the coordinate that varies along the edge
        line, lo, hi = a[1 - k], min(a[k], b[k]), max(a[k], b[k])
        inside = [p for p in points if p[1 - k] == line and lo < p[k] < hi]
        if inside:
            inside.sort(key=lambda p: p[k], reverse=b[k] < a[k])
            ends = [a, *inside, b]
            pieces += zip(ends, ends[1:])
        else:
            pieces.append((a, b))
    return pieces


def _start_corner(f: Footprint, r: Rect, loop: list[tuple[int, int]]) -> int:
    """Index in the union loop of the corner the footprint starts at.

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


def has_facing_gap(f: Footprint, below: int) -> bool:
    """True iff two antiparallel boundary edges have outward normals facing
    each other across an exterior gap narrower than ``below`` units (the
    grammar's sliver guard).

    The edges of each orientation are sorted by their line, so only lines
    less than ``below`` apart are compared.
    """
    # Per edge: its line, its low and high end along the line, and whether
    # its outward normal points up the axis across the lines.  The outward
    # normal of a CCW edge (dx, dy) is (sign(dy), -sign(dx)).
    vertical, horizontal = [], []
    for a, b in f.edges():
        if a.x == b.x:
            vertical.append((a.x, min(a.y, b.y), max(a.y, b.y), b.y > a.y))
        elif a.y == b.y:
            horizontal.append((a.y, min(a.x, b.x), max(a.x, b.x), b.x < a.x))
    for lines in (sorted(vertical), sorted(horizontal)):
        for k, (line, lo, hi, up) in enumerate(lines):
            if not up:
                continue
            # Facing: this edge's normal points up toward the other line,
            # whose edge's normal points back down, and the two overlap.
            for line2, lo2, hi2, up2 in lines[k + 1 :]:
                if line2 - line >= below:
                    break
                if line2 > line and not up2 and max(lo, lo2) < min(hi, hi2):
                    return True
    return False
