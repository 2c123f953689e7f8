"""Exact rectilinear 2-D kernel: footprint loops, unions, cleanup, notches.

All coordinates are integers in grid units of 0.1 m.  Arithmetic is exact;
metres appear only at the API boundary (``to_units`` / ``to_metres``).
Footprints are simple axis-parallel loops stored counter-clockwise.  Each
footprint's interior is partitioned once into rectangles (``Footprint.rects``);
overlap, containment and edge contact with a rectangle are answered piece by
piece on that partition.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import (
    CollisionError,
    ConflictError,
    InvalidFootprintError,
    MustCleanFirstError,
)


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

    def contains_rect(self, other: "Rect") -> bool:
        return (
            self.x0 <= other.x0
            and self.y0 <= other.y0
            and other.x1 <= self.x1
            and other.y1 <= self.y1
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


def _segments_cross(p1, p2, q1, q2) -> bool:
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


@dataclass(frozen=True)
class Footprint:
    """Simple axis-parallel loop; may carry redundant vertices until cleaned."""

    vertices: tuple[Point2, ...]

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
        self._check_simple()

    def _check_simple(self):
        edges = [
            (a, b)
            for a, b in zip(self.vertices, self.vertices[1:] + self.vertices[:1])
            if a != b
        ]
        n = len(edges)
        for i in range(n):
            for j in range(i + 1, n):
                adjacent = j == i + 1 or (i == 0 and j == n - 1)
                p1, p2 = edges[i]
                q1, q2 = edges[j]
                if _segments_cross(p1, p2, q1, q2):
                    raise InvalidFootprintError(f"edges {edges[i]} and {edges[j]} intersect")
                if not adjacent:
                    # Non-adjacent edges may not even share an endpoint
                    # (that would pinch the loop).
                    if len({p1, p2} & {q1, q2}) > 0:
                        raise InvalidFootprintError(f"loop pinches at {set((p1, p2)) & set((q1, q2))}")

    @classmethod
    def from_metres(cls, coords: Iterable[tuple[float, float]]) -> "Footprint":
        return cls(tuple(Point2(to_units(x), to_units(y)) for x, y in coords))

    @classmethod
    def from_rect(cls, r: Rect) -> "Footprint":
        return cls(r.corners())

    @property
    def is_clean(self) -> bool:
        v = self.vertices
        n = len(v)
        if _signed_area2(v) < 0:
            return False
        for i in range(n):
            a, b, c = v[i - 1], v[i], v[(i + 1) % n]
            if a == b:
                return False
            if (a.x == b.x == c.x) or (a.y == b.y == c.y):
                return False
        return True

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

    @cached_property
    def rects(self) -> tuple[Rect, ...]:
        """Partition of the interior into horizontal slab rectangles.

        Cached on the footprint: the grammar asks one footprint many
        overlap, containment and contact questions.
        """
        ys = sorted({p.y for p in self.vertices})
        rects: list[Rect] = []
        for y_lo, y_hi in zip(ys, ys[1:]):
            y2 = y_lo + y_hi  # 2 * midpoint, exact
            crossings = []
            for a, b in self.edges():
                if a.x != b.x:
                    continue
                lo, hi = sorted((2 * a.y, 2 * b.y))
                if lo < y2 < hi:
                    crossings.append(a.x)
            crossings.sort()
            for x_lo, x_hi in zip(crossings[::2], crossings[1::2]):
                rects.append(Rect(x_lo, y_lo, x_hi, y_hi))
        return tuple(rects)

    def contains_rect(self, r: Rect) -> bool:
        covered = sum(
            _overlap_length(p.x0, p.x1, r.x0, r.x1) * _overlap_length(p.y0, p.y1, r.y0, r.y1)
            for p in self.rects
        )
        return covered == r.area_units


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


def vertex_kind_counts(f: Footprint) -> tuple[int, int]:
    """(convex, concave) counts over the cleaned loop."""
    kinds = [classify_vertex(f, i) for i in range(len(f.vertices))]
    convex = sum(1 for k in kinds if k is VertexKind.CONVEX)
    return convex, len(kinds) - convex


def clean(f: Footprint) -> Footprint:
    """Drop coincident/collinear vertices and normalize orientation to CCW."""
    pts = list(f.vertices)
    if _signed_area2(tuple(pts)) < 0:
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
            raise InvalidFootprintError("loop collapsed below 4 vertices during cleanup")
    return Footprint(tuple(pts))


def overlaps(f: Footprint, r: Rect) -> bool:
    """True iff interior(f) ∩ interior(r) has positive area."""
    return any(p.interior_intersects(r) for p in f.rects)


def _contact_lengths(f: Footprint, r: Rect) -> dict[str, int]:
    """Per-side length of r's boundary lying on f's boundary (grid units).

    Precondition: r does not overlap f (``union_rect`` checks it first).
    Then f's boundary on a side of r is exactly where a piece of
    ``f.rects`` has its opposite side on that line: a piece's right side on
    r's left side, and so on.
    """
    out = {"left": 0, "right": 0, "bottom": 0, "top": 0}
    for p in f.rects:
        if p.x1 == r.x0:
            out["left"] += _overlap_length(p.y0, p.y1, r.y0, r.y1)
        if p.x0 == r.x1:
            out["right"] += _overlap_length(p.y0, p.y1, r.y0, r.y1)
        if p.y1 == r.y0:
            out["bottom"] += _overlap_length(p.x0, p.x1, r.x0, r.x1)
        if p.y0 == r.y1:
            out["top"] += _overlap_length(p.x0, p.x1, r.x0, r.x1)
    return out


def union_rect(f: Footprint, r: Rect) -> Footprint:
    """Union of a clean footprint with an edge-adjacent rectangle.

    The rectangle must touch f along full rectangle sides only: any side
    with partial contact (straddling a corner or hanging past an edge end)
    is rejected, as are point contacts and interior overlaps.
    """
    if not f.is_clean:
        raise MustCleanFirstError("union_rect requires a cleaned footprint")
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

    # Directed boundary edges cancel where the two loops traverse a shared
    # segment in opposite directions; the survivors stitch into the union.
    lines: dict[tuple[str, int], list[tuple[int, int, int]]] = {}

    def add_edges(edges):
        for a, b in edges:
            if a.x == b.x:
                key = ("x", a.x)
                lines.setdefault(key, []).append((a.y, b.y, 1 if b.y > a.y else -1))
            else:
                key = ("y", a.y)
                lines.setdefault(key, []).append((a.x, b.x, 1 if b.x > a.x else -1))

    add_edges(f.edges())
    add_edges(Footprint.from_rect(r).edges())

    segments: list[tuple[Point2, Point2]] = []
    for (axis, fixed), entries in lines.items():
        breaks = sorted({c for s, e, _ in entries for c in (s, e)})
        for lo, hi in zip(breaks, breaks[1:]):
            net = 0
            for s, e, d in entries:
                if min(s, e) <= lo and hi <= max(s, e):
                    net += d
            if net == 0:
                continue
            if abs(net) > 1:
                raise ConflictError("union boundary is non-simple")
            a, b = (lo, hi) if net > 0 else (hi, lo)
            if axis == "x":
                segments.append((Point2(fixed, a), Point2(fixed, b)))
            else:
                segments.append((Point2(a, fixed), Point2(b, fixed)))

    outgoing: dict[Point2, Point2] = {}
    for a, b in segments:
        if a in outgoing:
            raise ConflictError(f"union pinches at {a}")
        outgoing[a] = b
    start = segments[0][0]
    loop = [start]
    cur = outgoing[start]
    while cur != start:
        loop.append(cur)
        cur = outgoing.get(cur)
        if cur is None or len(loop) > len(segments):
            raise ConflictError("union boundary does not close into one loop")
    if len(loop) != len(segments):
        raise ConflictError("union produced more than one boundary loop")

    result = clean(Footprint(tuple(loop)))
    if result.area_units2() != f.area_units2() + 2 * r.area_units:
        raise ConflictError("union area mismatch (shapes touch at a point?)")
    return result


def facing_gaps(f: Footprint, below: int) -> list[tuple[int, int, int]]:
    """Antiparallel boundary edge pairs whose outward normals face each other
    across an exterior gap narrower than ``below`` units.

    Returns (edge index a, edge index b, gap) triples; used both by the
    notch filler and by the grammar's sliver guard.
    """
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


def fill_notches(f: Footprint, max_gap_units: int = 5) -> Footprint:
    """Snap closed every notch: a facing edge pair closer than max_gap with
    both edges shorter than max_gap.  No-op when nothing qualifies."""
    cur = f if f.is_clean else clean(f)
    while True:
        edges = cur.edges()
        filled = False
        for i, j, _gap in facing_gaps(cur, max_gap_units):
            (a1, a2), (b1, b2) = edges[i], edges[j]
            len_a = abs(a2.x - a1.x) + abs(a2.y - a1.y)
            len_b = abs(b2.x - b1.x) + abs(b2.y - b1.y)
            if len_a >= max_gap_units or len_b >= max_gap_units:
                continue
            xs = sorted({a1.x, a2.x, b1.x, b2.x})
            ys = sorted({a1.y, a2.y, b1.y, b2.y})
            try:
                patch = Rect(xs[0], ys[0], xs[-1], ys[-1])
            except ValueError:
                continue
            if overlaps(cur, patch):
                continue
            try:
                cur = union_rect(cur, patch)
            except (ConflictError, CollisionError):
                continue
            filled = True
            break
        if not filled:
            return cur
