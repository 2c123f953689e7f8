"""Storey plans: wall segments from a footprint's tiles, doors, and windows.

A storey's rooms are its footprint's tiles: room id 0 is the core and
grafted rooms are numbered 1..n in graft order.  Exterior walls are
footprint boundary pieces split so each has exactly one adjacent room;
interior walls are the shared segments between adjacent tiles.  Doors
follow a breadth-first spanning tree rooted at the core so every room
stays reachable; windows are generated per exterior wall by orientation
group and length bin, then pruned per room to avoid over-fenestration.
Every opening holds the wall it sits in.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Discard
from .geom2d import Footprint, Point2, Rect

NS = ("N", "S")

DOOR_WIDTH = 9
DOOR_HEIGHT = 21
OPENING_END_MARGIN = 1
MIN_DOOR_WALL = DOOR_WIDTH + 2 * OPENING_END_MARGIN

# Outward side of a counter-clockwise boundary edge, keyed by
# (edge runs along y, edge runs toward larger coordinates).
_ORIENTATION = {(True, True): "E", (True, False): "W", (False, True): "S", (False, False): "N"}


@dataclass(frozen=True)
class WallSegment:
    p1: Point2  # lexicographically smaller endpoint (south/west end)
    p2: Point2
    kind: str  # "exterior" | "interior"
    orientation: str | None  # N/E/S/W for exterior walls
    rooms: tuple[int, ...]

    @property
    def length(self) -> int:
        return abs(self.p2.x - self.p1.x) + abs(self.p2.y - self.p1.y)

    @property
    def along_y(self) -> bool:
        return self.p1.x == self.p2.x

    def midpoint2(self) -> tuple[int, int]:
        """Doubled midpoint coordinates (exact)."""
        return (self.p1.x + self.p2.x, self.p1.y + self.p2.y)


@dataclass(frozen=True)
class Opening:
    wall: WallSegment
    kind: str  # "door" | "window" | "entrance"
    offset: int  # along the wall from p1
    width: int
    sill: int
    height: int


@dataclass(frozen=True)
class WindowSpec:
    """A window's size and sill in grid units; `config` checks the values."""

    width: int
    height: int
    sill: int


@dataclass(frozen=True)
class WindowTable:
    """Per-orientation-group window parameters for three wall-length bins.

    North/south windows are larger than east/west ones and all are
    overridable through the generator config, which checks the values.
    """

    bins: tuple[int, int, int]
    ns: tuple[WindowSpec, ...]
    ew: tuple[WindowSpec, ...]


@dataclass
class StoreyPlan:
    footprint: Footprint  # its tiles are the core, then the grafted rooms
    walls: list[WallSegment]  # exterior along the footprint loop, then interior
    openings: list[Opening]


def _shared_segment(a: Rect, b: Rect):
    """Maximal shared boundary segment between interior-disjoint tiles."""
    if a.x1 == b.x0 or b.x1 == a.x0:
        x = a.x1 if a.x1 == b.x0 else b.x1
        lo, hi = max(a.y0, b.y0), min(a.y1, b.y1)
        if lo < hi:
            return Point2(x, lo), Point2(x, hi)
    if a.y1 == b.y0 or b.y1 == a.y0:
        y = a.y1 if a.y1 == b.y0 else b.y1
        lo, hi = max(a.x0, b.x0), min(a.x1, b.x1)
        if lo < hi:
            return Point2(lo, y), Point2(hi, y)
    return None


def build_walls(snapshot: Footprint) -> list[WallSegment]:
    """Wall layout for a storey whose rooms are the snapshot's tiles.

    The tiles tile the footprint, so the exterior pieces of each boundary
    edge cover it exactly, end to end.  Every segment is made with p1 below
    p2 in (x, y) order.
    """
    tiles = snapshot.tiles
    walls: list[WallSegment] = []
    # Exterior: split each boundary edge at adjacent-room boundaries so each
    # piece borders exactly one room.  An edge sits at `fixed` on one axis
    # and runs from `start` to `end` on the other.
    for a, b in snapshot.edges():
        along_y = a.x == b.x
        fixed, start, end = (a.x, a.y, b.y) if along_y else (a.y, a.x, b.x)
        lo, hi = min(start, end), max(start, end)
        # The loop keeps the interior on its left, so a bordering room ends
        # at the edge on its high side when the edge runs up along y or
        # toward -x, and on its low side otherwise.
        high_side = (end > start) == along_y
        pieces = []
        for rid, r in enumerate(tiles):
            f0, f1, r0, r1 = (r.x0, r.x1, r.y0, r.y1) if along_y else (r.y0, r.y1, r.x0, r.x1)
            if (f1 if high_side else f0) == fixed:
                s, e = max(lo, r0), min(hi, r1)
                if s < e:
                    pieces.append((s, e, rid))
        pieces.sort()
        orientation = _ORIENTATION[along_y, end > start]
        for s, e, rid in pieces:
            if along_y:
                p1, p2 = Point2(fixed, s), Point2(fixed, e)
            else:
                p1, p2 = Point2(s, fixed), Point2(e, fixed)
            walls.append(WallSegment(p1, p2, "exterior", orientation, (rid,)))

    interior = []
    for i in range(len(tiles)):
        for j in range(i + 1, len(tiles)):
            seg = _shared_segment(tiles[i], tiles[j])
            if seg is not None:
                interior.append(WallSegment(*seg, "interior", None, (i, j)))
    interior.sort(key=lambda w: (w.p1, w.p2))
    return walls + interior


def place_doors(walls: list[WallSegment], n_rooms: int) -> list[Opening]:
    """One door per spanning-tree edge of the room adjacency graph.

    Breadth-first from the core, neighbours visited in room-id order; each
    tree edge gets a door centered on the shared wall.  Placement is
    deterministic.
    """
    # Two rooms share at most one wall, so each neighbour appears once.
    adjacency: dict[int, dict[int, WallSegment]] = {}
    for w in walls:
        if w.kind != "interior" or w.length < MIN_DOOR_WALL:
            continue
        i, j = w.rooms
        adjacency.setdefault(i, {})[j] = w
        adjacency.setdefault(j, {})[i] = w

    visited = {0}
    queue = [0]
    doors: list[Opening] = []
    while queue:
        cur = queue.pop(0)
        neighbours = adjacency.get(cur, {})
        for neighbour in sorted(neighbours):
            if neighbour in visited:
                continue
            visited.add(neighbour)
            queue.append(neighbour)
            wall = neighbours[neighbour]
            offset = (wall.length - DOOR_WIDTH) // 2
            doors.append(Opening(wall, "door", offset, DOOR_WIDTH, 0, DOOR_HEIGHT))
    if len(visited) != n_rooms + 1:
        missing = sorted(set(range(n_rooms + 1)) - visited)
        raise Discard("unreachable-room", f"rooms {missing} unreachable from the core")
    return doors


def generate_windows(walls: list[WallSegment], table: WindowTable) -> list[Opening]:
    """One window per exterior wall, parameterized by orientation and length.

    North/south windows are centered; east/west windows sit 0.3 m from the
    wall's southern end.  Walls shorter than the first bin get no window.
    Windows come in wall order.
    """
    out: list[Opening] = []
    for w in walls:
        if w.kind != "exterior":
            continue
        length = w.length
        if length < table.bins[0]:
            continue
        b = 0
        if length >= table.bins[2]:
            b = 2
        elif length >= table.bins[1]:
            b = 1
        spec = (table.ns if w.orientation in NS else table.ew)[b]
        if w.orientation in NS:
            offset = (length - spec.width) // 2
        else:
            offset = 3  # east/west windows offset toward the southern end
        out.append(Opening(w, "window", offset, spec.width, spec.sill, spec.height))
    return out


def _kept_in_room(group: list[Opening]) -> list[Opening]:
    if not (2 <= len(group) <= 4):
        return group
    widest = max(group, key=lambda o: o.width)
    if widest.width >= 30:
        return [widest]
    if widest.width > 10:
        narrowest = min((o for o in group if o is not widest), key=lambda o: o.width)
        return [widest, narrowest]
    if widest.width < 10 and len(group) > 2:
        return [o for o in group if o.wall.orientation in NS]
    return group


def prune_windows(windows: list[Opening]) -> list[Opening]:
    """Per-room hierarchical window filter over windows in wall order.

    For rooms with two to four windows (spans = widths, metres):
      max span >= 3      -> keep only the widest;
      1 < max span <= 3  -> keep the widest and the narrowest;
      all spans < 1 and more than two windows -> keep north/south facades;
      otherwise keep all.
    Ties resolve to the first window in order.  The kept windows stay in
    their input order.
    """
    by_room: dict[int, list[Opening]] = {}
    for o in windows:
        by_room.setdefault(o.wall.rooms[0], []).append(o)
    kept = {room: _kept_in_room(group) for room, group in by_room.items()}
    return [o for o in windows if o in kept[o.wall.rooms[0]]]
