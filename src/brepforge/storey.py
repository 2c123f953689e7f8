"""Storey plans: wall segments from a room tiling, doors, and windows.

Room id 0 is the core; grafted rooms are numbered 1..n in graft order.
Exterior walls are footprint boundary pieces split so each has exactly one
adjacent room; interior walls are the shared segments between adjacent
rectangles.  Doors follow a breadth-first spanning tree rooted at the core
so every room stays reachable; windows are generated per exterior wall by
orientation group and length bin, then pruned per room to avoid
over-fenestration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import InconsistentPlanError, UnreachableRoomError
from .geom2d import Footprint, Point2, Rect

NS = ("N", "S")
EW = ("E", "W")

DOOR_WIDTH = 9
DOOR_HEIGHT = 21
OPENING_END_MARGIN = 1
MIN_DOOR_WALL = DOOR_WIDTH + 2 * OPENING_END_MARGIN


@dataclass(frozen=True)
class WallSegment:
    wall_id: int
    p1: Point2  # lexicographically smaller endpoint (south/west end)
    p2: Point2
    thickness: int
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
    wall_id: int
    kind: str  # "door" | "window" | "entrance"
    offset: int  # along the wall from p1
    width: int
    sill: int
    height: int


@dataclass(frozen=True)
class WindowSpec:
    width: int
    height: int
    sill: int


@dataclass(frozen=True)
class WindowTable:
    """Per-orientation-group window parameters for three wall-length bins.

    North/south windows are larger than east/west ones and all are
    overridable through the generator config.
    """

    bins: tuple[int, int, int] = (12, 30, 50)
    ns: tuple[WindowSpec, ...] = (
        WindowSpec(9, 14, 9),
        WindowSpec(18, 15, 9),
        WindowSpec(24, 15, 9),
    )
    ew: tuple[WindowSpec, ...] = (
        WindowSpec(6, 12, 10),
        WindowSpec(9, 12, 10),
        WindowSpec(12, 12, 10),
    )


@dataclass
class StoreyPlan:
    footprint: Footprint
    rooms: list[Rect]  # grafted rooms only
    core: Rect
    storey_height: int
    walls: list[WallSegment] = field(default_factory=list)
    openings: list[Opening] = field(default_factory=list)

    def wall_by_id(self, wall_id: int) -> WallSegment:
        return self.walls[wall_id]


def _shared_segment(a: Rect, b: Rect):
    """Maximal shared boundary segment between interior-disjoint rects."""
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


def build_walls(
    snapshot: Footprint, rooms: list[Rect], core: Rect, thickness: int
) -> list[WallSegment]:
    """Wall layout for a storey whose rooms tile the snapshot exactly."""
    rects = [core] + list(rooms)
    total = sum(r.area_units for r in rects)
    if 2 * total != snapshot.area_units2():
        raise InconsistentPlanError(
            f"room areas ({total}) do not sum to footprint area ({snapshot.area_units2() / 2})"
        )
    for i in range(len(rects)):
        if not snapshot.contains_rect(rects[i]):
            raise InconsistentPlanError(f"room {i} leaves the footprint")
        for j in range(i + 1, len(rects)):
            if rects[i].interior_intersects(rects[j]):
                raise InconsistentPlanError(f"rooms {i} and {j} overlap")

    walls: list[WallSegment] = []

    def canonical(a: Point2, b: Point2) -> tuple[Point2, Point2]:
        return (a, b) if (a.x, a.y) <= (b.x, b.y) else (b, a)

    # Exterior: split each boundary edge at adjacent-room boundaries so each
    # piece borders exactly one room.
    for a, b in snapshot.edges():
        if a.x == b.x:
            orientation = "E" if b.y > a.y else "W"
            lo, hi = sorted((a.y, b.y))
            pieces = []
            for rid, r in enumerate(rects):
                if r.x0 == a.x or r.x1 == a.x:
                    # The room must lie on the interior side of the edge.
                    if (orientation == "E" and r.x1 == a.x) or (
                        orientation == "W" and r.x0 == a.x
                    ):
                        s, e = max(lo, r.y0), min(hi, r.y1)
                        if s < e:
                            pieces.append((s, e, rid))
            pieces.sort()
            covered = sum(e - s for s, e, _ in pieces)
            if covered != hi - lo:
                raise InconsistentPlanError(f"boundary edge {a}-{b} not fully tiled")
            for s, e, rid in pieces:
                p1, p2 = canonical(Point2(a.x, s), Point2(a.x, e))
                walls.append(WallSegment(0, p1, p2, thickness, "exterior", orientation, (rid,)))
        else:
            orientation = "S" if b.x > a.x else "N"
            lo, hi = sorted((a.x, b.x))
            pieces = []
            for rid, r in enumerate(rects):
                if r.y0 == a.y or r.y1 == a.y:
                    if (orientation == "N" and r.y1 == a.y) or (
                        orientation == "S" and r.y0 == a.y
                    ):
                        s, e = max(lo, r.x0), min(hi, r.x1)
                        if s < e:
                            pieces.append((s, e, rid))
            pieces.sort()
            covered = sum(e - s for s, e, _ in pieces)
            if covered != hi - lo:
                raise InconsistentPlanError(f"boundary edge {a}-{b} not fully tiled")
            for s, e, rid in pieces:
                p1, p2 = canonical(Point2(s, a.y), Point2(e, a.y))
                walls.append(WallSegment(0, p1, p2, thickness, "exterior", orientation, (rid,)))

    interior = []
    for i in range(len(rects)):
        for j in range(i + 1, len(rects)):
            seg = _shared_segment(rects[i], rects[j])
            if seg is not None:
                p1, p2 = canonical(*seg)
                interior.append(WallSegment(0, p1, p2, thickness, "interior", None, (i, j)))
    interior.sort(key=lambda w: (w.p1.x, w.p1.y, w.p2.x, w.p2.y))
    walls.extend(interior)
    return [replace(w, wall_id=i) for i, w in enumerate(walls)]


def place_doors(plan: StoreyPlan) -> list[Opening]:
    """One door per spanning-tree edge of the room adjacency graph.

    Breadth-first from the core, neighbours visited in room-id order; each
    tree edge gets a door centered on the shared wall.  Placement is
    deterministic.
    """
    adjacency: dict[int, list[tuple[int, int]]] = {}
    for w in plan.walls:
        if w.kind != "interior" or w.length < MIN_DOOR_WALL:
            continue
        i, j = w.rooms
        adjacency.setdefault(i, []).append((j, w.wall_id))
        adjacency.setdefault(j, []).append((i, w.wall_id))

    n_rooms = len(plan.rooms)
    visited = {0}
    queue = [0]
    doors: list[Opening] = []
    while queue:
        cur = queue.pop(0)
        for neighbour, wall_id in sorted(adjacency.get(cur, [])):
            if neighbour in visited:
                continue
            visited.add(neighbour)
            queue.append(neighbour)
            wall = plan.wall_by_id(wall_id)
            offset = (wall.length - DOOR_WIDTH) // 2
            doors.append(Opening(wall_id, "door", offset, DOOR_WIDTH, 0, DOOR_HEIGHT))
    if len(visited) != n_rooms + 1:
        missing = sorted(set(range(n_rooms + 1)) - visited)
        raise UnreachableRoomError(f"rooms {missing} unreachable from the core")
    return doors


def generate_windows(plan: StoreyPlan, table: WindowTable | None = None) -> list[Opening]:
    """One window per exterior wall, parameterized by orientation and length.

    North/south windows are centered; east/west windows sit 0.3 m from the
    wall's southern end.  Walls shorter than the first bin get no window.
    """
    table = table or WindowTable()
    out: list[Opening] = []
    for w in plan.walls:
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
        out.append(Opening(w.wall_id, "window", offset, spec.width, spec.sill, spec.height))
    return out


def prune_windows(plan: StoreyPlan) -> list[Opening]:
    """Per-room hierarchical window filter; doors are never touched.

    For rooms with two to four windows (spans = widths, metres):
      max span >= 3      -> keep only the widest;
      1 < max span <= 3  -> keep the widest and the narrowest;
      all spans < 1 and more than two windows -> keep north/south facades;
      otherwise keep all.
    Ties resolve by (wall id, offset) order.
    """
    doors = [o for o in plan.openings if o.kind != "window"]
    windows = [o for o in plan.openings if o.kind == "window"]
    by_room: dict[int, list[Opening]] = {}
    for o in windows:
        room = plan.wall_by_id(o.wall_id).rooms[0]
        by_room.setdefault(room, []).append(o)

    kept: list[Opening] = []
    for room in sorted(by_room):
        group = sorted(by_room[room], key=lambda o: (o.wall_id, o.offset))
        if not (2 <= len(group) <= 4):
            kept.extend(group)
            continue
        max_span = max(o.width for o in group)
        if max_span >= 30:
            widest = min(group, key=lambda o: (-o.width, o.wall_id, o.offset))
            kept.append(widest)
        elif max_span > 10:
            widest = min(group, key=lambda o: (-o.width, o.wall_id, o.offset))
            narrowest = next(
                o
                for o in sorted(group, key=lambda o: (o.width, o.wall_id, o.offset))
                if o is not widest
            )
            kept.extend(sorted((widest, narrowest), key=lambda o: (o.wall_id, o.offset)))
        elif max_span < 10 and len(group) > 2:
            kept.extend(
                o for o in group if plan.wall_by_id(o.wall_id).orientation in NS
            )
        else:
            kept.extend(group)
    order = {id(o): i for i, o in enumerate(windows)}
    kept.sort(key=lambda o: order[id(o)])
    return doors + kept
