"""Building assembly: tiered storey stacking, slabs, atrium, entrance.

Storey k (bottom = 1) of an S-storey building reuses growth snapshot
S - k + 1, so the ground floor carries the most rooms and each floor above
drops exactly one — the per-floor pattern (S, S-1, ..., 1) that also
serves as the dataset's label oracle.  A storey's core and rooms are its
snapshot's tiles.  The whole building is one box grid:
the ground slab and every storey's full-height prisms over its core and
rooms, each dilated by half a wall, are material; room voids, opening
boxes, and one core shaft from the ground slab to the roof are removed; a
single `solid_from_boxes` call traces the solid.
"""

from __future__ import annotations

from dataclasses import dataclass

from .brep import Box, BRepSolid, solid_from_boxes
from .dataset import BuildingMeta, tiered_room_counts
from .errors import (
    AssemblyInconsistencyError,
    BooleanFailureError,
    GrowthFailedError,
)
from .geom2d import Footprint, polygon_area
from .grammar import GrowthTrace
from .rng import SeededRng
from .storey import (
    Opening,
    StoreyPlan,
    WallSegment,
    WindowTable,
    build_walls,
    generate_windows,
    place_doors,
    prune_windows,
)


@dataclass(frozen=True)
class BuildingConfig:
    """Vertical dimensions and entrance/slab rules in grid units of 0.1 m."""

    storey_height: int
    slab_thickness: int
    wall_thickness: int
    ground_offset: int
    entrance_min_wall: int
    entrance_width: int
    entrance_height: int
    window_table: WindowTable

    def __post_init__(self):
        for name in ("wall_thickness", "slab_thickness", "entrance_width", "entrance_height"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.wall_thickness % 2:
            raise ValueError("wall thickness must be an even number of grid units")
        if self.slab_thickness >= self.storey_height:
            raise ValueError("slab thicker than the storey")


@dataclass
class Building:
    storeys: list[StoreyPlan]  # bottom to top
    solid: BRepSolid
    meta: BuildingMeta
    config: BuildingConfig


def order_storeys(trace: GrowthTrace) -> tuple[Footprint, ...]:
    """Bottom-up storey footprints under the tiered-setback rule."""
    if len(trace.snapshots) < 2:
        raise GrowthFailedError("need at least 2 snapshots to stack storeys")
    return trace.snapshots[::-1]


def build_storey_plan(snapshot: Footprint, config: BuildingConfig) -> StoreyPlan:
    walls = build_walls(snapshot)
    doors = place_doors(walls, len(snapshot.tiles) - 1)
    windows = prune_windows(generate_windows(walls, config.window_table))
    return StoreyPlan(snapshot, walls, doors + windows)


def place_entrance(plan: StoreyPlan, config: BuildingConfig) -> Opening:
    """Entrance on the exterior wall nearest the footprint centroid.

    Walls longer than the minimum are preferred; with none, all exterior
    walls compete.  Distance comparison is exact integer arithmetic and
    ties break toward the first wall in plan order.
    """
    exterior = [w for w in plan.walls if w.kind == "exterior"]
    if not exterior:
        raise AssemblyInconsistencyError("storey has no exterior walls")
    # A selected wall must host the opening with one unit of clearance at
    # each end, or its box would touch the perpendicular wall's corner.
    fits = [w for w in exterior if w.length >= config.entrance_width + 2]
    if not fits:
        raise AssemblyInconsistencyError("no exterior wall can host the entrance")
    candidates = [w for w in fits if w.length > config.entrance_min_wall]
    if not candidates:
        candidates = fits
    # Area and doubled first moments of the footprint from the tiles that
    # fill it: the centroid is (mx, my) / (2 * area).
    tiles = plan.footprint.tiles
    area = sum(r.area_units for r in tiles)
    mx = sum(r.area_units * (r.x0 + r.x1) for r in tiles)
    my = sum(r.area_units * (r.y0 + r.y1) for r in tiles)

    def distance2(w: WallSegment) -> int:
        """Squared midpoint-to-centroid distance, scaled by (2 * area)²."""
        mx2, my2 = w.midpoint2()
        dx = area * mx2 - mx
        dy = area * my2 - my
        return dx * dx + dy * dy

    wall = min(candidates, key=distance2)
    offset = (wall.length - config.entrance_width) // 2
    return Opening(wall, "entrance", offset, config.entrance_width, 0, config.entrance_height)


def _opening_box(opening: Opening, z_base: int, z_wall_top: int, t_half: int) -> Box:
    wall = opening.wall
    z0 = z_base + opening.sill
    z1 = z0 + opening.height
    if z1 > z_wall_top or opening.offset < 0 or opening.offset + opening.width > wall.length:
        # Guards misconfigured window tables; walls end at the slab soffit.
        raise BooleanFailureError(f"opening {opening} does not fit its wall")
    if wall.along_y:
        y0 = wall.p1.y + opening.offset
        return Box(wall.p1.x - t_half, y0, z0, wall.p1.x + t_half, y0 + opening.width, z1)
    x0 = wall.p1.x + opening.offset
    return Box(x0, wall.p1.y - t_half, z0, x0 + opening.width, wall.p1.y + t_half, z1)


def building_boxes(plans: list[StoreyPlan], config: BuildingConfig) -> tuple[list[Box], list[Box]]:
    """(material, void) boxes of the whole building on one integer grid.

    Material: the ground slab (ground footprint's bounding box dilated by
    the apron, below z = 0) and each storey's full-height prisms over its core and
    rooms, each dilated by half a wall, top slab included.  Voids: each
    storey's rooms up to the slab soffit, its opening boxes, and one core
    shaft from the ground slab through every inter-storey slab and the roof.
    """
    t_half = config.wall_thickness // 2
    bbox = plans[0].footprint.bbox().dilated(config.ground_offset)
    positive = [Box(bbox.x0, bbox.y0, -config.slab_thickness, bbox.x1, bbox.y1, 0)]
    negative = []
    for level, plan in enumerate(plans, start=1):
        zb = (level - 1) * config.storey_height
        zt = level * config.storey_height - config.slab_thickness
        z_top = level * config.storey_height
        # The core and rooms tile the footprint, and dilating a union is the
        # union of the dilated tiles.
        tiles = plan.footprint.tiles
        for r in tiles:
            d = r.dilated(t_half)
            positive.append(Box(d.x0, d.y0, zb, d.x1, d.y1, z_top))
        for room in tiles[1:]:
            void = room.eroded(t_half)
            negative.append(Box(void.x0, void.y0, zb, void.x1, void.y1, zt))
        negative += [_opening_box(o, zb, zt, t_half) for o in plan.openings]
    shaft = plans[0].footprint.tiles[0].eroded(t_half)
    z_roof = len(plans) * config.storey_height
    negative.append(Box(shaft.x0, shaft.y0, 0, shaft.x1, shaft.y1, z_roof))
    return positive, negative


def _building_meta(building_id: str, seed: int, plans: list[StoreyPlan]) -> BuildingMeta:
    room_total, room_per_floor = tiered_room_counts(len(plans))
    rooms = [
        [[r.width / 10.0, r.height / 10.0] for r in plan.footprint.tiles[1:]] for plan in plans
    ]
    openings = []
    for storey_idx, plan in enumerate(plans, start=1):
        for o in plan.openings:
            openings.append(
                {
                    "kind": o.kind,
                    "orientation": o.wall.orientation,
                    "width": o.width / 10.0,
                    "sill": o.sill / 10.0,
                    "height": o.height / 10.0,
                    "storey": storey_idx,
                }
            )
    total_area = sum(r.area_m2 for plan in plans for r in plan.footprint.tiles[1:])
    return BuildingMeta(
        id=building_id,
        seed=seed,
        storey_count=len(plans),
        room_total=room_total,
        room_per_floor=room_per_floor,
        rooms=rooms,
        openings=openings,
        avg_room_area=total_area / room_total,
        footprint_area=polygon_area(plans[0].footprint),
    )


def assemble(trace: GrowthTrace, config: BuildingConfig, rng: SeededRng) -> Building:
    """Full building: plans, entrance, one box-grid solid, metadata."""
    plans = [build_storey_plan(snapshot, config) for snapshot in order_storeys(trace)]
    ground = plans[0]
    entrance = place_entrance(ground, config)
    # Entrance owns its façade strip; drop windows within one unit of it.
    lo, hi = entrance.offset - 1, entrance.offset + entrance.width + 1
    ground.openings = [
        o
        for o in ground.openings
        if o.kind != "window" or o.wall != entrance.wall
        or o.offset + o.width <= lo or hi <= o.offset
    ] + [entrance]

    positive, negative = building_boxes(plans, config)
    return Building(
        storeys=plans,
        solid=solid_from_boxes(positive, negative),
        meta=_building_meta(f"bld{rng.stream:08d}", rng.stream, plans),
        config=config,
    )
