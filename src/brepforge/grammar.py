"""Seeded shape grammar: grows a plan skeleton by grafting rooms onto a core.

Each step rewrites the footprint P into P ∪ R by one of two productions,
anchored at a randomly chosen vertex: concave corners are filled by a
rectangle snapped into the notch, convex corners project a rectangle into
free exterior space.  Growth stops at the room cap or when the retry
budget is exhausted by rejected productions (collisions, straddles,
slivers).  A footprint holds its tiles, the core and then each room in
graft order, so the snapshots are the whole record of the growth: the
rooms of snapshot k are its tiles after the first.  Every draw comes from
one SeededRng stream, so a (seed, stream) pair reproduces the trace
bit-for-bit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import Discard, Rejected
from .geom2d import Footprint, Rect, has_facing_gap, is_concave, union_rect
from .rng import SeededRng


@dataclass(frozen=True)
class GrammarConfig:
    """Growth parameters; lengths in grid units of 0.1 m.  `config` checks
    the values."""

    core_tube: Rect
    room_side_min: int
    room_side_max: int
    max_rooms: int
    # Reject productions that would leave an exterior slot narrower than
    # this between facing footprint edges.  Walls are the tiles dilated by
    # half a wall, so the slot left between built walls is this less one
    # wall thickness.
    min_exterior_gap: int
    # Failed attempts allowed over the whole growth.
    retry_budget: int


class Termination(enum.Enum):
    CAP = "cap"
    COLLISION = "collision"


@dataclass(frozen=True)
class GrowthTrace:
    """Snapshot k (0-based) is the core plus the first k+1 rooms: its tiles
    are snapshot k-1's tiles and then room k+1."""

    snapshots: tuple[Footprint, ...]
    terminated_by: Termination


def _edge_info(f: Footprint, i: int):
    """(prev_vertex, v, next_vertex) around index i with both edge lengths."""
    v = f.vertices
    n = len(v)
    a, b, c = v[(i - 1) % n], v[i], v[(i + 1) % n]
    len_prev = abs(b.x - a.x) + abs(b.y - a.y)
    len_next = abs(c.x - b.x) + abs(c.y - b.y)
    return a, b, c, len_prev, len_next


def _unit(dx: int, dy: int) -> tuple[int, int]:
    return (0 if dx == 0 else (1 if dx > 0 else -1), 0 if dy == 0 else (1 if dy > 0 else -1))


def _span_rect(px: int, py: int, d1, e1: int, d2, e2: int) -> Rect:
    """Rectangle spanned from point p by e1 along d1 and e2 along d2."""
    xs = sorted((px, px + d1[0] * e1 + d2[0] * e2))
    ys = sorted((py, py + d1[1] * e1 + d2[1] * e2))
    return Rect(xs[0], ys[0], xs[1], ys[1])


def expand_concave(f: Footprint, i: int, rng: SeededRng, config: GrammarConfig) -> Rect:
    """Concave-corner production: fill the notch quadrant at vertex i.

    Side extents are drawn from the room range and capped by the two
    adjacent edge lengths (first along the reversed incoming edge, then
    along the outgoing edge).  Raises before drawing when either cap is
    below the minimum room side.  Vertex i must be concave; `try_production`
    classifies it.
    """
    a, b, c, len_prev, len_next = _edge_info(f, i)
    cap1, cap2 = len_prev, len_next
    if cap1 < config.room_side_min or cap2 < config.room_side_min:
        message = f"adjacent edges {cap1}x{cap2} cannot host a room side >= {config.room_side_min}"
        raise Rejected("infeasible", message)
    e1 = min(rng.uniform_int(config.room_side_min, config.room_side_max), cap1)
    e2 = min(rng.uniform_int(config.room_side_min, config.room_side_max), cap2)
    d1 = _unit(b.x - a.x, b.y - a.y)  # incoming direction, reversed below
    d2 = _unit(c.x - b.x, c.y - b.y)
    return _span_rect(b.x, b.y, (-d1[0], -d1[1]), e1, d2, e2)


def expand_convex(f: Footprint, i: int, rng: SeededRng, config: GrammarConfig) -> Rect:
    """Convex-corner production: project a room outward from vertex i.

    The base edge is the longer of the two incident edges (tie: incoming).
    One coin picks the anchor: the corner itself (room runs back along the
    base edge) or the base edge's midpoint (room runs toward the corner and
    may straddle it; the union step rejects straddles).  Draw order is
    anchor coin, then the along-edge side, then the outward side.  Vertex i
    must be convex; `try_production` classifies it.
    """
    a, b, c, len_prev, len_next = _edge_info(f, i)
    if len_prev >= len_next:
        base_from, base_len = a, len_prev
        d_along = _unit(b.x - a.x, b.y - a.y)
    else:
        base_from, base_len = c, len_next
        d_along = _unit(b.x - c.x, b.y - c.y)
    # Outward normal of the base edge oriented with the CCW loop.  When the
    # base is the outgoing edge its CCW direction is b->c, the reverse of
    # d_along, so the normal flips.
    if base_from is a:
        normal = (d_along[1], -d_along[0])
    else:
        normal = (-d_along[1], d_along[0])

    midpoint_anchor = rng.coin()
    e_along = rng.uniform_int(config.room_side_min, config.room_side_max)
    e_out = rng.uniform_int(config.room_side_min, config.room_side_max)

    if midpoint_anchor:
        # Midpoint floor-snapped toward the vertex; the room runs from the
        # midpoint toward (and possibly past) the corner.
        half = base_len // 2
        px, py = b.x - d_along[0] * half, b.y - d_along[1] * half
        return _span_rect(px, py, d_along, e_along, normal, e_out)
    return _span_rect(b.x, b.y, (-d_along[0], -d_along[1]), e_along, normal, e_out)


def try_production(f: Footprint, i: int, rng: SeededRng, config: GrammarConfig) -> Footprint:
    """One production attempt at vertex i: f with one more room tile;
    raises `Rejected`, naming the cause, on any rejection."""
    if is_concave(f, i):
        rect = expand_concave(f, i, rng, config)
    else:
        rect = expand_convex(f, i, rng, config)
    grown = union_rect(f, rect)
    if has_facing_gap(grown, config.min_exterior_gap):
        raise Rejected("sliver", "production leaves a sliver gap between facing walls")
    return grown


def grow(config: GrammarConfig, rng: SeededRng) -> GrowthTrace:
    """Run the grammar to the room cap or the retry budget.

    Raises a `growth-failed` Discard when fewer than two rooms were
    placed.
    """
    footprint = Footprint.from_rect(config.core_tube)
    snapshots: list[Footprint] = []
    total_failures = 0
    terminated = Termination.CAP

    while len(snapshots) < config.max_rooms:
        if total_failures >= config.retry_budget:
            terminated = Termination.COLLISION
            break
        i = rng.uniform_index(len(footprint.vertices))
        try:
            footprint = try_production(footprint, i, rng, config)
        except Rejected:
            total_failures += 1
            continue
        snapshots.append(footprint)

    if len(snapshots) < 2:
        raise Discard("growth-failed", f"only {len(snapshots)} rooms placed")
    return GrowthTrace(snapshots=tuple(snapshots), terminated_by=terminated)
