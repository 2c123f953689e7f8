"""Exact 2-D region engine over compressed integer grids.

A Region is a boolean cell matrix between sorted integer breakpoints.
Because every input coordinate is a breakpoint, boolean operations,
rasterization of rectilinear loops, and boundary tracing are all exact.
The tracer emits minimal corner-only loops: outer boundaries
counter-clockwise, holes clockwise, holes attached to their containing
outer loop.
"""

from __future__ import annotations

import numpy as np

Loop = list[tuple[int, int]]


class Region:
    """Filled cells on the grid us × vs (breakpoints in grid units)."""

    __slots__ = ("us", "vs", "mask")

    def __init__(self, us: np.ndarray, vs: np.ndarray, mask: np.ndarray):
        self.us = us
        self.vs = vs
        self.mask = mask

    @classmethod
    def empty(cls, us, vs) -> "Region":
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        return cls(us, vs, np.zeros((len(us) - 1, len(vs) - 1), dtype=bool))

    def area_units(self) -> int:
        cell = np.outer(np.diff(self.us), np.diff(self.vs))
        return int(cell[self.mask].sum())


def merged_breakpoints(*arrays) -> np.ndarray:
    vals = sorted(set().union(*[set(int(x) for x in a) for a in arrays]))
    return np.asarray(vals, dtype=np.int64)


def rasterize_loops(loops: list[Loop], us: np.ndarray, vs: np.ndarray) -> Region:
    """Parity-fill the loops (any orientation; holes come out empty)."""
    region = Region.empty(us, vs)
    verticals: list[tuple[int, int, int]] = []
    for loop in loops:
        n = len(loop)
        for i in range(n):
            (u1, v1), (u2, v2) = loop[i], loop[(i + 1) % n]
            if u1 == u2 and v1 != v2:
                verticals.append((u1, min(v1, v2), max(v1, v2)))
    if not verticals:
        return region
    for j in range(len(vs) - 1):
        v2mid = int(vs[j]) + int(vs[j + 1])  # doubled midline
        crossings = sorted(u for u, vlo, vhi in verticals if 2 * vlo < v2mid < 2 * vhi)
        for u_lo, u_hi in zip(crossings[::2], crossings[1::2]):
            iu0 = int(np.searchsorted(us, u_lo))
            iu1 = int(np.searchsorted(us, u_hi))
            region.mask[iu0:iu1, j] = True
    return region


def _loop_area2(loop: Loop) -> int:
    total = 0
    n = len(loop)
    for i in range(n):
        (x1, y1), (x2, y2) = loop[i], loop[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total


def _point_in_loop(p2u: int, p2v: int, loop: Loop) -> bool:
    """Parity test for a doubled-coordinate query point."""
    inside = False
    n = len(loop)
    for i in range(n):
        (u1, v1), (u2, v2) = loop[i], loop[(i + 1) % n]
        if u1 != u2:
            continue
        if (2 * v1 > p2v) != (2 * v2 > p2v) and 2 * u1 > p2u:
            inside = not inside
    return inside


def trace_region(region: Region) -> list[tuple[Loop, list[Loop]]]:
    """Boundary loops of the region as (outer, holes) groups.

    Directed boundary edges keep the region on the left, so outer loops come
    out counter-clockwise and holes clockwise.  Pinch vertices (diagonal
    cell contact) are resolved by preferring the sharpest left turn, which
    splits the contact into separate simple loops.
    """
    mask = region.mask
    if not mask.any():
        return []
    # Crop to the filled bounding box; grids are often much larger.
    ui = np.nonzero(mask.any(axis=1))[0]
    vi = np.nonzero(mask.any(axis=0))[0]
    u0, u1 = int(ui[0]), int(ui[-1]) + 1
    v0, v1 = int(vi[0]), int(vi[-1]) + 1
    mask = mask[u0:u1, v0:v1]
    us = region.us[u0 : u1 + 1]
    vs = region.vs[v0 : v1 + 1]
    if mask.all():
        rect = [
            (int(us[0]), int(vs[0])),
            (int(us[-1]), int(vs[0])),
            (int(us[-1]), int(vs[-1])),
            (int(us[0]), int(vs[-1])),
        ]
        return [(rect, [])]

    nu, nv = mask.shape
    padded = np.zeros((nu + 2, nv + 2), dtype=bool)
    padded[1:-1, 1:-1] = mask

    # Directed cell-boundary edges keyed by start vertex; pinch vertices
    # (two outgoing edges) go to the overflow dict.
    single: dict[tuple[int, int], tuple[int, int]] = {}
    multi: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def add(si, sj, ei, ej):
        s, e = (si, sj), (ei, ej)
        if s in multi:
            multi[s].append(e)
        elif s in single:
            multi[s] = [single.pop(s), e]
        else:
            single[s] = e

    sides = (
        (mask & ~padded[:-2, 1:-1], 0, 1, 0, 0),  # left: down along u = us[i]
        (mask & ~padded[2:, 1:-1], 1, 0, 1, 1),  # right: up along u = us[i+1]
        (mask & ~padded[1:-1, :-2], 0, 0, 1, 0),  # bottom: right along v = vs[j]
        (mask & ~padded[1:-1, 2:], 1, 1, 0, 1),  # top: left along v = vs[j+1]
    )
    for m, si_off, sj_off, ei_off, ej_off in sides:
        ii, jj = np.nonzero(m)
        for i, j in zip(ii.tolist(), jj.tolist()):
            add(i + si_off, j + sj_off, i + ei_off, j + ej_off)

    starts = sorted(single) + sorted(multi)
    used: set[tuple[tuple[int, int], tuple[int, int]]] = set()
    loops: list[Loop] = []
    for start in starts:
        outs = [single[start]] if start in single else multi[start]
        for first in sorted(outs):
            if (start, first) in used:
                continue
            walk = [(start, first)]
            used.add((start, first))
            cur, prev = first, start
            while cur != start:
                if cur in single:
                    nxt = single[cur]
                else:
                    din = (cur[0] - prev[0], cur[1] - prev[1])
                    candidates = [e for e in multi[cur] if (cur, e) not in used]
                    nxt = max(
                        candidates,
                        key=lambda e: din[0] * (e[1] - cur[1]) - din[1] * (e[0] - cur[0]),
                    )
                walk.append((cur, nxt))
                used.add((cur, nxt))
                prev, cur = cur, nxt
            # Emit a vertex wherever the direction changes (cyclically).
            loop: Loop = []
            k = len(walk)
            for idx in range(k):
                (pa, pb), (_, pc) = walk[idx - 1], walk[idx]
                d1 = (pb[0] - pa[0], pb[1] - pa[1])
                d2 = (pc[0] - pb[0], pc[1] - pb[1])
                if d1 != d2:
                    loop.append((int(us[pb[0]]), int(vs[pb[1]])))
            loops.append(loop)

    outers = [(lp, _loop_area2(lp)) for lp in loops if _loop_area2(lp) > 0]
    holes = [lp for lp in loops if _loop_area2(lp) < 0]
    groups: list[tuple[Loop, list[Loop]]] = [(lp, []) for lp, _ in outers]
    for hole in holes:
        (u1, v1), (u2, v2) = hole[0], hole[1]
        m2u, m2v = u1 + u2, v1 + v2
        # Offset half a unit to the right of travel (into the hole void).
        du, dv = (u2 - u1 and (1 if u2 > u1 else -1)), (v2 - v1 and (1 if v2 > v1 else -1))
        p2u, p2v = m2u + dv, m2v - du
        best = None
        for gi, (outer, area2) in enumerate(outers):
            if _point_in_loop(p2u, p2v, outer):
                if best is None or area2 < outers[best][1]:
                    best = gi
        if best is None:
            raise ValueError("hole loop not contained in any outer loop")
        groups[best][1].append(hole)
    return groups
