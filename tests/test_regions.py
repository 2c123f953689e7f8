"""Region tracers: the run-length `trace_region` (in `oracles`) against the
cell-edge tracer it replaced, on random masks with diagonal pinches, holes
and islands in holes; rasterizing the traced loops gives the mask back.  The
one-pass `regions.trace_planes` against `trace_region`, plane by plane and up
to loop order and first vertex, on stacks of such masks."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from brepforge.regions import Traced, trace_planes
from oracles import Loop, Region, loop_area2, point_in_loop, rasterize_loops, trace_region


def reference_trace_region(region: Region) -> list[tuple[Loop, list[Loop]]]:
    """Cell-edge tracer: one directed edge per boundary cell side, walked
    vertex by vertex from the sorted start vertices (pinches last), taking
    the sharpest left turn at a pinch; corners are where the walk turns."""
    mask = region.mask
    if not mask.any():
        return []
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
            loop: Loop = []
            for idx in range(len(walk)):
                (pa, pb), (_, pc) = walk[idx - 1], walk[idx]
                d1 = (pb[0] - pa[0], pb[1] - pa[1])
                d2 = (pc[0] - pb[0], pc[1] - pb[1])
                if d1 != d2:
                    loop.append((int(us[pb[0]]), int(vs[pb[1]])))
            loops.append(loop)

    outers = [(lp, loop_area2(lp)) for lp in loops if loop_area2(lp) > 0]
    holes = [lp for lp in loops if loop_area2(lp) < 0]
    groups: list[tuple[Loop, list[Loop]]] = [(lp, []) for lp, _ in outers]
    for hole in holes:
        (u1, v1), (u2, v2) = hole[0], hole[1]
        du, dv = (u2 - u1 and (1 if u2 > u1 else -1)), (v2 - v1 and (1 if v2 > v1 else -1))
        p2u, p2v = u1 + u2 + dv, v1 + v2 - du
        best = None
        for gi, (outer, area2) in enumerate(outers):
            if point_in_loop(p2u, p2v, outer):
                if best is None or area2 < outers[best][1]:
                    best = gi
        if best is None:
            raise ValueError("hole loop not contained in any outer loop")
        groups[best][1].append(hole)
    return groups


MAX = 8


def draw_mask(draw, nu: int, nv: int) -> np.ndarray:
    """Nested rectangles XORed together (a ring, the hole in it, an island in
    the hole), then a few flipped cells or a random mask on top (diagonal
    pinches)."""
    mask = np.zeros((nu, nv), dtype=bool)
    inset = st.integers(1, 2)
    i0, j0, i1, j1 = draw(st.integers(0, 1)), draw(st.integers(0, 1)), nu, nv
    for _ in range(draw(st.integers(1, 4))):
        if i0 >= i1 or j0 >= j1:
            break
        mask[i0:i1, j0:j1] ^= True
        i0, j0, i1, j1 = i0 + draw(inset), j0 + draw(inset), i1 - draw(inset), j1 - draw(inset)
    cell = st.tuples(st.integers(0, nu - 1), st.integers(0, nv - 1))
    for i, j in draw(st.lists(cell, max_size=4)):
        mask[i, j] ^= True
    if draw(st.integers(0, 3)) == 0:
        mask ^= np.array(draw(st.lists(st.booleans(), min_size=nu * nv, max_size=nu * nv))).reshape(nu, nv)
    return mask


def draw_grid(draw, n: int) -> np.ndarray:
    """n + 1 breakpoints with uneven steps."""
    steps = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    return np.cumsum([draw(st.integers(-5, 5)), *steps]).astype(np.int64)


@st.composite
def regions(draw) -> Region:
    """Masks up to 8 x 8 from `draw_mask` on breakpoints with uneven steps."""
    nu, nv = draw(st.integers(1, MAX)), draw(st.integers(1, MAX))
    mask = draw_mask(draw, nu, nv)
    return Region(draw_grid(draw, nu), draw_grid(draw, nv), mask)


def region_of(rows: list[str]) -> Region:
    mask = np.array([[c == "#" for c in row] for row in rows], dtype=bool)
    return Region(np.arange(mask.shape[0] + 1), np.arange(mask.shape[1] + 1), mask)


# A ring around a hole holding an island, a hole opening onto the outside
# through a diagonal pinch, and cells touching only at corners.
ISLAND_IN_HOLE = region_of(["#####", "#...#", "#.#.#", "#...#", "#####"])
PINCHED_HOLE = region_of(["###.", "#.#.", "##..", "...."])
CHECKER = region_of(["#.#", ".#.", "#.#"])
# A hole inside an island inside a hole: two outer loops hold it.
NESTED = region_of(["#######", "#.....#", "#.###.#", "#.#.#.#", "#.###.#", "#.....#", "#######"])
EMPTY = region_of(["..", ".."])


def collinear(a, b, c) -> bool:
    return (b[0] - a[0]) * (c[1] - b[1]) == (b[1] - a[1]) * (c[0] - b[0])


@settings(max_examples=1000, deadline=None)
@given(regions())
@example(ISLAND_IN_HOLE)
@example(PINCHED_HOLE)
@example(CHECKER)
@example(NESTED)
@example(EMPTY)
def test_trace_region_matches_cell_edge_tracer(region):
    groups = trace_region(region)
    # Same loops, in the same order and from the same first vertex.
    assert groups == reference_trace_region(region)

    loops = [loop for outer, holes in groups for loop in (outer, *holes)]
    assert np.array_equal(rasterize_loops(loops, region.us, region.vs).mask, region.mask)
    # Each group fills its own cells: together they cover the mask once.
    cover = np.zeros(region.mask.shape, dtype=int)
    for outer, holes in groups:
        cover += rasterize_loops([outer, *holes], region.us, region.vs).mask
    assert np.array_equal(cover, region.mask)
    for outer, holes in groups:
        assert loop_area2(outer) > 0
        assert all(loop_area2(hole) < 0 for hole in holes)
    # Corners only: every edge is axis-parallel and turns at both ends.
    for loop in loops:
        n = len(loop)
        assert n >= 4
        for i in range(n):
            a, b, c = loop[i - 1], loop[i], loop[(i + 1) % n]
            assert (a[0] == b[0]) != (a[1] == b[1])
            assert not collinear(a, b, c)


def test_fixtures_cover_holes_islands_and_pinches():
    groups = trace_region(ISLAND_IN_HOLE)
    assert [len(holes) for _, holes in groups] == [1, 0]
    # The innermost hole goes to the island, the smaller of the two outer
    # loops around it.
    (ring, (ring_hole,)), (island, (island_hole,)) = trace_region(NESTED)
    assert len(ring) == len(ring_hole) == len(island) == len(island_hole) == 4
    assert loop_area2(island) == 2 * 9 and loop_area2(island_hole) == -2
    # The pinch joins the would-be hole to the outside: one loop, touching
    # itself at the pinch vertex.
    ((outer, holes),) = trace_region(PINCHED_HOLE)
    assert not holes and len(outer) == len(set(outer)) + 1
    assert len(trace_region(CHECKER)) == 5


@st.composite
def plane_stacks(draw) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """1 to 4 masks up to 8 x 8 on one grid with uneven steps.  Each is
    empty, drawn by `draw_mask`, or drawn and then filled along its border
    rows and columns, so its runs touch the zero rows that separate the
    stacked planes."""
    nu, nv = draw(st.integers(1, MAX)), draw(st.integers(1, MAX))
    masks = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["empty", "drawn", "border"]))
        mask = np.zeros((nu, nv), dtype=bool) if kind == "empty" else draw_mask(draw, nu, nv)
        if kind == "border":
            mask[[0, -1], :] = mask[:, [0, -1]] = True
        masks.append(mask)
    return np.stack(masks), draw_grid(draw, nu), draw_grid(draw, nv)


def plane_groups(traced: Traced, planes: int) -> list[list[tuple[Loop, list[Loop]]]]:
    """The flat arrays of `trace_planes` as `trace_region`'s groups, per
    plane: outer loops in loop order, each with its holes in loop order."""
    ends = np.cumsum(traced.lens).tolist()
    loops = [
        list(zip(traced.u[a:b].tolist(), traced.v[a:b].tolist())) for a, b in zip([0] + ends[:-1], ends)
    ]
    plane, outer = traced.plane.tolist(), traced.outer.tolist()
    holes_of: dict[int, list[Loop]] = {k: [] for k, o in enumerate(outer) if o == k}
    for k, o in enumerate(outer):
        if o != k:
            assert plane[o] == plane[k] and o in holes_of
            holes_of[o].append(loops[k])
    groups: list[list[tuple[Loop, list[Loop]]]] = [[] for _ in range(planes)]
    for k, holes in holes_of.items():
        groups[plane[k]].append((loops[k], holes))
    return groups


def canonical(groups: list[tuple[Loop, list[Loop]]]) -> list[tuple[Loop, list[Loop]]]:
    """Groups with the trace order taken out: each loop from its
    lexicographically smallest rotation (unambiguous also for a loop that
    passes a vertex twice), holes sorted within each group, groups sorted."""

    def rotated(loop: Loop) -> Loop:
        return min(loop[k:] + loop[:k] for k in range(len(loop)))

    return sorted((rotated(outer), sorted(map(rotated, holes))) for outer, holes in groups)


def stack_of(*regions: Region) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return np.stack([r.mask for r in regions]), regions[0].us, regions[0].vs


FULL_4 = region_of(["####"] * 4)
CHECKER_INVERSE = region_of([".#.", "#.#", ".#."])


@settings(max_examples=1000, deadline=None)
@given(plane_stacks())
@example(stack_of(FULL_4, PINCHED_HOLE, region_of(["...."] * 4)))
@example(stack_of(CHECKER, CHECKER_INVERSE, CHECKER))
@example(stack_of(NESTED, NESTED))
@example(stack_of(region_of(["###", "#.#", "###", "#.#", "###", "#.#", "###"])))
def test_trace_planes_matches_trace_region(stack):
    masks, us, vs = stack
    traced = trace_planes(masks)
    # Corners come as grid indices.
    traced = traced._replace(u=us[traced.u], v=vs[traced.v])
    assert len(traced.u) == len(traced.v) == int(traced.lens.sum())
    # Outer loops run counter-clockwise and holes clockwise.
    starts = (np.cumsum(traced.lens) - traced.lens).tolist()
    for k, (a, n) in enumerate(zip(starts, traced.lens.tolist())):
        loop = list(zip(traced.u[a : a + n].tolist(), traced.v[a : a + n].tolist()))
        assert (traced.outer[k] == k) == (loop_area2(loop) > 0)
    assert all(np.diff(traced.plane) >= 0)  # plane by plane
    # Per plane the same loops, with the same holes under the same outer
    # loops; their order and first vertices are not specified.
    expected = [canonical(trace_region(Region(us, vs, mask))) for mask in masks]
    assert [canonical(groups) for groups in plane_groups(traced, len(masks))] == expected
