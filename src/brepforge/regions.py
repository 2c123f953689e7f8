"""Exact 2-D region tracing over compressed integer grids.

A mask is a boolean cell matrix between sorted integer breakpoints.
Because every input coordinate is a breakpoint, boundary tracing is exact.
``trace_planes`` traces a stack of masks on one grid into minimal
corner-only loops: outer boundaries counter-clockwise, holes clockwise,
holes attached to their containing outer loop.  It finds boundary edges as
runs, the maximal straight stretches of boundary cell edges along each grid
line (one numpy diff per axis), and links them into loops in one numpy
pass that returns flat arrays.  ``brep.solid_from_boxes`` traces every
faced plane of a solid along one (axis, sign) in one call;
``geom2d.union_rect`` traces a footprint union as a stack of one mask.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

Loop = list[tuple[int, int]]


def merged_breakpoints(*arrays) -> np.ndarray:
    vals = sorted(set().union(*[set(int(x) for x in a) for a in arrays]))
    return np.asarray(vals, dtype=np.int64)


def expand(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges ``[starts[k], starts[k] + counts[k])`` back to back, each
    value paired with its owner ``k``."""
    owner = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    return owner, starts[owner] + np.arange(len(owner)) - first[owner]


class Traced(NamedTuple):
    """Boundary loops of a stack of planes as flat arrays.

    Loops come plane by plane, in the order and from the first vertex
    described in ``trace_planes``; ``u`` and ``v`` hold the corners of every
    loop back to back.
    """

    u: np.ndarray  # per corner
    v: np.ndarray
    lens: np.ndarray  # per loop: its number of corners
    plane: np.ndarray  # per loop: the index of its plane in the stack
    outer: np.ndarray  # per loop: its outer loop, itself for an outer loop


def _run_table(d: np.ndarray):
    """Every maximal run of one non-zero value along the rows of ``d``, whose
    first and last columns are zero, as arrays: its row, the vertices where
    it begins and ends (column c holds cell c - 1), its value, and whether
    another run ends or begins at each of those vertices (a pinch)."""
    flat = d.ravel()
    p = (flat[1:] != flat[:-1]).nonzero()[0]
    begin, end = p[flat[p + 1] != 0], p[flat[p] != 0]
    width = d.shape[1]
    return end // width, begin % width, end % width, flat[end], flat[begin] != 0, flat[end + 1] != 0


def _cycle_min(succ: np.ndarray, rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per element of the permutation ``succ``, the smallest rank on its
    cycle and the number of steps forward to the element that holds it.

    Pointer jumping (Wyllie 1979): after k rounds each element holds the
    minimum over its next 2**k elements and the steps to its first
    occurrence there, packed as rank * 2**32 + steps so that one minimum
    picks both (a nearer occurrence of the same rank has fewer steps).  Once
    a round changes no minimum, every such window holds its cycle's minimum,
    and no later round would change one.
    """
    packed, nxt, span = rank << 32, succ, 1
    while True:
        jumped = np.minimum(packed, packed[nxt] + span)
        if (jumped == packed).all():
            return packed >> 32, packed & 0xFFFFFFFF
        packed, nxt, span = jumped, nxt[nxt], 2 * span


def trace_planes(masks: np.ndarray, us: np.ndarray, vs: np.ndarray) -> Traced:
    """Boundary loops of every plane of ``masks`` (planes × u cells × v
    cells, all on the grid us × vs), in one numpy pass.

    Directed boundary edges keep the region on the left, so outer loops come
    out counter-clockwise and holes clockwise.  Pinch vertices (diagonal
    cell contact) are resolved by preferring the sharpest left turn, which
    splits the contact into separate simple loops.  Loops come out, plane
    by plane, in the order, and from the vertex, of a walk over single cell
    edges started at the smallest non-pinch lattice vertex of each loop: the
    first corner at or after it begins the loop.

    The planes are stacked along u with one zero row between them, so no run
    crosses from one plane into the next.  Each run's successor is found by
    binary search on the sorted run keys, each loop's first run and each
    run's place along its loop by pointer jumping, and each hole's outer
    loop by the parity test over the vertical runs of its plane's outer
    loops.
    """
    planes, nu, nv = masks.shape
    h, w = nu + 1, nv + 1  # rows per plane with its separator; vertex (g, j) has key g * w + j
    pinch_last = h * w
    cells = np.zeros((planes * h + 1, nv + 2), dtype=np.int8)
    cells[1:].reshape(planes, h, nv + 2)[:, :nu, 1:-1] = masks
    us, vs = np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)

    # Region on the left: +v along right sides and -v along left sides of
    # cells (vertical runs on lines u = us[i], row g = plane * h + i), +u
    # along bottoms and -u along tops (horizontal runs on lines v = vs[j]).
    # Per run: its direction d (+u, +v, -u, -v, counter-clockwise), start
    # and end vertex, and whether another run meets its start (a pinch).
    g, a, b, value, pa, pb = _run_table(cells[1:] - cells[:-1])
    up = value < 0
    j, ga, gb, value, qa, qb = _run_table((cells[:, 1:] - cells[:, :-1]).T)
    right = value > 0
    d = np.concatenate((np.where(up, 1, 3), np.where(right, 0, 2)))
    row = np.concatenate((g, np.where(right, ga, gb)))
    col = np.concatenate((np.where(up, a, b), j))
    start = row * w + col
    end = np.concatenate((g * w + np.where(up, b, a), np.where(right, gb, ga) * w + j))
    start_pinch = np.concatenate((np.where(up, pa, pb), np.where(right, qa, qb)))
    length = np.concatenate((b - a, gb - ga))
    step = np.where(d % 2 == 1, 1, w)
    plane = row // h
    runs = len(d)
    if runs == 0:
        empty = np.zeros(0, dtype=np.int64)
        return Traced(empty, empty, empty, empty, empty)

    # Where a cell-edge walk would have begun each run's loop: at the run's
    # smallest non-pinch lattice vertex.  That is the start of a +u or +v run
    # from a non-pinch vertex; else the vertex one cell in from the run's
    # low end, if the run is longer than one cell, and the loop then begins
    # at the next corner (`shift`); else nowhere on this run, and a pinch
    # start sorts after every other vertex of its plane.  A plane's keys
    # start at plane * pinch_last, so adding that again sorts plane by
    # plane.  Ties go to the lower run index.
    shift = ((d >= 2) | start_pinch) & (length > 1)
    first = np.where(shift, np.minimum(start, end) + step, start + start_pinch * pinch_last) + plane * pinch_last
    order = np.argsort(first, kind="stable")
    rank = np.empty(runs, dtype=np.int64)
    rank[order] = np.arange(runs)

    # The next run turns left at the end vertex if a run leaves it that way,
    # else right: only a pinch has both, and there the sharpest left turn
    # wins.
    key = start * 4 + d
    by_key = np.argsort(key)
    sorted_key = key[by_key]
    left = end * 4 + (d + 1) % 4
    at = np.minimum(np.searchsorted(sorted_key, left), runs - 1)
    turn_right = by_key[np.searchsorted(sorted_key, end * 4 + (d + 3) % 4)]
    succ = np.where(sorted_key[at] == left, by_key[at], turn_right)

    # Loops in the order of their smallest `first`, each from that run, or
    # from its successor when it is shifted; a run's corner goes to its
    # loop's offset plus its steps from the loop's first run.
    low, to_low = _cycle_min(succ, rank)
    is_low = np.zeros(runs, dtype=bool)
    is_low[low] = True
    loop = (np.cumsum(is_low) - 1)[low]
    heads = order[is_low]
    lens = np.bincount(loop, minlength=len(heads))
    offsets = np.cumsum(lens) - lens
    at = offsets[loop] + (-to_low - shift[heads][loop]) % lens[loop]
    cu, cv = us[row - plane * h], vs[col]
    u, v = np.empty(runs, dtype=np.int64), np.empty(runs, dtype=np.int64)
    u[at], v[at] = cu, cv
    # Twice each loop's signed area: positive for outer loops, negative for
    # holes.
    cross = np.empty(runs, dtype=np.int64)
    cross[at] = cu * cv[succ] - cu[succ] * cv
    area2 = np.add.reduceat(cross, offsets)

    # Each hole goes to the smallest outer loop of its plane that holds the
    # point half a unit to the right of the midpoint of one of its edges
    # (doubled coordinates; any edge of the hole gives the same answer): the
    # one whose vertical runs it crosses an odd number of times looking
    # toward +u.  Vertical runs come plane by plane.
    outer = np.arange(len(heads))
    holes = np.flatnonzero(area2 < 0)
    if len(holes):
        s = heads[holes]
        t = succ[s]
        p2u = cu[s] + cu[t] + np.sign(cv[t] - cv[s])
        p2v = cv[s] + cv[t] - np.sign(cu[t] - cu[s])
        walls = np.flatnonzero((d % 2 == 1) & (area2[loop] > 0))
        hole_plane = plane[heads[holes]]
        lo = np.searchsorted(plane[walls], hole_plane)
        hi = np.searchsorted(plane[walls], hole_plane, side="right")
        k, i = expand(lo, hi - lo)
        r = walls[i]
        crossed = ((2 * cv[r] > p2v[k]) != (2 * cv[succ[r]] > p2v[k])) & (2 * cu[r] > p2u[k])
        count = np.bincount(k[crossed] * len(heads) + loop[r[crossed]], minlength=len(holes) * len(heads))
        hole, owner = np.divmod((count % 2).nonzero()[0], len(heads))
        pick = np.lexsort((area2[owner], hole))
        hole, owner = hole[pick], owner[pick]
        best = np.ones(len(hole), dtype=bool)
        best[1:] = hole[1:] != hole[:-1]
        if np.count_nonzero(best) < len(holes):
            raise ValueError("hole loop not contained in any outer loop")
        outer[holes[hole[best]]] = owner[best]
    return Traced(u, v, lens, plane[heads], outer)
