"""Exact 2-D region tracing in grid indices.

A mask is a boolean cell matrix, and the tracer reads and writes grid
line indices only; the caller maps them to its breakpoints.
``trace_planes`` traces a stack of masks of one shape into minimal
corner-only loops: outer boundaries counter-clockwise, holes clockwise,
holes attached to the outer loop of their face.  It finds boundary edges
as runs, the maximal straight stretches of boundary cell edges along each
grid line (one numpy diff per axis), and links them into loops in one
numpy pass that returns flat arrays.  A loop is a hole exactly when the
material lies below its first run, and a hole's outer loop comes from the
nearest run below that one: no signed area and no parity test.  The order
of a plane's loops and the first vertex of each are not specified: the
caller makes the canonical form (``brep._finalize``).  Its one caller is
``brep.solid_from_boxes``, which traces every faced plane of a solid along
one (axis, sign) in one call; footprint unions walk their loop in pure
Python (``geom2d.union_rect``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values.  A bare ``np.unique`` would import
    ``numpy.ma`` (to test for a masked array) on its first call."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def expand(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges ``[starts[k], starts[k] + counts[k])`` back to back, each
    value paired with its owner ``k``."""
    owner = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    return owner, starts[owner] + np.arange(len(owner)) - first[owner]


class Traced(NamedTuple):
    """Boundary loops of a stack of planes as flat arrays.

    Loops come plane by plane, otherwise in no specified order and each
    from no specified vertex; ``u`` and ``v`` hold the corners of every
    loop back to back, as grid line indices.  A hole's outer loop is the
    outer loop of the face the hole lies in.
    """

    u: np.ndarray  # per corner
    v: np.ndarray
    lens: np.ndarray  # per loop: its number of corners
    plane: np.ndarray  # per loop: the index of its plane in the stack
    outer: np.ndarray  # per loop: its outer loop, itself for an outer loop


def _run_table(d: np.ndarray):
    """Every maximal run of one non-zero value along the rows of ``d``, whose
    first and last columns are zero, as arrays: its row, the vertices where
    it begins and ends (column c holds cell c - 1), and its value, in
    row-major order."""
    flat = d.ravel()
    p = (flat[1:] != flat[:-1]).nonzero()[0]
    begin, end = p[flat[p + 1] != 0], p[flat[p] != 0]
    width = d.shape[1]
    return end // width, begin % width, end % width, flat[end]


def _cycle_min(succ: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per element of the permutation ``succ``, the smallest element on its
    cycle and the number of steps forward to it.

    Pointer jumping (Wyllie 1979): after k rounds each element holds the
    minimum over its next 2**k elements and the steps to it, packed as
    element * 2**32 + steps so that one minimum picks both.  Once a round
    changes no minimum, every such window holds its cycle's minimum, and no
    later round would change one.
    """
    packed, nxt, span = np.arange(len(succ), dtype=np.int64) << 32, succ, 1
    while True:
        jumped = np.minimum(packed, packed[nxt] + span)
        if (jumped == packed).all():
            return packed >> 32, packed & 0xFFFFFFFF
        packed, nxt, span = jumped, nxt[nxt], 2 * span


def trace_planes(masks: np.ndarray) -> Traced:
    """Boundary loops of every plane of ``masks`` (planes × u cells × v
    cells), in one numpy pass, with corners as grid line indices: cell
    (i, j) lies between lines u = i and u = i + 1 and v = j and v = j + 1.

    Directed boundary edges keep the region on the left, so outer loops come
    out counter-clockwise and holes clockwise.  Pinch vertices (diagonal
    cell contact) are resolved by preferring the sharpest left turn, which
    splits the contact into separate simple loops.  Loops come out plane by
    plane; within a plane their order, and the vertex each starts from, are
    not specified.

    The planes are stacked along u with one zero row between them, so no run
    crosses from one plane into the next.  Each run's successor is found by
    binary search on the sorted run keys, each loop's first run and each
    run's place along its loop by pointer jumping.  A loop is a hole when
    the material lies below its first run, and a hole's outer loop comes
    from the nearest run below that first run.
    """
    planes, nu, nv = masks.shape
    h, w = nu + 1, nv + 1  # rows per plane with its separator; vertex (g, j) has key g * w + j
    cells = np.zeros((planes * h + 1, nv + 2), dtype=np.int8)
    cells[1:].reshape(planes, h, nv + 2)[:, :nu, 1:-1] = masks

    # Region on the left: +v along right sides and -v along left sides of
    # cells (vertical runs on lines u = i, row g = plane * h + i), +u along
    # bottoms and -u along tops (horizontal runs on lines v = j).  Per run:
    # its direction d (+u, +v, -u, -v, counter-clockwise), and its start and
    # end vertex.  Vertical runs come first, row-major; the vertical run in
    # row g from vertex a to vertex b lies along cells a to b - 1.
    g, a, b, value = _run_table(cells[1:] - cells[:-1])
    up = value < 0  # material below the line
    j, ga, gb, value = _run_table((cells[:, 1:] - cells[:, :-1]).T)
    right = value > 0
    d = np.concatenate((np.where(up, 1, 3), np.where(right, 0, 2)))
    row = np.concatenate((g, np.where(right, ga, gb)))
    col = np.concatenate((np.where(up, a, b), j))
    start = row * w + col
    end = np.concatenate((g * w + np.where(up, b, a), np.where(right, gb, ga) * w + j))
    plane = row // h
    runs = len(d)
    if runs == 0:
        empty = np.zeros(0, dtype=np.int64)
        return Traced(empty, empty, empty, empty, empty)

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

    # Each loop starts at its smallest run, a vertical one on its lowest u
    # line, so loops come plane by plane; a run's corner goes to its loop's
    # offset plus its steps from that run.
    low, to_low = _cycle_min(succ)
    is_low = np.zeros(runs, dtype=bool)
    is_low[low] = True
    loop = (np.cumsum(is_low) - 1)[low]
    heads = np.flatnonzero(is_low)
    lens = np.bincount(loop, minlength=len(heads))
    offsets = np.cumsum(lens) - lens
    at = offsets[loop] + (-to_low) % lens[loop]
    u, v = np.empty(runs, dtype=np.int64), np.empty(runs, dtype=np.int64)
    u[at], v[at] = row - plane * h, col

    # A loop is a hole exactly when the material lies below its first run.
    # Below a hole's first run, in the first cell column it spans, the cells
    # down to the nearest vertical run are material of the hole's face, so
    # that run is on the face's outer loop or on another hole of it, whose
    # first run lies lower: pointer jumping takes each hole to its outer
    # loop.
    outer = np.arange(len(heads))
    holes = np.flatnonzero(up[heads])
    if len(holes):
        s = heads[holes]
        columns = _distinct(a[s])
        first, stop = np.searchsorted(columns, a), np.searchsorted(columns, b)
        run, column = expand(first, stop - first)  # each vertical run with each hole column it spans
        pair_key = column * len(cells) + g[run]
        order = np.argsort(pair_key)
        below = np.searchsorted(pair_key[order], np.searchsorted(columns, a[s]) * len(cells) + g[s]) - 1
        outer[holes] = loop[run[order[below]]]
        while (outer[outer] != outer).any():
            outer = outer[outer]
    return Traced(u, v, lens, plane[heads], outer)
