"""Solid files: the `check_solid` gate and `file_problems`, which first
checks a file's label against its name; `.brep.json` text and its reader;
and building exports.

Exports are byte-stable canonical JSON: sorted keys, compact separators
and shortest round-trip floats; metadata goes through
`records.canonical_json`.  `solid_json` writes a solid's arrays directly,
byte for byte `canonical_json` of its dict form (``faces``, ``id``,
``label``, ``units``, ``vertices``), and `solid_from_dict` builds the
arrays back from that dict with one type check and one numpy pass per
kind of number, so `solid_from_dict(json.loads(text))` gives the solid.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

import numpy as np

from .brep import AXIS_NAMES, BRepSolid, geometry_problems, is_watertight, mesh_to_obj, triangulate
from .records import LABELS, MAX_COORDINATE_M, canonical_json, label_of, write_output


def check_solid(solid: BRepSolid) -> tuple[bool, list[str]]:
    """Every edge used twice, once per way; every loop vertex on its face's
    plane; every loop edge axis-parallel and of non-zero length; loops
    wound about their stated normals; a positive enclosed volume."""
    problems = is_watertight(solid)[1] + geometry_problems(solid)
    return (not problems), problems


def file_problems(solid: BRepSolid, name: str) -> list[str]:
    """The problems of a solid read from the file ``name``: a label other
    than the one its name gives (`records.label_of`); else `check_solid`'s,
    and for a DEFECT solid, that it has none."""
    label = label_of(name)
    if solid.label != label:
        return [f"label {solid.label!r} is not {label!r}"]
    problems = check_solid(solid)[1]
    if label == "DEFECT" and not problems:
        return ["DEFECT solid passes every check"]
    return problems


# A face's JSON: its outer loop, normal and offset, after its holes if any.
FACE = '{"outer":%s,"plane":{"normal":"%s","offset":%s}}'
HOLED_FACE = '{"inner":[%s],' + FACE[1:]


def solid_json(solid: BRepSolid, building_id: str) -> str:
    """The `.brep.json` text of a solid, without the final newline.

    Byte for byte what `canonical_json` gives for the dict of keys
    ``faces``, ``id``, ``label``, ``units`` (``"m"``) and ``vertices``,
    where a vertex is its three coordinates in metres and a face is its
    ``inner`` loops when it has any, its ``outer`` loop and its ``plane``
    (``normal``, and ``offset`` in metres).  Written directly from the
    solid's arrays: each distinct coordinate and offset is formatted once
    as ``float.__repr__(c / 10.0)``, which is how `json.dumps` writes a
    float, and the vertices take one ``%``-format; each loop is `str` of
    its vertex ids without spaces, and each face one ``%``-format of its
    holes, outer loop, normal and offset.
    """
    coords, offsets = solid.coords.ravel().tolist(), solid.offset.tolist()
    metres = {c: float.__repr__(c / 10.0) for c in {*coords, *offsets}}
    vertices = ",".join(["[%s,%s,%s]"] * len(solid.coords)) % tuple(map(metres.__getitem__, coords))

    ids, ends = solid.ids.tolist(), np.cumsum(solid.lens).tolist()
    loops = [str(ids[a:b]).replace(" ", "") for a, b in zip([0] + ends[:-1], ends)]
    ends = np.cumsum(np.bincount(solid.loop_face, minlength=len(offsets))).tolist()
    faces = []
    for axis, sign, offset, a, b in zip(solid.axis.tolist(), solid.sign.tolist(), offsets, [0] + ends[:-1], ends):
        normal = "+-"[sign < 0] + AXIS_NAMES[axis]
        if b - a > 1:
            faces.append(HOLED_FACE % (",".join(loops[a + 1 : b]), loops[a], normal, metres[offset]))
        else:
            faces.append(FACE % (loops[a], normal, metres[offset]))
    return '{"faces":[%s],"id":%s,"label":%s,"units":"m","vertices":[%s]}' % (
        ",".join(faces), json.dumps(building_id), json.dumps(solid.label), vertices
    )


NORMALS = {s + name: (axis, 1 if s == "+" else -1) for axis, name in enumerate(AXIS_NAMES) for s in "+-"}


def _array(values: list, kinds: set, what: str, dtype) -> np.ndarray:
    """The values in one array; raises ValueError unless each one's type is
    in ``kinds`` (a bool's is not int) and ``dtype`` holds it."""
    if not set(map(type, values)) <= kinds:
        bad = next(v for v in values if type(v) not in kinds)
        raise ValueError(f"{what} {bad!r} is not {'an int' if kinds == {int} else 'a number'}")
    try:
        return np.array(values, dtype=dtype)
    except OverflowError:
        raise ValueError(f"a {what} is too large") from None


def _units(values: list) -> np.ndarray:
    """`records.to_units` of numbers within MAX_COORDINATE_M of the origin;
    raises ValueError, naming the first bad value, for anything else."""
    metres = _array(values, {int, float}, "coordinate", np.float64)
    far = ~(np.abs(metres) <= MAX_COORDINATE_M)  # NaN too
    scaled = np.where(far, 0.0, metres) * 10
    units = np.round(scaled)
    bad = np.flatnonzero(far | (np.abs(units - scaled) > 1e-6))
    if len(bad):
        v = values[bad[0]]
        if far[bad[0]]:
            raise ValueError(f"coordinate {v!r} is not within {MAX_COORDINATE_M} m of the origin")
        raise ValueError(f"{v} m is not on the 0.1 m grid")
    return units.astype(np.int64)


def solid_from_dict(d: dict) -> BRepSolid:
    """The solid of a `.brep.json` dict, in the file's order.  Malformed
    content raises ValueError, KeyError, TypeError or IndexError: say a
    vertex of other than three coordinates, a coordinate or offset that is
    no number (a bool is none) on the 0.1 m grid within MAX_COORDINATE_M of
    the origin, an unknown normal, a vertex id no int in [0, vertices), or a
    label other than ``"GOOD"`` and ``"DEFECT"`` (a missing one is GOOD)."""
    vertices = d["vertices"]
    label = d.get("label", "GOOD")
    if label not in LABELS:
        raise ValueError(f"label {label!r} is not one of {LABELS}")
    if not set(map(len, vertices)) <= {3}:
        raise ValueError("a vertex does not have three coordinates")
    loops, planes, offsets, loop_counts = [], [], [], []
    for f in d["faces"]:
        planes.append(NORMALS[f["plane"]["normal"]])
        offsets.append(f["plane"]["offset"])
        holes = f.get("inner", [])
        loops += [f["outer"], *holes]
        loop_counts.append(1 + len(holes))
    ids = _array(list(chain.from_iterable(loops)), {int}, "vertex id", np.int64)
    bad = ids[(ids < 0) | (ids >= len(vertices))]
    if len(bad):
        raise ValueError(f"vertex id {bad[0]} outside [0, {len(vertices)})")
    axis, sign = np.array(planes, dtype=np.int64).reshape(-1, 2).T
    loop_face = np.repeat(np.arange(len(planes)), loop_counts)
    coords = _units(list(chain.from_iterable(vertices)))
    return BRepSolid(coords, ids, list(map(len, loops)), loop_face, axis, _units(offsets), sign, label)


def export_building(building, out_dir: Path, write_obj: bool = False) -> str:
    """Write <id>.brep.json and <id>.meta.json (optionally <id>.obj);
    returns the canonical JSON text of the metadata, the meta file without
    its newline."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = building.meta
    write_output(out_dir / f"{meta.id}.brep.json", solid_json(building.solid, meta.id) + "\n")
    text = canonical_json(meta.to_dict())
    write_output(out_dir / f"{meta.id}.meta.json", text + "\n")
    if write_obj:
        write_output(out_dir / f"{meta.id}.obj", mesh_to_obj(triangulate(building.solid)))
    return text
