"""Solid files: the `check_solid` gate, `.brep.json` text and its reader,
and building exports.

Exports are byte-stable canonical JSON: sorted keys, compact separators
and shortest round-trip floats.  Metadata goes through
`records.canonical_json` (`json.dumps`).  A solid's `.brep.json` text
comes from `solid_json`, a direct writer: it formats each distinct
coordinate once and fills face templates with one ``%``-format, and its
output is byte for byte `canonical_json` of the solid's dict form
(``faces``, ``id``, ``label``, ``units``, ``vertices``), so
`solid_from_dict(json.loads(text))` gives the solid back.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

from .brep import (
    AXIS_NAMES,
    BRepFace,
    BRepSolid,
    geometry_problems,
    is_watertight,
    mesh_to_obj,
    triangulate,
)
from .records import MAX_COORDINATE_M, canonical_json, to_units


def check_solid(solid: BRepSolid) -> tuple[bool, list[str]]:
    """Every edge used twice, once per way; every loop vertex on its face's
    plane; every loop edge axis-parallel and of non-zero length; loops
    wound about their stated normals; a positive enclosed volume."""
    problems = is_watertight(solid)[1] + geometry_problems(solid)
    return (not problems), problems


def solid_json(solid: BRepSolid, building_id: str) -> str:
    """The `.brep.json` text of a solid, without the final newline.

    Byte for byte what `canonical_json` gives for the dict of keys
    ``faces``, ``id``, ``label``, ``units`` (``"m"``) and ``vertices``,
    where a vertex is its three coordinates in metres and a face is its
    ``inner`` loops when it has any, its ``outer`` loop and its ``plane``
    (``normal``, and ``offset`` in metres).  Written directly: each distinct
    coordinate and offset is formatted once as ``float.__repr__(c / 10.0)``,
    which is how `json.dumps` writes a float; the vertices take one
    ``%``-format, and the faces one more, over a face template per normal
    and loop lengths.
    """
    faces = solid.faces
    coords = list(chain.from_iterable(solid.vertices))
    metres = {c: float.__repr__(c / 10.0) for c in {*coords, *(f.offset for f in faces)}}
    vertices = ",".join(["[%s,%s,%s]"] * len(solid.vertices)) % tuple(map(metres.__getitem__, coords))

    templates: dict[tuple, str] = {}
    face_templates, values = [], []
    for f in faces:
        axis, offset, sign, outer, inner = f
        key = (axis, sign > 0, len(outer), *map(len, inner))
        template = templates.get(key)
        if template is None:
            loops = [",".join(["%d"] * n) for n in key[2:]]
            holes = '"inner":[[%s]],' % "],[".join(loops[1:]) if inner else ""
            template = '{%s"outer":[%s],"plane":{"normal":"%s","offset":%%s}}' % (holes, loops[0], f.normal_name)
            templates[key] = template
        face_templates.append(template)
        for hole in inner:
            values += hole
        values += outer
        values.append(metres[offset])
    return '{"faces":[%s],"id":%s,"label":%s,"units":"m","vertices":[%s]}' % (
        ",".join(face_templates) % tuple(values), json.dumps(building_id), json.dumps(solid.label), vertices
    )


def _vertex_ids(loop, n: int) -> tuple[int, ...]:
    """The loop as a tuple of vertex ids, each an int in [0, n)."""
    ids = tuple(loop)
    for i in ids:
        if type(i) is not int or not 0 <= i < n:
            raise ValueError(f"vertex id {i!r} outside [0, {n})")
    return ids




def _coordinate(metres) -> int:
    """`to_units` of a number within MAX_COORDINATE_M of the origin; raises
    ValueError for anything else."""
    if not abs(metres) <= MAX_COORDINATE_M:
        raise ValueError(f"coordinate {metres!r} is not within {MAX_COORDINATE_M} m of the origin")
    return to_units(metres)


def solid_from_dict(d: dict) -> BRepSolid:
    vertices = tuple(
        (_coordinate(x), _coordinate(y), _coordinate(z)) for x, y, z in d["vertices"]
    )
    n = len(vertices)
    faces = []
    for f in d["faces"]:
        normal = f["plane"]["normal"]
        sign = +1 if normal[0] == "+" else -1
        axis = AXIS_NAMES.index(normal[1])
        faces.append(
            BRepFace(
                axis=axis,
                offset=_coordinate(f["plane"]["offset"]),
                sign=sign,
                outer=_vertex_ids(f["outer"], n),
                inner=tuple(_vertex_ids(h, n) for h in f.get("inner", [])),
            )
        )
    return BRepSolid(vertices, tuple(faces), d.get("label", "GOOD"))


def export_building(building, out_dir: Path, write_obj: bool = False) -> str:
    """Write <id>.brep.json and <id>.meta.json (optionally <id>.obj);
    returns the canonical JSON text of the metadata, the meta file without
    its newline."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = building.meta
    (out_dir / f"{meta.id}.brep.json").write_text(solid_json(building.solid, meta.id) + "\n")
    text = canonical_json(meta.to_dict())
    (out_dir / f"{meta.id}.meta.json").write_text(text + "\n")
    if write_obj:
        (out_dir / f"{meta.id}.obj").write_text(mesh_to_obj(triangulate(building.solid)))
    return text
