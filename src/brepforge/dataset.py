"""Dataset plumbing: room filters, metadata records, file exports, statistics.

Exports are byte-stable canonical JSON: sorted keys, compact separators
and shortest round-trip floats.  Metadata goes through `canonical_json`
(`json.dumps`).  A solid's `.brep.json` text comes from `solid_json`, a
direct writer: it formats each distinct coordinate once and fills face
templates with one ``%``-format, and its output is byte for byte
`canonical_json` of the solid's dict form (``faces``, ``id``, ``label``,
``units``, ``vertices``), so `solid_from_dict(json.loads(text))` gives the
solid back.  The dataset matrix is written as an NPY v1.0 file by a
self-contained writer (header layout pinned here; any standard reader
recovers the float64 matrix bit-exactly).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .brep import (
    AXIS_NAMES,
    BRepFace,
    BRepSolid,
    geometry_problems,
    is_watertight,
    mesh_to_obj,
    triangulate,
)
from .geom2d import to_units


@dataclass(frozen=True)
class FilterConfig:
    """Room-level acceptance thresholds (metres / m²)."""

    min_room_area: float
    max_room_area: float
    min_room_side: float
    max_aspect_ratio: float


def tiered_room_counts(storey_count: int) -> tuple[int, list[int]]:
    """(room_total, room_per_floor) of a tiered building.

    Floor k (bottom = 1) of an S-storey building carries S - k + 1 rooms, so
    the per-floor counts are (S, S-1, ..., 1), zero-padded to 10 floors.
    """
    s = storey_count
    return s * (s + 1) // 2, [max(s - k, 0) for k in range(10)]


@dataclass
class BuildingMeta:
    id: str
    seed: int
    storey_count: int
    room_total: int
    room_per_floor: list[int]  # zero-padded to 10 entries
    rooms: list[list[list[float]]]  # per storey: [width_m, height_m] per room
    openings: list[dict]
    avg_room_area: float
    footprint_area: float

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "seed": self.seed,
            "storey_count": self.storey_count,
            "room_total": self.room_total,
            "room_per_floor": self.room_per_floor,
            "rooms": self.rooms,
            "openings": self.openings,
            "avg_room_area": self.avg_room_area,
            "footprint_area": self.footprint_area,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BuildingMeta":
        """The record of a parsed `meta.json` entry; a field of the wrong
        type raises ValueError."""
        per_floor = d["room_per_floor"]
        if type(per_floor) is not list:
            raise ValueError(f"room_per_floor {per_floor!r} is not a list")
        return cls(
            id=d["id"],
            seed=_checked_int(d["seed"], "seed"),
            storey_count=_checked_int(d["storey_count"], "storey_count"),
            room_total=_checked_int(d["room_total"], "room_total"),
            room_per_floor=[_checked_int(n, "room_per_floor entry") for n in per_floor],
            rooms=_checked_rooms(d["rooms"]),
            openings=d["openings"],
            avg_room_area=_checked_number(d["avg_room_area"], "avg_room_area"),
            footprint_area=_checked_number(d["footprint_area"], "footprint_area"),
        )


def _checked_int(value, name: str) -> int:
    """``value`` if it is an int (a bool is not); raises ValueError otherwise."""
    if type(value) is not int:
        raise ValueError(f"{name} {value!r} is not an integer")
    return value


def _checked_number(value, name: str):
    """``value`` if it is an int (a bool is not) or a finite float; raises
    ValueError otherwise."""
    if not (type(value) is int or (type(value) is float and math.isfinite(value))):
        raise ValueError(f"{name} {value!r} is not a finite number")
    return value


def _checked_rooms(storeys):
    """``storeys`` unchanged, once every room is a [width, height] pair of
    numbers (ints, not bools, or floats) within MAX_COORDINATE_M of zero, so
    that areas and aspect ratios are finite; raises ValueError otherwise."""
    for rooms in storeys:
        for room in rooms:
            if len(room) != 2 or not all(
                type(side) in (int, float) and abs(side) <= MAX_COORDINATE_M for side in room
            ):
                raise ValueError(
                    f"room {room!r} is not a [width, height] pair of numbers up to {MAX_COORDINATE_M} m"
                )
    return storeys


@dataclass
class DatasetMeta:
    records: list[BuildingMeta] = field(default_factory=list)
    discard_log: list[tuple[int, str]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "records": [r.to_dict() for r in self.records],
            "discards": [{"seed": s, "reason": r} for s, r in self.discard_log],
        }


def check_rooms(storeys, cfg: FilterConfig) -> tuple[bool, list[str]]:
    """Validate per-storey (width_m, height_m) rooms against the filter thresholds."""
    violations = []
    for storey, rooms in enumerate(storeys, start=1):
        for i, (w, h) in enumerate(rooms):
            area = w * h
            lo, hi = min(w, h), max(w, h)
            if not (cfg.min_room_area <= area <= cfg.max_room_area):
                violations.append(
                    f"storey {storey} room {i}: area {area:.2f} outside "
                    f"[{cfg.min_room_area}, {cfg.max_room_area}]"
                )
            if lo < cfg.min_room_side:
                violations.append(f"storey {storey} room {i}: side {lo:.2f} below {cfg.min_room_side}")
            if lo <= 0:
                violations.append(f"storey {storey} room {i}: side {lo:.2f} is not positive")
            elif hi / lo > cfg.max_aspect_ratio:
                violations.append(
                    f"storey {storey} room {i}: aspect {hi / lo:.2f} above {cfg.max_aspect_ratio}"
                )
    return (not violations), violations


def check_solid(solid: BRepSolid) -> tuple[bool, list[str]]:
    """Every edge used twice, once per way; every loop vertex on its face's
    plane; every loop edge axis-parallel and of non-zero length; loops
    wound about their stated normals; a positive enclosed volume."""
    problems = is_watertight(solid)[1] + geometry_problems(solid)
    return (not problems), problems


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


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


# A coordinate further than this from the origin is a parse error: NaN,
# infinities and values beyond int64 would otherwise fail inside numpy, and
# within it every product of three coordinates (the volume term of
# `geometry_problems`) fits in int64.
MAX_COORDINATE_M = 100_000.0


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


def export_building(building, out_dir: Path, write_obj: bool = False) -> list[Path]:
    """Write <id>.brep.json and <id>.meta.json (optionally <id>.obj)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = building.meta
    paths = []
    brep_path = out_dir / f"{meta.id}.brep.json"
    brep_path.write_text(solid_json(building.solid, meta.id) + "\n")
    paths.append(brep_path)
    meta_path = out_dir / f"{meta.id}.meta.json"
    meta_path.write_text(canonical_json(meta.to_dict()) + "\n")
    paths.append(meta_path)
    if write_obj:
        obj_path = out_dir / f"{meta.id}.obj"
        obj_path.write_text(mesh_to_obj(triangulate(building.solid)))
        paths.append(obj_path)
    return paths


def meta_matrix(ds: DatasetMeta) -> np.ndarray:
    rows = []
    for r in ds.records:
        rows.append(
            [r.storey_count, r.room_total, r.avg_room_area, r.footprint_area]
            + list(r.room_per_floor)
        )
    return np.asarray(rows, dtype="<f8")


def write_meta_npy(ds: DatasetMeta, path: Path) -> None:
    """NPY v1.0 writer: magic, version (1, 0), padded header, C-order f8 data."""
    if not ds.records:
        raise ValueError("refusing to write an empty dataset matrix")
    matrix = meta_matrix(ds)
    header = (
        "{'descr': '<f8', 'fortran_order': False, "
        f"'shape': {matrix.shape!r}, }}"
    )
    base = 6 + 2 + 2  # magic + version + header-length field
    pad = (64 - (base + len(header) + 1) % 64) % 64
    header = header + " " * pad + "\n"
    with open(path, "wb") as fh:
        fh.write(b"\x93NUMPY")
        fh.write(bytes([1, 0]))
        fh.write(struct.pack("<H", len(header)))
        fh.write(header.encode("latin1"))
        fh.write(matrix.tobytes(order="C"))


def write_dataset_meta(ds: DatasetMeta, path: Path) -> None:
    Path(path).write_text(canonical_json(ds.to_dict()) + "\n")


def load_dataset_meta(path: Path) -> DatasetMeta:
    d = json.loads(Path(path).read_text())
    return DatasetMeta(
        records=[BuildingMeta.from_dict(r) for r in d["records"]],
        discard_log=[(e["seed"], e["reason"]) for e in d["discards"]],
    )


def write_discards_csv(ds: DatasetMeta, path: Path) -> None:
    lines = ["seed,reason"] + [f"{s},{r}" for s, r in ds.discard_log]
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass
class StatsReport:
    storey_hist: dict[int, int]
    room_area_hist: dict[int, int]  # 1 m² bins keyed by floor(area)
    footprint_hist: dict[int, int]  # 10 m² bins keyed by bin start
    room_area_mode: float  # centre of the modal 1 m² bin
    footprint_mode: float  # centre of the modal 10 m² bin

    def text(self) -> str:
        lines = ["storey histogram:"]
        for k in range(2, 11):
            lines.append(f"  {k:2d}: {self.storey_hist.get(k, 0)}")
        lines.append(f"room-area mode: {self.room_area_mode:.1f} m^2")
        lines.append(f"floor-area mode: {self.footprint_mode:.1f} m^2")
        return "\n".join(lines)

    def csv_rows(self) -> dict[str, list[str]]:
        return {
            "storeys": ["storeys,count"]
            + [f"{k},{v}" for k, v in sorted(self.storey_hist.items())],
            "room_area": ["bin_start_m2,count"]
            + [f"{k},{v}" for k, v in sorted(self.room_area_hist.items())],
            "footprint_area": ["bin_start_m2,count"]
            + [f"{k},{v}" for k, v in sorted(self.footprint_hist.items())],
        }


def stats(ds: DatasetMeta) -> StatsReport:
    if not ds.records:
        raise ValueError("no records to summarize")
    storey_hist: dict[int, int] = {}
    room_hist: dict[int, int] = {}
    fp_hist: dict[int, int] = {}
    for r in ds.records:
        storey_hist[r.storey_count] = storey_hist.get(r.storey_count, 0) + 1
        for rooms in r.rooms:
            for w, h in rooms:
                b = int(w * h)
                room_hist[b] = room_hist.get(b, 0) + 1
        fb = int(r.footprint_area // 10) * 10
        fp_hist[fb] = fp_hist.get(fb, 0) + 1
    room_mode = sorted(room_hist, key=lambda k: (-room_hist[k], k))[0]
    fp_mode = sorted(fp_hist, key=lambda k: (-fp_hist[k], k))[0]
    return StatsReport(
        storey_hist=storey_hist,
        room_area_hist=room_hist,
        footprint_hist=fp_hist,
        room_area_mode=room_mode + 0.5,
        footprint_mode=fp_mode + 5.0,
    )
