"""Dataset records and everything computed from them alone: room filters,
building and dataset metadata, the dataset files (`meta.json`, `meta.npy`
and `discards.csv`), statistics, task labels and metrics; and
`write_output`, which every command writes its files through.

Nothing here reads geometry, and the module imports no numpy, so `stats`
and `eval` load only this and the standard library.  Metadata files are
byte-stable canonical JSON (`canonical_json`: sorted keys, compact
separators, shortest round-trip floats).  Task truths come from the
storey count's fixed per-floor pattern (s, s-1, ..., 1, 0, ...).  A file's
id is its name before the first `.` (`file_id`, its one reader), and its
label comes from that id alone (`label_of`, reading the ids `defect_id`
writes).  Lengths read from files and configs snap to the 0.1 m grid by
`to_units` (the solid reader does the same in numpy), so no reader needs
the footprint kernel.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

DEFECT_SUFFIX = "_def"
# The labels of a solid, and of a prediction in `eval binary`.
LABELS = ("GOOD", "DEFECT")

# A coordinate or room side further than this from zero is a parse error:
# NaN, infinities and values beyond int64 would otherwise fail inside numpy,
# and within it every product of three coordinates (the volume term of
# `brep.geometry_problems`) fits in int64.
MAX_COORDINATE_M = 100_000.0


def write_output(path: Path, *parts) -> None:
    """Write the parts (str, bytes, or a binary file read from where it
    stands) to ``path`` as a new file.  An existing file is unlinked first:
    truncating one whose data the filesystem has not written yet forces
    that out (about 50 ms on ext4 for a file just written), and a symlink
    at ``path`` is replaced, not written through."""
    Path(path).unlink(missing_ok=True)
    with open(path, "wb") as fh:
        for part in parts:
            if hasattr(part, "read"):
                import shutil

                shutil.copyfileobj(part, fh)
            else:
                fh.write(part.encode() if isinstance(part, str) else part)


def to_units(metres: float) -> int:
    """Snap a metre value to the 0.1 m grid; reject off-grid inputs."""
    units = round(metres * 10)
    if abs(units - metres * 10) > 1e-6:
        raise ValueError(f"{metres} m is not on the 0.1 m grid")
    return units


@dataclass(frozen=True)
class FilterConfig:
    """Room-level acceptance thresholds (metres / m²); `config` checks the
    values."""

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
        return dict(vars(self))

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


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def load_dataset_meta(path: Path) -> DatasetMeta:
    d = json.loads(Path(path).read_text())
    return DatasetMeta(
        records=[BuildingMeta.from_dict(r) for r in d["records"]],
        discard_log=[(e["seed"], e["reason"]) for e in d["discards"]],
    )


def meta_row(meta: BuildingMeta) -> bytes:
    """The record's `meta.npy` row: storey_count, room_total,
    avg_room_area, footprint_area, room_per_floor_1..10, as 14
    little-endian float64."""
    return struct.pack(
        "<14d", meta.storey_count, meta.room_total, meta.avg_room_area, meta.footprint_area, *meta.room_per_floor
    )


class DatasetWriter:
    """The dataset-wide files of a `gen` run, written from its streams as
    they come, so memory does not grow with the number of streams.

    `add` takes one exported record as its canonical JSON text (its
    `<id>.meta.json` without the newline) and its `meta_row`: the text goes
    to an anonymous spool file in the output directory and only the row
    stays in memory.  `discard` logs one discarded stream.  `finish` writes
    `meta.json` and `meta.npy`, only when a record was added, and
    `discards.csv`.  `meta.json` is byte for byte the canonical JSON of
    ``{"discards": [...], "records": [...]}``: "discards" sorts first, so
    the spooled texts, joined by commas, come last.  `meta.npy` is NPY
    v1.0: magic, version (1, 0), a header padded to 64 bytes, then the
    rows in C order.
    """

    def __init__(self, out_dir: Path):
        # Imported here: `stats` and `eval` write no dataset.
        import tempfile

        self.out_dir = Path(out_dir)
        self.exported = 0
        self.discard_log: list[tuple[int, str]] = []
        self._rows = bytearray()
        self._spool = tempfile.TemporaryFile(dir=self.out_dir)

    def __enter__(self) -> "DatasetWriter":
        return self

    def __exit__(self, *exc) -> None:
        self._spool.close()

    def add(self, text: str, row: bytes) -> None:
        if self.exported:
            self._spool.write(b",")
        self._spool.write(text.encode())
        self._rows += row
        self.exported += 1

    def discard(self, seed: int, reason: str) -> None:
        self.discard_log.append((seed, reason))

    def finish(self) -> None:
        if self.exported:
            discards = canonical_json([{"seed": s, "reason": r} for s, r in self.discard_log])
            self._spool.seek(0)
            write_output(self.out_dir / "meta.json", '{"discards":%s,"records":[' % discards, self._spool, "]}\n")
            header = "{'descr': '<f8', 'fortran_order': False, 'shape': (%d, 14), }" % self.exported
            # magic + version + header-length field, then the header and
            # its newline, padded to a multiple of 64 bytes.
            header += " " * (-(10 + len(header) + 1) % 64) + "\n"
            magic = b"\x93NUMPY\x01\x00" + struct.pack("<H", len(header)) + header.encode("latin1")
            write_output(self.out_dir / "meta.npy", magic, self._rows)
        lines = ["seed,reason"] + [f"{s},{r}" for s, r in self.discard_log]
        write_output(self.out_dir / "discards.csv", "\n".join(lines) + "\n")


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
    storey_hist = Counter(r.storey_count for r in ds.records)
    room_hist = Counter(int(w * h) for r in ds.records for rooms in r.rooms for w, h in rooms)
    if not room_hist:
        raise ValueError("no record has a room in rooms")
    fp_hist = Counter(int(r.footprint_area // 10) * 10 for r in ds.records)
    room_mode, fp_mode = (min(hist, key=lambda k: (-hist[k], k)) for hist in (room_hist, fp_hist))
    return StatsReport(
        storey_hist=storey_hist,
        room_area_hist=room_hist,
        footprint_hist=fp_hist,
        room_area_mode=room_mode + 0.5,
        footprint_mode=fp_mode + 5.0,
    )


@dataclass
class LabelVector:
    storey: int
    room_total: int
    room_per_floor: list[int]
    avg_area: float


def oracle_labels(meta: BuildingMeta) -> LabelVector:
    """Ground-truth labels from metadata via the deterministic floor pattern."""
    room_total, room_per_floor = tiered_room_counts(meta.storey_count)
    return LabelVector(
        storey=meta.storey_count,
        room_total=room_total,
        room_per_floor=room_per_floor,
        avg_area=meta.avg_room_area,
    )


REGRESSION_HEADER = (
    ["filename", "pred_storey", "pred_room_tot", "pred_avg_area"]
    + [f"pred_room_per_{i}" for i in range(1, 11)]
)


@dataclass
class RegressionMetrics:
    storey_accuracy: float
    storey_mae: float
    roomtot_rmse: float
    roomtot_mae: float
    avgarea_mae: float
    perfloor_mae: float

    def text(self) -> str:
        return "\n".join(
            [
                f"storey accuracy:        {self.storey_accuracy:.3f}",
                f"storey MAE (floors):    {self.storey_mae:.3f}",
                f"room-total RMSE:        {self.roomtot_rmse:.3f}",
                f"room-total MAE:         {self.roomtot_mae:.3f}",
                f"avg-area MAE (m^2):     {self.avgarea_mae:.3f}",
                f"per-floor MAE (rooms):  {self.perfloor_mae:.3f}",
            ]
        )


def eval_regression(
    predictions: list[dict], truths: dict[str, LabelVector]
) -> RegressionMetrics:
    """Error arithmetic for the multi-attribute regression task.

    Prediction rows use the spreadsheet columns (pred_storey, pred_room_tot,
    pred_avg_area, pred_room_per_1..10); truths are keyed by building id
    (`file_id` of the filename).
    """
    missing = [p["filename"] for p in predictions if file_id(p["filename"]) not in truths]
    if missing:
        raise KeyError(f"predictions without matching truth ids: {missing[:10]}")
    if not predictions:
        raise ValueError("no prediction rows")
    storey_err, storey_hit, rt_err, aa_err, pf_err = [], [], [], [], []
    for p in predictions:
        truth = truths[file_id(p["filename"])]
        ps = _finite_cell(p, "pred_storey")
        storey_err.append(abs(ps - truth.storey))
        storey_hit.append(float(round(ps) == truth.storey))
        rt_err.append(_finite_cell(p, "pred_room_tot") - truth.room_total)
        aa_err.append(_finite_cell(p, "pred_avg_area") - truth.avg_area)
        per = [_finite_cell(p, f"pred_room_per_{i}") for i in range(1, 11)]
        pf_err.append(
            sum(abs(a - b) for a, b in zip(per, truth.room_per_floor)) / 10.0
        )
    n = len(predictions)
    return RegressionMetrics(
        storey_accuracy=sum(storey_hit) / n,
        storey_mae=sum(storey_err) / n,
        roomtot_rmse=math.sqrt(sum(e * e for e in rt_err) / n),
        roomtot_mae=sum(abs(e) for e in rt_err) / n,
        avgarea_mae=sum(abs(e) for e in aa_err) / n,
        perfloor_mae=sum(pf_err) / n,
    )


@dataclass
class BinaryMetrics:
    tp: int
    fn: int
    fp: int
    tn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    degenerate: list[str] = field(default_factory=list)

    @classmethod
    def from_counts(cls, tp: int, fn: int, fp: int, tn: int) -> "BinaryMetrics":
        total = tp + fn + fp + tn
        if not total:
            raise ValueError("empty confusion matrix")
        degenerate = []
        if tp + fp:
            precision = tp / (tp + fp)
        else:
            precision = 0.0
            degenerate.append("precision")
        if tp + fn:
            recall = tp / (tp + fn)
        else:
            recall = 0.0
            degenerate.append("recall")
        if precision + recall:
            f1 = 2 * precision * recall / (precision + recall)
        else:
            f1 = 0.0
            degenerate.append("f1")
        return cls(tp, fn, fp, tn, (tp + tn) / total, precision, recall, f1, degenerate)

    def text(self) -> str:
        flag = f"  (degenerate: {', '.join(self.degenerate)})" if self.degenerate else ""
        return "\n".join(
            [
                f"confusion: tp={self.tp} fn={self.fn} fp={self.fp} tn={self.tn}",
                f"accuracy:  {self.accuracy:.3f}",
                f"precision: {self.precision:.3f}",
                f"recall:    {self.recall:.3f}",
                f"f1:        {self.f1:.3f}{flag}",
            ]
        )


def eval_binary(rows: list[tuple[str, str]]) -> BinaryMetrics:
    """Confusion matrix for GOOD/DEFECT predictions; truth is the label the filename gives (`label_of`)."""
    counts = Counter()
    for filename, prediction in rows:
        if prediction not in LABELS:
            raise ValueError(f"unknown label {prediction!r} for {filename}")
        counts[label_of(filename), prediction] += 1
    tp, fn, fp, tn = (counts[truth, pred] for truth in ("DEFECT", "GOOD") for pred in ("DEFECT", "GOOD"))
    return BinaryMetrics.from_counts(tp, fn, fp, tn)


def _finite_cell(row: dict, column: str) -> float:
    value = float(row[column])
    if not math.isfinite(value):
        raise ValueError(f"{row['filename']}: {column} {row[column]!r} is not a finite number")
    return value


def file_id(filename: str) -> str:
    """The id of file ``filename``: its name before the first ``.``."""
    return Path(filename).name.split(".")[0]


def label_of(filename: str) -> str:
    """DEFECT when the file's id (`file_id`) ends in DEFECT_SUFFIX and
    optional digits, as `defect_id` writes it; else GOOD."""
    return "DEFECT" if file_id(filename).rstrip("0123456789").endswith(DEFECT_SUFFIX) else "GOOD"


def defect_id(base: str, variant: int) -> str:
    """The id of DEFECT copy ``variant`` (0, 1, ...) of ``base``: ``<base>_def``, ``<base>_def2``, ..."""
    return base + DEFECT_SUFFIX + (str(variant + 1) if variant else "")


def read_regression_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    needed = set(REGRESSION_HEADER)
    if rows and not needed.issubset(rows[0]):
        raise ValueError(f"missing columns: {sorted(needed - set(rows[0]))}")
    return rows


def read_binary_csv(path: Path) -> list[tuple[str, str]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if not {"filename", "prediction"}.issubset(reader.fieldnames or ()):
            raise ValueError("binary predictions need filename,prediction columns")
        return [(row["filename"], row["prediction"]) for row in reader]
