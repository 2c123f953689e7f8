"""In-memory span recorder and the wrappers that trace brepforge from outside.

Nothing in the package is edited.  `install` rebinds public functions in the
module that *calls* them (``brepforge.cli.assemble``,
``brepforge.assembly.merge``, ``brepforge.brep.trace_region`` ...) to a
wrapper that records one span per call: name, start, end, parent span and a
trace id (one per seed stream or per input file).  Counters are recorded at
the same boundaries.  `layer_metrics` turns the spans into the per-layer
metrics the benchmark prints.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from pathlib import Path

LAYERS = ("cli", "grammar", "storey", "assembly", "brep", "regions", "dataset", "mltasks")


class Recorder:
    """Spans as parallel lists; `stack` holds the indices of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.traces: list[str] = []
        self.stack: list[int] = []
        self.trace_id = "-"
        self.counts: dict[str, float] = {}
        self.files_seen = 0
        self.streams_seen = 0

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, on_call=None, on_result=None):
        """Return `fn` recording a span per call.

        `on_call(args, kwargs)` runs before the span opens (it may set the
        trace id); `on_result(args, result)` runs after it closes.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.traces.append(self.trace_id)
            self.ends.append(0.0)
            self.stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.ends[idx] = time.perf_counter()
                self.stack.pop()
                self.count(f"{name}.raised")
                raise
            self.ends[idx] = time.perf_counter()
            self.stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def dump(self, path: Path) -> None:
        spans = [
            {"name": n, "start": s, "end": e, "parent": p, "trace": t}
            for n, s, e, p, t in zip(self.names, self.starts, self.ends, self.parents, self.traces)
        ]
        path.write_text(json.dumps({"spans": spans, "counts": self.counts}) + "\n")


def install(rec: Recorder) -> list[tuple[object, str, object]]:
    """Rebind the traced functions; returns what `uninstall` needs."""
    import brepforge.assembly as assembly
    import brepforge.brep as brep
    import brepforge.cli as cli
    import brepforge.dataset as dataset
    import brepforge.grammar as grammar
    import brepforge.mltasks as mltasks

    def stream_start(args, kwargs):
        rec.streams_seen += 1
        rec.trace_id = f"stream:{rec.streams_seen}"

    def file_start(args, kwargs):
        # Top-level reads (directly under a subcommand) start one trace per file.
        if len(rec.stack) == 1:
            rec.files_seen += 1
            rec.trace_id = f"file:{rec.files_seen}"

    def production_done(args, result):
        rec.count("grammar.try_production.accepted")

    def triangles(args, mesh):
        rec.count("brep.triangulate.triangles", len(mesh.triangles))

    def cells(args, result):
        rec.count("regions.trace_region.cells", args[0].mask.size)

    def exported(args, paths):
        rec.count("dataset.bytes_written", sum(Path(p).stat().st_size for p in paths))

    def sampled(args, kwargs):
        rec.count("mltasks.sample_points.points", args[1])

    def exterior(args, result):
        if result:
            rec.count("mltasks.is_exterior_face.accepted")

    plan = [
        # (module, attribute, span name, on_call, on_result)
        (cli, "cmd_gen", "cli.gen", None, None),
        (cli, "cmd_validate", "cli.validate", None, None),
        (cli, "cmd_stats", "cli.stats", None, None),
        (cli, "cmd_points", "cli.points", None, None),
        (cli, "cmd_defect", "cli.defect", None, None),
        (cli, "_generate_one", "cli.stream", stream_start, None),
        (cli, "grow", "grammar.grow", None, None),
        (grammar, "try_production", "grammar.try_production", None, production_done),
        (assembly, "build_storey_plan", "storey.build_storey_plan", None, None),
        (cli, "assemble", "assembly.assemble", None, None),
        (assembly, "solid_from_boxes", "brep.solid_from_boxes", None, None),
        (assembly, "merge", "brep.merge", None, None),
        (assembly, "cut_through_slabs", "brep.cut_through_slabs", None, None),
        (cli, "triangulate", "brep.triangulate", None, triangles),
        (dataset, "is_watertight", "brep.is_watertight", None, None),
        (brep, "trace_region", "regions.trace_region", None, cells),
        (brep, "rasterize_loops", "regions.rasterize_loops", None, None),
        (cli, "export_building", "dataset.export_building", None, exported),
        (cli, "solid_from_dict", "dataset.solid_from_dict", file_start, None),
        (cli, "check_rooms", "dataset.check_rooms", None, None),
        (cli, "sample_points", "mltasks.sample_points", sampled, None),
        (mltasks.PointCloud, "to_xyz", "mltasks.to_xyz", None, None),
        (cli, "inject_defect", "mltasks.inject_defect", None, None),
        (mltasks, "is_exterior_face", "mltasks.is_exterior_face", None, exterior),
    ]
    saved = []
    for owner, attr, name, on_call, on_result in plan:
        # A function a later change removes (say `merge`) is skipped; its
        # metrics then read 0.
        original = getattr(owner, attr, None)
        if original is None:
            continue
        saved.append((owner, attr, original))
        setattr(owner, attr, rec.wrap(name, original, on_call, on_result))
    return saved


def uninstall(saved) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


TIMED = (
    "grammar.grow", "storey.build_storey_plan", "assembly.assemble", "brep.solid_from_boxes",
    "brep.merge", "brep.cut_through_slabs", "brep.triangulate", "brep.is_watertight",
    "regions.trace_region", "regions.rasterize_loops", "dataset.export_building",
    "dataset.solid_from_dict", "dataset.check_rooms", "mltasks.sample_points", "mltasks.to_xyz",
    "mltasks.inject_defect",
)
CALLED = ("grammar.try_production", "regions.trace_region", "regions.rasterize_loops", "mltasks.is_exterior_face")
COUNTED = (
    "brep.triangulate.triangles", "regions.trace_region.cells", "dataset.bytes_written",
    "mltasks.sample_points.points",
)
SOLID_KERNELS = ("brep.solid_from_boxes", "brep.merge", "brep.cut_through_slabs")


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def self_times_ms(rec: Recorder) -> list[float]:
    """Per span: its duration minus the time its direct children cover.

    Children of one span run one after another in a single thread, so the
    part of the parent they cover is the sum of their durations.
    """
    own = [(e - s) * 1e3 for s, e in zip(rec.starts, rec.ends)]
    for i, p in enumerate(rec.parents):
        if p >= 0:
            own[p] -= (rec.ends[i] - rec.starts[i]) * 1e3
    return own


def layer_metrics(rec: Recorder, traced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced run (values only)."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    own_by_name: dict[str, float] = {}
    own_by_layer = dict.fromkeys(LAYERS, 0.0)
    for name, s, e, own in zip(rec.names, rec.starts, rec.ends, self_times_ms(rec)):
        total[name] = total.get(name, 0.0) + (e - s) * 1e3
        calls[name] = calls.get(name, 0) + 1
        own_by_name[name] = own_by_name.get(name, 0.0) + own
        layer = name.split(".", 1)[0]
        if layer in own_by_layer:
            own_by_layer[layer] += own

    streams = [(e - s) * 1e3 for n, s, e in zip(rec.names, rec.starts, rec.ends) if n == "cli.stream"]
    out: dict[str, float] = {
        "cli.stream.ms.p50": _percentile(streams, 50),
        "cli.stream.ms.p95": _percentile(streams, 95),
        "cli.stream.count": len(streams),
        "cli.gen.aggregate_ms": total.get("cli.gen", 0.0) - sum(streams),
        "assembly.assemble.self_ms": own_by_name.get("assembly.assemble", 0.0),
        "brep.solid.self_ms": sum(own_by_name.get(n, 0.0) for n in SOLID_KERNELS),
    }
    for name in TIMED:
        out[f"{name}.ms"] = total.get(name, 0.0)
    for name in CALLED:
        out[f"{name}.calls"] = calls.get(name, 0)
    for key in COUNTED:
        out[key] = rec.counts.get(key, 0)
    for name in ("grammar.try_production", "mltasks.is_exterior_face"):
        n = calls.get(name, 0)
        out[f"{name}.accept_ratio"] = rec.counts.get(f"{name}.accepted", 0) / n if n else 0.0
    for layer, ms in own_by_layer.items():
        out[f"{layer}.self_ms"] = ms
    top = sum((e - s) * 1e3 for s, e, p in zip(rec.starts, rec.ends, rec.parents) if p < 0)
    out["trace.unspanned_ms"] = traced_wall_s * 1e3 - top
    out["trace.spans"] = len(rec.names)
    return out
