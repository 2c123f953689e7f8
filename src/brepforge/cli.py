"""Command-line front end: gen, validate, stats, points, defect, eval.

Exit codes: 0 success, 1 validation failure or a closed stdout, 2 usage or
config error, or an output that cannot be written.  A command refuses by
raising `Refusal` with its message and exit code, and `main` alone turns
that, a `BrepForgeError` or an `OSError` into one stderr line and a code.
`gen` distributes sample streams across a worker pool (--jobs, or the
BREPFORGE_JOBS environment variable), in chunks of 8 streams and with no
more workers than chunks; each stream's result goes to the dataset files
in stream order as it comes, so the tree is byte-identical no matter the
scheduling and memory does not grow with --count.

Each command imports the modules it runs when it runs, so a process pays
only for its own command: `stats` and `eval` load no numpy, and
`validate`, `points` and `defect` load no grammar, storey plans or
assembly.  `run` is the process entry.  They read each solid through
`_read_solid`, which names its outputs from its id (`records.file_id`).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

from . import __version__
from .errors import BrepForgeError, Discard, MalformedInputError, Refusal
from .records import BuildingMeta, check_rooms, defect_id, file_id, label_of, write_output

USAGE_ERROR = 2
VALIDATION_ERROR = 1
# Streams per task handed to a `gen` worker.
CHUNK = 8
# What reading malformed JSON input raises: JSONDecodeError is a ValueError,
# too deep a nesting RecursionError, and missing or mistyped fields the
# others.
_PARSE_ERRORS = (ValueError, RecursionError, KeyError, TypeError, IndexError)


def _generate_one(args: tuple) -> tuple[int, str, tuple[str, bytes] | str]:
    """Worker: grow, assemble, filter, and export one sample stream.

    An export comes back as the building's metadata text and `meta.npy`
    row, so no record object crosses the pool or outlives its stream; a
    discard as its reason.  Every stage that can discard the stream raises
    a `Discard` holding the reason; any other error ends the run."""
    from .assembly import assemble
    from .dataset import check_solid, export_building
    from .grammar import grow
    from .records import meta_row
    from .rng import SeededRng

    stream, grammar_cfg, building_cfg, filters, out_dir, write_obj = args
    rng = SeededRng(stream, stream)
    try:
        trace = grow(grammar_cfg, rng)
        # Every storey's rooms are a prefix of the last snapshot's rooms, so
        # checking them once covers the whole building before any geometry
        # is built.
        trace_rooms = [(r.width / 10.0, r.height / 10.0) for r in trace.snapshots[-1].tiles[1:]]
        rooms_ok, problems = check_rooms([trace_rooms], filters)
        if not rooms_ok:
            raise Discard("room-filter", problems[0])
        building = assemble(trace, building_cfg, rng)
        solid_ok, problems = check_solid(building.solid)
        if not solid_ok:
            raise Discard("boolean-failure", problems[0])
    except Discard as exc:
        return stream, "discard", exc.reason
    text = export_building(building, Path(out_dir), write_obj=write_obj)
    return stream, "export", (text, meta_row(building.meta))


def _generate(work, workers: int):
    """`_generate_one` over `work`, yielded in stream order as the results
    come: serially, or from a pool of `workers` processes."""
    if workers > 1:
        # Imported only here, so a serial run does not load the pool machinery.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(_generate_one, work, chunksize=CHUNK)
    else:
        yield from map(_generate_one, work)


def cmd_gen(args) -> int:
    import datetime

    from .config import GeneratorConfig
    from .records import DatasetWriter

    if args.count <= 0:
        raise Refusal("gen: --count must be positive")
    if args.jobs <= 0:
        raise Refusal("gen: --jobs must be positive")
    _check_seed("gen", args.seed, args.count)
    try:
        bad = [kv for kv in args.set or [] if "=" not in kv]
        if bad:
            raise ValueError(f"--set {bad[0]!r} is not KEY=VALUE")
        cfg = GeneratorConfig.build(args.config, dict(kv.split("=", 1) for kv in args.set or []))
        sections = cfg.sections()
    except (ValueError, OSError) as exc:
        raise Refusal(f"gen: bad config: {exc}") from exc
    out_dir = Path(args.out)
    _make_dir("gen", out_dir)

    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    streams = range(args.seed, args.seed + args.count)
    work = ((s, *sections, str(out_dir), args.obj) for s in streams)
    # A pool starts all its workers at once, so it gets no more than there
    # are chunks to run.
    workers = min(args.jobs, -(-args.count // CHUNK))
    with DatasetWriter(out_dir) as dataset:
        for stream, status, payload in _generate(work, workers):
            if status == "export":
                dataset.add(*payload)
            else:
                dataset.discard(stream, payload)
        dataset.finish()
    exported, discarded = dataset.exported, len(dataset.discard_log)
    manifest = {
        "command": " ".join(sys.argv),
        "config_hash": cfg.config_hash(),
        "config": dict(cfg.values),
        "seed_range": [args.seed, args.seed + args.count - 1],
        "version": __version__,
        "started": started,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "counts": {
            "generated": args.count,
            "exported": exported,
            "discarded": discarded,
        },
    }
    write_output(out_dir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"generated {args.count}, exported {exported}, discarded {discarded} -> {out_dir}")
    return 0


def _brep_files(directory: Path) -> list[Path]:
    return sorted(directory.glob("*.brep.json"))


def _check_seed(command: str, seed: int, streams: int) -> None:
    """Refuse unless streams seed .. seed + streams - 1 all lie in
    [0, 2**64): `SeededRng` masks a stream to 64 bits, so a seed outside
    would repeat another seed's output."""
    if not 0 <= seed <= 2**64 - streams:
        raise Refusal(f"{command}: --seed must be in [0, 2**64 - {streams}]")


def _make_dir(command: str, path: Path) -> None:
    """Make directory ``path`` unless it stands; refuse if it cannot be made."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise Refusal(f"{command}: cannot create {path}: {exc}") from exc


def _read_json(path: Path, parse):
    """``parse`` applied to the JSON in ``path``; a file that cannot be read
    or holds malformed content raises MalformedInputError naming it."""
    try:
        return parse(json.loads(path.read_text()))
    except OSError as exc:
        raise MalformedInputError(f"{path.name}: cannot read: {exc.strerror or exc}") from exc
    except _PARSE_ERRORS as exc:
        raise MalformedInputError(f"{path.name}: parse error: {exc}") from exc


def _read_solid(path: Path):
    """The id (`records.file_id`) that names every output of the solid at
    ``path``, and the solid; a name other than ``<id>.brep.json`` with a
    non-empty id raises MalformedInputError."""
    from .dataset import solid_from_dict

    building_id = file_id(path.name)
    if not building_id or path.name != f"{building_id}.brep.json":
        raise MalformedInputError(f"{path.name}: name is not <id>.brep.json, an id holding no '.'")
    return building_id, _read_json(path, solid_from_dict)


def _validation_line(path: Path, filters, in_tree: bool) -> str:
    """`validate`'s line for the solid at ``path``: ``ok   <file>``, or
    ``FAIL <file>: `` and the first thing wrong with the solid, its label
    or, in ``<id>.meta.json``, its rooms."""
    from .dataset import file_problems

    try:
        building_id, solid = _read_solid(path)
    except MalformedInputError as exc:
        return f"FAIL {exc}"
    problems = file_problems(solid, path.name)
    if problems:
        more = f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""
        return f"FAIL {path.name}: {problems[0]}{more}"
    meta_path = path.with_name(f"{building_id}.meta.json")
    if meta_path.exists():
        try:
            meta = _read_json(meta_path, BuildingMeta.from_dict)
        except MalformedInputError as exc:
            return f"FAIL {path.name}: {exc}"
        violations = check_rooms(meta.rooms, filters)[1]
        if violations:
            return f"FAIL {path.name}: {violations[0]}"
    elif in_tree and label_of(path.name) == "GOOD":
        # A `gen` tree holds the metadata of every solid it exported.
        return f"FAIL {path.name}: {meta_path.name} is missing"
    return f"ok   {path.name}"


def cmd_validate(args) -> int:
    from .config import GeneratorConfig

    directory = Path(args.dir)
    if not directory.is_dir():
        raise Refusal(f"validate: {directory} is not a directory")
    files = _brep_files(directory)
    if not files:
        # A warning: there is nothing to fail.
        raise Refusal(f"validate: no .brep.json files in {directory}", 0)
    # Rooms are checked against the filters the tree was generated with:
    # those of the config in its manifest, else the defaults.
    manifest = directory / "manifest.json"
    in_tree = manifest.exists()
    try:
        config = json.loads(manifest.read_text())["config"] if in_tree else {}
        if type(config) is not dict or not all(type(v) is str for v in config.values()):
            raise ValueError("config is not an object of strings")
        filters = GeneratorConfig.build(None, config).filters()
    except (*_PARSE_ERRORS, OSError) as exc:
        raise Refusal(f"validate: {manifest}: {exc}") from exc
    failures = 0
    for path in files:
        line = _validation_line(path, filters, in_tree)
        print(line)
        failures += line.startswith("FAIL")
    print(f"validate: {len(files) - failures}/{len(files)} passed")
    return 0 if failures == 0 else VALIDATION_ERROR


def cmd_stats(args) -> int:
    from .records import load_dataset_meta, stats

    directory = Path(args.dir)
    meta_path = directory / "meta.json"
    try:
        report = stats(load_dataset_meta(meta_path))
    except (*_PARSE_ERRORS, OSError) as exc:
        raise Refusal(f"stats: {meta_path}: {exc}") from exc
    print(report.text())
    for name, rows in report.csv_rows().items():
        out = directory / f"stats_{name}.csv"
        write_output(out, "\n".join(rows) + "\n")
        print(f"wrote {out}")
    return 0


def cmd_points(args) -> int:
    from .mltasks import sample_points
    from .rng import SeededRng

    # Fewer than two points have no extent to normalize by.
    if args.n < 2:
        raise Refusal("points: --n must be at least 2")
    directory = Path(args.dir)
    files = _brep_files(directory)
    if not files:
        raise Refusal(f"points: no .brep.json files in {directory}")
    _check_seed("points", args.seed, len(files))
    for i, path in enumerate(files):
        building_id, solid = _read_solid(path)
        stream = args.seed + i
        cloud = sample_points(solid, args.n, args.mode, SeededRng(stream, stream))
        write_output(directory / f"{building_id}.xyz", cloud.to_xyz())
        if args.f32:
            write_output(directory / f"{building_id}.f32", cloud.to_f32())
    print(f"points: wrote {len(files)} clouds (n={args.n}, mode={args.mode})")
    return 0


def cmd_defect(args) -> int:
    from .dataset import file_problems, solid_json
    from .mltasks import inject_defect
    from .rng import SeededRng

    if not 0 <= args.ratio < float("inf"):
        raise Refusal("defect: --ratio must be a finite number >= 0")
    directory = Path(args.dir)
    good = [p for p in _brep_files(directory) if label_of(p.name) == "GOOD"]
    if not good:
        raise Refusal(f"defect: no GOOD .brep.json files in {directory}")
    # Copy k of the total is of source k mod len(good), with stream seed + k
    # and variant k // len(good) (`defect_id`); each source is read and
    # checked once, before its first copy.  The output directory is made
    # just before the first copy, so a refusal up to then leaves nothing.
    total = round(args.ratio * len(good))
    _check_seed("defect", args.seed, total)
    out_dir = Path(args.out) if args.out else directory
    for i, src in enumerate(good[:total]):
        base, solid = _read_solid(src)
        problems = file_problems(solid, src.name)
        if problems:
            raise Refusal(f"defect: {src.name}: {problems[0]}", VALIDATION_ERROR)
        if i == 0:
            _make_dir("defect", out_dir)
        for copy_idx in range(i, total, len(good)):
            name = defect_id(base, copy_idx // len(good))
            stream = args.seed + copy_idx
            defect = inject_defect(solid, SeededRng(stream, stream))
            write_output(out_dir / f"{name}.brep.json", solid_json(defect, name) + "\n")
    print(f"defect: wrote {total} defect solids (ratio {args.ratio})")
    return 0


def cmd_eval(args) -> int:
    import csv

    from .records import (
        eval_binary,
        eval_regression,
        load_dataset_meta,
        oracle_labels,
        read_binary_csv,
        read_regression_csv,
    )

    try:
        if args.kind == "binary":
            metrics = eval_binary(read_binary_csv(args.predictions))
        else:
            if not args.truth:
                raise Refusal("eval regression: --truth META.json required")
            ds = load_dataset_meta(args.truth)
            truths = {m.id: oracle_labels(m) for m in ds.records}
            metrics = eval_regression(read_regression_csv(args.predictions), truths)
    except (*_PARSE_ERRORS, csv.Error, OSError) as exc:
        raise Refusal(f"eval: {exc}") from exc
    print(metrics.text())
    return 0


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        # argparse drops a failed write; on stdout it must raise, so that
        # --help and --version into a closed pipe exit 1 like any command,
        # also when stdout is unbuffered and the write itself fails.
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="brepforge",
        description="Procedural multi-storey building B-rep generator and task tooling",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a building dataset")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    # A string default goes through `type` only when gen runs, so a bad
    # BREPFORGE_JOBS is a gen usage error (exit 2), not a parser crash.
    p.add_argument(
        "--jobs", type=int, default=os.environ.get("BREPFORGE_JOBS", "1"),
        help="worker processes (default: BREPFORGE_JOBS, else 1)",
    )
    p.add_argument("--config", type=Path, default=None, help="key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--obj", action="store_true", help="also write triangulated OBJ files")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("validate", help="re-check watertightness and room filters")
    p.add_argument("dir")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stats", help="dataset distribution report")
    p.add_argument("dir")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("points", help="sample surface point clouds")
    p.add_argument("dir")
    p.add_argument("--n", type=int, default=4000)
    p.add_argument("--mode", choices=("cube", "sphere"), default="cube")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--f32", action="store_true", help="also write raw float32 binaries")
    p.set_defaults(func=cmd_points)

    p = sub.add_parser("defect", help="inject open-shell defects")
    p.add_argument("dir")
    p.add_argument("--out", default=None)
    p.add_argument("--ratio", type=float, default=2.0, help="defect:good ratio")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_defect)

    p = sub.add_parser("eval", help="score prediction tables")
    p.add_argument("kind", choices=("regression", "binary"))
    p.add_argument("predictions", type=Path)
    p.add_argument("--truth", type=Path, default=None)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            status = args.func(args)
        finally:
            # A closed stdout fails at the latest here, not in the exit-time
            # flush; also after --help and --version, which exit in parse_args.
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (say `| head -1`): send what is left, and the
        # exit-time flush, to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return VALIDATION_ERROR
    except Refusal as exc:
        print(exc, file=sys.stderr)
        return exc.status
    except BrepForgeError as exc:
        print(f"brepforge: {exc}", file=sys.stderr)
        return VALIDATION_ERROR
    except OSError as exc:
        # An output that cannot be written; BrokenPipeError, an OSError
        # too, is caught above.
        print(f"brepforge: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return status


def run() -> None:
    """Process entry of `brepforge` and `python -m brepforge.cli`: `main`,
    then exit with its status.

    OPENBLAS_NUM_THREADS defaults to 1, so numpy's import starts no
    OpenBLAS thread: no command calls BLAS, and that thread costs CPU.
    The heap is frozen just before exit, so the interpreter's exit-time
    collection skips every object alive then, most of them made by the
    command's imports.  Neither is done in `main`, which tests and
    in-process callers run many times.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
