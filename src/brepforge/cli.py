"""Command-line front end: gen, validate, stats, points, defect, eval.

Exit codes: 0 success, 1 validation failure or a closed stdout, 2 usage or
config error.
`gen` distributes sample streams across a worker pool (--jobs, or the
BREPFORGE_JOBS environment variable); outputs are aggregated in stream
order so the tree is byte-identical no matter the scheduling.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from pathlib import Path

from . import __version__
from .assembly import assemble
from .config import ConfigError, GeneratorConfig
from .dataset import (
    DatasetMeta,
    BuildingMeta,
    check_rooms,
    check_solid,
    export_building,
    load_dataset_meta,
    solid_from_dict,
    solid_json,
    stats as dataset_stats,
    write_dataset_meta,
    write_discards_csv,
    write_meta_npy,
)
from .errors import (
    AssemblyInconsistencyError,
    BooleanFailureError,
    BrepForgeError,
    GrowthFailedError,
    InvalidExtrusionError,
    MalformedInputError,
    UnreachableRoomError,
)
from .grammar import grow
from .mltasks import (
    DEFECT_SUFFIX,
    UNIT_CUBE,
    UNIT_SPHERE,
    eval_binary,
    eval_regression,
    inject_defect,
    read_binary_csv,
    read_regression_csv,
    sample_points,
    truths_from_metas,
)
from .brep import triangulate
from .rng import SeededRng

USAGE_ERROR = 2
VALIDATION_ERROR = 1
# What reading malformed JSON input raises: JSONDecodeError is a ValueError,
# missing or mistyped fields raise the others.
_PARSE_ERRORS = (ValueError, KeyError, TypeError, IndexError)


def _generate_one(args: tuple) -> tuple[int, str, dict | str]:
    """Worker: grow, assemble, filter, and export one sample stream."""
    stream, grammar_cfg, building_cfg, filters, out_dir, write_obj = args
    rng = SeededRng(stream, stream)
    try:
        trace = grow(grammar_cfg, rng)
    except GrowthFailedError:
        return stream, "discard", "growth-failed"
    # Every storey's rooms are a prefix of the last snapshot's rooms, so
    # checking them once covers the whole building before any geometry is
    # built.
    trace_rooms = [(r.width / 10.0, r.height / 10.0) for r in trace.snapshots[-1].tiles[1:]]
    rooms_ok, _ = check_rooms([trace_rooms], filters)
    if not rooms_ok:
        return stream, "discard", "room-filter"
    try:
        building = assemble(trace, building_cfg, rng)
    except UnreachableRoomError:
        return stream, "discard", "unreachable-room"
    except (AssemblyInconsistencyError, BooleanFailureError, InvalidExtrusionError):
        return stream, "discard", "boolean-failure"
    solid_ok, _ = check_solid(building.solid)
    if not solid_ok:
        return stream, "discard", "boolean-failure"
    export_building(building, Path(out_dir), write_obj=write_obj)
    return stream, "export", building.meta.to_dict()


def cmd_gen(args) -> int:
    if args.count <= 0:
        print("gen: --count must be positive", file=sys.stderr)
        return USAGE_ERROR
    try:
        bad = [kv for kv in args.set or [] if "=" not in kv]
        if bad:
            raise ConfigError(f"--set {bad[0]!r} is not KEY=VALUE")
        cfg = GeneratorConfig.build(args.config, dict(kv.split("=", 1) for kv in args.set or []))
        sections = (cfg.grammar(), cfg.building(), cfg.filters())
    except (ConfigError, ValueError, OSError) as exc:
        print(f"gen: bad config: {exc}", file=sys.stderr)
        return USAGE_ERROR
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"gen: cannot create {out_dir}: {exc}", file=sys.stderr)
        return USAGE_ERROR

    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    streams = range(args.seed, args.seed + args.count)
    work = [(s, *sections, str(out_dir), args.obj) for s in streams]
    if args.jobs > 1:
        # Imported only here, so a serial run does not load the pool machinery.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_generate_one, work, chunksize=8))
    else:
        results = [_generate_one(w) for w in work]
    results.sort(key=lambda r: r[0])

    ds = DatasetMeta()
    for stream, status, payload in results:
        if status == "export":
            ds.records.append(BuildingMeta.from_dict(payload))
        else:
            ds.discard_log.append((stream, payload))
    if ds.records:
        write_dataset_meta(ds, out_dir / "meta.json")
        write_meta_npy(ds, out_dir / "meta.npy")
    write_discards_csv(ds, out_dir / "discards.csv")
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
            "exported": len(ds.records),
            "discarded": len(ds.discard_log),
        },
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(
        f"generated {args.count}, exported {len(ds.records)}, "
        f"discarded {len(ds.discard_log)} -> {out_dir}"
    )
    return 0


def _brep_files(directory: Path) -> list[Path]:
    return sorted(directory.glob("*.brep.json"))


def _read_json(path: Path, parse):
    """``parse`` applied to the JSON in ``path``; malformed content raises
    MalformedInputError naming the file."""
    try:
        return parse(json.loads(path.read_text()))
    except _PARSE_ERRORS as exc:
        raise MalformedInputError(f"{path.name}: parse error: {exc}") from exc


def cmd_validate(args) -> int:
    directory = Path(args.dir)
    files = _brep_files(directory)
    if not files:
        print(f"validate: no .brep.json files in {directory}", file=sys.stderr)
        return 0
    cfg = GeneratorConfig.build(None, {})
    failures = 0
    for path in files:
        try:
            solid = _read_json(path, solid_from_dict)
        except MalformedInputError as exc:
            print(f"FAIL {exc}")
            failures += 1
            continue
        ok, problems = check_solid(solid)
        if not ok:
            more = f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""
            print(f"FAIL {path.name}: {problems[0]}{more}")
            failures += 1
            continue
        meta_path = path.with_name(path.name.replace(".brep.json", ".meta.json"))
        if meta_path.exists():
            try:
                meta = _read_json(meta_path, BuildingMeta.from_dict)
            except MalformedInputError as exc:
                print(f"FAIL {path.name}: {exc}")
                failures += 1
                continue
            rooms_ok, violations = check_rooms(meta.rooms, cfg.filters())
            if not rooms_ok:
                print(f"FAIL {path.name}: {violations[0]}")
                failures += 1
                continue
        print(f"ok   {path.name}")
    print(f"validate: {len(files) - failures}/{len(files)} passed")
    return 0 if failures == 0 else VALIDATION_ERROR


def cmd_stats(args) -> int:
    directory = Path(args.dir)
    meta_path = directory / "meta.json"
    try:
        report = dataset_stats(load_dataset_meta(meta_path))
    except (*_PARSE_ERRORS, OSError) as exc:
        print(f"stats: {meta_path}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(report.text())
    for name, rows in report.csv_rows().items():
        out = directory / f"stats_{name}.csv"
        out.write_text("\n".join(rows) + "\n")
        print(f"wrote {out}")
    return 0


def cmd_points(args) -> int:
    if args.n <= 0:
        print("points: --n must be positive", file=sys.stderr)
        return USAGE_ERROR
    directory = Path(args.dir)
    files = _brep_files(directory)
    if not files:
        print(f"points: no .brep.json files in {directory}", file=sys.stderr)
        return USAGE_ERROR
    mode = UNIT_CUBE if args.mode == "cube" else UNIT_SPHERE
    for i, path in enumerate(files):
        mesh = triangulate(_read_json(path, solid_from_dict))
        stream = args.seed + i
        cloud = sample_points(mesh, args.n, mode, SeededRng(stream, stream))
        base = path.name.replace(".brep.json", "")
        (directory / f"{base}.xyz").write_text(cloud.to_xyz())
        if args.f32:
            (directory / f"{base}.f32").write_bytes(cloud.to_f32())
    print(f"points: wrote {len(files)} clouds (n={args.n}, mode={args.mode})")
    return 0


def cmd_defect(args) -> int:
    if not 0 <= args.ratio < float("inf"):
        print("defect: --ratio must be a finite number >= 0", file=sys.stderr)
        return USAGE_ERROR
    directory = Path(args.dir)
    good = [p for p in _brep_files(directory) if DEFECT_SUFFIX not in p.name]
    if not good:
        print(f"defect: no GOOD .brep.json files in {directory}", file=sys.stderr)
        return USAGE_ERROR
    out_dir = Path(args.out) if args.out else directory
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"defect: cannot create {out_dir}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    # Copy k of the total is of source k mod len(good), with stream seed + k
    # and suffix _def, _def2, ... by k // len(good); each source is read and
    # checked once, before its first copy.
    total = round(args.ratio * len(good))
    for i, src in enumerate(good[:total]):
        solid = _read_json(src, solid_from_dict)
        problems = [f"label {solid.label!r} is not 'GOOD'"] if solid.label != "GOOD" else check_solid(solid)[1]
        if problems:
            print(f"defect: {src.name}: {problems[0]}", file=sys.stderr)
            return VALIDATION_ERROR
        base = src.name.replace(".brep.json", "")
        for copy_idx in range(i, total, len(good)):
            variant = copy_idx // len(good)
            name = base + DEFECT_SUFFIX + (str(variant + 1) if variant else "")
            stream = args.seed + copy_idx
            defect = inject_defect(solid, SeededRng(stream, stream))
            (out_dir / f"{name}.brep.json").write_text(solid_json(defect, name) + "\n")
    print(f"defect: wrote {total} defect solids (ratio {args.ratio})")
    return 0


def cmd_eval(args) -> int:
    try:
        if args.kind == "binary":
            metrics = eval_binary(read_binary_csv(args.predictions))
        else:
            if not args.truth:
                print("eval regression: --truth META.json required", file=sys.stderr)
                return USAGE_ERROR
            ds = load_dataset_meta(args.truth)
            metrics = eval_regression(
                read_regression_csv(args.predictions), truths_from_metas(ds.records)
            )
    except (*_PARSE_ERRORS, OSError) as exc:
        print(f"eval: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(metrics.text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    except BrepForgeError as exc:
        print(f"brepforge: {exc}", file=sys.stderr)
        return VALIDATION_ERROR
    return status


if __name__ == "__main__":
    sys.exit(main())
