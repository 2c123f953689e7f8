"""Command-line behaviour: exit codes, determinism, file contracts."""

import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import brepforge
from brepforge.cli import main as cli
from brepforge.errors import Discard
from brepforge.records import canonical_json


def tree_hash(directory: Path, exclude=("manifest.json",)) -> dict[str, str]:
    out = {}
    for path in sorted(Path(directory).rglob("*")):
        if path.is_file() and path.name not in exclude:
            out[str(path.relative_to(directory))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_gen_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli(["gen", "--count", "12", "--seed", "3", "--out", str(a)]) == 0
    assert cli(["gen", "--count", "12", "--seed", "3", "--out", str(b)]) == 0
    ha, hb = tree_hash(a), tree_hash(b)
    assert ha and ha == hb


def test_rerun_into_same_directory_rewrites_identical_files(tmp_path):
    # Each output is unlinked and written anew: the same bytes, no extra
    # files (no spool or temporary file left behind).
    d = tmp_path / "d"
    for argv in (
        ["gen", "--count", "12", "--seed", "3", "--out", str(d), "--obj"],
        ["stats", str(d)],
        ["points", str(d), "--n", "20", "--f32"],
        ["defect", str(d), "--ratio", "1"],
    ):
        assert cli(argv) == 0
        first = tree_hash(d, exclude=())
        assert cli(argv) == 0
        again = tree_hash(d, exclude=())
        assert again.keys() == first.keys()
        assert {k: v for k, v in again.items() if k != "manifest.json"} == {
            k: v for k, v in first.items() if k != "manifest.json"
        }


def test_symlinked_output_is_replaced_not_written_through(tmp_path, small_batch_dir, capsys):
    d, target = tmp_path / "d", tmp_path / "elsewhere.csv"
    d.mkdir()
    (d / "meta.json").write_bytes((small_batch_dir / "meta.json").read_bytes())
    target.write_text("keep\n")
    (d / "stats_storeys.csv").symlink_to(target)
    assert cli(["stats", str(d)]) == 0
    assert target.read_text() == "keep\n"
    link = d / "stats_storeys.csv"
    assert not link.is_symlink() and link.read_text().startswith("storeys,count\n")


def test_gen_jobs_parallel_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli(["gen", "--count", "10", "--seed", "0", "--out", str(a)]) == 0
    assert cli(["gen", "--count", "10", "--seed", "0", "--out", str(b), "--jobs", "2"]) == 0
    assert tree_hash(a) == tree_hash(b)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_gen_meta_json_is_the_records_and_discards(tmp_path, jobs):
    # Stream 0 is a discard; 20 streams are three chunks, so --jobs 2 runs a pool.
    out = tmp_path / "d"
    assert cli(["gen", "--count", "20", "--seed", "0", "--jobs", jobs, "--out", str(out)]) == 0
    discards = [line.split(",") for line in (out / "discards.csv").read_text().splitlines()[1:]]
    assert discards[0][0] == "0"
    metas = [json.loads(p.read_text()) for p in out.glob("*.meta.json")]
    records = sorted(metas, key=lambda m: m["seed"])
    expected = {"discards": [{"seed": int(s), "reason": r} for s, r in discards], "records": records}
    assert len(records) + len(discards) == 20 and records
    assert (out / "meta.json").read_text() == canonical_json(expected) + "\n"


def test_gen_all_discards_writes_no_dataset_meta(tmp_path):
    out = tmp_path / "d"
    assert cli(["gen", "--count", "7", "--seed", "96", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["discards.csv", "manifest.json"]
    assert len((out / "discards.csv").read_text().splitlines()) == 8


def _gen_peak_bytes(out: Path, count: int) -> int:
    """Peak traced Python allocation of one in-process `gen` run."""
    tracemalloc.start()
    try:
        assert cli(["gen", "--count", str(count), "--seed", "43", "--jobs", "1", "--out", str(out)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gen_memory_flat_in_count(tmp_path):
    # The first run imports the generator; those allocations are not the run's.
    assert cli(["gen", "--count", "1", "--seed", "43", "--out", str(tmp_path / "warm")]) == 0
    small = _gen_peak_bytes(tmp_path / "small", 50)
    large = _gen_peak_bytes(tmp_path / "large", 200)
    assert large - small < 2**20, (small, large)


def test_gen_counts_accounting(tmp_path):
    out = tmp_path / "d"
    assert cli(["gen", "--count", "15", "--seed", "0", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    counts = manifest["counts"]
    assert counts["generated"] == 15
    assert counts["generated"] == counts["exported"] + counts["discarded"]
    exported_files = list(out.glob("*.brep.json"))
    assert len(exported_files) == counts["exported"]
    discard_lines = (out / "discards.csv").read_text().strip().splitlines()
    assert len(discard_lines) - 1 == counts["discarded"]


def test_gen_zero_count_usage_error(tmp_path):
    assert cli(["gen", "--count", "0", "--seed", "0", "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("seed, count", [(-1, 1), (2**64 - 1, 2)])
def test_gen_seed_outside_64_bits_usage_error(tmp_path, capsys, seed, count):
    # A stream outside [0, 2**64) was exported under its 64-bit residue,
    # while the discard log and manifest kept the unmasked number.
    out = tmp_path / "g"
    assert cli(["gen", "--count", str(count), "--seed", str(seed), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"gen: --seed must be in [0, 2**64 - {count}]\n"
    assert not out.exists()


def test_gen_last_64_bit_stream_accepted(tmp_path):
    out = tmp_path / "g"
    assert cli(["gen", "--count", "1", "--seed", str(2**64 - 1), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed_range"] == [2**64 - 1] * 2


def test_gen_bad_config_key(tmp_path):
    rc = cli(
        ["gen", "--count", "1", "--seed", "0", "--out", str(tmp_path / "x"),
         "--set", "no_such_key=1"]
    )
    assert rc == 2


@pytest.mark.parametrize("config", ["missing.cfg", "."])
def test_gen_unreadable_config_usage_error(tmp_path, capsys, config):
    # A missing file and a directory both fail to read.
    rc = cli(
        ["gen", "--count", "1", "--seed", "0", "--out", str(tmp_path / "x"),
         "--config", str(tmp_path / config)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("gen: bad config: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "item",
    [
        # Lengths that are not finite or lie beyond 1 000 m.
        "storey_height=inf",
        "storey_height=1e300",
        "core_tube=0,0,4,inf",
        "core_tube=-1e5,0,0,4",
        "window_bins=1.2,3.0,nan",
        "min_room_area=inf",
        "max_aspect_ratio=nan",
        # Sizes that are not positive.
        "wall_thickness=0",
        "wall_thickness=-0.2",
        "slab_thickness=-0.2",
        "entrance_width=0",
        "entrance_height=-1.0",
        "window_ns_small=0,0,0",
        "window_ew_mid=0.9,-1.2,1.0",
        # Not KEY=VALUE.
        "max_rooms",
        # Each of these printed a message without its key.
        "room_side_min=7.0",
        "room_side_max=1.0",
        "wall_thickness=0.3",
        "slab_thickness=3.0",
        # Each of these exported no stream and exited 0: `grow` needs two
        # rooms and at least one production attempt, and no room is
        # squarer than square.
        "max_rooms=1",
        "retry_budget=0",
        "retry_budget=-2",
        "max_aspect_ratio=0.9",
    ],
)
def test_gen_bad_config_value_usage_error(tmp_path, capsys, item):
    out = tmp_path / "x"
    assert cli(["gen", "--count", "2", "--seed", "0", "--out", str(out), "--set", item]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gen: bad config: ") and len(err.splitlines()) == 1, err
    assert item.partition("=")[0] in err
    assert not out.exists()


@pytest.mark.parametrize(
    "item",
    [
        # Each of these exported buildings that passed `validate`: windows
        # reaching below their storey's floor, a ground slab smaller than
        # the footprint, window bins out of order.
        "window_ns_small=0.9,1.4,-0.9",
        "window_ew_large=1.2,1.2,-0.1",
        "ground_offset=-3.0",
        "window_bins=5.0,3.0,1.2",
        "window_bins=1.2,3.0,3.0",
    ],
)
def test_gen_bad_geometry_config_usage_error(tmp_path, capsys, item):
    out = tmp_path / "x"
    assert cli(["gen", "--count", "20", "--seed", "0", "--out", str(out), "--set", item]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gen: bad config: ") and len(err.splitlines()) == 1, err
    assert item.partition("=")[0] in err
    assert not out.exists()


ROOM_FILTER_KEYS = (
    "room_side_min", "room_side_max", "min_room_area", "max_room_area", "min_room_side", "max_aspect_ratio",
)
WINDOW_HEAD_KEYS = (
    "storey_height", "slab_thickness", "core_tube", "window_bins",
    *(f"window_{group}_{size}" for group in ("ns", "ew") for size in ("small", "mid", "large")),
)


@pytest.mark.parametrize(
    "items, keys",
    [
        # A room's void is the room eroded by half a wall a side, and so is
        # the core shaft: unchecked, the first two end in a traceback from
        # an empty rectangle.
        (["wall_thickness=2.4"], ("wall_thickness", "room_side_min")),
        (["core_tube=0,0,1,8", "wall_thickness=1.0"], ("wall_thickness", "core_tube")),
        (["room_side_min=3.0", "wall_thickness=3.0"], ("wall_thickness", "room_side_min")),
        # Walls end at the slab soffit, over every door (2.1 m) and the
        # entrance: unchecked, each of these exports nothing and exits 0.
        (["storey_height=2.0"], ("storey_height", "slab_thickness")),
        (["slab_thickness=1.0"], ("storey_height", "slab_thickness")),
        (["entrance_height=2.9"], ("entrance_height", "storey_height", "slab_thickness")),
        (["storey_height=2.5"], ("entrance_height", "storey_height", "slab_thickness")),
        # The room filters reject every room the grammar can draw, whose
        # sides lie in room_side_min..room_side_max: unchecked, each of
        # these exports nothing and exits 0.
        (["min_room_side=6.1"], ("min_room_side", "room_side_max")),
        (["room_side_max=4.0", "min_room_side=4.5"], ("min_room_side", "room_side_max")),
        (["min_room_area=36.1"], ("min_room_area", "room_side_max")),
        (["min_room_area=30.0", "max_room_area=20.0"], ("min_room_area", "max_room_area")),
        (["max_room_area=5.7"], ("max_room_area", "room_side_min")),
        # Every room has both sides at least 5 m, so an area of at least
        # 25 m²: no single rule above covers the pair.
        (["min_room_side=5.0", "max_room_area=20.0"], ROOM_FILTER_KEYS),
        # Every window head (at least 2.4 m) is above the 2.1 m soffit, and
        # the top storey's core walls always draw a window.
        (["storey_height=2.3", "entrance_height=2.1"], WINDOW_HEAD_KEYS),
        (["window_ew_small=0.6,1.2,1.9", "window_ew_mid=0.9,1.2,1.9", "window_ew_large=1.2,1.2,1.9",
          "window_ns_small=0.9,2.0,0.9", "window_ns_mid=1.8,2.0,0.9", "window_ns_large=2.4,2.0,0.9"],
         WINDOW_HEAD_KEYS),
        # A door needs a 1.1 m wall, and every wall is shorter: unchecked,
        # this discards every stream as unreachable-room and exits 0.
        (["room_side_min=0.4", "room_side_max=1.0", "min_room_area=0.1", "min_room_side=0.1"],
         ("room_side_max",)),
    ],
)
def test_gen_cross_key_config_usage_error(tmp_path, capsys, items, keys):
    out = tmp_path / "x"
    argv = ["gen", "--count", "40", "--seed", "0", "--out", str(out)]
    for item in items:
        argv += ["--set", item]
    assert cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("gen: bad config: ") and len(err.splitlines()) == 1, err
    assert all(key in err for key in keys), err
    assert not out.exists()


@pytest.mark.parametrize("item", ["wall_thickness=2.2", "storey_height=2.6", "max_rooms=2", "retry_budget=1"])
def test_gen_config_at_cross_key_limits_exports_valid_buildings(tmp_path, item):
    # Walls 0.1 m thinner than the shortest room, a soffit exactly at the
    # entrance head, the fewest rooms and the smallest retry budget.
    out = tmp_path / "x"
    assert cli(["gen", "--count", "40", "--seed", "0", "--out", str(out), "--set", item]) == 0
    assert list(out.glob("*.brep.json"))
    assert cli(["validate", str(out)]) == 0


def test_gen_window_heads_above_soffit_run_when_no_wall_reaches_a_bin(tmp_path):
    # Every window head is above the soffit, but no wall reaches the first
    # bin, so no window is drawn: only the 16 room-filter discards are left.
    # `test_gen_discard_reasons` runs a table with one such head.
    out = tmp_path / "x"
    argv = ["gen", "--count", "40", "--seed", "0", "--out", str(out)]
    for item in ["storey_height=2.3", "entrance_height=2.1", "window_bins=100.0,200.0,300.0"]:
        argv += ["--set", item]
    assert cli(argv) == 0
    assert len(list(out.glob("*.brep.json"))) == 24
    assert cli(["validate", str(out)]) == 0


def test_discard_reasons_are_the_discards_csv_reasons():
    assert Discard.REASONS == ("growth-failed", "room-filter", "unreachable-room", "boolean-failure")
    exc = Discard("room-filter", "storey 1 room 0: area 7.20 outside [8.0, 80.0]")
    assert (exc.reason, str(exc)) == ("room-filter", "storey 1 room 0: area 7.20 outside [8.0, 80.0]")
    with pytest.raises(ValueError, match="unknown discard reason 'sliver'"):
        Discard("sliver", "a sliver gap")


@pytest.mark.parametrize(
    "items, reasons, exported",
    [
        # Stream 90 grows one room.
        (["--count", "48", "--seed", "43"], {"growth-failed": 1, "room-filter": 19}, 28),
        # Rooms up to exactly the door wall pass the config rules, and every
        # stream still has a room with no wall a door fits in.
        (["--count", "40", "--seed", "0", "--set", "room_side_min=0.4", "--set", "room_side_max=1.1",
          "--set", "min_room_area=0.1", "--set", "min_room_side=0.1"], {"unreachable-room": 40}, 0),
        # A 3.8 m head on large north/south walls.
        (["--count", "40", "--seed", "0", "--set", "window_ns_large=2.4,2.9,0.9"],
         {"boolean-failure": 16, "room-filter": 16}, 8),
        # A door needs a 1.1 m wall, and many rooms have none that long.
        (["--count", "40", "--seed", "0", "--set", "room_side_min=1.0", "--set", "room_side_max=2.0",
          "--set", "min_room_area=0.1", "--set", "min_room_side=0.1"], {"unreachable-room": 29}, 11),
    ],
)
def test_gen_discard_reasons(tmp_path, items, reasons, exported):
    out = tmp_path / "x"
    assert cli(["gen", "--jobs", "1", "--out", str(out), *items]) == 0
    rows = [line.split(",") for line in (out / "discards.csv").read_text().splitlines()[1:]]
    assert Counter(reason for _, reason in rows) == reasons
    if "growth-failed" in reasons:
        assert ["90", "growth-failed"] in rows
    assert len(list(out.glob("*.brep.json"))) == exported


def test_gen_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nmax_rooms = 4\n")
    out = tmp_path / "d"
    assert cli(
        ["gen", "--count", "8", "--seed", "0", "--out", str(out),
         "--config", str(cfg), "--set", "max_rooms=3"]
    ) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["max_rooms"] == "3"
    for meta_path in out.glob("*.meta.json"):
        assert json.loads(meta_path.read_text())["storey_count"] <= 3


def test_validate_fresh_batch_passes(small_batch_dir):
    assert cli(["validate", str(small_batch_dir)]) == 0


def test_validate_detects_defect(tmp_path, small_batch_dir):
    work = tmp_path / "work"
    work.mkdir()
    for path in list(small_batch_dir.glob("*.brep.json"))[:2]:
        (work / path.name).write_bytes(path.read_bytes())
    assert cli(["validate", str(work)]) == 0
    assert cli(["defect", str(work), "--ratio", "0.5", "--seed", "1"]) == 0
    assert cli(["validate", str(work)]) == 1


def test_validate_fails_a_tree_file_without_its_meta(tmp_path, small_batch_dir, capsys):
    (tmp_path / "manifest.json").write_bytes((small_batch_dir / "manifest.json").read_bytes())
    names = [p.name for p in sorted(small_batch_dir.glob("*.brep.json"))[:3]]
    metas = [name.replace(".brep.json", ".meta.json") for name in names]
    for name in names + metas:
        (tmp_path / name).write_bytes((small_batch_dir / name).read_bytes())
    assert cli(["defect", str(tmp_path), "--ratio", "1", "--seed", "1"]) == 0

    def validate(code: int) -> list[str]:
        capsys.readouterr()
        assert cli(["validate", str(tmp_path)]) == code
        return [line for line in capsys.readouterr().out.splitlines() if "_def" not in line]

    # The _def files, which have no metadata, fail only as defects.
    assert validate(1) == [f"ok   {name}" for name in names] + ["validate: 3/6 passed"]
    (tmp_path / metas[1]).unlink()
    assert validate(1) == [
        f"ok   {names[0]}",
        f"FAIL {names[1]}: {metas[1]} is missing",
        f"ok   {names[2]}",
        "validate: 2/6 passed",
    ]
    # Outside a `gen` tree a solid needs no metadata.
    (tmp_path / "manifest.json").unlink()
    assert validate(1) == [f"ok   {name}" for name in names] + ["validate: 3/6 passed"]


PERMISSIVE_FILTERS = ["min_room_area=0", "max_room_area=1e9", "min_room_side=0", "max_aspect_ratio=1e9"]


def test_validate_uses_the_filters_in_the_manifest(tmp_path, capsys):
    # Generated with filters that admit any room, the tree fails the
    # default ones ("area 7.68 outside [8.0, 80.0]").
    out = tmp_path / "d"
    sets = [arg for item in PERMISSIVE_FILTERS for arg in ("--set", item)]
    assert cli(["gen", "--count", "5", "--seed", "0", "--out", str(out), *sets]) == 0
    exported = len(list(out.glob("*.brep.json")))
    capsys.readouterr()
    assert cli(["validate", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"validate: {exported}/{exported} passed"


def planted_small_room(small_batch_dir, directory) -> str:
    """Copy the batch's manifest and first building into ``directory``, with
    a 1 m x 1 m room added to the building's ground storey; returns the
    building's file name."""
    (directory / "manifest.json").write_bytes((small_batch_dir / "manifest.json").read_bytes())
    src = next(iter(sorted(small_batch_dir.glob("*.brep.json"))))
    (directory / src.name).write_bytes(src.read_bytes())
    meta_name = src.name.replace(".brep.json", ".meta.json")
    meta = json.loads((small_batch_dir / meta_name).read_text())
    meta["rooms"][0].append([1.0, 1.0])
    (directory / meta_name).write_text(json.dumps(meta))
    return src.name


def test_validate_default_manifest_fails_small_room(tmp_path, small_batch_dir, capsys):
    name = planted_small_room(small_batch_dir, tmp_path)
    assert cli(["validate", str(tmp_path)]) == 1
    assert "area 1.00 outside [8.0, 80.0]" in capsys.readouterr().out
    # Without the manifest the defaults apply, and they fail it too.
    (tmp_path / "manifest.json").unlink()
    assert cli(["validate", str(tmp_path)]) == 1
    assert f"FAIL {name}: storey 1 room" in capsys.readouterr().out


@pytest.mark.parametrize(
    "manifest",
    [
        "not json",
        "[]",
        '{"counts": {}}',
        '{"config": ["min_room_area=0"]}',
        '{"config": {"min_room_area": 0}}',
        '{"config": {"no_such_key": "1"}}',
        '{"config": {"min_room_area": "inf"}}',
        "DIRECTORY",
    ],
)
def test_validate_bad_manifest_usage_error(tmp_path, small_batch_dir, capsys, manifest):
    planted_small_room(small_batch_dir, tmp_path)
    path = tmp_path / "manifest.json"
    path.unlink()
    if manifest == "DIRECTORY":
        path.mkdir()
    else:
        path.write_text(manifest)
    assert cli(["validate", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"validate: {path}: ") and len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err and captured.out == ""


def test_validate_empty_dir_warns_ok(tmp_path):
    assert cli(["validate", str(tmp_path)]) == 0


def test_stats_reports(small_batch_dir, capsys):
    assert cli(["stats", str(small_batch_dir)]) == 0
    out = capsys.readouterr().out
    assert "storey histogram" in out
    assert (small_batch_dir / "stats_storeys.csv").exists()
    rows = (small_batch_dir / "stats_storeys.csv").read_text().strip().splitlines()[1:]
    total = sum(int(r.split(",")[1]) for r in rows)
    meta = json.loads((small_batch_dir / "meta.json").read_text())
    assert total == len(meta["records"])


@pytest.mark.parametrize(
    "argv, unbuffered",
    [
        pytest.param(["stats", "DIR"], False, id="stats"),
        pytest.param(["stats", "DIR"], True, id="stats-unbuffered"),
        # argparse itself drops a failed write of these two; buffered, the
        # flush in `main` shows the closed pipe, unbuffered the write does.
        pytest.param(["--help"], False, id="help"),
        pytest.param(["--version"], False, id="version"),
        pytest.param(["--help"], True, id="help-unbuffered"),
        pytest.param(["--version"], True, id="version-unbuffered"),
    ],
)
def test_closed_stdout_exits_one_without_traceback(tmp_path, small_batch_dir, argv, unbuffered):
    # As in `brepforge stats DIR | head -1` once head has exited: the read
    # end of the pipe is closed before the first write.
    (tmp_path / "meta.json").write_bytes((small_batch_dir / "meta.json").read_bytes())
    argv = [str(tmp_path) if arg == "DIR" else arg for arg in argv]
    src_dir = Path(brepforge.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(src_dir), os.environ.get("PYTHONPATH", "")])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "brepforge.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1 and "Traceback" not in result.stderr, result.stderr


def test_points_outputs(tmp_path, small_batch_dir):
    work = tmp_path / "pts"
    work.mkdir()
    src = next(iter(sorted(small_batch_dir.glob("*.brep.json"))))
    (work / src.name).write_bytes(src.read_bytes())
    assert cli(["points", str(work), "--n", "4000", "--mode", "cube", "--seed", "2", "--f32"]) == 0
    xyz = work / src.name.replace(".brep.json", ".xyz")
    f32 = work / src.name.replace(".brep.json", ".f32")
    lines = xyz.read_text().strip().splitlines()
    assert len(lines) == 4000
    xs = [float(tok) for tok in lines[0].split()]
    assert len(xs) == 3
    assert f32.stat().st_size == 4000 * 3 * 4


def test_defect_ratio_two_to_one(tmp_path, small_batch_dir):
    work = tmp_path / "def"
    work.mkdir()
    for path in list(sorted(small_batch_dir.glob("*.brep.json")))[:3]:
        (work / path.name).write_bytes(path.read_bytes())
    assert cli(["defect", str(work), "--ratio", "2.0", "--seed", "0"]) == 0
    defects = sorted(p.name for p in work.glob("*_def*.brep.json"))
    assert len(defects) == 6
    assert all("_def" in name for name in defects)
    labels = {json.loads((work / n).read_text())["label"] for n in defects}
    assert labels == {"DEFECT"}


def test_eval_binary_cli(tmp_path, capsys):
    rows = ["filename,prediction"]
    rows += [f"a{i}_def.brep.json,DEFECT" for i in range(41)]
    rows += [f"b{i}_def.brep.json,GOOD" for i in range(9)]
    rows += [f"c{i}.brep.json,DEFECT" for i in range(37)]
    rows += [f"d{i}.brep.json,GOOD" for i in range(13)]
    csv_path = tmp_path / "preds.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    assert cli(["eval", "binary", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "accuracy:  0.540" in out
    assert "precision: 0.526" in out
    assert "recall:    0.820" in out


def copy_as_bld_default(small_batch_dir, directory) -> None:
    """A closed GOOD solid of the batch, copied into ``directory`` as
    `bld_default.brep.json`: its id holds _def but does not end in it."""
    src = sorted(small_batch_dir.glob("*.brep.json"))[0]
    (directory / "bld_default.brep.json").write_bytes(src.read_bytes())


def test_validate_passes_a_good_id_holding_the_defect_suffix(tmp_path, small_batch_dir, capsys):
    copy_as_bld_default(small_batch_dir, tmp_path)
    assert cli(["validate", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["ok   bld_default.brep.json", "validate: 1/1 passed"]


def test_defect_copies_a_good_id_holding_the_defect_suffix(tmp_path, small_batch_dir):
    copy_as_bld_default(small_batch_dir, tmp_path)
    assert cli(["defect", str(tmp_path), "--ratio", "1", "--seed", "0"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bld_default.brep.json", "bld_default_def.brep.json"]
    assert json.loads((tmp_path / "bld_default_def.brep.json").read_text())["label"] == "DEFECT"


@pytest.mark.parametrize("command", ["validate", "points", "defect"])
def test_dotted_id_is_malformed_input(tmp_path, small_batch_dir, capsys, command):
    # An id holds no dot: read as `a`, `a.b.brep.json` would name its
    # outputs `a.b.xyz` or `a.b_def.brep.json`, which read back as `a`.
    src = small_batch_dir / "bld00000003.brep.json"
    for name in (src.name, "a.b.brep.json"):
        (tmp_path / name).write_bytes(src.read_bytes())
    assert cli([command, str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    problem = "a.b.brep.json: name is not <id>.brep.json, an id holding no '.'"
    if command == "validate":
        assert out.splitlines() == [f"FAIL {problem}", "ok   bld00000003.brep.json", "validate: 1/2 passed"]
    else:
        assert err == f"brepforge: {problem}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.b.brep.json", "bld00000003.brep.json"]


@pytest.mark.parametrize("command", ["validate", "points", "defect"])
def test_empty_id_is_malformed_input(tmp_path, small_batch_dir, capsys, command):
    # `.brep.json` has the empty id: its outputs would be the hidden `.xyz`
    # and `_def.brep.json`, a DEFECT id with no source id.
    (tmp_path / ".brep.json").write_bytes((small_batch_dir / "bld00000003.brep.json").read_bytes())
    assert cli([command, str(tmp_path), "--ratio", "1"] if command == "defect" else [command, str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    problem = ".brep.json: name is not <id>.brep.json, an id holding no '.'"
    if command == "validate":
        assert out.splitlines() == [f"FAIL {problem}", "validate: 0/1 passed"]
    else:
        assert err == f"brepforge: {problem}\n"
    assert [p.name for p in tmp_path.iterdir()] == [".brep.json"]


def test_eval_binary_scores_a_good_id_holding_the_defect_suffix(tmp_path, capsys):
    csv_path = tmp_path / "preds.csv"
    csv_path.write_text("filename,prediction\nbld_default.xyz,GOOD\nbld_default_def.xyz,DEFECT\n")
    assert cli(["eval", "binary", str(csv_path)]) == 0
    assert "confusion: tp=1 fn=0 fp=0 tn=1" in capsys.readouterr().out


def test_eval_regression_cli_identity(tmp_path, small_batch_dir, capsys):
    meta = json.loads((small_batch_dir / "meta.json").read_text())
    header = ["filename", "pred_storey", "pred_room_tot", "pred_avg_area"] + [
        f"pred_room_per_{i}" for i in range(1, 11)
    ]
    rows = [",".join(header)]
    for record in meta["records"]:
        s = record["storey_count"]
        per = [max(s - k, 0) for k in range(10)]
        rows.append(
            ",".join(
                [f"{record['id']}.brep.json", str(s), str(record["room_total"]),
                 repr(record["avg_room_area"])]
                + [str(v) for v in per]
            )
        )
    csv_path = tmp_path / "preds.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    assert cli(["eval", "regression", str(csv_path), "--truth", str(small_batch_dir / "meta.json")]) == 0
    out = capsys.readouterr().out
    assert "storey accuracy:        1.000" in out
    assert "per-floor MAE (rooms):  0.000" in out


@pytest.mark.parametrize("column", ["pred_storey", "pred_room_tot", "pred_avg_area", "pred_room_per_3"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
def test_eval_regression_non_finite_prediction_usage_error(tmp_path, small_batch_dir, capsys, column, value):
    record = json.loads((small_batch_dir / "meta.json").read_text())["records"][0]
    header = ["filename", "pred_storey", "pred_room_tot", "pred_avg_area"] + [
        f"pred_room_per_{i}" for i in range(1, 11)
    ]
    row = dict.fromkeys(header, "1")
    row.update(filename=f"{record['id']}.brep.json", **{column: value})
    csv_path = tmp_path / "preds.csv"
    csv_path.write_text(",".join(header) + "\n" + ",".join(row[h] for h in header) + "\n")
    assert cli(["eval", "regression", str(csv_path), "--truth", str(small_batch_dir / "meta.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("eval: ") and f"{column} '{value}' is not a finite number" in err
    assert "Traceback" not in err


def test_eval_regression_requires_truth(tmp_path):
    csv_path = tmp_path / "p.csv"
    csv_path.write_text("filename,prediction\nx,GOOD\n")
    assert cli(["eval", "regression", str(csv_path)]) == 2


def edited_copy(small_batch_dir, directory, edit):
    """Copy the batch's first solid into ``directory`` with ``edit`` applied
    to its JSON document; returns the file name."""
    src = next(iter(sorted(small_batch_dir.glob("*.brep.json"))))
    doc = json.loads(src.read_text())
    edit(doc)
    (directory / src.name).write_text(json.dumps(doc))
    return src.name


def null_faces_copy(small_batch_dir, directory):
    return edited_copy(small_batch_dir, directory, lambda doc: doc.update(faces=None))


def test_validate_null_faces_fails_cleanly(tmp_path, small_batch_dir, capsys):
    name = null_faces_copy(small_batch_dir, tmp_path)
    assert cli(["validate", str(tmp_path)]) == 1
    assert capsys.readouterr().out.startswith(f"FAIL {name}: parse error")


@pytest.mark.parametrize("mode", ["cube", "sphere"])
def test_points_single_point_usage_error(tmp_path, small_batch_dir, capsys, mode):
    # One point has no extent or radius to normalize by.
    src = next(iter(sorted(small_batch_dir.glob("*.brep.json"))))
    (tmp_path / src.name).write_bytes(src.read_bytes())
    assert cli(["points", str(tmp_path), "--n", "1", "--mode", mode]) == 2
    assert capsys.readouterr().err == "points: --n must be at least 2\n"
    assert not list(tmp_path.glob("*.xyz"))
    assert cli(["points", str(tmp_path), "--n", "2", "--mode", mode]) == 0
    assert "nan" not in next(tmp_path.glob("*.xyz")).read_text()


def test_bad_jobs_env_is_gen_usage_error(tmp_path, monkeypatch):
    for jobs in ("x", "0", "-1"):
        monkeypatch.setenv("BREPFORGE_JOBS", jobs)
        # Other subcommands do not read the variable.
        assert cli(["validate", str(tmp_path)]) == 0
        # A value that is not a number fails in the parser, one below 1 in gen.
        try:
            status = cli(["gen", "--count", "1", "--seed", "0", "--out", str(tmp_path / "g")])
        except SystemExit as exc:
            status = exc.code
        assert status == 2, jobs
    assert not list(tmp_path.glob("g/*.brep.json"))


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_gen_nonpositive_jobs_usage_error(tmp_path, capsys, jobs):
    assert cli(["gen", "--count", "2", "--seed", "0", "--jobs", jobs, "--out", str(tmp_path / "g")]) == 2
    assert capsys.readouterr().err == "gen: --jobs must be positive\n"
    assert not (tmp_path / "g").exists()


def test_gen_pool_has_no_more_workers_than_chunks(tmp_path, monkeypatch):
    import concurrent.futures

    asked = []

    class RecordingPool:
        """Runs the tasks in this process and records the pool size."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    a, b = tmp_path / "a", tmp_path / "b"
    # 20 streams are 3 chunks of 8.
    assert cli(["gen", "--count", "20", "--seed", "0", "--jobs", "64", "--out", str(a)]) == 0
    assert asked == [3]
    assert cli(["gen", "--count", "20", "--seed", "0", "--jobs", "1", "--out", str(b)]) == 0
    assert tree_hash(a) == tree_hash(b)
    # One chunk runs serially, without a pool.
    assert cli(["gen", "--count", "8", "--seed", "0", "--jobs", "64", "--out", str(tmp_path / "c")]) == 0
    assert asked == [3]


def test_defect_out_is_a_file_usage_error(tmp_path, small_batch_dir, capsys):
    src = next(iter(sorted(small_batch_dir.glob("*.brep.json"))))
    (tmp_path / src.name).write_bytes(src.read_bytes())
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli(["defect", str(tmp_path), "--out", str(taken), "--ratio", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"defect: cannot create {taken}: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*_def*"))
    # gen makes its --out through the same guard.
    out = taken / "g"
    assert cli(["gen", "--count", "1", "--seed", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"gen: cannot create {out}: ") and len(err.splitlines()) == 1


def test_validate_directory_for_a_file_fails_cleanly(tmp_path, small_batch_dir, capsys):
    # A directory where a solid or its meta file is expected fails that
    # solid, and validate goes on.
    src = next(iter(sorted(small_batch_dir.glob("*.brep.json"))))
    (tmp_path / src.name).write_bytes(src.read_bytes())
    (tmp_path / src.name.replace(".brep.json", ".meta.json")).mkdir()
    (tmp_path / "x.brep.json").mkdir()
    assert cli(["validate", str(tmp_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith(f"FAIL {src.name}: {src.name.replace('.brep.json', '.meta.json')}: cannot read: ")
    assert out[1].startswith("FAIL x.brep.json: cannot read: ")
    assert out[2] == "validate: 0/2 passed"


@pytest.mark.parametrize("command", ["points", "defect"])
def test_directory_for_a_solid_fails_cleanly(tmp_path, capsys, command):
    (tmp_path / "x.brep.json").mkdir()
    assert cli([command, str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("brepforge: x.brep.json: cannot read: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.brep.json"]


def test_stats_unwritable_output_usage_error(tmp_path, small_batch_dir, capsys):
    (tmp_path / "meta.json").write_bytes((small_batch_dir / "meta.json").read_bytes())
    (tmp_path / "stats_storeys.csv").mkdir()
    assert cli(["stats", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("brepforge: ") and "stats_storeys.csv" in err[0]


def test_points_null_faces_fails_cleanly(tmp_path, small_batch_dir, capsys):
    name = null_faces_copy(small_batch_dir, tmp_path)
    assert cli(["points", str(tmp_path), "--n", "10"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and name in err[0]


def test_points_faceless_solid_fails_cleanly(tmp_path, small_batch_dir, capsys):
    edited_copy(small_batch_dir, tmp_path, lambda doc: doc.update(faces=[]))
    assert cli(["points", str(tmp_path), "--n", "10"]) == 1
    assert capsys.readouterr().err == "brepforge: solid has no faces\n"
    assert not list(tmp_path.glob("*.xyz"))


def test_points_builds_no_mesh(tmp_path, small_batch_dir, monkeypatch):
    import brepforge.brep

    def no_mesh(solid):
        raise AssertionError("points triangulated a solid")

    monkeypatch.setattr(brepforge.brep, "triangulate", no_mesh)
    src = next(iter(sorted(small_batch_dir.glob("*.brep.json"))))
    (tmp_path / src.name).write_bytes(src.read_bytes())
    assert cli(["points", str(tmp_path), "--n", "50", "--mode", "sphere", "--f32"]) == 0
    assert len(list(tmp_path.glob("*.xyz"))) == 1 and len(list(tmp_path.glob("*.f32"))) == 1


@pytest.mark.parametrize("seed", [-1, 2**64 - 1])
def test_points_seed_outside_64_bits_usage_error(tmp_path, small_batch_dir, capsys, seed):
    # Two files take streams seed and seed + 1; `SeededRng` masks each to
    # 64 bits, so -1 and 2**64 - 1 wrote the same clouds.
    for path in sorted(small_batch_dir.glob("*.brep.json"))[:2]:
        (tmp_path / path.name).write_bytes(path.read_bytes())
    assert cli(["points", str(tmp_path), "--n", "10", "--seed", str(seed)]) == 2
    assert capsys.readouterr().err == "points: --seed must be in [0, 2**64 - 2]\n"
    assert not list(tmp_path.glob("*.xyz"))
    assert cli(["points", str(tmp_path), "--n", "10", "--seed", str(2**64 - 2)]) == 0


@pytest.mark.parametrize("seed", [-1, 2**64 - 2])
def test_defect_seed_outside_64_bits_usage_error(tmp_path, small_batch_dir, capsys, seed):
    # --ratio 3 on one source makes three copies, streams seed .. seed + 2.
    src = next(iter(sorted(small_batch_dir.glob("*.brep.json"))))
    (tmp_path / src.name).write_bytes(src.read_bytes())
    out = tmp_path / "out"
    assert cli(["defect", str(tmp_path), "--out", str(out), "--ratio", "3", "--seed", str(seed)]) == 2
    assert capsys.readouterr().err == "defect: --seed must be in [0, 2**64 - 3]\n"
    assert not out.exists()
    assert cli(["defect", str(tmp_path), "--out", str(out), "--ratio", "3", "--seed", str(2**64 - 3)]) == 0
    assert len(list(out.glob("*_def*.brep.json"))) == 3


def test_defect_null_faces_fails_cleanly(tmp_path, small_batch_dir, capsys):
    name = null_faces_copy(small_batch_dir, tmp_path)
    assert cli(["defect", str(tmp_path), "--ratio", "1"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and name in err[0]
    assert not list(tmp_path.glob("*_def*"))


@pytest.mark.parametrize(
    "edit, problem",
    [
        (lambda doc: doc.update(label="DEFECT"), "label 'DEFECT' is not 'GOOD'"),
        (lambda doc: doc["faces"][0].update(outer=[]), "face 0: loop with 0 < 4 vertices"),
        (lambda doc: doc.update(faces=doc["faces"][:1]), "edge "),
    ],
    ids=["label-not-good", "empty-outer-loop", "single-face"],
)
def test_defect_bad_source_fails_cleanly(tmp_path, small_batch_dir, capsys, edit, problem):
    # Each source is checked before its copies are made.
    name = edited_copy(small_batch_dir, tmp_path, edit)
    assert cli(["defect", str(tmp_path), "--ratio", "2"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"defect: {name}: {problem}"), err
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]


def test_defect_without_inputs_creates_no_directory(tmp_path, capsys):
    missing, empty, new = tmp_path / "missing", tmp_path / "empty", tmp_path / "new"
    empty.mkdir()
    assert cli(["defect", str(missing), "--ratio", "1"]) == 2
    assert cli(["defect", str(empty), "--out", str(new), "--ratio", "1"]) == 2
    assert capsys.readouterr().err.startswith(f"defect: no GOOD .brep.json files in {missing}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty"] and not list(empty.iterdir())


NOT_A_DIR = "[Errno 20] Not a directory: '{tmp}/file/g'"
NO_META = "[Errno 2] No such file or directory: '{d}/meta.json'"
# Every refusal of every command: (files in {d}, argv, its one stderr line,
# exit code).  None leaves {out} or any other file behind.  {tmp} is the
# test's directory, {d} = {tmp}/in holds the inputs, {tmp}/file is a
# regular file.
REFUSALS = {
    "gen-count": ([], "gen --count 0 --out {out}", "gen: --count must be positive", 2),
    "gen-jobs": ([], "gen --count 1 --jobs 0 --out {out}", "gen: --jobs must be positive", 2),
    "gen-jobs-negative": ([], "gen --count 2 --jobs -3 --out {out}", "gen: --jobs must be positive", 2),
    "gen-seed": ([], f"gen --count 2 --seed {2**64 - 1} --out {{out}}", "gen: --seed must be in [0, 2**64 - 2]", 2),
    "gen-set-form": ([], "gen --count 1 --set max_rooms --out {out}",
                     "gen: bad config: --set 'max_rooms' is not KEY=VALUE", 2),
    "gen-set-key": ([], "gen --count 1 --set no_such_key=1 --out {out}",
                    "gen: bad config: unknown config key 'no_such_key'", 2),
    "gen-config": ([], "gen --count 1 --config {tmp}/missing.cfg --out {out}",
                   "gen: bad config: [Errno 2] No such file or directory: '{tmp}/missing.cfg'", 2),
    "gen-cannot-create": ([], "gen --count 1 --out {tmp}/file/g", "gen: cannot create {tmp}/file/g: " + NOT_A_DIR, 2),
    "validate-not-dir": ([], "validate {tmp}/missing", "validate: {tmp}/missing is not a directory", 2),
    "validate-file": ([], "validate {tmp}/file", "validate: {tmp}/file is not a directory", 2),
    "validate-empty": ([], "validate {d}", "validate: no .brep.json files in {d}", 0),
    "validate-manifest": (["good", "manifest"], "validate {d}",
                          "validate: {d}/manifest.json: list indices must be integers or slices, not str", 2),
    "stats-no-meta": ([], "stats {d}", "stats: {d}/meta.json: " + NO_META, 2),
    "stats-unwritable": (["meta", "csv-dir"], "stats {d}", "brepforge: [Errno 21] Is a directory: '{d}/stats_storeys.csv'", 2),
    "points-n": (["good"], "points {d} --n 1", "points: --n must be at least 2", 2),
    "points-n-zero": (["good"], "points {d} --n 0", "points: --n must be at least 2", 2),
    "points-empty": ([], "points {d}", "points: no .brep.json files in {d}", 2),
    "points-seed": (["good"], "points {d} --seed -1", "points: --seed must be in [0, 2**64 - 1]", 2),
    "points-unreadable": (["dir-solid"], "points {d}", "brepforge: x.brep.json: cannot read: Is a directory", 1),
    "defect-ratio": (["good"], "defect {d} --ratio nan --out {out}", "defect: --ratio must be a finite number >= 0", 2),
    "defect-ratio-negative": (["good"], "defect {d} --ratio -1 --out {out}", "defect: --ratio must be a finite number >= 0", 2),
    "defect-no-good": ([], "defect {d} --out {out}", "defect: no GOOD .brep.json files in {d}", 2),
    "defect-seed": (["good"], "defect {d} --ratio 1 --seed -1 --out {out}", "defect: --seed must be in [0, 2**64 - 1]", 2),
    "defect-cannot-create": (["good"], "defect {d} --out {tmp}/file/g", "defect: cannot create {tmp}/file/g: " + NOT_A_DIR, 2),
    "defect-bad-source": (["defect-label"], "defect {d} --out {out}",
                          "defect: bld00000003.brep.json: label 'DEFECT' is not 'GOOD'", 1),
    "defect-unreadable": (["dir-solid"], "defect {d} --out {out}", "brepforge: x.brep.json: cannot read: Is a directory", 1),
    "eval-no-truth": ([], "eval regression {tmp}/p.csv", "eval regression: --truth META.json required", 2),
    "eval-missing": ([], "eval binary {tmp}/p.csv", "eval: [Errno 2] No such file or directory: '{tmp}/p.csv'", 2),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_is_one_stderr_line_and_makes_nothing(tmp_path, small_batch_dir, capsys, case):
    inputs, argv, line, code = REFUSALS[case]
    d = tmp_path / "in"
    d.mkdir()
    (tmp_path / "file").write_text("")
    src = small_batch_dir / "bld00000003.brep.json"
    for item in inputs:
        if item == "good":
            (d / src.name).write_bytes(src.read_bytes())
        elif item == "defect-label":
            (d / src.name).write_text(src.read_text().replace('"label":"GOOD"', '"label":"DEFECT"'))
        elif item == "manifest":
            (d / "manifest.json").write_text("[]")
        elif item == "meta":
            (d / "meta.json").write_bytes((small_batch_dir / "meta.json").read_bytes())
        elif item == "csv-dir":
            (d / "stats_storeys.csv").mkdir()
        else:
            (d / "x.brep.json").mkdir()
    before = sorted(tmp_path.rglob("*"))
    paths = {"tmp": tmp_path, "d": d, "out": tmp_path / "out"}
    assert cli([arg.format(**paths) for arg in argv.split()]) == code
    assert capsys.readouterr().err == line.format(**paths) + "\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("value", [float("inf"), -float("inf"), float("nan"), 1e300, 10**30, 100000.1])
@pytest.mark.parametrize("field", ["vertex", "offset"])
@pytest.mark.parametrize("command", ["points", "defect", "validate"])
def test_coordinate_out_of_range_fails_cleanly(tmp_path, small_batch_dir, capsys, command, field, value):
    # NaN was already a parse error; infinities and values past int64 ended
    # in an OverflowError, and 100 km is the reader's bound.
    def edit(doc):
        if field == "vertex":
            doc["vertices"][0][1] = value
        else:
            doc["faces"][0]["plane"]["offset"] = value

    name = edited_copy(small_batch_dir, tmp_path, edit)
    extra = {"points": ["--n", "10"], "defect": ["--ratio", "1"], "validate": []}[command]
    assert cli([command, str(tmp_path), *extra]) == 1
    out, err = capsys.readouterr()
    line = out.splitlines()[0] if command == "validate" else err.strip()
    assert name in line and "parse error" in line and "\n" not in line
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]


@pytest.mark.parametrize("label", [5, "good", None, ["GOOD"]])
@pytest.mark.parametrize("command", ["points", "defect", "validate"])
def test_unknown_label_is_a_parse_error(tmp_path, small_batch_dir, capsys, command, label):
    # The reader, not each command, rejects a label other than GOOD or
    # DEFECT.
    name = edited_copy(small_batch_dir, tmp_path, lambda doc: doc.update(label=label))
    extra = {"points": ["--n", "10"], "defect": ["--ratio", "1"], "validate": []}[command]
    assert cli([command, str(tmp_path), *extra]) == 1
    out, err = capsys.readouterr()
    if command == "validate":
        assert out.startswith(f"FAIL {name}: parse error: label {label!r}") and not err
    else:
        assert err.startswith(f"brepforge: {name}: parse error: label {label!r}"), err
        assert len(err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]


def test_defect_no_copies_makes_no_out(tmp_path, small_batch_dir, capsys):
    # --out is made just before the first copy, so a ratio that rounds to
    # no copies leaves none.
    src = small_batch_dir / "bld00000003.brep.json"
    (tmp_path / src.name).write_bytes(src.read_bytes())
    assert cli(["defect", str(tmp_path), "--ratio", "0.4", "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out == "defect: wrote 0 defect solids (ratio 0.4)\n"
    assert [p.name for p in tmp_path.iterdir()] == [src.name]


def test_missing_label_reads_good(tmp_path, small_batch_dir):
    edited_copy(small_batch_dir, tmp_path, lambda doc: doc.pop("label"))
    assert cli(["validate", str(tmp_path)]) == 0
    assert cli(["defect", str(tmp_path), "--ratio", "1", "--out", str(tmp_path / "d")]) == 0
    assert list((tmp_path / "d").glob("*_def.brep.json"))


@pytest.mark.parametrize("vertex_id", [1000000, -1])
@pytest.mark.parametrize("command", ["points", "defect", "validate"])
def test_vertex_id_out_of_range_fails_cleanly(tmp_path, small_batch_dir, capsys, command, vertex_id):
    def edit(doc):
        doc["faces"][0]["outer"][0] = vertex_id

    name = edited_copy(small_batch_dir, tmp_path, edit)
    extra = {"points": ["--n", "10"], "defect": ["--ratio", "1"], "validate": []}[command]
    assert cli([command, str(tmp_path), *extra]) == 1
    out, err = capsys.readouterr()
    if command == "validate":
        assert out.startswith(f"FAIL {name}: parse error: vertex id {vertex_id}") and not err
    else:
        err = err.strip().splitlines()
        assert len(err) == 1 and name in err[0] and f"vertex id {vertex_id}" in err[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]


def _first_id(doc):
    return doc["faces"][0]["outer"][0]


# Single-field corruptions of a valid `.brep.json` that the reader must
# reject, each with the edit that makes it.
READER_REJECTS = {
    "float id 0.0": lambda doc: doc["faces"][0]["outer"].__setitem__(0, 0.0),
    "float id equal to an int": lambda doc: doc["faces"][0]["outer"].__setitem__(0, float(_first_id(doc))),
    "bool id": lambda doc: doc["faces"][0]["outer"].__setitem__(0, True),
    "id out of range": lambda doc: doc["faces"][0]["outer"].__setitem__(0, len(doc["vertices"])),
    "id past int64": lambda doc: doc["faces"][0]["outer"].__setitem__(0, 2**63),
    "2-coordinate vertex": lambda doc: doc["vertices"].__setitem__(0, doc["vertices"][0][:2]),
    "off-grid coordinate": lambda doc: doc["vertices"][0].__setitem__(0, doc["vertices"][0][0] + 0.05),
    "coordinate 10**400": lambda doc: doc["vertices"][0].__setitem__(0, 10**400),
    "offset 10**400": lambda doc: doc["faces"][0]["plane"].__setitem__("offset", 10**400),
    "NaN coordinate": lambda doc: doc["vertices"][0].__setitem__(0, float("nan")),
    "string coordinate": lambda doc: doc["vertices"][0].__setitem__(0, "0.0"),
    "unknown normal": lambda doc: doc["faces"][0]["plane"].__setitem__("normal", "+w"),
    "normal with an unknown sign": lambda doc: doc["faces"][0]["plane"].update(normal="?x"),
}


@pytest.mark.parametrize("case", sorted(READER_REJECTS))
def test_reader_rejects_single_field_corruption(tmp_path, small_batch_dir, capsys, case):
    name = edited_copy(small_batch_dir, tmp_path, READER_REJECTS[case])
    assert cli(["validate", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[0].startswith(f"FAIL {name}: parse error: ") and not err


@pytest.mark.parametrize("value", [False, True])
@pytest.mark.parametrize("field", ["vertex", "offset"])
def test_bool_coordinate_is_a_parse_error(tmp_path, small_batch_dir, capsys, field, value):
    # A bool is no JSON number: `false` for a coordinate of 0 m (or `true`
    # for 1 m) was once read as that number and passed validate.
    def edit(doc):
        if field == "vertex":
            v = next(v for v in doc["vertices"] if float(value) in v)
            v[v.index(float(value))] = value
        else:
            face = next(f for f in doc["faces"] if f["plane"]["offset"] == float(value))
            face["plane"]["offset"] = value

    name = edited_copy(small_batch_dir, tmp_path, edit)
    assert cli(["validate", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out.startswith(f"FAIL {name}: parse error: ") and not err


def test_validate_zero_room_side_fails_cleanly(tmp_path, small_batch_dir, capsys):
    src = next(iter(sorted(small_batch_dir.glob("*.brep.json"))))
    meta_name = src.name.replace(".brep.json", ".meta.json")
    meta = json.loads((small_batch_dir / meta_name).read_text())
    meta["rooms"][0][0] = [0.0, 3.0]
    (tmp_path / src.name).write_bytes(src.read_bytes())
    (tmp_path / meta_name).write_text(json.dumps(meta))
    assert cli(["validate", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"FAIL {src.name}: storey 1 room 0: ")


def test_validate_non_numeric_room_side_fails_cleanly(tmp_path, small_batch_dir, capsys):
    src = next(iter(sorted(small_batch_dir.glob("*.brep.json"))))
    meta_name = src.name.replace(".brep.json", ".meta.json")
    meta = json.loads((small_batch_dir / meta_name).read_text())
    meta["rooms"][0][0] = ["a", 3.0]
    (tmp_path / src.name).write_bytes(src.read_bytes())
    (tmp_path / meta_name).write_text(json.dumps(meta))
    assert cli(["validate", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out.startswith(f"FAIL {src.name}: {meta_name}: parse error: ") and not err


def test_validate_vertex_off_plane_fails(tmp_path, small_batch_dir, capsys):
    def edit(doc):
        doc["vertices"][0][2] += 5.0

    name = edited_copy(small_batch_dir, tmp_path, edit)
    assert cli(["validate", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"FAIL {name}: face ") and "is not on the face's plane" in out


def test_validate_empty_meta_fails_cleanly(tmp_path, small_batch_dir, capsys):
    src = next(iter(sorted(small_batch_dir.glob("*.brep.json"))))
    (tmp_path / src.name).write_bytes(src.read_bytes())
    (tmp_path / src.name.replace(".brep.json", ".meta.json")).write_text("{}")
    assert cli(["validate", str(tmp_path)]) == 1
    assert capsys.readouterr().out.startswith(f"FAIL {src.name}: ")


@pytest.mark.parametrize(
    "text", ["{}", "not json", '{"records": [], "discards": []}'],
    ids=["empty-object", "not-json", "no-records"],
)
def test_stats_malformed_meta_usage_error(tmp_path, capsys, text):
    (tmp_path / "meta.json").write_text(text)
    assert cli(["stats", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("stats: ")


def test_stats_without_rooms_names_the_field(tmp_path, small_batch_dir, capsys):
    # A record with no room ended in "min() arg is an empty sequence".
    meta = json.loads((small_batch_dir / "meta.json").read_text())
    meta["records"] = meta["records"][:1]
    meta["records"][0]["rooms"] = []
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    assert cli(["stats", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"stats: {tmp_path / 'meta.json'}: ") and "\n" not in err
    assert "rooms" in err.rpartition("meta.json: ")[2]
    assert [p.name for p in tmp_path.iterdir()] == ["meta.json"]


MISTYPED_FIELDS = [
    ("storey_count", "a"), ("storey_count", True), ("storey_count", None), ("storey_count", 3.0),
    ("seed", "0"), ("room_total", False), ("room_per_floor", "abc"), ("room_per_floor", [1.5]),
    ("avg_room_area", True), ("avg_room_area", "9.5"), ("footprint_area", float("inf")),
    ("footprint_area", float("nan")),
]


def mistyped_meta(small_batch_dir, directory, field, value, records) -> None:
    """The batch's `meta.json` cut to ``records`` records, the first of
    which has ``value`` in ``field``, written to ``directory``."""
    meta = json.loads((small_batch_dir / "meta.json").read_text())
    meta["records"] = meta["records"][:records]
    meta["records"][0][field] = value
    (directory / "meta.json").write_text(json.dumps(meta))


@pytest.mark.parametrize("records", [1, 2])
@pytest.mark.parametrize("field, value", MISTYPED_FIELDS)
def test_stats_mistyped_meta_field_usage_error(tmp_path, small_batch_dir, capsys, field, value, records):
    # A string storey count beside an int one ended in a TypeError traceback
    # from sorting the histogram; alone, it or a bool was written to
    # stats_storeys.csv with exit 0.
    mistyped_meta(small_batch_dir, tmp_path, field, value, records)
    assert cli(["stats", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("stats: ") and field in err and "\n" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["meta.json"]


@pytest.mark.parametrize("field, value", MISTYPED_FIELDS)
def test_eval_mistyped_meta_field_usage_error(tmp_path, small_batch_dir, capsys, field, value):
    mistyped_meta(small_batch_dir, tmp_path, field, value, 2)
    csv_path = tmp_path / "p.csv"
    csv_path.write_text("filename,pred_storey\n")
    assert cli(["eval", "regression", str(csv_path), "--truth", str(tmp_path / "meta.json")]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("eval: ") and field in err


@pytest.mark.parametrize("field, value", MISTYPED_FIELDS)
def test_validate_mistyped_meta_field_fails_cleanly(tmp_path, small_batch_dir, capsys, field, value):
    src = next(iter(sorted(small_batch_dir.glob("*.brep.json"))))
    meta_name = src.name.replace(".brep.json", ".meta.json")
    meta = json.loads((small_batch_dir / meta_name).read_text())
    meta[field] = value
    (tmp_path / src.name).write_bytes(src.read_bytes())
    (tmp_path / meta_name).write_text(json.dumps(meta))
    assert cli(["validate", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out.startswith(f"FAIL {src.name}: {meta_name}: parse error: {field}") and not err


@pytest.mark.parametrize(
    "side", [float("inf"), 1e300, 10**400, 100000.1], ids=["inf", "1e300", "10**400", "past-100km"]
)
def test_unbounded_room_side_is_a_parse_error(tmp_path, small_batch_dir, capsys, side):
    # An infinite room side, or two whose product overflows, ended `stats`
    # in an OverflowError traceback; an int past float range ended
    # `validate` in one.
    meta = json.loads((small_batch_dir / "meta.json").read_text())
    meta["records"][0]["rooms"][0][0] = [side, side]
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    assert cli(["stats", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("stats: ")

    src = next(iter(sorted(small_batch_dir.glob("*.brep.json"))))
    meta_name = src.name.replace(".brep.json", ".meta.json")
    building = json.loads((small_batch_dir / meta_name).read_text())
    building["rooms"][0][0] = [side, 3.0]
    (tmp_path / src.name).write_bytes(src.read_bytes())
    (tmp_path / meta_name).write_text(json.dumps(building))
    assert cli(["validate", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out.startswith(f"FAIL {src.name}: {meta_name}: parse error: room ") and not err


def test_eval_truth_not_an_object_usage_error(tmp_path, capsys):
    (tmp_path / "meta.json").write_text("[]")
    csv_path = tmp_path / "p.csv"
    csv_path.write_text("filename,pred_storey\n")
    assert cli(["eval", "regression", str(csv_path), "--truth", str(tmp_path / "meta.json")]) == 2
    assert capsys.readouterr().err.startswith("eval: ")


# Nesting this deep ends the JSON decoder in a RecursionError.
DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "command, deep",
    [
        ("validate", "brep"),
        ("validate", "meta"),
        ("validate", "manifest"),
        ("points", "brep"),
        ("defect", "brep"),
        ("stats", "dataset"),
        ("eval", "dataset"),
    ],
)
def test_deeply_nested_json_fails_cleanly(tmp_path, small_batch_dir, capsys, command, deep):
    name = sorted(small_batch_dir.glob("*.brep.json"))[0].name
    meta_name = name.replace(".brep.json", ".meta.json")
    files = {"brep": name, "meta": meta_name, "manifest": "manifest.json", "dataset": "meta.json"}
    for file in files.values():
        (tmp_path / file).write_bytes((small_batch_dir / file).read_bytes())
    deep_path = tmp_path / files[deep]
    deep_path.write_text(DEEP_JSON)
    csv_path = tmp_path / "p.csv"
    csv_path.write_text("filename,pred_storey\n")
    argv = [command, str(tmp_path)]
    if command == "eval":
        argv = ["eval", "regression", str(csv_path), "--truth", str(deep_path)]
    code, stream, line = {
        ("validate", "brep"): (1, "out", f"FAIL {name}: parse error: "),
        ("validate", "meta"): (1, "out", f"FAIL {name}: {meta_name}: parse error: "),
        ("validate", "manifest"): (2, "err", f"validate: {deep_path}: "),
        ("points", "brep"): (1, "err", f"brepforge: {name}: parse error: "),
        ("defect", "brep"): (1, "err", f"brepforge: {name}: parse error: "),
        ("stats", "dataset"): (2, "err", f"stats: {deep_path}: "),
        ("eval", "dataset"): (2, "err", "eval: "),
    }[command, deep]
    assert cli(argv) == code
    captured = capsys.readouterr()
    lines = getattr(captured, stream).splitlines()
    assert lines[0].startswith(line) and "maximum recursion depth" in lines[0], lines
    assert lines[1:] == (["validate: 0/1 passed"] if stream == "out" else [])
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("kind", ["binary", "regression"])
def test_eval_oversized_csv_field_usage_error(tmp_path, small_batch_dir, capsys, kind):
    # Past the csv module's field size limit (131 072 characters).
    csv_path = tmp_path / "p.csv"
    csv_path.write_text("filename,prediction\n" + "x" * 200_000 + ",GOOD\n")
    assert cli(["eval", kind, str(csv_path), "--truth", str(small_batch_dir / "meta.json")]) == 2
    assert capsys.readouterr().err == "eval: field larger than field limit (131072)\n"


@pytest.mark.parametrize(
    "suffix, label, problem",
    [
        ("", "DEFECT", "label 'DEFECT' is not 'GOOD'"),
        ("_def", "GOOD", "label 'GOOD' is not 'DEFECT'"),
        ("_def", "DEFECT", "DEFECT solid passes every check"),
    ],
    ids=["defect-label", "good-label-def-name", "closed-def"],
)
def test_validate_checks_the_label_against_the_name(tmp_path, small_batch_dir, capsys, suffix, label, problem):
    # A closed solid: it fails only on its label, or as a DEFECT file
    # that is no defect.
    src = sorted(small_batch_dir.glob("*.brep.json"))[0]
    name = src.name.replace(".brep.json", f"{suffix}.brep.json")
    doc = json.loads(src.read_text())
    doc["label"] = label
    (tmp_path / name).write_text(json.dumps(doc))
    assert cli(["validate", str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines() == [f"FAIL {name}: {problem}", "validate: 0/1 passed"]


def test_gen_thick_walls_exports_valid_buildings(tmp_path):
    out = tmp_path / "thick"
    assert cli(
        ["gen", "--count", "20", "--seed", "0", "--out", str(out), "--set", "wall_thickness=0.6"]
    ) == 0
    assert list(out.glob("*.brep.json"))
    assert cli(["validate", str(out)]) == 0


def flip_normals(doc):
    for face in doc["faces"]:
        normal = face["plane"]["normal"]
        face["plane"]["normal"] = ("-" if normal[0] == "+" else "+") + normal[1]


def turn_inside_out(doc):
    flip_normals(doc)
    for face in doc["faces"]:
        face["outer"].reverse()
        for hole in face.get("inner", []):
            hole.reverse()


@pytest.mark.parametrize(
    "edit, problem",
    [
        (flip_normals, "outer loop is not counter-clockwise about its normal"),
        (turn_inside_out, "solid encloses no positive volume"),
    ],
    ids=["normals-flipped", "inside-out"],
)
def test_validate_misoriented_solid_fails(tmp_path, small_batch_dir, capsys, edit, problem):
    # Both keep every edge paired once per direction, so only the geometric
    # checks see them.
    name = edited_copy(small_batch_dir, tmp_path, edit)
    assert cli(["validate", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"FAIL {name}: ") and problem in out


def test_validate_names_extra_problems_only_when_there_are_some(tmp_path, small_batch_dir, capsys):
    name = edited_copy(small_batch_dir, tmp_path, turn_inside_out)
    assert cli(["validate", str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == f"FAIL {name}: solid encloses no positive volume"
    edited_copy(small_batch_dir, tmp_path, flip_normals)
    assert cli(["validate", str(tmp_path)]) == 1
    line = capsys.readouterr().out.splitlines()[0]
    assert re.fullmatch(rf"FAIL {re.escape(name)}: .* \(\+[1-9][0-9]* more\)", line), line


def test_points_leaves_numpy_ma_unimported(tmp_path, small_batch_dir):
    src = next(iter(sorted(small_batch_dir.glob("*.brep.json"))))
    (tmp_path / src.name).write_bytes(src.read_bytes())
    out = tmp_path / "gen"
    code = (
        "import sys\n"
        "from brepforge.cli import main\n"
        f"assert main(['points', {str(tmp_path)!r}, '--n', '50']) == 0\n"
        f"assert main(['gen', '--count', '6', '--seed', '0', '--out', {str(out)!r}]) == 0\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    run_in_fresh_interpreter(code)
    assert list(tmp_path.glob("*.xyz")) and list(out.glob("*.brep.json"))


@pytest.mark.parametrize(
    "argv, made",
    [
        (["validate", "{dir}"], "*.brep.json"),
        (["defect", "{dir}", "--ratio", "1"], "*_def.brep.json"),
        (["gen", "--count", "6", "--seed", "0", "--obj", "--out", "{dir}/gen"], "gen/*.obj"),
    ],
    ids=["validate", "defect", "gen-obj"],
)
def test_solid_commands_leave_numpy_ma_unimported(tmp_path, small_batch_dir, argv, made):
    # A bare `np.unique` imports numpy.ma on its first call.
    src = next(iter(sorted(small_batch_dir.glob("*.brep.json"))))
    (tmp_path / src.name).write_bytes(src.read_bytes())
    argv = [arg.format(dir=tmp_path) for arg in argv]
    code = (
        "import sys\n"
        "from brepforge.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    run_in_fresh_interpreter(code)
    assert list(tmp_path.glob(made))


def test_serial_gen_leaves_process_pool_unimported(tmp_path):
    out = tmp_path / "gen"
    code = (
        "import sys\n"
        "from brepforge.cli import main\n"
        f"assert main(['gen', '--count', '6', '--seed', '0', '--jobs', '1', '--out', {str(out)!r}]) == 0\n"
        "assert 'concurrent.futures.process' not in sys.modules\n"
    )
    run_in_fresh_interpreter(code)
    assert list(out.glob("*.brep.json"))


def test_stats_and_eval_leave_numpy_unimported(tmp_path, small_batch_dir):
    (tmp_path / "meta.json").write_bytes((small_batch_dir / "meta.json").read_bytes())
    record = json.loads((small_batch_dir / "meta.json").read_text())["records"][0]
    header = ["filename", "pred_storey", "pred_room_tot", "pred_avg_area"] + [
        f"pred_room_per_{i}" for i in range(1, 11)
    ]
    regression = tmp_path / "regression.csv"
    regression.write_text(",".join(header) + "\n" + ",".join([record["id"]] + ["1"] * 13) + "\n")
    binary = tmp_path / "binary.csv"
    binary.write_text("filename,prediction\na.brep.json,GOOD\na_def.brep.json,DEFECT\n")
    code = (
        "import sys\n"
        "from brepforge.cli import main\n"
        f"assert main(['stats', {str(tmp_path)!r}]) == 0\n"
        f"assert main(['eval', 'regression', {str(regression)!r}, '--truth', {str(tmp_path / 'meta.json')!r}]) == 0\n"
        f"assert main(['eval', 'binary', {str(binary)!r}]) == 0\n"
        "assert 'numpy' not in sys.modules\n"
    )
    run_in_fresh_interpreter(code)
    assert (tmp_path / "stats_storeys.csv").is_file()


def test_solid_commands_leave_generator_unimported(tmp_path, small_batch_dir):
    for path in sorted(small_batch_dir.glob("*.brep.json"))[:2]:
        meta = path.with_name(path.name.replace(".brep.json", ".meta.json"))
        for src in (path, meta):
            (tmp_path / src.name).write_bytes(src.read_bytes())
    generator = ("brepforge.grammar", "brepforge.storey", "brepforge.assembly")
    # `validate` builds only the filters of the config, and no command but
    # `gen` loads the footprint kernel.
    code = (
        "import sys\n"
        "from brepforge.cli import main\n"
        f"assert main(['validate', {str(tmp_path)!r}]) == 0\n"
        f"assert not {{*{generator!r}, 'brepforge.mltasks', 'brepforge.geom2d'}} & set(sys.modules)\n"
    )
    run_in_fresh_interpreter(code)
    code = (
        "import sys\n"
        "from brepforge.cli import main\n"
        f"assert main(['points', {str(tmp_path)!r}, '--n', '50']) == 0\n"
        f"assert main(['defect', {str(tmp_path)!r}, '--out', {str(tmp_path / 'mixed')!r}]) == 0\n"
        f"assert not {{*{generator!r}, 'brepforge.geom2d'}} & set(sys.modules)\n"
    )
    run_in_fresh_interpreter(code)
    assert list(tmp_path.glob("*.xyz")) and list((tmp_path / "mixed").glob("*_def.brep.json"))


def test_validate_leaves_hashlib_unimported(tmp_path, small_batch_dir):
    # `validate` builds the tree's config but hashes none; `hashlib` loads
    # OpenSSL's libcrypto.
    for path in sorted(small_batch_dir.glob("*.json")):
        (tmp_path / path.name).write_bytes(path.read_bytes())
    code = (
        "import sys\n"
        "from brepforge.cli import main\n"
        f"assert main(['validate', {str(tmp_path)!r}]) == 0\n"
        "assert '_hashlib' not in sys.modules\n"
    )
    run_in_fresh_interpreter(code)


def test_footprint_kernel_leaves_numpy_and_regions_unimported():
    # Footprint unions walk their loop in pure Python; only solids trace
    # masks.
    code = (
        "import sys\n"
        "import brepforge.geom2d\n"
        "assert not {'numpy', 'brepforge.regions'} & set(sys.modules), sys.modules.keys()\n"
    )
    run_in_fresh_interpreter(code)


def test_serial_gen_leaves_mltasks_unimported(tmp_path):
    out = tmp_path / "gen"
    code = (
        "import sys\n"
        "from brepforge.cli import main\n"
        f"assert main(['gen', '--count', '6', '--seed', '0', '--jobs', '1', '--out', {str(out)!r}]) == 0\n"
        "assert 'brepforge.mltasks' not in sys.modules\n"
    )
    run_in_fresh_interpreter(code)
    assert list(out.glob("*.brep.json"))


def test_process_freezes_heap_before_exit(small_batch_dir):
    # As `python -m brepforge.cli stats DIR`, with an exit hook that reports
    # how many objects the exit-time collection will skip.
    code = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
        f"sys.argv = ['brepforge', 'stats', {str(small_batch_dir)!r}]\n"
        "runpy.run_module('brepforge.cli', run_name='__main__', alter_sys=True)\n"
    )
    stderr = run_in_fresh_interpreter(code)
    frozen = [line.split() for line in stderr.splitlines() if line.startswith("frozen ")]
    assert len(frozen) == 1 and int(frozen[0][1]) > 0, stderr


def test_main_leaves_heap_unfrozen(small_batch_dir):
    code = (
        "import gc\n"
        "from brepforge.cli import main\n"
        f"assert main(['stats', {str(small_batch_dir)!r}]) == 0\n"
        f"assert main(['validate', {str(small_batch_dir)!r}]) == 0\n"
        "assert gc.get_freeze_count() == 0\n"
    )
    run_in_fresh_interpreter(code)


def run_in_fresh_interpreter(code: str) -> str:
    """Run ``code`` with this checkout's package first on the path; returns
    its stderr once it exits 0."""
    src_dir = Path(brepforge.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src_dir), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stderr


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc/self/task")
@pytest.mark.parametrize("preset", [None, "2"])
def test_run_starts_no_blas_threads_unless_asked(tmp_path, small_batch_dir, monkeypatch, preset):
    # No command calls BLAS; OpenBLAS starts a thread at numpy's import
    # unless OPENBLAS_NUM_THREADS says 1, and a value the user set stays.
    (tmp_path / "bld00000003.brep.json").write_bytes((small_batch_dir / "bld00000003.brep.json").read_bytes())
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    if preset:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    code = (
        "import atexit, os, runpy, sys\n"
        "atexit.register(lambda: print('after', 'numpy' in sys.modules, len(os.listdir('/proc/self/task')),\n"
        "                              os.environ.get('OPENBLAS_NUM_THREADS'), file=sys.stderr))\n"
        f"sys.argv = ['brepforge', 'validate', {str(tmp_path)!r}]\n"
        "runpy.run_module('brepforge.cli', run_name='__main__', alter_sys=True)\n"
    )
    after = [line.split() for line in run_in_fresh_interpreter(code).splitlines() if line.startswith("after ")]
    numpy_loaded, threads, value = after[0][1:]
    assert numpy_loaded == "True" and (value == preset if preset else threads == "1")
