"""Command-line behaviour: exit codes, determinism, file contracts."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import brepforge
from brepforge.cli import main as cli


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


def test_gen_jobs_parallel_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli(["gen", "--count", "10", "--seed", "0", "--out", str(a)]) == 0
    assert cli(["gen", "--count", "10", "--seed", "0", "--out", str(b), "--jobs", "2"]) == 0
    assert tree_hash(a) == tree_hash(b)


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
    ],
)
def test_gen_bad_config_value_usage_error(tmp_path, capsys, item):
    out = tmp_path / "x"
    assert cli(["gen", "--count", "2", "--seed", "0", "--out", str(out), "--set", item]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gen: bad config: ") and len(err.splitlines()) == 1, err
    assert item.partition("=")[0] in err
    assert not out.exists()


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
        # argparse itself drops a failed write of these two, so only the
        # buffered text, flushed in `main`, shows the closed pipe.
        pytest.param(["--help"], False, id="help"),
        pytest.param(["--version"], False, id="version"),
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


def test_points_nonpositive_n_usage_error(tmp_path, small_batch_dir):
    src = next(iter(sorted(small_batch_dir.glob("*.brep.json"))))
    (tmp_path / src.name).write_bytes(src.read_bytes())
    assert cli(["points", str(tmp_path), "--n", "0"]) == 2
    assert not list(tmp_path.glob("*.xyz"))


def test_bad_jobs_env_is_gen_usage_error(tmp_path, monkeypatch):
    monkeypatch.setenv("BREPFORGE_JOBS", "x")
    # Other subcommands do not read the variable.
    assert cli(["validate", str(tmp_path)]) == 0
    with pytest.raises(SystemExit) as exc:
        cli(["gen", "--count", "1", "--seed", "0", "--out", str(tmp_path / "g")])
    assert exc.value.code == 2


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


def test_defect_negative_ratio_usage_error(tmp_path, small_batch_dir):
    src = next(iter(sorted(small_batch_dir.glob("*.brep.json"))))
    (tmp_path / src.name).write_bytes(src.read_bytes())
    assert cli(["defect", str(tmp_path), "--ratio", "-1"]) == 2
    assert cli(["defect", str(tmp_path), "--ratio", "nan"]) == 2


def test_points_null_faces_fails_cleanly(tmp_path, small_batch_dir, capsys):
    name = null_faces_copy(small_batch_dir, tmp_path)
    assert cli(["points", str(tmp_path), "--n", "10"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and name in err[0]


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


def run_in_fresh_interpreter(code: str) -> None:
    src_dir = Path(brepforge.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src_dir), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
