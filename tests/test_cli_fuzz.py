"""Fuzz of the JSON readers: a generated document with one to three
mutations (dropped keys, swapped types, null, NaN and infinities, huge and
negative numbers, ragged lists, empty and one-vertex loops, a label that is
not a string) goes through the commands that read it, in process: a
solid's `.brep.json` through `validate`, `points` and `defect`, and the
dataset's `meta.json` and a building's `<id>.meta.json` through `stats`,
`eval regression` and `validate`.  Prediction CSVs, with one to three
edits of cells, rows and the header, go through `eval regression` and
`eval binary`.  Each must end with exit code 0, 1 or 2 and nothing
resembling a traceback on stderr."""

import contextlib
import copy
import io
import json
import math
import tempfile
import traceback
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from brepforge.cli import main as cli


@pytest.fixture(scope="module")
def source(small_batch_dir) -> tuple[str, str]:
    """The name and text of the batch's smallest `.brep.json`."""
    path = min(small_batch_dir.glob("*.brep.json"), key=lambda p: p.stat().st_size)
    return path.name, path.read_text()


VALUES = {
    "null": st.just(None),
    "swapped type": st.sampled_from(["x", "", 1.5, 7, True, [], {}, [[0.0, 0.0, 0.0]], {"outer": []}]),
    "nan or inf": st.sampled_from([math.nan, math.inf, -math.inf]),
    "huge": st.sampled_from([2**31, 2**63, 2**64 + 1, 10**30, 1e300, -1e300]),
    "negative": st.sampled_from([-1, -2, -(2**63), -0.5]),
}
KINDS = (*VALUES, "drop key", "ragged list", "empty loop", "one-vertex loop", "label")


def pick(data, items):
    """One of ``items``, drawn by index: the items may be mutable."""
    return items[data.draw(st.integers(0, len(items) - 1))]


def walk(data, doc) -> list:
    """A path from the root to some node, drawn one step at a time."""
    path, node = [], doc
    while isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 7)) > 0:
        key = pick(data, sorted(node) if isinstance(node, dict) else range(len(node)))
        path.append(key)
        node = node[key]
    return path


def node_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutate(data, doc):
    """``doc`` with one mutation applied (in place where it can be)."""
    kind = data.draw(st.sampled_from(KINDS))
    faces = doc.get("faces") if isinstance(doc, dict) else None
    if kind in ("empty loop", "one-vertex loop"):
        face = pick(data, faces) if isinstance(faces, list) and faces else None
        if isinstance(face, dict):
            holes = face.get("inner") if isinstance(face.get("inner"), list) else []
            loops = [loop for loop in (face.get("outer"), *holes) if isinstance(loop, list)]
            if loops:
                loop = pick(data, loops)
                del loop[0 if kind == "empty loop" else 1 :]
        return doc
    if kind == "label":
        if isinstance(doc, dict):
            doc["label"] = copy.deepcopy(data.draw(st.sampled_from([5, None, [], {"GOOD": 1}, 1.5, False, ["GOOD"]])))
        return doc
    path = walk(data, doc)
    node = node_at(doc, path)
    if kind == "drop key":
        if isinstance(node, dict) and node:
            del node[pick(data, sorted(node))]
        elif path and isinstance(node_at(doc, path[:-1]), dict):
            del node_at(doc, path[:-1])[path[-1]]
        return doc
    if kind == "ragged list":
        if isinstance(node, list) and node:
            inner = [x for x in node if isinstance(x, list)]
            target = pick(data, inner) if inner else node
            if target and data.draw(st.booleans()):
                target.pop()
            else:
                target.append(target[0] if target else 0)
        return doc
    value = copy.deepcopy(data.draw(VALUES[kind]))  # later mutations may edit it
    if not path:
        return value
    node_at(doc, path[:-1])[path[-1]] = value
    return doc


def mutated(data, doc):
    """``doc`` with one to three mutations.  Half of them, in a document
    with records, start at one record, so that record fields are reached
    as often as the top-level keys."""
    for _ in range(data.draw(st.integers(1, 3))):
        records = doc.get("records") if isinstance(doc, dict) else None
        if isinstance(records, list) and records and data.draw(st.booleans()):
            k = data.draw(st.integers(0, len(records) - 1))
            records[k] = mutate(data, records[k])
        else:
            doc = mutate(data, doc)
    return doc


def run(argv: list[str]) -> tuple[object, str]:
    """Exit code and stderr of one in-process CLI run; an exception that
    escapes counts as a traceback."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            err.write(traceback.format_exc())
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_brep_json_readers_never_crash(source, data):
    name, text = source
    doc = mutated(data, json.loads(text))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / name).write_text(json.dumps(doc))
        for argv in (
            ["validate", str(work)],
            ["points", str(work), "--n", "20"],
            ["defect", str(work), "--ratio", "1", "--out", str(work / "out")],
        ):
            code, err = run(argv)
            assert code in (0, 1, 2) and "Traceback" not in err, (argv[0], code, err)


@pytest.fixture(scope="module")
def metas(small_batch_dir, source) -> tuple[dict, str, str]:
    """The batch's `meta.json` cut to its first three records, the
    `<id>.meta.json` of the source solid, and regression predictions equal
    to the truth of those three records."""
    dataset = json.loads((small_batch_dir / "meta.json").read_text())
    dataset["records"] = dataset["records"][:3]
    building = (small_batch_dir / source[0].replace(".brep.json", ".meta.json")).read_text()
    per_floor = ",".join(f"pred_room_per_{i}" for i in range(1, 11))
    rows = [f"filename,pred_storey,pred_room_tot,pred_avg_area,{per_floor}"]
    for r in dataset["records"]:
        values = [r["storey_count"], r["room_total"], r["avg_room_area"], *r["room_per_floor"]]
        rows.append(",".join([f"{r['id']}.brep.json", *map(repr, values)]))
    return dataset, building, "\n".join(rows) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_meta_json_readers_never_crash(source, metas, data):
    name, text = source
    dataset, building, predictions = metas
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / name).write_text(text)
        (work / name.replace(".brep.json", ".meta.json")).write_text(
            json.dumps(mutated(data, json.loads(building)))
        )
        (work / "meta.json").write_text(json.dumps(mutated(data, copy.deepcopy(dataset))))
        (work / "predictions.csv").write_text(predictions)
        for argv in (
            ["stats", str(work)],
            ["eval", "regression", str(work / "predictions.csv"), "--truth", str(work / "meta.json")],
            ["validate", str(work)],
        ):
            code, err = run(argv)
            assert code in (0, 1, 2) and "Traceback" not in err, (argv[0], code, err)


CELLS = st.sampled_from(
    ["", "x", "nan", "inf", "-inf", "1e400", "-1e400", "1e300", "9" * 400, "-1", "0.5", "3",
     "GOOD", "DEFECT", "good", '"', '"a,b"', "a_def.brep.json", "../x", "\u00e9"]
)
# A changed cell is the edit most likely to reach a parser, so it is drawn
# half of the time.
CSV_EDITS = ("cell",) * 5 + ("drop cell", "extra cell", "drop row", "repeat row", "blank row")


def mutated_csv(data, text: str) -> str:
    """``text`` (comma-separated, no quoting) with one to three edits; row 0
    is the header, so edits reach the column names too."""
    rows = [line.split(",") for line in text.splitlines()]
    for _ in range(data.draw(st.integers(1, 3))):
        edit = data.draw(st.sampled_from(CSV_EDITS))
        k = data.draw(st.integers(0, len(rows) - 1)) if rows else None
        if k is None:
            rows.append([data.draw(CELLS)])
        elif edit == "drop row":
            del rows[k]
        elif edit == "repeat row":
            rows.insert(k, list(rows[k]))
        elif edit == "blank row":
            rows.insert(k, [])
        elif edit == "extra cell":
            rows[k].append(data.draw(CELLS))
        elif rows[k]:
            i = data.draw(st.integers(0, len(rows[k]) - 1))
            if edit == "drop cell":
                del rows[k][i]
            else:
                rows[k][i] = data.draw(CELLS)
    return "\n".join(",".join(row) for row in rows) + "\n"


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_prediction_csv_readers_never_crash(metas, data):
    dataset, _, predictions = metas
    binary = "filename,prediction\n" + "".join(
        f"{r['id']}{suffix}.brep.json,{label}\n"
        for r in dataset["records"]
        for suffix, label in (("", "GOOD"), ("_def", "DEFECT"))
    )
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "meta.json").write_text(json.dumps(dataset))
        (work / "regression.csv").write_text(mutated_csv(data, predictions))
        (work / "binary.csv").write_text(mutated_csv(data, binary))
        for argv in (
            ["eval", "regression", str(work / "regression.csv"), "--truth", str(work / "meta.json")],
            ["eval", "binary", str(work / "binary.csv")],
        ):
            code, err = run(argv)
            assert code in (0, 2) and "Traceback" not in err, (argv[1], code, err)
