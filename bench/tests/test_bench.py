"""Tests of the benchmark itself, at tiny size.

Run:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import spans  # noqa: E402

DECLARED = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=harness.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    result, stdout = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    lines = stdout.splitlines()
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"]) for line in lines)
    assert any(line.startswith("failed_ops_share 0 ") for line in lines)


@pytest.fixture(scope="module")
def tiny_dataset():
    """A tiny `gen` output plus its DEFECT copies and clouds, under the work dir."""
    windows = harness.load_windows()["windows"]["tiny-gen"]
    window = windows[0]
    root = harness.WORK / "tests"
    shutil.rmtree(root, ignore_errors=True)
    data, mixed = root / "data", root / "mixed"
    args = ["gen", "--count", str(window["count"]), "--seed", str(window["start"]), "--jobs", "1", "--out", str(data)]
    assert harness.run_cli(args)[1].returncode == 0
    assert harness.run_cli(["defect", str(data), "--out", str(mixed), "--ratio", "1"])[1].returncode == 0
    assert harness.run_cli(["points", str(data), "--n", "300", "--mode", "cube"])[1].returncode == 0
    yield window, data, mixed
    shutil.rmtree(root, ignore_errors=True)


def _ids(directory: Path) -> list[str]:
    return sorted(p.name[: -len(".brep.json")] for p in directory.glob("*.brep.json"))


def test_tampered_meta_json_is_caught(tiny_dataset):
    window, data, _ = tiny_dataset
    assert harness.check_dataset(data, window) == []
    meta = data / "meta.json"
    original = meta.read_bytes()
    try:
        meta.write_bytes(original.replace(b'"storey_count":', b'"storey_count": ', 1))
        assert any("meta.json" in p for p in harness.check_dataset(data, window))
    finally:
        meta.write_bytes(original)


def test_truncated_xyz_is_caught(tiny_dataset):
    _, data, _ = tiny_dataset
    ids = _ids(data)
    assert harness.check_clouds(data, ids, 300, "cube") == []
    cloud = data / f"{ids[0]}.xyz"
    original = cloud.read_text()
    try:
        cloud.write_text("".join(original.splitlines(keepends=True)[:-1]))
        assert harness.check_clouds(data, ids, 300, "cube")
        cloud.write_text("2.0 0.5 0.5\n" + original.split("\n", 1)[1])
        assert any("outside the unit cube" in p for p in harness.check_clouds(data, ids, 300, "cube"))
    finally:
        cloud.write_text(original)


def test_good_swapped_for_defect_is_caught(tiny_dataset):
    _, data, mixed = tiny_dataset
    good = sorted(p.name for p in data.glob("*.brep.json"))
    _, proc = harness.run_cli(["validate", str(data)])
    assert harness.check_validate(proc, good, []) == []
    swapped = data / good[0]
    original = swapped.read_bytes()
    defect = mixed / good[0].replace(".brep.json", "_def.brep.json")
    try:
        shutil.copyfile(defect, swapped)
        _, proc = harness.run_cli(["validate", str(data)])
        problems = harness.check_validate(proc, good, [])
        assert any(good[0] in p for p in problems)
        assert any("exited 1" in p for p in problems)
    finally:
        swapped.write_bytes(original)


def test_self_time_accounts_for_span_time():
    rec = spans.Recorder()
    inner = rec.wrap("regions.inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()
        inner()

    outer = rec.wrap("brep.outer", outer_body)
    t0 = time.perf_counter()
    outer()
    wall = time.perf_counter() - t0
    metrics = spans.layer_metrics(rec, wall)
    assert metrics["regions.self_ms"] == pytest.approx(40, abs=15)
    assert metrics["brep.self_ms"] == pytest.approx(10, abs=8)
    layers = sum(metrics[f"{layer}.self_ms"] for layer in spans.LAYERS)
    assert layers + metrics["trace.unspanned_ms"] == pytest.approx(wall * 1e3, rel=1e-9)
    assert rec.parents == [-1, 0, 0]
