"""Shared pieces of the benchmark: paths, the CLI runner, digests and checks.

Every check returns a list of problems (empty when the output is correct),
so the runner can count failed operations and the tests can plant faults.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WINDOWS = Path(__file__).resolve().with_name("windows.json")
DATASET_FILES = ("meta.json", "meta.npy", "discards.csv")


def program_present() -> bool:
    return (SRC / "brepforge" / "cli.py").is_file()


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("BREPFORGE_JOBS", None)
    return env


def run_process(cmd: list[str], timeout: float | None = 170) -> tuple[float, subprocess.CompletedProcess]:
    """Run `cmd` from the checkout root in its own process group; returns (wall s, process).

    A command that outlives `timeout` is killed with its whole group (pool
    workers included) and reported as exit -9.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=cli_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        code, err = -9, f"killed after {timeout} s"
    return time.perf_counter() - t0, subprocess.CompletedProcess(cmd, code, out, err)


def run_cli(args: list[str], timeout: float | None = 170) -> tuple[float, subprocess.CompletedProcess]:
    """Run `brepforge <args>` in a fresh interpreter."""
    return run_process([sys.executable, "-m", "brepforge.cli", *args], timeout)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(directory: Path, suffixes: tuple[str, ...] = (), exclude=("manifest.json",)) -> str:
    """sha256 over (name, bytes) of the files in `directory`, sorted by name."""
    if not directory.is_dir():
        return "missing"
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        if not path.is_file() or path.name in exclude:
            continue
        if suffixes and not path.name.endswith(suffixes):
            continue
        h.update(path.name.encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def load_windows() -> dict:
    return json.loads(WINDOWS.read_text())


def dataset_facts(out_dir: Path) -> dict:
    """Export/discard counts and dataset-file digests of one `gen` output."""
    discards: dict[str, int] = {}
    path = out_dir / "discards.csv"
    if path.is_file():
        for row in csv.DictReader(io.StringIO(path.read_text())):
            discards[row["reason"]] = discards.get(row["reason"], 0) + 1
    return {
        "exported": len(list(out_dir.glob("*.brep.json"))),
        "discards": dict(sorted(discards.items())),
        "sha256": {
            name: sha256_file(out_dir / name) if (out_dir / name).is_file() else None
            for name in DATASET_FILES
        },
    }


def check_dataset(out_dir: Path, window: dict) -> list[str]:
    """Counts and dataset-file digests must equal the window's pins."""
    facts = dataset_facts(out_dir)
    problems = []
    if facts["exported"] != window["exported"]:
        problems.append(f"exported {facts['exported']} != pinned {window['exported']}")
    if facts["discards"] != window["discards"]:
        problems.append(f"discards {facts['discards']} != pinned {window['discards']}")
    for name in DATASET_FILES:
        if facts["sha256"][name] != window["sha256"][name]:
            problems.append(f"{name} sha256 differs from the pinned digest")
    return problems


def check_validate(proc: subprocess.CompletedProcess, good: list[str], bad: list[str]) -> list[str]:
    """`validate` must pass every GOOD file, fail every DEFECT file, exit 1 iff any fail."""
    status = {}
    for line in proc.stdout.splitlines():
        if line.startswith("ok   "):
            status[line[5:].strip()] = "ok"
        elif line.startswith("FAIL "):
            status[line[5:].split(":", 1)[0].strip()] = "FAIL"
    problems = [f"{n} did not pass validate" for n in good if status.get(n) != "ok"]
    problems += [f"{n} did not fail validate" for n in bad if status.get(n) != "FAIL"]
    expected_code = 1 if bad else 0
    if proc.returncode != expected_code:
        problems.append(f"validate exited {proc.returncode}, expected {expected_code}")
    return problems


def check_clouds(directory: Path, names: list[str], n: int, mode: str) -> list[str]:
    """Each `<name>.xyz` holds n finite points inside the unit cube or unit ball."""
    problems = []
    for name in names:
        path = directory / f"{name}.xyz"
        if not path.is_file():
            problems.append(f"{path.name} missing")
            continue
        text = path.read_text()
        lines = text.count("\n")
        try:
            pts = np.array(text.split(), dtype=np.float64)
        except ValueError:
            problems.append(f"{path.name}: unparsable")
            continue
        if lines != n or pts.size != 3 * n:
            problems.append(f"{path.name}: {lines} lines / {pts.size} numbers, expected {n} points")
            continue
        pts = pts.reshape(n, 3)
        if not np.isfinite(pts).all():
            problems.append(f"{path.name}: non-finite coordinates")
        elif mode == "cube" and (pts.min() < 0.0 or pts.max() > 1.0 + 1e-12):
            problems.append(f"{path.name}: points outside the unit cube")
        elif mode == "sphere" and np.linalg.norm(pts, axis=1).max() > 1.0 + 1e-12:
            problems.append(f"{path.name}: points outside the unit ball")
    return problems


def host_probe_s() -> float:
    """Wall time of a fixed pure-Python loop, a marker of the host's speed right now."""
    t0 = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return time.perf_counter() - t0


def machine_facts(workload: str, seed: int) -> dict:
    """Host and run facts stamped on every result."""
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = []
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "loadavg_start": loadavg,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "commit": _commit(),
    }


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree (read from .git, no git call)."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
