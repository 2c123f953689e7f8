"""brepforge benchmark: dataset and task throughput end to end, per-layer time from outside.

Usage:
    python3 bench/run.py --workload gen-serial --seed 0 --seconds 50 --trace 0

Workloads (see bench/README.md for why each exists):
    gen-serial    `gen --jobs 1` over one 48-stream window
    tasks         validate, stats, points (cube), defect, points (sphere) on a
                  3-building dataset that set-up generates

--trace 0 drives the `brepforge` CLI in fresh interpreters, repeats set-up
and workload until --seconds have passed and prints the end-to-end metrics
(items over the wall time of all repetitions, the median set-up, peak
memory).
--trace 1 runs the workload once untraced, then in-process with `--jobs 1`
twice, plain and with spans, one command of each in turn, and prints the
per-layer metrics.  Both check the outputs; the last stdout line is one JSON
object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
from harness import ROOT, SRC, WORK, check_clouds, check_dataset, check_validate, dataset_facts, tree_digest

# kind: what the workload runs, and the kind of window in windows.json its
# seed selects from.
WORKLOADS = {
    "gen-serial": {"kind": "gen"},
    "tasks": {"kind": "tasks", "n": 4000, "tiny_n": 200},
}
TRACE_GEN_WINDOWS = 5  # traced gen covers >= 200 streams, so p95 has >= 10 beyond it
PARALLEL_JOBS = 2  # the pool size of the --jobs check and of cli.gen.parallel_efficiency
EFFICIENCY_PAIRS = 3  # --jobs 2 / --jobs 1 pairs behind cli.gen.parallel_efficiency
IMPORT_PROBE = (
    "from brepforge.config import GeneratorConfig; import brepforge.cli; "
    "c = GeneratorConfig.build(None, {}); c.grammar(); c.building(); c.filters()"
)
DISCARD_REASONS = ("growth-failed", "room-filter", "unreachable-room", "boolean-failure")
STATS_FILES = ("stats_storeys.csv", "stats_room_area.csv", "stats_footprint_area.csv")
BREP = ".brep.json"


def _exit(proc) -> list[str]:
    return [] if proc.returncode == 0 else [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]


def _breps(directory: Path, pattern: str = "*" + BREP) -> list[str]:
    return sorted(p.name for p in directory.glob(pattern))


def _stems(names: list[str]) -> list[str]:
    return [n[: -len(BREP)] for n in names]


class Run:
    """One benchmark invocation: its inputs, work directory and ledger of operations."""

    def __init__(self, workload: str, seed: int, tiny: bool):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.kind = self.spec["kind"]
        self.seed = seed
        self.windows = harness.load_windows()["windows"][("tiny-" if tiny else "") + self.kind]
        self.index = seed % len(self.windows)
        self.window = self.windows[self.index]
        self.n = self.spec.get("tiny_n" if tiny else "n")
        self.dir = WORK / f"{workload}-s{seed}-p{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def op(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems[:5]]

    def checked(self, label: str, proc: subprocess.CompletedProcess, check) -> None:
        """Count one operation; `check(proc)` lists its problems."""
        try:
            problems = check(proc)
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"check raised {exc!r}"]
        self.op(label, problems)

    def cli(self, label: str, args: list[str], check=_exit) -> float:
        """Run one CLI command in a fresh interpreter as a counted operation."""
        wall, proc = harness.run_cli(args)
        self.checked(label, proc, check)
        return wall

    # ---- dataset generation ---------------------------------------------------

    def gen_args(self, window: dict, out: Path, jobs: int) -> list[str]:
        return ["gen", "--count", str(window["count"]), "--seed", str(window["start"]),
                "--jobs", str(jobs), "--out", str(out)]

    def gen_checked(self, label: str, out: Path, jobs: int = 1) -> float:
        """`gen` of this run's window; the output must match the window's pins."""
        return self.cli(label, self.gen_args(self.window, out, jobs),
                        lambda p: _exit(p) or check_dataset(out, self.window))

    def setup(self, repeats: int) -> list[float]:
        """Fresh interpreter to first timed operation, `repeats` times.

        gen-*: imports and config.  tasks: `gen` of the input
        dataset, which also imports and reads the config.
        """
        times = []
        for _ in range(repeats):
            if self.kind == "gen":
                wall, proc = harness.run_process([sys.executable, "-c", IMPORT_PROBE])
                self.op("setup import", _exit(proc))
                times.append(wall)
            else:
                out = self.dir / "dataset"
                shutil.rmtree(out, ignore_errors=True)
                times.append(self.gen_checked("setup gen", out))
        return times

    def validate_gen_output(self, out: Path) -> None:
        self.cli("validate gen output", ["validate", str(out)],
                 lambda p: check_validate(p, _breps(out), []))
        self.digests["breps"] = tree_digest(out, (BREP,))

    def parallel_check(self, serial_out: Path) -> float:
        """`gen --jobs 2` on the same window; its tree must equal the `--jobs 1` one."""
        out = self.dir / "parallel"
        wall = self.gen_checked("gen --jobs 2", out, jobs=PARALLEL_JOBS)
        same = tree_digest(out) == tree_digest(serial_out)
        self.op("gen --jobs 1/--jobs 2 byte identity", [] if same else ["trees differ"])
        shutil.rmtree(out, ignore_errors=True)
        return wall

    # ---- the task steps, shared by the plain and in-process passes -------------

    def task_steps(self, data: Path, mixed: Path) -> list[tuple[str, list[str], object]]:
        """(label, argv, prepare) of one tasks repetition.

        `prepare`, when set, runs untimed before the command: it copies the
        set-up dataset in, or the GOOD solids next to their DEFECT copies.
        """
        n, seed = str(self.n), str(self.seed)

        def copy_dataset():
            shutil.copytree(self.dir / "dataset", data)

        def copy_good():
            for name in _breps(data):
                shutil.copyfile(data / name, mixed / name)

        return [
            ("validate", ["validate", str(data)], copy_dataset),
            ("stats", ["stats", str(data)], None),
            ("points cube", ["points", str(data), "--n", n, "--mode", "cube", "--seed", seed], None),
            ("defect", ["defect", str(data), "--out", str(mixed), "--ratio", "2", "--seed", seed], None),
            ("points sphere", ["points", str(mixed), "--n", n, "--mode", "sphere", "--seed", seed], copy_good),
        ]

    def task_check(self, label: str, data: Path, mixed: Path):
        good = lambda: _breps(data)  # noqa: E731
        checks = {
            "validate": lambda p: check_validate(p, good(), []),
            "stats": lambda p: _exit(p) + [f"{c} missing" for c in STATS_FILES if not (data / c).is_file()],
            "points cube": lambda p: _exit(p) + check_clouds(data, _stems(good()), self.n, "cube"),
            "defect": lambda p: _exit(p) + (
                [] if len(_breps(mixed, "*_def*" + BREP)) == 2 * len(good()) else ["not 2 DEFECT solids per GOOD one"]
            ),
            "points sphere": lambda p: _exit(p) + check_clouds(mixed, _stems(_breps(mixed)), self.n, "sphere"),
        }
        return checks[label]

    # ---- one repetition ---------------------------------------------------------

    def rep(self, i: int) -> dict:
        if self.kind == "gen":
            out = self.dir / f"gen{i}"
            wall = self.gen_checked(f"gen rep {i}", out)
            digest = tree_digest(out)
            first = self.digests.setdefault("gen_tree", digest)
            self.op(f"gen rep {i} determinism", [] if digest == first else ["tree differs from rep 0"])
            shutil.rmtree(self.dir / f"gen{i - 1}", ignore_errors=True)
            return {"walls": {"gen": wall}, "items": self.window["count"], "out": out}

        data, mixed = self.dir / f"data{i}", self.dir / f"mixed{i}"
        walls = {}
        for label, argv, prepare in self.task_steps(data, mixed):
            if prepare is not None:
                prepare()
            walls[label] = self.cli(label, argv, self.task_check(label, data, mixed))
        good, defects = _breps(data), _breps(mixed, "*_def*" + BREP)
        self.cli("validate GOOD+DEFECT", ["validate", str(mixed)], lambda p: check_validate(p, good, defects))
        self.digests["defect_breps"] = tree_digest(mixed, (BREP,))
        self.digests["clouds"] = tree_digest(data, (".xyz",)) + tree_digest(mixed, (".xyz",))
        shutil.rmtree(data)
        shutil.rmtree(mixed)
        return {
            "walls": walls,
            "items": len(good),
            "validate": (len(good), walls["validate"]),
            "defect": (len(defects), walls["defect"]),
            "points": (2 * len(good) + len(defects), walls["points cube"] + walls["points sphere"]),
        }


# ---- trace 0: end to end ------------------------------------------------------

def end_to_end(run: Run, seconds: float) -> dict:
    reps, probes, setup = [], [], []
    deadline = time.perf_counter() + seconds
    while not reps or time.perf_counter() < deadline:
        probes.append(harness.host_probe_s())
        # Set-ups are spread over the run like the repetitions, so both take
        # their best from the same stretches of host speed.
        setup += run.setup(2 if run.kind == "gen" else 1)
        reps.append(run.rep(len(reps)))
    if run.kind == "gen":
        run.validate_gen_output(reps[-1]["out"])
        run.parallel_check(reps[-1]["out"])
    # Items over the wall time of every repetition: on a shared host the
    # speed of identical work swings by up to ~1.5x in bursts of a second
    # or so, and the whole run averages over them (see bench/README.md).
    walls = [sum(r["walls"].values()) for r in reps]
    return {
        "items_per_s": sum(r["items"] for r in reps) / sum(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "_facts": {"rep_rates": [r["items"] / w for r, w in zip(reps, walls)], "host_probe_s": probes,
                   "setup_s": setup},
    }


# ---- trace 1: per layer --------------------------------------------------------

def in_process_steps(run: Run, tag: str) -> list[tuple]:
    """(label, argv, prepare, check) of the workload's commands for one in-process pass."""
    if run.kind == "gen":
        steps = []
        for k in range(TRACE_GEN_WINDOWS):
            window = run.windows[(run.index + k) % len(run.windows)]
            out = run.dir / f"{tag}-gen{k}"
            steps.append((f"gen {k}", run.gen_args(window, out, 1), None,
                          lambda p, out=out, window=window: _exit(p) or check_dataset(out, window)))
        return steps
    data, mixed = run.dir / f"{tag}-data", run.dir / f"{tag}-mixed"
    return [(label, argv, prepare, run.task_check(label, data, mixed))
            for label, argv, prepare in run.task_steps(data, mixed)]


def in_process_step(run: Run, tag: str, step: tuple, recorder=None) -> float:
    """One command through `brepforge.cli.main`, checked; returns its wall time."""
    import brepforge.cli as cli

    import spans

    label, argv, prepare, check = step
    if prepare is not None:
        prepare()
    saved = spans.install(recorder) if recorder is not None else []
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            t0 = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - t0
    finally:
        spans.uninstall(saved)
    run.checked(f"in-process {tag} {label}", subprocess.CompletedProcess(argv, code, stdout.getvalue(), ""), check)
    return wall


def outputs_digest(run: Run, tag: str) -> str:
    return "".join(tree_digest(p) for p in sorted(run.dir.glob(f"{tag}-*")))


def per_layer(run: Run) -> dict:
    import spans

    run.setup(1)
    plain = run.rep(0)
    out: dict[str, float] = {}
    if run.kind == "gen":
        facts = dataset_facts(plain["out"])
        run.validate_gen_output(plain["out"])
        # Best of interleaved --jobs 1 / --jobs 2 pairs, so that both sides
        # see the same host speed (see bench/README.md).
        walls = [plain["walls"]["gen"]]
        parallel = [run.parallel_check(plain["out"])]
        for i in range(1, EFFICIENCY_PAIRS):
            walls.append(run.rep(i)["walls"]["gen"])
            parallel.append(run.parallel_check(run.dir / f"gen{i}"))
        out["cli.gen.parallel_efficiency"] = min(walls) / (PARALLEL_JOBS * min(parallel))
        out["cli.gen.streams_per_s"] = plain["items"] / min(walls)
    else:
        facts = dataset_facts(run.dir / "dataset")
    for key, metric in (("validate", "cli.validate.files_per_s"), ("defect", "cli.defect.solids_per_s"),
                        ("points", "cli.points.clouds_per_s")):
        if key in plain:
            items, wall = plain[key]
            out[metric] = items / wall
    for reason in DISCARD_REASONS:
        out[f"cli.discard.{reason}"] = facts["discards"].get(reason, 0)
    out["cli.export.share"] = facts["exported"] / run.window["count"]

    sys.path.insert(0, str(SRC))
    rec = spans.Recorder()
    untraced = traced = 0.0
    for k, (plain_step, traced_step) in enumerate(zip(in_process_steps(run, "u"), in_process_steps(run, "t"))):
        # One command of each pass in turn, first one then the other, so a
        # change in host speed falls on both passes alike.
        if k % 2:
            traced += in_process_step(run, "t", traced_step, rec)
            untraced += in_process_step(run, "u", plain_step)
        else:
            untraced += in_process_step(run, "u", plain_step)
            traced += in_process_step(run, "t", traced_step, rec)
    same = outputs_digest(run, "u") == outputs_digest(run, "t")
    run.op("traced outputs equal untraced", [] if same else ["traced run wrote different files"])
    out.update(spans.layer_metrics(rec, traced))
    out["trace.wall_s"] = traced
    out["trace.untraced_wall_s"] = untraced
    out["trace.overhead_s"] = traced - untraced
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    rec.dump(WORK / "results" / f"{run.workload}-seed{run.seed}-spans.json")
    return out


# ---- output ---------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="brepforge benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny windows and clouds, for the benchmark's tests")
    args = ap.parse_args(argv)
    if not harness.program_present():
        print(f"bench: no brepforge sources under {SRC}", file=sys.stderr)
        return 2

    facts = harness.machine_facts(args.workload, args.seed)
    run = Run(args.workload, args.seed, args.tiny)
    facts["window"] = {"start": run.window["start"], "count": run.window["count"]}
    try:
        measured = per_layer(run) if args.trace else end_to_end(run, args.seconds)
    except OSError as exc:  # an expected output is missing; the result reports it
        run.op("run", [repr(exc)])
        measured = {}
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    facts.update(measured.pop("_facts", {}))

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]} for m in declared}
    undeclared = set(measured) - set(metrics)
    if undeclared:
        raise SystemExit(f"bench: metrics missing from BENCHMARK.json: {sorted(undeclared)}")

    share = run.failed / max(run.attempted, 1)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_ops_share {share:.6g} ({run.failed}/{run.attempted} ops)")
    for p in run.problems[:20]:
        print(f"problem: {p}")
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    record = {**result, "facts": facts, "failed_ops_share": share, "problems": run.problems,
              "digests_unpinned": run.digests}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("facts " + json.dumps(facts, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
