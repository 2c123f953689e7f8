"""Run the dataset pipeline at the paper's scale and record each command's
wall time and peak memory.

    python3 tools/paper_scale.py --work /path/to/empty/dir --out paper_scale.json

Runs, each in a fresh process and from the `src/` of this checkout:

    gen --count 21300 --seed 0 --jobs 2 --out WORK/data
    validate WORK/data
    stats WORK/data
    points WORK/data --n 4000 --mode cube --seed 0
    defect WORK/data --out WORK/defect --ratio 1 --seed 0

and writes, per command, its argv, exit status, wall time and peak resident
set size to the JSON file.  Each command runs under its own fresh Python
parent that waits for it and reads ``RUSAGE_CHILDREN``, so a peak is that
command's alone (the largest of its processes, a `gen` worker included) and
not the largest so far.  The tree takes about 4.3 GB and the whole run
about 4 to 9 minutes on 2 cores.  Not a test: it stops at the first command
that fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Run in the fresh parent of one command: run it, then print its wall time
# and the peak RSS of its process tree (ru_maxrss is in KiB on Linux).
MEASURE = """
import json, resource, subprocess, sys, time
start = time.perf_counter()
status = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode
wall = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps({"status": status, "wall_s": round(wall, 3), "peak_rss_mb": round(peak / 1024, 1)}))
"""


def pipeline(work: Path) -> list[list[str]]:
    data, defect = str(work / "data"), str(work / "defect")
    return [
        ["gen", "--count", "21300", "--seed", "0", "--jobs", "2", "--out", data],
        ["validate", data],
        ["stats", data],
        ["points", data, "--n", "4000", "--mode", "cube", "--seed", "0"],
        ["defect", data, "--out", defect, "--ratio", "1", "--seed", "0"],
    ]


def measure(argv: list[str]) -> dict:
    """One brepforge command in a fresh measuring parent."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, "-m", "brepforge.cli", *argv]
    done = subprocess.run(
        [sys.executable, "-c", MEASURE, *command], env=env, check=True, capture_output=True, text=True
    )
    return {"argv": argv, **json.loads(done.stdout)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--work", type=Path, required=True, help="directory for the dataset (must not exist or be empty)")
    parser.add_argument("--out", type=Path, required=True, help="JSON file for the results")
    args = parser.parse_args()
    if args.work.exists() and any(args.work.iterdir()):
        parser.error(f"{args.work} is not empty")
    args.work.mkdir(parents=True, exist_ok=True)

    results = []
    for argv in pipeline(args.work):
        result = measure(argv)
        results.append(result)
        print(f"{argv[0]}: exit {result['status']}, {result['wall_s']} s, {result['peak_rss_mb']} MB", flush=True)
        if result["status"] != 0:
            break
    report = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform()},
        "commands": results,
    }
    if (args.work / "data" / "meta.json").is_file():
        report["exported"] = len(list((args.work / "data").glob("*.brep.json")))
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all(r["status"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
