"""Build bench/windows.json: the seed-stream windows each workload draws from.

Usage:  python3 bench/catalogue.py

Per-stream cost spans two orders of magnitude (a room-filter discard takes
a few ms, a 10-storey building a few hundred), so the rate over a run of
consecutive streams mostly measures how many tall buildings the run drew.
To make runs on different seeds comparable, each workload draws from
windows of consecutive streams that share one shape:

1. `brepforge gen` over streams 0..STREAMS-1 gives every stream's outcome and
   storey count.
2. A window qualifies when its export count and its cost proxy, the sum of
   squared storey counts over its exports, sit at the targets below.
   Windows of one kind never overlap.  The `tasks` windows are narrowed
   further by triangle counts, since triangulation sets the time and peak
   memory of that workload.
3. Each chosen window is generated once more on its own; its export and
   discard counts and the sha256 of meta.json, meta.npy and discards.csv
   become the pins the benchmark checks on every run.

The result is deterministic for a given program.  Re-run this only when a
change is meant to alter which streams export, or the dataset files.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys

from harness import SRC, WINDOWS, WORK, dataset_facts, run_cli

# count: streams per window.  exports: exact export count, or None for the
# catalogue's export share rounded, +-1.  weight_tol: allowed relative
# deviation of sum(storeys^2) from its target.  tallest: the window holds a
# building of the catalogue's largest storey count.  triangles: of the first
# `limit` qualifying windows, keep this many: those whose total and largest
# triangle counts (what `points` time and memory follow) sit closest to the
# medians over those windows.  max_storeys: cap for the tiny windows the
# benchmark's own tests use.
KINDS = {
    "gen": dict(count=48, exports=None, weight_tol=0.02, limit=24),
    "tasks": dict(count=6, exports=3, weight_tol=0.05, tallest=True, limit=80, triangles=24),
    "tiny-gen": dict(count=6, exports=3, max_storeys=4, limit=1),
    "tiny-tasks": dict(count=3, exports=1, max_storeys=4, limit=1),
}
STREAMS = 6000  # the catalogue covers seed streams 0..STREAMS-1
JOBS = os.cpu_count() or 2  # changes only how fast the catalogue is built, not its bytes
CATALOGUE = WORK / "catalogue"


def catalogue() -> list[int]:
    """Storey count per stream (0 for a discarded stream); keeps the solids in CATALOGUE."""
    shutil.rmtree(CATALOGUE, ignore_errors=True)
    args = ["gen", "--count", str(STREAMS), "--seed", "0", "--jobs", str(JOBS), "--out", str(CATALOGUE)]
    _, proc = run_cli(args, timeout=None)
    if proc.returncode != 0:
        sys.exit(f"catalogue gen failed: {proc.stderr}")
    storeys = [0] * STREAMS
    for rec in json.loads((CATALOGUE / "meta.json").read_text())["records"]:
        storeys[rec["seed"]] = rec["storey_count"]
    return storeys


def triangle_count(stream: int, cache: dict[int, int]) -> int:
    if stream not in cache:
        from brepforge.brep import triangulate
        from brepforge.dataset import solid_from_dict

        doc = json.loads((CATALOGUE / f"bld{stream:08d}.brep.json").read_text())
        cache[stream] = len(triangulate(solid_from_dict(doc)).triangles)
    return cache[stream]


def closest_by_triangles(storeys: list[int], windows: list[dict], keep: int, cache: dict[int, int]) -> list[dict]:
    for w in windows:
        tris = [triangle_count(s, cache) for s in range(w["start"], w["start"] + w["count"]) if storeys[s]]
        w["triangles"] = sum(tris)
        w["max_triangles"] = max(tris)
    total = statistics.median(w["triangles"] for w in windows)
    largest = statistics.median(w["max_triangles"] for w in windows)

    def distance(w):
        return max(abs(w["triangles"] / total - 1), abs(w["max_triangles"] / largest - 1))

    return sorted(sorted(windows, key=distance)[:keep], key=lambda w: w["start"])


def choose(storeys: list[int], count: int, exports, limit: int, weight_tol=None, tallest=False, max_storeys=None):
    n = len(storeys)
    exported = [1 if k else 0 for k in storeys]
    weight = [k * k for k in storeys]
    share = sum(exported) / n
    if exports is None:
        lo, hi = round(share * count) - 1, round(share * count) + 1
        target = sum(weight) / n * count
    else:
        lo = hi = exports
        target = sum(weight) / sum(exported) * exports
    picked, s = [], 0
    while s + count <= n and len(picked) < limit:
        win = storeys[s : s + count]
        e = sum(exported[s : s + count])
        w = sum(weight[s : s + count])
        ok = lo <= e <= hi
        if ok and weight_tol is not None:
            ok = abs(w / target - 1.0) <= weight_tol
        if ok and tallest:
            ok = max(win) == max(storeys)
        if ok and max_storeys is not None:
            ok = max(win) <= max_storeys
        if ok:
            picked.append({"start": s, "count": count, "storeys": [k for k in win if k]})
            s += count
        else:
            s += 1
    return picked


def pin(window: dict) -> dict:
    out = WORK / "pin"
    shutil.rmtree(out, ignore_errors=True)
    args = ["gen", "--count", str(window["count"]), "--seed", str(window["start"])]
    _, proc = run_cli(args + ["--jobs", str(JOBS), "--out", str(out)])
    if proc.returncode != 0:
        sys.exit(f"gen {args} failed: {proc.stderr}")
    facts = dataset_facts(out)
    shutil.rmtree(out)
    if facts["exported"] != len(window["storeys"]):
        sys.exit(f"window {window['start']}: {facts['exported']} exported on its own, "
                 f"{len(window['storeys'])} in the catalogue")
    return {**window, **facts}


def main() -> int:
    WORK.mkdir(exist_ok=True)
    storeys = catalogue()
    sys.path.insert(0, str(SRC))
    result = {"catalogue_streams": STREAMS, "kinds": KINDS, "windows": {}}
    cache: dict[int, int] = {}
    for kind, spec in KINDS.items():
        spec = dict(spec)
        keep = spec.pop("triangles", None)
        windows = choose(storeys, **spec)
        if not windows:
            sys.exit(f"no window qualifies for {kind}")
        if keep:
            windows = closest_by_triangles(storeys, windows, keep, cache)
        result["windows"][kind] = [pin(w) for w in windows]
        print(f"{kind}: {len(windows)} windows", flush=True)
    shutil.rmtree(CATALOGUE)
    WINDOWS.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
