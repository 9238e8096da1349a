"""Record covpow's benchmark into a BENCH_*.json file.

    python3 bench/record.py --out BENCH_<n>.json --repeats 10 --parent ../covpow-parent
    python3 bench/record.py --out /tmp/bench.json --seconds 3     # one quick run

For the checkout that holds this script, and for every workload in its
BENCHMARK.json, it runs ``perfbench/run.py --workload W --seed S --seconds T``
``--repeats`` times, each followed by one ``--trace 1`` run for the per-layer
metrics, then runs the tier-1 suite once against the checkout's own ``src``
and keeps its passed, skipped and failed counts (errors count as failed) and
wall time. With ``--parent`` the same runs are made for a checkout of the
parent commit, in pairs whose first side alternates (the change first in even
pairs), timed runs and traced runs alike, and the file also holds, per
metric, how many pairs the change won. Scaled and unscaled values are kept
per run with their medians and quartiles, because the host-speed scale alone
can move a scaled metric; each per-layer metric keeps its median, quartiles
and run count, because one traced run cannot show a layer's change (a
layer's self time can read +37% between two runs of the same code).
Standard library only.

Every run happens in a copy: each checkout's working tree, uncommitted edits
included, is copied into one temporary directory (as ``change/`` and
``parent/``) without ``.git`` and the outputs of earlier runs (``SKIP``), and
the directory is removed at the end. Both sides thus run from the same place
on disk; a side run in place once lost every pair on a workload whose code had
not changed. The commit and source digest are still read from the checkouts
themselves. Exits 1 when any run reports a failed output check; a failed test
is recorded, not an exit status.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the raw medians perfbench prints on its `unscaled` line; lower is better for both
UNSCALED = ("setup_s", "wall_s")
# what a checkout's copy leaves out: git metadata and the outputs of earlier runs
SKIP = (".git", ".perfbench-work", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks")


def perfbench(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One perfbench run: its final JSON record plus the environment and unscaled lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd[1:])} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    rec = json.loads(lines[-1])
    for line in lines[:-1]:
        name, key, rest = line.split(" ", 2)
        if name == workload and key in ("environment", "unscaled"):
            rec[key] = json.loads(rest)
    rec["metrics"] = {k: m["value"] for k, m in rec["metrics"].items()}
    return rec


def tier1(checkout: Path) -> dict:
    """One run of the tier-1 suite in a checkout: its counts and wall time."""
    paths = [str(checkout / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    wall_s = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{checkout}: tier-1 exited {proc.returncode}:\n{proc.stdout[-2000:]}"
                         f"{proc.stderr[-2000:]}")
    counts = {"passed": 0, "skipped": 0, "failed": 0}
    for n, word in re.findall(r"(\d+) (passed|skipped|failed|errors?)\b", lines[-1]):
        counts["failed" if word.startswith("error") else word] += int(n)
    return {**counts, "wall_s": wall_s}


def spread(values: list[float]) -> dict:
    """Median and quartiles; a single run is its own quartiles."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def git(checkout: Path, *args: str) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def identity(checkout: Path) -> dict:
    """The commit, and a digest of the sources perfbench runs, which also names a dirty tree."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes())
    status = git(checkout, "status", "--porcelain", "--", "src")
    return {"git_sha": git(checkout, "rev-parse", "HEAD"),
            "src_dirty": bool(status) if status is not None else None,
            "src_sha256": digest.hexdigest()}


def summarize(runs: list[dict], traced: list[dict]) -> dict:
    scaled = {k: [r["metrics"][k] for r in runs] for k in runs[0]["metrics"]}
    unscaled = {k: [r["unscaled"][k] for r in runs] for k in UNSCALED}
    layers = {k: [r["metrics"][k] for r in traced] for k in traced[0]["metrics"]}
    return {
        "runs": [{"metrics": r["metrics"], "unscaled": r["unscaled"], "correct": r["correct"],
                  "attempted": r["attempted"], "failed": r["failed"]} for r in runs],
        "scaled": {k: spread(v) for k, v in scaled.items()},
        "unscaled": {k: spread(v) for k, v in unscaled.items()},
        "trace": {"correct": all(r["correct"] for r in traced),
                  "metrics": {k: {**spread(v), "runs": len(v)} for k, v in layers.items()}},
    }


def wins(change: list[dict], parent: list[dict], better: dict[str, str]) -> dict:
    """Per scaled and unscaled metric: pairs won, lost and tied, both medians, the parent's IQR."""
    out = {}
    for key, sense in better.items():
        group, name = key.split(".", 1) if key.startswith("unscaled.") else ("metrics", key)
        tally = {"won": 0, "lost": 0, "tied": 0}
        for c, p in zip(change, parent):
            diff = c[group][name] - p[group][name]
            diff = -diff if sense == "higher" else diff
            tally["won" if diff < 0 else "lost" if diff > 0 else "tied"] += 1
        c_q, p_q = (spread([r[group][name] for r in side]) for side in (change, parent))
        out[key] = {"better": sense, **tally, "change_median": c_q["median"],
                    "parent_median": p_q["median"], "parent_iqr": p_q["q3"] - p_q["q1"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--parent", type=Path, help="a checkout of the parent commit")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--repeats", type=int, default=1, help="runs (or pairs) per workload")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    checkouts = {"change": ROOT}
    if args.parent is not None:
        checkouts["parent"] = args.parent.resolve()

    record = {"command": ["python3", "perfbench/run.py", "--seed", str(args.seed),
                          "--seconds", str(args.seconds)], "repeats": args.repeats}
    correct = True
    with tempfile.TemporaryDirectory(prefix="covpow-bench-") as tmp:
        skip = shutil.ignore_patterns(*SKIP)
        sides = {side: shutil.copytree(checkout, Path(tmp) / side, ignore=skip)
                 for side, checkout in checkouts.items()}

        # timed and traced runs per side and workload, each list in pair order
        runs = {trace: {side: {w: [] for w in workloads} for side in sides} for trace in (0, 1)}
        for i in range(args.repeats):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for w in workloads:
                for trace in (0, 1):
                    for side in order:
                        rec = perfbench(sides[side], w, args.seed, args.seconds, trace)
                        runs[trace][side][w].append(rec)
                        if not trace:
                            print(f"{i} {w} {side}: {rec['metrics']}", file=sys.stderr)

        for side, workdir in sides.items():
            environment = runs[0][side][workloads[0]][0]["environment"]
            summaries = {}
            for w in workloads:
                timed, traced = runs[0][side][w], runs[1][side][w]
                summaries[w] = summarize(timed, traced)
                correct &= all(r["correct"] for r in timed + traced)
            record[side] = {**identity(checkouts[side]), "environment": environment,
                            "src.lines": environment["src.lines"], "tier1": tier1(workdir),
                            "workloads": summaries}
            print(f"{side} tier1: {record[side]['tier1']}", file=sys.stderr)
    if args.parent is not None:
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        better.update({f"unscaled.{k}": "lower" for k in UNSCALED})
        layers = {m["name"]: m["better"] for m in spec["per_layer"]}
        record["change_vs_parent"] = {
            w: wins(runs[0]["change"][w], runs[0]["parent"][w], better) for w in workloads}
        record["change_vs_parent_per_layer"] = {
            w: wins(runs[1]["change"][w], runs[1]["parent"][w], layers) for w in workloads}
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
