"""covpow benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload select-acc07 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 0            # every workload, one table

Run it from the root of a checkout; covpow is imported from ``src/`` there.
Each workload runs in a fresh child process with one BLAS thread. The last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the exit code is 0 only when every output check passed.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0
SETUP_RUNS = 5
# times the import, then the host-speed probe (see hostspeed.py) in the same process
SETUP_CODE = (
    "import time; t = time.perf_counter(); import covpow.cli; s = time.perf_counter() - t; "
    f"import sys; sys.path.append({str(HERE)!r}); from hostspeed import HostProbe; "
    "print(repr(s), repr(HostProbe().scale()))"
)


class BenchError(Exception):
    """The benchmark itself could not run: no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(args: list[str], deadline: float) -> str:
    """Run one child to completion (killed and reaped at the deadline)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run(
            [sys.executable, *args], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args[:3]} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {args[:3]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout


def setup_seconds(deadline: float) -> tuple[float, float]:
    """Median fresh-interpreter `import covpow.cli` time: scaled, and raw."""
    runs = [[float(v) for v in run_child(["-c", SETUP_CODE], deadline).split()]
            for _ in range(SETUP_RUNS)]
    return (statistics.median(s * scale for s, scale in runs),
            statistics.median(s for s, _ in runs))


def src_lines() -> int:
    return sum(
        1
        for path in sorted((ROOT / "src" / "covpow").rglob("*.py"))
        for line in path.read_text().splitlines()
        if line.strip()
    )


def run_workload(
    name: str, seed: int, seconds: int, traced: bool, metrics: list[dict], deadline: float
) -> dict:
    state = ROOT / ".perfbench-work"
    work = state / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    child = str(HERE / "child.py")
    try:
        run_child([child, "prepare", name, str(seed), str(work)], deadline)
        if traced:
            run_child([child, "trace", name, str(seed), str(work), str(state)], deadline)
        else:
            setup, raw_setup = setup_seconds(deadline)
            run_child(
                [child, "measure", name, str(seed), str(work), str(state), str(seconds)],
                deadline,
            )
        rec = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rec["environment"]["src.lines"] = src_lines()
    if traced:
        rec["metrics"]["src.lines"] = rec["environment"]["src.lines"]
    else:
        rec["metrics"]["setup_s"] = setup
        rec["unscaled"] = {
            "setup_s": raw_setup,
            "wall_s": statistics.median(rec["raw_walls"]),
            "host_scale": statistics.median(rec["scales"]),
        }
    rec["metrics"] = {
        m["name"]: {"value": rec["metrics"][m["name"]], "unit": m["unit"]} for m in metrics
    }
    return rec


def main(argv=None) -> int:
    # the workloads, and the metrics with their units, are defined once there
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "covpow" / "__init__.py").is_file():
        print(f"error: no covpow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads if args.workload == "all" else [args.workload]
    metrics_spec = spec["per_layer" if args.trace else "end_to_end"]
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(
                name, args.seed, args.seconds, bool(args.trace), metrics_spec, deadline
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = {}
    for name, rec in results.items():
        print(f"{name} environment {json.dumps(rec['environment'], sort_keys=True)}")
        for err in rec["errors"]:
            print(f"{name} FAILED CHECK: {err}")
        print(f"{name} failed_frac {rec['failed'] / rec['attempted']!r} "
              f"({rec['failed']} of {rec['attempted']} operations)")
        if "unscaled" in rec:
            print(f"{name} unscaled {json.dumps(rec['unscaled'], sort_keys=True)}")
        for key, m in rec["metrics"].items():
            print(f"{name} {key} {m['value']!r} {m['unit']}")
            metrics[key if len(names) == 1 else f"{name}.{key}"] = m
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0 and all(not r["errors"] for r in results.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
