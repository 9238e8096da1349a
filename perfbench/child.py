"""One workload run in a fresh process; started by run.py, never by hand.

    child.py prepare <workload> <seed> <work>
    child.py measure <workload> <seed> <work> <state> <seconds>
    child.py trace   <workload> <seed> <work> <state>

``prepare`` writes the inputs. ``measure`` runs one checked warm-up
operation, then timed operations for ``seconds`` (at least MIN_TIMED of
them), and writes ``result.json`` into ``work``. ``trace`` runs a warm-up, one
untraced and one traced operation and writes the per-layer counts instead.
``state`` keeps what outlives a run: artifact digests per seed, and spans.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import covpow
from hostspeed import REFERENCE_S, HostProbe
from workloads import DEFAULT_SEED, WORKLOADS, OpResult, artifact_digest, compare_to_reference

MIN_TIMED = 3
REFERENCE = Path(__file__).with_name("reference.json")


class Run:
    """Counts and checks across the operations of one run."""

    def __init__(self, name: str, seed: int, work: Path, state: Path) -> None:
        self.wl = WORKLOADS[name](seed, work)
        self.name, self.seed, self.work, self.state = name, seed, work, state
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest: dict[str, str] | None = None
        self.last_bytes = 0

    def op(self, tag: str, check: bool = False) -> OpResult:
        """One operation; its artifacts are compared with the first one's."""
        out = self.work / f"op-{tag}"
        gc.collect()
        res = self.wl.run(out)
        checks = self._check(out) if check else []
        digest = artifact_digest(out)
        if self.digest is None:
            self.digest = digest
            checks += self._check_digest_across_runs(digest)
        elif digest != self.digest:
            checks.append(f"op {tag}: artifacts differ from the first operation's")
        self.attempted += res.attempted
        self.failed += min(res.attempted, res.failed + len(checks))
        self.errors += res.errors + checks
        self.last_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        shutil.rmtree(out, ignore_errors=True)
        return res

    def _check(self, out: Path) -> list[str]:
        try:
            summary = self.wl.summary(out)
        except (OSError, ValueError, KeyError, covpow.CovpowError) as exc:
            return [f"outputs unreadable: {type(exc).__name__}: {exc}"]
        errors = self.wl.verdict(summary)
        if self.seed == DEFAULT_SEED:
            reference = json.loads(REFERENCE.read_text())[self.name]
            errors += compare_to_reference(summary, reference)
        return errors

    def _check_digest_across_runs(self, digest: dict[str, str]) -> list[str]:
        """Artifacts must also match earlier runs of the same sources and seed."""
        sources = hashlib.sha256()
        for path in sorted(Path(covpow.__file__).parent.rglob("*.py")):
            sources.update(path.read_bytes())
        path = self.state / f"digest-{self.name}-s{self.seed}-{sources.hexdigest()[:16]}.json"
        if path.exists():
            if json.loads(path.read_text()) != digest:
                return ["artifacts differ from an earlier run of the same seed"]
            return []
        path.write_text(json.dumps(digest, sort_keys=True))
        return []

    def record(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors[:20],
            "environment": environment(self.seed),
        }


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """98, or the highest percentile (not below 50) with ten samples beyond it."""
    return min(98.0, max(50.0, 100.0 * (1.0 - 10.0 / n)))


def measure(run: Run, seconds: float) -> dict:
    """Timed operations, each scaled to reference-host seconds (see hostspeed)."""
    first = run.op("warmup", check=True)
    host = HostProbe()
    before = host.seconds()
    raw, scales, walls, instance_ms = [first.wall_s], [], [], []
    deadline = time.perf_counter() + seconds
    # start an operation only if a typical one still ends before the deadline
    while len(walls) < MIN_TIMED or time.perf_counter() + percentile(raw, 50) <= deadline:
        res = run.op(str(len(walls)))
        after = host.seconds()
        scale = REFERENCE_S / math.sqrt(before * after)
        before = after
        raw.append(res.wall_s)
        scales.append(scale)
        walls.append(scale * res.wall_s)
        instance_ms += [scale * ms for ms in res.instance_ms]
    wall = percentile(walls, 50)
    rec = run.record()
    rec.update(
        ops=len(walls),
        instances=len(instance_ms),
        raw_walls=raw[1:],
        scales=scales,
        metrics={
            "wall_s": wall,
            "items_per_s": first.items / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "instance_ms_p50": percentile(instance_ms, 50),
            "instance_ms_p98": percentile(instance_ms, tail_percentile(len(instance_ms))),
        },
    )
    return rec


def trace(run: Run) -> dict:
    from tracer import Tracer

    run.op("warmup", check=True)
    plain = run.op("untraced")
    tracer = Tracer()
    tracer.install()
    traced = run.op("traced")
    calls, self_s = tracer.totals()
    tracer.write(run.state / f"spans-{run.name}-s{run.seed}.npz")
    metrics: dict[str, float] = {}
    for name in tracer.names:
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
    gated = traced.items if run.name == "verify-gated" else 0
    air = calls.get("geometry.air_distance", 0)
    metrics.update({
        "cli.artifact_bytes": run.last_bytes if calls.get("cli.main") else 0,
        "pipeline.grid_points": tracer.grid_points,
        "consistency.eigvalsh_per_instance":
            calls.get("numpy.linalg.eigvalsh", 0) / gated if gated else 0.0,
        "consistency.gated_per_draw": gated / traced.attempted if gated else 0.0,
        "geometry.pairs_per_air_call": tracer.air_pairs() / air if air else 0.0,
        "signatures.em_iterations": tracer.em_iterations,
        "signatures.converged_frac":
            tracer.gmm_converged / tracer.gmm_fits if tracer.gmm_fits else 0.0,
        "trace.overhead_frac": traced.wall_s / plain.wall_s - 1.0,
    })
    rec = run.record()
    rec.update(metrics=metrics, spans=len(tracer.spans))
    return rec


def main(argv: list[str]) -> int:
    mode, name, seed, work = argv[0], argv[1], int(argv[2]), Path(argv[3])
    src = Path(__file__).resolve().parents[1] / "src"
    if src not in Path(covpow.__file__).resolve().parents:
        raise SystemExit(f"covpow was imported from {covpow.__file__}, not from {src}")
    if mode == "prepare":
        WORKLOADS[name](seed, work).prepare()
        return 0
    run = Run(name, seed, work, Path(argv[4]))
    rec = measure(run, float(argv[5])) if mode == "measure" else trace(run)
    (work / "result.json").write_text(json.dumps(rec, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
