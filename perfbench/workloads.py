"""The benchmark's three workloads: inputs, one operation, and output checks.

Each workload drives covpow only from outside, through ``covpow.cli.main``
or the public library functions, and looks every covpow function up on the
package at call time, so the tracer's wrappers are seen.

A workload has three parts:

* ``prepare(seed, work)`` writes the inputs, before any timing, in a process
  of its own. The same seed writes the same bytes.
* ``run(out)`` performs one timed operation (a verb call, or one batch for
  ``verify-gated``) and leaves its artifacts in ``out``.
* ``summary(out)`` and ``verdict(summary)`` read the artifacts back, untimed:
  the summary is what is compared against ``reference.json`` at the default
  seed, and the verdict lists every check that failed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import covpow
import covpow.cli

DEFAULT_SEED = 0


@dataclass
class OpResult:
    """One operation: its wall time and what it attempted."""

    wall_s: float
    items: int
    attempted: int = 1
    failed: int = 0
    instance_ms: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def _cli(verb: str, config: Path, out: Path) -> tuple[float, int]:
    t0 = time.perf_counter()
    code = covpow.cli.main([verb, "--config", str(config), "--out", str(out)])
    return time.perf_counter() - t0, code


def _json(path: Path):
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# select-acc07: the acceptance-07 feature path through `covpow select`


def _er12(p: float, scale: float, seed: int, top: float = 1.2, max_cond: float = 15.0):
    """12-node ER graph with bounded operator conditioning (acceptance 07)."""
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(12, 1)
    for _ in range(200):
        w = rng.uniform(0.5, 1.5, iu[0].size) * (rng.random(iu[0].size) < p)
        a = np.zeros((12, 12))
        a[iu] = w
        a = a + a.T
        if not (a.sum(axis=1) > 0).all():
            continue
        lam = np.linalg.eigvalsh(covpow.interaction_operator(covpow.WeightedGraph(a), 1.0))
        if lam[-1] / lam[0] > max_cond:
            continue
        return covpow.WeightedGraph(a * (top * scale / lam[-1]))
    raise RuntimeError(f"no admissible 12-node draw at p={p}, seed={seed}")


class SelectAcc07:
    """`covpow select` on two 12-node classes, 803 windows, 32 powers."""

    name = "select-acc07"
    WINDOW = {"length": 64, "overlap": 0.75}
    WINDOWS_PER_CLASS = 400
    # 2 * (399 * 16 + 64) samples at stride 16: 400 windows per class plus
    # three that straddle the class boundary
    windows = 803

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.config = work / "select.json"
        self.series_csv = work / "series.csv"

    def prepare(self) -> None:
        s = self.seed
        g0 = _er12(0.75, 1.0, seed=1000 + s)
        g1 = _er12(0.30, 2.0, seed=2000 + s)
        t = (self.WINDOWS_PER_CLASS - 1) * 16 + self.WINDOW["length"]
        draws = [
            covpow.sample_field(
                covpow.MaternModel(graph=g, kappa=1.0, alpha=2.0, sigma=1.0), t, seed=2 * s + c
            )
            for c, g in enumerate((g0, g1))
        ]
        series = covpow.LabeledSeries(
            samples=np.vstack(draws), labels=np.repeat([0, 1], t)
        )
        covpow.features.write_series_csv(series, self.series_csv)
        self.config.write_text(json.dumps({
            "schema_version": "1",
            "series_csv": str(self.series_csv),
            "window_grid": [self.WINDOW],
            "split": {"train_frac": 0.6, "val_frac": 0.2, "test_frac": 0.2, "seed": s},
        }))

    def run(self, out: Path) -> OpResult:
        wall, code = _cli("select", self.config, out)
        grid = len(_json(out / "selection.json")["per_beta_table"]) if code == 0 else 0
        return OpResult(
            wall_s=wall,
            items=self.windows * grid,
            failed=int(code != 0),
            instance_ms=[1e3 * wall],
            errors=[] if code == 0 else [f"covpow select exited {code}"],
        )

    @functools.cached_property
    def series(self):
        return covpow.features.read_series_csv(self.series_csv)

    def summary(self, out: Path) -> dict:
        """Held-out evaluation through `evaluate` with the test token."""
        sel = _json(out / "selection.json")
        clf = covpow.pipeline.classifier_from_dict(_json(out / "classifier.json"))
        windows = covpow.sliding_windows(self.series, covpow.WindowSpec(**self.WINDOW))
        labels = np.array([w.label for w in windows])
        split = covpow.SplitSpec(0.6, 0.2, 0.2, seed=self.seed)
        parts = covpow.split_dataset(list(range(len(windows))), labels, split)
        beta = float(sel["beta_star"])
        feats = [
            covpow.power_features(
                covpow.empirical_covariance(windows[i].samples), beta, label=int(labels[i])
            )
            for i in parts.test_idx
        ]
        m = covpow.evaluate(clf, feats, token=parts.test_token)
        return {
            "exact": {
                "beta_star": sel["beta_star"],
                "grid_points": len(sel["per_beta_table"]),
                "windows": len(windows),
            },
            "close": {
                "s3": sel["s3"],
                "per_beta_s3": [r["s3"] for r in sel["per_beta_table"]],
                "classifier_weights": _json(out / "classifier.json")["weights"],
                "test_accuracy": m.accuracy,
                "test_sensitivity": m.sensitivity,
            },
        }

    @staticmethod
    def verdict(summary: dict) -> list[str]:
        close = summary["close"]
        errors = []
        if summary["exact"]["grid_points"] != 32:
            errors.append(f"grid has {summary['exact']['grid_points']} points, not 32")
        if not close["test_accuracy"] >= 0.90:
            errors.append(f"held-out accuracy {close['test_accuracy']:.3f} < 0.90")
        if close["test_sensitivity"] is None or not close["test_sensitivity"] >= 0.85:
            errors.append(f"held-out sensitivity {close['test_sensitivity']} < 0.85")
        return errors


# ---------------------------------------------------------------------------
# verify-gated: the acceptance-03 loop through public functions


class VerifyGated:
    """Draw, gate-shrink and verify 300 partially observed 7+4-node instances.

    The batch runs in-process: `covpow verify` aborts the whole batch at the
    first degenerate draw. An instance that raises counts as one failed
    operation, not as a failed batch.
    """

    name = "verify-gated"
    DRAWS = 300
    ALPHAS = (2.0, 0.5, 1.0)

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.inputs = work / "draws.json"

    def prepare(self) -> None:
        # acceptance 03 draws u and sigma for every seed, gated or not
        rng = np.random.default_rng(31 + self.seed)
        draws = []
        for i in range(self.DRAWS):
            u = float(rng.uniform(0.35, 0.85))
            sigma = float(rng.uniform(0.7, 1.4))
            draws.append([self.seed * self.DRAWS + i, self.ALPHAS[i % 3], u, sigma])
        self.inputs.write_text(json.dumps(draws))

    def run(self, out: Path) -> OpResult:
        draws = _json(self.inputs)
        reports, latencies, errors = [], [], []
        t0 = time.perf_counter()
        for graph_seed, alpha, u, sigma in draws:
            try:
                inst = self._gated_instance(graph_seed, alpha, u, sigma)
            except (covpow.CovpowError, np.linalg.LinAlgError) as exc:
                errors.append(f"draw {graph_seed}: {type(exc).__name__}: {exc}")
                continue
            if inst is not None:
                elapsed, report = inst
                reports.append((graph_seed, report))
                latencies.append(1e3 * elapsed)
        wall = time.perf_counter() - t0
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "reports.jsonl", "w") as fh:
            for graph_seed, report in reports:
                fh.write(f'{{"draw": {graph_seed}, "report": '
                         f"{covpow.consistency.report_to_json(report)}}}\n")
        return OpResult(
            wall_s=wall,
            items=len(reports),
            attempted=len(draws),
            failed=len(errors),
            instance_ms=latencies,
            errors=errors,
        )

    @staticmethod
    def _gated_instance(graph_seed: int, alpha: float, u: float, sigma: float):
        """(seconds, report) for a draw that passes a gate, else None."""
        graph, part = covpow.sample_inhomogeneous_er(
            7, 4, p_obs=0.5, p_lat=0.5, p_cross=0.15, seed=graph_seed
        )
        t0 = time.perf_counter()
        if graph.degrees().min() <= 0:
            return None
        adj_s = graph.adjacency[np.ix_(part.observed, part.observed)]
        off = adj_s[~np.eye(adj_s.shape[0], dtype=bool)]
        if not (off > 0).any() or not (off == 0).any():
            return None  # structure check needs both pair kinds
        a_min = float(off[off > 0].min())
        beta = 1.0 / alpha
        for _ in range(80):
            shift, valid = covpow.abar(graph, 1.0)
            cross = covpow.operator_norm(covpow.partition_blocks(graph.adjacency, part)[1])
            if not valid or cross == 0:
                return None
            gates = []
            if 0 < beta < 1:
                gates.append(covpow.fractional_gate(shift, beta, a_min, cross).gate)
            gates.append(
                covpow.best_contour_gate(shift, alpha, beta, sigma, a_min, cross).gate
            )
            target = u * max(gates)
            if cross < target:
                break
            graph = covpow.scale_cross_block(graph, part, min(0.5, 0.5 * target / cross))
        else:
            return None
        if graph.degrees().min() < 1e-8:
            return None  # a latent node held up only by the shrunk cross block
        model = covpow.MaternModel(graph=graph, kappa=1.0, alpha=alpha, sigma=sigma)
        report = covpow.verify_instance(model, part)
        elapsed = time.perf_counter() - t0
        gf, gc = report.gate_fractional, report.gate_contour
        if not ((gf is not None and gf.satisfied) or (gc is not None and gc.satisfied)):
            return None
        return elapsed, report

    def summary(self, out: Path) -> dict:
        recs = [json.loads(line) for line in (out / "reports.jsonl").read_text().splitlines()]
        return {
            "exact": {
                "gated": len(recs),
                "gated_draws": [r["draw"] for r in recs],
                "consistent": [r["report"]["empirically_consistent"] for r in recs],
                "fractional_satisfied": [
                    bool(r["report"]["gate_fractional"] and r["report"]["gate_fractional"]["satisfied"])
                    for r in recs
                ],
            },
            "close": {
                "delta_spectral_norm": [r["report"]["delta_spectral_norm"] for r in recs],
                "cross_norm": [r["report"]["cross_norm"] for r in recs],
                "bound_fractional": [r["report"]["bound_fractional"] for r in recs],
            },
        }

    @staticmethod
    def verdict(summary: dict) -> list[str]:
        exact, close = summary["exact"], summary["close"]
        errors = []
        for i, draw in enumerate(exact["gated_draws"]):
            if exact["consistent"][i] is not True:
                errors.append(f"draw {draw}: gated instance is not empirically consistent")
            if exact["fractional_satisfied"][i]:
                bound = close["bound_fractional"][i]
                if bound is None or not close["delta_spectral_norm"][i] <= bound:
                    errors.append(f"draw {draw}: delta norm exceeds the fractional bound {bound}")
        if not exact["gated"]:
            errors.append("no draw passed a gate")
        return errors


# ---------------------------------------------------------------------------
# pipeline-air: the README two-class config, scaled to 299 windows


class PipelineAir:
    """`covpow pipeline` with per-matrix signatures; AIR distances dominate."""

    name = "pipeline-air"

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.config = work / "pipeline.json"

    def prepare(self) -> None:
        def er_class(p_obs: float, graph_seed: int) -> dict:
            return {
                "graph": {"type": "er", "n_obs": 5, "n_lat": 3, "p_obs": p_obs,
                          "p_lat": 0.5, "p_cross": 0.4, "seed": graph_seed},
                "model": {"kappa": 1.0, "alpha": 1.0, "sigma": 1.0},
            }

        self.config.write_text(json.dumps({
            "schema_version": "1",
            "classes": [er_class(0.9, 11), er_class(0.3, 12)],
            "series": {"samples_per_class": 2400, "seed": 2 * self.seed},
            "window_grid": [{"length": 32, "overlap": 0.5}],
            "beta_grid": [0.5, 1.0],
            "split": {"train_frac": 0.6, "val_frac": 0.2, "test_frac": 0.2,
                      "seed": 2 * self.seed + 1},
            "signatures": {"mode": "per-matrix"},
        }))

    def run(self, out: Path) -> OpResult:
        wall, code = _cli("pipeline", self.config, out)
        n_windows = 0
        if code == 0:
            with open(out / "pairwise.csv") as fh:
                n_windows = len(fh.readline().split(","))
        return OpResult(
            wall_s=wall,
            items=n_windows,
            failed=int(code != 0),
            instance_ms=[1e3 * wall],
            errors=[] if code == 0 else [f"covpow pipeline exited {code}"],
        )

    def summary(self, out: Path) -> dict:
        ident = _json(out / "identifiability.json")
        sel = _json(out / "selection.json")
        d = np.loadtxt(out / "pairwise.csv", delimiter=",", skiprows=1, ndmin=2)
        sigs = {  # edge lists [src, dst] of each class signature
            str(c): [
                [int(v) for v in line.split(",")]
                for line in (out / f"signature_class{c}.csv").read_text().splitlines()[1:]
            ]
            for c in (0, 1)
        }
        return {
            "exact": {
                "beta_star": sel["beta_star"],
                "separated": ident["separated"],
                "n_pairs": ident["n_pairs"],
                "windows": d.shape[0],
                "signature_edges": sigs,
                "pairwise_symmetric": bool(np.array_equal(d, d.T)),
                "pairwise_zero_diagonal": bool(not np.diag(d).any()),
            },
            "close": {
                "s3": sel["s3"],
                "intra_mean": ident["intra_mean"],
                "inter_mean": ident["inter_mean"],
                "intra_variance": ident["intra_variance"],
                "inter_variance": ident["inter_variance"],
                "pairwise_row_sums": d.sum(axis=1).tolist(),
                "signature_thresholds": [
                    _json(out / f"signature_class{c}.json")["threshold"] for c in (0, 1)
                ],
            },
        }

    @staticmethod
    def verdict(summary: dict) -> list[str]:
        exact = summary["exact"]
        errors = []
        if exact["separated"] is not True:
            errors.append("identifiability.separated does not hold")
        if not exact["pairwise_symmetric"]:
            errors.append("pairwise distance matrix is not symmetric")
        if not exact["pairwise_zero_diagonal"]:
            errors.append("pairwise distance matrix has a nonzero diagonal")
        return errors


WORKLOADS = {w.name: w for w in (SelectAcc07, VerifyGated, PipelineAir)}


# ---------------------------------------------------------------------------
# checks shared by every workload


def compare_to_reference(summary: dict, reference: dict, rel: float = 1e-9) -> list[str]:
    """Discrete outputs must match exactly, floats to `rel` relative."""
    errors = []
    for section, tol in (("exact", 0.0), ("close", rel)):
        for key, want in reference[section].items():
            bad = _first_mismatch(summary[section].get(key), want, tol, key)
            if bad is not None:
                errors.append(bad)
    return errors


def _first_mismatch(got, want, rel: float, path: str):
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return f"{path}: {got!r} != reference {want!r}"
        items = [(f"{path}.{k}", got[k], want[k]) for k in want]
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: length {len(got) if isinstance(got, list) else got!r} != reference {len(want)}"
        items = [(f"{path}[{i}]", g, w) for i, (g, w) in enumerate(zip(got, want))]
    elif rel and isinstance(want, float) and isinstance(got, (int, float)):
        ok = math.isclose(got, want, rel_tol=rel, abs_tol=1e-12)
        return None if ok else f"{path}: {got!r} != reference {want!r} (rel {rel})"
    else:
        return None if got == want else f"{path}: {got!r} != reference {want!r}"
    for sub, g, w in items:
        bad = _first_mismatch(g, w, rel, sub)
        if bad is not None:
            return bad
    return None


def artifact_digest(out: Path) -> dict[str, str]:
    """sha256 of every artifact except the manifest, whose timestamp varies."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }
