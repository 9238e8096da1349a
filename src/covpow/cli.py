"""Command-line front end for reproducible batch runs.

Every command checks its JSON config, and each input file it reads (a
selection.json, a features manifest.json, a verify summary.csv), against a
table in ``schema.py``; a fault exits 2 naming the file and the path in it.
It computes everything up front and only then writes artifacts into one run
directory named after the config hash. Reruns with the same config produce
byte-identical primary artifacts; the manifest carries hashes plus the only
timestamp.

Exit codes: 0 success, 2 config or input-file error, 3 domain error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .consistency import (
    report_to_dict as consistency_report_to_dict,
    shrink_to_gate,
    verify_instance,
)
from .errors import ConfigError, CovpowError, DomainError
from .features import (
    LabeledSeries,
    WindowSpec,
    _window_covariances,
    extract_features,
    read_feature_archive,
    read_series_csv,
    write_feature_archive,
    write_series_csv,
)
from .geometry import (
    distance_stats,
    pairwise_distance_matrix,
    report_to_dict as geometry_report_to_dict,
    write_pairwise_csv,
)
from .graphs import NodePartition, WeightedGraph, abar, sample_inhomogeneous_er
from .matern import (
    MaternModel,
    _nonzero_alpha,
    model_to_dict,
    sample_field,
    write_samples_csv,
)
from .pipeline import (
    SplitSpec,
    _evaluate,
    _power_rows,
    classifier_from_dict,
    classifier_to_dict,
    metrics_to_dict,
    select_beta,
    selection_to_dict,
    split_dataset,
    write_selection_csv,
)
from .schema import _FIT, _SELECTION, _SUMMARY_ROW, _TABLES, _VERSION, load_json, read_csv_rows
from .signatures import (
    class_signatures,
    gmm_to_dict,
    write_signature_csv,
)

__all__ = ["main"]


def _graph(rec: dict, seed: int | None = None):
    """The graph and partition of a graph section; ``seed`` overrides an ER seed."""
    if rec["type"] == "explicit":
        graph = WeightedGraph.from_edges(rec["n"], rec["edges"])
        return graph, NodePartition.from_observed(rec["n"], rec["observed"])
    kwargs = {key: val for key, val in rec.items() if key != "type" and val is not None}
    if seed is not None:
        kwargs["seed"] = seed
    return sample_inhomogeneous_er(**kwargs)


def _fit_kwargs(cfg: dict) -> dict:
    """select_beta's keyword arguments from the fit keys of select and pipeline."""
    kwargs = {key: cfg[key] for key in _FIT if cfg[key] is not None}
    if "window_grid" in kwargs:
        kwargs["window_grid"] = [WindowSpec(**rec) for rec in kwargs["window_grid"]]
    kwargs["split"] = SplitSpec(**cfg["split"])
    return kwargs


def _read_series(path: str) -> LabeledSeries:
    if not Path(path).exists():
        raise ConfigError(f"config.series_csv: no such file {path!r}")
    return read_series_csv(path)


def _read_features(features_dir: str):
    if not (Path(features_dir) / "manifest.json").is_file():
        raise ConfigError(f"config.features_dir: no manifest.json under {features_dir}")
    return read_feature_archive(features_dir)


# ---------------------------------------------------------------------------
# artifact plumbing


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _finish_run(run_dir: Path, command: str, config_sha256: str) -> None:
    """Hash every artifact and write the manifest (the only timestamped file)."""
    artifacts = {}
    for p in sorted(run_dir.rglob("*")):
        rel = p.relative_to(run_dir).as_posix()
        if p.is_file() and rel != "manifest.json":
            artifacts[rel] = hashlib.sha256(p.read_bytes()).hexdigest()
    manifest = {
        "command": command,
        "config_sha256": config_sha256,
        "artifacts": artifacts,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    (run_dir / "manifest.json").write_text(_json_text(manifest))


def _run_dir(args, command: str, config_sha256: str) -> Path:
    if args.out:
        return Path(args.out)
    root = Path(os.environ.get("COVPOW_RUNS_ROOT", "runs"))
    return root / f"{command}-{config_sha256[:12]}"


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(cfg: dict, run_dir: Path) -> None:
    graph, part = _graph(cfg["graph"])
    model = MaternModel(graph=graph, **cfg["model"])
    _, valid = abar(graph, model.kappa)
    if not valid:
        raise DomainError(
            "shifted interaction operator has spectral radius >= 1; "
            "lower the weights or raise kappa"
        )
    seed = cfg["samples"]["seed"]
    draws = sample_field(model, cfg["samples"]["n_samples"], seed=seed)

    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "model.json").write_text(_json_text({**model_to_dict(model), "seed": seed}))
    write_samples_csv(draws, run_dir / "samples.csv")
    (run_dir / "partition.json").write_text(
        _json_text({"observed": list(part.observed), "latent": list(part.latent)})
    )


def cmd_verify(cfg: dict, run_dir: Path) -> None:
    model_params = cfg["model"]
    beta, method, gate_frac = cfg["beta"], cfg["method"], cfg["gate_target_fraction"]
    start, count = cfg["seeds"]["start"], cfg["seeds"]["count"]

    def one(seed: int):
        graph, part = _graph(cfg["graph"], seed=seed)
        if gate_frac is not None:
            use_beta = beta if beta is not None else 1.0 / _nonzero_alpha(model_params["alpha"])
            graph = shrink_to_gate(
                graph, part, beta=use_beta, target_fraction=gate_frac, **model_params
            )
        model = MaternModel(graph=graph, **model_params)
        return verify_instance(model, part, beta=beta, method=method)

    # a seed whose instance is outside a model's domain fails alone
    reports, errors = {}, {}
    for seed in range(start, start + count):
        try:
            reports[seed] = one(seed)
        except DomainError as exc:
            errors[seed] = exc
    if not reports:
        raise errors[start]

    run_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for seed in range(start, start + count):
        if seed in errors:
            rows.append([seed, "", "", "", "", "", "", "failed", str(errors[seed])])
            continue
        report = reports[seed]
        rec = consistency_report_to_dict(report)
        (run_dir / f"report_{seed:05d}.json").write_text(_json_text(rec))
        gates = [g.gate for g in (report.gate_fractional, report.gate_contour) if g is not None]
        rows.append([
            seed, report.beta, report.cross_norm, max(gates, default=None),
            report.bound_fractional, report.delta_spectral_norm,
            report.empirically_consistent, "ok", "",
        ])
    # csv.writer writes a float as its repr and None as an empty cell
    with open(run_dir / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["seed", "beta", "cross_norm", "gate", "bound", "empirical_norm", "consistent",
             "status", "error"]
        )
        writer.writerows(rows)


def cmd_extract(cfg: dict, run_dir: Path) -> None:
    series = _read_series(cfg["series_csv"])
    spec = WindowSpec(**cfg["window"])
    beta = cfg["beta"]
    labels, ranges, stack = extract_features(
        series, spec, beta, ridge=cfg["ridge"], channels=cfg["channels"]
    )
    run_dir.mkdir(parents=True, exist_ok=True)
    write_feature_archive(
        labels,
        ranges,
        stack,
        beta,
        run_dir / "features",
        meta={"beta": beta, "window_length": spec.length, "window_overlap": spec.overlap},
    )


def _write_selection(run_dir: Path, result) -> None:
    (run_dir / "selection.json").write_text(_json_text(selection_to_dict(result)))
    write_selection_csv(result, run_dir / "selection_table.csv")
    (run_dir / "classifier.json").write_text(
        _json_text(classifier_to_dict(result.classifier))
    )


def cmd_select(cfg: dict, run_dir: Path) -> None:
    result = select_beta(_read_series(cfg["series_csv"]), **_fit_kwargs(cfg))
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_selection(run_dir, result)


def cmd_evaluate(cfg: dict, run_dir: Path) -> None:
    series = _read_series(cfg["series_csv"])
    selection_dir = Path(cfg["selection_dir"])
    selection_file = selection_dir / "selection.json"
    if not selection_file.exists():
        raise ConfigError(f"config.selection_dir: no selection.json under {selection_dir}")
    fields = load_json(selection_file.read_bytes(), selection_file, _SELECTION, "selection")
    classifier = classifier_from_dict(fields["classifier"])
    wspec = WindowSpec(length=fields["window_length"], overlap=fields["window_overlap"])
    split = SplitSpec(**cfg["split"])
    *_, metrics = _test_metrics(series, wspec, cfg["ridge"], classifier, fields["beta_star"], split)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "test_metrics.json").write_text(_json_text(metrics_to_dict(metrics)))


def _test_metrics(series, wspec, ridge, classifier, beta: float, split: SplitSpec):
    """The window labels and SPD stack of the series at wspec, and the metrics of
    the classifier on the test windows of the split, at power beta."""
    _, labels, stack = _window_covariances(series, wspec, ridge)
    parts = split_dataset(list(range(len(labels))), labels, split)
    test = list(parts.test_idx)
    x = _power_rows(stack, beta, test)
    return labels, stack, _evaluate(classifier, x, labels[test], token=parts.test_token)


def cmd_geometry(cfg: dict, run_dir: Path) -> None:
    labels, _, stack = _read_features(cfg["features_dir"])
    distances = pairwise_distance_matrix(stack)
    report = distance_stats(distances, labels)
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_geometry(run_dir, report, distances)


def _write_geometry(run_dir: Path, report, distances) -> None:
    (run_dir / "identifiability.json").write_text(_json_text(geometry_report_to_dict(report)))
    write_pairwise_csv(distances, run_dir / "pairwise.csv")


def cmd_signatures(cfg: dict, run_dir: Path) -> None:
    labels, _, stack = _read_features(cfg["features_dir"])
    gmm_kwargs = {key: val for key, val in cfg["gmm"].items() if val is not None}
    sigs = class_signatures(stack.values, labels, mode=cfg["mode"], **gmm_kwargs)
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_signatures(run_dir, sigs)


def _write_signatures(run_dir: Path, sigs) -> None:
    for label, sig in sorted(sigs.items()):
        write_signature_csv(sig.adjacency, run_dir / f"signature_class{label}.csv")
        meta = {
            "threshold": sig.threshold,
            "gmm": gmm_to_dict(sig.fit) if sig.fit is not None else None,
            "n_matrices": sig.n_matrices,
            "label": sig.label,
        }
        (run_dir / f"signature_class{label}.json").write_text(_json_text(meta))


def cmd_pipeline(cfg: dict, run_dir: Path) -> None:
    per_class, seed = cfg["series"]["samples_per_class"], cfg["series"]["seed"]
    models, parts = [], []
    for rec in cfg["classes"]:
        graph, part = _graph(rec["graph"])
        models.append(MaternModel(graph=graph, **rec["model"]))
        parts.append(part)
    n_obs = [len(p.observed) for p in parts]
    if n_obs[0] != n_obs[1]:
        raise ConfigError(
            f"config.classes: observed-node counts differ ({n_obs[0]} vs {n_obs[1]}); "
            "the two classes must share a channel count"
        )

    blocks, labels = [], []
    for label, (model, part) in enumerate(zip(models, parts)):
        draws = sample_field(model, per_class, seed=seed + label)
        blocks.append(draws[:, part.observed])
        labels.append(np.full(per_class, label, dtype=int))
    series = LabeledSeries(samples=np.vstack(blocks), labels=np.concatenate(labels))

    fit = _fit_kwargs(cfg)
    result = select_beta(series, **fit)
    # the selected spec's stack, rebuilt as evaluate builds it
    labels, stack, metrics = _test_metrics(
        series, result.window_spec_star, cfg["ridge"], result.classifier, result.beta_star,
        fit["split"],
    )
    powered = stack.power(result.beta_star)
    distances = pairwise_distance_matrix(powered)
    identifiability = distance_stats(distances, labels)

    sigs = class_signatures(powered.values, labels, **cfg["signatures"])

    run_dir.mkdir(parents=True, exist_ok=True)
    write_series_csv(series, run_dir / "series.csv")
    for label, model in enumerate(models):
        rec = model_to_dict(model)
        (run_dir / f"model_class{label}.json").write_text(_json_text(rec))
    _write_selection(run_dir, result)
    (run_dir / "test_metrics.json").write_text(_json_text(metrics_to_dict(metrics)))
    _write_geometry(run_dir, identifiability, distances)
    _write_signatures(run_dir, sigs)


def cmd_report(cfg: dict, run_dir: Path) -> None:
    """Aggregate verify runs: consistency rate and bound-tightness ratios.

    Failed seeds are counted; the rates are taken over the seeds that succeeded.
    """
    if not cfg["runs"]:
        raise ConfigError("config.runs: need at least one verify run directory")
    rows = []
    for i, run in enumerate(cfg["runs"]):
        summary = Path(run) / "summary.csv"
        if not summary.exists():
            raise ConfigError(f"config.runs[{i}]: no summary.csv under {run!r}")
        rows += read_csv_rows(summary, _SUMMARY_ROW)
    n_total = len(rows)
    ok = [r for r in rows if r["status"] == "ok"]
    n_consistent = sum(1 for r in ok if r["consistent"] == "True")
    ratios = [
        r["empirical_norm"] / r["bound"] for r in ok if r["bound"] is not None and r["bound"] > 0
    ]
    report = {
        "n_rows": n_total,
        "n_failed": n_total - len(ok),
        "n_consistent": n_consistent,
        "consistency_rate": n_consistent / len(ok) if ok else None,
        "tightness": {
            "count": len(ratios),
            "min": min(ratios) if ratios else None,
            "max": max(ratios) if ratios else None,
            "mean": sum(ratios) / len(ratios) if ratios else None,
        },
    }
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "report.json").write_text(_json_text(report))


# ---------------------------------------------------------------------------
# entry point

_COMMANDS = {
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "extract": cmd_extract,
    "select": cmd_select,
    "evaluate": cmd_evaluate,
    "geometry": cmd_geometry,
    "signatures": cmd_signatures,
    "pipeline": cmd_pipeline,
    "report": cmd_report,
}

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="covpow",
        description="Covariance-power feature extraction and verification workflows",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} workflow")
        p.add_argument("--config", required=True, help="path to the run's JSON config")
        p.add_argument(
            "--out",
            default=None,
            help="run directory (default: $COVPOW_RUNS_ROOT or ./runs, named by config hash)",
        )
    args = parser.parse_args(argv)

    try:
        config_path = Path(args.config)
        if not config_path.exists():
            raise ConfigError(f"config file not found: {args.config}")
        config = config_path.read_bytes()
        table = {**_VERSION, **_TABLES[args.command]}
        cfg = load_json(config, args.config, table, "config", strict=True)
        # the digest of the text that universal newlines would read: JSON holds a
        # raw CR or LF only between tokens, and no multibyte UTF-8 character holds one
        digest = hashlib.sha256(config.replace(b"\r\n", b"\n").replace(b"\r", b"\n")).hexdigest()
        run_dir = _run_dir(args, args.command, digest)
        _COMMANDS[args.command](cfg, run_dir)
        _finish_run(run_dir, args.command, digest)
        print(json.dumps({"run_dir": str(run_dir)}, sort_keys=True))
        return 0
    except CovpowError as exc:
        print(
            json.dumps(
                {
                    "error": type(exc).__name__,
                    "message": str(exc),
                    "exit_code": exc.exit_code,
                },
                sort_keys=True,
            ),
            file=sys.stderr,
        )
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
