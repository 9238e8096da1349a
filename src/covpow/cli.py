"""Command-line front end for reproducible batch runs.

Every command reads one JSON config, validates it strictly (unknown keys are
rejected with their path), computes everything up front, and only then
writes artifacts into a single run directory named after the config hash.
Reruns with the same config produce byte-identical primary artifacts; the
manifest carries hashes plus the only timestamp.

Exit codes: 0 success, 2 config error, 3 domain error, 4 numerical failure.
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
    certified_gates,
    report_to_dict as consistency_report_to_dict,
    verify_instance,
)
from .errors import ConfigError, CovpowError, DomainError, NumericalError
from .features import (
    LabeledSeries,
    WindowSpec,
    _stack_features,
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
from .graphs import (
    NodePartition,
    WeightedGraph,
    abar,
    observed_a_min,
    partition_blocks,
    sample_inhomogeneous_er,
    scale_cross_block,
)
from .matern import (
    MaternModel,
    model_to_dict,
    sample_field,
    write_model_json,
    write_samples_csv,
)
from .pipeline import (
    SplitSpec,
    _select_beta,
    classifier_from_dict,
    classifier_to_dict,
    evaluate,
    metrics_to_dict,
    select_beta,
    selection_to_dict,
    split_dataset,
    write_selection_csv,
)
from .signatures import (
    class_signatures,
    gmm_to_dict,
    write_signature_csv,
)
from .spd import operator_norm

SCHEMA_VERSION = "1"

__all__ = ["main"]


# ---------------------------------------------------------------------------
# config validation


def _check_keys(rec: dict, allowed, path: str) -> None:
    if not isinstance(rec, dict):
        raise ConfigError(f"{path}: expected an object, got {type(rec).__name__}")
    unknown = sorted(set(rec) - set(allowed))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {unknown}")


def _get(rec: dict, key: str, kind, path: str, required: bool = True, default=None):
    if key not in rec:
        if required:
            raise ConfigError(f"{path}.{key}: required key missing")
        return default
    val = rec[key]
    if kind is float:
        ok = isinstance(val, (int, float)) and not isinstance(val, bool)
    elif kind is int:
        ok = isinstance(val, int) and not isinstance(val, bool)
    elif kind is None:
        return val
    else:
        ok = isinstance(val, kind)
    if not ok:
        raise ConfigError(
            f"{path}.{key}: expected {getattr(kind, '__name__', kind)}, got {type(val).__name__}"
        )
    return float(val) if kind is float else val


def _require_version(config: dict, path: str = "config") -> None:
    version = _get(config, "schema_version", str, path)
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"{path}.schema_version: expected {SCHEMA_VERSION!r}, got {version!r}"
        )


def _parse_graph(rec: dict, path: str, seed_override: int | None = None):
    """Graph section: either an ER sampler spec or an explicit edge list."""
    kind = _get(rec, "type", str, path, required=False, default="er")
    if kind == "er":
        _check_keys(
            rec,
            {
                "type",
                "n_obs",
                "n_lat",
                "p_obs",
                "p_lat",
                "p_cross",
                "weight_low",
                "weight_high",
                "target_rho",
                "seed",
            },
            path,
        )
        kwargs = dict(
            n_obs=_get(rec, "n_obs", int, path),
            n_lat=_get(rec, "n_lat", int, path),
            p_obs=_get(rec, "p_obs", float, path),
            p_lat=_get(rec, "p_lat", float, path),
            p_cross=_get(rec, "p_cross", float, path),
        )
        for opt in ("weight_low", "weight_high", "target_rho"):
            val = _get(rec, opt, float, path, required=False)
            if val is not None:
                kwargs[opt] = val
        seed = _get(rec, "seed", int, path, required=False, default=0)
        if seed_override is not None:
            seed = seed_override
        return sample_inhomogeneous_er(seed=seed, **kwargs)
    if kind == "explicit":
        _check_keys(rec, {"type", "n", "edges", "observed"}, path)
        n = _get(rec, "n", int, path)
        edges = _get(rec, "edges", list, path)
        observed = _get(rec, "observed", list, path)
        graph = WeightedGraph.from_edges(n, [tuple(e) for e in edges])
        part = NodePartition.from_observed(n, observed)
        return graph, part
    raise ConfigError(f"{path}.type: expected 'er' or 'explicit', got {kind!r}")


def _parse_model(rec: dict, graph: WeightedGraph, path: str) -> MaternModel:
    _check_keys(rec, {"kappa", "alpha", "sigma"}, path)
    return MaternModel(
        graph=graph,
        kappa=_get(rec, "kappa", float, path),
        alpha=_get(rec, "alpha", float, path),
        sigma=_get(rec, "sigma", float, path),
    )


def _parse_window(rec: dict, path: str) -> WindowSpec:
    _check_keys(rec, {"length", "overlap"}, path)
    return WindowSpec(
        length=_get(rec, "length", int, path),
        overlap=_get(rec, "overlap", float, path, required=False, default=0.0),
    )


def _parse_split(rec: dict, path: str) -> SplitSpec:
    _check_keys(
        rec, {"train_frac", "val_frac", "test_frac", "seed", "stratified"}, path
    )
    return SplitSpec(
        train_frac=_get(rec, "train_frac", float, path),
        val_frac=_get(rec, "val_frac", float, path),
        test_frac=_get(rec, "test_frac", float, path),
        seed=_get(rec, "seed", int, path, required=False, default=0),
        stratified=_get(rec, "stratified", bool, path, required=False, default=True),
    )


def _parse_beta_grid(config: dict, path: str):
    grid = _get(config, "beta_grid", list, path, required=False)
    if grid is None:
        return None
    out = []
    for i, v in enumerate(grid):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ConfigError(f"{path}.beta_grid[{i}]: expected number")
        out.append(float(v))
    return out


# ---------------------------------------------------------------------------
# artifact plumbing


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _finish_run(run_dir: Path, command: str, config_text: str) -> None:
    """Hash every artifact and write the manifest (the only timestamped file)."""
    artifacts = {}
    for p in sorted(run_dir.iterdir()):
        if p.name == "manifest.json" or p.is_dir():
            continue
        artifacts[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    for sub in sorted(run_dir.iterdir()):
        if sub.is_dir():
            for p in sorted(sub.iterdir()):
                rel = f"{sub.name}/{p.name}"
                artifacts[rel] = hashlib.sha256(p.read_bytes()).hexdigest()
    manifest = {
        "command": command,
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "artifacts": artifacts,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    (run_dir / "manifest.json").write_text(_json_text(manifest))


def _run_dir(args, command: str, config_text: str) -> Path:
    if args.out:
        return Path(args.out)
    root = Path(os.environ.get("COVPOW_RUNS_ROOT", "runs"))
    digest = hashlib.sha256(config_text.encode()).hexdigest()[:12]
    return root / f"{command}-{digest}"


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(config: dict, run_dir: Path) -> None:
    _check_keys(config, {"schema_version", "graph", "model", "samples"}, "config")
    _require_version(config)
    graph, part = _parse_graph(_get(config, "graph", dict, "config"), "config.graph")
    model = _parse_model(_get(config, "model", dict, "config"), graph, "config.model")
    shift, valid = abar(graph, model.kappa)
    if not valid:
        raise DomainError(
            "shifted interaction operator has spectral radius >= 1; "
            "lower the weights or raise kappa"
        )
    samples_rec = _get(config, "samples", dict, "config")
    _check_keys(samples_rec, {"n_samples", "seed"}, "config.samples")
    n_samples = _get(samples_rec, "n_samples", int, "config.samples")
    seed = _get(samples_rec, "seed", int, "config.samples", required=False, default=0)
    draws = sample_field(model, n_samples, seed=seed)

    run_dir.mkdir(parents=True, exist_ok=True)
    write_model_json(model, run_dir / "model.json", seed=seed)
    write_samples_csv(draws, run_dir / "samples.csv")
    (run_dir / "partition.json").write_text(
        _json_text({"observed": list(part.observed), "latent": list(part.latent)})
    )


def _gate_shrink(graph, part, model_params, beta, target_frac):
    """Shrink the cross block until the strongest gate admits it."""
    kappa, alpha, sigma = model_params["kappa"], model_params["alpha"], model_params["sigma"]
    blocks = partition_blocks(graph.adjacency, part)
    in_block = np.concatenate([blocks[0].sum(axis=1), blocks[3].sum(axis=1)])
    if in_block.min() <= 0 and operator_norm(blocks[1]) > 0:
        raise DomainError(
            "a node is held up only by cross-block edges; shrinking the cross "
            "block to pass the gate would isolate it"
        )
    a_min = observed_a_min(graph, part)
    if a_min is None:
        raise DomainError("observed block has no edges; nothing to gate against")
    for _ in range(80):
        shift, valid = abar(graph, kappa)
        cross = operator_norm(partition_blocks(graph.adjacency, part)[1])
        if not valid:
            raise DomainError("graph invalid while gating (spectral radius >= 1)")
        if cross == 0:
            return graph
        gates = certified_gates(shift, alpha, beta, sigma, a_min, cross)
        if gates == (None, None):
            raise DomainError(
                "gate_target_fraction needs an applicable gate: beta = 1/alpha in "
                f"(0,1) or alpha > 0, got alpha={alpha}, beta={beta}"
            )
        gate = max(g.gate for g in gates if g is not None)
        if cross < target_frac * gate:
            return graph
        graph = scale_cross_block(graph, part, min(0.5, 0.5 * target_frac * gate / cross))
    raise DomainError("cross block did not pass the gate after 80 shrink steps")


def cmd_verify(config: dict, run_dir: Path) -> None:
    _check_keys(
        config,
        {
            "schema_version",
            "graph",
            "model",
            "beta",
            "seeds",
            "method",
            "gate_target_fraction",
        },
        "config",
    )
    _require_version(config)
    graph_rec = _get(config, "graph", dict, "config")
    model_rec = _get(config, "model", dict, "config")
    _check_keys(model_rec, {"kappa", "alpha", "sigma"}, "config.model")
    model_params = {
        "kappa": _get(model_rec, "kappa", float, "config.model"),
        "alpha": _get(model_rec, "alpha", float, "config.model"),
        "sigma": _get(model_rec, "sigma", float, "config.model"),
    }
    beta = _get(config, "beta", float, "config", required=False)
    method = _get(config, "method", str, "config", required=False, default="eig")
    gate_frac = _get(config, "gate_target_fraction", float, "config", required=False)
    seeds_rec = _get(config, "seeds", dict, "config")
    _check_keys(seeds_rec, {"start", "count"}, "config.seeds")
    start = _get(seeds_rec, "start", int, "config.seeds", required=False, default=0)
    count = _get(seeds_rec, "count", int, "config.seeds")
    if count < 1:
        raise ConfigError("config.seeds.count: must be >= 1")

    def one(seed: int):
        graph, part = _parse_graph(graph_rec, "config.graph", seed_override=seed)
        use_beta = beta if beta is not None else 1.0 / model_params["alpha"]
        if gate_frac is not None:
            graph = _gate_shrink(graph, part, model_params, use_beta, gate_frac)
        model = MaternModel(graph=graph, **model_params)
        return verify_instance(model, part, beta=beta, method=method)

    seeds = list(range(start, start + count))
    reports = [one(s) for s in seeds]

    run_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for seed, report in zip(seeds, reports):
        rec = consistency_report_to_dict(report)
        (run_dir / f"report_{seed:05d}.json").write_text(_json_text(rec))
        gate_vals = [
            g["gate"]
            for g in (rec["gate_fractional"], rec["gate_contour"])
            if g is not None
        ]
        rows.append(
            [
                seed,
                repr(report.beta),
                repr(report.cross_norm),
                repr(max(gate_vals)) if gate_vals else "",
                repr(report.bound_fractional)
                if report.bound_fractional is not None
                else "",
                repr(report.delta_spectral_norm),
                report.empirically_consistent,
            ]
        )
    with open(run_dir / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["seed", "beta", "cross_norm", "gate", "bound", "empirical_norm", "consistent"]
        )
        writer.writerows(rows)


def cmd_extract(config: dict, run_dir: Path) -> None:
    _check_keys(
        config,
        {"schema_version", "series_csv", "window", "beta", "ridge", "channels"},
        "config",
    )
    _require_version(config)
    series_path = _get(config, "series_csv", str, "config")
    if not Path(series_path).exists():
        raise ConfigError(f"config.series_csv: no such file {series_path!r}")
    series = read_series_csv(series_path)
    spec = _parse_window(_get(config, "window", dict, "config"), "config.window")
    beta = _get(config, "beta", float, "config")
    ridge = _get(config, "ridge", float, "config", required=False)
    channels = _get(config, "channels", list, "config", required=False)
    feats = extract_features(series, spec, beta, ridge=ridge, channels=channels)
    run_dir.mkdir(parents=True, exist_ok=True)
    write_feature_archive(
        feats,
        run_dir / "features",
        meta={"beta": beta, "window_length": spec.length, "window_overlap": spec.overlap},
    )


def _selection_inputs(config: dict):
    series_path = _get(config, "series_csv", str, "config")
    if not Path(series_path).exists():
        raise ConfigError(f"config.series_csv: no such file {series_path!r}")
    series = read_series_csv(series_path)
    window_grid_rec = _get(config, "window_grid", list, "config", required=False)
    window_grid = (
        [
            _parse_window(rec, f"config.window_grid[{i}]")
            for i, rec in enumerate(window_grid_rec)
        ]
        if window_grid_rec is not None
        else None
    )
    beta_grid = _parse_beta_grid(config, "config")
    split_rec = _get(config, "split", dict, "config", required=False)
    split = _parse_split(split_rec, "config.split") if split_rec is not None else None
    kwargs = {}
    for key, kind in (("l2", float), ("max_iter", int), ("tol", float), ("ridge", float)):
        val = _get(config, key, kind, "config", required=False)
        if val is not None:
            kwargs[key] = val
    return series, beta_grid, window_grid, split, kwargs


def _write_selection(run_dir: Path, result) -> None:
    (run_dir / "selection.json").write_text(_json_text(selection_to_dict(result)))
    write_selection_csv(result, run_dir / "selection_table.csv")
    (run_dir / "classifier.json").write_text(
        _json_text(classifier_to_dict(result.classifier))
    )


def cmd_select(config: dict, run_dir: Path) -> None:
    _check_keys(
        config,
        {
            "schema_version",
            "series_csv",
            "window_grid",
            "beta_grid",
            "split",
            "l2",
            "max_iter",
            "tol",
            "ridge",
        },
        "config",
    )
    _require_version(config)
    series, beta_grid, window_grid, split, kwargs = _selection_inputs(config)
    result = select_beta(
        series, beta_grid=beta_grid, window_grid=window_grid, split=split, **kwargs
    )
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_selection(run_dir, result)


def cmd_evaluate(config: dict, run_dir: Path) -> None:
    _check_keys(
        config,
        {"schema_version", "series_csv", "selection_dir", "split", "ridge"},
        "config",
    )
    _require_version(config)
    series_path = _get(config, "series_csv", str, "config")
    if not Path(series_path).exists():
        raise ConfigError(f"config.series_csv: no such file {series_path!r}")
    selection_dir = Path(_get(config, "selection_dir", str, "config"))
    selection_file = selection_dir / "selection.json"
    if not selection_file.exists():
        raise ConfigError(f"config.selection_dir: no selection.json under {selection_dir}")
    series = read_series_csv(series_path)
    split = _parse_split(_get(config, "split", dict, "config"), "config.split")
    ridge = _get(config, "ridge", float, "config", required=False)
    selection = json.loads(selection_file.read_text())
    classifier = classifier_from_dict(selection["classifier"])
    wspec = WindowSpec(
        length=int(selection["window_length"]),
        overlap=float(selection["window_overlap"]),
    )
    windows, stack = _window_covariances(series, wspec, ridge)
    parts = split_dataset(list(range(len(windows))), [w.label for w in windows], split)
    feats = _stack_features(windows, stack, float(selection["beta_star"]), parts.test_idx)
    metrics = evaluate(classifier, feats, token=parts.test_token)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "test_metrics.json").write_text(_json_text(metrics_to_dict(metrics)))


def cmd_geometry(config: dict, run_dir: Path) -> None:
    _check_keys(config, {"schema_version", "features_dir"}, "config")
    _require_version(config)
    features_dir = _get(config, "features_dir", str, "config")
    if not Path(features_dir).is_dir():
        raise ConfigError(f"config.features_dir: no such directory {features_dir!r}")
    feats = read_feature_archive(features_dir)
    distances = pairwise_distance_matrix(feats)
    report = distance_stats(distances, [f.label for f in feats])
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "identifiability.json").write_text(
        _json_text(geometry_report_to_dict(report))
    )
    write_pairwise_csv(distances, run_dir / "pairwise.csv")


def cmd_signatures(config: dict, run_dir: Path) -> None:
    _check_keys(
        config, {"schema_version", "features_dir", "mode", "gmm"}, "config"
    )
    _require_version(config)
    features_dir = _get(config, "features_dir", str, "config")
    if not Path(features_dir).is_dir():
        raise ConfigError(f"config.features_dir: no such directory {features_dir!r}")
    mode = _get(config, "mode", str, "config", required=False, default="class-mean")
    gmm_rec = _get(config, "gmm", dict, "config", required=False, default={})
    _check_keys(gmm_rec, {"max_iter", "tol", "seed"}, "config.gmm")
    gmm_kwargs = {}
    for key, kind in (("max_iter", int), ("tol", float), ("seed", int)):
        val = _get(gmm_rec, key, kind, "config.gmm", required=False)
        if val is not None:
            gmm_kwargs[key] = val
    feats = read_feature_archive(features_dir)
    sigs = class_signatures(feats, mode=mode, **gmm_kwargs)
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


def cmd_pipeline(config: dict, run_dir: Path) -> None:
    _check_keys(
        config,
        {
            "schema_version",
            "classes",
            "series",
            "window_grid",
            "beta_grid",
            "split",
            "l2",
            "max_iter",
            "tol",
            "ridge",
            "signatures",
        },
        "config",
    )
    _require_version(config)
    classes = _get(config, "classes", list, "config")
    if len(classes) != 2:
        raise ConfigError(f"config.classes: expected exactly 2 entries, got {len(classes)}")
    series_rec = _get(config, "series", dict, "config")
    _check_keys(series_rec, {"samples_per_class", "seed"}, "config.series")
    per_class = _get(series_rec, "samples_per_class", int, "config.series")
    seed = _get(series_rec, "seed", int, "config.series", required=False, default=0)

    models, parts = [], []
    for i, rec in enumerate(classes):
        path = f"config.classes[{i}]"
        _check_keys(rec, {"graph", "model"}, path)
        graph, part = _parse_graph(_get(rec, "graph", dict, path), f"{path}.graph")
        model = _parse_model(_get(rec, "model", dict, path), graph, f"{path}.model")
        models.append(model)
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
    series = LabeledSeries(
        samples=np.vstack(blocks), labels=np.concatenate(labels)
    )

    window_grid_rec = _get(config, "window_grid", list, "config", required=False)
    window_grid = (
        [
            _parse_window(rec, f"config.window_grid[{i}]")
            for i, rec in enumerate(window_grid_rec)
        ]
        if window_grid_rec is not None
        else None
    )
    beta_grid = _parse_beta_grid(config, "config")
    split_rec = _get(config, "split", dict, "config", required=False)
    split = _parse_split(split_rec, "config.split") if split_rec is not None else SplitSpec(0.6, 0.2, 0.2, seed=0)
    kwargs = {}
    for key, kind in (("l2", float), ("max_iter", int), ("tol", float), ("ridge", float)):
        val = _get(config, key, kind, "config", required=False)
        if val is not None:
            kwargs[key] = val
    result, windows, stack = _select_beta(
        series, beta_grid=beta_grid, window_grid=window_grid, split=split, **kwargs
    )
    all_feats = _stack_features(windows, stack, result.beta_star)
    window_labels = [w.label for w in windows]
    test_parts = split_dataset(list(range(len(windows))), window_labels, split)
    metrics = evaluate(
        result.classifier,
        [all_feats[i] for i in test_parts.test_idx],
        token=test_parts.test_token,
    )
    distances = pairwise_distance_matrix(all_feats)
    identifiability = distance_stats(distances, window_labels)

    sig_rec = _get(config, "signatures", dict, "config", required=False, default={})
    _check_keys(sig_rec, {"mode", "seed"}, "config.signatures")
    sig_mode = _get(sig_rec, "mode", str, "config.signatures", required=False, default="class-mean")
    sig_seed = _get(sig_rec, "seed", int, "config.signatures", required=False, default=0)
    sigs = class_signatures(all_feats, mode=sig_mode, seed=sig_seed)

    run_dir.mkdir(parents=True, exist_ok=True)
    write_series_csv(series, run_dir / "series.csv")
    for label, model in enumerate(models):
        rec = model_to_dict(model)
        (run_dir / f"model_class{label}.json").write_text(_json_text(rec))
    _write_selection(run_dir, result)
    (run_dir / "test_metrics.json").write_text(_json_text(metrics_to_dict(metrics)))
    (run_dir / "identifiability.json").write_text(
        _json_text(geometry_report_to_dict(identifiability))
    )
    write_pairwise_csv(distances, run_dir / "pairwise.csv")
    _write_signatures(run_dir, sigs)


def cmd_report(config: dict, run_dir: Path) -> None:
    """Aggregate verify runs: consistency rate and bound-tightness ratios."""
    _check_keys(config, {"schema_version", "runs"}, "config")
    _require_version(config)
    runs = _get(config, "runs", list, "config")
    if not runs:
        raise ConfigError("config.runs: need at least one verify run directory")
    rows = []
    for i, run in enumerate(runs):
        summary = Path(run) / "summary.csv"
        if not summary.exists():
            raise ConfigError(f"config.runs[{i}]: no summary.csv under {run!r}")
        with open(summary, newline="") as fh:
            for rec in csv.DictReader(fh):
                rows.append(rec)
    n_total = len(rows)
    n_consistent = sum(1 for r in rows if r["consistent"] == "True")
    ratios = []
    for r in rows:
        if r["bound"]:
            bound = float(r["bound"])
            emp = float(r["empirical_norm"])
            if bound > 0:
                ratios.append(emp / bound)
    report = {
        "n_rows": n_total,
        "n_consistent": n_consistent,
        "consistency_rate": n_consistent / n_total,
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

_EXIT_CODES = {ConfigError: 2, DomainError: 3, NumericalError: 4}


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
        config_text = config_path.read_text()
        try:
            config = json.loads(config_text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigError("config root must be a JSON object")
        run_dir = _run_dir(args, args.command, config_text)
        _COMMANDS[args.command](config, run_dir)
        _finish_run(run_dir, args.command, config_text)
        print(json.dumps({"run_dir": str(run_dir)}, sort_keys=True))
        return 0
    except CovpowError as exc:
        code = 1
        for klass, value in _EXIT_CODES.items():
            if isinstance(exc, klass):
                code = value
                break
        print(
            json.dumps(
                {
                    "error": type(exc).__name__,
                    "message": str(exc),
                    "exit_code": code,
                },
                sort_keys=True,
            ),
            file=sys.stderr,
        )
        return code


if __name__ == "__main__":
    sys.exit(main())
