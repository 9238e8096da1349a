"""Command-line front end for reproducible batch runs.

Every command reads one JSON config and validates it against that verb's
table in ``_TABLES`` (unknown keys, wrong types, and out-of-range seeds and
tolerances are rejected with their path), computes everything up front, and
only then writes artifacts into a single run directory named after the config
hash.
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
from dataclasses import dataclass
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
    model_to_dict,
    sample_field,
    write_model_json,
    write_samples_csv,
)
from .pipeline import (
    SplitSpec,
    _evaluate,
    _select_beta,
    _vectorize,
    classifier_from_dict,
    classifier_to_dict,
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

SCHEMA_VERSION = "1"

__all__ = ["main"]


# ---------------------------------------------------------------------------
# config schema
#
# Each verb's config is checked against one table, and each table maps the
# keys of a section to (kind, default). A kind is a type (int, float, str,
# bool), a nested table, [kind] for a list of that kind, a tuple of kinds for
# a list of fixed length, _AtLeast(n) for an int no smaller than n (a finite
# float with _AtLeast(x, float)), _OneOf(...) for one of a few strings, or a
# _Variant of tables chosen by the section's "type". A float accepts any JSON
# number a float can hold, and an int must fit in 64 signed bits. The default
# _REQUIRED marks a key that must be given; None leaves an absent key None,
# and any other default is filled in and checked like a given value.

_REQUIRED = object()


@dataclass(frozen=True)
class _AtLeast:
    """A number of type ``kind`` no smaller than ``low``; a float must also be finite."""

    low: int | float
    kind: type = int


@dataclass(frozen=True)
class _OneOf:
    """A string from ``options``."""

    options: tuple


@dataclass(frozen=True)
class _Variant:
    """A section whose table is named by its "type" key; absent, the first."""

    tables: dict


_SEED = _AtLeast(0)
_TOL = _AtLeast(0.0, float)  # 0 is legal: a fit then stops at a step that leaves its loss as it was
_RIDGE = _AtLeast(0.0, float)  # 0 is legal: a rank-deficient window then fails SPD validation
_SIGNATURE_MODE = _OneOf(("class-mean", "per-matrix"))

_GRAPH = _Variant(
    {
        "er": {
            "n_obs": (int, _REQUIRED),
            "n_lat": (int, _REQUIRED),
            "p_obs": (float, _REQUIRED),
            "p_lat": (float, _REQUIRED),
            "p_cross": (float, _REQUIRED),
            "weight_low": (float, None),
            "weight_high": (float, None),
            "target_rho": (float, None),
            "seed": (_SEED, 0),
        },
        "explicit": {
            "n": (int, _REQUIRED),
            "edges": ([(int, int, float)], _REQUIRED),
            "observed": ([int], _REQUIRED),
        },
    }
)

_MODEL = {
    "kappa": (float, _REQUIRED),
    "alpha": (float, _REQUIRED),
    "sigma": (float, _REQUIRED),
}

_CLASS = {"graph": (_GRAPH, _REQUIRED), "model": (_MODEL, _REQUIRED)}

_WINDOW = {"length": (int, _REQUIRED), "overlap": (float, 0.0)}

_SPLIT = {
    "train_frac": (float, _REQUIRED),
    "val_frac": (float, _REQUIRED),
    "test_frac": (float, _REQUIRED),
    "seed": (_SEED, 0),
    "stratified": (bool, True),
}

# the select_beta keys that select and pipeline share; the split default is
# select_beta's own
_FIT = {
    "window_grid": ([_WINDOW], None),
    "beta_grid": ([float], None),
    "split": (_SPLIT, {"train_frac": 0.6, "val_frac": 0.2, "test_frac": 0.2}),
    "l2": (_AtLeast(0.0, float), None),
    "max_iter": (int, None),
    "tol": (_TOL, None),
    "ridge": (_RIDGE, None),
}

# every verb's table also holds "schema_version"
_TABLES = {
    "simulate": {
        "graph": (_GRAPH, _REQUIRED),
        "model": (_MODEL, _REQUIRED),
        "samples": ({"n_samples": (int, _REQUIRED), "seed": (_SEED, 0)}, _REQUIRED),
    },
    "verify": {
        "graph": (_GRAPH, _REQUIRED),
        "model": (_MODEL, _REQUIRED),
        "beta": (float, None),
        "seeds": ({"start": (_SEED, 0), "count": (_AtLeast(1), _REQUIRED)}, _REQUIRED),
        "method": (_OneOf(("eig", "stieltjes", "contour")), "eig"),
        "gate_target_fraction": (float, None),
    },
    "extract": {
        "series_csv": (str, _REQUIRED),
        "window": (_WINDOW, _REQUIRED),
        "beta": (float, _REQUIRED),
        "ridge": (_RIDGE, None),
        "channels": ([int], None),
    },
    "select": {"series_csv": (str, _REQUIRED), **_FIT},
    "evaluate": {
        "series_csv": (str, _REQUIRED),
        "selection_dir": (str, _REQUIRED),
        "split": (_SPLIT, _REQUIRED),
        "ridge": (_RIDGE, None),
    },
    "geometry": {"features_dir": (str, _REQUIRED)},
    "signatures": {
        "features_dir": (str, _REQUIRED),
        "mode": (_SIGNATURE_MODE, "class-mean"),
        "gmm": ({"max_iter": (int, None), "tol": (_TOL, None), "seed": (_SEED, None)}, {}),
    },
    "pipeline": {
        "classes": ((_CLASS, _CLASS), _REQUIRED),
        "series": ({"samples_per_class": (int, _REQUIRED), "seed": (_SEED, 0)}, _REQUIRED),
        **_FIT,
        "signatures": ({"mode": (_SIGNATURE_MODE, "class-mean"), "seed": (_SEED, 0)}, {}),
    },
    "report": {"runs": ([str], _REQUIRED)},
}

# the keys of a selection.json that evaluate reads; weights has dim + 1
# entries and the feature mean and scale dim each
_SELECTION = {
    "window_length": (int, _REQUIRED),
    "window_overlap": (float, _REQUIRED),
    "beta_star": (float, _REQUIRED),
    "classifier": (
        {
            "weights": ([float], _REQUIRED),
            "feature_mean": ([float], _REQUIRED),
            "feature_scale": ([float], _REQUIRED),
            "dim": (_AtLeast(1), _REQUIRED),
            "seen_tokens": ([str], _REQUIRED),
        },
        _REQUIRED,
    ),
}


def _mismatch(value, kind, path: str, item: bool) -> ConfigError:
    if isinstance(kind, (dict, _Variant)):
        name = "an object" if item else "dict"
    elif isinstance(kind, (list, tuple)):
        name = "list"
    elif item and kind is float:
        return ConfigError(f"{path}: expected number")
    else:
        name = kind.__name__
    return ConfigError(f"{path}: expected {name}, got {type(value).__name__}")


def _validate(value, kind, path: str, item: bool = False):
    """Check a config value against its kind; return it with defaults filled in.

    ``item`` marks a list element, which messages name a little differently.
    """
    if isinstance(kind, _Variant):
        if not isinstance(value, dict):
            raise _mismatch(value, kind, path, item)
        tags = _OneOf(tuple(kind.tables))
        tag = _validate(value.get("type", tags.options[0]), tags, f"{path}.type")
        rest = {key: val for key, val in value.items() if key != "type"}
        return {"type": tag, **_validate(rest, kind.tables[tag], path)}
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise _mismatch(value, kind, path, item)
        unknown = sorted(set(value) - set(kind))
        if unknown:
            raise ConfigError(f"{path}: unknown key(s) {unknown}")
        out = {}
        for key, (sub, default) in kind.items():
            if key in value:
                out[key] = _validate(value[key], sub, f"{path}.{key}")
            elif default is _REQUIRED:
                raise ConfigError(f"{path}.{key}: required key missing")
            else:
                out[key] = None if default is None else _validate(default, sub, f"{path}.{key}")
        return out
    if isinstance(kind, (list, tuple)):
        if not isinstance(value, list):
            raise _mismatch(value, kind, path, item)
        if isinstance(kind, tuple) and len(value) != len(kind):
            raise ConfigError(f"{path}: expected exactly {len(kind)} entries, got {len(value)}")
        kinds = kind if isinstance(kind, tuple) else kind * len(value)
        return [
            _validate(val, sub, f"{path}[{i}]", item=True)
            for i, (val, sub) in enumerate(zip(value, kinds))
        ]
    if isinstance(kind, _AtLeast):
        value = _validate(value, kind.kind, path, item)
        if not value >= kind.low:  # also rejects a float NaN and -inf
            raise ConfigError(f"{path}: must be >= {kind.low}")
        if value == float("inf"):
            raise ConfigError(f"{path}: must be finite")
        return value
    if isinstance(kind, _OneOf):
        value = _validate(value, str, path, item)
        if value not in kind.options:
            options = " or ".join(repr(t) for t in kind.options)
            raise ConfigError(f"{path}: expected {options}, got {value!r}")
        return value
    types = (int, float) if kind is float else kind
    if not isinstance(value, types) or (kind in (int, float) and isinstance(value, bool)):
        raise _mismatch(value, kind, path, item)
    if kind is int and not -(2**63) <= value < 2**63:
        raise ConfigError(f"{path}: integer outside the signed 64-bit range")
    if kind is float:
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{path}: number too large for a float") from None
    return value


def _checked_config(command: str, config) -> dict:
    """The config validated against its verb's table, defaults filled in."""
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    table = {"schema_version": (_OneOf((SCHEMA_VERSION,)), _REQUIRED), **_TABLES[command]}
    return _validate(config, table, "config")


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
    if not Path(features_dir).is_dir():
        raise ConfigError(f"config.features_dir: no such directory {features_dir!r}")
    if not (Path(features_dir) / "manifest.json").exists():
        raise ConfigError(f"config.features_dir: no manifest.json under {features_dir}")
    return read_feature_archive(features_dir)


# ---------------------------------------------------------------------------
# artifact plumbing


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _finish_run(run_dir: Path, command: str, config_text: str) -> None:
    """Hash every artifact and write the manifest (the only timestamped file)."""
    artifacts = {}
    for p in sorted(run_dir.rglob("*")):
        rel = p.relative_to(run_dir).as_posix()
        if p.is_file() and rel != "manifest.json":
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


def cmd_simulate(cfg: dict, run_dir: Path) -> None:
    graph, part = _graph(cfg["graph"])
    model = MaternModel(graph=graph, **cfg["model"])
    shift, valid = abar(graph, model.kappa)
    if not valid:
        raise DomainError(
            "shifted interaction operator has spectral radius >= 1; "
            "lower the weights or raise kappa"
        )
    seed = cfg["samples"]["seed"]
    draws = sample_field(model, cfg["samples"]["n_samples"], seed=seed)

    run_dir.mkdir(parents=True, exist_ok=True)
    write_model_json(model, run_dir / "model.json", seed=seed)
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
            use_beta = beta if beta is not None else 1.0 / model_params["alpha"]
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
                "ok",
                "",
            ]
        )
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
    try:
        selection = json.loads(selection_file.read_text())
    except ValueError as exc:  # also an integer past Python's digit limit
        raise ConfigError(f"{selection_file}: not valid JSON: {exc}") from None
    try:
        fields = _validate({key: selection[key] for key in _SELECTION}, _SELECTION, "selection")
        rec = fields["classifier"]
        dim = rec["dim"]
        for key, n in (("weights", dim + 1), ("feature_mean", dim), ("feature_scale", dim)):
            if len(rec[key]) != n:
                raise ConfigError(
                    f"selection.classifier.{key}: expected exactly {n} entries, got {len(rec[key])}"
                )
        classifier = classifier_from_dict(rec)
    except KeyError as exc:
        raise ConfigError(f"{selection_file}: required key {exc.args[0]!r} missing") from None
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"{selection_file}: malformed selection: {exc}") from None
    wspec = WindowSpec(length=fields["window_length"], overlap=fields["window_overlap"])
    split = SplitSpec(**cfg["split"])
    _, labels, stack = _window_covariances(series, wspec, cfg["ridge"])
    metrics = _test_metrics(classifier, labels, stack, fields["beta_star"], split)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "test_metrics.json").write_text(_json_text(metrics_to_dict(metrics)))


def _test_metrics(classifier, labels, stack, beta: float, split: SplitSpec):
    """Metrics of the classifier on the test windows of the split, at power beta."""
    parts = split_dataset(list(range(len(labels))), labels, split)
    test = list(parts.test_idx)
    x = _vectorize(stack.power(beta, test).values)
    return _evaluate(classifier, x, labels[test], token=parts.test_token)


def cmd_geometry(cfg: dict, run_dir: Path) -> None:
    labels, _, stack = _read_features(cfg["features_dir"])
    distances = pairwise_distance_matrix(stack)
    report = distance_stats(distances, labels)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "identifiability.json").write_text(
        _json_text(geometry_report_to_dict(report))
    )
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
    series = LabeledSeries(
        samples=np.vstack(blocks), labels=np.concatenate(labels)
    )

    fit = _fit_kwargs(cfg)
    result, labels, stack = _select_beta(series, **fit)
    metrics = _test_metrics(result.classifier, labels, stack, result.beta_star, fit["split"])
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
    (run_dir / "identifiability.json").write_text(
        _json_text(geometry_report_to_dict(identifiability))
    )
    write_pairwise_csv(distances, run_dir / "pairwise.csv")
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
        with open(summary, newline="") as fh:
            found = list(csv.DictReader(fh))
        if not found:
            raise ConfigError(f"config.runs[{i}]: {summary} has no rows")
        missing = {"consistent", "bound", "empirical_norm", "status"} - set(found[0])
        if missing:
            raise ConfigError(f"config.runs[{i}]: {summary} lacks column(s) {sorted(missing)}")
        rows += found
    n_total = len(rows)
    ok = [r for r in rows if r["status"] == "ok"]
    n_consistent = sum(1 for r in ok if r["consistent"] == "True")
    ratios = []
    for r in ok:
        if r["bound"]:
            bound = float(r["bound"])
            emp = float(r["empirical_norm"])
            if bound > 0:
                ratios.append(emp / bound)
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
        config_text = config_path.read_text()
        try:
            config = json.loads(config_text)
        except ValueError as exc:  # also an integer past Python's digit limit
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        cfg = _checked_config(args.command, config)
        run_dir = _run_dir(args, args.command, config_text)
        _COMMANDS[args.command](cfg, run_dir)
        _finish_run(run_dir, args.command, config_text)
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
