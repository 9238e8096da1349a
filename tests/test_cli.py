"""End-to-end CLI tests: validation, exit codes, artifacts, reproducibility."""

import csv
import hashlib
import importlib.metadata
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10; pytest depends on tomli there
    import tomli as tomllib

import covpow
from covpow import cli, consistency, pipeline
from covpow.errors import ConfigError, CovpowError, DomainError, NumericalError
from covpow.cli import main
from covpow.features import (
    LabeledSeries,
    WindowSpec,
    read_feature_archive,
    read_series_csv,
    write_series_csv,
)
from covpow.graphs import WeightedGraph, sample_inhomogeneous_er
from covpow.matern import MaternModel, model_to_dict
from covpow.pipeline import SplitSpec, select_beta, selection_to_dict
from covpow.schema import _TABLES, _VERSION, load_json
from covpow.signatures import class_signatures, gmm_to_dict
from covpow.spd import read_matrix_csv, write_matrix_csv


def run_cli(args, env_root=None, monkeypatch=None):
    """Invoke the entry point in-process and capture the exit code."""
    if env_root is not None and monkeypatch is not None:
        monkeypatch.setenv("COVPOW_RUNS_ROOT", str(env_root))
    return main(args)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    if isinstance(payload, bytes):  # a config written byte for byte
        path.write_bytes(payload)
    else:
        path.write_text(json.dumps(payload))
    return str(path)


def minimal_simulate_config():
    return {
        "schema_version": "1",
        "graph": {
            "type": "explicit",
            "n": 2,
            "edges": [[0, 1, 0.5]],
            "observed": [0],
        },
        "model": {"kappa": 1.0, "alpha": 1.0, "sigma": 1.0},
        "samples": {"n_samples": 8, "seed": 3},
    }


def two_class_pipeline_config(seed=0):
    def er_class(p_obs, p_lat, p_cross, graph_seed):
        return {
            "graph": {
                "type": "er",
                "n_obs": 5,
                "n_lat": 3,
                "p_obs": p_obs,
                "p_lat": p_lat,
                "p_cross": p_cross,
                "seed": graph_seed,
            },
            "model": {"kappa": 1.0, "alpha": 1.0, "sigma": 1.0},
        }

    return {
        "schema_version": "1",
        "classes": [
            er_class(0.9, 0.4, 0.4, 11),
            er_class(0.3, 0.9, 0.6, 12),
        ],
        "series": {"samples_per_class": 192, "seed": seed},
        "window_grid": [{"length": 32, "overlap": 0.5}],
        "beta_grid": [0.5, 1.0],
        "split": {"train_frac": 0.6, "val_frac": 0.2, "test_frac": 0.2, "seed": 1},
    }


class TestConfigValidation:
    def test_unknown_key_rejected_with_path(self, tmp_path, capsys):
        config = minimal_simulate_config()
        config["grph"] = {}
        path = write_config(tmp_path, "bad.json", config)
        code = main(["simulate", "--config", path, "--out", str(tmp_path / "run")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "grph" in err["message"]

    def test_missing_required_key(self, tmp_path, capsys):
        config = minimal_simulate_config()
        del config["model"]
        path = write_config(tmp_path, "bad.json", config)
        code = main(["simulate", "--config", path, "--out", str(tmp_path / "run")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "config.model" in err["message"]

    def test_wrong_schema_version(self, tmp_path, capsys):
        config = minimal_simulate_config()
        config["schema_version"] = "2"
        path = write_config(tmp_path, "bad.json", config)
        code = main(["simulate", "--config", path, "--out", str(tmp_path / "run")])
        assert code == 2

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")])
        assert code == 2

    def test_integer_past_the_digit_limit(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text('{"schema_version": "1", "seeds": {"count": 1' + "0" * 5000 + "}}")
        code = main(["verify", "--config", str(path), "--out", str(tmp_path / "run")])
        assert code == 2
        assert "long.json: not valid JSON" in json.loads(capsys.readouterr().err)["message"]

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(
            ["simulate", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "run")]
        )
        assert code == 2

    def test_wrong_type_diagnostic(self, tmp_path, capsys):
        config = minimal_simulate_config()
        config["model"]["kappa"] = "one"
        path = write_config(tmp_path, "bad.json", config)
        code = main(["simulate", "--config", path, "--out", str(tmp_path / "run")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "config.model.kappa" in err["message"]

    def test_missing_dataset_path_exit_2(self, tmp_path, capsys):
        config = {
            "schema_version": "1",
            "series_csv": str(tmp_path / "nope.csv"),
            "window": {"length": 16, "overlap": 0.5},
            "beta": 1.0,
        }
        path = write_config(tmp_path, "extract.json", config)
        code = main(["extract", "--config", path, "--out", str(tmp_path / "run")])
        assert code == 2


def _set(config, dotted, value):
    """Set one nested key of a config, e.g. "classes.0.graph.seed"; return the config."""
    *parents, last = dotted.split(".")
    rec = config
    for key in parents:
        rec = rec[int(key)] if key.isdigit() else rec[key]
    rec[last] = value
    return config


@pytest.fixture(scope="module")
def bad_config_inputs(tmp_path_factory):
    """Files the bad-config cases point at, made once."""
    root = tmp_path_factory.mktemp("inputs")
    features = TestGeometryAndSignatures().archive(root)  # also writes a 5-channel series
    no_classifier = root / "no-classifier"
    no_classifier.mkdir()
    (no_classifier / "selection.json").write_text(
        json.dumps({"beta_star": 1.0, "window_length": 32, "window_overlap": 0.5})
    )
    header_only = root / "header-only"
    header_only.mkdir()
    (header_only / "summary.csv").write_text(
        "seed,beta,cross_norm,gate,bound,empirical_norm,consistent\n"
    )
    no_status = root / "no-status"  # a summary written before the status column
    no_status.mkdir()
    (no_status / "summary.csv").write_text(
        "seed,beta,cross_norm,gate,bound,empirical_norm,consistent\n0,0.5,0.1,0.2,,0.01,True\n"
    )
    # summaries with one bad row after a good one
    good_row = "0,0.5,0.1,0.2,0.5,0.125,True,ok,\n"
    summaries = {"bound_x": "1,0.5,0.1,0.2,x,0.125,True,ok,", "short_row": "1,0.5,0.1",
                 "status_maybe": "1,0.5,0.1,0.2,0.5,0.125,True,maybe,"}
    for name, row in summaries.items():
        (root / name).mkdir()
        (root / name / "summary.csv").write_text(
            "seed,beta,cross_norm,gate,bound,empirical_norm,consistent,status,error\n"
            + good_row + row + "\n"
        )
    (root / "not_utf8").mkdir()
    (root / "not_utf8" / "summary.csv").write_bytes(
        b"seed,beta,cross_norm,gate,bound,empirical_norm,consistent,status,error\n"
        + good_row.encode() + b"1,0.5,0.1,0.2,0.5,0.125,True,failed,\xff\n"
    )
    (root / "bare").mkdir()
    selection = {"beta_star": 1.0, "window_length": 32, "window_overlap": 0.5}
    classifier = {
        "weights": [0.0], "feature_mean": [], "feature_scale": [], "dim": 0, "seen_tokens": []
    }
    # a classifier that fits the 5-channel series: 15 upper-triangle features
    fitting = {
        "weights": [0.0] * 16,
        "feature_mean": [0.0] * 15,
        "feature_scale": [1.0] * 15,
        "dim": 15,
        "seen_tokens": [],
    }
    corrupt = {
        "dim_fraction": {"dim": 15.7},
        "dim_string": {"dim": "15"},
        "tokens_string": {"seen_tokens": "abc"},
        "weights_short": {"weights": [0.0] * 15},
        "weights_null": {"weights": None},
    }
    broken = {
        **{
            f"classifier_{name}": (
                "selection.json",
                json.dumps({**selection, "classifier": {**fitting, **change}}),
            )
            for name, change in corrupt.items()
        },
        "bad_selection": ("selection.json", "{not json"),
        "bad_manifest": ("manifest.json", "{not json"),
        # Python refuses to parse an integer of more than 4300 digits
        "long_selection": ("selection.json", '{"beta_star": 1' + "0" * 5000 + "}"),
        "long_manifest": ("manifest.json", '{"count": 1' + "0" * 5000 + "}"),
        "no_entries": ("manifest.json", json.dumps({"count": 0, "meta": {}})),
        "selection_list": ("selection.json", "[]"),
        "classifier_list": ("selection.json", json.dumps({**selection, "classifier": []})),
        "length_not_int": (
            "selection.json",
            json.dumps({**selection, "window_length": "x", "classifier": classifier}),
        ),
        "length_fraction": (
            "selection.json",
            json.dumps({**selection, "window_length": 64.7, "classifier": classifier}),
        ),
        "length_string": (
            "selection.json",
            json.dumps({**selection, "window_length": "64", "classifier": classifier}),
        ),
        "beta_star_huge": (
            "selection.json",
            json.dumps({**selection, "beta_star": _HUGE, "classifier": fitting}),
        ),
    }
    for name, (file, text) in broken.items():
        (root / name).mkdir()
        (root / name / file).write_text(text)
    # copies of the good archive, each with one fault
    damaged = {
        "missing_matrix": {"file": "absent.csv"},
        "label_a": {"label": "a"},
        "label_true": {"label": True},
        "label_float": {"label": 1.0},
        "cell_x": {},
        "diagonal_3": {},
    }
    for name, change in damaged.items():
        shutil.copytree(features, root / name)
        manifest = json.loads((root / name / "manifest.json").read_text())
        manifest["entries"][0].update(change)
        (root / name / "manifest.json").write_text(json.dumps(manifest))
    shutil.copytree(features, root / "count_off")
    manifest = json.loads((root / "count_off" / "manifest.json").read_text())
    (root / "count_off" / "manifest.json").write_text(json.dumps({**manifest, "count": 99}))
    matrix = root / "cell_x" / "feature_00000.csv"
    text = matrix.read_text()
    matrix.write_text("x" + text[text.index(",") :])
    # a diagonal matrix: its off-diagonal magnitudes have zero spread
    matrix = root / "diagonal_3" / "feature_00003.csv"
    write_matrix_csv(np.diag(np.diag(read_matrix_csv(matrix))), matrix)
    return {
        "series": str(root / "series.csv"),
        "features": features,
        "no_classifier": str(no_classifier),
        "header_only": str(header_only),
        "no_status": str(no_status),
        "bare": str(root / "bare"),
        **{
            name: str(root / name)
            for name in [*broken, *damaged, *summaries, "count_off", "not_utf8"]
        },
    }


def _extract_config(inputs, channels):
    return {
        "schema_version": "1",
        "series_csv": inputs["series"],
        "window": {"length": 32},
        "beta": 1.0,
        "channels": channels,
    }


_SPLIT = {"train_frac": 0.6, "val_frac": 0.2, "test_frac": 0.2}
# a valid config of each verb that takes a ridge
_RIDGE_CONFIGS = {
    "extract": lambda d: _extract_config(d, [0, 1]),
    "select": lambda d: {"schema_version": "1", "series_csv": d["series"]},
    "evaluate": lambda d: {
        "schema_version": "1",
        "series_csv": d["series"],
        "selection_dir": d["bare"],
        "split": _SPLIT,
    },
    "pipeline": lambda d: two_class_pipeline_config(),
}
_HUGE = 10**400  # a JSON integer no float or 64-bit int holds
_ER = {"type": "er", "n_obs": 3, "n_lat": 2, "p_obs": 0.9, "p_lat": 0.9, "p_cross": 0.5}

BAD_CONFIGS = [
    # negative seeds
    pytest.param(
        "simulate",
        lambda d: _set(minimal_simulate_config(), "samples.seed", -1),
        2,
        "config.samples.seed",
        id="simulate-samples-seed",
    ),
    pytest.param(
        "simulate",
        lambda d: _set(minimal_simulate_config(), "graph", {**_ER, "seed": -1}),
        2,
        "config.graph.seed",
        id="simulate-graph-seed",
    ),
    pytest.param(
        "verify",
        lambda d: _set(TestVerify().verify_config(count=2), "seeds.start", -1),
        2,
        "config.seeds.start",
        id="verify-seeds-start",
    ),
    pytest.param(
        "select",
        lambda d: {
            "schema_version": "1",
            "series_csv": d["series"],
            "split": {**_SPLIT, "seed": -1},
        },
        2,
        "config.split.seed",
        id="select-split-seed",
    ),
    pytest.param(
        "pipeline",
        lambda d: _set(two_class_pipeline_config(), "series.seed", -1),
        2,
        "config.series.seed",
        id="pipeline-series-seed",
    ),
    pytest.param(
        "pipeline",
        lambda d: _set(two_class_pipeline_config(), "classes.0.graph.seed", -1),
        2,
        "config.classes[0].graph.seed",
        id="pipeline-class-graph-seed",
    ),
    pytest.param(
        "pipeline",
        lambda d: _set(two_class_pipeline_config(), "signatures", {"seed": -1}),
        2,
        "config.signatures.seed",
        id="pipeline-signatures-seed",
    ),
    pytest.param(
        "signatures",
        lambda d: {"schema_version": "1", "features_dir": d["features"], "gmm": {"seed": -1}},
        2,
        "config.gmm.seed",
        id="signatures-gmm-seed",
    ),
    # negative or NaN tolerances, which would run every fit to max_iter
    pytest.param(
        "select",
        lambda d: {"schema_version": "1", "series_csv": d["series"], "tol": -1e-8},
        2,
        "config.tol: must be >= 0.0",
        id="select-negative-tol",
    ),
    pytest.param(
        "select",
        lambda d: {"schema_version": "1", "series_csv": d["series"], "tol": math.nan},
        2,
        "config.tol: must be >= 0.0",
        id="select-nan-tol",
    ),
    pytest.param(
        "pipeline",
        lambda d: _set(two_class_pipeline_config(), "tol", -1),
        2,
        "config.tol: must be >= 0.0",
        id="pipeline-negative-tol",
    ),
    pytest.param(
        "signatures",
        lambda d: {"schema_version": "1", "features_dir": d["features"], "gmm": {"tol": -0.5}},
        2,
        "config.gmm.tol: must be >= 0.0",
        id="signatures-gmm-negative-tol",
    ),
    # infinite tolerances, which stop EM and Newton at once; and bad l2 penalties,
    # which score every power 0 and write zero weights
    pytest.param(
        "select",
        lambda d: {"schema_version": "1", "series_csv": d["series"], "tol": math.inf},
        2,
        "config.tol: must be finite",
        id="select-inf-tol",
    ),
    pytest.param(
        "select",
        lambda d: {"schema_version": "1", "series_csv": d["series"], "tol": -math.inf},
        2,
        "config.tol: must be >= 0.0",
        id="select-minus-inf-tol",
    ),
    pytest.param(
        "signatures",
        lambda d: {"schema_version": "1", "features_dir": d["features"], "gmm": {"tol": math.inf}},
        2,
        "config.gmm.tol: must be finite",
        id="signatures-gmm-inf-tol",
    ),
    pytest.param(
        "select",
        lambda d: {"schema_version": "1", "series_csv": d["series"], "l2": math.nan},
        2,
        "config.l2: must be >= 0.0",
        id="select-nan-l2",
    ),
    pytest.param(
        "select",
        lambda d: {"schema_version": "1", "series_csv": d["series"], "l2": math.inf},
        2,
        "config.l2: must be finite",
        id="select-inf-l2",
    ),
    pytest.param(
        "select",
        lambda d: {"schema_version": "1", "series_csv": d["series"], "l2": -1e-3},
        2,
        "config.l2: must be >= 0.0",
        id="select-negative-l2",
    ),
    pytest.param(
        "pipeline",
        lambda d: _set(two_class_pipeline_config(), "l2", math.inf),
        2,
        "config.l2: must be finite",
        id="pipeline-inf-l2",
    ),
    # bad ridges, which fail every window's SPD check (NaN) or overflow (inf)
    *[
        pytest.param(
            verb,
            lambda d, verb=verb, ridge=ridge: {**_RIDGE_CONFIGS[verb](d), "ridge": ridge},
            2,
            f"config.ridge: {where}",
            id=f"{verb}-{name}-ridge",
        )
        for verb, name, ridge, where in (
            ("extract", "nan", math.nan, "must be >= 0.0"),
            ("extract", "inf", math.inf, "must be finite"),
            ("extract", "negative", -1e-6, "must be >= 0.0"),
            ("select", "nan", math.nan, "must be >= 0.0"),
            ("select", "inf", math.inf, "must be finite"),
            ("evaluate", "nan", math.nan, "must be >= 0.0"),
            ("evaluate", "minus-inf", -math.inf, "must be >= 0.0"),
            ("pipeline", "negative", -1.0, "must be >= 0.0"),
        )
    ],
    # list elements
    pytest.param(
        "simulate",
        lambda d: _set(minimal_simulate_config(), "graph.edges", [1, 2]),
        2,
        "config.graph.edges[0]",
        id="edge-not-a-list",
    ),
    pytest.param(
        "simulate",
        lambda d: _set(minimal_simulate_config(), "graph.edges", [[0, 1]]),
        2,
        "config.graph.edges[0]",
        id="edge-too-short",
    ),
    pytest.param(
        "simulate",
        lambda d: _set(minimal_simulate_config(), "graph.edges", [[0.9, 1.7, 0.5]]),
        2,
        "config.graph.edges[0]",
        id="edge-float-nodes",
    ),
    pytest.param(
        "simulate",
        lambda d: _set(minimal_simulate_config(), "graph.observed", ["x"]),
        2,
        "config.graph.observed[0]",
        id="observed-string",
    ),
    pytest.param(
        "extract",
        lambda d: _extract_config(d, ["a"]),
        2,
        "config.channels[0]",
        id="channel-string",
    ),
    # channels outside the series
    pytest.param(
        "extract",
        lambda d: _extract_config(d, [7]),
        3,
        "channel index 7",
        id="channel-too-high",
    ),
    pytest.param(
        "extract",
        lambda d: _extract_config(d, [-1]),
        3,
        "channel index -1",
        id="channel-negative",
    ),
    pytest.param(
        "extract",
        lambda d: _extract_config(d, [0, 1, 0]),
        3,
        "channel index 0 is repeated",
        id="channel-repeated",
    ),
    pytest.param(
        "extract",
        lambda d: _extract_config(d, []),
        3,
        "samples must be a nonempty 2-d array",
        id="channels-empty",
    ),
    # malformed input files
    pytest.param(
        "evaluate",
        lambda d: {
            "schema_version": "1",
            "series_csv": d["series"],
            "selection_dir": d["no_classifier"],
            "split": _SPLIT,
        },
        2,
        "selection.json: selection.classifier: required key missing",
        id="selection-without-classifier",
    ),
    pytest.param(
        "evaluate",
        lambda d: {
            "schema_version": "1",
            "series_csv": d["series"],
            "selection_dir": d["bad_selection"],
            "split": _SPLIT,
        },
        2,
        "selection.json: not valid JSON",
        id="selection-not-json",
    ),
    pytest.param(
        "geometry",
        lambda d: {"schema_version": "1", "features_dir": d["bad_manifest"]},
        2,
        "manifest.json: not valid JSON",
        id="manifest-not-json",
    ),
    pytest.param(
        "evaluate",
        lambda d: {
            "schema_version": "1",
            "series_csv": d["series"],
            "selection_dir": d["long_selection"],
            "split": _SPLIT,
        },
        2,
        "selection.json: not valid JSON",
        id="selection-integer-past-digit-limit",
    ),
    pytest.param(
        "geometry",
        lambda d: {"schema_version": "1", "features_dir": d["long_manifest"]},
        2,
        "manifest.json: not valid JSON",
        id="manifest-integer-past-digit-limit",
    ),
    pytest.param(
        "signatures",
        lambda d: {"schema_version": "1", "features_dir": d["no_entries"]},
        2,
        "manifest.json: manifest.entries: required key missing",
        id="manifest-without-entries",
    ),
    *[
        pytest.param(
            "evaluate",
            lambda d, name=name: {
                "schema_version": "1",
                "series_csv": d["series"],
                "selection_dir": d[name],
                "split": _SPLIT,
            },
            2,
            f"selection.json: selection{where}",
            id=name.replace("_", "-"),
        )
        for name, where in (
            ("selection_list", ": expected dict, got list"),
            ("classifier_list", ".classifier: expected dict, got list"),
            ("length_not_int", ".window_length: expected int, got str"),
        )
    ],
    *[
        pytest.param(
            "evaluate",
            lambda d, name=name: {
                "schema_version": "1",
                "series_csv": d["series"],
                "selection_dir": d[name],
                "split": _SPLIT,
            },
            2,
            f"selection.json: selection.window_length: expected int, got {kind}",
            id=name.replace("_", "-"),
        )
        for name, kind in (("length_fraction", "float"), ("length_string", "str"))
    ],
    *[
        pytest.param(
            "evaluate",
            lambda d, name=name: {
                "schema_version": "1",
                "series_csv": d["series"],
                "selection_dir": d[name],
                "split": _SPLIT,
            },
            2,
            f"selection.json: selection.classifier.{where}",
            id=name.replace("_", "-"),
        )
        for name, where in (
            ("classifier_dim_fraction", "dim: expected int, got float"),
            ("classifier_dim_string", "dim: expected int, got str"),
            ("classifier_tokens_string", "seen_tokens: expected list, got str"),
            ("classifier_weights_short", "weights: expected exactly 16 entries, got 15"),
            ("classifier_weights_null", "weights: expected list, got NoneType"),
        )
    ],
    # numbers too large for their kind
    pytest.param(
        "simulate",
        lambda d: _set(minimal_simulate_config(), "model.kappa", _HUGE),
        2,
        "config.model.kappa: number too large for a float",
        id="simulate-kappa-huge",
    ),
    pytest.param(
        "verify",
        lambda d: _set(TestVerify().verify_config(count=2), "seeds.count", _HUGE),
        2,
        "config.seeds.count: integer outside the signed 64-bit range",
        id="verify-count-huge",
    ),
    pytest.param(
        "evaluate",
        lambda d: {
            "schema_version": "1",
            "series_csv": d["series"],
            "selection_dir": d["beta_star_huge"],
            "split": _SPLIT,
        },
        2,
        "selection.beta_star: number too large for a float",
        id="evaluate-beta-star-huge",
    ),
    # strings outside their allowed set
    pytest.param(
        "verify",
        lambda d: {**TestVerify().verify_config(count=2), "method": "pade"},
        2,
        "config.method: expected 'eig' or 'stieltjes' or 'contour', got 'pade'",
        id="verify-method-unknown",
    ),
    pytest.param(
        "signatures",
        lambda d: {"schema_version": "1", "features_dir": d["features"], "mode": "per_matrix"},
        2,
        "config.mode: expected 'class-mean' or 'per-matrix', got 'per_matrix'",
        id="signatures-mode-unknown",
    ),
    pytest.param(
        "pipeline",
        lambda d: _set(two_class_pipeline_config(), "signatures", {"mode": "per_matrix"}),
        2,
        "config.signatures.mode: expected 'class-mean' or 'per-matrix', got 'per_matrix'",
        id="pipeline-signatures-mode-unknown",
    ),
    pytest.param(
        "signatures",
        lambda d: {"schema_version": "1", "features_dir": d["diagonal_3"], "mode": "per-matrix"},
        3,
        "class 0, matrix 3: values have zero spread; nothing to separate",
        id="per-matrix-zero-spread",
    ),
    pytest.param(
        "geometry",
        lambda d: {"schema_version": "1", "features_dir": d["missing_matrix"]},
        3,
        "absent.csv: cannot read a matrix",
        id="archive-missing-matrix",
    ),
    pytest.param(
        "signatures",
        lambda d: {"schema_version": "1", "features_dir": d["cell_x"]},
        3,
        "feature_00000.csv: cannot read a matrix",
        id="archive-matrix-cell-x",
    ),
    *[
        pytest.param(
            verb,
            lambda d, _name=name: {"schema_version": "1", "features_dir": d[_name]},
            2,
            f"manifest.json: manifest.entries[0].label: expected int, got {shown}",
            id=f"{verb}-{name.replace('_', '-')}",
        )
        for verb in ("geometry", "signatures")
        # a bool or a float label is not the integer class it equals
        for name, shown in (("label_a", "str"), ("label_true", "bool"), ("label_float", "float"))
    ],
    pytest.param(
        "report",
        lambda d: {"schema_version": "1", "runs": [d["header_only"]]},
        2,
        "summary.csv has no rows",
        id="summary-header-only",
    ),
    pytest.param(
        "report",
        lambda d: {"schema_version": "1", "runs": [d["no_status"]]},
        2,
        "summary.csv: line 2: status: required key missing",
        id="summary-without-status",
    ),
    *[
        pytest.param(
            "report",
            lambda d, name=name: {"schema_version": "1", "runs": [d[name]]},
            2,
            f"summary.csv: line 3: {where}",
            id=f"summary-{name.replace('_', '-')}",
        )
        for name, where in (
            ("bound_x", "bound: expected float, got 'x'"),
            ("short_row", "status: required key missing"),
            ("status_maybe", "status: expected 'ok' or 'failed', got 'maybe'"),
        )
    ],
    # byte 0xff, which no UTF-8 text holds: a traceback before, now a fault naming the file
    pytest.param(
        "report",
        lambda d: {"schema_version": "1", "runs": [d["not_utf8"]]},
        2,
        "summary.csv: not valid UTF-8: 'utf-8' codec can't decode byte 0xff",
        id="summary-not-utf8",
    ),
    pytest.param(
        "report",
        lambda d: b'{"schema_version": "1", "runs": ["\xff"]}',
        2,
        "bad.json: not valid JSON: 'utf-8' codec can't decode byte 0xff",
        id="config-not-utf8",
    ),
    pytest.param(
        "geometry",
        lambda d: {"schema_version": "1", "features_dir": d["count_off"]},
        2,
        "manifest.json: manifest.entries: expected exactly 99 entries, got",
        id="manifest-count-off",
    ),
    pytest.param(
        "geometry",
        lambda d: {"schema_version": "1", "features_dir": d["bare"]},
        2,
        "no manifest.json under",
        id="geometry-no-manifest",
    ),
    pytest.param(
        "signatures",
        lambda d: {"schema_version": "1", "features_dir": d["bare"]},
        2,
        "no manifest.json under",
        id="signatures-no-manifest",
    ),
    # a gate target of 0 deleted the cross block, an infinite one shrank nothing,
    # a negative or NaN one failed every seed, and one above 1 left seeds uncertified
    *[
        pytest.param(
            "verify",
            lambda d, value=value: TestVerify().verify_config(count=2, gate_frac=value),
            code,
            where,
            id=f"verify-gate-target-{name}",
        )
        for name, value, code, where in (
            ("zero", 0.0, 3, "gate_target_fraction must lie in (0, 1], got 0.0"),
            # above 1 a seed could end with every gate unsatisfied
            ("above-one", 3.0, 3, "gate_target_fraction must lie in (0, 1], got 3.0"),
            ("negative", -0.5, 2, "config.gate_target_fraction: must be >= 0.0"),
            ("nan", math.nan, 2, "config.gate_target_fraction: must be >= 0.0"),
            ("inf", math.inf, 2, "config.gate_target_fraction: must be finite"),
        )
    ],
    # a max_iter below 1 skipped every fit and scored every power 0
    *[
        pytest.param(
            "select",
            lambda d, v=value: {"schema_version": "1", "series_csv": d["series"], "max_iter": v},
            2,
            "config.max_iter: must be >= 1",
            id=f"select-max-iter-{value}",
        )
        for value in (0, -3)
    ],
    pytest.param(
        "pipeline",
        lambda d: _set(two_class_pipeline_config(), "max_iter", 0),
        2,
        "config.max_iter: must be >= 1",
        id="pipeline-max-iter-0",
    ),
    # gmm.max_iter 0 reached the EM fit's own check (exit 3)
    pytest.param(
        "signatures",
        lambda d: {"schema_version": "1", "features_dir": d["features"], "gmm": {"max_iter": 0}},
        2,
        "config.gmm.max_iter: must be >= 1",
        id="signatures-gmm-max-iter-0",
    ),
    # checks no other case reached
    pytest.param(
        "simulate",
        lambda d: _set(minimal_simulate_config(), "graph", 5),
        2,
        "config.graph: expected dict, got int",
        id="simulate-graph-not-an-object",
    ),
    pytest.param(
        "evaluate",
        lambda d: {**_RIDGE_CONFIGS["evaluate"](d), "selection_dir": d["bare"]},
        2,
        "config.selection_dir: no selection.json under",
        id="evaluate-no-selection",
    ),
    pytest.param(
        "report",
        lambda d: {"schema_version": "1", "runs": []},
        2,
        "config.runs: need at least one verify run directory",
        id="report-no-runs",
    ),
]


@pytest.mark.parametrize("verb, make_config, code, where", BAD_CONFIGS)
def test_bad_input_exits_with_its_location(
    tmp_path, capsys, bad_config_inputs, verb, make_config, code, where
):
    path = write_config(tmp_path, "bad.json", make_config(bad_config_inputs))
    run = tmp_path / "run"
    assert main([verb, "--config", path, "--out", str(run)]) == code
    err = json.loads(capsys.readouterr().err)
    assert err["exit_code"] == code
    assert where in err["message"]
    assert not run.exists()


def _checked(verb, config):
    """The config as the verb checks it, defaults filled in."""
    table = {**_VERSION, **_TABLES[verb]}
    return load_json(json.dumps(config), "config.json", table, "config", strict=True)


def test_zero_l2_is_legal():
    select = {"schema_version": "1", "series_csv": "s.csv", "l2": 0}
    assert _checked("select", select)["l2"] == 0.0


def test_zero_ridge_is_legal():
    inputs = {"series": "s.csv", "bare": "b"}
    for verb, make_config in _RIDGE_CONFIGS.items():
        config = {**make_config(inputs), "ridge": 0}
        assert _checked(verb, config)["ridge"] == 0.0, verb


def test_zero_tol_is_legal():
    # tol 0 fits to max_iter, and the line-search tests rely on it
    select = {"schema_version": "1", "series_csv": "s.csv", "tol": 0}
    signatures = {"schema_version": "1", "features_dir": "f", "gmm": {"tol": 0.0}}
    assert _checked("select", select)["tol"] == 0.0
    pipeline = _set(two_class_pipeline_config(), "tol", 0)
    assert _checked("pipeline", pipeline)["tol"] == 0.0
    assert _checked("signatures", signatures)["gmm"]["tol"] == 0.0


@pytest.mark.parametrize(
    "error, code", [(CovpowError, 1), (ConfigError, 2), (DomainError, 3), (NumericalError, 4)]
)
def test_error_class_gives_its_exit_code(tmp_path, capsys, monkeypatch, error, code):
    def fail(cfg, run_dir):
        raise error("boom")

    monkeypatch.setitem(cli._COMMANDS, "report", fail)
    path = write_config(tmp_path, "report.json", {"schema_version": "1", "runs": []})
    assert main(["report", "--config", path, "--out", str(tmp_path / "run")]) == code
    want = f'{{"error": "{error.__name__}", "exit_code": {code}, "message": "boom"}}\n'
    assert capsys.readouterr().err == want


class TestSimulate:
    def test_minimal_round_trip(self, tmp_path, capsys):
        config = minimal_simulate_config()
        path = write_config(tmp_path, "sim.json", config)
        run = tmp_path / "run"
        code = main(["simulate", "--config", path, "--out", str(run)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["run_dir"] == str(run)
        model = json.loads((run / "model.json").read_text())
        assert model["kappa"] == 1.0 and model["alpha"] == 1.0
        graph = WeightedGraph.from_edges(model["graph"]["n"], model["graph"]["edges"])
        assert graph.adjacency[0, 1] == 0.5
        assert model["seed"] == 3
        samples = np.loadtxt(run / "samples.csv", delimiter=",", skiprows=1, ndmin=2)
        assert samples.shape == (8, 2)
        part = json.loads((run / "partition.json").read_text())
        assert part == {"observed": [0], "latent": [1]}
        manifest = json.loads((run / "manifest.json").read_text())
        assert set(manifest["artifacts"]) == {
            "model.json",
            "samples.csv",
            "partition.json",
        }

    def test_same_seed_byte_identical(self, tmp_path):
        config = minimal_simulate_config()
        path = write_config(tmp_path, "sim.json", config)
        run_a, run_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", path, "--out", str(run_a)]) == 0
        assert main(["simulate", "--config", path, "--out", str(run_b)]) == 0
        for name in ("model.json", "samples.csv", "partition.json"):
            assert (run_a / name).read_bytes() == (run_b / name).read_bytes()
        m_a = json.loads((run_a / "manifest.json").read_text())
        m_b = json.loads((run_b / "manifest.json").read_text())
        assert m_a["artifacts"] == m_b["artifacts"]

    def test_rho_violation_exit_3_no_partial_output(self, tmp_path, capsys):
        config = minimal_simulate_config()
        # heavy edge pushes the shifted operator's radius past 1
        config["graph"]["edges"] = [[0, 1, 50.0]]
        path = write_config(tmp_path, "sim.json", config)
        run = tmp_path / "run"
        code = main(["simulate", "--config", path, "--out", str(run)])
        assert code == 3
        assert not run.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["exit_code"] == 3

    def test_overflowing_degree_exit_3_without_warning(self, tmp_path, capsys):
        # finite weights near the float maximum, whose degree sums overflow
        config = minimal_simulate_config()
        config["graph"] = {
            "type": "er", "n_obs": 4, "n_lat": 2, "p_obs": 0.8, "p_lat": 0.8, "p_cross": 0.5,
            "weight_low": 1e307, "weight_high": 1e308, "seed": 0,
        }
        path = write_config(tmp_path, "sim.json", config)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["simulate", "--config", path, "--out", str(tmp_path / "run")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == "degree of node 0 overflows the float range"

    @pytest.mark.parametrize(
        "edge, kappa, message",
        [
            (0.5, 1e200, "kappa 1e+200 squared overflows the float range"),
            (1e308, 1.0, "interaction operator diagonal kappa^2*d + d at node 0 overflows "
             "the float range (kappa 1, degree 1e+308)"),
        ],
    )
    def test_overflowing_operator_exit_3_naming_kappa_or_node(
        self, tmp_path, capsys, edge, kappa, message
    ):
        config = minimal_simulate_config()
        config["graph"]["edges"] = [[0, 1, edge]]
        config["model"]["kappa"] = kappa
        path = write_config(tmp_path, "sim.json", config)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["simulate", "--config", path, "--out", str(tmp_path / "run")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == message

    def test_er_graph_form(self, tmp_path):
        config = {
            "schema_version": "1",
            "graph": {
                "type": "er",
                "n_obs": 5,
                "n_lat": 3,
                "p_obs": 0.9,
                "p_lat": 0.8,
                "p_cross": 0.5,
                "seed": 4,
            },
            "model": {"kappa": 1.0, "alpha": 2.0, "sigma": 1.0},
            "samples": {"n_samples": 4, "seed": 0},
        }
        path = write_config(tmp_path, "sim.json", config)
        run = tmp_path / "run"
        assert main(["simulate", "--config", path, "--out", str(run)]) == 0
        samples = np.loadtxt(run / "samples.csv", delimiter=",", skiprows=1, ndmin=2)
        assert samples.shape == (4, 8)


class TestVerify:
    def verify_config(self, count=10, p_cross=0.4, gate_frac=None):
        # p_obs=0.5 keeps both edge and non-edge pairs in every observed
        # block for these seeds, so the structure check always applies
        config = {
            "schema_version": "1",
            "graph": {
                "type": "er",
                "n_obs": 5,
                "n_lat": 3,
                "p_obs": 0.5,
                "p_lat": 0.9,
                "p_cross": p_cross,
            },
            "model": {"kappa": 1.0, "alpha": 2.0, "sigma": 1.0},
            "seeds": {"start": 0, "count": count},
        }
        if gate_frac is not None:
            config["gate_target_fraction"] = gate_frac
        return config

    def test_batch_counts(self, tmp_path):
        path = write_config(tmp_path, "verify.json", self.verify_config(count=10))
        run = tmp_path / "run"
        assert main(["verify", "--config", path, "--out", str(run)]) == 0
        reports = sorted(run.glob("report_*.json"))
        assert len(reports) == 10
        rows = (run / "summary.csv").read_text().strip().split("\n")
        assert len(rows) == 11  # header + 10 seeds
        assert rows[0] == (
            "seed,beta,cross_norm,gate,bound,empirical_norm,consistent,status,error"
        )

    def test_overflowing_degree_exit_3_without_warning(self, tmp_path, capsys):
        # node 1 of the path sums two 1e308 edges; every seed draws that graph
        config = {**self.verify_config(count=2), "gate_target_fraction": 0.5}
        config["graph"] = {
            "type": "explicit", "n": 4, "observed": [0, 1],
            "edges": [[0, 1, 1e308], [1, 2, 1e308], [2, 3, 1e308]],
        }
        path = write_config(tmp_path, "verify.json", config)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["verify", "--config", path, "--out", str(tmp_path / "run")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == "degree of node 1 overflows the float range"

    @pytest.mark.parametrize(
        "kappa, alpha, sigma, beta",
        [(1e76, 1.0, 2e77, 2.0), (1e75, 2.0, 1e150, -2.0)],
        ids=["power-overflows", "power-underflows"],
    )
    def test_threshold_out_of_float_range_exit_3_naming_sigma_and_beta(
        self, tmp_path, capsys, kappa, alpha, sigma, beta
    ):
        # sigma ** (2 * beta) in a_min / (2 sigma^(2 beta)) once escaped as a bare
        # OverflowError, or underflowed to 0 and raised ZeroDivisionError
        config = {**self.verify_config(count=1), "beta": beta}
        config["graph"] = {
            "type": "explicit", "n": 4, "observed": [0, 1, 2],
            "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 0.5], [0, 3, 0.7]],
        }
        config["model"] = {"kappa": kappa, "alpha": alpha, "sigma": sigma}
        path = write_config(tmp_path, "verify.json", config)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["verify", "--config", path, "--out", str(tmp_path / "run")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == (
            f"consistency threshold out of float range at sigma {sigma}, beta {beta}"
        )
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("alpha", [0.0, -0.0], ids=["zero", "negative-zero"])
    @pytest.mark.parametrize("gate_frac", [None, 0.5], ids=["ungated", "gated"])
    def test_zero_alpha_exit_3_naming_alpha(self, tmp_path, capsys, alpha, gate_frac):
        # gated without a beta, the default beta 1/alpha once raised ZeroDivisionError
        config = self.verify_config(count=2, gate_frac=gate_frac)
        config["model"]["alpha"] = alpha
        path = write_config(tmp_path, "verify.json", config)
        assert main(["verify", "--config", path, "--out", str(tmp_path / "run")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == f"alpha must be a nonzero real, got {alpha}"

    def test_overflowing_operator_while_gating_exit_3_naming_the_node(self, tmp_path, capsys):
        # kappa^2 * d overflows at node 0 (and 1), which once reached eigvalsh
        # as inf and raised LinAlgError from inside shrink_to_gate
        config = {
            **self.verify_config(count=2), "gate_target_fraction": 0.5, "method": "stieltjes",
        }
        config["graph"] = {
            "type": "explicit", "n": 3, "observed": [0, 1, 2],
            "edges": [[0, 1, 6.011359218397805e222]],
        }
        config["model"] = {
            "kappa": 5.349160871662303e105, "alpha": 7.951596100375642,
            "sigma": 3.564494004951595e144,
        }
        path = write_config(tmp_path, "verify.json", config)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["verify", "--config", path, "--out", str(tmp_path / "run")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["message"].startswith("interaction operator diagonal kappa^2*d + d at node 0 ")

    def test_stieltjes_route_matches_eig(self, tmp_path):
        runs = {}
        for method in ("eig", "stieltjes"):
            config = {**self.verify_config(count=3), "method": method}
            path = write_config(tmp_path, f"{method}.json", config)
            runs[method] = tmp_path / method
            assert main(["verify", "--config", path, "--out", str(runs[method])]) == 0
        for seed in range(3):
            name = f"report_{seed:05d}.json"
            eig, sti = (json.loads((run / name).read_text()) for run in runs.values())
            for key in ("delta_spectral_norm", "delta_osc"):
                assert sti.pop(key) == pytest.approx(eig.pop(key), rel=1e-10, abs=0)
            assert sti == eig

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_stieltjes_route_at_a_third(self, tmp_path):
        # beta = 1/alpha = 1/3 is one of the betas whose Jacobi nodes divide
        # by zero inside scipy; the batch must not see that warning
        config = {**self.verify_config(count=5), "method": "stieltjes"}
        config["model"]["alpha"] = 3.0
        path = write_config(tmp_path, "verify.json", config)
        run = tmp_path / "run"
        assert main(["verify", "--config", path, "--out", str(run)]) == 0
        rows = (run / "summary.csv").read_text().strip().split("\n")[1:]
        assert [row.split(",")[:2] for row in rows] == [
            [str(seed), "0.3333333333333333"] for seed in range(5)
        ]
        assert all(row.endswith(",ok,") for row in rows)

    def test_gated_batch_all_consistent(self, tmp_path):
        config = self.verify_config(count=6, gate_frac=0.5)
        # seed 4 draws a node with only cross edges, which cannot be gated
        config["seeds"] = {"start": 5, "count": 6}
        path = write_config(tmp_path, "verify.json", config)
        run = tmp_path / "run"
        assert main(["verify", "--config", path, "--out", str(run)]) == 0
        rows = (run / "summary.csv").read_text().strip().split("\n")[1:]
        assert all(row.endswith(",True,ok,") for row in rows)

    def test_failed_seed_fails_alone(self, tmp_path):
        # seed 4 draws a node with only cross edges, which cannot be gated
        config = self.verify_config(count=3, gate_frac=0.5)
        config["seeds"] = {"start": 3, "count": 3}
        path = write_config(tmp_path, "verify.json", config)
        run = tmp_path / "run"
        assert main(["verify", "--config", path, "--out", str(run)]) == 0
        reports = sorted(p.name for p in run.glob("report_*.json"))
        assert reports == ["report_00003.json", "report_00005.json"]
        with open(run / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["seed"], r["status"]) for r in rows] == [
            ("3", "ok"), ("4", "failed"), ("5", "ok")
        ]
        assert "held up only by cross-block edges" in rows[1]["error"]
        assert rows[1]["consistent"] == rows[1]["beta"] == "" and rows[0]["error"] == ""
        # a good seed's report does not depend on a failed neighbour
        config["seeds"] = {"start": 5, "count": 1}
        alone = tmp_path / "alone"
        path = write_config(tmp_path, "alone.json", config)
        assert main(["verify", "--config", path, "--out", str(alone)]) == 0
        name = "report_00005.json"
        assert (run / name).read_bytes() == (alone / name).read_bytes()
        # exact bytes: a failed seed's empty cells, and at beta != 1/alpha, where
        # no gate applies and so nothing is shrunk, a seed with no gate or bound
        assert (run / "summary.csv").read_bytes().split(b"\r\n")[2] == (
            f"4,,,,,,,failed,{rows[1]['error']}".encode()
        )
        del config["gate_target_fraction"]
        config["beta"] = 0.7
        path = write_config(tmp_path, "beta.json", config)
        assert main(["verify", "--config", path, "--out", str(tmp_path / "beta")]) == 0
        rec = json.loads((tmp_path / "beta" / name).read_text())
        assert rec["gate_fractional"] is rec["gate_contour"] is rec["bound_fractional"] is None
        ok = (f"5,0.7,{rec['cross_norm']!r},,,"
              f"{rec['delta_spectral_norm']!r},{rec['empirically_consistent']},ok,")
        assert (tmp_path / "beta" / "summary.csv").read_bytes() == (
            "seed,beta,cross_norm,gate,bound,empirical_norm,consistent,status,error\r\n"
            f"{ok}\r\n"
        ).encode()

    def test_gate_shrink_factors_each_step_once(self, tmp_path, monkeypatch):
        config = self.verify_config(count=6, gate_frac=0.5)
        config["seeds"] = {"start": 5, "count": 6}
        path = write_config(tmp_path, "verify.json", config)
        calls, shrinking = Counter(), []

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += bool(shrinking)
                return real(*args, **kwargs)

            return wrapper

        def shrink(*args, _real=consistency.shrink_to_gate, **kwargs):
            shrinking.append(True)
            try:
                return _real(*args, **kwargs)
            finally:
                shrinking.pop()

        monkeypatch.setattr(cli, "shrink_to_gate", shrink)
        steps = counted("steps", consistency.certified_gates)
        monkeypatch.setattr(consistency, "certified_gates", steps)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        assert main(["verify", "--config", path, "--out", str(tmp_path / "run")]) == 0
        # one certified_gates call per shrink step, each on that step's one eigvalsh
        assert calls == {"steps": 12, "eigvalsh": 12}

    @settings(
        derandomize=True,
        deadline=None,
        max_examples=40,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        alpha=st.floats(0.5, 400.0),
        sigma=st.floats(1e-150, 1e200),
        gate_frac=st.sampled_from([None, 0.5]),
        start=st.integers(0, 100),
        count=st.just(2),
        method=st.sampled_from(["eig", "stieltjes"]),
    )
    # two 3-seed configs whose gate formulas left the float range with a traceback
    @example(alpha=320.0, sigma=1.0, gate_frac=0.5, start=0, count=3, method="eig")
    @example(alpha=2.0, sigma=1e200, gate_frac=0.5, start=0, count=3, method="eig")
    def test_any_smoothness_and_scale_exits_cleanly(
        self, tmp_path, capsys, alpha, sigma, gate_frac, start, count, method
    ):
        """A seed outside the float range fails alone; all failing exits 3, never raises."""
        config = {
            "schema_version": "1",
            "graph": {
                "type": "er", "n_obs": 7, "n_lat": 4, "p_obs": 0.5, "p_lat": 0.5, "p_cross": 0.15
            },
            "model": {"kappa": 1.0, "alpha": alpha, "sigma": sigma},
            "seeds": {"start": start, "count": count},
            "method": method,
        }
        if gate_frac is not None:
            config["gate_target_fraction"] = gate_frac
        run = Path(tempfile.mkdtemp(dir=tmp_path))
        path = write_config(run, "verify.json", config)
        code = main(["verify", "--config", path, "--out", str(run / "run")])
        out, err = capsys.readouterr()
        if code == 3:
            assert json.loads(err)["error"] == "DomainError"
            assert not (run / "run").exists()
        else:
            assert code == 0
            with open(run / "run" / "summary.csv", newline="") as fh:
                statuses = [row["status"] for row in csv.DictReader(fh)]
            assert len(statuses) == count and "ok" in statuses

    def test_singular_stieltjes_pencil_is_a_domain_error(self, tmp_path, capsys):
        # seed 58 makes a singular pencil, which escaped as a LinAlgError, and
        # seed 59 a matrix that is not positive definite, so the batch fails
        # whole with seed 58's error
        config = {
            "schema_version": "1",
            "graph": {
                "type": "er", "n_obs": 7, "n_lat": 4, "p_obs": 0.5, "p_lat": 0.5, "p_cross": 0.15
            },
            "model": {"kappa": 1.0, "alpha": 50.601084321778636, "sigma": 1.8257893695642337e18},
            "seeds": {"start": 58, "count": 2},
            "method": "stieltjes",
        }
        path = write_config(tmp_path, "verify.json", config)
        assert main(["verify", "--config", path, "--out", str(tmp_path / "run")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DomainError"
        assert err["message"].startswith("stieltjes power: a resolvent pencil is singular")

    def test_block_diagonal_batch_tiny_deltas(self, tmp_path):
        config = self.verify_config(count=5, p_cross=0.0)
        # denser blocks: with no cross edges a sparse draw can strand a node
        config["graph"]["p_obs"] = 0.7
        path = write_config(tmp_path, "verify.json", config)
        run = tmp_path / "run"
        assert main(["verify", "--config", path, "--out", str(run)]) == 0
        for report_path in run.glob("report_*.json"):
            rec = json.loads(report_path.read_text())
            assert rec["delta_spectral_norm"] <= 1e-10

    @pytest.mark.parametrize(
        "alpha, beta",
        [
            (-1.0, None),  # alpha < 0 with the default beta = 1/alpha
            (2.0, 0.7),  # a power not matched to the smoothness
        ],
    )
    def test_gate_target_without_applicable_gate_exit_3(self, tmp_path, capsys, alpha, beta):
        # neither gate applies
        config = self.verify_config(count=2, gate_frac=0.5)
        config["seeds"] = {"start": 5, "count": 2}
        config["model"]["alpha"] = alpha
        if beta is not None:
            config["beta"] = beta
        path = write_config(tmp_path, "verify.json", config)
        run = tmp_path / "run"
        assert main(["verify", "--config", path, "--out", str(run)]) == 3
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "DomainError"
        assert err["message"] == (
            "gate_target_fraction needs an applicable gate: beta = 1/alpha with alpha > 0, "
            f"got alpha={alpha}, beta={1 / alpha if beta is None else beta}"
        )
        assert not run.exists()


class TestExtractSelectEvaluate:
    def series_file(self, tmp_path, seed=0, t=384, channels=3):
        rng = np.random.default_rng(seed)
        half = t // 2
        k = channels
        c1 = np.linalg.cholesky(2.0 * (0.9 * np.ones((k, k)) + 0.1 * np.eye(k)))
        x0 = rng.standard_normal((half, k))
        x1 = rng.standard_normal((t - half, k)) @ c1.T
        series = LabeledSeries(
            samples=np.vstack([x0, x1]),
            labels=np.concatenate(
                [np.zeros(half, dtype=int), np.ones(t - half, dtype=int)]
            ),
        )
        path = tmp_path / "series.csv"
        write_series_csv(series, path)
        return str(path)

    def test_extract_archive(self, tmp_path):
        series_csv = self.series_file(tmp_path)
        config = {
            "schema_version": "1",
            "series_csv": series_csv,
            "window": {"length": 32, "overlap": 0.5},
            "beta": 0.5,
        }
        path = write_config(tmp_path, "extract.json", config)
        run = tmp_path / "run"
        assert main(["extract", "--config", path, "--out", str(run)]) == 0
        manifest = json.loads((run / "features" / "manifest.json").read_text())
        assert manifest["meta"]["beta"] == 0.5
        assert len(manifest["entries"]) == (384 - 32) // 16 + 1

    def test_select_then_evaluate(self, tmp_path):
        series_csv = self.series_file(tmp_path, seed=1)
        split = {"train_frac": 0.6, "val_frac": 0.2, "test_frac": 0.2, "seed": 2}
        select_config = {
            "schema_version": "1",
            "series_csv": series_csv,
            "window_grid": [{"length": 32, "overlap": 0.5}],
            "beta_grid": [0.5, 1.0],
            "split": split,
        }
        select_path = write_config(tmp_path, "select.json", select_config)
        select_run = tmp_path / "select-run"
        assert main(["select", "--config", select_path, "--out", str(select_run)]) == 0
        selection = json.loads((select_run / "selection.json").read_text())
        assert selection["beta_star"] in (0.5, 1.0)
        assert len(selection["per_beta_table"]) == 2

        eval_config = {
            "schema_version": "1",
            "series_csv": series_csv,
            "selection_dir": str(select_run),
            "split": split,
        }
        eval_path = write_config(tmp_path, "eval.json", eval_config)
        eval_run = tmp_path / "eval-run"
        assert main(["evaluate", "--config", eval_path, "--out", str(eval_run)]) == 0
        metrics = json.loads((eval_run / "test_metrics.json").read_text())
        assert metrics["tp"] + metrics["fp"] + metrics["tn"] + metrics["fn"] > 0
        assert metrics["accuracy"] >= 0.75

    @pytest.mark.parametrize("cell", ["abc", "2.0"])
    def test_malformed_series_csv_exit_3(self, tmp_path, capsys, cell):
        series_csv = Path(self.series_file(tmp_path, seed=3))
        lines = series_csv.read_text().splitlines()
        lines[5] = ",".join(lines[5].split(",")[:-1] + [cell])
        series_csv.write_text("\n".join(lines) + "\n")
        config = {"schema_version": "1", "series_csv": str(series_csv)}
        path = write_config(tmp_path, "select.json", config)
        assert main(["select", "--config", path, "--out", str(tmp_path / "run")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DomainError"
        assert f"line 6: cannot parse '{cell}'" in err["message"]
        assert not (tmp_path / "run").exists()

    def test_singleton_grid_selects_it(self, tmp_path):
        series_csv = self.series_file(tmp_path, seed=2)
        config = {
            "schema_version": "1",
            "series_csv": series_csv,
            "window_grid": [{"length": 32, "overlap": 0.5}],
            "beta_grid": [2.0],
        }
        path = write_config(tmp_path, "select.json", config)
        run = tmp_path / "run"
        assert main(["select", "--config", path, "--out", str(run)]) == 0
        selection = json.loads((run / "selection.json").read_text())
        assert selection["beta_star"] == 2.0


class TestGeometryAndSignatures:
    def archive(self, tmp_path):
        # 5 channels give 10 off-diagonal magnitudes, enough for the GMM
        series_csv = TestExtractSelectEvaluate().series_file(tmp_path, seed=3, channels=5)
        config = {
            "schema_version": "1",
            "series_csv": series_csv,
            "window": {"length": 32, "overlap": 0.5},
            "beta": 1.0,
        }
        path = write_config(tmp_path, "extract.json", config)
        run = tmp_path / "extract-run"
        assert main(["extract", "--config", path, "--out", str(run)]) == 0
        return str(run / "features")

    def test_geometry_report(self, tmp_path):
        features_dir = self.archive(tmp_path)
        config = {"schema_version": "1", "features_dir": features_dir}
        path = write_config(tmp_path, "geometry.json", config)
        run = tmp_path / "geo-run"
        assert main(["geometry", "--config", path, "--out", str(run)]) == 0
        report = json.loads((run / "identifiability.json").read_text())
        assert report["n_pairs"]["inter"] > 0
        pairwise = np.loadtxt(run / "pairwise.csv", delimiter=",", skiprows=1, ndmin=2)
        assert pairwise.shape[0] == pairwise.shape[1]

    def test_signatures_artifacts(self, tmp_path):
        features_dir = self.archive(tmp_path)
        config = {
            "schema_version": "1",
            "features_dir": features_dir,
            "mode": "class-mean",
        }
        path = write_config(tmp_path, "signatures.json", config)
        run = tmp_path / "sig-run"
        assert main(["signatures", "--config", path, "--out", str(run)]) == 0
        for label in (0, 1):
            meta = json.loads((run / f"signature_class{label}.json").read_text())
            assert meta["label"] == label
            assert meta["threshold"] > 0
            assert (run / f"signature_class{label}.csv").exists()


def _simulate_case(tmp_path):
    """A simulate config, its library result and the same read from a run."""
    config = {
        "schema_version": "1",
        "graph": {"type": "er", "n_obs": 5, "n_lat": 3, "p_obs": 0.6, "p_lat": 0.6,
                  "p_cross": 0.4, "seed": 4},
        "model": {"kappa": 1.0, "alpha": 2.0, "sigma": 1.0},
        "samples": {"n_samples": 4, "seed": 0},
    }

    def library(cfg):
        graph, _ = sample_inhomogeneous_er(
            **{key: val for key, val in cfg["graph"].items() if key != "type"}
        )
        model = MaternModel(graph=graph, **cfg["model"])
        return {**model_to_dict(model), "seed": cfg["samples"]["seed"]}

    return config, library, lambda run: json.loads((run / "model.json").read_text())


def _select_case(tmp_path):
    series_csv = TestExtractSelectEvaluate().series_file(tmp_path, seed=1)
    config = {
        "schema_version": "1",
        "series_csv": series_csv,
        "window_grid": [{"length": 32, "overlap": 0.5}],
        "beta_grid": [0.5, 1.0],
        "split": {"train_frac": 0.6, "val_frac": 0.2, "test_frac": 0.2, "seed": 2},
    }

    def library(cfg):
        fit = {key: cfg[key] for key in ("l2", "max_iter", "tol", "ridge") if key in cfg}
        result = select_beta(
            read_series_csv(cfg["series_csv"]),
            beta_grid=cfg["beta_grid"],
            window_grid=[WindowSpec(**rec) for rec in cfg["window_grid"]],
            split=SplitSpec(**cfg["split"]),
            **fit,
        )
        return json.loads(json.dumps(selection_to_dict(result)))

    return config, library, lambda run: json.loads((run / "selection.json").read_text())


def _signatures_case(tmp_path):
    config = {
        "schema_version": "1",
        "features_dir": TestGeometryAndSignatures().archive(tmp_path),
        "gmm": {},
    }

    def library(cfg):
        labels, _, stack = read_feature_archive(cfg["features_dir"])
        sigs = class_signatures(stack.values, labels, **cfg["gmm"])
        return {label: [sig.threshold, gmm_to_dict(sig.fit)] for label, sig in sigs.items()}

    def artifacts(run):
        metas = [json.loads((run / f"signature_class{label}.json").read_text()) for label in (0, 1)]
        return {meta["label"]: [meta["threshold"], meta["gmm"]] for meta in metas}

    return config, library, artifacts


@pytest.mark.parametrize(
    "verb, key, value",
    [
        ("simulate", "graph.weight_low", 0.1),
        ("simulate", "graph.weight_high", 3.0),
        ("simulate", "graph.target_rho", 0.8),
        ("select", "l2", 0.5),
        ("select", "max_iter", 2),
        ("select", "tol", 1e-2),
        ("select", "ridge", 0.5),
        ("select", "split.stratified", False),
        ("signatures", "gmm.max_iter", 2),
        ("signatures", "gmm.tol", 1e-2),
        ("signatures", "gmm.seed", 5),
    ],
)
def test_config_key_reaches_its_library_call(tmp_path, verb, key, value):
    """The run's artifact equals the library call given the key, which the key changes."""
    cases = {"simulate": _simulate_case, "select": _select_case, "signatures": _signatures_case}
    config, library, artifacts = cases[verb](tmp_path)
    without = library(config)
    want = library(_set(config, key, value))
    assert want != without
    path = write_config(tmp_path, f"{verb}.json", config)
    run = tmp_path / "run"
    assert main([verb, "--config", path, "--out", str(run)]) == 0
    assert artifacts(run) == want


class TestPipeline:
    def test_end_to_end_and_rerun_hash_stability(self, tmp_path):
        config = two_class_pipeline_config()
        path = write_config(tmp_path, "pipeline.json", config)
        run_a, run_b = tmp_path / "a", tmp_path / "b"
        assert main(["pipeline", "--config", path, "--out", str(run_a)]) == 0
        manifest = json.loads((run_a / "manifest.json").read_text())
        expected = {
            "series.csv",
            "model_class0.json",
            "model_class1.json",
            "selection.json",
            "selection_table.csv",
            "classifier.json",
            "test_metrics.json",
            "identifiability.json",
            "pairwise.csv",
            "signature_class0.csv",
            "signature_class0.json",
            "signature_class1.csv",
            "signature_class1.json",
        }
        assert set(manifest["artifacts"]) == expected
        assert main(["pipeline", "--config", path, "--out", str(run_b)]) == 0
        manifest_b = json.loads((run_b / "manifest.json").read_text())
        assert manifest["artifacts"] == manifest_b["artifacts"]

    def test_window_distances_computed_once(self, tmp_path, monkeypatch):
        calls = []
        real = covpow.cli.pairwise_distance_matrix
        monkeypatch.setattr(
            covpow.cli, "pairwise_distance_matrix", lambda s: calls.append(len(s)) or real(s)
        )
        path = write_config(tmp_path, "pipeline.json", two_class_pipeline_config())
        assert main(["pipeline", "--config", path, "--out", str(tmp_path / "run")]) == 0
        n = len((tmp_path / "run" / "pairwise.csv").read_text().splitlines()) - 1
        assert calls == [n]

    def test_singleton_beta_grid(self, tmp_path):
        config = two_class_pipeline_config()
        config["beta_grid"] = [1.0]
        path = write_config(tmp_path, "pipeline.json", config)
        run = tmp_path / "run"
        assert main(["pipeline", "--config", path, "--out", str(run)]) == 0
        selection = json.loads((run / "selection.json").read_text())
        assert selection["beta_star"] == 1.0

    def test_mismatched_observed_counts_rejected(self, tmp_path, capsys):
        config = two_class_pipeline_config()
        config["classes"][1]["graph"]["n_obs"] = 4
        path = write_config(tmp_path, "pipeline.json", config)
        code = main(["pipeline", "--config", path, "--out", str(tmp_path / "run")])
        assert code == 2


def test_verbs_fit_predict_and_vectorize_through_the_public_names(tmp_path, monkeypatch):
    """select, evaluate and pipeline reach the names the benchmark's tracer wraps."""
    calls = Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for owner, attr, name in (
        (pipeline, "train_linear_classifier", "fit"),
        (pipeline, "vectorize_feature", "vectorize"),
        (pipeline.LinearClassifier, "predict", "predict"),
    ):
        monkeypatch.setattr(owner, attr, counted(name, getattr(owner, attr)))
    # the search, in every covpow module that holds it, as the tracer wraps it
    real, search = pipeline.select_beta, counted("search", pipeline.select_beta)
    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "covpow"]:
        if getattr(module, "select_beta", None) is real:
            monkeypatch.setattr(module, "select_beta", search)
    # 384 samples in windows of 8 every 2 samples: 189 windows, two blocks of 128
    n, window = 189, {"length": 8, "overlap": 0.75}
    split = {"train_frac": 0.6, "val_frac": 0.2, "test_frac": 0.2, "seed": 2}
    fit = {"window_grid": [window], "beta_grid": [-1.0, 0.5, 2.0], "split": split}

    def run(verb, config):
        calls.clear()
        path = write_config(tmp_path, f"{verb}.json", {"schema_version": "1", **config})
        assert main([verb, "--config", path, "--out", str(tmp_path / verb)]) == 0
        return tmp_path / verb

    def fitted(run_dir):
        """The powers that did not fail, the train plus validation windows of each,
        and the vectorize calls of the selected power's cold refit.

        Each power's fit starts from the last one's weights, so a selected power
        that is not the first is refit from zero on its rebuilt train rows.
        """
        selection = json.loads((run_dir / "selection.json").read_text())
        table = selection["per_beta_table"]
        rows = [row for row in table if "error" not in row]

        def windows(row, parts):
            return sum(row[part][c] for part in parts for c in ("tp", "fp", "tn", "fn"))

        counts = {windows(row, ("train", "val")) for row in rows}
        assert len(counts) == 1
        selected = [row["beta"] for row in table].index(selection["beta_star"])
        warm = selected > 0 and "error" not in table[selected - 1]
        return len(rows), counts.pop(), warm * math.ceil(windows(rows[0], ("train",)) / 128)

    def tested(run_dir):
        m = json.loads((run_dir / "test_metrics.json").read_text())
        return m["tp"] + m["fp"] + m["tn"] + m["fn"]

    series_csv = TestExtractSelectEvaluate().series_file(tmp_path, seed=1)
    select_run = run("select", {"series_csv": series_csv, **fit})
    ok, n_fit, rebuilt = fitted(select_run)
    assert ok == 3 and rebuilt > 0
    # rows only for the windows fitted and scored: as many blocks as for all n here
    assert math.ceil(n_fit / 128) == math.ceil(n / 128)
    assert dict(calls) == {
        "search": 1, "fit": ok + 1, "predict": 2 * ok,
        "vectorize": ok * math.ceil(n_fit / 128) + rebuilt,
    }

    eval_run = run("evaluate", {"series_csv": series_csv, "selection_dir": str(select_run),
                                "split": split})
    assert dict(calls) == {"predict": 1, "vectorize": math.ceil(tested(eval_run) / 128)}

    pipeline_run = run("pipeline", {**two_class_pipeline_config(), **fit})
    ok, n_fit, rebuilt = fitted(pipeline_run)
    assert ok == 3
    vectorized = ok * math.ceil(n_fit / 128) + rebuilt + math.ceil(tested(pipeline_run) / 128)
    assert dict(calls) == {
        "search": 1, "fit": ok + (rebuilt > 0), "predict": 2 * ok + 1, "vectorize": vectorized
    }


class TestReport:
    def test_aggregates_verify_runs(self, tmp_path):
        verify_config = TestVerify().verify_config(count=5, gate_frac=0.5)
        verify_config["seeds"] = {"start": 5, "count": 5}
        vpath = write_config(tmp_path, "verify.json", verify_config)
        vrun = tmp_path / "verify-run"
        assert main(["verify", "--config", vpath, "--out", str(vrun)]) == 0
        report_config = {"schema_version": "1", "runs": [str(vrun)]}
        rpath = write_config(tmp_path, "report.json", report_config)
        rrun = tmp_path / "report-run"
        assert main(["report", "--config", rpath, "--out", str(rrun)]) == 0
        report = json.loads((rrun / "report.json").read_text())
        assert report["n_rows"] == 5
        assert report["n_failed"] == 0
        assert report["consistency_rate"] == 1.0
        if report["tightness"]["count"] > 0:
            assert 0 < report["tightness"]["min"]
            assert report["tightness"]["max"] <= 1.0

    def test_rates_skip_failed_rows(self, tmp_path):
        header = "seed,beta,cross_norm,gate,bound,empirical_norm,consistent,status,error\n"
        (tmp_path / "v").mkdir()
        (tmp_path / "v" / "summary.csv").write_text(
            header
            + "0,0.5,0.1,0.2,0.5,0.125,True,ok,\n"
            + "1,,,,,,,failed,a node is held up only by cross-block edges\n"
            + "2,0.5,0.1,0.2,0.5,0.375,False,ok,\n"
        )
        report_config = {"schema_version": "1", "runs": [str(tmp_path / "v")]}
        rpath = write_config(tmp_path, "report.json", report_config)
        rrun = tmp_path / "report-run"
        assert main(["report", "--config", rpath, "--out", str(rrun)]) == 0
        report = json.loads((rrun / "report.json").read_text())
        assert (report["n_rows"], report["n_failed"], report["n_consistent"]) == (3, 1, 1)
        assert report["consistency_rate"] == 0.5
        assert report["tightness"] == {"count": 2, "min": 0.25, "max": 0.75, "mean": 0.5}

    def test_missing_summary_rejected(self, tmp_path, capsys):
        report_config = {"schema_version": "1", "runs": [str(tmp_path / "ghost")]}
        rpath = write_config(tmp_path, "report.json", report_config)
        code = main(["report", "--config", rpath, "--out", str(tmp_path / "run")])
        assert code == 2


class TestEnvironmentAndEntryPoints:
    def test_runs_root_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COVPOW_RUNS_ROOT", str(tmp_path / "roots"))
        monkeypatch.chdir(tmp_path)
        config = minimal_simulate_config()
        path = write_config(tmp_path, "sim.json", config)
        code = main(["simulate", "--config", path])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        run_dir = Path(out["run_dir"])
        assert run_dir.parent == tmp_path / "roots"
        assert run_dir.name.startswith("simulate-")
        assert (run_dir / "model.json").exists()

    def test_run_dir_is_named_by_the_config_text(self, tmp_path, monkeypatch, capsys):
        # the config is read as bytes; its digest stays that of the text read
        # with universal newlines, so a CRLF config keeps its run directory
        monkeypatch.setenv("COVPOW_RUNS_ROOT", str(tmp_path / "roots"))
        path = tmp_path / "sim.json"
        text = json.dumps(minimal_simulate_config(), indent=1)
        path.write_bytes(text.replace("\n", "\r\n").encode())
        digest = hashlib.sha256(path.read_text().encode()).hexdigest()
        assert main(["simulate", "--config", str(path)]) == 0
        run_dir = Path(json.loads(capsys.readouterr().out)["run_dir"])
        assert run_dir.name == f"simulate-{digest[:12]}"
        assert json.loads((run_dir / "manifest.json").read_text())["config_sha256"] == digest

    def test_no_writes_outside_run_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = minimal_simulate_config()
        path = write_config(tmp_path, "sim.json", config)
        run = tmp_path / "only-here"
        before = set(p for p in tmp_path.rglob("*"))
        assert main(["simulate", "--config", path, "--out", str(run)]) == 0
        after = set(p for p in tmp_path.rglob("*"))
        new = after - before
        assert all(run in p.parents or p == run for p in new)

    def test_module_entry_point(self, tmp_path):
        config = minimal_simulate_config()
        path = write_config(tmp_path, "sim.json", config)
        run = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-m", "covpow", "simulate", "--config", path, "--out", str(run)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (run / "manifest.json").exists()

    def test_console_script(self, tmp_path):
        """The declared ``covpow`` console script works without an install.

        The entry point is read from the checkout's ``pyproject.toml`` and run
        through the same wrapper an installer writes for it, so the check needs
        neither an install nor ``covpow`` on PATH.
        """
        package_dir = Path(covpow.__file__).resolve().parent
        pyproject = tomllib.loads((package_dir.parents[1] / "pyproject.toml").read_text())
        scripts = pyproject["project"]["scripts"]
        assert "covpow" in scripts
        entry = importlib.metadata.EntryPoint(
            name="covpow", value=scripts["covpow"], group="console_scripts"
        )
        assert entry.load() is main

        wrapper = (
            f"import sys; from {entry.module} import {entry.attr}; "
            f"sys.argv[0] = 'covpow'; sys.exit({entry.attr}())"
        )
        config = minimal_simulate_config()
        path = write_config(tmp_path, "sim.json", config)
        run = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "simulate", "--config", path, "--out", str(run)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (run / "manifest.json").exists()

        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "simulate", "--out", str(tmp_path / "bad")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert "usage: covpow" in proc.stderr

    @pytest.mark.skipif(
        shutil.which("covpow") is None, reason="covpow console script not installed"
    )
    def test_installed_console_script(self, tmp_path):
        config = minimal_simulate_config()
        path = write_config(tmp_path, "sim.json", config)
        run = tmp_path / "run"
        proc = subprocess.run(
            ["covpow", "simulate", "--config", path, "--out", str(run)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (run / "manifest.json").exists()

    def test_help_lists_verbs(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for verb in ("simulate", "verify", "pipeline", "report"):
            assert verb in out


def _readme_blocks(language):
    readme = Path(covpow.__file__).resolve().parents[2] / "README.md"
    return re.findall(rf"```{language}\n(.*?)```", readme.read_text(), flags=re.S)


class TestReadmeExamples:
    @pytest.mark.parametrize("verb, index", [("simulate", 0), ("pipeline", 1)])
    def test_json_config_runs(self, tmp_path, verb, index):
        """The README's JSON configs are accepted by their verb and run."""
        blocks = _readme_blocks("json")
        path = write_config(tmp_path, f"{verb}.json", json.loads(blocks[index]))
        assert main([verb, "--config", path, "--out", str(tmp_path / "run")]) == 0

    @pytest.mark.parametrize("index", range(len(_readme_blocks("python"))))
    def test_python_block_prints_its_comments(self, capsys, index):
        """Each README Python block runs; each `print(...)  # value` prints the value.

        A comment may go on after a colon: `# True: why` expects `True`.
        """
        block = _readme_blocks("python")[index]
        comments = re.findall(r"^print\(.*\)\s+# (.*)$", block, flags=re.M)
        assert comments
        exec(compile(block, "README.md", "exec"), {})
        expected = [comment.split(":")[0].strip() for comment in comments]
        assert capsys.readouterr().out.splitlines() == expected
