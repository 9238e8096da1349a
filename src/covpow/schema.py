"""The declared tables of every file a verb reads, and the one check they share.

A table maps the keys of a section to (kind, default). A kind is a type (int,
float, str, bool), a nested table, [kind] for a list of that kind, a tuple of
kinds for a list of fixed length, _AtLeast(n) for an int no smaller than n (a
finite float with _AtLeast(x, float)), _OneOf(...) for one of a few values,
_SizedBy(kind, key, k) for a list as long as the sibling ``key`` plus k,
_Text(kind) for a CSV cell that parses as that kind, or a _Variant of tables
chosen by one key of the section. A float accepts any JSON number a float can
hold, and an int must fit in 64 signed bits. The default _REQUIRED marks a key
that must be given; None leaves an absent key None, and any other default is
filled in and checked like a given value. A verb's config is checked whole; an
input file's table names only the top-level keys its reader uses, and the
reader ignores the rest.
"""

from __future__ import annotations

import csv
import json

from .errors import ConfigError, frozen

__all__ = []

_REQUIRED = object()


@frozen
class _AtLeast:
    """A number of type ``kind`` no smaller than ``low``; a float must also be finite."""

    low: int | float
    kind: type = int


@frozen
class _OneOf:
    """A value of type ``kind`` from ``options``."""

    options: tuple
    kind: type = str


@frozen
class _SizedBy:
    """A list of ``kind`` with as many entries as the sibling ``key``'s value plus ``plus``."""

    kind: list
    key: str
    plus: int = 0


@frozen
class _Text:
    """A CSV cell holding the text of a ``kind``, such as float."""

    kind: type


@frozen
class _Variant:
    """A section whose table is named by its ``key`` entry; absent, by ``default``."""

    tables: dict
    default: object  # a table's name, or _REQUIRED
    key: str = "type"


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
    },
    "er",
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
    "max_iter": (_AtLeast(1), None),
    "tol": (_TOL, None),
    "ridge": (_RIDGE, None),
}

# every config opens with its schema version, then follows its verb's table
_VERSION = {"schema_version": (_OneOf(("1",)), _REQUIRED)}
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
        "gate_target_fraction": (_AtLeast(0.0, float), None),  # shrink_to_gate refuses 0
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
        "gmm": ({"max_iter": (_AtLeast(1), None), "tol": (_TOL, None), "seed": (_SEED, None)}, {}),
    },
    "pipeline": {
        "classes": ((_CLASS, _CLASS), _REQUIRED),
        "series": ({"samples_per_class": (int, _REQUIRED), "seed": (_SEED, 0)}, _REQUIRED),
        **_FIT,
        "signatures": ({"mode": (_SIGNATURE_MODE, "class-mean"), "seed": (_SEED, 0)}, {}),
    },
    "report": {"runs": ([str], _REQUIRED)},
}

# a selection.json, as evaluate reads it
_SELECTION = {
    "window_length": (int, _REQUIRED),
    "window_overlap": (float, _REQUIRED),
    "beta_star": (float, _REQUIRED),
    "classifier": (
        {
            "weights": (_SizedBy([float], "dim", 1), _REQUIRED),
            "feature_mean": (_SizedBy([float], "dim"), _REQUIRED),
            "feature_scale": (_SizedBy([float], "dim"), _REQUIRED),
            "dim": (_AtLeast(1), _REQUIRED),
            "seen_tokens": ([str], _REQUIRED),
        },
        _REQUIRED,
    ),
}

# a features manifest.json, as geometry and signatures read it; a label is
# the integer 0 or 1, not True or 1.0
_ENTRY = {
    "file": (str, _REQUIRED),
    "label": (_OneOf((0, 1), int), _REQUIRED),
    "beta": (float, _REQUIRED),
    "source_window": ((int, int), _REQUIRED),
}
_MANIFEST = {"count": (int, _REQUIRED), "entries": (_SizedBy([_ENTRY], "count"), _REQUIRED)}

# a row of a verify summary.csv, as report reads it; an ok row lacks the bound
# where no fractional bound applies, and the flag where no structure check does
_OK_ROW = {
    "consistent": (_OneOf(("True", "False")), None),
    "bound": (_Text(float), None),
    "empirical_norm": (_Text(float), _REQUIRED),
}
_SUMMARY_ROW = _Variant({"ok": _OK_ROW, "failed": {}}, _REQUIRED, key="status")


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
    """Check a value against its kind; return it with defaults filled in.

    ``item`` marks a list element, which messages name a little differently.
    An empty ``path`` names the keys of a table by themselves.
    """
    if isinstance(kind, _Variant):
        if not isinstance(value, dict):
            raise _mismatch(value, kind, path, item)
        head = {kind.key: (_OneOf(tuple(kind.tables)), kind.default)}
        tag = _validate({k: v for k, v in value.items() if k == kind.key}, head, path)[kind.key]
        rest = {key: val for key, val in value.items() if key != kind.key}
        return {kind.key: tag, **_validate(rest, kind.tables[tag], path)}
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise _mismatch(value, kind, path, item)
        unknown = sorted(set(value) - set(kind))
        if unknown:
            raise ConfigError(f"{path}: unknown key(s) {unknown}")
        at = f"{path}." if path else ""
        out = {}
        for key, (sub, default) in kind.items():
            if key in value:
                out[key] = _validate(value[key], sub, at + key)
            elif default is _REQUIRED:
                raise ConfigError(f"{at}{key}: required key missing")
            else:
                out[key] = None if default is None else _validate(default, sub, at + key)
        for key, (sub, _) in kind.items():
            if isinstance(sub, _SizedBy) and len(out[key]) != out[sub.key] + sub.plus:
                n = out[sub.key] + sub.plus
                raise ConfigError(f"{at}{key}: expected exactly {n} entries, got {len(out[key])}")
        return out
    if isinstance(kind, _SizedBy):
        return _validate(value, kind.kind, path, item)
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
        value = _validate(value, kind.kind, path, item)
        if value not in kind.options:
            options = " or ".join(repr(t) for t in kind.options)
            raise ConfigError(f"{path}: expected {options}, got {value!r}")
        return value
    if isinstance(kind, _Text):
        try:
            return kind.kind(_validate(value, str, path, item))
        except ValueError:
            raise ConfigError(f"{path}: expected {kind.kind.__name__}, got {value!r}") from None
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


def checked(value, source, table, root: str, strict: bool = False):
    """``value`` checked against ``table`` as ``root``; a fault names ``source``, then the path.

    Unless ``strict``, top-level keys the table does not name are dropped first.
    """
    if not strict and isinstance(value, dict):
        if isinstance(table, _Variant):
            names = {table.key, *table.tables.get(value.get(table.key), ())}
        else:
            names = set(table)
        value = {key: val for key, val in value.items() if key in names}
    try:
        return _validate(value, table, root)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def load_json(data, source, table, root: str, strict: bool = False):
    """The JSON text or bytes ``data``, parsed and ``checked`` against ``table``."""
    try:
        value = json.loads(data)
    except ValueError as exc:  # also an integer past Python's digit limit, or bytes not UTF-8
        raise ConfigError(f"{source}: not valid JSON: {exc}") from None
    return checked(value, source, table, root, strict)


def read_csv_rows(path, row) -> list:
    """The rows of the CSV file at ``path``, each ``checked`` against the ``row`` table.

    An empty cell, or one a short row lacks, is absent. A file without rows,
    or one that is not UTF-8, is a fault.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            cells = ({key: val for key, val in line.items() if val} for line in reader)
            rows = [checked(c, f"{path}: line {reader.line_num}", row, "") for c in cells]
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not valid UTF-8: {exc}") from None
    if not rows:
        raise ConfigError(f"{path} has no rows")
    return rows
