"""Windowed covariance-power features from labeled multichannel series.

The path from raw data to classifier input: slide fixed-length windows over
the series, label each window by majority vote, estimate a (ridge-regularized)
covariance per window, and raise it to a chosen power. Channel selection by
histogram mutual information against the labels trims wide recordings first.
"""

from __future__ import annotations

import csv
import json
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .spd import SpdMatrix, SpdStack, read_matrix_csv, spd_power_eig, write_matrix_csv

__all__ = [
    "LabeledSeries",
    "WindowSpec",
    "Window",
    "FeatureMatrix",
    "sliding_windows",
    "empirical_covariance",
    "power_features",
    "mutual_info_select",
    "extract_features",
]


@dataclass(frozen=True)
class LabeledSeries:
    """T x channels sample matrix with one binary label per time step."""

    samples: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        if samples.ndim != 2 or samples.shape[0] < 1:
            raise DomainError(f"samples must be a nonempty 2-d array, got {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise DomainError("samples contain non-finite values")
        if labels.shape != (samples.shape[0],):
            raise DomainError(
                f"labels length {labels.shape} does not match T={samples.shape[0]}"
            )
        if not np.isin(labels, (0, 1)).all():
            raise DomainError("labels must be 0 or 1")
        samples = np.ascontiguousarray(samples)
        samples.flags.writeable = False
        labels = np.ascontiguousarray(labels)
        labels.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "labels", labels)

    @property
    def length(self) -> int:
        return self.samples.shape[0]

    @property
    def channels(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class WindowSpec:
    """Window length in samples plus fractional overlap between neighbors."""

    length: int
    overlap: float = 0.0

    def __post_init__(self) -> None:
        if int(self.length) != self.length or self.length < 1:
            raise DomainError(f"window length must be a positive integer, got {self.length}")
        if not 0 <= self.overlap < 1:
            raise DomainError(f"overlap must lie in [0,1), got {self.overlap}")
        if self.stride < 1:
            raise DomainError(
                f"length {self.length} with overlap {self.overlap} rounds to stride 0"
            )

    @property
    def stride(self) -> int:
        return int(round(self.length * (1 - self.overlap)))


@dataclass(frozen=True)
class Window:
    """One window: the index range, its samples, and the voted label."""

    start: int
    stop: int
    samples: np.ndarray
    label: int


@dataclass(frozen=True)
class FeatureMatrix:
    """Power-transformed window covariance and its class label."""

    matrix: SpdMatrix
    label: int | None


def sliding_windows(series: LabeledSeries, spec: WindowSpec) -> list[Window]:
    """Windows starting at 0, spec.stride apart, fully inside the series."""
    t = series.length
    if spec.length > t:
        raise DomainError(f"window length {spec.length} exceeds series length {t}")
    count = (t - spec.length) // spec.stride + 1
    out = []
    for i in range(count):
        start = i * spec.stride
        stop = start + spec.length
        out.append(
            Window(
                start=start,
                stop=stop,
                samples=series.samples[start:stop],
                label=majority_vote_label(series.labels[start:stop]),
            )
        )
    return out


def majority_vote_label(window_labels) -> int:
    """Majority class of a window; exact ties go to the event class 1."""
    labels = np.asarray(window_labels, dtype=int)
    if labels.size == 0:
        raise DomainError("cannot vote on an empty label window")
    return int(2 * labels.sum() >= labels.size)


def _default_ridge(centered: np.ndarray) -> float:
    """1e-6 times the mean channel variance of a centered window."""
    trace = float(np.sum(centered * centered) / centered.shape[0])
    return 1e-6 * trace / centered.shape[1]


def _covariance(w: np.ndarray, ridge: float | None) -> np.ndarray:
    """Mean-centered sample covariance of a window plus ridge*I, unvalidated."""
    centered = w - w.mean(axis=0, keepdims=True)
    if ridge is None:
        ridge = _default_ridge(centered)
    if ridge < 0:
        raise DomainError("ridge must be nonnegative")
    cov = centered.T @ centered / w.shape[0]
    return cov + ridge * np.eye(w.shape[1])


def empirical_covariance(window, ridge: float | None = None) -> SpdMatrix:
    """Mean-centered sample covariance (1/n normalization) plus ridge*I.

    ridge=None picks 1e-6 * trace/k; an explicit 0 is allowed and fails SPD
    validation whenever the window is rank deficient.
    """
    w = np.asarray(window, dtype=float)
    if w.ndim != 2 or w.shape[0] < 1:
        raise DomainError(f"window must be a nonempty 2-d block, got shape {w.shape}")
    return SpdMatrix(_covariance(w, ridge))


def _window_covariances(
    series: LabeledSeries, spec: WindowSpec, ridge: float | None = None
) -> tuple[list[Window], SpdStack]:
    """The windows of a series and their covariances as one SPD stack.

    Each window's covariance (as `empirical_covariance` computes it) is
    written into one preallocated (N, k, k) array, which is validated and
    factored by a single stacked ``eigh``. Errors name the window index.
    """
    windows = sliding_windows(series, spec)
    covs = np.empty((len(windows), series.channels, series.channels))
    for i, win in enumerate(windows):
        covs[i] = _covariance(win.samples, ridge)
    return windows, SpdStack(covs)


def power_features(cov: SpdMatrix, beta: float, label: int | None = None) -> FeatureMatrix:
    """Raise a window covariance to the beta power and tag it with its label."""
    return FeatureMatrix(matrix=spd_power_eig(cov, beta), label=label)


def _histogram_mi(channel: np.ndarray, labels: np.ndarray, bins: int) -> float:
    lo, hi = float(channel.min()), float(channel.max())
    if hi <= lo:
        return 0.0  # constant channel carries no information
    idx = np.minimum(((channel - lo) / (hi - lo) * bins).astype(int), bins - 1)
    mi = 0.0
    n = channel.size
    for y in (0, 1):
        mask = labels == y
        p_y = mask.sum() / n
        if p_y == 0:
            continue
        counts = np.bincount(idx[mask], minlength=bins)
        p_xy = counts / n
        p_x = np.bincount(idx, minlength=bins) / n
        pos = p_xy > 0
        mi += float(np.sum(p_xy[pos] * np.log(p_xy[pos] / (p_x[pos] * p_y))))
    return mi


def mutual_info_select(series: LabeledSeries, k_keep: int, bins: int = 16) -> list[int]:
    """Top channels by histogram mutual information with the labels.

    Equal-width bins per channel; ties rank the lower channel index first.
    """
    if not 1 <= k_keep <= series.channels:
        raise DomainError(f"k_keep must lie in [1, {series.channels}], got {k_keep}")
    if bins < 2:
        raise DomainError("need at least 2 bins")
    scores = np.array(
        [_histogram_mi(series.samples[:, j], series.labels, bins) for j in range(series.channels)]
    )
    order = np.argsort(-scores, kind="stable")
    return [int(j) for j in order[:k_keep]]


def extract_features(
    series: LabeledSeries,
    spec: WindowSpec,
    beta: float,
    ridge: float | None = None,
    channels: list[int] | None = None,
) -> tuple[list[Window], SpdStack]:
    """The windows of the series and their powered covariances as one stack."""
    if channels is not None:
        for c in channels:
            if not 0 <= c < series.channels:
                raise DomainError(f"channel index {c} is outside [0, {series.channels})")
        samples = series.samples[:, channels]
        series = LabeledSeries(samples=samples, labels=series.labels)
    windows, stack = _window_covariances(series, spec, ridge)
    return windows, stack.power(beta)


# ---------------------------------------------------------------------------
# serialization


def write_series_csv(series: LabeledSeries, path) -> None:
    """Columns t, ch0.., label; each sample by repr, each row CRLF-terminated."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["t", *(f"ch{j}" for j in range(series.channels)), "label"]) + "\r\n")
        for t, (row, label) in enumerate(zip(series.samples, series.labels.tolist())):
            fh.write(f"{t},{','.join(map(repr, row.tolist()))},{label}\r\n")


def read_series_csv(path) -> LabeledSeries:
    """Series CSV with columns t, ch0.., label, as write_series_csv writes it.

    Labels must be integers. A malformed cell or a row of the wrong width
    raises DomainError naming its line.
    """
    with open(path) as fh:
        header = next(csv.reader([fh.readline()]))
        if len(header) < 3 or header[0] != "t" or header[-1] != "label":
            raise DomainError("series CSV must have columns t, ch0.., label")
        width = len(header)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a header-only file
                rows = np.loadtxt(
                    fh, delimiter=",", comments=None, ndmin=2, converters={width - 1: int}
                )
        except ValueError as exc:
            raise DomainError(_first_bad_line(path, width) or f"{path}: {exc}") from None
    if not rows.size:
        rows = np.empty((0, width))
    elif rows.shape[1] != width:
        raise DomainError(_first_bad_line(path, width))
    return LabeledSeries(samples=rows[:, 1:-1], labels=rows[:, -1].astype(int))


def _first_bad_line(path, width: int) -> str | None:
    """Where and why a series CSV body fails to parse, or None."""
    with open(path) as fh:
        for n, line in enumerate(fh, start=1):
            if n == 1 or not line.strip():
                continue
            cells = line.rstrip("\r\n").split(",")
            if len(cells) != width:
                return f"{path}: line {n}: expected {width} cells, got {len(cells)}"
            for j, cell in enumerate(cells):
                kind = int if j == width - 1 else float
                try:
                    kind(cell)
                except ValueError:
                    what = "an integer label" if kind is int else "a number"
                    return f"{path}: line {n}: cannot parse {cell!r} as {what}"
    return None


def write_feature_archive(
    labels, ranges, stack: SpdStack, beta: float, dirpath, meta: dict
) -> None:
    """Directory of matrix CSVs plus a JSON manifest with provenance.

    Entry i holds matrix i of the stack with its label and (start, stop)
    window range; every entry records the power `beta`.
    """
    os.makedirs(dirpath, exist_ok=True)
    entries = []
    for i, (label, source) in enumerate(zip(labels, ranges)):
        name = f"feature_{i:05d}.csv"
        write_matrix_csv(stack.values[i], os.path.join(dirpath, name))
        entries.append(
            {
                "file": name,
                "label": label,
                "beta": float(beta),
                "source_window": list(source) if source else None,
            }
        )
    manifest = {"count": len(entries), "entries": entries, "meta": meta}
    with open(os.path.join(dirpath, "manifest.json"), "w") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=1) + "\n")


def read_feature_archive(dirpath) -> tuple[list, list, SpdStack]:
    """(labels, ranges, stack) of an archive, factored by one stacked ``eigh``.

    A manifest that is not valid JSON or lacks a key raises ConfigError
    naming it; a label other than 0 or 1, or a matrix file that is missing,
    unparsable or of another shape, raises DomainError naming its file.
    """
    path = os.path.join(dirpath, "manifest.json")
    try:
        with open(path) as fh:
            entries = json.load(fh)["entries"]
        labels = [entry["label"] for entry in entries]
        ranges = [tuple(e["source_window"]) if e["source_window"] else None for e in entries]
        files = [os.path.join(dirpath, entry["file"]) for entry in entries]
    except ValueError as exc:  # also an integer past Python's digit limit
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    except KeyError as exc:
        raise ConfigError(f"{path}: required key {exc.args[0]!r} missing") from None
    except TypeError as exc:
        raise ConfigError(f"{path}: malformed manifest: {exc}") from None
    for entry, label in enumerate(labels):
        if label not in (0, 1):
            raise DomainError(f"{path}: entry {entry}: label must be 0 or 1, got {label!r}")
    mats = [read_matrix_csv(f) for f in files]
    for f, m in zip(files, mats):
        if m.shape != mats[0].shape:
            raise DomainError(f"{f}: shape {m.shape} differs from {files[0]}: {mats[0].shape}")
    return labels, ranges, SpdStack(mats)
