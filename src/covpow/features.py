"""Windowed covariance-power features from labeled multichannel series.

The path from raw data to classifier input: slide fixed-length windows over
the series, label each window by majority vote, estimate a (ridge-regularized)
covariance per window, and raise it to a chosen power. A windowed feature set
is held as arrays, not per-window objects: the window labels, their
(start, stop) ranges and one SpdStack, the triple a feature archive stores.
"""

from __future__ import annotations

import csv
import json
import os
import warnings

import numpy as np

from .errors import DomainError, frozen
from .schema import _MANIFEST, load_json
from .spd import SpdMatrix, SpdStack, _blockwise, read_matrix_csv, spd_power_eig, write_matrix_csv

__all__ = [
    "LabeledSeries",
    "WindowSpec",
    "Window",
    "FeatureMatrix",
    "sliding_windows",
    "empirical_covariance",
    "power_features",
    "extract_features",
]


def _binary_labels(values, what: str = "labels") -> np.ndarray:
    """values as an int array, refused unless every entry equals 0 or 1.

    The one 0/1 label rule: int, float and bool labels alike are taken as int.
    """
    a = np.asarray(values)
    if not np.all((a == 0) | (a == 1)):
        raise DomainError(f"{what} must be 0/1")
    return a.astype(int, copy=False)


def _feature_labels(labels) -> np.ndarray:
    """Feature labels as `_binary_labels` gives them, refused when one is None."""
    if any(c is None for c in labels):
        raise DomainError("every feature needs a class label")
    return _binary_labels(labels)


@frozen
class LabeledSeries:
    """T x channels sample matrix with one binary label per time step, both kept as copies."""

    samples: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        samples = np.array(self.samples, dtype=float, order="C")
        labels = np.array(self.labels, order="C")
        if samples.ndim != 2 or not samples.size:
            raise DomainError(f"samples must be a nonempty 2-d array, got {samples.shape}")
        # min and max carry any nan or inf, and need no mask the size of the copy
        if not np.isfinite([samples.min(), samples.max()]).all():
            raise DomainError("samples contain non-finite values")
        if labels.shape != (samples.shape[0],):
            raise DomainError(f"labels length {labels.shape} does not match T={samples.shape[0]}")
        for name, a in (("samples", samples), ("labels", _binary_labels(labels))):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def length(self) -> int:
        return self.samples.shape[0]

    @property
    def channels(self) -> int:
        return self.samples.shape[1]


@frozen
class WindowSpec:
    """Window length in samples plus fractional overlap between neighbors."""

    length: int
    overlap: float = 0.0

    def __post_init__(self) -> None:
        if int(self.length) != self.length or self.length < 1:
            raise DomainError(f"window length must be a positive integer, got {self.length}")
        if not 0 <= self.overlap < 1:
            raise DomainError(f"overlap must lie in [0,1), got {self.overlap}")
        object.__setattr__(self, "length", int(self.length))
        if self.stride < 1:
            raise DomainError(
                f"length {self.length} with overlap {self.overlap} rounds to stride 0"
            )

    @property
    def stride(self) -> int:
        return int(round(self.length * (1 - self.overlap)))


@frozen
class Window:
    """One window: the index range, its samples, and the voted label."""

    start: int
    stop: int
    samples: np.ndarray
    label: int


@frozen
class FeatureMatrix:
    """Power-transformed window covariance and its class label."""

    matrix: SpdMatrix
    label: int | None


def _window_index(series: LabeledSeries, spec: WindowSpec) -> tuple[np.ndarray, np.ndarray]:
    """(starts, labels) of the windows: starting at 0, spec.stride apart, fully
    inside the series, each labeled by majority vote with exact ties going to
    the event class 1. The votes come from one cumulative sum of the labels.
    """
    t, length = series.length, spec.length
    if length > t:
        raise DomainError(f"window length {length} exceeds series length {t}")
    starts = np.arange((t - length) // spec.stride + 1) * spec.stride
    ones = np.concatenate(([0], np.cumsum(series.labels)))
    return starts, (2 * (ones[starts + length] - ones[starts]) >= length).astype(int)


def sliding_windows(series: LabeledSeries, spec: WindowSpec) -> list[Window]:
    """The windows of `_window_index` as objects whose samples view the series."""
    starts, labels = _window_index(series, spec)
    return [
        Window(start=s, stop=s + spec.length, samples=series.samples[s : s + spec.length], label=y)
        for s, y in zip(starts.tolist(), labels.tolist())
    ]


def _check_ridge(ridge: float | None) -> None:
    if ridge is not None and not 0 <= ridge < np.inf:  # also rejects NaN
        raise DomainError(f"ridge must be finite and nonnegative, got {ridge}")


def _covariances(blocks: np.ndarray, ridge: float | None) -> np.ndarray:
    """Covariances of a (B, n, k) stack of windows, as empirical_covariance.

    ridge=None takes 1e-6 times each window's mean channel variance.
    `blocks` is centered in place (one block-sized temporary fewer), so the
    caller passes an array of its own.
    """
    n, k = blocks.shape[1:]
    blocks -= blocks.mean(axis=1, keepdims=True)
    if ridge is None:
        ridge = 1e-6 * ((blocks * blocks).sum(axis=(1, 2)) / n) / k
    cov = np.swapaxes(blocks, 1, 2) @ blocks / n
    return cov + np.multiply.outer(ridge, np.eye(k))


def empirical_covariance(window, ridge: float | None = None) -> SpdMatrix:
    """Mean-centered sample covariance (1/n normalization) plus ridge*I.

    ridge=None picks 1e-6 * trace/k; an explicit 0 is allowed and fails SPD
    validation whenever the window is rank deficient.
    """
    w = np.array(window, dtype=float)  # a copy: `_covariances` centers it in place
    if w.ndim != 2 or not w.size:
        raise DomainError(f"window must be a nonempty 2-d block, got shape {w.shape}")
    _check_ridge(ridge)
    return SpdMatrix(_covariances(w[None], ridge)[0])


def _window_covariances(
    series: LabeledSeries, spec: WindowSpec, ridge: float | None = None
) -> tuple[np.ndarray, np.ndarray, SpdStack]:
    """(starts, labels) of `_window_index` and the window covariances as one SPD stack.

    The covariances (as `empirical_covariance` computes them) are formed by
    `spd._blockwise` over the window starts, one gather and one batched
    product per block, and `SpdStack` validates and factors them a block at a
    time, symmetrizing them in place, so the peak is what the stack keeps
    plus a few blocks. Errors name the window index.
    """
    _check_ridge(ridge)
    starts, labels = _window_index(series, spec)
    offsets = np.arange(spec.length)
    gather = lambda part: (_covariances(series.samples[part[:, None] + offsets], ridge),)
    return starts, labels, SpdStack._from_owned(_blockwise(gather, starts)[0])


def power_features(cov: SpdMatrix, beta: float, label: int | None = None) -> FeatureMatrix:
    """Raise a window covariance to the beta power and tag it with its label."""
    return FeatureMatrix(matrix=spd_power_eig(cov, beta), label=label)


def extract_features(
    series: LabeledSeries,
    spec: WindowSpec,
    beta: float,
    ridge: float | None = None,
    channels: list[int] | None = None,
) -> tuple[list[int], list[tuple[int, int]], SpdStack]:
    """(labels, ranges, stack) of the windows: the majority-vote labels, the
    (start, stop) ranges and the powered covariances, as
    `write_feature_archive` takes them and `read_feature_archive` returns them.
    """
    if channels is not None:
        for i, c in enumerate(channels):
            if not 0 <= c < series.channels:
                raise DomainError(f"channel index {c} is outside [0, {series.channels})")
            if c in channels[:i]:
                raise DomainError(f"channel index {c} is repeated")
        samples = series.samples[:, channels]
        series = LabeledSeries(samples=samples, labels=series.labels)
    starts, labels, stack = _window_covariances(series, spec, ridge)
    ranges = [(s, s + spec.length) for s in starts.tolist()]
    return labels.tolist(), ranges, stack.power(beta)


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

    Cells follow numpy's parse rules: t and the samples as float64, labels as
    int64 (ASCII digits, an optional sign, surrounding whitespace). A cell
    numpy rejects or a row of the wrong width raises DomainError naming its line.
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
                    fh, delimiter=",", comments=None, ndmin=1, dtype=_row_dtype(width)
                )
        except ValueError as exc:
            raise DomainError(_first_bad_line(path, width) or f"{path}: {exc}") from None
    return LabeledSeries(samples=rows["cells"][:, 1:], labels=rows["label"])


def _row_dtype(width: int) -> np.dtype:
    """A series CSV row: t and the samples, then the integer label."""
    return np.dtype([("cells", float, (width - 1,)), ("label", np.int64)])


def _first_bad_line(path, width: int) -> str | None:
    """Where and why a series CSV body fails to parse, or None.

    numpy itself parses each line, and each cell of a line it rejects, with
    the dtype `read_series_csv` gives it, so the cell named is one it rejects.
    """
    dtype = _row_dtype(width)
    with open(path) as fh:
        for n, line in enumerate(fh, start=1):
            if n == 1 or line == "\n":  # the header, and the empty lines numpy skips
                continue
            cells = line.rstrip("\r\n").split(",")
            if len(cells) != width:
                return f"{path}: line {n}: expected {width} cells, got {len(cells)}"
            if _parses(line, dtype):
                continue
            for j, cell in enumerate(cells):
                label = j == width - 1
                if not _parses(line, np.int64 if label else float, column=j):
                    what = "an integer label" if label else "a number"
                    return f"{path}: line {n}: cannot parse {cell!r} as {what}"
    return None


def _parses(line: str, dtype, column: int | None = None) -> bool:
    """Whether np.loadtxt reads the line, or only its given column, as dtype."""
    try:
        np.loadtxt([line], delimiter=",", comments=None, dtype=dtype, usecols=column)
    except ValueError:
        return False
    return True


def write_feature_archive(
    labels, ranges, stack: SpdStack, beta: float, dirpath, meta: dict
) -> None:
    """Directory of matrix CSVs plus a JSON manifest with provenance.

    Entry i holds matrix i of the stack with its label and (start, stop)
    window range, from lists or integer arrays; every entry records `beta`.
    """
    os.makedirs(dirpath, exist_ok=True)
    entries = []
    for i, (label, source) in enumerate(zip(labels, ranges)):
        name = f"feature_{i:05d}.csv"
        write_matrix_csv(stack.values[i], os.path.join(dirpath, name))
        entries.append({"file": name, "label": int(label), "beta": float(beta),
                        "source_window": [int(b) for b in source]})
    manifest = {"count": len(entries), "entries": entries, "meta": meta}
    with open(os.path.join(dirpath, "manifest.json"), "w") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=1) + "\n")


def read_feature_archive(dirpath) -> tuple[list, list, SpdStack]:
    """(labels, ranges, stack) of an archive, its matrices read into one SpdStack.

    A manifest that is not valid JSON or does not follow its table (a label
    other than the integer 0 or 1 included) raises ConfigError naming the
    manifest and the entry; a matrix file that is missing, unparsable or of
    another shape raises DomainError naming it.
    """
    path = os.path.join(dirpath, "manifest.json")
    with open(path, "rb") as fh:
        entries = load_json(fh.read(), path, _MANIFEST, "manifest")["entries"]
    files = [os.path.join(dirpath, entry["file"]) for entry in entries]
    mats = [read_matrix_csv(f) for f in files]
    for f, m in zip(files, mats):
        if m.shape != mats[0].shape:
            raise DomainError(f"{f}: shape {m.shape} differs from {files[0]}: {mats[0].shape}")
    labels = [entry["label"] for entry in entries]
    return labels, [tuple(entry["source_window"]) for entry in entries], SpdStack(mats)
