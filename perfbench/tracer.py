"""Span tracer for the per-layer metrics, installed from outside covpow.

Every traced function is replaced by a wrapper in each ``covpow`` module
namespace that holds it (``cli``, ``pipeline`` and ``consistency`` import
from ``spd``, ``features`` and ``geometry`` by name), methods are wrapped on
their class, and the LAPACK boundary is wrapped on ``numpy.linalg``. A span
is (name, start, end, parent); spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, attribute, span name); a dotted attribute is a method on a class
FUNCTIONS = [
    ("covpow.cli", "main", "cli.main"),
    ("covpow.features", "read_series_csv", "features.read_series_csv"),
    ("covpow.features", "write_series_csv", "features.write_series_csv"),
    ("covpow.features", "empirical_covariance", "features.empirical_covariance"),
    ("covpow.features", "power_features", "features.power_features"),
    ("covpow.spd", "SpdMatrix.__init__", "spd.SpdMatrix"),
    ("covpow.spd", "SpdMatrix._from_eigh", "spd.SpdMatrix"),
    ("covpow.spd", "sym_eigen", "spd.sym_eigen"),
    ("covpow.spd", "spd_power_eig", "spd.spd_power_eig"),
    ("covpow.spd", "spectral_norm", "spd.spectral_norm"),
    ("covpow.spd", "lambda_min", "spd.lambda_min"),
    ("numpy.linalg", "eigh", "numpy.linalg.eigh"),
    ("numpy.linalg", "eigvalsh", "numpy.linalg.eigvalsh"),
    ("numpy.linalg", "solve", "numpy.linalg.solve"),
    ("covpow.pipeline", "select_beta", "pipeline.select_beta"),
    ("covpow.pipeline", "vectorize_feature", "pipeline.vectorize_feature"),
    ("covpow.pipeline", "train_linear_classifier", "pipeline.train_linear_classifier"),
    ("covpow.pipeline", "LinearClassifier.predict", "pipeline.LinearClassifier.predict"),
    ("covpow.consistency", "verify_instance", "consistency.verify_instance"),
    ("covpow.consistency", "commutation_error", "consistency.commutation_error"),
    ("covpow.consistency", "fractional_gate", "consistency.fractional_gate"),
    ("covpow.consistency", "best_contour_gate", "consistency.best_contour_gate"),
    ("covpow.consistency", "contour_gate", "consistency.contour_gate"),
    ("covpow.graphs", "sample_inhomogeneous_er", "graphs.sample_inhomogeneous_er"),
    ("covpow.graphs", "abar", "graphs.abar"),
    ("covpow.graphs", "scale_cross_block", "graphs.scale_cross_block"),
    ("covpow.matern", "MaternModel.__init__", "matern.MaternModel"),
    ("covpow.matern", "sample_field", "matern.sample_field"),
    ("covpow.geometry", "air_distance", "geometry.air_distance"),
    ("covpow.geometry", "class_distance_stats", "geometry.class_distance_stats"),
    ("covpow.geometry", "pairwise_distance_matrix", "geometry.pairwise_distance_matrix"),
    ("covpow.geometry", "write_pairwise_csv", "geometry.write_pairwise_csv"),
    ("covpow.signatures", "fit_gmm_1d", "signatures.fit_gmm_1d"),
]


class Tracer:
    """Records spans around the wrapped calls, plus a few result counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []
        self._stack: list[int] = []
        self.grid_points = 0
        self.gmm_fits = 0
        self.em_iterations = 0
        self.gmm_converged = 0
        self._air_pairs: set[tuple[int, int]] = set()
        self._air_args: dict[int, object] = {}  # keeps ids unique while counting

    def install(self) -> None:
        hooks = {
            "pipeline.select_beta": self._on_select,
            "geometry.air_distance": self._on_air,
            "signatures.fit_gmm_1d": self._on_gmm,
        }
        for module_name, attr, name in FUNCTIONS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, meth, self._wrap(name, raw))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(name, orig, hooks.get(name))
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == module_name or mod_name.split(".")[0] == "covpow":
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapper)

    def _wrap(self, name: str, fn, hook=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _on_select(self, args, kwargs, result) -> None:
        self.grid_points += len(result.per_beta_table)

    def _on_air(self, args, kwargs, result) -> None:
        x, y = args[0], args[1]
        self._air_args[id(x)] = x
        self._air_args[id(y)] = y
        self._air_pairs.add((min(id(x), id(y)), max(id(x), id(y))))

    def _on_gmm(self, args, kwargs, result) -> None:
        self.gmm_fits += 1
        self.em_iterations += result.iterations
        self.gmm_converged += bool(result.converged)

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self time per span name; self time excludes child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name_id, start, end, _) in enumerate(self.spans):
            calls[self.names[name_id]] += 1
            self_s[self.names[name_id]] += end - start - child[i]
        return calls, self_s

    def air_pairs(self) -> int:
        return len(self._air_pairs)

    def write(self, path: Path) -> None:
        arr = np.array(self.spans, dtype=float).reshape(-1, 4)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=arr[:, 0].astype(np.int32),
            start=arr[:, 1],
            end=arr[:, 2],
            parent=arr[:, 3].astype(np.int64),
        )
