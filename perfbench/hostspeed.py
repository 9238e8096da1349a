"""Host-speed probe: a fixed mix of small LAPACK calls and interpreter work.

The benchmark runs on shared 2-core hosts whose speed drifts by up to 1.8x
over minutes, while CPU time tracks wall time. Medians over repeats cannot
remove a drift that lasts a whole run. So the probe runs between timed
operations, and each operation's time is scaled by
REFERENCE_S / (probe time). The result is the operation's time on a host
where the probe takes REFERENCE_S. The probe calls no covpow code, so a
change to covpow cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.1
_REPEATS = 28


class HostProbe:
    """Times a fixed amount of work like covpow's: 8x8 eigh/eigvalsh and dicts."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._mats = [m @ m.T + 8.0 * np.eye(8) for m in rng.standard_normal((64, 8, 8))]
        self._work(1)  # first LAPACK calls pay one-off set-up; keep it out

    def _work(self, repeats: int) -> float:
        acc = 0.0
        for _ in range(repeats):
            for m in self._mats:
                w, q = np.linalg.eigh(m)
                acc += float(np.linalg.eigvalsh((q * w**0.5) @ q.T)[0])
                acc += float(m[np.triu_indices(8, 1)].sum())
            counts: dict[int, int] = {}
            for i in range(4000):
                counts[i % 61] = counts.get(i % 61, 0) + i
        return acc

    def seconds(self) -> float:
        """Time of the probe work now; about REFERENCE_S on a typical host."""
        t0 = time.perf_counter()
        self._work(_REPEATS)
        return time.perf_counter() - t0

    def scale(self) -> float:
        """Factor that turns a time measured now into reference-host seconds."""
        return REFERENCE_S / self.seconds()
