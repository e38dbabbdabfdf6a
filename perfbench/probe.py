"""Host-speed probe: a fixed numpy kernel timed between benchmark sweeps.

On a shared virtual machine the speed of the host drifts by tens of percent
over tens of seconds, far more than the bounds a benchmark needs. The same
drift shows in process CPU time, so it is not scheduling. The probe does a
fixed amount of the kinds of work the sweeps do, using numpy but no farsm
code: Philox stream set-up and draws, a gather of all 4-subsets of a 16x16
Gram table, batched 4x4 solves, and a short pure-Python loop. A sweep's rate
multiplied by the probe time around it, divided by ``PROBE_REF_S``, is the
sweep's rate at a reference host speed. Nothing a change to farsm does can
alter the probe's own work.
"""

from __future__ import annotations

import time
from itertools import combinations

import numpy as np

# Probe time on a 2-core Xeon VM (numpy 2.4, OpenBLAS, one BLAS thread) in a
# quiet period; only sets the scale of corrected rates.
PROBE_REF_S = 0.030
_ROUNDS = 40


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((64, 4, 4)) + 1j * rng.standard_normal((64, 4, 4))
        self._grams = a @ a.conj().transpose(0, 2, 1) + 4.0 * np.eye(4)
        self._eye = np.broadcast_to(np.eye(4), self._grams.shape)
        self._subsets = np.array(list(combinations(range(16), 4)), dtype=np.intp)

    def seconds(self) -> float:
        """Wall time of one fixed round of probe work."""
        sub = self._subsets
        t0 = time.perf_counter()
        for i in range(_ROUNDS):
            g = np.random.Generator(np.random.Philox(key=i))
            z = g.standard_normal((2, 4, 16))
            h = z[0] + 1j * z[1]
            k = h.conj().T @ h
            w = k[sub[:, :, None], sub[:, None, :]]
            np.trace(w, axis1=1, axis2=2).real.argmax()
            np.linalg.solve(self._grams, self._eye)
            sum(j * j for j in range(200))
        return time.perf_counter() - t0
