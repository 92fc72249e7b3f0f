"""A fixed reference workload that measures how fast the machine runs during a run.

On a shared host the same code can run 30 % faster or slower from one minute
to the next, and every workload moves with it.  A run therefore interleaves
this workload with its ops, in small units, and divides the machine's speed
out of its end-to-end timings: a wall time multiplied by ``factor()`` reads
as it would on a machine that does REFERENCE_UNITS_PER_S units a second.

The reference work uses numpy alone, never qucorr, so no change to the
package can move it.  It mixes what the package's hot paths spend their time
on: batched Hermitian eigensolves (the measurement grid), small dense
products followed by a check and an eigensolve (the twirl stages and
validation), and plain interpreter work.
"""

from __future__ import annotations

import time

import numpy as np

# The reference speed, in units per second.  It is about the median speed of a
# 2-vCPU Intel Xeon VM with one BLAS thread, so reported timings stay close
# to the wall times seen there.
REFERENCE_UNITS_PER_S = 150.0
# Reference work per unit of op time: after every op, units run until their
# total time reaches this share of the total op time.
SHARE = 0.25
BATCH = 128


def _hermitian(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    a = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
    return a + a.conj().transpose(0, 2, 1)


class SpeedProbe:
    """Counts reference units and the time they took."""

    def __init__(self):
        rng = np.random.default_rng(20100823)
        self._batches = [_hermitian(rng, n, BATCH) for n in (2, 3, 5, 8, 16)]
        self._matrices = [_hermitian(rng, 2 * d, 1)[0] for d in (3, 5, 8, 16)]
        self.units = 0
        self.busy = 0.0

    def _unit(self) -> None:
        for batch in self._batches:
            np.linalg.eigvalsh(batch)
        for m in self._matrices:
            for _ in range(4):
                p = m @ m @ m.conj().T
                np.max(np.abs(p - p.conj().T))
                np.trace(p)
            np.linalg.eigvalsh(m)
        acc = 0.0
        for i in range(1000):
            acc += (i % 7) * 0.5

    def keep_up(self, op_busy: float) -> None:
        """Run units until they have taken SHARE of ``op_busy`` seconds, and at least one."""
        while self.units == 0 or self.busy < SHARE * op_busy:
            t0 = time.perf_counter()
            self._unit()
            self.busy += time.perf_counter() - t0
            self.units += 1

    def units_per_s(self) -> float:
        return self.units / self.busy

    def factor(self) -> float:
        """Measured speed over the reference speed; wall time times this is reference time."""
        return self.units_per_s() / REFERENCE_UNITS_PER_S
