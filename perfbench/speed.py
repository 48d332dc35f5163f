"""Machine-speed probe for a shared, noisy host.

On a shared 2-core VM the speed of identical work drifts by up to a third
within a minute.  The benchmark runs a fixed reference kernel between
commands and scales each command's latency by the kernel's speed around it:

    scaled = raw * NOMINAL_S / median(kernel times within WINDOW_S of the command)

Scaled figures are in milliseconds at the nominal kernel time; the raw
figures are printed beside them.

The kernel is frozen.  Every scaled timing is in units of its speed, so an
edit to it would rescale every timing metric and make runs from before and
after incomparable.  It is numpy work of the program's kind and size (a
two-qutrit amplitude-damping channel applied by einsum, a local flip, and
eigenvalues and singular values of 9x9 matrices), written here and used by
nothing else, so no change to the program or to the output checks moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 2.5e-3  # typical kernel time on a 2-core x86_64 VM
EVERY_S = 0.25  # probe at most this often
WINDOW_S = 1.0  # probes this close to a command describe its speed
REPEATS = 3  # kernel runs per probe; the probe keeps their median


# ------------------------------------------------------------------ frozen kernel

_FLIP01 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def _state(x: float) -> np.ndarray:
    w = (1.0 - 2.0 * x) / 3.0
    rho = np.diag([w, x / 3, x / 3, x / 3, w, x / 3, x / 3, x / 3, w]).astype(complex)
    rho[0, 8] = rho[8, 0] = w
    return rho.reshape(3, 3, 3, 3)


def _damp(r: np.ndarray, p: float) -> np.ndarray:
    k = np.zeros((3, 3, 3))
    k[0] = np.diag([1.0, np.sqrt(1.0 - p), np.sqrt(1.0 - 0.75 * p)])
    k[1, 0, 1] = np.sqrt(p)
    k[2, 0, 2] = np.sqrt(0.75 * p)
    r = np.einsum("iae,efgh,icg->afch", k, r, k.conj())
    return np.einsum("jbf,afch,jdh->abcd", k, r, k.conj())


def kernel() -> float:
    t0 = time.perf_counter()
    for pprime in (0.1, 0.3, 0.5, 0.7, 0.9):
        r = _damp(_state(0.2), 0.1)
        u, e = _FLIP01, np.eye(3)
        r = np.einsum("ae,bf,efgh,cg,dh->abcd", u, e, r, u, e, optimize=True)
        r = _damp(r, pprime)
        np.linalg.eigvalsh(r.transpose(2, 1, 0, 3).reshape(9, 9))
        np.linalg.svd(r.transpose(0, 2, 1, 3).reshape(9, 9), compute_uv=False)
    return time.perf_counter() - t0


# ------------------------------------------------------------------ probe


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []  # probe midpoints
        self.values: list[float] = []
        self.spent = 0.0

    def probe(self) -> None:
        t0 = time.perf_counter()
        self.values.append(statistics.median(kernel() for _ in range(REPEATS)))
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.spent += t1 - t0

    def between(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= EVERY_S:
            self.probe()

    def finish(self) -> None:
        self.probe()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the kernel time around [start, end]."""
        t = np.array(self.times)
        near = (t >= start - WINDOW_S) & (t <= end + WINDOW_S)
        values = np.array(self.values)[near] if near.any() else self.values
        return NOMINAL_S / float(np.median(values))
