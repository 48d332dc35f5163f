"""Shared helpers: random-state generators, brute-force index oracles and
the Kraus completeness residual.

The oracles deliberately re-derive each transformation with explicit
index loops (or defer to numpy.linalg), independently of the vectorized
production code they check.
"""

import numpy as np
import pytest

from esdlab.channels import KrausSet
from esdlab.qla import DensityMatrix


def random_density_matrix(rng, dim_a: int, dim_b: int, rank: int | None = None) -> DensityMatrix:
    d = dim_a * dim_b
    k = rank or d
    g = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
    m = g @ g.conj().T
    m /= np.trace(m).real
    m = (m + m.conj().T) / 2.0
    return DensityMatrix(dim_a, dim_b, m)


def random_unitary(rng, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pure_product(rng, dim_a: int, dim_b: int) -> DensityMatrix:
    def ket(n):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        return v / np.linalg.norm(v)

    psi = np.kron(ket(dim_a), ket(dim_b))
    return DensityMatrix(dim_a, dim_b, np.outer(psi, psi.conj()))


def brute_partial_transpose(m: np.ndarray, da: int, db: int, subsystem: str) -> np.ndarray:
    out = np.zeros_like(np.asarray(m, complex))
    for ia in range(da):
        for ib in range(db):
            for ja in range(da):
                for jb in range(db):
                    if subsystem == "A":
                        out[da_idx(ja, ib, db), da_idx(ia, jb, db)] = m[
                            da_idx(ia, ib, db), da_idx(ja, jb, db)
                        ]
                    else:
                        out[da_idx(ia, jb, db), da_idx(ja, ib, db)] = m[
                            da_idx(ia, ib, db), da_idx(ja, jb, db)
                        ]
    return out


def da_idx(i: int, j: int, db: int) -> int:
    return db * i + j


def brute_realign(m: np.ndarray, da: int, db: int) -> np.ndarray:
    out = np.zeros((da * da, db * db), dtype=complex)
    for i in range(da):
        for j in range(db):
            for k in range(da):
                for l in range(db):
                    out[da * i + k, db * j + l] = m[da_idx(i, j, db), da_idx(k, l, db)]
    return out


def completeness_residual(ks: KrausSet) -> float:
    """max-norm of (sum_k K^dagger K) - identity, worst subsystem and p."""
    return max(
        np.abs(np.einsum("...kji,...kjl->...il", ops.conj(), ops) - np.eye(ops.shape[-1])).max()
        for ops in (ks.ops_a, ks.ops_b)
    )


def numpy_negativity(m: np.ndarray, da: int, db: int) -> float:
    pt = brute_partial_transpose(m, da, db, "A")
    w = np.linalg.eigvalsh(pt)
    return float(-w[w < 0].sum()) + 0.0


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
