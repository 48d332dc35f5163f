"""Dense complex linear algebra for bipartite density matrices up to 9x9.

Conventions
-----------
Composite basis ordering is lexicographic |i>_A (x) |j>_B, i.e. the flat
index of |ij> is ``dim_b * i + j``.  All operations return new arrays;
nothing mutates its input.

Eigenvalues and singular values come from LAPACK through ``numpy.linalg``;
a LAPACK failure propagates as ``numpy.linalg.LinAlgError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import NonHermitianInput, ShapeMismatch


def hermiticity_defect(m: np.ndarray) -> float:
    """max |m_ij - conj(m_ji)|."""
    return float(np.abs(m - m.conj().T).max()) if m.size else 0.0


def hermitian_eigenvalues(m: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, sorted ascending, from LAPACK.

    Indices are first reordered so that each decoupled block (connected
    component of the nonzero pattern) is contiguous; LAPACK then solves
    each block at the scale of its own norm, not the whole matrix's.  The
    damped states' partial transposes split into 1x1 and 2x2 blocks that
    differ by many orders of magnitude, and their small eigenvalues would
    otherwise lose printed digits of negativity.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {m.shape}")
    if hermiticity_defect(m) > tol.hermiticity:
        raise NonHermitianInput(
            f"Hermiticity defect {hermiticity_defect(m):.3e} exceeds "
            f"{tol.hermiticity:.0e}"
        )
    n = m.shape[0]
    linked = (m != 0) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):  # each squaring doubles the path length
        linked = linked @ linked
    # label each index by the first index of its block; sorting groups blocks
    order = np.argsort(linked.argmax(axis=1), kind="stable")
    return np.linalg.eigvalsh(m[np.ix_(order, order)])


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values.

    Rectangular inputs are allowed (realigned matrices are d_A^2 x d_B^2).
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got shape {m.shape}")
    return float(np.linalg.svd(m, compute_uv=False).sum())


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A bipartite density matrix tagged with its subsystem dimensions.

    Checked at construction: shape, finiteness, Hermiticity, unit trace.
    Positivity requires an eigensolve and is verified by ``min_eigenvalue``
    where callers need it (state builders, property tests); channel outputs
    are positive by construction.
    """

    dim_a: int
    dim_b: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.dim_a not in (2, 3) or self.dim_b not in (2, 3):
            raise ShapeMismatch(
                f"supported subsystem dimensions are 2 and 3, got "
                f"({self.dim_a}, {self.dim_b})"
            )
        d = self.dim_a * self.dim_b
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (d, d):
            raise ShapeMismatch(f"expected a {d}x{d} matrix, got {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("matrix contains NaN or Inf entries")
        if hermiticity_defect(m) > DEFAULT.hermiticity:
            raise NonHermitianInput(
                f"Hermiticity defect {hermiticity_defect(m):.3e}"
            )
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > DEFAULT.trace:
            raise ValueError(f"trace {tr} is not 1 within {DEFAULT.trace:.0e}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    def min_eigenvalue(self) -> float:
        return float(hermitian_eigenvalues(self.matrix)[0])


def partial_transpose_matrix(
    m: np.ndarray, dim_a: int, dim_b: int, subsystem: str = "A"
) -> np.ndarray:
    """Block transpose on one subsystem of a (dim_a*dim_b)-square matrix."""
    d = dim_a * dim_b
    m = np.asarray(m, dtype=complex)
    if m.shape != (d, d):
        raise ShapeMismatch(f"expected a {d}x{d} matrix, got {m.shape}")
    r = m.reshape(dim_a, dim_b, dim_a, dim_b)
    if subsystem == "A":
        r = r.transpose(2, 1, 0, 3)
    elif subsystem == "B":
        r = r.transpose(0, 3, 2, 1)
    else:
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return r.reshape(d, d).copy()


def partial_transpose(rho: DensityMatrix, subsystem: str = "A") -> np.ndarray:
    """Partial transpose of a density matrix; Hermitian and unit trace,
    but in general not positive (that is the point of the PPT test)."""
    return partial_transpose_matrix(rho.matrix, rho.dim_a, rho.dim_b, subsystem)


def realign_matrix(m: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Realignment R with R[(m,mu),(n,nu)] = rho[(m,n),(mu,nu)].

    Row index ranges over pairs of subsystem-A indices, column index over
    pairs of subsystem-B indices; the result has shape dim_a^2 x dim_b^2.
    """
    d = dim_a * dim_b
    m = np.asarray(m, dtype=complex)
    if m.shape != (d, d):
        raise ShapeMismatch(f"expected a {d}x{d} matrix, got {m.shape}")
    r = m.reshape(dim_a, dim_b, dim_a, dim_b)
    return r.transpose(0, 2, 1, 3).reshape(dim_a * dim_a, dim_b * dim_b).copy()


def realign(rho: DensityMatrix) -> np.ndarray:
    return realign_matrix(rho.matrix, rho.dim_a, rho.dim_b)
