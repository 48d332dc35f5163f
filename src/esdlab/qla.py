"""Dense complex linear algebra for bipartite density matrices up to 9x9.

Conventions
-----------
Composite basis ordering is lexicographic |i>_A (x) |j>_B, i.e. the flat
index of |ij> is ``dim_b * i + j``.  All operations return new arrays;
nothing mutates its input.

Every operation takes one matrix or a stack of matrices with one leading
axis (a p' sweep), and returns one result per matrix of the stack.
Eigenvalues and singular values come from LAPACK through ``numpy.linalg``;
a LAPACK failure propagates as ``numpy.linalg.LinAlgError``.  Negativity
reads the damped states' partial transposes block by block in closed form
(``measures.negativity``) and calls ``hermitian_eigenvalues`` only for a
matrix with larger blocks or a negative diagonal entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonHermitianInput, ShapeMismatch

HERMITICITY = 1e-12  # largest Hermiticity defect accepted
TRACE = 1e-12  # largest deviation of a state's trace from 1


def hermiticity_defect(m: np.ndarray) -> float:
    """max |m_ij - conj(m_ji)|, worst matrix of a stack."""
    return float(np.abs(m - m.conj().swapaxes(-1, -2)).max()) if m.size else 0.0


def _check_stack(m: np.ndarray, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """``m`` as a complex matrix or stack of them, of matrix shape ``shape`` or square."""
    m = np.asarray(m, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-2:] != (shape or m.shape[-1:] * 2):
        raise ShapeMismatch(f"expected a {shape or 'square'} matrix or stack, got {m.shape}")
    return m


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, sorted ascending, from one
    LAPACK ``eigvalsh`` call; a stack (n, d, d) gives (n, d)."""
    m = _check_stack(m)
    if (defect := hermiticity_defect(m)) > HERMITICITY:
        raise NonHermitianInput(f"Hermiticity defect {defect:.3e} exceeds {HERMITICITY:.0e}")
    return np.linalg.eigvalsh(m)


def trace_norm(m: np.ndarray) -> float | np.ndarray:
    """Sum of singular values; rectangular (realigned) matrices allowed."""
    m = np.asarray(m, dtype=complex)
    if m.ndim not in (2, 3):
        raise ShapeMismatch(f"expected a matrix or stack, got shape {m.shape}")
    return np.linalg.svd(m, compute_uv=False).sum(axis=-1)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A bipartite density matrix, or a stack of them along one leading
    axis, tagged with the subsystem dimensions.

    Checked at construction, per matrix: shape, finiteness, Hermiticity,
    unit trace.  Positivity requires an eigensolve (``min_eigenvalue``, in
    property tests); channel outputs are positive by construction.
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
        m = _check_stack(np.array(self.matrix, dtype=complex), (self.dim,) * 2)
        if not np.isfinite(m).all():
            raise ValueError("matrix contains NaN or Inf entries")
        if (defect := hermiticity_defect(m)) > HERMITICITY:
            raise NonHermitianInput(f"Hermiticity defect {defect:.3e}")
        off = abs(m.trace(axis1=-2, axis2=-1) - 1.0)
        if (off > TRACE).any():
            raise ValueError(f"trace is off 1 by {np.max(off):.3e}, over {TRACE:.0e}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    def min_eigenvalue(self) -> float | np.ndarray:
        return hermitian_eigenvalues(self.matrix)[..., 0]


def partial_transpose_matrix(
    m: np.ndarray, dim_a: int, dim_b: int, subsystem: str = "A"
) -> np.ndarray:
    """Block transpose on one subsystem of a (dim_a*dim_b)-square matrix."""
    m = _check_stack(m, (dim_a * dim_b,) * 2)
    r = m.reshape(m.shape[:-2] + (dim_a, dim_b, dim_a, dim_b))
    if subsystem == "A":
        r = r.swapaxes(-4, -2)
    elif subsystem == "B":
        r = r.swapaxes(-3, -1)
    else:
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return r.reshape(m.shape).copy()


def partial_transpose(rho: DensityMatrix, subsystem: str = "A") -> np.ndarray:
    """Partial transpose of a density matrix; Hermitian and unit trace,
    but in general not positive (that is the point of the PPT test)."""
    return partial_transpose_matrix(rho.matrix, rho.dim_a, rho.dim_b, subsystem)


def realign(rho: DensityMatrix) -> np.ndarray:
    """Realignment R with R[(m,mu),(n,nu)] = rho[(m,n),(mu,nu)].

    Row index ranges over pairs of subsystem-A indices, column index over
    pairs of subsystem-B indices; the result has shape dim_a^2 x dim_b^2.
    """
    a, b, m = rho.dim_a, rho.dim_b, rho.matrix
    r = m.reshape(m.shape[:-2] + (a, b, a, b)).swapaxes(-3, -2)
    return r.reshape(m.shape[:-2] + (a * a, b * b)).copy()
