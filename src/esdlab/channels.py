"""Amplitude-damping channels for qubits and V-type qutrits.

A qubit damps its excited level to ground with probability p.  A V-type
qutrit has two excited levels that each damp only to the shared ground
level, with probabilities p1 and p2.  All channel math is done in
p-space; time enters only through ``DecayModel.p_of_t``/``t_of_p``.

The per-run parameterization ties the qutrit branches to the reference
probability linearly, p1 = ratio_a * p and p2 = ratio_b * p.  The second
evolution stage reuses the same ratios with p replaced by p'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeMismatch
from .qla import DensityMatrix


@dataclass(frozen=True)
class DecayModel:
    """Decay parameterization: p(t) = 1 - exp(-gamma*t), p1 = ratio_a*p,
    p2 = ratio_b*p."""

    ratio_a: float
    ratio_b: float
    gamma: float = 1.0

    def __post_init__(self):
        if not self.gamma > 0.0:
            raise DomainError(f"gamma must be positive, got {self.gamma}")
        for name in ("ratio_a", "ratio_b"):
            r = getattr(self, name)
            if not 0.0 <= r <= 1.0:
                raise DomainError(f"{name} must lie in [0, 1], got {r}")

    def p_of_t(self, t: float) -> float:
        if t < 0.0:
            raise DomainError(f"time must be non-negative, got {t}")
        return 1.0 - math.exp(-self.gamma * t)

    def t_of_p(self, p: float) -> float:
        if not 0.0 <= p < 1.0:
            raise DomainError(f"p must lie in [0, 1) for a finite time, got {p}")
        return -math.log(1.0 - p) / self.gamma

    def branch_probabilities(self, p: float) -> tuple[float, float]:
        """(p1, p2) for the qutrit branches at reference probability p."""
        return self.ratio_a * p, self.ratio_b * p


# analysis defaults: (0.8, 0.6) for qubit-qutrit, (1.0, 0.75) for qutrit-qutrit
def default_model(dims: tuple[int, int]) -> DecayModel:
    if dims == (2, 3):
        return DecayModel(ratio_a=0.8, ratio_b=0.6)
    if dims == (3, 3):
        return DecayModel(ratio_a=1.0, ratio_b=0.75)
    raise DomainError(f"unsupported dims {dims}")


@dataclass(frozen=True, eq=False)
class KrausSet:
    """A local channel as one Kraus stack per subsystem: ``ops_a`` has
    shape (k_A, d_A, d_A), ``ops_b`` has shape (k_B, d_B, d_B).  The
    composite operators are all products A_i (x) B_j; they are never built."""

    ops_a: np.ndarray
    ops_b: np.ndarray

    @property
    def dims(self) -> tuple[int, int]:
        return self.ops_a.shape[1], self.ops_b.shape[1]

    def completeness_residual(self) -> float:
        """max-norm of (sum_k K^dagger K) - identity, worst subsystem."""
        return max(
            float(np.abs(np.einsum("kji,kjl->il", ops.conj(), ops) - np.eye(ops.shape[1])).max())
            for ops in (self.ops_a, self.ops_b)
        )


def _check_probability(name: str, p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {p}")


def qubit_kraus(p: float) -> np.ndarray:
    """Stack of two operators: amplitude decay |1> -> |0> with probability p."""
    _check_probability("p", p)
    ops = np.zeros((2, 2, 2), dtype=complex)
    ops[0] = np.diag([1.0, math.sqrt(1.0 - p)])
    ops[1, 0, 1] = math.sqrt(p)
    return ops


def qutrit_kraus(p1: float, p2: float) -> np.ndarray:
    """Stack of three operators for the V-type qutrit: |1> -> |0> with p1,
    |2> -> |0> with p2, no |1> <-> |2> transitions."""
    _check_probability("p1", p1)
    _check_probability("p2", p2)
    ops = np.zeros((3, 3, 3), dtype=complex)
    ops[0] = np.diag([1.0, math.sqrt(1.0 - p1), math.sqrt(1.0 - p2)])
    ops[1, 0, 1] = math.sqrt(p1)
    ops[2, 0, 2] = math.sqrt(p2)
    return ops


def composite_kraus(dims: tuple[int, int], p: float, model: DecayModel) -> KrausSet:
    """Kraus set of the two-subsystem channel at reference probability p.

    (2, 3): qubit damped by p, qutrit branches by (ratio_a*p, ratio_b*p).
    (3, 3): two identical, independent qutrits, each with branches
    (ratio_a*p, ratio_b*p).
    """
    _check_probability("p", p)
    p1, p2 = model.branch_probabilities(p)
    if dims == (2, 3):
        return KrausSet(qubit_kraus(p), qutrit_kraus(p1, p2))
    if dims == (3, 3):
        kq = qutrit_kraus(p1, p2)
        return KrausSet(kq, kq)
    raise DomainError(f"unsupported dims {dims}")


def composite_kraus_from_branches(
    dims: tuple[int, int],
    branches_a: tuple[float, ...],
    branches_b: tuple[float, float],
) -> KrausSet:
    """Composite channel with explicitly given per-branch probabilities.

    ``branches_a`` is (p,) for a qubit or (p1, p2) for a qutrit;
    ``branches_b`` is always (p1, p2).  Used to express channel
    composition: two stages equal one stage with damping
    1 - (1-p)(1-p') on every decay branch.
    """
    side_a = {(2, 3): qubit_kraus, (3, 3): qutrit_kraus}.get(dims)
    if side_a is None:
        raise DomainError(f"unsupported dims {dims}")
    return KrausSet(side_a(*branches_a), qutrit_kraus(*branches_b))


def apply_channel(rho: DensityMatrix, ks: KrausSet) -> DensityMatrix:
    """Evolve rho through the local channel, sum_ij (A_i x B_j) rho (A_i x B_j)^dagger,
    contracting one subsystem at a time on the (d_A, d_B, d_A, d_B) tensor."""
    if ks.dims != (rho.dim_a, rho.dim_b):
        raise ShapeMismatch(
            f"Kraus set is for dims {ks.dims}, state has ({rho.dim_a}, {rho.dim_b})"
        )
    a, b = ks.ops_a, ks.ops_b
    r = rho.matrix.reshape(rho.dim_a, rho.dim_b, rho.dim_a, rho.dim_b)
    r = np.einsum("iae,efgh,icg->afch", a, r, a.conj())
    r = np.einsum("jbf,afch,jdh->abcd", b, r, b.conj())
    return DensityMatrix(rho.dim_a, rho.dim_b, r.reshape(rho.dim, rho.dim))
