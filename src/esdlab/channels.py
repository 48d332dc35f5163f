"""Amplitude-damping channels for qubits and V-type qutrits.

A qubit damps its excited level to ground with probability p.  A V-type
qutrit has two excited levels that each damp only to the shared ground
level, with probabilities p1 and p2.  All channel math is done in
p-space; time enters only through ``DecayModel.p_of_t``/``t_of_p``.

The per-run parameterization ties the qutrit branches to the reference
probability linearly, p1 = ratio_a * p and p2 = ratio_b * p.  The second
evolution stage reuses the same ratios with p replaced by p'.

The Kraus builders also take an array of p and return one stack per
element.  ``apply_channel`` applies per-subsystem superoperators to the
realigned state, so a whole p' sweep is one pass through one kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeMismatch
from .qla import DensityMatrix, realign


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
    """A local channel as one Kraus stack per subsystem, ``ops_a`` of shape
    (..., k_A, d_A, d_A) and ``ops_b`` of shape (..., k_B, d_B, d_B), where
    ... is an optional p' axis.  The products A_i (x) B_j are never built."""

    ops_a: np.ndarray
    ops_b: np.ndarray

    @property
    def dims(self) -> tuple[int, int]:
        return self.ops_a.shape[-1], self.ops_b.shape[-1]

    def completeness_residual(self) -> float:
        """max-norm of (sum_k K^dagger K) - identity, worst subsystem and p."""
        return max(
            np.abs(np.einsum("...kji,...kjl->...il", ops.conj(), ops) - np.eye(ops.shape[-1])).max()
            for ops in (self.ops_a, self.ops_b)
        )


def _probabilities(name: str, p) -> np.ndarray | np.float64:
    """``p`` as an array, or a numpy scalar when it is one number, with
    every element checked to lie in [0, 1]."""
    p = np.asarray(p, dtype=float)
    bad = [v for v in p.ravel().tolist() if not 0.0 <= v <= 1.0]
    if bad:
        raise DomainError(f"{name} must lie in [0, 1], got {bad[0]}")
    return p[()]


def _damping_ops(*branches) -> np.ndarray:
    """Kraus stack of a damping with one probability per excited level i,
    each decaying only to ground: K_0 = diag(1, sqrt(1-p_1), ...) and
    K_i = sqrt(p_i) |0><i|.  Probabilities must already be checked."""
    d = len(branches) + 1
    squares = np.zeros(np.shape(branches[0]) + (d, d, d))  # entries are square roots
    squares[..., 0, 0, 0] = 1.0
    for i, p in enumerate(branches, 1):
        squares[..., 0, i, i] = 1.0 - p
        squares[..., i, 0, i] = p
    return np.sqrt(squares).astype(complex)


def qubit_kraus(p) -> np.ndarray:
    """Stack of two operators: amplitude decay |1> -> |0> with probability p.
    An array of p gives one stack per element, shape p.shape + (2, 2, 2)."""
    return _damping_ops(_probabilities("p", p))


def qutrit_kraus(p1, p2) -> np.ndarray:
    """Stack of three operators for the V-type qutrit: |1> -> |0> with p1,
    |2> -> |0> with p2, no |1> <-> |2> transitions.  Arrays of p1 and p2
    of one shape give one stack per element, shape p1.shape + (3, 3, 3)."""
    return _damping_ops(_probabilities("p1", p1), _probabilities("p2", p2))


def composite_kraus(dims: tuple[int, int], p, model: DecayModel) -> KrausSet:
    """Kraus set of the two-subsystem channel at reference probability p,
    or one set per element of an array of p (a p' sweep).

    (2, 3): qubit damped by p, qutrit branches by (ratio_a*p, ratio_b*p).
    (3, 3): two identical, independent qutrits, each with branches
    (ratio_a*p, ratio_b*p).
    """
    p = _probabilities("p", p)
    branches = model.branch_probabilities(p)  # within [0, p]: ratios lie in [0, 1]
    if dims == (2, 3):
        return KrausSet(_damping_ops(p), _damping_ops(*branches))
    if dims == (3, 3):
        kq = _damping_ops(*branches)
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


def superoperator(ops: np.ndarray) -> np.ndarray:
    """sum_k K_k (x) conj(K_k) of a Kraus stack (..., k, d, d), shape
    (..., d^2, d^2): the channel as a matrix on row-major vectorised
    operators, vec(K X K^dagger) = (K (x) conj(K)) vec(X)."""
    d = ops.shape[-1]
    m = np.einsum("...kae,...kcg->...aceg", ops, ops.conj())
    return m.reshape(ops.shape[:-3] + (d * d, d * d))


def apply_channel(rho: DensityMatrix, ks: KrausSet) -> DensityMatrix:
    """Evolve rho through the local channel, sum_ij (A_i x B_j) rho (A_i x B_j)^dagger.

    On the realigned (d_A^2, d_B^2) view X of rho the channel is
    M_A X M_B^T, with M the per-subsystem superoperators.  A leading p'
    axis on the Kraus stacks, on rho, or on both gives a stack of states.
    """
    if ks.dims != (rho.dim_a, rho.dim_b):
        raise ShapeMismatch(
            f"Kraus set is for dims {ks.dims}, state has ({rho.dim_a}, {rho.dim_b})"
        )
    da, db = rho.dim_a, rho.dim_b
    x = superoperator(ks.ops_a) @ realign(rho) @ superoperator(ks.ops_b).swapaxes(-1, -2)
    r = x.reshape(x.shape[:-2] + (da, da, db, db)).swapaxes(-3, -2)
    return DensityMatrix(da, db, r.reshape(x.shape[:-2] + (rho.dim, rho.dim)))
