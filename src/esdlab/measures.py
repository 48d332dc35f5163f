"""Entanglement quantifiers: negativity (PPT) and realigned negativity (CCNR).

Negativity is conclusive in 2x3: zero negativity means separable.  In 3x3
it is not; when negativity vanishes there the realignment criterion is
consulted, and a null result is reported as "undetected", never as
"separable".

``negativity`` and ``realigned_negativity`` give one value per state of a stack.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import qla
from .config import DEFAULT, Tolerances
from .errors import ShapeMismatch
from .qla import DensityMatrix


class Verdict(str, enum.Enum):
    ENTANGLED = "Entangled"
    PPT_UNDETECTED = "PPTUndetected"
    SEPARABLE_2X3 = "Separable2x3"


@dataclass(frozen=True)
class EntanglementReading:
    negativity: float
    realigned_negativity: float | None
    verdict: Verdict


def negativity(rho: DensityMatrix) -> float | np.ndarray:
    """Sum of |lambda| over the negative eigenvalues of the partial
    transpose.  The subsystem choice does not affect the value.

    A partial transpose with at most one off-diagonal entry per row and a
    non-negative diagonal (every damped X-like state) has 2x2 blocks [[a,
    c], [c*, b]]: lambda- = (ab - |c|^2)/lambda+ with lambda+ = (a+b)/2 +
    hypot((a-b)/2, |c|) is free of cancellation and exactly 0 when the
    block is singular.  Other matrices go to ``qla.hermitian_eigenvalues``.
    """
    pt = qla.partial_transpose(rho, "A")
    n = pt.shape[-1]
    stack = pt.reshape(-1, n, n)
    a = stack.diagonal(axis1=-2, axis2=-1).real
    off = np.abs(stack)
    off.reshape(len(stack), n * n)[:, :: n + 1] = 0.0  # the diagonal
    linked = off != 0  # symmetric up to entries below qla.HERMITICITY
    blocked = ((linked.sum(-1) <= 1) & (a >= 0)).all(-1)
    c = off.sum(-1)  # each row's one off-diagonal |c|
    b = (linked @ a[..., None])[..., 0]  # the diagonal entry of each row's partner
    two_plus = a + b + np.hypot(a - b, 2 * c)  # 2 lambda+
    # both rows of a block hold its -lambda-/2; 1x1 blocks give 0
    neg = (np.maximum(c * c - a * b, 0.0) / np.where(two_plus > 0, two_plus, 1.0)).sum(-1)
    if not blocked.all():
        w = qla.hermitian_eigenvalues(stack[~blocked])
        # the negatives lead the ascending spectrum: sum them left to right
        neg[~blocked] = -np.minimum(w, 0.0).cumsum(axis=-1)[:, -1]
    return neg.reshape(pt.shape[:-2]) + 0.0  # avoid -0.0


def realigned_negativity(rho: DensityMatrix) -> float | np.ndarray:
    """max(0, ||realign(rho)||_tr - 1); positive values certify
    entanglement, including some PPT (bound-entangled) states."""
    return np.maximum(0.0, qla.trace_norm(qla.realign(rho)) - 1.0)


def assess(rho: DensityMatrix, tol: Tolerances = DEFAULT) -> EntanglementReading:
    """The entanglement verdict on one state; a stack raises ``ShapeMismatch``."""
    if rho.matrix.ndim != 2:
        raise ShapeMismatch(f"assess takes one state, got a stack of shape {rho.matrix.shape}")
    neg = negativity(rho)
    if (rho.dim_a, rho.dim_b) != (3, 3):
        verdict = Verdict.ENTANGLED if neg > tol.negativity_zero else Verdict.SEPARABLE_2X3
        return EntanglementReading(neg, None, verdict)
    realigned = realigned_negativity(rho)
    if max(neg, realigned) > tol.negativity_zero:
        return EntanglementReading(neg, realigned, Verdict.ENTANGLED)
    return EntanglementReading(neg, realigned, Verdict.PPT_UNDETECTED)
