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
    transpose.  The subsystem choice does not affect the value."""
    w = qla.hermitian_eigenvalues(qla.partial_transpose(rho, "A"))
    # the negatives lead the ascending spectrum: sum them left to right
    return -np.minimum(w, 0.0).cumsum(axis=-1)[..., -1] + 0.0  # avoid -0.0


def realigned_negativity(rho: DensityMatrix) -> float | np.ndarray:
    """max(0, ||realign(rho)||_tr - 1); positive values certify
    entanglement, including some PPT (bound-entangled) states."""
    return np.maximum(0.0, qla.trace_norm(qla.realign(rho)) - 1.0)


def assess(rho: DensityMatrix, tol: Tolerances = DEFAULT) -> EntanglementReading:
    neg = negativity(rho)
    if (rho.dim_a, rho.dim_b) == (3, 3):
        realigned = realigned_negativity(rho)
        if neg > tol.negativity_zero or realigned > tol.negativity_zero:
            verdict = Verdict.ENTANGLED
        else:
            verdict = Verdict.PPT_UNDETECTED
        return EntanglementReading(neg, realigned, verdict)
    if neg > tol.negativity_zero:
        return EntanglementReading(neg, None, Verdict.ENTANGLED)
    return EntanglementReading(neg, None, Verdict.SEPARABLE_2X3)
