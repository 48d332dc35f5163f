"""Local flip unitaries and their application to a bipartite state.

The catalog is closed: the qubit NOT ("X"), four trit flips, and the
identities.  Every entry is a 0/1 permutation matrix, so unitarity is
exact.  Serialized names: "I", "X", "F01", "F02", "F102", "F201".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausSet, apply_channel
from .errors import UnknownOperation
from .qla import DensityMatrix

_FLIPS_2 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
}

# F01 swaps levels 0 and 1, F02 swaps 0 and 2; F102 and F201 are the two
# 3-cycles (mutually inverse: F102 @ F201 == I).
_FLIPS_3 = {
    "I": np.eye(3, dtype=complex),
    "F01": np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex),
    "F02": np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex),
    "F102": np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex),
    "F201": np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex),
}

QUBIT_OPS = tuple(_FLIPS_2)
QUTRIT_OPS = tuple(_FLIPS_3)


def flip_matrix(name: str, dim: int) -> np.ndarray:
    catalog = {2: _FLIPS_2, 3: _FLIPS_3}.get(dim)
    if catalog is None:
        raise UnknownOperation(f"no flip catalog for dimension {dim}")
    try:
        return catalog[name].copy()
    except KeyError:
        raise UnknownOperation(
            f"unknown operation {name!r} for dimension {dim}; "
            f"valid: {sorted(catalog)}"
        ) from None


def valid_ops(dim: int) -> tuple[str, ...]:
    return QUBIT_OPS if dim == 2 else QUTRIT_OPS


@dataclass(frozen=True)
class LocalUnitary:
    """A pair of flips applied to subsystems A and B."""

    op_a: str = "I"
    op_b: str = "I"

    @property
    def is_identity(self) -> bool:
        return self.op_a == "I" and self.op_b == "I"


IDENTITY_OP = LocalUnitary("I", "I")


def apply_luo(rho: DensityMatrix, op: LocalUnitary) -> DensityMatrix:
    """Conjugate by the local unitary: (U_A x U_B) rho (U_A x U_B)^dagger,
    through the channel kernel with one-operator stacks.

    Leaves the spectrum, and hence the entanglement, unchanged at the
    instant of application; only the subsequent damping differs.
    """
    try:
        ua = flip_matrix(op.op_a, rho.dim_a)
        ub = flip_matrix(op.op_b, rho.dim_b)
    except UnknownOperation as exc:
        raise UnknownOperation(f"{exc} (state dims ({rho.dim_a}, {rho.dim_b}))") from None
    return apply_channel(rho, KrausSet(ua[None], ub[None]))
