"""The numeric tolerances a run chooses.

Each field is set by one CLI flag: ``--zero-threshold``, ``--tol`` and
``--pprime-step``.  Fixed constants live with the code that uses them:
the matrix validation limits in ``qla``, the p' cap in ``dynamics``.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    negativity_zero: float = 1e-12
    bisection: float = 5e-4
    pprime_grid_step: float = 0.01


DEFAULT = Tolerances()
