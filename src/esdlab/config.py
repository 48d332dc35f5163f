"""Central numeric tolerances.

Every solver and every test reads thresholds from this one record so that
root-finding accuracy, zero detection, and validation stay consistent.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # matrix validation
    hermiticity: float = 1e-12
    trace: float = 1e-12

    # entanglement detection and root finding
    negativity_zero: float = 1e-12
    bisection: float = 5e-4
    pprime_grid_step: float = 0.01
    death_cap: float = 1.0 - 1e-6


DEFAULT = Tolerances()
