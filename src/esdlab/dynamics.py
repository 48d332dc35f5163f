"""Two-stage evolution, death-point solving, and manipulation classification.

Pipeline: build the initial state, damp it to strength p_n, apply the
local flip pair, then damp again with a fresh channel of strength p'.
With the identity flip the pipeline is the uninterrupted two-stage
evolution, which serves as the comparison baseline (the "red curve"):
both curves are parameterized by the shared abscissa p_n.

Death points are located by scanning the p' grid (``pprime_grid``) for
the first sample where negativity vanishes and bisecting the step before
it; regime boundaries bisect over p_n and ``critical_x`` over x, all with
the one ``_bisect``.  Nothing is checked past a death point: local CPTP
maps cannot create entanglement (Peres 1996), and a stronger damping
stage equals a weaker one followed by a valid local increment, so once
negativity vanishes along p' it stays zero.  A p' sweep builds
``state_after_flip`` once and ``damp``s it as one stack.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .channels import DecayModel, apply_channel, composite_kraus, default_model
from .config import DEFAULT, Tolerances
from .errors import DomainError
from .luo import IDENTITY_OP, LocalUnitary, apply_luo
from .measures import negativity
from .qla import DensityMatrix
from .states import FamilyId, StateFamily, build_state


@dataclass(frozen=True)
class StageSchedule:
    """One manipulation experiment: which family, which decay ratios,
    which flip pair, and the damping strength p_n at which it is applied."""

    family: StateFamily
    model: DecayModel
    op: LocalUnitary = IDENTITY_OP
    p_n: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p_n < 1.0:
            raise DomainError(f"p_n must lie in [0, 1), got {self.p_n}")

    def baseline(self) -> "StageSchedule":
        return replace(self, op=IDENTITY_OP)


def damp(rho: DensityMatrix, model: DecayModel, p) -> DensityMatrix:
    """One damping stage of reference strength p on both subsystems; an
    array of p gives the stack of states, one per element."""
    return apply_channel(rho, composite_kraus((rho.dim_a, rho.dim_b), p, model))


def state_after_flip(s: StageSchedule) -> DensityMatrix:
    """The state at the flip instant: rho(0) damped to p_n, then flipped."""
    rho = damp(build_state(s.family), s.model, s.p_n)
    return rho if s.op.is_identity else apply_luo(rho, s.op)


def evolve_two_stage(s: StageSchedule, p_prime) -> DensityMatrix:
    """State after the full pipeline at second-stage strength p_prime; an
    array of p_prime gives the stack of states, one per element."""
    return damp(state_after_flip(s), s.model, p_prime)


class Outcome(str, enum.Enum):
    AVOID = "Avoid"
    DELAY = "Delay"
    HASTEN = "Hasten"
    UNCHANGED = "Unchanged"
    NO_BASELINE_DEATH = "NoBaselineDeath"


@dataclass(frozen=True)
class ClassificationVerdict:
    p_n: float
    outcome: Outcome
    baseline_death: float | None
    manipulated_death: float | None


@dataclass(frozen=True)
class BoundaryCurve:
    """Sampled death locus: (p_n, p'-of-death or None when no death)."""

    samples: tuple


@dataclass(frozen=True)
class DeathRecord:
    p_prime: float | None
    iterations: int
    bracket: tuple[float, float] | None


def pprime_grid(tol: Tolerances) -> np.ndarray:
    """The p' samples: 0 to ``tol.death_cap`` in steps of
    ``tol.pprime_grid_step``, with the cap itself as the last sample."""
    return np.append(np.arange(0.0, tol.death_cap, tol.pprime_grid_step), tol.death_cap)


def _bisect(pred, lo: float, hi: float, tol: float) -> tuple[float, int]:
    """Halve [lo, hi] until it is no wider than tol, keeping pred false at
    lo and true at hi.  Returns the final midpoint and the step count."""
    steps = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
        steps += 1
    return 0.5 * (lo + hi), steps


def death_point_record(s: StageSchedule, tol: Tolerances = DEFAULT) -> DeathRecord:
    """Locate the smallest p' where negativity vanishes, with solver detail.

    Scans ``pprime_grid(tol)`` for the first sample at or below the zero
    threshold, then bisects the step before it down to ``tol.bisection``;
    ``bracket`` is that step.  Returns p_prime=None when negativity stays
    above the threshold on the whole grid (asymptotic decay / avoidance).
    Nothing past the death point is checked: negativity cannot revive
    along p', since a stronger damping stage equals a weaker one
    followed by a local CPTP increment, and local CPTP maps preserve a
    positive partial transpose.
    """
    zero = tol.negativity_zero
    flipped = state_after_flip(s)
    dead = lambda pp: negativity(damp(flipped, s.model, pp), tol=tol) <= zero
    if dead(0.0):
        return DeathRecord(p_prime=0.0, iterations=0, bracket=(0.0, 0.0))

    grid = pprime_grid(tol)
    lo = 0.0
    for pp in grid[1:]:
        hi = float(pp)
        if dead(hi):
            death, iterations = _bisect(dead, lo, hi, tol.bisection)
            return DeathRecord(p_prime=death, iterations=iterations, bracket=(lo, hi))
        lo = hi
    return DeathRecord(p_prime=None, iterations=len(grid) - 1, bracket=None)


def death_point(s: StageSchedule, tol: Tolerances = DEFAULT) -> float | None:
    """Smallest p' in [0, 1) with vanishing negativity, or None if the
    negativity survives up to the cap (avoidance / asymptotic decay)."""
    return death_point_record(s, tol).p_prime


def classify(s: StageSchedule, tol: Tolerances = DEFAULT) -> ClassificationVerdict:
    """Compare the manipulated death point against the uninterrupted
    baseline at the same p_n split.

    Avoid: manipulated never dies while the baseline does.  Delay /
    Hasten: both die, later / earlier than baseline by more than the
    solver tolerance.  Unchanged covers ties (in particular the identity
    flip, where both curves coincide).
    """
    baseline = death_point(s.baseline(), tol)
    if baseline is None:
        return ClassificationVerdict(s.p_n, Outcome.NO_BASELINE_DEATH, None, None)
    # the identity flip leaves the baseline pipeline unchanged
    manipulated = baseline if s.op.is_identity else death_point(s, tol)
    if manipulated is None:
        return ClassificationVerdict(s.p_n, Outcome.AVOID, baseline, None)
    if manipulated > baseline + tol.bisection:
        outcome = Outcome.DELAY
    elif manipulated < baseline - tol.bisection:
        outcome = Outcome.HASTEN
    else:
        outcome = Outcome.UNCHANGED
    return ClassificationVerdict(s.p_n, outcome, baseline, manipulated)


@dataclass(frozen=True)
class RegimeBoundaries:
    """Outcome intervals over p_n: Avoid on [0, avoid_end], Delay on
    (avoid_end, delay_end), Hasten on (delay_end, baseline_death) when
    has_hasten; delay_end equals baseline_death otherwise.  For flips
    that only hasten, avoid_end == delay_end == 0."""

    avoid_end: float
    delay_end: float
    baseline_death: float
    has_hasten: bool


def _dies_no_later(s: StageSchedule, tol: Tolerances) -> bool:
    manipulated = death_point(s, tol)
    if manipulated is None:
        return False
    baseline = death_point(s.baseline(), tol)
    return baseline is None or manipulated <= baseline


def regime_boundaries(
    family: StateFamily,
    model: DecayModel,
    op: LocalUnitary,
    tol: Tolerances = DEFAULT,
) -> RegimeBoundaries:
    """Bisect over p_n for the ends of the Avoid and Delay intervals."""
    sched = lambda pn: StageSchedule(family, model, op, pn)
    dies = lambda pn: death_point(sched(pn), tol) is not None
    no_later = lambda pn: _dies_no_later(sched(pn), tol)
    d0 = death_point(sched(0.0).baseline(), tol)
    if d0 is None:
        raise DomainError("family does not undergo baseline sudden death")
    if op.is_identity:
        # the manipulated and baseline curves coincide
        return RegimeBoundaries(0.0, d0, d0, has_hasten=False)

    # largest p_n whose verdict is Avoid
    if dies(0.0):
        avoid_end = 0.0
    else:
        avoid_end, _ = _bisect(dies, 0.0, d0, tol.bisection)

    # supremum of the Delay interval; equals baseline death when the
    # manipulated curve never dips below the baseline
    probe = d0 * (1.0 - 1e-3)
    if not no_later(probe):
        return RegimeBoundaries(avoid_end, d0, d0, has_hasten=False)
    if avoid_end == 0.0 and no_later(tol.bisection / 2.0):
        # hasten-only flip: no avoidance, no delay anywhere
        return RegimeBoundaries(0.0, 0.0, d0, has_hasten=True)
    delay_end, _ = _bisect(no_later, avoid_end, probe, tol.bisection)
    return RegimeBoundaries(avoid_end, delay_end, d0, has_hasten=True)


# the nine flip pairs of the classification table, in table order
TABLE1_OPS = [
    ("X", "F01"),
    ("X", "F02"),
    ("X", "F102"),
    ("X", "F201"),
    ("X", "I"),
    ("I", "F01"),
    ("I", "F02"),
    ("I", "F102"),
    ("I", "F201"),
]


def table1_cell(job: tuple[str, float, str, str]) -> str:
    """Classification pattern of one table cell, e.g. "A, D, and H" or
    "only H", for the job (family value, x, op_a, op_b) under the
    family's default decay model and default tolerances."""
    family_value, x, op_a, op_b = job
    family = StateFamily(FamilyId(family_value), x)
    op = LocalUnitary(op_a, op_b)
    bounds = regime_boundaries(family, default_model(family.dims), op, DEFAULT)
    has_avoid = bounds.avoid_end > DEFAULT.bisection
    has_delay = bounds.delay_end > bounds.avoid_end + DEFAULT.bisection
    parts = []
    if has_avoid:
        parts.append("A")
    if has_delay:
        parts.append("D")
    if bounds.has_hasten:
        parts.append("H")
    if parts == ["A", "D", "H"]:
        return "A, D, and H"
    return "only " + " and ".join(parts)


def critical_x(
    family_id: FamilyId,
    model: DecayModel,
    tol: Tolerances = DEFAULT,
) -> float | None:
    """Bisect the family parameter for the onset of finite-time death.

    Returns the boundary x: below it the uninterrupted evolution decays
    asymptotically, above it negativity dies at finite p.  Returns None
    when the family dies on its entire parameter range.
    """
    if family_id is FamilyId.STATE2:
        lo, hi = 1.0 / 3.0 + 1e-9, 0.5
    else:
        lo, hi = 0.0, 1.0 / 3.0 - 1e-9

    def dies(x: float) -> bool:
        s = StageSchedule(StateFamily(family_id, x), model)
        return death_point(s, tol) is not None

    if dies(lo):
        return None  # dies everywhere on the range
    if not dies(hi):
        raise DomainError("family never undergoes sudden death on its range")
    x, _ = _bisect(dies, lo, hi, tol.bisection)
    return x


def sweep_surface(
    family: StateFamily,
    model: DecayModel,
    op: LocalUnitary = IDENTITY_OP,
    grid: int = 21,
    tol: Tolerances = DEFAULT,
    map_fn=map,
) -> tuple[list[tuple[float, float, float]], BoundaryCurve]:
    """Rectangular negativity samples over (p_n, p') plus the per-column
    death locus.  Columns are independent work items; ``map_fn`` may fan
    them out, results are reassembled in grid order."""
    if grid < 2:
        raise DomainError(f"grid must be at least 2 per axis, got {grid}")
    axis = np.linspace(0.0, tol.death_cap, grid)
    jobs = [(family, model, op, float(pn), tuple(float(v) for v in axis), tol) for pn in axis]
    columns = list(map_fn(_surface_column, jobs))
    rows: list[tuple[float, float, float]] = []
    locus = []
    for col, (pn, values, death) in zip(jobs, columns):
        rows.extend((col[3], pp, nv) for pp, nv in zip(col[4], values))
        locus.append((pn, death))
    return rows, BoundaryCurve(samples=tuple(locus))


def _surface_column(job):
    family, model, op, pn, pps, tol = job
    s = StageSchedule(family, model, op, pn)
    values = negativity(damp(state_after_flip(s), model, np.array(pps)), tol=tol).tolist()
    return pn, values, death_point(s, tol)
