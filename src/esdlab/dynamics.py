"""Two-stage evolution, death-point solving, and manipulation classification.

Pipeline: build the initial state, damp it to strength p_n, apply the
local flip pair, then damp again with a fresh channel of strength p'.
With the identity flip the pipeline is the uninterrupted two-stage
evolution, which serves as the comparison baseline (the "red curve"):
both curves are parameterized by the shared abscissa p_n.

Local CPTP maps cannot create entanglement (Peres 1996), and a stronger
damping stage equals a weaker one followed by a valid local increment,
so negativity never revives along p': one evaluation at the cap tells
whether a schedule dies (``dies``).  ``death_point_records`` solves many
schedules as one stack: each scans the p' grid to its first vanishing
sample, and the steps before those are bisected together.  Regime
boundaries over p_n and ``critical_x`` over x use the same ``_bisect``.
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
class DeathRecord:
    p_prime: float | None
    iterations: int
    bracket: tuple[float, float] | None


# schedules solved per stack, and p' samples per stack in ``evolve``: the
# memory stays bounded whatever the number of schedules or samples
STACK_LIMIT = 256
# the last p' sample and a surface's last p_n: entangled here means never dies
DEATH_CAP = 1.0 - 1e-6


def pprime_grid(tol: Tolerances) -> np.ndarray:
    """The p' samples: 0 to ``DEATH_CAP`` in steps of
    ``tol.pprime_grid_step``, with the cap itself as the last sample."""
    return np.append(np.arange(0.0, DEATH_CAP, tol.pprime_grid_step), DEATH_CAP)


def _bisect(pred, lo, hi, tol: float) -> tuple[list[float], list[int]]:
    """Halve each bracket [lo_i, hi_i] until it is no wider than tol,
    keeping pred false at lo and true at hi.  ``pred(wide, mid)`` judges
    the midpoint list ``mid`` of the brackets that the mask ``wide`` marks
    as still wider.  Returns the final midpoints and the step counts."""
    lo, hi = np.array(lo, dtype=float, ndmin=1), np.array(hi, dtype=float, ndmin=1)
    steps = np.zeros(lo.shape, dtype=int)
    while (wide := hi - lo > tol).any():
        mid = 0.5 * (lo[wide] + hi[wide])
        true = np.asarray(pred(wide, mid.tolist()), dtype=bool)
        hi[wide] = np.where(true, mid, hi[wide])
        lo[wide] = np.where(true, lo[wide], mid)
        steps[wide] += 1
    return (0.5 * (lo + hi)).tolist(), steps.tolist()


def dies(s: StageSchedule, tol: Tolerances = DEFAULT) -> bool:
    """Whether negativity vanishes by p' = ``DEATH_CAP``: one evaluation."""
    return bool(negativity(evolve_two_stage(s, DEATH_CAP)) <= tol.negativity_zero)


def death_point_records(scheds: list, tol: Tolerances = DEFAULT) -> list[DeathRecord]:
    """Locate the smallest p' where negativity vanishes, with solver
    detail, for schedules that share one decay model and dimensions.

    Stacks of up to ``STACK_LIMIT`` schedules are solved in lockstep.  A
    schedule alive at ``DEATH_CAP`` never dies (p_prime=None).  The
    others walk ``pprime_grid(tol)``, one stacked evaluation per sample,
    to their first vanishing sample; the steps before those are bisected
    together down to ``tol.bisection``, and ``bracket`` is that step.
    """
    if not 0 < len(scheds) <= STACK_LIMIT:  # one stack each, none when empty
        return [r for start in range(0, len(scheds), STACK_LIMIT)
                for r in death_point_records(scheds[start:start + STACK_LIMIT], tol)]
    model, dims = scheds[0].model, scheds[0].family.dims
    if any(s.model != model or s.family.dims != dims for s in scheds):
        raise DomainError("schedules solved together must share a decay model and dimensions")
    states = np.stack([state_after_flip(s).matrix for s in scheds])
    sub = lambda idx: DensityMatrix(*dims, states[idx])
    dead = lambda rho, pp: negativity(damp(rho, model, pp)) <= tol.negativity_zero

    grid = pprime_grid(tol)
    first = np.full(len(scheds), -1)  # index of each schedule's first dead sample
    walking = np.flatnonzero(dead(sub(slice(None)), grid[-1]))
    first[walking] = len(grid) - 1
    rho = sub(walking)
    for k, pp in enumerate(grid[:-1]):
        if not walking.size:
            break
        now = dead(rho, pp)
        if now.any():  # the stack is rebuilt only when it shrinks
            first[walking[now]] = k
            walking = walking[~now]
            rho = sub(walking)

    # dead at p' = 0: the empty bracket (0, 0) bisects to 0 in no steps
    dying = np.flatnonzero(first >= 0)
    lo, hi = grid[np.maximum(first[dying] - 1, 0)], grid[first[dying]]
    deaths, steps = _bisect(lambda wide, mid: dead(sub(dying[wide]), mid), lo, hi, tol.bisection)
    records = [DeathRecord(p_prime=None, iterations=len(grid) - 1, bracket=None)] * len(scheds)
    for i, death, count, a, b in zip(dying.tolist(), deaths, steps, lo.tolist(), hi.tolist()):
        records[i] = DeathRecord(p_prime=death, iterations=count, bracket=(a, b))
    return records


def death_point_record(s: StageSchedule, tol: Tolerances = DEFAULT) -> DeathRecord:
    """``death_point_records`` of one schedule."""
    return death_point_records([s], tol)[0]


def death_point(s: StageSchedule, tol: Tolerances = DEFAULT) -> float | None:
    """Smallest p' in [0, 1) with vanishing negativity, or None if the
    negativity survives up to the cap (avoidance / asymptotic decay)."""
    return death_point_record(s, tol).p_prime


def classify_all(scheds: list, tol: Tolerances = DEFAULT) -> list[ClassificationVerdict]:
    """Compare each manipulated death point against the uninterrupted
    baseline at the same p_n split, all solved as one batch.

    Avoid: manipulated never dies while the baseline does.  Delay /
    Hasten: both die, later / earlier than baseline by more than the
    solver tolerance.  Unchanged covers ties (in particular the identity
    flip, where both curves coincide).
    """
    # an identity flip is its own baseline, so it is solved once
    unique = list(dict.fromkeys([s.baseline() for s in scheds] + list(scheds)))
    deaths = dict(zip(unique, (r.p_prime for r in death_point_records(unique, tol))))
    verdicts = []
    for s in scheds:
        baseline, death = deaths[s.baseline()], deaths[s]
        if baseline is None:
            outcome, death = Outcome.NO_BASELINE_DEATH, None
        elif death is None:
            outcome = Outcome.AVOID
        elif death > baseline + tol.bisection:
            outcome = Outcome.DELAY
        elif death < baseline - tol.bisection:
            outcome = Outcome.HASTEN
        else:
            outcome = Outcome.UNCHANGED
        verdicts.append(ClassificationVerdict(s.p_n, outcome, baseline, death))
    return verdicts


def classify(s: StageSchedule, tol: Tolerances = DEFAULT) -> ClassificationVerdict:
    """``classify_all`` of one schedule."""
    return classify_all([s], tol)[0]


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


def regime_boundaries(
    family: StateFamily,
    model: DecayModel,
    op: LocalUnitary,
    tol: Tolerances = DEFAULT,
) -> RegimeBoundaries:
    """Bisect over p_n for the ends of the Avoid and Delay intervals."""
    sched = lambda pn: StageSchedule(family, model, op, pn)

    def no_later(pn: float) -> bool:
        s = sched(pn)
        manipulated, baseline = (r.p_prime for r in death_point_records([s, s.baseline()], tol))
        return manipulated is not None and (baseline is None or manipulated <= baseline)

    d0 = death_point(sched(0.0).baseline(), tol)
    if d0 is None:
        raise DomainError("family does not undergo baseline sudden death")
    if op.is_identity:
        # the manipulated and baseline curves coincide
        return RegimeBoundaries(0.0, d0, d0, has_hasten=False)

    # largest p_n whose verdict is Avoid
    if dies(sched(0.0), tol):
        avoid_end = 0.0
    else:
        [avoid_end], _ = _bisect(lambda _, m: dies(sched(m[0]), tol), 0.0, d0, tol.bisection)

    # supremum of the Delay interval; equals baseline death when the
    # manipulated curve never dips below the baseline
    probe = d0 * (1.0 - 1e-3)
    if not no_later(probe):
        return RegimeBoundaries(avoid_end, d0, d0, has_hasten=False)
    if avoid_end == 0.0 and no_later(tol.bisection / 2.0):
        # hasten-only flip: no avoidance, no delay anywhere
        return RegimeBoundaries(0.0, 0.0, d0, has_hasten=True)
    [delay_end], _ = _bisect(lambda _, m: no_later(m[0]), avoid_end, probe, tol.bisection)
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


def table1_cell(family_value: str, x: float, op_a: str, op_b: str) -> str:
    """Classification pattern of one table cell, e.g. "A, D, and H" or
    "only H", for the family (by value) at x and the flip pair (op_a,
    op_b), under the family's default decay model and default tolerances."""
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

    dies_at = lambda x: dies(StageSchedule(StateFamily(family_id, x), model), tol)
    if dies_at(lo):
        return None  # dies everywhere on the range
    if not dies_at(hi):
        raise DomainError("family never undergoes sudden death on its range")
    [x], _ = _bisect(lambda _, m: dies_at(m[0]), lo, hi, tol.bisection)
    return x


def sweep_surface(
    family: StateFamily,
    model: DecayModel,
    op: LocalUnitary = IDENTITY_OP,
    *,
    grid: int,
    tol: Tolerances = DEFAULT,
) -> tuple[list[tuple[float, float, float]], tuple[tuple[float, float | None], ...]]:
    """Rectangular negativity samples over (p_n, p') plus the per-column
    death locus, (p_n, p' of death or None when the column never dies).
    Each column's samples are one stacked p' sweep, and the column deaths
    are one ``death_point_records`` call."""
    if grid < 2:
        raise DomainError(f"grid must be at least 2 per axis, got {grid}")
    axis = np.linspace(0.0, DEATH_CAP, grid)
    columns = [StageSchedule(family, model, op, pn) for pn in axis.tolist()]
    deaths = death_point_records(columns, tol)
    rows: list[tuple[float, float, float]] = []
    for s in columns:
        values = negativity(damp(state_after_flip(s), model, axis))
        rows.extend((s.p_n, pp, nv) for pp, nv in zip(axis.tolist(), values.tolist()))
    return rows, tuple((s.p_n, record.p_prime) for s, record in zip(columns, deaths))
