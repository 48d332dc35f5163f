import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esdlab.channels import default_model
from esdlab.config import DEFAULT, Tolerances
from esdlab.dynamics import (
    STACK_LIMIT,
    Outcome,
    StageSchedule,
    classify,
    classify_all,
    critical_x,
    damp,
    death_point,
    death_point_record,
    death_point_records,
    dies,
    evolve_two_stage,
    pprime_grid,
    regime_boundaries,
    state_after_flip,
    sweep_surface,
)
from esdlab.errors import DomainError
from esdlab.luo import IDENTITY_OP, LocalUnitary, valid_ops
from esdlab.measures import negativity, realigned_negativity
from esdlab.qla import partial_transpose
from esdlab.states import FamilyId, StateFamily, build_state, separability_indicator

from conftest import numpy_negativity

M23 = default_model((2, 3))
M33 = default_model((3, 3))

FAMILY1 = StateFamily(FamilyId.STATE1, 0.25)
FAMILY2 = StateFamily(FamilyId.STATE2, 0.5)
TWO_QUTRIT = StateFamily(FamilyId.TWO_QUTRIT, 0.25)

FINE = Tolerances(bisection=1e-8)


def sched(family, op=IDENTITY_OP, pn=0.0, model=None):
    model = model or default_model(family.dims)
    return StageSchedule(family, model, op, pn)


def test_trivial_pipeline_returns_initial_state():
    s = sched(FAMILY1)
    out = evolve_two_stage(s, 0.0)
    assert np.abs(out.matrix - build_state(FAMILY1).matrix).max() < 1e-14


def test_pn_range_is_validated():
    with pytest.raises(DomainError):
        StageSchedule(FAMILY1, M23, IDENTITY_OP, 1.0)


# --------------------------------------------------------- death points


def test_uninterrupted_death_points():
    assert abs(death_point(sched(FAMILY1)) - 0.6168) < 5e-4
    assert abs(death_point(sched(FAMILY2)) - 0.8452) < 5e-4
    # regression anchor for the two-qutrit family as constructed here
    # (|00>+|22> coherence block, branch ratios 1.0/0.75)
    assert abs(death_point(sched(TWO_QUTRIT)) - 0.4) < 5e-4


def test_no_death_in_asymptotic_regime():
    assert death_point(sched(StateFamily(FamilyId.STATE1, 0.1))) is None
    assert death_point(sched(StateFamily(FamilyId.STATE1, 0.2))) is None


def test_two_qutrit_x_zero_decays_asymptotically():
    # negativity stays positive and falls monotonically; no death row
    s = sched(StateFamily(FamilyId.TWO_QUTRIT, 0.0))
    assert death_point(s) is None
    values = [negativity(evolve_two_stage(s, float(pp))) for pp in np.arange(0.0, 1.0, 0.05)]
    assert all(v > 1e-12 for v in values)
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_death_point_record_detail():
    record = death_point_record(sched(FAMILY1))
    assert record.bracket[0] <= record.p_prime <= record.bracket[1]
    assert record.iterations > 0
    none_record = death_point_record(sched(StateFamily(FamilyId.STATE1, 0.1)))
    assert none_record.p_prime is None and none_record.bracket is None


def test_already_dead_schedule_reports_zero():
    s = sched(FAMILY1, pn=0.7)  # past the baseline death point
    assert death_point(s) == 0.0


@st.composite
def flip_schedules(draw):
    family = draw(st.sampled_from([FAMILY1, FAMILY2, TWO_QUTRIT]))
    op_a = draw(st.sampled_from(valid_ops(family.dims[0])))
    op_b = draw(st.sampled_from(valid_ops(family.dims[1])))
    return sched(family, LocalUnitary(op_a, op_b), pn=draw(st.floats(0.0, 0.99)))


@settings(max_examples=40, deadline=None)
@given(flip_schedules())
@example(sched(FAMILY1, LocalUnitary("X", "F01"), pn=0.3))
@example(sched(FAMILY2, LocalUnitary("I", "F02"), pn=0.4))
def test_negativity_never_revives_along_pprime(s):
    """death_point_records takes the first vanishing grid sample as the
    death and checks nothing past it, and ``dies`` looks only at the cap;
    both rest on this property."""
    values = negativity(evolve_two_stage(s, pprime_grid(DEFAULT)))
    assert np.all(np.diff(values) <= 1e-12)
    dead = values <= DEFAULT.negativity_zero
    assert np.all(dead[1:] >= dead[:-1])  # once dead, dead for good


@settings(max_examples=40, deadline=None)
@given(flip_schedules())
@example(sched(FAMILY1, LocalUnitary("I", "F02"), pn=0.0))
def test_damped_partial_transposes_split_into_2x2_blocks(s):
    """measures.negativity solves these blocks in closed form, so no
    pipeline state takes its LAPACK fallback; an exact death point from
    each block's determinant would rest on the same structure."""
    pt = partial_transpose(evolve_two_stage(s, pprime_grid(DEFAULT)))
    linked = (pt != 0) & ~np.eye(pt.shape[-1], dtype=bool)
    assert np.all(linked.sum(-1) <= 1)  # one off-diagonal entry per row
    assert np.array_equal(linked, linked.swapaxes(-1, -2))
    assert np.all(pt.diagonal(axis1=-2, axis2=-1).real >= 0.0)


def test_singular_block_gives_exactly_zero_negativity():
    # at p' = 0.5 one 2x2 block has ab = |c|^2 exactly; LAPACK on the whole
    # matrix returned -1.4e-17 for its zero eigenvalue
    s = sched(StateFamily(FamilyId.STATE1, 0.25), LocalUnitary("I", "F02"))
    assert negativity(evolve_two_stage(s, 0.5)) == 0.0


@settings(max_examples=20, deadline=None)
@given(flip_schedules())
def test_stacked_pipeline_negativity_matches_numpy(s):
    rho = evolve_two_stage(s, pprime_grid(DEFAULT))
    expected = [numpy_negativity(m, *s.family.dims) for m in rho.matrix]
    assert np.allclose(negativity(rho), expected, rtol=0.0, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    flip_schedules()
    | st.floats(0.2095, 0.2107).map(lambda x: sched(StateFamily(FamilyId.STATE1, x)))
)
@example(sched(StateFamily(FamilyId.STATE1, 0.2101)))
@example(sched(StateFamily(FamilyId.STATE1, 0.2102)))
def test_one_evaluation_at_the_cap_decides_whether_a_schedule_dies(s):
    # state1 x near 0.2101 sits at the onset of finite-time death, where
    # the death point nears the cap
    assert dies(s) == (death_point(s) is not None)


def lockstep_batch():
    """More than one stack of 2x3 schedules: deaths at p' = 0 (state2 past
    its death at p_n = 0.85), deaths on the grid, and schedules that never
    die (state1 at x = 0.1, and flips that avoid death)."""
    ops = [LocalUnitary(a, b) for a in valid_ops(2) for b in valid_ops(3)]
    families = [FAMILY1, FAMILY2, StateFamily(FamilyId.STATE1, 0.1)]
    pns = np.linspace(0.0, 0.85, 10).tolist()
    return [sched(f, op, pn) for f in families for op in ops for pn in pns]


def scalar_record(s, tol):
    """Reference solver, one schedule and one p' at a time: the first
    vanishing sample of the p' grid, then plain bisection of the step
    before it.  Returns (p_prime, iterations, bracket)."""
    flipped = state_after_flip(s)
    dead = lambda pp: negativity(damp(flipped, s.model, pp)) <= tol.negativity_zero
    if dead(0.0):
        return 0.0, 0, (0.0, 0.0)
    grid = pprime_grid(tol).tolist()
    for lo, hi in zip(grid, grid[1:]):
        if dead(hi):
            a, b, steps = lo, hi, 0
            while b - a > tol.bisection:
                mid = 0.5 * (a + b)
                a, b = (a, mid) if dead(mid) else (mid, b)
                steps += 1
            return 0.5 * (a + b), steps, (lo, hi)
    return None, len(grid) - 1, None


@pytest.mark.parametrize("tol", [DEFAULT, Tolerances(bisection=1e-9)], ids=["default", "fine"])
def test_lockstep_records_equal_one_schedule_at_a_time(tol):
    batch = lockstep_batch()
    records = death_point_records(batch, tol)
    deaths = [r.p_prime for r in records]
    assert len(batch) > STACK_LIMIT
    assert deaths.count(0.0) and deaths.count(None)
    assert sum(d not in (0.0, None) for d in deaths) > 100
    for s, record in zip(batch, records):
        single = death_point_record(s, tol)
        fields = (record.p_prime, record.iterations, record.bracket)
        assert fields == (single.p_prime, single.iterations, single.bracket), s
        assert fields == scalar_record(s, tol), s


def test_lockstep_classification_equals_one_schedule_at_a_time():
    batch = lockstep_batch()
    assert classify_all(batch) == [classify(s) for s in batch]


def test_one_stack_needs_one_decay_model_and_dims():
    with pytest.raises(DomainError):
        death_point_records([sched(FAMILY1), sched(FAMILY1, model=M33)])
    with pytest.raises(DomainError):
        death_point_records([sched(FAMILY1), sched(TWO_QUTRIT, model=M23)])
    assert death_point_records([]) == [] and classify_all([]) == []


def test_avoidance_example_from_family1():
    # flip applied early enough prevents death entirely
    s = sched(FAMILY1, LocalUnitary("X", "F01"), pn=0.03)
    assert death_point(s) is None
    for pp in np.arange(0.01, 1.0, 0.14):
        assert negativity(evolve_two_stage(s, float(pp))) > 1e-12


# -------------------------------------------------------- classification


def test_classify_examples():
    assert classify(sched(FAMILY1, LocalUnitary("X", "F01"), 0.10)).outcome is Outcome.DELAY
    assert classify(sched(FAMILY1, LocalUnitary("I", "F01"), 0.40)).outcome is Outcome.DELAY
    assert classify(sched(FAMILY2, LocalUnitary("I", "F02"), 0.25)).outcome is Outcome.DELAY
    assert classify(sched(FAMILY1, LocalUnitary("X", "F02"), 0.30)).outcome is Outcome.HASTEN
    assert classify(sched(FAMILY1, LocalUnitary("X", "F01"), 0.03)).outcome is Outcome.AVOID
    # mid-delay-region flip dies strictly later than the baseline curve
    verdict = classify(sched(FAMILY1, LocalUnitary("I", "F01"), 0.50))
    assert verdict.outcome is Outcome.DELAY
    assert verdict.manipulated_death > verdict.baseline_death


def test_classify_baseline_consistency():
    for pn in (0.0, 0.2, 0.4, 0.6):
        verdict = classify(sched(FAMILY1, IDENTITY_OP, pn))
        assert verdict.outcome is Outcome.UNCHANGED
        assert verdict.baseline_death == verdict.manipulated_death


def test_classify_without_baseline_death():
    verdict = classify(sched(StateFamily(FamilyId.STATE1, 0.15), LocalUnitary("X", "F01"), 0.1))
    assert verdict.outcome is Outcome.NO_BASELINE_DEATH


# ------------------------------------------------------ regime boundaries


def test_family1_regime_boundaries():
    rb = regime_boundaries(FAMILY1, M23, LocalUnitary("X", "F01"))
    assert abs(rb.avoid_end - 0.0615) < 1e-3
    assert abs(rb.delay_end - 0.1641) < 1e-3
    assert rb.has_hasten

    rb = regime_boundaries(FAMILY1, M23, LocalUnitary("I", "F01"))
    assert abs(rb.avoid_end - 0.2941) < 1e-3
    assert not rb.has_hasten
    assert rb.delay_end == rb.baseline_death


def test_family2_regime_boundaries():
    rb = regime_boundaries(FAMILY2, M23, LocalUnitary("X", "I"))
    assert abs(rb.avoid_end - 0.2309) < 1e-3
    assert abs(rb.delay_end - 0.2964) < 1e-3
    assert rb.has_hasten


def test_two_qutrit_regime_boundaries_regression():
    rb = regime_boundaries(TWO_QUTRIT, M33, LocalUnitary("F01", "I"))
    assert abs(rb.avoid_end - 0.0545) < 2e-3
    assert not rb.has_hasten
    both = regime_boundaries(TWO_QUTRIT, M33, LocalUnitary("F01", "F01"))
    # two-sided flip avoids death on the whole p_n range
    assert both.avoid_end > both.baseline_death - 2e-3
    assert not both.has_hasten


def test_hasten_only_flip_has_empty_avoid_and_delay_intervals():
    rb = regime_boundaries(FAMILY1, M23, LocalUnitary("X", "F02"))
    assert rb.avoid_end == 0.0
    assert rb.delay_end == 0.0
    assert rb.has_hasten


def test_identity_op_regime_is_degenerate():
    rb = regime_boundaries(FAMILY1, M23, IDENTITY_OP)
    assert rb.avoid_end == 0.0
    assert rb.delay_end == rb.baseline_death
    assert not rb.has_hasten


def test_regime_requires_baseline_death():
    with pytest.raises(DomainError):
        regime_boundaries(StateFamily(FamilyId.STATE1, 0.15), M23, LocalUnitary("X", "F01"))


def test_cycle_flip_boundaries_match_swap_flip():
    # F102 relabels levels relative to F01; with unequal branch ratios the
    # relabeling does not commute with the channel, so the boundaries agree
    # only approximately (a few 1e-5 here), not to solver precision
    for family in (FAMILY1, FAMILY2):
        for op_a in ("X", "I"):
            swap = regime_boundaries(family, M23, LocalUnitary(op_a, "F01"), FINE)
            cycle = regime_boundaries(family, M23, LocalUnitary(op_a, "F102"), FINE)
            assert swap.has_hasten == cycle.has_hasten
            assert abs(swap.avoid_end - cycle.avoid_end) < 2e-4
            assert abs(swap.delay_end - cycle.delay_end) < 2e-4


# ---------------------------------------------------------- critical x


def test_critical_x_values():
    # honest solver values for this construction; the coarser captions
    # quoted in the acceptance suite are discussed there
    assert abs(critical_x(FamilyId.STATE1, M23) - 0.2101) < 1e-3
    assert abs(critical_x(FamilyId.TWO_QUTRIT, M33) - 0.1000) < 1e-3
    assert critical_x(FamilyId.STATE2, M23) is None  # dies on its whole range


def test_critical_x_splits_existence_of_death():
    xc = critical_x(FamilyId.STATE1, M23)
    assert death_point(sched(StateFamily(FamilyId.STATE1, xc - 5e-3))) is None
    assert death_point(sched(StateFamily(FamilyId.STATE1, xc + 5e-3))) is not None


# ------------------------------------------------------------ continuity


@pytest.mark.parametrize(
    "family,op",
    [
        (FAMILY1, LocalUnitary("X", "F01")),
        (FAMILY1, LocalUnitary("I", "F01")),
        (FAMILY2, LocalUnitary("X", "F01")),
        (FAMILY2, LocalUnitary("X", "I")),
        (FAMILY2, LocalUnitary("I", "F01")),
        (FAMILY2, LocalUnitary("I", "F02")),
        (FAMILY2, LocalUnitary("I", "F201")),
        (TWO_QUTRIT, LocalUnitary("F01", "I")),
        (TWO_QUTRIT, LocalUnitary("F01", "F01")),
    ],
)
def test_death_point_is_continuous_in_pn(family, op):
    """No spurious jumps along the manipulated death curve at p_n step
    0.005.  The curve is steeper than 0.02-per-step where it descends
    from the cap past the avoidance boundary and where it collapses near
    the baseline death point, so steep steps are certified as genuine by
    refinement: sub-steps at the midpoint must be strictly smaller.  The
    only None <-> finite transition is the avoidance boundary itself.
    """
    model = default_model(family.dims)
    d0 = death_point(StageSchedule(family, model, IDENTITY_OP, 0.0))
    curve = lambda pn: death_point(StageSchedule(family, model, op, float(pn)))
    pns = list(np.arange(0.0, d0, 0.005))
    values = [curve(pn) for pn in pns]
    transitions = sum(
        1 for a, b in zip(values, values[1:]) if (a is None) != (b is None)
    )
    assert transitions <= 1
    for pn_a, pn_b, a, b in zip(pns, pns[1:], values, values[1:]):
        if a is None or b is None:
            continue
        jump = abs(b - a)
        if jump <= 0.02:
            continue
        mid = curve(0.5 * (pn_a + pn_b))
        assert mid is not None
        assert max(abs(mid - a), abs(b - mid)) < jump, (
            f"non-shrinking jump at p_n={pn_a}: {a} -> {b} (mid {mid})"
        )


# ------------------------------------------------------------- surfaces


def test_surface_corners_and_locus():
    rows, locus = sweep_surface(FAMILY1, M23, grid=5)
    assert len(rows) == 25
    corner = [r for r in rows if r[0] == 0.0 and r[1] == 0.0][0]
    assert abs(corner[2] - 0.125) < 1e-10
    assert abs(locus.samples[0][1] - 0.6168) < 5e-4
    # beyond the death point the column is dead from the start
    late = [s for s in locus.samples if s[0] > 0.62]
    assert all(d == 0.0 for _, d in late)


def test_family2_surface_death_is_symmetric():
    rows, locus = sweep_surface(FAMILY2, M23, grid=3)
    assert abs(locus.samples[0][1] - 0.8452) < 5e-4
    # "and vice-versa": negativity along p' = 0 dies at the same strength
    s = sched(FAMILY2)
    assert negativity(evolve_two_stage(sched(FAMILY2, pn=0.84), 0.0)) > 1e-12
    assert negativity(evolve_two_stage(sched(FAMILY2, pn=0.85), 0.0)) <= 1e-12


def test_surface_grid_validation():
    with pytest.raises(DomainError):
        sweep_surface(FAMILY1, M23, grid=1)


@pytest.mark.parametrize(
    "family, op",
    [
        (FAMILY1, LocalUnitary("X", "F01")),
        (StateFamily(FamilyId.STATE2, 0.4), LocalUnitary("I", "F201")),
        (TWO_QUTRIT, LocalUnitary("F102", "F02")),
    ],
    ids=["state1", "state2", "twoqutrit"],
)
def test_stacked_sweep_equals_scalar_path_bitwise(family, op):
    model = default_model(family.dims)
    flipped = state_after_flip(sched(family, op, pn=0.2))
    pps = np.append(np.arange(0.0, 1.0 - 1e-6, 0.01), 1.0 - 1e-6)
    stack = damp(flipped, model, pps)
    negs, realigned = negativity(stack), realigned_negativity(stack)
    assert stack.matrix.shape == (len(pps), flipped.dim, flipped.dim)
    assert np.count_nonzero(negs) > 10 and np.count_nonzero(negs == 0.0) > 10
    for i, pp in enumerate(pps.tolist()):
        rho = damp(flipped, model, pp)
        assert np.array_equal(stack.matrix[i], rho.matrix)
        assert negs[i] == negativity(rho)
        assert realigned[i] == realigned_negativity(rho)


# ------------------------------------------------------- oracle agreement


def test_pipeline_matches_independent_numpy_route():
    """Full two-stage pipeline vs a from-scratch numpy route (explicit
    Kraus matrices, index-loop partial transpose, LAPACK eigenvalues)."""
    from esdlab.luo import flip_matrix

    def np_qubit(p):
        m0 = np.diag([1.0, np.sqrt(1 - p)]).astype(complex)
        m1 = np.zeros((2, 2), complex)
        m1[0, 1] = np.sqrt(p)
        return [m0, m1]

    def np_qutrit(p1, p2):
        m0 = np.diag([1.0, np.sqrt(1 - p1), np.sqrt(1 - p2)]).astype(complex)
        m1 = np.zeros((3, 3), complex)
        m1[0, 1] = np.sqrt(p1)
        m2 = np.zeros((3, 3), complex)
        m2[0, 2] = np.sqrt(p2)
        return [m0, m1, m2]

    rng = np.random.default_rng(42)
    for _ in range(40):
        fid = FamilyId(rng.choice(["state1", "state2", "twoqutrit"]))
        if fid is FamilyId.STATE2:
            x = float(rng.uniform(1 / 3 + 1e-6, 0.5))
        else:
            x = float(rng.uniform(0.0, 1 / 3 - 1e-6))
        family = StateFamily(fid, x)
        model = default_model(family.dims)
        op_choices = ["I", "X"] if family.dims[0] == 2 else ["I", "F01", "F02", "F102", "F201"]
        op = LocalUnitary(str(rng.choice(op_choices)),
                          str(rng.choice(["I", "F01", "F02", "F102", "F201"])))
        pn, pp = float(rng.uniform(0, 0.95)), float(rng.uniform(0, 0.999))
        s = StageSchedule(family, model, op, pn)
        got = negativity(evolve_two_stage(s, pp))

        def np_stage(rho, q):
            p1, p2 = model.ratio_a * q, model.ratio_b * q
            side_a = np_qubit(q) if family.dims[0] == 2 else np_qutrit(p1, p2)
            kraus = [np.kron(ka, kb) for ka in side_a for kb in np_qutrit(p1, p2)]
            return sum(k @ rho @ k.conj().T for k in kraus)

        rho = np_stage(build_state(family).matrix, pn)
        u = np.kron(flip_matrix(op.op_a, family.dims[0]), flip_matrix(op.op_b, 3))
        rho = np_stage(u @ rho @ u.conj().T, pp)
        assert abs(got - numpy_negativity(rho, *family.dims)) < 1e-12


@pytest.mark.parametrize("x", [0.21, 0.25, 0.30])
def test_death_point_matches_closed_form_root(x):
    # x = 0.21 sits just inside the asymptotic-decay region (the boundary
    # is 0.2101): both routes must agree that no death occurs there
    s = StageSchedule(StateFamily(FamilyId.STATE1, x), M23)
    pipeline = death_point(s, FINE)
    if separability_indicator(x, 1.0 - 1e-9, M23) < 0.0:
        assert pipeline is None
        return
    lo, hi = 0.0, 1.0 - 1e-9
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if separability_indicator(x, mid, M23) < 0.0:
            lo = mid
        else:
            hi = mid
    assert abs(pipeline - 0.5 * (lo + hi)) < 1e-6
