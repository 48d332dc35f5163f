"""Acceptance suite: every headline number at its stated tolerance.

One pass/fail line per criterion item is printed (visible with -s or on
failure).  Known honest failures, kept at their original targets rather
than loosened: the two-qutrit family as constructed here (|00>+|22>
coherence block with branch ratios 1.0/0.75) yields an uninterrupted
death point of 0.4000, a decay/death boundary of x = 0.1000, and a
one-sided-flip avoidance end of 0.0545, not the targeted 0.7596, 0.2281,
and 0.2306; and the family-1 decay/death boundary solves to x = 0.2101,
not 0.20 (the 0.20 figure is a rounded reading, the family dies for
every x above 0.2101 only).  The README's "Known honest failures"
section carries the derivations.
"""

import numpy as np
import pytest

from esdlab.channels import (
    DecayModel,
    apply_channel,
    composite_kraus,
    composite_kraus_from_branches,
    default_model,
)
from esdlab.cli import main
from esdlab.config import DEFAULT
from esdlab.dynamics import (
    TABLE1_OPS,
    Outcome,
    StageSchedule,
    classify,
    critical_x,
    death_point,
    regime_boundaries,
    table1_cell,
)
from esdlab.luo import QUTRIT_OPS, LocalUnitary, apply_luo
from esdlab.measures import negativity
from esdlab.qla import (
    hermiticity_defect,
    hermitian_eigenvalues,
    partial_transpose_matrix,
    realign,
    trace_norm,
)
from esdlab.states import FamilyId, StateFamily, build_state, separability_indicator

from conftest import random_density_matrix, random_pure_product

M23 = default_model((2, 3))
M33 = default_model((3, 3))

FAMILY1 = StateFamily(FamilyId.STATE1, 0.25)
FAMILY2 = StateFamily(FamilyId.STATE2, 0.5)
TWO_QUTRIT = StateFamily(FamilyId.TWO_QUTRIT, 0.25)


def check(criterion: str, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {criterion}] {label}: {status}{suffix}")
    assert ok, f"{label}{suffix}"


# ----------------------------------------------- 1. uninterrupted deaths


@pytest.mark.parametrize(
    "family,target",
    [(FAMILY1, 0.6168), (FAMILY2, 0.8452), (TWO_QUTRIT, 0.7596)],
    ids=["state1", "state2", "twoqutrit"],
)
def test_criterion_1_uninterrupted_death_points(family, target):
    model = default_model(family.dims)
    value = death_point(StageSchedule(family, model))
    ok = value is not None and abs(value - target) <= 5e-4
    check("1", f"{family.family.value} x={family.x} death point",
          ok, f"computed {value}, target {target} +/- 5e-4")


# ---------------------------------------------- 2. critical parameters


def test_criterion_2_family1_decay_death_boundary():
    value = critical_x(FamilyId.STATE1, M23)
    ok = abs(value - 0.20) <= 1e-3
    check("2", "state1 decay/death boundary", ok, f"computed {value}, target 0.20 +/- 1e-3")


def test_criterion_2_two_qutrit_decay_death_boundary():
    value = critical_x(FamilyId.TWO_QUTRIT, M33)
    ok = value is not None and abs(value - 0.2281) <= 1e-3
    check("2", "twoqutrit decay/death boundary", ok, f"computed {value}, target 0.2281 +/- 1e-3")


def test_criterion_2_family2_dies_everywhere():
    xs = [1.0 / 3.0 + 0.001] + [round(x, 3) for x in np.arange(0.34, 0.501, 0.02)]
    missing = [
        x for x in xs
        if death_point(StageSchedule(StateFamily(FamilyId.STATE2, x), M23)) is None
    ]
    check("2", "state2 dies for all sampled x in (1/3, 1/2]",
          not missing, f"sampled {len(xs)} points, no-death at {missing}")


# ---------------------------------------------- 3. regime boundaries


@pytest.mark.parametrize(
    "family,op,avoid_target,delay_target",
    [
        (FAMILY1, ("X", "F01"), 0.0615, 0.1641),
        (FAMILY1, ("I", "F01"), 0.2941, None),
        (FAMILY2, ("X", "F01"), 0.3586, 0.4177),
        (FAMILY2, ("X", "I"), 0.2309, 0.2964),
        (FAMILY2, ("I", "F01"), 0.7143, None),
        (FAMILY2, ("I", "F02"), 0.2032, 0.2693),
        (FAMILY2, ("I", "F201"), 0.2059, 0.2676),
        (TWO_QUTRIT, ("F01", "I"), 0.2306, None),
    ],
    ids=lambda v: "x".join(v) if isinstance(v, tuple) else None,
)
def test_criterion_3_regime_boundaries(family, op, avoid_target, delay_target):
    model = default_model(family.dims)
    rb = regime_boundaries(family, model, LocalUnitary(*op), DEFAULT)
    label = f"{family.family.value} ({op[0]},{op[1]})"
    ok = abs(rb.avoid_end - avoid_target) <= 2e-3
    check("3", f"{label} avoid end", ok,
          f"computed {rb.avoid_end:.5f}, target {avoid_target} +/- 2e-3")
    if delay_target is None:
        check("3", f"{label} no hastening", not rb.has_hasten,
              f"delay holds to the baseline death {rb.baseline_death:.5f}")
    else:
        ok = rb.has_hasten and abs(rb.delay_end - delay_target) <= 2e-3
        check("3", f"{label} delay end", ok,
              f"computed {rb.delay_end:.5f}, target {delay_target} +/- 2e-3")


def test_criterion_3_two_qutrit_double_flip_avoids_everywhere():
    failures = []
    for pn in np.arange(0.0, 0.7596, 0.05):
        verdict = classify(StageSchedule(TWO_QUTRIT, M33, LocalUnitary("F01", "F01"), float(pn)))
        if verdict.outcome is not Outcome.AVOID:
            failures.append((round(float(pn), 3), verdict.outcome.value))
    check("3", "twoqutrit (F01,F01) avoids over [0, 0.7596]",
          not failures, f"non-Avoid verdicts at {failures[:4]}")


# --------------------------------------------------------- 4. table


TABLE1_EXPECTED = {
    ("X", "F01"): ("A, D, and H", "A, D, and H"),
    ("X", "F02"): ("only H", "only H"),
    ("X", "F102"): ("A, D, and H", "A, D, and H"),
    ("X", "F201"): ("only H", "only H"),
    ("X", "I"): ("only H", "A, D, and H"),
    ("I", "F01"): ("only A and D", "only A and D"),
    ("I", "F02"): ("only H", "A, D, and H"),
    ("I", "F102"): ("only A and D", "only A and D"),
    ("I", "F201"): ("only H", "A, D, and H"),
}


def test_criterion_4_classification_table():
    mismatches = []
    for op_a, op_b in TABLE1_OPS:
        got1 = table1_cell("state1", 0.25, op_a, op_b)
        got2 = table1_cell("state2", 0.5, op_a, op_b)
        exp1, exp2 = TABLE1_EXPECTED[(op_a, op_b)]
        if got1 != exp1:
            mismatches.append((op_a, op_b, "state1", got1, exp1))
        if got2 != exp2:
            mismatches.append((op_a, op_b, "state2", got2, exp2))
    # the cycle flips must land in the same class as the swap flip
    for fam, x in (("state1", 0.25), ("state2", 0.5)):
        for op_a in ("X", "I"):
            if table1_cell(fam, x, op_a, "F102") != table1_cell(fam, x, op_a, "F01"):
                mismatches.append((op_a, "F102-vs-F01", fam))
    check("4", "all 18 table cells and the F102/F01 equivalences",
          not mismatches, f"mismatches: {mismatches}")


# ------------------------------------------------ 5. closed-form oracle


def test_criterion_5_closed_form_oracle_agreement():
    worst = 0.0
    sign_clashes = []
    for x in (0.21, 0.25, 0.30):
        rho0 = build_state(StateFamily(FamilyId.STATE1, x))
        for p in np.arange(0.0, 1.0, 0.01):
            rho = apply_channel(rho0, composite_kraus((2, 3), float(p), M23))
            neg = negativity(rho)
            indicator = separability_indicator(x, float(p), M23)
            worst = max(worst, abs(neg - max(0.0, -indicator)))
            if (indicator < -1e-10) != (neg > 1e-12):
                sign_clashes.append((x, round(float(p), 3)))
    ok = worst <= 1e-9 and not sign_clashes
    check("5", "negativity equals the closed-form indicator on the grid",
          ok, f"worst |difference| {worst:.2e}, sign clashes {sign_clashes}")


# -------------------------------------------------- 6. property suites


def test_criterion_6_kraus_completeness():
    rng = np.random.default_rng(6001)
    worst = 0.0
    for _ in range(200):
        dims = (2, 3) if rng.random() < 0.5 else (3, 3)
        model = DecayModel(ratio_a=rng.random(), ratio_b=rng.random())
        ks = composite_kraus(dims, rng.random(), model)
        worst = max(worst, ks.completeness_residual())
    check("6", "Kraus completeness over 200 random channels", worst <= 1e-12,
          f"worst residual {worst:.2e}")


def test_criterion_6_channel_outputs_are_states():
    rng = np.random.default_rng(6002)
    worst_trace, worst_herm, worst_eig = 0.0, 0.0, 0.0
    for _ in range(200):
        dims = (2, 3) if rng.random() < 0.5 else (3, 3)
        rho = random_density_matrix(rng, *dims)
        out = apply_channel(rho, composite_kraus(dims, rng.random(), default_model(dims)))
        worst_trace = max(worst_trace, abs(np.trace(out.matrix).real - 1.0))
        worst_herm = max(worst_herm, hermiticity_defect(out.matrix))
        worst_eig = min(worst_eig, hermitian_eigenvalues(out.matrix)[0])
    ok = worst_trace <= 1e-12 and worst_herm <= 1e-12 and worst_eig >= -1e-10
    check("6", "trace/Hermiticity/positivity of 200 channel outputs", ok,
          f"trace drift {worst_trace:.2e}, defect {worst_herm:.2e}, min eig {worst_eig:.2e}")


def test_criterion_6_local_unitary_invariance():
    rng = np.random.default_rng(6003)
    worst = 0.0
    for _ in range(200):
        dims = (2, 3) if rng.random() < 0.5 else (3, 3)
        rho = random_density_matrix(rng, *dims, rank=int(rng.integers(1, 4)))
        op_a = str(rng.choice(["I", "X"] if dims[0] == 2 else list(QUTRIT_OPS)))
        op_b = str(rng.choice(list(QUTRIT_OPS)))
        flipped = apply_luo(rho, LocalUnitary(op_a, op_b))
        worst = max(worst, abs(negativity(flipped) - negativity(rho)))
    check("6", "negativity invariance under 200 random flips", worst <= 1e-10,
          f"worst change {worst:.2e}")


def test_criterion_6_partial_transpose_involution():
    rng = np.random.default_rng(6004)
    exact = True
    for _ in range(200):
        dims = (2, 3) if rng.random() < 0.5 else (3, 3)
        rho = random_density_matrix(rng, *dims)
        system = "A" if rng.random() < 0.5 else "B"
        pt = partial_transpose_matrix(rho.matrix, *dims, system)
        again = partial_transpose_matrix(pt, *dims, system)
        exact = exact and np.array_equal(again, rho.matrix)
    check("6", "partial transpose involution over 200 random states", exact)


def test_criterion_6_realignment_of_pure_products():
    rng = np.random.default_rng(6005)
    worst = 0.0
    for _ in range(200):
        dims = (2, 3) if rng.random() < 0.5 else (3, 3)
        rho = random_pure_product(rng, *dims)
        worst = max(worst, abs(trace_norm(realign(rho)) - 1.0))
    check("6", "realigned trace norm of 200 pure product states", worst <= 1e-10,
          f"worst |tn - 1| {worst:.2e}")


def test_criterion_6_two_stage_composition():
    rng = np.random.default_rng(6006)
    worst = 0.0
    for _ in range(200):
        rho = random_density_matrix(rng, 2, 3)
        p, pp = rng.random(), rng.random()
        staged = apply_channel(
            apply_channel(rho, composite_kraus((2, 3), p, M23)),
            composite_kraus((2, 3), pp, M23),
        )
        q = 1.0 - (1.0 - p) * (1.0 - pp)
        q1 = 1.0 - (1.0 - M23.ratio_a * p) * (1.0 - M23.ratio_a * pp)
        q2 = 1.0 - (1.0 - M23.ratio_b * p) * (1.0 - M23.ratio_b * pp)
        combined = apply_channel(rho, composite_kraus_from_branches((2, 3), (q,), (q1, q2)))
        worst = max(worst, float(np.abs(staged.matrix - combined.matrix).max()))
    check("6", "two-stage equals combined damping over 200 cases", worst <= 1e-10,
          f"worst deviation {worst:.2e}")


def test_criterion_6_cli_determinism_across_workers(tmp_path):
    outputs = []
    for workers in (1, 2, 3):
        path = tmp_path / f"scan-w{workers}.csv"
        code = main([
            "scan", "--family", "state2", "--op-a", "I", "--op-b", "F02",
            "--pn-step", "0.2", "--workers", str(workers), "--out", str(path),
        ])
        assert code == 0
        outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    check("6", "byte-identical scan output for 1, 2, and 3 workers", ok)


# ------------------------------------------------- 7. hasten-only flips


@pytest.mark.parametrize(
    "family,ops,end",
    [
        (FAMILY1, [("X", "F02"), ("X", "F201"), ("X", "I"), ("I", "F02"), ("I", "F201")], 0.6168),
        (FAMILY2, [("X", "F02"), ("X", "F201")], 0.8452),
    ],
    ids=["state1", "state2"],
)
def test_criterion_7_hasten_only_flips(family, ops, end):
    model = default_model(family.dims)
    offenders = []
    for op_a, op_b in ops:
        op = LocalUnitary(op_a, op_b)
        for pn in np.arange(0.01, end, 0.01):
            verdict = classify(StageSchedule(family, model, op, float(pn)))
            if verdict.outcome is not Outcome.HASTEN:
                offenders.append((op_a, op_b, round(float(pn), 3), verdict.outcome.value))
    check("7", f"{family.family.value} hasten-only flips hasten at every sampled p_n",
          not offenders, f"{len(offenders)} exceptions: {offenders[:4]}")
