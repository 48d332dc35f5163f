import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esdlab.channels import apply_channel, composite_kraus, default_model
from esdlab.dynamics import StageSchedule, evolve_two_stage
from esdlab.errors import ShapeMismatch
from esdlab.measures import Verdict, assess, negativity, realigned_negativity
from esdlab.qla import DensityMatrix, partial_transpose_matrix, realign, trace_norm
from esdlab.states import FamilyId, StateFamily, build_state, separability_indicator

from conftest import numpy_negativity, random_density_matrix, random_pure_product

M23 = default_model((2, 3))
M33 = default_model((3, 3))


def bell_state_2x2() -> DensityMatrix:
    psi = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    return DensityMatrix(2, 2, np.outer(psi, psi.conj()))


def test_negativity_examples():
    ground = np.zeros((6, 6), dtype=complex)
    ground[0, 0] = 1.0
    assert negativity(DensityMatrix(2, 3, ground)) == 0.0
    assert abs(negativity(bell_state_2x2()) - 0.5) < 1e-12
    rho = build_state(StateFamily(FamilyId.STATE1, 0.25))
    assert abs(negativity(rho) - 0.125) < 1e-12
    assert abs(negativity(rho) + separability_indicator(0.25, 0.0, M23)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_negativity_is_subsystem_independent_and_matches_numpy(seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, 2, 3, rank=2)
    from esdlab.qla import hermitian_eigenvalues, partial_transpose

    w_a = hermitian_eigenvalues(partial_transpose(rho, "A"))
    w_b = hermitian_eigenvalues(partial_transpose(rho, "B"))
    neg_a = -w_a[w_a < 0].sum()
    neg_b = -w_b[w_b < 0].sum()
    assert abs(neg_a - neg_b) < 1e-12
    assert abs(negativity(rho) - numpy_negativity(rho.matrix, 2, 3)) < 1e-10


def test_negativity_of_small_decoupled_blocks_matches_closed_form(rng):
    # a partial transpose with a positive unit-scale 2x2 block, a 2x2 block
    # of scale 1e-6 with one negative eigenvalue, a 1x1 block of 3e-19 and
    # a zero, as near full decay; solved as one matrix, the negative
    # eigenvalue (about -8e-9) would carry errors of order 1e-16
    a, b, c = 2e-6, 5e-7, 1.01e-6
    pt = np.zeros((6, 6), dtype=complex)
    pt[0, 0], pt[0, 5], pt[5, 0] = 0.7, 0.2, 0.2
    pt[1, 1], pt[1, 3], pt[3, 1], pt[3, 3] = a, c, c, b
    pt[2, 2] = 3e-19
    pt[5, 5] = 1.0 - 0.7 - a - b - 3e-19
    rho = DensityMatrix(2, 3, partial_transpose_matrix(pt, 2, 3))
    with localcontext() as ctx:
        ctx.prec = 50
        a_, b_, c_ = Decimal(a), Decimal(b), Decimal(c)
        lam = (a_ + b_) / 2 - (((a_ - b_) / 2) ** 2 + c_ * c_).sqrt()
    assert lam < 0
    assert math.isclose(negativity(rho), -float(lam), rel_tol=1e-12, abs_tol=0.0)
    # in a stack beside a state of other blocks and one that takes the
    # LAPACK route, the same value
    other = build_state(StateFamily(FamilyId.STATE1, 0.25)).matrix
    dense = random_density_matrix(rng, 2, 3).matrix
    stack = DensityMatrix(2, 3, np.stack([other, rho.matrix, dense]))
    assert negativity(stack)[1] == negativity(rho)


def test_only_states_without_block_structure_take_lapack(monkeypatch, rng):
    def fail(m, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    damped = apply_channel(build_state(StateFamily(FamilyId.STATE1, 0.25)),
                           composite_kraus((2, 3), 0.3, M23))
    assert negativity(damped) > 0.0
    with pytest.raises(np.linalg.LinAlgError):
        negativity(random_density_matrix(rng, 2, 3))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(min_value=0.0, max_value=1.0))
def test_negativity_is_convex(seed, lam):
    rng = np.random.default_rng(seed)
    rho1 = random_density_matrix(rng, 2, 3, rank=2)
    rho2 = random_density_matrix(rng, 2, 3, rank=3)
    mix = DensityMatrix(2, 3, lam * rho1.matrix + (1 - lam) * rho2.matrix)
    bound = lam * negativity(rho1) + (1 - lam) * negativity(rho2)
    assert negativity(mix) <= bound + 1e-10


def test_realigned_negativity_examples(rng):
    assert realigned_negativity(random_pure_product(rng, 2, 3)) == 0.0
    assert abs(realigned_negativity(bell_state_2x2()) - 1.0) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_realignment_never_flags_product_states(seed):
    rng = np.random.default_rng(seed)
    ga = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    gb = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho_a = ga @ ga.conj().T
    rho_a /= np.trace(rho_a).real
    rho_b = gb @ gb.conj().T
    rho_b /= np.trace(rho_b).real
    rho = DensityMatrix(3, 3, np.kron(rho_a, rho_b))
    assert realigned_negativity(rho) <= 1e-10


def test_two_qutrit_family_realignment_reading():
    # regression anchor: the realigned trace norm of the x=0.25 member is
    # 5/6, below the detection threshold, even though the state is
    # entangled (negativity 1/12); realignment misses this family at p=0
    rho = build_state(StateFamily(FamilyId.TWO_QUTRIT, 0.25))
    assert abs(trace_norm(realign(rho)) - 5.0 / 6.0) < 1e-10
    assert realigned_negativity(rho) == 0.0
    assert negativity(rho) > 0.08


def test_assess_verdicts():
    ground = np.zeros((6, 6), dtype=complex)
    ground[0, 0] = 1.0
    reading = assess(DensityMatrix(2, 3, ground))
    assert reading.verdict is Verdict.SEPARABLE_2X3
    assert reading.realigned_negativity is None

    maximally_mixed = assess(DensityMatrix(3, 3, np.eye(9, dtype=complex) / 9.0))
    assert maximally_mixed.verdict is Verdict.PPT_UNDETECTED
    assert maximally_mixed.negativity == 0.0
    assert maximally_mixed.realigned_negativity == 0.0

    entangled = assess(build_state(StateFamily(FamilyId.STATE1, 0.25)))
    assert entangled.verdict is Verdict.ENTANGLED

    tq = assess(build_state(StateFamily(FamilyId.TWO_QUTRIT, 0.25)))
    assert tq.verdict is Verdict.ENTANGLED
    assert tq.realigned_negativity is not None


@pytest.mark.parametrize("family", [FamilyId.STATE1, FamilyId.TWO_QUTRIT])
def test_assess_rejects_a_stack_by_its_shape(family):
    stack = evolve_two_stage(
        StageSchedule(StateFamily(family, 0.25), default_model(family.dims)),
        np.array([0.1, 0.2]),
    )
    with pytest.raises(ShapeMismatch, match=rf"one state.*\(2, {stack.dim}, {stack.dim}\)"):
        assess(stack)


def test_assess_consults_realignment_after_negativity_death():
    # just past this family's sudden-death point the PPT test is blind;
    # the realignment reading is reported alongside (here also null)
    rho0 = build_state(StateFamily(FamilyId.TWO_QUTRIT, 0.25))
    dead = apply_channel(rho0, composite_kraus((3, 3), 0.41, M33))
    reading = assess(dead)
    assert reading.negativity <= 1e-12
    assert reading.realigned_negativity is not None
    assert reading.verdict is Verdict.PPT_UNDETECTED

    still_alive = assess(apply_channel(rho0, composite_kraus((3, 3), 0.39, M33)))
    assert still_alive.verdict is Verdict.ENTANGLED


def test_evolved_family1_past_death_is_separable():
    rho0 = build_state(StateFamily(FamilyId.STATE1, 0.25))
    dead = apply_channel(rho0, composite_kraus((2, 3), 0.63, M23))
    reading = assess(dead)
    assert reading.verdict is Verdict.SEPARABLE_2X3
