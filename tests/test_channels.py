import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esdlab import channels
from esdlab.channels import (
    DecayModel,
    KrausSet,
    apply_channel,
    composite_kraus,
    default_model,
    qubit_kraus,
    qutrit_kraus,
)
from esdlab.errors import DomainError, ShapeMismatch
from esdlab.measures import negativity
from esdlab.qla import DensityMatrix, hermiticity_defect, hermitian_eigenvalues
from esdlab.states import FamilyId, StateFamily, build_state

from conftest import completeness_residual, random_density_matrix

M23 = default_model((2, 3))


def test_qubit_kraus_limits():
    k0 = qubit_kraus(0.0)
    assert np.array_equal(k0[0], np.eye(2))
    assert np.count_nonzero(k0[1]) == 0
    k1 = qubit_kraus(1.0)
    assert np.array_equal(k1[0], np.diag([1.0, 0.0]))
    assert k1[1][0, 1] == 1.0


def test_qubit_kraus_at_p036():
    ks = qubit_kraus(0.36)
    assert np.allclose(np.diag(ks[0]), [1.0, 0.8])
    assert abs(ks[1][0, 1] - 0.6) < 1e-15


def test_qutrit_kraus_limits_and_values():
    k0 = qutrit_kraus(0.0, 0.0)
    assert np.array_equal(k0[0], np.eye(3))
    assert all(np.count_nonzero(k) == 0 for k in k0[1:])
    k1 = qutrit_kraus(1.0, 1.0)
    assert np.array_equal(k1[0], np.diag([1.0, 0.0, 0.0]))
    ks = qutrit_kraus(0.8 * 0.5, 0.6 * 0.5)
    assert np.allclose(np.diag(ks[0]), [1.0, math.sqrt(0.6), math.sqrt(0.7)])


def test_probability_range_checks():
    with pytest.raises(DomainError):
        qubit_kraus(-0.1)
    with pytest.raises(DomainError):
        qubit_kraus(1.1)
    with pytest.raises(DomainError):
        qutrit_kraus(0.5, 2.0)
    with pytest.raises(DomainError):
        composite_kraus((2, 2), 0.5, M23)
    # arrays of p: one element out of range rejects the whole array
    with pytest.raises(DomainError):
        qubit_kraus(np.array([0.0, 0.5, 1.0 + 1e-12]))
    with pytest.raises(DomainError):
        qutrit_kraus(np.array([0.2, 0.3]), np.array([0.1, -1e-9]))
    with pytest.raises(DomainError):
        composite_kraus((3, 3), np.array([0.5, np.nan]), default_model((3, 3)))
    with pytest.raises(DomainError):
        DecayModel(ratio_a=1.2, ratio_b=0.5)


def test_composite_kraus_structure():
    ks = composite_kraus((2, 3), 0.0, M23)
    assert ks.dims == (2, 3)
    assert ks.ops_a.shape == (2, 2, 2) and ks.ops_b.shape == (3, 3, 3)
    assert np.array_equal(ks.ops_a[0], np.eye(2)) and np.array_equal(ks.ops_b[0], np.eye(3))
    assert np.count_nonzero(ks.ops_a[1:]) == 0 and np.count_nonzero(ks.ops_b[1:]) == 0
    assert completeness_residual(composite_kraus((2, 3), 0.5, M23)) <= 1e-12
    k33 = composite_kraus((3, 3), 0.5, default_model((3, 3)))
    assert k33.dims == (3, 3)
    assert k33.ops_a.shape == k33.ops_b.shape == (3, 3, 3)
    assert completeness_residual(k33) <= 1e-12
    # an array of p gives one Kraus stack per element
    swept = composite_kraus((2, 3), np.array([0.0, 0.5]), M23)
    assert swept.ops_a.shape == (2, 2, 2, 2) and swept.ops_b.shape == (2, 3, 3, 3)
    assert np.array_equal(swept.ops_b[1], composite_kraus((2, 3), 0.5, M23).ops_b)
    assert completeness_residual(swept) <= 1e-12


@pytest.mark.parametrize("p", np.round(np.arange(0.0, 1.01, 0.1), 10))
@pytest.mark.parametrize("dims", [(2, 3), (3, 3)])
def test_completeness_across_p_grid(dims, p):
    assert completeness_residual(composite_kraus(dims, float(p), default_model(dims))) <= 1e-12


def test_apply_channel_is_identity_at_p_zero(rng):
    rho = random_density_matrix(rng, 2, 3)
    out = apply_channel(rho, composite_kraus((2, 3), 0.0, M23))
    assert np.abs(out.matrix - rho.matrix).max() < 1e-15


def test_full_decay_sends_excited_qubit_to_ground():
    m = np.zeros((6, 6), dtype=complex)
    m[3, 3] = 1.0  # |10><10|
    out = apply_channel(DensityMatrix(2, 3, m), composite_kraus((2, 3), 1.0, M23))
    expected = np.zeros((6, 6), dtype=complex)
    expected[0, 0] = 1.0  # |00><00|
    assert np.abs(out.matrix - expected).max() < 1e-15


def test_family1_negativity_vanishes_at_reported_boundary():
    rho = build_state(StateFamily(FamilyId.STATE1, 0.25))
    alive = apply_channel(rho, composite_kraus((2, 3), 0.61, M23))
    assert negativity(alive) > 1e-4
    boundary = apply_channel(rho, composite_kraus((2, 3), 0.6168, M23))
    assert negativity(boundary) < 2e-5
    dead = apply_channel(rho, composite_kraus((2, 3), 0.62, M23))
    assert negativity(dead) == 0.0


def test_shape_mismatch_is_rejected(rng):
    rho = random_density_matrix(rng, 3, 3)
    with pytest.raises(ShapeMismatch):
        apply_channel(rho, composite_kraus((2, 3), 0.5, M23))


# ------------------------------------------------- composition property


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_two_stage_equals_combined_damping(seed):
    """Damping by p then p' equals one channel with branch probabilities
    1-(1-p)(1-p') on the qubit and 1-(1-a*p)(1-a*p'), 1-(1-b*p)(1-b*p')
    on the qutrit branches."""
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, 2, 3)
    for p in np.linspace(0.0, 1.0, 5):
        for pp in np.linspace(0.0, 1.0, 5):
            staged = apply_channel(
                apply_channel(rho, composite_kraus((2, 3), float(p), M23)),
                composite_kraus((2, 3), float(pp), M23),
            )
            q = 1.0 - (1.0 - p) * (1.0 - pp)
            q1 = 1.0 - (1.0 - M23.ratio_a * p) * (1.0 - M23.ratio_a * pp)
            q2 = 1.0 - (1.0 - M23.ratio_b * p) * (1.0 - M23.ratio_b * pp)
            combined = apply_channel(rho, KrausSet(qubit_kraus(q), qutrit_kraus(q1, q2)))
            assert np.abs(staged.matrix - combined.matrix).max() < 1e-10


def test_ground_population_is_monotone_for_both_families():
    for family, x in ((FamilyId.STATE1, 0.25), (FamilyId.STATE2, 0.5)):
        rho = build_state(StateFamily(family, x))
        values = [
            apply_channel(rho, composite_kraus((2, 3), p, M23)).matrix[0, 0].real
            for p in np.linspace(0.0, 1.0, 41)
        ]
        assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(min_value=0.0, max_value=1.0))
def test_channel_output_is_a_valid_state(seed, p):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, 2, 3)
    out = apply_channel(rho, composite_kraus((2, 3), p, M23))
    assert abs(np.trace(out.matrix) - 1.0) < 1e-12
    assert hermiticity_defect(out.matrix) < 1e-12
    assert hermitian_eigenvalues(out.matrix)[0] >= -1e-10


def test_default_models():
    assert (M23.ratio_a, M23.ratio_b) == (0.8, 0.6)
    m33 = default_model((3, 3))
    assert (m33.ratio_a, m33.ratio_b) == (1.0, 0.75)
    with pytest.raises(DomainError):
        channels.default_model((2, 2))
