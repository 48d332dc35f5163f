import numpy as np
import pytest

from esdlab.channels import apply_channel, composite_kraus, default_model
from esdlab.errors import DomainError
from esdlab.measures import negativity
from esdlab.qla import hermitian_eigenvalues
from esdlab.states import (
    FamilyId,
    StateFamily,
    build_state,
    separability_indicator,
)

M23 = default_model((2, 3))


def test_family1_matrix_values():
    rho = build_state(StateFamily(FamilyId.STATE1, 0.25)).matrix
    assert np.allclose(np.diag(rho), [0.125, 0.125, 0.25, 0.25, 0.125, 0.125])
    assert rho[2, 3] == rho[3, 2] == 0.25
    off = rho - np.diag(np.diag(rho))
    assert np.count_nonzero(off) == 2


def test_family2_matrix_values():
    rho = build_state(StateFamily(FamilyId.STATE2, 0.5)).matrix
    assert np.allclose(np.diag(rho), [0.25, 0.25, 0.0, 0.0, 0.25, 0.25])
    assert rho[0, 5] == rho[5, 0] == 0.25
    off = rho - np.diag(np.diag(rho))
    assert np.count_nonzero(off) == 2


def test_family2_coherence_block_is_rank_one_but_state_is_mixed():
    # the |00>/|12> sector is x * |phi><phi| with phi = (|00>+|12>)/sqrt(2);
    # the remaining population keeps the full state mixed: Tr rho^2 = 3/8
    x = 0.5
    rho = build_state(StateFamily(FamilyId.STATE2, x)).matrix
    block = rho[np.ix_([0, 5], [0, 5])]
    assert np.abs(block @ block - x * block).max() < 1e-15
    assert abs(np.trace(rho @ rho).real - 0.375) < 1e-12


def test_two_qutrit_matrix_at_x_zero():
    rho = build_state(StateFamily(FamilyId.TWO_QUTRIT, 0.0)).matrix
    expected = np.zeros((9, 9), dtype=complex)
    for k in (0, 4, 8):
        expected[k, k] = 1.0 / 3.0
    expected[0, 8] = expected[8, 0] = 1.0 / 3.0
    assert np.abs(rho - expected).max() < 1e-15


@pytest.mark.parametrize(
    "family,xs",
    [
        (FamilyId.STATE1, [0.0, 0.1, 0.25, 0.33]),
        (FamilyId.STATE2, [0.34, 0.4, 0.5]),
        (FamilyId.TWO_QUTRIT, [0.0, 0.1, 0.25, 0.33]),
    ],
)
def test_built_states_satisfy_density_invariants(family, xs):
    for x in xs:
        rho = build_state(StateFamily(family, x))
        assert hermitian_eigenvalues(rho.matrix)[..., 0] >= -1e-10
        assert abs(np.trace(rho.matrix) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "family,bad_x",
    [
        (FamilyId.STATE1, -0.01),
        (FamilyId.STATE1, 1.0 / 3.0),
        (FamilyId.STATE2, 1.0 / 3.0),
        (FamilyId.STATE2, 0.51),
        (FamilyId.TWO_QUTRIT, 1.0 / 3.0),
        (FamilyId.TWO_QUTRIT, -0.2),
    ],
)
def test_parameter_ranges_are_enforced(family, bad_x):
    with pytest.raises(DomainError):
        StateFamily(family, bad_x)


# ------------------------------------------------------ closed-form oracle


def test_indicator_at_p_zero():
    assert abs(separability_indicator(0.25, 0.0, M23) - (3 * 0.25 - 1) / 2) < 1e-15


def test_indicator_root_matches_reported_boundary():
    lo, hi = 0.0, 0.99
    assert separability_indicator(0.25, lo, M23) < 0 < separability_indicator(0.25, hi, M23)
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if separability_indicator(0.25, mid, M23) < 0:
            lo = mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - 0.6168) < 5e-4


def test_indicator_stays_negative_for_asymptotic_decay_parameter():
    # x = 0.2 decays asymptotically: the indicator approaches zero from
    # below without crossing
    values = [separability_indicator(0.2, p, M23) for p in np.linspace(0.0, 0.999999, 200)]
    assert all(v < 0 for v in values)
    assert values[-1] > -1e-4


def test_indicator_domain_checks():
    with pytest.raises(DomainError):
        separability_indicator(0.4, 0.1, M23)
    with pytest.raises(DomainError):
        separability_indicator(0.25, 1.0, M23)


@pytest.mark.parametrize("x", [0.05, 0.15, 0.22, 0.25, 0.3])
def test_initial_negativity_equals_indicator(x):
    rho = build_state(StateFamily(FamilyId.STATE1, x))
    expected = max(0.0, -separability_indicator(x, 0.0, M23))
    assert abs(negativity(rho) - expected) < 1e-10


@pytest.mark.parametrize("x", [0.21, 0.25, 0.3])
def test_indicator_tracks_kraus_pipeline_on_grid(x):
    """Sign agreement everywhere; where the indicator is negative the
    negativity equals its magnitude (single negative PT eigenvalue)."""
    rho0 = build_state(StateFamily(FamilyId.STATE1, x))
    for p in np.arange(0.0, 0.96, 0.05):
        rho = apply_channel(rho0, composite_kraus((2, 3), float(p), M23))
        neg = negativity(rho)
        ind = separability_indicator(x, float(p), M23)
        assert abs(neg - max(0.0, -ind)) <= 1e-9
        if ind < -1e-10:
            assert neg > 1e-12
        if ind > 1e-10:
            assert neg <= 1e-12


def test_two_qutrit_initial_entanglement():
    rho = build_state(StateFamily(FamilyId.TWO_QUTRIT, 0.25))
    # PT block determinant: negativity (1-2x)/3 - x/3 at p=0
    assert abs(negativity(rho) - 1.0 / 12.0) < 1e-12
