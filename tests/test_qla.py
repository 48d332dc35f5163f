import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esdlab import qla
from esdlab.errors import NonHermitianInput, ShapeMismatch
from esdlab.qla import DensityMatrix
from esdlab.states import FamilyId, StateFamily, build_state

from conftest import (
    brute_partial_transpose,
    brute_realign,
    random_density_matrix,
    random_unitary,
)


def bell_state_2x2() -> DensityMatrix:
    psi = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    return DensityMatrix(2, 2, np.outer(psi, psi.conj()))


# ----------------------------------------------------------- eigensolver


def test_eigenvalues_of_diagonal_matrix():
    w = qla.hermitian_eigenvalues(np.diag([0.5, 0.5]).astype(complex))
    assert np.allclose(w, [0.5, 0.5], atol=1e-14)


def test_eigenvalues_of_offdiagonal_pair():
    w = qla.hermitian_eigenvalues(np.array([[0, 0.5], [0.5, 0]], dtype=complex))
    assert np.allclose(w, [-0.5, 0.5], atol=1e-14)


def test_bell_partial_transpose_spectrum():
    pt = qla.partial_transpose(bell_state_2x2(), "A")
    w = qla.hermitian_eigenvalues(pt)
    assert np.allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_rejects_non_hermitian_input():
    with pytest.raises(NonHermitianInput):
        qla.hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("defect, accepted", [(5e-13, True), (2e-12, False)])
def test_states_and_eigensolves_share_one_hermiticity_limit(defect, accepted):
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 1] = defect  # the Hermiticity defect is |m01 - conj(m10)|
    checks = (lambda: DensityMatrix(2, 2, m), lambda: qla.hermitian_eigenvalues(m))
    for check in checks:
        if accepted:
            check()
        else:
            with pytest.raises(NonHermitianInput):
                check()


def test_rejects_non_square_input():
    with pytest.raises(ShapeMismatch):
        qla.hermitian_eigenvalues(np.zeros((2, 3), dtype=complex))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 9))
def test_eigenvalues_match_lapack_and_sum_to_trace(seed, n):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (g + g.conj().T) / 2.0
    w = qla.hermitian_eigenvalues(h)
    assert np.allclose(w, np.linalg.eigvalsh(h), atol=1e-10)
    assert abs(w.sum() - np.trace(h).real) < 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_stacked_eigenvalues_equal_per_matrix_calls_bitwise(seed):
    # members of different sparsity patterns and scales
    rng = np.random.default_rng(seed)
    stack = []
    for _ in range(6):
        g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        g *= rng.random((9, 9)) < 0.15
        h = (g + g.conj().T) / 2.0 + np.diag(rng.normal(size=9) * 10.0 ** rng.integers(-12, 1, 9))
        stack.append(h)
    stack = np.array(stack)
    expected = np.array([qla.hermitian_eigenvalues(h) for h in stack])
    assert np.array_equal(qla.hermitian_eigenvalues(stack), expected)


# ------------------------------------------------------------ trace norm


def test_trace_norm_of_identity_and_zero():
    assert abs(qla.trace_norm(np.eye(3, dtype=complex)) - 3.0) < 1e-12
    assert qla.trace_norm(np.zeros((3, 3), dtype=complex)) == 0.0


def test_trace_norm_of_realigned_bell_state():
    assert abs(qla.trace_norm(qla.realign(bell_state_2x2())) - 2.0) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_trace_norm_unitary_invariance(seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    u = random_unitary(rng, 6)
    v = random_unitary(rng, 6)
    assert abs(qla.trace_norm(u @ m @ v) - qla.trace_norm(m)) < 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_trace_norm_matches_numpy_svd(seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(4, 9)) + 1j * rng.normal(size=(4, 9))
    expected = np.linalg.svd(m, compute_uv=False).sum()
    assert abs(qla.trace_norm(m) - expected) < 1e-10


# ------------------------------------------------------ partial transpose


def test_product_state_is_pt_invariant():
    m = np.zeros((6, 6), dtype=complex)
    m[0, 0] = 1.0  # |00><00|
    rho = DensityMatrix(2, 3, m)
    assert np.array_equal(qla.partial_transpose(rho, "A"), m)
    assert np.array_equal(qla.partial_transpose(rho, "B"), m)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pt_involution_and_exact_bookkeeping(seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, 2, 3)
    for system in ("A", "B"):
        pt = qla.partial_transpose(rho, system)
        # entry permutation only: trace and Hermiticity exact
        assert np.trace(pt) == np.trace(rho.matrix)
        assert qla.hermiticity_defect(pt) == 0.0
        again = qla.partial_transpose_matrix(pt, 2, 3, system)
        assert np.array_equal(again, rho.matrix)
        assert np.array_equal(pt, brute_partial_transpose(rho.matrix, 2, 3, system))


def test_pt_moves_family1_coherences_to_corner():
    rho = build_state(StateFamily(FamilyId.STATE1, 0.25))
    pt = qla.partial_transpose(rho, "A")
    # coherences leave (3,4)/(4,3) and land at (1,6)/(6,1), 1-based
    w = (1 - 2 * 0.25) / 2
    assert pt[0, 5] == rho.matrix[3, 2] == w
    assert pt[5, 0] == rho.matrix[2, 3] == w
    assert pt[2, 3] == 0.0
    assert np.array_equal(pt, brute_partial_transpose(rho.matrix, 2, 3, "A"))


# -------------------------------------------------------------- realign


def test_realign_of_ground_projector():
    m = np.zeros((6, 6), dtype=complex)
    m[0, 0] = 1.0
    r = qla.realign(DensityMatrix(2, 3, m))
    assert r.shape == (4, 9)
    assert np.count_nonzero(r) == 1 and r[0, 0] == 1.0
    assert abs(qla.trace_norm(r) - 1.0) < 1e-12


def test_realign_of_maximally_mixed_two_qutrit_state():
    rho = DensityMatrix(3, 3, np.eye(9, dtype=complex) / 9.0)
    r = qla.realign(rho)
    assert np.array_equal(r, brute_realign(rho.matrix, 3, 3))
    # product of vectorized-factor norms: sqrt(1/3) * sqrt(1/3)
    assert abs(qla.trace_norm(r) - 1.0 / 3.0) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_realign_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(rng, 3, 3)
    assert np.array_equal(qla.realign(rho), brute_realign(rho.matrix, 3, 3))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_realigned_product_state_trace_norm_factorizes(seed):
    rng = np.random.default_rng(seed)
    ga = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    gb = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho_a = ga @ ga.conj().T
    rho_a /= np.trace(rho_a).real
    rho_b = gb @ gb.conj().T
    rho_b /= np.trace(rho_b).real
    rho = DensityMatrix(2, 3, np.kron(rho_a, rho_b))
    expected = math.sqrt(np.trace(rho_a @ rho_a).real) * math.sqrt(np.trace(rho_b @ rho_b).real)
    assert abs(qla.trace_norm(qla.realign(rho)) - expected) < 1e-10


# -------------------------------------------------------- density matrix


def test_density_matrix_validation():
    with pytest.raises(NonHermitianInput):
        DensityMatrix(2, 3, np.eye(6) + 1e-6 * np.triu(np.ones((6, 6)), 1))
    with pytest.raises(ValueError):
        DensityMatrix(2, 3, np.eye(6, dtype=complex))  # trace 6
    with pytest.raises(ShapeMismatch):
        DensityMatrix(2, 3, np.eye(5, dtype=complex) / 5.0)
    bad = np.eye(6, dtype=complex) / 6.0
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        DensityMatrix(2, 3, bad)
    # a stack is checked matrix by matrix
    good = np.eye(6, dtype=complex) / 6.0
    assert DensityMatrix(2, 3, np.stack([good, good])).matrix.shape == (2, 6, 6)
    with pytest.raises(ValueError):
        DensityMatrix(2, 3, np.stack([good, 2.0 * good]))
    with pytest.raises(ValueError):
        DensityMatrix(2, 3, np.stack([good, bad]))


def test_density_matrix_is_immutable():
    rho = build_state(StateFamily(FamilyId.STATE1, 0.25))
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 99.0
