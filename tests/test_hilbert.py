import numpy as np
import pytest

from homsim.hilbert import (
    BasisIndex,
    OperatorMatrix,
    StateVector,
    basis_state,
    embed,
    fock_destroy,
    level_transfer,
)
from reference import matrix_exp, unflatten

RNG = np.random.default_rng(1234)


def rand_op(d, dims=None):
    m = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    return OperatorMatrix(m, dims or (d,))


def test_embed_identity():
    out = embed(np.eye(3), 1, (2, 3, 2))
    assert np.array_equal(out.entries, np.eye(12))


def test_embed_disjoint_factorizes():
    x = RNG.normal(size=(2, 2))
    y = RNG.normal(size=(2, 2))
    lhs = embed(x, 0, (2, 2)).entries @ embed(y, 1, (2, 2)).entries
    rhs = np.kron(x, y)
    assert np.array_equal(lhs, rhs)


def test_embed_disjoint_commutes():
    x = rand_op(3).entries
    y = rand_op(2).entries
    a = embed(x, 0, (3, 3, 2, 2)).entries
    b = embed(y, 2, (3, 3, 2, 2)).entries
    assert np.array_equal(a @ b, b @ a)


def test_embed_ion2_transfer_entry_count():
    # |a><c| on ion 2 of (3,3,2,2): one unit entry per (ion1, cav1, cav2) combo
    dims = (3, 3, 2, 2)
    mat = embed(level_transfer("a", "c"), 1, dims).entries
    nz = np.argwhere(mat != 0)
    assert len(nz) == 3 * 2 * 2 == 12
    assert np.allclose(mat[mat != 0], 1.0)
    expected = set()
    for lev1 in "abc":
        for n1 in range(2):
            for n2 in range(2):
                row = BasisIndex(lev1, "a", n1, n2).flatten(dims)
                col = BasisIndex(lev1, "c", n1, n2).flatten(dims)
                expected.add((row, col))
    assert {(int(r), int(c)) for r, c in nz} == expected


def test_embed_dimension_mismatch():
    with pytest.raises(ValueError):
        embed(np.eye(2), 0, (3, 3))


@pytest.mark.parametrize("subsystem", [-1, 4])
def test_embed_rejects_a_subsystem_out_of_range(subsystem):
    # below the range it once returned the identity, dropping the operator;
    # above it, a bare IndexError
    with pytest.raises(ValueError, match=rf"subsystem {subsystem} out of range"):
        embed(fock_destroy(2), subsystem, (3, 3, 2, 2))


def test_matrix_exp_zero():
    z = OperatorMatrix(np.zeros((4, 4)), (4,))
    assert np.allclose(matrix_exp(z, 3.7j).entries, np.eye(4))


def test_matrix_exp_diagonal():
    lam = np.array([0.3, -1.2, 0.5j, 2.0 - 1.0j])
    s = 0.7 - 0.2j
    out = matrix_exp(OperatorMatrix(np.diag(lam), (4,)), s).entries
    assert np.max(np.abs(out - np.diag(np.exp(s * lam)))) < 1e-12


def test_matrix_exp_taylor_oracle():
    # 50-term Taylor series as the independent reference
    for _ in range(4):
        a = rand_op(4)
        a = OperatorMatrix(a.entries / np.linalg.norm(a.entries, 2) * 2.0, (4,))
        term = np.eye(4, dtype=complex)
        total = np.eye(4, dtype=complex)
        for k in range(1, 50):
            term = term @ a.entries / k
            total = total + term
        assert np.max(np.abs(matrix_exp(a).entries - total)) < 1e-10


def test_matrix_exp_unitary_for_hermitian():
    h = rand_op(6).entries
    h = h + h.conj().T
    u = matrix_exp(OperatorMatrix(h, (6,)), -1j * 0.37).entries
    assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-10


def test_matrix_exp_contracts_with_damping():
    # negative-semidefinite anti-Hermitian part can only shrink norms
    h = rand_op(5).entries
    h = h + h.conj().T - 1j * np.diag(RNG.uniform(0, 3, size=5))
    u = matrix_exp(OperatorMatrix(h, (5,)), -1j * 0.1).entries
    for _ in range(20):
        v = RNG.normal(size=5) + 1j * RNG.normal(size=5)
        v /= np.linalg.norm(v)
        assert np.linalg.norm(u @ v) <= 1.0 + 1e-9


def test_apply_identity_and_basis_mapping():
    dims = (3, 3, 2, 2)
    psi = basis_state(BasisIndex("a", "a", 0, 0), dims).amplitudes
    assert np.array_equal(embed(np.eye(3), 0, dims).entries @ psi, psi)
    out = embed(level_transfer("b", "a"), 0, dims).entries @ psi
    assert out[BasisIndex("b", "a", 0, 0).flatten(dims)] == 1.0
    assert np.vdot(out, out) == pytest.approx(1.0)


def _symmetric_photon(dims):
    amp = np.zeros(36, dtype=complex)
    amp[BasisIndex("a", "a", 1, 0).flatten(dims)] = 1 / np.sqrt(2)
    amp[BasisIndex("a", "a", 0, 1).flatten(dims)] = 1 / np.sqrt(2)
    return amp


def test_apply_symmetric_mode_sum():
    # (c1 + c2) applied to (|10> + |01>)/sqrt(2) leaves sqrt(2) on vacuum
    dims = (3, 3, 2, 2)
    c1 = embed(fock_destroy(2), 2, dims).entries
    c2 = embed(fock_destroy(2), 3, dims).entries
    out = (c1 + c2) @ _symmetric_photon(dims)
    vac = BasisIndex("a", "a", 0, 0).flatten(dims)
    assert out[vac] == pytest.approx(np.sqrt(2))
    assert np.vdot(out, out) == pytest.approx(2.0)


def test_expectation_number_operator():
    dims = (3, 3, 2, 2)
    c1 = embed(fock_destroy(2), 2, dims).entries
    psi = basis_state(BasisIndex("a", "a", 1, 0), dims).amplitudes
    assert np.vdot(psi, c1.conj().T @ c1 @ psi) == pytest.approx(1.0)


def test_expectation_balanced_detector_mode():
    # constructive interference doubles the symmetric-mode occupation
    dims = (3, 3, 2, 2)
    c1 = embed(fock_destroy(2), 2, dims).entries
    c2 = embed(fock_destroy(2), 3, dims).entries
    d1 = (c1 + c2) / np.sqrt(2)
    psi = _symmetric_photon(dims)
    assert np.vdot(psi, d1.conj().T @ d1 @ psi) == pytest.approx(1.0)


def test_dimension_checks():
    with pytest.raises(ValueError):
        StateVector(np.zeros(5), (2, 2))
    with pytest.raises(ValueError):
        OperatorMatrix(np.eye(4), (8,))
    with pytest.raises(ValueError):
        OperatorMatrix(np.zeros((4, 2)), (4,))


def test_basis_index_round_trip():
    dims = (3, 3, 2, 2)
    for flat in range(36):
        assert unflatten(flat, dims).flatten(dims) == flat


def test_values_own_their_arrays():
    # a value neither follows later writes to the caller's array nor locks it
    a = np.zeros(4, dtype=complex)
    sv = StateVector(a, (2, 2))
    a[0] = 1.0
    assert sv.amplitudes[0] == 0.0
    h = np.zeros((4, 4), dtype=complex)
    op = OperatorMatrix(h, (2, 2))
    h[0, 0] = 1.0
    assert op.entries[0, 0] == 0.0
    for arr in (sv.amplitudes, op.entries):
        with pytest.raises(ValueError):
            arr[0] = 2.0
