"""Tests for the two-qubit state model and the Bloch-matrix maps."""

import numpy as np
import pytest

from blochinv.errors import NonHermitianInput
from blochinv.linalg import norm_inf
from blochinv.states import (
    PAULI,
    PAULI_KRON,
    SWAP,
    BlochMatrix,
    StateClass,
    bell_projector,
    bloch_of,
    bloch_vector,
    classify,
    correlation,
    density_of,
    is_positive,
    partial_trace,
    random_bloch,
    random_state,
    validate_density,
)

MAX_MIXED = 0.25 * np.eye(4, dtype=complex)


class TestPauliBasis:
    def test_hermitian_and_orthogonal(self):
        for i in range(4):
            np.testing.assert_array_equal(PAULI[i], PAULI[i].conj().T)
            for j in range(4):
                tr = np.trace(PAULI[i] @ PAULI[j])
                assert tr == pytest.approx(2.0 if i == j else 0.0)

    def test_kron_basis_trace_orthogonal(self):
        flat = PAULI_KRON.reshape(16, 4, 4)
        for a in range(16):
            for b in range(16):
                tr = np.trace(flat[a] @ flat[b])
                assert tr == pytest.approx(4.0 if a == b else 0.0)

    def test_swap_exchanges_factors(self):
        np.testing.assert_array_equal(SWAP @ SWAP, np.eye(4))
        for i in range(4):
            for j in range(4):
                lhs = SWAP @ PAULI_KRON[i, j] @ SWAP
                np.testing.assert_array_equal(lhs, PAULI_KRON[j, i])


class TestCorrelation:
    def test_maximally_mixed(self):
        assert correlation(MAX_MIXED, 0, 0) == pytest.approx(1.0)
        for i in range(4):
            for j in range(4):
                if (i, j) != (0, 0):
                    assert correlation(MAX_MIXED, i, j) == pytest.approx(0.0)

    def test_bell_diagonal_values(self):
        rho = bell_projector("phi+")
        assert correlation(rho, 1, 1) == pytest.approx(1.0)
        assert correlation(rho, 2, 2) == pytest.approx(-1.0)
        assert correlation(rho, 3, 3) == pytest.approx(1.0)

    def test_product_state(self):
        ket0 = np.array([1.0, 0.0], dtype=complex)
        rho = np.kron(np.outer(ket0, ket0), 0.5 * np.eye(2))
        assert correlation(rho, 3, 0) == pytest.approx(1.0)
        assert correlation(rho, 0, 3) == pytest.approx(0.0)

    def test_bad_index(self):
        with pytest.raises(IndexError):
            correlation(MAX_MIXED, 4, 0)

    def test_dense_large_entries(self):
        # The imaginary residue grows with |rho|_inf; the test is relative.
        rng = np.random.default_rng(17)
        zero = np.zeros(3)
        for _ in range(20):
            c = rng.uniform(-1e8, 1e8, size=(3, 3))
            rho = density_of(BlochMatrix(zero, zero, c))
            for i in range(1, 4):
                for j in range(1, 4):
                    assert correlation(rho, i, j) == pytest.approx(c[i - 1, j - 1], rel=1e-12)

    def test_non_hermitian_correlation_rejected(self):
        bad = MAX_MIXED + np.array([[0, 1e-3, 0, 0]] + [[0] * 4] * 3) * 1j
        with pytest.raises(NonHermitianInput):
            correlation(bad, 0, 1)

    def test_non_hermitian_rejected(self):
        bad = MAX_MIXED + np.array([[0, 1e-3, 0, 0]] + [[0] * 4] * 3) * 1j
        with pytest.raises(NonHermitianInput):
            bloch_of(bad)


class TestBlochMap:
    def test_maximally_mixed_is_origin(self):
        b = bloch_of(MAX_MIXED)
        assert norm_inf(b.u) == 0.0 and norm_inf(b.v) == 0.0 and norm_inf(b.C) == 0.0

    def test_bell_bloch(self):
        b = bloch_of(bell_projector("phi+"))
        np.testing.assert_allclose(b.u, 0.0, atol=1e-14)
        np.testing.assert_allclose(b.v, 0.0, atol=1e-14)
        np.testing.assert_allclose(b.C, np.diag([1.0, -1.0, 1.0]), atol=1e-14)

    def test_density_of_bell(self):
        b = BlochMatrix(np.zeros(3), np.zeros(3), np.diag([1.0, -1.0, 1.0]))
        np.testing.assert_allclose(density_of(b), bell_projector("phi+"), atol=1e-14)

    def test_density_of_is_valid_state(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            rho = density_of(random_bloch(StateClass.GENERAL, rng))
            validate_density(rho)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for k in range(500):
            cls = list(StateClass)[k % 4]
            rho = random_state(cls, rng, positive=(k % 2 == 0))
            b = bloch_of(rho)
            assert norm_inf(density_of(b) - rho) <= 1e-12 * max(1.0, norm_inf(rho))


class TestPartialTrace:
    def test_maximally_mixed(self):
        np.testing.assert_allclose(partial_trace(MAX_MIXED, 1), 0.5 * np.eye(2))
        np.testing.assert_allclose(partial_trace(MAX_MIXED, 2), 0.5 * np.eye(2))

    def test_bell_traces_are_maximally_mixed(self):
        for name in ("phi+", "phi-", "psi+", "psi-"):
            rho = bell_projector(name)
            np.testing.assert_allclose(partial_trace(rho, 1), 0.5 * np.eye(2), atol=1e-15)
            np.testing.assert_allclose(partial_trace(rho, 2), 0.5 * np.eye(2), atol=1e-15)

    def test_product_state(self):
        p0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        p1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        rho = np.kron(p0, p1)
        np.testing.assert_array_equal(partial_trace(rho, 1), p0)
        np.testing.assert_array_equal(partial_trace(rho, 2), p1)

    def test_bloch_vector_consistency(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            rho = density_of(random_bloch(StateClass.GENERAL, rng))
            b = bloch_of(rho)
            assert norm_inf(bloch_vector(partial_trace(rho, 1)) - b.u) <= 1e-12
            assert norm_inf(bloch_vector(partial_trace(rho, 2)) - b.v) <= 1e-12


class TestClassify:
    def test_examples(self):
        assert classify(MAX_MIXED) is StateClass.SYMMETRIC_LMM
        assert classify(bell_projector("phi+")) is StateClass.SYMMETRIC_LMM
        p0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        p1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        assert classify(np.kron(p0, p1)) is StateClass.GENERAL

    def test_swap_cross_check(self):
        # The Bloch conditions for symmetry agree with commutation with the
        # tensor swap.
        rng = np.random.default_rng(3)
        for k in range(200):
            cls = list(StateClass)[k % 4]
            rho = density_of(random_bloch(cls, rng))
            sym = cls in (StateClass.SYMMETRIC, StateClass.SYMMETRIC_LMM)
            assert (norm_inf(SWAP @ rho @ SWAP - rho) <= 1e-9) == sym

    def test_idempotent_with_construction(self):
        rng = np.random.default_rng(4)
        for k in range(400):
            cls = list(StateClass)[k % 4]
            assert classify(density_of(random_bloch(cls, rng))) is cls


class TestPositivity:
    def test_examples(self):
        assert is_positive(MAX_MIXED)
        assert is_positive(bell_projector("phi+"))
        inflated = density_of(BlochMatrix(np.zeros(3), np.zeros(3), 3.0 * np.eye(3)))
        assert not is_positive(inflated)

    def test_ginibre_positive_all_classes(self):
        rng = np.random.default_rng(5)
        for k in range(400):
            cls = list(StateClass)[k % 4]
            rho = random_state(cls, rng, positive=True)
            assert is_positive(rho)
            assert abs(np.trace(rho) - 1.0) < 1e-12
            b = bloch_of(rho)
            assert np.max(np.abs(b.C)) <= 1.0 + 1e-10
            assert np.max(np.abs(b.u)) <= 1.0 + 1e-10
            assert np.max(np.abs(b.v)) <= 1.0 + 1e-10


class TestRandomStates:
    def test_bloch_constraints_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            b = random_bloch(StateClass.LMM, rng)
            assert norm_inf(b.u) == 0.0 and norm_inf(b.v) == 0.0
            b = random_bloch(StateClass.SYMMETRIC, rng)
            assert norm_inf(b.u - b.v) == 0.0
            assert norm_inf(b.C - b.C.T) == 0.0
            b = random_bloch(StateClass.SYMMETRIC_LMM, rng)
            assert norm_inf(b.u) == 0.0 and norm_inf(b.C - b.C.T) == 0.0

    def test_density_route_respects_class(self):
        rho = random_state(StateClass.LMM, 123)
        b = bloch_of(rho)
        # Reconstructed 1-point blocks cancel pairwise up to roundoff.
        assert norm_inf(b.u) < 1e-15 and norm_inf(b.v) < 1e-15

    def test_ginibre_lmm_has_zero_one_point_blocks(self):
        rho = random_state(StateClass.LMM, 5, positive=True)
        b = bloch_of(rho)
        assert norm_inf(b.u) < 1e-14 and norm_inf(b.v) < 1e-14

    def test_deterministic_in_seed(self):
        a = random_state(StateClass.GENERAL, 99, positive=True)
        b = random_state(StateClass.GENERAL, 99, positive=True)
        np.testing.assert_array_equal(a, b)
