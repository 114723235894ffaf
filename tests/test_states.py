"""Tests for the two-qubit state model and the Bloch-matrix maps."""

import math

import numpy as np
import pytest

from blochinv import linalg, states
from blochinv.errors import BlochInvError, NonHermitianInput, NotRepresentable, StateFormatError
from blochinv.groups import act_bloch, random_bloch, random_state
from blochinv.states import (
    BELL_KETS,
    DEFAULT_CLASS_TOL,
    DENSITY_TOL,
    PAULI,
    POSITIVITY_TOL,
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
    validate_density,
)
from blochinv.verify import norm_inf
from pins import check, hex_list, hexes

MAX_MIXED = 0.25 * np.eye(4, dtype=complex)

# The basis of the einsum oracles of the closed forms in states:
# PAULI_KRON[a, b] = sigma_a (x) sigma_b, trace-orthogonal (tr products = 4 delta).
PAULI_NP = np.array(PAULI)
PAULI_KRON = np.array([[np.kron(p, q) for q in PAULI_NP] for p in PAULI_NP])
SWAP_NP = np.array(SWAP, dtype=complex)


def table_oracle(rho):
    """tr(rho sigma_a (x) sigma_b) as one einsum over the Pauli basis."""
    return np.einsum("abij,ji->ab", PAULI_KRON, np.asarray(rho, dtype=complex)).real


def density_oracle(u, v, c):
    """(1/4) sum_ab B_ab sigma_a (x) sigma_b, B scaled by 1/4 first."""
    b = 0.25 * np.array([[1.0, *v], *([x, *row] for x, row in zip(u, c))])
    return np.einsum("ab,abij->ij", b, PAULI_KRON)


def class_oracle(table, tol=DEFAULT_CLASS_TOL):
    u, v, c = table[1:, 0], table[0, 1:], table[1:, 1:]
    lmm = norm_inf(u) <= tol and norm_inf(v) <= tol
    sym = norm_inf(u - v) <= tol and norm_inf(c - c.T) <= tol
    return {(True, True): StateClass.SYMMETRIC_LMM, (True, False): StateClass.LMM,
            (False, True): StateClass.SYMMETRIC, (False, False): StateClass.GENERAL}[lmm, sym]


class TestPauliBasis:
    def test_hermitian_and_orthogonal(self):
        for i in range(4):
            np.testing.assert_array_equal(PAULI_NP[i], PAULI_NP[i].conj().T)
            for j in range(4):
                tr = np.trace(PAULI_NP[i] @ PAULI_NP[j])
                assert tr == pytest.approx(2.0 if i == j else 0.0)

    def test_kron_basis_trace_orthogonal(self):
        flat = PAULI_KRON.reshape(16, 4, 4)
        for a in range(16):
            for b in range(16):
                tr = np.trace(flat[a] @ flat[b])
                assert tr == pytest.approx(4.0 if a == b else 0.0)

    def test_swap_exchanges_factors(self):
        np.testing.assert_array_equal(SWAP_NP @ SWAP_NP, np.eye(4))
        for i in range(4):
            for j in range(4):
                lhs = SWAP_NP @ PAULI_KRON[i, j] @ SWAP_NP
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


class TestValidateDensity:
    # A 2x2 matrix m of trace 4, lifted to the unit-trace 4x4 m (x) I / 8,
    # which is Hermitian exactly when m is.
    def test_accepts_hermitian(self):
        rho = np.kron(np.array([[1.0, 2j], [-2j, 3.0]]), np.eye(2)) / 8
        np.testing.assert_array_equal(validate_density(rho), rho)

    def test_rejects_non_hermitian(self):
        rho = np.kron(np.array([[1.0, 2j], [2j, 3.0]]), np.eye(2)) / 8
        with pytest.raises(NonHermitianInput):
            validate_density(rho)


# 2^k is the scale of the edge states' deviation from I/4 (a unit-trace state
# has an entry of at least 1/4, so below that only the deviation is 2^k).
EDGE_EXPONENTS = (-1000, -500, 0, 500, 1000)


def edge_state(k):
    """I/4 + 2^k H for a fixed traceless Hermitian H with entries +-1,
    1 +- i and (1 +- i) / 2: unit trace (exactly, or within the tolerance
    where 2^k absorbs the 1/4), largest entry sqrt(2) 2^k for k >= 0 and
    1/4 below."""
    h = np.array([[1, 0, 0, 1 + 1j], [0, -1, 0.5 + 0.5j, 0], [0, 0.5 - 0.5j, 0, 0],
                  [1 - 1j, 0, 0, 0]])
    return 0.25 * np.eye(4, dtype=complex) + 2.0 ** k * h


class TestDensityCheckEdges:
    """validate_density just inside and just outside its two tolerances, at
    every scale of the double range, and the type and message of each input
    error. The tolerance is DENSITY_TOL * max(1, |rho|_inf); the perturbations
    are (1 -+ 2^-10) times it, far beyond the rounding of the check."""

    ENTRY_MESSAGE = "expected a 4x4 matrix of numbers, got an entry that is not a number"
    CHECKS = (validate_density, bloch_of, classify, is_positive,
              lambda rho: correlation(rho, 0, 0), lambda rho: partial_trace(rho, 1))

    @staticmethod
    def _tol(rho):
        return DENSITY_TOL * max(1.0, float(np.max(np.abs(rho))))

    @pytest.mark.parametrize("k", EDGE_EXPONENTS)
    def test_edge_state_accepted_and_mapped_exactly(self, k):
        rho = edge_state(k)
        np.testing.assert_array_equal(validate_density(rho), rho)
        table = table_oracle(rho)
        assert hexes(bloch_of(rho)) == hexes(
            [x.tolist() for x in (table[1:, 0], table[0, 1:], table[1:, 1:])])

    @pytest.mark.parametrize("k", EDGE_EXPONENTS)
    @pytest.mark.parametrize("where, error", [
        ((1, 2, 1.0), NonHermitianInput), ((1, 2, 1j), NonHermitianInput),
        ((2, 2, 1.0), StateFormatError), ((2, 2, -1.0), StateFormatError),
    ], ids=["hermitian-re", "hermitian-im", "trace-up", "trace-down"])
    def test_tolerance_boundaries(self, k, where, error):
        # One entry moved by d: rho_12 breaks Hermiticity by |d|, rho_22 the
        # trace by |d|; neither moves |rho|_inf.
        i, j, direction = where
        rho = edge_state(k)
        tol = self._tol(rho)
        for factor, accepted in ((1.0 - 2.0 ** -10, True), (1.0 + 2.0 ** -10, False)):
            moved = rho.copy()
            moved[i, j] += factor * tol * direction
            assert self._tol(moved) == tol
            if accepted:
                validate_density(moved)
            else:
                with pytest.raises(error):
                    validate_density(moved)

    @pytest.mark.parametrize("rho, error, message", [
        (np.zeros((3, 4)), StateFormatError, "expected a 4x4 matrix, got shape (3, 4)"),
        ([[0.25, 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0.25]], StateFormatError,
         "expected a 4x4 matrix, got shape (4, ragged)"),
        (np.zeros((4, 4, 1)), StateFormatError, "expected a 4x4 matrix, got shape (4, 4, 1)"),
        (list(np.eye(4) / 4), StateFormatError, "expected a 4x4 matrix, got shape (4, arrays)"),
        (0.25, StateFormatError, "expected a 4x4 matrix, got shape ()"),
        ("0.25", StateFormatError, "expected a 4x4 matrix, got shape ()"),
        ([[None] * 4] * 4, StateFormatError, ENTRY_MESSAGE),
        ([["x"] * 4] * 4, StateFormatError, ENTRY_MESSAGE),
        # An integer beyond the double range is non-finite, as in serialize._real,
        # and an entry that is not a number comes before a non-finite one.
        ([[10**400, 0, 0, 0], [0] * 4, [0] * 4, [0] * 4], ValueError,
         "density matrix contains NaN or Inf entries"),
        ([[10**400, 0, 0, 0], [0] * 4, [0] * 4, [0, 0, 0, None]], StateFormatError,
         ENTRY_MESSAGE),
        ([[float("nan"), 0, 0, 0], [0] * 4, [0] * 4, [0, 0, 0, "x"]], StateFormatError,
         ENTRY_MESSAGE),
        # The shape is tested before any entry is read.
        ([["x"] * 4, [0] * 4, [0] * 4, [0] * 3], StateFormatError,
         "expected a 4x4 matrix, got shape (4, ragged)"),
        (np.diag([np.nan, 0.25, 0.25, 0.25]), ValueError, "density matrix contains NaN or Inf entries"),
        (np.diag([0.25, 0.25, 0.25, complex(0.25, np.inf)]), ValueError,
         "density matrix contains NaN or Inf entries"),
        (np.full((4, 4), -np.inf), ValueError, "density matrix contains NaN or Inf entries"),
    ], ids=["3x4", "ragged", "too-deep", "array-rows", "scalar", "string", "none", "non-numeric",
            "huge-int", "huge-int-then-none", "nan-then-string",
            "ragged-non-numeric", "nan", "inf-imag", "inf"])
    def test_input_errors(self, rho, error, message):
        for check in self.CHECKS:
            with pytest.raises(error) as info:
                check(rho)
            assert type(info.value) is error and str(info.value) == message


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

    def test_density_of_finite_at_top_of_range(self):
        c = np.array([[1.7e308, -1.7e308, 1.7e308]] * 3)
        rho = density_of(BlochMatrix(np.full(3, -1.7e308), np.full(3, 1.7e308), c))
        assert np.isfinite(rho).all()

    def test_density_of_matches_sum_then_scale(self):
        # Scaling by 0.25 before the Pauli sum is exact in the normal range.
        rng = np.random.default_rng(3)
        for _ in range(200):
            u, v, c = (10.0 ** rng.uniform(-300, 300, size=n) * rng.choice([-1, 1], size=n)
                       for n in (3, 3, (3, 3)))
            b = np.block([[np.ones((1, 1)), v[None, :]], [u[:, None], c]])
            old = 0.25 * np.einsum("ab,abij->ij", b, PAULI_KRON)
            new = density_of(BlochMatrix(u, v, c))
            assert hexes(new) == hexes(old.tolist())

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for k in range(500):
            cls = list(StateClass)[k % 4]
            rho = random_state(cls, rng, positive=(k % 2 == 0))
            b = bloch_of(rho)
            assert norm_inf(density_of(b) - rho) <= 1e-12 * max(1.0, norm_inf(rho))


class TestEinsumOracle:
    """The closed forms of states match one einsum over the Pauli basis in
    float.hex: every Bloch field, correlation, density entry and class."""

    @staticmethod
    def _states(n=1600):
        """Bloch data of general, lmm and sym states, some with exact (and
        negative) zero fields, scaled by 2^k, k in [-500, 500]; and the
        density matrix, every other one perturbed off the diagonal within the
        Hermitian tolerance so that the summation order shows."""
        rng = np.random.default_rng(41)
        for t in range(n):
            u, v = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
            c = rng.uniform(-1, 1, (3, 3))
            kind = t % 4
            if kind == 1:
                u, v = np.zeros(3), np.zeros(3)
            elif kind == 2:
                v, c = u.copy(), 0.5 * (c + c.T)
            elif kind == 3:
                u = np.where(rng.uniform(size=3) < 0.5, -0.0, u)
                c = np.where(rng.uniform(size=(3, 3)) < 0.5, 0.0, c)
            scale = 2.0 ** int(rng.integers(-500, 501))
            u, v, c = u * scale, v * scale, c * scale
            rho = density_oracle(u, v, c)
            if t % 2:
                noise = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                rho = rho + 1e-14 * max(1.0, scale) * (noise - np.diag(np.diag(noise)))
            yield t, (u, v, c), rho

    def test_fields_correlations_and_class(self):
        for t, (u, v, c), rho in self._states():
            assert (hexes(density_of(BlochMatrix(u, v, c)))
                    == hexes(density_oracle(u, v, c).tolist()))
            table = table_oracle(rho)
            assert hexes(bloch_of(rho)) == hexes(
                [x.tolist() for x in (table[1:, 0], table[0, 1:], table[1:, 1:])])
            assert classify(rho) is class_oracle(table)
            if t % 10 == 0:
                got = [correlation(rho, i, j) for i in range(4) for j in range(4)]
                assert hex_list(got) == hex_list(table.tolist())

    def test_zero_fields_are_positive_zero(self):
        b = bloch_of(density_oracle(np.full(3, -0.0), np.full(3, -0.0), np.full((3, 3), -0.0)))
        assert hex_list(b) == ["0x0.0p+0"] * 15

    @pytest.mark.parametrize("diag, entries", [
        ((1.7e308, 1.7e308, -1.7e308, -1.7e308), {}),
        ((0.25,) * 4, {(0, 1): 1.7e308 + 1.7e308j, (1, 0): 1.7e308 - 1.7e308j}),
    ], ids=["trace-0", "hermitian-complex"])
    def test_coordinate_beyond_double_range_not_representable(self, diag, entries):
        # Valid states whose u_z = 6.8e308, resp. v_x = 3.4e308, is not a
        # double: a typed error, never an infinite coordinate.
        rho = np.diag(np.array(diag, dtype=complex))
        for (i, j), z in entries.items():
            rho[i, j] = z
        validate_density(rho)
        for call in (bloch_of, classify, lambda x: correlation(x, 0, 0)):
            with pytest.raises(NotRepresentable):
                call(rho)


class TestPositivityOracle:
    """is_positive agrees with eigvalsh(rho)[0] >= -POSITIVITY_TOL."""

    @staticmethod
    def _states(n=2400):
        """Pure, rank-2, Ginibre and indefinite states, and spectra whose
        smallest eigenvalue sits 1e-12 to either side of -POSITIVITY_TOL."""
        rng = np.random.default_rng(43)
        for t in range(n):
            q, r = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            q = q * (np.diag(r) / np.abs(np.diag(r)))
            kind = t % 5
            if kind == 0:
                lam = np.array([0.0, 0.0, 0.0, 1.0])
            elif kind == 1:
                p = rng.uniform()
                lam = np.array([0.0, 0.0, p, 1.0 - p])
            elif kind == 2:
                yield random_state(StateClass.GENERAL, rng, positive=True)
                continue
            elif kind == 3:
                yield random_state(list(StateClass)[t % 4], rng)
                continue
            else:
                low = -POSITIVITY_TOL + rng.choice([-1e-12, 1e-12])
                lam = np.array([low, *rng.uniform(0.1, 0.5, 2), 0.0])
                lam[3] = 1.0 - lam[:3].sum()
            yield (q * lam) @ q.conj().T

    def test_agrees_with_eigvalsh(self):
        for rho in self._states():
            assert is_positive(rho) == (np.linalg.eigvalsh(rho)[0] >= -POSITIVITY_TOL)

    def test_boundary_band_has_both_outcomes(self):
        outcomes = {is_positive(rho) for t, rho in enumerate(self._states(200)) if t % 5 == 4}
        assert outcomes == {True, False}


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
            assert norm_inf(np.subtract(bloch_vector(partial_trace(rho, 1)), b.u)) <= 1e-12
            assert norm_inf(np.subtract(bloch_vector(partial_trace(rho, 2)), b.v)) <= 1e-12

    def test_third_factor_raises(self):
        with pytest.raises(ValueError, match="which must be 1 or 2"):
            partial_trace(MAX_MIXED, 3)

    def test_entry_beyond_range_raises(self):
        # A state validate_density accepts whose reduced state of qubit 1
        # overflowed to [[inf, 0j], [0j, -inf]]; that of qubit 2 is finite.
        rho = np.diag([1.7e308, 1.7e308, -1.7e308, 1.0 - 1.7e308])
        validate_density(rho)
        with pytest.raises(NotRepresentable, match="^partial_trace: an entry is not a finite double$"):
            partial_trace(rho, 1)
        assert partial_trace(rho, 2) == [[0j, 0j], [0j, 0j]]


class TestNumpyOracles:
    """partial_trace, bloch_vector and bell_projector on Python complex
    numbers against the numpy forms they replace, in float.hex."""

    @staticmethod
    def _states(n=300):
        rng = np.random.default_rng(41)
        for t in range(n):
            yield random_state(list(StateClass)[t % 4], rng, positive=(t % 2 == 0))

    def test_partial_trace(self):
        for rho in self._states():
            blocks = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
            for which, (axis1, axis2) in ((1, (1, 3)), (2, (0, 2))):
                expected = np.trace(blocks, axis1=axis1, axis2=axis2)
                assert hexes(partial_trace(rho, which)) == hexes(expected.tolist())

    def test_bloch_vector(self):
        # + 0.0 ignores the sign of zero, which the matrix product may flip.
        rng = np.random.default_rng(42)
        general = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                   for _ in range(100))
        reduced = (partial_trace(rho, which) for rho in self._states() for which in (1, 2))
        for rho2 in (*reduced, *general):
            expected = [np.trace(np.asarray(rho2, dtype=complex) @ np.array(PAULI[i])).real
                        for i in (1, 2, 3)]
            assert ([(x + 0.0).hex() for x in bloch_vector(rho2)]
                    == [(float(x) + 0.0).hex() for x in expected])

    @pytest.mark.parametrize("rho2, error, message", [
        ([[1.7e308, 1.7e308], [1.7e308, -1.7e308]], NotRepresentable,
         ": a coordinate is not a finite double$"),
        ([[np.nan, "x"], [0.0]], ValueError, r" input must have shape \(2, 2\), got \(2, ragged\)$"),
        ([[np.nan, "x"], [0.0, 0.0]], ValueError, " input must have complex number entries"),
        ([[np.nan, 10**400], [0.0, 0.0]], ValueError, " input contains NaN or Inf entries$"),
    ], ids=["overflow", "ragged", "refused", "nan"])
    def test_bloch_vector_checks_its_argument(self, rho2, error, message):
        # In _rows3's order: the shape, an entry complex() refuses, NaN or Inf.
        with pytest.raises(error, match=f"^bloch_vector{message}"):
            bloch_vector(rho2)

    def test_bell_projector(self):
        for name, ket in BELL_KETS.items():
            ket = np.array(ket, dtype=complex)
            assert hexes(bell_projector(name)) == hexes(np.outer(ket, ket.conj()).tolist())


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
            assert (norm_inf(SWAP_NP @ rho @ SWAP_NP - rho) <= 1e-9) == sym

    def test_idempotent_with_construction(self):
        rng = np.random.default_rng(4)
        for k in range(400):
            cls = list(StateClass)[k % 4]
            assert classify(density_of(random_bloch(cls, rng))) is cls

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1.0])
    def test_tolerance_must_be_finite_and_non_negative(self, tol):
        # An infinite tol made every state SYMMETRIC_LMM, a NaN or negative
        # one every state GENERAL.
        with pytest.raises(ValueError, match="finite and non-negative"):
            classify(MAX_MIXED, tol=tol)

    def test_zero_tolerance_classifies_exact_coordinates(self):
        assert classify(MAX_MIXED, tol=0.0) is StateClass.SYMMETRIC_LMM
        assert classify(density_of(random_bloch("lmm", 5)), tol=0.0) is StateClass.LMM


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
            assert norm_inf(np.subtract(b.u, b.v)) == 0.0
            assert norm_inf(np.subtract(b.C, np.transpose(b.C))) == 0.0
            b = random_bloch(StateClass.SYMMETRIC_LMM, rng)
            assert norm_inf(b.u) == 0.0 and norm_inf(np.subtract(b.C, np.transpose(b.C))) == 0.0

    def test_fields_are_lists_of_floats(self):
        # random_bloch and act_bloch fill the record as bloch_of does, with
        # the bits of the arrays they compute.
        rng = np.random.default_rng(8)
        r1, r2 = (np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2))
        for cls in StateClass:
            b = random_bloch(cls, 9)
            moved = act_bloch(r1, r2, b)
            for rec in (b, moved):
                assert type(rec.u) is list and type(rec.v) is list and type(rec.C) is list
                assert all(type(row) is list and len(row) == 3 for row in rec.C)
                assert all(type(x) is float for x in [*rec.u, *rec.v, *sum(rec.C, [])])
            u, v, c = (np.asarray(x) for x in (b.u, b.v, b.C))
            assert hexes(moved) == hexes([x.tolist() for x in (r1 @ u, r2 @ v, r1 @ c @ r2.T)])

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


def digest_inputs():
    """The density inputs of the output digest: seeded states of every
    class (arrays and their lists), I/4 + 2^k H over the double range,
    signed zeros, tuple and numeric-string input, and one input for each
    error."""
    inputs = []
    for cls in StateClass:
        for seed in range(6):
            for positive in (False, True):
                rho = random_state(cls, seed, positive=positive)
                inputs += [rho, rho.tolist()]
                inputs.append(0.25 * np.eye(4) + 2.0 ** (4 * seed - 10) * (rho - 0.25 * np.eye(4)))
    inputs += [edge_state(k) for k in range(-1074, 1024, 3)]
    bell = bell_projector("psi-")
    signed = [row[:] for row in bell]
    signed[0][1] = complex(-0.0, 0.0)
    signed[3][2] = complex(0.0, -0.0)
    signed[2][2] = complex(-0.0, -0.0)
    inputs += [bell, signed, [[complex(-0.0, -0.0)] * 4] * 4,
               [[z.conjugate() for z in row] for row in MAX_MIXED.tolist()],
               tuple(tuple(row) for row in random_state(StateClass.SYMMETRIC, 7).tolist()),
               [["0.25", "0", "0", "0.1+0.2j"], ["0", "0.25", "0", "0"],
                ["0", "0", "0.25", "-0"], ["0.1-0.2j", "0", "0", "0.25"]]]
    top = [[1.7e308, 0, 0, 0], [0, 1.7e308, 0, 0], [0, 0, -1.7e308, 0], [0, 0, 0, -1.7e308]]
    inputs += [top, [[x * 2.0**-1074 for x in row] for row in top],
               [[0.25, 0.5, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]],
               [[0.25, 0, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.5]],
               np.diag([np.nan, 0.25, 0.25, 0.25]), np.full((4, 4), np.inf),
               [[10**400, 0, 0, 0], [0] * 4, [0] * 4, [0] * 4], [["x"] * 4] * 4,
               np.zeros((3, 4)), 0.25]
    return inputs


DIGEST_CALLS = (
    ("validate_density", validate_density), ("bloch_of", bloch_of), ("classify", classify),
    ("classify-0", lambda rho: classify(rho, 0.0)), ("is_positive", is_positive),
    ("correlation-12", lambda rho: correlation(rho, 1, 2)),
    ("correlation-30", lambda rho: correlation(rho, 3, 0)),
    ("partial_trace-1", lambda rho: partial_trace(rho, 1)),
    ("partial_trace-2", lambda rho: partial_trace(rho, 2)),
)


def states_lines(before_call=None):
    """The lines of the states pin: the outcome of every DIGEST_CALLS
    function on every digest input, its float.hex result or the type and
    message of its error. before_call, if given, runs before each recorded
    call."""
    lines = []
    for i, rho in enumerate(digest_inputs()):
        for name, call in DIGEST_CALLS:
            if before_call is not None:
                before_call(call, rho)
            try:
                result = hexes(call(rho))
            except (ValueError, BlochInvError) as exc:
                result = f"{type(exc).__name__}: {exc}"
            lines.append((f"input {i} {name}", f"{name} {result}"))
    return lines


def test_walker_keeps_types_apart():
    # A result that changes type changes its line of the states pin.
    same = (1.0, 1, True, np.bool_(True), np.float64(1.0), None, [1.0], (1.0,), np.array([1.0]))
    texts = {str(hexes(x)) for x in same}
    assert len(texts) == len(same), texts


def cold_density():
    """Empty the density memo."""
    states._density_body.cache_clear()


class TestDensityMemo:
    """The tests and the table of each density matrix sit behind a memo of
    its last linalg._MEMO_SIZE distinct inputs, keyed on the bytes of the
    32 doubles of its entries. No output bit, error or result depends on
    what the memo holds."""

    def test_bound(self):
        assert states._density_body.cache_info().maxsize == linalg._MEMO_SIZE <= 16

    def test_sign_of_zero_is_part_of_the_key(self):
        rho = bell_projector("psi-")
        signed = [row[:] for row in rho]
        signed[0][1] = complex(-0.0, -0.0)
        cold_density()
        for _ in range(2):
            plus, minus = validate_density(rho)[0][1], validate_density(signed)[0][1]
            assert (math.copysign(1.0, plus.real), math.copysign(1.0, plus.imag)) == (1.0, 1.0)
            assert (math.copysign(1.0, minus.real), math.copysign(1.0, minus.imag)) == (-1.0, -1.0)
        info = states._density_body.cache_info()
        assert (info.misses, info.hits) == (2, 2)

    def test_array_list_and_tuple_share_an_entry(self):
        rho = random_state(StateClass.GENERAL, 3)
        cold_density()
        expected = hexes(bloch_of(rho))
        for same in (rho.tolist(), tuple(tuple(row) for row in rho.tolist()), rho):
            assert hexes(bloch_of(same)) == expected
        info = states._density_body.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    def test_classify_after_bloch_of_reads_the_table_once(self):
        rho = random_state(StateClass.LMM, 4, positive=True)
        cold_density()
        bloch_of(rho)
        classify(rho)
        info = states._density_body.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("rho, error", [
        (np.diag([np.nan, 0.25, 0.25, 0.25]), ValueError),
        (np.full((4, 4), np.inf), ValueError),
        ([[0.25, 0.5, 0, 0], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]],
         NonHermitianInput),
        (np.diag([0.25, 0.25, 0.25, 0.5]), StateFormatError),
    ], ids=["nan", "inf", "non-hermitian", "trace"])
    def test_errors_are_raised_again_and_never_stored(self, rho, error):
        cold_density()
        messages = set()
        for check in TestDensityCheckEdges.CHECKS * 2:
            with pytest.raises(error) as info:
                check(rho)
            messages.add(str(info.value))
        assert len(messages) == 1
        info = states._density_body.cache_info()
        assert (info.misses, info.hits, info.currsize) == (
            2 * len(TestDensityCheckEdges.CHECKS), 0, 0)

    def test_input_errors_never_reach_the_body(self):
        cold_density()
        for rho in (np.zeros((3, 4)), [["x"] * 4] * 4, [[10**400, 0, 0, 0], *[[0] * 4] * 3]):
            with pytest.raises((ValueError, StateFormatError)):
                validate_density(rho)
        assert states._density_body.cache_info().misses == 0

    def test_not_representable_on_every_call(self):
        # Trace 1 and a correlation 2 * 1.7e308 beyond the double range;
        # the body's entry is stored and each call tests the table itself.
        rho = [[0.25, 0, 0, 1.7e308], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [1.7e308, 0, 0, 0.25]]
        cold_density()
        for _ in range(2):
            with pytest.raises(NotRepresentable):
                bloch_of(rho)
            assert validate_density(rho)[0][3] == 1.7e308
        info = states._density_body.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    def test_returned_results_are_fresh(self):
        rho = random_state(StateClass.SYMMETRIC, 5)
        cold_density()
        results = (bloch_of(rho), validate_density(rho), states._table(rho),
                   partial_trace(rho, 1))
        expected = [hexes(x) for x in results]
        b, rows, table, reduced = results
        b.u[0] = b.v[2] = b.C[1][2] = 7.0
        rows[0][0] = rows[3][1] = 7j
        table[0][0] = table[2][3] = 7.0
        reduced[1][1] = 7j
        again = (bloch_of(rho), validate_density(rho), states._table(rho),
                 partial_trace(rho, 1))
        assert [hexes(x) for x in again] == expected
        assert states._density_body.cache_info().misses == 1

    def test_evicts_beyond_the_bound(self):
        # Distinct diagonals, so no two share an entry.
        mats = [np.diag([0.25 + i / 256.0, 0.25, 0.25, 0.25 - i / 256.0])
                for i in range(linalg._MEMO_SIZE + 1)]
        cold_density()
        expected = [hexes(bloch_of(m)) for m in mats]
        info = states._density_body.cache_info()
        assert (info.misses, info.currsize) == (len(mats), linalg._MEMO_SIZE)
        # The last _MEMO_SIZE inputs are held; the first was evicted.
        for m, bits in reversed(list(zip(mats, expected))):
            assert hexes(bloch_of(m)) == bits
        info = states._density_body.cache_info()
        assert (info.hits, info.misses) == (linalg._MEMO_SIZE, len(mats) + 1)

    @pytest.mark.parametrize("memo", ["cold", "warm"])
    def test_digest(self, memo):
        hits = states._density_body.cache_info().hits

        def cold(call, rho):
            cold_density()

        def warm(call, rho):
            try:
                call(rho)
            except (ValueError, BlochInvError):
                pass

        check("states", states_lines(cold if memo == "cold" else warm))
        assert (states._density_body.cache_info().hits > hits) == (memo == "warm")
