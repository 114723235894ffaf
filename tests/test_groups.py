"""Tests for the covering map, finite groups, and group actions."""

import math

import numpy as np
import pytest

import blochinv.groups
from blochinv.errors import NotRepresentable, NotUnitary
from blochinv.groups import (
    SignedPerm,
    act_bloch,
    act_density,
    haar_so3,
    haar_su2,
    lmm_normalizer_pairs,
    lmm_weyl_action_group,
    lmm_weyl_pair,
    octahedral_group,
    random_bloch,
    signed_permutations,
    so3_of_u2,
)
from blochinv.linalg import rotation_residual
from blochinv.states import PAULI, BlochMatrix, StateClass, bloch_of, density_of
from blochinv.verify import norm_inf
from pins import hexes


class TestCoveringMap:
    def test_identity(self):
        np.testing.assert_allclose(so3_of_u2(np.eye(2)), np.eye(3), atol=1e-15)

    def test_axis3_rotation(self):
        theta = np.pi / 2
        u = np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(so3_of_u2(u), expected, atol=1e-14)

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            so3_of_u2(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_unitary_precondition(self):
        so3_of_u2(np.eye(2))
        so3_of_u2(np.array([[0, 1], [1, 0]], dtype=complex))
        with pytest.raises(NotUnitary):
            so3_of_u2(2.0 * np.eye(2))

    def test_unitary_tolerance_is_absolute(self):
        # |c^2 - 1| ~ 2 (c - 1) against UNITARY_TOL = 1e-12.
        so3_of_u2((1.0 + 0.4e-12) * np.eye(2))
        with pytest.raises(NotUnitary):
            so3_of_u2((1.0 + 0.6e-12) * np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_non_finite_raises(self, bad, entry):
        # RuntimeWarning is an error under the test configuration, so a
        # numpy warning on the way would fail this test too.
        u = np.eye(2, dtype=complex)
        u[entry] = bad
        with pytest.raises(NotUnitary):
            so3_of_u2(u)

    def test_rejects_3x3(self):
        with pytest.raises(NotUnitary):
            so3_of_u2(np.eye(3))

    @pytest.mark.parametrize("u", [[[1, 0], [0]], [[1, 0], [0, "a"]]], ids=["ragged", "string"])
    def test_rejects_ragged_and_non_number_input(self, u):
        # numpy's conversion raises its own ValueError on these.
        with pytest.raises(NotUnitary):
            so3_of_u2(u)

    def test_homomorphism_and_phase(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            u, w = haar_su2(rng), haar_su2(rng)
            ru, rw = so3_of_u2(u), so3_of_u2(w)
            assert norm_inf(so3_of_u2(u @ w) - ru @ rw) < 1e-10
            assert rotation_residual(ru) < 1e-11
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert norm_inf(so3_of_u2(phase * u) - ru) < 1e-11


def trace_formula(u):
    """R_ij = Re tr(sigma_i U sigma_j U*) / 2 written out with einsum."""
    u = np.asarray(u, dtype=complex)
    sig = np.array(PAULI[1:])
    return 0.5 * np.einsum("iab,bc,jcd,da->ij", sig, u, sig, u.conj().T).real


class TestCoveringMapOracle:
    def test_haar_draws(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(2000):
            u = np.exp(1j * rng.uniform(0, 2 * np.pi)) * haar_su2(rng)
            worst = max(worst, norm_inf(so3_of_u2(u) - trace_formula(u)))
        assert worst <= 1e-15

    @pytest.mark.parametrize("u, perm", [
        (PAULI[1], [[1, 0, 0], [0, -1, 0], [0, 0, -1]]),
        (PAULI[2], [[-1, 0, 0], [0, 1, 0], [0, 0, -1]]),
        (PAULI[3], [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]),
        (np.diag([1, 1j]), [[0, -1, 0], [1, 0, 0], [0, 0, 1]]),
        (np.array([[1, 1], [1, -1]]) / np.sqrt(2), [[0, 0, 1], [0, -1, 0], [1, 0, 0]]),
    ], ids=["sigma_x", "sigma_y", "sigma_z", "phase_gate", "hadamard"])
    def test_signed_permutation_points(self, u, perm):
        r = so3_of_u2(u)
        assert norm_inf(r - trace_formula(u)) <= 1e-15
        assert norm_inf(r - np.array(perm)) <= 1e-15


class TestActions:
    def test_identity_pair(self):
        rng = np.random.default_rng(1)
        b = random_bloch(StateClass.GENERAL, rng)
        rho = density_of(b)
        np.testing.assert_array_equal(act_density(np.eye(2), np.eye(2), rho), rho)
        out = act_bloch(np.eye(3), np.eye(3), b)
        np.testing.assert_array_equal(out.C, b.C)

    def test_center_is_fixed(self):
        rng = np.random.default_rng(2)
        rho = 0.25 * np.eye(4, dtype=complex)
        out = act_density(haar_su2(rng), haar_su2(rng), rho)
        np.testing.assert_allclose(out, rho, atol=1e-15)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            rho = density_of(random_bloch(StateClass.GENERAL, rng))
            out = act_density(haar_su2(rng), haar_su2(rng), rho)
            np.testing.assert_allclose(
                np.linalg.eigvalsh(out), np.linalg.eigvalsh(rho), atol=1e-12
            )

    def test_diagonal_action_preserves_symmetry(self):
        rng = np.random.default_rng(4)
        b = random_bloch(StateClass.SYMMETRIC, rng)
        r = haar_so3(rng)
        out = act_bloch(r, r, b)
        assert norm_inf(np.subtract(out.C, np.transpose(out.C))) < 1e-13
        assert norm_inf(np.subtract(out.u, out.v)) < 1e-13

    @pytest.mark.parametrize("field", ["u", "v", "C"])
    @pytest.mark.parametrize("bad", [np.nan, 1.7e308], ids=["nan", "overflow"])
    def test_act_bloch_refuses_a_non_finite_field(self, field, bad):
        # An eighth of a turn about z sums two terms of 1.7e308 / sqrt(2).
        s = math.sqrt(0.5)
        r = [[s, -s, 0.0], [s, s, 0.0], [0.0, 0.0, 1.0]]
        fields = {"u": [0.1, 0.2, 0.3], "v": [0.1, 0.2, 0.3], "C": np.eye(3).tolist()}
        fields[field] = np.full(np.shape(fields[field]), bad).tolist()
        with pytest.raises(NotRepresentable, match="^act_bloch: "):
            act_bloch(r, r, BlochMatrix(**fields))

    def test_equivariance(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            u1, u2 = haar_su2(rng), haar_su2(rng)
            b = random_bloch(StateClass.GENERAL, rng)
            lhs = bloch_of(act_density(u1, u2, density_of(b)))
            rhs = act_bloch(so3_of_u2(u1), so3_of_u2(u2), b)
            assert norm_inf(np.subtract(lhs.C, rhs.C)) < 1e-10
            assert norm_inf(np.subtract(lhs.u, rhs.u)) < 1e-10
            assert norm_inf(np.subtract(lhs.v, rhs.v)) < 1e-10


class TestFiniteGroups:
    def test_pool_of_48(self):
        pool = signed_permutations()
        assert len(pool) == 48
        assert len({(g.perm, g.signs) for g in pool}) == 48

    def test_octahedral_group(self):
        group = octahedral_group()
        keys = {(g.perm, g.signs) for g in group}
        assert len(group) == 24
        assert ((0, 1, 2), (1, 1, 1)) in keys
        assert all(g.determinant() == 1 for g in group)
        for g in group:
            assert round(np.linalg.det(g.matrix())) == 1
            for h in group:
                gh = g.compose(h)
                assert (gh.perm, gh.signs) in keys
                np.testing.assert_array_equal(gh.matrix(), g.matrix() @ h.matrix())

    def test_octahedral_is_diagonal_stabilizer_in_pool(self):
        # The enumeration is exactly the determinant +1 slice of the
        # 48-element pool, and every member fixes the set of diagonal
        # matrices under conjugation, in exact integer arithmetic.
        keys = {(g.perm, g.signs) for g in octahedral_group()}
        pool_keys = {(g.perm, g.signs) for g in signed_permutations()
                     if g.determinant() == 1}
        assert keys == pool_keys
        d = np.diag([2, -3, 5])
        for g in octahedral_group():
            m = g.matrix()
            conj = m @ d @ m.T
            np.testing.assert_array_equal(conj, np.diag(np.diag(conj)))

    def test_weyl_action_group(self):
        group = lmm_weyl_action_group()
        keys = {(g.perm, g.signs) for g in group}
        assert len(group) == 24
        assert all(g.sign_product() == 1 for g in group)
        assert ((0, 1, 2), (-1, -1, -1)) not in keys
        for g in group:
            for h in group:
                gh = g.compose(h)
                assert (gh.perm, gh.signs) in keys

    def test_groups_differ(self):
        oct_keys = {(g.perm, g.signs) for g in octahedral_group()}
        weyl_keys = {(g.perm, g.signs) for g in lmm_weyl_action_group()}
        assert oct_keys != weyl_keys
        assert len(oct_keys & weyl_keys) == 12

    def test_weyl_pair_realization_exact(self):
        rng = np.random.default_rng(6)
        for g in lmm_weyl_action_group():
            r1, r2 = lmm_weyl_pair(g)
            assert round(np.linalg.det(r1)) == 1
            assert round(np.linalg.det(r2)) == 1
            for _ in range(5):
                c = rng.uniform(-1, 1, size=3)
                img = r1 @ np.diag(c) @ r2.T
                np.testing.assert_array_equal(img, np.diag(g.apply(c)))

    def test_normalizer_pairs_induce_full_weyl_action(self):
        pairs = lmm_normalizer_pairs(octahedral_group())
        assert len(pairs) == 96
        weyl = lmm_weyl_action_group()
        weyl_keys = {(g.perm, g.signs) for g in weyl}
        probe = np.array([0.3, -0.7, 1.1])
        assignments = []
        for r1, r2 in pairs:
            assert round(np.linalg.det(r1)) == 1
            assert round(np.linalg.det(r2)) == 1
            img = r1 @ np.diag(probe) @ r2.T
            assert norm_inf(img - np.diag(np.diag(img))) == 0.0
            hits = [g for g in weyl if norm_inf(np.diag(img) - g.apply(probe)) == 0.0]
            assert len(hits) == 1
            assignments.append((r1, r2, hits[0]))
        # 96 pairs induce exactly the 24 effective transformations, so the
        # kernel of the action has order 4.
        assert {(g.perm, g.signs) for _, _, g in assignments} == weyl_keys

        # The identification holds on random diagonal matrices, exactly.
        rng = np.random.default_rng(10)
        for _ in range(40):
            c = rng.uniform(-1, 1, size=3)
            for r1, r2, g in assignments:
                img = r1 @ np.diag(c) @ r2.T
                assert norm_inf(img - np.diag(g.apply(c))) == 0.0


class TestHaar:
    def test_su2_properties(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            u = haar_su2(rng)
            assert norm_inf(u.conj().T @ u - np.eye(2)) < 1e-12
            assert abs(np.linalg.det(u) - 1.0) < 1e-12

    def test_so3_mean_vanishes(self):
        # First moment of Haar measure is zero; 3-sigma test at n = 4000.
        rng = np.random.default_rng(8)
        n = 4000
        acc = np.zeros((3, 3))
        for _ in range(n):
            acc += haar_so3(rng)
        assert norm_inf(acc / n) < 3.0 * np.sqrt(1.0 / (3.0 * n))

    def test_so3_is_so3_of_u2_of_su2_bit_for_bit(self):
        # haar_so3 skips the 2x2 array, not a bit of so3_of_u2's result.
        for k in range(1000):
            direct = haar_so3(np.random.default_rng(k))
            cover = so3_of_u2(haar_su2(np.random.default_rng(k)))
            assert hexes(direct.tolist()) == hexes(cover.tolist()), k

    def test_so3_checks_every_draw(self, monkeypatch):
        # A pair off the unit sphere by 1e-9 is not unitary within 1e-12:
        # the unitarity test of so3_of_u2 runs on the direct path too.
        true_pair = blochinv.groups._haar_pair

        def unnormalized(seed):
            a, b = true_pair(seed)
            return (1.0 + 1e-9) * a, (1.0 + 1e-9) * b

        monkeypatch.setattr(blochinv.groups, "_haar_pair", unnormalized)
        for k in range(50):
            with pytest.raises(NotUnitary):
                haar_so3(np.random.default_rng(k))


class TestSignedPermArithmetic:
    def test_compose_matches_generator_form(self):
        # The straight-line product against the indexwise definition.
        pool = signed_permutations()
        for g in pool:
            for h in pool:
                gh = g.compose(h)
                assert gh.perm == tuple(g.perm[h.perm[j]] for j in range(3))
                assert gh.signs == tuple(h.signs[j] * g.signs[h.perm[j]] for j in range(3))

    def test_matrix_and_determinant(self):
        for g in signed_permutations():
            m = np.zeros((3, 3), dtype=int)
            for j in range(3):
                m[g.perm[j], j] = g.signs[j]
            assert g.matrix().dtype == m.dtype
            np.testing.assert_array_equal(g.matrix(), m)
            assert g.determinant() == round(np.linalg.det(m))

    def test_weyl_pair_is_row_scaled_permutation(self):
        # diag(e) @ P, exactly and in the same integer dtype.
        for g in lmm_weyl_action_group():
            pm = SignedPerm(perm=g.perm, signs=(1, 1, 1)).matrix()
            e1 = np.array([SignedPerm(perm=g.perm, signs=(1, 1, 1)).determinant(), 1, 1])
            e2 = g.apply(np.ones(3, dtype=int)) * e1
            for got, want in zip(lmm_weyl_pair(g), (np.diag(e1) @ pm, np.diag(e2) @ pm)):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)

    def test_weyl_pair_of_odd_sign_pattern_raises(self):
        odd = [g for g in signed_permutations() if g.sign_product() == -1]
        assert len(odd) == 24
        for g in odd:
            with pytest.raises(ValueError, match="only even sign patterns"):
                lmm_weyl_pair(g)
