"""Tests for canonical forms and the equivalence decision procedure."""

import sys

import numpy as np
import pytest

from blochinv import linalg
from blochinv.errors import DegenerateSpectrum, NotSymmetric, ZeroVector
from blochinv.groups import haar_so3, lmm_weyl_action_group, lmm_weyl_pair
from blochinv.invariants import sym_invariants
from blochinv.linalg import norm_inf, rotation_residual
from blochinv.orbits import (
    Verdict,
    decide_equiv_lmm,
    decide_equiv_sym,
    lmm_canonical,
    rel_dist,
    sym_canonical,
)


def gapped_descending(rng, low, high, gap):
    while True:
        vals = np.sort(rng.uniform(low, high, size=3))[::-1]
        if vals[0] - vals[1] > gap and vals[1] - vals[2] > gap:
            return vals


class TestLmmCanonical:
    def test_sign_reorder(self):
        form = lmm_canonical(np.diag([1.0, -1.0, 1.0]))
        np.testing.assert_allclose(form.diag, [1.0, 1.0, -1.0], atol=1e-14)
        assert form.degenerate  # all singular values coincide
        r1, r2 = form.witness
        target = r1 @ np.diag([1.0, -1.0, 1.0]) @ r2.T
        np.testing.assert_allclose(target, np.diag(form.diag), atol=1e-13)

    def test_zero(self):
        form = lmm_canonical(np.zeros((3, 3)))
        np.testing.assert_array_equal(form.diag, np.zeros(3))
        assert form.degenerate

    def test_synthetic_orbit(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            d = np.diag([3.0, 2.0, 1.0])
            c = haar_so3(rng) @ d @ haar_so3(rng).T
            form = lmm_canonical(c)
            np.testing.assert_allclose(form.diag, [3.0, 2.0, 1.0], atol=1e-9)
            assert not form.degenerate
            r1, r2 = form.witness
            assert norm_inf(r1 @ c @ r2.T - np.diag(form.diag)) < 1e-9

    def test_fixed_point(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            d = gapped_descending(rng, 0.2, 2.0, 1e-2)
            if rng.uniform() < 0.5:
                d = d.copy()
                d[2] = -d[2]
            form = lmm_canonical(np.diag(d))
            assert norm_inf(form.diag - d) < 1e-10

    def test_weyl_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            c = rng.uniform(-1, 1, size=(3, 3))
            base = lmm_canonical(c).diag
            for g in lmm_weyl_action_group():
                r1, r2 = lmm_weyl_pair(g)
                moved = lmm_canonical(r1 @ c @ r2.T).diag
                assert norm_inf(moved - base) < 1e-10


class TestSymCanonical:
    def test_even_flip_example(self):
        form = sym_canonical(np.array([-1.0, -2.0, 3.0]), np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_array_equal(form.w, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(form.eigs, [3.0, 2.0, 1.0])
        assert norm_inf(form.witness @ np.diag([3.0, 2.0, 1.0]) @ form.witness.T
                        - np.diag(form.eigs)) < 1e-13

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateSpectrum):
            sym_canonical(np.ones(3), np.eye(3))

    def test_orbit_property(self):
        rng = np.random.default_rng(3)
        v = np.array([0.7, -0.2, 1.3])
        a = np.diag([1.5, 0.3, -0.9])
        ref = sym_canonical(v, a)
        for _ in range(200):
            r = haar_so3(rng)
            form = sym_canonical(r @ v, r @ a @ r.T)
            assert norm_inf(form.w - ref.w) < 1e-8
            assert norm_inf(form.eigs - ref.eigs) < 1e-8

    def test_witness_lands_on_slice(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            lam = gapped_descending(rng, -2.0, 2.0, 1e-2)
            q = haar_so3(rng)
            a = q.T @ np.diag(lam) @ q
            v = rng.uniform(-1, 1, size=3)
            form = sym_canonical(v, a)
            assert norm_inf(form.witness @ a @ form.witness.T - np.diag(form.eigs)) < 1e-10
            assert norm_inf(form.witness @ v - form.w) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            lam = gapped_descending(rng, -2.0, 2.0, 1e-2)
            v = rng.uniform(-1, 1, size=3)
            form = sym_canonical(v, np.diag(lam))
            again = sym_canonical(form.w, np.diag(form.eigs))
            np.testing.assert_array_equal(again.w, form.w)
            np.testing.assert_array_equal(again.eigs, form.eigs)


class TestDecideLmm:
    def test_synthetic_equivalent(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            d = np.diag(gapped_descending(rng, 0.1, 2.0, 1e-2))
            ca = haar_so3(rng) @ d @ haar_so3(rng).T
            cb = haar_so3(rng) @ d @ haar_so3(rng).T
            verdict = decide_equiv_lmm(ca, cb)
            assert verdict.verdict is Verdict.EQUIVALENT
            r1, r2 = verdict.witness
            assert norm_inf(r1 @ ca @ r2.T - cb) < 1e-8

    @pytest.mark.parametrize("d3", [5e-8, -5e-8])
    def test_graded_same_orbit(self, d3):
        # Singular values 1e-7 and 5e-8 sit far above roundoff but below
        # sqrt(eps); both are still resolved well enough to certify.
        rng = np.random.default_rng(15)
        d = np.diag([1.0, 1e-7, d3])
        for _ in range(150):
            ca = haar_so3(rng) @ d @ haar_so3(rng).T
            cb = haar_so3(rng) @ d @ haar_so3(rng).T
            assert decide_equiv_lmm(ca, cb).verdict is Verdict.EQUIVALENT

    def test_determinant_sign_separates(self):
        verdict = decide_equiv_lmm(np.diag([1.0, 2.0, 3.0]), np.diag([1.0, 2.0, -3.0]))
        assert verdict.verdict is Verdict.NOT_EQUIVALENT
        assert verdict.invariant_distance > 1.0

    def test_zero_is_equivalent(self):
        # All singular values tie at 0: the witness is any rotation pair,
        # and its residual still certifies the verdict.
        verdict = decide_equiv_lmm(np.zeros((3, 3)), np.zeros((3, 3)))
        assert verdict.verdict is Verdict.EQUIVALENT
        assert verdict.invariant_distance == 0.0
        r1, r2 = verdict.witness
        assert norm_inf(r1 @ np.zeros((3, 3)) @ r2.T) == 0.0
        assert rotation_residual(r1) <= 1e-11 and rotation_residual(r2) <= 1e-11

    @pytest.mark.parametrize("d", [
        (-1.0, -1.0, -1.0), (1.0, 1.0, -1.0), (0.5, 0.5, 0.2), (0.5, 0.2, 0.2),
        (0.3, 0.3, 0.3), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.4, 0.4, 0.0),
    ])
    def test_tied_singular_values_equivalent(self, d):
        rng = np.random.default_rng(16)
        for _ in range(50):
            ca = haar_so3(rng) @ np.diag(d) @ haar_so3(rng).T
            cb = haar_so3(rng) @ np.diag(d) @ haar_so3(rng).T
            verdict = decide_equiv_lmm(ca, cb)
            assert verdict.verdict is Verdict.EQUIVALENT
            r1, r2 = verdict.witness
            assert norm_inf(r1 @ ca @ r2.T - cb) <= 1e-7 * max(1.0, norm_inf(cb))

    def test_canonical_distance_rejects(self):
        # The invariants agree to 5.2e-9 <= tol, so only the distance between
        # the canonical diagonals, 3e-5, tells the two orbits apart.
        verdict = decide_equiv_lmm(np.diag([1.0 + 3e-5, 1.0 - 3e-5, 0.5]),
                                   np.diag([1.0, 1.0, 0.5]))
        assert verdict.verdict is Verdict.NOT_EQUIVALENT
        assert verdict.invariant_distance == pytest.approx(3e-5, rel=1e-6)

    def test_independent_states_separate(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            ca = rng.uniform(-1, 1, size=(3, 3))
            cb = rng.uniform(-1, 1, size=(3, 3))
            assert decide_equiv_lmm(ca, cb).verdict is Verdict.NOT_EQUIVALENT


class TestDecideSym:
    def test_synthetic_equivalent(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            lam = gapped_descending(rng, -2.0, 2.0, 1e-2)
            w = rng.uniform(-1, 1, size=3)
            ra, rb = haar_so3(rng), haar_so3(rng)
            sa = (ra.T @ w, ra.T @ np.diag(lam) @ ra)
            sb = (rb.T @ w, rb.T @ np.diag(lam) @ rb)
            verdict = decide_equiv_sym(sa, sb)
            assert verdict.verdict is Verdict.EQUIVALENT
            r = verdict.witness
            assert norm_inf(r @ sa[0] - sb[0]) < 1e-8
            assert norm_inf(r @ sa[1] @ r.T - sb[1]) < 1e-8

    def test_scaling_v_separates(self):
        v = np.array([0.4, -0.8, 1.1])
        a = np.diag([3.0, 2.0, 1.0])
        assert decide_equiv_sym((v, a), (2.0 * v, a)).verdict is Verdict.NOT_EQUIVALENT

    def test_repeated_eigenvalues_indeterminate(self):
        v = np.array([0.2, 0.3, 0.4])
        assert decide_equiv_sym((v, np.eye(3)), (v, np.eye(3))).verdict is Verdict.INDETERMINATE

    def test_independent_states_separate(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            sa = (rng.uniform(-1, 1, 3), np.diag(gapped_descending(rng, -2, 2, 1e-2)))
            sb = (rng.uniform(-1, 1, 3), np.diag(gapped_descending(rng, -2, 2, 1e-2)))
            assert decide_equiv_sym(sa, sb).verdict is Verdict.NOT_EQUIVALENT

    @pytest.mark.parametrize("v", [
        1e-12 * np.ones(3),
        np.nextafter(1e-12, 1.0) * np.ones(3),
        np.array([0.0, -1e-12, 0.0]),
        np.array([0.0, -1.5e-12, 0.0]),
        np.zeros(3),
    ])
    def test_one_zero_vector_predicate(self, v):
        # |v|_inf <= 1e-12 is the zero test of sym_invariants; at 1e-12
        # (1, 1, 1) the Euclidean norm is above it. decide_equiv_sym has no
        # zero test: its witness certifies on both sides of the threshold.
        a = np.diag([3.0, 2.0, 1.0])
        try:
            sym_invariants(v, a)
            zero = False
        except ZeroVector:
            zero = True
        assert zero == bool(np.max(np.abs(v)) <= 1e-12)
        verdict = decide_equiv_sym((v, a), (v, a))
        assert verdict.verdict is Verdict.EQUIVALENT
        r = verdict.witness
        assert max(norm_inf(r @ v - v), norm_inf(r @ a @ r.T - a)) <= 1e-7 * 3.0

    def test_extreme_scale_same_orbit(self):
        rng = np.random.default_rng(24)
        w = rng.uniform(-1, 1, size=3)
        ra, rb = haar_so3(rng), haar_so3(rng)
        lam = 1e60 * np.array([3.0, 2.0, 1.0])
        sa = (ra.T @ w, ra.T @ np.diag(lam) @ ra)
        sb = (rb.T @ w, rb.T @ np.diag(lam) @ rb)
        sa, sb = ((v, 0.5 * (a + a.T)) for v, a in (sa, sb))
        assert decide_equiv_sym(sa, sb).verdict is Verdict.EQUIVALENT

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_vector_raises(self, bad, side):
        good = (np.array([0.2, 0.3, 0.4]), np.diag([3.0, 2.0, 1.0]))
        bad_state = (np.array([0.2, bad, 0.4]), good[1])
        pair = (bad_state, good) if side == 0 else (good, bad_state)
        with pytest.raises(ValueError, match="decide_equiv_sym input contains NaN or Inf"):
            decide_equiv_sym(*pair)

    @pytest.mark.parametrize("other", [(0.7, 0.2, -0.4), (0.9, 0.2, -0.4)])
    def test_asymmetric_matrix_raises(self, other):
        # The upper-triangular A has the trace triple of diag(0.7, 0.2, -0.4),
        # so only the intake check catches it on both sides of the gate.
        a = np.diag([0.7, 0.2, -0.4])
        a[0, 1] = 0.3
        v = np.array([0.2, 0.3, 0.4])
        with pytest.raises(NotSymmetric):
            decide_equiv_sym((v, a), (v, np.diag(other)))

    @pytest.mark.parametrize("w", [(0.0, 0.3, 0.5), (0.0, 0.0, 0.5), (0.3, 0.0, 0.0)])
    def test_axis_aligned_vector_same_orbit(self, w):
        # A zero eigenbasis coordinate leaves the lexicographic sign choice
        # of sym_canonical to roundoff; the decision compares w up to the
        # even sign flips, so every pair still certifies.
        rng = np.random.default_rng(26)
        lam = np.diag([0.7, 0.2, -0.4])
        w = np.array(w)
        tol = 1e-8
        for _ in range(500):
            ra, rb = haar_so3(rng), haar_so3(rng)
            sa = (ra.T @ w, ra.T @ lam @ ra)
            sb = (rb.T @ w, rb.T @ lam @ rb)
            verdict = decide_equiv_sym(sa, sb, tol=tol)
            assert verdict.verdict is Verdict.EQUIVALENT
            r = verdict.witness
            residual = max(norm_inf(r @ sa[0] - sb[0]), norm_inf(r @ sa[1] @ r.T - sb[1]))
            assert residual <= 10.0 * tol * max(1.0, norm_inf(sb[0]), norm_inf(sb[1]))


class TestExtremeScale:
    """Pairs scaled by 2^k for k from -1000 to 1000. Every distance is
    finite. From norm 1 up, same-orbit pairs are EQUIVALENT and
    different-orbit pairs NOT_EQUIVALENT. Below, every tolerance has the
    absolute floor max(1, .), so only the same-orbit half is asserted:
    never NOT_EQUIVALENT."""

    KS = range(-1000, 1001, 50)
    TOL = 1e-8

    def _check(self, k, verdict, same, residual=None, scale=None):
        assert np.isfinite(verdict.invariant_distance)
        if same:
            assert verdict.verdict is not Verdict.NOT_EQUIVALENT
            if k >= 0:
                assert verdict.verdict is Verdict.EQUIVALENT
            if verdict.verdict is Verdict.EQUIVALENT:
                assert residual(verdict.witness) <= 10.0 * self.TOL * scale
        elif k >= 0:
            assert verdict.verdict is Verdict.NOT_EQUIVALENT

    @pytest.mark.parametrize("k", KS)
    def test_lmm(self, k):
        rng = np.random.default_rng(27)
        s = 2.0 ** k
        base = s * np.diag([3.0, 2.0, 1.0])
        c = haar_so3(rng) @ base @ haar_so3(rng).T
        m = haar_so3(rng) @ base @ haar_so3(rng).T
        far = haar_so3(rng) @ (s * np.diag([3.0, 2.0, 0.5])) @ haar_so3(rng).T

        def residual(pair):
            return norm_inf(pair[0] @ c @ pair[1].T - m)

        self._check(k, decide_equiv_lmm(c, m, tol=self.TOL), True, residual,
                    max(1.0, norm_inf(m)))
        self._check(k, decide_equiv_lmm(c, far, tol=self.TOL), False)

    @pytest.mark.parametrize("k", KS)
    def test_sym(self, k):
        rng = np.random.default_rng(28)
        s = 2.0 ** k
        w = s * np.array([0.4, -0.6, 0.3])
        lam = s * np.diag([0.7, 0.2, -0.4])
        ra, rb = haar_so3(rng), haar_so3(rng)
        sa = (ra.T @ w, ra.T @ lam @ ra)
        sb = (rb.T @ w, rb.T @ lam @ rb)

        def residual(r):
            return max(norm_inf(r @ sa[0] - sb[0]), norm_inf(r @ sa[1] @ r.T - sb[1]))

        self._check(k, decide_equiv_sym(sa, sb, tol=self.TOL), True, residual,
                    max(1.0, norm_inf(sb[0]), norm_inf(sb[1])))
        spectrum = (sb[0], rb.T @ (s * np.diag([0.7, 0.2, -0.3])) @ rb)
        vector = (2.0 * sb[0], sb[1])
        for other in (spectrum, vector):
            self._check(k, decide_equiv_sym(sa, other, tol=self.TOL), False)


@pytest.fixture
def eig_sym3_calls(monkeypatch):
    """Count calls of the eigen kernel body, linalg._eig_rows, made through
    every module attribute bound to it: every diagonalization goes through
    eig_sym3 and so through it."""
    original = linalg._eig_rows
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    bound = [(module, attr)
             for name, module in list(sys.modules.items())
             if name == "blochinv" or name.startswith("blochinv.")
             for attr, value in list(vars(module).items()) if value is original]
    assert (linalg, "_eig_rows") in bound
    for module, attr in bound:
        monkeypatch.setattr(module, attr, counted)
    return calls


class TestSingleDiagonalization:
    def _pair(self, seed):
        rng = np.random.default_rng(seed)
        lam = gapped_descending(rng, -2.0, 2.0, 1e-2)
        w = rng.uniform(-1, 1, size=3)
        ra, rb = haar_so3(rng), haar_so3(rng)
        return (ra.T @ w, ra.T @ np.diag(lam) @ ra), (rb.T @ w, rb.T @ np.diag(lam) @ rb)

    def test_one_per_state(self, eig_sym3_calls):
        sa, _ = self._pair(21)
        sym_invariants(*sa)
        assert len(eig_sym3_calls) == 1
        sym_canonical(*sa)
        assert len(eig_sym3_calls) == 2

    def test_two_per_gated_decision(self, eig_sym3_calls):
        sa, sb = self._pair(22)
        verdict = decide_equiv_sym(sa, sb)
        assert verdict.verdict is Verdict.EQUIVALENT
        assert len(eig_sym3_calls) == 2

    def test_none_on_fast_reject(self, eig_sym3_calls):
        sa, sb = self._pair(23)
        verdict = decide_equiv_sym(sa, (sb[0], sb[1] + 0.5 * np.eye(3)))
        assert verdict.verdict is Verdict.NOT_EQUIVALENT
        assert verdict.invariant_distance > 0.1
        assert eig_sym3_calls == []

    def test_two_on_zero_vector(self, eig_sym3_calls):
        sa, sb = self._pair(25)
        verdict = decide_equiv_sym((np.zeros(3), sa[1]), (np.zeros(3), sb[1]))
        assert verdict.verdict is Verdict.EQUIVALENT
        assert len(eig_sym3_calls) == 2
        r = verdict.witness
        assert norm_inf(r @ sa[1] @ r.T - sb[1]) <= 1e-7 * max(1.0, norm_inf(sb[1]))


def test_rel_dist_metric():
    assert rel_dist([1.0], [1.0]) == 0.0
    assert rel_dist([0.0], [0.5]) == 0.5
    assert rel_dist([100.0], [101.0]) == pytest.approx(1.0 / 101.0)
    # A NaN or infinite entry gives NaN in every position.
    for bad in (np.nan, np.inf, -np.inf):
        assert np.isnan(rel_dist([bad, 1.0], [1.0, 2.0]))
        assert np.isnan(rel_dist([1.0, bad], [1.0, 2.0]))
        assert np.isnan(rel_dist([1.0, 2.0], [1.0, bad]))


@pytest.mark.parametrize("tol", [-1.0, 0.0, np.inf, np.nan], ids=["-1", "0", "inf", "nan"])
def test_tol_must_be_finite_and_positive(tol):
    # A negative tol rejects a state against itself, an infinite one
    # certifies any pair and a NaN one decides nothing.
    # The tol check comes first, before any input is read: NaN inputs too
    # get the tol error.
    c = np.diag([0.7, 0.2, -0.4])
    state = (np.array([0.3, -0.2, 0.5]), c)
    nan = np.full((3, 3), np.nan)
    for lmm_pair, sym_pair in [((c, c), (state, state)), ((nan, c), ((nan[0], nan), state))]:
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            decide_equiv_lmm(*lmm_pair, tol=tol)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            decide_equiv_sym(*sym_pair, tol=tol)
