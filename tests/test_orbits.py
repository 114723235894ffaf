"""Tests for canonical forms and the equivalence decision procedure."""

import hashlib
import sys

import numpy as np
import pytest

from blochinv import linalg, orbits
from blochinv.errors import DegenerateSpectrum, NotRepresentable, NotSymmetric, ZeroVector
from blochinv.groups import haar_so3, lmm_weyl_action_group, lmm_weyl_pair
from blochinv.invariants import octahedral_invariants, sym_invariants
from blochinv.linalg import rotation_residual
from blochinv.orbits import (
    Verdict,
    decide_equiv_lmm,
    decide_equiv_sym,
    lmm_canonical,
    sym_canonical,
)
from blochinv.verify import norm_inf, rel_dist


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
        r1, r2 = map(np.asarray, form.witness)
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
            r1, r2 = map(np.asarray, form.witness)
            assert norm_inf(r1 @ c @ r2.T - np.diag(form.diag)) < 1e-9

    def test_fixed_point(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            d = gapped_descending(rng, 0.2, 2.0, 1e-2)
            if rng.uniform() < 0.5:
                d = d.copy()
                d[2] = -d[2]
            form = lmm_canonical(np.diag(d))
            assert norm_inf(np.subtract(form.diag, d)) < 1e-10

    def test_weyl_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            c = rng.uniform(-1, 1, size=(3, 3))
            base = lmm_canonical(c).diag
            for g in lmm_weyl_action_group():
                r1, r2 = lmm_weyl_pair(g)
                moved = lmm_canonical(r1 @ c @ r2.T).diag
                assert norm_inf(np.subtract(moved, base)) < 1e-10


class TestSymCanonical:
    def test_even_flip_example(self):
        form = sym_canonical(np.array([-1.0, -2.0, 3.0]), np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_array_equal(form.w, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(form.eigs, [3.0, 2.0, 1.0])
        r = np.asarray(form.witness)
        assert norm_inf(r @ np.diag([3.0, 2.0, 1.0]) @ r.T
                        - np.diag(form.eigs)) < 1e-13

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateSpectrum):
            sym_canonical(np.ones(3), np.eye(3))

    def test_spectrum_near_top_of_double_range_is_finite(self):
        form = sym_canonical([0.1, 0.2, 0.3],
                             [[1e308, 5e307, 0.0], [5e307, -1e308, 0.0], [0.0, 0.0, 1.0]])
        top = 1e308 * np.sqrt(1.25)
        np.testing.assert_allclose(form.eigs, [top, 1.0, -top], rtol=1e-15, atol=0)
        assert np.isfinite(form.w).all()

    def test_overflowing_w_raises_not_representable(self):
        # R v overflows for v near the top of the double range; w was
        # returned with an infinite coordinate.
        a = [[0.7, 0.1, 0.0], [0.1, 0.2, 0.05], [0.0, 0.05, -0.4]]
        with pytest.raises(NotRepresentable, match="sym_canonical"):
            sym_canonical((1.7e308,) * 3, a)
        assert np.isfinite(sym_canonical((1e307,) * 3, a).w).all()

    def test_orbit_property(self):
        rng = np.random.default_rng(3)
        v = np.array([0.7, -0.2, 1.3])
        a = np.diag([1.5, 0.3, -0.9])
        ref = sym_canonical(v, a)
        for _ in range(200):
            r = haar_so3(rng)
            form = sym_canonical(r @ v, r @ a @ r.T)
            assert norm_inf(np.subtract(form.w, ref.w)) < 1e-8
            assert norm_inf(np.subtract(form.eigs, ref.eigs)) < 1e-8

    def test_witness_lands_on_slice(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            lam = gapped_descending(rng, -2.0, 2.0, 1e-2)
            q = haar_so3(rng)
            a = q.T @ np.diag(lam) @ q
            v = rng.uniform(-1, 1, size=3)
            form = sym_canonical(v, a)
            r = np.asarray(form.witness)
            assert norm_inf(r @ a @ r.T - np.diag(form.eigs)) < 1e-10
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
            r1, r2 = map(np.asarray, verdict.witness)
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
        r1, r2 = map(np.asarray, verdict.witness)
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
            r1, r2 = map(np.asarray, verdict.witness)
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

    def test_nan_gate_distance_is_indeterminate(self, monkeypatch):
        # NaN > tol is false; the decision must not go on to the witness.
        true_canonical = orbits.lmm_canonical

        def mutant(c):
            form = true_canonical(c)
            form.diag[1] = np.nan
            return form

        monkeypatch.setattr(orbits, "lmm_canonical", mutant)
        c = [[0.9, 0.1, -0.2], [0.0, -0.5, 0.3], [0.2, 0.1, 0.4]]
        verdict = decide_equiv_lmm(c, c)
        assert verdict.verdict is Verdict.INDETERMINATE
        assert verdict.witness is None and np.isnan(verdict.invariant_distance)


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
            r = np.asarray(verdict.witness)
            assert norm_inf(r @ sa[0] - sb[0]) < 1e-8
            assert norm_inf(r @ sa[1] @ r.T - sb[1]) < 1e-8

    def test_overflowing_w_raises_not_representable(self):
        # Different orbits (v.Av differs) at the top of the double range:
        # the decision was INDETERMINATE with invariant_distance 0.0.
        a = [[0.7, 0.1, 0.0], [0.1, 0.2, 0.05], [0.0, 0.05, -0.4]]
        with pytest.raises(NotRepresentable, match="sym_canonical"):
            decide_equiv_sym(((1.7e308,) * 3, a), ((1.7e308, -1.7e308, 1.7e308), a))

    def test_second_gate_keeps_a_nan_w_distance(self, monkeypatch):
        # Python's max(eig_dist, nan) is eig_dist; the gate reduces through
        # linalg._worst, which keeps the NaN.
        true_canonical = orbits.sym_canonical

        def mutant(v, a):
            form = true_canonical(v, a)
            form.w[0] = np.nan
            return form

        monkeypatch.setattr(orbits, "sym_canonical", mutant)
        state = ([0.3, -0.2, 0.5], [[0.7, 0.1, 0.0], [0.1, 0.2, 0.05], [0.0, 0.05, -0.4]])
        gates = orbits._sym_gates(state, state)
        assert next(gates) == 0.0
        assert np.isnan(next(gates))

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_nan_gate_distance_is_indeterminate(self, monkeypatch, index):
        # NaN > tol is false; the decision must not go on to the witness.
        # Python's max and min keep their running value against a NaN, so
        # the w distance must not reduce through them alone.
        true_canonical = orbits.sym_canonical

        def mutant(v, a):
            form = true_canonical(v, a)
            form.w[index] = np.nan
            return form

        monkeypatch.setattr(orbits, "sym_canonical", mutant)
        state = ([0.3, -0.2, 0.5], [[0.7, 0.1, 0.0], [0.1, 0.2, 0.05], [0.0, 0.05, -0.4]])
        verdict = decide_equiv_sym(state, state)
        assert verdict.verdict is Verdict.INDETERMINATE
        assert verdict.witness is None and np.isnan(verdict.invariant_distance)

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
        r = np.asarray(verdict.witness)
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
            r = np.asarray(verdict.witness)
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
            r1, r2 = map(np.asarray, pair)
            return norm_inf(r1 @ c @ r2.T - m)

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
            r = np.asarray(r)
            return max(norm_inf(r @ sa[0] - sb[0]), norm_inf(r @ sa[1] @ r.T - sb[1]))

        self._check(k, decide_equiv_sym(sa, sb, tol=self.TOL), True, residual,
                    max(1.0, norm_inf(sb[0]), norm_inf(sb[1])))
        spectrum = (sb[0], rb.T @ (s * np.diag([0.7, 0.2, -0.3])) @ rb)
        vector = (2.0 * sb[0], sb[1])
        for other in (spectrum, vector):
            self._check(k, decide_equiv_sym(sa, other, tol=self.TOL), False)


def rebind(monkeypatch, name, replacement):
    """Bind replacement in place of linalg's function name at every module
    attribute of the package bound to that function."""
    original = getattr(linalg, name)
    bound = [(module, attr)
             for module_name, module in list(sys.modules.items())
             if module_name == "blochinv" or module_name.startswith("blochinv.")
             for attr, value in list(vars(module).items()) if value is original]
    assert (linalg, name) in bound
    for module, attr in bound:
        monkeypatch.setattr(module, attr, replacement)


@pytest.fixture
def eig_sym3_calls(monkeypatch):
    """Count calls of the eigen kernel entry, linalg.eig_sym3, made through
    every module attribute bound to it: every diagonalization goes through
    it."""
    original = linalg.eig_sym3
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    rebind(monkeypatch, "eig_sym3", counted)
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
        r = np.asarray(verdict.witness)
        assert norm_inf(r @ sa[1] @ r.T - sb[1]) <= 1e-7 * max(1.0, norm_inf(sb[1]))


class TestKernelBodyRuns:
    """One benchmark op runs each kernel body once per distinct matrix: the
    calls on the same matrix, and on the decider's copies divided by a power
    of two, are served from the kernel's memo."""

    def test_sym_pair_runs_eigen_body_twice(self):
        rng = np.random.default_rng(31)
        lam = np.diag([3.1, 1.2, -2.4])
        w = rng.uniform(-1, 1, size=3)
        ra, rb = haar_so3(rng), haar_so3(rng)
        sa, sb = (ra.T @ w, ra.T @ lam @ ra), (rb.T @ w, rb.T @ lam @ rb)
        # The decider divides both matrices by a power of two.
        assert linalg._pow2_floor(max(norm_inf(sa[1]), norm_inf(sb[1]))) > 1.0
        linalg._eig_body.cache_clear()
        for v, a in (sa, sb):
            sym_invariants(v, a)
            sym_canonical(v, a)
        assert decide_equiv_sym(sa, sb).verdict is Verdict.EQUIVALENT
        info = linalg._eig_body.cache_info()
        assert (info.misses, info.hits) == (2, 4)

    def test_lmm_pair_runs_svd_body_twice(self):
        rng = np.random.default_rng(32)
        c = haar_so3(rng) @ np.diag([3.1, 1.2, -0.4]) @ haar_so3(rng).T
        m = haar_so3(rng) @ c @ haar_so3(rng).T
        linalg._svd_body.cache_clear()
        lmm_canonical(c)
        lmm_canonical(m)
        assert decide_equiv_lmm(c, m).verdict is Verdict.EQUIVALENT
        for k in (-40, 3, 200):
            lmm_canonical(2.0**k * c)
            assert decide_equiv_lmm(2.0**k * c, 2.0**k * m).verdict is Verdict.EQUIVALENT
        info = linalg._svd_body.cache_info()
        assert (info.misses, info.hits) == (2, 11)


@pytest.fixture
def conversions(monkeypatch):
    """Count the full conversions of linalg._rows3 (matrices) and _vec3
    (vectors), made through every module attribute bound to them: the calls
    that do not return their argument as it is."""
    counts = {"_rows3": 0, "_vec3": 0}
    for name in counts:
        def counted(a, what, original=getattr(linalg, name), name=name):
            out = original(a, what)
            counts[name] += out is not a
            return out

        rebind(monkeypatch, name, counted)
    return counts


class TestChecksOnce:
    """Each matrix argument is converted once per call of a public function,
    however many public functions it is handed on to: a check of an
    already-checked pair returns it as it is. A vector is converted once by
    each public function it reaches."""

    @pytest.mark.parametrize("k", [-1, 5])  # the decider's scale is 1, then 64
    def test_decide_equiv_sym(self, conversions, k):
        rng = np.random.default_rng(33)
        lam = 2.0**k * np.diag([3.1, 1.2, -2.4])
        w = rng.uniform(-1, 1, size=3)
        ra, rb = haar_so3(rng), haar_so3(rng)
        sa, sb = (ra.T @ w, ra.T @ lam @ ra), (rb.T @ w, rb.T @ lam @ rb)
        assert decide_equiv_sym(sa, sb).verdict is Verdict.EQUIVALENT
        assert conversions == {"_rows3": 2, "_vec3": 4}

    def test_sym_invariants(self, conversions):
        sym_invariants([0.3, -0.2, 0.5], np.diag([3.1, 1.2, -2.4]))
        assert conversions["_rows3"] == 1
        assert conversions["_vec3"] == 1

    def test_eig_sym3_of_a_checked_pair(self, conversions):
        a = np.array([[0.7, 0.1, 0.0], [0.1, 0.2, 0.05], [0.0, 0.05, -0.4]])
        result = linalg.eig_sym3(linalg._rows3(a, "a"))
        assert conversions["_rows3"] == 1
        assert result == linalg.eig_sym3(a)

    def test_decide_equiv_lmm(self, conversions):
        rng = np.random.default_rng(34)
        c = 8.0 * haar_so3(rng) @ np.diag([3.1, 1.2, -0.4]) @ haar_so3(rng).T
        m = haar_so3(rng) @ c @ haar_so3(rng).T
        assert decide_equiv_lmm(c, m).verdict is Verdict.EQUIVALENT
        assert conversions["_rows3"] == 2


class TestDecidePinnedMemo:
    """TestDecidePinned's decision digests with both kernel memos emptied
    before every decision, and with each state's invariants and canonical
    form taken first, as one benchmark op does, so that the decider's
    kernel calls are served from the memo."""

    @staticmethod
    def _warm(stratum, state):
        try:
            if stratum == "lmm":
                lmm_canonical(state)
            else:
                sym_invariants(*state)
                sym_canonical(*state)
        except (DegenerateSpectrum, ZeroVector):
            pass

    @pytest.mark.parametrize("memo", ["cold", "warm"])
    @pytest.mark.parametrize("stratum", ["lmm", "sym"])
    def test_digest(self, stratum, memo):
        decide = decide_equiv_lmm if stratum == "lmm" else decide_equiv_sym
        body = linalg._svd_body if stratum == "lmm" else linalg._eig_body
        hits = body.cache_info().hits
        lines = []
        for a, b in _pinned_pairs(stratum):
            for tol in (1e-8, 1e-12, 1e-15):
                if memo == "cold":
                    linalg._eig_body.cache_clear()
                    linalg._svd_body.cache_clear()
                else:
                    self._warm(stratum, a)
                    self._warm(stratum, b)
                v = decide(a, b, tol=tol)
                lines.append(f"{v.verdict.value} {_hex_items(v.invariant_distance)} "
                             f"{_hex_items(v.witness)}")
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            TestDecidePinned.DIGESTS[stratum])
        if memo == "warm":
            assert body.cache_info().hits > hits


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


class TestWitnessResidual:
    """A pair whose gate distances are within tol, 0.0 for a state against
    itself, still needs a witness within 10 tol max(1, size): a bound below
    the rounding of the witness products gives INDETERMINATE, not
    EQUIVALENT, and an exact witness passes any bound."""

    @pytest.mark.parametrize("tol", [1e-300, 1e-17])
    @pytest.mark.parametrize("stratum", ["lmm", "sym"])
    def test_generic_state_against_itself(self, stratum, tol):
        rng = np.random.default_rng(41)
        r1, r2 = haar_so3(rng), haar_so3(rng)
        if stratum == "lmm":
            c = r1 @ np.diag([0.9, 0.5, -0.2]) @ r2.T
            verdict = decide_equiv_lmm(c, c, tol=tol)
        else:
            state = (r2 @ [0.3, -0.8, 0.5], r1.T @ np.diag([0.7, 0.1, -0.4]) @ r1)
            verdict = decide_equiv_sym(state, state, tol=tol)
        assert (verdict.verdict, verdict.witness, verdict.invariant_distance) == (
            Verdict.INDETERMINATE, None, 0.0)

    def test_identity_has_an_exact_witness(self):
        verdict = decide_equiv_lmm(np.eye(3), np.eye(3), tol=1e-300)
        assert verdict.verdict is Verdict.EQUIVALENT
        assert verdict.invariant_distance == 0.0
        r1, r2 = verdict.witness
        assert r1 == r2 == np.eye(3).tolist()


def _hex_items(x):
    """float.hex of every float in a nested verdict field, in order."""
    if isinstance(x, (list, tuple)):
        return " ".join(_hex_items(y) for y in x)
    return "None" if x is None else float(x).hex()


def _pinned_pairs(stratum):
    """200 seeded pairs of one stratum, built with the fixed-order
    linalg._matmul3 so that no input depends on the BLAS build: in turn a
    same-orbit pair, the same pair with the image perturbed by 1e-9, an
    unrelated pair and a repeated-spectrum pair, at scales 0.3 to 300 and
    2^-3 to 2^3, as arrays or lists."""
    rng = np.random.default_rng(2201 if stratum == "lmm" else 2202)
    mm, t = linalg._matmul3, linalg._transpose
    pairs = []
    for i in range(200):
        scale = [0.3, 1.0, 1.7, 5.0, 300.0][i % 5] * 2.0 ** int(rng.integers(-3, 4))
        lam = (scale * rng.uniform(-1.0, 1.0, 3)).tolist()
        if i % 4 == 3:
            lam[1] = lam[0]
        d = np.diag(lam).tolist()
        r, q = haar_so3(rng).tolist(), haar_so3(rng).tolist()
        if stratum == "lmm":
            a = mm(mm(r, d), t(q))
            b = mm(mm(q, a), t(r)) if i % 4 != 2 else (scale * rng.uniform(-1, 1, (3, 3))).tolist()
        else:
            w = (scale * rng.uniform(-1.0, 1.0, 3)).tolist()
            a = (linalg._matvec3(t(r), w), mm(mm(t(r), d), r))
            b = (linalg._matvec3(t(q), w), mm(mm(t(q), d), q))
            if i % 4 == 2:
                b = (b[0], mm(mm(t(q), np.diag(scale * rng.uniform(-1, 1, 3)).tolist()), q))
        if i % 4 == 1:
            perturb = 1.0 + 1e-9 * rng.uniform(-1.0, 1.0)
            b = [[x * perturb for x in row] for row in b] if stratum == "lmm" else (
                [x * perturb for x in b[0]], b[1])
        if i % 2:
            a, b = (np.array(a), np.array(b)) if stratum == "lmm" else (
                tuple(map(np.array, a)), tuple(map(np.array, b)))
        pairs.append((a, b))
    return pairs


class TestDecidePinned:
    """The decision path in float.hex: 200 seeded pairs per stratum through
    both deciders at three tolerances, hashed over (verdict, distance,
    witness), and through each stratum's gate sequence run to its end,
    hashed over every gate distance and the returned witness, moved and
    target rows and size, which the residual test reads. The digests were
    recorded before the argument checks and gate bodies were written out on
    named locals; a reordering of the gate arithmetic changes them."""

    DIGESTS = {
        "lmm": "e1b1b55ac800c0cd13c7650bbf24c84d58e96f6ab818c54fdd6010b6b38692d9",
        "sym": "4284080fcff9e47e4ba8531f67be5a3f6aacd59a047b6877a50ddf14000c63ca",
    }
    GATE_DIGESTS = {
        "lmm": "87515982fa3bd60d68ac27d612444afd383d816778497c8478d908e0609902f0",
        "sym": "14e439f00ba84d675598f033bb68fb10a6ec39a3b9d2411ee575621104cfdbeb",
    }

    @pytest.mark.parametrize("stratum", ["lmm", "sym"])
    def test_digest(self, stratum):
        decide = decide_equiv_lmm if stratum == "lmm" else decide_equiv_sym
        lines = []
        for a, b in _pinned_pairs(stratum):
            for tol in (1e-8, 1e-12, 1e-15):
                v = decide(a, b, tol=tol)
                lines.append(f"{v.verdict.value} {_hex_items(v.invariant_distance)} "
                             f"{_hex_items(v.witness)}")
        counts = {k: sum(line.startswith(k.value + " ") for line in lines) for k in Verdict}
        assert counts[Verdict.EQUIVALENT] and counts[Verdict.NOT_EQUIVALENT], counts
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.DIGESTS[stratum]

    @pytest.mark.parametrize("stratum", ["lmm", "sym"])
    def test_gate_digest(self, stratum):
        gates = orbits._lmm_gates if stratum == "lmm" else orbits._sym_gates
        lines = []
        for a, b in _pinned_pairs(stratum):
            run = gates(a, b)
            distances = []
            try:
                while True:
                    distances.append(next(run))
            except StopIteration as done:
                lines.append(f"{_hex_items(distances)} | {_hex_items(done.value)}")
            except DegenerateSpectrum:
                lines.append(f"{_hex_items(distances)} | degenerate")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.GATE_DIGESTS[stratum]


class TestDecideUnscaledPath:
    """A pair whose max(1, |matrix|_inf) is already in [1, 2) is read
    undivided; the same pair scaled by 2^k for k = 1..4 is divided back to
    it exactly, so both paths give the same verdict, distance and witness
    in float.hex."""

    @staticmethod
    def _times(state, f):
        if isinstance(state, tuple):
            return tuple(f * np.asarray(x, dtype=float) for x in state)
        return f * np.asarray(state, dtype=float)

    @pytest.mark.parametrize("stratum", ["lmm", "sym"])
    def test_power_of_two_scaling(self, stratum):
        decide = decide_equiv_lmm if stratum == "lmm" else decide_equiv_sym
        for a, b in _pinned_pairs(stratum)[:100]:
            # The larger matrix norm brought into [1, 2) by a power of two.
            matrices = (a[1], b[1]) if stratum == "sym" else (a, b)
            f = 1.0 / linalg._pow2_floor(max(norm_inf(x) for x in matrices))
            a, b = self._times(a, f), self._times(b, f)
            for tol in (1e-8, 1e-12):
                base = decide(a, b, tol=tol)
                for k in range(1, 5):
                    scaled = decide(self._times(a, 2.0 ** k), self._times(b, 2.0 ** k), tol=tol)
                    assert scaled.verdict is base.verdict
                    assert (_hex_items(scaled.invariant_distance)
                            == _hex_items(base.invariant_distance))
                    assert _hex_items(scaled.witness) == _hex_items(base.witness)


def _sym_pinned_states():
    """300 seeded symmetric states (v, A), built with the fixed-order
    linalg._matmul3 so that no input depends on the BLAS build: 224 with a
    random v and spectrum at scales 2^-6 to 2^6, one in four with a
    repeated eigenvalue; one v scaled by 2^k for k = -1000..1000 in steps
    of 50, and two near the top of the double range; axis-aligned v of
    either sign; and zero v, signed zeros included. Every other state
    holds arrays, the rest lists."""
    rng = np.random.default_rng(2811)
    mm, t = linalg._matmul3, linalg._transpose

    def rotated(lam):
        r = haar_so3(rng).tolist()
        return mm(mm(t(r), np.diag(lam).tolist()), r)

    states = []
    for i in range(224):
        scale = 2.0 ** int(rng.integers(-6, 7))
        lam = (scale * rng.uniform(-1.0, 1.0, 3)).tolist()
        if i % 4 == 3:
            lam[2] = lam[0]
        states.append(((scale * rng.uniform(-1.0, 1.0, 3)).tolist(), rotated(lam)))
    a = rotated([3.1, 1.2, -2.4])
    w = rng.uniform(-1.0, 1.0, 3).tolist()
    states += [([2.0 ** k * x for x in w], a) for k in range(-1000, 1001, 50)]
    states += [([1.7e308, -1.1e308, 0.9e308], a), ([1.7e308, 0.0, 0.0], a)]
    for axis in range(3):
        for x in (1.0, -0.75, 2.0 ** -600, -(2.0 ** 600)):
            v = [0.0, 0.0, 0.0]
            v[axis] = x
            states += [(v, a), (v, np.diag([0.5, -0.25, 2.0]).tolist())]
    for v in ([0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [1e-13, -1e-13, 0.0]):
        states += [(v, a), (v, np.diag([0.5, -0.25, 2.0]).tolist()), (v, rotated([1.0, 1.0, -1.0]))]
    return [(np.array(v), np.array(m)) if i % 2 else (v, m) for i, (v, m) in enumerate(states)]


class TestSymPinned:
    """The symmetric public functions in float.hex over the seeded states of
    _sym_pinned_states: sym_invariants(...).as_tuple(), sym_canonical's
    eigs, w and witness, and octahedral_invariants(v).as_dict(), each error
    recorded by its type. The digest was recorded before sym_invariants
    took the octahedral invariants of R v / s through the unchecked body."""

    DIGEST = "3d205b4bbe8734b19bf76bca25b3f31b9b580f7396196137401a06532cb27969"

    @staticmethod
    def _line(f):
        try:
            return _hex_items(f())
        except (DegenerateSpectrum, NotRepresentable, ZeroVector) as exc:
            return type(exc).__name__

    def test_digest(self):
        lines = []
        for v, a in _sym_pinned_states():
            lines.append(" | ".join((
                self._line(lambda: sym_invariants(v, a).as_tuple()),
                self._line(lambda: (lambda f: (f.eigs, f.w, f.witness))(sym_canonical(v, a))),
                self._line(lambda: list(octahedral_invariants(v).as_dict().values())))))
        kinds = {kind for line in lines for kind in line.split(" | ") if " " not in kind}
        assert kinds == {"DegenerateSpectrum", "NotRepresentable", "ZeroVector"}, kinds
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.DIGEST
