"""Tests for the invariant functions, with independent oracles for every
derived formula."""

import itertools

import numpy as np
import pytest

from blochinv import invariants, linalg
from blochinv.errors import DegenerateSpectrum, NotRepresentable, NotSymmetric, ZeroVector
from blochinv.groups import haar_so3, octahedral_group
from blochinv.invariants import (
    LmmInvariants,
    g_invariant,
    lmm_invariants,
    lmm_invariants_jacobian,
    lmm_positive_cone_check,
    lmm_section_invariants,
    lmm_section_jacobian,
    octahedral_invariants,
    p9_eval,
    r_invariant,
    sym_invariants,
)
from blochinv.linalg import det3
from blochinv.orbits import EVEN_SIGN_FLIPS, sym_canonical
from blochinv.states import BlochMatrix, bloch_of, density_of, is_positive
from blochinv.verify import rel_dist
from pins import hexes

EPS3 = np.zeros((3, 3, 3))
for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPS3[i, j, k] = 1.0
    EPS3[i, k, j] = -1.0


def g_epsilon_sum(v, a):
    """Six-index antisymmetric sum, the direct oracle for g_invariant."""
    return float(np.einsum("ijk,jl,km,mn,i,l,n->", EPS3, a, a, a, v, v, v))


def gapped_eigs(rng, gap=1e-2):
    while True:
        lam = np.sort(rng.uniform(-2, 2, size=3))[::-1]
        if lam[0] - lam[1] > gap and lam[1] - lam[2] > gap:
            return lam


class TestLmmInvariants:
    def test_zero(self):
        assert lmm_invariants(np.zeros((3, 3))).as_tuple() == (0.0, 0.0, 0.0)

    def test_identity(self):
        assert lmm_invariants(np.eye(3)).as_tuple() == (3.0, 1.0, 3.0)

    def test_bell(self):
        inv = lmm_invariants(np.diag([1.0, -1.0, 1.0]))
        assert inv.as_tuple() == (3.0, -1.0, 3.0)
        # All three reported bounds are saturated at this point.
        assert inv.t3 == 0.5 * (1.0 - inv.t2)
        assert inv.t4 == -2.0 * inv.t3 + 0.25 * (1.0 - inv.t2) ** 2

    def test_matches_matrix_formulas(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            c = rng.uniform(-2, 2, size=(3, 3))
            inv = lmm_invariants(c)
            m = c @ c.T
            assert inv.t2 == pytest.approx(np.trace(m), rel=1e-13)
            assert inv.t3 == pytest.approx(np.linalg.det(c), rel=1e-12, abs=1e-13)
            assert inv.t4 == pytest.approx(np.trace(m @ m), rel=1e-13)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            c = rng.uniform(-1, 1, size=(3, 3))
            r1, r2 = haar_so3(rng), haar_so3(rng)
            assert rel_dist(
                lmm_invariants(r1 @ c @ r2.T).as_tuple(), lmm_invariants(c).as_tuple()
            ) < 1e-9

    def test_unitary_invariance_through_density_route(self):
        # Full pipeline: conjugate the assembled density matrix by a local
        # unitary pair, read the invariants back off its Bloch coordinates.
        from blochinv.groups import act_density, haar_su2, random_bloch
        from blochinv.states import StateClass, density_of

        rng = np.random.default_rng(20)
        for _ in range(200):
            b = random_bloch(StateClass.LMM, rng)
            ref = lmm_invariants(b.C).as_tuple()
            moved = act_density(haar_su2(rng), haar_su2(rng), density_of(b))
            assert rel_dist(lmm_invariants(bloch_of(moved).C).as_tuple(), ref) < 1e-9


class TestSectionInvariants:
    def test_values(self):
        assert lmm_section_invariants(np.array([1.0, 1.0, 1.0])).as_tuple() == (3.0, 1.0, 3.0)
        assert lmm_section_invariants(np.array([1.0, 2.0, 3.0])).as_tuple() == (14.0, 6.0, 98.0)

    def test_restriction_is_bitwise(self):
        # The slice invariants are the full invariants evaluated on the
        # diagonal, with identical arithmetic.
        rng = np.random.default_rng(2)
        for _ in range(2000):
            x = rng.uniform(-2, 2, size=3)
            assert lmm_invariants(np.diag(x)).as_tuple() == lmm_section_invariants(x).as_tuple()

    def test_jacobian_against_partials(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            x = rng.uniform(-2, 2, size=3)
            x1, x2, x3 = x
            partials = np.array(
                [
                    [2 * x1, 2 * x2, 2 * x3],
                    [x2 * x3, x1 * x3, x1 * x2],
                    [4 * x1**3, 4 * x2**3, 4 * x3**3],
                ]
            )
            direct = det3(partials)
            closed = lmm_section_jacobian(x)
            assert abs(direct - closed) <= 1e-9 * max(1.0, abs(direct), abs(closed))

    def test_jacobian_finite_differences(self):
        x = np.array([1.0, 2.0, 3.0])
        h = 1e-5
        fd = np.empty((3, 3))
        for j in range(3):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            sp = np.array(lmm_section_invariants(xp).as_tuple())
            sm = np.array(lmm_section_invariants(xm).as_tuple())
            fd[:, j] = (sp - sm) / (2 * h)
        closed = lmm_section_jacobian(x)
        assert closed == pytest.approx(-960.0)
        assert det3(fd) == pytest.approx(closed, abs=1e-6 * abs(closed))


class TestBounds:
    def test_examples(self):
        assert lmm_positive_cone_check(lmm_invariants(np.zeros((3, 3))))
        assert lmm_positive_cone_check(lmm_invariants(np.diag([1.0, -1.0, 1.0])))
        assert not lmm_positive_cone_check(LmmInvariants(t2=4.0, t3=0.0, t4=0.0))

    def test_reported_t4_bound_is_not_implied_by_positivity(self):
        # The positive state with C = diag(1, 0, 0) fails the reported
        # upper bound on t4, so the triple is a strict subset of the cone.
        b = BlochMatrix(np.zeros(3), np.zeros(3), np.diag([1.0, 0.0, 0.0]))
        rho = density_of(b)
        assert is_positive(rho)
        inv = lmm_invariants(b.C)
        assert inv.as_tuple() == (1.0, 0.0, 1.0)
        assert inv.t4 > -2.0 * inv.t3 + 0.25 * (1.0 - inv.t2) ** 2 + 1e-9
        assert lmm_positive_cone_check(inv)

    def test_cone_check_matches_eigenvalue_positivity(self):
        # Dual route: the invariant-level cone conditions against the
        # eigenvalues of the assembled density matrix, on the diagonal
        # stratum that meets every orbit.
        rng = np.random.default_rng(4)
        tested = 0
        for _ in range(5000):
            c = rng.uniform(-1.5, 1.5, size=3)
            rho = density_of(BlochMatrix(np.zeros(3), np.zeros(3), np.diag(c)))
            lam_min = float(np.linalg.eigvalsh(rho)[0])
            if abs(lam_min) < 1e-7:
                continue
            tested += 1
            inv = lmm_invariants(np.diag(c))
            assert lmm_positive_cone_check(inv) == (lam_min >= 0.0)
        assert tested > 4000

    def test_first_two_bounds_hold_on_positive_states(self):
        rng = np.random.default_rng(5)
        from blochinv.groups import random_state
        from blochinv.states import StateClass

        for _ in range(500):
            rho = random_state(StateClass.LMM, rng, positive=True)
            inv = lmm_invariants(bloch_of(rho).C)
            assert -1e-9 <= inv.t2 <= 3.0 + 1e-9
            assert inv.t3 <= 0.5 * (1.0 - inv.t2) + 1e-9
            assert inv.t4 >= -1e-9
            assert lmm_positive_cone_check(inv)

    def test_spectral_power_sum_bridge(self):
        # On the zero 1-point stratum the moments of the density matrix are
        # polynomials in the invariants; these identities are what the cone
        # conditions are made of, so they get their own dual-route check.
        rng = np.random.default_rng(19)
        from blochinv.groups import random_state
        from blochinv.states import StateClass

        for k in range(300):
            rho = random_state(StateClass.LMM, rng, positive=(k % 2 == 0))
            t2, t3, t4 = lmm_invariants(bloch_of(rho).C).as_tuple()
            lam = np.linalg.eigvalsh(rho)
            assert np.sum(lam**2) == pytest.approx((1 + t2) / 4, abs=1e-11)
            assert np.sum(lam**3) == pytest.approx((1 + 3 * t2 - 6 * t3) / 16, abs=1e-11)
            assert np.sum(lam**4) == pytest.approx(
                (1 + 6 * t2 - 24 * t3 + 3 * t2**2 - 2 * t4) / 64, abs=1e-11
            )


class TestOctahedralInvariants:
    def test_equal_squares(self):
        p = octahedral_invariants(np.array([1.0, 1.0, 1.0]))
        assert (p.p1, p.p2, p.p3, p.p4) == (3.0, 3.0, 1.0, 0.0)
        assert p.X == pytest.approx(1.0 / 3.0)
        assert p.Y == pytest.approx(1.0 / 27.0)
        assert p.Z == 0.0

    def test_123(self):
        p = octahedral_invariants(np.array([1.0, 2.0, 3.0]))
        assert (p.p1, p.p2, p.p3, p.p4) == (14.0, 49.0, 36.0, -720.0)
        assert p.X == pytest.approx(49.0 / 196.0)
        assert p.Y == pytest.approx(36.0 / 2744.0)
        assert p.Z == pytest.approx(-720.0 / 38416.0)

    def test_matches_direct_formulas(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            v = rng.uniform(-2, 2, size=3)
            p = octahedral_invariants(v)
            assert p.p1 == pytest.approx(np.sum(v**2), rel=1e-14)
            assert p.p2 == pytest.approx(
                (v[0] * v[1]) ** 2 + (v[0] * v[2]) ** 2 + (v[1] * v[2]) ** 2, rel=1e-14
            )
            assert p.p3 == pytest.approx((v[0] * v[1] * v[2]) ** 2, rel=1e-14)
            direct_p4 = (
                v[0] * v[1] * v[2]
                * (v[0] ** 2 - v[1] ** 2)
                * (v[0] ** 2 - v[2] ** 2)
                * (v[1] ** 2 - v[2] ** 2)
            )
            assert p.p4 == pytest.approx(direct_p4, rel=1e-12, abs=1e-12)

    def test_exact_group_invariance(self):
        rng = np.random.default_rng(7)
        group = octahedral_group()
        for _ in range(100):
            v = rng.uniform(-2, 2, size=3)
            base = octahedral_invariants(v)
            for g in group:
                img = octahedral_invariants(g.apply(v))
                assert (img.p1, img.p2, img.p3, img.p4) == (base.p1, base.p2, base.p3, base.p4)
                if base.p1 > 0:
                    assert (img.X, img.Y, img.Z) == (base.X, base.Y, base.Z)

    def test_matches_numpy_formulation_bitwise(self):
        # The same expressions on numpy sort, abs and sign are the
        # reference; a zero p4 must come out as +0.0 on both.
        def reference(v):
            v = np.asarray(v, dtype=float)
            a = np.sort(np.abs(v))
            a0, a1, a2 = float(a[0]), float(a[1]), float(a[2])
            x0, x1, x2 = a0 * a0, a1 * a1, a2 * a2
            mag = (a0 * a1) * a2
            vand = ((x1 - x0) * (x2 - x0)) * (x2 - x1)
            q0, q1, q2 = float(v[0]) ** 2, float(v[1]) ** 2, float(v[2]) ** 2
            sgn = float(np.sign(v[0]) * np.sign(v[1]) * np.sign(v[2]))
            tau = float(np.sign(q0 - q1) * np.sign(q0 - q2) * np.sign(q1 - q2))
            return ((x0 + x1) + x2, (x0 * x1 + x0 * x2) + x1 * x2, (x0 * x1) * x2,
                    (sgn * tau) * (mag * vand) + 0.0)

        rng = np.random.default_rng(16)
        vectors = [[0.0, 0.3, 0.5], [-0.0, 0.3, 0.5], [0.0, -0.3, 0.5]]
        for k in range(60):
            v = rng.uniform(-2, 2, size=3)
            if k % 3 == 1:
                v[k % 3] = rng.choice([0.0, -0.0])
            elif k % 3 == 2:
                v[1] = rng.choice([1.0, -1.0]) * v[0]
            vectors.append(v)
        signed_perms = [np.array(s) * np.eye(3)[list(p)]
                        for p in itertools.permutations(range(3))
                        for s in itertools.product([1.0, -1.0], repeat=3)]
        assert len(signed_perms) == 48
        for v in vectors:
            for g in signed_perms:
                w = g @ np.asarray(v, dtype=float)
                p = octahedral_invariants(w)
                assert hexes((p.p1, p.p2, p.p3, p.p4)) == hexes(reference(w)), w
        assert octahedral_invariants([0.0, 0.3, 0.5]).p4.hex() == "0x0.0p+0"
        assert octahedral_invariants([0.0, -0.3, 0.5]).p4.hex() == "0x0.0p+0"

    def test_zero_p4_is_bitwise_invariant(self):
        # Where p4 vanishes (a zero coordinate or tied |coordinates|), the
        # signs of the coordinates must not reach the sign bit of p4 or Z:
        # (1, 2, 0) and its image (1, -2, -0.0) gave -0.0 and +0.0.
        def bits(v):
            return hexes(list(octahedral_invariants(v).as_dict().values()))

        rng = np.random.default_rng(23)
        vectors = [[1.0, 2.0, 0.0], [0.0, -0.0, 0.7], [0.3, -0.3, 0.3], [-1.0, 1.0, 2.0]]
        for k in range(60):
            v = rng.uniform(-2, 2, size=3)
            v[k % 3] = -v[(k + 1) % 3] if k % 2 else rng.choice([0.0, -0.0])
            vectors.append(v)
        group = octahedral_group()
        for v in vectors:
            ref = bits(np.asarray(v, dtype=float))
            assert ref[3] == "0x0.0p+0"
            for g in group:
                assert bits(g.apply(np.asarray(v, dtype=float))) == ref, (v, g)

    def test_zero_vector(self):
        p = octahedral_invariants(np.zeros(3))
        assert (p.p1, p.p2, p.p3, p.p4) == (0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ZeroVector):
            _ = p.X

    def test_underflowing_power_of_p1(self):
        # p1 > 0 at both scales; from 1e-60 p1^3 and p1^4 underflow to 0,
        # from 1e-100 also p1^2.
        v = np.array([0.1, 0.2, 0.3])
        p = octahedral_invariants(1e-60 * v)
        assert p.p1 > 0.0 and p.X == p.p2 / (p.p1 * p.p1)
        for name in ("Y", "Z"):
            with pytest.raises(ZeroVector):
                getattr(p, name)
        p = octahedral_invariants(1e-100 * v)
        for name in ("X", "Y", "Z"):
            with pytest.raises(ZeroVector):
                getattr(p, name)
        with pytest.raises(ZeroVector):
            p.as_dict()


class TestP9:
    def test_oracle_gate(self):
        # The closed form is only trusted because this oracle test passes:
        # p4^2 - P9 must vanish at 10^4 random points before first use.
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(10000):
            v = rng.uniform(-2, 2, size=3)
            p = octahedral_invariants(v)
            lhs = p.p4 * p.p4
            rhs = p9_eval(p.p1, p.p2, p.p3)
            worst = max(worst, abs(lhs - rhs) / max(1.0, lhs))
        assert worst < 1e-9

    def test_spot_value(self):
        p = octahedral_invariants(np.array([1.0, 2.0, 3.0]))
        assert p9_eval(p.p1, p.p2, p.p3) == 518400.0
        assert p.p4**2 == 518400.0

    def test_zero_cases(self):
        assert p9_eval(5.0, 6.0, 0.0) == 0.0
        p = octahedral_invariants(np.array([1.0, 1.0, 2.0]))
        assert p.p4 == 0.0
        assert p9_eval(p.p1, p.p2, p.p3) == pytest.approx(0.0, abs=1e-12)

    def test_value_beyond_double_range_is_not_representable(self):
        with pytest.raises(NotRepresentable, match="^p9_eval: the value is not a finite double$"):
            p9_eval(1e308, 1e308, 1e308)

    @pytest.mark.parametrize("p1", [np.inf, np.nan])
    def test_non_finite_argument_names_p9_eval(self, p1):
        with pytest.raises(ValueError, match="^p9_eval input contains NaN or Inf entries$"):
            p9_eval(p1, 1.0, 1.0)


class TestGInvariant:
    def test_triple_product_sign_convention(self):
        # det[v | Av | A^2 v] on diag(1,2,3) with v = (1,1,1) gives the
        # ascending Vandermonde (2-1)(3-1)(3-2) = +2.
        assert g_invariant(np.ones(3), np.diag([1.0, 2.0, 3.0])) == 2.0

    def test_vanishes_for_scalar_action(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            v = rng.uniform(-1, 1, size=3)
            assert g_invariant(v, np.eye(3)) == 0.0

    def test_epsilon_sum_oracle(self):
        # The determinant form must agree with the direct index sum; the
        # sign calibration is global, not per input.
        rng = np.random.default_rng(10)
        for _ in range(500):
            a = rng.uniform(-1, 1, size=(3, 3))
            a = 0.5 * (a + a.T)
            v = rng.uniform(-1, 1, size=3)
            direct = g_invariant(v, a)
            oracle = g_epsilon_sum(v, a)
            assert abs(direct - oracle) <= 1e-10 * max(1.0, abs(direct), abs(oracle))

    def test_diagonal_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            lam = rng.uniform(-2, 2, size=3)
            v = rng.uniform(-2, 2, size=3)
            expected = (
                v[0] * v[1] * v[2]
                * (lam[1] - lam[0]) * (lam[2] - lam[0]) * (lam[2] - lam[1])
            )
            got = g_invariant(v, np.diag(lam))
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            g_invariant(np.ones(3), np.array([[0.0, 1.0, 0], [0, 0, 0], [0, 0, 0]]))

    def test_rejects_non_finite(self):
        bad = np.full((3, 3), np.nan)
        with pytest.raises(ValueError):
            g_invariant(np.ones(3), bad)
        with pytest.raises(ValueError):
            octahedral_invariants(np.array([1.0, np.inf, 0.0]))


class TestRInvariant:
    def test_diagonal_restriction(self):
        assert r_invariant(np.ones(3), np.diag([1.0, 2.0, 3.0])) == pytest.approx(1.0)
        assert r_invariant(np.array([0.0, 1.0, 1.0]), np.diag([1.0, 2.0, 3.0])) == 0.0

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateSpectrum):
            r_invariant(np.ones(3), np.eye(3))

    def test_checks_matrix_once(self, monkeypatch):
        # r_invariant checks A's shape and finiteness with _rows3 and
        # eig_sym3 makes the one _sym_rows3 call, the symmetry check; g is
        # evaluated unchecked afterwards, with the same errors for bad input.
        original = linalg._sym_rows3
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        bound = [(module, attr) for module in (linalg, invariants)
                 for attr, value in list(vars(module).items()) if value is original]
        assert (linalg, "_sym_rows3") in bound
        for module, attr in bound:
            monkeypatch.setattr(module, attr, counted)
        assert r_invariant(np.ones(3), np.diag([1.0, 2.0, 3.0])) == pytest.approx(1.0)
        assert len(calls) == 1
        with pytest.raises(ValueError, match="NaN or Inf"):
            r_invariant(np.ones(3), np.diag([1.0, np.nan, 3.0]))
        with pytest.raises(NotSymmetric):
            r_invariant(np.ones(3), np.array([[1.0, 1e-3, 0], [0, 2, 0], [0, 0, 3]]))

    def test_restriction_identity_random(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            lam = gapped_eigs(rng)
            v = rng.uniform(-2, 2, size=3)
            val = r_invariant(v, np.diag(lam))
            expected = (v[0] * v[1] * v[2]) ** 2
            assert abs(val - expected) <= 1e-8 * max(1.0, val, expected)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            lam = gapped_eigs(rng)
            q = haar_so3(rng)
            a = q.T @ np.diag(lam) @ q
            v = rng.uniform(-1, 1, size=3)
            r = haar_so3(rng)
            v1 = r_invariant(v, a)
            v2 = r_invariant(r @ v, r @ a @ r.T)
            assert abs(v1 - v2) <= 1e-8 * max(1.0, abs(v1), abs(v2))

    def test_discriminant_routes_agree(self):
        # The squared-gap product behind the degeneracy test equals the
        # discriminant of det(xI - A) = x^3 + b x^2 + c x + d.
        rng = np.random.default_rng(14)
        for _ in range(500):
            a = rng.uniform(-1, 1, size=(3, 3))
            a = 0.5 * (a + a.T)
            pair = linalg._sym_rows3(a, "a")
            _, _, scale, d1 = invariants._nondegenerate_eig(pair, "degenerate")
            assert scale == 1.0
            b = -np.trace(a)
            c = 0.5 * (np.trace(a) ** 2 - np.trace(a @ a))
            d = -det3(a)
            d2 = 18 * b * c * d - 4 * b**3 * d + b**2 * c**2 - 4 * c**3 - 27 * d**2
            assert abs(d1 - d2) <= 1e-9 * max(1.0, abs(d1), abs(d2))


class TestSymInvariants:
    def test_diagonal_example(self):
        inv = sym_invariants(np.array([1.0, 2.0, 3.0]), np.diag([3.0, 2.0, 1.0]))
        assert inv.pX == pytest.approx(49.0 / 196.0)
        assert inv.pY == pytest.approx(36.0 / 2744.0)
        assert inv.pZ == pytest.approx(-720.0 / 38416.0)
        assert (inv.trA, inv.trA2, inv.detA) == (6.0, 14.0, 6.0)

    def test_vandermonde_kills_equal_squares(self):
        inv = sym_invariants(np.array([1.0, 1.0, 1.0]), np.diag([3.0, 2.0, 1.0]))
        assert inv.pZ == 0.0

    def test_errors(self):
        with pytest.raises(DegenerateSpectrum):
            sym_invariants(np.ones(3), np.eye(3))
        with pytest.raises(ZeroVector):
            sym_invariants(np.zeros(3), np.diag([3.0, 2.0, 1.0]))

    def test_rotation_invariance(self):
        rng = np.random.default_rng(15)
        for _ in range(500):
            lam = gapped_eigs(rng, gap=0.1)
            q = haar_so3(rng)
            a = q.T @ np.diag(lam) @ q
            while True:
                v = rng.uniform(-1, 1, size=3)
                if np.linalg.norm(v) > 0.1:
                    break
            r = haar_so3(rng)
            s1 = sym_invariants(v, a).as_tuple()
            s2 = sym_invariants(r @ v, r @ a @ r.T).as_tuple()
            assert rel_dist(s1, s2) < 1e-8

    def test_octahedral_invariance_on_slice(self):
        # On the diagonal slice the six invariants are fixed by the
        # residual signed-permutation rotations.
        lam = np.array([1.7, 0.4, -1.1])
        v = np.array([0.9, -0.5, 0.3])
        ref = sym_invariants(v, np.diag(lam)).as_tuple()
        for g in octahedral_group():
            m = g.matrix().astype(float)
            s = sym_invariants(m @ v, m @ np.diag(lam) @ m.T).as_tuple()
            assert rel_dist(ref, s) < 1e-12


class TestExtremeScale:
    """Scaling A must not overflow the degeneracy test or g^2 / disc: a
    power-of-two scale keeps every bit, any other scale keeps the values."""

    def _state(self):
        q = haar_so3(np.random.default_rng(19))
        return np.array([0.1, -0.7, 0.4]), q.T @ np.diag([3.0, 2.0, 1.0]) @ q

    def _xyz(self, v, a):
        inv = sym_invariants(v, a)
        return [inv.pX, inv.pY, inv.pZ]

    @pytest.mark.parametrize("scale", [2.0**100, 2.0**200])
    def test_power_of_two_scale_is_bitwise(self, scale):
        v, a = self._state()
        assert self._xyz(v, scale * a) == self._xyz(v, a)
        assert r_invariant(v, scale * a) == r_invariant(v, a)
        np.testing.assert_array_equal(sym_canonical(v, scale * a).w, sym_canonical(v, a).w)

    def test_1e60(self):
        v, a = self._state()
        big = 1e60 * a
        assert self._xyz(v, big) == pytest.approx(self._xyz(v, a), rel=1e-12, abs=1e-15)
        assert r_invariant(v, big) == pytest.approx(r_invariant(v, a), rel=1e-12)
        form, ref = sym_canonical(v, big), sym_canonical(v, a)
        np.testing.assert_allclose(np.divide(form.eigs, 1e60), ref.eigs, rtol=1e-14)
        np.testing.assert_allclose(form.w, ref.w, rtol=1e-12, atol=1e-15)

    def test_any_scale_of_v(self):
        # pX, pY have degree 0 in v and pZ degree 1: every power-of-two scale
        # of v keeps pX, pY bit for bit and scales pZ exactly, with no inf,
        # NaN or OverflowError from the degree-9 p4 (before, inf from 2^115).
        v, a = np.array([0.3, -0.7, 1.1]), np.diag([1.0, 2.0, 3.0])
        ref = sym_invariants(v, a)
        for k in range(-30, 1001):
            inv = sym_invariants(2.0**k * v, a)
            assert [inv.pX.hex(), inv.pY.hex()] == [ref.pX.hex(), ref.pY.hex()], k
            assert inv.pZ == 2.0**k * ref.pZ, k

    def test_degeneracy_still_detected(self):
        with pytest.raises(DegenerateSpectrum):
            sym_invariants(np.ones(3), 1e60 * np.diag([2.0, 2.0, 1.0]))
        with pytest.raises(DegenerateSpectrum):
            r_invariant(np.ones(3), 1e300 * np.eye(3))

    @pytest.mark.parametrize("call", [
        lambda: lmm_invariants(1e77 * np.eye(3)),
        lambda: lmm_invariants(1e160 * np.eye(3)),
        lambda: lmm_section_invariants([1e77, 1e77, 1e77]),
        lambda: lmm_section_invariants([1e160, 1e160, 1e160]),
        lambda: sym_invariants([0.1, 0.2, 0.3], 1e160 * np.diag([3.0, 2.0, 1.0])),
        lambda: octahedral_invariants([1e150, 2e150, -1e150]),
        lambda: octahedral_invariants([1e160, 2e160, -1e160]),
        lambda: r_invariant([1e100, 2e100, -1e100], np.diag([1.0, 2.0, 3.0])),
        lambda: r_invariant([1e110, 2e110, -1e110], np.diag([1.0, 2.0, 3.0])),
        lambda: r_invariant([1e160, 2e160, -1e160], np.diag([1.0, 2.0, 3.0])),
        lambda: g_invariant([1e110, 2e110, -1e110], np.diag([1.0, 2.0, 3.0])),
        lambda: g_invariant([1e160, 2e160, -1e160], np.diag([1.0, 2.0, 3.0])),
        lambda: lmm_invariants_jacobian(np.full((3, 3), 1e154) + np.diag([1e154, 0.0, 0.0])),
        lambda: lmm_section_jacobian([1e60, 2e60, 3e60]),
        lambda: det3(np.full((3, 3), 1e200)),
        lambda: det3(np.diag([1e103, 2e103, 3e103])),
    ], ids=["lmm-1e77", "lmm-1e160", "section-1e77", "section-1e160", "sym-A-1e160",
            "octahedral-1e150", "octahedral-1e160", "r-v-1e100", "r-v-1e110", "r-v-1e160",
            "g-v-1e110", "g-v-1e160", "lmm-jacobian-1e154", "section-jacobian-1e60",
            "det3-1e200", "det3-1e103"])
    def test_positive_degree_overflow_is_typed(self, call):
        # t4, s3, tr A^2, det A, p2..p4, g and r overflow at these scales (and
        # v0**2 raised OverflowError at 1e160; r was inf at 1e100, g and r NaN
        # from 1e110; the lmm Jacobian had +-inf and NaN entries at 1e154,
        # the section Jacobian was NaN at 1e60 and det3 NaN at 1e200 and inf
        # at 1e103): a typed error, never inf, NaN or a bare arithmetic
        # error.
        with pytest.raises(NotRepresentable, match="not a finite double"):
            call()


class TestSymGenerators:
    def test_canonical_w_reproduces_sym_invariants_bitwise(self):
        # sym_invariants and sym_canonical rotate v into the eigenbasis by the
        # same fixed-order product, and the canonical w is that R v up to an
        # even sign flip, which pX, pY, pZ must not see, bit for bit: on
        # random states, where a coordinate of w is zero (exactly, or up to
        # the roundoff of the eigenbasis) and on a near-tied spectrum; a zero
        # pZ is +0.0 on both.
        rng = np.random.default_rng(17)
        cases = []
        for _ in range(300):
            q = haar_so3(rng)
            lam = gapped_eigs(rng)
            w = rng.uniform(-1, 1, size=3)
            zeroed = w * (np.arange(3) != rng.integers(3))
            cases += [(q, lam, w), (q, lam, zeroed), (np.eye(3), lam, zeroed),
                      (q, np.array([0.5 + 1e-5, 0.5, -0.3]), w)]
        for q, lam, w in cases:
            a = q @ np.diag(lam) @ q.T
            a = 0.5 * (a + a.T)
            v = q @ w
            ref = hexes(sym_invariants(v, a).as_tuple()[:3])
            form = sym_canonical(v, a)
            for flips in EVEN_SIGN_FLIPS:
                oct_inv = octahedral_invariants(np.array(flips) * form.w)
                assert hexes((oct_inv.X, oct_inv.Y, oct_inv.Z)) == ref


class TestInvariantJacobian:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            c = rng.uniform(-1, 1, size=(3, 3))
            jac = np.asarray(lmm_invariants_jacobian(c))
            h = 1e-6
            for row, pick in ((0, lambda i: i.t2), (1, lambda i: i.t3), (2, lambda i: i.t4)):
                for a in range(3):
                    for b in range(3):
                        cp, cm = c.copy(), c.copy()
                        cp[a, b] += h
                        cm[a, b] -= h
                        fd = (pick(lmm_invariants(cp)) - pick(lmm_invariants(cm))) / (2 * h)
                        assert jac[row, 3 * a + b] == pytest.approx(fd, rel=1e-5, abs=1e-6)

    def test_matches_numpy_form_in_float_hex(self):
        def matmul(a, b):
            # Each entry summed left to right, as linalg._matmul3 sums it.
            return (np.outer(a[:, 0], b[0]) + np.outer(a[:, 1], b[1])) + np.outer(a[:, 2], b[2])

        rng = np.random.default_rng(19)
        for t in range(300):
            c = rng.uniform(-1, 1, size=(3, 3)) * 10.0 ** (t % 7 - 3)
            cof = [[c[(i + 1) % 3, (j + 1) % 3] * c[(i + 2) % 3, (j + 2) % 3]
                    - c[(i + 1) % 3, (j + 2) % 3] * c[(i + 2) % 3, (j + 1) % 3]
                    for j in range(3)] for i in range(3)]
            expected = np.array([2.0 * c.ravel(), np.ravel(cof),
                                 4.0 * matmul(matmul(c, c.T), c).ravel()])
            jac = lmm_invariants_jacobian(c)
            assert hexes(jac) == hexes(expected.tolist())

    def test_generic_rank_three(self):
        rng = np.random.default_rng(18)
        full = 0
        for _ in range(500):
            c = rng.uniform(-1, 1, size=(3, 3))
            sv = np.linalg.svd(lmm_invariants_jacobian(c), compute_uv=False)
            if sv[2] > 1e-8:
                full += 1
        assert full >= 495


class TestRecords:
    def test_field_order(self):
        assert lmm_invariants(np.diag([1.0, 2.0, 3.0])).as_dict() == {
            "t2": 14.0, "t3": 6.0, "t4": 98.0}
        assert list(lmm_section_invariants([1.0, 2.0, 3.0]).as_dict()) == ["s1", "s2", "s3"]
        p = octahedral_invariants([1.0, 2.0, 3.0])
        assert p.as_dict() == {"p1": 14.0, "p2": 49.0, "p3": 36.0, "p4": -720.0,
                               "X": p.X, "Y": p.Y, "Z": p.Z}
        assert list(p.as_dict()) == ["p1", "p2", "p3", "p4", "X", "Y", "Z"]
        inv = sym_invariants([0.3, -0.2, 0.5], np.diag([0.7, 0.2, -0.4]))
        assert list(inv.as_dict()) == ["pX", "pY", "pZ", "trA", "trA2", "detA"]
        assert inv.as_tuple() == tuple(inv.as_dict().values())
