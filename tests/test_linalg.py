"""Tests for the fixed-size linear algebra kernel."""

import itertools
import math
import warnings

import numpy as np
import pytest

from blochinv import linalg, states
from blochinv.errors import NotRepresentable, NotSymmetric
from blochinv.groups import haar_so3, random_state
from blochinv.linalg import (
    JACOBI_MAX_SWEEPS,
    JACOBI_ORTH_FACTOR,
    SignedSVD3,
    _finite,
    _jacobi_rotation,
    _matmul3,
    _matvec3,
    _pow2_floor,
    _rows3,
    _transpose,
    det3,
    eig_sym3,
    rotation_residual,
    signed_svd3,
)
from blochinv.states import (
    PAULI,
    StateClass,
    bell_projector,
    bloch_of,
    partial_trace,
    validate_density,
)
from blochinv.verify import norm_inf
from pins import fromhex, hex_list, hexes


def random_symmetric(rng, scale=1.0):
    a = rng.uniform(-scale, scale, size=(3, 3))
    return 0.5 * (a + a.T)


class TestPredicates:
    def test_rotation(self):
        assert rotation_residual(np.eye(3)) <= 1e-11
        assert rotation_residual(np.diag([1.0, 1.0, -1.0])) > 1e-11  # reflection
        # The battery folds the residual through _worst: NaN and inf must
        # reach it, not an error, so that a check on a non-finite matrix fails.
        assert np.isnan(rotation_residual(np.full((3, 3), np.nan)))
        assert rotation_residual(1e200 * np.eye(3)) == math.inf
        assert rotation_residual([[10**400, 0, 0], [0, 1, 0], [0, 0, 1]]) == math.inf

    def test_rotation_residual_of_inf_entry_is_non_finite_without_warning(self):
        # R^T R is formed on Python floats: inf * 0 gives NaN there, not a
        # numpy "invalid value encountered in matmul" warning.
        r = np.eye(3)
        r[0, 1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not np.isfinite(rotation_residual(r))

    def test_rotation_residual_is_the_product_form(self):
        # The straight-line residual against the _matmul3 form it replaced,
        # in float.hex, on Haar rotations, near-rotations and non-finite ones.
        def reference(r):
            rows = [list(map(float, row)) for row in r.tolist()]
            gram = _matmul3(list(zip(*rows)), rows)
            return linalg._worst([abs(x - float(i == j)) for i, row in enumerate(gram)
                                  for j, x in enumerate(row)]
                                 + [abs(linalg._det3_rows(*rows) - 1.0)])

        rng = np.random.default_rng(29)
        for k in range(300):
            r = haar_so3(rng) * (1.0 + 1e-9 * (k % 3))
            if k % 10 == 9:
                r[k % 3, (k // 3) % 3] = (np.nan, np.inf, -np.inf)[k % 3]
            assert rotation_residual(r).hex() == reference(r).hex()
            assert rotation_residual(r.tolist()).hex() == reference(r).hex()

    @pytest.mark.parametrize("r, got", [
        ([[1, 0, 0], [0, 1, 0], [0, 0]], r"shape \(3, 3\), got \(3, ragged\)"),
        ([[1, 0], [0, 1]], r"shape \(3, 3\), got \(2, 2\)"),
        (np.eye(4), r"shape \(3, 3\), got \(4, 4\)"),
        (1.0, r"shape \(3, 3\), got \(\)"),
        ([[1, 0, 0], [0, 1, 0], [0, 0, "x"]], r"real number entries, got shape \(3, 3\)"),
        ([[10**400, 0, 0], [0, 1, 0], [0, 0, None]], r"real number entries, got shape \(3, 3\)"),
        # Strings unpack, but a string row is not a row.
        (["100", "010", "001"], r"shape \(3, 3\), got \(3,\)"),
    ], ids=["ragged", "2x2", "4x4", "scalar", "string", "huge-int-then-none", "string-rows"])
    def test_rotation_residual_names_its_input(self, r, got):
        with pytest.raises(ValueError, match=f"^rotation_residual input must have {got}$"):
            rotation_residual(r)

    def test_kron_convention(self):
        # Left factor is the slow index:
        # kron(PAULI[i], PAULI[j])[2a+c, 2b+d] = PAULI[i][a][b] PAULI[j][c][d].
        for i, j, a, b, c, d in itertools.product(range(4), range(4), *[range(2)] * 4):
            kron = np.kron(PAULI[i], PAULI[j])
            assert kron[2 * a + c, 2 * b + d] == PAULI[i][a][b] * PAULI[j][c][d]

    @pytest.mark.parametrize("a", [
        np.array([[0.5, -2.0, 1e-300], [3.0, -0.0, -7.25], [1e300, -1e-5, 2.0]]),
        np.array([[1 + 2j, -3j], [0.5, -4 - 0.25j]]),
        np.zeros((0, 3)),
    ], ids=["real", "complex", "empty"])
    def test_norm_inf_matches_np_max(self, a):
        expected = float(np.max(np.abs(a))) if a.size else 0.0
        assert norm_inf(a).hex() == expected.hex()

    def test_det3_matches_numpy(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = rng.uniform(-2, 2, size=(3, 3))
            assert abs(det3(m) - np.linalg.det(m)) < 1e-12 * max(1.0, abs(det3(m)))


class TestEigSym3:
    def test_zero_matrix(self):
        eig = eig_sym3(np.zeros((3, 3)))
        np.testing.assert_array_equal(eig.eigenvalues, np.zeros(3))
        np.testing.assert_array_equal(eig.rotation, np.eye(3))

    def test_already_diagonal(self):
        eig = eig_sym3(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_array_equal(eig.eigenvalues, [3.0, 2.0, 1.0])
        np.testing.assert_array_equal(eig.rotation, np.eye(3))

    def test_diagonal_needs_sorting(self):
        eig = eig_sym3(np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(eig.eigenvalues, [3.0, 2.0, 1.0])
        # Rotation is a signed permutation with determinant +1.
        assert rotation_residual(eig.rotation) == 0.0

    def test_block_example(self):
        # Eigenvalues of [[2,1,0],[1,2,0],[0,0,5]] are 5, 3, 1 by the
        # factorization of the 2x2 block plus the decoupled axis.
        a = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 5.0]])
        eig = eig_sym3(a)
        np.testing.assert_allclose(eig.eigenvalues, [5.0, 3.0, 1.0], atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            eig_sym3(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))

    def test_properties_random(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            a = random_symmetric(rng)
            eig = eig_sym3(a)
            scale = max(1.0, norm_inf(a))
            r = np.asarray(eig.rotation)
            recon = r @ a @ r.T - np.diag(eig.eigenvalues)
            assert norm_inf(recon) <= 1e-10 * scale
            assert norm_inf(r.T @ r - np.eye(3)) <= 1e-12
            assert abs(det3(eig.rotation) - 1.0) <= 1e-12
            assert eig.eigenvalues[0] >= eig.eigenvalues[1] >= eig.eigenvalues[2]

    def test_eigenvalues_match_numpy(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            a = random_symmetric(rng)
            mine = eig_sym3(a).eigenvalues
            ref = np.linalg.eigvalsh(a)[::-1]
            np.testing.assert_allclose(mine, ref, atol=1e-12)

    def test_deterministic(self):
        a = random_symmetric(np.random.default_rng(5))
        e1 = eig_sym3(a)
        e2 = eig_sym3(a)
        np.testing.assert_array_equal(e1.eigenvalues, e2.eigenvalues)
        np.testing.assert_array_equal(e1.rotation, e2.rotation)

    def test_scale_robustness(self):
        # Tolerances are relative, so extreme but finite scales still meet
        # the reconstruction contract.
        rng = np.random.default_rng(8)
        for scale in (1e-8, 1e-3, 1e3, 1e8):
            for _ in range(50):
                a = random_symmetric(rng, scale=scale)
                eig = eig_sym3(a)
                r = np.asarray(eig.rotation)
                recon = r @ a @ r.T - np.diag(eig.eigenvalues)
                assert norm_inf(recon) <= 1e-10 * max(1.0, norm_inf(a))
                assert abs(det3(eig.rotation) - 1.0) <= 1e-12

    def test_near_degenerate_still_orthogonal(self):
        rng = np.random.default_rng(9)
        for gap in (1e-6, 1e-10, 1e-14):
            for _ in range(50):
                lam = np.array([1.0 + gap, 1.0, -0.5])
                q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
                a = q @ np.diag(lam) @ q.T
                a = 0.5 * (a + a.T)
                eig = eig_sym3(a)
                r = np.asarray(eig.rotation)
                assert norm_inf(r.T @ r - np.eye(3)) <= 1e-12
                recon = r @ a @ r.T - np.diag(eig.eigenvalues)
                assert norm_inf(recon) <= 1e-10


# Inputs and outputs are float.hex strings, so the pins do not depend on the
# platform's random streams or BLAS. DENSE is random_symmetric from
# default_rng(11); NEAR is R diag(1 + 1e-12, 1, -0.5) R^T for the rotation R
# of the quaternion (1, 2, 3, 4) / sqrt(30). The expected bits are those of
# the earlier numpy-scalar kernel, which this one must reproduce exactly.
DENSE = [
    ["-0x1.7c5817bf76fcep-1", "-0x1.e35ca711f6868p-2", "-0x1.4ff47ba772e86p-2"],
    ["-0x1.e35ca711f6868p-2", "-0x1.688610820ed84p-1", "0x1.db034cfe372e0p-5"],
    ["-0x1.4ff47ba772e86p-2", "0x1.db034cfe372e0p-5", "0x1.cb169d33048b4p-1"],
]
NEAR = [
    ["0x1.8bf258bf2974cp-3", "-0x1.777777777871ap-1", "-0x1.2c5f92c5fb20cp-3"],
    ["-0x1.777777777871ap-1", "0x1.555555555749ap-2", "-0x1.111111110f1cbp-3"],
    ["-0x1.2c5f92c5fb20cp-3", "-0x1.111111110f1cbp-3", "0x1.f258bf258c30fp-1"],
]
PINNED_EIG_SYM3 = {
    "diag123": (
        np.diag([1.0, 2.0, 3.0]),
        ["0x1.8000000000000p+1", "0x1.0000000000000p+1", "0x1.0000000000000p+0"],
        ["0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0",
         "0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0",
         "-0x1.0000000000000p+0", "-0x0.0p+0", "-0x0.0p+0"],
    ),
    "dense": (
        fromhex(DENSE),
        ["0x1.f27640b1850a6p-1", "-0x1.3c6c69e4b5cebp-2", "-0x1.3703cb66d5b67p+0"],
        ["-0x1.b152d65793643p-3", "0x1.7d91584668441p-4", "0x1.f22148a4bda8fp-1",
         "-0x1.49023ee19a8a3p-1", "0x1.793b719ed55c8p-1", "-0x1.aeaf5671191bcp-3",
         "-0x1.790b1543f10b6p-1", "-0x1.56e0a1ec7166ap-1", "-0x1.89560a69779f4p-4"],
    ),
    "near_degenerate": (
        fromhex(NEAR),
        ["0x1.0000000001197p+0", "0x1.0000000000001p+0", "-0x1.fffffffffffffp-2"],
        ["-0x1.5554bb357903cp-1", "0x1.5553d40ac72d8p-1", "0x1.555dc2e06b63ap-2",
         "0x1.111d1b479c6ccp-3", "-0x1.555b5a6e91280p-2", "0x1.dddc5c91f3ce8p-1",
         "0x1.7777777777777p-1", "0x1.5555555555555p-1", "0x1.1111111111111p-3"],
    ),
}


class TestEigSym3Pinned:
    @pytest.mark.parametrize("name", sorted(PINNED_EIG_SYM3))
    def test_bits(self, name):
        a, eigenvalues, rotation = PINNED_EIG_SYM3[name]
        eig = eig_sym3(a)
        assert hex_list(eig) == eigenvalues + rotation
        assert all(type(x) is float for x in eig.eigenvalues + sum(eig.rotation, []))

    def test_near_degenerate_spectrum(self):
        lam = eig_sym3(fromhex(NEAR)).eigenvalues
        np.testing.assert_allclose(lam, [1.0 + 1e-12, 1.0, -0.5], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("pos", [(0, 0), (1, 2), (2, 1)])
    def test_non_finite_raises_value_error(self, bad, pos):
        a = np.diag([3.0, 2.0, 1.0])
        a[pos] = bad
        with pytest.raises(ValueError, match="NaN or Inf"):
            eig_sym3(a)

    @pytest.mark.parametrize("scale", [0.5, 2.0, 1e6])
    @pytest.mark.parametrize("pos", [(0, 1), (0, 2), (2, 1)])
    def test_symmetry_tolerance_boundary(self, scale, pos):
        # The precondition is |a - a^T|_inf <= 1e-12 * max(1, |a|_inf),
        # inclusive; one ulp beyond it is rejected.
        bound = 1e-12 * max(1.0, scale)
        a = np.diag([scale, 0.25, -0.25])
        a[pos] = bound
        eig_sym3(a)
        a[pos] = np.nextafter(bound, 1.0)
        with pytest.raises(NotSymmetric):
            eig_sym3(a)


class TestKernelScaling:
    """Both kernels read their input divided by a power of two: eig_sym3 is
    exactly equivariant under powers of two, and any finite input whose
    eigenvalues or singular values are finite doubles gives them, any
    other raises NotRepresentable, never inf or NaN."""

    # Eigenvalues +-sqrt(1.25) 1e308 and 1: the unscaled symmetrization
    # and Jacobi angle overflowed to [inf, 1.0, -inf].
    NEAR_TOP = [[1e308, 5e307, 0.0], [5e307, -1e308, 0.0], [0.0, 0.0, 1.0]]

    def test_eig_sym3_spectrum_near_top(self):
        eig = eig_sym3(self.NEAR_TOP)
        top = 1e308 * np.sqrt(1.25)
        np.testing.assert_allclose(eig.eigenvalues, [top, 1.0, -top], rtol=1e-15, atol=0)
        assert rotation_residual(eig.rotation) <= 1e-15

    @pytest.mark.parametrize("k", [-1000, -500, 500, 1000])
    def test_eig_sym3_power_of_two_equivariant_in_float_hex(self, k):
        # Near-tied spectra included: at 2^-1000 their gaps are subnormal
        # unless the kernel divides the entries first.
        rng = np.random.default_rng(14)
        for t in range(100):
            a = random_symmetric(rng)
            if t % 2:
                q = haar_so3(rng)
                a = q @ np.diag([0.5, 0.5 + 1e-9 * rng.uniform(), -0.3]) @ q.T
            eig, scaled = eig_sym3(a), eig_sym3(2.0 ** k * a)
            assert hexes(scaled) == hexes(([2.0 ** k * x for x in eig.eigenvalues], eig.rotation))

    @pytest.mark.parametrize("k", [-1000, -500, 500, 1000])
    def test_signed_svd3_power_of_two_equivariant_in_float_hex(self, k):
        # Gaussian and graded inputs: the kernel reads C divided by a power
        # of two, so both factors keep their bits and diag scales exactly.
        rng = np.random.default_rng(15)
        for t in range(100):
            c = rng.standard_normal((3, 3))
            if t % 2:
                sigma = 10.0 ** rng.uniform(-12.0, -2.0)
                c = haar_so3(rng) @ np.diag([1.0, sigma, -0.3 * sigma]) @ haar_so3(rng).T
            svd, scaled = signed_svd3(c), signed_svd3(2.0 ** k * c)
            assert hexes(scaled) == hexes((svd.left, svd.right, [2.0 ** k * x for x in svd.diag]))

    def test_eig_sym3_spectrum_beyond_range_raises(self):
        # Eigenvalues +-1.98e308.
        with pytest.raises(NotRepresentable, match="eigenvalue"):
            eig_sym3([[1.4e308, 1.4e308, 0.0], [1.4e308, -1.4e308, 0.0], [0.0, 0.0, 1.0]])

    def test_signed_svd3_singular_value_beyond_range_raises(self):
        # The largest singular value is 3 * 1.7e308; the others are 0.
        with pytest.raises(NotRepresentable, match="singular value"):
            signed_svd3([[1.7e308] * 3] * 3)


class TestSignedSVD3:
    def test_identity(self):
        svd = signed_svd3(np.eye(3))
        np.testing.assert_array_equal(svd.diag, np.ones(3))
        np.testing.assert_allclose(svd.left, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(svd.right, np.eye(3), atol=1e-15)

    def test_diagonal_sign_convention(self):
        svd = signed_svd3(np.diag([1.0, -1.0, 1.0]))
        np.testing.assert_allclose(svd.diag, [1.0, 1.0, -1.0], atol=1e-15)
        recon = np.asarray(svd.left) @ np.diag(svd.diag) @ np.transpose(svd.right)
        np.testing.assert_allclose(recon, np.diag([1.0, -1.0, 1.0]), atol=1e-14)

    def test_zero_and_rank_deficient(self):
        svd = signed_svd3(np.zeros((3, 3)))
        np.testing.assert_array_equal(svd.diag, np.zeros(3))
        assert rotation_residual(svd.left) <= 1e-11 and rotation_residual(svd.right) <= 1e-11

        c = np.diag([2.0, 0.0, 0.0])
        svd = signed_svd3(c)
        np.testing.assert_allclose(svd.diag, [2.0, 0.0, 0.0], atol=1e-15)
        recon = np.asarray(svd.left) @ np.diag(svd.diag) @ np.transpose(svd.right)
        assert norm_inf(recon - c) <= 1e-14

        rank2 = np.outer([1.0, 2.0, 3.0], [0.5, -1.0, 2.0])
        svd = signed_svd3(rank2)
        recon = np.asarray(svd.left) @ np.diag(svd.diag) @ np.transpose(svd.right)
        assert norm_inf(recon - rank2) <= 1e-10 * max(1.0, norm_inf(rank2))

    def test_properties_random(self):
        rng = np.random.default_rng(6)
        for _ in range(2000):
            c = rng.uniform(-1, 1, size=(3, 3))
            svd = signed_svd3(c)
            scale = max(1.0, norm_inf(c))
            recon = np.asarray(svd.left) @ np.diag(svd.diag) @ np.transpose(svd.right)
            assert norm_inf(recon - c) <= 1e-10 * scale
            assert rotation_residual(svd.left) <= 1e-11
            assert rotation_residual(svd.right) <= 1e-11
            d = svd.diag
            assert d[0] >= d[1] >= abs(d[2]) and d[0] >= 0.0 and d[1] >= 0.0
            dc = det3(c)
            if abs(dc) > 1e-12:
                assert np.sign(d[0] * d[1] * d[2]) == np.sign(dc)

    def test_singular_values_match_numpy(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            c = rng.uniform(-1, 1, size=(3, 3))
            mine = np.abs(signed_svd3(c).diag)
            ref = np.linalg.svd(c, compute_uv=False)
            np.testing.assert_allclose(np.sort(mine)[::-1], ref, atol=1e-11)

    @pytest.mark.parametrize("d3_sign", [1.0, -1.0])
    def test_graded_spectra(self, d3_sign):
        # diag(1, s, +-0.3 s) with s log-uniform down to 1e-12: the small
        # singular values are resolved to absolute accuracy, not lost in
        # roundoff of the large one.
        rng = np.random.default_rng(11)
        for _ in range(500):
            sigma = 10.0 ** rng.uniform(-12.0, 0.0)
            c = haar_so3(rng) @ np.diag([1.0, sigma, d3_sign * 0.3 * sigma]) @ haar_so3(rng).T
            svd = signed_svd3(c)
            scale = max(1.0, norm_inf(c))
            recon = np.asarray(svd.left) @ np.diag(svd.diag) @ np.transpose(svd.right)
            assert norm_inf(recon - c) <= 1e-10 * scale
            ref = np.linalg.svd(c, compute_uv=False)
            assert norm_inf(np.abs(svd.diag) - ref) <= 1e-14 * scale
            assert rotation_residual(svd.left) <= 1e-11
            assert rotation_residual(svd.right) <= 1e-11
            d = svd.diag
            assert d[0] >= d[1] >= abs(d[2]) and d[1] >= 0.0
            assert np.sign(d[2]) == d3_sign

    @pytest.mark.parametrize("scale", [1e-300, 1e154, 1e200, 1e300])
    def test_extreme_scales(self, scale):
        rng = np.random.default_rng(12)
        base = rng.uniform(-1.0, 1.0, size=(3, 3))
        svd = signed_svd3(scale * base)
        ref = signed_svd3(base)
        np.testing.assert_allclose(np.divide(svd.diag, scale), ref.diag, rtol=1e-14, atol=0)
        np.testing.assert_allclose(svd.left, ref.left, rtol=0, atol=1e-14)
        np.testing.assert_allclose(svd.right, ref.right, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("pos", [(0, 0), (1, 2), (2, 1)])
    def test_non_finite_raises_value_error(self, bad, pos):
        c = np.diag([3.0, 2.0, 1.0])
        c[pos] = bad
        with pytest.raises(ValueError, match="NaN or Inf"):
            signed_svd3(c)

    def test_structured_hostile_inputs(self):
        # Clustered, rank-deficient, graded, unsorted-signed-diagonal and
        # rescaled inputs, each checked against the full contract.
        rng = np.random.default_rng(10)
        spectra = [
            (1.0, 1.0, 1.0),
            (1.0, 1.0, 0.5),
            (1.0, 0.5, 0.5),
            (1.0, 1.0 - 1e-5, 0.3),
            (1.0, 0.5, 1e-4),
            (1.0, 0.5, 0.0),
            (1.0, 0.0, 0.0),
            (0.0, 0.0, 0.0),
            (1.0, 1e-6, 3e-7),
            (1.0, 1e-7, 5e-8),
            (1.0, 1e-9, 1e-9),
            (1.0, 1e-12, 3e-13),
            (1e4, 7.0, 3.0),
            (1e8, 5e7, 2e7),
            (1e-8, 1e-8, 1e-9),
        ]
        for spec_vals in spectra:
            for _ in range(20):
                d = np.array(spec_vals)
                signs = rng.choice([-1.0, 1.0], size=3)
                q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
                q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
                c = q1 @ np.diag(signs * d) @ q2.T
                svd = signed_svd3(c)
                scale = max(1.0, norm_inf(c))
                recon = np.asarray(svd.left) @ np.diag(svd.diag) @ np.transpose(svd.right)
                assert norm_inf(recon - c) <= 1e-10 * scale
                assert rotation_residual(svd.left) <= 1e-11
                assert rotation_residual(svd.right) <= 1e-11
                out = svd.diag
                assert out[0] >= out[1] >= abs(out[2])
                assert out[0] >= 0.0 and out[1] >= 0.0
                dc = det3(c)
                if abs(dc) > 1e-12 * scale**3:
                    assert np.sign(out[0] * out[1] * out[2]) == np.sign(dc)


# Inputs and outputs as float.hex strings, as for eig_sym3. DENSE_C is
# standard_normal from default_rng(20); GRADED_C is Q1 diag(1, 1e-9, -3e-10)
# Q2^T for two haar_so3 draws from default_rng(21); SIGNED_ZEROS_C has -0.0
# entries, unsorted singular values and det < 0. The expected bits are those
# of the list-based kernel (reference_signed_svd3 below).
DENSE_C = [
    ["-0x1.704ced7a0bb8fp-2", "0x1.34240d2be631ep+0", "0x1.6599262a95b0dp+0"],
    ["0x1.44d97eb85e16dp-2", "0x1.a812cb2bcbd28p-2", "-0x1.f54c8b2f45cbfp-2"],
    ["-0x1.d407a107b0b62p-1", "-0x1.ccfc11809691fp-1", "-0x1.ff326216a10efp-1"],
]
GRADED_C = [
    ["0x1.b1a2c36029d12p-7", "0x1.bf31e8bfa2a3bp-3", "-0x1.9838e4adc174dp-3"],
    ["-0x1.aca0249fb6b0ep-6", "-0x1.ba072d7a8bf09p-2", "0x1.93816fc4a6b79p-2"],
    ["-0x1.1495eb1b7beacp-5", "-0x1.1d3be9b8bfed5p-1", "0x1.046047a46d95ap-1"],
]
SIGNED_ZEROS_C = [["-0x1p+0", "-0x0p+0", "0x0p+0"], ["-0x0p+0", "0x1p+1", "0x0p+0"],
                  ["0x0p+0", "0x0p+0", "-0x0p+0"]]
PINNED_SIGNED_SVD3 = {
    "dense": (
        DENSE_C,
        ["0x1.8d63e05782b9dp-1", "-0x1.132ee5cd76034p-1", "0x1.51a276b7a2e98p-2",
         "-0x1.a56526538da08p-6", "0x1.fb62b0c69d8a9p-2", "0x1.bc88bb5f59831p-1",
         "-0x1.429205c0b0082p-1", "-0x1.5d5e47ab38d86p-1", "0x1.7ba739242319fp-2"],
        ["0x1.011de5b38786bp-3", "0x1.e0cd2e5b237d0p-1", "-0x1.47abd79e224fbp-2",
         "0x1.4c0d343864c43p-1", "0x1.54c908d6e0dccp-3", "0x1.7c4c8bd70ebbep-1",
         "0x1.806342e7d981cp-1", "-0x1.33ff31ab8938bp-2", "-0x1.2d1f455b2dca5p-1"],
        ["0x1.263d8e5c08884p+1", "0x1.099805074bd85p+0", "0x1.23526484e4e9cp-1"],
    ),
    "graded": (
        GRADED_C,
        ["0x1.2f0d704adce4ep-2", "-0x1.aef746cc29a9ep-1", "0x1.ce64fe07e799ep-2",
         "-0x1.2b8d0eb8dfddap-1", "0x1.b62a5ae69dd82p-3", "0x1.90845b8b57e18p-1",
         "-0x1.82976cd4326a8p-1", "-0x1.fb9835d619d79p-2", "-0x1.b771e26d2c00fp-2"],
        ["0x1.6e4f07b49ca0ep-5", "0x1.5a3e0253aff16p-1", "0x1.787a88d6fbc77p-1",
         "0x1.79c33c22c75e6p-1", "0x1.e540f5707bbb3p-2", "-0x1.ec39d67b74791p-2",
         "-0x1.58d744cc96d4cp-1", "0x1.20c7133a9337ep-1", "-0x1.e93a9a9a28c86p-2"],
        ["0x1.fffffffffffffp-1", "0x1.12e0be3a5fd04p-30", "-0x1.49da7e51dd78ap-32"],
    ),
    "signed_zeros": (
        SIGNED_ZEROS_C,
        ["0x0.0p+0", "-0x1.0000000000000p+0", "0x0.0p+0",
         "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
         "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0"],
        ["0x0.0p+0", "0x1.0000000000000p+0", "-0x0.0p+0",
         "0x1.0000000000000p+0", "0x0.0p+0", "-0x0.0p+0",
         "0x0.0p+0", "0x0.0p+0", "-0x1.0000000000000p+0"],
        ["0x1.0000000000000p+1", "0x1.0000000000000p+0", "0x0.0p+0"],
    ),
}


class TestSignedSVD3Pinned:
    @pytest.mark.parametrize("name", sorted(PINNED_SIGNED_SVD3))
    def test_bits(self, name):
        c, left, right, diag = PINNED_SIGNED_SVD3[name]
        svd = signed_svd3(fromhex(c))
        assert hex_list(svd) == left + right + diag
        assert all(type(x) is float for x in svd.diag + sum(svd.left + svd.right, []))


def reference_signed_svd3(c):
    """signed_svd3 as it was written over lists of columns, kept as the
    oracle of the straight-line kernel: the same operations in the same
    order, so the two agree in float.hex."""
    rows, norm = _rows3(c, "signed_svd3 input")
    scale = _pow2_floor(norm)

    # Columns of A = C V / scale and of V.
    a = [[rows[0][j] / scale, rows[1][j] / scale, rows[2][j] / scale] for j in range(3)]
    v = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    sq = [x * x + y * y + z * z for x, y, z in a]  # squared column norms
    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = False
        for p, q in ((0, 1), (0, 2), (1, 2)):
            ap0, ap1, ap2 = a[p]
            aq0, aq1, aq2 = a[q]
            gamma = ap0 * aq0 + ap1 * aq1 + ap2 * aq2
            if abs(gamma) <= JACOBI_ORTH_FACTOR * math.sqrt(sq[p] * sq[q]):
                continue
            rotated = True
            _, cs, sn = _jacobi_rotation(sq[p], sq[q], gamma)
            x, y, z = a[p] = [cs * ap0 - sn * aq0, cs * ap1 - sn * aq1, cs * ap2 - sn * aq2]
            sq[p] = x * x + y * y + z * z
            x, y, z = a[q] = [sn * ap0 + cs * aq0, sn * ap1 + cs * aq1, sn * ap2 + cs * aq2]
            sq[q] = x * x + y * y + z * z
            vp0, vp1, vp2 = v[p]
            vq0, vq1, vq2 = v[q]
            v[p] = [cs * vp0 - sn * vq0, cs * vp1 - sn * vq1, cs * vp2 - sn * vq2]
            v[q] = [sn * vp0 + cs * vq0, sn * vp1 + cs * vq1, sn * vp2 + cs * vq2]
        if not rotated:
            break

    order = sorted(range(3), key=lambda k: -sq[k])
    v, a = [v[k] for k in order], [a[k] for k in order]
    # V is orthogonal, so any method gives the sign of det V; a reflection
    # moves onto the last column of A.
    if np.linalg.det(v) < 0.0:
        v[2], a[2] = [-x for x in v[2]], [-x for x in a[2]]

    # Givens QR of A, on its rows; qt accumulates Q^T.
    r = _transpose(a)
    qt = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for i, j, k in ((0, 1, 0), (0, 2, 0), (1, 2, 1)):
        h = math.hypot(r[i][k], r[j][k])
        if h == 0.0:
            continue
        cs = r[i][k] / h
        sn = r[j][k] / h
        for m in (r, qt):
            mi, mj = m[i], m[j]
            m[i] = [cs * x + sn * y for x, y in zip(mi, mj)]
            m[j] = [cs * y - sn * x for x, y in zip(mi, mj)]

    diag = _finite("signed_svd3", [scale * math.sqrt(sq[k]) for k in order], "a singular value")
    if r[2][2] < 0.0:
        diag[2] = -diag[2]
    return SignedSVD3(left=_transpose(qt), right=_transpose(v), diag=diag)


def _oracle_input(family, rng):
    """One 3x3 input of the named family, as a float64 array."""
    if family == "gaussian":
        return rng.standard_normal((3, 3))
    if family == "power_of_two":
        return 2.0 ** int(rng.integers(-1000, 1001)) * rng.standard_normal((3, 3))
    if family == "graded":
        sigma = 10.0 ** rng.uniform(-12.0, -2.0)
        d3 = rng.choice([-0.3, 0.3]) * sigma
        return haar_so3(rng) @ np.diag([1.0, sigma, d3]) @ haar_so3(rng).T
    if family == "tied":
        a, b = rng.uniform(0.1, 2.0, size=2)
        d = np.array([a, a, b] if rng.uniform() < 0.5 else [a, a, a])
        d = d * rng.choice([-1.0, 1.0], size=3)
        return haar_so3(rng) @ np.diag(d) @ haar_so3(rng).T if rng.uniform() < 0.5 else np.diag(d)
    if family == "signed_zero_lines":
        c = rng.standard_normal((3, 3))
        zeros = np.where(rng.uniform(size=(2, 3)) < 0.5, -0.0, 0.0)
        i = int(rng.integers(3))
        if rng.uniform() < 0.5:
            c[i, :] = zeros[0]
        else:
            c[:, i] = zeros[0]
        if rng.uniform() < 0.3:
            c[:, (i + 1) % 3] = zeros[1]
        return c
    if family == "rank_one":
        return np.outer(rng.standard_normal(3), rng.standard_normal(3))
    if family == "small_integers":
        return rng.integers(-3, 4, size=(3, 3)).astype(float)
    if family == "signed_diagonal":
        d = rng.standard_normal(3)
        if rng.uniform() < 0.3:
            d[int(rng.integers(3))] = rng.choice([0.0, -0.0])
        return np.diag(d)
    raise ValueError(family)


ORACLE_FAMILIES = ("gaussian", "power_of_two", "graded", "tied", "signed_zero_lines",
                   "rank_one", "small_integers", "signed_diagonal")


class TestSignedSVD3Oracle:
    @pytest.mark.parametrize("family", ORACLE_FAMILIES)
    def test_matches_list_based_kernel_in_float_hex(self, family):
        # 300 seeded inputs per family, 2,400 in all.
        rng = np.random.default_rng([20, ORACLE_FAMILIES.index(family)])
        for _ in range(300):
            c = _oracle_input(family, rng)
            svd, ref = signed_svd3(c), reference_signed_svd3(c)
            assert hexes(svd) == hexes(ref)


# The comprehension forms of the 3x3 products, the reference of TestProducts.
def reference_matmul3(a, b):
    cols = list(zip(*b))
    return [[x0 * y0 + x1 * y1 + x2 * y2 for y0, y1, y2 in cols] for x0, x1, x2 in a]


def reference_matvec3(a, x):
    y0, y1, y2 = x
    return [x0 * y0 + x1 * y1 + x2 * y2 for x0, x1, x2 in a]


def reference_transpose(a):
    return list(map(list, zip(*a)))


# Entries that make the summation order and the sign of zero show: signed
# zeros, subnormals, overflowing products and their NaN differences.
PRODUCT_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300, 1.0, -1.0)


def product_rows(rng):
    """3x3 rows of floats: Gaussians times 2^k, k in [-60, 60], with about
    four in ten entries drawn from PRODUCT_SPECIALS."""
    m = rng.standard_normal((3, 3)) * 2.0 ** rng.integers(-60, 61, size=(3, 3))
    special = rng.uniform(size=(3, 3)) < 0.4
    m[special] = rng.choice(PRODUCT_SPECIALS, size=int(special.sum()))
    return m.tolist()


def float_rows(rows):
    """Whether rows is a list of floats or of lists of floats."""
    return type(rows) is list and all(
        type(x) is float or type(x) is list and all(type(y) is float for y in x) for x in rows)


class TestProducts:
    """_matmul3, _matvec3 and _transpose, written out on unpacked entries,
    equal their comprehension forms in float.hex, on the input kinds the
    package passes: lists of lists, lists of zip tuples (a transpose as
    list(zip(*m))) and tuples."""

    @staticmethod
    def _kinds(rows):
        return rows, list(zip(*reference_transpose(rows))), tuple(map(tuple, rows))

    def test_match_comprehension_forms(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            a, b = product_rows(rng), product_rows(rng)
            x = product_rows(rng)[0]
            products = [(_matmul3(ka, kb), reference_matmul3(ka, kb))
                        for ka, kb in itertools.product(self._kinds(a), self._kinds(b))]
            for ka in self._kinds(a):
                products += [(_matvec3(ka, x), reference_matvec3(ka, x)),
                             (_matvec3(ka, tuple(x)), reference_matvec3(ka, x)),
                             (_transpose(ka), reference_transpose(ka))]
            for got, expected in products:
                assert float_rows(got) and hexes(got) == hexes(expected)


def record_bits(record):
    """float.hex of every field of an EigenSym3 or SignedSVD3, in order."""
    assert all(map(float_rows, record))
    return hexes(record)


def scribble(results):
    """Set every number in the lists that results holds to 7.0."""
    for i, x in enumerate(vars(results).values() if hasattr(results, "__dict__") else results):
        if isinstance(x, (float, complex)):
            results[i] = 7.0
        else:
            scribble(x)


# Each memoized body with a read that looks it up once, in float.hex: the
# public kernel, or the density check's rows and table.
MEMO_READS = {
    "eig_sym3": (linalg._eig_body, lambda a: record_bits(eig_sym3(a))),
    "signed_svd3": (linalg._svd_body, lambda c: record_bits(signed_svd3(c))),
    "density": (states._density_body, lambda rho: hexes(states._checked_density(rho))),
}
MEMOS = tuple(MEMO_READS)
POWERS_OF_DENSE = [2.0**k * fromhex(DENSE) for k in (-600, -3, 0, 5, 900)]
# Spectrum (+-1.5 sqrt 2, 1): at 2^1023 the largest value overflows.
OVERFLOWS = np.array([[1.5, 1.5, 0.0], [1.5, -1.5, 0.0], [0.0, 0.0, 1.0]])
# Trace 1 and a correlation 2 * 1.7e308 beyond the double range.
TOP_CORRELATION = [[0.25, 0, 0, 1.7e308], [0, 0.25, 0, 0], [0, 0, 0.25, 0], [1.7e308, 0, 0, 0.25]]
SYMMETRIC_STATE = random_state(StateClass.SYMMETRIC, 5)


class TestMemo:
    """Each memoized body holds its last linalg._MEMO_SIZE distinct inputs,
    keyed on the bytes of the divided entries a kernel body reads, or of
    the 32 doubles of a density's entries. No output bit, error or record
    depends on what a memo holds."""

    @pytest.mark.parametrize("memo", MEMOS)
    def test_bound(self, memo):
        assert MEMO_READS[memo][0].cache_info().maxsize == linalg._MEMO_SIZE <= 16

    # A -0.0 at pos turns a 0.0 of the kernel's result into -0.0, and is the
    # density check's own entry.
    @pytest.mark.parametrize("memo, a, pos", [
        ("eig_sym3", [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]], (1, 1)),
        ("signed_svd3", [[2.0, 0.0, 0.0], [0.0, -1.0, 0.0], [1.0, 0.0, 1.0]], (2, 1)),
        ("density", bell_projector("psi-"), (0, 1)),
    ], ids=MEMOS)
    def test_sign_of_zero_is_part_of_the_key(self, memo, a, pos):
        body, read = MEMO_READS[memo]
        signed = [row[:] for row in a]
        signed[pos[0]][pos[1]] = -signed[pos[0]][pos[1]]
        plus, minus = read(a), read(signed)
        assert plus != minus
        # Each input after the other, the other's result in the memo.
        for _ in range(2):
            assert read(a) == plus and read(signed) == minus
        info = body.cache_info()
        assert (info.misses, info.hits) == (2, 4)

    # Powers of two of one matrix share a kernel entry; an array, its list
    # and its tuple share a density entry.
    @pytest.mark.parametrize("memo, inputs", [
        ("eig_sym3", POWERS_OF_DENSE), ("signed_svd3", POWERS_OF_DENSE),
        ("density", [SYMMETRIC_STATE, SYMMETRIC_STATE.tolist(),
                     tuple(map(tuple, SYMMETRIC_STATE.tolist()))]),
    ], ids=MEMOS)
    def test_equal_keys_share_an_entry(self, memo, inputs):
        body, read = MEMO_READS[memo]
        expected = []
        for x in inputs:
            body.cache_clear()
            expected.append(read(x))
        body.cache_clear()
        for x, bits in reversed(list(zip(inputs, expected))):
            assert read(x) == bits
        info = body.cache_info()
        assert (info.misses, info.hits) == (1, len(inputs) - 1)

    # call raises on bad, which shares a's entry: each call makes its own test.
    @pytest.mark.parametrize("memo, a, call, bad", [
        ("eig_sym3", OVERFLOWS, eig_sym3, 2.0**1023 * OVERFLOWS),
        ("signed_svd3", OVERFLOWS, signed_svd3, 2.0**1023 * OVERFLOWS),
        ("density", TOP_CORRELATION, bloch_of, TOP_CORRELATION),
    ], ids=MEMOS)
    def test_not_representable_on_every_call(self, memo, a, call, bad):
        body, read = MEMO_READS[memo]
        expected = read(a)
        for _ in range(2):
            with pytest.raises(NotRepresentable):
                call(bad)
            assert read(a) == expected
        info = body.cache_info()
        assert (info.misses, info.hits) == (1, 4)

    @pytest.mark.parametrize("memo, calls, x", [
        ("eig_sym3", [eig_sym3], fromhex(DENSE)),
        ("signed_svd3", [signed_svd3], fromhex(NEAR)),
        ("density", [bloch_of, validate_density, states._table,
                     lambda rho: partial_trace(rho, 1)], SYMMETRIC_STATE),
    ], ids=MEMOS)
    def test_returned_results_are_fresh(self, memo, calls, x):
        results = [call(x) for call in calls]
        expected = hexes(results)
        scribble(results)
        assert hexes(results) != expected
        assert hexes([call(x) for call in calls]) == expected
        assert MEMO_READS[memo][0].cache_info().misses == 1

    # Distinct diagonals, so no two inputs share an entry.
    @pytest.mark.parametrize("memo, diagonal", [
        ("eig_sym3", lambda i: [1.0 + i / 64.0, 0.5, 0.25]),
        ("signed_svd3", lambda i: [1.0 + i / 64.0, 0.5, 0.25]),
        ("density", lambda i: [0.25 + i / 256.0, 0.25, 0.25, 0.25 - i / 256.0]),
    ], ids=MEMOS)
    def test_evicts_beyond_the_bound(self, memo, diagonal):
        body, read = MEMO_READS[memo]
        mats = [np.diag(diagonal(i)) for i in range(linalg._MEMO_SIZE + 1)]
        expected = [read(m) for m in mats]
        info = body.cache_info()
        assert (info.misses, info.currsize) == (len(mats), linalg._MEMO_SIZE)
        # The last _MEMO_SIZE inputs are held; the first was evicted.
        for m, bits in reversed(list(zip(mats, expected))):
            assert read(m) == bits
        info = body.cache_info()
        assert (info.hits, info.misses) == (linalg._MEMO_SIZE, len(mats) + 1)


class TestCheckedPair:
    """_rows3 returns a checked (rows, norm) pair, linalg._Checked, that
    unpacks like any pair and holds its rows as tuples, so they cannot
    change; a check of a pair returns it as it is, and _scaled keeps it
    checked."""

    A = [[0.7, 0.1, -0.0], [0.1, 0.2, 0.05], [0.0, 0.05, -0.4]]

    def test_unpacks_and_passes_through(self):
        pair = _rows3(np.array(self.A), "a")
        rows, norm = pair
        assert (rows, norm) == (tuple(map(tuple, self.A)), 0.7) and pair[0] is rows
        assert _rows3(pair, "again") is pair
        assert linalg._sym_rows3(pair, "again") is pair
        assert linalg._scaled(pair, 1.0) is pair

    def test_rows_are_tuples_that_cannot_change(self):
        pair = _rows3(np.array(self.A), "a")
        for rows in (pair[0], linalg._scaled(pair, 2.0)[0]):
            assert type(rows) is tuple and len(rows) == 3
            assert all(type(row) is tuple and len(row) == 3 for row in rows)
            assert all(type(x) is float for row in rows for x in row)
            with pytest.raises(TypeError):
                rows[0][0] = 1.0
            with pytest.raises(TypeError):
                rows[0] = [1.0, 0.0, 0.0]
        assert pair[0][0][0] == 0.7

    def test_symmetry_is_tested_on_a_pair(self):
        pair = _rows3([[1.0, 1e-3, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]], "a")
        with pytest.raises(NotSymmetric):
            linalg._sym_rows3(pair, "a")
        with pytest.raises(NotSymmetric):
            eig_sym3(pair)

    def test_a_plain_pair_is_not_checked(self):
        rows, norm = _rows3(self.A, "a")
        with pytest.raises(ValueError, match=r"shape \(3, 3\)"):
            _rows3((rows, norm), "a")

    def test_scaled_norm_is_the_divided_maximum(self):
        # The quotients A / 2^k for k = 0..1100; a scale is a double, so past
        # 2^1023 the rows carry the rest of 2^-k. Near 2^-1074 the quotients
        # round (the two largest entries differ in their last bit).
        base = [[3.0, -2.9999999999999996, 0.1], [2.0**-30 * 3, -0.75, 1.5],
                [1e-5, 2.9999999999999996, -0.0]]
        subnormal = 0
        for k in range(1101):
            e = min(k, 1023)
            pair = _rows3([[math.ldexp(x, e - k) for x in row] for row in base], "a")
            scaled = linalg._scaled(pair, 2.0**e)
            divided = [[x / 2.0**e for x in row] for row in pair[0]]
            assert type(scaled) is linalg._Checked
            assert hexes(scaled[0]) == hexes(tuple(map(tuple, divided)))
            assert scaled[1].hex() == _rows3(divided, "a")[1].hex()
            subnormal += 0.0 < scaled[1] < 2.0**-1022
        assert subnormal > 40
