"""Tests for the fixed-size linear algebra kernel."""

import numpy as np
import pytest

from blochinv.errors import NotSymmetric
from blochinv.groups import haar_so3
from blochinv.linalg import (
    dagger,
    det3,
    eig_sym3,
    is_hermitian,
    is_unitary,
    kron22,
    norm_inf,
    rotation_residual,
    signed_svd3,
)


def random_symmetric(rng, scale=1.0):
    a = rng.uniform(-scale, scale, size=(3, 3))
    return 0.5 * (a + a.T)


class TestPredicates:
    def test_dagger(self):
        m = np.array([[1, 2j], [3, 4]], dtype=complex)
        np.testing.assert_array_equal(dagger(m), np.array([[1, 3], [-2j, 4]]))

    def test_hermitian(self):
        assert is_hermitian(np.array([[1.0, 2j], [-2j, 3.0]]))
        assert not is_hermitian(np.array([[1.0, 2j], [2j, 3.0]]))

    def test_unitary(self):
        assert is_unitary(np.eye(2))
        assert is_unitary(np.array([[0, 1], [1, 0]], dtype=complex))
        assert not is_unitary(2.0 * np.eye(2))

    def test_rotation(self):
        assert rotation_residual(np.eye(3)) <= 1e-11
        assert rotation_residual(np.diag([1.0, 1.0, -1.0])) > 1e-11  # reflection

    def test_kron_convention(self):
        # Left factor is the slow index: (A x B)[2a+c, 2b+d] = A[a,b] B[c,d]
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        b = np.array([[5, 6], [7, 8]], dtype=complex)
        k = kron22(a, b)
        assert k[0, 0] == 5 and k[2, 0] == 15 and k[1, 3] == 2 * 8

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
            recon = eig.rotation @ a @ eig.rotation.T - np.diag(eig.eigenvalues)
            assert norm_inf(recon) <= 1e-10 * scale
            assert norm_inf(eig.rotation.T @ eig.rotation - np.eye(3)) <= 1e-12
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
                recon = eig.rotation @ a @ eig.rotation.T - np.diag(eig.eigenvalues)
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
                assert norm_inf(eig.rotation.T @ eig.rotation - np.eye(3)) <= 1e-12
                recon = eig.rotation @ a @ eig.rotation.T - np.diag(eig.eigenvalues)
                assert norm_inf(recon) <= 1e-10


def hex_matrix(rows):
    return np.array([[float.fromhex(x) for x in row] for row in rows])


def hex_bits(values):
    return [float(x).hex() for x in np.asarray(values).ravel().tolist()]


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
        hex_matrix(DENSE),
        ["0x1.f27640b1850a6p-1", "-0x1.3c6c69e4b5cebp-2", "-0x1.3703cb66d5b67p+0"],
        ["-0x1.b152d65793643p-3", "0x1.7d91584668441p-4", "0x1.f22148a4bda8fp-1",
         "-0x1.49023ee19a8a3p-1", "0x1.793b719ed55c8p-1", "-0x1.aeaf5671191bcp-3",
         "-0x1.790b1543f10b6p-1", "-0x1.56e0a1ec7166ap-1", "-0x1.89560a69779f4p-4"],
    ),
    "near_degenerate": (
        hex_matrix(NEAR),
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
        assert hex_bits(eig.eigenvalues) == eigenvalues
        assert hex_bits(eig.rotation) == rotation
        assert eig.eigenvalues.dtype == eig.rotation.dtype == np.float64

    def test_near_degenerate_spectrum(self):
        lam = eig_sym3(hex_matrix(NEAR)).eigenvalues
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


class TestSignedSVD3:
    def test_identity(self):
        svd = signed_svd3(np.eye(3))
        np.testing.assert_array_equal(svd.diag, np.ones(3))
        np.testing.assert_allclose(svd.left, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(svd.right, np.eye(3), atol=1e-15)

    def test_diagonal_sign_convention(self):
        svd = signed_svd3(np.diag([1.0, -1.0, 1.0]))
        np.testing.assert_allclose(svd.diag, [1.0, 1.0, -1.0], atol=1e-15)
        recon = svd.left @ np.diag(svd.diag) @ svd.right.T
        np.testing.assert_allclose(recon, np.diag([1.0, -1.0, 1.0]), atol=1e-14)

    def test_zero_and_rank_deficient(self):
        svd = signed_svd3(np.zeros((3, 3)))
        np.testing.assert_array_equal(svd.diag, np.zeros(3))
        assert rotation_residual(svd.left) <= 1e-11 and rotation_residual(svd.right) <= 1e-11

        c = np.diag([2.0, 0.0, 0.0])
        svd = signed_svd3(c)
        np.testing.assert_allclose(svd.diag, [2.0, 0.0, 0.0], atol=1e-15)
        recon = svd.left @ np.diag(svd.diag) @ svd.right.T
        assert norm_inf(recon - c) <= 1e-14

        rank2 = np.outer([1.0, 2.0, 3.0], [0.5, -1.0, 2.0])
        svd = signed_svd3(rank2)
        recon = svd.left @ np.diag(svd.diag) @ svd.right.T
        assert norm_inf(recon - rank2) <= 1e-10 * max(1.0, norm_inf(rank2))

    def test_properties_random(self):
        rng = np.random.default_rng(6)
        for _ in range(2000):
            c = rng.uniform(-1, 1, size=(3, 3))
            svd = signed_svd3(c)
            scale = max(1.0, norm_inf(c))
            recon = svd.left @ np.diag(svd.diag) @ svd.right.T
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
            recon = svd.left @ np.diag(svd.diag) @ svd.right.T
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
        np.testing.assert_allclose(svd.diag / scale, ref.diag, rtol=1e-14, atol=0)
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
                recon = svd.left @ np.diag(svd.diag) @ svd.right.T
                assert norm_inf(recon - c) <= 1e-10 * scale
                assert rotation_residual(svd.left) <= 1e-11
                assert rotation_residual(svd.right) <= 1e-11
                out = svd.diag
                assert out[0] >= out[1] >= abs(out[2])
                assert out[0] >= 0.0 and out[1] >= 0.0
                dc = det3(c)
                if abs(dc) > 1e-12 * scale**3:
                    assert np.sign(out[0] * out[1] * out[2]) == np.sign(dc)
