"""Seeded verification battery.

Five suites (bloch, lmm, sym, group, orbit) re-derive every identity the
package relies on, at a sample size and seed chosen by the caller. Each
trial draws from its own generator seeded by (seed, suite, trial index),
so results are independent of evaluation order and safe to parallelize;
the seed is any non-negative integer, and distinct seeds seed distinct
generators.
Each check numbers its trials from its own offset within the suite; two
checks' trial streams are disjoint only for samples up to 50,000, since
the closest offsets are 50,000 apart (lmm 400000/450000 and 700000/750000).

A check runs one trial body per generator and folds the trials with
linalg._worst for residuals and with sum for wrong-verdict flags. _worst
returns the first NaN it meets, and every bound is a comparison that NaN
makes false, so a check with a NaN residual fails and reports nan.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import SUITES
from . import invariants as invariants_mod
from . import linalg as linalg_mod
from .groups import (
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
    random_state,
    so3_of_u2,
)
from .invariants import (
    lmm_invariants,
    lmm_invariants_jacobian,
    lmm_positive_cone_check,
    lmm_section_invariants,
    lmm_section_jacobian,
    octahedral_invariants,
    r_invariant,
    sym_invariants,
)
from .linalg import _worst, det3, rotation_residual
from .orbits import (
    Verdict,
    decide_equiv_lmm,
    decide_equiv_sym,
    lmm_canonical,
    sym_canonical,
)
from .states import (
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
)

_IDENTITY = SignedPerm(perm=(0, 1, 2), signs=(1, 1, 1))

_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS3[_i, _j, _k] = 1.0
    _EPS3[_i, _k, _j] = -1.0


def norm_inf(a):
    """Entrywise infinity norm (max absolute entry)."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.abs(a).max())


def rel_dist(a, b):
    """max_i |a_i - b_i| / max(1, |a_i|, |b_i|), the metric of orbits._rel_dist,
    on arrays or nested lists of any shape, flattened; NaN if any entry is
    NaN or infinite."""
    xs, ys = (np.asarray(x, dtype=float).ravel().tolist() for x in (a, b))
    return _worst(abs(x - y) / max(1.0, abs(x), abs(y)) for x, y in zip(xs, ys, strict=True))


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_residual: float
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    samples: int
    seed: int
    checks: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


def _words(n):
    """The 32-bit words of a non-negative integer, least significant first,
    [0] for 0: the words numpy's SeedSequence derives from an int entropy."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & 0xFFFFFFFF]
    n >>= 32
    while n:
        words.append(n & 0xFFFFFFFF)
        n >>= 32
    return words


# The hash of numpy's SeedSequence.generate_state: output word i is pool
# word i mod 4 xored with H[i], times H[i + 1] mod 2^32, then xored with
# itself shifted right by 16 bits, where H[0] = INIT_B and H[i + 1] =
# H[i] MULT_B mod 2^32. H does not depend on the pool.
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_HASH = [_INIT_B]
for _ in range(8):
    _HASH.append(_HASH[-1] * _MULT_B & 0xFFFFFFFF)


def _pcg64_words(pool):
    """SeedSequence.generate_state(4, np.uint64) of a SeedSequence whose
    pool holds the four Python ints pool, on Python ints: eight hashed
    32-bit words, paired little-endian into four 64-bit ones."""
    p0, p1, p2, p3 = pool
    h0, h1, h2, h3, h4, h5, h6, h7, h8 = _HASH
    w0 = (p0 ^ h0) * h1 & 0xFFFFFFFF
    w1 = (p1 ^ h1) * h2 & 0xFFFFFFFF
    w2 = (p2 ^ h2) * h3 & 0xFFFFFFFF
    w3 = (p3 ^ h3) * h4 & 0xFFFFFFFF
    w4 = (p0 ^ h4) * h5 & 0xFFFFFFFF
    w5 = (p1 ^ h5) * h6 & 0xFFFFFFFF
    w6 = (p2 ^ h6) * h7 & 0xFFFFFFFF
    w7 = (p3 ^ h7) * h8 & 0xFFFFFFFF
    return [w0 ^ w0 >> 16 | (w1 ^ w1 >> 16) << 32, w2 ^ w2 >> 16 | (w3 ^ w3 >> 16) << 32,
            w4 ^ w4 >> 16 | (w5 ^ w5 >> 16) << 32, w6 ^ w6 >> 16 | (w7 ^ w7 >> 16) << 32]


class _SeedWords(ISeedSequence):
    """The seed of one PCG64: its generate_state returns the four uint64
    words it was built with, which is all PCG64 asks of a seed sequence."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def trial_rng(seed, suite, trial):
    """Independent generator for one trial, stable under reordering.

    The entropy is the seed's 32-bit words, the suite's index in SUITES and
    the trial's words, each int least significant word first, as one uint32
    array. np.random.SeedSequence mixes it into its pool; the eight hash
    steps of its generate_state(4, np.uint64) run on the pool's Python ints
    (_pcg64_words), and PCG64 is seeded with the four words. The stream is
    that of np.random.default_rng(np.random.SeedSequence([seed, index,
    trial])), without numpy's per-word loop over uint32 scalars.
    """
    entropy = np.array([*_words(seed), SUITES.index(suite), *_words(trial)], dtype=np.uint32)
    words = _pcg64_words(np.random.SeedSequence(entropy).pool.tolist())
    return np.random.Generator(np.random.PCG64(_SeedWords(np.array(words, dtype=np.uint64))))


def _rngs(seed, suite, offset, n):
    """The generators of trials offset, ..., offset + n - 1 of one suite."""
    return (trial_rng(seed, suite, offset + t) for t in range(n))


def _fold(outcomes):
    """Worst residual and wrong-verdict count of (residual, wrong) outcomes."""
    residuals, wrong = zip(*outcomes)
    return _worst(residuals), sum(wrong)


def _gapped_descending(rng, low, high, gap):
    while True:
        x, y, z = sorted(rng.uniform(low, high, size=3).tolist(), reverse=True)
        if x - y > gap and y - z > gap:
            return np.array((x, y, z))


def _generic_spectrum(rng, gap=1e-3, disc=1e-3):
    """Descending eigenvalue triple with both margins of the genericity
    contract: value gaps above gap and squared-gap product above disc
    (the latter guarantees the discriminant gates of the invariant ops)."""
    while True:
        lam = _gapped_descending(rng, -2.0, 2.0, gap)
        d = (lam[0] - lam[1]) * (lam[0] - lam[2]) * (lam[1] - lam[2])
        if d * d > disc:
            return lam


def _generic_symmetric(rng, gap=1e-3, disc=0.0):
    """Random symmetric matrix whose spectrum has the margins of
    _generic_spectrum; the default disc=0.0 bounds the value gaps only."""
    lam = _generic_spectrum(rng, gap=gap, disc=disc)
    r = haar_so3(rng)
    return r.T @ np.diag(lam) @ r


def _generic_vector(rng, floor=0.05):
    while True:
        v = rng.uniform(-1.0, 1.0, size=3)
        x, y, z = v.tolist()
        if abs(x) > floor and abs(y) > floor and abs(z) > floor:
            return v


def _uniform_matrix(rng):
    c = rng.uniform(-1.0, 1.0, size=(3, 3))
    dc = det3(c)
    return c, (np.sign(dc) if abs(dc) > 1e-12 else 0.0)


def _graded_matrix(rng):
    """Rotated diag(1, s, +-0.3 s) with s log-uniform down to 1e-12: the
    small singular values and the sign of det C must survive at absolute
    accuracy."""
    sigma = 10.0 ** rng.uniform(-12.0, 0.0)
    d3 = rng.choice([-0.3, 0.3]) * sigma
    return haar_so3(rng) @ np.diag([1.0, sigma, d3]) @ haar_so3(rng).T, np.sign(d3)


def _signed_svd3_check(name, samples, seed, offset, draw):
    """The signed_svd3 contract on matrices from draw(rng), which returns C
    and the sign det C must have (0 where det C is too small to tell)."""

    def trial(rng):
        c, sign = draw(rng)
        svd = linalg_mod.signed_svd3(c)
        recon = np.asarray(svd.left) @ np.diag(svd.diag) @ np.asarray(svd.right).T - c
        d = svd.diag
        return (norm_inf(recon) / max(1.0, norm_inf(c)),
                _worst((rotation_residual(svd.left), rotation_residual(svd.right))),
                not (d[0] >= d[1] >= abs(d[2]) and d[0] >= 0.0 and d[1] >= 0.0),
                bool(sign and np.sign(d[0] * d[1] * d[2]) != sign))

    recon, rot, order, sign = zip(*map(trial, _rngs(seed, "lmm", offset, samples)))
    recon_res, rot_res, order_bad, sign_bad = _worst(recon), _worst(rot), sum(order), sum(sign)
    passed = recon_res < 1e-10 and rot_res < 1e-11 and sign_bad == 0 and order_bad == 0
    return CheckResult(name, passed, _worst((recon_res, rot_res)),
                       f"{sign_bad} sign, {order_bad} order violations")


def _g_index_sum(v, a):
    """Antisymmetric index-sum oracle for the lifted cubic invariant."""
    return float(np.einsum("ijk,jl,km,mn,i,l,n->", _EPS3, a, a, a, v, v, v))


def _bloch_dist(a, b):
    """Worst entrywise difference of two Bloch matrices."""
    return _worst((norm_inf(np.asarray(a.u) - b.u), norm_inf(np.asarray(a.v) - b.v),
                   norm_inf(np.asarray(a.C) - b.C)))


# ----------------------------------------------------------------- bloch


def _suite_bloch(samples, seed):
    checks = []

    def equivariance(rng):
        u1, u2 = haar_su2(rng), haar_su2(rng)
        b = random_bloch(StateClass.GENERAL, rng)
        lhs = bloch_of(act_density(u1, u2, density_of(b)))
        return _bloch_dist(lhs, act_bloch(so3_of_u2(u1), so3_of_u2(u2), b))

    res = _worst(map(equivariance, _rngs(seed, "bloch", 0, samples)))
    checks.append(CheckResult("equivariance", res < 1e-10, res))

    def roundtrip(t, rng):
        rho = random_state(list(StateClass)[t % 4], rng, positive=(t % 2 == 0))
        b = bloch_of(rho)
        back = density_of(b)
        return _worst((norm_inf(np.asarray(back) - rho) / max(1.0, norm_inf(rho)),
                       _bloch_dist(bloch_of(back), b)))

    res = _worst(roundtrip(t, rng) for t, rng in enumerate(_rngs(seed, "bloch", 100000, samples)))
    checks.append(CheckResult("bloch_roundtrip", res < 1e-12, res))

    def partial_traces(rng):
        rho = density_of(random_bloch(StateClass.GENERAL, rng))
        b = bloch_of(rho)
        return _worst((norm_inf(np.subtract(bloch_vector(partial_trace(rho, 1)), b.u)),
                       norm_inf(np.subtract(bloch_vector(partial_trace(rho, 2)), b.v))))

    res = _worst(map(partial_traces, _rngs(seed, "bloch", 200000, samples)))
    checks.append(CheckResult("partial_trace_consistency", res < 1e-12, res))

    def covering(rng):
        u, w = haar_su2(rng), haar_su2(rng)
        ru, rw = so3_of_u2(u), so3_of_u2(w)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        return _worst((norm_inf(so3_of_u2(u @ w) - ru @ rw), rotation_residual(ru),
                       norm_inf(so3_of_u2(phase * u) - ru)))

    res = _worst(map(covering, _rngs(seed, "bloch", 300000, samples)))
    checks.append(CheckResult("covering_homomorphism", res < 1e-10, res))

    def misclassified(rng):
        return sum(classify(density_of(random_bloch(cls, rng))) is not cls for cls in StateClass)

    n_cls = max(1, samples // 4)
    bad = sum(map(misclassified, _rngs(seed, "bloch", 400000, n_cls)))
    checks.append(
        CheckResult("classification_idempotence", bad == 0, float(bad),
                    f"{bad} misclassified of {4 * n_cls}")
    )

    def correlations(rng):
        rho = random_state(StateClass.GENERAL, rng, positive=True)
        excess = _worst(abs(correlation(rho, i, j)) - 1.0 for i in range(4) for j in range(4))
        return excess, not is_positive(rho)

    res, bad = _fold(map(correlations, _rngs(seed, "bloch", 500000, max(1, samples // 4))))
    checks.append(
        CheckResult("positive_state_correlations", bad == 0 and res < 1e-10, res,
                    f"{bad} non-positive draws")
    )
    return checks


# ------------------------------------------------------------------- lmm


def _suite_lmm(samples, seed):
    checks = []

    def restriction(rng):
        x = rng.uniform(-2.0, 2.0, size=3)
        ti = lmm_invariants(np.diag(x)).as_tuple()
        si = lmm_section_invariants(x).as_tuple()
        return _worst(abs(a - b) for a, b in zip(ti, si))

    res = _worst(map(restriction, _rngs(seed, "lmm", 0, samples)))
    checks.append(CheckResult("diagonal_restriction_exact", res == 0.0, res))

    def jacobian_closed_form(rng):
        x = rng.uniform(-2.0, 2.0, size=3)
        x1, x2, x3 = x
        partials = np.array([[2 * x1, 2 * x2, 2 * x3], [x2 * x3, x1 * x3, x1 * x2],
                             [4 * x1**3, 4 * x2**3, 4 * x3**3]])
        return rel_dist(det3(partials), lmm_section_jacobian(x))

    res = _worst(map(jacobian_closed_form, _rngs(seed, "lmm", 100000, samples)))
    checks.append(CheckResult("section_jacobian_closed_form", res < 1e-9, res))

    def jacobian_finite_diff(rng):
        x = rng.uniform(0.5, 2.0, size=3)
        closed = lmm_section_jacobian(x)
        if abs(closed) < 1.0:
            return 0.0
        h = 1e-5
        fd = np.empty((3, 3))
        for j in range(3):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            sp = np.array(lmm_section_invariants(xp).as_tuple())
            sm = np.array(lmm_section_invariants(xm).as_tuple())
            fd[:, j] = (sp - sm) / (2.0 * h)
        return abs(det3(fd) - closed) / max(1.0, abs(closed))

    res = _worst(map(jacobian_finite_diff, _rngs(seed, "lmm", 200000, min(samples, 50))))
    checks.append(CheckResult("section_jacobian_finite_diff", res < 1e-6, res))

    def rotation_pairs(rng):
        c = rng.uniform(-1.0, 1.0, size=(3, 3))
        r1, r2 = haar_so3(rng), haar_so3(rng)
        return rel_dist(lmm_invariants(r1 @ c @ r2.T).as_tuple(), lmm_invariants(c).as_tuple())

    res = _worst(map(rotation_pairs, _rngs(seed, "lmm", 300000, samples)))
    checks.append(CheckResult("invariance_under_rotation_pairs", res < 1e-9, res))

    def bound_violated(rng):
        inv = lmm_invariants(bloch_of(random_state(StateClass.LMM, rng, positive=True)).C)
        # The cone check covers t2 <= 3 and the t3 bound. The reported
        # upper bound t4 <= -2 t3 + (1 - t2)^2 / 4 is not implied by
        # positivity (C = diag(1, 0, 0) breaks it) and is not asserted here.
        return inv.t2 < -1e-9 or not lmm_positive_cone_check(inv)

    bad = sum(map(bound_violated, _rngs(seed, "lmm", 400000, samples)))
    checks.append(CheckResult("positivity_bounds", bad == 0, float(bad), f"{bad} violations"))

    def cone_mismatch(rng):
        c = rng.uniform(-1.5, 1.5, size=3)
        rho = density_of(BlochMatrix(np.zeros(3), np.zeros(3), np.diag(c)))
        lam_min = float(np.linalg.eigvalsh(rho)[0])
        if abs(lam_min) < 1e-7:
            return False
        return lmm_positive_cone_check(lmm_invariants(np.diag(c))) != (lam_min >= 0.0)

    bad = sum(map(cone_mismatch, _rngs(seed, "lmm", 450000, max(1, samples // 2))))
    checks.append(
        CheckResult("positive_cone_characterization", bad == 0, float(bad),
                    f"{bad} mismatches vs eigenvalue test")
    )

    half = 0.5 * np.eye(2)

    def bell_residual(name):
        rho = bell_projector(name)
        inv = lmm_invariants(bloch_of(rho).C)
        # t2 = 3 and the last two terms: all three positivity bounds saturate.
        return _worst((norm_inf(partial_trace(rho, 1) - half),
                       norm_inf(partial_trace(rho, 2) - half),
                       abs(inv.t2 - 3.0), abs(inv.t3 + 1.0), abs(inv.t4 - 3.0),
                       abs(inv.t3 - 0.5 * (1.0 - inv.t2)),
                       abs(inv.t4 - (-2.0 * inv.t3 + 0.25 * (1.0 - inv.t2) ** 2))))

    res = _worst(map(bell_residual, ("phi+", "phi-", "psi+", "psi-")))
    checks.append(CheckResult("bell_states", res < 1e-12, res))

    def full_rank(rng):
        c = rng.uniform(-1.0, 1.0, size=(3, 3))
        return bool(np.linalg.svd(lmm_invariants_jacobian(c), compute_uv=False)[2] > 1e-8)

    n_rank = min(samples, 1000)
    full = sum(map(full_rank, _rngs(seed, "lmm", 500000, n_rank)))
    frac = full / n_rank
    checks.append(
        CheckResult("invariant_jacobian_rank", frac >= 0.99, 1.0 - frac,
                    f"rank 3 at {full}/{n_rank} points")
    )

    def eig_residuals(rng):
        a = _generic_symmetric(rng, gap=0.0)
        eig = linalg_mod.eig_sym3(a)
        rotation = np.asarray(eig.rotation)
        recon = rotation @ a @ rotation.T - np.diag(eig.eigenvalues)
        return norm_inf(recon) / max(1.0, norm_inf(a)), rotation_residual(eig.rotation)

    recon, orth = zip(*map(eig_residuals, _rngs(seed, "lmm", 600000, samples)))
    recon_res, orth_res = _worst(recon), _worst(orth)
    checks.append(
        CheckResult("kernel_eig_sym3", recon_res < 1e-10 and orth_res < 1e-12,
                    _worst((recon_res, orth_res)),
                    f"reconstruction {recon_res:.1e}, orthogonality {orth_res:.1e}")
    )

    checks.append(_signed_svd3_check("kernel_signed_svd3", samples, seed, 700000,
                                     _uniform_matrix))
    checks.append(_signed_svd3_check("kernel_signed_svd3_graded", samples, seed, 750000,
                                     _graded_matrix))
    return checks


# ------------------------------------------------------------------- sym


def _suite_sym(samples, seed):
    checks = []

    def p4_squared_is_p9(rng):
        p = octahedral_invariants(rng.uniform(-2.0, 2.0, size=3))
        lhs = p.p4 * p.p4
        return abs(lhs - invariants_mod.p9_eval(p.p1, p.p2, p.p3)) / max(1.0, lhs)

    spot = octahedral_invariants(np.array([1.0, 2.0, 3.0]))
    res = _worst((
        *map(p4_squared_is_p9, _rngs(seed, "sym", 0, samples)),
        abs(spot.p4**2 - 518400.0),
        abs(invariants_mod.p9_eval(spot.p1, spot.p2, spot.p3) - 518400.0),
    ))
    checks.append(CheckResult("octahedral_relation_p4_p9", res < 1e-9, res))

    group = octahedral_group()

    def octahedral_spread(rng):
        v = _generic_vector(rng, floor=0.01)
        ref = octahedral_invariants(v).as_dict().values()
        return _worst(abs(a - b) for g in group
                      for a, b in zip(ref, octahedral_invariants(g.apply(v)).as_dict().values()))

    res = _worst(map(octahedral_spread, _rngs(seed, "sym", 100000, max(1, samples // 10))))
    checks.append(CheckResult("octahedral_exact_invariance", res == 0.0, res))

    def g_oracle(rng):
        a = _generic_symmetric(rng, gap=0.0)
        v = rng.uniform(-1.0, 1.0, size=3)
        return rel_dist(invariants_mod.g_invariant(v, a), _g_index_sum(v, a))

    res = _worst(map(g_oracle, _rngs(seed, "sym", 200000, max(1, samples // 10))))
    checks.append(CheckResult("g_index_sum_oracle", res < 1e-10, res))

    def g_diagonal(rng):
        lam = _generic_spectrum(rng)
        v = rng.uniform(-1.0, 1.0, size=3)
        return rel_dist(r_invariant(v, np.diag(lam)), (v[0] * v[1] * v[2]) ** 2)

    res = _worst(map(g_diagonal, _rngs(seed, "sym", 300000, samples)))
    checks.append(CheckResult("g_diagonal_restriction", res < 1e-8, res))

    def r_rotation(rng):
        a = _generic_symmetric(rng, gap=1e-2, disc=1e-2)
        v = _generic_vector(rng)
        r = haar_so3(rng)
        base = r_invariant(v, a)
        return abs(r_invariant(r @ v, r @ a @ r.T) - base) / max(1.0, abs(base))

    res = _worst(map(r_rotation, _rngs(seed, "sym", 400000, samples)))
    checks.append(CheckResult("r_rotation_invariance", res < 1e-8, res))

    def six_invariants(rng):
        a = _generic_symmetric(rng, gap=1e-2, disc=1e-2)
        v = _generic_vector(rng, floor=0.1)
        r = haar_so3(rng)
        return rel_dist(sym_invariants(v, a).as_tuple(),
                        sym_invariants(r @ v, r @ a @ r.T).as_tuple())

    res = _worst(map(six_invariants, _rngs(seed, "sym", 500000, samples)))
    checks.append(CheckResult("six_invariant_invariance", res < 1e-8, res))
    return checks


# ----------------------------------------------------------------- group


def _group_order_24(name, label, group, member):
    """A group of 24 distinct signed permutations (equal, and hashed, by
    perm and signs): the identity, member(g) for every element, closure with
    each product composed once (its failures are the residual), and compose
    matching the matrix product."""
    elements = set(group)
    closure_bad = sum(g.compose(h) not in elements for g in group for h in group)
    head = [(g, g.matrix()) for g in group[:6]]
    ok = (len(group) == 24 and len(elements) == 24 and _IDENTITY in elements
          and all(map(member, group)) and closure_bad == 0
          and all(np.array_equal(g.compose(h).matrix(), mg @ mh)
                  for g, mg in head for h, mh in head))
    return CheckResult(name, ok, float(closure_bad), f"|{label}|={len(group)}")


def _suite_group(samples, seed):
    weyl = lmm_weyl_action_group()
    octahedral = octahedral_group()
    checks = [
        _group_order_24("octahedral_group_order_24", "G", octahedral,
                        lambda g: g.determinant() == 1),
        _group_order_24("weyl_action_group_order_24", "W", weyl,
                        lambda g: g.sign_product() == 1),
    ]

    probes = [rng.uniform(-1.0, 1.0, size=3)
              for rng in _rngs(seed, "group", 100000, max(1, samples // 100))]

    def realized(g):
        r1, r2 = lmm_weyl_pair(g)
        return (round(det3(r1)) == 1 and round(det3(r2)) == 1
                and all(norm_inf(r1 @ np.diag(c) @ r2.T - np.diag(g.apply(c))) == 0.0
                        for c in probes))

    bad = sum(not realized(g) for g in weyl)
    checks.append(CheckResult("weyl_pair_realization", bad == 0, float(bad)))

    pairs = lmm_normalizer_pairs(octahedral)
    # The probe's magnitudes are distinct, so its 24 images are too; on
    # finite entries tuple equality is the exact test (0.0 == -0.0).
    probe = np.array([0.3, -0.7, 1.1])
    weyl_of_image = {tuple(g.apply(probe)): g for g in weyl}

    diag_probe = np.diag(probe)

    def induced(r1, r2):
        """The Weyl element the pair induces on the probe, or None."""
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = (r1 @ diag_probe @ r2.T).tolist()
        # Off the slice: a nonzero or NaN entry off the diagonal. A
        # non-finite diagonal matches no image of the finite probe.
        if a1 or a2 or b0 or b2 or c0 or c1:
            return None
        return weyl_of_image.get((a0, b1, c2))

    images = [induced(r1, r2) for r1, r2 in pairs]
    bad = images.count(None)
    found = set(images) - {None}
    ok = bad == 0 and len(pairs) == 96 and found == set(weyl)
    checks.append(
        CheckResult("normalizer_induces_weyl_action", ok, float(bad),
                    f"{len(found)}/24 elements induced by {len(pairs)} pairs")
    )

    def haar_draw(rng):
        u = haar_su2(rng)
        res = _worst((norm_inf(u.conj().T @ u - np.eye(2)),
                      abs(u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0] - 1.0)))
        return res, so3_of_u2(u)

    n = max(30, samples)
    unitarity, images = zip(*map(haar_draw, _rngs(seed, "group", 200000, n)))
    res = _worst(unitarity)
    mean = norm_inf(sum(images, np.zeros((3, 3))) / n)
    # 5 sigma on each of the nine entries: a broken sampler shifts the mean
    # by O(1), while a correct one stays inside for essentially every seed.
    bound = 5.0 * np.sqrt(1.0 / (3.0 * n))
    checks.append(
        CheckResult("haar_su2", res < 1e-12 and mean < bound, _worst((res, mean)),
                    f"mean entry {mean:.3e}, 5-sigma bound {bound:.3e}")
    )
    return checks


# ----------------------------------------------------------------- orbit


def _synthetic_lmm_pair(rng):
    d = _gapped_descending(rng, 0.1, 2.0, 1e-3)
    if rng.uniform() < 0.5:
        d[2] = -d[2]
    c0 = np.diag(d)
    ca = haar_so3(rng) @ c0 @ haar_so3(rng).T
    cb = haar_so3(rng) @ c0 @ haar_so3(rng).T
    return ca, cb


def _synthetic_sym_pair(rng):
    lam = _generic_spectrum(rng)
    w = _generic_vector(rng)
    a0 = np.diag(lam)
    ra, rb = haar_so3(rng), haar_so3(rng)
    return (ra.T @ w, ra.T @ a0 @ ra), (rb.T @ w, rb.T @ a0 @ rb)


# Tied singular values; -I and (1, 1, -1) are Bell states, 0 the maximally
# mixed state.
_TIED_DIAGONALS = (
    (-1.0, -1.0, -1.0), (1.0, 1.0, -1.0), (0.5, 0.5, 0.2), (0.5, 0.2, 0.2),
    (0.3, 0.3, 0.3), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.4, 0.4, 0.0),
)


# Eigenbasis 1-point vectors whose zero coordinates leave sym_canonical's sign
# choice to roundoff.
_AXIS_VECTORS = ((0.0, 0.3, 0.5), (0.0, 0.0, 0.5), (0.3, 0.0, 0.0))


def _generic_lmm_state(rng):
    while True:
        c = rng.uniform(-1.0, 1.0, size=(3, 3))
        s = np.abs(linalg_mod.signed_svd3(c).diag)
        gap = 1e-3 * max(1.0, s[0])
        if s[0] - s[1] > gap and s[1] - s[2] > gap:
            return c


def _suite_orbit(samples, seed):
    checks = []

    def lmm_complete(rng):
        ca, cb = _synthetic_lmm_pair(rng)
        verdict = decide_equiv_lmm(ca, cb, tol=1e-8)
        if verdict.verdict is not Verdict.EQUIVALENT:
            return 0.0, True
        r1, r2 = map(np.asarray, verdict.witness)
        return norm_inf(r1 @ ca @ r2.T - cb), False

    res, bad = _fold(map(lmm_complete, _rngs(seed, "orbit", 0, samples)))
    checks.append(
        CheckResult("lmm_completeness", bad == 0 and res < 1e-7, res, f"{bad} failures")
    )

    def sym_complete(rng):
        (va, aa), (vb, ab) = _synthetic_sym_pair(rng)
        verdict = decide_equiv_sym((va, aa), (vb, ab), tol=1e-8)
        if verdict.verdict is not Verdict.EQUIVALENT:
            return 0.0, True
        r = np.asarray(verdict.witness)
        return _worst((norm_inf(r @ va - vb), norm_inf(r @ aa @ r.T - ab))), False

    res, bad = _fold(map(sym_complete, _rngs(seed, "orbit", 100000, samples)))
    checks.append(
        CheckResult("sym_completeness", bad == 0 and res < 1e-7, res, f"{bad} failures")
    )

    def lmm_collision(rng):
        ca = _generic_lmm_state(rng)
        cb = _generic_lmm_state(rng)
        return decide_equiv_lmm(ca, cb, tol=1e-8).verdict is not Verdict.NOT_EQUIVALENT

    bad = sum(map(lmm_collision, _rngs(seed, "orbit", 200000, samples)))
    checks.append(CheckResult("lmm_separation", bad == 0, float(bad), f"{bad} collisions"))

    def sym_collision(rng):
        sa = (_generic_vector(rng), _generic_symmetric(rng, disc=1e-3))
        sb = (_generic_vector(rng), _generic_symmetric(rng, disc=1e-3))
        return decide_equiv_sym(sa, sb, tol=1e-8).verdict is not Verdict.NOT_EQUIVALENT

    bad = sum(map(sym_collision, _rngs(seed, "orbit", 300000, samples)))
    checks.append(CheckResult("sym_separation", bad == 0, float(bad), f"{bad} collisions"))

    def idempotence(rng):
        form = lmm_canonical(_generic_lmm_state(rng))
        again = lmm_canonical(np.diag(form.diag))
        lam = _generic_spectrum(rng)
        w = _generic_vector(rng)
        sform = sym_canonical(w, np.diag(lam))
        sagain = sym_canonical(sform.w, np.diag(sform.eigs))
        return (norm_inf(np.asarray(again.diag) - form.diag),
                _worst((norm_inf(np.asarray(sagain.w) - sform.w),
                        norm_inf(np.asarray(sagain.eigs) - sform.eigs))))

    cont, finite = zip(*map(idempotence, _rngs(seed, "orbit", 400000, max(1, samples // 10))))
    res_cont, res_finite = _worst(cont), _worst(finite)
    checks.append(
        CheckResult("canonical_idempotence", res_cont < 1e-10 and res_finite == 0.0,
                    _worst((res_cont, res_finite)),
                    f"finite-stage residual {res_finite:.1e}")
    )

    weyl_pairs = [lmm_weyl_pair(g) for g in lmm_weyl_action_group()]

    def weyl_spread(rng):
        c = rng.uniform(-1.0, 1.0, size=(3, 3))
        base = np.asarray(lmm_canonical(c).diag)
        return _worst(norm_inf(lmm_canonical(r1 @ c @ r2.T).diag - base) for r1, r2 in weyl_pairs)

    res = _worst(map(weyl_spread, _rngs(seed, "orbit", 500000, max(1, samples // 10))))
    checks.append(CheckResult("lmm_canonical_weyl_invariance", res < 1e-10, res))

    origin = decide_equiv_lmm(np.zeros((3, 3)), np.zeros((3, 3)))
    ok = origin.verdict is Verdict.EQUIVALENT
    ok = ok and _worst(map(rotation_residual, origin.witness)) < 1e-11
    ok = ok and decide_equiv_sym(
        (np.array([0.2, 0.3, 0.4]), np.eye(3)),
        (np.array([0.2, 0.3, 0.4]), np.eye(3)),
    ).verdict is Verdict.INDETERMINATE
    ok = ok and decide_equiv_lmm(
        np.diag([1.0, 2.0, 3.0]), np.diag([1.0, 2.0, -3.0])
    ).verdict is Verdict.NOT_EQUIVALENT
    v = np.array([0.4, -0.8, 1.1])
    a = np.diag([3.0, 2.0, 1.0])
    ok = ok and decide_equiv_sym((v, a), (2.0 * v, a)).verdict is Verdict.NOT_EQUIVALENT
    checks.append(CheckResult("degenerate_and_reject_verdicts", ok, 0.0 if ok else 1.0))

    zero = np.zeros(3)

    def degenerate_decisions(t, rng):
        d = _TIED_DIAGONALS[t % len(_TIED_DIAGONALS)]
        ca, cb, cf = (haar_so3(rng) @ np.diag(x) @ haar_so3(rng).T
                      for x in (d, d, (d[0], d[1], -d[2])))
        lam = _generic_spectrum(rng)
        ra, rb = haar_so3(rng), haar_so3(rng)
        aa, ab = ra.T @ np.diag(lam) @ ra, rb.T @ np.diag(lam) @ rb
        am = rb.T @ np.diag(lam + 0.1 * np.eye(3)[t % 3]) @ rb
        w, a0 = np.array(_AXIS_VECTORS[t % 3]), np.diag([0.7, 0.2, -0.4])
        sa, sb = ((q.T @ w, q.T @ a0 @ q) for q in (haar_so3(rng), haar_so3(rng)))
        lmm = decide_equiv_lmm(ca, cb, tol=1e-8)
        sym = decide_equiv_sym((zero, aa), (zero, ab), tol=1e-8)
        axis = decide_equiv_sym(sa, sb, tol=1e-8)
        rejects = [decide_equiv_sym((zero, aa), (zero, am), tol=1e-8)]
        if d[2] != 0.0:
            rejects.append(decide_equiv_lmm(ca, cf, tol=1e-8))
        wrong = sum(x.verdict is not Verdict.NOT_EQUIVALENT for x in rejects)
        if not all(x.verdict is Verdict.EQUIVALENT for x in (lmm, sym, axis)):
            return 0.0, wrong + 1
        r1, r2 = map(np.asarray, lmm.witness)
        r, q = np.asarray(sym.witness), np.asarray(axis.witness)
        # The axis pair has norm below 1, so its residual is already relative.
        return _worst((norm_inf(r1 @ ca @ r2.T - cb) / max(1.0, norm_inf(cb)),
                       norm_inf(r @ aa @ r.T - ab) / max(1.0, norm_inf(ab)),
                       norm_inf(q @ sa[0] - sb[0]), norm_inf(q @ sa[1] @ q.T - sb[1]))), wrong

    n_deg = max(1, samples // 10)
    res, bad = _fold(degenerate_decisions(t, rng)
                     for t, rng in enumerate(_rngs(seed, "orbit", 600000, n_deg)))
    checks.append(
        CheckResult("degenerate_orbit_decisions", bad == 0 and res <= 1e-7, res,
                    f"{bad} wrong verdicts in {n_deg} trials")
    )
    return checks


_SUITE_FUNCS = {
    "bloch": _suite_bloch,
    "lmm": _suite_lmm,
    "sym": _suite_sym,
    "group": _suite_group,
    "orbit": _suite_orbit,
}


def run_suite(name, samples, seed):
    if name not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    start = time.perf_counter()
    checks = _SUITE_FUNCS[name](samples, seed)
    elapsed = time.perf_counter() - start
    return SuiteReport(suite=name, samples=samples, seed=seed, checks=checks,
                       wall_time=elapsed)


def run_all(samples, seed, suites=None):
    return [run_suite(name, samples, seed) for name in (suites or SUITES)]


def report_table(reports):
    """Fixed-width summary table; excludes wall time so output is
    byte-identical for a given seed."""
    lines = []
    lines.append(f"{'suite':<7} {'check':<34} {'status':<6} max_residual  detail")
    lines.append("-" * 88)
    for rep in reports:
        for chk in rep.checks:
            status = "pass" if chk.passed else "FAIL"
            lines.append(
                f"{rep.suite:<7} {chk.name:<34} {status:<6} {chk.max_residual:<13.3e} {chk.detail}"
            )
    total = sum(len(r.checks) for r in reports)
    failed = sum(1 for r in reports for c in r.checks if not c.passed)
    verdict = "PASS" if failed == 0 else "FAIL"
    lines.append("-" * 88)
    lines.append(f"{verdict}: {total - failed}/{total} checks passed")
    return "\n".join(lines)


def report_json(reports):
    """The report as a dict for serialize.dumps; a non-finite max_residual is None."""
    return {
        "passed": all(r.passed for r in reports),
        "suites": [
            {
                "suite": r.suite,
                "samples": r.samples,
                "seed": r.seed,
                "passed": r.passed,
                "checks": [
                    {
                        "name": c.name,
                        "passed": c.passed,
                        "max_residual": c.max_residual if math.isfinite(c.max_residual) else None,
                        "detail": c.detail,
                    }
                    for c in r.checks
                ],
            }
            for r in reports
        ],
    }
