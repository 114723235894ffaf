"""Seeded verification battery.

Five suites (bloch, lmm, sym, group, orbit) re-derive every identity the
package relies on, at a sample size and seed chosen by the caller. Each
trial draws from its own generator seeded by (seed, suite, trial index),
so results are independent of evaluation order and safe to parallelize.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import invariants as invariants_mod
from . import linalg as linalg_mod
from .groups import (
    act_bloch,
    act_density,
    haar_so3,
    haar_su2,
    lmm_normalizer_pairs,
    lmm_weyl_action_group,
    lmm_weyl_pair,
    octahedral_group,
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
from .linalg import det3, norm_inf, rotation_residual
from .orbits import (
    Verdict,
    decide_equiv_lmm,
    decide_equiv_sym,
    lmm_canonical,
    rel_dist,
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
    random_bloch,
    random_state,
)

SUITES = ("bloch", "lmm", "sym", "group", "orbit")
_SUITE_IDS = {name: i for i, name in enumerate(SUITES)}
_SEED_MASK = (1 << 63) - 1

_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS3[_i, _j, _k] = 1.0
    _EPS3[_i, _k, _j] = -1.0


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


def trial_rng(seed, suite, trial):
    """Independent generator for one trial, stable under reordering."""
    ss = np.random.SeedSequence(entropy=[seed & _SEED_MASK, _SUITE_IDS[suite], trial])
    return np.random.default_rng(ss)


def _gapped_descending(rng, low, high, gap):
    while True:
        vals = np.sort(rng.uniform(low, high, size=3))[::-1]
        if vals[0] - vals[1] > gap and vals[1] - vals[2] > gap:
            return vals


def _generic_spectrum(rng, gap=1e-3, disc=1e-3):
    """Descending eigenvalue triple with both margins of the genericity
    contract: value gaps above gap and squared-gap product above disc
    (the latter guarantees the discriminant gates of the invariant ops)."""
    while True:
        lam = _gapped_descending(rng, -2.0, 2.0, gap)
        d = (lam[0] - lam[1]) * (lam[0] - lam[2]) * (lam[1] - lam[2])
        if d * d > disc:
            return lam


def _generic_symmetric(rng, gap=1e-3, disc=None):
    """Random symmetric matrix with eigenvalue gaps above the margin."""
    if disc is None:
        lam = _gapped_descending(rng, -2.0, 2.0, gap)
    else:
        lam = _generic_spectrum(rng, gap=gap, disc=disc)
    r = haar_so3(rng)
    return r.T @ np.diag(lam) @ r


def _generic_vector(rng, floor=0.05):
    while True:
        v = rng.uniform(-1.0, 1.0, size=3)
        if np.min(np.abs(v)) > floor:
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
    recon_res = 0.0
    rot_res = 0.0
    sign_bad = 0
    order_bad = 0
    for t in range(samples):
        c, sign = draw(trial_rng(seed, "lmm", offset + t))
        svd = linalg_mod.signed_svd3(c)
        recon = svd.left @ np.diag(svd.diag) @ svd.right.T - c
        recon_res = max(recon_res, norm_inf(recon) / max(1.0, norm_inf(c)))
        rot_res = max(rot_res, rotation_residual(svd.left), rotation_residual(svd.right))
        d = svd.diag
        if not (d[0] >= d[1] >= abs(d[2]) and d[0] >= 0.0 and d[1] >= 0.0):
            order_bad += 1
        if sign and np.sign(d[0] * d[1] * d[2]) != sign:
            sign_bad += 1
    passed = recon_res < 1e-10 and rot_res < 1e-11 and sign_bad == 0 and order_bad == 0
    return CheckResult(name, passed, max(recon_res, rot_res),
                       f"{sign_bad} sign, {order_bad} order violations")


def _g_index_sum(v, a):
    """Antisymmetric index-sum oracle for the lifted cubic invariant."""
    return float(np.einsum("ijk,jl,km,mn,i,l,n->", _EPS3, a, a, a, v, v, v))


# ----------------------------------------------------------------- bloch


def _suite_bloch(samples, seed):
    checks = []

    res = 0.0
    for t in range(samples):
        rng = trial_rng(seed, "bloch", t)
        u1, u2 = haar_su2(rng), haar_su2(rng)
        b = random_bloch(StateClass.GENERAL, rng)
        rho = density_of(b)
        lhs = bloch_of(act_density(u1, u2, rho))
        rhs = act_bloch(so3_of_u2(u1), so3_of_u2(u2), b)
        res = max(
            res,
            norm_inf(lhs.u - rhs.u),
            norm_inf(lhs.v - rhs.v),
            norm_inf(lhs.C - rhs.C),
        )
    checks.append(CheckResult("equivariance", res < 1e-10, res))

    res = 0.0
    for t in range(samples):
        rng = trial_rng(seed, "bloch", 100000 + t)
        cls = list(StateClass)[t % 4]
        rho = random_state(cls, rng, positive=(t % 2 == 0))
        b = bloch_of(rho)
        back = density_of(b)
        res = max(res, norm_inf(back - rho) / max(1.0, norm_inf(rho)))
        b2 = bloch_of(back)
        res = max(res, norm_inf(b2.u - b.u), norm_inf(b2.v - b.v), norm_inf(b2.C - b.C))
    checks.append(CheckResult("bloch_roundtrip", res < 1e-12, res))

    res = 0.0
    for t in range(samples):
        rng = trial_rng(seed, "bloch", 200000 + t)
        rho = density_of(random_bloch(StateClass.GENERAL, rng))
        b = bloch_of(rho)
        res = max(res, norm_inf(bloch_vector(partial_trace(rho, 1)) - b.u))
        res = max(res, norm_inf(bloch_vector(partial_trace(rho, 2)) - b.v))
    checks.append(CheckResult("partial_trace_consistency", res < 1e-12, res))

    res = 0.0
    for t in range(samples):
        rng = trial_rng(seed, "bloch", 300000 + t)
        u, w = haar_su2(rng), haar_su2(rng)
        ru, rw = so3_of_u2(u), so3_of_u2(w)
        res = max(res, norm_inf(so3_of_u2(u @ w) - ru @ rw))
        res = max(res, rotation_residual(ru))
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        res = max(res, norm_inf(so3_of_u2(phase * u) - ru))
    checks.append(CheckResult("covering_homomorphism", res < 1e-10, res))

    bad = 0
    n_cls = max(1, samples // 4)
    for t in range(n_cls):
        rng = trial_rng(seed, "bloch", 400000 + t)
        for cls in StateClass:
            rho = density_of(random_bloch(cls, rng))
            if classify(rho) is not cls:
                bad += 1
    checks.append(
        CheckResult("classification_idempotence", bad == 0, float(bad),
                    f"{bad} misclassified of {4 * n_cls}")
    )

    res = 0.0
    bad = 0
    n_pos = max(1, samples // 4)
    for t in range(n_pos):
        rng = trial_rng(seed, "bloch", 500000 + t)
        rho = random_state(StateClass.GENERAL, rng, positive=True)
        if not is_positive(rho):
            bad += 1
        for i in range(4):
            for j in range(4):
                res = max(res, abs(correlation(rho, i, j)) - 1.0)
    checks.append(
        CheckResult("positive_state_correlations", bad == 0 and res < 1e-10, res,
                    f"{bad} non-positive draws")
    )
    return checks


# ------------------------------------------------------------------- lmm


def _suite_lmm(samples, seed):
    checks = []

    res = 0.0
    for t in range(samples):
        rng = trial_rng(seed, "lmm", t)
        x = rng.uniform(-2.0, 2.0, size=3)
        ti = lmm_invariants(np.diag(x)).as_tuple()
        si = lmm_section_invariants(x).as_tuple()
        res = max(res, max(abs(a - b) for a, b in zip(ti, si)))
    checks.append(CheckResult("diagonal_restriction_exact", res == 0.0, res))

    res = 0.0
    for t in range(samples):
        rng = trial_rng(seed, "lmm", 100000 + t)
        x = rng.uniform(-2.0, 2.0, size=3)
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
        res = max(res, abs(direct - closed) / max(1.0, abs(direct), abs(closed)))
    checks.append(CheckResult("section_jacobian_closed_form", res < 1e-9, res))

    res = 0.0
    for t in range(min(samples, 50)):
        rng = trial_rng(seed, "lmm", 200000 + t)
        x = rng.uniform(0.5, 2.0, size=3)
        if abs(lmm_section_jacobian(x)) < 1.0:
            continue
        h = 1e-5
        fd = np.empty((3, 3))
        for j in range(3):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            sp = np.array(lmm_section_invariants(xp).as_tuple())
            sm = np.array(lmm_section_invariants(xm).as_tuple())
            fd[:, j] = (sp - sm) / (2.0 * h)
        closed = lmm_section_jacobian(x)
        res = max(res, abs(det3(fd) - closed) / max(1.0, abs(closed)))
    checks.append(CheckResult("section_jacobian_finite_diff", res < 1e-6, res))

    res = 0.0
    for t in range(samples):
        rng = trial_rng(seed, "lmm", 300000 + t)
        c = rng.uniform(-1.0, 1.0, size=(3, 3))
        r1, r2 = haar_so3(rng), haar_so3(rng)
        res = max(
            res,
            rel_dist(lmm_invariants(r1 @ c @ r2.T).as_tuple(), lmm_invariants(c).as_tuple()),
        )
    checks.append(CheckResult("invariance_under_rotation_pairs", res < 1e-9, res))

    bad = 0
    for t in range(samples):
        rng = trial_rng(seed, "lmm", 400000 + t)
        rho = random_state(StateClass.LMM, rng, positive=True)
        inv = lmm_invariants(bloch_of(rho).C)
        # The cone check covers t2 <= 3 and the t3 bound. The reported
        # upper bound t4 <= -2 t3 + (1 - t2)^2 / 4 is not implied by
        # positivity (C = diag(1, 0, 0) breaks it) and is not asserted here.
        if inv.t2 < -1e-9 or not lmm_positive_cone_check(inv):
            bad += 1
    checks.append(
        CheckResult("positivity_bounds", bad == 0, float(bad), f"{bad} violations")
    )

    bad = 0
    n_cone = max(1, samples // 2)
    for t in range(n_cone):
        rng = trial_rng(seed, "lmm", 450000 + t)
        c = rng.uniform(-1.5, 1.5, size=3)
        rho = density_of(BlochMatrix(np.zeros(3), np.zeros(3), np.diag(c)))
        lam_min = float(np.linalg.eigvalsh(rho)[0])
        if abs(lam_min) < 1e-7:
            continue
        cone = lmm_positive_cone_check(lmm_invariants(np.diag(c)))
        if cone != (lam_min >= 0.0):
            bad += 1
    checks.append(
        CheckResult("positive_cone_characterization", bad == 0, float(bad),
                    f"{bad} mismatches vs eigenvalue test")
    )

    res = 0.0
    half = 0.5 * np.eye(2)
    for name in ("phi+", "phi-", "psi+", "psi-"):
        rho = bell_projector(name)
        res = max(res, norm_inf(partial_trace(rho, 1) - half))
        res = max(res, norm_inf(partial_trace(rho, 2) - half))
        inv = lmm_invariants(bloch_of(rho).C)
        res = max(res, abs(inv.t2 - 3.0), abs(inv.t3 + 1.0), abs(inv.t4 - 3.0))
        # Saturation of all three positivity bounds.
        res = max(res, abs(inv.t3 - 0.5 * (1.0 - inv.t2)))
        res = max(res, abs(inv.t4 - (-2.0 * inv.t3 + 0.25 * (1.0 - inv.t2) ** 2)))
    checks.append(CheckResult("bell_states", res < 1e-12, res))

    n_rank = min(samples, 1000)
    full = 0
    for t in range(n_rank):
        rng = trial_rng(seed, "lmm", 500000 + t)
        c = rng.uniform(-1.0, 1.0, size=(3, 3))
        sv = np.linalg.svd(lmm_invariants_jacobian(c), compute_uv=False)
        if sv[2] > 1e-8:
            full += 1
    frac = full / n_rank
    checks.append(
        CheckResult("invariant_jacobian_rank", frac >= 0.99, 1.0 - frac,
                    f"rank 3 at {full}/{n_rank} points")
    )

    recon_res = 0.0
    orth_res = 0.0
    for t in range(samples):
        rng = trial_rng(seed, "lmm", 600000 + t)
        a = _generic_symmetric(rng, gap=0.0)
        scale = max(1.0, norm_inf(a))
        eig = linalg_mod.eig_sym3(a)
        recon = eig.rotation @ a @ eig.rotation.T - np.diag(eig.eigenvalues)
        recon_res = max(recon_res, norm_inf(recon) / scale)
        orth_res = max(orth_res, rotation_residual(eig.rotation))
    passed = recon_res < 1e-10 and orth_res < 1e-12
    checks.append(
        CheckResult("kernel_eig_sym3", passed, max(recon_res, orth_res),
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

    res = 0.0
    for t in range(samples):
        rng = trial_rng(seed, "sym", t)
        v = rng.uniform(-2.0, 2.0, size=3)
        p = octahedral_invariants(v)
        lhs = p.p4 * p.p4
        rhs = invariants_mod.p9_eval(p.p1, p.p2, p.p3)
        res = max(res, abs(lhs - rhs) / max(1.0, lhs))
    spot = octahedral_invariants(np.array([1.0, 2.0, 3.0]))
    res = max(res, abs(spot.p4**2 - 518400.0))
    res = max(res, abs(invariants_mod.p9_eval(spot.p1, spot.p2, spot.p3) - 518400.0))
    checks.append(CheckResult("octahedral_relation_p4_p9", res < 1e-9, res))

    res = 0.0
    group = octahedral_group()
    for t in range(max(1, samples // 10)):
        rng = trial_rng(seed, "sym", 100000 + t)
        v = _generic_vector(rng, floor=0.01)
        base = octahedral_invariants(v)
        ref = (base.p1, base.p2, base.p3, base.p4, base.X, base.Y, base.Z)
        for g in group:
            img = octahedral_invariants(g.apply(v))
            vals = (img.p1, img.p2, img.p3, img.p4, img.X, img.Y, img.Z)
            res = max(res, max(abs(a - b) for a, b in zip(ref, vals)))
    checks.append(CheckResult("octahedral_exact_invariance", res == 0.0, res))

    res = 0.0
    for t in range(max(1, samples // 10)):
        rng = trial_rng(seed, "sym", 200000 + t)
        a = _generic_symmetric(rng, gap=0.0)
        v = rng.uniform(-1.0, 1.0, size=3)
        direct = invariants_mod.g_invariant(v, a)
        oracle = _g_index_sum(v, a)
        res = max(res, abs(direct - oracle) / max(1.0, abs(direct), abs(oracle)))
    checks.append(CheckResult("g_index_sum_oracle", res < 1e-10, res))

    res = 0.0
    for t in range(samples):
        rng = trial_rng(seed, "sym", 300000 + t)
        lam = _generic_spectrum(rng)
        v = rng.uniform(-1.0, 1.0, size=3)
        value = r_invariant(v, np.diag(lam))
        expected = (v[0] * v[1] * v[2]) ** 2
        res = max(res, abs(value - expected) / max(1.0, value, expected))
    checks.append(CheckResult("g_diagonal_restriction", res < 1e-8, res))

    res = 0.0
    for t in range(samples):
        rng = trial_rng(seed, "sym", 400000 + t)
        a = _generic_symmetric(rng, gap=1e-2, disc=1e-2)
        v = _generic_vector(rng)
        r = haar_so3(rng)
        res = max(
            res,
            abs(r_invariant(r @ v, r @ a @ r.T) - r_invariant(v, a))
            / max(1.0, abs(r_invariant(v, a))),
        )
    checks.append(CheckResult("r_rotation_invariance", res < 1e-8, res))

    res = 0.0
    for t in range(samples):
        rng = trial_rng(seed, "sym", 500000 + t)
        a = _generic_symmetric(rng, gap=1e-2, disc=1e-2)
        v = _generic_vector(rng, floor=0.1)
        r = haar_so3(rng)
        s_ref = sym_invariants(v, a).as_tuple()
        s_rot = sym_invariants(r @ v, r @ a @ r.T).as_tuple()
        res = max(res, rel_dist(s_ref, s_rot))
    checks.append(CheckResult("six_invariant_invariance", res < 1e-8, res))
    return checks


# ----------------------------------------------------------------- group


def _suite_group(samples, seed):
    checks = []

    group = octahedral_group()
    keys = {(g.perm, g.signs) for g in group}
    ok = len(group) == 24 and len(keys) == 24
    ok = ok and ((0, 1, 2), (1, 1, 1)) in keys
    ok = ok and all(g.determinant() == 1 for g in group)
    closure_bad = 0
    for g in group:
        for h in group:
            gh = g.compose(h)
            if (gh.perm, gh.signs) not in keys:
                closure_bad += 1
    matrix_ok = all(
        np.array_equal(g.compose(h).matrix(), g.matrix() @ h.matrix())
        for g in group[:6]
        for h in group[:6]
    )
    checks.append(
        CheckResult("octahedral_group_order_24", ok and closure_bad == 0 and matrix_ok,
                    float(closure_bad), f"|G|={len(group)}")
    )

    weyl = lmm_weyl_action_group()
    wkeys = {(g.perm, g.signs) for g in weyl}
    ok = len(weyl) == 24 and ((0, 1, 2), (1, 1, 1)) in wkeys
    ok = ok and all(g.sign_product() == 1 for g in weyl)
    ok = ok and ((0, 1, 2), (-1, -1, -1)) not in wkeys
    closure_bad = sum(
        1 for g in weyl for h in weyl if (g.compose(h).perm, g.compose(h).signs) not in wkeys
    )
    checks.append(
        CheckResult("weyl_action_group_order_24", ok and closure_bad == 0,
                    float(closure_bad), f"|W|={len(weyl)}")
    )

    bad = 0
    for g in weyl:
        r1, r2 = lmm_weyl_pair(g)
        if round(det3(r1)) != 1 or round(det3(r2)) != 1:
            bad += 1
            continue
        for t in range(max(1, samples // 100)):
            rng = trial_rng(seed, "group", 100000 + t)
            c = rng.uniform(-1.0, 1.0, size=3)
            img = r1 @ np.diag(c) @ r2.T
            if norm_inf(img - np.diag(g.apply(c))) != 0.0:
                bad += 1
                break
    checks.append(CheckResult("weyl_pair_realization", bad == 0, float(bad)))

    pairs = lmm_normalizer_pairs()
    probe = np.array([0.3, -0.7, 1.1])
    induced = set()
    bad = 0
    for r1, r2 in pairs:
        img = r1 @ np.diag(probe) @ r2.T
        if norm_inf(img - np.diag(np.diag(img))) != 0.0:
            bad += 1
            continue
        matched = None
        for g in weyl:
            if norm_inf(np.diag(img) - g.apply(probe)) == 0.0:
                matched = (g.perm, g.signs)
                break
        if matched is None:
            bad += 1
        else:
            induced.add(matched)
    ok = bad == 0 and len(pairs) == 96 and induced == wkeys
    checks.append(
        CheckResult("normalizer_induces_weyl_action", ok, float(bad),
                    f"{len(induced)}/24 elements induced by {len(pairs)} pairs")
    )

    res = 0.0
    acc = np.zeros((3, 3))
    n = max(30, samples)
    for t in range(n):
        rng = trial_rng(seed, "group", 200000 + t)
        u = haar_su2(rng)
        res = max(res, norm_inf(u.conj().T @ u - np.eye(2)))
        res = max(res, abs(u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0] - 1.0))
        acc += so3_of_u2(u)
    mean = norm_inf(acc / n)
    # 5 sigma on each of the nine entries: a broken sampler shifts the mean
    # by O(1), while a correct one stays inside for essentially every seed.
    bound = 5.0 * np.sqrt(1.0 / (3.0 * n))
    checks.append(
        CheckResult("haar_su2", res < 1e-12 and mean < bound, max(res, mean),
                    f"mean entry {mean:.3e}, 5-sigma bound {bound:.3e}")
    )
    return checks


# ----------------------------------------------------------------- orbit


def _synthetic_lmm_pair(rng):
    d = _gapped_descending(rng, 0.1, 2.0, 1e-3)
    d = d.copy()
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

    bad = 0
    res = 0.0
    for t in range(samples):
        rng = trial_rng(seed, "orbit", t)
        ca, cb = _synthetic_lmm_pair(rng)
        verdict = decide_equiv_lmm(ca, cb, tol=1e-8)
        if verdict.verdict is not Verdict.EQUIVALENT:
            bad += 1
            continue
        r1, r2 = verdict.witness
        res = max(res, norm_inf(r1 @ ca @ r2.T - cb))
    checks.append(
        CheckResult("lmm_completeness", bad == 0 and res < 1e-7, res, f"{bad} failures")
    )

    bad = 0
    res = 0.0
    for t in range(samples):
        rng = trial_rng(seed, "orbit", 100000 + t)
        (va, aa), (vb, ab) = _synthetic_sym_pair(rng)
        verdict = decide_equiv_sym((va, aa), (vb, ab), tol=1e-8)
        if verdict.verdict is not Verdict.EQUIVALENT:
            bad += 1
            continue
        r = verdict.witness
        res = max(res, norm_inf(r @ va - vb), norm_inf(r @ aa @ r.T - ab))
    checks.append(
        CheckResult("sym_completeness", bad == 0 and res < 1e-7, res, f"{bad} failures")
    )

    bad = 0
    for t in range(samples):
        rng = trial_rng(seed, "orbit", 200000 + t)
        ca = _generic_lmm_state(rng)
        cb = _generic_lmm_state(rng)
        if decide_equiv_lmm(ca, cb, tol=1e-8).verdict is not Verdict.NOT_EQUIVALENT:
            bad += 1
    checks.append(CheckResult("lmm_separation", bad == 0, float(bad), f"{bad} collisions"))

    bad = 0
    for t in range(samples):
        rng = trial_rng(seed, "orbit", 300000 + t)
        sa = (_generic_vector(rng), _generic_symmetric(rng, disc=1e-3))
        sb = (_generic_vector(rng), _generic_symmetric(rng, disc=1e-3))
        if decide_equiv_sym(sa, sb, tol=1e-8).verdict is not Verdict.NOT_EQUIVALENT:
            bad += 1
    checks.append(CheckResult("sym_separation", bad == 0, float(bad), f"{bad} collisions"))

    res_cont = 0.0
    res_finite = 0.0
    for t in range(max(1, samples // 10)):
        rng = trial_rng(seed, "orbit", 400000 + t)
        c = _generic_lmm_state(rng)
        form = lmm_canonical(c)
        again = lmm_canonical(np.diag(form.diag))
        res_cont = max(res_cont, norm_inf(again.diag - form.diag))
        lam = _generic_spectrum(rng)
        w = _generic_vector(rng)
        sform = sym_canonical(w, np.diag(lam))
        sagain = sym_canonical(sform.w, np.diag(sform.eigs))
        res_finite = max(
            res_finite,
            norm_inf(sagain.w - sform.w),
            norm_inf(sagain.eigs - sform.eigs),
        )
    passed = res_cont < 1e-10 and res_finite == 0.0
    checks.append(
        CheckResult("canonical_idempotence", passed, max(res_cont, res_finite),
                    f"finite-stage residual {res_finite:.1e}")
    )

    res = 0.0
    weyl = lmm_weyl_action_group()
    for t in range(max(1, samples // 10)):
        rng = trial_rng(seed, "orbit", 500000 + t)
        c = rng.uniform(-1.0, 1.0, size=(3, 3))
        base = lmm_canonical(c).diag
        for g in weyl:
            r1, r2 = lmm_weyl_pair(g)
            moved = lmm_canonical(r1 @ c @ r2.T).diag
            res = max(res, norm_inf(moved - base))
    checks.append(CheckResult("lmm_canonical_weyl_invariance", res < 1e-10, res))

    origin = decide_equiv_lmm(np.zeros((3, 3)), np.zeros((3, 3)))
    ok = origin.verdict is Verdict.EQUIVALENT
    ok = ok and max(rotation_residual(r) for r in origin.witness) < 1e-11
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

    bad = 0
    res = 0.0
    n_deg = max(1, samples // 10)
    zero = np.zeros(3)
    for t in range(n_deg):
        rng = trial_rng(seed, "orbit", 600000 + t)
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
        bad += sum(v.verdict is not Verdict.NOT_EQUIVALENT for v in rejects)
        if all(v.verdict is Verdict.EQUIVALENT for v in (lmm, sym, axis)):
            (r1, r2), r, q = lmm.witness, sym.witness, axis.witness
            # The axis pair has norm below 1, so its residual is already relative.
            res = max(res, norm_inf(r1 @ ca @ r2.T - cb) / max(1.0, norm_inf(cb)),
                      norm_inf(r @ aa @ r.T - ab) / max(1.0, norm_inf(ab)),
                      norm_inf(q @ sa[0] - sb[0]), norm_inf(q @ sa[1] @ q.T - sb[1]))
        else:
            bad += 1
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
                        "max_residual": c.max_residual,
                        "detail": c.detail,
                    }
                    for c in r.checks
                ],
            }
            for r in reports
        ],
    }
