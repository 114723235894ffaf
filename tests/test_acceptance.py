"""Acceptance battery: one test per criterion, run at full scale with the
stated tolerances. Each test prints a single pass/fail line.

Criterion 3 asserts the exact positive cone of locally maximally mixed
states, read off the density-matrix eigenvalues. The commonly quoted upper
bound t4 <= -2 t3 + (1 - t2)^2 / 4 was dropped from it because it is false
for positive states: the positive state with 2-point matrix diag(1, 0, 0)
violates it by a full unit. See notes in the test body.
"""

import time

import numpy as np

import blochinv.invariants
import blochinv.linalg
from blochinv.groups import act_bloch, act_density, haar_so3, haar_su2, so3_of_u2
from blochinv.invariants import (
    lmm_invariants,
    lmm_invariants_jacobian,
    lmm_positive_cone_check,
    lmm_section_invariants,
    lmm_section_jacobian,
    octahedral_invariants,
    p9_eval,
    r_invariant,
)
from blochinv.linalg import det3, norm_inf
from blochinv.orbits import Verdict, decide_equiv_sym
from blochinv.states import (
    BlochMatrix,
    StateClass,
    bell_projector,
    bloch_of,
    density_of,
    is_positive,
    partial_trace,
    random_bloch,
    random_state,
)
from blochinv.verify import SUITES, report_json, run_all, run_suite


def announce(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {num:2d}: {name} {detail}")


def test_criterion_01_bloch_equivariance():
    rng = np.random.default_rng(101)
    n = 10_000
    start = time.perf_counter()
    worst = 0.0
    for _ in range(n):
        u1, u2 = haar_su2(rng), haar_su2(rng)
        b = random_bloch(StateClass.GENERAL, rng)
        rho = density_of(b)
        lhs = bloch_of(act_density(u1, u2, rho))
        rhs = act_bloch(so3_of_u2(u1), so3_of_u2(u2), b)
        worst = max(worst, norm_inf(lhs.u - rhs.u), norm_inf(lhs.v - rhs.v),
                    norm_inf(lhs.C - rhs.C))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    announce(1, "Bloch-map equivariance", ok,
             f"(residual {worst:.2e}, {elapsed:.2f} s over {n} triples)")
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_02_bell_states():
    half = 0.5 * np.eye(2)
    worst = 0.0
    for name in ("phi+", "phi-", "psi+", "psi-"):
        rho = bell_projector(name)
        worst = max(worst, norm_inf(partial_trace(rho, 1) - half))
        worst = max(worst, norm_inf(partial_trace(rho, 2) - half))
        inv = lmm_invariants(bloch_of(rho).C)
        # All four Bell projectors give (t2, t3, t4) = (3, -1, 3); the
        # negative sign is forced by saturation of t3 <= (1 - t2)/2.
        worst = max(worst, abs(inv.t2 - 3.0), abs(inv.t3 + 1.0), abs(inv.t4 - 3.0))
        worst = max(worst, abs(inv.t3 - 0.5 * (1.0 - inv.t2)))
        worst = max(worst, abs(inv.t4 - (-2.0 * inv.t3 + 0.25 * (1.0 - inv.t2) ** 2)))
    announce(2, "Bell states: partial traces and bound saturation", worst < 1e-12,
             f"(residual {worst:.2e})")
    assert worst < 1e-12


def test_criterion_03_positivity_bounds_as_stated():
    # Criterion: every Ginibre-positive locally maximally mixed state
    # satisfies the positivity bounds on (t2, t3, t4) within 1e-9.
    #
    # The bounds asserted are the exact positive cone. On this stratum the
    # elementary symmetric functions of the density-matrix eigenvalues are
    # e1 = 1, e2 = (3 - t2)/8, e3 = (1 - t2 - 2 t3)/16 and
    # e4 = (1 - 2 t2 - t2^2 - 8 t3 + 2 t4)/256, and a Hermitian matrix is
    # positive semidefinite exactly when all of them are >= 0. That gives
    # t2 <= 3, t3 <= (1 - t2)/2 and the lower bound
    # 2 t4 >= t2^2 + 2 t2 - 1 + 8 t3 (lmm_positive_cone_check), plus
    # t2 >= 0 since t2 is a sum of squares.
    #
    # The criterion used to be stated with the upper bound
    # t4 <= -2 t3 + (1 - t2)^2 / 4. That bound is false
    # for positive states: C = diag(1, 0, 0) gives a positive state with
    # (t2, t3, t4) = (1, 0, 1) and misses it by a full unit, and a majority
    # of the draws below miss it too. The fixed points at the end pin both
    # findings.
    rng = np.random.default_rng(103)
    n = 10_000
    tol = 1e-9
    violations = 0
    example = None
    for _ in range(n):
        rho = random_state(StateClass.LMM, rng, positive=True)
        assert is_positive(rho)
        inv = lmm_invariants(bloch_of(rho).C)
        if not (inv.t2 >= -tol and lmm_positive_cone_check(inv, tol=tol)):
            violations += 1
            if example is None:
                example = inv.as_tuple()

    announce(3, "positivity bounds (exact positive cone)", violations == 0,
             f"({violations}/{n} positive states outside the cone)")
    assert violations == 0, (
        f"{violations} of {n} positive LMM states lie outside the positive "
        f"cone t2 >= 0, t2 <= 3, t3 <= (1 - t2)/2, "
        f"2 t4 >= t2^2 + 2 t2 - 1 + 8 t3 (first example: {example})"
    )

    def lmm_point(diag):
        c = np.diag(diag)
        return density_of(BlochMatrix(np.zeros(3), np.zeros(3), c)), lmm_invariants(c)

    # Not positive (smallest eigenvalue -1/16), inside the t2 and t3
    # conditions: only the t4 condition of the cone rejects it.
    rho, inv = lmm_point([0.75, 0.5, 0.0])
    assert abs(float(np.linalg.eigvalsh(rho)[0]) + 1 / 16) < 1e-12
    assert inv.t2 <= 3.0 and inv.t3 <= 0.5 * (1.0 - inv.t2)
    assert not lmm_positive_cone_check(inv, tol=tol)

    # Positive, inside the cone, outside the quoted upper bound on t4.
    rho, inv = lmm_point([1.0, 0.0, 0.0])
    assert is_positive(rho)
    assert inv.as_tuple() == (1.0, 0.0, 1.0)
    assert lmm_positive_cone_check(inv, tol=tol)
    assert inv.t4 > -2.0 * inv.t3 + 0.25 * (1.0 - inv.t2) ** 2 + tol


def test_criterion_04_restriction_identity():
    rng = np.random.default_rng(104)
    exact = True
    for _ in range(10_000):
        x = rng.uniform(-2, 2, size=3)
        if lmm_invariants(np.diag(x)).as_tuple() != lmm_section_invariants(x).as_tuple():
            exact = False
            break
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(-2, 2, size=3)
        x1, x2, x3 = x
        partials = np.array([
            [2 * x1, 2 * x2, 2 * x3],
            [x2 * x3, x1 * x3, x1 * x2],
            [4 * x1**3, 4 * x2**3, 4 * x3**3],
        ])
        direct = det3(partials)
        closed = lmm_section_jacobian(x)
        worst = max(worst, abs(direct - closed) / max(1.0, abs(direct), abs(closed)))
    ok = exact and worst < 1e-9
    announce(4, "diagonal restriction identity and slice Jacobian", ok,
             f"(bitwise equal; Jacobian residual {worst:.2e})")
    assert exact
    assert worst < 1e-9


def test_criterion_05_algebraic_independence():
    rng = np.random.default_rng(105)
    n = 1000
    full = 0
    for _ in range(n):
        c = rng.uniform(-1, 1, size=(3, 3))
        sv = np.linalg.svd(lmm_invariants_jacobian(c), compute_uv=False)
        if sv[2] > 1e-8:
            full += 1
    announce(5, "invariant Jacobian has rank 3", full >= 0.99 * n,
             f"({full}/{n} full-rank points)")
    assert full >= 0.99 * n


def test_criterion_06_octahedral_relation():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(10_000):
        v = rng.uniform(-2, 2, size=3)
        p = octahedral_invariants(v)
        lhs = p.p4 * p.p4
        rhs = p9_eval(p.p1, p.p2, p.p3)
        worst = max(worst, abs(lhs - rhs) / max(1.0, lhs))
    spot = octahedral_invariants(np.array([1.0, 2.0, 3.0]))
    spot_ok = (spot.p4**2 == 518400.0
               and p9_eval(spot.p1, spot.p2, spot.p3) == 518400.0)
    ok = worst < 1e-9 and spot_ok
    announce(6, "octahedral relation p4^2 = P9", ok,
             f"(residual {worst:.2e}; spot value 518400 exact: {spot_ok})")
    assert worst < 1e-9
    assert spot_ok


def test_criterion_07_g_restriction_identity():
    rng = np.random.default_rng(107)

    def generic_diag():
        while True:
            lam = np.sort(rng.uniform(-2, 2, size=3))[::-1]
            a = np.diag(lam)
            l0, l1, l2 = lam.tolist()
            disc = ((l0 - l1) ** 2 * (l0 - l2) ** 2) * ((l1 - l2) ** 2)
            if disc > 1e-12 * max(1.0, norm_inf(a)) ** 6:
                return a

    worst_diag = 0.0
    for _ in range(10_000):
        a = generic_diag()
        v = rng.uniform(-2, 2, size=3)
        val = r_invariant(v, a)
        expected = (v[0] * v[1] * v[2]) ** 2
        worst_diag = max(worst_diag, abs(val - expected) / max(1.0, val, expected))

    worst_rot = 0.0
    for _ in range(10_000):
        a0 = generic_diag()
        q = haar_so3(rng)
        a = q.T @ a0 @ q
        v = rng.uniform(-2, 2, size=3)
        r = haar_so3(rng)
        v1 = r_invariant(v, a)
        v2 = r_invariant(r @ v, r @ a @ r.T)
        worst_rot = max(worst_rot, abs(v1 - v2) / max(1.0, abs(v1), abs(v2)))

    ok = worst_diag < 1e-8 and worst_rot < 1e-8
    announce(7, "g^2/disc restriction and rotation invariance", ok,
             f"(diagonal {worst_diag:.2e}, invariance {worst_rot:.2e})")
    assert worst_diag < 1e-8
    assert worst_rot < 1e-8


def test_criterion_08_six_invariant_separation():
    rng = np.random.default_rng(108)

    def generic_eigs():
        # Stated genericity margins: eigenvalue gaps and discriminant
        # both above 1e-3.
        while True:
            lam = np.sort(rng.uniform(-2, 2, size=3))[::-1]
            if lam[0] - lam[1] <= 1e-3 or lam[1] - lam[2] <= 1e-3:
                continue
            d = (lam[0] - lam[1]) * (lam[0] - lam[2]) * (lam[1] - lam[2])
            if d * d > 1e-3:
                return lam

    def generic_vec():
        while True:
            v = rng.uniform(-1, 1, size=3)
            if np.min(np.abs(v)) > 0.05:
                return v

    n = 10_000
    fail_complete = 0
    worst_witness = 0.0
    for _ in range(n):
        lam, w = generic_eigs(), generic_vec()
        ra, rb = haar_so3(rng), haar_so3(rng)
        sa = (ra.T @ w, ra.T @ np.diag(lam) @ ra)
        sb = (rb.T @ w, rb.T @ np.diag(lam) @ rb)
        verdict = decide_equiv_sym(sa, sb, tol=1e-8)
        if verdict.verdict is not Verdict.EQUIVALENT:
            fail_complete += 1
            continue
        r = verdict.witness
        worst_witness = max(worst_witness,
                            norm_inf(r @ sa[0] - sb[0]),
                            norm_inf(r @ sa[1] @ r.T - sb[1]))

    fail_separate = 0
    for _ in range(n):
        sa = (generic_vec(), haar_so3(rng).T @ np.diag(generic_eigs()) @ haar_so3(rng))
        sa = (sa[0], 0.5 * (sa[1] + sa[1].T))
        sb = (generic_vec(), np.diag(generic_eigs()))
        if decide_equiv_sym(sa, sb, tol=1e-8).verdict is not Verdict.NOT_EQUIVALENT:
            fail_separate += 1

    ok = fail_complete == 0 and worst_witness < 1e-7 and fail_separate == 0
    announce(8, "six-invariant completeness and separation", ok,
             f"(completeness failures {fail_complete}, witness residual "
             f"{worst_witness:.2e}, separation failures {fail_separate})")
    assert fail_complete == 0
    assert worst_witness < 1e-7
    assert fail_separate == 0


def test_criterion_09_group_enumerations():
    from blochinv.groups import lmm_weyl_action_group, octahedral_group

    octa = octahedral_group()
    weyl = lmm_weyl_action_group()
    octa_keys = {(g.perm, g.signs) for g in octa}
    weyl_keys = {(g.perm, g.signs) for g in weyl}
    ok = len(octa) == 24 and len(weyl) == 24
    ok = ok and ((0, 1, 2), (1, 1, 1)) in octa_keys
    ok = ok and ((0, 1, 2), (1, 1, 1)) in weyl_keys
    ok = ok and all(g.determinant() == 1 for g in octa)
    ok = ok and all(g.sign_product() == 1 for g in weyl)
    for group, keys in ((octa, octa_keys), (weyl, weyl_keys)):
        for g in group:
            for h in group:
                gh = g.compose(h)
                ok = ok and (gh.perm, gh.signs) in keys
                ok = ok and np.array_equal(gh.matrix(), g.matrix() @ h.matrix())
    announce(9, "order-24 group enumerations in exact integers", ok,
             f"(|O| = {len(octa)}, |W| = {len(weyl)}, closed with identity)")
    assert ok


def test_criterion_10_verify_battery_and_mutations(monkeypatch):
    start = time.perf_counter()
    first = run_all(1000, 0)
    second = run_all(1000, 0)
    elapsed = time.perf_counter() - start

    all_pass = all(r.passed for r in first)
    deterministic = report_json(first) == report_json(second)
    in_time = elapsed < 60.0

    true_p9 = blochinv.invariants.p9_eval
    monkeypatch.setattr(blochinv.invariants, "p9_eval",
                        lambda p1, p2, p3: true_p9(p1, p2, p3) + 1e-6 * p1**9)
    p9_mutant_fails = not run_suite("sym", 500, 0).passed
    monkeypatch.undo()

    monkeypatch.setattr(blochinv.linalg, "_orient_right", lambda v, a: (v, a))
    sign_mutant_fails = not run_suite("lmm", 500, 0).passed
    monkeypatch.undo()

    ok = all_pass and deterministic and in_time and p9_mutant_fails and sign_mutant_fails
    announce(10, "full verify battery", ok,
             f"(suites {list(SUITES)} pass: {all_pass}, deterministic: "
             f"{deterministic}, {elapsed:.1f} s for two runs, mutation "
             f"sensitivity: P9 {p9_mutant_fails}, sign fix {sign_mutant_fails})")
    assert all_pass, "verify battery has failing checks"
    assert deterministic
    assert in_time
    assert p9_mutant_fails
    assert sign_mutant_fails
