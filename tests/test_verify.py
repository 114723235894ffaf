"""Tests for the verification battery itself: determinism across runs,
trial-order independence, and sensitivity to injected faults."""

import json
from collections import Counter

import numpy as np
import pytest

import blochinv.groups
import blochinv.invariants
import blochinv.linalg
import blochinv.verify
from blochinv.cli import main
from blochinv.errors import NotUnitary
from blochinv.serialize import dumps
from blochinv.states import BlochMatrix
from blochinv.verify import (
    SUITES,
    CheckResult,
    SuiteReport,
    report_json,
    report_table,
    run_all,
    run_suite,
    trial_rng,
)
from pins import check


def strip_times(reports):
    return [(r.suite, r.samples, r.seed,
             [(c.name, c.passed, c.max_residual, c.detail) for c in r.checks])
            for r in reports]


class TestBattery:
    def test_all_suites_pass_small(self):
        reports = run_all(60, 11)
        assert [r.suite for r in reports] == list(SUITES)
        for rep in reports:
            for chk in rep.checks:
                assert chk.passed, f"{rep.suite}/{chk.name}: {chk.detail}"

    def test_deterministic_reports(self):
        a = run_all(40, 17)
        b = run_all(40, 17)
        assert strip_times(a) == strip_times(b)

    def test_trial_rng_is_order_independent(self):
        draws_fwd = [trial_rng(9, "sym", t).uniform(-1, 1, 3) for t in range(10)]
        draws_rev = [trial_rng(9, "sym", t).uniform(-1, 1, 3) for t in reversed(range(10))]
        for fwd, rev in zip(draws_fwd, reversed(draws_rev)):
            np.testing.assert_array_equal(fwd, rev)

    def test_each_trial_stream_requested_once(self, monkeypatch):
        requests = Counter()

        def counting(seed, suite, trial):
            requests[suite, trial] += 1
            return trial_rng(seed, suite, trial)

        monkeypatch.setattr(blochinv.verify, "trial_rng", counting)
        run_all(40, 0)
        assert requests and max(requests.values()) == 1

    def test_report_formats(self):
        reports = run_all(20, 1, suites=("group",))
        table = report_table(reports)
        assert "group" in table and "PASS" in table
        doc = report_json(reports)
        assert doc["passed"] is True
        assert doc["suites"][0]["suite"] == "group"

    def test_non_finite_residual_is_null_in_json(self):
        # dumps refuses NaN and Inf; a failing check must still serialize.
        checks = [CheckResult("nan", False, float("nan")), CheckResult("inf", False, np.inf),
                  CheckResult("finite", True, 1e-15)]
        reports = [SuiteReport(suite="bloch", samples=1, seed=0, checks=checks)]
        doc = json.loads(dumps(report_json(reports)))
        assert doc["passed"] is False and doc["suites"][0]["passed"] is False
        assert [(c["max_residual"], c["passed"]) for c in doc["suites"][0]["checks"]] == [
            (None, False), (None, False), (1e-15, True)]
        lines = report_table(reports).splitlines()
        assert "FAIL" in lines[2] and "nan" in lines[2] and "inf" in lines[3]

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("nope", 10, 0)
        with pytest.raises(ValueError):
            run_suite("sym", 0, 0)

    def test_seed_rule(self):
        # Every non-negative seed has its own streams; no negative one runs.
        def checks(seed):
            return [r[3] for r in strip_times(run_all(3, seed))]

        assert checks(2**63) != checks(0)
        with pytest.raises(ValueError, match="seed"):
            run_suite("group", 1, -1)


def battery_lines():
    """The battery pin's lines: every check of run_all(30, seed), keyed
    "seed suite/check", for a one-word seed and a three-word one."""
    return [(f"{seed} {rep.suite}/{chk.name}",
             f"{chk.passed} {float.hex(chk.max_residual)} {chk.detail}")
            for seed in (0, 2**64 + 3) for rep in run_all(30, seed) for chk in rep.checks]


class TestBatteryPinned:
    """Every check of the battery report in float.hex: pass flag, worst
    residual and detail, for two seeds. A change of any trial stream or
    residual bit moves it."""

    def test_digest(self):
        lines = battery_lines()
        assert len(lines) == 2 * 36
        check("battery", lines)


@pytest.fixture
def cold_kernels():
    """Both kernel memos empty before and after the test: a patched helper
    of a kernel body then runs on every input, and none of its results
    stays behind for later tests."""
    blochinv.linalg._eig_body.cache_clear()
    blochinv.linalg._svd_body.cache_clear()
    yield
    blochinv.linalg._eig_body.cache_clear()
    blochinv.linalg._svd_body.cache_clear()


class TestFaultInjection:
    def test_perturbed_p9_fails_sym_suite(self, monkeypatch):
        true_p9 = blochinv.invariants.p9_eval

        def mutant(p1, p2, p3):
            return true_p9(p1, p2, p3) + 1e-6 * p1**9

        monkeypatch.setattr(blochinv.invariants, "p9_eval", mutant)
        report = run_suite("sym", 200, 0)
        failed = [c.name for c in report.checks if not c.passed]
        assert "octahedral_relation_p4_p9" in failed

    def test_dropped_sign_fix_fails_lmm_suite(self, monkeypatch, cold_kernels):
        # Both kernel bodies undo a reflection through _reflected.
        monkeypatch.setattr(blochinv.linalg, "_reflected", lambda det: False)
        report = run_suite("lmm", 200, 0)
        failed = [c.name for c in report.checks if not c.passed]
        assert "kernel_signed_svd3" in failed
        assert "kernel_eig_sym3" in failed

    def test_flipped_jacobi_sine_fails_both_kernels(self, monkeypatch, cold_kernels):
        # eig_sym3 and signed_svd3 share one Jacobi rotation; a wrong sign
        # of its sine must show in the checks of both.
        true_rotation = blochinv.linalg._jacobi_rotation

        def mutant(app, aqq, apq):
            t, c, s = true_rotation(app, aqq, apq)
            return t, c, -s

        monkeypatch.setattr(blochinv.linalg, "_jacobi_rotation", mutant)
        report = run_suite("lmm", 200, 0)
        failed = {c.name for c in report.checks if not c.passed}
        assert failed >= {"kernel_eig_sym3", "kernel_signed_svd3", "kernel_signed_svd3_graded"}

    def _check(self, report, name):
        return next(c for c in report.checks if c.name == name)

    @pytest.fixture
    def nan_correlations(self, monkeypatch):
        """act_bloch with an all-NaN C: the equivariance residual is NaN."""
        true_act = blochinv.verify.act_bloch

        def mutant(r1, r2, b):
            img = true_act(r1, r2, b)
            return BlochMatrix(img.u, img.v, np.full((3, 3), np.nan))

        monkeypatch.setattr(blochinv.verify, "act_bloch", mutant)

    def test_nan_correlations_fail_equivariance(self, nan_correlations):
        # Python's max(res, nan) keeps res; the battery must not.
        chk = self._check(run_suite("bloch", 20, 0), "equivariance")
        assert not chk.passed and np.isnan(chk.max_residual)

    def test_nan_check_cli_json_exits_1(self, nan_correlations, capsys):
        # The table prints nan; --json must print null, not a traceback.
        assert main(["verify", "--suite", "bloch", "--samples", "4", "--seed", "0", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        chk = next(c for c in doc["suites"][0]["checks"] if c["name"] == "equivariance")
        assert doc["passed"] is False and chk == {**chk, "passed": False, "max_residual": None}

    def test_nan_invariant_fails_six_invariant_invariance(self, monkeypatch):
        true_sym = blochinv.verify.sym_invariants

        def mutant(v, a):
            inv = true_sym(v, a)
            inv.pZ = np.nan
            return inv

        monkeypatch.setattr(blochinv.verify, "sym_invariants", mutant)
        chk = self._check(run_suite("sym", 20, 0), "six_invariant_invariance")
        assert not chk.passed and np.isnan(chk.max_residual)

    def test_nan_rotation_fails_kernel_eig_sym3(self, monkeypatch):
        true_eig = blochinv.linalg.eig_sym3

        def mutant(a):
            eig = true_eig(a)
            return eig._replace(rotation=np.full((3, 3), np.nan))

        monkeypatch.setattr(blochinv.linalg, "eig_sym3", mutant)
        chk = self._check(run_suite("lmm", 20, 0), "kernel_eig_sym3")
        assert not chk.passed and np.isnan(chk.max_residual)

    def test_odd_element_fails_octahedral_group(self, monkeypatch):
        group = blochinv.groups.octahedral_group()
        group[5] = blochinv.groups.SignedPerm(perm=(0, 1, 2), signs=(-1, -1, -1))
        monkeypatch.setattr(blochinv.verify, "octahedral_group", lambda: group)
        assert not self._check(run_suite("group", 20, 0), "octahedral_group_order_24").passed

    def test_repeated_element_fails_weyl_group(self, monkeypatch):
        weyl = blochinv.groups.lmm_weyl_action_group()
        weyl[7] = weyl[3]
        monkeypatch.setattr(blochinv.verify, "lmm_weyl_action_group", lambda: weyl)
        assert not self._check(run_suite("group", 20, 0), "weyl_action_group_order_24").passed

    def test_mismatched_pair_fails_normalizer(self, monkeypatch):
        # R2 with another permutation than R1 maps diag(probe) off the slice.
        pairs = blochinv.groups.lmm_normalizer_pairs(blochinv.groups.octahedral_group())
        r1, r2 = pairs[0]
        other = next(q for p, q in pairs if not np.array_equal(abs(q), abs(r2)))
        pairs[0] = (r1, other)
        monkeypatch.setattr(blochinv.verify, "lmm_normalizer_pairs", lambda group: pairs)
        chk = self._check(run_suite("group", 20, 0), "normalizer_induces_weyl_action")
        assert not chk.passed and chk.max_residual >= 1.0

    @pytest.mark.parametrize("suite", ["lmm", "sym", "orbit"])
    def test_every_battery_rotation_is_checked(self, monkeypatch, suite):
        # One Gaussian pair off the unit sphere, at the first, a middle or
        # the last Haar draw of the suite, stops the suite with NotUnitary:
        # no draw reaches a check without the unitarity test.
        true_pair = blochinv.groups._haar_pair
        draws = []

        def counting(seed):
            draws.append(None)
            return true_pair(seed)

        monkeypatch.setattr(blochinv.groups, "_haar_pair", counting)
        run_suite(suite, 5, 3)
        n = len(draws)
        assert n > 10
        for broken in (0, n // 2, n - 1):
            calls = []

            def faulty(seed, broken=broken, calls=calls):
                a, b = true_pair(seed)
                calls.append(None)
                if len(calls) - 1 == broken:
                    return (1.0 + 1e-9) * a, (1.0 + 1e-9) * b
                return a, b

            monkeypatch.setattr(blochinv.groups, "_haar_pair", faulty)
            with pytest.raises(NotUnitary):
                run_suite(suite, 5, 3)
            assert len(calls) == broken + 1


def _reference_rng(seed, suite, trial):
    """The trial generator as numpy derives it from a list of ints."""
    return np.random.default_rng(np.random.SeedSequence([seed, SUITES.index(suite), trial]))


def _draws(rng):
    return b"".join(x.tobytes() for x in (
        rng.uniform(-1.0, 1.0, size=5), rng.standard_normal(4),
        rng.integers(0, 2**62, size=3), rng.permutation(7)))


class TestReplacedExpressions:
    """Each rewritten battery expression against the form it replaced, both
    run on the installed numpy."""

    @pytest.mark.parametrize("seed", [0, 1, 2**31, 2**32 - 1, 2**32, 2**63, 2**64 + 3])
    def test_trial_rng_is_the_int_list_stream(self, seed):
        for suite in SUITES:
            for trial in (0, 1, 750_999, 2**32 + 1):
                assert _draws(trial_rng(seed, suite, trial)) == \
                    _draws(_reference_rng(seed, suite, trial)), (suite, trial)

    def test_pcg64_words_are_generate_state(self):
        # The hash on Python ints against numpy's, over entropies of one to
        # six words, extreme words included.
        rng = np.random.default_rng(32)
        for k in range(1000):
            words = rng.integers(0, 2**32, size=1 + k % 6, dtype=np.uint64)
            words[rng.integers(len(words))] = (0, 2**32 - 1)[k % 2]
            seq = np.random.SeedSequence(words.astype(np.uint32))
            assert blochinv.verify._pcg64_words(seq.pool.tolist()) == \
                seq.generate_state(4, np.uint64).tolist()

    def test_trial_rng_refuses_negative_words(self):
        with pytest.raises(ValueError):
            trial_rng(-1, "bloch", 0)
        with pytest.raises(ValueError):
            trial_rng(0, "bloch", -1)

    @pytest.mark.parametrize("low, high, gap", [(-2.0, 2.0, 1e-3), (0.1, 2.0, 1e-3),
                                                (-2.0, 2.0, 0.9)])
    def test_gapped_descending_is_the_sorted_form(self, low, high, gap):
        # The gap 0.9 rejects most draws, so the retry loop runs too.
        def reference(rng):
            while True:
                vals = np.sort(rng.uniform(low, high, size=3))[::-1]
                if vals[0] - vals[1] > gap and vals[1] - vals[2] > gap:
                    return vals

        for k in range(300):
            rng, ref = np.random.default_rng(k), np.random.default_rng(k)
            got, want = blochinv.verify._gapped_descending(rng, low, high, gap), reference(ref)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state
