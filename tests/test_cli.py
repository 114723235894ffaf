"""Tests for the command line surface: exit codes, schemas, determinism."""

import json

import numpy as np
import pytest

from blochinv.cli import main
from blochinv.linalg import rotation_residual
from blochinv.serialize import bloch_document, density_document, dumps
from blochinv.states import BlochMatrix, bell_projector


def write_state(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dumps(doc) + "\n")
    return str(path)


def bloch_file(tmp_path, name, u, v, c):
    doc = bloch_document(BlochMatrix(np.asarray(u, float), np.asarray(v, float),
                                     np.asarray(c, float)))
    return write_state(tmp_path, name, doc)


def assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.fixture
def bell_file(tmp_path):
    return write_state(tmp_path, "bell.json", density_document(bell_projector("phi+")))


@pytest.fixture
def mixed_file(tmp_path):
    return write_state(tmp_path, "mixed.json",
                       density_document(0.25 * np.eye(4, dtype=complex)))


class TestInvariants:
    def test_bell(self, bell_file, capsys):
        assert main(["invariants", bell_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["t2"] == pytest.approx(3.0, abs=1e-12)
        assert out["t3"] == pytest.approx(-1.0, abs=1e-12)
        assert out["t4"] == pytest.approx(3.0, abs=1e-12)
        assert out["bounds_ok"] is True
        assert out["positive"] is True

    def test_maximally_mixed(self, mixed_file, capsys):
        assert main(["invariants", mixed_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["t2"] == 0.0 and out["t3"] == 0.0 and out["t4"] == 0.0

    def test_positive_outside_quoted_t4_bound(self, tmp_path, capsys):
        # (I + sigma1 x sigma1)/4 is positive with (t2, t3, t4) = (1, 0, 1);
        # bounds_ok reports the exact positive cone, which contains it.
        path = bloch_file(tmp_path, "line.json", [0, 0, 0], [0, 0, 0],
                          np.diag([1.0, 0.0, 0.0]))
        assert main(["invariants", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["t2"], out["t3"], out["t4"]) == (1.0, 0.0, 1.0)
        assert out["positive"] is True
        assert out["bounds_ok"] is True

    def test_symmetric_six_fields(self, tmp_path, capsys):
        path = bloch_file(tmp_path, "s.json", [0.3, -0.2, 0.5], [0.3, -0.2, 0.5],
                          np.diag([1.1, 0.4, -0.7]))
        assert main(["invariants", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) >= {"pX", "pY", "pZ", "trA", "trA2", "detA"}
        assert out["trA"] == pytest.approx(0.8)

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{definitely not json")
        assert main(["invariants", str(path)]) == 2
        assert capsys.readouterr().out == ""  # no partial JSON on stdout

    def test_class_mismatch_exit_3(self, tmp_path):
        path = bloch_file(tmp_path, "g.json", [0.5, 0, 0], [0, 0, -0.5],
                          np.diag([0.3, 0.2, 0.1]))
        assert main(["invariants", path]) == 3
        # The stratum follows from the class alone; there is no override.
        with pytest.raises(SystemExit) as exc:
            main(["invariants", path, "--class", "lmm"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
    def test_class_tol_must_be_finite_and_non_negative(self, tmp_path, capsys, tol):
        # --class-tol inf classified this general state as symlmm and printed
        # lmm invariants with exit 0; NaN or -1 made every state general.
        path = bloch_file(tmp_path, "g.json", [0.5, 0, 0], [0, 0, -0.5],
                          np.diag([0.3, 0.2, 0.1]))
        for argv in (["invariants", path], ["equiv", path, path], ["restrict", path]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, f"--class-tol={tol}"])
            assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_class_tol_zero_on_exact_coordinates(self, mixed_file, capsys):
        assert main(["invariants", mixed_file, "--class-tol", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["class"] == "symlmm"

    def test_degenerate_exit_4(self, tmp_path):
        # Symmetric with repeated eigenvalues of the 2-point block.
        path = bloch_file(tmp_path, "d.json", [0.3, 0.1, 0.2], [0.3, 0.1, 0.2],
                          0.5 * np.eye(3))
        assert main(["invariants", path]) == 4

    @pytest.mark.parametrize("scale", [1e8, 1e20, 1e60])
    def test_dense_large_entries(self, tmp_path, capsys, scale):
        # The density matrix of a Bloch file at this scale has rounding of
        # order eps |rho| in its imaginary parts, far above 1e-10 absolute.
        rng = np.random.default_rng(31)
        for k in range(10):
            c = rng.uniform(-scale, scale, size=(3, 3))
            path = bloch_file(tmp_path, f"big{k}.json", [0, 0, 0], [0, 0, 0], c)
            assert main(["invariants", path]) == 0
            out = json.loads(capsys.readouterr().out)
            assert abs(out["t2"] - float(np.sum(c * c))) <= 1e-12 * 9 * scale**2


class TestEquiv:
    def test_rotated_copy_exit_0(self, tmp_path, capsys):
        from blochinv.groups import haar_so3

        rng = np.random.default_rng(0)
        c = np.diag([1.4, 0.8, 0.3])
        a = bloch_file(tmp_path, "a.json", [0, 0, 0], [0, 0, 0], c)
        b = bloch_file(tmp_path, "b.json", [0, 0, 0], [0, 0, 0],
                       haar_so3(rng) @ c @ haar_so3(rng).T)
        assert main(["equiv", a, b]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "equivalent"
        assert out["witness"] is not None and "R1" in out["witness"]

    def test_sign_flip_exit_1(self, tmp_path, capsys):
        a = bloch_file(tmp_path, "a.json", [0, 0, 0], [0, 0, 0], np.diag([1.0, 2.0, 3.0]))
        b = bloch_file(tmp_path, "b.json", [0, 0, 0], [0, 0, 0], np.diag([1.0, 2.0, -3.0]))
        assert main(["equiv", a, b]) == 1
        assert json.loads(capsys.readouterr().out)["verdict"] == "not_equivalent"

    def test_mixed_pair_exit_0(self, mixed_file, capsys):
        # C = 0 ties all three singular values; the witness still certifies.
        assert main(["equiv", mixed_file, mixed_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "equivalent"
        assert all(rotation_residual(np.array(out["witness"][k])) <= 1e-11
                   for k in ("R1", "R2"))

    def test_valid_tol_same_orbit_exit_0(self, tmp_path, capsys):
        from blochinv.groups import haar_so3

        c = np.diag([1.4, 0.8, 0.3])
        a = bloch_file(tmp_path, "a.json", [0, 0, 0], [0, 0, 0], c)
        b = bloch_file(tmp_path, "b.json", [0, 0, 0], [0, 0, 0],
                       haar_so3(np.random.default_rng(2)) @ c)
        assert main(["equiv", a, b, "--tol", "1e-6"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "equivalent"

    @pytest.mark.parametrize("tol", ["-1", "0", "inf", "nan"])
    def test_tol_must_be_finite_and_positive(self, mixed_file, tol):
        # Each would give a meaningless verdict (see the library test), so
        # the CLI rejects it as a usage error.
        with pytest.raises(SystemExit) as exc:
            main(["equiv", mixed_file, mixed_file, "--tol", tol])
        assert exc.value.code == 2

    def test_class_mismatch_exit_3(self, tmp_path, bell_file):
        g = bloch_file(tmp_path, "g.json", [0.5, 0, 0], [0, 0, -0.5],
                       np.diag([0.3, 0.2, 0.1]))
        assert main(["equiv", bell_file, g]) == 3

    def test_symmetric_pair(self, tmp_path, capsys):
        from blochinv.groups import haar_so3

        rng = np.random.default_rng(1)
        v = np.array([0.4, -0.1, 0.6])
        a = np.diag([1.2, 0.5, -0.3])
        r = haar_so3(rng)
        fa = bloch_file(tmp_path, "sa.json", v, v, a)
        fb = bloch_file(tmp_path, "sb.json", r @ v, r @ v, r @ a @ r.T)
        assert main(["equiv", fa, fb]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "equivalent" and "R" in out["witness"]


    def test_extreme_scale_symmetric_exit_0(self, tmp_path, capsys):
        # A = 1e60 diag(3, 2, 1): the degeneracy test must not overflow.
        v = [0.1, 0.2, 0.3]
        path = bloch_file(tmp_path, "big.json", v, v, 1e60 * np.diag([3.0, 2.0, 1.0]))
        assert main(["equiv", path, path]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "equivalent"
        assert main(["invariants", path]) == 0

    def test_top_of_double_range_exit_0(self, tmp_path, capsys):
        # 1e308 I is finite; its density operator must be too.
        path = bloch_file(tmp_path, "top.json", [0, 0, 0], [0, 0, 0], 1e308 * np.eye(3))
        assert main(["equiv", path, path]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "equivalent"
        assert main(["canonical", path]) == 0
        assert json.loads(capsys.readouterr().out)["diag"] == [1e308] * 3


class TestCanonical:
    def test_bell(self, bell_file, capsys):
        assert main(["canonical", bell_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["class"] == "lmm"
        np.testing.assert_allclose(out["diag"], [1.0, 1.0, -1.0], atol=1e-12)
        assert out["degenerate"] is True

    def test_symmetric(self, tmp_path, capsys):
        path = bloch_file(tmp_path, "s.json", [-1.0, -2.0, 3.0], [-1.0, -2.0, 3.0],
                          np.diag([0.3, 0.2, 0.1]))
        assert main(["canonical", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["class"] == "sym"
        np.testing.assert_allclose(out["eigs"], [0.3, 0.2, 0.1], atol=1e-14)
        np.testing.assert_allclose(out["w"], [1.0, 2.0, 3.0], atol=1e-14)


class TestRandom:
    def test_lmm_bloch_draw(self, capsys):
        assert main(["random", "--class", "lmm", "--seed", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["format"] == "bloch"
        assert out["u"] == [0.0, 0.0, 0.0] and out["v"] == [0.0, 0.0, 0.0]

    def test_positive_draw(self, capsys):
        from blochinv.serialize import parse_state_document
        from blochinv.states import is_positive

        assert main(["random", "--class", "sym", "--seed", "2", "--positive"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "density"
        _, rho = parse_state_document(doc)
        assert is_positive(rho)

    @pytest.mark.parametrize("positive", [[], ["--positive"]])
    def test_negative_seed_usage_error(self, capsys, positive):
        # numpy would reject a negative seed with a traceback; the parser
        # rejects it first.
        with pytest.raises(SystemExit) as exc:
            main(["random", "--class", "lmm", "--seed", "-1", *positive])
        assert exc.value.code == 2
        assert "must be at least 0" in capsys.readouterr().err

    def test_byte_identical(self, capsys):
        assert main(["random", "--class", "general", "--seed", "7", "--positive"]) == 0
        first = capsys.readouterr().out
        assert main(["random", "--class", "general", "--seed", "7", "--positive"]) == 0
        assert capsys.readouterr().out == first


class TestRestrict:
    def test_bell_emits_slice_point(self, bell_file, capsys):
        assert main(["restrict", bell_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["class"] == "lmm"
        np.testing.assert_allclose(out["x"], [1.0, 1.0, -1.0], atol=1e-12)
        assert out["degenerate"] is True
        assert out["s1"] == pytest.approx(3.0, abs=1e-12)
        assert out["s2"] == pytest.approx(-1.0, abs=1e-12)

    def test_maximally_mixed_exit_0(self, mixed_file, capsys):
        # C = 0 restricts to the slice origin like any other lmm state.
        assert main(["restrict", mixed_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["x"] == [0.0, 0.0, 0.0]
        assert out["s1"] == 0.0 and out["s2"] == 0.0 and out["s3"] == 0.0
        assert all(rotation_residual(np.array(out["witness"][k])) <= 1e-11
                   for k in ("R1", "R2"))

    def test_symmetric(self, tmp_path, capsys):
        path = bloch_file(tmp_path, "s.json", [1.0, 2.0, 3.0], [1.0, 2.0, 3.0],
                          np.diag([0.1, 0.2, 0.3]))
        assert main(["restrict", path]) == 0
        out = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(out["lambda"], [0.3, 0.2, 0.1], atol=1e-14)
        assert set(out) >= {"w", "p1", "p2", "p3", "p4", "X", "Y", "Z"}
        # w is the 1-point vector rotated into the eigenbasis, up to even
        # sign flips: components are a signed permutation of the input.
        assert sorted(np.abs(out["w"])) == pytest.approx([1.0, 2.0, 3.0], abs=1e-12)

    @pytest.mark.parametrize("command", ["restrict", "invariants"])
    @pytest.mark.parametrize("scale", [1e-60, 1e-100])
    def test_tiny_vector_exit_4(self, tmp_path, capsys, command, scale):
        # p1 > 0, but p1^3 (at 1e-60) or p1^2 (at 1e-100) underflows to 0,
        # so X, Y, Z are undefined: a typed error, not a ZeroDivisionError.
        v = [scale * 0.1, scale * 0.2, scale * 0.3]
        path = bloch_file(tmp_path, "tiny.json", v, v, np.diag([0.1, 0.2, 0.3]))
        assert main([command, path, "--class-tol", "0"]) == 4
        assert_one_error_line(capsys)


class TestTypedErrors:
    """Every failure at the state-file boundary is one error line and an exit
    code, never a traceback."""

    @pytest.mark.parametrize("command, u, c", [
        ("invariants", [0, 0, 0], 1e77 * np.eye(3)),
        ("restrict", [0, 0, 0], 1e77 * np.eye(3)),
        ("invariants", [0, 0, 0], 1e160 * np.eye(3)),
        ("restrict", [0, 0, 0], 1e160 * np.eye(3)),
        ("invariants", [0.1, 0.2, 0.3], 1e160 * np.diag([3.0, 2.0, 1.0])),
        ("restrict", [1e150, 2e150, -1e150], np.diag([3.0, 2.0, 1.0])),
        ("restrict", [1e160, 2e160, -1e160], np.diag([3.0, 2.0, 1.0])),
    ], ids=["invariants-lmm-1e77", "restrict-lmm-1e77", "invariants-lmm-1e160",
            "restrict-lmm-1e160", "invariants-sym-A-1e160", "restrict-sym-v-1e150",
            "restrict-sym-v-1e160"])
    def test_invariant_overflow_exit_4(self, tmp_path, capsys, command, u, c):
        # An invariant of positive degree overflows the double range.
        path = bloch_file(tmp_path, "big.json", u, u, c)
        assert main([command, path]) == 4
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("doc", [
        {"format": "bloch", "u": [10**400, 0, 0], "v": [0, 0, 0], "C": [[0, 0, 0]] * 3},
        {"format": "bloch", "u": [0, 0, 0], "v": [0, 0, 0],
         "C": [[10**400, 0, 0], [0, 0, 0], [0, 0, 0]]},
        {"format": "density",
         "matrix": [[[10**400 if i == j == 0 else 0.25 * (i == j), 0] for j in range(4)]
                    for i in range(4)]},
    ], ids=["bloch-u", "bloch-C", "density"])
    def test_integer_beyond_double_range_exit_2(self, tmp_path, capsys, doc):
        path = tmp_path / "int.json"
        path.write_text(json.dumps(doc))
        assert main(["invariants", str(path)]) == 2
        assert_one_error_line(capsys)

    @staticmethod
    def _density(diag, entries):
        matrix = [[[d if i == j else 0.0, 0.0] for j, d in enumerate(diag)]
                  for i in range(4)]
        for (i, j), z in entries.items():
            matrix[i][j] = [z.real, z.imag]
        return {"format": "density", "matrix": matrix}

    @pytest.mark.parametrize("diag, entries, code", [
        ([1.7e308, 1.7e308, -1.7e308, -1.7e308], {}, 3),
        ([0.25] * 4, {(0, 1): 1.7e308, (1, 0): -1.7e308}, 2),
        ([0.25] * 4, {(0, 1): 1.7e308 + 1.7e308j, (1, 0): 1.7e308 + 1.7e308j}, 2),
    ], ids=["trace-0-general", "non-hermitian", "non-hermitian-complex"])
    def test_density_near_top_of_double_range(self, tmp_path, capsys, diag, entries, code):
        # The Hermitian and trace tests stay finite: the trace-0 state is
        # within the relative tolerance of unit trace and classified
        # general, the others are not Hermitian; no numpy warning.
        path = tmp_path / "top.json"
        path.write_text(json.dumps(self._density(diag, entries)))
        assert main(["invariants", str(path)]) == code
        assert_one_error_line(capsys)


class TestCrossProcessDeterminism:
    def test_random_output_identical_across_processes(self):
        import subprocess
        import sys

        cmd = [sys.executable, "-m", "blochinv.cli", "random", "--class", "sym",
               "--seed", "11", "--positive"]
        a = subprocess.run(cmd, capture_output=True, text=True, check=True)
        b = subprocess.run(cmd, capture_output=True, text=True, check=True)
        assert a.stdout == b.stdout and a.stdout.strip()


class TestVerify:
    def test_small_battery_passes(self, capsys):
        assert main(["verify", "--samples", "25", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_json_deterministic(self, capsys):
        assert main(["verify", "--suite", "group", "--samples", "30",
                     "--seed", "5", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--suite", "group", "--samples", "30",
                     "--seed", "5", "--json"]) == 0
        assert capsys.readouterr().out == first
        assert json.loads(first)["passed"] is True

    def test_zero_samples_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--samples", "0"])
        assert exc.value.code == 2

    def test_negative_seed_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "group", "--samples", "1", "--seed", "-5"])
        assert exc.value.code == 2
        assert "must be at least 0" in capsys.readouterr().err
