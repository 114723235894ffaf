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

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_path_exit_2(self, tmp_path, capsys, kind):
        path = tmp_path / "state.json"
        if kind == "directory":
            path.mkdir()
        assert main(["invariants", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: cannot read {path}: ")

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

    @pytest.mark.parametrize("content", [
        b"[" * 200_000,
        b'{"format": "bloch", \xff "u": [0, 0, 0]}',
        b'{"format": "bloch", "u": [' + b"1" * 5000 + b', 0, 0], "v": [0, 0, 0], '
        b'"C": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}',
    ], ids=["nested-200000-deep", "byte-0xff-outside-string", "integer-of-5000-digits"])
    def test_malformed_file_exit_2(self, tmp_path, capsys, content):
        # Each raised a RecursionError, UnicodeDecodeError or ValueError, a
        # traceback with exit 1, which equiv uses for NOT_EQUIVALENT.
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["equiv", str(path), str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert main(["invariants", str(path)]) == 2
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("u0, kind", [
        ("[" + "0, " * (10**6 - 1) + "0]", "an array"),
        ("[" * 980 + "]" * 980, "an array"),
        ('"' + "7" * 10**6 + '"', "a string"),
    ], ids=["list-of-1e6-zeros", "nested-980-deep", "string-of-1e6-chars"])
    def test_non_number_error_is_bounded(self, tmp_path, u0, kind):
        # The line names the value's JSON type, not its text. A process of
        # its own: under the test runner's stack the nested lists would
        # reach the parser's recursion limit first.
        import subprocess
        import sys

        path = tmp_path / "big.json"
        path.write_text('{"format": "bloch", "u": [' + u0 + ', 0, 0], "v": [0, 0, 0], '
                        '"C": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}')
        proc = subprocess.run([sys.executable, "-m", "blochinv.cli", "equiv", str(path),
                               str(path)], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: {path}: u[0]: expected a number, got {kind}\n"

    @staticmethod
    def _density(diag, entries):
        matrix = [[[d if i == j else 0.0, 0.0] for j, d in enumerate(diag)]
                  for i in range(4)]
        for (i, j), z in entries.items():
            matrix[i][j] = [z.real, z.imag]
        return {"format": "density", "matrix": matrix}

    @pytest.mark.parametrize("diag, entries, code", [
        ([1.7e308, 1.7e308, -1.7e308, -1.7e308], {}, 4),
        ([0.25] * 4, {(0, 1): 1.7e308, (1, 0): -1.7e308}, 2),
        ([0.25] * 4, {(0, 1): 1.7e308 + 1.7e308j, (1, 0): 1.7e308 + 1.7e308j}, 2),
        ([0.25] * 4, {(0, 1): 1.7e308 + 1.7e308j, (1, 0): 1.7e308 - 1.7e308j}, 4),
    ], ids=["trace-0-general", "non-hermitian", "non-hermitian-complex", "hermitian-complex"])
    def test_density_near_top_of_double_range(self, tmp_path, capsys, diag, entries, code):
        # The Hermitian and trace tests stay finite: the trace-0 state is
        # within the relative tolerance of unit trace, the non-Hermitian
        # ones are rejected; the two valid states have a Bloch coordinate
        # beyond the double range (u_z = 6.8e308 and v_x = 3.4e308), a typed
        # NotRepresentable (exit 4), not an infinite coordinate.
        path = tmp_path / "top.json"
        path.write_text(json.dumps(self._density(diag, entries)))
        assert main(["invariants", str(path)]) == code
        assert_one_error_line(capsys)


class TestKernelRange:
    """States whose eigenvalues or singular values lie near or beyond the top
    of the double range: a verdict or one error line, never a traceback."""

    V = [0.1, 0.2, 0.3]
    # Eigenvalues +-1.118e308 and 1.
    NEAR_TOP = [[1e308, 5e307, 0.0], [5e307, -1e308, 0.0], [0.0, 0.0, 1.0]]

    @pytest.mark.parametrize("command, code", [
        ("canonical", 0), ("restrict", 0), ("invariants", 4), ("equiv", 0)])
    def test_sym_spectrum_near_top(self, tmp_path, capsys, command, code):
        # invariants: tr A^2 and det A are beyond the double range.
        path = bloch_file(tmp_path, "top.json", self.V, self.V, self.NEAR_TOP)
        assert main([command, path] + [path] * (command == "equiv")) == code
        if code == 4:
            assert_one_error_line(capsys)
        elif command == "equiv":
            assert json.loads(capsys.readouterr().out)["verdict"] == "equivalent"

    @pytest.mark.parametrize("command", ["canonical", "restrict", "invariants", "equiv"])
    def test_sym_diagonal_near_top(self, tmp_path, capsys, command):
        # Relative to 1.7e308 the eigenvalues 1 and -1 coincide: degenerate.
        path = bloch_file(tmp_path, "diag.json", self.V, self.V, np.diag([1.7e308, 1.0, -1.0]))
        if command == "equiv":
            assert main([command, path, path]) == 4
            assert json.loads(capsys.readouterr().out)["verdict"] == "indeterminate"
        else:
            assert main([command, path]) == 4
            assert_one_error_line(capsys)

    @pytest.mark.parametrize("command", ["canonical", "restrict"])
    def test_lmm_singular_value_beyond_range_exit_4(self, tmp_path, capsys, command):
        path = bloch_file(tmp_path, "big.json", [0, 0, 0], [0, 0, 0], np.full((3, 3), 1.7e308))
        assert main([command, path]) == 4
        assert_one_error_line(capsys)


class TestScaleSweep:
    """invariants, canonical, restrict and equiv on an lmm and a sym state
    scaled by 2^k, k = -1000..1000 in steps of 100: a Bloch file scaled by
    2^k and a density file I/4 + 2^k (rho - I/4), which keeps the trace at 1
    and sends the density check through a scale above 1. Every run exits
    with a documented code, prints exactly one error line when that code
    is not 0, and never raises."""

    @pytest.mark.parametrize("state_class", ["lmm", "sym"])
    def test_documented_exit_and_one_error_line(self, tmp_path, capsys, state_class):
        from blochinv.groups import random_bloch
        from blochinv.states import density_of

        b = random_bloch(state_class, 3)
        rho = np.array(density_of(b))
        for k in range(-1000, 1001, 100):
            s = 2.0 ** k
            docs = {
                "bloch": bloch_document(BlochMatrix(np.multiply(b.u, s), np.multiply(b.v, s),
                                                    np.multiply(b.C, s))),
                "density": density_document(0.25 * np.eye(4) + s * (rho - 0.25 * np.eye(4))),
            }
            for fmt, doc in docs.items():
                path = write_state(tmp_path, f"{fmt}.json", doc)
                for command in ("invariants", "canonical", "restrict", "equiv"):
                    code = main([command, path] + [path] * (command == "equiv"))
                    assert code in (0, 2, 3, 4), (fmt, k, command)
                    if code:
                        assert_one_error_line(capsys)
                    else:
                        captured = capsys.readouterr()
                        assert captured.err == "" and json.loads(captured.out)


class TestStratumTables:
    """_stratum classifies a density file on the fields of its one Bloch
    table and a Bloch file on its own fields, with no table at all."""

    @pytest.mark.parametrize("fmt, tables", [("density", 1), ("bloch", 0)])
    def test_table_count(self, tmp_path, monkeypatch, capsys, fmt, tables):
        from blochinv import states

        doc = density_document(bell_projector("phi+"))
        if fmt == "bloch":
            doc = bloch_document(states.bloch_of(bell_projector("phi+")))
        path = write_state(tmp_path, f"{fmt}.json", doc)
        table, calls = states._table, []
        monkeypatch.setattr(states, "_table", lambda rho: calls.append(rho) or table(rho))
        assert main(["invariants", path]) == 0
        assert len(calls) == tables


class TestDensityReads:
    """A density file is read through validate_density, bloch_of and, for
    invariants, is_positive; the checks and the table behind them run once
    per distinct file, and each later read of the same rows is served from
    the density memo."""

    @pytest.mark.parametrize("args, files, codes", [
        (["invariants", "a"], 1, {0}), (["canonical", "a"], 1, {0}),
        (["equiv", "a", "a"], 1, {0}), (["equiv", "a", "b"], 2, {0, 1}),
    ], ids=["invariants", "canonical", "equiv-same", "equiv-two"])
    def test_body_runs_once_per_distinct_file(self, tmp_path, capsys, args, files, codes):
        from blochinv import states

        paths = {name: write_state(tmp_path, f"{name}.json",
                                   density_document(bell_projector(which)))
                 for name, which in (("a", "phi+"), ("b", "psi-"))}
        states._density_body.cache_clear()
        assert main([paths.get(arg, arg) for arg in args]) in codes
        assert states._density_body.cache_info().misses == files


class TestNoNumpy:
    """invariants, equiv, canonical and restrict, each in a process of its
    own on Bloch and density files, load neither numpy nor the group
    machinery nor the battery."""

    @pytest.mark.parametrize("state_class, seed", [("lmm", 1), ("sym", 2)])
    @pytest.mark.parametrize("command", ["invariants", "equiv", "canonical", "restrict"])
    def test_command_never_imports_numpy(self, tmp_path, capsys, command, state_class, seed):
        import subprocess
        import sys

        paths = []
        for fmt, flags in (("bloch", []), ("density", ["--positive"])):
            assert main(["random", "--class", state_class, "--seed", str(seed), *flags]) == 0
            paths.append(write_state(tmp_path, f"{fmt}.json", json.loads(capsys.readouterr().out)))
        # equiv: the two different states, then the density state with itself.
        runs = [paths, [paths[1]] * 2] if command == "equiv" else [[path] for path in paths]
        code = ("import sys\nfrom blochinv.cli import main\n"
                "codes = [main([sys.argv[1], *files.split(',')]) for files in sys.argv[2:]]\n"
                "print(codes, [m for m in ('numpy', 'blochinv.verify', 'blochinv.groups') "
                "if m in sys.modules], file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-c", code, command, *map(",".join, runs)],
                              capture_output=True, text=True, check=True)
        codes = "[1, 0]" if command == "equiv" else "[0, 0]"
        assert proc.stderr.strip() == f"{codes} []"
        assert proc.stdout.count("\n") == len(runs)


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
