"""Tests for state files and JSON emission."""

import json
import math
import re
import sys

import numpy as np
import pytest

from blochinv.errors import StateFormatError
from blochinv.serialize import (
    bloch_document,
    density_document,
    dumps,
    loads_state,
    parse_state_document,
)
from blochinv.states import BlochMatrix, bell_projector, bloch_of


class TestDumps:
    def test_round_trip_doubles(self):
        # 17 significant digits reproduce every double exactly.
        rng = np.random.default_rng(0)
        for _ in range(1000):
            x = float(rng.uniform(-1, 1)) * 10.0 ** rng.integers(-12, 12)
            assert json.loads(dumps(x)) == x

    def test_plain_values(self):
        assert dumps(1.0) == "1.0"
        assert dumps(None) == "null"
        assert dumps(True) == "true"
        assert dumps([1, 2.5]) == "[1, 2.5]"
        assert dumps({"a": 0.1}) == '{"a": 0.10000000000000001}'

    def test_numpy_values_through_tolist(self):
        # numpy scalars and arrays are written as what tolist returns.
        assert dumps(np.float64(0.1)) == "0.10000000000000001"
        assert dumps(np.int64(-7)) == "-7"
        assert dumps(np.bool_(True)) == "true"
        assert dumps(np.array(2.5)) == "2.5"
        row = "[1.0, 0.5, 3.0]"
        assert dumps(np.array([[1.0, 0.5, 3.0]] * 3)) == f"[{row}, {row}, {row}]"
        assert dumps(-0.0) == "-0.0"
        assert dumps(np.float64(-0.0)) == "-0.0"

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dumps(float("nan"))

    def test_rejects_non_string_key(self):
        with pytest.raises(TypeError, match="keys must be strings"):
            dumps({"u": [0.0], 1: [0.0]})

    def test_rejects_unsupported_object(self):
        with pytest.raises(TypeError, match="cannot serialize object of type complex"):
            dumps({"z": 1j})

    def test_deterministic(self):
        doc = density_document(bell_projector("psi-"))
        assert dumps(doc) == dumps(doc)


class TestStateDocuments:
    def test_density_round_trip(self):
        rho = bell_projector("phi-")
        text = dumps(density_document(rho))
        fmt, back = loads_state(text)
        assert fmt == "density"
        np.testing.assert_allclose(back, rho, atol=0)

    def test_bloch_round_trip(self):
        b = BlochMatrix(
            u=np.array([0.1, -0.2, 0.3]),
            v=np.array([0.0, 0.5, -0.5]),
            C=np.arange(9, dtype=float).reshape(3, 3) / 10.0,
        )
        fmt, back = loads_state(dumps(bloch_document(b)))
        assert fmt == "bloch"
        np.testing.assert_array_equal(back.u, b.u)
        np.testing.assert_array_equal(back.v, b.v)
        np.testing.assert_array_equal(back.C, b.C)

    def test_bloch_agrees_with_density_route(self):
        rho = bell_projector("psi+")
        b = bloch_of(rho)
        doc = bloch_document(b)
        assert set(doc) == {"format", "u", "v", "C"}
        assert len(doc["C"]) == 3 and len(doc["C"][0]) == 3

    @pytest.mark.parametrize("field, value", [
        ("u", np.array([0.1, -0.2, 0.3, 0.4])),
        ("v", np.array([0.5])),
        ("C", np.arange(12, dtype=float).reshape(3, 4)),
        ("C", np.arange(3, dtype=float)),
        ("C", np.diag([0.1, np.nan, 0.3])),
        ("u", np.array([0.1, np.inf, 0.3])),
    ], ids=["u-4", "v-1", "C-3x4", "C-3", "C-nan", "u-inf"])
    def test_bloch_rejects_wrong_shape_or_non_finite(self, field, value):
        # A wrong-shape field is never truncated or written into a document
        # that load_state_file would then reject.
        fields = {"u": np.zeros(3), "v": np.zeros(3), "C": np.eye(3), field: value}
        with pytest.raises(ValueError, match="bloch_document input"):
            bloch_document(BlochMatrix(**fields))

    def test_bloch_accepts_nested_lists(self):
        c = [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]]
        listed = bloch_document(BlochMatrix(u=[0.1, 0.2, 0.3], v=[0.0, 0.0, 0.0], C=c))
        arrays = bloch_document(BlochMatrix(u=np.array([0.1, 0.2, 0.3]), v=np.zeros(3),
                                            C=np.array(c)))
        assert dumps(listed) == dumps(arrays)


def _bloch_doc(**fields):
    return {"format": "bloch", "u": [0.1, 0.2, 0.3], "v": [0.0, 0.0, 0.0],
            "C": [[0.5, 0.0, 0.0], [0.0, 0.4, 0.0], [0.0, 0.0, 0.3]], **fields}


def _density_doc(i=0, j=0, entry=None, rows=4, cols=4):
    """0.25 I as a density document, with entry (i, j) replaced by entry."""
    matrix = [[[0.25 if r == c else 0.0, 0.0] for c in range(cols)] for r in range(rows)]
    if entry is not None:
        matrix[i][j] = entry
    return {"format": "density", "matrix": matrix}


BIG_INT = 10**400  # a JSON integer beyond the double range

MALFORMED = [
    ("non-object", [1, 2, 3], "$"),
    ("missing-u", {"format": "bloch", "v": [0, 0, 0], "C": [[0, 0, 0]] * 3}, "u"),
    ("u-length-2", _bloch_doc(u=[0.1, 0.2]), "u"),
    ("C-row-length-4", _bloch_doc(C=[[0, 0, 0], [0, 0, 0, 0], [0, 0, 0]]), "C[1]"),
    ("matrix-3-rows", _density_doc(rows=3), "matrix"),
    ("row-of-5", _density_doc(cols=5), "matrix[0]"),
    ("entry-length-1", _density_doc(2, 1, [1.0]), "matrix[2][1]"),
    ("u-big-int", _bloch_doc(u=[0.1, BIG_INT, 0.3]), "u[1]"),
    ("matrix-big-int", _density_doc(3, 2, [BIG_INT, 0.0]), "matrix[3][2][0]"),
]


class TestParseErrors:
    @pytest.mark.parametrize("doc, path", [m[1:] for m in MALFORMED],
                             ids=[m[0] for m in MALFORMED])
    def test_malformed_document_names_path(self, doc, path):
        with pytest.raises(StateFormatError) as exc:
            parse_state_document(doc)
        assert str(exc.value).startswith(f"{path}: ")

    def test_bad_json(self):
        with pytest.raises(StateFormatError, match="line"):
            loads_state("{not json")

    def test_unknown_format(self):
        with pytest.raises(StateFormatError, match="format"):
            parse_state_document({"format": "mystery"})

    def test_position_annotated_paths(self):
        with pytest.raises(StateFormatError, match=r"matrix\[1\]\[2\]"):
            parse_state_document(
                {
                    "format": "density",
                    "matrix": [
                        [[1, 0], [0, 0], [0, 0], [0, 0]],
                        [[0, 0], [0, 0], "oops", [0, 0]],
                        [[0, 0], [0, 0], [0, 0], [0, 0]],
                        [[0, 0], [0, 0], [0, 0], [0, 0]],
                    ],
                }
            )
        with pytest.raises(StateFormatError, match=r"u\[1\]"):
            parse_state_document(
                {"format": "bloch", "u": [0.0, None, 0.0], "v": [0, 0, 0],
                 "C": [[0, 0, 0]] * 3}
            )

    def test_rejects_invalid_density(self):
        # Valid schema, but not a trace-one Hermitian matrix.
        doc = {
            "format": "density",
            "matrix": [[[1.0 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)],
        }
        with pytest.raises(StateFormatError, match="trace"):
            parse_state_document(doc)

    def test_rejects_non_finite_numbers(self):
        doc = {"format": "bloch", "u": [0, 0, 1e999], "v": [0, 0, 0], "C": [[0, 0, 0]] * 3}
        text = '{"format": "bloch", "u": [0, 0, Infinity], "v": [0, 0, 0], "C": [[0,0,0],[0,0,0],[0,0,0]]}'
        with pytest.raises(StateFormatError):
            parse_state_document(doc)
        with pytest.raises(StateFormatError):
            loads_state(text)


class TestIntegerLiterals:
    """An integer literal reads as its float literal does: beyond the double
    range as non-finite, however many digits it has, and -0 as -0.0."""

    @staticmethod
    def _text(literal):
        return ('{"format": "bloch", "u": [' + literal + ', 0, 0], "v": [0, 0, 0], '
                '"C": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}')

    @pytest.mark.parametrize("literal", [str(10**309), str(-10**309), "9" * 5000,
                                         "-" + "9" * 5000, str(2**1024)])
    def test_beyond_double_range_is_non_finite(self, literal):
        with pytest.raises(StateFormatError, match=r"^u\[0\]: non-finite number$"):
            loads_state(self._text(literal))

    @pytest.mark.parametrize("value", [int(1.7976931348623157e308), -int(1e308), 10**300,
                                       7, 0])
    def test_within_double_range_is_read(self, value):
        _, bloch = loads_state(self._text(str(value)))
        assert bloch.u[0] == float(value)

    def test_negative_zero_reads_as_negative_zero(self):
        # Every zero of both texts is the placeholder Z: -0 must read as the
        # -0.0 that the float literal -0.0 reads as, sign bit included.
        bloch = ('{"format": "bloch", "u": [Z, Z, Z], "v": [Z, Z, Z], '
                 '"C": [[Z, Z, Z], [Z, Z, Z], [Z, Z, Z]]}')
        density = json.dumps({"format": "density", "matrix": [
            [[0.25, "Z"] if i == j else ["Z", "Z"] for j in range(4)] for i in range(4)]}
        ).replace('"Z"', "Z")

        def parts(text):
            fmt, state = loads_state(text)
            if fmt == "bloch":
                return [*state.u, *state.v, *(x for row in state.C for x in row)]
            return [x for row in state for z in row for x in (z.real, z.imag)]

        for text in (bloch, density):
            integer, decimal = parts(text.replace("Z", "-0")), parts(text.replace("Z", "-0.0"))
            assert list(map(float.hex, integer)) == list(map(float.hex, decimal))
        assert all(math.copysign(1.0, x) == -1.0 for x in parts(bloch.replace("Z", "-0")))

    def test_deep_nesting_is_a_format_error(self):
        with pytest.raises(StateFormatError, match="nested too deeply"):
            loads_state("[" * 100_000)


class TestNestingDepth:
    """A state text nested deeper than the schema allows gives one message
    at any stack depth of the caller: json.loads counts the caller's frames
    against the recursion limit, the depth bound after it does not. A
    980-deep text in a CLI process of its own is a case of
    test_cli.py::TestTypedErrors::test_non_number_error_is_bounded."""

    @staticmethod
    def _text(depth):
        """A Bloch text whose u[0] nests empty lists down to depth, the
        object counting 1 and u 2."""
        return ('{"format": "bloch", "u": [' + "[" * (depth - 2) + "]" * (depth - 2)
                + ', 0, 0], "v": [0, 0, 0], "C": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}')

    @staticmethod
    def _message(text, frames):
        """loads_state's error message for text, called frames deeper."""
        if frames:
            return TestNestingDepth._message(text, frames - 1)
        with pytest.raises(StateFormatError) as info:
            loads_state(text)
        return str(info.value)

    def test_one_message_at_any_stack_depth(self):
        # Nested 30 levels short of the recursion limit at this stack depth,
        # so that json.loads reads the text here and gives up 60 frames
        # deeper (where it counts Python frames and nesting together).
        frame, frames = sys._getframe(), 0
        while frame:
            frame, frames = frame.f_back, frames + 1
        text = self._text(sys.getrecursionlimit() - frames - 30)
        assert (self._message(text, 0) == self._message(text, 60)
                == "invalid JSON: nested too deeply")

    @pytest.mark.parametrize("depth", [64, 65])
    def test_bound(self, depth):
        # A value nested to the bound is read and fails the schema; one
        # level deeper is the nesting error.
        message = "u[0]: expected a number" if depth == 64 else "nested too deeply"
        with pytest.raises(StateFormatError, match=re.escape(message)):
            loads_state(self._text(depth))
