"""State files and JSON emission.

Two interchangeable state formats:

    {"format": "density", "matrix": [[[re, im], ...4], ...4]}
    {"format": "bloch", "u": [3], "v": [3], "C": [[3], [3], [3]]}

Numbers are IEEE-754 doubles; emission uses 17 significant digits so that
every double round-trips exactly and output is byte-identical across runs.
"""

import json
import math

from .errors import BlochInvError, StateFormatError
from .linalg import _rows3, _vec3
from .states import BlochMatrix, validate_density


def format_float(x):
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("cannot serialize non-finite numbers")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


def dumps(obj):
    """Serialize to JSON with deterministic float formatting.

    An object with a tolist method (a numpy array or scalar) is written as
    what tolist returns.
    """
    if hasattr(obj, "tolist"):
        obj = obj.tolist()
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(x) for x in obj) + "]"
    if isinstance(obj, dict):
        parts = []
        for k, val in obj.items():
            if not isinstance(k, str):
                raise TypeError("JSON object keys must be strings")
            parts.append(json.dumps(k) + ": " + dumps(val))
        return "{" + ", ".join(parts) + "}"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def density_document(rho):
    """State document of a two-qubit state, checked by validate_density."""
    matrix = [[[z.real, z.imag] for z in row] for row in validate_density(rho)]
    return {"format": "density", "matrix": matrix}


def bloch_document(bloch):
    """State document of a BlochMatrix, checked as density_of checks it."""
    return {
        "format": "bloch",
        "u": _vec3(bloch.u, "bloch_document input"),
        "v": _vec3(bloch.v, "bloch_document input"),
        "C": _rows3(bloch.C, "bloch_document input")[0],
    }


# _real names a non-number by its JSON type: its text may run to megabytes.
_JSON_TYPES = {list: "an array", dict: "an object", str: "a string", bool: "a boolean",
               type(None): "null"}


def _real(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        kind = _JSON_TYPES.get(type(value), type(value).__name__)
        raise StateFormatError(f"{path}: expected a number, got {kind}")
    try:
        if math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer beyond the double range
        pass
    raise StateFormatError(f"{path}: non-finite number")


def _array(value, path, shape, leaf):
    """Nested lists of the given shape with leaf(entry, path) at each entry;
    StateFormatError names the path of the first list of the wrong length."""
    if not shape:
        return leaf(value, path)
    if not isinstance(value, list) or len(value) != shape[0]:
        raise StateFormatError(f"{path}: expected a list of {shape[0]} entries")
    return [_array(x, f"{path}[{i}]", shape[1:], leaf) for i, x in enumerate(value)]


def _complex_entry(value, path):
    return complex(*_array(value, path, (2,), _real))


def parse_state_document(doc):
    """Parse a state document into ('density', rho) or ('bloch', BlochMatrix).

    Raises StateFormatError with the offending path on any schema problem.
    """
    if not isinstance(doc, dict):
        raise StateFormatError("$: expected a JSON object")
    fmt = doc.get("format")
    if fmt == "density":
        rho = _array(doc.get("matrix"), "matrix", (4, 4), _complex_entry)
        try:
            validate_density(rho)
        except (BlochInvError, ValueError) as exc:
            raise StateFormatError(f"matrix: {exc}") from exc
        return "density", rho
    if fmt == "bloch":
        u, v, c = (_array(doc.get(key), key, shape, _real)
                   for key, shape in (("u", (3,)), ("v", (3,)), ("C", (3, 3))))
        return "bloch", BlochMatrix(u=u, v=v, C=c)
    raise StateFormatError("format: expected 'density' or 'bloch'")


# Every integer of more digits than this lies beyond the double range
# (10^309 > 1.8e308); JSON integers carry no leading zeros.
_DOUBLE_DIGITS = 309


def _parse_int(digits):
    """json's parse_int hook: an integer literal beyond the double range
    reads as an infinity of its sign, as a float literal beyond it does, so
    _real rejects it as non-finite with its path and int() never reads it
    (int() refuses more than 4300 digits with a ValueError)."""
    if len(digits.lstrip("-")) > _DOUBLE_DIGITS:
        return -math.inf if digits[0] == "-" else math.inf
    return int(digits)


# The deepest nesting of arrays and objects a state text may have, the
# outermost at depth 1; the schema needs 4 (a density entry). json.loads
# counts its caller's stack frames against the recursion limit, so without
# a bound of its own one text would parse at one stack depth and not at
# another.
_MAX_DEPTH = 64
_TOO_DEEP = "invalid JSON: nested too deeply"


def _too_deep(doc):
    """Whether an array or object of a parsed JSON value lies deeper than
    _MAX_DEPTH, found with an explicit stack: no recursion, so the answer
    does not depend on the caller's stack depth."""
    stack = [(doc, 1)]
    while stack:
        value, depth = stack.pop()
        if isinstance(value, dict):
            value = value.values()
        elif not isinstance(value, list):
            continue
        if depth > _MAX_DEPTH:
            return True
        stack.extend((x, depth + 1) for x in value if isinstance(x, (list, dict)))
    return False


def loads_state(text):
    try:
        doc = json.loads(text, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise StateFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except RecursionError:
        raise StateFormatError(_TOO_DEEP) from None
    if _too_deep(doc):
        raise StateFormatError(_TOO_DEEP)
    return parse_state_document(doc)


def load_state_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise StateFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise StateFormatError(
            f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    try:
        return loads_state(text)
    except StateFormatError as exc:
        raise StateFormatError(f"{path}: {exc}") from exc
