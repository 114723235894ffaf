"""The float.hex walker of the tests, and the check of the bit-exact pins.

A pin is a list of (key, text) lines, one per call on one seeded input: the
key names the input by index and the call, the text is the result in
float.hex. tests/data/pins.json, written by tests/data/record_pins.py, holds
the first 8 hex digits of the SHA-256 of each text, and is the pin: a pin
that moves names the lines that moved, with their new text.
"""

import dataclasses
import enum
import hashlib
import json
import pathlib

import numpy as np

STORE = pathlib.Path(__file__).resolve().parent / "data" / "pins.json"


def hexes(x):
    """float.hex of every float in x, nested as x is, with types kept apart:
    a list gives a list and a tuple a tuple, a record the list of its
    fields, a complex number [real, imag] and an enum its value. Any other
    value (an int, a bool, None, a numpy array or scalar) gives its repr, so
    a result whose type changes changes its text."""
    if isinstance(x, enum.Enum):
        return x.value
    if dataclasses.is_dataclass(x):
        return [hexes(getattr(x, f.name)) for f in dataclasses.fields(x)]
    if isinstance(x, (list, tuple)):
        return (list if isinstance(x, list) else tuple)(map(hexes, x))
    if type(x) is complex:
        return [x.real.hex(), x.imag.hex()]
    return x.hex() if type(x) is float else repr(x)


def hex_list(x):
    """The strings of hexes(x), in order, in one flat list: a tuple is
    flattened as a list is."""
    def flat(h):
        return [s for y in h for s in flat(y)] if isinstance(h, (list, tuple)) else [h]
    return flat(hexes(x))


def fromhex(rows):
    """The array of a matrix written as rows of float.hex strings."""
    return np.array([[float.fromhex(x) for x in row] for row in rows])


def line_hashes(texts):
    return [hashlib.sha256(text.encode()).hexdigest()[:8] for text in texts]


def check(name, lines):
    """Assert that the store holds the hashes of the texts of lines, as many
    as there are lines; else name both line counts and, by key and with
    their new text, the first ten lines whose hash differs from the store's."""
    hashes, recorded = line_hashes(text for _, text in lines), json.loads(STORE.read_text())[name]
    if hashes == recorded:
        return
    moved = [(key, text) for i, ((key, text), h) in enumerate(zip(lines, hashes))
             if i >= len(recorded) or h != recorded[i]]
    raise AssertionError(
        f"pin {name} moved: {len(lines)} lines, {len(recorded)} in {STORE.name}; {len(moved)} "
        "differ, the first with their new text:"
        + "".join(f"\n  {key}: {text}" for key, text in moved[:10]))
