"""A seeded structural fuzzer of the state-file boundary, standard library
only.

The state documents of tests/data/cli_golden.json are mutated: a value's
JSON type swapped, a list lengthened, shortened or nested, an object's key
added or dropped, a number replaced by an edge literal (+-0, subnormal, near the top
of the double range, 10^k for large k, NaN and Infinity), and the text
truncated, given non-UTF-8 bytes or a BOM, or a duplicate key. Every
mutant that is UTF-8 text goes through serialize.loads_state, which must
return a state or raise a BlochInvError; a fixed sample goes through
cli.main as a file for invariants, canonical, restrict and equiv (against
itself and against the unmutated state), which must give an allowed exit
code and output. A failure found here is a defect to fix, not a mutant to
leave out.
"""

import contextlib
import io
import json
import pathlib
import random

from blochinv.cli import main
from blochinv.errors import BlochInvError
from blochinv.serialize import loads_state

GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text())

SEED = 14
MUTANTS = 1500
CLI_EVERY = 8  # every eighth mutant also goes through cli.main

# A marker that the text stage replaces with an edge-number literal, so
# that literals json.dumps cannot write (NaN aside) reach the parser as text.
MARKER = "@number@"
EDGE_LITERALS = (
    "0", "-0.0", "5e-324", "-5e-324", "2.2250738585072014e-308", "1e-400",
    "1.7e308", "-1.7e308", "1.7976931348623157e308", "1e309", "-1e400",
    "1" + "0" * 308, "1" + "0" * 309, "9" * 5000, "-" + "9" * 5000,
    "NaN", "Infinity", "-Infinity",
)
SWAPS = ("0.5", True, False, None, {}, [], {"re": 0.5}, "density", [[]])
KINDS = ("type", "lengthen", "shorten", "nest", "number", "truncate", "bytes", "bom",
         "duplicate")
BAD_BYTES = (b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80", b"\xf4\x90\x80\x80")


def _nodes(doc):
    """(parent, key) of every value under doc, the root as (None, None)."""
    out, stack = [(None, None)], [doc]
    while stack:
        value = stack.pop()
        keys = value.keys() if isinstance(value, dict) else (
            range(len(value)) if isinstance(value, list) else ())
        for key in keys:
            out.append((value, key))
            stack.append(value[key])
    return out


def _mutate_doc(rng, doc, kind):
    """doc with one structural mutation of the given kind at a random value."""
    holder = [doc]
    nodes = [(holder, 0) if parent is None else (parent, key) for parent, key in _nodes(doc)]
    if kind in ("lengthen", "shorten"):
        nodes = [(p, k) for p, k in nodes if isinstance(p[k], (list, dict)) and p[k]]
    elif kind == "number":  # a number entry, so that the state may still parse
        nodes = [(p, k) for p, k in nodes if type(p[k]) in (int, float)] or nodes
    if not nodes:
        return doc
    parent, key = rng.choice(nodes)
    value = parent[key]
    if kind == "type":
        parent[key] = json.loads(json.dumps(rng.choice(SWAPS)))
    elif kind == "lengthen":
        if isinstance(value, list):
            value.append(json.loads(json.dumps(value[-1])))
        else:
            value[f"extra{rng.randrange(3)}"] = 0.5
    elif kind == "shorten":
        if isinstance(value, list):
            value.pop(rng.randrange(len(value)))
        else:
            del value[rng.choice(sorted(value))]
    elif kind == "nest":
        parent[key] = [value] * rng.choice((1, 2))
    else:  # "number"
        parent[key] = MARKER
    return holder[0]


def _mutant(rng, doc):
    """(bytes, kinds): doc with one to three mutations, one in most mutants,
    as file contents."""
    doc = json.loads(json.dumps(doc))
    kinds = [rng.choice(KINDS) for _ in range(rng.choice((1, 1, 1, 2, 3)))]
    for kind in kinds:
        if kind in ("type", "lengthen", "shorten", "nest", "number"):
            doc = _mutate_doc(rng, doc, kind)
    text = json.dumps(doc)
    while f'"{MARKER}"' in text:
        text = text.replace(f'"{MARKER}"', rng.choice(EDGE_LITERALS), 1)
    if "duplicate" in kinds and text.startswith("{"):
        key = rng.choice(("format", "u", "v", "C", "matrix"))
        value = rng.choice(("bloch", "density", [0, 0, 0], [[0.25, 0]] * 4, None))
        text = "{" + json.dumps(key) + ": " + json.dumps(value) + ", " + text[1:]
    data = text.encode()
    if "truncate" in kinds:
        data = data[:rng.randrange(len(data))]
    if "bytes" in kinds:
        at = rng.randrange(len(data) + 1)
        data = data[:at] + rng.choice(BAD_BYTES) + data[at:]
    if "bom" in kinds:
        data = b"\xef\xbb\xbf" + data
    return data, kinds


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _allowed(command, code, out, err):
    """Whether (code, stdout, stderr) is an outcome the CLI may give."""
    verdict = json.loads(out).get("verdict") if code in (1, 4) and out else None
    if code == 0:
        return err == ""
    if code == 1 and command == "equiv":
        return verdict == "not_equivalent" and err == ""
    if code == 4 and verdict is not None:
        return verdict == "indeterminate" and err == ""
    lines = err.splitlines()
    return (code in (2, 3, 4) and out == "" and len(lines) == 1
            and lines[0].startswith("error: "))


def test_mutants_give_a_state_or_a_typed_error(tmp_path):
    rng = random.Random(SEED)
    names = sorted(GOLDEN["states"])
    for name in names:
        (tmp_path / f"{name}.json").write_text(json.dumps(GOLDEN["states"][name]))
    kinds_seen, loaded, refused, codes = set(), 0, 0, set()
    for i in range(MUTANTS):
        name = rng.choice(names)
        data, kinds = _mutant(rng, GOLDEN["states"][name])
        kinds_seen.update(kinds)
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            text = None
        if text is not None:
            try:
                loads_state(text)
                loaded += 1
            except BlochInvError:
                refused += 1
        if i % CLI_EVERY:
            continue
        path = tmp_path / f"mutant{i}.json"
        path.write_bytes(data)
        original = str(tmp_path / f"{name}.json")
        for argv in (["invariants", str(path)], ["canonical", str(path)],
                     ["restrict", str(path)], ["equiv", str(path), str(path)],
                     ["equiv", str(path), original]):
            code, out, err = _run(argv)
            codes.add(code)
            assert _allowed(argv[0], code, out, err), (argv, data[:300], code, out, err)
    assert kinds_seen == set(KINDS) and loaded and refused, (kinds_seen, loaded, refused)
    assert {0, 2, 3, 4} <= codes, codes
