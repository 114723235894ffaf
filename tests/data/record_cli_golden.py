"""Re-record tests/data/cli_golden.json, in place, from the blochinv on
PYTHONPATH:

    PYTHONPATH=src python tests/data/record_cli_golden.py

Run it on the commit whose CLI output is the reference: like
record_pins.py, it refuses to write while `git status --porcelain -- src`
lists a change. The state documents
are drawn with numpy 3x3 products, whose last bits depend on the BLAS
build, so every document already in the file is kept as recorded and only
the names missing from it are drawn; the command outputs are all recorded
afresh. Only those documents depend on the BLAS build: the invariants,
canonical forms, witnesses and residuals of both strata are composed on
Python floats in a fixed order.
"""

import contextlib
import io
import itertools
import json
import os
import pathlib
import tempfile

import numpy as np

import blochinv.cli as cli
from blochinv.groups import haar_so3, random_state
from blochinv.serialize import bloch_document, density_document
from blochinv.states import BlochMatrix, bell_projector
from record_pins import require_committed_src

GOLDEN = pathlib.Path(__file__).resolve().parent / "cli_golden.json"


def bloch(u, v, c):
    return bloch_document(BlochMatrix(*(np.asarray(x, dtype=float) for x in (u, v, c))))


def lmm(c):
    return bloch(np.zeros(3), np.zeros(3), c)


def sym(v, a):
    a = np.asarray(a, dtype=float)
    return bloch(v, v, 0.5 * (a + a.T))


def states():
    rng = np.random.default_rng(20261018)
    out = {
        "bell": density_document(bell_projector("phi+")),
        "mixed": density_document(0.25 * np.eye(4, dtype=complex)),
    }
    ca = rng.uniform(-0.6, 0.6, size=(3, 3))
    r1, r2 = haar_so3(rng), haar_so3(rng)
    out["lmm_a"] = lmm(ca)
    out["lmm_a_rot"] = lmm(r1 @ ca @ r2.T)
    out["lmm_a_neg"] = lmm(-ca)
    out["lmm_b"] = lmm(rng.uniform(-0.6, 0.6, size=(3, 3)))
    r1, r2 = haar_so3(rng), haar_so3(rng)
    out["lmm_tied"] = lmm(np.diag([0.5, 0.5, -0.2]))
    out["lmm_tied_rot"] = lmm(r1 @ np.diag([0.5, 0.5, -0.2]) @ r2.T)
    out["lmm_pos"] = density_document(random_state("lmm", 7, positive=True))

    q = haar_so3(rng)
    va = rng.uniform(-0.5, 0.5, size=3)
    aa = q.T @ np.diag([0.7, 0.2, -0.4]) @ q
    r = haar_so3(rng)
    out["sym_a"] = sym(va, aa)
    out["sym_a_rot"] = sym(r @ va, r @ aa @ r.T)
    out["sym_a_negv"] = sym(-va, aa)
    out["sym_a_near"] = sym(va, aa + 1e-12 * np.eye(3))
    q = haar_so3(rng)
    b = q.T @ np.diag([0.5, 0.1, -0.3]) @ q
    out["sym_b"] = sym(rng.uniform(-0.5, 0.5, size=3), b)
    out["sym_b_scaled"] = sym(rng.uniform(-0.5, 0.5, size=3), 1.5 * b)
    out["sym_diag"] = sym([0.1, 0.2, 0.3], np.diag([0.3, 0.2, 0.1]))
    q = haar_so3(rng)
    out["sym_degenerate"] = sym([0.2, -0.1, 0.3], q.T @ np.diag([0.6, 0.6, 0.1]) @ q)
    out["sym_zero_v"] = sym([0, 0, 0], q.T @ np.diag([0.6, 0.3, 0.1]) @ q)
    out["sym_pos"] = density_document(random_state("sym", 11, positive=True))
    out["general"] = bloch([0.1, 0.0, 0.0], [0.0, 0.2, 0.0], np.diag([0.1, 0.2, 0.3]))
    return out


def command_lines(names):
    argvs = [[cmd, name] for name in names for cmd in ("invariants", "canonical", "restrict")]
    argvs += [["equiv", a, b] for a, b in itertools.combinations_with_replacement(names, 2)]
    return argvs


def record(docs):
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in docs.items():
            with open(os.path.join(tmp, f"{name}.json"), "w") as fh:
                json.dump(doc, fh)
        for argv in command_lines(list(docs)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([os.path.join(tmp, f"{a}.json") if a in docs else a
                                 for a in argv])
            runs.append({"argv": argv, "code": code,
                         "stdout": out.getvalue(), "stderr": err.getvalue()})
    return {"states": docs, "runs": runs}


def kept_states():
    """states(), with the documents of the names already in GOLDEN as
    recorded there."""
    kept = json.loads(GOLDEN.read_text())["states"] if GOLDEN.exists() else {}
    return {name: kept.get(name, doc) for name, doc in states().items()}


if __name__ == "__main__":
    require_committed_src()
    GOLDEN.write_text(json.dumps(record(kept_states()), indent=1) + "\n")
