"""Golden CLI outputs: exact stdout, stderr and exit code of invariants,
canonical, restrict and equiv on a fixed set of state files.

tests/data/cli_golden.json holds the state documents and, for each command
line, the recorded output; tests/data/record_cli_golden.py writes it. The
files cover lmm, symmetric and general states, tied singular values, a
degenerate symmetric spectrum, a symmetric state with a zero 1-point vector
and the zero lmm state (the maximally mixed one).
"""

import contextlib
import io
import json
import pathlib

import pytest

from blochinv.cli import main

GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.fixture(scope="module")
def state_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for name, doc in GOLDEN["states"].items():
        (root / f"{name}.json").write_text(json.dumps(doc))
    return root


@pytest.mark.parametrize("run", GOLDEN["runs"], ids=lambda run: " ".join(run["argv"]))
def test_cli_golden(run, state_dir):
    argv = [str(state_dir / f"{a}.json") if a in GOLDEN["states"] else a
            for a in run["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == run["code"]
    assert out.getvalue() == run["stdout"]
    assert err.getvalue() == run["stderr"]
