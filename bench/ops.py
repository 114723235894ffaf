"""One operation per workload, as a user of the package would call it.

Package functions are looked up on the package at call time, so the tracer's
wrappers (installed on every module attribute bound to a function) see these
calls too.
"""

import os
import subprocess
import sys

import blochinv as B
from blochinv import verify

CLI_TIMEOUT_S = 60


def child_env(src_dir):
    """This process's environment (single-threaded BLAS, see run.py) with
    the package source first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _typed(fn, *args):
    """Call fn, returning a package error instead of raising it: the checker
    decides whether the contract allowed it for this input."""
    try:
        return fn(*args)
    except B.BlochInvError as exc:
        return exc


def lmm_pair(item):
    """Two density matrices through bloch_of + classify, lmm_invariants +
    lmm_canonical on each, then decide_equiv_lmm."""
    states = []
    for rho in item.inputs:
        bloch = B.bloch_of(rho)
        cls = B.classify(rho)
        states.append((bloch, cls, B.lmm_invariants(bloch.C), B.lmm_canonical(bloch.C)))
    return states, B.decide_equiv_lmm(states[0][0].C, states[1][0].C)


def sym_pair(item):
    """Two symmetric states (v, A): sym_invariants + sym_canonical on each,
    then decide_equiv_sym."""
    states = [(_typed(B.sym_invariants, v, a), _typed(B.sym_canonical, v, a))
              for v, a in item.inputs]
    return states, B.decide_equiv_sym(item.inputs[0], item.inputs[1])


def battery(item):
    samples, seed = item.inputs
    return verify.run_all(samples, seed)


def cli_proc(item, src_dir, launcher=()):
    """One CLI process for a request item; returns (exit code, stdout).
    A launcher (a script and its own arguments) replaces `-m blochinv.cli`."""
    head = [*launcher, "--"] if launcher else ["-m", "blochinv.cli"]
    proc = subprocess.run([sys.executable, *head, *item.inputs], capture_output=True,
                          text=True, env=child_env(src_dir), timeout=CLI_TIMEOUT_S,
                          check=False)
    return proc.returncode, proc.stdout


OPS = {"lmm-pairs": lmm_pair, "sym-pairs": sym_pair, "battery": battery}
