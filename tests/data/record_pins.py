"""Re-record tests/data/pins.json, in place, from the blochinv on
PYTHONPATH:

    PYTHONPATH=src python tests/data/record_pins.py

The store holds the first 8 hex digits of the SHA-256 of each line of each
pin, so that a pin that moves names its moved lines; the store is the pin.
The recorder prints each pin's name and line count. It refuses to write
while `git status --porcelain -- src` lists a change, so the store always
describes a committed package: run it on the commit whose output is the
reference.
"""

import json
import pathlib
import subprocess
import sys

TESTS = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(TESTS))

import pins  # noqa: E402
import test_orbits  # noqa: E402
import test_states  # noqa: E402
import test_verify  # noqa: E402

PINS = {
    "decide-lmm": lambda: test_orbits.decide_lines("lmm"),
    "decide-sym": lambda: test_orbits.decide_lines("sym"),
    "gates-lmm": lambda: test_orbits.gate_lines("lmm"),
    "gates-sym": lambda: test_orbits.gate_lines("sym"),
    "sym": test_orbits.sym_lines,
    "states": test_states.states_lines,
    "battery": test_verify.battery_lines,
}

if __name__ == "__main__":
    changed = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=TESTS.parent,
                             capture_output=True, text=True, check=True).stdout
    if changed:
        sys.exit(f"src/ has uncommitted changes; commit them before recording:\n{changed}")
    store = {}
    for name, build in PINS.items():
        store[name] = pins.line_hashes(text for _, text in build())
        print(name, len(store[name]))
    pins.STORE.write_text(json.dumps(store, indent=0) + "\n")
