"""Traced CLI launcher: one CLI request with interpreter start-up,
`import blochinv.cli` and `cli.main(argv)` timed separately and the package
traced during main. Stdout and the exit code are the CLI's own.

usage: python cli_launch.py OUT_JSON SPAWN_MONOTONIC_NS OP_ID -- CLI_ARGS...
"""

import time

STARTED_NS = time.monotonic_ns()

import json  # noqa: E402
import sys  # noqa: E402


def main():
    out_path, spawn_ns, op_id = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    argv = sys.argv[sys.argv.index("--") + 1:]
    t0 = time.perf_counter_ns()
    import blochinv.cli as cli

    t1 = time.perf_counter_ns()
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    tracer.op_id = op_id
    t2 = time.perf_counter_ns()
    code = cli.main(argv)
    t3 = time.perf_counter_ns()
    sys.stdout.flush()
    doc = tracer.spans.to_json()
    doc["absent"] = tracer.absent
    doc["timing"] = {"startup_ns": STARTED_NS - spawn_ns, "import_ns": t1 - t0,
                     "main_ns": t3 - t2}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
