"""One cold op in a fresh interpreter: import the package, build item 0 of
the workload's block and run the op once. The parent times the whole
process; outputs are checked by the timed loop, not here.

usage: python cold.py WORKLOAD SEED
"""

import sys


def main():
    workload, seed = sys.argv[1], int(sys.argv[2])
    import gen
    import ops

    item = gen.block(workload, seed, None)[0] if workload == "battery" else \
        gen.pair_item(workload, seed, 0)
    try:
        ops.OPS[workload](item)
    except Exception:  # the timed loop checks outputs; this only times the call
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
