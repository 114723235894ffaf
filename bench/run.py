#!/usr/bin/env python3
"""blochinv benchmark: closed-loop workloads over the public API, with
checked outputs and an optional traced run for per-layer attribution.

usage (from the repository root):
    python3 bench/run.py --workload lmm-pairs --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload in turn

One caller runs one op at a time (a closed loop) for --seconds of op time,
cycling over a block of inputs made from --seed by bench/gen.py. Every
output is checked (bench/check.py). Op times are scaled to a reference
machine speed, measured by a fixed numpy kernel timed between ops (see
REF_KERNEL_S). The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer ones. A run record
(machine, versions, load) and the failure breakdown go to bench/out/.
"""

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Single-threaded BLAS/OpenMP in this process and every child, set before
# numpy loads: the ops are 3x3 and 4x4, where threads only add noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

# Why each workload exists; the layer each one isolates.
WORKLOADS = {
    "lmm-pairs": "signed_svd3 and states dominate; a fixed graded-spectrum probe "
                 "counts the known SVD defect",
    "sym-pairs": "eig_sym3 and the orbits/invariants duplication dominate; no "
                 "signed_svd3, no states",
    "battery": "Haar sampling, exact p9_eval, Jacobians and group enumerations "
               "dominate; orbits is one suite in five",
    "cli-procs": "one process per request: import, serialize and cli dominate, "
                 "measured nowhere else",
}
# The graded probe of lmm-pairs (gen.graded_probe) fails with these reasons
# because the normal-equations signed_svd3 cannot meet its bounds on graded
# spectra (Demmel & Veselic 1992): that breaks the canonical form and,
# through it, sometimes the verdict. The probe reports their share. Any
# other failure on the probe, and any failure in the timed loop, makes the
# run incorrect.
KNOWN_DEFECT_REASONS = frozenset((
    "canonical:reconstruction", "canonical:singular_values", "canonical:det_sign",
    "verdict:not_equivalent"))

SETUP_RUNS = 9  # fresh interpreters per run for setup_s; the median is reported
UNTRACED_SHARE = 0.25  # share of a traced run spent on the untraced reference

# Machine speed. On a host whose cores are shared, neighbours slow this
# process by up to 1.7x for seconds or whole minutes at a time, and CPU time
# grows with wall time, so neither a longer run nor CPU time removes it. The
# loop therefore times a fixed kernel of numpy-only work (no package code,
# inputs fixed) after every REF_EVERY_S of op time, and scales each op's
# latency by REF_KERNEL_S over the mean of the two kernel times that
# bracket it. A change to the package moves the op time and not the kernel,
# so it shows in full; a slow neighbour moves both. REF_KERNEL_S is a fixed scale,
# close to the kernel's time on a quiet 2-core Intel Xeon VM (Python 3.11,
# numpy 2.4), so on that machine, when quiet, scaled and raw times roughly
# agree. Raw times are printed too.
REF_KERNEL_S = 0.0025
REF_EVERY_S = 0.05

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_ref_s", "1/s"),
    ("op_p90_ref_us", "us"),
    ("peak_rss_mb", "MB"),
)


def per_layer_units():
    """Every per-layer metric name with its unit, in output order."""
    import check
    import tracing

    units = {}
    for target in tracing.TARGETS:
        units.update({f"{target}.calls": "count", f"{target}.self_ms": "ms",
                      f"{target}.p50_us": "us"})
    units["linalg.eig_sym3.calls_per_op"] = "count"
    for decide in tracing.DECIDE:
        units[f"{decide}.canonical_share"] = "share"
    for verdict in ("equivalent", "not_equivalent", "indeterminate"):
        units[f"orbits.verdict.{verdict}"] = "share"
    for suite in check.SUITES:
        units[f"verify.{suite}.s"] = "s"
    for part in ("startup_ms", "import_ms", "main_ms"):
        units[f"cli.{part}"] = "ms"
    units["trace.overhead_us"] = "us"
    units["check.error_rate"] = "share"
    units["check.graded_defect_share"] = "share"
    return units


# --------------------------------------------------------------- record


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_record():
    import numpy

    return {"nproc": os.cpu_count(), "cpu": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": _git_commit(),
            "loadavg_start": os.getloadavg()}


# -------------------------------------------------------------- running


class Tally:
    """Attempted and failed ops, with failure reasons by input kind."""

    def __init__(self):
        self.attempted = 0
        self.reasons = Counter()

    @property
    def failed(self):
        return sum(self.reasons.values())

    @property
    def known_defects(self):
        """Failures whose reason is one the graded probe is known to give."""
        return sum(n for (_, reason), n in self.reasons.items()
                   if reason in KNOWN_DEFECT_REASONS)

    def add(self, item, reason):
        self.attempted += 1
        if reason:
            self.reasons[(item.kind, reason)] += 1


@functools.cache
def _kernel_inputs():
    import numpy as np

    rng = np.random.default_rng(20230427)
    return [rng.standard_normal((3, 3)) for _ in range(16)]


def reference_kernel():
    """The fixed machine-speed kernel: 3x3 eigh, svd and det with a little
    interpreter work, about REF_KERNEL_S on the reference machine."""
    import numpy as np

    acc = 0.0
    for _ in range(8):
        for m in _kernel_inputs():
            w, _v = np.linalg.eigh(m + m.T)
            sv = np.linalg.svd(m, compute_uv=False)
            acc += float(np.linalg.det(m)) + float(w[0] * sv[0])
            acc += sum(0.5 * i for i in range(20))
    return acc


def time_kernel():
    t0 = time.perf_counter_ns()
    reference_kernel()
    return time.perf_counter_ns() - t0


class Loop:
    """What a closed loop measured: per-op latencies in ns, the kernel
    times in ns, and for each op the index of the first kernel timed after
    it."""

    def __init__(self):
        self.lat = []
        self.kernel = []
        self.after = []

    @property
    def spent_s(self):
        return sum(self.lat) / 1e9

    def scaled(self):
        """Each latency scaled to the reference speed by the mean of the
        kernel times just before and just after it."""
        k = self.kernel
        return [dt * (REF_KERNEL_S * 2e9) / (k[i - 1] + k[i])
                for dt, i in zip(self.lat, self.after)]


def closed_loop(workload, items, op, seconds, tally, whole_passes=False, on_op=None,
                on_pass=None):
    """Run op over items, cycling, until `seconds` of op time have passed
    (at least one op; with whole_passes, at least one and only whole passes).
    op and on_op receive the op's sequence number in the run. The reference
    kernel is timed first, then after every REF_EVERY_S of op time and at
    the end. Outputs are checked after each pass, outside the timed region;
    then on_pass gets the share of the time budget spent so far. Returns a
    Loop."""
    import check

    loop = Loop()
    lat = loop.lat
    spent = 0
    since_kernel = 0
    budget = int(seconds * 1e9)
    loop.kernel.append(time_kernel())
    while spent < budget or not lat:
        results = []
        for item in items:
            seq = len(lat)
            t0 = time.perf_counter_ns()
            try:
                result = op(seq, item)
            except Exception as exc:  # the checker decides whether it was allowed
                result = exc
            dt = time.perf_counter_ns() - t0
            results.append(result)
            lat.append(dt)
            loop.after.append(len(loop.kernel))
            spent += dt
            since_kernel += dt
            if since_kernel >= REF_EVERY_S * 1e9:
                loop.kernel.append(time_kernel())
                since_kernel = 0
            if on_op:
                on_op(seq, item, result)
            if spent >= budget and not whole_passes:
                break
        for item, result in zip(items, results):
            tally.add(item, check.check(workload, item, result))
        if on_pass:
            on_pass(spent / budget)
    loop.kernel.append(time_kernel())
    return loop


def in_process_op(workload):
    import ops

    fn = ops.OPS[workload]
    return lambda seq, item: fn(item)


def cli_op(launcher=None):
    import ops

    if launcher is None:
        return lambda seq, item: ops.cli_proc(item, str(SRC))
    return lambda seq, item: ops.cli_proc(item, str(SRC), launcher(seq))


def percentile(values, q):
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


class SetupTimer:
    """Wall time of fresh interpreters doing import plus the workload's
    first cold op (for cli-procs, the first CLI request). One untimed run
    fills the bytecode cache; the timed runs are spread over the measured
    loop, between passes, so that one burst of machine noise cannot hit
    them all. Each is scaled to the reference speed like an op, by the
    kernel times just before and just after it; setup_s is the median."""

    def __init__(self, workload, seed, items):
        import ops

        if workload == "cli-procs":
            self.cmd = [sys.executable, "-m", "blochinv.cli", *items[0].inputs]
        else:
            self.cmd = [sys.executable, str(BENCH / "cold.py"), workload, str(seed)]
        self.check_exit = workload != "cli-procs"
        self.env = ops.child_env(str(SRC))
        self.timeout = ops.CLI_TIMEOUT_S
        self.raw = []
        self.scaled = []
        self._spawn()
        self.raw.clear()
        self.scaled.clear()

    def _spawn(self):
        before = time_kernel()
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, env=self.env, capture_output=True, text=True,
                              timeout=self.timeout, check=False)
        dt = time.perf_counter() - t0
        if self.check_exit and proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()[-500:]}")
        self.raw.append(dt)
        self.scaled.append(dt * (REF_KERNEL_S * 2e9) / (before + time_kernel()))

    def on_pass(self, share):
        while len(self.scaled) < min(SETUP_RUNS, SETUP_RUNS * share):
            self._spawn()

    def median(self):
        self.on_pass(1.0)
        return statistics.median(self.scaled)


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, seed, items, seconds):
    """The timed loop. An in-process workload first makes one untimed pass
    over the block and reads its peak memory there, so that the latencies
    the harness keeps for the timed loop, whose number grows with the
    program's speed, are not counted as the program's memory. For cli-procs
    it is the largest child, which the op count does not change."""
    tally = Tally()
    if workload == "cli-procs":
        op = cli_op()
    else:
        op = in_process_op(workload)
        for seq, item in enumerate(items):
            try:
                op(seq, item)
            except Exception:  # warm-up only; the timed loop checks outputs
                pass
        rss = peak_rss_mb(resource.RUSAGE_SELF)
    setup = SetupTimer(workload, seed, items)
    loop = closed_loop(workload, items, op, seconds, tally, on_pass=setup.on_pass)
    if workload == "cli-procs":
        rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    lat, scaled = loop.lat, loop.scaled()
    metrics = {
        "setup_s": setup.median(),
        "ops_per_ref_s": len(scaled) / (sum(scaled) / 1e9),
        "op_p90_ref_us": percentile(scaled, 0.9) / 1e3,
        "peak_rss_mb": rss,
    }
    # Printed, not reported: half of lmm-pairs is fast rejects and half full
    # decisions, so its median sits on the cliff between the two clusters and
    # moves by a tenth between seeds; ops_per_ref_s carries the centre.
    # The raw figures are printed as measured, unscaled.
    printed = {"op_p50_ref_us": percentile(scaled, 0.5) / 1e3,
               "raw setup_s": statistics.median(setup.raw),
               "raw ops_per_s": len(lat) / loop.spent_s,
               "raw op_p50_us": percentile(lat, 0.5) / 1e3,
               "raw op_p90_us": percentile(lat, 0.9) / 1e3,
               "kernel_ms": statistics.median(loop.kernel) / 1e6}
    return metrics, tally, {"ops": len(lat), "passes": len(lat) / len(items),
                            "printed": printed}


def per_layer(workload, seed, items, seconds):
    """Untraced reference phase, then whole traced passes; per-layer metrics
    from the spans."""
    import check
    import tracing

    tally = Tally()
    suite_times = {s: [] for s in check.SUITES}

    def keep_suite_times(seq, item, result):
        if workload == "battery" and isinstance(result, list):
            for rep in result:
                if rep.suite in suite_times:
                    suite_times[rep.suite].append(rep.wall_time)

    untraced_op = cli_op() if workload == "cli-procs" else in_process_op(workload)
    untraced_lat = closed_loop(workload, items, untraced_op, UNTRACED_SHARE * seconds, tally,
                          whole_passes=True, on_op=keep_suite_times).lat

    tracer = tracing.Tracer()
    cli_timing = []
    if workload == "cli-procs":
        trace_dir = OUT / "cli-trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        absent = set()

        def launcher(seq):
            return [str(BENCH / "cli_launch.py"), str(trace_dir / f"{seq}.json"),
                    str(time.monotonic_ns()), str(seq)]

        def collect(seq, item, result):
            path = trace_dir / f"{seq}.json"
            doc = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
            cli_timing.append(doc["timing"])
            absent.update(doc["absent"])
            tracer.spans.extend(tracing.Spans.from_json(doc))

        lat = closed_loop(workload, items, cli_op(launcher), (1 - UNTRACED_SHARE) * seconds,
                          tally, whole_passes=True, on_op=collect).lat
        absent = sorted(absent)
    else:
        absent = tracer.install()
        root = tracer.wrap("bench.op", in_process_op(workload))

        def traced_op(seq, item):
            tracer.op_id = seq
            return root(seq, item)

        try:
            lat = closed_loop(workload, items, traced_op, (1 - UNTRACED_SHARE) * seconds,
                              tally, whole_passes=True).lat
        finally:
            tracer.uninstall()

    OUT.mkdir(parents=True, exist_ok=True)
    tracing.write(tracer.spans, OUT / f"spans-{workload}.json")
    stats = tracing.summarize(tracer.spans)
    passes = len(lat) / len(items)
    metrics = {}
    for target in tracing.TARGETS:
        st = stats.get(target, {"calls": 0, "self_ns": 0, "p50_ns": 0})
        metrics[f"{target}.calls"] = st["calls"] / passes
        metrics[f"{target}.self_ms"] = st["self_ns"] / 1e6 / passes
        metrics[f"{target}.p50_us"] = st["p50_ns"] / 1e3
    metrics["linalg.eig_sym3.calls_per_op"] = \
        stats.get("linalg.eig_sym3", {"calls": 0})["calls"] / len(lat)
    for decide in tracing.DECIDE:
        metrics[f"{decide}.canonical_share"] = tracing.canonical_share(tracer.spans, decide)
    decisions = sum(tracer.spans.verdicts.values()) or 1
    for verdict in ("equivalent", "not_equivalent", "indeterminate"):
        metrics[f"orbits.verdict.{verdict}"] = tracer.spans.verdicts.get(verdict, 0) / decisions
    for suite in check.SUITES:
        metrics[f"verify.{suite}.s"] = \
            statistics.median(suite_times[suite]) if suite_times[suite] else 0.0
    for part in ("startup", "import", "main"):
        metrics[f"cli.{part}_ms"] = \
            statistics.median(t[f"{part}_ns"] for t in cli_timing) / 1e6 if cli_timing else 0.0
    metrics["trace.overhead_us"] = (statistics.fmean(lat) - statistics.fmean(untraced_lat)) / 1e3
    metrics["check.error_rate"] = tally.failed / tally.attempted
    return metrics, tally, {"absent": absent, "traced_ops": len(lat), "spans": len(tracer.spans)}


def graded_probe(workload, seed):
    """lmm-pairs only: the graded-spectrum probe, untimed, as a Tally."""
    import check
    import gen
    import ops

    tally = Tally()
    if workload != "lmm-pairs":
        return tally
    for item in gen.graded_probe(seed):
        try:
            result = ops.lmm_pair(item)
        except Exception as exc:  # the checker decides whether it was allowed
            result = exc
        tally.add(item, check.check(workload, item, result))
    return tally


def run_one(args):
    import gen

    record = run_record()
    items = gen.block(args.workload, args.seed, str(OUT / f"cli-{args.seed}"))
    probe = graded_probe(args.workload, args.seed)
    runner = per_layer if args.trace else end_to_end
    metrics, tally, extra = runner(args.workload, args.seed, items, args.seconds)
    record["loadavg_end"] = os.getloadavg()
    units = per_layer_units() if args.trace else dict(END_TO_END)
    if args.trace:
        metrics["check.graded_defect_share"] = \
            probe.known_defects / probe.attempted if probe.attempted else 0.0
    probe_other = probe.failed - probe.known_defects

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{WORKLOADS[args.workload]}")
    print("record " + json.dumps(record))
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  error_rate = {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.4g}")
    for (kind, reason), n in sorted(tally.reasons.items()):
        print(f"  failed {n} {kind}: {reason}")
    if probe.attempted:
        print(f"  graded probe: {probe.known_defects} of {probe.attempted} pairs hit the "
              f"known signed_svd3 defect, {probe_other} failed otherwise")
        for (kind, reason), n in sorted(probe.reasons.items()):
            print(f"  probe failed {n} {kind}: {reason}")
    if "passes" in extra:
        print(f"  {extra['ops']} timed ops, {extra['passes']:.4g} passes over the block; "
              + ", ".join(f"{k} {v:.6g}" for k, v in extra["printed"].items())
              + f" (reference {REF_KERNEL_S * 1e3:.4g})")
    if extra.get("absent"):
        print("  absent: " + ", ".join(extra["absent"]))

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "record": record, "metrics": metrics, "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": [[k, r, n] for (k, r), n in sorted(tally.reasons.items())],
        "probe": {"attempted": probe.attempted, "known_defects": probe.known_defects,
                  "failures": [[k, r, n] for (k, r), n in sorted(probe.reasons.items())]},
        **extra,
    }, indent=1), encoding="utf-8")
    result = {
        "correct": tally.failed == 0 and probe_other == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_every(args):
    """Every workload in its own process; prints each metric by name."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def pin_to_one_cpu():
    """Keep this process and the processes it starts on one CPU, so that
    the reference kernel times the core the ops ran on, CLI children
    included. Where affinity cannot be set, the run goes on unpinned."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "blochinv" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'blochinv'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    if args.workload == "all":
        return run_every(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
