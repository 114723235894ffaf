"""Tests of the benchmark itself: generator, checker, tracer, metric list.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import blochinv as B  # noqa: E402
import check  # noqa: E402
import gen  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _flat(inputs):
    if isinstance(inputs, tuple):
        return np.concatenate([_flat(x) for x in inputs])
    return np.ravel(inputs)


def _first(workload, seed, kind):
    mix = gen.LMM_MIX if workload == "lmm-pairs" else gen.SYM_MIX
    kinds = gen.kinds_of(mix, seed, workload)
    index = kinds.index(kind)
    return gen.pair_item(workload, seed, index, kinds)


@pytest.mark.parametrize("workload", ["lmm-pairs", "sym-pairs"])
def test_generator_is_deterministic_per_seed(workload):
    mix = gen.LMM_MIX if workload == "lmm-pairs" else gen.SYM_MIX
    kinds = gen.kinds_of(mix, 7, workload)
    assert kinds == gen.kinds_of(mix, 7, workload)
    assert sorted(set(kinds)) == sorted(k for k, _ in mix)
    assert all(kinds.count(k) == n for k, n in mix)
    for index in (0, 1, 250, len(kinds) - 1):
        a = gen.pair_item(workload, 7, index)
        b = gen.pair_item(workload, 7, index, kinds)
        c = gen.pair_item(workload, 8, index)
        assert a.kind == b.kind and a.allowed == b.allowed
        assert np.array_equal(_flat(a.inputs), _flat(b.inputs))
        assert not np.array_equal(_flat(a.inputs), _flat(c.inputs))


def test_cli_files_are_deterministic_per_seed(tmp_path):
    first = gen.cli_requests(3, str(tmp_path / "a"))
    second = gen.cli_requests(3, str(tmp_path / "b"))
    assert [i.inputs[0] for i in first] == [i.inputs[0] for i in second]
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()


def test_labels_allow_indeterminate_only_on_degenerate_inputs():
    kinds = gen.kinds_of(gen.LMM_MIX, 0, "lmm-pairs")
    for index, kind in enumerate(kinds[:400]):
        item = gen.pair_item("lmm-pairs", 0, index, kinds)
        if kind in ("same", "scaled"):
            assert item.allowed == {gen.EQ}
        elif kind == "different":
            assert item.allowed == {gen.NE}
        else:
            assert kind == "repeated" and gen.IND in item.allowed
    for item in gen.graded_probe(0)[:100]:
        sigma = item.refs[0]["sv"][1]
        assert (gen.IND in item.allowed) == (0.7 * sigma <= gen.SV_GAP_MARGIN)


def test_graded_probe_is_fixed_per_seed_and_outside_the_timed_mix():
    assert "graded" not in dict(gen.LMM_MIX)
    first, again, other = gen.graded_probe(5), gen.graded_probe(5), gen.graded_probe(6)
    assert len(first) == gen.GRADED_PROBE
    assert {item.kind for item in first} == {"graded"}
    assert all(np.array_equal(_flat(a.inputs), _flat(b.inputs)) for a, b in zip(first, again))
    assert not np.array_equal(_flat(first[0].inputs), _flat(other[0].inputs))


def test_checker_passes_a_correct_lmm_op_and_counts_a_planted_wrong_verdict():
    item = _first("lmm-pairs", 1, "same")
    states, verdict = ops.lmm_pair(item)
    assert check.check("lmm-pairs", item, (states, verdict)) is None
    wrong = dataclasses.replace(verdict, verdict=B.Verdict.NOT_EQUIVALENT, witness=None)
    tally = run.Tally()
    tally.add(item, check.check("lmm-pairs", item, (states, verdict)))
    tally.add(item, check.check("lmm-pairs", item, (states, wrong)))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.reasons == {("same", "verdict:not_equivalent"): 1}


def test_checker_counts_a_planted_bad_reconstruction():
    item = _first("lmm-pairs", 1, "different")
    states, verdict = ops.lmm_pair(item)
    assert check.check("lmm-pairs", item, (states, verdict)) is None
    bloch, cls, inv, form = states[0]
    bad_diag = form.diag.copy()
    bad_diag[1] += 1e-6
    bad = dataclasses.replace(form, diag=bad_diag)
    reason = check.check("lmm-pairs", item, ([(bloch, cls, inv, bad), states[1]], verdict))
    assert reason == "canonical:reconstruction"


def test_checker_allows_typed_errors_only_where_the_input_is_degenerate():
    generic = _first("sym-pairs", 2, "same")
    result = ops.sym_pair(generic)
    assert check.check("sym-pairs", generic, result) is None
    states, verdict = result
    planted = [(B.DegenerateSpectrum("planted"), states[0][1]), states[1]]
    assert check.check("sym-pairs", generic, (planted, verdict)) == \
        "invariants:raised:DegenerateSpectrum"
    repeated = _first("sym-pairs", 2, "repeated")
    assert check.check("sym-pairs", repeated, ops.sym_pair(repeated)) is None
    assert check.check("sym-pairs", generic, RuntimeError("boom")) == "raised:RuntimeError"


@pytest.mark.parametrize("reason, known", [
    ("canonical:reconstruction", 1),
    ("canonical:singular_values", 1),
    ("canonical:det_sign", 1),
    ("verdict:not_equivalent", 1),
    ("raised:LinAlgError", 0),
    ("witness:residual", 0),
    ("classify:sym", 0),
])
def test_only_the_known_svd_reasons_count_as_the_probe_defect(reason, known):
    tally = run.Tally()
    tally.add(gen.Item("graded", ()), reason)
    tally.add(gen.Item("graded", ()), None)
    assert (tally.attempted, tally.failed, tally.known_defects) == (2, 1, known)


def test_latencies_are_scaled_by_the_kernel_times_around_them():
    loop = run.Loop()
    ref = run.REF_KERNEL_S * 1e9
    loop.kernel = [ref, ref, 3 * ref, 2 * ref]
    loop.lat = [100.0, 100.0, 100.0]
    loop.after = [1, 2, 3]
    assert loop.scaled() == pytest.approx([100.0, 50.0, 40.0])


def _synthetic_spans():
    # root [0, 100] -> a [10, 40] -> a1 [15, 25]; root -> b [50, 90]
    spans = tracing.Spans()
    for name, start, end, parent in (("root", 0, 100, -1), ("a", 10, 40, 0),
                                     ("a1", 15, 25, 1), ("b", 50, 90, 0)):
        spans.name.append(spans.name_id(name))
        spans.start.append(start)
        spans.end.append(end)
        spans.parent.append(parent)
        spans.op.append(0)
    return spans


def test_self_time_arithmetic_on_a_synthetic_trace():
    spans = _synthetic_spans()
    assert tracing.self_times(spans.start, spans.end, spans.parent) == [30, 20, 10, 40]
    stats = tracing.summarize(spans)
    assert stats["root"] == {"calls": 1, "total_ns": 100, "self_ns": 30, "p50_ns": 100}
    assert all(s["self_ns"] <= s["total_ns"] for s in stats.values())
    assert sum(s["self_ns"] for s in stats.values()) == stats["root"]["total_ns"]


def test_spans_round_trip_and_merge():
    spans = _synthetic_spans()
    merged = tracing.Spans()
    merged.extend(tracing.Spans.from_json(json.loads(json.dumps(spans.to_json()))))
    merged.extend(spans)
    assert len(merged) == 8
    assert list(merged.parent) == [-1, 0, 1, 0, -1, 4, 5, 4]
    assert tracing.self_times(merged.start, merged.end, merged.parent)[4:] == [30, 20, 10, 40]


def test_tracer_nests_spans_reports_absent_and_uninstalls(monkeypatch):
    original = B.orbits.sym_canonical
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + ("linalg.no_such_function",))
    tracer = tracing.Tracer()
    assert tracer.install() == ["linalg.no_such_function"]
    try:
        item = _first("sym-pairs", 4, "same")
        verdict = B.decide_equiv_sym(*item.inputs)
    finally:
        tracer.uninstall()
    assert B.orbits.sym_canonical is original
    assert verdict.verdict is B.Verdict.EQUIVALENT
    spans = tracer.spans
    names = [spans.names[n] for n in spans.name]
    eig = names.index("linalg.eig_sym3")
    parent = spans.parent[eig]
    assert names[parent] == "orbits.sym_canonical"
    assert names[spans.parent[parent]] == "orbits.decide_equiv_sym"
    assert spans.verdicts == {"equivalent": 1}
    assert tracing.canonical_share(spans, "orbits.decide_equiv_sym") == 1.0
    stats = tracing.summarize(spans)
    assert all(0 <= s["self_ns"] <= s["total_ns"] for s in stats.values())


def test_benchmark_json_matches_the_runner():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in doc["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
    assert doc["paths"] == [BENCH.name]
