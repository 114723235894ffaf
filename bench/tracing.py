"""Span tracing of the package from outside it (standard library only).

Each traced function is wrapped at every module attribute of the package
that is bound to the same function object, found by an identity scan. A
call made through any of those names, including the package's calls into
its own modules, opens a span; so nested calls give parent and child spans,
e.g. decide_equiv_sym -> sym_canonical -> eig_sym3. A function that recurses
into itself (serialize.dumps) keeps one span for the outermost call.

Spans (name, start, end, parent, op id) are kept in memory in typed arrays
and written out once at the end. A function that no longer exists is
reported as absent rather than failing the run.
"""

import functools
import importlib
import json
import statistics
import sys
import time
from array import array

PACKAGE = "blochinv"

# module.function for every function the per-layer metrics name.
TARGETS = (
    "linalg.eig_sym3",
    "linalg.signed_svd3",
    "states.bloch_of",
    "states.classify",
    "states.density_of",
    "groups.haar_su2",
    "groups.so3_of_u2",
    "groups.act_density",
    "invariants.lmm_invariants",
    "invariants.sym_invariants",
    "invariants.octahedral_invariants",
    "invariants.r_invariant",
    "invariants.p9_eval",
    "orbits.lmm_canonical",
    "orbits.sym_canonical",
    "orbits.decide_equiv_lmm",
    "orbits.decide_equiv_sym",
    "serialize.load_state_file",
    "serialize.dumps",
)
DECIDE = {"orbits.decide_equiv_lmm": "orbits.lmm_canonical",
          "orbits.decide_equiv_sym": "orbits.sym_canonical"}
COLUMNS = ("name", "start", "end", "parent", "op")


class Spans:
    """Column store of spans. Times are perf_counter_ns of the process
    that recorded them; parent is a row index or -1."""

    def __init__(self):
        self.names = []
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.verdicts = {}

    def __len__(self):
        return len(self.name)

    def name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def extend(self, other):
        """Append another process's spans, remapping names and parents."""
        base = len(self)
        ids = [self.name_id(n) for n in other.names]
        self.name.extend(ids[i] for i in other.name)
        self.start.extend(other.start)
        self.end.extend(other.end)
        self.parent.extend(p + base if p >= 0 else -1 for p in other.parent)
        self.op.extend(other.op)
        for k, n in other.verdicts.items():
            self.verdicts[k] = self.verdicts.get(k, 0) + n

    def to_json(self):
        doc = {c: list(getattr(self, c)) for c in COLUMNS}
        doc.update(names=self.names, verdicts=self.verdicts)
        return doc

    @classmethod
    def from_json(cls, doc):
        spans = cls()
        spans.names = list(doc["names"])
        for c in COLUMNS:
            getattr(spans, c).extend(doc[c])
        spans.verdicts = dict(doc["verdicts"])
        return spans


class Tracer:
    def __init__(self):
        self.spans = Spans()
        self.op_id = -1
        self.absent = []
        self._stack = []
        self._patched = []

    def install(self):
        """Wrap every target wherever the package binds it; returns the
        targets that do not exist."""
        prefix = PACKAGE + "."
        functions = {}
        for target in TARGETS:
            mod_name, fn_name = target.split(".")
            try:
                mod = importlib.import_module(prefix + mod_name)
            except ImportError:
                mod = None
            functions[target] = getattr(mod, fn_name, None)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(prefix))]
        for target, fn in functions.items():
            if not callable(fn):
                self.absent.append(target)
                continue
            wrapper = self.wrap(target, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))
        return self.absent

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def wrap(self, name, fn):
        """fn, recording a span named name for each call."""
        spans = self.spans
        stack = self._stack
        nid = spans.name_id(name)
        count_verdicts = name in DECIDE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans.name[stack[-1]] == nid:
                return fn(*args, **kwargs)
            sid = len(spans.name)
            spans.name.append(nid)
            spans.parent.append(stack[-1] if stack else -1)
            spans.op.append(self.op_id)
            spans.end.append(0)
            stack.append(sid)
            spans.start.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.end[sid] = time.perf_counter_ns()
                stack.pop()
            if count_verdicts:
                key = getattr(getattr(result, "verdict", None), "value", "unknown")
                spans.verdicts[key] = spans.verdicts.get(key, 0) + 1
            return result

        return traced


def self_times(start, end, parent):
    """Self time of every span: its duration minus the durations of its
    direct children. Spans of one thread nest, so children never overlap."""
    dur = [e - s for s, e in zip(start, end)]
    child = [0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    return [d - c for d, c in zip(dur, child)]


def summarize(spans):
    """Per span name: calls, total_ns, self_ns and median duration (ns)."""
    selfs = self_times(spans.start, spans.end, spans.parent)
    durs = {}
    self_sum = {}
    for i, nid in enumerate(spans.name):
        durs.setdefault(nid, []).append(spans.end[i] - spans.start[i])
        self_sum[nid] = self_sum.get(nid, 0) + selfs[i]
    return {
        spans.names[nid]: {"calls": len(d), "total_ns": sum(d), "self_ns": self_sum[nid],
                           "p50_ns": statistics.median(d)}
        for nid, d in durs.items()
    }


def canonical_share(spans, decide):
    """Share of decide calls that went on to a canonical form (passed the
    invariant gate), read from direct children in the trace."""
    if decide not in spans.names:
        return 0.0
    did = spans.names.index(decide)
    child = DECIDE[decide]
    cid = spans.names.index(child) if child in spans.names else None
    calls = [i for i, n in enumerate(spans.name) if n == did]
    if not calls:
        return 0.0
    with_child = {spans.parent[i] for i, n in enumerate(spans.name) if n == cid}
    return sum(1 for i in calls if i in with_child) / len(calls)


def write(spans, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spans.to_json(), fh)
