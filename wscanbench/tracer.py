"""Spans recorded by the benchmark's own wrappers around wscan's public
functions.

A span is (name, start, end, parent span, op id, note).  Spans are kept in
flat arrays while the pass runs and written out once it has ended.  A wrapped
name is replaced in every wscan module that bound it, because several modules
import `subsumes`, `pointed_make` and friends into their own namespace.  Only
the outermost call of a name is timed, so a recursive function such as
`eval_formula` counts once per top-level call.
"""

from __future__ import annotations

import sys
import time
from array import array

# (module, function, span name, note taken from the result)
TARGETS = [
    ("problems", "parse_problem", "problems.parse", None),
    ("problems", "parse_graph", "problems.parse", None),
    ("problems", "encode_graph", "problems.parse", None),
    ("problems", "merge_theory", "problems.parse", None),
    ("logic", "pointed_make", "logic.canon", None),
    ("subsumption", "subsumes", "subsumption.subsumes", bool),
    ("subsumption", "subsumes_L", "subsumption.subsumes", bool),
    ("subsumption", "subsumes_L_velim", "subsumption.velim", bool),
    ("calculus", "is_purified", "calculus.is_purified", None),
    ("calculus", "constraint_resolve", "calculus.resolve", None),
    ("saturation", "search", "saturation.search", None),
    ("saturation", "preprocess", "saturation.preprocess", None),
    ("saturation", "purify", "saturation.purify", bool),
    ("saturation", "replay", "saturation.replay", None),
    ("witness", "extract_witness", "witness.extract", "size"),
    ("verify", "check_witness", "verify.check", None),
    ("verify", "prove", "verify.prove", "proved"),
    ("verify", "find_model", "verify.find_model", None),
    ("verify", "soqe_holds", "verify.soqe", None),
    ("verify", "eval_formula", "verify.eval", None),
]

GENERATORS = {"saturation.search"}
# names with too many calls to keep one span each (eval_formula: ~900k per
# corpus pass); only their count and time are kept, and their time is still
# subtracted from the self time of the enclosing span
AGGREGATED = {"verify.eval"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ix: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.note = array("d")
        self.inner = array("d")  # time of aggregated calls inside each span
        self.agg_calls: dict[int, int] = {}
        self.agg_time: dict[int, float] = {}
        self.stack: list[int] = []
        self.busy: list[bool] = []
        self.current_op = -1
        self.on = True

    # -- recording ---------------------------------------------------------

    def _open(self, kind: int) -> int:
        sid = len(self.start)
        self.kind.append(kind)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.note.append(0.0)
        self.inner.append(0.0)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn, note):
        kind = self.name_ix.setdefault(name, len(self.names))
        if kind == len(self.names):
            self.names.append(name)
            self.busy.append(False)
        busy = self.busy
        tr = self

        if name in GENERATORS:
            # one span per resume of the generator
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    sid = tr._open(kind) if tr.on else -1
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        if sid >= 0:
                            tr._close(sid)
                    yield item

            return traced_gen

        if name in AGGREGATED:
            tr.agg_calls[kind] = 0
            tr.agg_time[kind] = 0.0

            def traced_agg(*args, **kwargs):
                if busy[kind] or not tr.on:
                    return fn(*args, **kwargs)
                busy[kind] = True
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    busy[kind] = False
                    tr.agg_calls[kind] += 1
                    tr.agg_time[kind] += dt
                    if tr.stack:
                        tr.inner[tr.stack[-1]] += dt

            return traced_agg

        def traced(*args, **kwargs):
            if busy[kind] or not tr.on:
                return fn(*args, **kwargs)
            busy[kind] = True
            sid = tr._open(kind)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr._close(sid)
                busy[kind] = False
            if note is not None:
                tr.note[sid] = _note(note, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each target function in the loaded wscan
        modules with its wrapper."""
        mods = [m for k, m in list(sys.modules.items()) if k == "wscan" or k.startswith("wscan.")]
        for modname, fname, span, note in TARGETS:
            fn = getattr(sys.modules[f"wscan.{modname}"], fname)
            wrapper = self._wrap(span, fn, note)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, key, wrapper)

    def recover(self) -> None:
        """Close every open span and clear the busy flags after an
        asynchronous interrupt (the per-op alarm), which may have landed
        inside the bookkeeping of a wrapper."""
        n = len(self.start)
        for arr in (self.kind, self.parent, self.op, self.note, self.inner, self.end):
            del arr[n:]
        now = time.perf_counter()
        for sid in self.stack:
            if sid < n:
                self.end[sid] = now
        self.stack.clear()
        self.busy[:] = [False] * len(self.busy)

    # -- summaries ---------------------------------------------------------

    def layer_table(self, skip_ops: frozenset[int] = frozenset()) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self seconds, largest single
        call, and the sum of notes.  Spans of ops in `skip_ops` are left out."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = list(self.inner)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        table = {
            name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "max_s": 0.0, "note": 0.0}
            for name in self.names
        }
        for i in range(n):
            if self.op[i] in skip_ops:
                continue
            row = table[self.names[self.kind[i]]]
            row["calls"] += 1
            row["incl_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
            row["max_s"] = max(row["max_s"], dur[i])
            row["note"] += self.note[i]
        for kind, calls in self.agg_calls.items():
            row = table[self.names[kind]]
            row["calls"] = calls
            row["incl_s"] = row["self_s"] = self.agg_time[kind]
        return table

    def write(self, path: str, op_names: list[str]) -> None:
        """Write one tab-separated line per span, in start order."""
        lines = ["span\tparent\top\tname\tstart\tend\tnote"]
        for i in range(len(self.start)):
            o = self.op[i]
            lines.append(
                f"{i}\t{self.parent[i]}\t{op_names[o] if o >= 0 else 'setup'}\t"
                f"{self.names[self.kind[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.note[i]:g}"
            )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _note(kind, result) -> float:
    if kind is bool:
        return 1.0 if result else 0.0
    if kind == "size":
        from wscan.logic import pred_expr_size

        return float(sum(pred_expr_size(pe) for pe in result.psub.values()))
    if kind == "proved":
        from wscan.verify import Proved

        return 1.0 if isinstance(result, Proved) else 0.0
    raise ValueError(kind)
