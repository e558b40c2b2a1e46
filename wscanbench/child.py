"""One benchmark pass in a fresh interpreter.

Reads the pass spec (JSON, from run.py) on stdin, imports wscan from ./src,
parses the inputs, runs every op of the workload through the library's public
functions, checks each outcome, and prints one JSON result on stdout.  A fresh
process per pass keeps module-level state (the subsumption closure cache, the
fresh-name counter) cold, as it is for a command-line user.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import sys
import time
from collections import Counter

# wscan's own CLI defaults
VERIFY_TIMEOUT = 30.0
LRES_BUDGET = 512
# per-op cap on witness extraction; the slowest extraction that completes at
# the seed commit takes about 10 ms
EXTRACT_CAP_S = 1.0


class Capped(Exception):
    pass


def _on_alarm(signum, frame):
    raise Capped()


def _digest(d, w) -> str:
    from wscan.logic import pred_expr_str

    text = "\n".join(
        ["conclusion:"]
        + [str(c) for c in d.conclusion()]
        + ["witness:"]
        + [f"{x} := {pred_expr_str(pe)}" for x, pe in sorted(w.psub.items())]
        + ["modes:"]
        + [f"{i + 1}: {note}" for i, note in w.modes]
        + ["trace:"]
        + d.trace_lines()
    )
    return hashlib.sha256(text.encode()).hexdigest()


class Pass:
    def __init__(self, spec: dict, tracer) -> None:
        import wscan.problems as problems
        import wscan.saturation as saturation
        import wscan.verify as verify
        import wscan.witness as witness

        self.problems, self.saturation, self.verify, self.witness = problems, saturation, verify, witness
        self.spec = spec
        self.tracer = tracer
        self.pins = spec["pins"]
        self.known = spec["known_defects"]
        self.op_names: list[str] = []
        self.unit_s: list[float] = []
        self.ops: list[dict] = []
        # ops whose work depends on elapsed time: the extraction cap fired,
        # or a prover goal ran out of its deadline
        self.timebound: set[int] = set()
        self.models_checked = 0

    # -- input loading (part of set-up) --------------------------------------

    def load(self, src: dict):
        p = self.problems
        if src["kind"] == "graph":
            return p.merge_theory(p.encode_graph(p.parse_graph(src["graph"])))
        return p.merge_theory(p.parse_problem(src["problem"], origin=src["origin"]))

    # -- timing and tracing helpers ------------------------------------------

    def _unit(self, name: str) -> int:
        self.op_names.append(name)
        self.unit_s.append(0.0)
        if self.tracer is not None:
            self.tracer.current_op = len(self.op_names) - 1
        return len(self.op_names) - 1

    # -- ops -----------------------------------------------------------------

    def derive(self, src: dict, prob):
        """Search for the first derivation or replay the recorded trace."""
        sat = self.saturation
        self._unit(f"derive:{src['name']}")
        t0 = time.perf_counter()
        try:
            if src["kind"] == "replay":
                d = sat.replay(prob.clauses, prob.xvars, src["trace"])
            else:
                limits = sat.SearchLimits(**self.spec["limits"])
                d = next(iter(sat.search(prob.clauses, prob.xvars, limits)), None)
            err = None
        except Exception as e:  # recorded as a failed op below
            d, err = None, f"{type(e).__name__}: {e}"
        self.unit_s[-1] = time.perf_counter() - t0
        return d, err

    def check_mode(self, src: dict, prob, d, mode: str) -> dict:
        """Extract a witness in `mode` (under the per-op cap) and verify it."""
        name = f"{mode}:{src['name']}"
        uid = self._unit(name)
        w = rep = None
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, EXTRACT_CAP_S)
            try:
                w = self.witness.extract_witness(
                    d, mode=mode, k_override=None, lres_budget=LRES_BUDGET
                )
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            rep = self.verify.check_witness(
                prob.clauses, prob.xvars, d.conclusion(), w, timeout=VERIFY_TIMEOUT
            )
            outcome = "PASS" if rep.passed else "FAIL"
        except Capped:
            outcome = "cap"
            self.timebound.add(uid)
            if self.tracer is not None:
                self.tracer.recover()
        except (self.witness.LresBudgetExceeded, self.witness.FirstOrderUnavailable):
            outcome = "refused"
        except Exception as e:  # any other exception is a failed op
            outcome = f"error {type(e).__name__}: {e}"
        self.unit_s[-1] = time.perf_counter() - t0
        op = {"name": name, "outcome": outcome}
        if rep is not None:
            self.models_checked += rep.models_checked
            op["models_checked"] = rep.models_checked
            op["prover"] = dict(sorted(Counter(r for _, r in rep.prover).items()))
            if set(op["prover"]) - {"proved", "skipped"}:
                self.timebound.add(uid)
            op["digest"] = _digest(d, w)
        return op

    # -- correctness ---------------------------------------------------------

    def judge(self, op: dict, src: dict, prob, d) -> None:
        """Set op['solved'] and op['failed'], and op['wrong'] when the op
        produced a wrong output that is not a documented defect.

        A FAIL verdict, an exception, another conclusion/witness/trace than
        pinned, or a search trace that does not replay is a wrong output.
        Hitting the extraction cap, no derivation, or other prover or model
        counts than pinned (both deadline-bound in `check_witness`) is a
        missing outcome: failed, but not wrong."""
        wrong, missing = [], []
        if op["outcome"] == "PASS":
            pin = self.pins.get(op["name"])
            if pin is not None:
                for key in ("models_checked", "prover", "digest"):
                    if op[key] != pin[key]:
                        (wrong if key == "digest" else missing).append(f"{key} {op[key]} != pinned {pin[key]}")
            if src["kind"] != "replay":
                wrong.extend(self._replay_problems(prob, d))
        elif op["outcome"] in ("cap", "no derivation"):
            missing.append(op["outcome"])
        elif op["outcome"] not in ("refused", "unsolved"):
            wrong.append(op["outcome"])
        op["solved"] = op["outcome"] == "PASS" and not (wrong or missing)
        op["failed"] = bool(wrong or missing)
        if op["failed"]:
            op["detail"] = "; ".join(wrong + missing)
        op["wrong"] = bool(wrong) and self.known.get(op["name"]) != op["outcome"]

    def _replay_problems(self, prob, d) -> list[str]:
        """Replaying the trace of a search-found derivation must reproduce it."""
        if self.tracer is not None:
            self.tracer.on = False
        try:
            again = self.saturation.replay(prob.clauses, prob.xvars, "\n".join(d.trace_lines()))
        except self.saturation.ReplayError as e:
            return [f"search trace does not replay: {e}"]
        finally:
            if self.tracer is not None:
                self.tracer.on = True
        return [] if again == d else ["replay of the search trace differs"]

    def run(self, sources: list[dict], probs: list) -> None:
        for src, prob in zip(sources, probs):
            d, err = self.derive(src, prob)
            for mode in src["modes"]:
                if d is None:
                    outcome = f"error {err}" if err else (
                        "unsolved" if self.spec["unsolved_ok"] else "no derivation"
                    )
                    op = {"name": f"{mode}:{src['name']}", "outcome": outcome}
                else:
                    op = self.check_mode(src, prob, d, mode)
                self.judge(op, src, prob, d)
                self.ops.append(op)


def main() -> int:
    spec = json.load(sys.stdin)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import wscan  # noqa: F401
    import wscan.verify  # noqa: F401

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    ps = Pass(spec, tracer)
    probs = [ps.load(src) for src in spec["sources"]]
    t_first_op = time.monotonic()
    ps.run(spec["sources"], probs)
    out = {
        "t_first_op": t_first_op,
        "wall_s": sum(ps.unit_s),
        "units": dict(zip(ps.op_names, ps.unit_s)),
        "ops": ps.ops,
        "models_checked": ps.models_checked,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.on = False
        out["layers"] = tracer.layer_table()
        out["layers_workbound"] = tracer.layer_table(frozenset(ps.timebound))
        out["spans"] = len(tracer.start)
        if spec.get("spans_path"):
            tracer.write(spec["spans_path"], ps.op_names)
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
