"""Command-line front end: solve / check / encode-graph / replay / bench /
prove, with text and JSON output.

Exit codes for the pipeline commands: 0 solved and verified (or verification
not requested), 1 verification failed, 2 no derivation within the limits,
3 input error.  `prove`: 0 proved, 1 disproved, 2 unknown, 3 input error.
An input error is anything wrong with the command line or the files it names;
it prints one `error: ...` line.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields
from pathlib import Path
from typing import Optional

from .logic import (
    App,
    Clause,
    FAll,
    FAnd,
    FAtom,
    FEx,
    FFalse,
    FGfp,
    FIff,
    FImp,
    FNot,
    FOr,
    FTrue,
    Lit,
    PredExpr,
    Var,
    pred_expr_size,
    pred_expr_str,
)
from .problems import (
    ParseError,
    Problem,
    encode_graph,
    merge_theory,
    parse_formula,
    parse_graph,
    parse_problem,
    parse_witness,
    print_problem,
)
from .saturation import Derivation, ReplayError, SearchLimits, replay, search
from .verify import CheckReport, ClausifyError, Disproved, Proved, Rejected, Unknown, check_witness, prove
from .witness import FirstOrderUnavailable, LresBudgetExceeded, Witness, extract_witness


# ---------------------------------------------------------------------------
# JSON encoding of the syntax: a node becomes an object holding its `type` tag
# and each of its dataclass fields under the field's own name


_JSON_TAGS = {
    Var: "var",
    App: "app",
    Lit: "lit",
    Clause: "clause",
    FTrue: "true",
    FFalse: "false",
    FAtom: "atom",
    FNot: "not",
    FAnd: "and",
    FOr: "or",
    FImp: "imp",
    FIff: "iff",
    FAll: "all",
    FEx: "ex",
    FGfp: "gfp",
    PredExpr: "lambda",
}


def to_json(o):
    """Constructor-shaped JSON for terms, literals, clauses, formulas and
    predicate expressions; tuples become lists, names and flags stay as they are."""
    if isinstance(o, tuple):
        return [to_json(x) for x in o]
    tag = _JSON_TAGS.get(type(o))
    if tag is None:
        return o
    return {"type": tag, **{f.name: to_json(getattr(o, f.name)) for f in fields(o)}}


def witness_to_json(w: Witness):
    return {
        "bindings": {x: to_json(pe) for x, pe in sorted(w.psub.items())},
        "modes": [{"step": i, "note": note} for i, note in w.modes],
    }


def report_to_json(rep: CheckReport):
    return {
        "passed": rep.passed,
        "prover": [{"clause": i + 1, "result": r} for i, r in rep.prover],
        "models_checked": rep.models_checked,
        "models_evaluated": rep.models_evaluated,
        "failures": list(rep.failures),
        "notes": list(rep.notes),
    }


# ---------------------------------------------------------------------------
# output helpers


def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _witness_lines(w: Witness) -> list[str]:
    return [f"{x} := {pred_expr_str(pe)}" for x, pe in sorted(w.psub.items())]


def _report_lines(rep: CheckReport) -> list[str]:
    status = "PASS" if rep.passed else "FAIL"
    proved = sum(1 for _, r in rep.prover if r == "proved")
    out = [
        f"verification: {status} (prover {proved}/{len(rep.prover)} clauses,"
        f" {rep.models_checked} models checked)"
    ]
    out.extend(f"  failure: {s}" for s in rep.failures)
    out.extend(f"  note: {s}" for s in rep.notes)
    return out


def _derivation_block(
    d: Derivation, w: Witness, rep: Optional[CheckReport], show_trace: bool
) -> tuple[list[str], dict]:
    lines: list[str] = []
    blob: dict = {}
    lines.append("conclusion:")
    for c in d.conclusion():
        lines.append(str(c))
    blob["conclusion"] = [to_json(c) for c in d.conclusion()]
    blob["conclusion_text"] = [str(c) for c in d.conclusion()]
    lines.append("witness:")
    lines.extend(_witness_lines(w))
    blob["witness"] = witness_to_json(w)
    blob["witness_text"] = _witness_lines(w)
    if w.modes:
        lines.append("modes:")
        lines.extend(f"  step {i + 1}: {note}" for i, note in w.modes)
    if show_trace:
        lines.append("trace:")
        lines.extend(d.trace_lines())
        blob["trace"] = d.trace_lines()
    if rep is not None:
        lines.extend(_report_lines(rep))
        blob["verification"] = report_to_json(rep)
    else:
        lines.append("verification: skipped")
        blob["verification"] = None
    return lines, blob


def _emit(args, text_lines: list[str], blob) -> None:
    if args.format == "json":
        print(json.dumps(blob, indent=2, sort_keys=True))
    else:
        print("\n".join(text_lines))


# ---------------------------------------------------------------------------
# commands


def _load_problem(path: str) -> Problem:
    return merge_theory(parse_problem(Path(path).read_text(), origin=path))


def _limits(args) -> SearchLimits:
    return SearchLimits(max_steps=args.max_steps, timeout=args.timeout)


def _extract(args, d: Derivation) -> Witness:
    budget = {} if args.lres_budget is None else {"lres_budget": args.lres_budget}
    return extract_witness(d, mode=args.witness_mode, k_override=args.fo_k, **budget)


def _verify(args, prob: Problem, d: Derivation, w: Witness) -> Optional[CheckReport]:
    """The `--verify` check of w on d, or None without `--verify`."""
    if not args.verify:
        return None
    return check_witness(prob.clauses, prob.xvars, d.conclusion(), w, timeout=args.verify_timeout)


def cmd_solve(args) -> int:
    prob = _load_problem(args.problem)
    found: list[Derivation] = []
    for d in search(prob.clauses, prob.xvars, _limits(args)):
        found.append(d)
        if len(found) >= args.all:
            break
    if not found:
        _emit(args, ["no derivation within limits"], {"solved": False, "derivations": []})
        return 2
    code = 0
    lines: list[str] = []
    blocks = []
    for idx, d in enumerate(found, start=1):
        if len(found) > 1:
            lines.append(f"derivation {idx}:")
        try:
            w = _extract(args, d)
        except (FirstOrderUnavailable, LresBudgetExceeded) as e:
            lines.append(f"witness extraction failed: {e}")
            blocks.append({"error": str(e)})
            code = max(code, 2)
            continue
        rep = _verify(args, prob, d, w)
        if rep is not None and not rep.passed:
            code = max(code, 1)
        block_lines, blob = _derivation_block(d, w, rep, args.trace)
        lines.extend(block_lines)
        blocks.append(blob)
    _emit(args, lines, {"solved": True, "derivations": blocks})
    return code


def cmd_replay(args) -> int:
    prob = _load_problem(args.problem)
    d = replay(prob.clauses, prob.xvars, Path(args.trace_file).read_text())
    try:
        w = _extract(args, d)
    except (FirstOrderUnavailable, LresBudgetExceeded, ValueError) as e:
        _err(str(e))
        return 2
    rep = _verify(args, prob, d, w)
    lines, blob = _derivation_block(d, w, rep, args.trace)
    _emit(args, lines, blob)
    return 1 if rep is not None and not rep.passed else 0


def cmd_check(args) -> int:
    prob = _load_problem(args.problem)
    psub = parse_witness(Path(args.witness_file).read_text(), prob.xvars)
    missing = [x for x in prob.xvars if x not in psub]
    if missing:
        raise ParseError(f"witness has no binding for {', '.join(missing)}", 1, 1)
    if args.conclusion:
        conclusion = parse_problem(Path(args.conclusion).read_text()).clauses
    else:
        d = next(iter(search(prob.clauses, prob.xvars, _limits(args))), None)
        if d is None:
            _emit(args, ["no derivation within limits"], {"solved": False})
            return 2
        conclusion = d.conclusion()
    w = Witness(dict(psub), ())
    rep = check_witness(prob.clauses, prob.xvars, conclusion, w, timeout=args.verify_timeout)
    lines = ["conclusion:"] + [str(c) for c in conclusion] + _report_lines(rep)
    blob = {
        "conclusion": [to_json(c) for c in conclusion],
        "witness": witness_to_json(w),
        "verification": report_to_json(rep),
    }
    _emit(args, lines, blob)
    return 0 if rep.passed else 1


def cmd_encode_graph(args) -> int:
    g = parse_graph(Path(args.graph).read_text())
    sys.stdout.write(print_problem(encode_graph(g)))
    return 0


def cmd_prove(args) -> int:
    prob = parse_problem(Path(args.premises).read_text())
    goal = parse_formula(Path(args.goal).read_text(), prob.xvars)
    got = prove(prob.clauses, goal, timeout=args.timeout)
    if isinstance(got, Proved):
        inputs, trace = [str(c) for c in got.proof.inputs], got.proof.trace_lines()
        lines = ["proved"] + [f"{i}. {c}" for i, c in enumerate(inputs, 1)] + trace
        _emit(args, lines, {"result": "proved", "inputs": inputs, "trace": trace})
        return 0
    if isinstance(got, Rejected):
        note = "the prover's refutation does not replay through the calculus"
        _emit(args, [f"rejected: {note}"], {"result": "rejected", "note": note})
        return 1
    if isinstance(got, Disproved):
        _emit(
            args,
            [f"disproved: countermodel {got.model.describe()}"],
            {"result": "disproved", "model": got.model.describe()},
        )
        return 1
    assert isinstance(got, Unknown)
    _emit(args, [f"unknown: {got.note}"], {"result": "unknown", "note": got.note})
    return 2


_BENCH_COLS = [
    "problem",
    "input_size",
    "solved",
    "derivation_len",
    "scan_ms",
    "witness_ms",
    "witness_size",
    "verification",
]


def _bench_one(path: str, args) -> dict:
    row = dict.fromkeys(_BENCH_COLS, "")
    row.update(problem=Path(path).name, solved="no")
    try:
        prob = _load_problem(path)
    except (ParseError, OSError, ValueError) as e:
        row["verification"] = f"input error: {e}"
        return row
    row["input_size"] = sum(c.size for c in prob.clauses)
    t0 = time.perf_counter()
    try:
        d = next(iter(search(prob.clauses, prob.xvars, _limits(args))), None)
    except Exception as e:  # a bench row must never kill the run
        row["verification"] = f"search error: {e}"
        return row
    scan_ms = (time.perf_counter() - t0) * 1000.0
    if d is None:
        row["scan_ms"] = round(scan_ms, 1)
        return row
    row["solved"] = "yes"
    row["derivation_len"] = len(d.steps)
    row["scan_ms"] = round(scan_ms, 1)
    t1 = time.perf_counter()
    try:
        w = _extract(args, d)
    except (FirstOrderUnavailable, LresBudgetExceeded) as e:
        row["verification"] = f"witness error: {e}"
        return row
    row["witness_ms"] = round((time.perf_counter() - t1) * 1000.0, 1)
    row["witness_size"] = sum(pred_expr_size(pe) for pe in w.psub.values())
    rep = _verify(args, prob, d, w)
    row["verification"] = "skipped" if rep is None else "PASS" if rep.passed else "FAIL"
    return row


def _aggregate(rows: list[dict]) -> list[dict]:
    num_cols = ["input_size", "derivation_len", "scan_ms", "witness_ms", "witness_size"]
    out = []
    for name, fn in (("min", min), ("max", max), ("mean", None)):
        agg = {c: "" for c in _BENCH_COLS}
        agg["problem"] = name
        for col in num_cols:
            vals = [r[col] for r in rows if isinstance(r[col], (int, float))]
            if not vals:
                continue
            agg[col] = round(sum(vals) / len(vals), 1) if fn is None else fn(vals)
        agg["solved"] = sum(1 for r in rows if r["solved"] == "yes") if name == "max" else ""
        out.append(agg)
    return out


def cmd_bench(args) -> int:
    paths = sorted(str(p) for p in Path(args.directory).glob("*.wscan"))
    if args.jobs > 1 and paths:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as ex:
            rows = list(ex.map(_bench_one, paths, [args] * len(paths)))
    else:
        rows = [_bench_one(p, args) for p in paths]
    aggs = _aggregate(rows) if rows else []
    if args.format == "json":
        print(json.dumps({"rows": rows, "aggregates": aggs}, indent=2, sort_keys=True))
    else:
        import csv

        wtr = csv.DictWriter(sys.stdout, fieldnames=_BENCH_COLS)
        wtr.writeheader()
        for r in rows + aggs:
            wtr.writerow(r)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _ArgumentParser(argparse.ArgumentParser):
    """Raises on a usage error, so that `main` reports it as an input error."""

    def error(self, message: str):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    spec = {
        "--max-steps": dict(type=int, default=50),
        "--timeout": dict(type=float, default=10.0),
        "--witness-mode": dict(
            choices=["auto", "first-order", "fixpoint", "resolution"], default="auto"
        ),
        "--fo-k": dict(type=int, default=None),
        "--lres-budget": dict(
            type=int, default=None, metavar="UNITS",
            help="work bound of --witness-mode resolution: one unit per inference and "
                 "one per subsumption test (default 512)",
        ),
        "--verify": dict(action="store_true"),
        "--verify-timeout": dict(type=float, default=30.0),
        "--format": dict(choices=["text", "json"], default="text"),
        "--trace": dict(action="store_true"),
        "--all": dict(type=int, default=1, metavar="N"),
        "--jobs": dict(type=int, default=1),
        "conclusion": dict(nargs="?"),
    }
    searching = ["--max-steps", "--timeout"]
    extracting = ["--witness-mode", "--fo-k", "--lres-budget", "--verify"]
    reporting = ["--verify-timeout", "--format"]
    # each subcommand takes exactly the arguments it reads
    commands = {
        "solve": (cmd_solve, "eliminate the declared predicate variables",
                  ["problem", *searching, *extracting, *reporting, "--trace", "--all"]),
        "replay": (cmd_replay, "replay a recorded trace and extract its witness",
                   ["problem", "trace_file", *extracting, *reporting, "--trace"]),
        "check": (cmd_check, "check a witness file against a problem",
                  ["problem", "witness_file", "conclusion", *searching, *reporting]),
        "encode-graph": (cmd_encode_graph, "encode a graph reachability spec as a problem",
                         ["graph"]),
        "prove": (cmd_prove, "run the refutation prover on premises and a goal",
                  ["premises", "goal", "--timeout", "--format"]),
        "bench": (cmd_bench, "run every *.wscan problem in a directory",
                  ["directory", *searching, *extracting, *reporting, "--jobs"]),
    }
    # no abbreviations: `check --verify` must not read as `--verify-timeout`
    ap = _ArgumentParser(prog="wscan", description=__doc__, allow_abbrev=False)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (fn, summary, arguments) in commands.items():
        sp = sub.add_parser(name, help=summary, allow_abbrev=False)
        for arg in arguments:
            sp.add_argument(arg, **spec.get(arg, {}))
        sp.set_defaults(fn=fn)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command.  This is the one place that turns bad input into an
    `error: ...` line and exit code 3; `--help` still exits 0."""
    try:
        args = build_parser().parse_args(argv)
        for name in ("max_steps", "timeout", "verify_timeout", "all", "lres_budget", "jobs"):
            value = getattr(args, name, None)  # not every command has every budget
            if value is not None and not value > 0:
                raise argparse.ArgumentError(
                    None, f"--{name.replace('_', '-')} must be positive, got {value}"
                )
        if getattr(args, "fo_k", None) is not None and args.fo_k < 0:
            raise argparse.ArgumentError(None, f"--fo-k must not be negative, got {args.fo_k}")
        mode = getattr(args, "witness_mode", None)
        if mode in ("fixpoint", "resolution") and args.fo_k is not None:
            raise argparse.ArgumentError(None, f"--fo-k does not apply to --witness-mode {mode}")
        if mode not in (None, "resolution") and args.lres_budget is not None:
            raise argparse.ArgumentError(None, f"--lres-budget does not apply to --witness-mode {mode}")
        return args.fn(args)
    except ReplayError as e:
        _err(f"invalid trace: {e}")
    except (argparse.ArgumentError, ClausifyError, OSError, ParseError, UnicodeDecodeError) as e:
        _err(str(e))
    return 3


if __name__ == "__main__":
    sys.exit(main())
