"""Command-line surface: exit codes, output shapes, determinism."""

import csv
import io
import json
import pathlib
import time

import pytest

from wscan import cli
from wscan.cli import main
from wscan.problems import MAX_NESTING
from wscan.verify import CheckReport

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "src" / "wscan" / "corpus"

MAIN = CORPUS / "p01_main.wscan"
TRACE = CORPUS / "p01_d1.trace"
CYCLE = CORPUS / "p05_cycle.wscan"
GRAPH = CORPUS / "p06_graph3.graph"
GRAPH_PROBLEM = CORPUS / "p06_graph3.wscan"


def run(capsys, *argv):
    code = main([str(x) for x in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_text_output(capsys):
    code, out, _ = run(capsys, "solve", MAIN, "--trace")
    assert code == 0
    assert "X :=" in out
    assert "res 2.1 4.1 -> 5" in out
    assert "verification: skipped" in out


def test_solve_with_verification(capsys):
    code, out, _ = run(capsys, "solve", MAIN, "--verify")
    assert code == 0
    assert "verification: PASS" in out


def test_solve_json_parses_back(capsys):
    code, out, _ = run(capsys, "solve", MAIN, "--format", "json", "--verify", "--trace")
    assert code == 0
    doc = json.loads(out)
    assert doc["solved"] is True
    (block,) = doc["derivations"]
    assert block["witness"]["bindings"]["X"]["type"] == "lambda"
    assert block["verification"]["passed"] is True
    # one model per orbit of constant vectors covers several
    assert 0 < block["verification"]["models_evaluated"] < block["verification"]["models_checked"]
    assert isinstance(block["trace"], list) and block["trace"]


def test_solve_seed_is_byte_identical(capsys):
    _, out1, _ = run(capsys, "solve", MAIN, "--format", "json", "--trace")
    _, out2, _ = run(capsys, "solve", MAIN, "--format", "json", "--trace")
    assert out1 == out2


def test_solve_all_enumerates_distinct_derivations(capsys):
    code, out, _ = run(capsys, "solve", MAIN, "--all", "3", "--trace")
    assert code == 0
    assert out.count("derivation ") >= 2


def test_solve_unsolvable_exits_two(capsys, tmp_path):
    f = tmp_path / "stuck.wscan"
    f.write_text("exists X/1.\nX(a)\n~X(?u) | X(f(?u))\n~X(?v) | B(?v)\n")
    code, out, _ = run(capsys, "solve", f, "--timeout", "2", "--max-steps", "10")
    assert code == 2
    assert "no derivation" in out


def test_solve_timeout_bounds_blind_search(capsys):
    # p06 has no derivation that blind search finds in time; the deadline is
    # checked between steps, so the run ends near it only if no one step,
    # canonicalizing its clauses included, takes long
    start = time.monotonic()
    code, out, _ = run(capsys, "solve", GRAPH_PROBLEM, "--timeout", "3")
    elapsed = time.monotonic() - start
    assert code == 2
    assert "no derivation within limits" in out
    assert elapsed < 6, f"--timeout 3 returned after {elapsed:.1f} s"


@pytest.mark.parametrize("problem,trace", [("p01_main", "p01_d2"), ("p05_cycle", "p05_cycle")])
def test_replay_refuses_a_resolution_closure_that_does_not_stabilize(capsys, problem, trace):
    code, out, err = run(
        capsys, "replay", CORPUS / f"{problem}.wscan", CORPUS / f"{trace}.trace",
        "--witness-mode", "resolution",
    )
    assert code == 2 and not out
    assert err == (
        "error: local resolution closure did not stabilize within 512 work units "
        "(22 inferences, 491 subsumption tests)\n"
    )


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_solve_reports_a_witness_extraction_that_runs_out_of_budget(capsys, fmt):
    code, out, _ = run(
        capsys, "solve", MAIN, "--witness-mode", "resolution", "--lres-budget", "1", "--format", fmt
    )
    why = (
        "local resolution closure did not stabilize within 1 work units "
        "(1 inferences, 1 subsumption tests)"
    )
    assert code == 2
    if fmt == "json":
        assert json.loads(out) == {"solved": True, "derivations": [{"error": why}]}
    else:
        assert out == f"witness extraction failed: {why}\n"


def test_solve_verify_exits_one_when_the_check_fails(capsys, monkeypatch):
    # every --verify check goes through `cli._verify`, which calls check_witness
    failed = CheckReport((), 0, 0, ("injected failure",), ())
    monkeypatch.setattr(cli, "check_witness", lambda *args, **kw: failed)
    code, out, _ = run(capsys, "solve", MAIN, "--verify")
    assert code == 1
    assert "verification: FAIL (prover 0/0 clauses, 0 models checked)\n" in out
    assert "  failure: injected failure\n" in out


def test_replay_ok(capsys):
    code, out, _ = run(capsys, "replay", MAIN, TRACE)
    assert code == 0
    assert "X :=" in out


def test_replay_invalid_trace_exits_three(capsys, tmp_path):
    bad = tmp_path / "bad.trace"
    bad.write_text("res 1.1 2.1 -> 5\n")
    code, out, err = run(capsys, "replay", MAIN, bad)
    assert code == 3
    assert "invalid trace" in (out + err)


OWN_VARIABLE_PROBLEM = "exists X/1, Y/1.\nX(a)\n~X(?u) | Y(?u)\n~Y(c)\n"
# X's last deletion is a `purdel`, with no `extpurdel X` after it
OWN_VARIABLE_TRACE = (
    "res 2.1 1.1 -> 4\nvarelim 4 -> 5\npurdel 2.1\npurdel 1.1\n"
    "res 5.1 3.1 -> 6\npurdel 5.1\nextpurdel Y -\n"
)


@pytest.mark.parametrize("mode, code", [("auto", 0), ("first-order", 0), ("fixpoint", 1), ("resolution", 1)])
def test_a_witness_that_mentions_its_own_variable_fails(capsys, tmp_path, mode, code):
    problem, trace = tmp_path / "own.wscan", tmp_path / "own.trace"
    problem.write_text(OWN_VARIABLE_PROBLEM)
    trace.write_text(OWN_VARIABLE_TRACE)
    got, out, _ = run(capsys, "replay", problem, trace, "--witness-mode", mode, "--verify")
    assert got == code
    failure = "  failure: the witness of X still mentions the eliminated X"
    if code:
        # the fold leaves `X(?u0) \/ ...` in X's own witness, which both
        # routes accept, since nothing substitutes X afterwards
        assert "X := lambda u0. " in out and "X(?u0)" in out.split("X := ")[1].splitlines()[0]
        assert "verification: FAIL (prover 3/3 clauses, 14 models checked)" in out
        assert failure in out.splitlines()
    else:
        assert "verification: PASS (prover 3/3 clauses, 14 models checked)" in out
        assert failure not in out.splitlines()


def test_check_accepts_handwritten_witness(capsys, tmp_path):
    w = tmp_path / "w.txt"
    w.write_text("X := lambda u. u = a\n")
    code, out, _ = run(capsys, "check", MAIN, w)
    assert code == 0
    assert "PASS" in out


def test_check_rejects_wrong_witness(capsys, tmp_path):
    w = tmp_path / "w.txt"
    w.write_text("X := lambda u. u = c\n")
    code, out, _ = run(capsys, "check", MAIN, w)
    assert code == 1
    assert "FAIL" in out


def test_check_rejects_malformed_witness(capsys, tmp_path):
    w = tmp_path / "w.txt"
    w.write_text("X := lambda u v. B(u, v)\n")
    code, out, err = run(capsys, "check", MAIN, w)
    assert code == 3


def test_check_rejects_a_witness_with_no_binding_for_a_declared_variable(capsys, tmp_path):
    wf = tmp_path / "w.txt"
    wf.write_text("")
    code, out, err = run(capsys, "check", MAIN, wf)
    assert code == 3
    assert out == ""
    assert err == "error: line 1, col 1: witness has no binding for X\n"


def test_check_rejects_a_witness_that_binds_a_variable_twice(capsys, tmp_path):
    wf = tmp_path / "w.txt"
    wf.write_text("X := lambda u. (a = ?u)\nX := lambda u. true\n")
    code, out, err = run(capsys, "check", MAIN, wf)
    assert code == 3
    assert out == ""
    assert err == "error: line 2, col 1: second binding for X\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_without_a_conclusion_exits_two_when_search_finds_none(capsys, tmp_path, fmt):
    w = tmp_path / "w.txt"
    w.write_text("X := lambda u. B(a, u)\n")
    code, out, _ = run(capsys, "check", GRAPH_PROBLEM, w, "--max-steps", "1", "--format", fmt)
    assert code == 2
    if fmt == "json":
        assert json.loads(out) == {"solved": False}
    else:
        assert out == "no derivation within limits\n"


def test_check_with_explicit_conclusion(capsys, tmp_path):
    w = tmp_path / "w.txt"
    w.write_text("X := lambda u. false\n")
    concl = tmp_path / "concl.wscan"
    concl.write_text("exists X/1.\n")  # empty conclusion set
    code, out, _ = run(capsys, "check", CYCLE, w, concl)
    assert code == 1  # lambda false satisfies neither input clause


def test_check_passes_what_replay_prints_for_an_unsatisfiable_problem(capsys, tmp_path):
    # the conclusion is the empty clause; it must print as a line that
    # parses back to the empty clause, so that `check` agrees with
    # `replay --verify`
    problem = tmp_path / "p.wscan"
    problem.write_text("exists X/1.\nX(a)\n~X(a)\n")
    trace = tmp_path / "p.trace"
    trace.write_text(
        "res 1.1 2.1 -> 3\nconstrelim 3 -> 4\nredel 3 subsumed-by 4\npurdel 1.1\npurdel 2.1\n"
    )
    code, out, _ = run(capsys, "replay", problem, trace, "--verify")
    assert code == 0 and "verification: PASS" in out
    code, out, _ = run(capsys, "replay", problem, trace, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["conclusion_text"] == ["false"]
    witness, conclusion = tmp_path / "w.txt", tmp_path / "c.wscan"
    witness.write_text("".join(f"{line}\n" for line in doc["witness_text"]))
    conclusion.write_text("".join(f"{line}\n" for line in doc["conclusion_text"]))
    code, out, _ = run(capsys, "check", problem, witness, conclusion)
    assert code == 0, out
    assert "verification: PASS" in out


def test_encode_graph_round_trip(capsys):
    code, out, _ = run(capsys, "encode-graph", GRAPH)
    assert code == 0
    from wscan.problems import parse_problem

    p = parse_problem(out, origin="enc")
    assert len(p.clauses) == 16
    assert len(p.theory) == 13


def test_prove_proved(capsys, tmp_path):
    prem = tmp_path / "p.wscan"
    prem.write_text("exists X/1.\nB(a)\n~B(?u) | C(?u, ?u)\n")
    goal = tmp_path / "goal.txt"
    goal.write_text("C(a, a)\n")
    code, out, _ = run(capsys, "prove", prem, goal)
    assert code == 0
    # the input clauses of the refutation, then its trace
    assert out.splitlines() == [
        "proved",
        "1. B(a)",
        "2. ~B(?u0) | C(?u0,?u0)",
        "3. ~C(a,a)",
        "res 2.1 1.1 -> 4",
        "varelim 4 -> 5",
        "res 5.1 3.1 -> 6",
        "constrelim 6.1 -> 7",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", MAIN, "--timeout", "nan"],
        ["check", MAIN, "w.txt", "--timeout", "0"],
        ["check", MAIN, "w.txt", "--verify-timeout", "nan"],
        ["solve", MAIN, "--max-steps", "0"],
        ["prove", MAIN, "goal.txt", "--timeout", "-1"],
        ["bench", CORPUS, "--verify-timeout", "0"],
        ["solve", MAIN, "--all", "0"],
        ["solve", MAIN, "--all", "-3"],
        ["replay", MAIN, TRACE, "--lres-budget", "0"],
        ["solve", MAIN, "--lres-budget", "-1"],
        ["bench", CORPUS, "--jobs", "-2"],
    ],
    ids=["solve-timeout", "check-timeout", "check-verify-timeout", "solve-max-steps",
         "prove-timeout", "bench-verify-timeout", "solve-all-0", "solve-all-negative",
         "replay-lres-budget", "solve-lres-budget", "bench-jobs"],
)
def test_invalid_budget_flag_is_an_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: --") and "must be positive" in err


@pytest.mark.parametrize("command", [["solve", MAIN], ["replay", MAIN, TRACE], ["bench", CORPUS]])
def test_negative_fo_k_is_an_input_error(capsys, command):
    code, out, err = run(capsys, *command, "--fo-k", "-5")
    assert code == 3
    assert out == ""
    assert err == "error: --fo-k must not be negative, got -5\n"


@pytest.mark.parametrize("command", [["solve", MAIN], ["replay", MAIN, TRACE], ["bench", CORPUS]])
@pytest.mark.parametrize(
    "flag, modes",
    [("--fo-k", ["fixpoint", "resolution"]), ("--lres-budget", ["auto", "first-order", "fixpoint"])],
)
def test_a_flag_the_witness_mode_ignores_is_an_input_error(capsys, command, flag, modes):
    for mode in modes:
        code, out, err = run(capsys, *command, "--witness-mode", mode, flag, "3")
        assert code == 3
        assert out == ""
        assert err == f"error: {flag} does not apply to --witness-mode {mode}\n"
    # auto is the default mode
    if flag == "--lres-budget":
        code, _, err = run(capsys, *command, flag, "3")
        assert (code, err) == (3, f"error: {flag} does not apply to --witness-mode auto\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_the_trace_prove_prints_replays_to_the_empty_clause(capsys, tmp_path, fmt):
    from conftest import cl, proof_of_lines, replays

    prem = tmp_path / "p.wscan"
    prem.write_text("B(a)\n~B(?u) | C(?u, f(?u))\n")
    goal = tmp_path / "goal.txt"
    goal.write_text("forall u. (B(u) -> exists v. C(u, v))\n")
    code, out, _ = run(capsys, "prove", prem, goal, "--format", fmt)
    assert code == 0
    if fmt == "json":
        doc = json.loads(out)
        assert doc["result"] == "proved"
        inputs, trace = doc["inputs"], doc["trace"]
    else:
        head, *lines = out.splitlines()
        assert head == "proved"
        numbered = [line.split(". ", 1) for line in lines if line[0].isdigit()]
        assert [int(i) for i, _ in numbered] == list(range(1, len(numbered) + 1))
        inputs, trace = [c for _, c in numbered], lines[len(numbered):]
    # proof_of_lines requires each line to parse with exactly one rule
    assert replays(proof_of_lines([cl(c) for c in inputs], trace))


def test_prove_disproved_shows_countermodel(capsys, tmp_path):
    prem = tmp_path / "p.wscan"
    prem.write_text("exists X/1.\nB(a)\n")
    goal = tmp_path / "goal.txt"
    goal.write_text("B(c)\n")
    code, out, _ = run(capsys, "prove", prem, goal)
    assert code == 1
    assert "disproved" in out.lower()


def test_prove_rejects_a_proof_that_does_not_replay(capsys, tmp_path, monkeypatch):
    from test_verify import tamper_proofs

    tamper_proofs(monkeypatch)
    prem = tmp_path / "p.wscan"
    prem.write_text("exists X/1.\nB(a)\n~B(?u) | C(?u, ?u)\n")
    goal = tmp_path / "goal.txt"
    goal.write_text("C(a, a)\n")
    code, out, _ = run(capsys, "prove", prem, goal)
    assert code == 1
    assert out == "rejected: the prover's refutation does not replay through the calculus\n"


def test_prove_refuses_a_goal_whose_clausal_form_is_too_large(capsys, tmp_path):
    prem = tmp_path / "p.wscan"
    prem.write_text("exists X/1.\nB(a)\n~B(?u) | C(?u, ?u)\n")
    goal = tmp_path / "goal.txt"
    goal.write_text(" <-> ".join(["C(a, a)"] * 9) + "\n")
    t0 = time.monotonic()
    code, out, err = run(capsys, "prove", prem, goal, "--timeout", "1")
    assert time.monotonic() - t0 < 2.0
    assert code == 3
    assert out == ""
    assert err == "error: clausal form has more than 10000 clauses\n"


def test_prove_unknown_exits_two(capsys, tmp_path):
    prem = tmp_path / "p.wscan"
    prem.write_text("exists X/1.\nB(?u, f(?u))\n~B(?u, ?u)\nC(g(?u, ?v), a) | ~C(?u, ?v)\n")
    goal = tmp_path / "goal.txt"
    goal.write_text("B(a, a)\n")
    code, out, _ = run(capsys, "prove", prem, goal, "--timeout", "1")
    assert code in (1, 2)  # countermodel or honest unknown, never a proof


def test_prove_unknown_exits_two_when_every_model_is_infinite(capsys, tmp_path):
    prem = tmp_path / "p.wscan"
    prem.write_text("exists X/1.\nB(?u, f(?u))\n~B(?u, ?u)\nB(?u, ?w) | ~B(?u, ?v) | ~B(?v, ?w)\n")
    goal = tmp_path / "goal.txt"
    goal.write_text("C(a)\n")
    code, out, _ = run(capsys, "prove", prem, goal, "--timeout", "1")
    assert code == 2
    assert out.startswith("unknown: ")


def test_bench_csv_layout(capsys):
    code, out, _ = run(capsys, "bench", CORPUS, "--timeout", "3")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    named = [r for r in rows if r["problem"].startswith("p")]
    assert len(named) == 12
    main_row = next(r for r in named if "p01_main" in r["problem"])
    assert main_row["input_size"] == "14"
    assert main_row["solved"] == "yes"
    aggs = [r for r in rows if r["problem"] in ("min", "max", "mean")]
    assert len(aggs) == 3


def test_bench_json(capsys):
    code, out, _ = run(capsys, "bench", CORPUS, "--timeout", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 12
    solved = [r for r in doc["rows"] if r["solved"] == "yes"]
    assert len(solved) >= 10


def test_bench_reports_input_and_witness_errors_in_their_rows(capsys, tmp_path):
    # a bench row never stops the run; a column with no number in any row
    # aggregates to blanks
    (tmp_path / "bad.wscan").write_text("exists X/1.\nX(a\n")
    (tmp_path / "p01_main.wscan").write_text(MAIN.read_text())
    code, out, _ = run(capsys, "bench", tmp_path, "--witness-mode", "resolution",
                       "--lres-budget", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    bad, main_row = doc["rows"]
    assert bad["verification"] == "input error: line 2, col 4: expected ')', found 'end of input'"
    assert main_row["solved"] == "yes"
    assert main_row["verification"].startswith(
        "witness error: local resolution closure did not stabilize within 1 work units")
    for agg in doc["aggregates"]:
        assert (agg["input_size"], agg["derivation_len"]) == (14, 3)
        assert agg["witness_ms"] == agg["witness_size"] == ""


def test_bench_jobs_gives_the_rows_of_a_serial_run(capsys, tmp_path):
    for name in ("p01_main", "p02_two_constants", "p03_ackermann_unary"):
        (tmp_path / f"{name}.wscan").write_text((CORPUS / f"{name}.wscan").read_text())
    docs = []
    for jobs in ("1", "2"):
        code, out, _ = run(capsys, "bench", tmp_path, "--verify", "--format", "json", "--jobs", jobs)
        assert code == 0
        doc = json.loads(out)
        for row in doc["rows"] + doc["aggregates"]:
            del row["scan_ms"], row["witness_ms"]
        docs.append(doc)
    assert docs[0] == docs[1]
    assert [r["verification"] for r in docs[0]["rows"]] == ["PASS"] * 3


def test_unknown_subcommand_fails(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "invalid choice: 'frobnicate'" in err


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["solve", "--help"]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 0
        assert "usage: wscan" in capsys.readouterr().out


def _deep_term(n):
    return "f(" * n + "a" + ")" * n


BAD_INPUTS = {
    "gfp-goal": ("prove", "premises.wscan", "gfp.txt"),
    "non-utf8-graph": ("encode-graph", "latin1.bin"),
    "graph-without-nodes": ("encode-graph", "nodes0.graph"),
    "graph-with-negative-nodes": ("encode-graph", "nodes-2.graph"),
    "graph-with-two-nodes-lines": ("encode-graph", "nodes_twice.graph"),
    "graph-node-out-of-range": ("encode-graph", "edge_out_of_range.graph"),
    "non-utf8-premises": ("prove", "latin1.bin", "goal.txt"),
    "non-numeric-timeout": ("solve", MAIN, "--timeout", "abc"),
    "unknown-option": ("solve", MAIN, "--bogus"),
    "missing-positional": ("solve",),
    "missing-file": ("replay", MAIN, "missing.trace"),
    "deep-term": ("solve", "deep.wscan"),
    "deep-goal": ("prove", "premises.wscan", "deep_goal.txt"),
    "deep-witness": ("check", MAIN, "deep_witness.txt"),
    # a constrelim selection names 1-based literals of the clause
    "constrelim-position-0": ("replay", "x.wscan", "constrelim_0.trace"),
    "constrelim-past-the-clause": ("replay", "x.wscan", "constrelim_9.trace"),
    # goals and witness bodies are closed: a free variable was read
    # existentially in a goal and crashed the witness check
    "free-variable-goal": ("prove", "premises.wscan", "free_goal.txt"),
    "free-variable-witness": ("check", MAIN, "free_witness.txt"),
    # trace steps that replay refuses on p01_main
    "res-same-polarity": ("replay", MAIN, "res_same_polarity.trace"),
    "extpurdel-unknown-variable": ("replay", MAIN, "extpurdel_z.trace"),
    "parmod-from-a-non-equation": ("replay", MAIN, "parmod_non_equation.trace"),
    # a gfp application takes one argument per parameter; a bare gfp none
    **{f"gfp-witness-{k}": ("check", MAIN, f"gfp_witness_{k}.txt") for k in range(4)},
}

GFP_WITNESSES = [
    "X := lambda u. (gfp Y v. Y(v) \\/ B(v)) @ (u, u)\n",
    "X := lambda u. (gfp Y v w. Y(v, w)) @ (u)\n",
    "X := lambda u. gfp Y v. B(v)\n",
    "X := lambda u. (gfp Y v. B(v)) @ ()\n",
]

# the one line a refused trace prints, by the case's trace file
INVALID_TRACES = {
    "res_same_polarity.trace": (
        "res 2.1 3.3 -> 5",
        "designated literals must have opposite polarity: X(a) vs X(?u1)",
    ),
    "extpurdel_z.trace": ("extpurdel Z +", "unknown predicate variable Z"),
    "parmod_non_equation.trace": (
        "parmod 1.1 2@1.1 -> 5",
        "paramodulation does not apply at 'parmod 1.1 2@1.1 -> 5'",
    ),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_exits_three_with_one_error_line(capsys, tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "premises.wscan").write_text("exists X/1.\nB(a)\n")
    (tmp_path / "goal.txt").write_text("B(a)\n")
    (tmp_path / "gfp.txt").write_text("(gfp Y u. Y(u)) @ (a)\n")
    for k, text in enumerate(GFP_WITNESSES):
        (tmp_path / f"gfp_witness_{k}.txt").write_text(text)
    (tmp_path / "latin1.bin").write_bytes("nodes 2 # caf\u00e9\n".encode("latin-1"))
    (tmp_path / "nodes0.graph").write_text("nodes 0\n")
    (tmp_path / "nodes-2.graph").write_text("nodes -2\n")
    (tmp_path / "nodes_twice.graph").write_text("nodes 2\nedge 1 2\nnodes 3\n")
    (tmp_path / "edge_out_of_range.graph").write_text("nodes 2\nedge 1 5\n")
    (tmp_path / "deep.wscan").write_text(f"exists X/1.\nX(a)\n~X(?u) | B({_deep_term(3000)})\n")
    (tmp_path / "deep_goal.txt").write_text("~" * 3000 + "B(a)\n")
    (tmp_path / "deep_witness.txt").write_text(f"X := lambda u. B({_deep_term(3000)})\n")
    (tmp_path / "x.wscan").write_text("exists X/1.\nX(a)\n~X(b)\n")
    (tmp_path / "free_goal.txt").write_text("B(?x)\n")
    (tmp_path / "free_witness.txt").write_text("X := lambda y. exists u0. (B(u0, y) /\\ C(?v0))\n")
    for k in "09":
        (tmp_path / f"constrelim_{k}.trace").write_text(f"res 1.1 2.1 -> 3\nconstrelim 3.{k} -> 4\n")
    for name, (line, _) in INVALID_TRACES.items():
        (tmp_path / name).write_text(line + "\n")
    code, out, err = run(capsys, *BAD_INPUTS[case])
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    trace = INVALID_TRACES.get(BAD_INPUTS[case][-1])
    if trace is not None:
        assert err == f"error: invalid trace: step 1: {trace[1]}\n"


@pytest.mark.parametrize(
    "argv",
    [["check", MAIN, "w.txt", flag, "1"] for flag in ("--fo-k", "--lres-budget")]
    + [["check", MAIN, "w.txt", "--witness-mode", "auto"], ["check", MAIN, "w.txt", "--verify"]]
    + [["replay", MAIN, TRACE, flag, "1"] for flag in ("--max-steps", "--timeout")],
    ids=lambda argv: f"{argv[0]}{argv[3]}",
)
def test_options_a_command_does_not_read_are_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: unrecognized arguments: --")


def test_term_at_the_nesting_limit_solves_and_verifies(capsys, tmp_path):
    # the atom's argument list is one level, so X(f^(n-1)(a)) is n deep
    f = tmp_path / "deep.wscan"
    f.write_text(f"exists X/1.\nX({_deep_term(MAX_NESTING - 1)})\n~X(?u) | B(?u)\n")
    code, out, _ = run(capsys, "solve", f, "--verify")
    assert code == 0
    assert "verification: PASS" in out
    f.write_text(f"exists X/1.\nX({_deep_term(MAX_NESTING)})\n~X(?u) | B(?u)\n")
    code, _, err = run(capsys, "solve", f, "--verify")
    assert code == 3
    assert err == f"error: line 2, col {2 * MAX_NESTING + 3}: nested more than {MAX_NESTING} deep\n"


def test_json_encoder_shape_of_every_node_kind():
    from wscan.cli import to_json
    from wscan.logic import (
        App, Clause, FAll, FAnd, FAtom, FEx, FFalse, FGfp, FIff, FImp, FNot, FOr,
        FTrue, Lit, PredExpr, Var,
    )

    x, a = Var("x"), App("a", ())
    fx = App("f", (x,))
    atom = FAtom("B", (a,))
    j_x = {"type": "var", "name": "x"}
    j_a = {"type": "app", "fn": "a", "args": []}
    j_fx = {"type": "app", "fn": "f", "args": [j_x]}
    j_atom = {"type": "atom", "head": "B", "args": [j_a], "pvar": False}
    j_true, j_false = {"type": "true"}, {"type": "false"}
    assert to_json(x) == j_x
    assert to_json(fx) == j_fx
    assert to_json(Lit(False, "X", (fx,), True)) == {
        "type": "lit", "pos": False, "head": "X", "args": [j_fx], "pvar": True
    }
    assert to_json(Clause((Lit(True, "B", (a,)),))) == {
        "type": "clause",
        "lits": [{"type": "lit", "pos": True, "head": "B", "args": [j_a], "pvar": False}],
    }
    assert to_json(FTrue()) == j_true
    assert to_json(FFalse()) == j_false
    assert to_json(atom) == j_atom
    assert to_json(FNot(atom)) == {"type": "not", "sub": j_atom}
    assert to_json(FAnd((atom, FTrue()))) == {"type": "and", "subs": [j_atom, j_true]}
    assert to_json(FOr((FFalse(), atom))) == {"type": "or", "subs": [j_false, j_atom]}
    assert to_json(FImp(atom, FFalse())) == {"type": "imp", "lhs": j_atom, "rhs": j_false}
    assert to_json(FIff(FTrue(), atom)) == {"type": "iff", "lhs": j_true, "rhs": j_atom}
    assert to_json(FAll("x", atom)) == {"type": "all", "var": "x", "sub": j_atom}
    assert to_json(FEx("x", atom)) == {"type": "ex", "var": "x", "sub": j_atom}
    gfp = FGfp("Y", ("p", "q"), FAtom("Y", (Var("q"), Var("p")), True), (fx, a))
    j_gfp = {
        "type": "gfp",
        "pvar": "Y",
        "params": ["p", "q"],
        "body": {
            "type": "atom",
            "head": "Y",
            "args": [{"type": "var", "name": "q"}, {"type": "var", "name": "p"}],
            "pvar": True,
        },
        "args": [j_fx, j_a],
    }
    assert to_json(gfp) == j_gfp
    assert to_json(PredExpr(("x",), gfp)) == {"type": "lambda", "params": ["x"], "body": j_gfp}
