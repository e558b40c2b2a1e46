"""Problem text format, graph encoding, and the single-occurrence witness
oracle of conftest."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from wscan.logic import App, Clause, Lit, pred_expr_str
from wscan.problems import (
    MAX_NESTING,
    GraphSpec,
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
from wscan.verify import FiniteModel, check_witness, soqe_holds
from wscan.witness import extract_witness

from conftest import CORPUS, CORPUS_RUNS, ackermann_witness, corpus_derivation, random_clause


def test_parse_round_trip_is_identity():
    for f in sorted(CORPUS.glob("*.wscan")):
        text = print_problem(parse_problem(f.read_text(), origin=f.name))
        again = print_problem(parse_problem(text, origin=f.name))
        assert text == again


def test_parse_collects_declarations():
    p = parse_problem("exists X/1, Y/2.\nX(a) | Y(a, b)\n", origin="t")
    assert p.xvars == {"X": 1, "Y": 2}
    assert [str(c) for c in p.clauses] == ["X(a) | Y(a,b)"]


def test_parse_rejects_arity_conflict():
    with pytest.raises(ParseError) as e:
        parse_problem("exists X/1.\nB(?u)\nB(?u, ?v)\n", origin="t")
    assert "line 3" in str(e.value)


def test_parse_rejects_undeclared_position_mixing():
    with pytest.raises(ParseError):
        parse_problem("exists X/1.\nB(X(a))\n", origin="t")


def test_parse_error_locations():
    with pytest.raises(ParseError) as e:
        parse_problem("exists X/1.\nB(a) |\n", origin="t")
    msg = str(e.value)
    assert "line 2" in msg


# each error a parse can report, at its line and column
PARSE_ERRORS = {
    "expected-token": (parse_problem, "exists X/1.\nX(a\n",
                       "line 2, col 4: expected ')', found 'end of input'"),
    "function-as-predicate": (parse_problem, "B(f(a))\nf(b)\n",
                              "line 2, col 1: f used both as function and predicate"),
    "predicate-as-function": (parse_problem, "f(a)\nB(f(b))\n",
                              "line 2, col 3: f used both as predicate and function"),
    "function-arity": (parse_problem, "B(f(a))\nB(f(a, b))\n",
                       "line 2, col 3: arity conflict for f: 1 vs 2"),
    "predicate-arity": (parse_problem, "f(a)\nf(a, b)\n",
                        "line 2, col 1: arity conflict for f: 1 vs 2"),
    "term-literal": (parse_problem, "exists X/1.\nX(a) | ?x\n",
                     "line 2, col 10: expected = or != after a term"),
    "after-exists": (parse_problem, "exists X/1. a\nX(a)\n",
                     "line 1, col 13: trailing input after exists directive"),
    "after-clause": (parse_problem, "exists X/1.\nX(a) X(b)\n",
                     "line 2, col 6: trailing input after clause"),
    "after-formula": (parse_formula, "B(a) B(b)", "line 1, col 6: trailing input after formula"),
    "after-binding": (parse_witness, "X := lambda u. B(u) C",
                      "line 1, col 21: trailing input after witness binding"),
    "graph-numbers": (parse_graph, "nodes 2\nedge 1 x\n",
                      "line 2, col 1: expected numbers after 'edge'"),
    "graph-directive": (parse_graph, "nodes 2\nfrob 1\n",
                        "line 2, col 1: unknown graph directive 'frob 1'"),
    # a gfp application takes one argument per parameter, a bare gfp none;
    # the error names the gfp
    "gfp-extra-argument": (parse_witness, "X := lambda u. (gfp Y v. Y(v) \\/ B(v)) @ (u, u)",
                           "line 1, col 17: gfp Y applied to 2 arguments, expected 1"),
    "gfp-missing-argument": (parse_witness, "X := lambda u. (gfp Y v w. Y(v, w)) @ (u)",
                             "line 1, col 17: gfp Y applied to 1 arguments, expected 2"),
    "gfp-bare": (parse_witness, "X := lambda u. gfp Y v. B(v)",
                 "line 1, col 16: gfp Y applied to 0 arguments, expected 1"),
    "gfp-no-arguments": (parse_witness, "X := lambda u. (gfp Y v. B(v)) @ ()",
                         "line 1, col 17: gfp Y applied to 0 arguments, expected 1"),
    "gfp-unapplied": (parse_formula, "(gfp Y v. B(v))",
                      "line 1, col 2: gfp Y applied to 0 arguments, expected 1"),
}


@pytest.mark.parametrize("case", PARSE_ERRORS)
def test_parse_error_names_its_line_and_column(case):
    parse, text, message = PARSE_ERRORS[case]
    with pytest.raises(ParseError) as e:
        parse(text)
    assert str(e.value) == message


def test_parse_theory_marking():
    p = parse_problem("exists X/1.\ntheory B(a)\nX(a)\n", origin="t")
    assert p.theory == frozenset({0})
    merged = merge_theory(p)
    assert merged.theory == frozenset()
    assert set(merged.clauses) == set(p.clauses)


@pytest.mark.parametrize(
    "line,printed",
    [("theory(a)", "theory(a)"), ("theory = a", "a = theory"), ("theory | X(a)", "theory | X(a)")],
)
def test_leading_theory_is_a_clause_unless_a_literal_follows(line, printed):
    p = parse_problem(f"exists X/1.\n{line}\nX(a)\n", origin="t")
    assert p.theory == frozenset()
    assert [str(c) for c in p.clauses] == [printed, "X(a)"]


def test_theory_named_clauses_print_back_with_their_marks():
    p = parse_problem("exists X/1.\ntheory(a)\ntheory theory(b)\nX(a)\n", origin="t")
    assert p.theory == frozenset({1})
    q = parse_problem(print_problem(p))
    assert (q.clauses, q.theory) == (p.clauses, p.theory)


def test_theory_clause_may_not_use_second_order_variables():
    with pytest.raises(ParseError):
        parse_problem("exists X/1.\ntheory X(a)\n", origin="t")


def test_trailing_dot_optional():
    p1 = parse_problem("exists X/1.\nX(a).\n", origin="t")
    p2 = parse_problem("exists X/1.\nX(a)\n", origin="t")
    assert p1.clauses == p2.clauses


def test_tokenizer_errors_report_their_line():
    with pytest.raises(ParseError) as e:
        parse_problem("exists X/1.\n\nX(a)\n# $ in a comment is fine\nB($)\n", origin="t")
    assert str(e.value) == "line 5, col 3: unexpected character '$'"
    with pytest.raises(ParseError) as e:
        parse_witness("X := lambda u. B(u)\nY := lambda u. $\n", xvars={"X": 1, "Y": 1})
    assert str(e.value) == "line 2, col 16: unexpected character '$'"


def test_identifiers_may_begin_with_exists():
    p = parse_problem("existsB(a)\nexists X/1.\nX(a) | exists_y = a\n", origin="t")
    assert p.xvars == {"X": 1}
    a, exists_y = App("a", ()), App("exists_y", ())
    assert p.clauses == (
        Clause.make([Lit(True, "existsB", (a,))]),
        Clause.make([Lit(True, "X", (a,), pvar=True), Lit(True, "=", (exists_y, a))]),
    )


def test_clause_literal_cannot_negate_a_disequation():
    with pytest.raises(ParseError) as e:
        parse_problem("B(a) | ~ a != b\n", origin="t")
    assert str(e.value) == "line 1, col 12: ~ cannot negate a disequation; write ="


@settings(derandomize=True, max_examples=200)
@given(st.integers(0, 2**32 - 1))
def test_printed_problems_parse_back(n):
    rng = random.Random(n)
    clauses = tuple(random_clause(rng) for _ in range(rng.randrange(1, 6)))
    if rng.random() < 0.2:
        clauses += (Clause(),)
    theory = frozenset(
        i for i, c in enumerate(clauses) if not any(l.pvar for l in c.lits) and rng.random() < 0.5
    )
    p = Problem(clauses, {"X": 1}, theory)
    q = parse_problem(print_problem(p))
    assert (q.clauses, q.xvars, q.theory) == (p.clauses, p.xvars, p.theory)


def test_empty_clause_line_and_misplaced_truth_constants():
    assert str(Clause()) == "false"
    p = parse_problem("B(a)\nfalse\ntheory false.\n")
    assert p.clauses == (Clause.make([Lit(True, "B", (App("a"),))]), Clause(), Clause())
    assert p.theory == frozenset({2})
    for text, col in (("false | B(a)", 1), ("B(a) | true", 8), ("~false", 2), ("true", 1)):
        with pytest.raises(ParseError) as e:
            parse_problem(f"B(a)\n{text}\n")
        assert (e.value.line, e.value.col) == (2, col), text


def test_declarations_may_follow_uses():
    text = "X(a)\nexists X/1.\n"
    p = parse_problem(text, origin="t")
    assert p.xvars == {"X": 1}


# -- graphs -------------------------------------------------------------------


def test_parse_graph_and_validation():
    g = parse_graph("nodes 3\nedge 1 2\ninit 1\nfail 3\n")
    assert g.nodes == 3 and g.edges == ((1, 2),)
    with pytest.raises(ParseError):
        parse_graph("nodes 2\nedge 1 5\n")
    with pytest.raises(ParseError):
        parse_graph("edge 1 2\n")


@pytest.mark.parametrize(
    "text, line",
    [("nodes 0\n", 1), ("# none\nnodes -2\n", 2), ("nodes 2\nedge 1 2\nnodes 3\n", 3),
     # a node out of range is reported at the first line that names one,
     # even when `nodes` comes later
     ("nodes 2\nedge 1 5\n", 2), ("init 1\n# c\nfail 4\nnodes 3\n", 3),
     ("edge 1 2\ninit 0\nedge 9 1\nnodes 2\n", 2)],
    ids=["no-nodes", "negative", "second-nodes-line", "edge-out-of-range", "fail-before-nodes",
         "first-of-two-out-of-range"],
)
def test_parse_graph_rejects_degenerate_node_counts_at_their_line(text, line):
    with pytest.raises(ParseError) as e:
        parse_graph(text)
    assert e.value.line == line


def test_encode_single_node_graph():
    p = encode_graph(GraphSpec(1, (), (1,), ()))
    body = print_problem(p)
    assert "~E(a1,a1)" in body
    assert "?u0 = a1" in body
    assert "X(a1)" in body
    assert "~X(?u1) | ~E(?u0,?u1)" in body or "~E(?u0,?u1) | ~X(?u0)" in body


def test_encode_overlapping_init_and_fail_still_encodes():
    p = encode_graph(GraphSpec(2, ((1, 2),), (1,), (1, 2)))
    body = print_problem(p)
    assert "X(a1)" in body and "~X(a1)" in body


def brute_reachable(g):
    reach = set(g.init)
    changed = True
    while changed:
        changed = False
        for (i, j) in g.edges:
            if i in reach and j not in reach:
                reach.add(j)
                changed = True
    return reach


def intended_model(g):
    funcs = {(f"a{i}", 0): {(): i - 1} for i in range(1, g.nodes + 1)}
    rels = {("E", 2): frozenset({(i - 1, j - 1) for (i, j) in g.edges})}
    return FiniteModel(g.nodes, funcs, rels)


@pytest.mark.parametrize("nodes", [1, 2, 3])
def test_graph_encoding_matches_reachability(nodes):
    """The encoded clause set is second-order satisfiable on the intended
    model exactly when no failure node is reachable from the initial ones."""
    import random

    rng = random.Random(nodes * 17)
    for _ in range(12):
        pairs = [(i, j) for i in range(1, nodes + 1) for j in range(1, nodes + 1)]
        edges = tuple(sorted(rng.sample(pairs, rng.randrange(0, len(pairs) + 1))))
        init = tuple(sorted(rng.sample(range(1, nodes + 1), rng.randrange(1, nodes + 1))))
        fail = tuple(sorted(rng.sample(range(1, nodes + 1), rng.randrange(1, nodes + 1))))
        g = GraphSpec(nodes, edges, init, fail)
        prob = merge_theory(encode_graph(g))
        m = intended_model(g)
        expected = not (brute_reachable(g) & set(g.fail))
        assert soqe_holds(m, list(prob.clauses), prob.xvars) == expected


# -- the single-occurrence witness oracle ------------------------------------


def test_ackermann_unary():
    p = merge_theory(parse_problem("exists X/1.\nX(a)\n~X(?u) | B(?u)\n", origin="t"))
    w = ackermann_witness(p, "X")
    assert w is not None
    assert pred_expr_str(w.psub["X"]).startswith("lambda ")
    assert "B(" in pred_expr_str(w.psub["X"])


def test_ackermann_not_applicable_when_recursive():
    p = merge_theory(parse_problem("exists X/1.\n~X(?u) | X(f(?u))\n", origin="t"))
    assert ackermann_witness(p, "X") is None


def test_ackermann_not_applicable_on_main_example():
    p = merge_theory(
        parse_problem(
            "exists X/1.\nB(a, ?v)\nX(a)\nB(?u, ?v) | ~X(?u) | X(?v)\n~X(c)\n",
            origin="t",
        )
    )
    assert ackermann_witness(p, "X") is None


def test_ackermann_witness_verifies():
    from wscan.saturation import SearchLimits, search

    text = "exists X/1.\nX(a)\n~X(?u) | B(?u)\n"
    p = merge_theory(parse_problem(text, origin="t"))
    w = ackermann_witness(p, "X")
    d = next(search(list(p.clauses), p.xvars, SearchLimits()), None)
    assert d is not None
    rep = check_witness(list(p.clauses), p.xvars, d.conclusion(), w, timeout=20.0)
    assert rep.passed


# -- formulas and witness files ----------------------------------------------


def test_parse_formula_precedence_and_quantifiers():
    f = parse_formula("forall u v. B(u) /\\ B(v) -> exists w. C(u, w)")
    from wscan.logic import FAll

    assert isinstance(f, FAll)


def test_parse_formula_gfp_application():
    f = parse_formula("(gfp Y u. Y(f(u))) @ (a)")
    from wscan.logic import FGfp

    assert isinstance(f, FGfp)
    # without parameters, the application may be left out
    for text in ("gfp Y . B(a)", "(gfp Y . B(a))", "(gfp Y . B(a)) @ ()"):
        assert parse_formula(text) == FGfp("Y", (), parse_formula("B(a)"), ()), text


def test_parse_witness_binding():
    w = parse_witness("X := lambda u. u = a\n", xvars={"X": 1})
    assert set(w) == {"X"}
    assert pred_expr_str(w["X"]) == "lambda u. (?u = a)"


def test_parse_witness_rejects_wrong_arity():
    with pytest.raises(ParseError):
        parse_witness("X := lambda u v. B(u, v)\n", xvars={"X": 1})


@pytest.mark.parametrize(
    "text, message",
    [
        ("X := lambda u. (a = ?u)\nX := lambda u. true\n", "line 2, col 1: second binding for X"),
        ("X := lambda u. true\n  Y := lambda u. true\n",
         "line 2, col 3: Y is not a predicate variable of the problem"),
    ],
    ids=["bound-twice", "undeclared"],
)
def test_parse_witness_rejects_a_binding_it_would_drop(text, message):
    with pytest.raises(ParseError) as e:
        parse_witness(text, xvars={"X": 1})
    assert str(e.value) == message


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_formula, "B(?x)", "line 1, col 3: free variable ?x"),
        (parse_formula, "(forall x. B(?x)) /\\ C(?x)", "line 1, col 24: free variable ?x"),
        (parse_formula, "(gfp Y u. Y(?u) /\\ B(?w)) @ (a)", "line 1, col 22: free variable ?w"),
        (parse_witness, "X := lambda y. exists u0. (B(u0, y) /\\ C(?v0))", "line 1, col 42: free variable ?v0"),
    ],
    ids=["goal", "goal-out-of-scope", "gfp-body", "witness-body"],
)
def test_a_free_variable_in_a_goal_or_witness_body_is_an_error(parse, text, message):
    with pytest.raises(ParseError) as e:
        parse(text, {"X": 1})
    assert str(e.value).startswith(message), e.value
    # a variable that a binder, a lambda or a gfp binds may carry the mark
    assert parse_formula("forall x. (gfp Y u. Y(?u) /\\ B(?x)) @ (?x)") is not None
    assert parse_witness("X := lambda y. B(?y)", {"X": 1})


def test_parse_witness_nullary():
    w = parse_witness("X := lambda _. false\n", xvars={"X": 0})
    assert pred_expr_str(w["X"]) == "lambda _. false"


# each builds a goal nested n deep through one construct
NESTED = {
    "term": lambda n: "B(" + "f(" * (n - 1) + "a" + ")" * n,
    "not": lambda n: "~" * n + "B",
    "parens": lambda n: "(" * n + "B" + ")" * n,
    "imp": lambda n: "B -> " * n + "B",
    "iff": lambda n: "B <-> " * n + "B",
    "binders": lambda n: "forall " + " ".join(f"x{i}" for i in range(n)) + ". B",
    "gfp": lambda n: "gfp Y . " * n + "B",
}


@pytest.mark.parametrize("construct", NESTED)
def test_nesting_beyond_the_limit_is_a_parse_error(construct):
    parse_formula(NESTED[construct](MAX_NESTING))
    for n in (MAX_NESTING + 1, 3000):
        with pytest.raises(ParseError, match=f"line 1, col \\d+: nested more than {MAX_NESTING}"):
            parse_formula(NESTED[construct](n))


def test_nesting_limit_applies_to_problem_and_witness_files():
    deep = "f(" * 3000 + "a" + ")" * 3000
    with pytest.raises(ParseError, match="line 3, col 212: nested"):
        parse_problem(f"exists X/1.\nX(a)\n~X(?u) | B({deep})\n")
    with pytest.raises(ParseError, match="line 2, col 117: nested"):
        parse_witness(f"\nX := lambda u. {'~' * 3000}u = a\n", xvars={"X": 1})


# resolution-mode extraction does not finish on two traces
UNFINISHED = {("p01_d2", "resolution"), ("p05_cycle", "resolution")}


@pytest.mark.parametrize("problem,trace", CORPUS_RUNS, ids=lambda x: x or "search")
def test_extracted_witnesses_print_and_parse_back(problem, trace):
    prob, d = corpus_derivation(problem, trace)
    conclusion = "".join(f"{c}\n" for c in d.conclusion())
    assert parse_problem(conclusion).clauses == tuple(d.conclusion()), conclusion
    for mode in ("auto", "fixpoint", "resolution"):
        if (trace, mode) in UNFINISHED:
            continue
        w = extract_witness(d, mode=mode)
        text = "".join(f"{x} := {pred_expr_str(pe)}\n" for x, pe in sorted(w.psub.items()))
        assert parse_witness(text, prob.xvars) == dict(w.psub), (mode, text)
