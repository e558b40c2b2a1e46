"""Deletion certificates: bounded expressions, resolution saturation, the
certificate depth, and full witness extraction."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from wscan import logic
from wscan.logic import FNot, PointedClause, PredExpr, pred_expr_str, simplify_pred_expr
from wscan.saturation import SearchLimits, replay, search
from wscan.verify import _compile, check_witness, eval_formula, model_count, signature_of
from wscan.witness import (
    LresBudgetExceeded,
    b_k,
    extract_witness,
    find_acyclic,
    gfp_pred_expr,
    lres,
)

from conftest import (
    CORPUS_RUNS,
    cl,
    clauses_of,
    corpus_derivation,
    random_clause,
    ref_find_acyclic,
    ref_models,
    same_up_to_consts,
)


def pointed(text, pos=None, header="X/1"):
    c = cl(text, header)
    for i, l in enumerate(c.lits):
        if l.pvar and (pos is None or l.pos == pos):
            return PointedClause(c, i)
    raise AssertionError(text)


CHAIN = "B(?u, ?v) | ~X(?u) | X(?v)"


def expect_cp(got, texts):
    """Compare a clause-predicate against literal text modulo the fresh
    constants it introduced ('k0', 'k1' stand for them positionally)."""
    from wscan.witness import ClausePredicate

    ks = tuple(f"k{i}" for i in range(len(got.consts)))
    want = ClausePredicate(ks, frozenset(cl(t) for t in texts))
    return same_up_to_consts(got, want)


def test_lres_singleton_positive():
    got = lres(pointed("X(a)"))
    assert expect_cp(got, ["a != k0", "~X(k0)"])


def test_lres_exceeds_budget_on_recursive_clause():
    with pytest.raises(LresBudgetExceeded):
        lres(pointed(CHAIN, pos=False), budget=20)


def test_lres_terminates_on_nonrecursive_clause():
    got = lres(pointed("~X(?u) | B(?u)", pos=False))
    assert expect_cp(got, ["X(k0)", "B(k0)"])


def test_b_k_level_zero_and_one():
    p = pointed(CHAIN, pos=False)
    b0 = b_k(p, 0)
    assert [len(c.lits) for c in b0.clauses] == [0]
    b1 = b_k(p, 1)
    assert expect_cp(b1, ["X(k0)", "B(k0, ?u)"])


def pe_text(e):
    """Render a predicate expression with its parameters renamed p0, p1, ...
    so tests do not depend on the global fresh-name counter."""
    import re

    text = pred_expr_str(e)
    for i, name in sorted(enumerate(e.params), key=lambda kv: -len(kv[1])):
        text = re.sub(rf"\?{name}\b", f"?p{i}", text)
        text = re.sub(rf"(?<![?\w]){name}\b", f"p{i}", text)
    return text


def test_b_k_level_two_display():
    p = pointed(CHAIN, pos=False)
    e1 = simplify_pred_expr(b_k(p, 1).to_pred_expr(negate=False))
    assert pe_text(e1) == "lambda p0. (forall u0. B(?p0,?u0)) /\\ X(?p0)"
    e2 = simplify_pred_expr(b_k(p, 2).to_pred_expr(negate=False))
    assert pe_text(e2) == (
        "lambda p0. X(?p0)"
        " /\\ (forall u0. forall u1. B(?u0,?u1) \\/ B(?p0,?u0))"
        " /\\ (forall u0. B(?p0,?u0) \\/ X(?u0))"
    )


def test_b_k_chain_is_monotone_in_models():
    """Raising k strengthens the expression: B^k implies B^{k+1} everywhere."""
    p = pointed(CHAIN, pos=False)
    exprs = [
        simplify_pred_expr(b_k(p, k).to_pred_expr(negate=False)) for k in range(4)
    ]
    sig = signature_of([p.clause])
    for k in range(3):
        lo, hi = exprs[k], exprs[k + 1]
        for n in (1, 2, 3):
            for m in ref_models(sig, n):
                for elem in range(n):
                    if eval_formula(m, lo.body, venv={lo.params[0]: elem} if lo.params else {}):
                        assert eval_formula(
                            m, hi.body, venv={hi.params[0]: elem} if hi.params else {}
                        )


def test_lres_equals_level_one_when_not_recursive():
    p = pointed("~X(?u) | B(?u) | C(?u, a)", pos=False)
    assert same_up_to_consts(lres(p), b_k(p, 1))


def test_find_acyclic_simple_cover():
    clauses = clauses_of("X(a)\nB(a, ?v)\nB(?u, ?v) | ~X(?u) | X(?v)\n~X(c)")
    p = pointed("X(a)")
    n = frozenset(clauses_of("B(a, ?v)\na != c\n~X(c)"))
    assert find_acyclic(p, n) == 1


def test_find_acyclic_detects_cycles():
    p = pointed("~X(?v) | X(f(?v))", pos=False)
    n = frozenset([p.clause, cl("X(f(f(?v)))")])
    assert find_acyclic(p, n) is None


def _chain_pointed():
    return pointed("X(?v) | ~X(f(?v)) | B(?v)", pos=True)


def _f(j, t):
    return "f(" * j + t + ")" * j


@pytest.mark.parametrize("m", range(6))
def test_find_acyclic_chain_depth(m):
    # ~X(f^j(a)) has the resolvent ~X(f^(j+1)(a)) | B(f^j(a)), covered by the
    # next link of the chain, and the last link by B(f^m(a))
    p = _chain_pointed()
    n = frozenset([cl(f"~X({_f(j, 'a')})") for j in range(m + 1)] + [cl(f"B({_f(m, 'a')})")])
    assert find_acyclic(p, n) == m + 1
    assert ref_find_acyclic(p, n) == m + 1


def random_chain_input(rng):
    """Clauses around the chain of `test_find_acyclic_chain_depth`: a random
    subset of its links, ground B ends, resolvents as extra covers, and
    links over a variable, which cover one another in cycles unless a B
    clause over a variable cuts them."""
    m = rng.randrange(1, 7)
    lines = {f"~X({_f(j, 'a')})" for j in range(m + 1) if rng.random() < 0.85}
    lines |= {f"B({_f(j, 'a')})" for j in range(m + 1) if rng.random() < 0.25}
    lines |= {
        f"~X({_f(j + 1, 'a')}) | B({_f(j, 'a')})" for j in range(m + 1) if rng.random() < 0.15
    }
    lines |= {f"~X({_f(i, '?x')})" for i in (1, 2, 3) if rng.random() < 0.15}
    lines |= {f"B({_f(i, '?x')})" for i in (1, 2) if rng.random() < 0.1}
    return frozenset(cl(line) for line in lines)


def test_find_acyclic_agrees_with_the_backtracking_reference():
    from wscan.calculus import is_purified, resolvent_covers

    rng = random.Random(14)
    p = _chain_pointed()
    deep = cyclic = 0
    for _ in range(200):
        n = random_chain_input(rng)
        if not is_purified(p, n):
            continue
        # the reference walks the product of the rows of covers, which grows
        # exponentially with the rows; a larger product only slows the test
        if math.prod(len(list(covers)) for _, _, covers in resolvent_covers(p, n)) > 1000:
            continue
        k = find_acyclic(p, n)
        assert k == ref_find_acyclic(p, n), sorted(map(str, n))
        deep += k is not None and k >= 2
        cyclic += k is None
    assert deep >= 20 and cyclic >= 20, (deep, cyclic)


def test_gfp_expression_shape():
    p = pointed("~X(?v) | X(f(?v))", pos=False)
    e = gfp_pred_expr(p)
    text = pred_expr_str(e)
    assert "gfp" in text and "f(" in text


def test_extract_witness_requires_eliminating_derivation():
    clauses = clauses_of("X(a)\n~X(c)")
    d = replay(clauses, {"X": 1}, "res 1.1 2.1 -> 3")
    with pytest.raises(ValueError):
        extract_witness(d)


def run_main():
    clauses = clauses_of("B(a, ?v)\nX(a)\nB(?u, ?v) | ~X(?u) | X(?v)\n~X(c)")
    return clauses, replay(
        clauses, {"X": 1}, "res 2.1 4.1 -> 5\npurdel 2.1\nextpurdel X -"
    )


def test_extract_witness_first_order_main():
    clauses, d = run_main()
    w = extract_witness(d)
    assert not w.has_gfp()
    assert pred_expr_str(w.psub["X"]).endswith(". (a = ?u2)") or "a = " in pred_expr_str(w.psub["X"])
    rep = check_witness(clauses, {"X": 1}, d.conclusion(), w, timeout=20.0)
    assert rep.passed


def test_extract_witness_mode_notes():
    _, d = run_main()
    w = extract_witness(d)
    kinds = [note for _, note in w.modes]
    assert any(n.startswith("first-order") for n in kinds)
    assert kinds[-1] == "ext -"


def test_extract_witness_fixpoint_mode_forced():
    clauses, d = run_main()
    w = extract_witness(d, mode="fixpoint")
    # the deletion is not recursive, so the fixpoint collapses to its body
    # during simplification; the construction is recorded all the same
    assert any(note == "fixpoint" for _, note in w.modes)
    rep = check_witness(clauses, {"X": 1}, d.conclusion(), w, timeout=20.0)
    assert rep.passed


def test_extract_witness_resolution_mode():
    clauses, d = run_main()
    w = extract_witness(d, mode="resolution")
    rep = check_witness(clauses, {"X": 1}, d.conclusion(), w, timeout=20.0)
    assert rep.passed


def test_cyclic_derivation_needs_fixpoint():
    from wscan.witness import FirstOrderUnavailable

    clauses = clauses_of("~X(?v) | X(f(?v))\nX(f(f(?v)))")
    d = replay(clauses, {"X": 1}, "purdel 1.1\npurdel 2.1\nextpurdel X -")
    with pytest.raises(FirstOrderUnavailable):
        extract_witness(d, mode="first-order")
    w = extract_witness(d)  # auto falls back to the fixpoint construction
    assert w.has_gfp()
    rep = check_witness(clauses, {"X": 1}, d.conclusion(), w, timeout=20.0)
    assert rep.passed
    assert any("finite models only" in n for n in rep.notes)


def test_k_override_changes_the_certificate_depth():
    # delete the transition clause first so the certificate depth matters;
    # on the unit deletion alone every depth collapses to the same formula
    clauses = clauses_of("B(a, ?v)\nX(a)\nB(?u, ?v) | ~X(?u) | X(?v)\n~X(c)")
    d = replay(
        clauses, {"X": 1}, "purdel 3.2\nres 2.1 4.1 -> 5\npurdel 2.1\nextpurdel X -"
    )
    w1 = extract_witness(d, mode="first-order", k_override=1)
    w2 = extract_witness(d, mode="first-order", k_override=2)
    assert pred_expr_str(w1.psub["X"]) != pred_expr_str(w2.psub["X"])
    for w in (w1, w2):
        rep = check_witness(clauses, {"X": 1}, d.conclusion(), w, timeout=20.0)
        assert rep.passed


def make_one_sided(rng):
    """A purified pair (P, N) whose partner clauses carry no further
    X-literals: every resolvent is X-free, added to N as its own cover."""
    from wscan.calculus import constraint_resolve, resolution_partners
    from wscan.calculus import variable_eliminate
    from conftest import random_lit
    from wscan.logic import Clause, Lit, Var, App

    pos = rng.random() < 0.5
    args = (rng.choice([Var("u"), App(rng.choice(("a", "b")), ())]),)
    rest = [random_lit(rng, with_x=False) for _ in range(rng.randrange(0, 2))]
    clause = Clause.make(rest + [Lit(pos, "X", args, True)])
    p = PointedClause(clause, next(i for i, l in enumerate(clause.lits) if l.head == "X"))

    n = set()
    for _ in range(rng.randrange(1, 4)):
        pargs = (rng.choice([Var("v"), App(rng.choice(("a", "c")), ())]),)
        prest = [random_lit(rng, with_x=False) for _ in range(rng.randrange(0, 2))]
        n.add(Clause.make(prest + [Lit(not pos, "X", pargs, True)]))
    n.add(Clause.make([random_lit(rng, with_x=False)]))
    for q in list(n):
        for partner in resolution_partners(p, q):
            r = constraint_resolve(p, partner)
            n.add(variable_eliminate(r)[0])
    return p, frozenset(n)


def test_one_sided_pairs_are_acyclic_and_level_one():
    from wscan.calculus import is_purified
    from wscan.witness import lres as _lres

    rng = random.Random(99)
    done = 0
    while done < 60:
        p, n = make_one_sided(rng)
        if not is_purified(p, n):
            continue
        assert isinstance(find_acyclic(p, n), int)
        assert same_up_to_consts(b_k(p, 1), _lres(p))
        done += 1


# -- the gfp predicate against the bounded certificate -------------------------


def gfp_certificate_breaks(d):
    """Compare, at each purdel step where `find_acyclic` gives a depth k, the
    gfp predicate with b_k, both as `_purdel_pred` builds them, on every model
    of size 1 and 2 (size 2 only up to 4,096 interpretations, to bound the
    time).  Returns the (step, model, arguments) triples that break:

    * b_k is the k-th iterate of make_alpha's operator upward from the empty
      relation, so it implies the least and hence the greatest fixpoint; a
      positive designated literal negates both and turns the implication round;
    * when the clause has no recursion slot the operator is constant, so for
      k >= 1 the two are equal.

    They need not be equal in general: the depth k is justified by the clauses
    alive after the step, and on models that falsify those the unfolding of a
    recursive clause goes deeper (p01_d2, step 1: no B edges, X everywhere)."""
    bad = []
    for i, step in enumerate(d.steps):
        if step.rule != "purdel":
            continue
        p = PointedClause(d.clauses[step.args[0]], step.args[1])
        k = find_acyclic(p, d.alive_clauses(i + 1))
        if k is None:
            continue
        neg = p.designated.pos
        g = gfp_pred_expr(p)
        if neg:
            g = PredExpr(g.params, FNot(g.body))
        b = b_k(p, k).to_pred_expr(negate=neg)
        flat = k >= 1 and not any(l.same_kind(p.designated.dual()) for l in p.rest)
        sig = signature_of(formulas=[g.body, b.body])
        g_holds, b_holds = _compile(g.body, g.params), _compile(b.body, b.params)
        for n in (1, 2):
            if model_count(sig, n) > 4096:
                break
            for m in ref_models(sig, n):
                for t in itertools.product(range(n), repeat=len(g.params)):
                    gv, bv = g_holds(m, *t), b_holds(m, *t)
                    lo, hi = (gv, bv) if neg else (bv, gv)
                    if (lo and not hi) or (flat and gv != bv):
                        bad.append((i + 1, m.describe(), t))
    return bad


@pytest.mark.parametrize("problem,trace", CORPUS_RUNS, ids=lambda x: x or "search")
def test_gfp_predicate_and_certificate_on_corpus_derivations(problem, trace, monkeypatch):
    # fresh names share one counter; restarting it gives the fresh names
    # their lowest numbers, which are the ones canonical clause variables
    # (u0, u1, ...) also take, whichever tests ran before
    monkeypatch.setattr(logic, "_counter", itertools.count())
    _, d = corpus_derivation(problem, trace)
    assert gfp_certificate_breaks(d) == []


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gfp_predicate_and_certificate_on_random_derivations(n):
    rng = random.Random(n)
    clauses = [random_clause(rng) for _ in range(rng.randrange(1, 5))]
    d = next(iter(search(clauses, {"X": 1}, SearchLimits(max_steps=20))), None)
    if d is not None:
        assert gfp_certificate_breaks(d) == []
