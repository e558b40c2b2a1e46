"""Clausification, finite-model evaluation, the refutation prover, and the
end-to-end witness checker."""

import dataclasses
import itertools
import json
import math
import pathlib
import random
import time
from collections import Counter

import pytest

import wscan.verify as verify_module
from wscan.logic import (
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
    apply_pred_subst_clause,
    clause_to_formula,
    const,
    lit_to_formula,
    simplify,
    subst_term,
)
from wscan.verify import (
    ClausifyError,
    Disproved,
    FiniteModel,
    Proved,
    Rejected,
    Signature,
    Unknown,
    _Prover,
    blocks,
    check_witness,
    clausify,
    eval_formula,
    find_model,
    fn_cap_ok,
    model_count,
    prove,
    signature_of,
    soqe_holds,
    truth,
)
from wscan.problems import parse_formula
from wscan.saturation import RULES, Derivation, ReplayError, Step, replay_proof, trace_line
from wscan.witness import Witness, extract_witness

from conftest import (
    CORPUS_RUNS,
    cl,
    clauses_of,
    corpus_derivation,
    evaluator,
    full_enumeration,
    models,
    proof_of_lines,
    random_clause,
    random_lit,
    ref_eval_formula,
    ref_function_tables,
    ref_models,
    replays,
)

a, b, c = const("a"), const("b"), const("c")
u, v = Var("u"), Var("v")


def B(*args):
    return FAtom("B", args)


def test_clausify_simple_conjunction():
    out = clausify(FAnd((B(a), FOr((B(b), FNot(B(c)))))))
    assert cl("B(a)") in out
    assert cl("B(b) | ~B(c)") in out


def test_clausify_universals_become_variables():
    out = clausify(FAll("u", FImp(B(Var("u")), FAtom("C", (Var("u"), Var("u"))))))
    assert len(out) == 1
    assert out[0] == cl("~B(?u) | C(?u, ?u)")


def test_clausify_existential_skolemizes_under_universal():
    out = clausify(FAll("u", FEx("v", B(Var("v")))))
    (only,) = out
    (lit,) = only.lits
    (arg,) = lit.args
    assert isinstance(arg, App) and len(arg.args) == 1  # sk(u)


def test_clausify_iff_splits_both_ways():
    out = clausify(FIff(B(a), B(b)))
    assert cl("~B(a) | B(b)") in out and cl("B(a) | ~B(b)") in out


def test_clausify_rejects_fixpoints():
    g = FGfp("Y", ("z",), FAtom("Y", (Var("z"),), True), (a,))
    with pytest.raises(ClausifyError):
        clausify(g)


def test_eval_formula_tarskian():
    m = FiniteModel(2, {("a", 0): {(): 0}}, {("B", 1): frozenset({(1,)})})
    assert not eval_formula(m, B(a))
    assert eval_formula(m, FEx("u", B(Var("u"))))
    assert not eval_formula(m, FAll("u", B(Var("u"))))


def test_eval_gfp_greatest_fixpoint():
    # gfp Y u. Y(f(u)) is total for any interpretation of f (the full relation
    # is always stable), while adding a side condition can empty it out
    g = FGfp("Y", ("z",), FAtom("Y", (App("f", (Var("z"),)),), True), (Var("w"),))
    cyc = FiniteModel(2, {("f", 1): {(0,): 1, (1,): 0}}, {})
    assert eval_formula(m=cyc, f=g, venv={"w": 0})
    chain = FiniteModel(2, {("f", 1): {(0,): 1, (1,): 1}}, {})
    assert eval_formula(m=chain, f=g, venv={"w": 0})
    guarded = FGfp(
        "Y",
        ("z",),
        FAnd((FAtom("B", (Var("z"),)), FAtom("Y", (App("f", (Var("z"),)),), True))),
        (Var("w"),),
    )
    m = FiniteModel(2, {("f", 1): {(0,): 1, (1,): 1}}, {("B", 1): frozenset({(0,)})})
    assert not eval_formula(m=m, f=guarded, venv={"w": 0})


def clause_holds(m, c):
    return evaluator(clause_to_formula(c))(m)


def test_eval_clause_universal_closure():
    m = FiniteModel(2, {}, {("B", 1): frozenset({(0,), (1,)})})
    assert clause_holds(m, cl("B(?u)"))
    m2 = FiniteModel(2, {}, {("B", 1): frozenset({(0,)})})
    assert not clause_holds(m2, cl("B(?u)"))
    assert clause_holds(m2, cl("B(?u) | ~B(?u)"))


def test_model_count_and_enumeration_agree():
    sig = signature_of(clauses_of("B(a) | X(f(?u))"))
    for n in (1, 2):
        expected = model_count(sig, n)
        assert expected == sum(1 for _ in ref_models(sig, n))
        assert expected == sum(weight for _, weight in models(sig, n))


def test_models_are_deterministic():
    sig = signature_of(clauses_of("B(a) | X(?u)"))
    first = [(m.describe(), weight) for m, weight in models(sig, 2)]
    second = [(m.describe(), weight) for m, weight in models(sig, 2)]
    assert first == second


def test_fn_cap_guards_binary_functions():
    assert fn_cap_ok(signature_of(clauses_of("B(f(?u), a)")))
    assert not fn_cap_ok(signature_of(clauses_of("B(f(?u, ?v), g(?u, ?v)) | B(h(?u), ?v)")))


def test_signature_leaves_out_predicate_variables_that_a_gfp_or_bound_names():
    # the free X is unary; the gfp's binary X is bound in its body
    f = parse_formula("X(a) /\\ Y(b) /\\ (gfp X u v. B(u, v) /\\ X(v, u))@(a, b)", {"X": 1, "Y": 1})
    sig = signature_of(formulas=[f])
    assert list(sig.pvars) == [("X", 1), ("Y", 1)]
    assert list(sig.rels) == [("B", 2)] and list(sig.funcs) == [("a", 0), ("b", 0)]
    assert list(signature_of(formulas=[f], bound=["Y"]).pvars) == [("X", 1)]
    assert not signature_of(formulas=[f], bound=["X", "Y"]).pvars


def brute_soqe(m, clauses, xars):
    """Try every interpretation of the second-order variables outright."""
    holds = evaluator(FAnd(tuple(clause_to_formula(c) for c in clauses)))
    names = sorted(xars)
    spaces = []
    for x in names:
        tuples = list(itertools.product(range(m.size), repeat=xars[x]))
        spaces.append([frozenset(s) for r in range(len(tuples) + 1)
                       for s in itertools.combinations(tuples, r)])
    for combo in itertools.product(*spaces):
        rels = dict(m.rels)
        for x, rel in zip(names, combo):
            rels[(x, xars[x])] = rel
        m2 = FiniteModel(m.size, m.funcs, rels)
        if holds(m2):
            return True
    return False


def test_soqe_holds_matches_brute_force():
    clauses = clauses_of("X(a)\n~X(?u) | B(?u)")
    sig = signature_of(clauses)
    sig.pvars.clear()
    for n in (1, 2):
        for m in ref_models(sig, n):
            assert soqe_holds(m, clauses, {"X": 1}) == brute_soqe(m, clauses, {"X": 1})


def test_soqe_holds_random_agreement():
    rng = random.Random(5)
    from conftest import random_clause

    agree = 0
    while agree < 40:
        clauses = [random_clause(rng, max_lits=2) for _ in range(2)]
        sig = signature_of(clauses)
        sig.pvars.clear()
        if not fn_cap_ok(sig):
            continue
        for m in ref_models(sig, 2):
            assert soqe_holds(m, clauses, {"X": 1}) == brute_soqe(m, clauses, {"X": 1})
            agree += 1


def random_soqe_clause(rng, xars):
    """One to three literals: mostly predicate-variable literals of xars, else
    B/1 or a negated equation, over u, v, a, b and f(u)."""
    terms = (u, v, a, b, App("f", (u,)))
    lits = []
    for _ in range(rng.randrange(1, 4)):
        roll, pos = rng.random(), rng.random() < 0.5
        if roll < 0.6:
            x = rng.choice(sorted(xars))
            lits.append(Lit(pos, x, tuple(rng.choice(terms) for _ in range(xars[x])), True))
        elif roll < 0.85:
            lits.append(Lit(pos, "B", (rng.choice(terms),)))
        else:
            lits.append(Lit(False, "=", (rng.choice(terms), rng.choice(terms))))
    return Clause.make(lits)


def test_block_solvability_matches_brute_force():
    """Bit idx of `_Soqe.models(b, among)` is set iff idx is in among and
    some relations for the predicate variables satisfy the clauses in the
    idx-th model, for one or two predicate variables of arity 1 and 2, in
    every block up to the size where brute force takes too long."""
    rng = random.Random(2525)
    outcomes = Counter()
    for _ in range(60):
        arities = [("X", rng.choice((1, 2))), ("Y", rng.choice((1, 2)))]
        xars = dict(rng.sample(arities, rng.choice((1, 2))))
        clauses = [random_soqe_clause(rng, xars) for _ in range(rng.randrange(2, 6))]
        sig = signature_of(clauses)
        for n in (1, 2, 3):
            # sig counts the predicate variables as relations, as brute force does
            if model_count(sig, n) > 4096:
                continue
            bare = Signature(sig.funcs, sig.rels, {})
            for blk in blocks(bare, n):
                among = rng.getrandbits(blk.count)
                got = verify_module._Soqe(clauses, xars).models(blk, among)
                for idx in range(blk.count):
                    want = bool(among >> idx & 1) and brute_soqe(blk.model(idx), clauses, xars)
                    assert bool(got >> idx & 1) == want, (clauses, xars, blk.model(idx).describe())
                    outcomes[want, among >> idx & 1] += 1
    assert min(outcomes.values()) >= 200 and len(outcomes) == 3, outcomes


# -- prover -------------------------------------------------------------------


def test_prover_refutes_propositional_pair():
    r = prove(clauses_of("B(a)\n~B(a)"))
    assert isinstance(r, Proved)
    assert replays(r.proof)


def test_prover_refutes_with_unification_gap():
    r = prove(clauses_of("B(a)\n~B(?u)"))
    assert isinstance(r, Proved)
    assert replays(r.proof)


def test_prover_refutes_through_equality():
    r = prove(clauses_of("a = b\nB(a)\n~B(b)"))
    assert isinstance(r, Proved)
    assert replays(r.proof)


def test_prover_factors_before_resolving():
    # without factoring, resolving these two just reproduces two-literal
    # clauses forever
    r = prove(clauses_of("B(?u) | B(?v)\n~B(?u) | ~B(?v)"))
    assert isinstance(r, Proved)
    assert replays(r.proof)


def test_prover_proves_goal_from_premises():
    r = prove(clauses_of("B(a)\n~B(?u) | C(?u, ?u)"), goal=FAtom("C", (a, a)))
    assert isinstance(r, Proved)


def test_prover_disproves_with_countermodel():
    r = prove([], goal=FAtom("=", (a, c)))
    assert isinstance(r, Disproved)
    assert r.model.size >= 2


def test_prover_unknown_on_hard_satisfiable_set():
    # satisfiable with only infinite-ish structure under the step budget;
    # at the very least this must not claim a proof
    r = prove(clauses_of("B(?u, f(?u))\n~B(?u, ?u)"), timeout=1.5)
    assert not isinstance(r, Proved)


def test_prover_eliminates_the_constraint_of_a_resolvent():
    # resolving B(f(?u)) with ~B(f(a)) leaves only the constraint f(?u) != f(a)
    r = prove(clauses_of("B(f(?u))"), goal=B(App("f", (a,))))
    assert isinstance(r, Proved)
    assert len(r.proof.inputs) == 2
    assert r.proof.trace_lines() == ["res 2.1 1.1 -> 3", "constrelim 3 -> 4"]
    assert replays(r.proof)


def test_prover_unknown_without_refutation_or_finite_model():
    # an irreflexive transitive relation in which every element has a
    # successor has only infinite models, and C(a) does not follow from it
    premises = clauses_of("B(?u, f(?u))\n~B(?u, ?u)\nB(?u, ?w) | ~B(?u, ?v) | ~B(?v, ?w)")
    t0 = time.monotonic()
    r = prove(premises, goal=FAtom("C", (a,)), timeout=1.0)
    assert isinstance(r, Unknown)
    # the model search stops at the prover's deadline
    assert time.monotonic() - t0 < 2.0


def test_prove_gives_the_model_search_no_time_past_its_deadline(monkeypatch):
    # a prover that ends without a refutation leaves the countermodel search
    # the rest of the budget, and none when it used the budget up
    deadlines = []
    monkeypatch.setattr(_Prover, "run", lambda self: None)
    monkeypatch.setattr(verify_module, "find_model", lambda clauses, deadline: deadlines.append(deadline))
    r = prove(clauses_of("B(a)"), goal=FAtom("C", (a,)), timeout=0.5)
    # prove started before now, so its own deadline is before now + 0.5
    assert isinstance(r, Unknown)
    assert len(deadlines) == 1 and deadlines[0] < time.monotonic() + 0.5


def test_proof_steps_replay_and_respect_lineage():
    r = prove(clauses_of("B(a)\n~B(?u) | C(?u, ?u)\n~C(a, a)"))
    assert isinstance(r, Proved)
    for s in r.proof.steps:
        assert all(s.args[k] < s.new_id for k in RULES[s.rule].premises)
    assert r.proof.steps[-1].added == Clause.make([])


def test_find_model_smallest_first():
    m = find_model(clauses_of("B(a)"))
    assert m is not None and m.size == 1
    assert find_model(clauses_of("B(a)\n~B(a)")) is None
    m2 = find_model(clauses_of("a != b"))
    assert m2 is not None and m2.size == 2


# -- witness checking ---------------------------------------------------------


MAIN = "B(a, ?v)\nX(a)\nB(?u, ?v) | ~X(?u) | X(?v)\n~X(c)"


def main_pieces():
    from wscan.saturation import replay

    clauses = clauses_of(MAIN)
    d = replay(clauses, {"X": 1}, "res 2.1 4.1 -> 5\npurdel 2.1\nextpurdel X -")
    return clauses, d


def test_check_witness_accepts_the_right_witness():
    clauses, d = main_pieces()
    w = Witness({"X": PredExpr(("z",), FAtom("=", (a, Var("z"))))}, ())
    rep = check_witness(clauses, {"X": 1}, d.conclusion(), w, timeout=20.0)
    assert rep.passed
    assert rep.models_checked > 0
    assert all(v == "proved" for _, v in rep.prover)


def test_check_witness_rejects_a_wrong_witness():
    clauses, d = main_pieces()
    w = Witness({"X": PredExpr(("z",), FAtom("=", (c, Var("z"))))}, ())
    rep = check_witness(clauses, {"X": 1}, d.conclusion(), w, timeout=20.0)
    assert not rep.passed
    assert rep.failures


def test_check_witness_rejects_constant_false():
    clauses, d = main_pieces()
    w = Witness({"X": PredExpr(("z",), FNot(FAtom("=", (Var("z"), Var("z")))))}, ())
    rep = check_witness(clauses, {"X": 1}, d.conclusion(), w, timeout=20.0)
    assert not rep.passed


def test_check_witness_caps_reported_disagreements():
    clauses, d = main_pieces()
    w = Witness({"X": PredExpr(("z",), FNot(FAtom("=", (Var("z"), Var("z")))))}, ())
    rep = check_witness(clauses, {"X": 1}, d.conclusion(), w, timeout=20.0)
    assert sum(1 for s in rep.failures if s.startswith("model disagreement")) <= 5


def test_check_report_counts_completed_routes():
    clauses, d = main_pieces()
    w = Witness({"X": PredExpr(("z",), FAtom("=", (a, Var("z"))))}, ())
    rep = check_witness(clauses, {"X": 1}, d.conclusion(), w, timeout=20.0)
    assert rep.completed() >= 1


# -- model-check notes --------------------------------------------------------


def notes_for(text, timeout=20.0):
    """check_witness's notes for X := true on the clauses of `text`."""
    w = Witness({"X": PredExpr(("z",), FTrue())}, ())
    return check_witness(clauses_of(text), {"X": 1}, [], w, timeout=timeout).notes


def test_model_check_notes_the_function_enumeration_cap():
    notes = notes_for("X(f(?u, ?v)) | ~X(g(?u, ?v))\nX(h(?u, ?v))")
    assert notes == ("size-3 models skipped (function enumeration cap)",)


def test_model_check_notes_too_many_interpretations():
    notes = notes_for("B(?u, ?v, ?w, ?x, ?y) | X(?u)")
    assert "size-2 models skipped (too many interpretations)" in notes


def test_model_check_notes_a_timeout_before_the_first_size():
    assert notes_for("X(a)", timeout=0.0) == ("model check stopped before size 1 (timeout)",)


# -- proof replay rejects tampered proofs --------------------------------------


@pytest.mark.parametrize(
    "changes",
    [{"added": cl("B(a)")}, {"args": (1, 0, "rl", 2, (0, 0))}, {"rule": "superpose"}],
    ids=["swapped-clause", "changed-data", "unknown-rule"],
)
def test_replay_refutation_rejects_a_tampered_step(changes):
    r = prove(clauses_of("a = b\nB(a)\n~B(b)"))
    assert isinstance(r, Proved) and replays(r.proof)
    # the paramodulation step rewrites B(a) to B(b) with a = b, left to right
    step = next(s for s in r.proof.steps if s.rule == "parmod")
    assert trace_line(step) == "parmod 1.1:lr 2@1.1 -> 4" and step.added == cl("B(b)")
    tampered = [dataclasses.replace(s, **changes) if s is step else s for s in r.proof.steps]
    with pytest.raises(ReplayError):
        replay_proof(dataclasses.replace(r.proof, steps=tuple(tampered)))


@pytest.mark.parametrize(
    "proof",
    [
        Derivation((), (Step("varelim", (1,), (), 1, Clause()),)),
        Derivation((cl("B(a)"),), ()),
    ],
    ids=["own-premise", "no-empty-clause"],
)
def test_replay_refutation_rejects_a_proof_that_proves_nothing(proof):
    with pytest.raises(ReplayError):
        replay_proof(proof)


# -- the corpus traces' refutations replay through the rule table ---------------


def test_every_refutation_of_the_corpus_traces_replays_through_the_rule_table():
    """Each goal of each trace's auto witness is proved, and its trace lines
    alone, without the clauses the prover recorded, replay to the empty
    clause.  p05_cycle's witness is a gfp, which the prover skips."""
    goals = 0
    for problem, trace in [("p01_main", "p01_d1"), ("p01_main", "p01_d2"),
                           ("p05_cycle", "p05_cycle"), ("p06_graph3", "p06_graph3")]:
        prob, d = corpus_derivation(problem, trace)
        w = extract_witness(d)
        if w.has_gfp():
            continue
        for c in prob.clauses:
            r = prove(d.conclusion(), simplify(apply_pred_subst_clause(c, w.psub)))
            assert isinstance(r, Proved), (trace, str(c))
            assert replays(proof_of_lines(r.proof.inputs, r.proof.trace_lines()))
            goals += 1
    assert goals == 24


# -- the prover tries each inference site once ---------------------------------


def test_prover_tries_each_site_once():
    prover = _Prover(clauses_of("f(a) = a\nB(f(f(a))) | C(a, a)\n~B(a)\n~C(?u, ?u)"),
                     time.monotonic() + 5.0)
    assert prover.run() is not None
    recs = list(prover.recs.values())
    res = {(args[0], args[2]) for rule, args, _ in recs if rule == "res"}
    assert res and not any((j, i) in res for i, j in res if i != j)
    self_parmods = [args for rule, args, _ in recs if rule == "parmod" and args[0] == args[3]]
    assert self_parmods and len(self_parmods) == len(set(self_parmods))


# -- the evaluator on single models against the reference walker ---------------


def random_formula(rng, depth, vs, ps, pos_only=()):
    """A random formula over B/1, C/2, a, b, f/1 and equality, with the
    variables vs and the predicate variables ps (all of arity 1) in scope.
    The predicate variables in pos_only are bound by an enclosing gfp and
    occur only positively, so every gfp body is monotone."""

    def term(d):
        roll = rng.random()
        if d > 0 and roll < 0.25:
            return App("f", (term(d - 1),))
        if vs and roll < 0.7:
            return Var(rng.choice(vs))
        return const(rng.choice("ab"))

    def atom():
        usable = [p for p in ps if p not in pos_only] + list(pos_only)
        roll = rng.random()
        if usable and roll < 0.3:
            return FAtom(rng.choice(usable), (term(1),), True)
        if roll < 0.5:
            return FAtom("=", (term(1), term(1)))
        if roll < 0.75:
            return FAtom("C", (term(1), term(1)))
        return B(term(1))

    if depth == 0:
        return atom()
    neg = [p for p in ps if p not in pos_only]  # allowed under negation
    kind = rng.choice(["atom", "not", "and", "or", "imp", "iff", "all", "ex", "gfp"])
    if kind == "atom":
        return atom()
    if kind == "not":
        return FNot(random_formula(rng, depth - 1, vs, neg))
    if kind in ("and", "or"):
        subs = tuple(random_formula(rng, depth - 1, vs, ps, pos_only) for _ in range(rng.randint(0, 3)))
        return (FAnd if kind == "and" else FOr)(subs)
    if kind == "imp":
        return FImp(random_formula(rng, depth - 1, vs, neg), random_formula(rng, depth - 1, vs, ps, pos_only))
    if kind == "iff":
        return FIff(random_formula(rng, depth - 1, vs, neg), random_formula(rng, depth - 1, vs, neg))
    var = rng.choice("uvw")
    if kind in ("all", "ex"):
        sub = random_formula(rng, depth - 1, vs + [var], ps, pos_only)
        return (FAll if kind == "all" else FEx)(var, sub)
    # a gfp whose body may also read the variables and predicate variables in
    # scope, applied to a random term
    y = f"Y{depth}"
    body = random_formula(rng, depth - 1, vs + [var], ps + [y], tuple(pos_only) + (y,))
    term_arg = Var(rng.choice(vs)) if vs else const("a")
    return FGfp(y, (var,), body, (term_arg,))


def test_compiled_evaluator_agrees_with_the_reference_walker():
    from conftest import ref_eval_formula

    rng = random.Random(1010)
    formulas = compared = 0
    while formulas < 150:
        f = random_formula(rng, 3, ["w"], ["P"])
        sig = signature_of(formulas=[f])
        sig.pvars.clear()
        if model_count(sig, 2) > 256:
            continue
        formulas += 1
        for n in (1, 2):
            subsets = [frozenset(s) for r in range(n + 1)
                       for s in itertools.combinations([(e,) for e in range(n)], r)]
            for m in ref_models(sig, n):
                for w in range(n):
                    for p in subsets:
                        venv, penv = {"w": w}, {"P": p}
                        assert eval_formula(m, f, venv, penv) == ref_eval_formula(m, f, venv, penv), (
                            f, m.describe(), venv, penv)
                        compared += 1
    assert compared > 10_000


def test_block_evaluator_agrees_with_the_reference_in_every_model_of_a_block(monkeypatch):
    """Bit idx of a block's truth value is the formula's value in the
    block's idx-th model: with every function table enumerated, the blocks'
    models in turn are `ref_models`'s models in order."""
    full_enumeration(monkeypatch)
    rng = random.Random(2424)
    formulas = compared = 0
    while formulas < 120:
        f = random_formula(rng, 3, ["w"], ["P"])
        sig = signature_of(formulas=[f])
        sig.pvars.clear()
        if model_count(sig, 2) > 256:
            continue
        formulas += 1
        for n in (1, 2):
            subsets = [frozenset(s) for r in range(n + 1)
                       for s in itertools.combinations([(e,) for e in range(n)], r)]
            for w, p in itertools.product(range(n), subsets):
                venv, penv = {"w": w}, {"P": p}
                reference = ref_models(sig, n)
                for blk in blocks(sig, n):
                    got = truth(blk, f, venv, penv)
                    assert 0 <= got < 1 << blk.count
                    for idx in range(blk.count):
                        m = next(reference)
                        assert bool(got >> idx & 1) == ref_eval_formula(m, f, venv, penv), (
                            f, m.describe(), venv, penv)
                        compared += 1
                assert next(reference, None) is None
    assert compared > 10_000


# -- the model route stops at the first size out of its reach ----------------


@pytest.mark.parametrize(
    "text, header, checked, note",
    [
        # X/3 has 27 tuples at size 3, so the route stops before size 3
        ("B(a)\nX(a, a, ?u) | ~X(?u, a, a)", "X/3", 10,
         "soqe enumeration skipped: X/3 over domain size 3"),
        # the 7-variable clause has too many instances at size 3, so the route
        # stops before the first size-3 model
        ("B(a)\nX(?u) | B(?v) | B(?w) | B(?x) | B(?y) | B(?z) | ~B(?s)", "X/1", 10,
         "soqe enumeration skipped: too many ground instances of "
         "~B(?u0) | B(?u1) | B(?u2) | B(?u3) | B(?u4) | B(?u5) | X(?u6)"),
    ],
    ids=["pvar-arity-3", "clause-with-7-variables"],
)
def test_model_check_stops_where_the_enumeration_is_too_large(text, header, checked, note):
    k = int(header[-1])
    w = Witness({"X": PredExpr(tuple(f"z{i}" for i in range(k)), FTrue())}, ())
    rep = check_witness(clauses_of(text, header), {"X": k}, [], w, timeout=20.0)
    assert rep.models_checked == checked
    assert rep.notes == (note,)


# -- the prover pops its smallest passive clause --------------------------------


def test_prover_pops_its_smallest_passive_clause(monkeypatch):
    import heapq

    pops = []
    real_pop = heapq.heappop

    def checked_pop(heap):
        smallest = min(heap)
        got = real_pop(heap)
        pops.append(got == smallest)
        return got

    monkeypatch.setattr(heapq, "heappop", checked_pop)
    prover = _Prover(clauses_of("f(a) = a\nB(f(f(a))) | C(a, a)\n~B(a)\n~C(?u, ?u)"),
                     time.monotonic() + 5.0)
    proof = prover.run()
    assert proof is not None and replays(proof)
    assert pops and all(pops)


# -- the prover tests subsumption only on the clause it selects -----------------


def test_prover_tests_subsumption_only_between_its_selected_and_active_clauses(monkeypatch):
    """Every `subsumes` call of a prover run pairs the clause the run popped
    last from the passive heap with an active clause, either way round: a
    clause that arrives is never tested before it is selected."""
    import heapq

    provers, popped, pairs = [], [], []
    real_init, real_pop, real_subsumes = _Prover.__init__, heapq.heappop, verify_module.subsumes

    def init(self, *args):
        provers.append(self)
        popped.clear()
        real_init(self, *args)

    def pop(heap):
        got = real_pop(heap)
        popped.append(provers[-1].recs[got[1]][2])
        return got

    def recorded(s, c):
        g = popped[-1] if popped else None
        active = dict(provers[-1].active).values()  # a list of pairs at the parent
        pairs.append((s is g and any(c is x for x in active))
                     or (c is g and any(s is x for x in active)))
        return real_subsumes(s, c)

    monkeypatch.setattr(_Prover, "__init__", init)
    monkeypatch.setattr(heapq, "heappop", pop)
    monkeypatch.setattr(verify_module, "subsumes", recorded)
    for problem, trace in [("p01_main", "p01_d1"), ("p06_graph3", "p06_graph3")]:
        prob, d = corpus_derivation(problem, trace)
        w = extract_witness(d)
        for c in prob.clauses:
            r = prove(d.conclusion(), simplify(apply_pred_subst_clause(c, w.psub)))
            assert isinstance(r, Proved), (trace, str(c))
    assert pairs and all(pairs), pairs.count(False)


# -- proofs replay before they count --------------------------------------------


def tamper_proofs(monkeypatch):
    """Make the prover return its proofs with the clause of their first step
    (or, in a proof of no step, of their last input) replaced."""
    real_run = _Prover.run

    def run(self):
        proof = real_run(self)
        if proof is None:
            return None
        if proof.steps:
            first = dataclasses.replace(proof.steps[0], added=cl("B(c)"))
            return dataclasses.replace(proof, steps=(first,) + proof.steps[1:])
        return dataclasses.replace(proof, inputs=proof.inputs[:-1] + (cl("B(c)"),))

    monkeypatch.setattr(_Prover, "run", run)


def test_a_proof_that_does_not_replay_fails_the_check(monkeypatch):
    clauses, d = main_pieces()
    w = Witness({"X": PredExpr(("z",), FAtom("=", (a, Var("z"))))}, ())
    assert check_witness(clauses, {"X": 1}, d.conclusion(), w, timeout=20.0).passed
    tamper_proofs(monkeypatch)
    rep = check_witness(clauses, {"X": 1}, d.conclusion(), w, timeout=20.0)
    assert not rep.passed
    assert {r for _, r in rep.prover} == {"rejected"}
    assert rep.failures[0] == "clause 1 under the witness: the prover's refutation does not replay"


# -- clausification is bounded ---------------------------------------------------


def iff_chain(atoms):
    return atoms[0] if len(atoms) == 1 else FIff(atoms[0], iff_chain(atoms[1:]))


def test_clausify_refuses_a_clausal_form_past_the_cap():
    t0 = time.monotonic()
    with pytest.raises(ClausifyError, match="more than 10000 clauses"):
        clausify(FNot(iff_chain([FAtom("C", (a, a))] * 9)))
    assert time.monotonic() - t0 < 2.0


def test_check_witness_records_a_goal_past_the_clause_cap_as_unknown():
    chain = iff_chain([B(Var("z")), FAtom("C", (Var("z"), Var("z")))] * 4 + [B(Var("z"))])
    w = Witness({"X": PredExpr(("z",), chain)}, ())
    t0 = time.monotonic()
    rep = check_witness(clauses_of("X(a)"), {"X": 1}, [], w, timeout=20.0)
    assert time.monotonic() - t0 < 2.0
    assert rep.prover == ((0, "unknown"),)
    assert rep.notes[0] == (
        "clause 1 under the witness was not clausified: clausal form has more than 10000 clauses"
    )


# -- the model route up to permutations of the constants ------------------------


def model_key(m):
    """m as a hashable value that does not depend on the order of its tables."""
    funcs = tuple(sorted((k, tuple(sorted(t.items()))) for k, t in m.funcs.items()))
    rels = tuple(sorted((k, tuple(sorted(r))) for k, r in m.rels.items()))
    return m.size, funcs, rels


def constant_vector(m):
    return [t[()] for (_, k), t in sorted(m.funcs.items()) if k == 0]


def restricted_growth(vector):
    """Is each value at most one above the largest value before it?"""
    return all(v <= max(vector[:i], default=-1) + 1 for i, v in enumerate(vector))


def representative(m):
    """The image of m under the permutation of its domain that numbers the
    constants' values in order of first occurrence and the other values in
    increasing order: the model that stands for m in `models`."""
    order = list(dict.fromkeys(constant_vector(m) + list(range(m.size))))
    pi = {old: new for new, old in enumerate(order)}
    funcs = {k: {tuple(pi[x] for x in p): pi[v] for p, v in t.items()} for k, t in m.funcs.items()}
    rels = {k: frozenset(tuple(pi[x] for x in p) for p in r) for k, r in m.rels.items()}
    return FiniteModel(m.size, funcs, rels)


def random_signature(rng):
    """0-4 constants, maybe a unary function whose name sorts between them,
    and one or two relations."""
    sig = Signature()
    for name in rng.sample("acde", rng.randint(0, 4)):
        sig.funcs[(name, 0)] = None
    if rng.random() < 0.4:
        sig.funcs[(rng.choice("bg"), 1)] = None
    sig.rels[("B", 1)] = None
    if rng.random() < 0.4:
        sig.rels[("C", 2)] = None
    return sig


def test_models_stand_for_their_orbits_of_constant_vectors():
    rng = random.Random(13)
    sizes = 0
    while sizes < 60:
        sig = random_signature(rng)
        for n in (1, 2, 3):
            if model_count(sig, n) > 2000:
                continue
            sizes += 1
            canonical = Counter()
            for m, weight in models(sig, n):
                assert model_key(m) not in canonical
                canonical[model_key(m)] = weight
            assert sum(canonical.values()) == model_count(sig, n)
            full = list(ref_models(sig, n))
            # the canonical models are the full enumeration's models with a
            # restricted growth string of constants, in the same order ...
            rgs = [model_key(m) for m in full if restricted_growth(constant_vector(m))]
            assert rgs == list(canonical)
            # ... and each is the representative of as many models as its weight
            assert Counter(model_key(representative(m)) for m in full) == canonical


def test_function_tables_match_the_recursive_reference():
    """The one-test filter over the product of the domains yields the
    tables and constant counts of the recursion it replaces, in its order,
    over mixes of constants and unary or binary functions at sizes 1-3,
    with no constants and with constants only among them."""
    rng = random.Random(29)

    def domain(n, k):
        points = list(itertools.product(range(n), repeat=k))
        return [dict(zip(points, vals)) for vals in itertools.product(range(n), repeat=len(points))]

    mixes = [(3, [0, 0, 0, 0]), (2, [1, 2]), (3, []), (1, [0, 2, 0])]
    while len(mixes) < 60:
        n, arities = rng.randint(1, 3), rng.choices([0, 0, 1, 2], k=rng.randint(1, 4))
        if math.prod(n ** (n**k) for k in arities) <= 20_000:
            mixes.append((n, arities))
    for n, arities in mixes:
        domains, consts = [domain(n, k) for k in arities], [k == 0 for k in arities]
        got = list(verify_module._function_tables(domains, consts))
        assert got == list(ref_function_tables(domains, consts)), (n, arities)
        assert sum(math.perm(n, used) for _, used in got) == math.prod(len(d) for d in domains)


WITNESS_BODIES = [
    FTrue(),
    FNot(FTrue()),
    FAtom("=", (a, Var("z"))),
    B(Var("z")),
    FNot(B(Var("z"))),
    FAtom("C", (Var("z"), b)),
    FOr((B(Var("z")), FAtom("=", (Var("z"), c)))),
]


def random_small_problems(rng, count, max_models=3000):
    """(clauses, witness) pairs with at most max_models models of size 3."""
    found = 0
    while found < count:
        clauses = [random_clause(rng, max_lits=3) for _ in range(rng.randint(1, 3))]
        sig = signature_of(clauses)
        if model_count(sig, 3) > max_models:
            continue
        found += 1
        yield clauses, Witness({"X": PredExpr(("z",), rng.choice(WITNESS_BODIES))}, ())


def test_model_route_agrees_with_full_enumeration(monkeypatch):
    monkeypatch.setattr(verify_module, "prove", lambda *args, **kwargs: Unknown("not run"))
    rng = random.Random(1313)
    verdicts, completed = Counter(), 0
    for clauses, w in random_small_problems(rng, 40):
        got = check_witness(clauses, {"X": 1}, [], w, timeout=20.0)
        with monkeypatch.context() as mp:
            full_enumeration(mp)
            want = check_witness(clauses, {"X": 1}, [], w, timeout=20.0)
        assert got.passed == want.passed, (clauses, w)
        verdicts[got.passed] += 1
        if "model check stopped after 5 disagreements" not in want.notes:
            assert got.models_checked == want.models_checked == want.models_evaluated
            assert got.models_evaluated <= want.models_evaluated
            assert got.notes == want.notes
            completed += 1
    assert verdicts[True] >= 5 and verdicts[False] >= 5 and completed >= 20, (verdicts, completed)


def test_find_model_finds_a_model_exactly_when_full_enumeration_does(monkeypatch):
    rng = random.Random(131313)
    outcomes = Counter()
    for clauses, _ in random_small_problems(rng, 40):
        got = find_model(clauses)
        with monkeypatch.context() as mp:
            full_enumeration(mp)
            want = find_model(clauses)
        assert (got is None) == (want is None), clauses
        if got is not None:
            assert evaluator(FAnd(tuple(clause_to_formula(c) for c in clauses)))(got)
        outcomes[got is None] += 1
    assert outcomes[True] >= 3 and outcomes[False] >= 3, outcomes


def test_the_set_is_solvable_in_every_model_where_the_witness_holds():
    """If N[W] is true in M, N is solvable in M with X := W's extension.  So a
    model where N is unsolvable (a ground clause without X-atoms is false)
    never shows a disagreement, and the model route loses no check when it
    skips a size before evaluating such models."""
    rng = random.Random(1717)
    problems = witness_true = 0
    for clauses, w in random_small_problems(rng, 40):
        goals = [simplify(apply_pred_subst_clause(c, w.psub)) for c in clauses]
        sig = signature_of(clauses, goals)
        sig.pvars = {}
        # a witness body may bring in a binary relation
        if model_count(sig, 3) > 3000:
            continue
        problems += 1
        under_w = evaluator(FAnd(tuple(goals)))
        for n in (1, 2, 3):
            for m in ref_models(sig, n):
                if under_w(m):
                    witness_true += 1
                    assert soqe_holds(m, clauses, {"X": 1}), (clauses, w, m.describe())
    assert problems >= 30 and witness_true >= 5000, (problems, witness_true)


def test_the_model_route_checks_the_deadline_between_blocks(monkeypatch):
    # the clock passes the deadline once the first size-3 block is done
    monkeypatch.setattr(verify_module, "prove", lambda *args, **kwargs: Unknown("not run"))
    now = [0.0]
    monkeypatch.setattr(verify_module.time, "monotonic", lambda: now[0])
    real_blocks, done = verify_module.blocks, []

    def blocks_until_timeout(sig, n):
        for blk in real_blocks(sig, n):
            if n == 3 and done[-1].size == 3:
                now[0] = float("inf")
            else:
                done.append(blk)
            yield blk

    monkeypatch.setattr(verify_module, "blocks", blocks_until_timeout)
    clauses, d = main_pieces()
    w = Witness({"X": PredExpr(("z",), FAtom("=", (a, Var("z"))))}, ())
    rep = check_witness(clauses, {"X": 1}, d.conclusion(), w, timeout=20.0)
    assert [blk.size for blk in done].count(3) == 1 and now[0] == float("inf")
    assert rep.failures == ()
    assert rep.notes == ("model check interrupted at size 3 (timeout)",)
    # sizes 1 and 2 in full, then a = c at size 3 (weight 3, 2**9 relations B)
    assert rep.models_checked == sum(blk.weight * blk.count for blk in done) == 2 + 64 + 3 * 512
    assert rep.models_evaluated == sum(blk.count for blk in done) == 2 + 32 + 512


def test_the_model_route_checks_the_deadline_inside_a_block(monkeypatch):
    # the clock passes the deadline once the first size-3 block's solvability
    # test has eliminated its first atom
    monkeypatch.setattr(verify_module, "prove", lambda *args, **kwargs: Unknown("not run"))
    size, reads = [0], []

    def clock():
        if size[0] == 3:
            reads.append(size[0])
        return float("inf") if len(reads) > 1 else 0.0

    real_models = verify_module._Soqe.models

    def models(self, blk, among):
        size[0] = blk.size
        return real_models(self, blk, among)

    monkeypatch.setattr(verify_module.time, "monotonic", clock)
    monkeypatch.setattr(verify_module._Soqe, "models", models)
    clauses, d = main_pieces()
    w = Witness({"X": PredExpr(("z",), FAtom("=", (a, Var("z"))))}, ())
    rep = check_witness(clauses, {"X": 1}, d.conclusion(), w, timeout=20.0)
    assert len(reads) == 2
    assert rep.failures == ()
    assert rep.notes == ("model check interrupted at size 3 (timeout)",)
    # sizes 1 and 2 in full, none of the interrupted block
    assert rep.models_checked == 2 + 64
    assert rep.models_evaluated == 2 + 32


def test_the_prover_gets_no_time_past_the_checks_deadline(monkeypatch):
    # a prover that runs until its deadline returns once the clock is past it
    now, given = [0.0], []
    monkeypatch.setattr(verify_module.time, "monotonic", lambda: now[0])

    def prove(premises, goal, timeout):
        given.append(timeout)
        now[0] += timeout + 0.01
        return Unknown("saturation budget exhausted")

    monkeypatch.setattr(verify_module, "prove", prove)
    prob, d = corpus_derivation("p06_graph3", "p06_graph3")
    w = Witness({"X": PredExpr(("z",), FFalse())}, ())
    rep = check_witness(prob.clauses, prob.xvars, d.conclusion(), w, timeout=1.0)
    assert len(given) == len(prob.clauses) == 16
    assert sum(given) <= 1.0 and min(given) == 0.0
    assert rep.notes == ("model check stopped before size 1 (timeout)",)


# -- the FAIL path: constant witnesses on every corpus derivation ------------------


CONSTANT_PINS = pathlib.Path(__file__).resolve().parent / "constant_witnesses.json"
CONSTANTS = {"false": FFalse(), "true": FTrue()}


def constant_witness_records():
    """What the model route makes of the witness that gives every predicate
    variable of a corpus derivation the same constant body: its failure
    lines, notes and counts.  The prover is left out (the caller stubs
    `verify.prove`), so nothing depends on a deadline."""
    out = {}
    for problem, trace in CORPUS_RUNS:
        prob, d = corpus_derivation(problem, trace)
        for name, body in CONSTANTS.items():
            w = Witness(
                {x: PredExpr(tuple(f"z{i}" for i in range(k)), body) for x, k in prob.xvars.items()}, ()
            )
            rep = check_witness(prob.clauses, prob.xvars, d.conclusion(), w)
            key = f"{name}:{trace}.trace" if trace else f"{name}:{problem}.wscan"
            out[key] = {
                "failures": list(rep.failures),
                "notes": list(rep.notes),
                "models_checked": rep.models_checked,
                "models_evaluated": rep.models_evaluated,
            }
    return out


def test_constant_witnesses_fail_as_recorded(monkeypatch):
    """Re-record with `python tests/test_verify.py` from the repository root
    with `src` on PYTHONPATH."""
    monkeypatch.setattr(verify_module, "prove", lambda *args, **kwargs: Unknown("not run"))
    pins = json.loads(CONSTANT_PINS.read_text())
    got = constant_witness_records()
    assert sorted(got) == sorted(pins)
    for key, record in got.items():
        assert record == pins[key], key
    assert sum(1 for r in got.values() if r["failures"]) >= 10


# -- Skolem constants are named per prove call -----------------------------------


@pytest.mark.parametrize("n", range(21))
def test_skolem_constants_are_named_apart_from_the_input(n):
    # the negated goal's Skolem constant must not be the premise's sk<n>
    premise = Clause.make([Lit(True, "B", (const(f"sk{n}"),))])
    r = prove([premise], FAll("x", B(Var("x"))))
    assert isinstance(r, Disproved)


def test_a_proof_does_not_depend_on_the_global_name_counter():
    # there is no such counter: the two Skolem constants, whose names would
    # sort differently as sk9/sk10 than as sk0/sk1, are sk0 and sk1 however
    # much naming ran before, here a proof with eleven Skolem constants
    premises = clauses_of("~C(?u, ?v) | C(?v, ?u)")
    goal = FAll("x", FAll("y", FImp(FAtom("C", (Var("x"), Var("y"))),
                                    FAtom("C", (Var("y"), Var("x"))))))
    many = FAll("x", B(Var("x")))
    for _ in range(10):
        many = FAnd((many, FAll("x", B(Var("x")))))
    proofs = set()
    for _ in range(3):
        r = prove(premises, goal)
        assert isinstance(r, Proved)
        proofs.add(tuple(map(str, r.proof.inputs))
                   + tuple(f"{trace_line(s)}: {s.added}" for s in r.proof.steps))
        prove(clauses_of("B(?u)"), many)
    (proof,) = proofs
    assert {"C(sk0,sk1)", "~C(sk1,sk0)"} <= set(proof), proof


def test_a_refutation_of_clauses_it_was_not_given_is_rejected(monkeypatch):
    # the prover claims the empty clause as an input: every step replays, but
    # the refutation starts from a clause that is neither a premise nor a
    # clause of the negated goal
    monkeypatch.setattr(_Prover, "run", lambda self: Derivation((Clause(),), ()))
    assert isinstance(prove(clauses_of("B(a)")), Rejected)


# -- unit deletion ----------------------------------------------------------------


def test_a_literal_refuted_by_a_ground_unit_is_resolved_away_on_arrival():
    _, d = corpus_derivation("p06_graph3", "p06_graph3")
    conclusion = d.conclusion()
    assert cl("~E(a1, a1)") in conclusion
    prover = _Prover(list(conclusion) + [cl("E(a1, a1)")], time.monotonic() + 5.0)
    # refuted while the inputs are admitted, before any clause is selected
    assert prover.empty_id is not None and not prover.active
    proof = prover.run()
    assert proof is not None and replays(proof)
    assert len(proof.inputs) == 2 and [s.rule for s in proof.steps] == ["res", "constrelim"]


UNIT_DELETION = "~C(a)\nB(a) | C(a)\n~B(?u)"


def test_a_proof_through_a_unit_deletion_replays():
    prover = _Prover(clauses_of(UNIT_DELETION), time.monotonic() + 5.0)
    # B(a) | C(a) (id 2) loses C(a) to the unit ~C(a) (id 1) on arrival
    assert [rule for rule, _, _ in prover.recs.values()] == ["input", "input", "res", "constrelim", "input"]
    r = prover.run()
    assert r is not None and replays(r)
    # the proof numbers its inputs 1-3 in order
    step = next(s for s in r.steps if s.rule == "res" and (s.args[0], s.args[2]) == (2, 1))
    assert step.args[3] == 0 and r.inputs[1].lits[step.args[1]] == cl("C(a)").lits[0]
    after = r.steps[r.steps.index(step) + 1]
    assert after.rule == "constrelim" and after.args[0] == step.new_id
    assert after.added == cl("B(a)")


def test_a_tampered_unit_deletion_is_rejected(monkeypatch):
    tamper_proofs(monkeypatch)  # replaces the clause of the deletion, the first inference
    assert isinstance(prove(clauses_of(UNIT_DELETION)), Rejected)


def test_a_non_ground_unit_deletes_nothing():
    prover = _Prover(clauses_of("~B(?u)\nB(a) | B(b)"), time.monotonic() + 5.0)
    assert prover.units == {}
    assert {rule for rule, _, _ in prover.recs.values()} == {"input"}
    proof = prover.run()
    assert proof is not None and replays(proof)
    assert prover.active  # found by ordinary resolution of selected clauses


# -- the prover against the finite-model oracle ------------------------------------


ORACLE_MAX_MODELS = 3000


def oracle_models(premises, formulas):
    """The models of the premises of sizes 1-3 over the signature of the
    premises and the formulas, by `ref_models` and `ref_eval_formula`; a
    size with more than ORACLE_MAX_MODELS interpretations is left out."""
    sig = signature_of(premises, formulas)
    fs = [clause_to_formula(c) for c in premises]
    for n in (1, 2, 3):
        if model_count(sig, n) <= ORACLE_MAX_MODELS:
            for m in ref_models(sig, n):
                if all(ref_eval_formula(m, f) for f in fs):
                    yield m


def test_the_prover_is_sound_against_the_finite_model_oracle(monkeypatch):
    """Random premises with random goals, goals that weaken a premise, and
    planted wrong goals: a ground literal false in a model of the premises.
    No `proved` goal may have a countermodel, and no planted goal may be
    `proved`.  A work bound keeps the verdicts independent of the machine."""
    monkeypatch.setattr(verify_module, "MAX_INFERENCES", 100)
    outcomes = Counter()
    for seed in range(200):
        rng = random.Random(seed)
        premises = [random_clause(rng, 3) for _ in range(rng.randrange(1, 4))]
        kind = ("random", "negated", "weakened", "planted")[seed % 4]
        if kind == "random":
            goal = clause_to_formula(random_clause(rng, 2))
        elif kind == "negated":
            goal = FNot(clause_to_formula(random_clause(rng, 2)))
        elif kind == "weakened":
            c = rng.choice(premises)
            goal = clause_to_formula(Clause.make(c.lits + (random_lit(rng),)))
        else:
            l = random_lit(rng)
            l = dataclasses.replace(l, args=tuple(subst_term(t, {v: a for v in "uvw"}) for t in l.args))
            m = next(oracle_models(premises, [lit_to_formula(l)]), None)
            if m is None:  # no small model of the premises to plant against
                continue
            goal = lit_to_formula(l.dual() if ref_eval_formula(m, lit_to_formula(l)) else l)
        r = prove(premises, goal, timeout=10.0)
        assert not isinstance(r, Rejected), (seed, r)
        if isinstance(r, Proved):
            assert kind != "planted", (seed, premises, goal)
            bad = next((m for m in oracle_models(premises, [goal])
                        if not ref_eval_formula(m, goal)), None)
            assert bad is None, (seed, premises, goal, bad.describe())
        outcomes[kind, isinstance(r, Proved)] += 1
    assert outcomes["weakened", True] >= 40 and outcomes["planted", False] >= 40, outcomes
    assert outcomes["random", True] + outcomes["negated", True] >= 5, outcomes


if __name__ == "__main__":
    verify_module.prove = lambda *args, **kwargs: Unknown("not run")
    CONSTANT_PINS.write_text(json.dumps(constant_witness_records(), indent=1, sort_keys=True) + "\n")
