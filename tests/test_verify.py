"""Clausification, finite-model evaluation, the refutation prover, and the
end-to-end witness checker."""

import dataclasses
import itertools
import random
import time

import pytest

from wscan.logic import (
    App,
    Clause,
    FAll,
    FAnd,
    FAtom,
    FEx,
    FGfp,
    FIff,
    FImp,
    FNot,
    FOr,
    FTrue,
    PredExpr,
    Var,
    const,
)
from wscan.verify import (
    ClausifyError,
    Disproved,
    FiniteModel,
    ProofRec,
    Proved,
    _Prover,
    check_witness,
    clausify,
    eval_clause,
    eval_formula,
    find_model,
    fn_cap_ok,
    model_count,
    models,
    prove,
    replay_refutation,
    signature_of,
    soqe_holds,
)
from wscan.witness import Witness

from conftest import cl, clauses_of

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


def test_eval_clause_universal_closure():
    m = FiniteModel(2, {}, {("B", 1): frozenset({(0,), (1,)})})
    assert eval_clause(m, cl("B(?u)"))
    m2 = FiniteModel(2, {}, {("B", 1): frozenset({(0,)})})
    assert not eval_clause(m2, cl("B(?u)"))
    assert eval_clause(m2, cl("B(?u) | ~B(?u)"))


def test_model_count_and_enumeration_agree():
    sig = signature_of(clauses_of("B(a) | X(f(?u))"))
    for n in (1, 2):
        expected = model_count(sig, n)
        assert expected == sum(1 for _ in models(sig, n))


def test_models_are_deterministic():
    sig = signature_of(clauses_of("B(a) | X(?u)"))
    first = [m.describe() for m in models(sig, 2)]
    second = [m.describe() for m in models(sig, 2)]
    assert first == second


def test_fn_cap_guards_binary_functions():
    assert fn_cap_ok(signature_of(clauses_of("B(f(?u), a)")))
    assert not fn_cap_ok(signature_of(clauses_of("B(f(?u, ?v), g(?u, ?v)) | B(h(?u), ?v)")))


def brute_soqe(m, clauses, xars):
    """Try every interpretation of the second-order variables outright."""
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
        if all(eval_clause(m2, c) for c in clauses):
            return True
    return False


def test_soqe_holds_matches_brute_force():
    clauses = clauses_of("X(a)\n~X(?u) | B(?u)")
    sig = signature_of(clauses)
    sig.pvars.clear()
    for n in (1, 2):
        for m in models(sig, n):
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
        for m in models(sig, 2):
            assert soqe_holds(m, clauses, {"X": 1}) == brute_soqe(m, clauses, {"X": 1})
            agree += 1


# -- prover -------------------------------------------------------------------


def test_prover_refutes_propositional_pair():
    r = prove(clauses_of("B(a)\n~B(a)"))
    assert isinstance(r, Proved)
    assert replay_refutation(r.steps)


def test_prover_refutes_with_unification_gap():
    r = prove(clauses_of("B(a)\n~B(?u)"))
    assert isinstance(r, Proved)
    assert replay_refutation(r.steps)


def test_prover_refutes_through_equality():
    r = prove(clauses_of("a = b\nB(a)\n~B(b)"))
    assert isinstance(r, Proved)
    assert replay_refutation(r.steps)


def test_prover_factors_before_resolving():
    # without factoring, resolving these two just reproduces two-literal
    # clauses forever
    r = prove(clauses_of("B(?u) | B(?v)\n~B(?u) | ~B(?v)"))
    assert isinstance(r, Proved)
    assert replay_refutation(r.steps)


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


def test_proof_steps_replay_and_respect_lineage():
    r = prove(clauses_of("B(a)\n~B(?u) | C(?u, ?u)\n~C(a, a)"))
    assert isinstance(r, Proved)
    ids = {s.id for s in r.steps}
    for s in r.steps:
        assert all(p in ids for p in s.premises)
    assert r.steps[-1].clause == Clause.make([])


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
    [{"clause": cl("B(a)")}, {"data": (0, "rl", 0, (0,))}, {"rule": "superpose"}],
    ids=["swapped-clause", "changed-data", "unknown-rule"],
)
def test_replay_refutation_rejects_a_tampered_step(changes):
    r = prove(clauses_of("a = b\nB(a)\n~B(b)"))
    assert isinstance(r, Proved) and replay_refutation(r.steps)
    # the paramodulation step rewrites B(a) to B(b) with a = b, left to right
    step = next(s for s in r.steps if s.rule == "parmod")
    assert step.data == (0, "lr", 0, (0,)) and step.clause == cl("B(b)")
    tampered = [dataclasses.replace(s, **changes) if s is step else s for s in r.steps]
    assert not replay_refutation(tampered)


@pytest.mark.parametrize(
    "steps",
    [
        [ProofRec("velim", (1,), (), 1, Clause())],
        [ProofRec("input", (), (), 1, cl("B(a)"))],
    ],
    ids=["own-premise", "no-empty-clause"],
)
def test_replay_refutation_rejects_a_proof_that_proves_nothing(steps):
    assert not replay_refutation(steps)


# -- the prover tries each inference site once ---------------------------------


def test_prover_tries_each_site_once():
    prover = _Prover(clauses_of("f(a) = a\nB(f(f(a))) | C(a, a)\n~B(a)\n~C(?u, ?u)"),
                     time.monotonic() + 5.0)
    assert prover.run() is not None
    recs = list(prover.recs.values())
    res = {r.premises for r in recs if r.rule == "res"}
    assert res and not any((j, i) in res for i, j in res if i != j)
    self_parmods = [(r.premises, r.data) for r in recs
                    if r.rule == "parmod" and r.premises[0] == r.premises[1]]
    assert self_parmods and len(self_parmods) == len(set(self_parmods))
