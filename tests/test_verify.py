"""Clausification, finite-model evaluation, the refutation prover, and the
end-to-end witness checker."""

import dataclasses
import itertools
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
    FGfp,
    FIff,
    FImp,
    FNot,
    FOr,
    FTrue,
    PredExpr,
    Var,
    clause_to_formula,
    const,
)
from wscan.verify import (
    ClausifyError,
    Disproved,
    FiniteModel,
    ProofRec,
    Proved,
    Signature,
    Unknown,
    _compile,
    _Prover,
    check_witness,
    clausify,
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

from conftest import cl, clauses_of, random_clause, ref_models

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
    return _compile(clause_to_formula(c))(m)


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


def brute_soqe(m, clauses, xars):
    """Try every interpretation of the second-order variables outright."""
    holds = _compile(FAnd(tuple(clause_to_formula(c) for c in clauses)))
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


def test_prover_eliminates_the_constraint_of_a_resolvent():
    # resolving B(f(?u)) with ~B(f(a)) leaves only the constraint f(?u) != f(a)
    r = prove(clauses_of("B(f(?u))"), goal=B(App("f", (a,))))
    assert isinstance(r, Proved)
    assert [s.rule for s in r.steps] == ["input", "input", "res", "constrelim"]
    assert replay_refutation(r.steps)


def test_prover_unknown_without_refutation_or_finite_model():
    # an irreflexive transitive relation in which every element has a
    # successor has only infinite models, and C(a) does not follow from it
    premises = clauses_of("B(?u, f(?u))\n~B(?u, ?u)\nB(?u, ?w) | ~B(?u, ?v) | ~B(?v, ?w)")
    t0 = time.monotonic()
    r = prove(premises, goal=FAtom("C", (a,)), timeout=1.0)
    assert isinstance(r, Unknown)
    # the model search may run 2 s past the prover's deadline
    assert time.monotonic() - t0 < 3.5


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


# -- the compiled evaluator against the reference walker ------------------------


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


# -- the model route stops where the parent's did -----------------------------


@pytest.mark.parametrize(
    "text, header, checked, note",
    [
        # X/3 has 27 tuples at size 3, so the first size-3 model stops the route
        ("B(a)\nX(a, a, ?u) | ~X(?u, a, a)", "X/3", 10,
         "soqe enumeration skipped: X/3 over domain size 3"),
        # the 7-variable clause has too many instances at size 3, but the first
        # four size-3 models falsify B(a) before the route reaches it
        ("B(a)\nX(?u) | B(?v) | B(?w) | B(?x) | B(?y) | B(?z) | ~B(?s)", "X/1", 14,
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
    assert proof is not None and replay_refutation(proof.steps)
    assert pops and all(pops)


# -- proofs replay before they count --------------------------------------------


def tamper_proofs(monkeypatch):
    """Make the prover return its proofs with the clause of their first
    inference step (or of their last step) replaced."""
    real_run = _Prover.run

    def run(self):
        proof = real_run(self)
        if proof is None:
            return None
        step = next((s for s in proof.steps if s.rule != "input"), proof.steps[-1])
        return Proved(tuple(dataclasses.replace(s, clause=cl("B(c)")) if s is step else s
                            for s in proof.steps))

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
            # with full, every model comes in the reference order, each once
            assert [(model_key(m), weight) for m, weight in models(sig, n, full=True)] == [
                (model_key(m), 1) for m in full
            ]
            # the canonical models are the full enumeration's models with a
            # restricted growth string of constants, in the same order ...
            rgs = [model_key(m) for m in full if restricted_growth(constant_vector(m))]
            assert rgs == list(canonical)
            # ... and each is the representative of as many models as its weight
            assert Counter(model_key(representative(m)) for m in full) == canonical


def full_enumeration(monkeypatch):
    """Make the model route enumerate every model, each with weight 1."""
    monkeypatch.setattr(
        verify_module, "models", lambda sig, n, full=False: ((m, 1) for m in ref_models(sig, n))
    )


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
            assert _compile(FAnd(tuple(clause_to_formula(c) for c in clauses)))(got)
        outcomes[got is None] += 1
    assert outcomes[True] >= 3 and outcomes[False] >= 3, outcomes
