"""Release gate: twelve externally checkable guarantees, one test each.

Run with -v to get one pass/fail line per guarantee.  The tests cover the
bundled example derivations end to end (replay, witness extraction, prover
validation), the pinned shapes of the certificate constructions, soundness
of random inference steps in every small model, agreement of the subsumption
family with brute force, the shipped problem corpus, and prover smoke tests.
"""

import functools
import itertools
import operator
import random
import time
from pathlib import Path

import pytest

from wscan.calculus import (
    all_paramodulants,
    constraint_eliminate,
    constraint_factor,
    constraint_resolve,
    is_purified,
    variable_eliminate,
)
from wscan.logic import (
    App,
    Clause,
    FAll,
    FAtom,
    FFalse,
    FIff,
    Lit,
    PointedClause,
    PredExpr,
    Var,
    apply_pred_subst_clause,
    clause_to_formula,
    fand,
    pred_expr_str,
    simplify,
)
from wscan.problems import encode_graph, merge_theory, parse_graph, parse_problem
from wscan.saturation import ReplayError, SearchLimits, replay, search
from wscan.subsumption import subsumes, subsumes_L, subsumes_L_velim
from wscan.verify import (
    FiniteModel,
    Proved,
    blocks,
    check_witness,
    eval_formula,
    prove,
    signature_of,
    soqe_holds,
    truth,
)
from wscan.witness import (
    ClausePredicate,
    LresBudgetExceeded,
    Witness,
    b_k,
    extract_witness,
    find_acyclic,
    lres,
)

from conftest import (
    ackermann_witness,
    brute_subsumes,
    brute_subsumes_velim,
    cl,
    evaluator,
    full_enumeration,
    random_clause,
    ref_models,
    same_up_to_consts,
)
from test_witness import make_one_sided

CORPUS = Path(__file__).resolve().parent.parent / "src" / "wscan" / "corpus"
MAIN = CORPUS / "p01_main.wscan"


def _pointed(c: Clause, head: str = "X", pos=None) -> PointedClause:
    for i, l in enumerate(c.lits):
        if l.pvar and l.head == head and (pos is None or l.pos == pos):
            return PointedClause(c, i)
    raise AssertionError(f"no {head} literal in {c}")


def _replay_bundled(stem: str):
    prob = merge_theory(parse_problem(MAIN.read_text(), origin=MAIN.name))
    trace = (CORPUS / f"{stem}.trace").read_text()
    return prob, replay(prob.clauses, prob.xvars, trace)


# -- 1/2: the two bundled derivations of the running example ----------------


def test_criterion_01_first_derivation_witness_is_provably_the_marked_point():
    t0 = time.monotonic()
    prob, d = _replay_bundled("p01_d1")
    assert set(d.conclusion()) == {cl("B(a, ?v)"), cl("a != c")}
    w = extract_witness(d)
    assert not w.has_gfp()
    pe = w.psub["X"]
    u = pe.params[0]
    goal = FAll(u, FIff(pe.body, FAtom("=", (Var(u), App("a", ())), False)))
    got = prove(list(d.conclusion()), goal, timeout=5.0)
    assert isinstance(got, Proved)
    assert time.monotonic() - t0 < 5.0


def test_criterion_02_second_derivation_with_depth_one_annotation():
    t0 = time.monotonic()
    _, d = _replay_bundled("p01_d2")
    w = extract_witness(d, mode="first-order", k_override=1)
    pe = w.psub["X"]
    u = pe.params[0]
    rhs = fand(
        FAtom("=", (Var(u), App("a", ())), False),
        FAll("v", FAtom("B", (Var(u), Var("v")), False)),
    )
    goal = FAll(u, FIff(pe.body, rhs))
    got = prove([], goal, timeout=5.0)  # an equivalence with no premises at all
    assert isinstance(got, Proved)
    assert time.monotonic() - t0 < 5.0


# -- 3/4: the two certificate constructions ----------------------------------


def test_criterion_03_resolution_closure_pin_and_budget():
    got = lres(PointedClause(cl("X(a)"), 0))
    want = ClausePredicate(("k0",), frozenset({cl("a != k0"), cl("~X(k0)")}))
    assert same_up_to_consts(got, want)
    chain = _pointed(cl("~X(?u) | B(?u, ?v) | X(?v)"), pos=False)
    with pytest.raises(LresBudgetExceeded):
        lres(chain, budget=20)


def test_criterion_04_bounded_iterates_match_pins_and_are_monotone():
    p = _pointed(cl("B(?u, ?v) | ~X(?u) | X(?v)"), pos=False)
    want1 = ClausePredicate(("k0",), frozenset({cl("X(k0)"), cl("B(k0, ?u)")}))
    want2 = ClausePredicate(
        ("k0",),
        frozenset({cl("X(k0)"), cl("B(k0, ?u) | X(?u)"), cl("B(k0, ?u) | B(?u, ?v)")}),
    )
    assert same_up_to_consts(b_k(p, 1), want1)
    assert same_up_to_consts(b_k(p, 2), want2)
    pes = [b_k(p, k).to_pred_expr() for k in range(5)]
    sig = signature_of(formulas=[pe.body for pe in pes])
    for n in (1, 2, 3):
        for m in ref_models(sig, n):
            for e in range(n):
                held = [
                    pe.params == () or eval_formula(m, pe.body, {pe.params[0]: e})
                    for pe in pes
                ]
                for k in range(4):
                    assert not held[k] or held[k + 1], (m.describe(), e, k)


# -- 5: the deletion condition is not redundancy ------------------------------


def test_criterion_05_purity_rejects_the_uncovered_tautology_case():
    texts = [
        "~X(?v) | X(f(?v)) | B(?v)",
        "X(a) | ~X(f(a))",
        "X(b)",
        "~X(c)",
        "B(b)",
    ]
    clauses = [cl(t) for t in texts]
    p = _pointed(clauses[0], pos=False)
    assert not is_purified(p, frozenset(clauses[1:]))
    with pytest.raises(ReplayError):
        replay(clauses, {"X": 1}, f"purdel 1.{p.index + 1}")
    # the four-element structure separating the set from a covering resolvent
    m = FiniteModel(
        4,
        {
            ("a", 0): {(): 0},
            ("b", 0): {(): 1},
            ("c", 0): {(): 2},
            ("f", 1): {(0,): 3, (1,): 1, (2,): 2, (3,): 2},
        },
        {("B", 1): frozenset({(1,)})},
    )
    x = frozenset({(0,), (1,)})
    assert all(evaluator(clause_to_formula(c), pfree=("X",))(m, x) for c in clauses[1:])
    resolvent = clause_to_formula(cl("X(f(f(a))) | B(f(a)) | B(a)"))
    assert not evaluator(resolvent, pfree=("X",))(m, x)


# -- 6: a deletion with no bounded certificate --------------------------------


def test_criterion_06_recursive_deletion_gets_a_fixpoint_witness():
    prob = parse_problem((CORPUS / "p05_cycle.wscan").read_text())
    d = replay(prob.clauses, prob.xvars, (CORPUS / "p05_cycle.trace").read_text())
    p = _pointed(cl("~X(?v) | X(f(?v))"), pos=False)
    n = frozenset([p.clause, cl("X(f(f(?v)))")])
    assert find_acyclic(p, n) is None
    w = extract_witness(d)
    assert w.has_gfp()
    goals = [simplify(apply_pred_subst_clause(c, w.psub)) for c in prob.clauses]
    sig = signature_of(prob.clauses)
    sig.pvars.clear()
    checked = 0
    for size in (1, 2, 3):
        for m in ref_models(sig, size):
            lhs = soqe_holds(m, list(prob.clauses), prob.xvars)
            rhs = all(eval_formula(m, g) for g in goals)
            assert lhs == rhs, m.describe()
            checked += 1
    assert checked == 32  # every function table on domains of size 1..3
    false_w = Witness({"X": PredExpr(("u0",), FFalse())}, ())
    rep = check_witness(list(prob.clauses), prob.xvars, d.conclusion(), false_w, timeout=20.0)
    assert not rep.passed


# -- 7: the graph reachability pipeline ---------------------------------------


def test_criterion_07_graph_witness_extension_is_the_reachable_set():
    t0 = time.monotonic()
    g = parse_graph((CORPUS / "p06_graph3.graph").read_text())
    prob = merge_theory(encode_graph(g))
    d = replay(prob.clauses, prob.xvars, (CORPUS / "p06_graph3.trace").read_text())
    w = extract_witness(d)
    pe = w.psub["X"]
    m = FiniteModel(
        3,
        {(f"a{i}", 0): {(): i - 1} for i in (1, 2, 3)},
        {("E", 2): frozenset({(0, 1)})},
    )
    ext = {e for e in range(3) if eval_formula(m, pe.body, {pe.params[0]: e})}
    assert ext == {0, 1}
    assert time.monotonic() - t0 < 10.0


# -- 8: one-sided deletions have depth-one certificates -----------------------


def test_criterion_08_one_sided_deletions_are_acyclic_at_depth_one():
    rng = random.Random(7)
    done = 0
    while done < 200:
        p, n = make_one_sided(rng)
        if not is_purified(p, n):
            continue
        assert isinstance(find_acyclic(p, n), int)
        assert same_up_to_consts(b_k(p, 1), lres(p))
        done += 1


# -- 9: every inference step is sound in every small model --------------------


def _small_term(rng, depth=1):
    r = rng.random()
    if r < 0.35:
        return Var(rng.choice(("u", "v")))
    if r < 0.8 or depth == 0:
        return App("a", ())
    return App("f", (_small_term(rng, depth - 1),))


def _small_lit(rng):
    k = rng.randrange(6)
    pos = rng.random() < 0.5
    if k == 0:
        return Lit(pos, "=", (_small_term(rng), _small_term(rng)), False)
    if k <= 2:
        return Lit(pos, "B", (_small_term(rng),), False)
    return Lit(pos, "X", (_small_term(rng),), True)


def _small_clause(rng):
    return Clause.make(_small_lit(rng) for _ in range(rng.randrange(1, 4)))


def _steps_from(rng, c1, c2):
    steps = []
    pos = [i for i, l in enumerate(c1.lits) if l.pvar and l.pos]
    neg = [j for j, l in enumerate(c2.lits) if l.pvar and not l.pos]
    if pos and neg:
        r = constraint_resolve(PointedClause(c1, pos[0]), PointedClause(c2, neg[0]))
        steps.append(((c1, c2), r))
    for i, j in itertools.combinations(range(len(c1.lits)), 2):
        a, b = c1.lits[i], c1.lits[j]
        if a.pos == b.pos and a.head == b.head and not a.is_eq and a.pvar == b.pvar:
            steps.append(((c1,), constraint_factor(c1, i, j)))
            break
    r = constraint_eliminate(c1)
    if r is not None:
        steps.append(((c1,), r))
    r, changed = variable_eliminate(c1)
    if changed:
        steps.append(((c1,), r))
    for got, *_ in itertools.islice(all_paramodulants(c1, c2), 2):
        steps.append(((c1, c2), got))
    return steps


_BLOCKS_BY_SIG: dict = {}
_TRUTH: dict = {}


def _entails_everywhere(premises, conclusion) -> bool:
    """Whether every model of sizes 1-3 over the signature of the step that
    satisfies the premises satisfies the conclusion; the caller makes
    `verify.blocks` give every model (`full_enumeration`)."""
    sig = signature_of(list(premises) + [conclusion])
    key = (tuple(sorted(sig.funcs)), tuple(sorted(sig.rels)), tuple(sorted(sig.pvars)))
    if key not in _BLOCKS_BY_SIG:
        _BLOCKS_BY_SIG[key] = [b for n in (1, 2, 3) for b in blocks(sig, n)]
    bs = _BLOCKS_BY_SIG[key]

    def holds(c):
        """The models where c holds, per block of the signature, found once."""
        got = _TRUTH.get((c, key))
        if got is None:
            f = clause_to_formula(c)
            got = _TRUTH[(c, key)] = [truth(b, f) for b in bs]
        return got

    return not any(
        functools.reduce(operator.and_, ps, (1 << b.count) - 1) & ~concl
        for b, *ps, concl in zip(bs, *map(holds, premises), holds(conclusion))
    )


def test_criterion_09_random_inference_steps_are_sound_in_small_models(monkeypatch):
    full_enumeration(monkeypatch)
    rng = random.Random(2026)
    checked = 0
    while checked < 500:
        steps = _steps_from(rng, _small_clause(rng), _small_clause(rng))
        for premises, conclusion in steps:
            assert _entails_everywhere(premises, conclusion), (
                [str(c) for c in premises],
                str(conclusion),
            )
        checked += len(steps)
    assert checked >= 500


# -- 10: the subsumption family against brute force ---------------------------


def test_criterion_10_subsumption_family_agrees_with_brute_force():
    pos_x = Lit(True, "X", (Var("z"),), True)
    neg_x = Lit(False, "X", (Var("z"),), True)
    rng = random.Random(1105)
    for _ in range(500):
        s = random_clause(rng, max_lits=3)
        c = random_clause(rng, max_lits=4)
        like = rng.choice([pos_x, neg_x])
        assert subsumes(s, c) == brute_subsumes(s, c)
        assert subsumes_L(s, c, like) == brute_subsumes(s, c, like)
        assert subsumes_L_velim(s, c, like) == brute_subsumes_velim(s, c, like)
    # the chain whose first and last elements are unrelated
    s1 = cl("X(f(?u))")
    s2 = cl("?v != f(c) | X(?v)")
    s3 = cl("g(c) != f(c) | X(g(c))")
    assert subsumes_L_velim(s1, s2, pos_x)
    assert subsumes_L_velim(s2, s3, pos_x)
    assert not subsumes_L_velim(s1, s3, pos_x)


# -- 11: the shipped corpus end to end -----------------------------------------


def test_criterion_11_corpus_solves_and_every_witness_checks():
    paths = sorted(CORPUS.glob("*.wscan"))
    assert len(paths) == 12
    solved = 0
    for path in paths:
        prob = merge_theory(parse_problem(path.read_text(), origin=path.name))
        d = next(search(prob.clauses, prob.xvars, SearchLimits(timeout=10.0)), None)
        if d is None:
            continue
        w = extract_witness(d)
        rep = check_witness(list(prob.clauses), prob.xvars, d.conclusion(), w, timeout=30.0)
        assert rep.passed, (path.name, rep.failures)
        solved += 1
    assert solved >= 10
    expected = {
        "p03_ackermann_unary.wscan": "lambda u0. B(?u0)",
        "p04_ackermann_binary.wscan": "lambda u0 u1. B(?u0,?u1) \\/ C(?u1)",
    }
    for name, text in expected.items():
        prob = merge_theory(parse_problem((CORPUS / name).read_text(), origin=name))
        w = ackermann_witness(prob, "X")
        assert w is not None
        assert pred_expr_str(w.psub["X"]) == text
        d = next(search(prob.clauses, prob.xvars, SearchLimits()), None)
        assert d is not None
        rep = check_witness(list(prob.clauses), prob.xvars, d.conclusion(), w, timeout=20.0)
        assert rep.passed, name


# -- 12: prover smoke tests ----------------------------------------------------


def test_criterion_12_prover_refutes_the_smoke_set_quickly():
    smoke = [
        [Clause.make([Lit(True, "A", (), False)]), Clause.make([Lit(False, "A", (), False)])],
        [cl("A(a)"), cl("~A(?u)")],
        [cl("a = b"), cl("A(a)"), cl("~A(b)")],
    ]
    for clauses in smoke:
        t0 = time.monotonic()
        got = prove(clauses, None, timeout=1.0)
        assert isinstance(got, Proved)
        assert time.monotonic() - t0 < 1.0
