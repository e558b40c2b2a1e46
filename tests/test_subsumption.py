"""Subsumption relations, their brute-force counterparts, and edge cases."""

import itertools
import random

import pytest

from wscan import subsumption
from wscan.logic import App, Clause, Lit, Var, lit_vars, subst_lit
from wscan.subsumption import (
    has_reflexive_equation,
    is_tautology,
    subsumes,
    subsumes_L,
    subsumes_L_velim,
)
from wscan.witness import LresBudgetExceeded, extract_witness

from conftest import (
    brute_subsumes,
    brute_subsumes_velim,
    brute_velim_closure,
    cl,
    corpus_derivation,
    match_terms,
    random_clause,
    random_lit,
    random_term,
    reduction_subsumes_L,
    ref_subsumes,
)

POS_X = Lit(True, "X", (Var("z"),), True)
NEG_X = Lit(False, "X", (Var("z"),), True)


def test_tautology_detection():
    assert is_tautology(cl("X(?u) | ~X(?u) | B(a)"))
    assert not is_tautology(cl("X(?u) | ~X(f(?u))"))
    # a reflexive equation does not count as a complementary pair
    assert not is_tautology(cl("a = a"))
    assert has_reflexive_equation(cl("a = a | B(c)"))
    assert not has_reflexive_equation(cl("a != a | B(c)"))


def test_plain_subsumption_examples():
    assert subsumes(cl("B(?u)"), cl("B(a) | C(a, b)"))
    assert not subsumes(cl("B(f(?u))"), cl("B(a)"))
    # set semantics: a clause subsumes its own factors
    assert subsumes(cl("X(?u) | X(?v)"), cl("X(?u)"))


def test_injective_subsumption_blocks_collapse():
    s = cl("X(?u) | X(?v)")
    c = cl("X(a)")
    assert subsumes(s, c)
    assert not subsumes_L(s, c, POS_X)
    assert subsumes_L(s, cl("X(a) | X(b)"), POS_X)


def test_injectivity_applies_only_to_the_marked_kind():
    s = cl("B(?u) | B(?v) | X(?u)")
    c = cl("B(a) | X(a)")
    # the two B-literals may collapse; the single X-literal is unconstrained
    assert subsumes_L(s, c, POS_X)
    assert subsumes_L(s, c, NEG_X)


def test_velim_closure_ground_constraint_is_stuck():
    c = cl("g(c) != f(c) | X(g(c))")
    assert c.unfoldings == frozenset()


def test_velim_closure_unfolds_variable_constraints():
    c = cl("?v != f(c) | X(?v)")
    assert cl("X(f(c))") in c.unfoldings


def test_nontransitivity_triple():
    s1 = cl("X(f(?u))")
    s2 = cl("?v != f(c) | X(?v)")
    s3 = cl("g(c) != f(c) | X(g(c))")
    assert subsumes_L_velim(s1, s2, POS_X)
    assert subsumes_L_velim(s2, s3, POS_X)
    assert not subsumes_L_velim(s1, s3, POS_X)


def test_empty_clause_subsumes_everything():
    empty = Clause.make([])
    assert subsumes(empty, cl("B(a)"))
    assert subsumes_L(empty, cl("X(a)"), POS_X)


def test_brute_velim_closure_matches_library():
    rng = random.Random(7)
    for _ in range(120):
        c = random_clause(rng)
        assert brute_velim_closure(c) == {c, *c.unfoldings}


@pytest.mark.parametrize("seed,count", [(11, 260), (23, 260)])
def test_random_agreement_with_brute_force(seed, count):
    rng = random.Random(seed)
    likes = [POS_X, NEG_X]
    checked = 0
    while checked < count:
        s = random_clause(rng, max_lits=3)
        c = random_clause(rng, max_lits=4)
        like = rng.choice(likes)
        assert subsumes(s, c) == brute_subsumes(s, c)
        assert subsumes_L(s, c, like) == brute_subsumes(s, c, like)
        assert subsumes_L_velim(s, c, like) == brute_subsumes_velim(s, c, like)
        checked += 1


def test_injective_subsumption_against_fresh_predicate_reduction():
    rng = random.Random(31)
    for _ in range(260):
        s = random_clause(rng, max_lits=3)
        c = random_clause(rng, max_lits=4)
        like = rng.choice([POS_X, NEG_X])
        assert subsumes_L(s, c, like) == reduction_subsumes_L(s, c, like)


# -- the feature prefilter and pattern order against the reference matcher ----


def _random_diff_clause(rng, max_lits):
    """A random clause that may also hold positive equations and terms of a
    binary function symbol."""
    lits = []
    for _ in range(rng.randrange(1, max_lits + 1)):
        roll = rng.random()
        if roll < 0.15:
            lits.append(Lit(True, "=", (random_term(rng), random_term(rng)), False))
        elif roll < 0.25:
            pair = App("h", (random_term(rng, 1), random_term(rng, 1)))
            lits.append(Lit(rng.random() < 0.5, "B", (pair,)))
        else:
            lits.append(random_lit(rng))
    return Clause.make(lits)


def _generalization(rng, c):
    """Some literals of c with some arguments replaced by variables, often a
    subsumer of c, so that the pair reaches the backtracking search.  A
    literal picked twice gives two literals that may collapse onto one.  The
    new variables are named like the (canonical) variables of c, so s has at
    most three and the brute-force oracle stays small."""
    names = ("u0", "u1", "u2")
    picked = [l for l in c.lits if rng.random() < 0.6] or [c.lits[0]]
    lits = []
    for l in picked:
        args = tuple(Var(rng.choice(names)) if rng.random() < 0.4 else a for a in l.args)
        if l.is_eq and rng.random() < 0.5:
            args = args[::-1]
        lits.append(Lit(l.pos, l.head, args, l.pvar))
    if rng.random() < 0.5:
        l = rng.choice([l for l in picked if l.pvar] or picked)
        lits.append(Lit(l.pos, l.head, tuple(Var(rng.choice(names)) for _ in l.args), l.pvar))
    return Clause.make(lits)


def _ref_subsumes_velim(s, c, like):
    return ref_subsumes(s, c, like) or any(ref_subsumes(s, e, like) for e in c.unfoldings)


def test_filtered_matcher_agrees_with_reference_and_brute_force():
    rng = random.Random(4111)
    hits = {"plain": 0, "injective": 0, "velim": 0, "collapsed": 0}
    for k in range(1000):
        c = _random_diff_clause(rng, max_lits=4)
        s = _generalization(rng, c) if k % 2 else _random_diff_clause(rng, max_lits=3)
        like = (POS_X, NEG_X)[k // 2 % 2]
        plain = subsumes(s, c)
        assert plain == ref_subsumes(s, c) == brute_subsumes(s, c), (s, c)
        injective = subsumes_L(s, c, like)
        assert injective == ref_subsumes(s, c, like) == brute_subsumes(s, c, like), (s, c, like)
        velim = subsumes_L_velim(s, c, like)
        assert velim == _ref_subsumes_velim(s, c, like) == brute_subsumes_velim(s, c, like), (s, c, like)
        hits["plain"] += plain
        hits["injective"] += injective
        hits["velim"] += velim
        hits["collapsed"] += plain and not injective
    # the generalizations make the comparison cover accepted pairs, and pairs
    # that only plain subsumption accepts
    assert min(hits["plain"], hits["injective"], hits["velim"]) > 200, hits
    assert hits["collapsed"] > 10, hits


def test_collapsing_literals_subsume_plainly_but_not_injectively():
    s, c = cl("X(?u) | X(?v)"), cl("X(a)")
    assert subsumes(s, c) and ref_subsumes(s, c)
    assert not subsumes_L(s, c, POS_X) and not ref_subsumes(s, c, POS_X)
    assert not brute_subsumes(s, c, POS_X)
    # as many X-literals on each side, but only a collapsing match exists
    s, c = cl("X(?u) | X(?v) | C(?u, ?v)"), cl("X(a) | X(b) | C(a, a)")
    assert subsumes(s, c) and brute_subsumes(s, c)
    assert not subsumes_L(s, c, POS_X) and not brute_subsumes(s, c, POS_X)


def test_swapped_equation_is_matched():
    s, c = cl("?u = b | B(?u)"), cl("f(a) = b | B(f(a))")
    (eq_s,) = [l for l in s.lits if l.is_eq]
    (eq_c,) = [l for l in c.lits if l.is_eq]
    # both sides are stored with their arguments ordered by shape, so only the
    # swapped pattern matches
    assert match_terms(eq_s.args, eq_c.args) is None
    assert subsumes(s, c) and ref_subsumes(s, c) and brute_subsumes(s, c)


def test_missing_function_symbol_rejects_the_pair():
    s, c = cl("B(g(?u))"), cl("B(f(a)) | C(a, b) | B(?v)")
    assert ("g", 1) in s.fn_symbols and ("g", 1) not in c.fn_symbols
    assert not subsumes(s, c)
    assert not subsumes_L(s, c, POS_X)
    assert not ref_subsumes(s, c) and not brute_subsumes(s, c)


def test_empty_clause_subsumes_every_clause():
    empty = Clause.make([])
    rng = random.Random(5)
    for _ in range(40):
        c = _random_diff_clause(rng, max_lits=4)
        for like in (POS_X, NEG_X):
            assert subsumes(empty, c) and subsumes_L(empty, c, like) and subsumes_L_velim(empty, c, like)
            assert ref_subsumes(empty, c, like)


# -- long same-kind chains, the shape of the resolution closure of p01_d2 -----

POS_B = Lit(True, "B", (Var("z"), Var("z")))
C0 = App("c0", ())


def _chain(rng, n, link, tail):
    """The literals of a chain c0 -> y1 -> ... -> yn of n links over randomly
    named variables, in chain order, with X(yn) at the far end when `tail`.
    A link a -> b is B(a, b), or the equation a = f(b) in a random
    orientation.  The clauses of the resolution closure of p01_d2 are B
    chains with a tail."""
    nodes = [C0] + [Var(f"y{i}") for i in rng.sample(range(100), n)]
    lits = []
    for a, b in zip(nodes, nodes[1:]):
        if link == "B":
            lits.append(Lit(True, "B", (a, b)))
        else:
            args = (a, App("f", (b,)))
            lits.append(Lit(True, "=", args if rng.random() < 0.5 else args[::-1]))
    if tail:
        lits.append(Lit(True, "X", (nodes[-1],), True))
    return lits


def _chain_target(rng, s_lits, link):
    """A clause to test a chain against: another chain, an instance of it
    (often with extra branches), a cycle that the chain only maps onto by
    collapsing its links, or an instance whose links are undone by
    disequation constraints that variable elimination removes.  An instance
    may also lose one literal, which breaks the chain."""
    roll = rng.random()
    if roll < 0.3:
        return _chain(rng, rng.randrange(1, 31), link, rng.random() < 0.7)
    if roll < 0.45:
        z = Var("z")
        loop = Lit(True, "B", (z, z)) if link == "B" else Lit(True, "=", (z, App("f", (z,))))
        head = Lit(True, "B", (C0, z)) if link == "B" else Lit(True, "=", (C0, App("f", (z,))))
        return [head, loop, Lit(True, "X", (z,), True)]
    names = sorted({v for l in s_lits for v in lit_vars(l)})
    sigma = {}
    for v in names:
        roll = rng.random()
        if roll < 0.1:
            sigma[v] = App(rng.choice(("a", "c0")), ())
        elif roll < 0.15:
            sigma[v] = App("f", (App("a", ()),))
        elif roll < 0.2:
            sigma[v] = Var(rng.choice(names))
    lits = [subst_lit(l, sigma) for l in s_lits]
    for _ in range(rng.randrange(3)):  # a branch off the chain
        lits.append(Lit(True, "B", (Var(rng.choice(names)), Var(f"w{len(lits)}"))))
    if rng.random() < 0.4:
        for k in rng.sample(range(len(lits)), min(2, len(lits))):
            l = lits[k]
            held = [i for i, t in enumerate(l.args) if isinstance(t, Var)]
            if held:
                i = rng.choice(held)
                w = Var(f"e{k}")
                lits[k] = Lit(l.pos, l.head, l.args[:i] + (w,) + l.args[i + 1 :], l.pvar)
                lits.append(Lit(False, "=", (w, l.args[i])))
    if rng.random() < 0.3:
        lits.remove(rng.choice(lits))  # break the chain
    return lits


def _chain_pairs(seed):
    """Pairs of the chain generator, in order: each a chain in chain order,
    the same literals shuffled, a target clause and a marked literal."""
    rng = random.Random(seed)
    for k in itertools.count():
        link = ("B", "=")[k % 3 == 2]
        chain = _chain(rng, rng.randrange(1, 31), link, rng.random() < 0.8)
        shuffled = rng.sample(chain, len(chain))
        c = Clause.make(_chain_target(rng, chain, link))
        yield chain, shuffled, c, rng.choice((POS_B, POS_X))


def test_long_chains_agree_with_reference():
    """Chains of 1-30 links of one literal kind: the in-place matcher must
    follow the shared variables from the ground end of the chain in whatever
    order its literals come, and agree with the copying reference matcher,
    plain, injective and modulo constraint unfolding.  The reference gets the
    chain in chain order, which keeps its search linear."""
    hits = {"plain": 0, "injective": 0, "velim": 0, "collapsed": 0, "unfolded": 0, "long": 0}
    for chain, shuffled, c, like in itertools.islice(_chain_pairs(1602), 80):
        ref_s, s = Clause(tuple(chain)), Clause.make(shuffled)
        plain = subsumes(s, c)
        assert plain == ref_subsumes(ref_s, c) == subsumes(Clause(tuple(shuffled)), c), (s, c)
        injective = subsumes_L(s, c, like)
        assert injective == ref_subsumes(ref_s, c, like), (s, c, like)
        velim = subsumes_L_velim(s, c, like)
        assert velim == any(ref_subsumes(ref_s, e, like) for e in brute_velim_closure(c)), (s, c, like)
        hits["plain"] += plain
        hits["injective"] += injective
        hits["velim"] += velim
        hits["collapsed"] += plain and not injective
        hits["unfolded"] += velim and not injective
        hits["long"] += plain and len(s.lits) > 20
    assert min(hits.values()) > 3, hits
    assert min(hits["plain"], hits["injective"], hits["velim"]) > 20, hits


# -- the argument index: probes by ground and bound arguments -----------------

GROUND = (App("a", ()), C0, App("f", (C0,)), App("f", (App("a", ()),)))


def _index_target(rng):
    """A target as generated, not canonicalized, so that its equations keep
    either orientation: B and X literals over constants, nested ground terms
    and rigid variables, equations and disequations, and often a reflexive
    equation t = t."""
    terms = GROUND + (Var("w0"), Var("w1"))
    lits = []
    for _ in range(rng.randrange(1, 6)):
        roll = rng.random()
        if roll < 0.4:
            lits.append(Lit(rng.random() < 0.7, "B", (rng.choice(terms), rng.choice(terms))))
        elif roll < 0.6:
            lits.append(Lit(rng.random() < 0.7, "X", (rng.choice(terms),), True))
        else:
            t = rng.choice(terms)
            lits.append(Lit(rng.random() < 0.6, "=", (t, t if roll < 0.72 else rng.choice(terms))))
    return Clause(tuple(dict.fromkeys(lits)))


def _index_pattern(rng, c):
    """Mostly some literals of c in which each argument either stays (a
    ground argument, nested or not, is a probe from the start) or becomes
    one of three variables, which may repeat inside a literal and link the
    literals (a probe once bound); an equation may have its sides swapped.
    A literal picked twice gives two that may collapse onto one.  Sometimes
    a random literal is added, and sometimes the pattern is empty."""
    if rng.random() < 0.05:
        return Clause(())
    names = [Var(n) for n in ("u0", "u1", "u2")]
    picked = [l for l in c.lits if rng.random() < 0.6] or [rng.choice(c.lits)]
    if rng.random() < 0.3:
        picked.append(rng.choice(picked))
    lits = []
    for l in picked:
        args = tuple(t if type(t) is App and rng.random() < 0.6 else rng.choice(names) for t in l.args)
        if len(args) == 2 and rng.random() < 0.2:
            args = (args[0], args[0])
        if l.is_eq and rng.random() < 0.5:
            args = args[::-1]
        lits.append(Lit(l.pos, l.head, args, l.pvar))
    if rng.random() < 0.25:
        lits.append(Lit(True, "B", (rng.choice(names + list(GROUND)), rng.choice(names))))
    return Clause(tuple(dict.fromkeys(lits)))


def _matches_only_swapped(l, c):
    """An equation of the pattern with a ground side that matches a literal
    of c only with its sides swapped."""
    if not l.is_eq or all(isinstance(t, Var) for t in l.args):
        return False
    same = [m.args for m in c.lits if m.kind == l.kind]
    return all(match_terms(l.args, a) is None for a in same) and any(
        match_terms(l.args[::-1], a) is not None for a in same
    )


def test_indexed_matcher_agrees_with_reference_and_brute_force():
    """Candidates read from the target's argument index under a probe's
    value must give the answers of the reference matcher and of brute force,
    plain, injective and modulo constraint unfolding."""
    rng = random.Random(2801)
    hits = {"plain": 0, "injective": 0, "velim": 0, "collapsed": 0, "swapped": 0, "reflexive": 0, "empty": 0}
    for k in range(600):
        c = _index_target(rng)
        s = _index_pattern(rng, c)
        like = (POS_B, POS_X)[k % 2]
        plain = subsumes(s, c)
        assert plain == ref_subsumes(s, c) == brute_subsumes(s, c), (s, c)
        injective = subsumes_L(s, c, like)
        assert injective == ref_subsumes(s, c, like) == brute_subsumes(s, c, like), (s, c, like)
        velim = subsumes_L_velim(s, c, like)
        assert velim == _ref_subsumes_velim(s, c, like) == brute_subsumes_velim(s, c, like), (s, c, like)
        hits["plain"] += plain
        hits["injective"] += injective
        hits["velim"] += velim
        hits["collapsed"] += plain and not injective
        hits["swapped"] += plain and any(_matches_only_swapped(l, c) for l in s.lits)
        hits["reflexive"] += plain and any(l.is_eq and l.args[0] == l.args[1] for l in c.lits)
        hits["empty"] += not s.lits
    # accepted pairs of every relation, pairs that only plain subsumption
    # accepts, ground equations matched against their swapped side, targets
    # with t = t, and empty patterns
    assert min(hits["plain"], hits["injective"], hits["velim"]) > 100, hits
    assert min(hits["swapped"], hits["reflexive"], hits["empty"], hits["collapsed"]) > 5, hits


# -- deterministic work bounds: matcher steps, not seconds ----------------------


def _counting_binds(monkeypatch):
    """Count every call of the matcher's `_bind`, the nested ones included."""
    calls = [0]
    bind = subsumption._bind

    def counted(*args):
        calls[0] += 1
        return bind(*args)

    monkeypatch.setattr(subsumption, "_bind", counted)
    return calls


def test_p01_d2_refusal_binds_within_bound(monkeypatch):
    """The resolution closure of p01_d2 makes its 491 subsumption tests
    between B chains of 13-24 literals.  With candidates read under a bound
    argument it makes about 4,000 `_bind` calls (48,611 when every literal
    of the right kind was tried)."""
    _, d = corpus_derivation("p01_main", "p01_d2")
    calls = _counting_binds(monkeypatch)
    with pytest.raises(LresBudgetExceeded) as got:
        extract_witness(d, mode="resolution")
    assert got.value.tests == 491
    assert calls[0] <= 6000, calls


def test_chain_against_two_cycles_binds_within_bound(monkeypatch):
    """Pair 130 of the chain generator at seed 7: a 29-literal B chain that
    ends in X against a 32-literal target with B(c0,?x)/B(?x,c0) 2-cycles.
    The search still backtracks, but each literal tries only the target
    literals that hold its bound argument: about 92,000 `_bind` calls
    (921,485 when every B literal was tried)."""
    _, shuffled, c, _ = next(itertools.islice(_chain_pairs(7), 130, None))
    s = Clause.make(shuffled)
    assert (len(s.lits), len(c.lits)) == (29, 32)
    calls = _counting_binds(monkeypatch)
    got = subsumes(s, c)
    assert calls[0] <= 200_000, calls
    # the reference tries every B literal of the target at each step, so it
    # takes seconds here
    assert got == ref_subsumes(s, c)
