"""Inference rules: constraint resolution, factoring, constraint handling,
variable elimination, paramodulation, and the purity checks."""

import itertools
import random

import pytest

from wscan.calculus import (
    all_paramodulants,
    constraint_eliminate,
    constraint_factor,
    constraint_resolve,
    factor_pairs,
    is_purified,
    paramodulant,
    resolution_partners,
    variable_eliminate,
)
from wscan.logic import EQ, Clause, Lit, PointedClause, Var, const

from conftest import cl, clauses_of, random_clause, random_term


def pointed(text, head="X", pos=None, header="X/1"):
    """Point at the first X-literal (optionally of a given polarity)."""
    c = cl(text, header)
    for i, l in enumerate(c.lits):
        if l.pvar and l.head == head and (pos is None or l.pos == pos):
            return PointedClause(c, i)
    raise AssertionError(f"no {head} literal in {text}")


def test_resolution_builds_constraints_not_unifiers():
    p = pointed("X(a)", pos=True)
    q = pointed("~X(c)", pos=False)
    r = constraint_resolve(p, q)
    assert r == cl("a != c")


def test_resolution_with_rest_literals():
    p = pointed("X(a)", pos=True)
    q = pointed("~X(?u) | B(?u)", pos=False)
    r = constraint_resolve(p, q)
    assert r == cl("a != ?u | B(?u)")


def test_resolution_renames_premises_apart():
    p = pointed("X(?u) | B(?u)", pos=True)
    q = pointed("~X(?u) | C(?u, ?u)", pos=False)
    r = constraint_resolve(p, q)
    # the two u's must not be identified by the renaming
    assert len(r.vars) == 2
    assert len(r.lits) == 3


def test_resolution_requires_opposite_polarity():
    p = pointed("X(a)", pos=True)
    q = pointed("X(c)", pos=True)
    with pytest.raises(ValueError):
        constraint_resolve(p, q)


def test_factor_adds_pairwise_constraints():
    c = cl("X(?u) | X(f(?v)) | B(?u)")
    i = next(k for k, l in enumerate(c.lits) if l.pvar and not isinstance(l.args[0], Var))
    j = next(k for k, l in enumerate(c.lits) if l.pvar and isinstance(l.args[0], Var))
    r = constraint_factor(c, i, j)
    assert r == cl("?u != f(?v) | X(f(?v)) | B(?u)")


def test_factor_rejects_mismatched_literals():
    c = cl("X(?u) | ~X(?v)")
    i, j = (k for k, l in enumerate(c.lits) if l.pvar)
    with pytest.raises(ValueError):
        constraint_factor(c, i, j)
    with pytest.raises(ValueError):
        constraint_factor(cl("a != b | B(a) | B(c)"), 0, 1)


def test_constraint_eliminate_greedy():
    c = cl("?u != a | B(?u)")
    r = constraint_eliminate(c)
    assert r == cl("B(a)")
    assert constraint_eliminate(cl("B(a)")) is None
    # unsatisfiable selection: nothing to eliminate on a ground apart pair
    assert constraint_eliminate(cl("a != c | B(a)")) is None


def test_constraint_eliminate_explicit_selection():
    c = cl("?u != a | ?v != f(?u) | B(?v)")
    r = constraint_eliminate(c, (0, 1))
    assert r == cl("B(f(a))")
    assert constraint_eliminate(c, (2,)) is None  # not a constraint literal


def test_variable_eliminate_is_deterministic_fixpoint():
    c = cl("?u != a | ?v != f(?u) | X(?v) | B(?u)")
    r, changed = variable_eliminate(c)
    assert changed
    assert r == cl("X(f(a)) | B(a)")
    r2, changed2 = variable_eliminate(r)
    assert not changed2 and r2 == r


def test_variable_eliminate_skips_ground_and_occurs():
    c1 = cl("a != c | B(a)")
    r1, ch1 = variable_eliminate(c1)
    assert not ch1 and r1 == c1
    c2 = cl("?u != f(?u) | B(?u)")
    r2, ch2 = variable_eliminate(c2)
    assert not ch2 and r2 == c2


def test_variable_eliminate_reflexive_var_constraint():
    c = cl("?u != ?u | B(?u)")
    r, ch = variable_eliminate(c)
    assert ch and r == cl("B(?u)")


def test_paramodulation_both_orientations():
    c1 = cl("a = b")
    c2 = cl("B(a)")
    outs = {r for r, *_ in all_paramodulants(c1, c2)}
    assert cl("B(b)") in outs
    c3 = cl("B(b)")
    outs2 = {r for r, *_ in all_paramodulants(c1, c3)}
    assert cl("B(a)") in outs2


def test_paramodulation_into_subterm_position():
    c1 = cl("a = b")
    c2 = cl("B(f(a))")
    r = paramodulant(c1, 0, "lr", c2, 0, (0, 0))
    assert r == cl("B(f(b))")


def test_paramodulation_var_positions_excluded_by_default():
    c1 = cl("a = b")
    c2 = cl("B(?u)")
    assert all(r != cl("B(b)") for r, *_ in all_paramodulants(c1, c2))


def test_paramodulation_carries_side_literals():
    c1 = cl("a = b | C(a, a)")
    c2 = cl("B(a) | X(a)")
    outs = {r for r, *_ in all_paramodulants(c1, c2)}
    assert any(
        any(l.head == "C" for l in r.lits) and any(l.head == "B" for l in r.lits)
        for r in outs
    )


def test_is_purified_accepts_covered_resolvents():
    n = frozenset(clauses_of("X(a)\nB(a)"))
    p = pointed("~X(?u) | B(?u)", pos=False)
    assert is_purified(p, n)


def test_is_purified_rejects_missing_cover():
    n = frozenset(clauses_of("X(a)\nC(a, a)"))
    p = pointed("~X(?u) | B(?u)", pos=False)
    assert not is_purified(p, n)



# -- each site enumerator lists exactly the sites its rule accepts -------------


def _accepts(rule, *args) -> bool:
    try:
        rule(*args)
    except ValueError:
        return False
    return True


def test_resolution_partners_are_the_sites_constraint_resolve_accepts():
    rng = random.Random(409)
    found = 0
    for _ in range(300):
        c, d = random_clause(rng), random_clause(rng)
        for i in range(len(c.lits)):
            p = PointedClause(c, i)
            got = [q.index for q in resolution_partners(p, d)]
            want = [j for j in range(len(d.lits))
                    if _accepts(constraint_resolve, p, PointedClause(d, j))]
            assert got == want, (p, d)
            found += len(got)
    assert found > 50


def test_factor_pairs_are_the_pairs_constraint_factor_accepts():
    rng = random.Random(410)
    found = 0
    for _ in range(300):
        c = random_clause(rng, max_lits=5)
        pairs = itertools.product(range(len(c.lits)), repeat=2)
        want = [(i, j) for i, j in pairs if _accepts(constraint_factor, c, i, j)]
        assert list(factor_pairs(c)) == want, c
        found += len(want)
    assert found > 50


def test_paramodulant_is_the_entry_of_all_paramodulants_it_names():
    # paramodulant looks one descriptor up in the site walk: the same
    # clause where the walk gives one, None at every other position
    rng = random.Random(411)
    found = 0
    for _ in range(300):
        eq = Lit(True, EQ, (random_term(rng), random_term(rng)))
        c1 = Clause.make((eq, *random_clause(rng, max_lits=2).lits))
        c2 = random_clause(rng)
        walk = {tuple(site): r for r, *site in all_paramodulants(c1, c2)}
        sites = itertools.product(range(len(c1.lits)), ("lr", "rl"), range(len(c2.lits)),
                                  [(0,), (1,), (2,), (0, 0), (1, 0), (0, 0, 0), (0, 1)])
        for ei, o, li, path in sites:
            got = paramodulant(c1, ei, o, c2, li, path)
            assert got == walk.get((ei, o, li, path)), (c1, c2, ei, o, li, path)
        found += len(walk)
    assert found > 50

