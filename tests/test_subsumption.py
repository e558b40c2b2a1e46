"""Subsumption relations, their brute-force counterparts, and edge cases."""

import random

import pytest

from wscan.logic import Clause, Lit, Var
from wscan.subsumption import (
    has_reflexive_equation,
    is_tautology,
    subsumes,
    subsumes_L,
    subsumes_L_velim,
    velim_closure,
)

from conftest import (
    brute_subsumes,
    brute_subsumes_velim,
    brute_velim_closure,
    cl,
    random_clause,
    reduction_subsumes_L,
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
    assert velim_closure(c) == frozenset({c})


def test_velim_closure_unfolds_variable_constraints():
    c = cl("?v != f(c) | X(?v)")
    assert cl("X(f(c))") in velim_closure(c)


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
        assert brute_velim_closure(c) == set(velim_closure(c))


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
