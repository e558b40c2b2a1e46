"""Inference rules on constrained clauses.

Resolution on predicate-variable literals does not unify: the resolvent of
P = X(t1..tn) | C  against  Q = ~X(s1..sn) | C'  carries the disequation
constraints  ti != si  instead.  Unification is recovered piecemeal by the
constraint-elimination and variable-elimination rules.  Paramodulation
handles the equality literals of ordinary (non-variable) predicates.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .logic import (
    EQ,
    App,
    Clause,
    Lit,
    PointedClause,
    Term,
    Var,
    mgu,
    pointed,
    rename_clause_apart,
    subst_lit,
)
from .subsumption import _velim_candidates, subsumes_L_velim


def constraint_resolve(p: PointedClause, q: PointedClause) -> Clause:
    """Resolvent of two pointed clauses on their designated literals.

    The designated literals must have the same head and arity and opposite
    polarity; their argument tuples turn into disequation constraints.
    Premises are renamed apart.
    """
    dp, dq = p.designated, q.designated
    if dp.head != dq.head or dp.pvar != dq.pvar or len(dp.args) != len(dq.args):
        raise ValueError(f"designated literals disagree: {dp} vs {dq}")
    if dp.pos == dq.pos:
        raise ValueError(f"designated literals must have opposite polarity: {dp} vs {dq}")
    qc = rename_clause_apart(q.clause, p.clause.vars)
    dq = qc.lits[q.index]
    rest_q = tuple(l for i, l in enumerate(qc.lits) if i != q.index)
    constraints = tuple(Lit(False, EQ, (a, b)) for a, b in zip(dp.args, dq.args))
    return Clause.make(constraints + p.rest + rest_q)


def constraint_factor(c: Clause, i: int, j: int) -> Clause:
    """Factor literals i and j (same predicate and polarity): drop j and add
    the pairwise disequation constraints between their arguments."""
    if i == j:
        raise ValueError("factoring needs two distinct literals")
    li, lj = c.lits[i], c.lits[j]
    if li.is_eq or lj.is_eq:
        raise ValueError("factoring applies to predicate literals")
    if not li.same_kind(lj):
        raise ValueError(f"literals do not factor: {li} vs {lj}")
    constraints = tuple(Lit(False, EQ, (a, b)) for a, b in zip(li.args, lj.args))
    rest = tuple(l for k, l in enumerate(c.lits) if k != j)
    return Clause.make(constraints + rest)


def factor_pairs(c: Clause) -> Iterator[tuple[int, int]]:
    """The ordered pairs (i, j) of literals of c that `constraint_factor`
    accepts: distinct predicate literals of the same kind."""
    for i, li in enumerate(c.lits):
        for j, lj in enumerate(c.lits):
            if j != i and not li.is_eq and li.same_kind(lj):
                yield i, j


def constraint_eliminate(c: Clause, selection=None) -> Optional[Clause]:
    """Unify a block of disequation constraints of c and drop them.

    With no selection, takes the longest prefix of the constraint block that
    still has a simultaneous unifier (constraints sort to the front of a
    canonical clause).  A selection is a list of literal indices, all of which
    must be constraints and must unify together.  Returns None when nothing
    can be eliminated.
    """
    if selection is None:
        idxs = [i for i, l in enumerate(c.lits) if l.is_constraint]
        chosen: list[int] = []
        sigma: Optional[dict] = {}
        for i in idxs:
            ext = mgu(
                [(c.lits[j].args[0], c.lits[j].args[1]) for j in chosen + [i]]
            )
            if ext is None:
                break
            chosen.append(i)
            sigma = ext
        if not chosen:
            return None
    else:
        chosen = list(selection)
        if not chosen or any(not c.lits[i].is_constraint for i in chosen):
            return None
        sigma = mgu([(c.lits[i].args[0], c.lits[i].args[1]) for i in chosen])
        if sigma is None:
            return None
    drop = set(chosen)
    return Clause.make(
        subst_lit(l, sigma) for i, l in enumerate(c.lits) if i not in drop
    )


def variable_eliminate(c: Clause) -> tuple[Clause, bool]:
    """Exhaustively rewrite  v != t | C  ~>  C[v <- t]  (v not inside t).

    The leftmost eligible constraint is taken each round, so the result is
    deterministic on canonical clauses.  Returns (result, anything happened).
    """
    lits = list(c.lits)
    changed = False
    while True:
        pick = next(_velim_candidates(lits), None)
        if pick is None:
            break
        i, v, t = pick
        sub = {v: t}
        lits = [subst_lit(l, sub) for j, l in enumerate(lits) if j != i]
        changed = True
    if not changed:
        return c, False
    return Clause.make(lits), True


# ---------------------------------------------------------------------------
# paramodulation


def _subterm_at(t: Term, path: tuple[int, ...]) -> Optional[Term]:
    for i in path:
        if isinstance(t, Var) or i >= len(t.args):
            return None
        t = t.args[i]
    return t


def _replace_at(t: Term, path: tuple[int, ...], new: Term) -> Term:
    if not path:
        return new
    assert isinstance(t, App)
    i = path[0]
    args = list(t.args)
    args[i] = _replace_at(args[i], path[1:], new)
    return App(t.fn, tuple(args))


def paramodulant(
    c1: Clause,
    eq_index: int,
    orient: str,
    c2: Clause,
    lit_index: int,
    path: tuple[int, ...],
) -> Optional[Clause]:
    """Paramodulate the equation literal `eq_index` of c1 (oriented "lr" or
    "rl") into the subterm of c2 at literal `lit_index`, argument path `path`
    (first element selects the argument).  Returns None when the rule does not
    apply at that position.
    """
    if not path:
        return None
    eq = c1.lits[eq_index]
    if not (eq.is_eq and eq.pos):
        return None
    if orient not in ("lr", "rl"):
        raise ValueError(f"bad orientation {orient!r}")
    c1r = rename_clause_apart(c1, c2.vars)
    eq = c1r.lits[eq_index]
    s, t = eq.args if orient == "lr" else (eq.args[1], eq.args[0])
    target = c2.lits[lit_index]
    if path[0] >= len(target.args):
        return None
    r = _subterm_at(target.args[path[0]], path[1:])
    if r is None or isinstance(r, Var):
        return None
    sigma = mgu([(s, r)])
    if sigma is None:
        return None
    new_args = list(target.args)
    new_args[path[0]] = _replace_at(target.args[path[0]], path[1:], t)
    new_target = Lit(target.pos, target.head, tuple(new_args), target.pvar)
    lits = [l for k, l in enumerate(c1r.lits) if k != eq_index]
    lits += [new_target if k == lit_index else l for k, l in enumerate(c2.lits)]
    return Clause.make(subst_lit(l, sigma) for l in lits)


def _positions(t: Term, here: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], Term]]:
    yield here, t
    if isinstance(t, App):
        for i, a in enumerate(t.args):
            yield from _positions(a, here + (i,))


def all_paramodulants(
    c1: Clause, c2: Clause
) -> Iterator[tuple[Clause, int, str, int, tuple[int, ...]]]:
    """Every paramodulant from an equation of c1 into c2, with its descriptor
    (eq literal, orientation, target literal, argument path)."""
    for ei, eq in enumerate(c1.lits):
        if not (eq.is_eq and eq.pos):
            continue
        for orient in ("lr", "rl"):
            for li, lit in enumerate(c2.lits):
                for ai, arg in enumerate(lit.args):
                    for sub, r in _positions(arg, ()):
                        if isinstance(r, Var):
                            continue
                        got = paramodulant(c1, ei, orient, c2, li, (ai,) + sub)
                        if got is not None:
                            yield got, ei, orient, li, (ai,) + sub


# ---------------------------------------------------------------------------
# bounded resolution closure and purity


def resolution_partners(p: PointedClause, c: Clause) -> Iterator[PointedClause]:
    """Pointed variants of c whose designated literal resolves against p's."""
    want = p.designated.dual()
    for i, l in enumerate(c.lits):
        if l.same_kind(want):
            yield pointed(c, i)


def resolvent_covers(
    p: PointedClause, n: frozenset[Clause]
) -> Iterator[tuple[Clause, int, Iterator[Clause]]]:
    """For each partner clause in n and literal index that resolves with p:
    the clauses of n that cover the resolvent modulo constraint unfolding
    (with injective matching on the literals like the partner's).  A cover
    iterator reads the current resolvent, so consume it before taking the
    next one.  No caller needs the `sorted(n, key=str)` order, but it saves work
    (unsorted: 56,905 subsumption tests for 54,863 in a graph_search pass)."""
    like = p.designated.dual()
    order = sorted(n, key=str)
    for c in order:
        for q in resolution_partners(p, c):
            r = constraint_resolve(p, q)
            yield c, q.index, (s for s in order if subsumes_L_velim(s, r, like))


def is_purified(p: PointedClause, n: frozenset[Clause]) -> bool:
    """Is every one-step resolvent of p against n covered by a clause of n?"""
    return all(next(covers, None) is not None for _, _, covers in resolvent_covers(p, n))
