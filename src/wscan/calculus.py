"""Inference rules on constrained clauses.

Resolution on predicate-variable literals does not unify: the resolvent of
P = X(t1..tn) | C  against  Q = ~X(s1..sn) | C'  carries the disequation
constraints  ti != si  instead.  Unification is recovered piecemeal by the
constraint-elimination and variable-elimination rules.  Paramodulation
handles the equality literals of ordinary (non-variable) predicates.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from .logic import (
    EQ,
    App,
    Clause,
    Lit,
    PointedClause,
    Term,
    mgu,
    pointed,
    rename_clause_apart,
    subst_lit,
    velim_candidates,
)
from .subsumption import subsumes_L_velim


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

    The block is the selection, a list of literal indices, or else the
    longest prefix of the constraint block that still has a simultaneous
    unifier (constraints sort to the front of a canonical clause).  Returns
    None when the block is empty, holds a literal that is no constraint, or
    does not unify.
    """
    def unifier(block):
        return mgu(c.lits[i].args for i in block)

    if selection is None:
        cons = [i for i, l in enumerate(c.lits) if l.is_constraint]
        n = 0
        while n < len(cons) and unifier(cons[: n + 1]) is not None:
            n += 1
        selection = cons[:n]
    drop = set(selection)
    if not drop or any(not c.lits[i].is_constraint for i in drop):
        return None
    sigma = unifier(selection)
    if sigma is None:
        return None
    return Clause.make(subst_lit(l, sigma) for i, l in enumerate(c.lits) if i not in drop)


def variable_eliminate(c: Clause) -> tuple[Clause, bool]:
    """Exhaustively rewrite  v != t | C  ~>  C[v <- t]  (v not inside t).

    The leftmost eligible constraint is taken each round, so the result is
    deterministic on canonical clauses.  Returns (result, anything happened).
    """
    lits = list(c.lits)
    changed = False
    while True:
        pick = next(velim_candidates(lits), None)
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


def _positions(
    args: tuple[Term, ...], here: tuple[int, ...] = ()
) -> Iterator[tuple[tuple[int, ...], App]]:
    """The non-variable subterms of an argument tuple with their paths (the
    first element selects the argument), in pre-order."""
    for i, t in enumerate(args):
        if isinstance(t, App):
            yield here + (i,), t
            yield from _positions(t.args, here + (i,))


def _replace_at(args: tuple[Term, ...], path: tuple[int, ...], new: Term) -> tuple[Term, ...]:
    """The argument tuple with the subterm at `path` replaced by `new`."""
    i, t = path[0], args[path[0]]
    sub = App(t.fn, _replace_at(t.args, path[1:], new)) if path[1:] else new
    return args[:i] + (sub,) + args[i + 1 :]


def _paramodulants(c1: Clause, c2: Clause, want: Optional[tuple] = None):
    """The paramodulation site walk of `all_paramodulants`; c1 is renamed
    apart from c2 once, if it has an equation.  Given a descriptor `want`, it
    unifies and builds at that site only."""
    eqs = [i for i, l in enumerate(c1.lits) if l.is_eq and l.pos]
    c1r = rename_clause_apart(c1, c2.vars) if eqs else c1
    for ei in eqs:
        a, b = c1r.lits[ei].args
        for orient, s, t in (("lr", a, b), ("rl", b, a)):
            for li, lit in enumerate(c2.lits):
                for path, r in _positions(lit.args):
                    if want and want != (ei, orient, li, path):
                        continue
                    sigma = mgu([(s, r)])
                    if sigma is None:
                        continue
                    new = Lit(lit.pos, lit.head, _replace_at(lit.args, path, t), lit.pvar)
                    lits = [l for k, l in enumerate(c1r.lits) if k != ei]
                    lits += [new if k == li else l for k, l in enumerate(c2.lits)]
                    yield Clause.make(subst_lit(l, sigma) for l in lits), ei, orient, li, path


def all_paramodulants(
    c1: Clause, c2: Clause
) -> Iterator[tuple[Clause, int, str, int, tuple[int, ...]]]:
    """Every paramodulant of a positive equation of c1, oriented "lr" or "rl",
    into a non-variable subterm of c2, with its descriptor (eq literal,
    orientation, target literal, argument path whose first element selects
    the argument)."""
    return _paramodulants(c1, c2)


def paramodulant(
    c1: Clause, eq_index: int, orient: str, c2: Clause, lit_index: int, path: tuple[int, ...]
) -> Optional[Clause]:
    """The paramodulant that `all_paramodulants` gives with this descriptor,
    or None when it gives none; only that one is built."""
    return next(_paramodulants(c1, c2, (eq_index, orient, lit_index, path)), (None,))[0]


# ---------------------------------------------------------------------------
# bounded resolution closure and purity


def resolution_partners(p: PointedClause, c: Clause) -> Iterator[PointedClause]:
    """Pointed variants of c whose designated literal resolves against p's."""
    want = p.designated.dual()
    for i, l in enumerate(c.lits):
        if l.same_kind(want):
            yield pointed(c, i)


def memoized(memo: Optional[dict], fn: Callable, *args):
    """fn(*args), looked up in `memo` under the key (fn, *args) and stored
    there on a miss; without a memo, just the call.  Only for functions whose
    result depends on nothing but the values of their arguments: canonical
    clauses, pointed clauses and literals, which are immutable."""
    if memo is None:
        return fn(*args)
    key = (fn, *args)
    try:
        return memo[key]
    except KeyError:
        out = memo[key] = fn(*args)
        return out


def resolvent_covers(
    p: PointedClause, n: frozenset[Clause], memo: Optional[dict] = None, /
) -> Iterator[tuple[Clause, int, Iterator[Clause]]]:
    """For each partner clause in n and literal index that resolves with p:
    the clauses of n that cover the resolvent modulo constraint unfolding
    (with injective matching on the literals like the partner's).  A cover
    iterator reads the current resolvent, so consume it before taking the
    next one.  Resolvents and cover tests go through `memo` when one is given
    (see `memoized`).  No caller needs the `sorted(n, key=str)` order, but it
    makes the enumeration deterministic; through the search memo it no longer
    saves tests (a traced graph_search pass: 8,976 subsumption tests sorted,
    8,942 unsorted)."""
    like = p.designated.dual()
    order = sorted(n, key=str)
    for c in order:
        for q in resolution_partners(p, c):
            r = memoized(memo, constraint_resolve, p, q)
            yield c, q.index, (s for s in order if memoized(memo, subsumes_L_velim, s, r, like))


def is_purified(p: PointedClause, n: frozenset[Clause], memo: Optional[dict] = None, /) -> bool:
    """Is every one-step resolvent of p against n covered by a clause of n?
    A search passes its memo (see `resolvent_covers`)."""
    return all(
        next(covers, None) is not None for _, _, covers in resolvent_covers(p, n, memo)
    )
