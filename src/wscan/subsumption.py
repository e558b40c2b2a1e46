"""Subsumption relations between clauses.

Three gradations are used by the solver:

* plain subsumption  (some instance of S is a subset of C),
* injective subsumption relative to a literal kind L (no two distinct
  L-literals of S may collapse onto the same literal of C), and
* the same relation modulo constraint unfolding on the subsumed side:
  S subsumes C if S injectively subsumes some C'' reachable from C by
  eliminating disequation constraints  v != t | C  ~>  C[v <- t].
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .logic import (
    Clause,
    Lit,
    Term,
    Var,
    is_proper_subterm_var,
    match_terms,
    subst_lit,
)


def is_tautology(c: Clause) -> bool:
    """A clause containing a complementary literal pair.

    Reflexive equations t = t do NOT make a clause a tautology here; they are
    handled by formula simplification and by the prover's own redundancy
    checks, never during purification.
    """
    seen = set()
    for l in c.lits:
        if l.dual() in seen:
            return True
        seen.add(l)
    return False


def has_reflexive_equation(c: Clause) -> bool:
    """True when the clause contains a literal  t = t  (hence is valid)."""
    return any(l.is_eq and l.pos and l.args[0] == l.args[1] for l in c.lits)


def _match_lit(pat: Lit, tgt: Lit, base) -> Iterator[dict]:
    if pat.pos != tgt.pos or pat.head != tgt.head or pat.pvar != tgt.pvar:
        return
    got = match_terms(pat.args, tgt.args, base)
    if got is not None:
        yield got
    if pat.is_eq:
        # equality arguments are stored in a normalized orientation, so an
        # instance of the pattern may only appear with its sides swapped
        swapped = match_terms((pat.args[1], pat.args[0]), tgt.args, base)
        if swapped is not None and swapped != got:
            yield swapped


def _subsumes(s: Clause, c: Clause, like: Optional[Lit]) -> bool:
    """Backtracking matcher; when `like` is given, the literals of s of that
    kind must map onto pairwise distinct literals of c."""
    pats = sorted(
        range(len(s.lits)),
        key=lambda i: sum(1 for m in c.lits if any(True for _ in _match_lit(s.lits[i], m, {}))),
    )
    inj = [like is not None and s.lits[i].same_kind(like) for i in range(len(s.lits))]
    if like is not None and sum(inj) > sum(1 for m in c.lits if m.same_kind(like)):
        return False

    def go(k: int, sigma: dict, used: frozenset) -> bool:
        if k == len(pats):
            return True
        i = pats[k]
        for j, m in enumerate(c.lits):
            if inj[i] and j in used:
                continue
            for got in _match_lit(s.lits[i], m, sigma):
                if go(k + 1, got, used | {j} if inj[i] else used):
                    return True
        return False

    return go(0, {}, frozenset())


def subsumes(s: Clause, c: Clause) -> bool:
    """S subsumes C: some substitution instance of S is a sub(multi)set of C."""
    return _subsumes(s, c, None)


def subsumes_L(s: Clause, c: Clause, like: Lit) -> bool:
    """Subsumption where s's literals of the kind of `like` (same predicate and
    polarity) must have pairwise distinct images in c."""
    return _subsumes(s, c, like)


# ---------------------------------------------------------------------------
# constraint unfolding (one-step elimination of  v != t  constraints)


def _velim_candidates(lits: Sequence[Lit]) -> Iterator[tuple[int, str, Term]]:
    """Each way to eliminate one constraint  v != t  (v not inside t), as
    (literal index, v, t), leftmost constraint first."""
    for i, l in enumerate(lits):
        if not l.is_constraint:
            continue
        a, b = l.args
        if isinstance(a, Var) and not is_proper_subterm_var(a.name, b):
            yield i, a.name, b
        if isinstance(b, Var) and not is_proper_subterm_var(b.name, a):
            yield i, b.name, a


_CLOSURE_CAP = 256


def velim_closure(c: Clause) -> frozenset[Clause]:
    """All clauses reachable by repeatedly eliminating a disequation constraint,
    including c itself.  The set is cut off at a fixed size; that only ever
    weakens relations built on top of it."""
    cached = _closure_cache.get(c)
    if cached is not None:
        return cached
    seen = {c}
    queue = [c]
    while queue and len(seen) < _CLOSURE_CAP:
        cur = queue.pop()
        for i, v, t in _velim_candidates(cur.lits):
            sub = {v: t}
            nxt = Clause.make(subst_lit(l, sub) for j, l in enumerate(cur.lits) if j != i)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    out = frozenset(seen)
    _closure_cache[c] = out
    return out


_closure_cache: dict[Clause, frozenset[Clause]] = {}


def subsumes_L_velim(s: Clause, c: Clause, like: Lit) -> bool:
    """S subsumes (injectively on `like`-literals) some constraint unfolding of C."""
    if subsumes_L(s, c, like):
        return True
    return any(s2 is not c and subsumes_L(s, s2, like) for s2 in velim_closure(c))
