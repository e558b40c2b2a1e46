"""Subsumption relations between clauses.

Three gradations are used by the solver:

* plain subsumption  (some instance of S is a subset of C),
* injective subsumption relative to a literal kind L (no two distinct
  L-literals of S may collapse onto the same literal of C), and
* the same relation modulo constraint unfolding on the subsumed side:
  S subsumes C if S injectively subsumes some C'' reachable from C by
  eliminating disequation constraints  v != t | C  ~>  C[v <- t].

All three go through one backtracking matcher.  Before it matches anything,
it rejects a pair (S, C) on clause features that every subsumer must share
with C (Schulz, "Simple and Efficient Clause Subsumption with Feature Vector
Indexing", 2013): S may have no literal kind (polarity, head, predicate
variable or not, arity) and no function symbol that C lacks, and in the
injective case no more literals of the marked kind than C has.  Plain
subsumption may map two literals of S onto one of C, so it compares no
counts.  The features are computed once per clause (``Clause.lits_by_kind``,
``Clause.fn_symbols``).  The search then tries the literals of S with the
fewest candidates in C, the literals of C of their kind, first.
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


def _lit_matches(pat: Lit, tgt: Lit, base: dict) -> Iterator[dict]:
    """Each extension of `base` that maps `pat` onto `tgt`, a literal of the
    same kind."""
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
    sk, ck = s.lits_by_kind, c.lits_by_kind
    if not sk.keys() <= ck.keys() or not s.fn_symbols <= c.fn_symbols:
        return False
    lk = None if like is None else like.kind
    if lk in sk and len(sk[lk]) > len(ck[lk]):
        return False
    # (pattern, candidate target indices, injective), fewest candidates first
    pats = sorted(
        ((s.lits[i], ck[k], k == lk) for k, ix in sk.items() for i in ix),
        key=lambda p: len(p[1]),
    )
    tgt = c.lits

    def go(k: int, sigma: dict, used: int) -> bool:
        if k == len(pats):
            return True
        pat, cands, inj = pats[k]
        for j in cands:
            if inj and used >> j & 1:
                continue
            for got in _lit_matches(pat, tgt[j], sigma):
                if go(k + 1, got, used | 1 << j if inj else used):
                    return True
        return False

    return go(0, {}, 0)


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
