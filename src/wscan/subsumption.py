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
fewest candidates in C, the literals of C of their kind, first, and among
those the literal with the fewest variables not yet bound, so that it
follows shared variables from one literal to the next.  That order compares
C's candidate counts only with each other, so S computes it once per rank
vector of those counts and keeps it (``Clause.pattern_orders``; Gottlob &
Leitsch, "On the efficiency of subsumption algorithms", JACM 1985).  Each
literal in it carries a probe, its first argument that is fixed when it is
reached: a variable bound by an earlier literal, or a ground term.  Its
candidates are then the literals of C that hold the probe's value at that
position, or on either side of an equation, read from C's argument index
(``Clause.lits_by_arg``; Sekar, Ramakrishnan & Voronkov, "Term indexing",
Handbook of Automated Reasoning 2001).  The search binds into one
substitution and undoes the bindings of a failed candidate from a trail.

Nothing here keeps an answer: a clause computes its own unfoldings once
(``Clause.unfoldings``) and keeps them for as long as it lives, and a
derivation search memoizes the answers of ``subsumes`` and
``subsumes_L_velim``, keyed by the two clause values (and the marked
literal), for the length of that one search (see the ``saturation`` module).
"""

from __future__ import annotations

from typing import Optional, Sequence

from .logic import Clause, Lit, Term, Var, lit_vars, term_vars


def is_tautology(c: Clause) -> bool:
    """A clause containing a complementary literal pair.

    Reflexive equations t = t do NOT make a clause a tautology here; they are
    handled by formula simplification and by the prover's own redundancy
    checks, never during purification.  The atoms of the positive literals,
    as ``(head, args, pvar)``, are looked up for each negative one, so no
    dual literal is built.
    """
    atoms = {(l.head, l.args, l.pvar) for l in c.lits if l.pos}
    return any((l.head, l.args, l.pvar) in atoms for l in c.lits if not l.pos)


def has_reflexive_equation(c: Clause) -> bool:
    """True when the clause contains a literal  t = t  (hence is valid)."""
    return any(l.is_eq and l.pos and l.args[0] == l.args[1] for l in c.lits)


def _bind(ps: Sequence[Term], ts: Sequence[Term], sigma: dict, trail: list) -> bool:
    """Extend `sigma` in place so that ps*sigma == ts, pushing each variable
    it binds onto `trail`.  Variables of ts are rigid.  On False some new
    bindings may remain; the caller undoes the trail."""
    for p, t in zip(ps, ts):
        if type(p) is Var:
            got = sigma.get(p.name)
            if got is None:
                sigma[p.name] = t
                trail.append(p.name)
            elif got != t:
                return False
        elif (
            type(t) is Var
            or p.fn != t.fn
            or len(p.args) != len(t.args)
            or not _bind(p.args, t.args, sigma, trail)
        ):
            return False
    return True


def _pattern_order(s: Clause, ranks: tuple[int, ...]) -> tuple:
    """The literals of s in matching order against a target whose candidate
    counts, per kind of ``s.lits_by_kind``, rank as `ranks`; each as
    (literal, kind, probe position, probe), with probe None if it has none."""
    todo = [(r, i, k) for r, (k, ix) in zip(ranks, s.lits_by_kind.items()) for i in ix]
    var_sets = [frozenset(lit_vars(l)) for l in s.lits]
    bound: frozenset[str] = frozenset()
    out = []
    while todo:
        best = min(todo, key=lambda r: (r[0], len(var_sets[r[1]] - bound)))
        todo.remove(best)
        lit = s.lits[best[1]]
        at, fixed = next(((p, t) for p, t in enumerate(lit.args)
                          if (t.name in bound if type(t) is Var else not any(term_vars(t)))), (None, None))
        out.append((lit, best[2], None if lit.is_eq else at, fixed))
        bound |= var_sets[best[1]]
    return tuple(out)


def _subsumes(s: Clause, c: Clause, like: Optional[Lit]) -> bool:
    """Backtracking matcher; when `like` is given, the literals of s of that
    kind must map onto pairwise distinct literals of c."""
    sk, ck = s.lits_by_kind, c.lits_by_kind
    if not sk.keys() <= ck.keys() or not s.fn_symbols <= c.fn_symbols:
        return False
    lk = None if like is None else like.kind
    if lk in sk and len(sk[lk]) > len(ck[lk]):
        return False
    counts = [len(ck[k]) for k in sk]
    levels = sorted(set(counts))
    ranks = tuple(map(levels.index, counts))
    pats = s.pattern_orders.get(ranks)
    if pats is None:
        pats = s.pattern_orders[ranks] = _pattern_order(s, ranks)
    tgt, index = c.lits, c.lits_by_arg
    sigma: dict[str, Term] = {}
    trail: list[str] = []

    def undo(mark: int) -> None:
        while len(trail) > mark:
            del sigma[trail.pop()]

    def go(k: int, used: int) -> bool:
        if k == len(pats):
            return True
        pat, kind, at, fixed = pats[k]
        inj = kind == lk
        if fixed is None:
            cands = ck[kind]
        else:
            cands = index.get((kind, at, sigma[fixed.name] if type(fixed) is Var else fixed), ())
        mark = len(trail)
        for j in cands:
            if inj and used >> j & 1:
                continue
            nxt = used | 1 << j if inj else used
            args = tgt[j].args
            if _bind(pat.args, args, sigma, trail) and go(k + 1, nxt):
                return True
            undo(mark)
            # equality arguments are stored in a normalized orientation, so an
            # instance of the pattern may appear with its sides swapped; with
            # equal sides the swap binds exactly what the match above bound
            if pat.is_eq and args[0] != args[1]:
                if _bind(pat.args, args[::-1], sigma, trail) and go(k + 1, nxt):
                    return True
                undo(mark)
        return False

    return go(0, 0)


def subsumes(s: Clause, c: Clause) -> bool:
    """S subsumes C: some substitution instance of S is a sub(multi)set of C."""
    return _subsumes(s, c, None)


def subsumes_L(s: Clause, c: Clause, like: Lit) -> bool:
    """Subsumption where s's literals of the kind of `like` (same predicate and
    polarity) must have pairwise distinct images in c."""
    return _subsumes(s, c, like)


def subsumes_L_velim(s: Clause, c: Clause, like: Lit) -> bool:
    """S subsumes (injectively on `like`-literals) C or some constraint
    unfolding of C (``Clause.unfoldings``)."""
    return subsumes_L(s, c, like) or any(subsumes_L(s, u, like) for u in c.unfoldings)
