"""Witness extraction: turning an eliminating derivation into a predicate
substitution under which the input clause set is equivalent to the conclusion.

Three ways to build the per-PurDel predicate:

* bounded local resolution closure (`lres`) -- saturate the deleted literal
  against a fresh-constant copy of its dual, reduced up to redundancy;
* greatest-fixpoint expression over `make_alpha`;
* finite iterates `b_k`, with k the largest height of a partner clause in
  the subsumptions that certify purification, the heights being a least
  fixpoint computed level by level (`find_acyclic`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .calculus import constraint_resolve, resolution_partners, resolvent_covers, variable_eliminate
from .logic import (
    EQ,
    FALSE,
    TRUE,
    App,
    Clause,
    FAtom,
    FGfp,
    FNot,
    Lit,
    PointedClause,
    PredExpr,
    Term,
    Var,
    apply_pred_subst,
    canonical_pred_expr,
    fand,
    for_,
    forall,
    formula_has_gfp,
    fresh_name,
    lit_to_formula,
    pointed,
    simplify_pred_expr,
    subst_consts,
    subst_lit,
)
from .saturation import Derivation
from .subsumption import subsumes


# ---------------------------------------------------------------------------
# clause sets over fresh handle constants, read as predicate expressions


@dataclass(frozen=True)
class ClausePredicate:
    """A conjunction of (universally closed) clauses over handle constants
    `consts`; abstracting the handles gives a predicate of that arity."""

    consts: tuple[str, ...]
    clauses: frozenset[Clause]

    def to_pred_expr(self) -> PredExpr:
        """The conjunction with the handles abstracted, never negated:
        `_purdel_pred` complements it where the deleted literal is positive."""
        # not `u`: canonical clause variables are u0, u1, ..., and a parameter
        # of that name would be captured by the clause's quantifier
        params = tuple(f"w{k}" for k in range(len(self.consts)))
        m = {c: Var(p) for c, p in zip(self.consts, params)}
        parts = [
            forall(c.vars, for_(*[lit_to_formula(_lit_subst_consts(l, m)) for l in c.lits]))
            for c in sorted(self.clauses, key=lambda c: (len(c.lits), str(c)))
        ]
        return simplify_pred_expr(PredExpr(params, fand(*parts)))


def _lit_subst_consts(l: Lit, m: dict[str, Term]) -> Lit:
    return Lit(l.pos, l.head, tuple(subst_consts(a, m) for a in l.args), l.pvar)


def _handles(p: PointedClause) -> tuple[str, ...]:
    """Fresh handle constants for the arguments of p's designated literal.
    `to_pred_expr` abstracts every occurrence of a handle, so none may share
    its name with a function symbol of p's clause."""
    taken = {name for name, _ in p.clause.fn_symbols}
    return tuple(fresh_name("c", taken) for _ in p.designated.args)


def _start_lit(p: PointedClause, consts: tuple[str, ...]) -> Lit:
    d = p.designated
    return Lit(not d.pos, d.head, tuple(App(c, ()) for c in consts), pvar=True)


def _reduce(clauses: set[Clause]) -> set[Clause]:
    """Inter-reduce by plain subsumption (keeping the canonically first of any
    mutually subsuming pair)."""
    kept: list[Clause] = []
    for c in sorted(clauses, key=lambda c: (len(c.lits), str(c))):
        if not any(subsumes(k, c) for k in kept):
            kept.append(c)
    return set(kept)


class LresBudgetExceeded(Exception):
    def __init__(self, budget: int, inferences: int, tests: int):
        super().__init__(
            f"local resolution closure did not stabilize within {budget} work units "
            f"({inferences} inferences, {tests} subsumption tests)"
        )
        self.budget = budget
        self.inferences = inferences
        self.tests = tests


def lres(p: PointedClause, budget: int = 512) -> ClausePredicate:
    """Close {dual of the designated literal, on fresh handle constants} under
    resolving with p, with eager variable elimination and subsumption
    reduction.  The budget is in work units: one per inference and one per
    subsumption test of the reduction, so the work before a refusal does not
    grow with the closure.  Raises LresBudgetExceeded when the closure does
    not stabilize within it."""
    consts = _handles(p)
    start = Clause.make([_start_lit(p, consts)])
    # a list, not a set: the tests run in insertion order, so the work spent
    # does not depend on how clauses hash
    out: list[Clause] = [start]
    frontier = [start]
    spent = [0, 0]  # inferences, subsumption tests

    def charge(i: int) -> None:
        spent[i] += 1
        if spent[0] + spent[1] > budget:
            raise LresBudgetExceeded(budget, *spent)

    def test(s: Clause, c: Clause) -> bool:
        charge(1)
        return subsumes(s, c)

    while frontier:
        next_frontier: list[Clause] = []
        for c in frontier:
            for q in resolution_partners(p, c):
                charge(0)
                r, _ = variable_eliminate(constraint_resolve(p, q))
                if any(test(s, r) for s in out):
                    continue
                out = [s for s in out if not test(r, s)]
                out.append(r)
                next_frontier.append(r)
        frontier = next_frontier
    return ClausePredicate(consts, frozenset(out))


# ---------------------------------------------------------------------------
# alpha and the B iterates


def _slots_and_rest(p: PointedClause) -> tuple[list[Lit], list[Lit]]:
    """The recursion slots of p (the literals of its own clause that resolve
    with its designated literal) and the rest, each in clause order."""
    slots = [q.designated for q in resolution_partners(p, p.clause)]
    rest = [l for l in p.rest if l not in slots]
    return slots, rest


def make_alpha(p: PointedClause) -> tuple[str, PredExpr]:
    """The single-step unfolding of the deleted literal as a predicate
    expression with a free recursion variable Y: parameters must avoid the
    designated literal, satisfy the rest of the clause, or recurse into Y at
    the positions the clause hands the predicate to."""
    d = p.designated
    y = fresh_name("Y", {l.head for l in p.clause.lits if l.pvar})
    taken = set(p.clause.vars)
    params = tuple(fresh_name("w", taken) for _ in d.args)
    slots, rest = _slots_and_rest(p)
    disj = (
        [FNot(FAtom(EQ, (Var(u), t))) for u, t in zip(params, d.args)]
        + [lit_to_formula(l) for l in rest]
        + [FAtom(y, l.args, pvar=True) for l in slots]
    )
    body = fand(
        lit_to_formula(Lit(not d.pos, d.head, tuple(Var(u) for u in params), d.pvar)),
        forall(sorted(p.clause.vars), for_(*disj)),
    )
    return y, simplify_pred_expr(PredExpr(params, body))


def gfp_pred_expr(p: PointedClause) -> PredExpr:
    """gfp over make_alpha, as a predicate expression (the gfp node is elided
    by the simplifier when the recursion variable vanishes)."""
    y, alpha = make_alpha(p)
    body = FGfp(y, alpha.params, alpha.body, tuple(Var(u) for u in alpha.params))
    return simplify_pred_expr(PredExpr(alpha.params, body))


def b_k(p: PointedClause, k: int) -> ClausePredicate:
    """The k-th iterate: b_0 is the empty (false) clause, and each further
    level resolves the designated literal away once more, branching over the
    previous level at every recursion slot."""
    consts = _handles(p)
    level: set[Clause] = {Clause.make([])}
    if k == 0:
        return ClausePredicate(consts, frozenset(level))
    slots, rest = _slots_and_rest(p)
    constraints = [
        Lit(False, EQ, (App(c, ()), t)) for c, t in zip(consts, p.designated.args)
    ]
    for _ in range(k):
        nxt: set[Clause] = {Clause.make([_start_lit(p, consts)])}
        choices = sorted(level, key=lambda c: (len(c.lits), str(c)))
        for pick in itertools.product(choices, repeat=len(slots)):
            lits = list(constraints) + list(rest)
            taken = set(p.clause.vars)
            for slot, r in zip(slots, pick):
                lits.extend(_instantiate(r, consts, slot.args, taken))
            c2, _ = variable_eliminate(Clause.make(lits))
            nxt.add(c2)
        level = _reduce(nxt)
    return ClausePredicate(consts, frozenset(level))


def _instantiate(r: Clause, consts: tuple[str, ...], args: tuple, taken: set[str]) -> list[Lit]:
    """r with the handles replaced by args and its variables renamed apart
    from taken, which gains the new names."""
    ren = {v: Var(fresh_name("z", taken)) for v in r.vars}
    m = dict(zip(consts, args))
    return [_lit_subst_consts(subst_lit(l, ren), m) for l in r.lits]


# ---------------------------------------------------------------------------
# certificate depth from the purification subsumptions


def find_acyclic(p: PointedClause, n: frozenset[Clause]) -> Optional[int]:
    """The least depth of a certificate for deleting p from n, in which p
    must be purified: over the ways to pick one cover per resolvent that make
    the graph (partner -> cover) acyclic, the least longest path; None when
    every way has a cycle.

    That depth is the largest height of a partner, where the heights are the
    least fixpoint of h(c) = 1 + max over c's resolvents of min over their
    covers s != c of h(s), and a clause that is no partner has height 0
    (Knuth, "A generalization of Dijkstra's algorithm", 1977).  Level L
    settles each partner all of whose resolvents have a cover that is no
    partner or was settled below L, until a level settles nothing."""
    rows: dict[Clause, list[list[Clause]]] = {}  # partner -> covers of each resolvent
    for c, _, covers in resolvent_covers(p, n):
        got = list(covers)
        if not got:
            raise ValueError("pointed clause is not purified in n")
        rows.setdefault(c, []).append(got)
    settled: set[Clause] = set()
    level = 0
    while len(settled) < len(rows):
        new = [
            c
            for c in rows
            if c not in settled
            and all(any(s not in rows or s in settled for s in row) for row in rows[c])
        ]
        if not new:
            return None
        settled.update(new)
        level += 1
    return level


# ---------------------------------------------------------------------------
# per-step substitutions and composition


@dataclass(frozen=True)
class Witness:
    """A predicate substitution for the eliminated variables, with a per-step
    record of how each PurDel was handled."""

    psub: dict[str, PredExpr]
    modes: tuple[tuple[int, str], ...]  # (step index, mode note)

    def has_gfp(self) -> bool:
        return any(formula_has_gfp(pe.body) for pe in self.psub.values())


# the ways `_purdel_pred` builds a PurDel predicate
MODES = ("auto", "first-order", "fixpoint", "resolution")


class FirstOrderUnavailable(Exception):
    def __init__(self, step_index: int, reason: str):
        super().__init__(f"no first-order expression for PurDel at step {step_index + 1}: {reason}")
        self.step_index = step_index
        self.reason = reason


def _purdel_pred(
    i: int, p: PointedClause, n: frozenset[Clause], mode: str, k_override: Optional[int], budget: int
) -> tuple[PredExpr, str]:
    """The predicate for the PurDel at step i, which deletes p's clause and
    leaves n: the mode's predicate, complemented here, and only here, when
    the deleted literal is positive."""
    k = find_acyclic(p, n) if mode in ("first-order", "auto") else None
    if k is not None:
        k = k if k_override is None else max(k, k_override)
        pe, note = b_k(p, k).to_pred_expr(), f"first-order k={k}"
    elif mode == "first-order":
        raise FirstOrderUnavailable(i, "cyclic")
    elif mode in ("fixpoint", "auto"):
        pe, note = gfp_pred_expr(p), "fixpoint"
    else:
        pe, note = lres(p, budget).to_pred_expr(), "resolution"
    if p.designated.pos:
        pe = simplify_pred_expr(PredExpr(pe.params, FNot(pe.body)))
    return pe, note


def extract_witness(
    d: Derivation,
    mode: str = "auto",
    k_override: Optional[int] = None,
    lres_budget: int = 512,
) -> Witness:
    """Fold the per-step substitutions over the derivation, last step first;
    only PurDel and ExtPurDel steps contribute, everything else is identity.
    A step's predicate for its variable x is composed with the substitution
    of the later steps and simplified once; it replaces any later entry for
    x, and the other entries, simplified when they were folded in, stay."""
    if mode not in MODES:
        raise ValueError(f"unknown witness mode {mode!r}")
    if not d.eliminating():
        raise ValueError("derivation does not eliminate its predicate variables")
    sigma: dict[str, PredExpr] = {}
    modes: list[tuple[int, str]] = []
    for i in range(len(d.steps) - 1, -1, -1):
        step = d.steps[i]
        if step.rule == "extpurdel":
            x, pol, arity = step.args
            params = tuple(f"v{k}" for k in range(arity))  # the body is constant
            pe = PredExpr(params, TRUE if pol == "+" else FALSE)
            modes.append((i, f"ext {pol}"))
        elif step.rule == "purdel":
            cid, k = step.args
            live = d.alive(i)
            p = pointed(live.pop(cid), k)
            x = p.designated.head
            pe, note = _purdel_pred(i, p, frozenset(live.values()), mode, k_override, lres_budget)
            modes.append((i, note))
        else:
            continue
        sigma[x] = simplify_pred_expr(PredExpr(pe.params, apply_pred_subst(pe.body, sigma)))
    modes.reverse()
    # each step names its bound variables apart only from what it must not
    # meet, so steps reuse names; renaming every binder positionally makes
    # alpha-equivalent witnesses print identically
    return Witness({x: canonical_pred_expr(pe) for x, pe in sigma.items()}, tuple(modes))
