"""Semantic backend: clausification, a refutation prover over the constraint
calculus, finite-model enumeration with gfp evaluation, and witness checking.

The prover is deliberately plain -- given-clause, smallest first, plain
subsumption -- which is enough for the desk-scale goals produced by witness
checking.  It takes resolution partners and factor pairs from `calculus` and
tries each inference site once.  The finite-model evaluator is the
independent oracle: it knows nothing about the calculus.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Sequence, Union

from .calculus import (
    all_paramodulants,
    constraint_eliminate,
    constraint_factor,
    constraint_resolve,
    factor_pairs,
    paramodulant,
    resolution_partners,
    variable_eliminate,
)
from .logic import (
    DUAL,
    EQ,
    FALSE,
    TRUE,
    App,
    Clause,
    FAll,
    FAnd,
    FAtom,
    FEx,
    FFalse,
    FGfp,
    FIff,
    FImp,
    FNot,
    FOr,
    FTrue,
    Formula,
    Lit,
    Term,
    Var,
    apply_pred_subst_clause,
    children,
    clause_to_formula,
    formula_has_gfp,
    formula_to_lit,
    fresh_name,
    lit_to_formula,
    map_children,
    pointed,
    rename_clause_apart,
    simplify,
    subst_formula,
)
from .subsumption import has_reflexive_equation, is_tautology, subsumes
from .witness import Witness


# ---------------------------------------------------------------------------
# clausification


class ClausifyError(Exception):
    pass


def _nnf(f: Formula, pos: bool) -> Formula:
    if isinstance(f, FTrue):
        return TRUE if pos else FALSE
    if isinstance(f, FFalse):
        return FALSE if pos else TRUE
    if isinstance(f, FAtom):
        return f if pos else FNot(f)
    if isinstance(f, FNot):
        return _nnf(f.sub, not pos)
    if isinstance(f, (FAnd, FOr)):
        kind = type(f) if pos else DUAL[type(f)]
        return kind(tuple(_nnf(s, pos) for s in f.subs))
    if isinstance(f, FImp):
        return _nnf(FOr((FNot(f.lhs), f.rhs)), pos)
    if isinstance(f, FIff):
        a, b = f.lhs, f.rhs
        both = FAnd((a, b))
        neither = FAnd((FNot(a), FNot(b)))
        return _nnf(FOr((both, neither)), pos)
    if isinstance(f, (FAll, FEx)):
        kind = type(f) if pos else DUAL[type(f)]
        return kind(f.var, _nnf(f.sub, pos))
    if isinstance(f, FGfp):
        raise ClausifyError("gfp formulas have no clausal form")
    raise TypeError(f)


def _standardize(f: Formula) -> Formula:
    if isinstance(f, (FAll, FEx)):
        v = fresh_name("q")
        return type(f)(v, _standardize(subst_formula(f.sub, {f.var: Var(v)})))
    return map_children(f, _standardize)


def _skolemize(f: Formula, univ: tuple[str, ...]) -> Formula:
    if isinstance(f, FAll):
        return FAll(f.var, _skolemize(f.sub, univ + (f.var,)))
    if isinstance(f, FEx):
        sk = App(fresh_name("sk"), tuple(Var(v) for v in univ))
        return _skolemize(subst_formula(f.sub, {f.var: sk}), univ)
    return map_children(f, lambda g: _skolemize(g, univ))


def _matrix(f: Formula) -> Formula:
    return _matrix(f.sub) if isinstance(f, FAll) else map_children(f, _matrix)


def _cnf(f: Formula) -> list[tuple[Lit, ...]]:
    if isinstance(f, FTrue):
        return []
    if isinstance(f, FFalse):
        return [()]
    if isinstance(f, (FAtom, FNot)):
        return [(formula_to_lit(f),)]
    if isinstance(f, FAnd):
        out = []
        for s in f.subs:
            out.extend(_cnf(s))
        return out
    if isinstance(f, FOr):
        acc: list[tuple[Lit, ...]] = [()]
        for s in f.subs:
            acc = [a + b for a in acc for b in _cnf(s)]
        return acc
    raise TypeError(f)


def clausify(f: Formula) -> list[Clause]:
    """Negation-normal form, Skolemization of existentials (fresh `sk%d`
    symbols), distribution to CNF.  Equisatisfiable in general, equivalent for
    Skolem-free inputs; gfp constructors are rejected."""
    if formula_has_gfp(f):
        raise ClausifyError("gfp formulas have no clausal form")
    g = _skolemize(_standardize(_nnf(f, True)), ())
    return [Clause.make(ls) for ls in _cnf(_matrix(g))]


# ---------------------------------------------------------------------------
# finite models


class EnumerationTooLarge(Exception):
    pass


@dataclass(frozen=True)
class FiniteModel:
    """Domain 0..size-1; equality is identity; `funcs` maps (name, arity) to a
    total table; `rels` maps (name, arity) to a set of tuples and also hosts
    the relations chosen for free predicate variables."""

    size: int
    funcs: Mapping[tuple[str, int], Mapping[tuple[int, ...], int]]
    rels: Mapping[tuple[str, int], frozenset[tuple[int, ...]]]

    def describe(self) -> str:
        fs = ", ".join(
            f"{n}={dict(t) if a else t[()]}" for (n, a), t in sorted(self.funcs.items())
        )
        rs = ", ".join(f"{n}={sorted(v)}" for (n, _), v in sorted(self.rels.items()))
        return f"|M|={self.size}; {fs}; {rs}"


def eval_term(m: FiniteModel, t: Term, venv: Mapping[str, int]) -> int:
    if isinstance(t, Var):
        if t.name not in venv:
            raise KeyError(f"unbound variable {t.name}")
        return venv[t.name]
    table = m.funcs.get((t.fn, len(t.args)))
    if table is None:
        raise KeyError(f"uninterpreted function {t.fn}/{len(t.args)}")
    return table[tuple(eval_term(m, a, venv) for a in t.args)]


def eval_formula(
    m: FiniteModel,
    f: Formula,
    venv: Optional[Mapping[str, int]] = None,
    penv: Optional[Mapping[str, frozenset]] = None,
) -> bool:
    venv = venv or {}
    penv = penv or {}
    if isinstance(f, FTrue):
        return True
    if isinstance(f, FFalse):
        return False
    if isinstance(f, FAtom):
        vals = tuple(eval_term(m, a, venv) for a in f.args)
        if f.head == EQ and not f.pvar:
            return vals[0] == vals[1]
        if f.pvar and f.head in penv:
            return vals in penv[f.head]
        rel = m.rels.get((f.head, len(f.args)))
        if rel is None:
            raise KeyError(f"uninterpreted predicate {f.head}/{len(f.args)}")
        return vals in rel
    if isinstance(f, FNot):
        return not eval_formula(m, f.sub, venv, penv)
    if isinstance(f, FAnd):
        return all(eval_formula(m, s, venv, penv) for s in f.subs)
    if isinstance(f, FOr):
        return any(eval_formula(m, s, venv, penv) for s in f.subs)
    if isinstance(f, FImp):
        return (not eval_formula(m, f.lhs, venv, penv)) or eval_formula(m, f.rhs, venv, penv)
    if isinstance(f, FIff):
        return eval_formula(m, f.lhs, venv, penv) == eval_formula(m, f.rhs, venv, penv)
    if isinstance(f, FAll):
        return all(
            eval_formula(m, f.sub, {**venv, f.var: e}, penv) for e in range(m.size)
        )
    if isinstance(f, FEx):
        return any(
            eval_formula(m, f.sub, {**venv, f.var: e}, penv) for e in range(m.size)
        )
    if isinstance(f, FGfp):
        rel = gfp_relation(m, f, venv, penv)
        vals = tuple(eval_term(m, a, venv) for a in f.args)
        return vals in rel
    raise TypeError(f)


def gfp_relation(
    m: FiniteModel, f: FGfp, venv: Mapping[str, int], penv: Mapping[str, frozenset]
) -> frozenset:
    """Downward iteration of the body operator from the full relation; on a
    finite lattice this reaches the greatest fixpoint of a monotone operator."""
    k = len(f.params)
    tuples = list(itertools.product(range(m.size), repeat=k))
    rel = frozenset(tuples)
    while True:
        nxt = frozenset(
            t
            for t in tuples
            if eval_formula(
                m, f.body, {**venv, **dict(zip(f.params, t))}, {**penv, f.pvar: rel}
            )
        )
        if nxt == rel:
            return rel
        rel = nxt


def eval_clause(m: FiniteModel, c: Clause, penv: Optional[Mapping] = None) -> bool:
    return eval_formula(m, clause_to_formula(c), {}, penv)


# ---------------------------------------------------------------------------
# signature extraction and model enumeration


@dataclass
class Signature:
    funcs: dict[tuple[str, int], None] = field(default_factory=dict)
    rels: dict[tuple[str, int], None] = field(default_factory=dict)
    pvars: dict[tuple[str, int], None] = field(default_factory=dict)

    def add_term(self, t: Term) -> None:
        if isinstance(t, App):
            self.funcs.setdefault((t.fn, len(t.args)))
            for a in t.args:
                self.add_term(a)

    def add_formula(self, f: Formula) -> None:
        if isinstance(f, FAtom):
            for a in f.args:
                self.add_term(a)
            if f.head != EQ or f.pvar:
                (self.pvars if f.pvar else self.rels).setdefault((f.head, len(f.args)))
        elif isinstance(f, FGfp):
            # the bound recursion variable is not part of the signature
            inner = Signature()
            inner.add_formula(f.body)
            inner.pvars.pop((f.pvar, len(f.params)), None)
            self.merge(inner)
            for a in f.args:
                self.add_term(a)
        else:
            for g in children(f):
                self.add_formula(g)

    def merge(self, other: "Signature") -> None:
        self.funcs.update(other.funcs)
        self.rels.update(other.rels)
        self.pvars.update(other.pvars)


def signature_of(clauses: Sequence[Clause] = (), formulas: Sequence[Formula] = ()) -> Signature:
    sig = Signature()
    for c in clauses:
        for l in c.lits:
            sig.add_formula(lit_to_formula(l))
    for f in formulas:
        sig.add_formula(f)
    return sig


def model_count(sig: Signature, n: int) -> int:
    total = 1
    for (_, k) in sig.funcs:
        total *= n ** (n**k)
    for (_, k) in list(sig.rels) + list(sig.pvars):
        total *= 2 ** (n**k)
    return total


def models(sig: Signature, n: int) -> Iterator[FiniteModel]:
    """All models of size n over the signature, deterministically ordered.
    Free predicate variables are enumerated as ordinary relations."""
    fkeys = sorted(sig.funcs)
    rkeys = sorted(sig.rels) + sorted(sig.pvars)
    fdomains = []
    for (_, k) in fkeys:
        points = list(itertools.product(range(n), repeat=k))
        fdomains.append(
            [dict(zip(points, vals)) for vals in itertools.product(range(n), repeat=len(points))]
        )
    rdomains = []
    for (_, k) in rkeys:
        points = list(itertools.product(range(n), repeat=k))
        rdomains.append(
            [
                frozenset(p for p, keep in zip(points, mask) if keep)
                for mask in itertools.product((False, True), repeat=len(points))
            ]
        )
    for ftables in itertools.product(*fdomains):
        for rsets in itertools.product(*rdomains):
            yield FiniteModel(n, dict(zip(fkeys, ftables)), dict(zip(rkeys, rsets)))


def fn_cap_ok(sig: Signature) -> bool:
    heavy = [(f, k) for (f, k) in sig.funcs if k >= 1]
    return len(heavy) <= 2 and all(k <= 2 for _, k in heavy)


def small_models(sig: Signature, deadline: float, notes: list[str]) -> Iterator[FiniteModel]:
    """The models of sizes 1-3 over sig, smallest first, within the deadline
    and the enumeration caps; notes each size skipped or cut short."""
    for size in range(1, 4):
        if time.monotonic() > deadline:
            notes.append(f"model check stopped before size {size} (timeout)")
            return
        if size == 3 and not fn_cap_ok(sig):
            notes.append("size-3 models skipped (function enumeration cap)")
            return
        if model_count(sig, size) > 300_000:
            notes.append(f"size-{size} models skipped (too many interpretations)")
            continue
        for m in models(sig, size):
            if time.monotonic() > deadline:
                notes.append(f"model check interrupted at size {size} (timeout)")
                return
            yield m


# ---------------------------------------------------------------------------
# second-order satisfaction on a fixed model


def soqe_holds(m: FiniteModel, n: Sequence[Clause], xars: Mapping[str, int]) -> bool:
    """Does some assignment of relations to the predicate variables satisfy
    every clause of n on m?  Ground the clauses and run DPLL over the atoms."""
    for x, k in xars.items():
        if m.size**k > 9:
            raise EnumerationTooLarge(f"{x}/{k} over domain size {m.size}")
    cnf: list[frozenset[tuple[bool, str, tuple[int, ...]]]] = []
    for c in n:
        cvars = sorted(c.vars)
        if m.size ** len(cvars) > 3**6:
            raise EnumerationTooLarge(f"too many ground instances of {c}")
        for vals in itertools.product(range(m.size), repeat=len(cvars)):
            venv = dict(zip(cvars, vals))
            sat = False
            atoms = []
            for l in c.lits:
                if l.pvar and l.head in xars:
                    atoms.append((l.pos, l.head, tuple(eval_term(m, a, venv) for a in l.args)))
                    continue
                if eval_formula(m, lit_to_formula(l), venv):
                    sat = True
                    break
            if sat:
                continue
            if not atoms:
                return False
            cnf.append(frozenset(atoms))
    return _dpll(cnf, {})


def _dpll(clauses: list[frozenset], assign: dict) -> bool:
    while True:
        clauses2 = []
        unit = None
        for cl in clauses:
            alive = []
            satisfied = False
            for (pos, x, t) in cl:
                v = assign.get((x, t))
                if v is None:
                    alive.append((pos, x, t))
                elif v == pos:
                    satisfied = True
                    break
            if satisfied:
                continue
            if not alive:
                return False
            if len(alive) == 1:
                unit = alive[0]
            clauses2.append(frozenset(alive))
        clauses = clauses2
        if unit is None:
            break
        (pos, x, t) = unit
        assign = {**assign, (x, t): pos}
    if not clauses:
        return True
    (pos, x, t) = next(iter(clauses[0]))
    return _dpll(clauses, {**assign, (x, t): True}) or _dpll(
        clauses, {**assign, (x, t): False}
    )


# ---------------------------------------------------------------------------
# refutation prover


@dataclass(frozen=True)
class ProofRec:
    rule: str  # 'input' | 'res' | 'fac' | 'parmod' | 'constrelim' | 'velim'
    premises: tuple[int, ...]
    data: tuple
    id: int
    clause: Clause


@dataclass(frozen=True)
class Proved:
    steps: tuple[ProofRec, ...]


@dataclass(frozen=True)
class Disproved:
    model: FiniteModel


@dataclass(frozen=True)
class Unknown:
    note: str


ProverResult = Union[Proved, Disproved, Unknown]


def _redundant(s: Clause, c: Clause) -> bool:
    """c adds nothing while s is around: s subsumes c and not conversely.
    Plain (set-semantics) subsumption holds from a clause to its own factors,
    so deletion must be one-directional to keep refutational completeness."""
    return subsumes(s, c) and not subsumes(c, s)


# inferences one prover run may try before it gives up
MAX_INFERENCES = 20_000


class _Prover:
    def __init__(self, clauses: Sequence[Clause], deadline: float):
        self.deadline = deadline
        self.inferences = 0
        self.recs: dict[int, ProofRec] = {}
        self.next_id = 1
        self.active: list[tuple[int, Clause]] = []
        self.passive: list[tuple[int, int]] = []  # (size, id)
        self.dead: set[int] = set()
        self.seen: set[Clause] = set()
        self.empty_id: Optional[int] = None
        for c in clauses:
            self._admit(c, "input", (), ())

    def _admit(self, c: Clause, rule: str, premises: tuple[int, ...], data: tuple) -> None:
        if self.empty_id is not None:
            return
        cid = self.next_id
        self.next_id += 1
        self.recs[cid] = ProofRec(rule, premises, data, cid, c)
        c2, applied = variable_eliminate(c)
        if applied:
            self._admit(c2, "velim", (cid,), ())
            return
        # a constraint t != t is a false literal; dropping it is a trivial
        # constraint elimination and keeps factors from degenerating
        refl = tuple(
            i for i, l in enumerate(c.lits) if l.is_constraint and l.args[0] == l.args[1]
        )
        if refl:
            dropped = constraint_eliminate(c, refl)
            if dropped is not None:
                self._admit(dropped, "constrelim", (cid,), (refl,))
                return
        if not c.lits:
            self.empty_id = cid
            return
        if is_tautology(c) or has_reflexive_equation(c) or c in self.seen:
            return
        if any(
            _redundant(a, c) for i, a in self.active if i not in self.dead
        ):
            return
        self.seen.add(c)
        for i, a in self.active:
            if i not in self.dead and _redundant(c, a):
                self.dead.add(i)
        self.passive.append((c.size, cid))

    def _spend(self) -> bool:
        self.inferences += 1
        return self.inferences <= MAX_INFERENCES and time.monotonic() <= self.deadline

    def run(self) -> Optional[Proved]:
        heapq.heapify(self.passive)
        while self.passive and self.empty_id is None:
            if time.monotonic() > self.deadline or self.inferences > MAX_INFERENCES:
                return None
            _, gid = heapq.heappop(self.passive)
            g = self.recs[gid].clause
            if any(i not in self.dead and _redundant(a, g) for i, a in self.active):
                continue
            self.active.append((gid, g))
            self._generate(gid, g)
        if self.empty_id is None:
            return None
        # premises have smaller ids than their conclusions, so one pass down
        # the ids collects the ancestry of the empty clause
        need = {self.empty_id}
        for i in range(self.empty_id, 0, -1):
            if i in need:
                need.update(self.recs[i].premises)
        return Proved(tuple(self.recs[i] for i in sorted(need)))

    def _generate(self, gid: int, g: Clause) -> None:
        """Every inference between g and an active clause, each site once:
        resolution only with g's literal first (the other order builds the
        same clauses), paramodulation both ways between distinct clauses."""
        for hid, h in list(self.active):
            if self.empty_id is not None:
                return
            if hid in self.dead:
                continue
            # renamed apart once per pair, so constraint_resolve's renaming is a no-op
            hr = rename_clause_apart(h, g.vars)
            for i in range(len(g.lits)):
                p = pointed(g, i)
                for q in resolution_partners(p, hr):
                    if not self._spend():
                        return
                    self._admit(constraint_resolve(p, q), "res", (gid, hid), (i, q.index))
            sides = ((g, gid, h, hid), (h, hid, g, gid))
            for c1, c1id, c2, c2id in sides[: 1 if hid == gid else 2]:
                for r, ei, orient, li, path in all_paramodulants(c1, c2):
                    if not self._spend():
                        return
                    self._admit(r, "parmod", (c1id, c2id), (ei, orient, li, path))
        # unary rules on the given clause
        for i, j in factor_pairs(g):
            if not self._spend():
                return
            self._admit(constraint_factor(g, i, j), "fac", (gid,), (i, j))
        for sel in [None] + [(i,) for i, l in enumerate(g.lits) if l.is_constraint]:
            r = constraint_eliminate(g, sel)
            if r is not None:
                if not self._spend():
                    return
                self._admit(r, "constrelim", (gid,), (sel,))


def find_model(clauses: Sequence[Clause], deadline: float = float("inf")) -> Optional[FiniteModel]:
    """A finite model of all the clauses (free predicate variables enumerated
    as relations), or None within the size/effort bounds."""
    candidates = small_models(signature_of(clauses), deadline, [])
    return next((m for m in candidates if all(eval_clause(m, c) for c in clauses)), None)


def prove(
    premises: Sequence[Clause],
    goal: Optional[Formula] = None,
    timeout: float = 5.0,
) -> ProverResult:
    """Refute premises + the negated goal.  Proved carries the refutation;
    Disproved carries a countermodel found by finite-model search; Unknown
    reports the exhausted budget."""
    deadline = time.monotonic() + timeout
    neg = clausify(FNot(goal)) if goal is not None else []
    try:
        got = _Prover(list(premises) + neg, deadline).run()
    except RecursionError:  # pathological nesting; treat as budget
        got = None
    if got is not None:
        return got
    m = find_model(list(premises) + neg, deadline=deadline + 2.0)
    if m is not None:
        return Disproved(m)
    return Unknown("saturation budget exhausted without refutation or countermodel")


# each prover rule's conclusion, rebuilt by the calculus from the premise
# clauses followed by the step's data
_REBUILD = {
    "velim": lambda c: variable_eliminate(c)[0],
    "res": lambda c1, c2, i, j: constraint_resolve(pointed(c1, i), pointed(c2, j)),
    "fac": constraint_factor,
    "constrelim": constraint_eliminate,
    "parmod": lambda c1, c2, ei, orient, li, path: paramodulant(c1, ei, orient, c2, li, path),
}


def replay_refutation(steps: Sequence[ProofRec]) -> bool:
    """Re-derive every non-input step with the calculus rules and compare the
    recorded conclusions.  Ids must increase, every premise must name an
    earlier step and the last step must derive the empty clause; a step that
    names an unknown rule or carries data the rule rejects fails the replay."""
    ids = [r.id for r in steps]
    if not steps or steps[-1].clause.lits or ids != sorted(set(ids)):
        return False
    table: dict[int, Clause] = {}
    for r in steps:
        if r.rule != "input":
            try:
                got = _REBUILD[r.rule](*(table[i] for i in r.premises), *r.data)
            except (KeyError, IndexError, TypeError, ValueError):
                return False
            if got != r.clause:
                return False
        table[r.id] = r.clause
    return True


# ---------------------------------------------------------------------------
# witness checking


@dataclass
class CheckReport:
    passed: bool
    prover: tuple[tuple[int, str], ...]  # (input clause index, proved/unknown/disproved/skipped)
    models_checked: int
    failures: tuple[str, ...]
    notes: tuple[str, ...]

    def completed(self) -> int:
        return self.models_checked + sum(1 for _, r in self.prover if r == "proved")


def check_witness(
    n: Sequence[Clause],
    xars: Mapping[str, int],
    conclusion: Sequence[Clause],
    w: Witness,
    timeout: float = 30.0,
) -> CheckReport:
    """Two independent checks that w witnesses the elimination: the conclusion
    must entail every clause of n under w (refutation prover; skipped for gfp
    witnesses), and on every small model, solvability of n for the predicate
    variables must coincide with truth of n under w."""
    deadline = time.monotonic() + timeout
    goals = [simplify(apply_pred_subst_clause(c, w.psub)) for c in n]
    failures: list[str] = []
    notes: list[str] = []
    prover_results: list[tuple[int, str]] = []
    if w.has_gfp():
        notes.append("gfp witness: deductive check skipped, finite models only")
        prover_results = [(i, "skipped") for i in range(len(goals))]
    else:
        budget = max(0.5, (deadline - time.monotonic()) * 0.6 / max(1, len(goals)))
        for i, g in enumerate(goals):
            got = prove(conclusion, g, timeout=budget)
            if isinstance(got, Proved):
                prover_results.append((i, "proved"))
            elif isinstance(got, Disproved):
                prover_results.append((i, "disproved"))
                failures.append(
                    f"clause {i + 1} under the witness is not entailed by the conclusion "
                    f"(countermodel {got.model.describe()})"
                )
            else:
                prover_results.append((i, "unknown"))
    sig = signature_of(list(n) + list(conclusion), goals)
    sig.pvars = {k: None for k in sig.pvars if k[0] not in xars}
    checked = 0
    for m in small_models(sig, deadline, notes):
        try:
            lhs = soqe_holds(m, n, xars)
        except EnumerationTooLarge as e:
            notes.append(f"soqe enumeration skipped: {e}")
            break
        rhs = all(eval_formula(m, g) for g in goals)
        checked += 1
        if lhs != rhs:
            failures.append(
                f"model disagreement ({m.describe()}): solvable={lhs}, witness gives {rhs}"
            )
            if sum(1 for s in failures if s.startswith("model disagreement")) >= 5:
                notes.append("model check stopped after 5 disagreements")
                break
    rep = CheckReport(False, tuple(prover_results), checked, tuple(failures), tuple(notes))
    rep.passed = not failures and rep.completed() > 0
    return rep
