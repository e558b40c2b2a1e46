"""Semantic backend: clausification, a refutation prover over the constraint
calculus, finite-model enumeration with gfp evaluation, and witness checking.

The prover is deliberately plain -- given-clause, smallest first (the
passive clauses are a heap on size), plain subsumption -- which is enough for
the desk-scale goals produced by witness checking.  It takes resolution
partners and factor pairs from `calculus` and tries each inference site once.
The finite-model evaluator is the independent oracle: it knows nothing about
the calculus.  It compiles each formula once into closures over variable
slots, grounds a clause set once per assignment of function tables, and
enumerates constants only up to a permutation of the domain.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

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
    formula_free_pvars,
    formula_free_vars,
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


# the most clauses `_cnf` builds for one formula.  Distribution multiplies
# the clauses of the two sides of each `<->`, so their number grows doubly
# exponentially along a chain: 5 chained `<->` give about 2,600 clauses, and
# 8 would take gigabytes.
MAX_CNF_CLAUSES = 10_000


def _within_cap(count: int) -> None:
    if count > MAX_CNF_CLAUSES:
        raise ClausifyError(f"clausal form has more than {MAX_CNF_CLAUSES} clauses")


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
            _within_cap(len(out))
        return out
    if isinstance(f, FOr):
        acc: list[tuple[Lit, ...]] = [()]
        for s in f.subs:
            cnf = _cnf(s)
            _within_cap(len(acc) * len(cnf))
            acc = [a + b for a in acc for b in cnf]
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


# A formula is compiled once into closures over one list of slots.  Every
# variable, every predicate variable bound by a gfp or given by the caller,
# and every constant has its own slot, so evaluation builds no environments.
# Function and relation symbols become indices into tables that `load` points
# at the current model.


def _tables(tables: Mapping, keys: Iterable[tuple[str, int]], what: str) -> list:
    try:
        return [tables[k] for k in keys]
    except KeyError as e:
        ((name, arity),) = e.args
        raise KeyError(f"uninterpreted {what} {name}/{arity}") from None


def _index(symbols: dict[tuple[str, int], int], key: tuple[str, int]) -> int:
    """The position of key among the symbols, which gains it if it is new."""
    return symbols.setdefault(key, len(symbols))


class _Compiler:
    """Compiles formulas and terms that share one slot list and one set of
    model tables."""

    def __init__(self) -> None:
        self.nslots = 0
        self.funcs: dict[tuple[str, int], int] = {}  # symbol -> index into F
        self.rels: dict[tuple[str, int], int] = {}  # symbol -> index into R
        self.consts: dict[str, int] = {}  # constant -> its slot
        self.const_loads: list[tuple[int, int]] = []  # (slot, index into F)
        self.F: list = []
        self.R: list = []
        self.D: list[int] = []  # the domain
        self.gfp_caches: list[dict] = []
        self.loaded: Optional[tuple] = None  # (size, function tables) of `e`
        self.e: list = []

    def slot(self) -> int:
        self.nslots += 1
        return self.nslots - 1

    def load(self, m: FiniteModel) -> list:
        """Point the tables at m and return the slot list, which holds the
        constants; both are rebuilt only when the function tables change."""
        if self.loaded != (m.size, m.funcs):
            F = self.F
            F[:] = _tables(m.funcs, self.funcs, "function")
            self.D[:] = range(m.size)
            self.e = [None] * self.nslots
            for s, i in self.const_loads:
                self.e[s] = F[i][()]
            self.loaded = (m.size, m.funcs)
        self.R[:] = _tables(m.rels, self.rels, "predicate")
        for cache in self.gfp_caches:
            cache.clear()
        return self.e

    # -- terms ---------------------------------------------------------------

    def _slot_of(self, t: Term, vs: Mapping[str, int]) -> Optional[int]:
        if isinstance(t, Var):
            if t.name not in vs:
                raise KeyError(f"unbound variable {t.name}")
            return vs[t.name]
        if t.args:
            return None
        if t.fn not in self.consts:
            self.consts[t.fn] = self.slot()
            self.const_loads.append((self.consts[t.fn], _index(self.funcs, (t.fn, 0))))
        return self.consts[t.fn]

    def term(self, t: Term, vs: Mapping[str, int]) -> Callable[[list], int]:
        s = self._slot_of(t, vs)
        if s is not None:
            return lambda e: e[s]
        F, i = self.F, _index(self.funcs, (t.fn, len(t.args)))
        args = self.args(t.args, vs)
        return lambda e: F[i][args(e)]

    def args(self, ts: Sequence[Term], vs: Mapping[str, int]) -> Callable[[list], tuple]:
        slots = [self._slot_of(t, vs) for t in ts]
        if None not in slots:
            if len(slots) >= 2:
                return itemgetter(*slots)
            if slots:
                (s,) = slots
                return lambda e: (e[s],)
            return lambda e: ()
        gs = [self.term(t, vs) for t in ts]
        return lambda e: tuple([g(e) for g in gs])

    # -- formulas ------------------------------------------------------------

    def formula(self, f: Formula, vs: Mapping[str, int], ps: Mapping[str, int]) -> Callable[[list], bool]:
        """f as a test on a slot list; vs and ps give the slots of the
        variables and predicate variables in scope."""
        if isinstance(f, (FTrue, FFalse)):
            value = isinstance(f, FTrue)
            return lambda e: value
        if isinstance(f, FAtom):
            return self._atom(f, vs, ps)
        if isinstance(f, FNot):
            sub = self.formula(f.sub, vs, ps)
            return lambda e: not sub(e)
        if isinstance(f, (FAnd, FOr)):
            subs = [self.formula(s, vs, ps) for s in f.subs]
            return _junction(subs, isinstance(f, FAnd))
        if isinstance(f, (FImp, FIff)):
            lhs, rhs = self.formula(f.lhs, vs, ps), self.formula(f.rhs, vs, ps)
            if isinstance(f, FImp):
                return lambda e: not lhs(e) or rhs(e)
            return lambda e: lhs(e) == rhs(e)
        if isinstance(f, (FAll, FEx)):
            s = self.slot()
            sub = self.formula(f.sub, {**vs, f.var: s}, ps)
            return _quantifier(s, sub, self.D, isinstance(f, FAll))
        if isinstance(f, FGfp):
            return self._gfp(f, vs, ps)
        raise TypeError(f)

    def _atom(self, f: FAtom, vs: Mapping[str, int], ps: Mapping[str, int]) -> Callable[[list], bool]:
        if f.head == EQ and not f.pvar:
            lhs, rhs = (self.term(t, vs) for t in f.args)
            return lambda e: lhs(e) == rhs(e)
        args = self.args(f.args, vs)
        if f.pvar and f.head in ps:
            s = ps[f.head]
            return lambda e: args(e) in e[s]
        R, i = self.R, _index(self.rels, (f.head, len(f.args)))
        return lambda e: args(e) in R[i]

    def _gfp(self, f: FGfp, vs: Mapping[str, int], ps: Mapping[str, int]) -> Callable[[list], bool]:
        """Downward iteration of the body operator from the full relation; on
        a finite lattice this reaches the greatest fixpoint of a monotone
        operator.  The relation is kept per model and per values of the
        body's free variables and predicate variables."""
        k = len(f.params)
        rslot = self.slot()
        first = self.nslots  # the parameters take consecutive slots
        body = self.formula(
            f.body,
            {**vs, **{p: self.slot() for p in f.params}},
            {**ps, f.pvar: rslot},
        )
        free = [vs[v] for v in sorted(formula_free_vars(f.body) - set(f.params))]
        free += [ps[p] for p in sorted(formula_free_pvars(f.body) - {f.pvar}) if p in ps]
        key = itemgetter(*free) if free else (lambda e: ())
        args = self.args(f.args, vs)
        D, cache = self.D, {}
        self.gfp_caches.append(cache)

        def holds(e: list) -> bool:
            kv = key(e)
            rel = cache.get(kv)
            if rel is None:
                tuples = list(itertools.product(D, repeat=k))
                rel = frozenset(tuples)
                while True:
                    e[rslot] = rel
                    nxt = []
                    for t in tuples:
                        e[first : first + k] = t
                        if body(e):
                            nxt.append(t)
                    nxt = frozenset(nxt)
                    if nxt == rel:
                        break
                    rel = nxt
                cache[kv] = rel
            return args(e) in rel

        return holds


def _junction(subs: list, conj: bool) -> Callable[[list], bool]:
    def holds(e: list) -> bool:
        for sub in subs:
            if sub(e) != conj:
                return not conj
        return conj

    return holds


def _quantifier(s: int, sub: Callable[[list], bool], D: list, univ: bool) -> Callable[[list], bool]:
    def holds(e: list) -> bool:
        for v in D:
            e[s] = v
            if sub(e) != univ:
                return not univ
        return univ

    return holds


def _compile(
    f: Formula, free: Sequence[str] = (), pfree: Sequence[str] = ()
) -> Callable[..., bool]:
    """f compiled once.  The result evaluates f on a model, given the values
    of the variables `free` and then the relations of the predicate
    variables `pfree`, as positional arguments."""
    comp = _Compiler()
    slots = [comp.slot() for _ in (*free, *pfree)]
    width = len(slots)
    ev = comp.formula(f, dict(zip(free, slots)), dict(zip(pfree, slots[len(free) :])))

    def holds(m: FiniteModel, *values) -> bool:
        if len(values) != width:
            raise TypeError(f"expected {width} values, got {len(values)}")
        e = comp.load(m)
        e[:width] = values
        return ev(e)

    return holds


def eval_formula(
    m: FiniteModel,
    f: Formula,
    venv: Optional[Mapping[str, int]] = None,
    penv: Optional[Mapping[str, frozenset]] = None,
) -> bool:
    venv = venv or {}
    penv = penv or {}
    return _compile(f, tuple(venv), tuple(penv))(m, *venv.values(), *penv.values())


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


def _function_tables(
    domains: Sequence[list], consts: Sequence[bool], full: bool, used: int = 0
) -> Iterator[tuple[tuple, int]]:
    """Every choice of one table per domain, in lexicographic order, with one
    above the largest constant value in it: for a canonical constant vector,
    its number of distinct values.  A constant's domain lists its tables by
    value; unless full, a constant takes a value at most one above the
    largest value of the constants before it."""
    if not domains:
        yield (), used
        return
    head = domains[0][: used + 1] if consts[0] and not full else domains[0]
    for v, table in enumerate(head):
        for rest, top in _function_tables(
            domains[1:], consts[1:], full, max(used, v + 1) if consts[0] else used
        ):
            yield (table, *rest), top


def models(sig: Signature, n: int, full: bool = False) -> Iterator[tuple[FiniteModel, int]]:
    """The models of size n over the signature, deterministically ordered,
    each with its weight.  Free predicate variables are enumerated as
    ordinary relations.  Each constant takes a value at most one above the
    largest value of the constants before it, so the constant vector stands
    for its orbit under permutations of the domain: the n*(n-1)*...*(n-b+1)
    vectors with its pattern of equal values (b distinct ones).  Every model
    with a vector in the orbit is isomorphic to one with this vector.  The
    orbit's size is the weight, so the weights add up to model_count.  With
    full, every vector comes, each with weight 1, in the same order."""
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
    consts = [k == 0 for _, k in fkeys]
    for ftables, used in _function_tables(fdomains, consts, full):
        weight = 1 if full else math.perm(n, used)
        # one dict per assignment of function tables, shared by its models,
        # so a consumer sees that the tables did not change by identity
        funcs = dict(zip(fkeys, ftables))
        for rsets in itertools.product(*rdomains):
            yield FiniteModel(n, funcs, dict(zip(rkeys, rsets))), weight


def fn_cap_ok(sig: Signature) -> bool:
    heavy = [(f, k) for (f, k) in sig.funcs if k >= 1]
    return len(heavy) <= 2 and all(k <= 2 for _, k in heavy)


def small_models(
    sig: Signature,
    deadline: float,
    notes: list[str],
    full: Callable[[int], bool] = lambda size: False,
) -> Iterator[tuple[FiniteModel, int]]:
    """The models of sizes 1-3 over sig with their weights (see `models`),
    smallest first, within the deadline and the enumeration caps; notes each
    size skipped or cut short.  A size for which full is true is enumerated
    in full."""
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
        for m, weight in models(sig, size, full(size)):
            if time.monotonic() > deadline:
                notes.append(f"model check interrupted at size {size} (timeout)")
                return
            yield m, weight


# ---------------------------------------------------------------------------
# second-order satisfaction on a fixed model


# the most ground instances `_Soqe` takes of one clause
MAX_GROUND_INSTANCES = 3**6


class _Soqe:
    """soqe_holds for one clause set on model after model.  The clauses are
    ground once per assignment of function tables: that settles the equality
    literals and every argument tuple, so each relation assignment only tests
    tuples against its relations and runs DPLL over what is left."""

    def __init__(self, n: Sequence[Clause], xars: Mapping[str, int]):
        self.xars = dict(xars)
        self.comp = _Compiler()
        self.rels: dict[tuple[str, int], int] = {}
        # per clause: the clause, its first variable slot, its variable count
        # and its literals as (kind, pos, symbol, argument tuple getter)
        self.clauses = []
        for c in n:
            first, cvars = self.comp.nslots, sorted(c.vars)
            vs = {v: self.comp.slot() for v in cvars}
            lits = []
            for l in c.lits:
                args = self.comp.args(l.args, vs)
                if l.pvar and l.head in xars:
                    lits.append(("pvar", l.pos, l.head, args))
                elif l.is_eq:
                    lits.append(("eq", l.pos, None, args))
                else:
                    lits.append(("rel", l.pos, _index(self.rels, (l.head, len(l.args))), args))
            self.clauses.append((c, first, len(cvars), lits))
        self.ground_for: Optional[tuple] = None  # (size, function tables)
        self.ground: list[tuple[tuple, frozenset]] = []
        self.too_large: Optional[str] = None
        self.solved: dict[tuple, bool] = {}  # DPLL's answer per ground clause set

    def order_matters(self, size: int) -> bool:
        """Can `holds` stop on a model of this size after answering False on
        others?  It can when a clause has too many ground instances, and
        where it stops then depends on the order of the models."""
        return any(size**k > MAX_GROUND_INSTANCES for _, _, k, _ in self.clauses)

    def _ground(self, m: FiniteModel) -> None:
        """The ground instances that no equality literal satisfies, each as its
        relation tests (index, tuple, polarity) and its predicate-variable
        atoms, without repeats and in order; stops at the first clause with too
        many instances."""
        e = self.comp.load(m)
        ground: dict[tuple[tuple, frozenset], None] = {}
        self.too_large = None
        for c, first, k, lits in self.clauses:
            if m.size**k > MAX_GROUND_INSTANCES:
                self.too_large = f"too many ground instances of {c}"
                break
            for vals in itertools.product(range(m.size), repeat=k):
                e[first : first + k] = vals
                tests, atoms = [], []
                for kind, pos, sym, args in lits:
                    t = args(e)
                    if kind == "eq":
                        if (t[0] == t[1]) == pos:
                            break
                    elif kind == "rel":
                        tests.append((sym, t, pos))
                    else:
                        atoms.append((pos, sym, t))
                else:
                    ground.setdefault((tuple(tests), frozenset(atoms)))
        self.ground = list(ground)
        self.solved = {}

    def holds(self, m: FiniteModel) -> bool:
        for x, k in self.xars.items():
            if m.size**k > 9:
                raise EnumerationTooLarge(f"{x}/{k} over domain size {m.size}")
        if self.ground_for != (m.size, m.funcs):
            self._ground(m)
            self.ground_for = (m.size, m.funcs)
        R = _tables(m.rels, self.rels, "predicate")
        cnf = []
        for tests, atoms in self.ground:
            for i, t, pos in tests:
                if (t in R[i]) == pos:
                    break
            else:
                if not atoms:
                    return False
                cnf.append(atoms)
        if self.too_large is not None:
            raise EnumerationTooLarge(self.too_large)
        key = tuple(cnf)
        got = self.solved.get(key)
        if got is None:
            got = self.solved[key] = _dpll(cnf, {})
        return got


def soqe_holds(m: FiniteModel, n: Sequence[Clause], xars: Mapping[str, int]) -> bool:
    """Does some assignment of relations to the predicate variables satisfy
    every clause of n on m?  Ground the clauses and run DPLL over the atoms."""
    return _Soqe(n, xars).holds(m)


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
class Rejected:
    """A refutation that does not replay through the calculus."""

    steps: tuple[ProofRec, ...]


@dataclass(frozen=True)
class Disproved:
    model: FiniteModel


@dataclass(frozen=True)
class Unknown:
    note: str


ProverResult = Union[Proved, Rejected, Disproved, Unknown]


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
        heapq.heappush(self.passive, (c.size, cid))

    def _spend(self) -> bool:
        self.inferences += 1
        return self.inferences <= MAX_INFERENCES and time.monotonic() <= self.deadline

    def run(self) -> Optional[Proved]:
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
    holds = _compile(FAnd(tuple(clause_to_formula(c) for c in clauses)))
    candidates = small_models(signature_of(clauses), deadline, [])
    return next((m for m, _ in candidates if holds(m)), None)


def prove(
    premises: Sequence[Clause],
    goal: Optional[Formula] = None,
    timeout: float = 5.0,
) -> ProverResult:
    """Refute premises + the negated goal.  Proved carries a refutation that
    replays through the calculus, Rejected one that does not; Disproved
    carries a countermodel found by finite-model search; Unknown reports the
    exhausted budget."""
    deadline = time.monotonic() + timeout
    neg = clausify(FNot(goal)) if goal is not None else []
    try:
        got = _Prover(list(premises) + neg, deadline).run()
    except RecursionError:  # pathological nesting; treat as budget
        got = None
    if got is not None:
        return got if replay_refutation(got.steps) else Rejected(got.steps)
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
    # (input clause index, proved/rejected/disproved/unknown/skipped)
    prover: tuple[tuple[int, str], ...]
    models_checked: int  # the models covered: each evaluated one counts its weight
    models_evaluated: int
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
    variables must coincide with truth of n under w.  Both sides are
    invariant under isomorphism, so the model route evaluates one model per
    orbit of constant vectors and counts it by the orbit's size."""
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
            try:
                got = prove(conclusion, g, timeout=budget)
            except ClausifyError as e:
                got = Unknown(str(e))
                notes.append(f"clause {i + 1} under the witness was not clausified: {e}")
            if isinstance(got, Proved):
                prover_results.append((i, "proved"))
            elif isinstance(got, Rejected):
                prover_results.append((i, "rejected"))
                failures.append(
                    f"clause {i + 1} under the witness: the prover's refutation does not replay"
                )
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
    solvable, under_w = _Soqe(n, xars), _compile(FAnd(tuple(goals)))
    checked = evaluated = 0
    for m, weight in small_models(sig, deadline, notes, solvable.order_matters):
        try:
            lhs = solvable.holds(m)
        except EnumerationTooLarge as e:
            notes.append(f"soqe enumeration skipped: {e}")
            break
        rhs = under_w(m)
        checked += weight
        evaluated += 1
        if lhs != rhs:
            failures.append(
                f"model disagreement ({m.describe()}): solvable={lhs}, witness gives {rhs}"
            )
            if sum(1 for s in failures if s.startswith("model disagreement")) >= 5:
                notes.append("model check stopped after 5 disagreements")
                break
    rep = CheckReport(
        False, tuple(prover_results), checked, evaluated, tuple(failures), tuple(notes)
    )
    rep.passed = not failures and rep.completed() > 0
    return rep
