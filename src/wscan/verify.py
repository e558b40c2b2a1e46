"""Semantic backend: clausification (one pass over the formula), a refutation
prover over the constraint calculus, finite-model enumeration with gfp
evaluation, and witness checking.

The prover is deliberately plain -- given-clause, smallest first (the
passive clauses are a heap on size), plain subsumption -- which is enough for
the desk-scale goals produced by witness checking.  As in E's DISCOUNT loop,
only active clauses subsume or get subsumed, and only when a clause is
selected: it is dropped if an active clause subsumes it, and otherwise drops
the active clauses it subsumes.  A clause that arrives is only deduplicated
and unit-deleted.  It takes resolution partners and factor pairs from
`calculus` and tries each inference site once.
A refutation is a `Derivation` in trace syntax, and it counts only once
`saturation.replay_proof` has rebuilt it through `RULES`.
The finite-model evaluator is the independent oracle: it knows nothing about
the calculus.  It enumerates models in blocks that share their function
tables and differ only in their relations, with constants only up to a
permutation of the domain, and evaluates a formula once per block: a truth
value is an int with one bit per model of the block.  It grounds a clause
set once per block and decides its solvability in all the block's models in
one pass of ground Davis-Putnam elimination, each clause carrying the set of
models where it is live; it decides whether to enumerate a model size, by
the size alone, before its first block.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .calculus import (
    all_paramodulants,
    constraint_eliminate,
    constraint_factor,
    constraint_resolve,
    factor_pairs,
    resolution_partners,
    variable_eliminate,
)
from .logic import (
    EQ,
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
    clause_to_formula,
    formula_free_pvars,
    formula_free_vars,
    formula_has_gfp,
    fresh_name,
    lit_to_formula,
    parts,
    pointed,
    rename_clause_apart,
    simplify,
    subst_term,
)
from .saturation import RULES, Derivation, ReplayError, Step, replay_proof
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


def _cnf(
    f: Formula,
    pos: bool,
    env: Mapping[str, Term],
    univ: tuple[str, ...],
    taken: set[str],
) -> list[tuple[Lit, ...]]:
    """The clauses of f (of ~f unless pos) in one pass: negation moves inward,
    `->` and `<->` expand as `~a | b` and `(a & b) | (~a & ~b)`, a universal
    becomes a fresh `q` variable and an existential a fresh `sk` term over
    the universals in scope (univ); env maps bound variables to these.  Their
    names avoid taken, which gains them."""
    if isinstance(f, (FTrue, FFalse)):
        return [] if isinstance(f, FTrue) == pos else [()]
    if isinstance(f, FAtom):
        return [(Lit(pos, f.head, tuple(subst_term(t, env) for t in f.args), f.pvar),)]
    if isinstance(f, FNot):
        return _cnf(f.sub, not pos, env, univ, taken)
    if isinstance(f, FImp):
        return _cnf(FOr((FNot(f.lhs), f.rhs)), pos, env, univ, taken)
    if isinstance(f, FIff):
        a, b = f.lhs, f.rhs
        return _cnf(FOr((FAnd((a, b)), FAnd((FNot(a), FNot(b))))), pos, env, univ, taken)
    if isinstance(f, (FAll, FEx)):
        if isinstance(f, FAll) == pos:
            v = fresh_name("q", taken)
            return _cnf(f.sub, pos, {**env, f.var: Var(v)}, univ + (v,), taken)
        sk = App(fresh_name("sk", taken), tuple(Var(v) for v in univ))
        return _cnf(f.sub, pos, {**env, f.var: sk}, univ, taken)
    if isinstance(f, (FAnd, FOr)):
        if isinstance(f, FAnd) == pos:
            out = []
            for s in f.subs:
                out.extend(_cnf(s, pos, env, univ, taken))
                _within_cap(len(out))
            return out
        acc: list[tuple[Lit, ...]] = [()]
        for s in f.subs:
            cnf = _cnf(s, pos, env, univ, taken)
            _within_cap(len(acc) * len(cnf))
            acc = [a + b for a in acc for b in cnf]
        return acc
    raise TypeError(f)


def clausify(f: Formula, avoid: Iterable[str] = ()) -> list[Clause]:
    """The clausal form of f, built in one pass by `_cnf`: Skolemization of
    existentials and distribution to CNF.  Skolem symbols are `sk0`, `sk1`,
    ... in order, skipping the names in avoid and the function symbols and
    free variables of f, so they depend on nothing but the input.
    Equisatisfiable in general, equivalent for Skolem-free inputs; gfp
    constructors are rejected."""
    if formula_has_gfp(f):
        raise ClausifyError("gfp formulas have no clausal form")
    taken = {*avoid, *(name for name, _ in signature_of(formulas=[f]).funcs), *formula_free_vars(f)}
    return [Clause.make(ls) for ls in _cnf(f, True, {}, (), taken)]


# ---------------------------------------------------------------------------
# finite models


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


@dataclass(frozen=True)
class Block:
    """`count` models of one size that share their function tables, each
    standing for `weight` models (see `blocks`).  A set of these models is an
    int whose bit idx stands for the idx-th one.  `rels` maps (name, arity),
    then an argument tuple, to the set of models whose relation holds the
    tuple; a tuple it leaves out is in none."""

    size: int
    funcs: Mapping[tuple[str, int], Mapping[tuple[int, ...], int]]
    rels: Mapping[tuple[str, int], Mapping[tuple[int, ...], int]]
    count: int
    weight: int

    def model(self, idx: int) -> FiniteModel:
        rels = {k: frozenset(t for t, ms in r.items() if ms >> idx & 1) for k, r in self.rels.items()}
        return FiniteModel(self.size, self.funcs, rels)


def _block_of(m: FiniteModel) -> Block:
    """m as a block of one model."""
    return Block(m.size, m.funcs, {k: dict.fromkeys(r, 1) for k, r in m.rels.items()}, 1, 1)


def _table(tables: Mapping, key: tuple[str, int], what: str) -> Mapping:
    try:
        return tables[key]
    except KeyError:
        raise KeyError(f"uninterpreted {what} {key[0]}/{key[1]}") from None


class _Eval:
    """Truth values in all the models of one block at once.  Terms take one
    value in every model of the block, so equality is all or nothing, and
    the connectives are operations on bit sets."""

    def __init__(self, b: Block):
        self.b = b
        self.full = (1 << b.count) - 1
        self.gfps: dict[tuple, dict] = {}  # gfp relations (see `gfp`)

    def term(self, t: Term, venv: Mapping[str, int]) -> int:
        if isinstance(t, Var):
            if t.name not in venv:
                raise KeyError(f"unbound variable {t.name}")
            return venv[t.name]
        table = _table(self.b.funcs, (t.fn, len(t.args)), "function")
        return table[tuple(self.term(a, venv) for a in t.args)]

    def fold(self, values: Iterable[int], conj: bool) -> int:
        """The conjunction or disjunction of values, read until it is settled."""
        stop = 0 if conj else self.full
        acc = self.full ^ stop
        for v in values:
            acc = acc & v if conj else acc | v
            if acc == stop:
                break
        return acc

    def formula(self, f: Formula, venv: Mapping[str, int], penv: Mapping[str, Mapping]) -> int:
        """The models of the block where f holds; penv maps the predicate
        variables in scope to relations given as `Block.rels` gives them."""
        if isinstance(f, FAtom):
            args = tuple(self.term(a, venv) for a in f.args)
            if f.head == EQ and not f.pvar:
                return self.full if args[0] == args[1] else 0
            rel = penv.get(f.head) if f.pvar else None
            if rel is None:
                rel = _table(self.b.rels, (f.head, len(f.args)), "predicate")
            return rel.get(args, 0)
        if isinstance(f, (FAnd, FOr)):
            return self.fold((self.formula(s, venv, penv) for s in f.subs), isinstance(f, FAnd))
        if isinstance(f, (FAll, FEx)):
            subs = (self.formula(f.sub, {**venv, f.var: e}, penv) for e in range(self.b.size))
            return self.fold(subs, isinstance(f, FAll))
        if isinstance(f, FNot):
            return self.full ^ self.formula(f.sub, venv, penv)
        if isinstance(f, FImp):
            return self.full ^ self.formula(f.lhs, venv, penv) | self.formula(f.rhs, venv, penv)
        if isinstance(f, FIff):
            return self.full ^ self.formula(f.lhs, venv, penv) ^ self.formula(f.rhs, venv, penv)
        if isinstance(f, (FTrue, FFalse)):
            return self.full if isinstance(f, FTrue) else 0
        if isinstance(f, FGfp):
            return self.gfp(f, venv, penv).get(tuple(self.term(a, venv) for a in f.args), 0)
        raise TypeError(f)

    def gfp(self, f: FGfp, venv: Mapping[str, int], penv: Mapping[str, Mapping]) -> dict:
        """Downward iteration of the body operator from the full relation,
        one bit set per tuple, until no set changes.  Each model is one bit,
        and a bit whose relation no longer changes stays fixed, so every
        model gets the greatest fixpoint of its own monotone operator.  The
        relation is kept per values of the body's free names."""
        free = sorted(formula_free_vars(f.body) - set(f.params))
        pfree = sorted(p for p in formula_free_pvars(f.body) - {f.pvar} if p in penv)
        key = (id(f), *(venv[v] for v in free), *(tuple(penv[p].items()) for p in pfree))
        rel = self.gfps.get(key)
        if rel is None:
            tuples = list(itertools.product(range(self.b.size), repeat=len(f.params)))
            rel = dict.fromkeys(tuples, self.full)
            while True:
                inner = {**penv, f.pvar: rel}
                nxt = {t: self.formula(f.body, {**venv, **dict(zip(f.params, t))}, inner) for t in tuples}
                if nxt == rel:
                    break
                rel = nxt
            self.gfps[key] = rel
        return rel


def truth(
    b: Block,
    f: Formula,
    venv: Optional[Mapping[str, int]] = None,
    penv: Optional[Mapping[str, frozenset]] = None,
) -> int:
    """The models of b where f holds, as a bit set, given the values of its
    free variables and the relations of its free predicate variables, the
    same in every model."""
    ev = _Eval(b)
    return ev.formula(f, venv or {}, {p: dict.fromkeys(r, ev.full) for p, r in (penv or {}).items()})


def eval_formula(
    m: FiniteModel,
    f: Formula,
    venv: Optional[Mapping[str, int]] = None,
    penv: Optional[Mapping[str, frozenset]] = None,
) -> bool:
    return truth(_block_of(m), f, venv, penv) == 1


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

    def add_formula(self, f: Formula, bound: frozenset[str] = frozenset()) -> None:
        """Add f's symbols; a predicate variable in `bound` (bound by an
        enclosing `gfp`, or eliminated) is not part of the signature."""
        if isinstance(f, FAtom) and (f.head not in bound if f.pvar else f.head != EQ):
            (self.pvars if f.pvar else self.rels).setdefault((f.head, len(f.args)))
        subs, _, pnames, terms = parts(f)
        for t in terms:
            self.add_term(t)
        for g in subs:
            self.add_formula(g, bound.union(pnames))


def signature_of(
    clauses: Sequence[Clause] = (), formulas: Sequence[Formula] = (), bound: Iterable[str] = ()
) -> Signature:
    """The symbols of the clauses and formulas, without the predicate
    variables named in `bound`."""
    sig, bound = Signature(), frozenset(bound)
    for c in clauses:
        for l in c.lits:
            sig.add_formula(lit_to_formula(l), bound)
    for f in formulas:
        sig.add_formula(f, bound)
    return sig


def model_count(sig: Signature, n: int) -> int:
    total = 1
    for (_, k) in sig.funcs:
        total *= n ** (n**k)
    for (_, k) in list(sig.rels) + list(sig.pvars):
        total *= 2 ** (n**k)
    return total


def _function_tables(domains: Sequence[list], consts: Sequence[bool]) -> Iterator[tuple[tuple, int]]:
    """Every choice of one table per domain, in lexicographic order, in which
    each constant takes a value at most one above the largest value of the
    constants before it (a constant's domain lists its tables by value), with
    the number of distinct constant values in it."""
    for choice in itertools.product(*(enumerate(d) for d in domains)):
        vals = [v for (v, _), const in zip(choice, consts) if const]
        if all(v <= max(vals[:j], default=-1) + 1 for j, v in enumerate(vals)):
            yield tuple(table for _, table in choice), len(set(vals))


def blocks(sig: Signature, n: int) -> Iterator[Block]:
    """The models of size n over the signature, one block per assignment of
    function tables, deterministically ordered.  Free predicate variables are
    enumerated as ordinary relations, innermost and as `itertools.product`
    lists them: of the A ground atoms (symbols in sorted order, tuples in
    product order), atom j holds in the idx-th model iff bit A-1-j of idx is
    set, so its set of models is a periodic bit pattern.  Each constant
    takes a value at most one above the largest value of the constants
    before it, so the constant vector stands for its orbit under
    permutations of the domain: the n*(n-1)*...*(n-b+1) vectors with its
    pattern of equal values (b distinct ones).  Every model with a vector in
    the orbit is isomorphic to one with this vector.  The orbit's size is
    the weight, so the weights add up to model_count."""
    fkeys = sorted(sig.funcs)
    rkeys = sorted(sig.rels) + sorted(sig.pvars)
    atoms = [(key, p) for key in rkeys for p in itertools.product(range(n), repeat=key[1])]
    count = 1 << len(atoms)
    full = (1 << count) - 1
    rels: dict[tuple[str, int], dict[tuple[int, ...], int]] = {key: {} for key in rkeys}
    for j, (key, p) in enumerate(atoms):
        half = 1 << (len(atoms) - 1 - j)
        # false in `half` models, true in the next `half`, and so on
        rels[key][p] = full // ((1 << 2 * half) - 1) * (((1 << half) - 1) << half)
    fdomains = []
    for (_, k) in fkeys:
        points = list(itertools.product(range(n), repeat=k))
        fdomains.append(
            [dict(zip(points, vals)) for vals in itertools.product(range(n), repeat=len(points))]
        )
    consts = [k == 0 for _, k in fkeys]
    for ftables, used in _function_tables(fdomains, consts):
        yield Block(n, dict(zip(fkeys, ftables)), rels, count, math.perm(n, used))


def fn_cap_ok(sig: Signature) -> bool:
    heavy = [(f, k) for (f, k) in sig.funcs if k >= 1]
    return len(heavy) <= 2 and all(k <= 2 for _, k in heavy)


def small_blocks(
    sig: Signature,
    deadline: float,
    notes: list[str],
    too_large: Callable[[int], Optional[str]] = lambda size: None,
) -> Iterator[Block]:
    """The blocks of sizes 1-3 over sig (see `blocks`), smallest first,
    within the deadline, checked before each block, and the enumeration
    caps; notes each size skipped or cut short.  Stops before the first size
    that too_large gives a reason against."""
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
        why = too_large(size)
        if why is not None:
            notes.append(f"soqe enumeration skipped: {why}")
            return
        for b in blocks(sig, size):
            if time.monotonic() > deadline:
                notes.append(f"model check interrupted at size {size} (timeout)")
                return
            yield b


def _bits(x: int) -> Iterator[int]:
    """The positions of the set bits of x, in ascending order."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


# ---------------------------------------------------------------------------
# second-order satisfaction on a fixed model


# the most ground instances `_Soqe` takes of one clause
MAX_GROUND_INSTANCES = 3**6


class _Soqe:
    """Solvability of one clause set in every model of block after block.
    The clauses are ground once per block: that settles the equality
    literals and every argument tuple, and leaves each instance as its
    predicate-variable literals, live in the models where its other literals
    are all false.  Then the ground predicate-variable atoms are resolved
    away one at a time (Davis and Putnam's elimination), each clause carrying
    the set of models where it is live, so one pass decides every model:
    the set is unsolvable where the empty clause is live at the end."""

    def __init__(
        self, n: Sequence[Clause], xars: Mapping[str, int], deadline: float = float("inf")
    ):
        self.xars = dict(xars)
        self.deadline = deadline
        # per clause: the clause, its variables, its other literals as
        # formulas and its predicate-variable literals
        self.clauses = [
            (
                c,
                sorted(c.vars),
                [lit_to_formula(l) for l in c.lits if not (l.pvar and l.head in xars)],
                [l for l in c.lits if l.pvar and l.head in xars],
            )
            for c in n
        ]

    def too_large(self, size: int) -> Optional[str]:
        """Why models of this size are out of reach, if they are: a predicate
        variable with more than 9 argument tuples or a clause with more than
        MAX_GROUND_INSTANCES ground instances.  It depends on the size alone."""
        for x, k in self.xars.items():
            if size**k > 9:
                return f"{x}/{k} over domain size {size}"
        for c, vs, _, _ in self.clauses:
            if size ** len(vs) > MAX_GROUND_INSTANCES:
                return f"too many ground instances of {c}"
        return None

    def models(self, b: Block, among: int) -> Optional[int]:
        """The models in among (a set of models of b) where some assignment
        of relations to the predicate variables satisfies every clause, or
        None once the deadline has passed, checked before each atom."""
        if not among:
            return 0
        ev = _Eval(b)
        live: dict[frozenset, int] = {}  # ground clause -> models where it is live
        for _, vs, rest, xlits in self.clauses:
            for vals in itertools.product(range(b.size), repeat=len(vs)):
                venv = dict(zip(vs, vals))
                false = among
                for f in rest:
                    false &= ~ev.formula(f, venv, {})
                    if not false:
                        break
                else:
                    lits = frozenset(
                        (l.pos, l.head, tuple(ev.term(t, venv) for t in l.args)) for l in xlits
                    )
                    if not _complementary(lits):
                        live[lits] = live.get(lits, 0) | false
        unsolvable = live.pop(frozenset(), 0)  # where the empty clause is live
        for atom in sorted({lit[1:] for c in live for lit in c}):
            if time.monotonic() > self.deadline:
                return None
            pos, neg = (True, *atom), (False, *atom)
            ps = [(c - {pos}, m) for c, m in live.items() if pos in c]
            ns = [(c - {neg}, m) for c, m in live.items() if neg in c]
            live = {c: m for c, m in live.items() if pos not in c and neg not in c}
            for p, m in ps:
                for q, n in ns:
                    r, keep = p | q, m & n & ~unsolvable
                    if not keep or _complementary(r):
                        continue
                    if not r:
                        unsolvable |= keep
                        continue
                    # r adds nothing where a live clause inside it is live
                    for c, k in live.items():
                        if k & keep and c <= r:
                            keep &= ~k
                    if keep:
                        live[r] = live.get(r, 0) | keep
        return among & ~unsolvable


def _complementary(lits: frozenset) -> bool:
    """Whether the ground literals hold some atom with both signs."""
    return any((not pos, x, t) in lits for pos, x, t in lits)


def soqe_holds(m: FiniteModel, n: Sequence[Clause], xars: Mapping[str, int]) -> bool:
    """Does some assignment of relations to the predicate variables satisfy
    every clause of n on m?"""
    return _Soqe(n, xars).models(_block_of(m), 1) == 1


# ---------------------------------------------------------------------------
# refutation prover


@dataclass(frozen=True)
class Proved:
    proof: Derivation  # as replayed through `RULES`


@dataclass(frozen=True)
class Rejected:
    """A refutation that does not replay through `RULES`."""

    proof: Derivation


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
        # id -> (rule, args in trace order, clause); inputs have rule "input"
        self.recs: dict[int, tuple[str, tuple, Clause]] = {}
        self.next_id = 1
        self.active: dict[int, Clause] = {}
        self.passive: list[tuple[int, int]] = []  # (size, id)
        self.seen: set[Clause] = set()
        self.units: dict[Lit, int] = {}  # ground unit literal -> id of its clause
        self.empty_id: Optional[int] = None
        for c in clauses:
            self._admit(c, "input", ())

    def _admit(self, c: Clause, rule: str, args: tuple) -> None:
        if self.empty_id is not None:
            return
        cid = self.next_id
        self.next_id += 1
        self.recs[cid] = (rule, args, c)
        c2, applied = variable_eliminate(c)
        if applied:
            self._admit(c2, "varelim", (cid,))
            return
        # a constraint t != t is a false literal; dropping it is a trivial
        # constraint elimination and keeps factors from degenerating
        refl = tuple(
            i for i, l in enumerate(c.lits) if l.is_constraint and l.args[0] == l.args[1]
        )
        if refl:  # reflexive constraints always unify
            self._admit(constraint_eliminate(c, refl), "constrelim", (cid, refl))
            return
        if not c.lits:
            self.empty_id = cid
            return
        if is_tautology(c) or has_reflexive_equation(c) or c in self.seen:
            return
        if self._unit_deleted(cid, c):
            return
        self.seen.add(c)
        heapq.heappush(self.passive, (c.size, cid))
        if len(c.lits) == 1 and not c.vars:
            self.units[c.lits[0]] = cid

    def _unit_deleted(self, cid: int, c: Clause) -> bool:
        """Unit deletion, on arrival and again on selection: if a derived
        ground unit (queued, active or since made redundant) refutes a
        literal of c, admit their resolvent instead of c.  Its constraints
        are reflexive, so it becomes c without that literal, which deletes c
        by one-way subsumption as `_redundant` would."""
        for i, l in enumerate(c.lits):
            uid = self.units.get(l.dual())
            if uid is not None:
                unit = pointed(self.recs[uid][2], 0)
                self._admit(constraint_resolve(pointed(c, i), unit), "res", (cid, i, uid, 0))
                return True
        return False

    def _spend(self) -> bool:
        self.inferences += 1
        return self.inferences <= MAX_INFERENCES and time.monotonic() <= self.deadline

    def run(self) -> Optional[Derivation]:
        while self.passive and self.empty_id is None:
            if time.monotonic() > self.deadline or self.inferences > MAX_INFERENCES:
                return None
            _, gid = heapq.heappop(self.passive)
            g = self.recs[gid][2]
            # only active clauses subsume or get subsumed, and only here
            if self._unit_deleted(gid, g):
                continue
            if any(_redundant(a, g) for a in self.active.values()):
                continue
            for i in [i for i, a in self.active.items() if _redundant(g, a)]:
                del self.active[i]
            self.active[gid] = g
            self._generate(gid, g)
        if self.empty_id is None:
            return None
        # premises have smaller ids than their conclusions, so one pass down
        # the ids collects the ancestry of the empty clause; it is renumbered
        # inputs first, which keeps every premise before its conclusion
        need = {self.empty_id}
        for i in range(self.empty_id, 0, -1):
            rule, args, _ = self.recs[i]
            if i in need and rule != "input":
                need.update(args[k] for k in RULES[rule].premises)
        order = sorted(need, key=lambda i: (self.recs[i][0] != "input", i))
        new = {old: k for k, old in enumerate(order, 1)}
        inputs = tuple(self.recs[i][2] for i in order if self.recs[i][0] == "input")
        steps = []
        for i in order[len(inputs) :]:
            rule, args, c = self.recs[i]
            ids = RULES[rule].premises
            args = tuple(new[a] if k in ids else a for k, a in enumerate(args))
            steps.append(Step(rule, args, (), new[i], c))
        return Derivation(inputs, tuple(steps))

    def _generate(self, gid: int, g: Clause) -> None:
        """Every inference between g and an active clause, each site once:
        resolution only with g's literal first (the other order builds the
        same clauses), paramodulation both ways between distinct clauses.
        `_admit` leaves `active` alone, so the loop may iterate it."""
        for hid, h in self.active.items():
            if self.empty_id is not None:
                return
            # renamed apart once per pair, so constraint_resolve's renaming is a no-op
            hr = rename_clause_apart(h, g.vars)
            for i in range(len(g.lits)):
                p = pointed(g, i)
                for q in resolution_partners(p, hr):
                    if not self._spend():
                        return
                    self._admit(constraint_resolve(p, q), "res", (gid, i, hid, q.index))
            sides = ((g, gid, h, hid), (h, hid, g, gid))
            for c1, c1id, c2, c2id in sides[: 1 if hid == gid else 2]:
                for r, ei, orient, li, path in all_paramodulants(c1, c2):
                    if not self._spend():
                        return
                    self._admit(r, "parmod", (c1id, ei, orient, c2id, (li,) + path))
        # unary rules on the given clause
        for i, j in factor_pairs(g):
            if not self._spend():
                return
            self._admit(constraint_factor(g, i, j), "fac", (gid, i, j))
        for sel in [None] + [(i,) for i, l in enumerate(g.lits) if l.is_constraint]:
            r = constraint_eliminate(g, sel)
            if r is not None:
                if not self._spend():
                    return
                self._admit(r, "constrelim", (gid, sel))


def find_model(clauses: Sequence[Clause], deadline: float = float("inf")) -> Optional[FiniteModel]:
    """A finite model of all the clauses (free predicate variables enumerated
    as relations), or None within the size/effort bounds."""
    f = FAnd(tuple(clause_to_formula(c) for c in clauses))
    for b in small_blocks(signature_of(clauses), deadline, []):
        found = truth(b, f)
        if found:
            return b.model(next(_bits(found)))
    return None


def prove(
    premises: Sequence[Clause],
    goal: Optional[Formula] = None,
    timeout: float = 5.0,
) -> ProverResult:
    """Refute premises + the negated goal.  Proved carries a refutation that
    starts from those clauses and replays through `RULES`, Rejected one that
    does not; Disproved carries a countermodel found by finite-model search;
    Unknown reports the exhausted budget."""
    deadline = time.monotonic() + timeout
    symbols = (name for c in premises for name, _ in c.fn_symbols)
    clauses = list(premises) + (clausify(FNot(goal), symbols) if goal is not None else [])
    try:
        got = _Prover(clauses, deadline).run()
    except RecursionError:  # pathological nesting; treat as budget
        got = None
    if got is not None:
        # a refutation counts when it starts from the clauses it was given
        if set(got.inputs) <= set(clauses):
            try:
                return Proved(replay_proof(got))
            except ReplayError:
                pass
        return Rejected(got)
    m = find_model(clauses, deadline=deadline)
    if m is not None:
        return Disproved(m)
    return Unknown("saturation budget exhausted without refutation or countermodel")


# ---------------------------------------------------------------------------
# witness checking


@dataclass(frozen=True)
class CheckReport:
    # (input clause index, proved/rejected/disproved/unknown/skipped)
    prover: tuple[tuple[int, str], ...]
    models_checked: int  # the models covered: each evaluated one counts its weight
    models_evaluated: int
    failures: tuple[str, ...]
    notes: tuple[str, ...]

    def completed(self) -> int:
        return self.models_checked + sum(1 for _, r in self.prover if r == "proved")

    @property
    def passed(self) -> bool:
        """No failure, and at least one model or one proof behind the verdict."""
        return not self.failures and self.completed() > 0


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
            # no goal runs past the check's deadline
            left = max(0.0, deadline - time.monotonic())
            try:
                got = prove(conclusion, g, timeout=min(budget, left))
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
    sig = signature_of(list(n) + list(conclusion), goals, bound=xars)
    solvable, under_w = _Soqe(n, xars, deadline), FAnd(tuple(goals))
    checked = evaluated = disagreements = 0
    for b in small_blocks(sig, deadline, notes, solvable.too_large):
        # where n under w holds, w's relations solve n, so only the models
        # where it fails need the solvability test
        wrong = solvable.models(b, (1 << b.count) - 1 ^ truth(b, under_w))
        if wrong is None:
            notes.append(f"model check interrupted at size {b.size} (timeout)")
            break
        done = b.count
        for idx in _bits(wrong):
            failures.append(
                f"model disagreement ({b.model(idx).describe()}): solvable=True, witness gives False"
            )
            disagreements += 1
            if disagreements == 5:
                done = idx + 1
                notes.append("model check stopped after 5 disagreements")
                break
        checked += b.weight * done
        evaluated += done
        if disagreements == 5:
            break
    return CheckReport(tuple(prover_results), checked, evaluated, tuple(failures), tuple(notes))
