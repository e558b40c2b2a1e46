"""Core syntax: terms, literals, clauses, formulas and substitutions.

Clauses are kept in a canonical form so that clause equality coincides with
equality up to variable renaming.  Literals are deduplicated and sorted by a
renaming-invariant shape key (``_lit_shape``).  Among the orders that keep
that sort, the form takes the one whose literals give the least sequence of
literal keys once variables are renamed to ``u0, u1, ...`` in order of first
occurrence; ties go to the first such order by input index.  A literal's key
compares kind, head, polarity and then the arguments, where a variable comes
before any function term, variables compare by name, and function terms by
symbol and then arguments.  The form is
canonical at every clause size.  Finding it takes exponential time only on
highly symmetric clauses, where many orders tie.  Equality literals with
negative polarity are the *constraint* literals of the calculus and sort
first, so a clause's constraint block is always a prefix of its literal
tuple.

Predicate variables (the second-order variables to be eliminated) are ordinary
literal/atom heads flagged with ``pvar=True``; the equality head is the
reserved name ``"="``.

Formulas have one generic traversal: ``parts`` splits a node into its
immediate subformulas, the variables and predicate variables it binds over
them, and the terms it holds outside their scope (atom and ``gfp``
arguments), and ``rebuild`` puts a node back together from them.  These two
are the one place that knows the fields of each node, binders included, so
free names, substitution, predicate substitution, canonical renaming and
size treat a quantifier and a ``gfp`` alike; a walker keeps a case only for
atoms, whose heads may be predicate variables.  The simplifier, the printer,
the clausifier and the finite-model evaluator do different work for each
connective, so they match on the node classes themselves; in the simplifier,
``DUAL`` and ``UNIT`` let one case serve a connective and its dual.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

EQ = "="

# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class App:
    fn: str
    args: tuple["Term", ...] = ()


Term = Union[Var, App]


def const(name: str) -> App:
    """A constant is a nullary function application."""
    return App(name, ())


def term_str(t: Term) -> str:
    if isinstance(t, Var):
        return f"?{t.name}"
    if not t.args:
        return t.fn
    return f"{t.fn}({','.join(term_str(a) for a in t.args)})"


def term_vars(t: Term) -> Iterator[str]:
    if isinstance(t, Var):
        yield t.name
    else:
        for a in t.args:
            yield from term_vars(a)


def occurs_in(v: str, t: Term) -> bool:
    return any(name == v for name in term_vars(t))


def is_proper_subterm_var(v: str, t: Term) -> bool:
    """True when the variable v occurs in t and t is not v itself."""
    if isinstance(t, Var) and t.name == v:
        return False
    return occurs_in(v, t)


Subst = Mapping[str, Term]


def subst_term(t: Term, s: Subst) -> Term:
    if isinstance(t, Var):
        return s.get(t.name, t)
    if not t.args:
        return t
    return App(t.fn, tuple(subst_term(a, s) for a in t.args))


def subst_consts(t: Term, s: Mapping[str, Term]) -> Term:
    """Replace constants (nullary applications) by terms; used when turning a
    parametric clause over placeholder constants into an instance."""
    if isinstance(t, Var):
        return t
    if not t.args:
        return s.get(t.fn, t)
    return App(t.fn, tuple(subst_consts(a, s) for a in t.args))


def mgu(pairs: Iterable[tuple[Term, Term]]) -> Optional[dict[str, Term]]:
    """Most general unifier of the given pairs, or None."""
    eqs = list(pairs)
    out: dict[str, Term] = {}
    while eqs:
        lhs, rhs = eqs.pop()
        lhs, rhs = subst_term(lhs, out), subst_term(rhs, out)
        if lhs == rhs:
            continue
        if isinstance(lhs, App) and isinstance(rhs, App):
            if lhs.fn != rhs.fn or len(lhs.args) != len(rhs.args):
                return None
            eqs.extend(zip(lhs.args, rhs.args))
            continue
        if isinstance(rhs, Var):
            lhs, rhs = rhs, lhs
        assert isinstance(lhs, Var)
        if occurs_in(lhs.name, rhs):
            return None
        binding = {lhs.name: rhs}
        out = {v: subst_term(t, binding) for v, t in out.items()}
        out[lhs.name] = rhs
    return out


def fresh_name(prefix: str, taken: set[str]) -> str:
    """The first of ``prefix0``, ``prefix1``, ... that is not in taken, which
    gains it.  Each caller passes the names its result must avoid, so every
    name depends on the input alone."""
    name = next(n for n in (f"{prefix}{k}" for k in itertools.count()) if n not in taken)
    taken.add(name)
    return name


# ---------------------------------------------------------------------------
# literals


@dataclass(frozen=True)
class Lit:
    pos: bool
    head: str
    args: tuple[Term, ...]
    pvar: bool = False

    @property
    def is_eq(self) -> bool:
        return self.head == EQ and not self.pvar

    @property
    def is_constraint(self) -> bool:
        return self.is_eq and not self.pos

    def dual(self) -> "Lit":
        return Lit(not self.pos, self.head, self.args, self.pvar)

    @property
    def kind(self) -> tuple[bool, str, bool, int]:
        """``(pos, head, pvar, arity)``: the fields ``same_kind`` compares."""
        return (self.pos, self.head, self.pvar, len(self.args))

    def same_kind(self, other: "Lit") -> bool:
        """Same head and polarity (the 'L-literal' relation)."""
        return (
            self.pos == other.pos
            and self.head == other.head
            and self.pvar == other.pvar
            and len(self.args) == len(other.args)
        )

    def __str__(self) -> str:
        return lit_str(self)


def lit_str(l: Lit) -> str:
    if l.is_eq:
        op = "=" if l.pos else "!="
        return f"{term_str(l.args[0])} {op} {term_str(l.args[1])}"
    core = l.head if not l.args else f"{l.head}({','.join(term_str(a) for a in l.args)})"
    return core if l.pos else f"~{core}"


def subst_lit(l: Lit, s: Subst) -> Lit:
    return Lit(l.pos, l.head, tuple(subst_term(t, s) for t in l.args), l.pvar)


def lit_vars(l: Lit) -> Iterator[str]:
    for t in l.args:
        yield from term_vars(t)


def lit_size(l: Lit) -> int:
    """Number of non-logical symbol occurrences (equality and negation do not
    count; predicate variables do)."""
    return (0 if l.is_eq else 1) + sum(map(_term_size, l.args))


def velim_candidates(lits: Sequence[Lit]) -> Iterator[tuple[int, str, Term]]:
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


# ---------------------------------------------------------------------------
# clauses

_KIND_EQ, _KIND_SYM, _KIND_PVAR = 0, 1, 2


def _lit_kind(l: Lit) -> int:
    if l.is_eq:
        return _KIND_EQ
    return _KIND_PVAR if l.pvar else _KIND_SYM


def _term_shape(t: Term):
    if isinstance(t, Var):
        return ("*",)
    return (t.fn, tuple(_term_shape(a) for a in t.args))


def _lit_shape(l: Lit):
    return (_lit_kind(l), l.head, l.pos, tuple(_term_shape(t) for t in l.args))


def _canonical_order(lits: list[Lit]) -> tuple[Lit, ...]:
    """Order literals canonically and rename variables to u0, u1, ...

    Literals are sorted by ``_lit_shape``; only literals of one shape may
    change places.  Of those orders, the canonical one gives the least
    sequence of literal keys once variables are renamed by first occurrence, and
    among orders that give it, the first in input-index order wins.  This
    holds at every clause size.  When no two literals share a shape the sort
    alone is the order; otherwise ``_least_order`` finds it, in time that is
    exponential only on highly symmetric clauses.  Returns the renamed
    literals in that order.
    """
    shapes = [_lit_shape(l) for l in lits]
    order = sorted(range(len(lits)), key=shapes.__getitem__)
    groups: list[list[int]] = []
    for i in order:
        if groups and shapes[groups[-1][-1]] == shapes[i]:
            groups[-1].append(i)
        else:
            groups.append([i])
    seq = order if len(groups) == len(lits) else _least_order(lits, groups)
    ren: dict[str, Term] = {}
    for i in seq:
        for v in lit_vars(lits[i]):
            if v not in ren:
                ren[v] = Var(f"u{len(ren)}")
    return tuple(subst_lit(lits[i], ren) for i in seq)


def _least_order(lits: list[Lit], groups: list[list[int]]) -> Sequence[int]:
    """The first index sequence, through the shape groups in turn, whose
    renamed literals give the least sequence of literal keys.

    Renaming by first occurrence makes the key of the literal at a position
    depend only on that literal and the ones before it, so the least sequence
    is built one position at a time: each partial order kept so far is
    extended by each unused literal of the current group, and only the
    extensions with the least key at that position are kept.  Literals of
    one shape differ only in their variables, so that key compares as the
    tuple of names their variable occurrences get, as strings, in order.  Partial orders are kept
    in index order, and two that used the same literals and named the
    variables of the unused literals alike have the same completions, so only
    the first of them is kept.  A literal whose variables occur in no other
    literal can trade places with any such literal of its group that has the
    same variable pattern, so only the first unused one of those is tried.

    The work grows exponentially only on highly symmetric clauses, such as
    the edge literals of a complete graph, where many partial orders tie and
    stay distinct.
    """
    occs = [tuple(lit_vars(l)) for l in lits]
    holders: dict[str, int] = {}  # variable -> bit set of the literals it occurs in
    for i, vs in enumerate(occs):
        for v in vs:
            holders[v] = holders.get(v, 0) | 1 << i
    pattern: list[Optional[tuple[int, ...]]] = []
    for i, vs in enumerate(occs):
        local: dict[str, int] = {}
        lone = all(holders[v] == 1 << i for v in vs)
        pattern.append(tuple(local.setdefault(v, len(local)) for v in vs) if lone else None)
    # (index sequence, names given so far, bit set of the literals used)
    partials: list[tuple[tuple[int, ...], dict[str, str], int]] = [((), {}, 0)]
    for group in groups:
        for _ in group:
            best: Optional[tuple[str, ...]] = None
            kept: dict[tuple, tuple[tuple[int, ...], dict[str, str], int]] = {}
            for seq, ren, used in partials:
                tried = set()
                for i in group:
                    if used >> i & 1 or pattern[i] in tried:
                        continue
                    if pattern[i] is not None:
                        tried.add(pattern[i])
                    named = dict(ren)
                    for v in occs[i]:
                        if v not in named:
                            named[v] = f"u{len(named)}"
                    key = tuple(map(named.__getitem__, occs[i]))
                    if best is not None and key > best:
                        continue
                    if best is None or key < best:
                        best, kept = key, {}
                    now_used = used | 1 << i
                    # what the completions depend on: the unused literals and
                    # the names of the variables that occur in them
                    live = frozenset((v, n) for v, n in named.items() if holders[v] & ~now_used)
                    if (now_used, live) not in kept:
                        kept[now_used, live] = (seq + (i,), named, now_used)
            partials = list(kept.values())
    return partials[0][0]


@dataclass(frozen=True)
class Clause:
    lits: tuple[Lit, ...] = ()

    @staticmethod
    def make(lits: Iterable[Lit]) -> "Clause":
        return pointed_make(lits)

    @property
    def vars(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for l in self.lits:
            for v in lit_vars(l):
                seen.setdefault(v)
        return tuple(seen)

    @property
    def size(self) -> int:
        return sum(lit_size(l) for l in self.lits)

    # Computed once per clause object: the hash, which dict and set lookups
    # (the search's memo among them) would otherwise take over the whole
    # term tree each time, the text, which the canonical sort keys read,
    # the subsumption features, argument index and pattern orders, and the
    # constraint unfoldings.  A cached property lives in the instance dict,
    # so equality and hashing (which read only ``lits``) are unaffected, and
    # it goes with the clause.

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # the value the dataclass hash had, so set iteration orders stay
        return hash((self.lits,))

    @cached_property
    def lits_by_kind(self) -> dict[tuple, tuple[int, ...]]:
        """Literal indices grouped by ``Lit.kind``."""
        out: dict[tuple, list[int]] = {}
        for i, l in enumerate(self.lits):
            out.setdefault(l.kind, []).append(i)
        return {k: tuple(ix) for k, ix in out.items()}

    @cached_property
    def lits_by_arg(self) -> dict[tuple, tuple[int, ...]]:
        """Literal indices by ``(Lit.kind, position, argument)``.  An equation
        files each side under position ``None``, so either orientation finds it."""
        out: dict[tuple, list[int]] = {}
        for i, l in enumerate(self.lits):
            for p, t in enumerate(l.args):
                ix = out.setdefault((l.kind, None if l.is_eq else p, t), [])
                if not ix or ix[-1] != i:
                    ix.append(i)
        return {k: tuple(ix) for k, ix in out.items()}

    @cached_property
    def pattern_orders(self) -> dict[tuple[int, ...], tuple]:
        """The subsumption matcher's literal orders for this clause as a
        pattern, by rank vector; ``subsumption._subsumes`` fills it."""
        return {}

    @cached_property
    def fn_symbols(self) -> frozenset[tuple[str, int]]:
        """Every function symbol (constants included) as ``(name, arity)``."""
        out = set()
        todo = [t for l in self.lits for t in l.args]
        while todo:
            t = todo.pop()
            if isinstance(t, App):
                out.add((t.fn, len(t.args)))
                todo.extend(t.args)
        return frozenset(out)

    @cached_property
    def unfoldings(self) -> frozenset["Clause"]:
        """Every clause reachable by eliminating constraints  v != t  one at a
        time, substituting t for v; each has fewer literals than this one.
        The set is cut off at a fixed size; that only ever weakens relations
        built on top of it."""
        seen: set[Clause] = set()
        queue = [self]
        while queue and len(seen) < 255:
            cur = queue.pop()
            for i, v, t in velim_candidates(cur.lits):
                sub = {v: t}
                nxt = Clause.make(subst_lit(l, sub) for j, l in enumerate(cur.lits) if j != i)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return frozenset(seen)

    def __str__(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        if not self.lits:
            return "false"  # the clause grammar reads a line `false` as the empty clause
        return " | ".join(lit_str(l) for l in self.lits)


def _orient_eq(l: Lit) -> Lit:
    """Order the arguments of an equality literal by shape (variables first,
    then smaller terms); equalities are symmetric, so this is harmless and it
    makes syntactic comparisons of clause sets orientation-independent."""
    if not l.is_eq:
        return l
    a, b = l.args
    if _term_shape(b) < _term_shape(a):
        return Lit(l.pos, l.head, (b, a), l.pvar)
    return l


def pointed_make(lits: Iterable[Lit]) -> Clause:
    """The canonical clause of `lits`.  ``Clause.make`` calls it through the module
    global, because the benchmark's tracer wraps this name as ``logic.canon``."""
    uniq = list(dict.fromkeys(_orient_eq(l) for l in lits))
    return Clause(_canonical_order(uniq) if uniq else ())


@dataclass(frozen=True)
class PointedClause:
    """A clause with one designated literal (by index into the canonical tuple)."""

    clause: Clause
    index: int

    @property
    def designated(self) -> Lit:
        return self.clause.lits[self.index]

    @property
    def rest(self) -> tuple[Lit, ...]:
        return tuple(l for i, l in enumerate(self.clause.lits) if i != self.index)


def pointed(clause: Clause, index: int) -> PointedClause:
    if not (0 <= index < len(clause.lits)):
        raise IndexError(f"no literal {index} in {clause}")
    return PointedClause(clause, index)


def rename_clause_apart(c: Clause, avoid: Iterable[str]) -> Clause:
    """Rename the clause's variables that occur in `avoid` to ``v0, v1, ...``
    names in neither `avoid` nor the clause.

    Note the result is *not* canonical; it is for building inference premises.
    Returns a plain literal tuple wrapped in Clause without re-canonicalizing.
    """
    taken = set(avoid)
    clash = [v for v in c.vars if v in taken]
    if not clash:
        return c
    taken.update(c.vars)
    ren = {v: Var(fresh_name("v", taken)) for v in clash}
    return Clause(tuple(subst_lit(l, ren) for l in c.lits))


# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True)
class FTrue:
    pass


@dataclass(frozen=True)
class FFalse:
    pass


@dataclass(frozen=True)
class FAtom:
    head: str
    args: tuple[Term, ...] = ()
    pvar: bool = False


@dataclass(frozen=True)
class FNot:
    sub: "Formula"


@dataclass(frozen=True)
class FAnd:
    subs: tuple["Formula", ...]


@dataclass(frozen=True)
class FOr:
    subs: tuple["Formula", ...]


@dataclass(frozen=True)
class FImp:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class FIff:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True)
class FAll:
    var: str
    sub: "Formula"


@dataclass(frozen=True)
class FEx:
    var: str
    sub: "Formula"


@dataclass(frozen=True)
class FGfp:
    """(gfp_{pvar} lambda params. body)(args) — a greatest-fixpoint application."""

    pvar: str
    params: tuple[str, ...]
    body: "Formula"
    args: tuple[Term, ...]


Formula = Union[
    FTrue, FFalse, FAtom, FNot, FAnd, FOr, FImp, FIff, FAll, FEx, FGfp
]

TRUE = FTrue()
FALSE = FFalse()


# Negation swaps each connective with its dual.  A junction's unit is its
# value when empty, and the dual's unit absorbs it.
DUAL: dict[type, type] = {FAnd: FOr, FOr: FAnd, FAll: FEx, FEx: FAll}
UNIT: dict[type, Formula] = {FAnd: TRUE, FOr: FALSE}


def junction(kind: type, subs: Iterable[Formula]) -> Formula:
    """The conjunction (kind FAnd) or disjunction (FOr) of subs, with nested
    junctions of the same kind flattened and the empty and one-element cases
    collapsed."""
    flat: list[Formula] = []
    for s in subs:
        if isinstance(s, kind):
            flat.extend(s.subs)
        else:
            flat.append(s)
    if not flat:
        return UNIT[kind]
    if len(flat) == 1:
        return flat[0]
    return kind(tuple(flat))


def fand(*subs: Formula) -> Formula:
    return junction(FAnd, subs)


def for_(*subs: Formula) -> Formula:
    return junction(FOr, subs)


def forall(vars_: Iterable[str], sub: Formula) -> Formula:
    out = sub
    for v in reversed(list(vars_)):
        out = FAll(v, out)
    return out


def lit_to_formula(l: Lit) -> Formula:
    atom = FAtom(l.head, l.args, l.pvar)
    return atom if l.pos else FNot(atom)


def formula_to_lit(f: Formula) -> Lit:
    """The inverse of lit_to_formula, for an atom under any number of `~`."""
    if isinstance(f, FNot):
        return formula_to_lit(f.sub).dual()
    assert isinstance(f, FAtom)
    return Lit(True, f.head, f.args, f.pvar)


def clause_to_formula(c: Clause) -> Formula:
    return forall(c.vars, for_(*[lit_to_formula(l) for l in c.lits]))


Parts = tuple[tuple[Formula, ...], tuple[str, ...], tuple[str, ...], tuple[Term, ...]]


def parts(f: Formula) -> Parts:
    """f's immediate subformulas, left to right; the variables and the
    predicate variables f binds over them; and the terms f holds outside
    their scope (atom and gfp arguments)."""
    if isinstance(f, FAtom):
        return (), (), (), f.args
    if isinstance(f, (FAnd, FOr)):
        return f.subs, (), (), ()
    if isinstance(f, FNot):
        return (f.sub,), (), (), ()
    if isinstance(f, (FAll, FEx)):
        return (f.sub,), (f.var,), (), ()
    if isinstance(f, (FImp, FIff)):
        return (f.lhs, f.rhs), (), (), ()
    if isinstance(f, FGfp):
        return (f.body,), f.params, (f.pvar,), f.args
    if isinstance(f, (FTrue, FFalse)):
        return (), (), (), ()
    raise TypeError(f)


def rebuild(f: Formula, subs: Sequence[Formula], names: Sequence[str], pnames: Sequence[str],
            terms: Sequence[Term]) -> Formula:
    """The node of f's kind with the given parts, in the order ``parts``
    gives them; an atom keeps its head.  Uses the raw constructors, so
    nothing is flattened."""
    if isinstance(f, FAtom):
        return FAtom(f.head, tuple(terms), f.pvar)
    if isinstance(f, (FAnd, FOr)):
        return type(f)(tuple(subs))
    if isinstance(f, (FNot, FImp, FIff)):
        return type(f)(*subs)
    if isinstance(f, (FAll, FEx)):
        return type(f)(*names, *subs)
    if isinstance(f, FGfp):
        return FGfp(*pnames, tuple(names), *subs, tuple(terms))
    return f


def formula_free_vars(f: Formula) -> frozenset[str]:
    subs, names, _, terms = parts(f)
    free = frozenset().union(*map(formula_free_vars, subs)) - set(names)
    return free.union(*map(term_vars, terms))


def formula_free_pvars(f: Formula) -> frozenset[str]:
    if isinstance(f, FAtom):
        return frozenset([f.head]) if f.pvar else frozenset()
    subs, _, pnames, _ = parts(f)
    return frozenset().union(*map(formula_free_pvars, subs)) - set(pnames)


def subst_formula(f: Formula, s: Subst) -> Formula:
    """Capture-avoiding first-order substitution.  A bound name that occurs
    in a substituted term is renamed first, to a name that s does not
    replace under the binder, that no substituted term mentions and that is
    neither bound by the same node nor free below it; a binder nested below
    that meets the new name is renamed when the renaming reaches it."""
    if not s:
        return f
    subs, names, pnames, terms = parts(f)
    inner = {k: t for k, t in s.items() if k not in names}
    clash = [x for x in names if any(occurs_in(x, t) for t in inner.values())]
    if clash:
        taken = {*inner, *names, *(v for t in inner.values() for v in term_vars(t))}
        taken.update(*map(formula_free_vars, subs))
        ren = {x: Var(fresh_name("v", taken)) for x in clash}
        subs = [subst_formula(g, ren) for g in subs]
        names = [ren[x].name if x in ren else x for x in names]
    subs = [subst_formula(g, inner) for g in subs]
    return rebuild(f, subs, names, pnames, [subst_term(t, s) for t in terms])


# ---------------------------------------------------------------------------
# predicate expressions and predicate substitutions


@dataclass(frozen=True)
class PredExpr:
    """lambda params. body"""

    params: tuple[str, ...]
    body: Formula

    def apply(self, args: Sequence[Term]) -> Formula:
        if len(args) != len(self.params):
            shown = ",".join(term_str(t) for t in args)
            raise ValueError(f"arity mismatch applying {pred_expr_str(self)} to ({shown})")
        return subst_formula(self.body, dict(zip(self.params, args)))


PredSubst = Mapping[str, PredExpr]


def apply_pred_subst(f: Formula, ps: PredSubst) -> Formula:
    """Replace predicate-variable atoms by beta-reduced instances of ps."""
    if not ps:
        return f
    if isinstance(f, FAtom):
        if f.pvar and f.head in ps:
            return ps[f.head].apply(f.args)
        return f
    subs, names, pnames, terms = parts(f)
    ps = {k: v for k, v in ps.items() if k not in pnames}
    return rebuild(f, [apply_pred_subst(g, ps) for g in subs], names, pnames, terms)


def apply_pred_subst_clause(c: Clause, ps: PredSubst) -> Formula:
    """Clauses are promoted to universally closed disjunctions."""
    return apply_pred_subst(clause_to_formula(c), ps)


# ---------------------------------------------------------------------------
# simplification


def _one_point(f: Union[FAll, FEx], sub: Formula) -> Optional[Formula]:
    # forall v. (v != t | rest)  ~>  rest[v <- t], and dually
    # exists v. (v = t & rest)  ~>  rest[v <- t]   (v not a proper subterm of t)
    kind = FOr if isinstance(f, FAll) else FAnd
    ds = list(sub.subs) if isinstance(sub, kind) else [sub]
    for i, d in enumerate(ds):
        if kind is FOr:
            if not isinstance(d, FNot):
                continue
            d = d.sub
        if isinstance(d, FAtom) and d.head == EQ and not d.pvar:
            a, b = d.args
            for v, t in ((a, b), (b, a)):
                if isinstance(v, Var) and v.name == f.var and not is_proper_subterm_var(f.var, t):
                    return subst_formula(junction(kind, ds[:i] + ds[i + 1:]), {f.var: t})
    return None


def simplify(f: Formula) -> Formula:
    """Equivalence-preserving cleanup in one bottom-up pass: double
    negation, t=t, top/bottom absorption, vacuous quantifiers, the one-point
    rule and negation pushed inward.  Every node is built from simplified
    children and simplified again where a rule builds a new one, so the
    result is its own simplification."""
    if isinstance(f, (FTrue, FFalse)):
        return f
    if isinstance(f, FAtom):
        if f.head == EQ and not f.pvar and f.args[0] == f.args[1]:
            return TRUE
        return f
    if isinstance(f, FNot):
        s = simplify(f.sub)
        if isinstance(s, FNot):
            return s.sub
        if isinstance(s, FTrue):
            return FALSE
        if isinstance(s, FFalse):
            return TRUE
        # Negation-normal form: push the negation through the propositional
        # and quantifier structure.  Gfp applications stay opaque.
        if isinstance(s, (FAnd, FOr)):
            return simplify(DUAL[type(s)](tuple(FNot(x) for x in s.subs)))
        if isinstance(s, FImp):
            return simplify(FAnd((s.lhs, FNot(s.rhs))))
        if isinstance(s, (FAll, FEx)):
            return simplify(DUAL[type(s)](s.var, FNot(s.sub)))
        return FNot(s)
    if isinstance(f, (FAnd, FOr)):
        kind = type(f)
        subs: list[Formula] = []
        for x in f.subs:
            x = simplify(x)
            if x == UNIT[DUAL[kind]]:  # absorbs the junction
                return x
            if x == UNIT[kind]:
                continue
            if isinstance(x, kind):
                subs.extend(x.subs)
            else:
                subs.append(x)
        return junction(kind, dict.fromkeys(subs))
    if isinstance(f, FImp):
        a, b = simplify(f.lhs), simplify(f.rhs)
        if isinstance(a, FTrue):
            return b
        if isinstance(a, FFalse) or isinstance(b, FTrue):
            return TRUE
        if isinstance(b, FFalse):
            return simplify(FNot(a))
        return FImp(a, b)
    if isinstance(f, FIff):
        a, b = simplify(f.lhs), simplify(f.rhs)
        if a == b:
            return TRUE
        if isinstance(a, FTrue):
            return b
        if isinstance(b, FTrue):
            return a
        if isinstance(a, FFalse):
            return simplify(FNot(b))
        if isinstance(b, FFalse):
            return simplify(FNot(a))
        return FIff(a, b)
    if isinstance(f, (FAll, FEx)):
        sub = simplify(f.sub)
        if isinstance(sub, (FTrue, FFalse)):
            return sub
        if f.var not in formula_free_vars(sub):
            return sub
        got = _one_point(f, sub)
        if got is not None:
            return simplify(got)
        return type(f)(f.var, sub)
    if isinstance(f, FGfp):
        body = simplify(f.body)
        if f.pvar not in formula_free_pvars(body):
            # the fixpoint variable is gone: the gfp is the body itself
            return simplify(subst_formula(body, dict(zip(f.params, f.args))))
        return FGfp(f.pvar, f.params, body, f.args)
    raise TypeError(f)


def simplify_pred_expr(pe: PredExpr) -> PredExpr:
    return PredExpr(pe.params, simplify(pe.body))


def canonical_pred_expr(pe: PredExpr) -> PredExpr:
    """Rename every bound name to a position-determined one (u0, u1, ... for
    first-order binders, Y0, Y1, ... for fixpoint relations).

    Witness construction takes each bound name from its own per-call supply,
    so alpha-equivalent expressions may bind different names; the printed
    form must depend only on the expression's structure."""
    us = (f"u{k}" for k in itertools.count())
    ys = (f"Y{k}" for k in itertools.count())

    def walk(f: Formula, env: dict, penv: dict) -> Formula:
        if isinstance(f, FAtom):
            head = penv.get(f.head, f.head) if f.pvar else f.head
            return FAtom(head, tuple(subst_term(a, env) for a in f.args), f.pvar)
        subs, names, pnames, terms = parts(f)
        terms = [subst_term(t, env) for t in terms]
        newp = [next(ys) for _ in pnames]
        new = [next(us) for _ in names]
        env = {**env, **{x: Var(n) for x, n in zip(names, new)}}
        penv = {**penv, **dict(zip(pnames, newp))}
        return rebuild(f, [walk(g, env, penv) for g in subs], new, newp, terms)

    params = tuple(next(us) for _ in pe.params)
    return PredExpr(params, walk(pe.body, {u: Var(v) for u, v in zip(pe.params, params)}, {}))


# ---------------------------------------------------------------------------
# formula size and printing


def formula_has_gfp(f: Formula) -> bool:
    return isinstance(f, FGfp) or any(map(formula_has_gfp, parts(f)[0]))


def formula_size(f: Formula) -> int:
    """Every connective, quantifier, lambda/gfp binder and every predicate,
    function, constant and variable occurrence counts once."""
    subs, names, pnames, terms = parts(f)
    if isinstance(f, (FAnd, FOr)):
        own = len(subs) - 1 if subs else 1
    else:
        own = 1 + len(names) + len(pnames) + sum(map(_term_size, terms))
    return own + sum(map(formula_size, subs))


def _term_size(t: Term) -> int:
    if isinstance(t, Var):
        return 1
    return 1 + sum(_term_size(a) for a in t.args)


def pred_expr_size(pe: PredExpr) -> int:
    return 1 + len(pe.params) + formula_size(pe.body)


def formula_str(f: Formula) -> str:
    return _fstr(f, 0)


_PREC_IFF, _PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNIT = 0, 1, 2, 3, 4


def _paren(s: str, outer: int, inner: int) -> str:
    return f"({s})" if inner < outer else s


def _fstr(f: Formula, outer: int) -> str:
    if isinstance(f, FTrue):
        return "true"
    if isinstance(f, FFalse):
        return "false"
    if isinstance(f, FAtom) or isinstance(f, FNot) and isinstance(f.sub, FAtom):
        # a literal prints as in a clause, an (in)equation in parentheses
        l = formula_to_lit(f)
        return f"({l})" if l.is_eq else str(l)
    if isinstance(f, FNot):
        return f"~{_fstr(f.sub, _PREC_UNIT)}"
    if isinstance(f, FAnd):
        return _paren(" /\\ ".join(_fstr(s, _PREC_AND) for s in f.subs), outer, _PREC_AND - 1)
    if isinstance(f, FOr):
        return _paren(" \\/ ".join(_fstr(s, _PREC_OR) for s in f.subs), outer, _PREC_OR - 1)
    if isinstance(f, FImp):
        return _paren(f"{_fstr(f.lhs, _PREC_IMP + 1)} -> {_fstr(f.rhs, _PREC_IMP)}", outer, _PREC_IMP)
    if isinstance(f, FIff):
        return _paren(f"{_fstr(f.lhs, _PREC_IFF + 1)} <-> {_fstr(f.rhs, _PREC_IFF + 1)}", outer, _PREC_IFF)
    if isinstance(f, FAll):
        return _paren(f"forall {f.var}. {_fstr(f.sub, _PREC_IFF)}", outer, _PREC_IFF)
    if isinstance(f, FEx):
        return _paren(f"exists {f.var}. {_fstr(f.sub, _PREC_IFF)}", outer, _PREC_IFF)
    if isinstance(f, FGfp):
        body = _fstr(f.body, _PREC_IFF)
        args = ",".join(term_str(t) for t in f.args)
        return f"(gfp {f.pvar} {' '.join(f.params)}. {body}) @ ({args})"
    raise TypeError(f)


def pred_expr_str(pe: PredExpr) -> str:
    params = " ".join(pe.params) if pe.params else "_"
    return f"lambda {params}. {formula_str(pe.body)}"
