"""Problem files, graph encodings, and witness files.

File format (line-oriented, `#` comments):

    exists X/1, Y/2.          predicate variables to eliminate
    theory B(a, ?v)           background-theory clause
    X(a) | ~B(?u, c)          ordinary clause; `|` separates literals
    a != c.                   equality/disequality atoms; trailing `.` optional
    false                     the empty clause

Variables are `?`-prefixed; identifiers are `[A-Za-z_][A-Za-z0-9_]*`.  A line
is a directive when its first token is the identifier `exists`, so
`existsB(a)` is a clause.  The signature is inferred from use and arity
conflicts are rejected.

Clause literals, prover goals and witness bodies share one recursive-descent
grammar for terms and atoms; a clause literal is an optional `~` followed by
a formula atom.  Terms and formulas nest at most MAX_NESTING levels deep.
Errors carry the line and column of the offending token.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Optional

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
    PredExpr,
    Term,
    Var,
    formula_to_lit,
)


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {msg}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# tokens


@dataclass(frozen=True)
class _Tok:
    kind: str  # 'ident' | 'var' | 'num' | 'sym' | 'eof'
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r]+)
      | (?P<comment>\#[^\n]*)
      | (?P<nl>\n)
      | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<num>\d+)
      | (?P<sym><->|->|!=|:=|/\\|\\/|[=~|(),./@])
    """,
    re.X,
)


def _tokens(text: str, line: int = 1) -> list[_Tok]:
    """The tokens of `text`, whose first line is numbered `line`."""
    out: list[_Tok] = []
    start = pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - start + 1)
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            start = m.end()
        elif kind not in ("ws", "comment"):
            out.append(_Tok(kind, m.group(), line, pos - start + 1))
        pos = m.end()
    out.append(_Tok("eof", "", line, pos - start + 1))
    return out


# how deep terms and formulas may nest; the parser and the recursive passes
# over what it returns stay well inside Python's recursion limit
MAX_NESTING = 100


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.i = 0
        self.depth = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> bool:
        """Consume the next token when it matches."""
        if self.at(kind, text):
            self.next()
            return True
        return False

    def expect(self, kind: str, text: Optional[str] = None) -> _Tok:
        t = self.peek()
        if not self.at(kind, text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {t.text or 'end of input'!r}", t.line, t.col)
        return self.next()

    def error(self, msg: str) -> ParseError:
        t = self.peek()
        return ParseError(msg, t.line, t.col)

    @contextmanager
    def nested(self, levels: int = 1) -> Iterator[None]:
        """Parse the block `levels` deeper; deeper than MAX_NESTING is an error."""
        self.depth += levels
        if self.depth > MAX_NESTING:
            raise self.error(f"nested more than {MAX_NESTING} deep")
        yield
        self.depth -= levels


# ---------------------------------------------------------------------------
# signatures


class _SigCheck:
    """Arity and symbol-kind bookkeeping for every symbol a parse meets.  In
    a closed parse (goals and witness bodies) every `?` variable must be
    bound."""

    def __init__(self, xvars: Mapping[str, int], closed: bool = False):
        self.xvars = dict(xvars)
        self.closed = closed
        self.funcs: dict[str, int] = {}
        self.preds: dict[str, int] = {}

    def func(self, name: str, arity: int, tok: _Tok) -> None:
        if name in self.xvars:
            raise ParseError(f"predicate variable {name} used as a function symbol", tok.line, tok.col)
        if name in self.preds:
            raise ParseError(f"{name} used both as predicate and function", tok.line, tok.col)
        old = self.funcs.setdefault(name, arity)
        if old != arity:
            raise ParseError(f"arity conflict for {name}: {old} vs {arity}", tok.line, tok.col)

    def pred(self, name: str, arity: int, tok: _Tok) -> bool:
        """Returns True when the head is a declared predicate variable."""
        if name in self.xvars:
            if self.xvars[name] != arity:
                raise ParseError(
                    f"arity conflict for {name}: declared /{self.xvars[name]}, used /{arity}",
                    tok.line,
                    tok.col,
                )
            return True
        if name in self.funcs:
            raise ParseError(f"{name} used both as function and predicate", tok.line, tok.col)
        old = self.preds.setdefault(name, arity)
        if old != arity:
            raise ParseError(f"arity conflict for {name}: {old} vs {arity}", tok.line, tok.col)
        return False


# ---------------------------------------------------------------------------
# terms, atoms and formulas: one grammar for clause literals, goals and
# witness bodies.  `bound` holds the names in scope of a quantifier, gfp or
# lambda binder; a bare identifier among them is a variable.  Clause files
# bind nothing, so their variables carry the `?` mark.


def _parse_args(
    p: _Parser, sig: _SigCheck, bound: tuple[str, ...], empty: bool = False
) -> tuple[Term, ...]:
    """`( t, … )`; with `empty`, also `()`."""
    p.expect("sym", "(")
    args: list[Term] = []
    with p.nested():
        if not (empty and p.at("sym", ")")):
            args.append(_parse_term(p, sig, bound))
            while p.accept("sym", ","):
                args.append(_parse_term(p, sig, bound))
    p.expect("sym", ")")
    return tuple(args)


def _parse_term(p: _Parser, sig: _SigCheck, bound: tuple[str, ...]) -> Term:
    t = p.peek()
    if t.kind == "var":
        p.next()
        if sig.closed and t.text[1:] not in bound:
            raise ParseError(f"free variable {t.text}: no lambda, quantifier or gfp binds it", t.line, t.col)
        return Var(t.text[1:])
    if t.kind == "ident":
        p.next()
        if t.text in bound and not p.at("sym", "("):
            return Var(t.text)
        args = _parse_args(p, sig, bound) if p.at("sym", "(") else ()
        sig.func(t.text, len(args), t)
        return App(t.text, args)
    raise p.error(f"expected a term, found {t.text!r}")


def _parse_atom(
    p: _Parser, sig: _SigCheck, bound: tuple[str, ...], negated: bool = False
) -> Formula:
    """`head(args)`, `head`, `s = t` or `s != t` (a negated equation).  A
    clause literal's `~` (`negated`) may not precede a disequation."""
    t = p.peek()
    if t.kind == "ident" and t.text not in bound:
        # a predicate atom unless an equation sign follows the first term
        save = p.i
        p.next()
        args = _parse_args(p, sig, bound) if p.at("sym", "(") else ()
        if not (p.at("sym", "=") or p.at("sym", "!=")):
            return FAtom(t.text, args, sig.pred(t.text, len(args), t))
        p.i = save
    lhs = _parse_term(p, sig, bound)
    if p.accept("sym", "="):
        return FAtom(EQ, (lhs, _parse_term(p, sig, bound)))
    if negated and p.at("sym", "!="):
        raise p.error("~ cannot negate a disequation; write =")
    if p.accept("sym", "!="):
        return FNot(FAtom(EQ, (lhs, _parse_term(p, sig, bound))))
    raise p.error("expected = or != after a term")


def _parse_binders(p: _Parser, blank: bool = False) -> tuple[str, ...]:
    """Binder names up to the `.` (a `?` mark is dropped); with `blank`, a
    `_` closes the list, as in `lambda _.`."""
    names: list[str] = []
    while p.at("var") or (p.at("ident") and not (blank and p.at("ident", "_"))):
        names.append(p.next().text.lstrip("?"))
    p.accept("ident", "_")
    p.expect("sym", ".")
    return tuple(names)


def _parse_formula(p: _Parser, sig: _SigCheck, bound: tuple[str, ...]) -> Formula:
    lhs = _parse_imp(p, sig, bound)
    chain = 0
    while p.accept("sym", "<->"):
        chain += 1  # each `<->` nests the chain so far one level deeper
        with p.nested(chain):
            lhs = FIff(lhs, _parse_imp(p, sig, bound))
    return lhs


def _parse_imp(p: _Parser, sig: _SigCheck, bound: tuple[str, ...]) -> Formula:
    lhs = _parse_or(p, sig, bound)
    if p.accept("sym", "->"):
        with p.nested():
            return FImp(lhs, _parse_imp(p, sig, bound))
    return lhs


def _parse_or(p: _Parser, sig: _SigCheck, bound: tuple[str, ...]) -> Formula:
    subs = [_parse_and(p, sig, bound)]
    while p.accept("sym", "\\/"):
        subs.append(_parse_and(p, sig, bound))
    return subs[0] if len(subs) == 1 else FOr(tuple(subs))


def _parse_and(p: _Parser, sig: _SigCheck, bound: tuple[str, ...]) -> Formula:
    subs = [_parse_unary(p, sig, bound)]
    while p.accept("sym", "/\\"):
        subs.append(_parse_unary(p, sig, bound))
    return subs[0] if len(subs) == 1 else FAnd(tuple(subs))


def _parse_unary(p: _Parser, sig: _SigCheck, bound: tuple[str, ...]) -> Formula:
    if p.accept("sym", "~"):
        with p.nested():
            return FNot(_parse_unary(p, sig, bound))
    if p.at("ident", "forall") or p.at("ident", "exists"):
        ctor = FAll if p.next().text == "forall" else FEx
        names = _parse_binders(p)
        with p.nested(len(names)):
            body = _parse_formula(p, sig, bound + names)
        for n in reversed(names):
            body = ctor(n, body)
        return body
    if p.at("ident", "gfp"):
        return _parse_gfp(p, sig, bound)
    if p.accept("ident", "true"):
        return FTrue()
    if p.accept("ident", "false"):
        return FFalse()
    if p.accept("sym", "("):
        if p.at("ident", "gfp"):
            g = _parse_gfp(p, sig, bound)
            p.expect("sym", ")")
            if p.accept("sym", "@"):  # application args follow the closing paren
                return replace(g, args=_parse_args(p, sig, bound, empty=True))
            return g
        with p.nested():
            f = _parse_formula(p, sig, bound)
        p.expect("sym", ")")
        return f
    return _parse_atom(p, sig, bound)


def _parse_gfp(p: _Parser, sig: _SigCheck, bound: tuple[str, ...]) -> FGfp:
    p.expect("ident", "gfp")
    yname = p.expect("ident").text
    params = _parse_binders(p)
    inner = _SigCheck({**sig.xvars, yname: len(params)}, sig.closed)
    inner.funcs, inner.preds = sig.funcs, sig.preds  # share tables
    with p.nested():
        body = _parse_formula(p, inner, bound + params)
    return FGfp(yname, params, body, ())


# ---------------------------------------------------------------------------
# problems


@dataclass
class Problem:
    """Clauses in file order (ids in traces are 1-based positions), the
    predicate variables to eliminate with their arities, indices of
    background-theory clauses, and where the text came from."""

    clauses: tuple[Clause, ...]
    xvars: dict[str, int]
    theory: frozenset[int] = frozenset()
    origin: str = "text"

    def __post_init__(self):
        for i in self.theory:
            c = self.clauses[i]
            if any(l.pvar for l in c.lits):
                raise ValueError(f"theory clause {i + 1} contains a predicate variable: {c}")


def _parse_literal(p: _Parser, sig: _SigCheck) -> Lit:
    neg = p.accept("sym", "~")
    if p.at("ident", "true") or p.at("ident", "false"):
        raise p.error(f"{p.peek().text} is not a literal; a line `false` is the empty clause")
    atom = _parse_atom(p, sig, (), negated=neg)
    return formula_to_lit(FNot(atom) if neg else atom)


def _parse_clause_line(p: _Parser, sig: _SigCheck) -> Clause:
    # a line `false` is the empty clause; `_parse_literal` rejects any other
    # `true` or `false` in literal position
    if [t.text for t in p.toks[p.i:]] in (["false", ""], ["false", ".", ""]):
        p.i = len(p.toks) - 1
        return Clause()
    lits = [_parse_literal(p, sig)]
    while p.accept("sym", "|"):
        lits.append(_parse_literal(p, sig))
    p.accept("sym", ".")
    return Clause.make(lits)


def _parse_exists(p: _Parser, xvars: dict[str, int]) -> None:
    p.expect("ident", "exists")
    while True:
        name = p.expect("ident")
        p.expect("sym", "/")
        arity = int(p.expect("num").text)
        if name.text in xvars and xvars[name.text] != arity:
            raise ParseError(
                f"arity conflict for {name.text}: declared /{xvars[name.text]} and /{arity}",
                name.line,
                name.col,
            )
        xvars[name.text] = arity
        if not p.accept("sym", ","):
            break
    p.accept("sym", ".")
    if not p.at("eof"):
        raise p.error("trailing input after exists directive")


def parse_problem(text: str, origin: str = "text") -> Problem:
    """Parse the clause file format; raises ParseError with line/column."""
    lines = [
        _Parser(_tokens(body, ln))
        for ln, raw in enumerate(text.split("\n"), start=1)
        if (body := raw.split("#", 1)[0]).strip()
    ]
    xvars: dict[str, int] = {}
    # `exists` directives first, so declarations may follow uses
    for p in [p for p in lines if p.at("ident", "exists")]:
        _parse_exists(p, xvars)
    sig = _SigCheck(xvars)
    clauses: list[Clause] = []
    theory: set[int] = set()
    for p in lines:
        if p.at("eof"):  # a directive, already read
            continue
        # `theory` is the directive only before what can begin a literal, so
        # `theory(a)`, `theory = a` and `theory | X(a)` are clauses
        is_theory = p.at("ident", "theory") and (
            p.toks[p.i + 1].kind in ("ident", "var") or p.toks[p.i + 1].text == "~"
        )
        if is_theory:
            p.next()
        c = _parse_clause_line(p, sig)
        if not p.at("eof"):
            raise p.error("trailing input after clause")
        if is_theory:
            if any(l.pvar for l in c.lits):
                raise ParseError("theory clause contains a predicate variable", p.toks[0].line, 1)
            theory.add(len(clauses))
        clauses.append(c)
    return Problem(tuple(clauses), xvars, frozenset(theory), origin)


def print_problem(p: Problem) -> str:
    out = []
    if p.xvars:
        decls = ", ".join(f"{x}/{k}" for x, k in p.xvars.items())
        out.append(f"exists {decls}.")
    for i, c in enumerate(p.clauses):
        prefix = "theory " if i in p.theory else ""
        out.append(prefix + str(c))
    return "\n".join(out) + "\n"


def merge_theory(p: Problem) -> Problem:
    """Fold the background theory into the ordinary clause set.  Ids are
    positional, so this only clears the theory marking.  `Problem` checked
    the theory clauses for predicate variables when `p` was built."""
    return replace(p, theory=frozenset())


# ---------------------------------------------------------------------------
# graph reachability encoding


@dataclass(frozen=True)
class GraphSpec:
    nodes: int
    edges: tuple[tuple[int, int], ...]
    init: tuple[int, ...]
    fail: tuple[int, ...]

    def __post_init__(self):
        ok = range(1, self.nodes + 1)
        for i, j in self.edges:
            if i not in ok or j not in ok:
                raise ValueError(f"edge ({i},{j}) out of range 1..{self.nodes}")
        for i in self.init + self.fail:
            if i not in ok:
                raise ValueError(f"node {i} out of range 1..{self.nodes}")


def parse_graph(text: str) -> GraphSpec:
    nodes = None
    # (line, edges, init nodes, fail nodes) of each edge, init and fail line
    named: list[tuple[int, tuple, tuple, tuple]] = []
    for ln, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        try:
            nums = [int(x) for x in parts[1:]]
        except ValueError:
            raise ParseError(f"expected numbers after {parts[0]!r}", ln, 1)
        if parts[0] == "nodes" and len(nums) == 1:
            if nodes is not None:
                raise ParseError("a second `nodes` line", ln, 1)
            if nums[0] < 1:
                raise ParseError(f"a graph needs at least one node, got `nodes {nums[0]}`", ln, 1)
            nodes = nums[0]
        elif parts[0] == "edge" and len(nums) == 2:
            named.append((ln, (tuple(nums),), (), ()))
        elif parts[0] == "init":
            named.append((ln, (), tuple(nums), ()))
        elif parts[0] == "fail":
            named.append((ln, (), (), tuple(nums)))
        else:
            raise ParseError(f"unknown graph directive {body!r}", ln, 1)
    if nodes is None:
        raise ParseError("missing `nodes <n>` line", 1, 1)
    for ln, *line in named:
        try:  # `nodes` may come later, so each line's range is checked here
            GraphSpec(nodes, *line)
        except ValueError as e:
            raise ParseError(str(e), ln, 1)
    edges, init, fail = (tuple(x for line in named for x in line[k]) for k in (1, 2, 3))
    return GraphSpec(nodes, edges, init, fail)


def encode_graph(g: GraphSpec) -> Problem:
    """Axiomatize the graph (node distinctness, full positive/negative edge
    diagram, domain closure) as theory clauses, plus the reachability clauses:
    X holds at initial nodes, fails at fail nodes, and propagates along edges."""
    a = {i: App(f"a{i}", ()) for i in range(1, g.nodes + 1)}
    u, v = Var("u"), Var("v")
    clauses: list[Clause] = []
    for i in range(1, g.nodes + 1):
        for j in range(i + 1, g.nodes + 1):
            clauses.append(Clause.make([Lit(False, EQ, (a[i], a[j]))]))
    edges = set(g.edges)
    for (i, j) in sorted(edges):
        clauses.append(Clause.make([Lit(True, "E", (a[i], a[j]))]))
    for i in range(1, g.nodes + 1):
        for j in range(1, g.nodes + 1):
            if (i, j) not in edges:
                clauses.append(Clause.make([Lit(False, "E", (a[i], a[j]))]))
    clauses.append(Clause.make([Lit(True, EQ, (u, a[i])) for i in range(1, g.nodes + 1)]))
    theory = frozenset(range(len(clauses)))
    for i in sorted(set(g.init)):
        clauses.append(Clause.make([Lit(True, "X", (a[i],), pvar=True)]))
    for i in sorted(set(g.fail)):
        clauses.append(Clause.make([Lit(False, "X", (a[i],), pvar=True)]))
    clauses.append(
        Clause.make(
            [
                Lit(False, "X", (u,), pvar=True),
                Lit(False, "E", (u, v)),
                Lit(True, "X", (v,), pvar=True),
            ]
        )
    )
    return Problem(tuple(clauses), {"X": 1}, theory, origin="graph")


# ---------------------------------------------------------------------------
# formula and witness files


def parse_formula(text: str, xvars: Optional[Mapping[str, int]] = None) -> Formula:
    """A single closed formula (used for prover goals); `#` comments allowed."""
    p = _Parser(_tokens(text))
    sig = _SigCheck(xvars or {}, closed=True)
    f = _parse_formula(p, sig, ())
    p.accept("sym", ".")
    if not p.at("eof"):
        raise p.error("trailing input after formula")
    return f


def parse_witness(text: str, xvars: Optional[Mapping[str, int]] = None) -> dict[str, PredExpr]:
    """Witness files:  one `X := lambda u v. <formula>` binding per line
    (0-ary bodies write `lambda _.`), whose body is closed but for the
    parameters.  A name may be bound once, and, given xvars, only if it is
    one of them."""
    out: dict[str, PredExpr] = {}
    sig = _SigCheck(xvars or {}, closed=True)
    for ln, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        p = _Parser(_tokens(body, ln))
        tok = p.expect("ident")
        name = tok.text
        if name in out:
            raise ParseError(f"second binding for {name}", ln, tok.col)
        if xvars is not None and name not in xvars:
            raise ParseError(f"{name} is not a predicate variable of the problem", ln, tok.col)
        p.expect("sym", ":=")
        p.expect("ident", "lambda")
        params = _parse_binders(p, blank=True)
        f = _parse_formula(p, sig, params)
        p.accept("sym", ".")
        if not p.at("eof"):
            raise p.error("trailing input after witness binding")
        if xvars is not None and xvars[name] != len(params):
            raise ParseError(
                f"witness for {name} has {len(params)} parameters, expected {xvars[name]}",
                ln,
                1,
            )
        out[name] = PredExpr(params, f)
    return out
