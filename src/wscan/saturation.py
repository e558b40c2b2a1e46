"""Derivations over clause sets: the rule table, preprocessing, purification,
backtracking search, and the replay of traces and prover refutations.

A derivation is its input clauses and a sequence of steps, each transforming
the current clause set.  Clauses carry stable integer identifiers: the inputs
are 1, 2, ... in order, and each added clause takes the next id; traces
reference them.  Literal positions in traces are 1-based.  A `Derivation`
stores no intermediate clause set: `Derivation.alive` folds the steps over
the inputs.

`RULES` is the one place that defines a rule: its trace line, and the function
that checks its side conditions on the current state and builds the step.
Search, trace replay and proof replay build every step through it, and
`_State.apply` is the only code that changes a state.  A prover refutation is
a `Derivation` whose steps also record their clauses; `replay_proof` lifts
the predicate-variable side conditions of resolution and factoring.

Clauses are canonical and never change, so a subsumption test, a
subsumption test modulo constraint unfolding and the resolvent of two
pointed clauses depend only on the clause values.  Each `_State` started by
`search` or `replay` owns one memo of their results (`calculus.memoized`),
keyed by the function and its argument values, not by clause ids, which
sibling branches reuse for different clauses.  Every branch cloned from the
state shares it, so one search decides each question once, and the memo
goes with the search.  The subsumption pass, the factoring and resolvent
filters and the purity check read it; `purify` makes the purity check once,
when its resolvent filter leaves nothing to add.  A rule function still
checks its side conditions when it builds a step.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .calculus import (
    constraint_eliminate,
    constraint_factor,
    constraint_resolve,
    factor_pairs,
    is_purified,
    memoized,
    paramodulant,
    resolution_partners,
    variable_eliminate,
)
from .logic import Clause, Lit, PointedClause, pointed
from .subsumption import is_tautology, subsumes, subsumes_L_velim


# ---------------------------------------------------------------------------
# steps


@dataclass(frozen=True)
class Step:
    """One derivation step: the rule's name, its arguments in trace order
    (literal positions 0-based; extpurdel also carries the arity), the ids it
    removes, and the new id and clause it adds, if any."""

    rule: str
    args: tuple
    removed: tuple[int, ...] = ()
    new_id: Optional[int] = None
    added: Optional[Clause] = None


@dataclass(frozen=True)
class Derivation:
    """A validated step sequence and the input clauses it starts from."""

    inputs: tuple[Clause, ...]
    steps: tuple[Step, ...]

    def alive(self, n: Optional[int] = None) -> dict[int, Clause]:
        """The live clauses by id, in id order, after the first n steps (after
        all of them by default)."""
        live = dict(enumerate(self.inputs, 1))
        for s in self.steps[:n]:
            _advance(live, s)
        return live

    def conclusion(self) -> tuple[Clause, ...]:
        return tuple(self.alive().values())

    def eliminating(self) -> bool:
        return not any(l.pvar for c in self.conclusion() for l in c.lits)

    def trace_lines(self) -> list[str]:
        return [trace_line(s) for s in self.steps]


def _advance(live: dict[int, Clause], step: Step) -> None:
    """Apply a step to the live clauses.  A new id is larger than every id
    before it, so insertion order stays id order."""
    for i in step.removed:
        del live[i]
    if step.added is not None:
        live[step.new_id] = step.added


@dataclass
class SearchLimits:
    max_steps: int = 50
    timeout: float = 10.0
    max_branches: int = 64

    def __post_init__(self):
        # `not > 0` also rejects a nan timeout, which no deadline would pass
        if min(self.max_steps, self.max_branches) <= 0 or not self.timeout > 0:
            raise ValueError("limits must be positive")


class ReplayError(Exception):
    def __init__(self, index: int, reason: str):
        super().__init__(f"step {index + 1}: {reason}")
        self.index = index
        self.reason = reason


class _Budget(Exception):
    pass


class _Rejected(Exception):
    """A rule's side condition fails; the message is the reason."""


# ---------------------------------------------------------------------------
# mutable builder state


@dataclass
class _State:
    live: dict[int, Clause]  # in id order
    steps: list[Step]
    last: int  # the last id used
    xarity: dict[str, int]
    # results of pure functions of clause values (see `memoized`), shared by
    # a state and every branch cloned from it
    memo: dict
    # search only: the step and time budget that `apply` charges
    limits: Optional[SearchLimits] = None
    deadline: float = 0.0
    # proof replay only: resolution and factoring take any literals
    any_literal: bool = False

    @staticmethod
    def start(
        clauses: Sequence[Clause], xarity: dict[str, int], limits: Optional[SearchLimits] = None
    ) -> "_State":
        deadline = time.monotonic() + limits.timeout if limits else 0.0
        live = dict(enumerate(clauses, 1))
        return _State(live, [], len(live), xarity, {}, limits, deadline)

    def clone(self) -> "_State":
        return replace(self, live=dict(self.live), steps=list(self.steps))

    def next_id(self) -> int:
        return self.last + 1

    def charge(self) -> None:
        """Raise _Budget when a search state may take no further step."""
        if self.limits is not None and (
            len(self.steps) >= self.limits.max_steps or time.monotonic() > self.deadline
        ):
            raise _Budget

    def apply(self, step: Step) -> None:
        self.charge()
        _advance(self.live, step)
        if step.added is not None:
            self.last = step.new_id
        self.steps.append(step)


# ---------------------------------------------------------------------------
# rules: each function checks the side conditions on the current state and
# builds the step, or raises _Rejected with the reason


def _need(st: _State, i: int) -> Clause:
    if i not in st.live:
        raise _Rejected(f"clause {i} is not in the current set")
    return st.live[i]


def _need_lit(c: Clause, i: int, k: int) -> Lit:
    if not 0 <= k < len(c.lits):
        raise _Rejected(f"clause {i} has no literal {k + 1}")
    return c.lits[k]


def _res(st: _State, i1: int, k1: int, i2: int, k2: int) -> Step:
    c1, c2 = _need(st, i1), _need(st, i2)
    l1, l2 = _need_lit(c1, i1, k1), _need_lit(c2, i2, k2)
    if not (l1.pvar and l2.pvar or st.any_literal):
        raise _Rejected("resolution is on predicate-variable literals")
    try:
        r = memoized(st.memo, constraint_resolve, pointed(c1, k1), pointed(c2, k2))
    except ValueError as e:
        raise _Rejected(str(e)) from None
    return Step("res", (i1, k1, i2, k2), (), st.next_id(), r)


def _fac(st: _State, i: int, a: int, b: int) -> Step:
    c = _need(st, i)
    if not (_need_lit(c, i, a).pvar and _need_lit(c, i, b).pvar or st.any_literal):
        raise _Rejected("factoring is on predicate-variable literals")
    try:
        f = constraint_factor(c, a, b)
    except ValueError as e:
        raise _Rejected(str(e)) from None
    return Step("fac", (i, a, b), (), st.next_id(), f)


def _constrelim(st: _State, i: int, sel: Optional[tuple[int, ...]]) -> Step:
    c = _need(st, i)
    for k in sel or ():
        _need_lit(c, i, k)
    r = constraint_eliminate(c, sel)
    if r is None:
        raise _Rejected(f"no eliminable constraint block in clause {i}")
    return Step("constrelim", (i, sel), (), st.next_id(), r)


def _parmod(
    st: _State, i1: int, e1: int, orient: Optional[str], i2: int, pos: tuple[int, ...]
) -> Step:
    """Without an orientation, the first of lr/rl that applies is taken."""
    c1, c2 = _need(st, i1), _need(st, i2)
    li, path = pos[0], pos[1:]
    _need_lit(c1, i1, e1), _need_lit(c2, i2, li)
    if any(k < 0 for k in path):
        raise _Rejected("paramodulation path positions start at 1")
    for o in [orient] if orient else ["lr", "rl"]:
        r = paramodulant(c1, e1, o, c2, li, path)
        if r is not None:
            return Step("parmod", (i1, e1, o, i2, pos), (), st.next_id(), r)
    line = RULES["parmod"].line((i1, e1, orient, i2, pos), st.next_id())
    raise _Rejected(f"paramodulation does not apply at {line!r}")


def _varelim(st: _State, i: int) -> Step:
    c, applied = variable_eliminate(_need(st, i))
    if not applied:
        raise _Rejected(f"clause {i} has no eliminable variable")
    return Step("varelim", (i,), (i,), st.next_id(), c)


def _tautology(st: _State, i: int) -> Step:
    if not is_tautology(_need(st, i)):
        raise _Rejected(f"clause {i} is not a tautology")
    return Step("tautology", (i,), (i,))


def _subsumed(st: _State, i: int, by: int) -> Step:
    c, cb = _need(st, i), _need(st, by)
    if by == i or not subsumes(cb, c):
        raise _Rejected(f"clause {by} does not subsume clause {i}")
    return Step("subsumed", (i, by), (i,))


def _purdel(st: _State, i: int, k: int) -> Step:
    c = _need(st, i)
    if not _need_lit(c, i, k).pvar:
        raise _Rejected(f"literal {i}.{k + 1} is not a predicate-variable literal")
    rest = frozenset(s for j, s in st.live.items() if j != i)
    if not is_purified(pointed(c, k), rest, st.memo):
        raise _Rejected(f"{i}.{k + 1} is not purified in the current set")
    return Step("purdel", (i, k), (i,))


def _extpurdel(st: _State, x: str, pol: str) -> Step:
    """Delete every live clause mentioning x; each must have an x-literal of
    polarity `pol`."""
    want = pol == "+"
    ids = tuple(i for i, c in st.live.items() if any(l.pvar and l.head == x for l in c.lits))
    for i in ids:
        if not any(l.pvar and l.head == x and l.pos == want for l in st.live[i].lits):
            raise _Rejected(f"clause {i} has no {pol}{x} literal, ExtPurDel does not apply")
    occurs = (len(l.args) for i in ids for l in st.live[i].lits if l.pvar and l.head == x)
    arity = st.xarity.get(x, next(occurs, None))
    if arity is None:
        raise _Rejected(f"unknown predicate variable {x}")
    return Step("extpurdel", (x, pol, arity), ids)


# trace slots: (pattern, parse, print).  `i` is a clause id, `n` the new id,
# `l` a literal position, `p` a literal position followed by an argument
# path and `k` an optional selection of literal positions, each after a dot
# -- positions are 1-based in a trace line and 0-based in a Step
_SLOTS: dict[str, tuple[str, Callable, Callable]] = {
    "i": (r"(\d+)", int, str),
    "n": (r"(\d+)", int, str),
    "l": (r"(\d+)", lambda s: int(s) - 1, lambda k: str(k + 1)),
    "p": (
        r"(\d+(?:\.\d+)+)",
        lambda s: tuple(int(x) - 1 for x in s.split(".")),
        lambda p: ".".join(str(x + 1) for x in p),
    ),
    "k": (r"((?:\.\d+)*)", lambda s: tuple(int(x) - 1 for x in s[1:].split(".")) if s else None,
          lambda k: "".join(f".{x + 1}" for x in k or ())),
    "o": (r"(?::(lr|rl))?", lambda s: s, lambda o: f":{o}" if o else ""),
    "x": (r"(\w+)", str, str),
    "s": (r"([+-])", str, str),
}


class Rule:
    """One trace form: a line template whose `{slot}` fields are the rule's
    arguments in order (`{n}` is the new id), and the rule function.
    `premises` are the positions of the arguments that are clause ids."""

    def __init__(self, template: str, fn: Callable[..., Step]):
        parts = re.split(r"\{(\w)\}", template)
        self.text, self.slots = parts[0::2], parts[1::2]
        self.fn = fn
        self.premises = tuple(k for k, s in enumerate(s for s in self.slots if s != "n") if s == "i")
        self.pattern = re.compile(
            re.escape(self.text[0])
            + "".join(_SLOTS[s][0] + re.escape(t) for s, t in zip(self.slots, self.text[1:]))
        )

    def parse(self, line: str) -> Optional[tuple[tuple, Optional[int]]]:
        """The arguments and the declared new id of a matching line."""
        m = self.pattern.fullmatch(line)
        if m is None:
            return None
        vals = [_SLOTS[s][1](g) for s, g in zip(self.slots, m.groups())]
        declared = vals.pop(self.slots.index("n")) if "n" in self.slots else None
        return tuple(vals), declared

    def line(self, args: tuple, new_id: Optional[int]) -> str:
        rest = iter(args)
        out = [self.text[0]]
        for s, t in zip(self.slots, self.text[1:]):
            out += [str(new_id) if s == "n" else _SLOTS[s][2](next(rest)), t]
        return "".join(out)


RULES: dict[str, Rule] = {
    "res": Rule("res {i}.{l} {i}.{l} -> {n}", _res),
    "fac": Rule("fac {i}.{l}.{l} -> {n}", _fac),
    "constrelim": Rule("constrelim {i}{k} -> {n}", _constrelim),
    "parmod": Rule("parmod {i}.{l}{o} {i}@{p} -> {n}", _parmod),
    "varelim": Rule("varelim {i} -> {n}", _varelim),
    "tautology": Rule("redel {i} tautology", _tautology),
    "subsumed": Rule("redel {i} subsumed-by {i}", _subsumed),
    "purdel": Rule("purdel {i}.{l}", _purdel),
    "extpurdel": Rule("extpurdel {x} {s}", _extpurdel),
}


def trace_line(s: Step) -> str:
    return RULES[s.rule].line(s.args, s.new_id)


def _attempt(rule: Callable[..., Step], st: _State, *args) -> Optional[Step]:
    """The step `rule` builds on `st`, or None where a side condition fails."""
    try:
        return rule(st, *args)
    except _Rejected:
        return None


# ---------------------------------------------------------------------------
# preprocessing


def _clause_pass(st: _State, rule: Callable[..., Step]) -> None:
    """Apply a one-clause rule to every live clause it applies to."""
    for i in list(st.live):
        step = _attempt(rule, st, i)
        if step is not None:
            st.apply(step)


def _subsumption_pass(st: _State, protect: frozenset[int] = frozenset()) -> None:
    """Delete clauses subsumed by another live clause, largest first, one at a
    time (mutually subsuming pairs keep the canonically smaller member).  One
    visit per clause suffices: a deletion only shrinks the set of subsumers,
    so a clause kept once stays kept.  Each test goes through the memo, and
    `_subsumed` builds the step of a hit."""
    for i in sorted(st.live.keys() - protect, key=lambda i: (str(st.live[i]), i), reverse=True):
        c = st.live[i]
        j = next(
            (j for j, s in st.live.items() if j != i and memoized(st.memo, subsumes, s, c)), None
        )
        if j is not None:
            st.apply(_subsumed(st, i, j))


def _extpurdel_pass(st: _State) -> bool:
    changed = False
    for x in st.xarity:
        step = _attempt(_extpurdel, st, x, "+") or _attempt(_extpurdel, st, x, "-")
        if step is not None and step.removed:
            st.apply(step)
            changed = True
    return changed


def _deletion_fixpoint(st: _State) -> None:
    """Variable elimination, tautology deletion and subsumption deletion
    once each, then external-purity deletion until it applies nothing.  One
    round of the first three suffices: variable elimination is exhaustive,
    and every later step only deletes clauses, which creates no eliminable
    constraint, no tautology and no new subsumption.  Deleting every clause
    that mentions one predicate variable can leave another one pure."""
    _clause_pass(st, _varelim)
    _clause_pass(st, _tautology)
    _subsumption_pass(st)
    while _extpurdel_pass(st):
        pass


def _factor_pass(st: _State) -> bool:
    """Add every factor that `_fac` builds (on predicate-variable literals)
    and no live clause subsumes."""
    added = False
    for i, c in list(st.live.items()):
        for a, b in factor_pairs(c):
            step = _attempt(_fac, st, i, a, b)
            if step and not any(memoized(st.memo, subsumes, s, step.added) for s in st.live.values()):
                st.apply(step)
                added = True
    return added


def preprocess(st: _State) -> None:
    """The deletion fixpoint (`_deletion_fixpoint`), then one round of
    non-redundant constraint factors, then the deletion fixpoint again."""
    _deletion_fixpoint(st)
    if _factor_pass(st):
        _deletion_fixpoint(st)


# ---------------------------------------------------------------------------
# purification


def _partner_positions(st: _State, p: PointedClause, skip: int) -> Iterator[tuple[int, int]]:
    """The (id, literal) positions of the live clauses other than `skip`
    that resolve with p, ids ascending."""
    for i, c in st.live.items():
        if i != skip:
            for q in resolution_partners(p, c):
                yield i, q.index


def purify(st: _State, p_id: int, p_idx: int) -> bool:
    """Saturate the designated literal of clause `p_id` against the rest:
    repeatedly add constraint resolvents not subsumed (modulo constraint
    unfolding) by the live set, with eager variable elimination and subsumption
    deletion -- but no tautology deletion -- until none is left to add, then
    delete the pointed clause if it is purified.  The purity check is made
    once, at the end: a purified clause's resolvents are all covered by the
    rest, so no earlier round could have deleted it.  Returns False when it is
    not purified then (a resolvent only its own clause covers) or when the
    search's step or time budget runs out."""
    p = pointed(st.live[p_id], p_idx)
    like = p.designated.dual()
    try:
        while True:
            # a state that may take no further step is not worth a scan
            st.charge()
            for cid, k in _partner_positions(st, p, skip=p_id):
                step = _res(st, p_id, p_idx, cid, k)
                if not any(
                    memoized(st.memo, subsumes_L_velim, s, step.added, like)
                    for s in st.live.values()
                ):
                    break
            else:
                step = _attempt(_purdel, st, p_id, p_idx)
                if step is not None:
                    st.apply(step)
                return step is not None
            st.apply(step)
            velim = _attempt(_varelim, st, step.new_id)
            if velim is not None:
                st.apply(velim)
            _subsumption_pass(st, protect=frozenset([p_id]))
    except _Budget:
        return False


# ---------------------------------------------------------------------------
# search


def _one_sided(c: Clause, idx: int) -> bool:
    d = c.lits[idx]
    return all(l.pos == d.pos for l in c.lits if l.pvar and l.head == d.head)


def _candidates(st: _State) -> list[tuple[int, int]]:
    out = []
    for i, c in st.live.items():
        for k, l in enumerate(c.lits):
            if not l.pvar:
                continue
            partners = sum(1 for _ in _partner_positions(st, pointed(c, k), skip=i))
            out.append(((not _one_sided(c, k), partners, c.size, str(c), i, k), (i, k)))
    out.sort()
    return [pos for _, pos in out]


def search(
    clauses: Sequence[Clause],
    xarity: dict[str, int],
    limits: Optional[SearchLimits] = None,
) -> Iterator[Derivation]:
    """Depth-first backtracking over pointed-clause choices, alternating
    preprocessing and purification; yields eliminating derivations lazily.
    The search is deterministic: all tie-breaking is canonical.  No trace is
    yielded twice, since sibling branches begin by purifying different
    literals, which their first `purdel` or `res` step names.
    """
    limits = limits or SearchLimits()
    inputs = tuple(clauses)
    branches = [0]

    def rec(st: _State) -> Iterator[Derivation]:
        try:
            preprocess(st)
        except _Budget:
            return
        if not any(l.pvar for c in st.live.values() for l in c.lits):
            yield Derivation(inputs, tuple(st.steps))
            return
        for (i, k) in _candidates(st):
            if time.monotonic() > st.deadline or branches[0] >= limits.max_branches:
                return
            branches[0] += 1
            child = st.clone()
            if purify(child, i, k):
                yield from rec(child)

    yield from rec(_State.start(inputs, xarity, limits))


# ---------------------------------------------------------------------------
# replay


def _trace_steps(trace: str) -> Iterator[Step]:
    """The steps a trace declares: rule, arguments and new id, no clause."""
    lines = (raw.strip() for raw in trace.splitlines())
    for index, raw in enumerate(raw for raw in lines if raw.split("#", 1)[0]):
        line = raw.split("#", 1)[0].strip()
        for name, rule in RULES.items():
            if (parsed := rule.parse(line)) is not None:
                yield Step(name, parsed[0], (), parsed[1])
                break
        else:
            raise ReplayError(index, f"cannot parse trace line {raw!r}")


def _rebuild(st: _State, declared: Iterable[Step]) -> Derivation:
    """Build each declared step through `RULES` on `st`, with its declared
    new id and, where one is declared, its clause; raises ReplayError on the
    first step that fails."""
    inputs = tuple(st.live.values())
    for index, claim in enumerate(declared):
        if claim.rule not in RULES:
            raise ReplayError(index, f"unknown rule {claim.rule!r}")
        try:
            step = RULES[claim.rule].fn(st, *claim.args)
        except _Rejected as e:
            raise ReplayError(index, str(e)) from None
        if step.new_id != claim.new_id:
            raise ReplayError(index, f"expected new id {step.new_id}, trace says {claim.new_id}")
        if claim.added is not None and step.added != claim.added:
            raise ReplayError(index, f"the step derives {step.added}, not {claim.added}")
        st.apply(step)
    return Derivation(inputs, tuple(st.steps))


def replay(clauses: Sequence[Clause], xarity: dict[str, int], trace: str) -> Derivation:
    """Execute a trace against the input clauses, re-validating every side
    condition; raises ReplayError on the first invalid step."""
    return _rebuild(_State.start(clauses, xarity), _trace_steps(trace))


def replay_proof(proof: Derivation) -> Derivation:
    """Rebuild a prover refutation, with resolution and factoring on any
    literals; raises ReplayError unless it ends with the empty clause."""
    d = _rebuild(replace(_State.start(proof.inputs, {}), any_literal=True), proof.steps)
    if Clause() not in d.conclusion():
        raise ReplayError(len(proof.steps), "the proof does not derive the empty clause")
    return d
