"""Derivations over clause sets: recording, preprocessing, purification,
backtracking search, and scripted replay.

A derivation is a sequence of steps, each transforming the current clause set.
Clauses carry stable integer identifiers assigned at creation; traces reference
them.  Literal positions in traces are 1-based.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .calculus import (
    constraint_eliminate,
    constraint_factor,
    constraint_resolve,
    ext_purity_check,
    is_purified,
    paramodulant,
    variable_eliminate,
)
from .logic import Clause, Lit, PointedClause, pointed
from .subsumption import is_tautology, subsumes, subsumes_L_velim


# ---------------------------------------------------------------------------
# steps


@dataclass(frozen=True)
class Infer:
    """An inference adding a new clause: rule is 'res', 'fac', 'constrelim' or
    'parmod'; `data` holds the rule-specific positions (0-based)."""

    rule: str
    premises: tuple[int, ...]
    data: tuple
    new_id: int
    conclusion: Clause


@dataclass(frozen=True)
class VarElimStep:
    premise: int
    new_id: int
    conclusion: Clause


@dataclass(frozen=True)
class RedDel:
    clause_id: int
    reason: str  # 'tautology' | 'subsumed-by'
    by: Optional[int] = None


@dataclass(frozen=True)
class ExtPurDelStep:
    pvar: str
    polarity: str  # '+' | '-'
    arity: int
    deleted: tuple[int, ...]


@dataclass(frozen=True)
class PurDelStep:
    clause_id: int
    lit: int  # 0-based designated literal


Step = object


@dataclass(frozen=True)
class Derivation:
    """A validated step sequence with its clause table and the intermediate
    alive sets (states[0] is the initial set, states[i] the set after step i).
    """

    clauses: dict[int, Clause]
    initial: tuple[int, ...]
    steps: tuple[Step, ...]
    states: tuple[frozenset[int], ...]

    @property
    def conclusion_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.states[-1]))

    def conclusion(self) -> tuple[Clause, ...]:
        return tuple(self.clauses[i] for i in self.conclusion_ids)

    def alive_clauses(self, i: int) -> frozenset[Clause]:
        return frozenset(self.clauses[j] for j in self.states[i])

    def purdel_indices(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.steps) if isinstance(s, PurDelStep))

    def eliminating(self) -> bool:
        return not any(
            l.pvar for i in self.states[-1] for l in self.clauses[i].lits
        )

    def trace_lines(self) -> list[str]:
        return [trace_line(s) for s in self.steps]


@dataclass
class SearchLimits:
    max_steps: int = 50
    timeout: float = 10.0
    purify_budget: int = 100
    max_branches: int = 64

    def __post_init__(self):
        if min(self.max_steps, self.purify_budget, self.max_branches) <= 0 or self.timeout <= 0:
            raise ValueError("limits must be positive")


# ---------------------------------------------------------------------------
# trace format


def trace_line(s: Step) -> str:
    if isinstance(s, Infer):
        if s.rule == "res":
            (l1, l2) = s.data
            return f"res {s.premises[0]}.{l1 + 1} {s.premises[1]}.{l2 + 1} -> {s.new_id}"
        if s.rule == "fac":
            (i, j) = s.data
            return f"fac {s.premises[0]}.{i + 1}.{j + 1} -> {s.new_id}"
        if s.rule == "constrelim":
            return f"constrelim {s.premises[0]} -> {s.new_id}"
        if s.rule == "parmod":
            (ei, orient, li, path) = s.data
            pos = ".".join(str(x + 1) for x in (li,) + path)
            return f"parmod {s.premises[0]}.{ei + 1}:{orient} {s.premises[1]}@{pos} -> {s.new_id}"
        raise ValueError(f"unknown rule {s.rule!r}")
    if isinstance(s, VarElimStep):
        return f"varelim {s.premise} -> {s.new_id}"
    if isinstance(s, RedDel):
        if s.reason == "tautology":
            return f"redel {s.clause_id} tautology"
        return f"redel {s.clause_id} subsumed-by {s.by}"
    if isinstance(s, ExtPurDelStep):
        return f"extpurdel {s.pvar} {s.polarity}"
    if isinstance(s, PurDelStep):
        return f"purdel {s.clause_id}.{s.lit + 1}"
    raise TypeError(s)


class ReplayError(Exception):
    def __init__(self, index: int, reason: str):
        super().__init__(f"step {index + 1}: {reason}")
        self.index = index
        self.reason = reason


_RES_RE = re.compile(r"res (\d+)\.(\d+) (\d+)\.(\d+) -> (\d+)$")
_FAC_RE = re.compile(r"fac (\d+)\.(\d+)\.(\d+) -> (\d+)$")
_CELIM_RE = re.compile(r"constrelim (\d+) -> (\d+)$")
_PARMOD_RE = re.compile(r"parmod (\d+)\.(\d+)(?::(lr|rl))? (\d+)@(\d+(?:\.\d+)+) -> (\d+)$")
_VELIM_RE = re.compile(r"varelim (\d+) -> (\d+)$")
_REDEL_RE = re.compile(r"redel (\d+) (?:(tautology)|subsumed-by (\d+))$")
_PURDEL_RE = re.compile(r"purdel (\d+)\.(\d+)$")
_EXTPD_RE = re.compile(r"extpurdel (\w+) ([+-])$")


# ---------------------------------------------------------------------------
# mutable builder state


@dataclass
class _State:
    clauses: dict[int, Clause]
    alive: list[int]  # sorted ids
    steps: list[Step]
    states: list[frozenset[int]]

    @staticmethod
    def start(clauses: Sequence[Clause]) -> "_State":
        table = {i + 1: c for i, c in enumerate(clauses)}
        alive = sorted(table)
        return _State(table, alive, [], [frozenset(alive)])

    def clone(self) -> "_State":
        return _State(dict(self.clauses), list(self.alive), list(self.steps), list(self.states))

    def next_id(self) -> int:
        return max(self.clauses) + 1

    def record(self, step: Step) -> None:
        self.steps.append(step)
        self.states.append(frozenset(self.alive))

    def add(self, c: Clause) -> int:
        i = self.next_id()
        self.clauses[i] = c
        self.alive.append(i)
        return i

    def remove(self, i: int) -> None:
        self.alive.remove(i)

    def alive_clauses(self, without: Optional[int] = None) -> frozenset[Clause]:
        return frozenset(self.clauses[i] for i in self.alive if i != without)

    def freeze(self) -> Derivation:
        return Derivation(
            dict(self.clauses),
            tuple(sorted(self.states[0])),
            tuple(self.steps),
            tuple(self.states),
        )


class _Budget(Exception):
    pass


def _clause_order(st: _State, i: int):
    return (str(st.clauses[i]), i)


def _check(st: _State, limits: SearchLimits, deadline: float) -> None:
    if len(st.steps) >= limits.max_steps or time.monotonic() > deadline:
        raise _Budget


# ---------------------------------------------------------------------------
# preprocessing


def _velim_pass(st: _State, limits, deadline) -> bool:
    changed = False
    for i in sorted(st.alive):
        c2, applied = variable_eliminate(st.clauses[i])
        if applied:
            _check(st, limits, deadline)
            st.remove(i)
            j = st.add(c2)
            st.record(VarElimStep(i, j, c2))
            changed = True
    return changed


def _tautology_pass(st: _State, limits, deadline) -> bool:
    changed = False
    for i in sorted(st.alive):
        if is_tautology(st.clauses[i]):
            _check(st, limits, deadline)
            st.remove(i)
            st.record(RedDel(i, "tautology"))
            changed = True
    return changed


def _subsumption_pass(st: _State, limits, deadline, protect: frozenset[int] = frozenset()) -> bool:
    """Delete clauses subsumed by another live clause, largest first, one at a
    time (mutually subsuming pairs keep the canonically smaller member)."""
    changed = False
    while True:
        victims = sorted(
            (i for i in st.alive if i not in protect),
            key=lambda i: _clause_order(st, i),
            reverse=True,
        )
        hit = None
        for i in victims:
            by = next(
                (j for j in sorted(st.alive) if j != i and subsumes(st.clauses[j], st.clauses[i])),
                None,
            )
            if by is not None:
                hit = (i, by)
                break
        if hit is None:
            return changed
        _check(st, limits, deadline)
        i, by = hit
        st.remove(i)
        st.record(RedDel(i, "subsumed-by", by))
        changed = True


def _extpurdel_pass(st: _State, xarity: dict[str, int], limits, deadline) -> bool:
    changed = False
    for x in xarity:
        ids = [
            i for i in sorted(st.alive)
            if any(l.pvar and l.head == x for l in st.clauses[i].lits)
        ]
        if not ids:
            continue
        pol = ext_purity_check(st.alive_clauses(), x)
        if pol is None:
            continue
        _check(st, limits, deadline)
        for i in ids:
            st.remove(i)
        st.record(ExtPurDelStep(x, pol, xarity[x], tuple(ids)))
        changed = True
    return changed


def _deletion_fixpoint(st: _State, xarity, limits, deadline) -> None:
    while True:
        changed = _velim_pass(st, limits, deadline)
        changed |= _tautology_pass(st, limits, deadline)
        changed |= _subsumption_pass(st, limits, deadline)
        changed |= _extpurdel_pass(st, xarity, limits, deadline)
        if not changed:
            return


def _factor_pass(st: _State, limits, deadline) -> bool:
    added = False
    for i in sorted(st.alive):
        c = st.clauses[i]
        for a in range(len(c.lits)):
            for b in range(len(c.lits)):
                if a == b:
                    continue
                la, lb = c.lits[a], c.lits[b]
                if la.is_eq or not la.same_kind(lb):
                    continue
                f = constraint_factor(c, a, b)
                if any(subsumes(s, f) for s in st.alive_clauses()):
                    continue
                _check(st, limits, deadline)
                j = st.add(f)
                st.record(Infer("fac", (i,), (a, b), j, f))
                added = True
    return added


def preprocess(st: _State, xarity: dict[str, int], limits: SearchLimits, deadline: float) -> None:
    """Deletion fixpoint (variable elimination, tautology and subsumption
    deletion, external-purity deletion), then one round of non-redundant
    constraint factors, then the fixpoint again."""
    _deletion_fixpoint(st, xarity, limits, deadline)
    if _factor_pass(st, limits, deadline):
        _deletion_fixpoint(st, xarity, limits, deadline)


# ---------------------------------------------------------------------------
# purification


def _partner_positions(st: _State, p: PointedClause, skip: int) -> Iterator[tuple[int, int]]:
    want = p.designated.dual()
    for i in sorted(st.alive):
        if i == skip:
            continue
        for k, l in enumerate(st.clauses[i].lits):
            if l.same_kind(want):
                yield i, k


def purify(st: _State, p_id: int, p_idx: int, limits: SearchLimits, deadline: float) -> bool:
    """Saturate the designated literal of clause `p_id` against the rest:
    repeatedly add constraint resolvents not subsumed (modulo constraint
    unfolding) by the live set, with eager variable elimination and subsumption
    deletion -- but no tautology deletion -- until the pointed clause is
    purified, then delete it.  Returns False when stuck or over budget."""
    p = pointed(st.clauses[p_id], p_idx)
    like = p.designated.dual()
    spent = 0
    while True:
        if time.monotonic() > deadline or len(st.steps) >= limits.max_steps:
            return False
        if is_purified(p, st.alive_clauses(without=p_id)) is not None:
            st.remove(p_id)
            st.record(PurDelStep(p_id, p_idx))
            return True
        if spent >= limits.purify_budget:
            return False
        progress = False
        for cid, k in _partner_positions(st, p, skip=p_id):
            r = constraint_resolve(p, pointed(st.clauses[cid], k))
            if any(subsumes_L_velim(s, r, like) for s in st.alive_clauses()):
                continue
            rid = st.add(r)
            st.record(Infer("res", (p_id, cid), (p_idx, k), rid, r))
            spent += 1
            r2, applied = variable_eliminate(r)
            if applied:
                st.remove(rid)
                rid2 = st.add(r2)
                st.record(VarElimStep(rid, rid2, r2))
            try:
                _subsumption_pass(st, limits, deadline, protect=frozenset([p_id]))
            except _Budget:
                return False
            progress = True
            break
        if not progress:
            return False


# ---------------------------------------------------------------------------
# search


def _one_sided(c: Clause, idx: int) -> bool:
    d = c.lits[idx]
    return all(l.pos == d.pos for l in c.lits if l.pvar and l.head == d.head)


def _candidates(st: _State) -> list[tuple[int, int]]:
    out = []
    for i in sorted(st.alive):
        c = st.clauses[i]
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
    The search is deterministic: all tie-breaking is canonical.
    """
    limits = limits or SearchLimits()
    deadline = time.monotonic() + limits.timeout
    branches = [0]
    seen: set[tuple[str, ...]] = set()

    def rec(st: _State) -> Iterator[Derivation]:
        try:
            preprocess(st, xarity, limits, deadline)
        except _Budget:
            return
        if not any(l.pvar for c in st.alive_clauses() for l in c.lits):
            d = st.freeze()
            key = tuple(d.trace_lines())
            if key not in seen:
                seen.add(key)
                yield d
            return
        for (i, k) in _candidates(st):
            if time.monotonic() > deadline or branches[0] >= limits.max_branches:
                return
            branches[0] += 1
            child = st.clone()
            if purify(child, i, k, limits, deadline):
                yield from rec(child)

    yield from rec(_State.start(clauses))


# ---------------------------------------------------------------------------
# replay


def _need(st: _State, index: int, i: int) -> Clause:
    if i not in st.alive:
        raise ReplayError(index, f"clause {i} is not in the current set")
    return st.clauses[i]


def _need_lit(index: int, c: Clause, i: int, k: int) -> Lit:
    if not 0 <= k < len(c.lits):
        raise ReplayError(index, f"clause {i} has no literal {k + 1}")
    return c.lits[k]


def _assign(st: _State, index: int, declared: int, c: Clause) -> int:
    if declared != st.next_id():
        raise ReplayError(index, f"expected new id {st.next_id()}, trace says {declared}")
    return st.add(c)


def replay(clauses: Sequence[Clause], xarity: dict[str, int], trace: str) -> Derivation:
    """Execute a trace against an initial clause set, re-validating every side
    condition; raises ReplayError on the first invalid step."""
    st = _State.start(clauses)
    lines = [l.strip() for l in trace.splitlines()]
    index = -1
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        index += 1
        if m := _RES_RE.match(line):
            i1, k1, i2, k2, nid = map(int, m.groups())
            c1, c2 = _need(st, index, i1), _need(st, index, i2)
            _need_lit(index, c1, i1, k1 - 1), _need_lit(index, c2, i2, k2 - 1)
            try:
                r = constraint_resolve(pointed(c1, k1 - 1), pointed(c2, k2 - 1))
            except ValueError as e:
                raise ReplayError(index, str(e)) from None
            _assign(st, index, nid, r)
            st.record(Infer("res", (i1, i2), (k1 - 1, k2 - 1), nid, r))
        elif m := _FAC_RE.match(line):
            i1, a, b, nid = map(int, m.groups())
            c = _need(st, index, i1)
            _need_lit(index, c, i1, a - 1), _need_lit(index, c, i1, b - 1)
            try:
                f = constraint_factor(c, a - 1, b - 1)
            except ValueError as e:
                raise ReplayError(index, str(e)) from None
            _assign(st, index, nid, f)
            st.record(Infer("fac", (i1,), (a - 1, b - 1), nid, f))
        elif m := _CELIM_RE.match(line):
            i1, nid = map(int, m.groups())
            c = _need(st, index, i1)
            r = constraint_eliminate(c)
            if r is None:
                raise ReplayError(index, f"no eliminable constraint block in clause {i1}")
            _assign(st, index, nid, r)
            st.record(Infer("constrelim", (i1,), (), nid, r))
        elif m := _PARMOD_RE.match(line):
            i1, e1, orient, i2, pos, nid = m.groups()
            i1, e1, i2, nid = int(i1), int(e1), int(i2), int(nid)
            parts = [int(x) - 1 for x in pos.split(".")]
            li, path = parts[0], tuple(parts[1:])
            c1, c2 = _need(st, index, i1), _need(st, index, i2)
            _need_lit(index, c1, i1, e1 - 1), _need_lit(index, c2, i2, li)
            orients = [orient] if orient else ["lr", "rl"]
            r = None
            for o in orients:
                r = paramodulant(c1, e1 - 1, o, c2, li, path)
                if r is not None:
                    orient = o
                    break
            if r is None:
                raise ReplayError(index, f"paramodulation does not apply at {line!r}")
            _assign(st, index, nid, r)
            st.record(Infer("parmod", (i1, i2), (e1 - 1, orient, li, path), nid, r))
        elif m := _VELIM_RE.match(line):
            i1, nid = map(int, m.groups())
            c = _need(st, index, i1)
            c2, applied = variable_eliminate(c)
            if not applied:
                raise ReplayError(index, f"clause {i1} has no eliminable variable")
            st.remove(i1)
            _assign(st, index, nid, c2)
            st.record(VarElimStep(i1, nid, c2))
        elif m := _REDEL_RE.match(line):
            i1 = int(m.group(1))
            c = _need(st, index, i1)
            if m.group(2):
                if not is_tautology(c):
                    raise ReplayError(index, f"clause {i1} is not a tautology")
                st.remove(i1)
                st.record(RedDel(i1, "tautology"))
            else:
                by = int(m.group(3))
                cb = _need(st, index, by)
                if by == i1 or not subsumes(cb, c):
                    raise ReplayError(index, f"clause {by} does not subsume clause {i1}")
                st.remove(i1)
                st.record(RedDel(i1, "subsumed-by", by))
        elif m := _PURDEL_RE.match(line):
            i1, k = map(int, m.groups())
            c = _need(st, index, i1)
            l = _need_lit(index, c, i1, k - 1)
            if not l.pvar:
                raise ReplayError(index, f"literal {i1}.{k} is not a predicate-variable literal")
            if is_purified(pointed(c, k - 1), st.alive_clauses(without=i1)) is None:
                raise ReplayError(index, f"{i1}.{k} is not purified in the current set")
            st.remove(i1)
            st.record(PurDelStep(i1, k - 1))
        elif m := _EXTPD_RE.match(line):
            x, pol = m.groups()
            want = pol == "+"
            ids = [
                i for i in sorted(st.alive)
                if any(l.pvar and l.head == x for l in st.clauses[i].lits)
            ]
            bad = next(
                (
                    i for i in ids
                    if not any(
                        l.pvar and l.head == x and l.pos == want
                        for l in st.clauses[i].lits
                    )
                ),
                None,
            )
            if bad is not None:
                raise ReplayError(
                    index, f"clause {bad} has no {pol}{x} literal, ExtPurDel does not apply"
                )
            arity = xarity.get(x)
            if arity is None:
                occ = next(
                    (
                        len(l.args)
                        for i in ids
                        for l in st.clauses[i].lits
                        if l.pvar and l.head == x
                    ),
                    None,
                )
                if occ is None:
                    raise ReplayError(index, f"unknown predicate variable {x}")
                arity = occ
            for i in ids:
                st.remove(i)
            st.record(ExtPurDelStep(x, pol, arity, tuple(ids)))
        else:
            raise ReplayError(index, f"cannot parse trace line {raw!r}")
    return st.freeze()
