"""Derivation search, trace replay, and the deletion side conditions."""

import json
import random
from itertools import islice
from pathlib import Path

import pytest

from wscan import saturation
from wscan.logic import Clause, Lit
from wscan.problems import encode_graph, merge_theory, parse_graph, parse_problem
from wscan.saturation import ReplayError, SearchLimits, replay, search

from conftest import (
    CORPUS_RUNS,
    cl,
    clauses_of,
    corpus_derivation,
    random_clause,
    ref_deletion_fixpoint,
    ref_purify,
)

CORPUS = Path(__file__).resolve().parent.parent / "src" / "wscan" / "corpus"
# p06 is not solved by blind search within the default limits
SEARCH_SOLVED = [p for p in sorted(CORPUS.glob("*.wscan")) if p.stem != "p06_graph3"]

MAIN = "B(a, ?v)\nX(a)\nB(?u, ?v) | ~X(?u) | X(?v)\n~X(c)"


def solve(text, header="X/1", **kw):
    clauses = clauses_of(text, header)
    xar = {}
    for part in header.split(","):
        name, ar = part.strip().split("/")
        xar[name] = int(ar)
    return next(search(clauses, xar, SearchLimits(**kw)), None)


def test_search_solves_the_reachability_set():
    d = solve(MAIN)
    assert d is not None and d.eliminating()
    concl = set(d.conclusion())
    assert concl == {cl("B(a, ?v)"), cl("a != c")}


def test_search_trace_replays_to_the_same_derivation():
    d = solve(MAIN)
    text = "\n".join(d.trace_lines())
    clauses = clauses_of(MAIN)
    d2 = replay(clauses, {"X": 1}, text)
    assert d2.conclusion() == d.conclusion()
    assert d2.trace_lines() == d.trace_lines()


@pytest.mark.parametrize("path", SEARCH_SOLVED, ids=lambda p: p.stem)
def test_corpus_search_derivations_replay_exactly(path):
    prob = merge_theory(parse_problem(path.read_text(), origin=str(path)))
    d = next(search(prob.clauses, prob.xvars), None)
    assert d is not None
    assert replay(prob.clauses, prob.xvars, "\n".join(d.trace_lines())) == d


@pytest.mark.parametrize("path", SEARCH_SOLVED, ids=lambda p: p.stem)
def test_step_budget_is_charged_per_step(path):
    prob = merge_theory(parse_problem(path.read_text(), origin=str(path)))
    d = next(search(prob.clauses, prob.xvars))
    n = len(d.steps)
    assert next(search(prob.clauses, prob.xvars, SearchLimits(max_steps=n))) == d
    if n > 1:
        tighter = search(prob.clauses, prob.xvars, SearchLimits(max_steps=n - 1))
        assert all(len(e.steps) <= n - 1 for e in islice(tighter, 8))


SEARCH_PINS = Path(__file__).resolve().parent / "search_derivations.json"


def search_record(path):
    """The trace lines and printed conclusion of the first derivation that
    search finds at the default limits."""
    _, d = corpus_derivation(path.stem, None)
    return {"trace": d.trace_lines(), "conclusion": [str(c) for c in d.conclusion()]}


@pytest.mark.parametrize("path", SEARCH_SOLVED, ids=lambda p: p.stem)
def test_search_derivation_matches_its_pinned_record(path):
    """Search derives exactly what it did when recorded; re-record with
    `PYTHONPATH=src python tests/test_saturation.py` from the repository
    root."""
    assert search_record(path) == json.loads(SEARCH_PINS.read_text())[path.stem]


def _two_variable_set(rng):
    """Two to six random clauses over X/1 and Y/1: each predicate-variable
    literal of `random_clause` gets one of the two heads at random."""
    return [
        Clause.make(Lit(l.pos, rng.choice("XY"), l.args, True) if l.pvar else l for l in c.lits)
        for c in (random_clause(rng) for _ in range(rng.randrange(2, 7)))
    ]


def test_deletion_fixpoint_matches_rerunning_every_pass():
    """One round of variable elimination, tautology and subsumption
    deletion, then external-purity deletion until it applies nothing, takes
    the steps of re-running all four passes until a round applies none, and
    a second call applies no step."""
    rng = random.Random(5)
    chained = 0
    for _ in range(400):
        clauses = _two_variable_set(rng)
        st, ref = (saturation._State.start(clauses, {"X": 1, "Y": 1}) for _ in range(2))
        saturation._deletion_fixpoint(st)
        ref_deletion_fixpoint(ref)
        assert st.steps == ref.steps, clauses
        n = len(st.steps)
        saturation._deletion_fixpoint(st)
        assert len(st.steps) == n, clauses
        # deleting Y's clauses left X pure, which only a second
        # external-purity pass (X comes first) deletes
        chained += [s.args[0] for s in st.steps if s.rule == "extpurdel"] == ["Y", "X"]
    assert chained >= 5


def test_purify_takes_the_reference_steps_with_one_purity_check(monkeypatch):
    """After preprocessing, purifying any predicate-variable literal takes
    the steps and gives the answer of the reference that tries the purity
    deletion before every scan, with at most one purity check: a purified
    clause's resolvents are all covered by the rest, so the scan adds
    nothing before the check succeeds."""
    checks = [0]
    real = saturation.is_purified

    def counted(*args):
        checks[0] += 1
        return real(*args)

    monkeypatch.setattr(saturation, "is_purified", counted)
    # a step budget stops the closures that grow for ever
    limits = SearchLimits(max_steps=40, timeout=1e9)
    rng = random.Random(5)
    outcomes = {}
    for _ in range(1000):
        st = saturation._State.start(_two_variable_set(rng), {"X": 1, "Y": 1}, limits)
        try:
            saturation.preprocess(st)
        except saturation._Budget:
            continue
        for i, c in list(st.live.items()):
            for k, l in enumerate(c.lits):
                if not l.pvar:
                    continue
                got, ref = st.clone(), st.clone()
                want = ref_purify(ref, i, k)
                checks[0] = 0
                ok = saturation.purify(got, i, k)
                assert (ok, got.steps) == (want, ref.steps), (c, k)
                assert checks[0] <= 1, (c, k, checks[0])
                added = any(s.rule == "res" for s in got.steps[len(st.steps):])
                outcomes[ok, added] = outcomes.get((ok, added), 0) + 1
    # purified with or without adding resolvents, refused with nothing to
    # add (a resolvent only the clause itself covers), and refused after
    # adding resolvents (mostly at the step budget)
    assert min(outcomes.get((ok, added), 0) for ok in (True, False) for added in (True, False)) >= 5, outcomes


def test_search_is_deterministic_across_runs():
    t1 = "\n".join(solve(MAIN).trace_lines())
    t2 = "\n".join(solve(MAIN).trace_lines())
    assert t1 == t2


def test_search_decides_each_subsumption_once(monkeypatch):
    """Clauses are immutable, so a search asks `subsumes` about a pair once
    and reads the answer from its memo after that; the one re-test is the
    check `_subsumed` makes when it builds the step of a hit.  The memo
    belongs to one search: a second, identical search starts empty and so
    makes as many calls."""
    calls, pairs = [], set()
    real = saturation.subsumes

    def counted(s, c):
        calls.append(1)
        pairs.add((s, c))
        return real(s, c)

    monkeypatch.setattr(saturation, "subsumes", counted)
    graph = (CORPUS / "p06_graph3.graph").read_text()
    prob = merge_theory(encode_graph(parse_graph(graph)))
    limits = SearchLimits(max_steps=34, max_branches=8, timeout=3600)
    counts = []
    for _ in range(2):
        calls.clear()
        assert list(search(prob.clauses, prob.xvars, limits)) == []
        counts.append(len(calls))
    assert counts[0] <= 2 * len(pairs), (counts, len(pairs))
    assert counts[1] == counts[0]


def test_search_returns_multiple_distinct_derivations():
    clauses = clauses_of(MAIN)
    gen = search(clauses, {"X": 1}, SearchLimits())
    seen = []
    for d in gen:
        seen.append(tuple(d.trace_lines()))
        if len(seen) == 3:
            break
    assert len(seen) == len(set(seen)) >= 2


def test_search_handles_two_second_order_variables():
    d = solve("X(a)\n~X(?u) | Y(?u)\n~Y(c)", header="X/1, Y/1")
    assert d is not None
    assert set(d.conclusion()) == {cl("a != c")}


def test_search_gives_up_on_unsolvable_instances():
    # X is forced to keep growing along f; with no deletions applicable the
    # search must terminate empty rather than loop
    d = solve("X(a)\n~X(?u) | X(f(?u))\n~X(?v) | B(?v)", timeout=3.0, max_steps=12)
    assert d is None or d.eliminating()


def test_replay_checks_resolution_indices():
    clauses = clauses_of(MAIN)
    with pytest.raises(ReplayError) as e:
        replay(clauses, {"X": 1}, "res 2.1 3.1 -> 5")
    assert "step 1" in str(e.value)


def test_replay_rejects_wrong_result_id():
    clauses = clauses_of(MAIN)
    with pytest.raises(ReplayError):
        replay(clauses, {"X": 1}, "res 2.1 4.1 -> 9")


def test_replay_rejects_unpurified_deletion():
    clauses = clauses_of(MAIN)
    # clause 3's negative X-literal is not purified before the resolvent exists
    with pytest.raises(ReplayError):
        replay(clauses, {"X": 1}, "purdel 2.1")


def test_replay_rejects_malformed_lines():
    clauses = clauses_of(MAIN)
    for bad in ("res 2.1 -> 5", "nonsense 1", "purdel 0.1", "res 2.9 4.1 -> 5"):
        with pytest.raises(ReplayError):
            replay(clauses, {"X": 1}, bad)


def test_replay_accepts_comments_and_blanks():
    clauses = clauses_of(MAIN)
    text = "# comment\n\n  res 2.1 4.1 -> 5\npurdel 2.1\nextpurdel X -\n"
    d = replay(clauses, {"X": 1}, text)
    assert d.eliminating()


def test_replay_extpurdel_needs_uniform_polarity():
    clauses = clauses_of(MAIN)
    with pytest.raises(ReplayError):
        replay(clauses, {"X": 1}, "extpurdel X -")
    with pytest.raises(ReplayError):
        replay(clauses, {"X": 1}, "extpurdel X +")


def test_replay_tautology_deletion():
    text = "X(?u) | ~X(?u)\nB(a)"
    clauses = clauses_of(text)
    d = replay(clauses, {"X": 1}, "redel 1 tautology\nextpurdel X -")
    assert d.eliminating()
    assert set(d.conclusion()) == {cl("B(a)")}
    with pytest.raises(ReplayError):
        replay(clauses, {"X": 1}, "redel 2 tautology")


def test_replay_subsumption_deletion():
    text = "B(a) | B(?u)\nB(?v)"
    clauses = clauses_of(text)
    d = replay(clauses, {"X": 1}, "redel 1 subsumed-by 2")
    assert set(d.conclusion()) == {cl("B(?v)")}
    with pytest.raises(ReplayError):
        replay(clauses, {"X": 1}, "redel 2 subsumed-by 1")


def test_extpurdel_polarities():
    def accepts(text, pol):
        try:
            replay(clauses_of(text), {"X": 1}, f"extpurdel X {pol}")
        except ReplayError:
            return False
        return True

    assert accepts("X(a) | B(a)\nX(c)", "+") and not accepts("X(a) | B(a)\nX(c)", "-")
    assert accepts("~X(a)\n~X(c) | B(c)", "-") and not accepts("~X(a)\n~X(c) | B(c)", "+")
    assert not accepts("X(a)\n~X(c)", "+") and not accepts("X(a)\n~X(c)", "-")
    # clauses without X do not block either polarity
    assert accepts("B(a)\nX(c)", "+")
    # where both polarities apply, search takes +
    assert solve("X(a) | ~X(b)").trace_lines() == ["extpurdel X +"]


def test_purdel_blocked_when_only_cover_is_a_tautology():
    # the designated literal resolves against clause 1 into a tautology, and
    # tautologies do not count as covered, so the deletion must be refused
    text = (
        "X(a) | ~X(f(a))\n"
        "X(b)\n"
        "~X(c)\n"
        "B(b)\n"
        "~X(?v) | X(f(?v)) | B(?v)"
    )
    clauses = clauses_of(text)
    c5 = clauses[4]
    neg = next(i for i, l in enumerate(c5.lits) if l.pvar and not l.pos)
    with pytest.raises(ReplayError):
        replay(clauses, {"X": 1}, f"purdel 5.{neg + 1}")


# the Geach axiom G(3,3,3,3), <>^3 []^3 p -> []^3 <>^3 p, negated at a world
# a and Skolemized: R-chains a, b1, b2, b3 and a, c1, c2, c3, with P true at
# every world three R-steps past b3 and false at every world three past c3
GEACH_3333 = (
    "R(a, b1)\nR(b1, b2)\nR(b2, b3)\n~R(b3, ?y1) | ~R(?y1, ?y2) | ~R(?y2, ?y3) | P(?y3)\n"
    "R(a, c1)\nR(c1, c2)\nR(c2, c3)\n~R(c3, ?z1) | ~R(?z1, ?z2) | ~R(?z2, ?z3) | ~P(?z3)"
)


def test_search_factors_only_predicate_variable_literals():
    # factoring the R literals spent the step budget before P was eliminated
    d = solve(GEACH_3333, header="P/1")
    assert d is not None and "fac" not in {s.rule for s in d.steps}
    # the chains and the frame condition: no world is three R-steps past
    # both b3 and c3; no factor of it, whose constraints would read b3 != c3
    condition = "~R(b3, ?y1) | ~R(?y1, ?y2) | ~R(?y2, ?w) | ~R(c3, ?z1) | ~R(?z1, ?z2) | ~R(?z2, ?w)"
    chains = [line for line in GEACH_3333.splitlines() if "|" not in line]
    assert set(d.conclusion()) == {cl(c, "P/1") for c in chains + [condition]}


@pytest.mark.parametrize("kw", [{"timeout": 0.0}, {"timeout": float("nan")}, {"max_steps": 0}])
def test_search_limits_must_be_positive(kw):
    with pytest.raises(ValueError):
        SearchLimits(**kw)


def test_derivation_records_alive_sets():
    d = solve(MAIN)
    assert d.alive(0) == dict(enumerate(d.inputs, 1))
    assert len(d.inputs) == 4
    assert tuple(d.alive(len(d.steps)).values()) == d.conclusion()


@pytest.mark.parametrize("problem,trace", CORPUS_RUNS, ids=lambda x: x or "search")
def test_alive_sets_agree_with_replay(problem, trace):
    # the fold of the first i steps is the conclusion of replaying i lines
    prob, d = corpus_derivation(problem, trace)
    lines = d.trace_lines()
    for i in range(len(lines) + 1):
        again = replay(prob.clauses, prob.xvars, "\n".join(lines[:i]))
        assert d.alive(i) == again.alive(), (i, lines[:i])
        assert tuple(d.alive(i).values()) == again.conclusion()
    assert again == d


# one row per trace form: problem, an accepted line and how it prints back,
# a rejected line and its reason
RULE_ROWS = [
    ("res", MAIN, "res 2.1 4.1 -> 5", None,
     "res 2.1 3.1 -> 5", "resolution is on predicate-variable literals"),
    ("fac", "X(?u) | X(a)\n~X(b)", "fac 1.1.2 -> 3", None,
     "fac 1.1.1 -> 3", "factoring needs two distinct literals"),
    ("constrelim", "f(?u) != f(a) | X(?u)\n~X(b)", "constrelim 1 -> 3", None,
     "constrelim 2 -> 3", "no eliminable constraint block in clause 2"),
    ("parmod", "a = b\nB(f(a))", "parmod 1.1 2@1.1.1 -> 3", "parmod 1.1:lr 2@1.1.1 -> 3",
     "parmod 1.1:rl 2@1.1.1 -> 3",
     "paramodulation does not apply at 'parmod 1.1:rl 2@1.1.1 -> 3'"),
    ("varelim", "?u != a | X(?u)\n~X(b)", "varelim 1 -> 3", None,
     "varelim 2 -> 3", "clause 2 has no eliminable variable"),
    ("tautology", "X(?u) | ~X(?u)\nB(a)", "redel 1 tautology", None,
     "redel 2 tautology", "clause 2 is not a tautology"),
    ("subsumed", "B(a) | B(?u)\nB(?v)", "redel 1 subsumed-by 2", None,
     "redel 2 subsumed-by 1", "clause 1 does not subsume clause 2"),
    ("purdel", "X(a)\nB(b)", "purdel 1.1", None,
     "purdel 2.1", "literal 2.1 is not a predicate-variable literal"),
    ("extpurdel", "X(a)\nB(b)", "extpurdel X +", None,
     "extpurdel X -", "clause 1 has no -X literal, ExtPurDel does not apply"),
]


# path position 0 names no argument (it must not wrap round to the last one)
PARMOD_POSITION_0 = ("parmod", "a = b\nB(a)", "parmod 1.1 2@1.1 -> 3", "parmod 1.1:lr 2@1.1 -> 3",
                     "parmod 1.1 2@1.0 -> 3", "paramodulation path positions start at 1")


# search and trace replay factor only predicate-variable literals
FAC_ORDINARY = ("fac", "X(?u) | X(a)\nB(?v) | B(b)", "fac 1.1.2 -> 3", None,
                "fac 2.1.2 -> 3", "factoring is on predicate-variable literals")

# a selection of constraints (1-based), as the prover's proofs carry it; a
# position 0 or past the clause names no literal
SELECTED = "f(?u) != f(a) | g(?u) != g(b) | X(?u)\n~X(b)"
CONSTRELIM_SELECTION = [
    ("constrelim", SELECTED, "constrelim 1.2 -> 3", None,
     "constrelim 1.0 -> 3", "clause 1 has no literal 0"),
    ("constrelim", SELECTED, "constrelim 1.1 -> 3", None,
     "constrelim 1.4 -> 3", "clause 1 has no literal 4"),
]

EXTRA_ROWS = [PARMOD_POSITION_0, FAC_ORDINARY] + CONSTRELIM_SELECTION


@pytest.mark.parametrize(
    "rule,text,good,printed,bad,reason",
    RULE_ROWS + EXTRA_ROWS,
    ids=[r[0] for r in RULE_ROWS]
    + ["parmod-position-0", "fac-ordinary-literals", "constrelim-position-0",
       "constrelim-past-the-clause"],
)
def test_replay_rule_row(rule, text, good, printed, bad, reason):
    clauses = clauses_of(text)
    d = replay(clauses, {"X": 1}, good)
    assert [s.rule for s in d.steps] == [rule]
    assert d.trace_lines() == [printed or good]
    with pytest.raises(ReplayError) as e:
        replay(clauses, {"X": 1}, bad)
    assert e.value.index == 0 and e.value.reason == reason


if __name__ == "__main__":
    SEARCH_PINS.write_text(
        json.dumps({p.stem: search_record(p) for p in SEARCH_SOLVED}, indent=1, sort_keys=True)
        + "\n"
    )
