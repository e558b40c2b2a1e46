"""Shared helpers: tiny clause DSL plus independent brute-force oracles.

The brute-force oracles deliberately avoid the library's own matching code.
Subsumption is decided by enumerating every substitution whose range is a
subterm of the target clause, and the constraint-unfolding closure is
recomputed from its one-step definition.  The reference matcher is the
library's backtracking search as it was before the feature prefilter, with
the copying term matcher it used then, the definition the filtered in-place
matcher in `subsumption` must agree with.  The reference evaluator walks the
formula tree with a fresh environment per binder, the definition the
block evaluator in `verify` must agree with in every model of a block.
The reference simplifier applies one bottom-up rewriting pass until the
formula stops changing, the definition the one-pass `logic.simplify` must
agree with.
The reference deletion fixpoint re-runs all four deletion passes until a
round applies no step, the definition `saturation._deletion_fixpoint`, which
repeats only external-purity deletion, must agree with.
The reference purification tries the purity deletion before every scan for
a resolvent, the steps `saturation.purify`, which tries it once, must agree
with.
The reference model enumerator yields every interpretation, the full set
that `verify.blocks` covers with one model per orbit of constant vectors,
and the reference function tables are the recursion that picked those
constant vectors, the sequence the one-test `verify._function_tables` must
agree with.
The reference certificate depth backtracks over every choice of covers, the
search that `witness.find_acyclic` replaces by a least fixpoint.
The reference canonical form deduplicates every literal by hashing and
names the variables of each candidate order by strings, the definition the
integer-keyed `logic._least_order` must agree with.
The Ackermann witness is a second witness oracle: a closed-form witness for
the single-occurrence pattern, built without any derivation.
"""

import itertools
import pathlib

from wscan.calculus import memoized, resolvent_covers
from wscan.logic import (
    DUAL,
    EQ,
    FALSE,
    TRUE,
    UNIT,
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
    Lit,
    PredExpr,
    Var,
    _lit_shape,
    _one_point,
    _orient_eq,
    canonical_pred_expr,
    for_,
    forall,
    formula_free_pvars,
    formula_free_vars,
    is_proper_subterm_var,
    junction,
    lit_to_formula,
    lit_vars,
    pointed,
    simplify_pred_expr,
    subst_consts,
    subst_formula,
    subst_lit,
)
from wscan import saturation
from wscan.problems import merge_theory, parse_problem
from wscan.saturation import RULES, Derivation, ReplayError, Step, replay, replay_proof, search
from wscan.subsumption import subsumes, subsumes_L_velim
import wscan.verify as verify_module
from wscan.verify import FiniteModel, blocks, eval_formula
from wscan.witness import Witness

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "src" / "wscan" / "corpus"

# every corpus derivation: blind search on each problem but p06, which search
# does not solve, and the four recorded traces
CORPUS_RUNS = [(p.stem, None) for p in sorted(CORPUS.glob("*.wscan")) if p.stem != "p06_graph3"]
CORPUS_RUNS += [("p01_main", "p01_d1"), ("p01_main", "p01_d2"), ("p05_cycle", "p05_cycle"),
                ("p06_graph3", "p06_graph3")]


def corpus_derivation(problem, trace):
    """The problem (theory merged) and its first search derivation, or the
    replayed trace when one is named."""
    prob = merge_theory(parse_problem((CORPUS / f"{problem}.wscan").read_text()))
    if trace is None:
        return prob, next(search(prob.clauses, prob.xvars))
    return prob, replay(prob.clauses, prob.xvars, (CORPUS / f"{trace}.trace").read_text())


def replays(proof):
    """Whether a prover refutation replays through `RULES`."""
    try:
        replay_proof(proof)
    except ReplayError:
        return False
    return True


def proof_of_lines(inputs, lines):
    """The refutation of the input clauses that the trace lines declare,
    each line parsed by the one `RULES` rule that matches it."""
    steps = []
    for line in lines:
        ((name, (args, new_id)),) = [
            (name, got) for name, rule in RULES.items() if (got := rule.parse(line)) is not None
        ]
        steps.append(Step(name, args, (), new_id))
    return Derivation(tuple(inputs), tuple(steps))


def problem(text):
    return parse_problem(text, origin="<test>")


def clauses_of(text, header="X/1"):
    prob = parse_problem(f"exists {header}.\n{text}\n", origin="<test>")
    return list(prob.clauses)


def cl(line, header="X/1"):
    (c,) = clauses_of(line, header)
    return c


def same_up_to_consts(p, q):
    """Whether two clause predicates are equal once their handle constants
    are renamed positionally."""

    def normalized(cp):
        m = {c: Var(f"@{i}") for i, c in enumerate(cp.consts)}
        return frozenset(
            Clause.make(
                Lit(l.pos, l.head, tuple(subst_consts(a, m) for a in l.args), l.pvar)
                for l in c.lits
            )
            for c in cp.clauses
        )

    return len(p.consts) == len(q.consts) and normalized(p) == normalized(q)


def _subterms(t):
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from _subterms(a)


def clause_subterms(c):
    out = []
    for l in c.lits:
        for a in l.args:
            for s in _subterms(a):
                if s not in out:
                    out.append(s)
    return out


def clause_vars(c):
    vs = []
    for t in clause_subterms(c):
        if isinstance(t, Var) and t.name not in vs:
            vs.append(t.name)
    return vs


def _s_vars(s):
    vs = []
    for l in s.lits:
        for a in l.args:
            for t in _subterms(a):
                if isinstance(t, Var) and t.name not in vs:
                    vs.append(t.name)
    return vs


def brute_subsumes(s, c, like=None):
    """Exhaustive subsumption check.

    Any substitution that embeds s into c must send each variable of s to a
    subterm of c, so trying exactly those candidates is complete.
    """
    vs = _s_vars(s)
    cands = clause_subterms(c)
    if not cands:
        cands = [Var("u")]
    target = set(c.lits)

    def present(m):
        if m in target:
            return True
        if m.is_eq:
            return Lit(m.pos, m.head, (m.args[1], m.args[0]), m.pvar) in target
        return False

    for combo in itertools.product(cands, repeat=len(vs)):
        sigma = dict(zip(vs, combo))
        image = []
        for l in s.lits:
            m = subst_lit(l, sigma)
            if not present(m):
                break
            image.append(m)
        if len(image) < len(s.lits):
            continue
        if like is None:
            return True
        marked = [m for l, m in zip(s.lits, image) if l.same_kind(like)]
        if len(set(marked)) == len(marked):
            return True
    return False


def match_terms(pattern, target, base=None):
    """One-sided matching: sigma extending `base` with pattern*sigma == target,
    or None.  Variables of the target are rigid.  Copies the substitution on
    every call, the simple definition the in-place matcher of `subsumption`
    must agree with."""
    if len(pattern) != len(target):
        return None
    out = dict(base or {})
    todo = list(zip(pattern, target))
    while todo:
        p, t = todo.pop()
        if isinstance(p, Var):
            if p.name in out:
                if out[p.name] != t:
                    return None
            else:
                out[p.name] = t
            continue
        if isinstance(t, Var) or p.fn != t.fn or len(p.args) != len(t.args):
            return None
        todo.extend(zip(p.args, t.args))
    return out


def _ref_match_lit(pat, tgt, base):
    if pat.pos != tgt.pos or pat.head != tgt.head or pat.pvar != tgt.pvar:
        return
    got = match_terms(pat.args, tgt.args, base)
    if got is not None:
        yield got
    if pat.is_eq:
        swapped = match_terms((pat.args[1], pat.args[0]), tgt.args, base)
        if swapped is not None and swapped != got:
            yield swapped


def ref_subsumes(s, c, like=None):
    """Reference backtracking matcher, without the feature prefilter or an
    argument index: patterns are ordered by how many target literals each
    matches on its own, and every pair goes to the search.  When `like` is
    given, the literals of s of that kind must map onto pairwise distinct
    literals of c.  A failed subsearch is remembered by what decides it: the
    pattern position, the bindings of the variables the later patterns read,
    and the used targets."""
    pats = sorted(
        range(len(s.lits)),
        key=lambda i: sum(1 for m in c.lits if any(True for _ in _ref_match_lit(s.lits[i], m, {}))),
    )
    inj = [like is not None and s.lits[i].same_kind(like) for i in range(len(s.lits))]
    if like is not None and sum(inj) > sum(1 for m in c.lits if m.same_kind(like)):
        return False
    later = [set().union(*(lit_vars(s.lits[i]) for i in pats[k:])) for k in range(len(pats))]
    failed = set()

    def go(k, sigma, used):
        if k == len(pats):
            return True
        key = (k, frozenset((v, t) for v, t in sigma.items() if v in later[k]), used)
        if key in failed:
            return False
        i = pats[k]
        for j, m in enumerate(c.lits):
            if inj[i] and j in used:
                continue
            for got in _ref_match_lit(s.lits[i], m, sigma):
                if go(k + 1, got, used | {j} if inj[i] else used):
                    return True
        failed.add(key)
        return False

    return go(0, {}, frozenset())


def brute_velim_closure(c):
    """All clauses reachable by eliminating a constraint  v != t  (v a
    variable not occurring properly in t) and substituting v by t."""
    seen = {c}
    stack = [c]
    while stack:
        cur = stack.pop()
        for i, l in enumerate(cur.lits):
            if not l.is_constraint:
                continue
            for v, t in ((l.args[0], l.args[1]), (l.args[1], l.args[0])):
                if not isinstance(v, Var) or is_proper_subterm_var(v.name, t):
                    continue
                rest = [
                    subst_lit(m, {v.name: t})
                    for j, m in enumerate(cur.lits)
                    if j != i
                ]
                nxt = Clause.make(rest)
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return seen


def brute_subsumes_velim(s, c, like):
    return any(brute_subsumes(s, e, like) for e in brute_velim_closure(c))


def reduction_subsumes_L(s, c, like):
    """Second, structurally different oracle for injective subsumption: give
    every marked literal of the target a fresh predicate name, try each
    injection of the source's marked literals into those names, and fall back
    to plain subsumption."""
    sk = [l for l in s.lits if l.same_kind(like)]
    ck = [l for l in c.lits if l.same_kind(like)]
    if len(sk) > len(ck):
        return False
    s0 = [l for l in s.lits if not l.same_kind(like)]
    c0 = [l for l in c.lits if not l.same_kind(like)]
    cp = Clause.make(
        c0 + [Lit(l.pos, f"_F{i}", l.args, True) for i, l in enumerate(ck)]
    )
    for f in itertools.permutations(range(len(ck)), len(sk)):
        sf = Clause.make(
            s0 + [Lit(l.pos, f"_F{f[i]}", l.args, True) for i, l in enumerate(sk)]
        )
        if subsumes(sf, cp):
            return True
    return False


# -- random clause generation over a fixed small signature -------------------

CONSTS = ("a", "b", "c")
VARS = ("u", "v", "w")


def random_term(rng, depth=2):
    roll = rng.random()
    if depth == 0 or roll < 0.45:
        if roll < 0.25:
            return Var(rng.choice(VARS))
        return App(rng.choice(CONSTS), ())
    return App(rng.choice(("f", "g")), (random_term(rng, depth - 1),))


def random_lit(rng, with_x=True):
    kind = rng.randrange(4 if with_x else 3)
    pos = rng.random() < 0.5
    if kind == 0:
        return Lit(pos, "B", (random_term(rng),), False)
    if kind == 1:
        return Lit(pos, "C", (random_term(rng), random_term(rng)), False)
    if kind == 2:
        return Lit(False, "=", (random_term(rng), random_term(rng)), False)
    return Lit(pos, "X", (random_term(rng),), True)


def random_clause(rng, max_lits=4, with_x=True):
    n = rng.randrange(1, max_lits + 1)
    return Clause.make(random_lit(rng, with_x) for _ in range(n))


# -- reference evaluator ------------------------------------------------------


def ref_eval_term(m, t, venv):
    if isinstance(t, Var):
        if t.name not in venv:
            raise KeyError(f"unbound variable {t.name}")
        return venv[t.name]
    table = m.funcs.get((t.fn, len(t.args)))
    if table is None:
        raise KeyError(f"uninterpreted function {t.fn}/{len(t.args)}")
    return table[tuple(ref_eval_term(m, a, venv) for a in t.args)]


def ref_eval_formula(m, f, venv=None, penv=None):
    venv = venv or {}
    penv = penv or {}
    if isinstance(f, FTrue):
        return True
    if isinstance(f, FFalse):
        return False
    if isinstance(f, FAtom):
        vals = tuple(ref_eval_term(m, a, venv) for a in f.args)
        if f.head == EQ and not f.pvar:
            return vals[0] == vals[1]
        if f.pvar and f.head in penv:
            return vals in penv[f.head]
        rel = m.rels.get((f.head, len(f.args)))
        if rel is None:
            raise KeyError(f"uninterpreted predicate {f.head}/{len(f.args)}")
        return vals in rel
    if isinstance(f, FNot):
        return not ref_eval_formula(m, f.sub, venv, penv)
    if isinstance(f, FAnd):
        return all(ref_eval_formula(m, s, venv, penv) for s in f.subs)
    if isinstance(f, FOr):
        return any(ref_eval_formula(m, s, venv, penv) for s in f.subs)
    if isinstance(f, FImp):
        return (not ref_eval_formula(m, f.lhs, venv, penv)) or ref_eval_formula(m, f.rhs, venv, penv)
    if isinstance(f, FIff):
        return ref_eval_formula(m, f.lhs, venv, penv) == ref_eval_formula(m, f.rhs, venv, penv)
    if isinstance(f, (FAll, FEx)):
        quant = all if isinstance(f, FAll) else any
        return quant(ref_eval_formula(m, f.sub, {**venv, f.var: e}, penv) for e in range(m.size))
    if isinstance(f, FGfp):
        rel = ref_gfp_relation(m, f, venv, penv)
        return tuple(ref_eval_term(m, a, venv) for a in f.args) in rel
    raise TypeError(f)


def ref_gfp_relation(m, f, venv, penv):
    """Downward iteration of the body operator from the full relation."""
    tuples = list(itertools.product(range(m.size), repeat=len(f.params)))
    rel = frozenset(tuples)
    while True:
        nxt = frozenset(
            t
            for t in tuples
            if ref_eval_formula(m, f.body, {**venv, **dict(zip(f.params, t))}, {**penv, f.pvar: rel})
        )
        if nxt == rel:
            return rel
        rel = nxt


# -- reference simplifier -----------------------------------------------------


def ref_simplify(f):
    """One rewriting pass at a time until a fixpoint, at most 64 passes."""
    for _ in range(64):
        g = _ref_simplify_pass(f)
        if g == f:
            return g
        f = g
    return f


def _ref_simplify_pass(f):
    """One bottom-up pass: each node rewritten once from its rewritten
    children, the node that pushing a negation inward builds left as is."""
    if isinstance(f, (FTrue, FFalse)):
        return f
    if isinstance(f, FAtom):
        if f.head == EQ and not f.pvar and f.args[0] == f.args[1]:
            return TRUE
        return f
    if isinstance(f, FNot):
        s = _ref_simplify_pass(f.sub)
        if isinstance(s, FNot):
            return s.sub
        if isinstance(s, (FTrue, FFalse)):
            return FALSE if isinstance(s, FTrue) else TRUE
        if isinstance(s, (FAnd, FOr)):
            return DUAL[type(s)](tuple(FNot(x) for x in s.subs))
        if isinstance(s, FImp):
            return FAnd((s.lhs, FNot(s.rhs)))
        if isinstance(s, (FAll, FEx)):
            return DUAL[type(s)](s.var, FNot(s.sub))
        return FNot(s)
    if isinstance(f, (FAnd, FOr)):
        kind = type(f)
        subs = []
        for x in map(_ref_simplify_pass, f.subs):
            if x == UNIT[DUAL[kind]]:
                return x
            if x != UNIT[kind]:
                subs.extend(x.subs if isinstance(x, kind) else [x])
        return junction(kind, dict.fromkeys(subs))
    if isinstance(f, FImp):
        a, b = _ref_simplify_pass(f.lhs), _ref_simplify_pass(f.rhs)
        if isinstance(a, FTrue):
            return b
        if isinstance(a, FFalse) or isinstance(b, FTrue):
            return TRUE
        if isinstance(b, FFalse):
            return _ref_simplify_pass(FNot(a))
        return FImp(a, b)
    if isinstance(f, FIff):
        a, b = _ref_simplify_pass(f.lhs), _ref_simplify_pass(f.rhs)
        if a == b:
            return TRUE
        if isinstance(a, FTrue) or isinstance(b, FTrue):
            return b if isinstance(a, FTrue) else a
        if isinstance(a, FFalse) or isinstance(b, FFalse):
            return _ref_simplify_pass(FNot(b if isinstance(a, FFalse) else a))
        return FIff(a, b)
    if isinstance(f, (FAll, FEx)):
        sub = _ref_simplify_pass(f.sub)
        if isinstance(sub, (FTrue, FFalse)) or f.var not in formula_free_vars(sub):
            return sub
        got = _one_point(f, sub)
        return _ref_simplify_pass(got) if got is not None else type(f)(f.var, sub)
    if isinstance(f, FGfp):
        body = _ref_simplify_pass(f.body)
        if f.pvar not in formula_free_pvars(body):
            return _ref_simplify_pass(subst_formula(body, dict(zip(f.params, f.args))))
        return FGfp(f.pvar, f.params, body, f.args)
    raise TypeError(f)


# -- reference deletion fixpoint ---------------------------------------------


def ref_deletion_fixpoint(st):
    """Variable elimination, tautology, subsumption and external-purity
    deletion, round after round, until a round applies no step."""
    while True:
        n = len(st.steps)
        saturation._clause_pass(st, saturation._varelim)
        saturation._clause_pass(st, saturation._tautology)
        saturation._subsumption_pass(st)
        saturation._extpurdel_pass(st)
        if len(st.steps) == n:
            return


def ref_purify(st, p_id, p_idx):
    """`saturation.purify` trying the purity deletion at the top of every
    round, before it scans for a resolvent to add."""
    p = pointed(st.live[p_id], p_idx)
    like = p.designated.dual()
    try:
        while True:
            st.charge()
            step = saturation._attempt(saturation._purdel, st, p_id, p_idx)
            if step is not None:
                st.apply(step)
                return True
            for cid, k in saturation._partner_positions(st, p, skip=p_id):
                step = saturation._res(st, p_id, p_idx, cid, k)
                if not any(
                    memoized(st.memo, subsumes_L_velim, s, step.added, like)
                    for s in st.live.values()
                ):
                    break
            else:
                return False
            st.apply(step)
            velim = saturation._attempt(saturation._varelim, st, step.new_id)
            if velim is not None:
                st.apply(velim)
            saturation._subsumption_pass(st, protect=frozenset([p_id]))
    except saturation._Budget:
        return False


# -- reference model enumerator -----------------------------------------------


def ref_models(sig, n):
    """Every model of size n over the signature, one per interpretation, in the
    order of the relations innermost and the symbols in sorted order."""
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
        funcs = dict(zip(fkeys, ftables))
        for rsets in itertools.product(*rdomains):
            yield FiniteModel(n, funcs, dict(zip(rkeys, rsets)))


def ref_function_tables(domains, consts, used=0):
    """One table per domain, in lexicographic order, each constant at most
    one above the largest value of the constants before it, with the number
    of distinct constant values, recursively: `used` is that number so far."""
    if not domains:
        yield (), used
        return
    head = domains[0][: used + 1] if consts[0] else domains[0]
    for v, table in enumerate(head):
        for rest, top in ref_function_tables(
            domains[1:], consts[1:], max(used, v + 1) if consts[0] else used
        ):
            yield (table, *rest), top


def models(sig, n):
    """The models of size n that `verify.blocks` stands for, each with its
    weight, in enumeration order."""
    for b in blocks(sig, n):
        for idx in range(b.count):
            yield b.model(idx), b.weight


def full_enumeration(monkeypatch):
    """Make `verify.blocks` give every assignment of function tables, each
    constant vector at weight 1, so the model route sees every model."""
    monkeypatch.setattr(
        verify_module, "_function_tables",
        lambda domains, consts: ((tables, 0) for tables in itertools.product(*domains)),
    )


def evaluator(f, free=(), pfree=()):
    """f as a test on one model, given the values of the variables `free`
    and then the relations of the predicate variables `pfree`."""

    def holds(m, *values):
        assert len(values) == len(free) + len(pfree), values
        return eval_formula(m, f, dict(zip(free, values)), dict(zip(pfree, values[len(free):])))

    return holds


# -- reference certificate depth ---------------------------------------------


def ref_find_acyclic(p, n):
    """The least longest path over the acyclic ways to pick one cover per
    resolvent, by backtracking over the product of every resolvent's covers,
    the definition the layering in `witness.find_acyclic` must agree with.
    None when every way has a cycle."""
    rows = []  # (partner, its covers)
    for c, _, covers in resolvent_covers(p, n):
        got = list(covers)
        if not got:
            raise ValueError("pointed clause is not purified in n")
        rows.append((c, got))
    if not rows:
        return 0
    best = None

    def longest(adj):
        memo = {}

        def depth(v):
            if v not in memo:
                memo[v] = 1 + max((depth(w) for w in adj.get(v, ())), default=-1)
            return memo[v]

        return max(depth(v) for v in adj)

    def reaches(adj, a, b):
        seen, stack = set(), [a]
        while stack:
            v = stack.pop()
            if v == b:
                return True
            if v in seen:
                continue
            seen.add(v)
            stack.extend(adj.get(v, ()))
        return False

    def go(i, edges):
        nonlocal best
        if best == 1:  # no certificate is shallower
            return
        adj = {}
        for a, b in edges:
            adj.setdefault(a, set()).add(b)
        if i == len(rows):
            best = longest(adj) if best is None else min(best, longest(adj))
            return
        src, covers = rows[i]
        for cover in covers:
            if cover == src or reaches(adj, cover, src):
                continue
            go(i + 1, edges | {(src, cover)})

    go(0, set())
    return best


# -- second witness oracle ----------------------------------------------------


def ackermann_witness(p, x):
    """When exactly one clause hosts x with a single negative occurrence over
    pairwise-distinct variable arguments and every other occurrence of x is
    positive, the direct substitution [x <- lambda u-bar. C] is a witness (dual
    for the flipped polarities).  Returns None when the pattern does not apply."""
    if x not in p.xvars:
        return None
    for wanted in (False, True):
        host = None
        ok = True
        for c in p.clauses:
            xlits = [l for l in c.lits if l.pvar and l.head == x]
            bad = [l for l in xlits if l.pos == wanted]
            if not bad:
                continue
            if host is not None or len(bad) > 1 or len(xlits) > 1:
                ok = False
                break
            host = c
        if not ok or host is None:
            continue
        xlit = next(l for l in host.lits if l.pvar and l.head == x)
        if not all(isinstance(t, Var) for t in xlit.args):
            continue
        if len({t.name for t in xlit.args}) != len(xlit.args):
            continue
        rest = [l for l in host.lits if l != xlit]
        if any(l.pvar and l.head == x for l in rest):
            continue
        params = tuple(t.name for t in xlit.args)
        extra = sorted(set().union(*[set(lit_vars(l)) for l in rest]) - set(params))
        body = forall(extra, for_(*[lit_to_formula(l) for l in rest]))
        if wanted:  # single positive occurrence: the least admissible relation
            body = FNot(body)
        return Witness({x: canonical_pred_expr(simplify_pred_expr(PredExpr(params, body)))}, ())
    return None


def ref_canonical_order(lits, name=lambda k: f"u{k}"):
    """The canonical literal tuple of `lits` as the string-keyed search
    computes it: deduplicate by hashing, sort by shape, and in each tie pick
    the least sequence of literal keys, comparing the names ``u0, u1, ...``
    as strings.  A test passes another `name` for the k-th variable named
    to see whether a case depends on that comparison."""
    lits = list(dict.fromkeys(_orient_eq(l) for l in lits))
    shapes = [_lit_shape(l) for l in lits]
    order = sorted(range(len(lits)), key=shapes.__getitem__)
    groups = []
    for i in order:
        if groups and shapes[groups[-1][-1]] == shapes[i]:
            groups[-1].append(i)
        else:
            groups.append([i])
    seq = order if len(groups) == len(lits) else _ref_least_order(lits, groups, name)
    ren = {}
    for i in seq:
        for v in lit_vars(lits[i]):
            if v not in ren:
                ren[v] = Var(f"u{len(ren)}")
    return tuple(subst_lit(lits[i], ren) for i in seq)


def _ref_least_order(lits, groups, name):
    occs = [tuple(lit_vars(l)) for l in lits]
    holders = {}  # variable -> bit set of the literals it occurs in
    for i, vs in enumerate(occs):
        for v in vs:
            holders[v] = holders.get(v, 0) | 1 << i
    pattern = []
    for i, vs in enumerate(occs):
        local = {}
        lone = all(holders[v] == 1 << i for v in vs)
        pattern.append(tuple(local.setdefault(v, len(local)) for v in vs) if lone else None)
    # (index sequence, names given so far, bit set of the literals used)
    partials = [((), {}, 0)]
    for group in groups:
        for _ in group:
            best = None
            kept = {}
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
                            named[v] = name(len(named))
                    key = tuple(map(named.__getitem__, occs[i]))
                    if best is not None and key > best:
                        continue
                    if best is None or key < best:
                        best, kept = key, {}
                    now_used = used | 1 << i
                    live = frozenset((v, n) for v, n in named.items() if holders[v] & ~now_used)
                    if (now_used, live) not in kept:
                        kept[now_used, live] = (seq + (i,), named, now_used)
            partials = list(kept.values())
    return partials[0][0]
