"""Terms, literals, clause canonicalization, and formula printing."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from wscan.logic import (
    App,
    Clause,
    FAll,
    FAnd,
    FAtom,
    FEx,
    FFalse,
    FGfp,
    FIff,
    FNot,
    FOr,
    Lit,
    PredExpr,
    Var,
    apply_pred_subst,
    apply_pred_subst_clause,
    canonical_pred_expr,
    _lit_kind,
    _lit_shape,
    _orient_eq,
    const,
    formula_free_pvars,
    formula_free_vars,
    formula_size,
    formula_str,
    fresh_name,
    lit_size,
    lit_str,
    lit_vars,
    mgu,
    pred_expr_str,
    rename_clause_apart,
    simplify,
    subst_formula,
    subst_lit,
    subst_term,
    term_str,
    term_vars,
)
from wscan.problems import parse_formula
from wscan.verify import model_count, signature_of

from conftest import cl, match_terms, ref_eval_formula, ref_eval_term, ref_models, ref_simplify
from test_verify import random_formula

a, b, c = const("a"), const("b"), const("c")
u, v = Var("u"), Var("v")


def f(*args):
    return App("f", args)


def g(*args):
    return App("g", args)


def test_mgu_basic():
    assert mgu([(u, a)]) == {"u": a}
    assert mgu([(f(u), f(a))]) == {"u": a}
    assert mgu([(f(u), g(a))]) is None
    assert mgu([(u, f(u))]) is None  # occurs check
    s = mgu([(f(u, v), f(v, a))])
    assert subst_term(f(u, v), s) == subst_term(f(v, a), s)


def test_mgu_is_idempotent_on_chain():
    s = mgu([(u, v), (v, a)])
    assert subst_term(u, s) == a
    assert subst_term(v, s) == a


def test_match_is_one_way():
    assert match_terms((u,), (f(a),), {}) == {"u": f(a)}
    assert match_terms((f(a),), (u,), {}) is None
    assert match_terms((u, u), (a, b), {}) is None


@given(st.integers(0, 3))
def test_fresh_vars_are_distinct(n):
    # the first names of the prefix that are not taken, each added as it goes
    taken = {"v1", "w0"}
    vs = [fresh_name("v", taken) for _ in range(n)]
    assert vs == ["v0", "v2", "v3"][:n]
    assert taken == {"v1", "w0", *vs}


def test_clause_canonical_order():
    c1 = cl("X(?u) | B(?u) | ~X(?u) | a != b")
    kinds = [(l.is_eq, l.pvar) for l in c1.lits]
    # constraints first, then plain symbols, then the second-order literals
    assert kinds == [(True, False), (False, False), (False, True), (False, True)]
    neg_x, pos_x = c1.lits[2], c1.lits[3]
    assert not neg_x.pos and pos_x.pos


def test_clause_deduplicates():
    c1 = Clause.make([Lit(True, "B", (a,), False), Lit(True, "B", (a,), False)])
    assert len(c1.lits) == 1


def test_clause_renames_variables_canonically():
    c1 = cl("B(?x, ?y)")
    c2 = cl("B(?p, ?q)")
    assert c1 == c2 and hash(c1) == hash(c2)
    assert [t.name for t in c1.lits[0].args] == ["u0", "u1"]
    # the hash and the subsumption features are cached in the instance; a
    # clause stays a dict and set key that its renamed copy finds
    c1.lits_by_kind, c1.lits_by_arg, c1.fn_symbols
    assert hash(c1) == hash(c2) == hash(Clause(c2.lits))
    assert {c1: 1}[c2] == 1 and c2 in frozenset([c1])
    assert {c1, c2, cl("B(?y, ?x)")} == {c1}
    assert cl("B(?x, ?x)") not in {c1}


def test_equality_argument_orientation():
    # variables sort before compound terms; ground arguments keep name order
    c1 = cl("f(?u) != ?u")
    l = c1.lits[0]
    assert isinstance(l.args[0], Var)
    c2 = cl("c != a")
    assert term_str(c2.lits[0].args[0]) == "a"


def _term_key(t):
    if isinstance(t, Var):
        return (0, t.name, ())
    return (1, t.fn, tuple(_term_key(a) for a in t.args))


def _lit_key(l):
    """The key that orders literals of one shape in the canonical form."""
    return (_lit_kind(l), l.head, l.pos, tuple(_term_key(t) for t in l.args))


def brute_force_order(lits):
    """Reference for the canonical order: list every order that keeps the
    shape groups, rename each by first occurrence, and keep the least
    `_lit_key` sequence, the first in input-index order on ties.  Returns the
    renamed literals in that order."""
    order = sorted(range(len(lits)), key=lambda i: _lit_shape(lits[i]))
    groups = [list(g) for _, g in itertools.groupby(order, key=lambda i: _lit_shape(lits[i]))]
    best = None
    for combo in itertools.product(*map(itertools.permutations, groups)):
        seq = [i for g in combo for i in g]
        ren = {}
        for i in seq:
            for x in lit_vars(lits[i]):
                ren.setdefault(x, Var(f"u{len(ren)}"))
        out = tuple(subst_lit(lits[i], ren) for i in seq)
        key = [_lit_key(l) for l in out]
        if best is None or key < best[0]:
            best = (key, out)
    return best[1]


_VARS = st.sampled_from([Var("x"), Var("y"), Var("z"), Var("w")])
_TERMS = st.one_of(_VARS, st.sampled_from([a, b]), _VARS.map(f))
_LITS = st.one_of(
    st.builds(lambda p, s, t: Lit(p, "E", (s, t), False), st.booleans(), _VARS, _VARS),
    st.builds(lambda s, t: Lit(False, "=", (s, t), False), _TERMS, _TERMS),
    st.builds(lambda p, s: Lit(p, "X", (s,), True), st.booleans(), _TERMS),
    st.builds(lambda s: Lit(True, "P", (s,), False), _TERMS),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(_LITS, min_size=1, max_size=7))
def test_canonical_form_matches_the_permutation_search(lits):
    uniq = list(dict.fromkeys(_orient_eq(l) for l in lits))
    assert Clause.make(lits).lits == brute_force_order(uniq)


def test_a_long_chain_from_a_resolution_closure_keeps_its_canonical_form():
    # a 22-literal clause of the p01_d2 resolution-mode closure, as `lres`
    # builds it; its 20 `B` literals share one shape, so `_least_order`
    # picks their order, and the canonical text is pinned against any
    # rewrite of that search
    built = (
        "?u0 != ?u9 | B(?u0,?u1) | X(?u1) | B(?v0,?v1) | B(?v1,?u2) | B(?u2,?u3) | B(?u3,?u4) "
        "| B(?u4,?u5) | B(?u5,?u6) | B(?u6,?u7) | B(?u7,?u8) | B(?u8,?u9) | B(?u10,?v0) "
        "| B(?u11,?u10) | B(?u12,?u11) | B(?u13,?u12) | B(?u14,?u13) | B(?u15,?u14) "
        "| B(?u16,?u15) | B(?u17,?u16) | B(?u18,?u17) | B(c0,?u18)"
    )
    assert str(cl(built)) == (
        "?u0 != ?u1 | B(?u0,?u2) | B(?u3,?u1) | B(?u4,?u3) | B(?u5,?u4) | B(?u6,?u5) "
        "| B(?u7,?u6) | B(?u8,?u7) | B(?u9,?u10) | B(?u10,?u11) | B(?u11,?u12) | B(?u12,?u13) "
        "| B(?u13,?u14) | B(?u14,?u15) | B(?u15,?u16) | B(?u16,?u17) | B(?u17,?u18) "
        "| B(?u18,?u19) | B(?u19,?u20) | B(?u20,?u8) | B(c0,?u9) | X(?u2)"
    )


def _shuffled_renamed(rng, lits):
    lits = list(lits)
    rng.shuffle(lits)
    names = sorted({x for l in lits for x in lit_vars(l)})
    ren = {x: Var(f"y{k}") for k, x in enumerate(rng.sample(names, len(names)))}
    return [subst_lit(l, ren) for l in lits]


def _one_form(rng, lits):
    forms = {Clause.make(_shuffled_renamed(rng, lits)) for _ in range(5)}
    assert len(forms) == 1


@pytest.mark.parametrize(
    "atoms",
    [
        [("P", (i,)) for i in range(8)],
        [("E", (i, i + 1)) for i in range(12)],
        [("E", (i, (i + 1) % 12)) for i in range(12)],
    ],
    ids=["8-disjoint-P", "12-edge-path", "12-edge-cycle"],
)
def test_canonical_form_is_invariant_on_symmetric_clauses(atoms):
    lits = [Lit(True, head, tuple(Var(f"x{i}") for i in args), False) for head, args in atoms]
    _one_form(random.Random(0), lits)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_canonical_form_is_invariant_at_every_size(n):
    # 12-16 literals, 8 or more of them of the one shape E(?_, ?_)
    rng = random.Random(n)
    xs = [Var(f"x{i}") for i in range(rng.randrange(4, 10))]
    lits = set()
    while len(lits) < 8:
        lits.add(Lit(True, "E", tuple(rng.sample(xs, 2)), False))
    size = rng.randrange(12, 17)
    while len(lits) < size:
        lits.add(
            rng.choice(
                [
                    Lit(True, "E", (rng.choice(xs), rng.choice(xs)), False),
                    Lit(rng.random() < 0.5, "P", (rng.choice(xs),), False),
                    Lit(False, "=", (rng.choice(xs), f(rng.choice(xs))), False),
                    Lit(rng.random() < 0.5, "X", (rng.choice(xs),), True),
                ]
            )
        )
    _one_form(rng, sorted(lits, key=str))


def test_rename_apart_preserves_literal_positions():
    c1 = cl("B(?u) | X(f(?u)) | ~X(?u)")
    r = rename_clause_apart(c1, avoid={"u0"})
    assert len(r.lits) == len(c1.lits)
    for old, new in zip(c1.lits, r.lits):
        assert old.pos == new.pos and old.head == new.head
    names = {t.name for l in r.lits for t in l.args if isinstance(t, Var)}
    assert "u0" not in names


def test_rename_apart_avoids_the_clauses_own_variables():
    # a clause that is not canonical may already use the renamer's names:
    # u0 must not become v0, which would merge the two variables
    c1 = Clause((Lit(True, "B", (Var("u0"), Var("v0"))),))
    r = rename_clause_apart(c1, avoid={"u0"})
    (new, kept) = r.lits[0].args
    assert kept == Var("v0") and new not in (Var("u0"), Var("v0"))


def test_lit_size_ignores_equality_head():
    assert lit_size(Lit(False, "=", (a, b), False)) == 2
    assert lit_size(Lit(True, "B", (f(a),), False)) == 3


def test_lit_str_forms():
    assert lit_str(Lit(False, "=", (a, c), False)) == "a != c"
    assert lit_str(Lit(False, "X", (Var("u0"),), True)) == "~X(?u0)"


def test_formula_str_precedence():
    from wscan.logic import FAnd, FOr

    ba = FAtom("B", (a,))
    cb = FAtom("B", (b,))
    dc = FAtom("B", (c,))
    assert formula_str(FOr((FAnd((ba, cb)), dc))) == "B(a) /\\ B(b) \\/ B(c)"
    assert formula_str(FAnd((FOr((ba, cb)), dc))) == "(B(a) \\/ B(b)) /\\ B(c)"
    assert formula_str(FNot(FAnd((ba, cb)))) == "~(B(a) /\\ B(b))"
    # equality atoms always take parentheses so the infix never dangles
    eq = FAtom("=", (a, b))
    assert formula_str(FAnd((eq, dc))) == "(a = b) /\\ B(c)"


@pytest.mark.parametrize(
    "expr,expected",
    [
        (PredExpr(("u",), FAtom("=", (a, Var("u")))), "lambda u. (a = ?u)"),
        (PredExpr((), FAtom("B", (a,))), "lambda _. B(a)"),
    ],
)
def test_pred_expr_str(expr, expected):
    assert pred_expr_str(expr) == expected


@pytest.mark.parametrize(
    "text,expected",
    [
        ("B(a) -> C(a, b)", "B(a) -> C(a,b)"),
        ("true -> B(a)", "B(a)"),
        ("(a = a) -> B(a)", "B(a)"),
        ("false -> B(a)", "true"),
        ("B(a) -> true", "true"),
        ("B(a) -> false", "~B(a)"),
        ("~(B(a) -> B(b))", "B(a) /\\ ~B(b)"),
        ("B(a) -> B(b) -> B(c)", "B(a) -> B(b) -> B(c)"),
        ("(B(a) -> B(b)) -> B(c)", "(B(a) -> B(b)) -> B(c)"),
        ("(B(a) -> B(b)) \\/ B(c)", "(B(a) -> B(b)) \\/ B(c)"),
        ("B(a) <-> B(b) /\\ B(c)", "B(a) <-> B(b) /\\ B(c)"),
        ("(B(a) <-> B(b)) <-> B(c)", "(B(a) <-> B(b)) <-> B(c)"),
        ("B(a) -> (B(b) <-> B(c))", "B(a) -> (B(b) <-> B(c))"),
        ("forall u. B(u) -> B(f(u))", "forall u. B(?u) -> B(f(?u))"),
    ],
)
def test_implications_simplify_and_print(text, expected):
    """An implication or equivalence read from text simplifies by its
    constant sides and prints with the fewest parentheses that parse back."""
    got = simplify(parse_formula(text))
    assert formula_str(got) == expected
    assert parse_formula(formula_str(got)) == got


def test_simplify_drops_constants():
    from wscan.logic import FAnd, FOr, FTrue, FFalse

    fm = FAnd((FTrue(), FAtom("B", (a,))))
    s = simplify(fm)
    assert s == FAtom("B", (a,))
    fm2 = FOr((FFalse(), FFalse()))
    assert simplify(fm2) == FFalse()


def test_simplify_is_the_fixpoint_of_the_rewriting_pass_in_one_pass():
    """Pushing a negation inward builds a node from simplified parts, so
    simplifying that node again is all a second pass would do."""
    rng = random.Random(2626)
    for k in range(3000):
        fm = random_formula(rng, 1 + k % 6, ["w"], ["P"])
        got = simplify(fm)
        assert got == ref_simplify(fm), fm
        assert simplify(got) == got, fm


def test_apply_pred_subst_clause():
    w = {"X": PredExpr(("z",), FAtom("=", (a, Var("z"))))}
    c1 = cl("~X(c) | B(c)")
    fm = simplify(apply_pred_subst_clause(c1, w))
    text = formula_str(fm)
    assert "B(c)" in text and "a" in text and "c" in text


def test_pred_expr_arity_mismatch_prints_its_terms_as_wscan_text():
    expr = PredExpr(("z",), FAtom("B", (Var("z"),)))
    with pytest.raises(ValueError) as e:
        expr.apply((a, App("f", (u,))))
    assert str(e.value) == "arity mismatch applying lambda z. B(?z) to (a,f(?u))"


def test_formula_size_counts_connectives():
    fm = FAll("u", FIff(FAtom("B", (u,)), FAtom("C", (u, u))))
    # forall+bound var(2) + iff(1) + B-atom(1+1) + C-atom(1+2) = 8
    assert formula_size(fm) == 8


def _pv(head, *args):
    return FAtom(head, args, True)


def test_subst_formula_renames_a_clashing_binder():
    # u := ?v under "forall v" must not capture: the binder is renamed
    got = subst_formula(FAll("v", FAtom("B", (u, v))), {"u": v})
    assert isinstance(got, FAll) and got.var not in ("u", "v")
    assert got.sub == FAtom("B", (v, Var(got.var)))
    assert formula_free_vars(got) == {"v"}
    # the same for a gfp parameter; the gfp arguments are substituted as usual
    gfp = FGfp("Y", ("p", "q"), FAnd((_pv("Y", Var("p"), Var("q")), FAtom("B", (Var("p"), u)))), (u, a))
    got = subst_formula(gfp, {"u": Var("p")})
    (p2, q2) = got.params
    assert p2 not in ("p", "q", "u") and q2 == "q"
    assert got.args == (Var("p"), a)
    assert got.body == FAnd((_pv("Y", Var(p2), Var("q")), FAtom("B", (Var(p2), Var("p")))))


def test_a_renamed_binder_does_not_capture_a_free_variable_of_its_body():
    # y := ?u0 under "exists u0" renames the binder; the new name may be
    # neither u0 (the substituted term) nor v5 (free in the body), whatever
    # names were made before
    body = FAnd((FAtom("B", (Var("u0"), Var("y"))), FAtom("C", (Var("v5"),))))
    got = subst_formula(FEx("u0", body), {"y": Var("u0")})
    assert isinstance(got, FEx) and got.var not in ("u0", "v5")
    n = Var(got.var)
    assert got.sub == FAnd((FAtom("B", (n, Var("u0"))), FAtom("C", (Var("v5"),))))
    assert formula_free_vars(got) == {"u0", "v5"}


def test_a_renamed_gfp_parameter_avoids_the_free_variables_and_parameters_in_its_body():
    # p clashes with the substituted ?p; its new name may not be the other
    # parameter v0 or the free v1.  The nested gfp keeps its own parameter
    # bound whatever name p gets.
    nested = FGfp("Z", ("v2",), _pv("Z", Var("v2")), (Var("p"),))
    body = FAnd((_pv("Y", Var("p"), Var("v0")), FAtom("B", (Var("v1"), u)), nested))
    got = subst_formula(FGfp("Y", ("p", "v0"), body, (a, b)), {"u": Var("p")})
    (p2, q2) = got.params
    assert q2 == "v0" and p2 not in ("p", "u", "v0", "v1")
    assert formula_free_vars(got) == {"p", "v1"}
    z = got.body.subs[2]
    assert z.args == (Var(p2),) and z.body == _pv("Z", Var(z.params[0]))


def test_a_renamed_binder_is_not_named_after_a_key_of_the_substitution():
    # X := lambda y. exists u0. exists v0. (B(u0, v0, y) /\ exists v1. C(v1))
    # applied to ?u0: renaming v0 reaches "exists v1" with the substitution
    # v0 := ?v1, so that binder may not become v0, which the substitution
    # would then replace, and C's argument must stay bound by its own binder
    inner = FAnd((FAtom("B", (Var("u0"), Var("v0"), Var("y"))), FEx("v1", FAtom("C", (Var("v1"),)))))
    got = subst_formula(FEx("u0", FEx("v0", inner)), {"y": Var("u0")})
    assert formula_free_vars(got) == {"u0"}
    x, y = got.var, got.sub.var
    assert len({x, y, "u0"}) == 3
    (bxy, cz) = got.sub.sub.subs
    assert bxy == FAtom("B", (Var(x), Var(y), Var("u0")))
    assert cz.var not in (x, y) and cz.sub == FAtom("C", (Var(cz.var),))
    # the same for a gfp parameter: p := ?w with w := ?p and v0 := a
    gfp = FGfp("Y", ("p",), FAnd((_pv("Y", Var("p")), FAtom("B", (Var("p"), Var("w"))))), (b,))
    got = subst_formula(gfp, {"w": Var("p"), "v0": a})
    (p2,) = got.params
    assert p2 not in ("p", "w", "v0")
    assert got.body == FAnd((_pv("Y", Var(p2)), FAtom("B", (Var(p2), Var("p")))))


def test_free_names_respect_gfp_binders():
    body = FAnd((_pv("Y", Var("p")), _pv("X", Var("w")), FEx("e", FAtom("B", (Var("p"), Var("e"))))))
    gfp = FGfp("Y", ("p",), body, (Var("t"),))
    assert formula_free_vars(gfp) == {"w", "t"}
    assert formula_free_pvars(gfp) == {"X"}
    # outside the gfp the same names are free
    outside = FAnd((gfp, _pv("Y", Var("p"))))
    assert formula_free_vars(outside) == {"w", "t", "p"}
    assert formula_free_pvars(outside) == {"X", "Y"}


def test_apply_pred_subst_leaves_a_gfp_bound_variable_alone():
    gfp = FGfp("Y", ("p",), FAnd((_pv("Y", Var("p")), _pv("X", Var("p")))), (a,))
    ps = {
        "Y": PredExpr(("z",), FFalse()),
        "X": PredExpr(("z",), FAtom("B", (Var("z"),))),
    }
    got = apply_pred_subst(FOr((gfp, _pv("Y", b))), ps)
    want_gfp = FGfp("Y", ("p",), FAnd((_pv("Y", Var("p")), FAtom("B", (Var("p"),)))), (a,))
    assert got == FOr((want_gfp, FFalse()))


def test_canonical_pred_expr_numbers_a_nested_gfp():
    inner = FGfp("Yb", ("r", "s"), FAnd((_pv("Yb", Var("s"), Var("r")), _pv("Ya", Var("q")))), (Var("q"), Var("x")))
    outer = FGfp("Ya", ("q",), FAnd((FEx("x", FAtom("B", (Var("x"),))), FAll("q", inner))), (Var("x"),))
    got = canonical_pred_expr(PredExpr(("x",), outer))
    want_inner = FGfp(
        "Y1", ("u4", "u5"), FAnd((_pv("Y1", Var("u5"), Var("u4")), _pv("Y0", Var("u3")))), (Var("u3"), Var("u0"))
    )
    want = FGfp("Y0", ("u1",), FAnd((FEx("u2", FAtom("B", (Var("u2"),))), FAll("u3", want_inner))), (Var("u0"),))
    assert got == PredExpr(("u0",), want)
    assert canonical_pred_expr(got) == got


def test_substitution_lemma_on_random_formulas():
    """f under s means f under the environment updated by s: no binder
    captures a variable of s's terms or takes a name that s would replace.
    The substituted terms name the formulas' bound u and v, and s also
    replaces v0, the first name a renamed binder would take.  Renaming
    every binder canonically keeps the meaning of lambda w. f as well."""
    rng = random.Random(2305)
    terms = [u, v, f(u), f(v), f(Var("w"))]
    formulas = compared = 0
    while formulas < 40:
        fm = random_formula(rng, 3, ["w"], ["P"])
        s = {"w": rng.choice(terms), "v0": b}
        got = subst_formula(fm, s)
        canon = canonical_pred_expr(PredExpr(("w",), fm))
        sig = signature_of(formulas=[fm, got])
        for t in s.values():
            sig.add_term(t)
        sig.pvars.clear()
        if model_count(sig, 2) > 256:
            continue
        formulas += 1
        names = sorted({"w", *formula_free_vars(got), *(x for t in s.values() for x in term_vars(t))})
        for n in (1, 2):
            subsets = [frozenset(x) for r in range(n + 1)
                       for x in itertools.combinations([(e,) for e in range(n)], r)]
            for m in ref_models(sig, n):
                for vals in itertools.product(range(n), repeat=len(names)):
                    env = dict(zip(names, vals))
                    moved = {**env, **{x: ref_eval_term(m, t, env) for x, t in s.items()}}
                    lam = {canon.params[0]: env["w"]}
                    for p in subsets:
                        penv = {"P": p}
                        want = ref_eval_formula(m, fm, moved, penv)
                        assert ref_eval_formula(m, got, env, penv) == want, (fm, s, got, m.describe(), env)
                        assert ref_eval_formula(m, canon.body, lam, penv) == ref_eval_formula(m, fm, env, penv)
                        compared += 1
    assert compared > 30_000
