import os
import random

import pytest

import checkers
from tabsynth import calcfile, parser, specfile
from tabsynth import syntax as sx


def test_sort_of_ill_sorted(so_spec):
    sig = so_spec.signature
    l = sx.lvar(0, "l")
    p = sx.lvar(1, "p")
    with pytest.raises(sx.TabError, match="argument 1 of or has sort 0, expected 1"):
        sx.app(sig.conns["or"], [l, p])


def test_parse_rejects_ill_sorted(so_spec):
    with pytest.raises(parser.SpecSyntaxError):
        parser.parse_lexpr(so_spec.signature, "or(l0, p0)")


def test_interning_is_identity(so_spec):
    sig = so_spec.signature
    a = parser.parse_lexpr(sig, "exists(r0, or(p0, q0))")
    b = parser.parse_lexpr(sig, "exists(r0, or(p0, q0))")
    assert a is b
    # a literal is one node: sign, predicate and arguments read off it
    x = sx.dvar("x")
    lit = sx.atom(sx.nu(1), [a, x])
    assert (lit.pos, lit.pred, lit.args) == (True, sx.nu(1), (a, x))
    assert checkers.parse_formula(sig, "nu1(exists(r0, or(p0, q0)), x)") is lit
    neg = lit.negate()
    assert (neg.pos, neg.pred, neg.args) == (False, sx.nu(1), (a, x))
    assert neg.negate() is lit
    assert sx.literal(False, sx.nu(1), [a, x]) is neg
    assert sx.literal(True, sx.nu(1), (a, x)) is lit
    assert checkers.parse_rule_literal(sig, "not(nu1(exists(r0, or(p0, q0)), x))") \
        is neg
    assert neg.text() == "not(nu1(exists(r0, or(p0, q0)), x))"
    with pytest.raises(sx.TabError, match="first argument of nu1 must be a sort-1"):
        sx.literal(False, sx.nu(1), [x, a])


def test_substitute_expression(so_spec):
    sig = so_spec.signature
    f = checkers.parse_formula(sig, "nu1(exists(r, p), x)")
    p = sx.lvar(1, "p")
    pq = parser.parse_lexpr(sig, "or(p, q)")
    got = sx.substitute_formula(f, {p: pq})
    assert sx.formula_text(got) == "nu1(exists(r, or(p, q)), x)"


def test_substitute_empty_is_identity(so_spec):
    f = checkers.parse_formula(so_spec.signature, "nu1(exists(r, p), x)")
    assert sx.substitute_formula(f, {}) == f


def test_substitute_simultaneous(so_spec):
    sig = so_spec.signature
    f = checkers.parse_formula(sig, "nu1(or(p, q), x)")
    sub = {sx.lvar(1, "p"): parser.parse_lexpr(sig, "not(p)"),
           sx.lvar(1, "q"): parser.parse_lexpr(sig, "not(q)")}
    assert sx.formula_text(sx.substitute_formula(f, sub)) == \
        "nu1(or(not(p), not(q)), x)"


def test_substitute_sort_mismatch(so_spec):
    sig = so_spec.signature
    e = parser.parse_lexpr(sig, "or(p, q)")
    with pytest.raises(sx.TabError, match="cannot substitute sort-0 expression for p"):
        sx.substitute_expr(e, {sx.lvar(1, "p"): sx.lvar(0, "l")})


def test_substitution_preserves_sorts(so_spec):
    sig = so_spec.signature
    rng = random.Random(7)
    leaves1 = [parser.parse_lexpr(sig, t) for t in ("p", "q", "p0")]
    pool = list(leaves1)
    for _ in range(40):
        a, b = rng.choice(pool), rng.choice(pool)
        pool.append(sx.app(sig.conns["or"], [a, b]))
        pool.append(sx.app(sig.conns["not"], [a]))
    sub = {sx.lvar(1, "p"): rng.choice(pool), sx.lvar(1, "q"): rng.choice(pool)}
    for e in pool:
        assert sx.substitute_expr(e, sub).sort == e.sort


def test_substitute_compositional(so_spec):
    sig = so_spec.signature
    e = parser.parse_lexpr(sig, "or(p, not(q))")
    m1 = {sx.lvar(1, "p"): parser.parse_lexpr(sig, "p0")}
    m2 = {sx.lvar(1, "q"): parser.parse_lexpr(sig, "q0")}
    combined = {**m1, **m2}
    assert sx.substitute_expr(sx.substitute_expr(e, m1), m2) is \
        sx.substitute_expr(e, combined)


def test_l_open_sentence_free_domain_variable(so_spec):
    sig = so_spec.signature
    f = checkers.parse_formula(sig, "forall y. and(nu1(exists(r, p), y), nu2(r, x, y))")
    assert sx.free_dvars(f) == [sx.dvar("x")]


def test_l_open_sentence_all_bound(so_spec):
    sig = so_spec.signature
    f = checkers.parse_formula(
        sig, "forall y. and(nu1(exists(r, p), y), forall x. nu2(r, x, y))")
    assert sx.free_dvars(f) == []


def test_object_variable_quantification_rejected(so_spec):
    # quantifiers bind domain variables only; binding p is a parse error
    with pytest.raises(parser.SpecSyntaxError):
        checkers.parse_formula(so_spec.signature,
                               "forall p. forall y. nu1(exists(r, p), y)")


RESTRICT_SPEC = """
sorts 3
vars 0 l
vars 1 p q
vars 2 r
connective one 0 -> 1
connective not 1 -> 1
connective or 1 1 -> 1
connective conj 1 1 -> 1
connective exists 2 1 -> 1
define forall x. nu1(one(l), x) <-> eq(nu0(l), x)
define forall x. nu1(not(p), x) <-> not(nu1(p, x))
define forall x. nu1(or(p, q), x) <-> or(nu1(p, x), nu1(q, x))
define forall x. nu1(conj(p, q), x) <-> and(nu1(p, x), nu1(q, x))
define forall x. nu1(exists(r, p), x) <-> exists y. and(nu2(r, x, y), nu1(p, y))
"""


def test_restrict_keeps_only_in_carrier_instances():
    spec = specfile.parse_spec(RESTRICT_SPEC)
    sig = spec.signature
    s = [checkers.parse_formula(sig, "nu1(exists(r, p), y)"),
         checkers.parse_formula(sig, "nu1(not(p), x)")]
    x_set = [parser.parse_lexpr(sig, t)
             for t in ("r0", "p0", "p", "conj(p, p0)", "exists(r0, p0)")]
    got = sx.restrict(s, x_set)
    assert [sx.formula_text(f) for f in got] == ["nu1(exists(r0, p0), y)"]


def test_restrict_empty_carrier(so_spec):
    f = checkers.parse_formula(so_spec.signature, "nu1(not(p), x)")
    assert sx.restrict([f], []) == []


def test_restrict_empty_sentences():
    assert sx.restrict([], [sx.lvar(1, "p")]) == []


def test_restrict_members_stay_inside(so_spec):
    sig = so_spec.signature
    s = [checkers.parse_formula(sig, "nu1(or(p, q), x)")]
    x_set = [parser.parse_lexpr(sig, t) for t in ("p0", "q0", "or(p0, q0)")]
    for inst in sx.restrict(s, x_set):
        for e in sx.lexprs_of_formula(inst):
            assert e in x_set


def test_match_literal_one_way(so_spec):
    sig = so_spec.signature
    pat = checkers.parse_rule_literal(sig, "nu1(or(p, q), x)")
    data = checkers.parse_rule_literal(sig, "nu1(or(p0, q0), x)")
    # the branch side is never treated as a pattern, so its domain variable
    # must first be made ground for a match
    lit = sx.substitute_literal(data, {sx.dvar("x"): sx.dconst("a0")})
    binding = {}
    assert sx.match_literal(pat, lit, binding)
    assert binding[sx.lvar(1, "p")].text() == "p0"
    assert binding[sx.dvar("x")].name == "a0"
    assert not sx.match_literal(
        checkers.parse_rule_literal(sig, "nu1(exists(r, p), x)"), lit, {})


def test_compiled_substitution_looks_nodes_up_and_checks_misses(so_spec):
    """A denominator's generated function returns the very nodes
    ``substitute_literal`` gives, found in the intern table or made on a
    miss, and a miss keeps the sort checks of ``app`` and ``literal``."""
    sig = so_spec.signature
    den = (checkers.parse_rule_literal(sig, "nu1(or(p, not(q)), x)"),
           checkers.parse_rule_literal(sig, "not(nu2(r, x, y))"))
    instances = sx.compile_substitution(den)
    p, q, r = sx.lvar(1, "p"), sx.lvar(1, "q"), sx.lvar(2, "r")
    x, y = sx.dvar("x"), sx.dvar("y")
    p0, q0, r0 = (parser.parse_lexpr(sig, t) for t in ("p0", "q0", "r0"))
    a0, b0 = sx.dconst("a0"), sx.dconst("b0")

    def agree(binding):
        got = instances(binding)
        want = [sx.substitute_literal(l, binding) for l in den]
        assert len(got) == 2 and all(g is w for g, w in zip(got, want))

    hit = {p: p0, q: q0, r: r0, x: a0, y: b0}
    for l in den:
        sx.substitute_literal(l, hit)  # interns the instances
    agree(hit)
    fresh = sx.lconst(1, "p_compiled_substitution_miss")
    agree({p: fresh, q: fresh, r: r0, x: a0, y: sx.dconst("b_miss")})
    with pytest.raises(sx.TabError, match="argument 1 of or has sort 2"):
        instances({p: r0, q: q0, r: r0, x: a0, y: b0})
    with pytest.raises(sx.TabError, match="first argument of nu2 must be"):
        instances({p: p0, q: q0, r: p0, x: a0, y: b0})


def test_ten_thousand_deep_term_is_walked_without_recursion(so_spec):
    sig = so_spec.signature
    p, p0 = sx.lvar(1, "p"), parser.parse_lexpr(sig, "p0")
    e, e0 = p, p0
    for _ in range(10000):
        e = sx.app(sig.conns["not"], [e])
        e0 = sx.app(sig.conns["not"], [e0])
    assert e.text() == "not(" * 10000 + "p" + ")" * 10000
    assert sx.substitute_expr(e, {p: p0}) is e0
    binding = {}
    assert sx.match_expr(e, e0, binding) and binding == {p: p0}
    x, a0 = sx.dvar("x"), sx.dconst("a0")
    pattern = sx.atom(sx.nu(1), [e, x])
    binding = {}
    assert sx.match_literal(pattern, sx.atom(sx.nu(1), [e0, a0]),
                            binding) and binding == {p: p0, x: a0}
    assert sx.lvars(e) == [p]
    assert len(e.subexprs()) == 10001


def test_ten_thousand_deep_formula_is_walked_without_recursion(so_spec):
    sig = so_spec.signature
    x, p = sx.dvar("x"), sx.lvar(1, "p")
    a = checkers.parse_formula(sig, "nu1(p, x)")
    a0 = checkers.parse_formula(sig, "nu1(p0, a0)")
    f, f0 = a, a0
    for _ in range(10000):
        f = sx.formula("not", (f,))
        f0 = sx.formula("not", (f0,))
    assert sx.formula_text(f) == "not(" * 10000 + "nu1(p, x)" + ")" * 10000
    assert sum(1 for _ in sx.subformulas(f)) == 10001
    assert sx.free_dvars(f) == [x]
    sub = {p: parser.parse_lexpr(sig, "p0"), x: sx.dconst("a0")}
    assert sx.substitute_formula(f, sub) is f0
    assert sx.lvars(f) == [p] and sx.dvars(f) == [x]


_DUAL = {"and": "or", "or": "and", "forall": "exists", "exists": "forall"}


def _nnf(f, pos=True):
    """The recursive negation normal form ``sx.nnf`` replaced: the
    reference it must agree with, node for node."""
    if type(f) is sx.Literal:
        return f if pos else f.negate()
    op, subs = f.op, f.subs
    if op == "not":
        return _nnf(subs[0], not pos)
    if op == "implies":
        return _nnf(sx.formula("or", (sx.formula("not", subs[:1]), subs[1])),
                    pos)
    if op == "iff":
        l, r = subs
        both = sx.formula("and", (sx.formula("implies", (l, r)),
                                  sx.formula("implies", (r, l))))
        return _nnf(both, pos)
    return sx.formula(op if pos else _DUAL[op], [_nnf(s, pos) for s in subs],
                      f.var)


def _assert_nnf_is_the_reference(f):
    for pos in (True, False):
        got = sx.nnf(f, pos)
        assert got is _nnf(f, pos), (sx.formula_text(f), pos)
        assert all(type(g) is sx.Literal or g.op in _DUAL
                   for g in sx.subformulas(got))


@pytest.mark.parametrize("logic", ["so", "ipc"])
def test_nnf_matches_the_recursive_reference_on_the_presets(logic, request):
    ns = request.getfixturevalue(logic + "_ns")
    spec = ns.spec
    formulas = [f for d in spec.definitions for f in (d.body, d.sentence())]
    formulas += spec.axioms + ns.sb
    formulas += [f for xi in spec.directed + ns.s_plus + ns.s_minus
                 for f in (xi.body, xi.sentence())]
    assert formulas
    for f in formulas:
        _assert_nnf_is_the_reference(f)


def test_nnf_matches_the_recursive_reference_on_random_formulas():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    x, y, p = sx.dvar("x"), sx.dvar("y"), sx.lvar(1, "p")
    leaves = st.sampled_from([
        sx.atom(sx.nu(1), [p, x]), sx.atom(sx.nu(1), [p, y]),
        sx.atom(sx.pred("R"), [x, y]), sx.atom(sx.EQ, [x, y]), sx.FALSE,
        sx.literal(False, sx.pred("R"), [y, x])])

    def compounds(kids):
        return st.one_of(
            kids.map(lambda a: sx.formula("not", (a,))),
            st.tuples(st.sampled_from(["implies", "iff"]), kids, kids).map(
                lambda t: sx.formula(t[0], t[1:])),
            st.tuples(st.sampled_from(["and", "or"]),
                      st.lists(kids, min_size=1, max_size=3)).map(
                lambda t: sx.formula(*t)),
            st.tuples(st.sampled_from(["forall", "exists"]),
                      st.sampled_from([x, y]), kids).map(
                lambda t: sx.formula(t[0], (t[2],), t[1])))

    @hypothesis.settings(max_examples=200, derandomize=True, deadline=None)
    @hypothesis.given(st.recursive(leaves, compounds, max_leaves=12))
    def check(f):
        _assert_nnf_is_the_reference(f)

    check()


def test_nnf_of_a_ten_thousand_deep_negation_needs_no_recursion():
    a = sx.atom(sx.nu(1), [sx.lvar(1, "p"), sx.dvar("x")])
    f = a
    for _ in range(10000):
        f = sx.formula("not", (f,))
    with pytest.raises(RecursionError):
        _nnf(f)
    assert sx.nnf(f) is a and sx.nnf(f, False) is a.negate()
    g = sx.formula("not", (f,))
    assert sx.nnf(g) is a.negate() and sx.nnf(g, False) is a


def test_symbols_are_interned():
    assert sx.Conn("one", (0,), 1) is sx.Conn("one", (0,), 1)
    assert sx.Conn("one", [0], 1) is sx.Conn("one", (0,), 1)
    assert sx.Conn("one", (0,), 1) is not sx.Conn("one", (1,), 1)
    assert sx.FnSym("nu0", (0,), 0) is sx.NU0
    # the calculus header and its ctx block read their connectives apart
    golden = os.path.join(os.path.dirname(__file__), "golden", "so_refined.calc")
    with open(golden, encoding="utf-8") as fh:
        calc = calcfile.parse_calculus(fh.read())
    colon, fex = calc.ctx.new_conns
    assert colon is calc.signature.conns["colon"]
    assert fex is calc.signature.conns["fex"] is calc.ctx.fn_conns["sk_exists_0"]
