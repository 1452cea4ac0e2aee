import random

import pytest

from tabsynth import parser, specfile
from tabsynth import syntax as sx


def test_sort_of_ill_sorted(so_spec):
    sig = so_spec.signature
    l = sx.lvar(0, "l")
    p = sx.lvar(1, "p")
    with pytest.raises(sx.IllSorted):
        sx.app(sig.conns["or"], [l, p])


def test_parse_rejects_ill_sorted(so_spec):
    with pytest.raises(parser.SpecSyntaxError):
        parser.parse_lexpr(so_spec.signature, "or(l0, p0)")


def test_interning_is_identity(so_spec):
    sig = so_spec.signature
    a = parser.parse_lexpr(sig, "exists(r0, or(p0, q0))")
    b = parser.parse_lexpr(sig, "exists(r0, or(p0, q0))")
    assert a is b


def test_substitute_expression(so_spec):
    sig = so_spec.signature
    f = parser.parse_formula(sig, "nu1(exists(r, p), x)")
    p = sx.lvar(1, "p")
    pq = parser.parse_lexpr(sig, "or(p, q)")
    got = sx.substitute_formula(f, {p: pq})
    assert sx.formula_text(got) == "nu1(exists(r, or(p, q)), x)"


def test_substitute_empty_is_identity(so_spec):
    f = parser.parse_formula(so_spec.signature, "nu1(exists(r, p), x)")
    assert sx.substitute_formula(f, {}) == f


def test_substitute_simultaneous(so_spec):
    sig = so_spec.signature
    f = parser.parse_formula(sig, "nu1(or(p, q), x)")
    sub = {sx.lvar(1, "p"): parser.parse_lexpr(sig, "not(p)"),
           sx.lvar(1, "q"): parser.parse_lexpr(sig, "not(q)")}
    assert sx.formula_text(sx.substitute_formula(f, sub)) == \
        "nu1(or(not(p), not(q)), x)"


def test_substitute_sort_mismatch(so_spec):
    sig = so_spec.signature
    e = parser.parse_lexpr(sig, "or(p, q)")
    with pytest.raises(sx.SortMismatch):
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
    f = parser.parse_formula(sig, "forall y. and(nu1(exists(r, p), y), nu2(r, x, y))")
    assert sx.free_dvars(f) == [sx.dvar("x")]


def test_l_open_sentence_all_bound(so_spec):
    sig = so_spec.signature
    f = parser.parse_formula(
        sig, "forall y. and(nu1(exists(r, p), y), forall x. nu2(r, x, y))")
    assert sx.free_dvars(f) == []


def test_object_variable_quantification_rejected(so_spec):
    # quantifiers bind domain variables only; binding p is a parse error
    with pytest.raises(parser.SpecSyntaxError):
        parser.parse_formula(so_spec.signature,
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
    s = [parser.parse_formula(sig, "nu1(exists(r, p), y)"),
         parser.parse_formula(sig, "nu1(not(p), x)")]
    x_set = [parser.parse_lexpr(sig, t)
             for t in ("r0", "p0", "p", "conj(p, p0)", "exists(r0, p0)")]
    got = sx.restrict(s, x_set)
    assert [sx.formula_text(f) for f in got] == ["nu1(exists(r0, p0), y)"]


def test_restrict_empty_carrier(so_spec):
    f = parser.parse_formula(so_spec.signature, "nu1(not(p), x)")
    assert sx.restrict([f], []) == []


def test_restrict_empty_sentences():
    assert sx.restrict([], [sx.lvar(1, "p")]) == []


def test_restrict_members_stay_inside(so_spec):
    sig = so_spec.signature
    s = [parser.parse_formula(sig, "nu1(or(p, q), x)")]
    x_set = [parser.parse_lexpr(sig, t) for t in ("p0", "q0", "or(p0, q0)")]
    for inst in sx.restrict(s, x_set):
        for e in sx.lexprs_of_formula(inst):
            assert e in x_set


def test_match_literal_one_way(so_spec):
    sig = so_spec.signature
    pat = parser.parse_rule_literal(sig, "nu1(or(p, q), x)")
    data = parser.parse_rule_literal(sig, "nu1(or(p0, q0), x)")
    # the branch side is never treated as a pattern, so its domain variable
    # must first be made ground for a match
    lit = sx.substitute_literal(data, {sx.dvar("x"): sx.dconst("a0")})
    binding = {}
    assert sx.match_literal(pat, lit, binding)
    assert binding[sx.lvar(1, "p")].text() == "p0"
    assert binding[sx.dvar("x")].name == "a0"
    assert not sx.match_literal(
        parser.parse_rule_literal(sig, "nu1(exists(r, p), x)"), lit, {})


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
    assert sx.lvars(e) == [p]
    assert len(e.subexprs()) == 10001


def test_ten_thousand_deep_formula_is_walked_without_recursion(so_spec):
    sig = so_spec.signature
    x, p = sx.dvar("x"), sx.lvar(1, "p")
    a = parser.parse_formula(sig, "nu1(p, x)")
    a0 = parser.parse_formula(sig, "nu1(p0, a0)")
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
