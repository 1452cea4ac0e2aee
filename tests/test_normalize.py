import itertools

import pytest

from tabsynth import models, normalize, parser, specfile
from tabsynth import syntax as sx


def test_so_split_shapes(so_ns):
    plus = [sx.formula_text(xi.sentence()) for xi in so_ns.s_plus]
    assert plus == [
        "forall x. implies(nu1(one(l), x), eq(nu0(l), x))",
        "forall x. implies(nu1(not(p), x), not(nu1(p, x)))",
        "forall x. implies(nu1(or(p, q), x), or(nu1(p, x), nu1(q, x)))",
        "forall x. implies(nu1(exists(r, p), x), "
        "exists y. and(nu2(r, x, y), nu1(p, y)))",
    ]
    minus = [sx.formula_text(xi.sentence()) for xi in so_ns.s_minus]
    assert minus[2] == \
        "forall x. implies(or(nu1(p, x), nu1(q, x)), nu1(or(p, q), x))"


def test_background_passes_through(so_ns, so_spec):
    assert so_ns.sb == so_spec.axioms


def test_presplit_identity_up_to_merging():
    text = specfile.preset_text("so") + (
        "define+ forall x. nu1(exists(r, exists(r, p)), x) -> "
        "nu1(exists(r, p), x)\n")
    ns = normalize.normalize(specfile.parse_spec(text))
    assert len(ns.s_plus) == 5
    assert not ns.s_plus[-1].definitional
    assert ns.s_plus[-1].head_expr.text() == "exists(r, exists(r, p))"


def test_merging_conjoins_and_disjoins():
    text = specfile.preset_text("so") + (
        "define+ forall x. nu1(exists(r, p), x) -> nu1(p, x)\n"
        "define- forall x. nu1(p, x) -> nu1(exists(r, p), x)\n")
    ns = normalize.normalize(specfile.parse_spec(text))
    plus = [xi for xi in ns.s_plus if xi.head_expr.text() == "exists(r, p)"]
    minus = [xi for xi in ns.s_minus if xi.head_expr.text() == "exists(r, p)"]
    assert len(plus) == 1 and len(minus) == 1
    assert plus[0].body.op == "and"
    assert minus[0].body.op == "or"


def test_non_atomic_background_rejected():
    text = specfile.preset_text("so") + \
        "axiom forall x. implies(nu1(or(p, q), x), nu1(p, x))\n"
    with pytest.raises(sx.TabError, match=r"compound expression or\(p, q\)"):
        normalize.normalize(specfile.parse_spec(text))


def test_extra_body_variable_rejected():
    text = specfile.preset_text("so") + \
        "define+ forall x. nu1(not(p), x) -> nu1(q, x)\n"
    with pytest.raises(sx.TabError):
        normalize.normalize(specfile.parse_spec(text))


# -- induced ordering --------------------------------------------------------

def test_so_ordering_is_direct_subexpression(so_ns):
    pairs = {(h.text(), o.text())
             for h, o in normalize.induced_ordering(so_ns).pairs}
    assert pairs == {("one(l)", "l"), ("not(p)", "p"), ("or(p, q)", "p"),
                     ("or(p, q)", "q"), ("exists(r, p)", "r"),
                     ("exists(r, p)", "p")}


def test_ipc_ordering_is_direct_subexpression(ipc_ns):
    pairs = {(h.text(), o.text())
             for h, o in normalize.induced_ordering(ipc_ns).pairs}
    assert pairs == {("and(p, q)", "p"), ("and(p, q)", "q"),
                     ("or(p, q)", "p"), ("or(p, q)", "q"),
                     ("impl(p, q)", "p"), ("impl(p, q)", "q")}


def test_sub_closure(so_ns):
    sig = so_ns.signature
    ordering = normalize.induced_ordering(so_ns)
    c = parser.parse_lexpr(sig, "exists(r0, or(p0, not(q0)))")
    got = {e.text() for e in ordering.sub_closure([c])}
    assert got == {"exists(r0, or(p0, not(q0)))", "r0", "or(p0, not(q0))",
                   "p0", "not(q0)", "q0"}


def test_well_founded_presets(so_ns, ipc_ns):
    for ns in (so_ns, ipc_ns):
        verdict = normalize.check_well_founded(normalize.induced_ordering(ns))
        assert verdict.kind == "proved"


def test_well_founded_proper_subexpression_head():
    text = specfile.preset_text("so") + (
        "define+ forall x. nu1(exists(r, exists(r, p)), x) -> "
        "nu1(exists(r, p), x)\n")
    ns = normalize.normalize(specfile.parse_spec(text))
    assert normalize.check_well_founded(normalize.induced_ordering(ns)).kind \
        == "proved"


def test_well_founded_self_loop():
    # a one-directional sentence whose body mentions its own head expression
    text = specfile.preset_text("so") + (
        "define+ forall x. nu1(or(p, q), x) -> nu1(or(p, q), x)\n")
    ns = normalize.normalize(specfile.parse_spec(text))
    verdict = normalize.check_well_founded(normalize.induced_ordering(ns))
    assert verdict.kind == "cycle"


# -- split preserves models --------------------------------------------------

def _structures(spec, size, concept_atoms, role_atoms=(), individuals=()):
    """All structures of the given size over the listed atomic symbols."""
    elems = list(range(size))
    c_spaces = [list(_subsets(elems)) for _ in concept_atoms]
    r_spaces = [list(_subsets(list(itertools.product(elems, elems))))
                for _ in role_atoms]
    i_spaces = [elems for _ in individuals]
    for combo in itertools.product(*(c_spaces + r_spaces + i_spaces)):
        m = models.LStructure(size, spec=spec)
        k = 0
        nu1 = set()
        for a in concept_atoms:
            nu1 |= {(a, (e,)) for e in combo[k]}
            k += 1
        nu2 = set()
        for a in role_atoms:
            nu2 |= {(a, t) for t in combo[k]}
            k += 1
        m.nu = {1: nu1, 2: nu2} if role_atoms else {1: nu1}
        for ind in individuals:
            m.nu0[ind] = combo[k]
            k += 1
        yield m


def _subsets(xs):
    for n in range(len(xs) + 1):
        yield from itertools.combinations(xs, n)


def test_split_is_equivalent_to_definition(so_spec, so_ns):
    sig = so_spec.signature
    atoms = [parser.parse_lexpr(sig, "p0"), parser.parse_lexpr(sig, "q0")]
    roles = [parser.parse_lexpr(sig, "r0")]
    inds = [parser.parse_lexpr(sig, "l0")]
    insts = {"one": ("one(l0)", ("l0",)), "not": ("not(p0)", ("p0",)),
             "or": ("or(p0, q0)", ("p0", "q0")),
             "exists": ("exists(r0, p0)", ("r0", "p0"))}
    for d in so_spec.definitions:
        inst_text, args = insts[d.conn.name]
        inst = parser.parse_lexpr(sig, inst_text)
        sub = {v: a for v, a in zip(d.head_atom.args[0].args,
                                    [parser.parse_lexpr(sig, t) for t in args])}
        equiv = sx.substitute_formula(d.sentence(), sub)
        xi_p = next(x for x in so_ns.s_plus
                    if x.head_expr.kind == "app"
                    and x.head_expr.name == d.conn.name)
        xi_m = next(x for x in so_ns.s_minus
                    if x.head_expr.kind == "app"
                    and x.head_expr.name == d.conn.name)
        both = sx.formula("and", (sx.substitute_formula(xi_p.sentence(), sub),
                                  sx.substitute_formula(xi_m.sentence(), sub)))
        for size in (1, 2):
            for m in _structures(so_spec, size, atoms, roles, inds):
                assert models.evaluate(m, equiv) == models.evaluate(m, both)


# -- well-definedness obligations --------------------------------------------

def test_so_obligations(so_ns):
    obs = normalize.emit_wd_obligations(so_ns)
    assert [o.name for o in obs] == \
        ["wd1", "wd3_one", "wd3_not", "wd3_or", "wd3_exists"]
    assert "trivial" in obs[0].status
    assert all(o.status == "tautology" for o in obs[1:])


def test_ipc_obligations(ipc_ns):
    obs = normalize.emit_wd_obligations(ipc_ns)
    assert [o.name for o in obs] == \
        ["wd1", "wd3_bot", "wd3_and", "wd3_or", "wd3_impl"]


def test_obligations_without_connectives():
    spec = specfile.parse_spec(
        "sorts 2\nvars 1 p\npredicate R 2\naxiom forall x. R(x, x)\n")
    obs = normalize.emit_wd_obligations(normalize.normalize(spec))
    assert [o.name for o in obs] == ["wd1"]


def test_presplit_spec_wd1_not_trivial():
    text = specfile.preset_text("so") + (
        "define+ forall x. nu1(exists(r, exists(r, p)), x) -> "
        "nu1(exists(r, p), x)\n")
    ns = normalize.normalize(specfile.parse_spec(text))
    obs = normalize.emit_wd_obligations(ns)
    assert obs[0].status == ""
