import itertools
import os

import pytest

import checkers
from tabsynth import calcfile, models, normalize, parser, specfile, synth
from tabsynth import syntax as sx

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def golden(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return calcfile.parse_calculus(fh.read())


# -- implicational forms -----------------------------------------------------

def _xi(ns, conn, polarity):
    pool = ns.s_plus if polarity == "+" else ns.s_minus
    return next(x for x in pool
                if x.head_expr.kind == "app" and x.head_expr.name == conn)


def test_positive_exists_form(so_ns):
    head, matrix, fns = synth.implicational_form(_xi(so_ns, "exists", "+"))
    assert head.text() == "nu1(exists(r, p), x)"
    assert len(fns) == 1 and fns[0].lsorts == (2, 1) and fns[0].n_dom == 1
    assert [[l.text() for l in c] for c in matrix] == \
        [["nu2(r, x, %s(r, p, x))" % fns[0].name,
          "nu1(p, %s(r, p, x))" % fns[0].name]]


def test_negative_exists_form(so_ns):
    head, matrix, fns = synth.implicational_form(_xi(so_ns, "exists", "-"))
    assert head.text() == "not(nu1(exists(r, p), x))"
    assert fns == []
    assert [[l.text() for l in c] for c in matrix] == \
        [["not(nu2(r, x, y))"], ["not(nu1(p, y))"]]


def test_positive_not_form(so_ns):
    head, matrix, _ = synth.implicational_form(_xi(so_ns, "not", "+"))
    assert head.text() == "nu1(not(p), x)"
    assert [[l.text() for l in c] for c in matrix] == [["not(nu1(p, x))"]]


# -- decomposition rules -----------------------------------------------------

def test_negative_exists_rule(so_ns):
    r = synth.make_decomposition_rule(_xi(so_ns, "exists", "-"))
    assert [l.text() for l in r.premises] == \
        ["not(nu1(exists(r, p), x))", "eq(y, y)"]
    assert [[l.text() for l in d] for d in r.denominators] == \
        [["not(nu2(r, x, y))"], ["not(nu1(p, y))"]]
    assert not r.produces_terms


def test_negative_impl_rule(ipc_ns):
    r = synth.make_decomposition_rule(_xi(ipc_ns, "impl", "-"))
    assert len(r.premises) == 1
    assert r.branching_factor == 1
    assert len(r.denominators[0]) == 3
    assert r.produces_terms


def test_positive_bot_rule_is_closure_shaped(ipc_ns):
    r = synth.make_decomposition_rule(_xi(ipc_ns, "bot", "+"))
    assert [l.text() for l in r.premises] == ["nu1(bot, x)"]
    assert r.denominators == ()


def test_negative_bot_rule_keeps_trivial_literal(ipc_ns):
    r = synth.make_decomposition_rule(_xi(ipc_ns, "bot", "-"))
    assert [[l.text() for l in d] for d in r.denominators] == [["not(false)"]]


# -- theory rules ------------------------------------------------------------

def test_transitivity_rule(so_ns):
    r = synth.make_theory_rule(0, so_ns.sb[0])
    assert [l.text() for l in r.premises] == \
        ["eq(r, r)", "eq(x, x)", "eq(y, y)", "eq(z, z)"]
    assert [[l.text() for l in d] for d in r.denominators] == \
        [["not(nu2(r, x, y))"], ["not(nu2(r, y, z))"], ["nu2(r, x, z)"]]


def test_ipc_reflexivity_rule(ipc_ns):
    r = synth.make_theory_rule(0, ipc_ns.sb[0])
    assert [l.text() for l in r.premises] == ["eq(x, x)"]
    assert [[l.text() for l in d] for d in r.denominators] == [["R(x, x)"]]


def test_ipc_antisymmetry_rule(ipc_ns):
    r = synth.make_theory_rule(1, ipc_ns.sb[1])
    assert [l.text() for l in r.premises] == ["eq(x, x)", "eq(y, y)"]
    assert [[l.text() for l in d] for d in r.denominators] == \
        [["not(R(x, y))"], ["not(R(y, x))"], ["eq(x, y)"]]


# -- equality and closure blocks ----------------------------------------------

def test_so_equality_block_count(so_calc):
    eq = [r for r in so_calc.rules if r.kind == "equality"]
    assert len(eq) == 17
    assert sum(1 for r in eq if r.id.startswith("congr_fn_")) == 1
    assert sum(1 for r in eq if r.id.startswith("congr_neg_")) == 3


def test_ipc_equality_block_count(ipc_calc):
    # every schema instantiated for R, eq, nu1 and the one Skolem function:
    # 4 + 2 predication, symmetry, transitivity, 4 + 2 predicate congruences
    # (both polarities), 1 + 1 nu1 congruences, 1 function congruence
    eq = [r for r in ipc_calc.rules if r.kind == "equality"]
    assert len(eq) == 17


def test_no_function_congruence_without_functions():
    spec = specfile.parse_spec(
        "sorts 2\nvars 1 p q\n"
        "connective neg 1 -> 1\n"
        "define forall x. nu1(neg(p), x) <-> not(nu1(p, x))\n")
    calc = synth.synthesize(normalize.normalize(spec))
    assert not any(r.id.startswith("congr_fn_") for r in calc.rules)


def test_so_closure_rules(so_calc):
    cl = [r.id for r in so_calc.rules if r.kind == "closure"]
    assert cl == ["closure_nu1", "closure_nu2", "closure_eq"]


def test_ipc_closure_rules(ipc_calc):
    cl = [r.id for r in ipc_calc.rules if r.kind == "closure"]
    assert cl == ["closure_nu1", "closure_R", "closure_eq"]


def test_minimal_spec_closures():
    spec = specfile.parse_spec(
        "sorts 2\nvars 1 p q\n"
        "connective neg 1 -> 1\n"
        "define forall x. nu1(neg(p), x) <-> not(nu1(p, x))\n")
    calc = synth.synthesize(normalize.normalize(spec))
    assert [r.id for r in calc.rules if r.kind == "closure"] == \
        ["closure_nu1", "closure_eq"]


# -- whole calculi ------------------------------------------------------------

def test_so_counts(so_calc):
    assert so_calc.counts_by_kind() == \
        {"decomposition": 8, "theory": 1, "equality": 17, "closure": 3}


def test_so_matches_golden(so_calc):
    assert checkers.calculus_equal(so_calc, golden("so_generated.calc"))


def test_ipc_matches_golden(ipc_calc):
    assert checkers.calculus_equal(ipc_calc, golden("ipc_generated.calc"))


def test_two_decomposition_rules_per_connective(so_calc, ipc_calc):
    for calc in (so_calc, ipc_calc):
        for conn in calc.signature.conns.values():
            pos = [r for r in calc.rules if r.kind == "decomposition+"
                   and r.id == "%s_pos" % conn.name]
            neg = [r for r in calc.rules if r.kind == "decomposition-"
                   and r.id == "%s_neg" % conn.name]
            assert len(pos) == 1 and len(neg) == 1


def test_rules_only_over_equality_and_closure_without_sentences():
    spec = specfile.parse_spec("sorts 2\nvars 1 p\npredicate R 2\n"
                               "axiom forall x. R(x, x)\n")
    calc = synth.synthesize(normalize.normalize(spec))
    kinds = calc.counts_by_kind()
    assert "decomposition" not in kinds
    assert kinds["theory"] == 1 and kinds["closure"] >= 2


def test_synthesis_deterministic(so_ns):
    a = calcfile.print_calculus(synth.synthesize(so_ns))
    b = calcfile.print_calculus(
        synth.synthesize(normalize.normalize(specfile.preset("so"))))
    assert a == b


def test_skolem_arguments_are_head_variables(so_calc, ipc_calc):
    for calc, rid, expect in ((so_calc, "exists_pos", ("r", "p", "x")),
                              (ipc_calc, "impl_neg", ("p", "q", "x"))):
        rule = calc.rule(rid)
        terms = []
        for d in rule.denominators:
            for l in d:
                for t in l.args:
                    if _is_skolem_term(t):
                        terms.append(t)
        assert terms
        for t in terms:
            assert tuple(a.name for a in t.args) == expect


def test_rules_monotone_under_ordering(so_ns, so_calc, ipc_ns, ipc_calc):
    # every expression a rule concludes with sits at or below a premise
    # expression in the induced ordering
    for ns, calc in ((so_ns, so_calc), (ipc_ns, ipc_calc)):
        ordering = normalize.induced_ordering(ns)
        for rule in calc.rules:
            prem_exprs = set()
            for l in rule.premises:
                prem_exprs.update(sx.lexprs_of_formula(l))
            allowed = set(ordering.sub_closure(list(prem_exprs)))
            for d in rule.denominators:
                for l in d:
                    for e in sx.lexprs_of_formula(l):
                        assert e in allowed, (rule.id, e.text())


def test_dnf_cap():
    disj = "or(nu1(p, x), nu1(q, x))"
    inner = disj
    for _ in range(13):
        inner = "and(%s, %s)" % (inner, disj)
    text = ("sorts 2\nvars 1 p q\nconnective wide 1 1 -> 1\n"
            "define forall x. nu1(wide(p, q), x) <-> %s\n" % inner)
    ns = normalize.normalize(specfile.parse_spec(text))
    with pytest.raises(sx.TabError, match="matrix exceeds 4096 literals"):
        synth.synthesize(ns)


def test_unknown_well_foundedness_needs_flag():
    # or(p, p) is no subexpression of the head pattern, and the connective
    # graph stays acyclic: the structural criterion cannot decide this one
    text = specfile.preset_text("so") + (
        "define+ forall x. nu1(exists(r, p), x) -> nu1(or(p, p), x)\n")
    ns = normalize.normalize(specfile.parse_spec(text))
    assert normalize.check_well_founded(
        normalize.induced_ordering(ns)).kind == "unknown"
    with pytest.raises(sx.TabError, match="cannot prove the induced ordering"):
        synth.synthesize(ns)
    calc = synth.synthesize(ns, assume_well_founded=True)
    assert calc.rule("or_pos") is not None


# -- empirical rule-local soundness -------------------------------------------

def _all_structures(spec, size):
    sig = spec.signature
    atoms1 = [parser.parse_lexpr(sig, t) for t in ("p0", "q0")]
    roles = [parser.parse_lexpr(sig, "r0")] if sig.max_sort >= 2 else []
    elems = list(range(size))
    pred_names = sorted(sig.preds)
    c_space = [list(_subsets(elems)) for _ in atoms1]
    r_space = [list(_subsets(list(itertools.product(elems, elems))))
               for _ in roles]
    p_space = [list(_subsets(list(itertools.product(elems, elems))))
               for _ in pred_names]
    for combo in itertools.product(*(c_space + r_space + p_space)):
        m = models.LStructure(size, spec=spec)
        k = 0
        nu1 = set()
        for a in atoms1:
            nu1 |= {(a, (e,)) for e in combo[k]}
            k += 1
        m.nu[1] = nu1
        if roles:
            m.nu[2] = {(roles[0], t) for t in combo[k]}
            k += 1
        for p in pred_names:
            m.preds[p] = set(combo[k])
            k += 1
        yield m


def _subsets(xs):
    for n in range(len(xs) + 1):
        yield from itertools.combinations(xs, n)


def _satisfies_spec(m, ns, carrier):
    for f in [xi.sentence() for xi in ns.s_plus + ns.s_minus] + list(ns.sb):
        lvs = sorted({e for e in sx.lexprs_of_formula(f) if e.kind == "var"},
                     key=lambda e: e.text())
        for combo in itertools.product(*[[e for e in carrier
                                          if e.sort == v.sort] for v in lvs]):
            if not models.evaluate(m, sx.substitute_formula(f, dict(zip(lvs, combo)))):
                return False
    return True


def _is_skolem_term(t):
    return t.sort == sx.DOMAIN and t.kind == "app" and t.sym is not sx.NU0


def _lit_true(m, lit, val, sk_assign):
    p, args = lit.pred, lit.args
    if p[0] == "false":
        truth = False
    elif p[0] == "eq" and args[0].sort != sx.DOMAIN:
        truth = args[0] is args[1]
    else:
        def ev(t):
            if _is_skolem_term(t):
                return sk_assign[t]
            return m.eval_term(t, val)
        if p[0] == "eq":
            truth = ev(args[0]) == ev(args[1])
        elif p[0] == "nu":
            truth = m.holds(p[1], args[0], [ev(t) for t in args[1:]])
        else:
            truth = tuple(ev(t) for t in args) in m.preds.get(p[1], ())
    return truth == lit.pos


def _rule_locally_sound(m, rule, carrier):
    lvars, dvars = [], []
    for l in rule.premises:
        for t in l.args:
            for e in sx.lexprs_of_formula(t):
                if e.kind == "var" and e not in lvars:
                    lvars.append(e)
            for v in sx.dvars(t):
                if v not in dvars:
                    dvars.append(v)
    lchoice = [[e for e in carrier if e.sort == v.sort] for v in lvars]
    dchoice = [list(range(m.size)) for _ in dvars]
    for lcombo in itertools.product(*lchoice):
        lsub = dict(zip(lvars, lcombo))
        for dcombo in itertools.product(*dchoice):
            val = dict(zip(dvars, dcombo))
            prem = [sx.substitute_literal(l, lsub) for l in rule.premises]
            try:
                if not all(_lit_true(m, l, val, {}) for l in prem):
                    continue
            except KeyError:
                continue
            dens = [[sx.substitute_literal(l, lsub) for l in d]
                    for d in rule.denominators]
            sks = []
            for d in dens:
                for l in d:
                    for t in l.args:
                        if _is_skolem_term(t) and t not in sks:
                            sks.append(t)
            ok = False
            for assign in itertools.product(range(m.size), repeat=len(sks)):
                sk_assign = dict(zip(sks, assign))
                if any(all(_lit_true(m, l, val, sk_assign) for l in d)
                       for d in dens):
                    ok = True
                    break
            if not dens and not sks:
                ok = False  # closure rule: premises must never co-hold
            if not ok:
                return False
    return True


@pytest.mark.parametrize("preset,size", [("so", 2), ("ipc", 2)])
def test_every_generated_rule_is_locally_sound(preset, size, request):
    spec = specfile.preset(preset)
    ns = normalize.normalize(spec)
    calc = synth.synthesize(ns)
    sig = spec.signature
    carrier_texts = ["p0", "q0", "or(p0, q0)"] if preset == "ipc" else \
        ["p0", "q0", "or(p0, q0)", "not(p0)", "r0", "l0"]
    carrier = [parser.parse_lexpr(sig, t) for t in carrier_texts]
    checked = 0
    for m in _all_structures(spec, size):
        if preset == "so":
            for ind in [e for e in carrier if e.sort == 0]:
                m.nu0[ind] = 0
        if not _satisfies_spec(m, ns, carrier):
            continue
        for rule in calc.rules:
            assert _rule_locally_sound(m, rule, carrier), rule.id
        checked += 1
    assert checked > 0
