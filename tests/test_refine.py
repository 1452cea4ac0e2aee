import pytest

from tabsynth import calcfile, normalize, refine, specfile, synth
from tabsynth import syntax as sx

from test_synth import golden


# -- folding ------------------------------------------------------------------

def test_fold_negative_exists(so_calc):
    out = refine.refine_rule(so_calc, "exists_neg", [0], drop_dp=True)
    r = out.rule("exists_neg_1")
    assert [l.text() for l in r.premises] == \
        ["not(nu1(exists(r, p), x))", "nu2(r, x, y)"]
    assert [[l.text() for l in d] for d in r.denominators] == \
        [["not(nu1(p, y))"]]
    assert out.rule("exists_neg") is None


def test_fold_transitivity(so_calc):
    out = refine.refine_rule(so_calc, "theory_0", [0, 1], drop_dp=True)
    r = out.rule("theory_0_1")
    assert [l.text() for l in r.premises] == ["nu2(r, x, y)", "nu2(r, y, z)"]
    assert [[l.text() for l in d] for d in r.denominators] == [["nu2(r, x, z)"]]


def test_fold_bookkeeping_counts(so_calc):
    # folding a denominator of k literals yields k rules, each one
    # denominator short
    before = so_calc.rule("or_neg")
    widened = refine.refine_rule(so_calc, "exists_pos", [0], unsafe=True)
    rules = [r for r in widened.rules if r.id.startswith("exists_pos_")]
    assert len(rules) == 2  # the folded denominator had two literals
    for r in rules:
        assert len(r.premises) == len(so_calc.rule("exists_pos").premises) + 1
        assert r.branching_factor == 0
    assert before in widened.rules


def test_fold_or_requires_acknowledgement(so_calc):
    with pytest.raises(sx.TabError, match="does not preserve model construction"):
        refine.refine_rule(so_calc, "or_pos", [0])
    out = refine.refine_rule(so_calc, "or_pos", [0], drop_dp=True, unsafe=True)
    r = out.rule("or_pos_1")
    assert [l.text() for l in r.premises] == \
        ["nu1(or(p, q), x)", "not(nu1(p, x))"]
    assert [[l.text() for l in d] for d in r.denominators] == [["nu1(q, x)"]]
    assert out.warnings == ("fold of or_pos is outside the whitelist: "
                            "completeness not guaranteed",)


def test_fold_ipc_impl_whitelisted(ipc_calc):
    out = refine.refine_rule(ipc_calc, "impl_pos", [0], drop_dp=True)
    r = out.rule("impl_pos_1")
    assert [l.text() for l in r.premises] == \
        ["nu1(impl(p, q), x)", "R(x, y)"]


def test_fold_errors(so_calc):
    with pytest.raises(sx.TabError, match="no rule missing"):
        refine.refine_rule(so_calc, "missing", [0])
    with pytest.raises(sx.TabError, match="rule closure_nu1 has no denominators"):
        refine.refine_rule(so_calc, "closure_nu1", [0])
    with pytest.raises(sx.TabError, match="or_pos has no denominator 5"):
        refine.refine_rule(so_calc, "or_pos", [5], unsafe=True)


# -- internalization ----------------------------------------------------------

def test_internalize_so_matches_refined_golden(so_refined):
    assert synth.calculus_equal(so_refined, golden("so_refined.calc"))


def test_internalize_output_speaks_only_concepts(so_refined):
    for r in so_refined.rules:
        for lits in (r.premises,) + r.denominators:
            for l in lits:
                assert l.pred[0] in ("holds", "false")
                if l.pred[0] == "holds":
                    assert l.pos
                    for t in l.args:
                        assert t.sort != sx.DOMAIN


def test_internalize_key_rules(so_refined):
    by_id = {r.id: r for r in so_refined.rules}
    assert by_id["exists_neg_1"].text().endswith(
        "colon(l, not(exists(r, p))), colon(l, exists(r, one(l1))) / "
        "colon(l1, not(p))")
    assert by_id["theory_0_1"].text().endswith(
        "colon(l, exists(r, one(l1))), colon(l1, exists(r, one(l2))) / "
        "colon(l, exists(r, one(l2)))")
    assert by_id["not_neg"].text().endswith(
        "colon(l, not(not(p))) / colon(l, p)")


def test_simplify_removals_match_redundancy_argument(so_calc, so_ctx):
    steps = refine.parse_script("rf exists_neg fold 0 drop-dp\n"
                                "rf theory_0 fold 0 1 drop-dp\ntr\n")
    folded, _ = refine.apply_script(so_calc, steps, ctx=so_ctx)
    out, removed = refine.simplify(folded)
    assert set(removed) == \
        {"not_pos", "one_pos", "one_neg", "closure_eq", "closure_nu2"}
    assert [r.id for r in out.rules if r.kind == "closure"] == ["closure_nu1"]


def test_simplify_on_minimal_calculus_is_identity(ipc_refined):
    out, removed = refine.simplify(ipc_refined)
    assert removed == []
    assert [r.id for r in out.rules] == [r.id for r in ipc_refined.rules]


def test_identity_like_context_no_predicates(so_calc, so_ctx):
    # a calculus without predicate constants internalizes completely once the
    # theory rule is folded (its object-sort predication premise has no
    # concept encoding, so the unfolded form is rejected with a clear error)
    with pytest.raises(sx.TabError, match="object-sort predication"):
        refine.internalize(so_calc, so_ctx)
    folded = refine.refine_rule(so_calc, "theory_0", [0, 1], drop_dp=True)
    out = refine.internalize(folded, so_ctx)
    assert out.mode == "internalized"
    assert all(l.pred[0] in ("holds", "false")
               for r in out.rules
               for lits in (r.premises,) + r.denominators for l in lits)


def test_incomplete_context_missing_equality(so_calc):
    text = ("connective colon 0 1 -> 1\n"
            "function sk_exists_0 -> fex\n"
            "c+ 1 (p, l) = colon(l, p)\n"
            "c- 1 (p, l) = colon(l, not(p))\n"
            "c+ 2 (r, l, l1) = colon(l, exists(r, one(l1)))\n"
            "c- 2 (r, l, l1) = colon(l, not(exists(r, one(l1))))\n")
    ctx = refine.parse_context(text, so_calc.signature, so_calc.skolems)
    with pytest.raises(sx.TabError, match=r"missing d\+ template for eq"):
        refine.internalize(so_calc, ctx)


def test_incomplete_context_missing_predicate():
    spec = specfile.parse_spec(
        "sorts 2\nvars 0 l\nvars 1 p q\npredicate R 2\n"
        "connective neg 1 -> 1\n"
        "define forall x. nu1(neg(p), x) <-> not(nu1(p, x))\n"
        "axiom forall x. R(x, x)\n")
    calc = synth.synthesize(normalize.normalize(spec))
    text = ("connective at 0 1 -> 1\n"
            "c+ 1 (p, l) = at(l, p)\n"
            "c- 1 (p, l) = at(l, neg(p))\n"
            "d+ eq (l, l1) = at(l, neg(neg(p)))\n")
    with pytest.raises(refine.SpecSyntaxError):
        # template over an undeclared variable is rejected outright
        refine.parse_context(text.replace("neg(neg(p))", "undeclared"),
                             calc.signature, calc.skolems)
    ctx = refine.parse_context(
        "connective at 0 1 -> 1\n"
        "c+ 1 (p, l) = at(l, p)\n"
        "c- 1 (p, l) = at(l, neg(p))\n",
        calc.signature, calc.skolems)
    with pytest.raises(sx.TabError, match=r"missing d\+ template for (R|eq)"):
        refine.internalize(calc, ctx)


# -- blocking -----------------------------------------------------------------

def test_attach_ub_base(ipc_calc):
    out = refine.attach_ub(ipc_calc, synth.UbConfig(True, 0))
    ub = out.rule("ub")
    assert ub.text().endswith("eq(x, x), eq(y, y) / eq(x, y) | not(eq(x, y))")
    assert out.blocking.enabled and out.blocking.depth == 0


def test_attach_ub_internalized(so_refined):
    out = refine.attach_ub(so_refined, synth.UbConfig(True, 0))
    ub = out.rule("ub")
    assert ub.text().endswith(
        "colon(l, one(l)), colon(l1, one(l1)) / "
        "colon(l, one(l1)) | colon(l, not(one(l1)))")


def test_attach_ub_disabled_is_identity(so_refined):
    out = refine.attach_ub(so_refined, synth.UbConfig(False, 0))
    assert out is so_refined


def test_attach_ub_requires_equality():
    spec = specfile.parse_spec(
        "sorts 2\nvars 1 p q\n"
        "connective neg 1 -> 1\n"
        "define forall x. nu1(neg(p), x) <-> not(nu1(p, x))\n")
    calc = synth.synthesize(normalize.normalize(spec))
    bare = calc.replaced([r for r in calc.rules if r.kind not in ("equality",)
                          and r.id != "closure_eq"], refined=False)
    with pytest.raises(sx.TabError, match="never mentions equality"):
        refine.attach_ub(bare, synth.UbConfig(True, 0))


# -- scripts and round-trips --------------------------------------------------

def test_script_roundtrip():
    text = ("rf exists_neg fold 0 drop-dp\nrf theory_0 fold 0 1 drop-dp\n"
            "tr\nsimplify\nub depth 2\n")
    steps = refine.parse_script(text)
    assert [(s.kind, s.rule_id, s.fold, s.drop_dp, s.depth) for s in steps] == [
        ("rf", "exists_neg", (0,), True, 0), ("rf", "theory_0", (0, 1), True, 0),
        ("tr", None, (), False, 0), ("simplify", None, (), False, 0),
        ("ub", None, (), False, 2)]


def test_context_roundtrip(so_calc, so_ctx):
    text = refine.print_context(so_ctx)
    again = refine.parse_context(text, so_calc.signature, so_calc.skolems)
    assert refine.print_context(again) == text


def test_ipc_refined_matches_golden(ipc_refined):
    assert synth.calculus_equal(ipc_refined, golden("ipc_refined.calc"))


def test_refined_calc_roundtrips_through_file(so_blocked):
    text = calcfile.print_calculus(so_blocked)
    again = calcfile.parse_calculus(text)
    assert synth.calculus_equal(so_blocked, again)
    assert again.mode == "internalized" and again.ctx is not None
    assert again.blocking.enabled


# -- refined rules stay locally sound ------------------------------------------

def test_refined_rules_locally_sound(ipc_ns, ipc_refined):
    from test_synth import _all_structures, _satisfies_spec, _rule_locally_sound
    from tabsynth import parser
    spec = ipc_ns.spec
    carrier = [parser.parse_lexpr(spec.signature, t)
               for t in ("p0", "q0", "or(p0, q0)")]
    checked = 0
    for m in _all_structures(spec, 2):
        if not _satisfies_spec(m, ipc_ns, carrier):
            continue
        for rule in ipc_refined.rules:
            assert _rule_locally_sound(m, rule, carrier), rule.id
        checked += 1
    assert checked > 0
