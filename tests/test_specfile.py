import re
from pathlib import Path

import pytest

from tabsynth import calcfile, cli, normalize, specfile, synth
from tabsynth import syntax as sx

GOLDEN = Path(__file__).parent / "golden"


def test_so_preset_shape(so_spec):
    assert [d.conn.name for d in so_spec.definitions] == \
        ["one", "not", "or", "exists"]
    assert len(so_spec.axioms) == 1
    assert sx.formula_text(so_spec.axioms[0]) == (
        "forall x. forall y. forall z. "
        "implies(and(nu2(r, x, y), nu2(r, y, z)), nu2(r, x, z))")


def test_ipc_preset_shape(ipc_spec):
    assert [d.conn.name for d in ipc_spec.definitions] == \
        ["bot", "and", "or", "impl"]
    assert len(ipc_spec.axioms) == 4
    assert ipc_spec.signature.preds == {"R": 2}


def test_preset_unknown():
    with pytest.raises(sx.TabError, match=r"unknown preset 'k5' \(bundled: ipc, so\)"):
        specfile.preset("k5")


def test_preset_matches_shipped_bytes(so_spec):
    # the loader must expose exactly the shipped file
    text = specfile.preset_text("so")
    assert "define forall x. nu1(exists(r, p), x)" in text
    reparsed = specfile.parse_spec(text, name="so")
    assert specfile.print_spec(reparsed) == specfile.print_spec(so_spec)


@pytest.mark.parametrize("name", ["so", "ipc"])
def test_roundtrip_print_parse(name):
    spec = specfile.preset(name)
    text = specfile.print_spec(spec)
    again = specfile.parse_spec(text, name=name)
    assert specfile.print_spec(again) == text
    assert [d.sentence() for d in again.definitions] == \
        [d.sentence() for d in spec.definitions]
    assert again.axioms == spec.axioms


def test_tab_separates_directive_word(so_spec):
    text = specfile.preset_text("so")
    tabbed = re.sub(r"^(\S+) ", "\\1\t", text, flags=re.M)
    assert "sorts\t3" in tabbed
    again = specfile.parse_spec(tabbed, name="so")
    assert specfile.print_spec(again) == specfile.print_spec(so_spec)


def test_every_sentence_is_l_open(so_spec, ipc_spec):
    for spec in (so_spec, ipc_spec):
        for d in spec.definitions:
            assert not sx.free_dvars(d.sentence())
        for ax in spec.axioms:
            assert not sx.free_dvars(ax)


def _patch(base, old, new):
    assert old in base
    return base.replace(old, new)


def test_self_referential_definition_rejected():
    text = specfile.preset_text("so")
    bad = _patch(text,
                 "define forall x. nu1(or(p, q), x) <-> or(nu1(p, x), nu1(q, x))",
                 "define forall x. nu1(or(p, q), x) <-> nu1(or(q, p), x)")
    with pytest.raises(sx.TabError, match="definition of or mentions or"):
        specfile.parse_spec(bad)


def test_duplicate_definition_rejected():
    text = specfile.preset_text("so")
    bad = text + "define forall x. nu1(not(p), x) <-> not(nu1(p, x))\n"
    with pytest.raises(sx.TabError, match="connective not is defined twice"):
        specfile.parse_spec(bad)


def test_undefined_connective_rejected():
    text = specfile.preset_text("so")
    bad = _patch(text, "define forall x. nu1(one(l), x) <-> eq(nu0(l), x)\n", "")
    with pytest.raises(sx.TabError, match="connective one has no definition"):
        specfile.parse_spec(bad)


def test_free_domain_variable_rejected():
    text = specfile.preset_text("so")
    bad = _patch(text,
                 "axiom forall x. forall y. forall z. "
                 "implies(and(nu2(r, x, y), nu2(r, y, z)), nu2(r, x, z))",
                 "axiom forall x. forall y. "
                 "implies(and(nu2(r, x, y), nu2(r, y, z)), nu2(r, x, z))")
    with pytest.raises(sx.TabError, match=r"free domain variable in axiom \(line 19\)"):
        specfile.parse_spec(bad)


def test_syntax_error_carries_line():
    with pytest.raises(sx.TabError, match="at 4:23$"):
        specfile.parse_spec("sorts 2\nvars 1 p\nconnective f 1 -> 1\n"
                            "define forall x. nu1(f(p), x <-> nu1(p, x)\n")


def test_presplit_sentences_accepted():
    text = specfile.preset_text("so") + (
        "define+ forall x. nu1(exists(r, exists(r, p)), x) -> "
        "nu1(exists(r, p), x)\n")
    spec = specfile.parse_spec(text)
    assert len(spec.directed) == 1
    assert spec.directed[0].polarity == "+"


def test_formula_negation_stays_a_formula(tmp_path):
    # not(...) in a sentence is a not formula over a positive literal; its
    # printed text, TPTP obligations and calculus are pinned by golden files
    path = GOLDEN / "negation.spec"
    spec = specfile.parse_spec(path.read_text(encoding="utf-8"), name="negation")
    body = spec.definitions[0].body  # not(not(nu1(p, x)))
    assert body.op == "not" and body.subs[0].op == "not"
    assert type(body.subs[0].subs[0]) is sx.Literal and body.subs[0].subs[0].pos
    assert specfile.print_spec(spec) == \
        (GOLDEN / "negation_printed.spec").read_text(encoding="utf-8")
    assert cli.main(["check-wd", "--spec", str(path),
                     "--outdir", str(tmp_path)]) == 0
    want = sorted((GOLDEN / "negation_wd").iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == [p.name for p in want]
    for p in want:
        assert (tmp_path / p.name).read_bytes() == p.read_bytes()
    calc = synth.synthesize(normalize.normalize(spec))
    assert calcfile.print_calculus(calc) == \
        (GOLDEN / "negation.calc").read_text(encoding="utf-8")
