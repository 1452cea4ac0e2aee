import re

import checkers
from tabsynth import calcfile, normalize, specfile, synth


def test_roundtrip_generated(so_calc):
    text = calcfile.print_calculus(so_calc)
    again = calcfile.parse_calculus(text)
    assert checkers.calculus_equal(so_calc, again)
    assert calcfile.print_calculus(again) == text


def test_roundtrip_internalized_with_blocking(so_blocked):
    text = calcfile.print_calculus(so_blocked)
    again = calcfile.parse_calculus(text)
    assert checkers.calculus_equal(so_blocked, again)
    assert again.blocking.enabled and again.blocking.depth == 0
    assert again.mode == "internalized"
    assert "eq" in again.ctx.templates["d+"]
    assert [r.produces_terms for r in again.rules] == \
        [r.produces_terms for r in so_blocked.rules]


def test_comparison_is_renaming_insensitive(so_calc):
    # swap the names of the two concept variables everywhere
    text = calcfile.print_calculus(so_calc)
    renamed = re.sub(r"\bp\b", "ptmp", text)
    renamed = re.sub(r"\bq\b", "p", renamed)
    renamed = re.sub(r"\bptmp\b", "q", renamed)
    again = calcfile.parse_calculus(renamed)
    assert checkers.calculus_equal(so_calc, again)


def test_comparison_detects_real_difference(so_calc):
    text = calcfile.print_calculus(so_calc)
    # swapping the denominators of the positive or rule is a real change
    broken = text.replace(
        "rule or_pos [decomposition+]: nu1(or(p, q), x) / nu1(p, x) | nu1(q, x)",
        "rule or_pos [decomposition+]: nu1(or(p, q), x) / nu1(p, x), nu1(q, x)")
    assert broken != text
    again = calcfile.parse_calculus(broken)
    assert not checkers.calculus_equal(so_calc, again)


def test_stable_rule_order(so_calc):
    kinds = [r.kind for r in so_calc.rules]
    order = {"decomposition+": 0, "decomposition-": 0, "theory": 1,
             "equality": 2, "closure": 3}
    ranks = [order[k] for k in kinds]
    assert ranks == sorted(ranks)
    decomp_ids = [r.id for r in so_calc.rules if r.kind.startswith("decomp")]
    assert decomp_ids == ["exists_pos", "exists_neg", "not_pos", "not_neg",
                          "one_pos", "one_neg", "or_pos", "or_neg"]


def test_roundtrip_consts_in_two_sorts():
    text = specfile.preset_text("so").replace("vars 0 l\n", "vars 0 l\nconsts 0 o\n") \
        .replace("vars 1 p q\n", "vars 1 p q\nconsts 1 k\n")
    spec = specfile.parse_spec(text, name="so")
    printed = checkers.print_spec(spec)
    assert "vars 0 l\nconsts 0 o\nvars 1 p q\nconsts 1 k\nvars 2 r\n" in printed
    assert checkers.print_spec(specfile.parse_spec(printed, name="so")) == printed
    calc = synth.synthesize(normalize.normalize(spec))
    ctext = calcfile.print_calculus(calc)
    assert "vars 0 l\nconsts 0 o\nvars 1 p q\nconsts 1 k\nvars 2 r\n" in ctext
    again = calcfile.parse_calculus(ctext)
    assert again.signature.const_prefixes == {0: ("o",), 1: ("k",), 2: ()}
    assert calcfile.print_calculus(again) == ctext
