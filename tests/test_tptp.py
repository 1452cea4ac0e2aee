from pathlib import Path

import pytest

import checkers
from tabsynth import normalize, specfile, tptp
from tabsynth import syntax as sx

GOLDEN = Path(__file__).parent / "golden"


def _render_all(ns):
    obs = normalize.emit_wd_obligations(ns)
    return [(ob, tptp.render_obligation(ob, ns.signature)) for ob in obs]


@pytest.mark.parametrize("preset", ["so", "ipc"])
def test_obligations_are_valid_tptp(preset, so_ns, ipc_ns):
    ns = so_ns if preset == "so" else ipc_ns
    rendered = _render_all(ns)
    assert len(rendered) == 5
    for ob, text in rendered:
        assert checkers.validate_tptp(text) >= 2
        assert "conjecture" in text


def test_exists_obligation_is_self_implication(so_ns):
    rendered = dict((ob.name, text) for ob, text in _render_all(so_ns))
    goal = [l for l in rendered["wd3_exists"].splitlines()
            if l.startswith("fof(goal")][0]
    # both directions relate the instantiated body to itself
    assert goal.count("nu2(R,X,Y) & nu1(P,Y)") == 4


def test_restricted_background_in_obligation(so_ns):
    rendered = dict((ob.name, text) for ob, text in _render_all(so_ns))
    assert "bg_inst_0" in rendered["wd3_exists"]   # transitivity instance
    assert "bg_inst" not in rendered["wd3_not"]    # no role below not(p)


def test_files_written(tmp_path, so_ns):
    obs = normalize.emit_wd_obligations(so_ns)
    paths = tptp.write_obligations(obs, so_ns.signature, str(tmp_path))
    names = sorted(p.rsplit("/", 1)[1] for p in paths)
    assert names == ["wd1.p", "wd3_exists.p", "wd3_not.p", "wd3_one.p",
                     "wd3_or.p"]


def test_validator_rejects_malformed():
    with pytest.raises(sx.TabError, match=r"expected '\)', found '\.'"):
        checkers.validate_tptp("fof(broken, axiom, p(X).")
    with pytest.raises(sx.TabError, match="expected 'fof', found 'cnf'"):
        checkers.validate_tptp("cnf(x, axiom, p).")
    with pytest.raises(sx.TabError, match="no fof annotated formulae found"):
        checkers.validate_tptp("")
    # the scope of a variable: obligations once written with p and P, and
    # with X beside the domain variable x, all upper-cased
    with pytest.raises(sx.TabError, match="variable P repeated in one"):
        checkers.validate_tptp("fof(d, axiom, ( ! [P,P] : nu1(c_f(P,P),P) )).")
    with pytest.raises(sx.TabError, match="variable X bound again"):
        checkers.validate_tptp(
            "fof(d, axiom, ( ! [X] : ( ! [X] : nu1(c_g(X),X) ) )).")
    with pytest.raises(sx.TabError, match="free variable X"):
        checkers.validate_tptp("fof(d, axiom, ( ! [P] : nu1(P,X) )).")


def test_validator_accepts_basics():
    text = ("fof(a1, axiom, ( ! [X] : (p(X) => q(X)) )).\n"
            "fof(goal, conjecture, ( ? [Y] : (q(Y) & ~ p(Y)) )).\n")
    assert checkers.validate_tptp(text) == 2


def test_negative_leaf_renders_as_negation(so_spec):
    for text in ("nu1(not(p0), x)", "eq(x, y)", "false"):
        lit = checkers.parse_formula(so_spec.signature, text)
        want = tptp._render_formula(sx.formula("not", (lit,)))
        assert want.startswith("~ ")
        assert tptp._render_formula(lit.negate()) == want


def test_variables_differing_only_in_case_keep_apart():
    # p and P were both written P, and the object variable X and the domain
    # variable x both X: ! [P,P] and nu1(c_g(X),X) stated other formulas
    spec = specfile.parse_spec(
        (GOLDEN / "case.spec").read_text(encoding="utf-8"), name="case")
    rendered = _render_all(normalize.normalize(spec))
    assert [ob.name for ob, _ in rendered] == ["wd1", "wd3_f", "wd3_g"]
    for ob, text in rendered:
        assert checkers.validate_tptp(text) >= 2
    wd1 = rendered[0][1]
    assert "! [P,Vu_P,Vu_X] : ((sort_1(P) & sort_1(Vu_P) & sort_1(Vu_X))" in wd1
    assert "nu1(c_f(P,Vu_P),X) <=> (nu1(P,X) & ~ nu1(Vu_P,X))" in wd1
    assert "nu1(c_g(Vu_X),X)" in wd1


@pytest.mark.parametrize("decls, word", [
    ("vars 1 p\u00e9\nconnective g 1 -> 1\n"
     "define forall x. nu1(g(p\u00e9), x) <-> nu1(p\u00e9, x)\n",
     "Vu_p\u00e9"),
    ("vars 1 p\nconnective g\u00e9 1 -> 1\n"
     "define forall x. nu1(g\u00e9(p), x) <-> nu1(p, x)\n",
     "sort_conn_g\u00e9")], ids=["variable", "connective"])
def test_non_ascii_names_are_refused_before_any_file(tmp_path, decls, word):
    # the tokenizer reads any letter, and TPTP names are ASCII
    ns = normalize.normalize(specfile.parse_spec("sorts 2\n" + decls))
    outdir = tmp_path / "wd"
    with pytest.raises(sx.TabError, match="ASCII; '%s' is not" % word):
        tptp.write_obligations(normalize.emit_wd_obligations(ns),
                               ns.signature, str(outdir))
    assert not outdir.exists()
