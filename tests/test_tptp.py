import pytest

from tabsynth import normalize, parser, tptp
from tabsynth import syntax as sx


def _render_all(ns):
    obs = normalize.emit_wd_obligations(ns)
    return [(ob, tptp.render_obligation(ob, ns.signature)) for ob in obs]


@pytest.mark.parametrize("preset", ["so", "ipc"])
def test_obligations_are_valid_tptp(preset, so_ns, ipc_ns):
    ns = so_ns if preset == "so" else ipc_ns
    rendered = _render_all(ns)
    assert len(rendered) == 5
    for ob, text in rendered:
        assert tptp.validate_tptp(text) >= 2
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
        tptp.validate_tptp("fof(broken, axiom, p(X).")
    with pytest.raises(sx.TabError, match="expected 'fof', found 'cnf'"):
        tptp.validate_tptp("cnf(x, axiom, p).")
    with pytest.raises(sx.TabError, match="no fof annotated formulae found"):
        tptp.validate_tptp("")


def test_validator_accepts_basics():
    text = ("fof(a1, axiom, ( ! [X] : (p(X) => q(X)) )).\n"
            "fof(goal, conjecture, ( ? [Y] : (q(Y) & ~ p(Y)) )).\n")
    assert tptp.validate_tptp(text) == 2


def test_negative_leaf_renders_as_negation(so_spec):
    for text in ("nu1(not(p0), x)", "eq(x, y)", "false"):
        lit = parser.parse_formula(so_spec.signature, text)
        want = tptp._render_formula(sx.formula("not", (lit,)))
        assert want.startswith("~ ")
        assert tptp._render_formula(lit.negate()) == want
