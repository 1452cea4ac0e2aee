import os
import subprocess
import sys

import pytest

from tabsynth import engine, models, parser, refine, synth
from tabsynth import syntax as sx


def pc(calc_or_spec, text):
    sig = getattr(calc_or_spec, "signature", calc_or_spec)
    return parser.parse_lexpr(sig, text, 1)


# -- init ----------------------------------------------------------------------

def test_init_root_literals(so_calc, so_ns):
    eng = engine.Engine(so_calc, ns=so_ns)
    tab = eng.init([pc(so_calc, "p0"), pc(so_calc, "not(p0)")])
    texts = {l.text() for l in tab.root.literals}
    assert texts == {"nu1(p0, a0)", "nu1(not(p0), a0)"}


def test_init_negative_root(ipc_calc, ipc_ns):
    eng = engine.Engine(ipc_calc, ns=ipc_ns)
    tab = eng.init([(pc(ipc_calc, "impl(p0, p0)"), False)])
    assert [l.text() for l in tab.root.literals] == \
        ["not(nu1(impl(p0, p0), a0))"]


def test_init_empty_input(so_calc):
    with pytest.raises(engine.EmptyInput):
        engine.Engine(so_calc).init([])


def test_init_ill_sorted(so_calc):
    with pytest.raises(sx.IllSorted):
        engine.Engine(so_calc).init([parser.parse_lexpr(so_calc.signature, "l0")])


# -- matching ------------------------------------------------------------------

def _branch_with(eng, lits):
    b = engine.Branch(0)
    for l in lits:
        b.add(l, eng.mode)
    return b


def test_or_rule_single_instance(so_calc):
    eng = engine.Engine(so_calc)
    sig = so_calc.signature
    a0 = sx.dconst("a0")
    lit = sx.pos_lit(sx.atom(sx.nu(1), [pc(so_calc, "or(p0, q0)"), a0]))
    dp = sx.pos_lit(sx.atom(sx.EQ, [a0, a0]))
    b = _branch_with(eng, [lit, dp])
    insts = list(eng.applicable_instances(so_calc.rule("or_pos"), b))
    assert len(insts) == 1
    _, binding, _ = insts[0]
    assert binding[sx.lvar(1, "p")].text() == "p0"
    assert binding[sx.lvar(1, "q")].text() == "q0"
    assert binding[sx.dvar("x")] is a0


def test_refined_exists_binds_successor(so_calc):
    refined = refine.refine_rule(so_calc, "exists_neg", [0], drop_dp=True)
    eng = engine.Engine(refined)
    a0, b0 = sx.dconst("a0"), sx.dconst("b0")
    lits = [sx.neg_lit(sx.atom(sx.nu(1), [pc(so_calc, "exists(r0, p0)"), a0])),
            sx.pos_lit(sx.atom(sx.nu(2), [pc_role(so_calc, "r0"), a0, b0]))]
    b = _branch_with(eng, lits)
    insts = list(eng.applicable_instances(refined.rule("exists_neg_1"), b))
    assert len(insts) == 1
    assert insts[0][1][sx.dvar("y")] is b0


def pc_role(calc, text):
    return parser.parse_lexpr(calc.signature, text, 2)


def test_applied_instances_are_excluded(so_calc):
    eng = engine.Engine(so_calc)
    a0 = sx.dconst("a0")
    lit = sx.pos_lit(sx.atom(sx.nu(1), [pc(so_calc, "or(p0, q0)"), a0]))
    b = _branch_with(eng, [lit])
    rule = so_calc.rule("or_pos")
    fp, binding, _ = next(iter(eng.applicable_instances(rule, b)))
    tab = engine.Tableau(so_calc, b)
    eng.apply(tab, b, rule, fp, binding)
    assert list(eng.applicable_instances(rule, b)) == []


# -- application ---------------------------------------------------------------

def test_apply_positive_exists_registers_term(so_calc, so_ns):
    eng = engine.Engine(so_calc, ns=so_ns)
    tab = eng.init([pc(so_calc, "exists(r0, p0)")])
    b = tab.root
    rule = so_calc.rule("exists_pos")
    fp, binding, _ = next(iter(eng.applicable_instances(rule, b)))
    succ = eng.apply(tab, b, rule, fp, binding)
    assert succ == [b]
    sks = [t for t in b.term_birth if t.kind == "app" and t.sym is not sx.NU0]
    assert len(sks) == 1
    texts = {l.text() for l in b.literals}
    sk = sks[0].text()
    assert "nu2(r0, a0, %s)" % sk in texts and "nu1(p0, %s)" % sk in texts


def test_apply_closure_closes(so_calc):
    eng = engine.Engine(so_calc)
    a0 = sx.dconst("a0")
    p0 = pc(so_calc, "p0")
    lits = [sx.pos_lit(sx.atom(sx.nu(1), [p0, a0])),
            sx.neg_lit(sx.atom(sx.nu(1), [p0, a0]))]
    b = _branch_with(eng, lits)
    rule = so_calc.rule("closure_nu1")
    fp, binding, _ = next(iter(eng.applicable_instances(rule, b)))
    tab = engine.Tableau(so_calc, b)
    assert eng.apply(tab, b, rule, fp, binding) == []
    assert b.closed


def test_apply_ub_two_successors(ipc_calc):
    blocked = refine.attach_ub(ipc_calc, synth.UbConfig(True, 0))
    eng = engine.Engine(blocked)
    a0, b0 = sx.dconst("a0"), sx.dconst("b0")
    lits = [sx.pos_lit(sx.atom(sx.EQ, [a0, a0])),
            sx.pos_lit(sx.atom(sx.EQ, [b0, b0]))]
    b = _branch_with(eng, lits)
    rule = blocked.rule("ub")
    insts = list(eng.applicable_instances(rule, b))
    assert len(insts) == 1  # birth-ordered pair a0 < b0, once
    tab = engine.Tableau(blocked, b)
    fp, binding, _ = insts[0]
    succ = eng.apply(tab, b, rule, fp, binding)
    assert [l.text() for l in succ[0].literals[-1:]] == ["eq(a0, b0)"]
    assert [l.text() for l in succ[1].literals[-1:]] == ["not(eq(a0, b0))"]


# -- term order ----------------------------------------------------------------

def test_term_order(so_calc, so_ns):
    eng = engine.Engine(so_calc, ns=so_ns)
    tab = eng.init([pc(so_calc, "exists(r0, p0)")])
    v = eng.expand(tab)
    assert v.kind == "sat"
    b = v.branch
    terms = sorted(b.term_birth, key=lambda t: b.term_birth[t])
    assert len(terms) >= 2
    # births number the branch's terms 0, 1, ... in order of arrival
    assert [b.term_birth[t] for t in terms] == list(range(len(terms)))


# -- determinism ---------------------------------------------------------------

HEAP_PROBE = """
import sys


class Pad:  # as large as a term or an expression, so it shifts their addresses
    __slots__ = ("kind", "name", "fn", "args", "ind")


pad = [Pad() for _ in range(int(sys.argv[1]))]
from tabsynth import engine, normalize, parser, refine, specfile, synth
ns = normalize.normalize(specfile.preset("ipc"))
calc = refine.attach_ub(synth.synthesize(ns), synth.UbConfig(True, 0))
c = parser.parse_lexpr(calc.signature, "or(impl(p0, q0), impl(q0, p0))", 1)
eng = engine.Engine(calc, ns=ns, node_budget=300, trace=True)
eng.expand(eng.init([(c, False)]))
print("\\n".join(eng.trace))
"""


def test_derivation_independent_of_heap_layout():
    """No order the derivation follows comes from heap addresses, so every
    process derives the same way."""
    # the processes differ only in how many objects precede the import
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(engine.__file__)))
    traces = [subprocess.run([sys.executable, "-c", HEAP_PROBE, str(n)],
                             capture_output=True, text=True, env=env,
                             check=True).stdout
              for n in (0, 3, 13)]
    assert traces[0].startswith("apply ")
    assert traces[1] == traces[0] and traces[2] == traces[0]


# -- verdicts ------------------------------------------------------------------

def test_unsat_by_decomposition_and_closure(so_calc, so_ns):
    v = engine.prove(so_calc, [pc(so_calc, "p0"), pc(so_calc, "not(p0)")],
                     ns=so_ns)
    assert v.kind == "unsat"


def test_sat_on_saturation(so_calc, so_ns):
    v = engine.prove(so_calc, [pc(so_calc, "or(p0, q0)")], ns=so_ns)
    assert v.kind == "sat"
    assert not v.stats["subexpr_violations"]


def test_resource_limit_is_a_verdict(so_blocked, so_ns):
    v = engine.prove(so_blocked, [pc(so_blocked, "exists(r0, p0)")],
                     ns=so_ns, node_budget=3)
    assert v.kind == "limit"


def test_bfs_agrees_with_dfs(so_blocked, so_ns):
    for texts, expected in [(["exists(r0, exists(r0, p0))"], "sat"),
                            (["or(p0, not(p0))"], "sat"),
                            (["or(p0, q0)", "not(p0)", "not(q0)"], "unsat")]:
        for mode in ("dfs", "bfs"):
            v = engine.prove(so_blocked, [pc(so_blocked, t) for t in texts],
                             ns=so_ns, search=mode, node_budget=200000)
            assert v.kind == expected, (texts, mode)


def test_unsat_two_hop_transitivity(so_blocked, so_ns):
    v = engine.prove(so_blocked,
                     [pc(so_blocked, "exists(r0, exists(r0, p0))"),
                      pc(so_blocked, "not(exists(r0, p0))")], ns=so_ns)
    assert v.kind == "unsat"


def test_ipc_validity_and_countermodel(ipc_blocked, ipc_ns):
    v = engine.prove(ipc_blocked, [(pc(ipc_blocked, "impl(p0, p0)"), False)],
                     ns=ipc_ns)
    assert v.kind == "unsat"
    v = engine.prove(ipc_blocked,
                     [(pc(ipc_blocked, "or(impl(p0, q0), impl(q0, p0))"),
                       False)], ns=ipc_ns)
    assert v.kind == "sat"
    m = models.extract_model(v.branch, ipc_ns)
    assert m.size >= 3


def test_blocking_discipline_never_violated(so_blocked, so_ns):
    for text in ("exists(r0, p0)", "exists(r0, exists(r0, p0))",
                 "exists(r0, or(p0, exists(r0, q0)))"):
        eng = engine.Engine(so_blocked, ns=so_ns, node_budget=200000)
        tab = eng.init([pc(so_blocked, text)])
        v = eng.expand(tab)
        assert v.kind == "sat"
        assert eng.c1_violations == []


def test_blocking_suppresses_blocked_term_production(so_blocked):
    # once the younger term is equated with the older one, the pending
    # term-producing instance on it is dropped for good
    eng = engine.Engine(so_blocked)
    tab = eng.init([pc(so_blocked, "exists(r0, p0)")])
    b = tab.root
    # run until the blocking rule has a pair to conjecture
    while True:
        best = eng.collect(b)
        assert best is not None
        kind, rule, fp, binding, extra = best
        if rule.id == "ub":
            succ = eng.apply(tab, b, rule, fp, binding)
            eq_branch = succ[0]
            break
        succ = eng.apply(tab, b, rule, fp, binding,
                         only_den=extra if kind == "unit" else None)
        assert succ and succ[0] is b
    assert eq_branch.blocked
    blocked_term = next(iter(eq_branch.blocked))
    while True:
        best = eng.collect(eq_branch)
        if best is None:
            break
        kind, rule, fp, binding, extra = best
        if kind == "exhausted":
            eng.close_by_exhaustion(eq_branch, rule, fp, binding)
            break
        if rule.produces_terms:
            for prem in rule.premises:
                lit = sx.substitute_literal(prem, binding)
                assert blocked_term not in eng.mode.terms_in_literal(lit)
        eng.apply(tab, eq_branch, rule, fp, binding,
                  only_den=extra if kind == "unit" else None)
        if eq_branch.closed:
            break
    assert eng.c1_violations == []


def test_depth_parameter_delays_blocking(so_blocked, so_ns):
    deep = refine.attach_ub(so_blocked, synth.UbConfig(True, 3))
    v = engine.prove(deep, [pc(deep, "exists(r0, p0)")], ns=so_ns,
                     node_budget=200000)
    assert v.kind == "sat"
    assert v.engine.c1_violations == []


# -- traces --------------------------------------------------------------------

def test_trace_replay(so_blocked, so_ns):
    eng = engine.Engine(so_blocked, ns=so_ns, trace=True, node_budget=200000)
    tab = eng.init([pc(so_blocked, "exists(r0, p0)")])
    v = eng.expand(tab)
    assert v.kind == "sat"
    text = "\n".join(eng.trace)
    steps = engine.replay_trace(so_blocked, [pc(so_blocked, "exists(r0, p0)")],
                                text, ns=so_ns)
    assert steps == sum(1 for l in eng.trace if l.startswith("apply"))


def test_trace_lines_shape(so_calc, so_ns):
    eng = engine.Engine(so_calc, ns=so_ns, trace=True)
    tab = eng.init([pc(so_calc, "p0"), pc(so_calc, "not(p0)")])
    v = eng.expand(tab)
    assert v.kind == "unsat"
    assert any(l.startswith("apply not_pos") for l in eng.trace)
    assert eng.trace[-1].startswith("close branch#")


# -- subexpression property ----------------------------------------------------

def test_subexpression_property_untouched_on_generated_calculus(so_calc, so_ns):
    for text in ("exists(r0, not(or(p0, q0)))", "or(not(p0), exists(r0, q0))"):
        eng = engine.Engine(so_calc, ns=so_ns, node_budget=20000)
        tab = eng.init([pc(so_calc, text)])
        eng.expand(tab)
        assert eng.subexpr_violations == []
