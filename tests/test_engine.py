import hashlib
import heapq
import os
import re
import subprocess
import sys

import pytest

import checkers
from corpus import ipc_formulas, so_concepts
from tabsynth import (calcfile, engine, models, normalize, parser, refine,
                      synth)
from tabsynth import syntax as sx
from test_cli import GOLDEN, _golden_calc_ub


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
    with pytest.raises(sx.TabError, match="no input concepts"):
        engine.Engine(so_calc).init([])


@pytest.mark.parametrize("search", ["BFS", "breadth"])
def test_engine_refuses_unknown_search(so_calc, search):
    # the CLI offers only dfs and bfs, but a caller of the engine may pass
    # any string, and one the engine does not know must not run as dfs
    with pytest.raises(sx.TabError,
                       match=re.escape("search must be dfs or bfs, not %r"
                                       % search)):
        engine.Engine(so_calc, search=search)


def test_init_ill_sorted(so_calc):
    with pytest.raises(sx.TabError, match="inputs must be concepts"):
        engine.Engine(so_calc).init([parser.parse_lexpr(so_calc.signature, "l0")])


# -- matching ------------------------------------------------------------------

def _branch_with(eng, lits):
    b = engine.Branch(0)
    for l in lits:
        b.add(l, eng)
    return b


def _instances(eng, b, rule):
    """The binding of each instance of ``rule`` on ``b``, in discovery
    order: what a round queues with every literal new."""
    b.scan_upto, b.heap = 0, []
    eng._discover(b)
    return [binding for _, _, r, binding, _
            in sorted(b.heap, key=lambda entry: entry[1]) if r is rule]


def _offered(eng, b, rule):
    """The binding of each instance of ``rule`` that ``eng.collect`` offers
    on ``b`` in turn after a round with every literal new; each one offered
    is taken off the heap."""
    b.scan_upto, b.heap, offered = 0, [], []
    while (best := eng.collect(b)) is not None:
        heapq.heappop(b.heap)
        if best[0] is rule:
            offered.append(best[1])
    return offered


def test_or_rule_single_instance(so_calc):
    eng = engine.Engine(so_calc)
    sig = so_calc.signature
    a0 = sx.dconst("a0")
    lit = sx.atom(sx.nu(1), [pc(so_calc, "or(p0, q0)"), a0])
    dp = sx.atom(sx.EQ, [a0, a0])
    b = _branch_with(eng, [lit, dp])
    insts = _instances(eng, b, so_calc.rule("or_pos"))
    assert len(insts) == 1
    binding = insts[0]
    assert binding[sx.lvar(1, "p")].text() == "p0"
    assert binding[sx.lvar(1, "q")].text() == "q0"
    assert binding[sx.dvar("x")] is a0


def test_refined_exists_binds_successor(so_calc):
    refined = refine.refine_rule(so_calc, "exists_neg", [0], drop_dp=True)
    eng = engine.Engine(refined)
    a0, b0 = sx.dconst("a0"), sx.dconst("b0")
    lits = [sx.atom(sx.nu(1), [pc(so_calc, "exists(r0, p0)"), a0]).negate(),
            sx.atom(sx.nu(2), [pc_role(so_calc, "r0"), a0, b0])]
    b = _branch_with(eng, lits)
    insts = _instances(eng, b, refined.rule("exists_neg_1"))
    assert len(insts) == 1
    assert insts[0][sx.dvar("y")] is b0


def pc_role(calc, text):
    return parser.parse_lexpr(calc.signature, text, 2)


def test_applied_instances_are_excluded(so_calc):
    eng = engine.Engine(so_calc)
    a0 = sx.dconst("a0")
    lit = sx.atom(sx.nu(1), [pc(so_calc, "or(p0, q0)"), a0])
    b = _branch_with(eng, [lit])
    rule = so_calc.rule("or_pos")
    binding = _instances(eng, b, rule)[0]
    tab = engine.Tableau(b)
    # each child holds the denominator it took, so the instance asks for
    # nothing there
    succ = eng.apply(tab, b, rule, binding, (0, 1))
    assert len(succ) == 2
    for child in succ:
        assert _offered(eng, child, rule) == []


# -- application ---------------------------------------------------------------

def test_apply_positive_exists_registers_term(so_calc, so_ns):
    eng = engine.Engine(so_calc, ns=so_ns)
    tab = eng.init([pc(so_calc, "exists(r0, p0)")])
    b = tab.root
    rule = so_calc.rule("exists_pos")
    binding = _instances(eng, b, rule)[0]
    succ = eng.apply(tab, b, rule, binding, (0,))
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
    lits = [sx.atom(sx.nu(1), [p0, a0]),
            sx.atom(sx.nu(1), [p0, a0]).negate()]
    b = _branch_with(eng, lits)
    rule = so_calc.rule("closure_nu1")
    binding = _instances(eng, b, rule)[0]
    tab = engine.Tableau(b)
    assert eng.apply(tab, b, rule, binding, ()) == []
    assert b.closed


def test_apply_ub_two_successors(ipc_calc):
    blocked = refine.attach_ub(ipc_calc, synth.UbConfig(True, 0))
    eng = engine.Engine(blocked)
    a0, b0 = sx.dconst("a0"), sx.dconst("b0")
    lits = [sx.atom(sx.EQ, [a0, a0]),
            sx.atom(sx.EQ, [b0, b0])]
    b = _branch_with(eng, lits)
    rule = blocked.rule("ub")
    insts = _instances(eng, b, rule)
    assert len(insts) == 1  # birth-ordered pair a0 < b0, once
    tab = engine.Tableau(b)
    succ = eng.apply(tab, b, rule, insts[0], (0, 1))
    assert [l.text() for l in list(succ[0].literals)[-1:]] == ["eq(a0, b0)"]
    assert [l.text() for l in list(succ[1].literals)[-1:]] == \
        ["not(eq(a0, b0))"]


def test_the_round_is_built_once_per_calculus(monkeypatch, so_refined):
    """A calculus's round is generated on its first solve and kept for the
    engines after it; a calculus from ``attach_ub`` generates its own, and
    only that one queues the blocking rule's pairs.  With ``match_literal``
    as ``syntax`` defines it, only the inline round is ever built."""
    built, compile_round = [], engine._compile_round

    def recorded(calc, counted):
        built.append((calc, counted))
        return compile_round(calc, counted)

    monkeypatch.setattr(engine, "_compile_round", recorded)
    blocked = refine.attach_ub(so_refined, synth.UbConfig(True, 0))
    assert blocked.round == [None, None]
    c = pc(so_refined, "exists(r0, p0)")
    first = engine.prove(blocked, [c], trace=True)
    rnd = blocked.round[False]
    assert built == [(blocked, False)] and rnd is not None
    assert engine.prove(blocked, [c], trace=True).engine.trace == \
        first.engine.trace
    assert built == [(blocked, False)] and blocked.round[False] is rnd
    deeper = refine.attach_ub(so_refined, synth.UbConfig(True, 2))
    engine.prove(deeper, [c])
    assert built == [(blocked, False), (deeper, False)] and \
        deeper.round[False] not in (None, rnd)
    assert any(l.startswith("apply ub ") for l in first.engine.trace)
    unblocked = engine.prove(so_refined, [c], node_budget=200, trace=True)
    assert so_refined.round[False] not in (None, rnd)
    assert not any(l.startswith("apply ub ") for l in unblocked.engine.trace)
    assert {counted for _, counted in built} == {False} and \
        blocked.round[True] is None


def test_a_rule_without_premises_applies_once(so_calc):
    """A theory rule with no premises is queued by the first round: it adds
    its literal once, or closes a branch that contradicts it."""
    p0 = sx.lconst(1, "p0")
    lit = sx.atom(sx.nu(1), [p0, sx.dconst("a0")])
    calc = so_calc.replaced(so_calc.rules + [
        synth.TableauRule("axiom_p0", "theory", [], [[lit]])])
    sat = engine.prove(calc, [sx.lconst(1, "q0")], trace=True)
    assert sat.kind == "sat" and lit in sat.branch.literals
    assert [l for l in sat.engine.trace if "axiom" in l] == \
        ["apply axiom_p0 {} den#0 branch#0 -> branch#0"]
    unsat = engine.prove(calc, [sx.app(so_calc.signature.conns["not"], [p0])],
                         trace=True)
    assert unsat.kind == "unsat"
    assert "apply axiom_p0 {} den#x branch#0 -> branch#0" in unsat.engine.trace


# -- term order ----------------------------------------------------------------

def test_the_reader_reads_only_its_own_literal_kind(so_calc, so_refined):
    """A base calculus reads terms and equalities off its domain literals
    only, an internalized one off its held concepts only, whatever other
    kind of literal a hand-written calculus puts on a branch."""
    a0, b0 = sx.dconst("a0"), sx.dconst("b0")
    i0, i1 = sx.lconst(0, "i0"), sx.lconst(0, "i1")
    deq = sx.atom(sx.EQ, [a0, b0])
    held = sx.atom(sx.HOLDS, [pc(so_refined, "colon(i0, one(i1))")])
    terms_of, eq_pair = engine._reader(so_calc)
    assert terms_of(deq) == [a0, b0] and eq_pair(deq) == (a0, b0)
    assert terms_of(held) == [] and eq_pair(held) is None
    terms_of, eq_pair = engine._reader(so_refined)
    assert terms_of(deq) == [] and eq_pair(deq) is None
    assert terms_of(held) == [i0, i1] and eq_pair(held) == (i0, i1)


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
    assert not v.engine.subexpr_violations


def test_resource_limit_is_a_verdict(so_blocked, so_ns):
    v = engine.prove(so_blocked, [pc(so_blocked, "exists(r0, p0)")],
                     ns=so_ns, node_budget=3)
    assert v.kind == "limit"


@pytest.mark.parametrize("texts", [
    # exists_neg_1's first premise colon(l, not(exists(r, p))) meets the
    # input's own not(exists(r, p)) and must bind r to r, so the rule does
    # not fire on the r0-edge
    ["not(exists(r, p))", "exists(r0, p)"],
    # the nominal l1 is named like the l1 of colon(l, exists(r, one(l1)))
    ["exists(r0, one(l1))", "not(one(l1))"],
])
def test_input_atoms_named_like_rule_variables(so_blocked, so_ns, texts):
    v = engine.prove(so_blocked, [pc(so_blocked, t) for t in texts], ns=so_ns)
    assert v.kind == "sat"


def test_a_rule_without_premises_fires_once():
    # a theory rule for a ground sentence has no premise to match
    with open(os.path.join(GOLDEN, "so_refined.calc"), encoding="utf-8") as fh:
        text = fh.read()
    text += "rule ground [theory]: / colon(i0, not(one(i0)))\n"
    calc = calcfile.parse_calculus(text)
    v = engine.prove(calc, [pc(calc, "p0")], trace=True)
    assert v.kind == "unsat"
    assert [l.split(" {")[0] for l in v.engine.trace] == [
        "apply dp_pos_nu1", "apply ground", "apply closure_nu1", "close branch#0"]


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
        succ = eng.apply(tab, b, *best)
        if best[0].id == "ub":
            eq_branch = succ[0]
            break
        assert succ == [b]
    assert eq_branch.blocked
    blocked_term = next(iter(eq_branch.blocked))
    while True:
        best = eng.collect(eq_branch)
        if best is None:
            break
        rule, binding, dens = best
        if not dens and rule.denominators:
            eng.close_by_exhaustion(eq_branch, rule, binding)
            break
        if rule.produces_terms:
            for prem in rule.premises:
                lit = sx.substitute_literal(prem, binding)
                assert blocked_term not in eng.terms_of(lit)
        eng.apply(tab, eq_branch, *best)
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
    steps = checkers.replay_trace(so_blocked, [pc(so_blocked, "exists(r0, p0)")],
                                  text)
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


# -- generated matchers ----------------------------------------------------------

def _counting_matcher(monkeypatch, record=None):
    """Wrap ``sx.match_literal``, counting attempts and hits, and record
    each (pattern, literal, binding before) when ``record`` is a list."""
    counts = [0, 0]
    generated = sx.match_literal

    def counted(pattern, value, binding):
        counts[0] += 1
        if record is not None:
            record.append((pattern, value, dict(binding)))
        hit = generated(pattern, value, binding)
        counts[1] += hit
        return hit
    monkeypatch.setattr(sx, "match_literal", counted)
    return counts


@pytest.mark.parametrize("calc_name, texts, verdict, apps, attempts, hits", [
    ("so_refined.calc", ["exists(r0, p0)"], "sat", 21, 6452, 1512),
    ("so_refined.calc", ["exists(r0, exists(r0, p0))", "not(exists(r0, p0))"],
     "unsat", 24, 6531, 1436),
    ("so_generated.calc", ["exists(r0, one(l0))"], "sat", 23, 1513, 566),
])
def test_match_attempts_are_pinned(monkeypatch, calc_name, texts, verdict,
                                   apps, attempts, hits):
    """The engine tries the same (premise, literal) pairs as it always has:
    a cheaper matcher or a new loop must not change which it tries."""
    calc = _golden_calc_ub(calc_name)
    counts = _counting_matcher(monkeypatch)
    v = engine.prove(calc, [pc(calc, t) for t in texts])
    assert (v.kind, v.engine.applications) == (verdict, apps)
    assert counts == [attempts, hits]


@pytest.mark.parametrize("logic, index, verdict, apps, attempts, hits", [
    ("so", 10, "sat", 164, 88112, 17569),
    ("so", 11, "sat", 7, 850, 147),
    ("so", 13, "sat", 169, 118298, 23938),
    ("ipc", 3, "sat", 18, 957, 376),
    ("ipc", 8, "unsat", 46, 1775, 741),
    ("ipc", 10, "sat", 37, 2304, 798),
    ("ipc", 36, "unsat", 242, 20083, 4733),
])
def test_breadth_first_search_is_pinned(monkeypatch, so_blocked, ipc_calc,
                                        so_ns, ipc_ns, logic, index, verdict,
                                        apps, attempts, hits):
    """Breadth-first runs on corpus problems where the order of branches
    matters (the refined SO calculus, the unrefined blocked IPC one under
    criterion 8's budget, on which depth-first ends at the cap on 3 and
    10): the same verdicts, applications and match attempts as recorded."""
    if logic == "so":
        calc, ns, budget = so_blocked, so_ns, 10 ** 6
        prob = so_concepts(calc.signature, count=index + 1)[index]
    else:
        calc = refine.attach_ub(ipc_calc, synth.UbConfig(True, 0))
        ns, budget = ipc_ns, 4000
        prob = ipc_formulas(calc.signature, count=index + 1)[index]
    counts = _counting_matcher(monkeypatch)
    v = engine.prove(calc, prob, ns=ns, node_budget=budget, search="bfs")
    assert (v.kind, v.engine.applications) == (verdict, apps)
    assert counts == [attempts, hits]


CORPUS_DIGESTS = {
    ("so", 0, "dfs"):
        "ef86f39bb681ada1243d8cf8f37d21f737bb29643938dc0a619511952d3268de",
    ("so", 0, "bfs"):
        "b3bd345e1bb935829462c06e1e15ad87bc2b684d82c3519ea80e1c25286101d8",
    ("so", 2, "dfs"):
        "b634c5a5ca375eb3802474cbd39dddc0bf2cbc116e23f146f79137619c44fdee",
    ("so", 2, "bfs"):
        "b269d31b766784b80c7d184f541834d5fee166ee6e988a39c736c0dff426bde1",
    ("ipc", 0, "dfs"):
        "7526a9985b9644c2021fa9ae9309124d4120b952c9dd253cd2453c2b9175b76d",
    ("ipc", 0, "bfs"):
        "99bdb7690d450ae5a9b8e9f2761b4a5c9b4fb43261e70752f8fc67d3624f130f",
    ("ipc", 2, "dfs"):
        "55a229f6a5ccd611ab8bd62a7fdfa5e3e68955e62059d314f45795e09d3ce14f",
    ("ipc", 2, "bfs"):
        "3f79af36242af3b96d709b06c361edf48a75400472c87e65833efeb38d67ffd9",
}


@pytest.mark.parametrize("logic, depth, search", CORPUS_DIGESTS)
def test_corpus_derivations_are_pinned(so_refined, ipc_refined, so_ns, ipc_ns,
                                       logic, depth, search):
    """The first 20 corpus problems on the refined calculi under blocking:
    the same verdicts, applications, blocking violations and traces as
    recorded.  Between them the runs split, extend in place, close by a
    closure rule and close by exhaustion."""
    refined, ns, gen = ((so_refined, so_ns, so_concepts) if logic == "so"
                        else (ipc_refined, ipc_ns, ipc_formulas))
    calc = refine.attach_ub(refined, synth.UbConfig(True, depth))
    h = hashlib.sha256()
    for prob in gen(calc.signature, count=20):
        v = engine.prove(calc, prob, ns=ns, node_budget=3000, search=search,
                         trace=True)
        e = v.engine
        h.update(("%s %d %r\n" % (v.kind, e.applications,
                                  e.c1_violations)).encode())
        h.update("\n".join(e.trace).encode() + b"\n\n")
    assert h.hexdigest() == CORPUS_DIGESTS[logic, depth, search]


def _match(pairs, binding):
    """Extend ``binding`` so each (pattern, value) pair of the stack
    ``pairs`` matches, the top pair first: the tree-walking reference."""
    while pairs:
        p, v = pairs.pop()
        if p.kind == "var":
            bound = binding.get(p)
            if bound is None:
                if v.sort != p.sort:
                    return False
                binding[p] = v
            elif bound is not v:
                return False
        elif p.kind == "const":
            if p is not v:
                return False
        elif p.sym is not v.sym:
            return False
        else:
            # no shortcut when p is v: a value may hold variables named as
            # the pattern's, and they must bind like any other
            pairs += zip(reversed(p.args), reversed(v.args))
    return True


def _reference_match(pattern, value, binding):
    """The generic matcher over a literal or an expression: what each
    generated one must do."""
    if type(pattern) is sx.Term:
        return _match([(pattern, value)], binding)
    if pattern.pos != value.pos or pattern.pred != value.pred \
            or len(pattern.args) != len(value.args):
        return False
    return _match(list(zip(reversed(pattern.args), reversed(value.args))),
                  binding)


def _agree(pattern, value, binding):
    """The reference and the generated matcher (``sx.match_expr`` for an
    expression, ``sx.match_literal`` for a literal) on copies of
    ``binding``: the same result, the same binding (in the same order) on
    success, and on failure the generated matcher's copy as it was.
    Returns the result."""
    want, got = dict(binding), dict(binding)
    ok = _reference_match(pattern, value, want)
    generated = sx.match_expr if type(pattern) is sx.Term else sx.match_literal
    assert generated(pattern, value, got) == ok, \
        (pattern.text(), value.text(), binding)
    assert list(got.items()) == list((want if ok else binding).items())
    return ok


def _recorded_runs(so_blocked, so_calc, ipc_calc, so_ns, ipc_ns):
    """A few SO corpus problems (refined) and criterion-8 inputs (unrefined,
    both logics): (calculus, spec, problems, node budget)."""
    return [(so_blocked, so_ns, so_concepts(so_blocked.signature, count=8), 20000),
            (refine.attach_ub(so_calc, synth.UbConfig(True, 0)), so_ns,
             so_concepts(so_calc.signature, count=4), 300),
            (refine.attach_ub(ipc_calc, synth.UbConfig(True, 0)), ipc_ns,
             ipc_formulas(ipc_calc.signature, count=4), 300)]


def test_generated_matchers_agree_with_the_reference(monkeypatch, so_blocked,
                                                     so_calc, ipc_calc, so_ns,
                                                     ipc_ns):
    """Every attempt the engine makes on the recorded runs gives the same
    answer from the generated matcher as from ``_match``."""
    triples = []
    counts = _counting_matcher(monkeypatch, triples)
    runs = _recorded_runs(so_blocked, so_calc, ipc_calc, so_ns, ipc_ns)
    for calc, ns, problems, budget in runs:
        for prob in problems:
            engine.prove(calc, prob, ns=ns, node_budget=budget)
    monkeypatch.undo()
    assert len(triples) == counts[0] > 10000
    hits = sum(_agree(p, v, b) for p, v, b in triples)
    assert hits == counts[1] > 1000


def _instance(rule, binding):
    """An instance as (rule id, slot nodes); nodes are interned, so
    identity is equality."""
    return rule.id, tuple(binding[v] for v in engine._plan(rule).slots)


def _line_sets(monkeypatch):
    """``line(branch)``: a set per branch, empty at a root, that each child
    of a split starts as a copy of its parent's, so that it covers the
    branch's ancestors too."""
    sets, clone = {}, engine.Branch.clone

    def wrapped(self, bid):
        child = clone(self, bid)
        sets[child] = set(sets.get(self, ()))
        return child

    monkeypatch.setattr(engine.Branch, "clone", wrapped)
    return lambda branch: sets.setdefault(branch, set())


def _queued(monkeypatch, check):
    """Run ``check(branch, known, before, entries)`` after every round on
    the recorded runs: ``known`` the instances (see ``_instance``) queued
    on the branch or on its ancestors before the round, which covers those
    waiting on its heap and those applied, ``before`` its ``seen_next``
    then, and ``entries`` the heap entries the round queued (those whose
    discovery number is at least ``before``), in discovery order."""
    discover, line = engine.Engine._discover, _line_sets(monkeypatch)

    def wrapped(self, branch):
        known, before = line(branch), branch.seen_next
        discover(self, branch)
        entries = sorted((e for e in branch.heap if e[1] >= before),
                         key=lambda e: e[1])
        check(branch, known, before, entries)
        known.update(_instance(e[2], e[3]) for e in entries)

    monkeypatch.setattr(engine.Engine, "_discover", wrapped)


def _entries(heap):
    """Heap entries in discovery order, each binding as its items in order."""
    return [(prio, seen, rule, list(binding.items()), terms)
            for prio, seen, rule, binding, terms in sorted(heap,
                                                           key=lambda e: e[1])]


def test_the_inline_and_the_counted_round_queue_the_same_instances(
        monkeypatch, so_blocked, so_calc, ipc_calc, so_ns, ipc_ns):
    """On the recorded runs, each round of a plain run (the inline round)
    queues the same entries as the same round under a counting
    ``match_literal`` (the counted round): priority, discovery number,
    rule, binding in order and terms."""
    pushed = []

    def record(branch, known, before, entries):
        pushed[-1].append(_entries(entries))

    def run_all():
        pushed.append([])
        for calc, ns, problems, budget in runs:
            for prob in problems:
                engine.prove(calc, prob, ns=ns, node_budget=budget)

    _queued(monkeypatch, record)
    runs = _recorded_runs(so_blocked, so_calc, ipc_calc, so_ns, ipc_ns)
    run_all()
    counts = _counting_matcher(monkeypatch)
    run_all()
    inline, counted = pushed
    assert inline == counted
    assert sum(map(len, inline)) > 5000 and counts[0] > 10000


def test_the_inline_round_matches_as_the_counted_round_does():
    """A small calculus whose premises bind a variable of an earlier
    premise, leave the sort of an eq variable open, repeat a variable, hold
    a ground compound subterm, are negative, or take a predicate at another
    arity than the branch's: over two rounds on a growing branch the inline
    round queues what the counted round queues."""
    neg, and_ = sx.Conn("not", (1,), 1), sx.Conn("and", (1, 1), 1)
    sig = sx.LSignature(2, [neg, and_], {1: ("p", "q")}, {1: ("k",)},
                        {"R": 2})
    p, q, p0, q0 = (sx.lvar(1, n) for n in ("p", "q", "p0", "q0"))
    k0, x, y = sx.lconst(1, "k0"), sx.dvar("x"), sx.dvar("y")
    a0, b0, R = sx.dconst("a0"), sx.dconst("b0"), sx.pred("R")

    def nu1(e, t):
        return sx.atom(sx.nu(1), [e, t])

    def eq(s, t):
        return sx.atom(sx.EQ, [s, t])

    rules = [("repeat", [nu1(sx.app(and_, [p, p]), x)]),
             ("join", [nu1(sx.app(and_, [p, q]), x),
                       nu1(sx.app(neg, [p]), x).negate()]),
             ("eq_domain", [eq(x, y)]),
             ("ground", [nu1(sx.app(neg, [k0]), x)]),
             ("arity", [sx.atom(R, [x])]),
             ("pair", [sx.atom(R, [x, y]), eq(y, x)])]
    calc = synth.Calculus("hand", sig, [
        synth.TableauRule(rid, "theory", prems, (), produces_terms=True)
        for rid, prems in rules])
    eng = engine.Engine(calc)
    first = [nu1(sx.app(and_, [p0, p0]), a0), nu1(sx.app(and_, [p0, q0]), a0),
             nu1(sx.app(neg, [p0]), a0), eq(p0, p0), eq(a0, a0),
             sx.atom(R, [a0, b0]), nu1(sx.app(neg, [k0]), a0),
             nu1(sx.app(neg, [p0]), b0)]
    later = [nu1(sx.app(neg, [p0]), a0).negate(),
             nu1(sx.app(neg, [q0]), b0).negate(), eq(b0, a0)]
    branches = [engine.Branch(0), engine.Branch(0)]
    for lits in (first, later):
        for counted, branch in enumerate(branches):
            for lit in lits:
                branch.add(lit, eng)
            engine._compile_round(calc, counted)(branch, False)
    inline, counted = (_entries(b.heap) for b in branches)
    assert inline == counted
    assert [(rule.id, [(v.name, t.text()) for v, t in binding])
            for _, _, rule, binding, _ in inline] == [
        ("repeat", [("p", "p0"), ("x", "a0")]),
        ("eq_domain", [("x", "a0"), ("y", "a0")]),
        ("ground", [("x", "a0")]),
        ("join", [("p", "p0"), ("q", "p0"), ("x", "a0")]),
        ("join", [("p", "p0"), ("q", "q0"), ("x", "a0")]),
        ("eq_domain", [("x", "b0"), ("y", "a0")]),
        ("pair", [("x", "a0"), ("y", "b0")])]


def test_generated_denominators_agree_with_substitution(
        monkeypatch, so_blocked, so_calc, ipc_calc, so_ns, ipc_ns):
    """Every binding a round queues on the recorded runs instantiates each
    denominator of its rule to what ``sx.substitute_literal`` gives."""
    queued = []

    def record(branch, known, before, entries):
        queued.extend((rule, binding) for _, _, rule, binding, _ in entries)

    _queued(monkeypatch, record)
    for calc, ns, problems, budget in _recorded_runs(
            so_blocked, so_calc, ipc_calc, so_ns, ipc_ns):
        for prob in problems:
            eng = engine.Engine(calc, ns=ns, node_budget=budget)
            eng.expand(eng.init(prob))
    monkeypatch.undo()
    kinds = {rule.kind for rule, _ in queued}
    assert len(queued) > 5000 and {"blocking", "theory"} <= kinds
    for rule, binding in queued:
        assert [den(binding) for den in engine._plan(rule).denominators] == \
            [tuple(sx.substitute_literal(l, binding) for l in d)
             for d in rule.denominators], (rule.id, binding)


def test_every_instance_a_join_yields_is_queued(monkeypatch, so_blocked,
                                                so_calc, ipc_calc, so_ns,
                                                ipc_ns):
    """A round queues an instance only when a premise meets a literal added
    since the round before, so on the recorded runs no instance it queues
    is applied or waiting on the branch already, and each one is queued
    once, with consecutive discovery numbers."""
    queued = [0]

    def check(branch, known, before, entries):
        for _, _, rule, binding, _ in entries:
            inst = _instance(rule, binding)
            assert inst not in known
            known.add(inst)
        assert [e[1] for e in entries] == list(range(before, branch.seen_next))
        queued[0] += len(entries)

    _queued(monkeypatch, check)
    for calc, ns, problems, budget in _recorded_runs(
            so_blocked, so_calc, ipc_calc, so_ns, ipc_ns):
        for prob in problems:
            engine.prove(calc, prob, ns=ns, node_budget=budget)
    assert queued[0] > 5000


def test_no_instance_is_applied_twice_on_a_branch_line(
        monkeypatch, so_blocked, so_calc, ipc_calc, so_ns, ipc_ns):
    """The engine keeps no record of the applied instances: ``collect``
    drops one because a denominator it took is on the branch.  So on the
    recorded runs (SAT, UNSAT and node-capped) no instance is applied twice
    on a branch, counting the steps on its ancestors."""
    line, steps = _line_sets(monkeypatch), [0]
    apply, close = engine.Engine.apply, engine.Engine.close_by_exhaustion

    def record(branch, rule, binding):
        inst = _instance(rule, binding)
        assert inst not in line(branch), (branch.bid, inst)
        line(branch).add(inst)
        steps[0] += 1

    def wrapped_apply(self, tableau, branch, rule, binding, dens):
        record(branch, rule, binding)
        return apply(self, tableau, branch, rule, binding, dens)

    def wrapped_close(self, branch, rule, binding):
        record(branch, rule, binding)
        close(self, branch, rule, binding)

    monkeypatch.setattr(engine.Engine, "apply", wrapped_apply)
    monkeypatch.setattr(engine.Engine, "close_by_exhaustion", wrapped_close)
    kinds = set()
    for calc, ns, problems, budget in _recorded_runs(
            so_blocked, so_calc, ipc_calc, so_ns, ipc_ns):
        for prob in problems:
            kinds.add(engine.prove(calc, prob, ns=ns, node_budget=budget).kind)
    assert kinds == {"sat", "unsat", "limit"} and steps[0] > 500


def test_the_store_and_the_index_match_their_definitions(
        monkeypatch, so_blocked, so_calc, ipc_calc, so_ns, ipc_ns):
    """On the recorded SO runs every branch handed to ``collect`` keeps
    each literal's terms as the reader reads them, and files it, with its
    arrival index, under exactly the prefixes of its key path, in order."""
    collect, branches = engine.Engine.collect, [0]

    def wrapped(self, branch):
        index = {}
        for i, (lit, terms) in enumerate(branch.literals.items()):
            assert terms == tuple(self.terms_of(lit)), lit.text()
            path = engine._path(lit)
            for n in range(2, len(path) + 1):
                index.setdefault(path[:n], []).append((lit, i))
        assert branch.index == index
        branches[0] += 1
        return collect(self, branch)

    monkeypatch.setattr(engine.Engine, "collect", wrapped)
    for calc, ns, problems, budget in _recorded_runs(
            so_blocked, so_calc, ipc_calc, so_ns, ipc_ns)[:2]:
        for prob in problems:
            engine.prove(calc, prob, ns=ns, node_budget=budget)
    assert branches[0] > 100


def test_blocking_join_yields_pairs_with_a_new_marker_in_birth_order(ipc_calc):
    blocked = refine.attach_ub(ipc_calc, synth.UbConfig(True, 0))
    eng = engine.Engine(blocked)
    rule = blocked.rule("ub")
    pairs_of = engine._plan(rule).blocking_pairs
    a0, b0, c0, d0 = (sx.dconst(n) for n in ("a0", "b0", "c0", "d0"))
    # births a0 < b0 < c0 < d0; markers c0 (1), b0 (2), a0 (3), d0 (5)
    marker = {t: sx.atom(sx.EQ, [t, t]) for t in (a0, b0, c0, d0)}
    b = _branch_with(eng, [sx.atom(sx.pred("R"), [a0, b0]),
                           marker[c0], marker[b0], marker[a0]])
    b.add(sx.atom(sx.pred("R"), [c0, d0]), eng)
    b.add(marker[d0], eng)
    assert b.markers == {c0: 1, b0: 2, a0: 3, d0: 5}

    def pairs(new_from):
        return [tuple(binding[v] for v in engine._plan(rule).slots)
                for binding in pairs_of(b, new_from)]

    everything = [(a0, b0), (a0, c0), (a0, d0), (b0, c0), (b0, d0), (c0, d0)]
    assert pairs(0) == pairs(1) == pairs(2) == everything
    # (b0, c0) has no marker from index 3 on
    assert pairs(3) == [(a0, b0), (a0, c0), (a0, d0), (b0, d0), (c0, d0)]
    assert pairs(4) == pairs(5) == [(a0, d0), (b0, d0), (c0, d0)]
    assert pairs(6) == []
    succ = eng.apply(engine.Tableau(b), b, rule, next(pairs_of(b, 5)), (0, 1))
    # each child holds eq(a0, d0) or its negation, so (a0, d0) is not offered
    assert len(succ) == 2
    for child in succ:
        assert [tuple(binding[v] for v in engine._plan(rule).slots)
                for binding in _offered(eng, child, rule)] == \
            everything[:2] + everything[3:]


def test_generated_matchers_on_the_hard_cases(so_blocked, so_calc):
    sig, rl = so_calc.signature, checkers.parse_rule_literal
    i0, i1 = sx.lconst(0, "i0"), sx.lconst(0, "i1")
    a0, b0 = sx.dconst("a0"), sx.dconst("b0")
    x, p = sx.dvar("x"), sx.lvar(1, "p")

    def holds(text):
        return sx.atom(sx.HOLDS, [parser.parse_lexpr(
            so_blocked.signature, text, 1)])

    # a repeated variable inside a repeated compound subterm
    congr = so_blocked.rule("congr_fn_sk_exists_0_1").premises[0]
    assert congr.text() == "colon(fex(r, p, l), one(fex(r, p, l)))"
    same = holds("colon(fex(r0, p0, i0), one(fex(r0, p0, i0)))")
    assert _agree(congr, same, {})
    assert not _agree(congr, holds("colon(fex(r0, p0, i0), one(fex(r0, p0, i1)))"), {})
    assert not _agree(congr, same, {sx.lvar(0, "l"): i1})
    # a ground compound subterm is compared whole
    ground = holds("colon(l, or(p, one(i0)))")
    assert _agree(ground, holds("colon(i1, or(p0, one(i0)))"), {})
    assert not _agree(ground, holds("colon(i1, or(p0, one(i1)))"), {})
    assert not _agree(ground, holds("colon(i1, or(p0, not(p0)))"), {})
    # a value holding the pattern's own variables binds them all the same
    own = rl(sig, "nu1(or(p, q), x)")
    assert _agree(own, own, {}) and not _agree(own, own, {p: sx.lvar(1, "q")})
    # a variable of the wrong sort, where only eq leaves the sort open
    assert not _agree(rl(sig, "eq(x, y)"), rl(sig, "eq(p0, q0)"), {})
    assert not _agree(rl(sig, "eq(p, q)"), rl(sig, "eq(a0, b0)"), {})
    assert _agree(rl(sig, "eq(p, q)"), rl(sig, "eq(p0, or(p0, q0))"), {})
    # a negative literal
    neg = rl(sig, "not(nu1(p, x))")
    assert _agree(neg, rl(sig, "not(nu1(p0, a0))"), {})
    assert not _agree(neg, rl(sig, "nu1(p0, a0)"), {})
    assert not _agree(rl(sig, "nu1(p, x)"), rl(sig, "not(nu1(p0, a0))"), {})
    # eq over domain terms, bound before or not
    deq = rl(sig, "eq(x, y)")
    assert _agree(deq, rl(sig, "eq(a0, b0)"), {})
    assert _agree(deq, rl(sig, "eq(a0, b0)"), {x: a0})
    assert not _agree(deq, rl(sig, "eq(a0, b0)"), {x: b0})
    assert _agree(rl(sig, "eq(x, x)"), rl(sig, "eq(a0, a0)"), {})
    assert not _agree(rl(sig, "eq(x, x)"), rl(sig, "eq(a0, b0)"), {})
    # a base-mode nu2 premise, and a Skolem term over it
    nu2 = so_calc.rule("congr_nu2_1").premises[0]
    assert nu2.text() == "nu2(r, x, y)"
    assert _agree(nu2, rl(sig, "nu2(r0, a0, b0)"), {})
    assert not _agree(nu2, rl(sig, "nu2(r0, a0, b0)"), {x: b0})
    assert not _agree(nu2, rl(sig, "not(nu2(r0, a0, b0))"), {})
    sk = so_calc.rule("exists_pos").denominators[0][0]
    value = sx.substitute_literal(sk, {x: a0, p: parser.parse_lexpr(sig, "p0"),
                                       sx.lvar(2, "r"): parser.parse_lexpr(sig, "r0", 2)})
    assert _agree(sk, value, {})
    # expression patterns, as sx.match_expr meets them
    q = sx.lvar(1, "q")

    def e(text, sort=1):
        return parser.parse_lexpr(sig, text, sort)

    # a top-level variable against a value of another sort, bound or not
    assert not _agree(p, e("r0", 2), {})
    assert not _agree(x, e("p0"), {})
    assert not _agree(p, e("r0", 2), {p: e("p0")})
    assert _agree(p, e("or(p0, q0)"), {})
    assert _agree(p, e("p0"), {p: e("p0")})
    assert not _agree(p, e("q0"), {p: e("p0")})
    # a repeated variable
    assert not _agree(e("or(p, p)"), e("or(p0, q0)"), {})
    assert _agree(e("or(p, p)"), e("or(not(p0), not(p0))"), {})
    # a value holding the pattern's own variables binds them all the same
    own = e("or(p, q)")
    assert _agree(own, own, {}) and _agree(own, e("or(q, p)"), {})
    assert not _agree(own, own, {p: q})
    # a ground subterm inside an open pattern is compared whole
    ground = e("or(p, not(one(i0)))")
    assert _agree(ground, e("or(p0, not(one(i0)))"), {})
    assert not _agree(ground, e("or(p0, not(one(i1)))"), {})
    assert not _agree(ground, e("or(p0, one(i0))"), {})
    # ground and atomic patterns, and a symbol the value lacks
    assert _agree(i0, i0, {}) and not _agree(i0, i1, {})
    assert not _agree(i0, e("l0", 0), {})
    assert _agree(e("one(i0)"), e("one(i0)"), {})
    assert not _agree(e("one(i0)"), e("one(l0)"), {})
    assert not _agree(e("not(p)"), e("p0"), {})
    assert not _agree(e("exists(r, p)"), e("or(p0, q0)"), {})
    assert _agree(e("exists(r, p)"), e("exists(r0, not(q0))"), {})


def test_expression_matchers_agree_with_the_reference(monkeypatch, so_blocked,
                                                      so_ns, ipc_ns):
    """Every expression match asked for by the induced ordering on the first
    60 problems of each corpus, by the well-definedness obligations of both
    presets, and by the refined SO prover and its model extraction on the
    first 60 SO problems gives the same answer from the generated matcher
    as from ``_match``."""
    triples = []
    generated = sx.match_expr

    def recorded(pattern, value, binding):
        triples.append((pattern, value, dict(binding)))
        return generated(pattern, value, binding)

    monkeypatch.setattr(sx, "match_expr", recorded)
    ends = []  # the number of triples after each source
    for ns, gen in ((so_ns, so_concepts), (ipc_ns, ipc_formulas)):
        ordering = models.semantics(ns).ordering
        for prob in gen(ns.signature, count=60):
            ordering.lower_sets([c[0] if type(c) is tuple else c for c in prob])
        ends.append(len(triples))
        normalize.emit_wd_obligations(ns)
        ends.append(len(triples))
    extracted = 0  # SAT branches whose extraction matched
    for prob in so_concepts(so_blocked.signature, count=60):
        v = engine.prove(so_blocked, prob, ns=so_ns)
        if v.kind == "sat":
            before = len(triples)
            models.extract_model(v.branch, so_ns, ctx=so_blocked.ctx,
                                 skolems=so_blocked.skolems)
            extracted += len(triples) > before
    monkeypatch.undo()
    ends.append(len(triples))
    sizes = [b - a for a, b in zip([0] + ends, ends)]
    assert extracted > 50 and min(sizes) > 50, (sizes, extracted)
    hits = sum(_agree(p, v, b) for p, v, b in triples)
    assert hits > 3000, hits
