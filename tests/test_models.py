import collections
import gc
import itertools
import random
import weakref

import pytest

import checkers
from corpus import so_concepts
from tabsynth import engine, models, normalize, parser, refine, specfile, synth
from tabsynth import syntax as sx


def pc(spec_or_calc, text, sort=1):
    sig = getattr(spec_or_calc, "signature", spec_or_calc)
    return parser.parse_lexpr(sig, text, sort)


def _label(sem, m, exprs, table=None):
    """Label ``m`` on the closure of ``exprs`` under the induced ordering:
    an atom gets its relation in ``m.nu``, an individual its nu0 element,
    and a compound its extension by ``sem.plan`` and ``sem.label_steps``,
    read from ``table`` (the ``sem.table`` of ``m``'s size and frame) or
    worked out into it; a fresh table when None."""
    lower = sem.ordering.lower_sets(exprs)
    for e in lower:
        if e.kind == "app":
            continue
        m.labels[e] = (m.nu0.get(e) if e.sort == 0 else
                       models._mask([t for a, t in m.nu.get(e.sort, ())
                                     if a is e], m.size))
    steps, = sem.plan(lower, ())
    sem.label_steps(m, steps, collections.defaultdict(dict)
                    if table is None else table)


# -- extraction ----------------------------------------------------------------

def test_extract_model_quotients_equalities(so_ns, so_spec):
    a0, b0 = sx.dconst("a0"), sx.dconst("b0")
    p0 = pc(so_spec, "p0")
    lits = [sx.atom(sx.nu(1), [p0, a0]),
            sx.atom(sx.EQ, [a0, b0]),
            sx.atom(sx.EQ, [a0, a0]),
            sx.atom(sx.EQ, [b0, b0])]
    m = models.extract_model(lits, so_ns)
    assert m.size == 1
    assert m.holds(1, p0, (0,))


def test_extract_model_numbers_classes_by_first_occurrence(so_ns, so_spec):
    a0, b0, c0, d0 = (sx.dconst(n) for n in ("a0", "b0", "c0", "d0"))
    p0, q0 = pc(so_spec, "p0"), pc(so_spec, "q0")
    # terms first occur as b0, a0, d0, c0; the chain joins b0 to d0, then d0
    # to c0, so b0's class is represented by a term that occurs after it
    lits = [sx.atom(sx.nu(1), [p0, b0]),
            sx.atom(sx.nu(1), [q0, a0]),
            sx.atom(sx.EQ, [d0, b0]),
            sx.atom(sx.EQ, [c0, d0])]
    m = models.extract_model(lits, so_ns)
    assert list(m.term_class.items()) == [(b0, 0), (a0, 1), (d0, 0), (c0, 0)]
    assert m.dconsts == {"b0": 0, "a0": 1, "d0": 0, "c0": 0}
    assert m.format() == "domain: e0 e1\nnu1 p0: e0\nnu1 q0: e1\n"
    assert models.verify_reflection(m, lits) == []


def test_detranslate_keeps_each_reading_once(so_blocked):
    sig = so_blocked.signature
    one, p = (sx.literal(True, sx.HOLDS, [pc(sig, t)])
              for t in ("colon(i0, one(i1))", "colon(i1, p0)"))
    i0, i1 = (sx.nu0(pc(sig, t, 0)) for t in ("i0", "i1"))
    # a concept held twice reads as it did the first time, at that position:
    # its d reading, then its c reading
    lits = models.detranslate([one, p, one], so_blocked.ctx,
                              so_blocked.skolems)
    assert lits == [sx.atom(sx.EQ, [i0, i1]),
                    sx.atom(sx.nu(1), [pc(sig, "one(i1)"), i0]),
                    sx.atom(sx.nu(1), [pc(sig, "p0"), i1])]


def test_extract_model_refuses_closed_branch(so_calc, so_ns):
    eng = engine.Engine(so_calc, ns=so_ns)
    tab = eng.init([pc(so_calc, "p0"), pc(so_calc, "not(p0)")])
    v = eng.expand(tab)
    assert v.kind == "unsat"
    closed = tab.root
    assert closed.closed
    with pytest.raises(sx.TabError, match="closed branch"):
        models.extract_model(closed, so_ns)


def test_extraction_partition_is_congruence(so_blocked, so_ns):
    v = engine.prove(so_blocked,
                     [pc(so_blocked, "exists(r0, p0)"),
                      pc(so_blocked, "exists(r0, not(p0))")],
                     ns=so_ns, node_budget=200000)
    assert v.kind == "sat"
    lits = models.detranslate(v.branch.literals, so_blocked.ctx,
                              so_blocked.skolems)
    m = models.extract_model(v.branch, so_ns, ctx=so_blocked.ctx,
                             skolems=so_blocked.skolems)
    for lit in lits:
        if lit.pos and lit.pred[0] == "eq" and lit.args[0].sort == sx.DOMAIN:
            assert m.term_class[lit.args[0]] == m.term_class[lit.args[1]]
    # function literals place images in one class
    for fname, graph in m.funs.items():
        assert len({k: v for k, v in graph.items()}) == len(graph)
    # a context is read through the calculus's skolems, never without them
    with pytest.raises(sx.TabError):
        models.extract_model(v.branch, so_ns, ctx=so_blocked.ctx)
    with pytest.raises(sx.TabError):
        models.verify_reflection(m, v.branch, ctx=so_blocked.ctx)


# -- evaluation ----------------------------------------------------------------

def test_evaluate_disjunction_at_point(so_spec):
    m = models.LStructure(1, spec=so_spec)
    m.nu[1] = {(pc(so_spec, "p0"), (0,))}
    f = checkers.parse_formula(so_spec.signature, "nu1(or(p0, q0), x)")
    assert models.evaluate(m, f, {sx.dvar("x"): 0})
    g = checkers.parse_formula(so_spec.signature, "nu1(or(q0, q0), x)")
    assert not models.evaluate(m, g, {sx.dvar("x"): 0})


def test_negative_leaves_evaluate_to_the_negation(so_spec, so_ns):
    # the reference evaluator and the compiled semantics read a literal's
    # sign as a not formula over its positive twin
    m = models.LStructure(2, spec=so_spec)
    m.nu[1] = {(pc(so_spec, "p0"), (0,))}
    x = sx.dvar("x")
    sem = models.semantics(so_ns)
    _label(sem, m, [pc(so_spec, "not(p0)")])
    for text in ("nu1(p0, x)", "nu1(not(p0), x)", "eq(x, x)", "eq(p0, q0)",
                 "false"):
        lit = checkers.parse_formula(so_spec.signature, text)
        assert lit.pos
        for e in range(m.size):
            want = models.evaluate(m, lit, {x: e})
            for f in (lit.negate(), sx.formula("not", (lit,))):
                assert models.evaluate(m, f, {x: e}) == (not want)
                assert models._compile(f, (), (x,))(m, (), (e,)) == (not want)


def test_evaluate_transitivity_no_chain(so_spec, so_ns):
    m = models.LStructure(2, spec=so_spec)
    m.nu[2] = {(pc(so_spec, "r0", 2), (0, 1))}
    assert models.evaluate(
        m, sx.substitute_formula(so_ns.sb[0],
                                 {sx.lvar(2, "r"): pc(so_spec, "r0", 2)}))


def test_evaluate_persistence_violation(ipc_spec, ipc_ns):
    m = models.LStructure(2, spec=ipc_spec)
    m.preds["R"] = {(0, 0), (1, 1), (0, 1)}
    m.nu[1] = {(pc(ipc_spec, "p0"), (0,))}  # true below, false above
    persistence = ipc_ns.sb[3]
    inst = sx.substitute_formula(persistence,
                                 {sx.lvar(1, "p"): pc(ipc_spec, "p0")})
    assert not models.evaluate(m, inst)


def test_evaluate_unassigned_variable(so_spec):
    m = models.LStructure(1, spec=so_spec)
    f = checkers.parse_formula(so_spec.signature, "nu1(p0, x)")
    with pytest.raises(sx.TabError, match="no value for domain term x"):
        models.evaluate(m, f, {})


# -- reflection ----------------------------------------------------------------

def test_reflection_passes_on_saturated_branches(so_blocked, so_ns):
    v = engine.prove(so_blocked, [pc(so_blocked, "exists(r0, p0)")],
                     ns=so_ns, node_budget=200000)
    m = models.extract_model(v.branch, so_ns, ctx=so_blocked.ctx,
                             skolems=so_blocked.skolems)
    assert models.verify_reflection(m, v.branch, ctx=so_blocked.ctx,
                                    skolems=so_blocked.skolems) == []


# SO generator seed 1, problem 131: its extracted model once failed
# reflection with ``nu0(l0)`` unassigned
SO_SEED_1_131 = ["or(or(one(l0), p0), or(p0, q0))", "p0"]


@pytest.mark.parametrize("calc_name", ["so_blocked", "so_calc"])
@pytest.mark.parametrize("problem", [["or(one(l0), p0)", "p0"], SO_SEED_1_131])
def test_reflection_places_undecomposed_individuals(request, so_ns, calc_name,
                                                    problem):
    # l0 occurs only in a disjunct the branch satisfies through p0, so no
    # branch term places it; one(l0) still needs nu0(l0) to evaluate
    calc = request.getfixturevalue(calc_name)
    v = engine.prove(calc, [pc(calc, t) for t in problem], ns=so_ns,
                     node_budget=200000)
    assert v.kind == "sat"
    m = models.extract_model(v.branch, so_ns, ctx=calc.ctx, skolems=calc.skolems)
    assert m.size == 1
    assert m.nu0[pc(calc, "l0", 0)] == 0
    assert models.verify_reflection(m, v.branch, ctx=calc.ctx,
                                    skolems=calc.skolems) == []


def test_so_seed_1_problem_131_is_satisfiable(so_ns, so_spec):
    """The problem the reflection test above pins, as the SO generator draws
    it at seed 1, is satisfiable by the oracle too."""
    problem = so_concepts(so_spec.signature, seed=1, count=132)[131]
    assert [c.text() for c in problem] == SO_SEED_1_131
    res, m = models.brute_force_sat(so_ns, problem, 3)
    assert res == "sat" and m.size == 1


def test_reflection_detects_missing_fact(so_ns, so_spec):
    a0 = sx.dconst("a0")
    p0 = pc(so_spec, "p0")
    lits = [sx.atom(sx.nu(1), [p0, a0])]
    m = models.extract_model(lits, so_ns)
    m.nu[1] = set()  # drop the fact
    m._memo.clear()
    violations = models.verify_reflection(m, lits)
    assert len(violations) == 1


def test_background_holds_in_extracted_models(so_blocked, so_ns):
    v = engine.prove(so_blocked,
                     [pc(so_blocked, "exists(r0, exists(r0, q0))")],
                     ns=so_ns, node_budget=200000)
    assert v.kind == "sat"
    m = models.extract_model(v.branch, so_ns, ctx=so_blocked.ctx,
                             skolems=so_blocked.skolems)
    r0 = pc(so_blocked, "r0", 2)
    inst = sx.substitute_formula(so_ns.sb[0], {sx.lvar(2, "r"): r0})
    assert models.evaluate(m, inst)


# -- the known-incomplete fold (regression) -------------------------------------

def test_ke_style_fold_is_incomplete(so_calc, so_ns):
    ke = refine.refine_rule(so_calc, "or_pos", [0], drop_dp=True, unsafe=True)

    v = engine.prove(ke, [pc(so_calc, "or(p, q)")], ns=so_ns)
    assert v.kind == "sat"
    m = models.extract_model(v.branch, so_ns)
    p, q = pc(so_calc, "p"), pc(so_calc, "q")
    a_class = m.term_class[sx.dconst("a0")]
    assert not m.holds(1, p, (a_class,))
    assert not m.holds(1, q, (a_class,))

    inputs = [pc(so_calc, "or(not(p), not(q))"), pc(so_calc, "p"),
              pc(so_calc, "q")]
    v = engine.prove(ke, inputs, ns=so_ns)
    assert v.kind == "sat"  # saturates open although the set is unsatisfiable
    res, _ = models.brute_force_sat(so_ns, inputs, 3)
    assert res == "unsat"


# -- brute force oracle ----------------------------------------------------------

def test_oracle_ipc_valid_formula(ipc_ns, ipc_spec):
    res, m = models.brute_force_sat(
        ipc_ns, [(pc(ipc_spec, "impl(p0, p0)"), False)], 2)
    assert res == "unsat" and m is None


def test_oracle_so_two_hop(so_ns, so_spec):
    res, _ = models.brute_force_sat(
        so_ns, [pc(so_spec, "exists(r0, exists(r0, p0))"),
                pc(so_spec, "not(exists(r0, p0))")], 3)
    assert res == "unsat"


def test_oracle_ipc_fork(ipc_ns, ipc_spec):
    res, m = models.brute_force_sat(
        ipc_ns, [(pc(ipc_spec, "or(impl(p0, q0), impl(q0, p0))"), False)], 3)
    assert res == "sat"
    assert m.size == 3
    inst = sx.substitute_formula(ipc_ns.sb[3],
                                 {sx.lvar(1, "p"): pc(ipc_spec, "p0")})
    assert models.evaluate(m, inst)


def _is_partial_order(rel, size):
    """Whether ``rel`` is reflexive, antisymmetric and transitive on
    range(size)."""
    return all((x, x) in rel for x in range(size)) and all(
        (y, x) not in rel for x, y in rel if x != y) and all(
        (x, z) in rel for x, y in rel for y2, z in rel if y == y2)


def _labelled_partial_orders(size):
    """Every partial order on range(size), found by testing each set of
    off-diagonal pairs."""
    diag = {(x, x) for x in range(size)}
    off = [(x, y) for x in range(size) for y in range(size) if x != y]
    for bits in range(2 ** len(off)):
        rel = diag | {pair for i, pair in enumerate(off) if bits >> i & 1}
        if _is_partial_order(rel, size):
            yield frozenset(rel)


def _swept_frames(runs, preds, size):
    """The reference for models._frame_assignments: every combination of
    relations in _subsets order is tested against the sentences, and the
    first of each class under permutations fixing element 0 is kept."""
    spaces = [list(models._subsets(list(itertools.product(range(size),
                                                          repeat=n))))
              for _, n in preds]
    perms = [(0,) + rest for rest in itertools.permutations(range(1, size))]
    out, seen = [], set()
    probe = models.LStructure(size)
    for combo in itertools.product(*spaces):
        if combo in seen:
            continue
        probe.preds = {p: set(v) for (p, _), v in zip(preds, combo)}
        if all(run(probe) for run in runs):
            out.append({p: frozenset(v) for (p, _), v in zip(preds, combo)})
            seen.update(tuple(tuple(sorted(tuple(pi[e] for e in t) for t in v))
                              for v in combo)
                        for pi in perms)
    return out


_FRAME_SPEC = """sorts 2
vars 1 p
%s
connective c 1 -> 1
define forall x. nu1(c(p), x) <-> %s
%s
"""

# each reaches a path of the frame search that IPC does not
FRAME_SPECS = {
    "existential": ("predicate R 2",
                    "exists y. and(R(x, y), nu1(p, y))",
                    "axiom forall x. exists y. R(x, y)"),
    "no-tuple-read": ("predicate R 2",
                      "forall y. implies(R(x, y), nu1(p, y))",
                      "axiom forall x. forall y. eq(x, y)"),
    "unary-and-binary": ("predicate P 1\npredicate R 2",
                         "and(P(x), exists y. and(R(x, y), nu1(p, y)))",
                         "axiom forall x. forall y. "
                         "implies(and(P(x), R(x, y)), P(y))"),
    "unconstrained": ("predicate Q 1\npredicate R 2",
                      "and(Q(x), exists y. and(R(x, y), nu1(p, y)))",
                      "axiom forall x. R(x, x)"),
    # a conjunction under two existentials: distributed into clauses it
    # would give 3 ** (size * size) clauses per element
    "nested-existential": ("predicate P 1\npredicate R 2",
                           "exists y. and(R(x, y), nu1(p, y))",
                           "axiom forall x. forall y. "
                           "implies(R(x, y), eq(x, y))\n"
                           "axiom forall x. exists y. exists z. "
                           "and(R(x, y), and(R(y, z), P(z)))"),
    # a negated eq and a negated false: R is irreflexive
    "irreflexive": ("predicate R 2",
                    "exists y. and(R(x, y), nu1(p, y))",
                    "axiom forall x. forall y. "
                    "implies(R(x, y), not(or(eq(x, y), false)))"),
    # a negated equivalence: R is symmetric
    "symmetric": ("predicate R 2",
                  "forall y. implies(R(x, y), nu1(p, y))",
                  "axiom forall x. forall y. not(iff(R(x, y), not(R(y, x))))"),
}


def _frame_plan(ns):
    sem = models.semantics(ns)
    return sem.frame, sem.preds


def test_oracle_frames_match_the_swept_reference(ipc_ns, ipc_spec, so_ns):
    *frame, _ = ipc_spec.axioms
    variant = normalize.normalize(specfile.SemanticSpec(
        "ipc-", ipc_spec.signature, ipc_spec.definitions, frame,
        ipc_spec.directed))
    cases = [(ipc_ns, size) for size in (1, 2, 3, 4)] + [(variant, 4)]
    cases += [(so_ns, size) for size in (1, 2, 3)]
    specs = {}
    for name, (decls, body, axiom) in FRAME_SPECS.items():
        ns = specs[name] = normalize.normalize(specfile.parse_spec(
            _FRAME_SPEC % (decls, body, axiom), name))
        cases += [(ns, size) for size in (1, 2, 3)]
    kept = {}
    for ns, size in cases:
        sentences, preds = _frame_plan(ns)
        runs = [models.semantics(ns).sentence(f)[1] for f in sentences]
        got = models._frame_assignments(sentences, preds, size)
        assert got == _swept_frames(runs, preds, size), (ns.spec.name, size)
        kept[ns.spec.name, size] = got
    # no frame once eq fails; Q free beside the 4 reflexive R at size 2
    assert kept["no-tuple-read", 1] and not kept["no-tuple-read", 2]
    assert len(kept["unconstrained", 2]) == 16
    # R is the identity and P holds everywhere, at every size
    assert [len(kept["nested-existential", size]) for size in (1, 2, 3)] \
        == [1, 1, 1]
    assert len(models._frame_assignments(
        *_frame_plan(specs["nested-existential"]), 5)) == 1
    # symmetric relations up to permutations fixing element 0
    assert [len(kept["symmetric", size]) for size in (1, 2, 3)] == [2, 8, 40]


@pytest.mark.parametrize("size, labelled, classes",
                         [(1, 1, 1), (2, 3, 3), (3, 19, 11), (4, 219, 47),
                          (5, 4231, 243)])
def test_oracle_frames_one_per_class_fixing_element_0(ipc_ns, size, labelled,
                                                      classes):
    sentences = [f for f in ipc_ns.sb if not sx.lvars(f)
                 and not any(True for _ in sx.lexprs_of_formula(f))]
    kept = [frame["R"] for frame in
            models._frame_assignments(sentences, [("R", 2)], size)]
    assert len(kept) == classes
    perms = [(0,) + p for p in itertools.permutations(range(1, size))]

    def images(rel):
        return [frozenset((pi[x], pi[y]) for x, y in rel) for pi in perms]

    # the kept frames are partial orders in distinct classes, which cover
    # the labelled partial orders (OEIS A001035)
    assert all(_is_partial_order(k, size) for k in kept)
    orbits = [set(images(k)) for k in kept]
    assert len(set().union(*orbits)) == sum(map(len, orbits)) == labelled
    if size < 5:  # 2 ** 20 off-diagonal sets at size 5: too many to sweep
        orders = list(_labelled_partial_orders(size))
        assert len(orders) == labelled
        assert set(kept) <= set(orders)
        for rel in orders:
            assert sum(k in images(rel) for k in kept) == 1
    # the enumeration goes by the number of pairs, then lexicographically
    for k in kept:
        assert min(images(k), key=lambda r: (len(r), sorted(r))) == k


def test_oracle_caches_are_per_specification(ipc_ns, ipc_spec):
    # IPC without persistence: the same frames, and every relation admissible
    *frame, persistence = ipc_spec.axioms
    assert sx.lvars(persistence) == [sx.lvar(1, "p")]
    variant = normalize.normalize(specfile.SemanticSpec(
        "ipc-", ipc_spec.signature, ipc_spec.definitions, frame,
        ipc_spec.directed))
    sem, other = models.semantics(ipc_ns), models.semantics(variant)
    for size in (1, 2, 3):
        assert other.frames(size) == sem.frames(size)
        assert sem.frames(size) is sem.frames(size)
        assert other.relations(size, 0, 1) == [
            models._mask(rel, size)
            for rel in models._subsets(list(itertools.product(range(size))))]
    # valid only where truth persists along R
    k = [(pc(ipc_spec, "impl(p0, impl(q0, p0))"), False)]
    assert models.brute_force_sat(ipc_ns, k, 3) == ("unsat", None)
    res, m = models.brute_force_sat(variant, k, 3)
    assert res == "sat" and m.size == 2
    assert models.brute_force_sat(ipc_ns, k, 3) == ("unsat", None)


def test_oracle_state_is_freed_with_its_specification(ipc_spec):
    ns = normalize.normalize(ipc_spec)
    k = [(pc(ipc_spec, "impl(p0, p0)"), False)]
    assert models.brute_force_sat(ns, k, 3) == ("unsat", None)
    sem = weakref.ref(models.semantics(ns))
    del ns
    gc.collect()
    assert sem() is None


def test_oracle_carrier_cap(so_ns, so_spec):
    # not^n(p0) has a closure of n + 1 expressions
    def nots(n):
        return pc(so_spec, "not(" * n + "p0" + ")" * n)

    res, _ = models.brute_force_sat(so_ns, [nots(models.CARRIER_CAP - 1)], 1)
    assert res == "sat"
    with pytest.raises(models.CarrierTooLarge, match="65 expressions"):
        models.brute_force_sat(so_ns, [nots(models.CARRIER_CAP)], 1)


def test_oracle_respects_nominals(so_ns, so_spec):
    res, m = models.brute_force_sat(
        so_ns, [pc(so_spec, "one(l0)"), pc(so_spec, "not(one(l0))")], 2)
    assert res == "unsat"


def _assert_labels_agree(sem, m, exprs, table):
    """Label ``m`` on the closure of ``exprs`` through ``table``; every label
    must agree with the reference at every tuple."""
    _label(sem, m, exprs, table)
    m._memo.clear()
    for e in sem.ordering.lower_sets(exprs):
        if e.sort == 0:
            assert m.labels[e] == m.nu0[e]
            continue
        for i, t in enumerate(itertools.product(range(m.size), repeat=e.sort)):
            assert bool(m.labels[e] >> i & 1) == m.holds(e.sort, e, t), \
                (e.text(), t)


# per preset, two problems whose compounds share connectives, and so table
# entries, without being the same expressions
TABLE_PROBLEMS = {
    "ipc": (["impl(and(p0, q0), or(q0, bot))", "impl(impl(p0, q0), p0)"],
            ["and(impl(q0, p0), or(p0, impl(p0, bot)))", "or(q0, p0)"]),
    "so": (["exists(r0, or(one(l0), not(p0)))", "not(exists(r0, one(l0)))"],
           ["or(one(l0), exists(r0, not(q0)))", "or(not(q0), p0)"]),
}


@pytest.mark.parametrize("preset, sizes", [("ipc", (1, 2, 3)), ("so", (1, 2))])
def test_oracle_tables_agree_with_the_reference(request, preset, sizes):
    spec = request.getfixturevalue(preset + "_spec")
    sem = models.semantics(normalize.normalize(spec))  # tables of its own
    problems = [[pc(spec, t) for t in texts] for texts in TABLE_PROBLEMS[preset]]
    rng = random.Random(20261019)
    reused = 0
    for size in sizes:
        for k, frame in enumerate(sem.frames(size)):
            table = sem.table(size, k)
            for _ in range(4):
                for exprs in problems:
                    closure = sem.ordering.lower_sets(exprs)
                    atoms = [e for e in closure if e.sort >= 1 and e.kind != "app"]
                    individuals = [e for e in closure if e.sort == 0]
                    m = models.LStructure(size, spec=spec)
                    m.preds = {p: set(v) for p, v in frame.items()}
                    for a in atoms:
                        mask = rng.choice(sem.relations(size, k, a.sort))
                        m.nu.setdefault(a.sort, set()).update(
                            (a, t) for i, t in enumerate(itertools.product(
                                range(size), repeat=a.sort)) if mask >> i & 1)
                    # every nu0 assignment in one frame, so one(l0) keys on
                    # its individual's element
                    for nu0 in itertools.product(range(size),
                                                 repeat=len(individuals)):
                        m.nu0 = dict(zip(individuals, nu0))
                        before = sum(map(len, table.values()))
                        _assert_labels_agree(sem, m, exprs, table)
                        added = sum(map(len, table.values())) - before
                        reused += sum(e.kind == "app" for e in closure) - added
    assert reused > 0


def test_oracle_tables_key_what_a_definition_reads():
    # c compares its arguments as objects, so c(p0, p0) and c(p0, q0) differ
    # even where p0 and q0 hold at the same elements; d never reads q, so
    # q0 is outside the closure of d(p0, q0)
    ns = normalize.normalize(specfile.parse_spec(
        "sorts 2\nvars 1 p q\nconnective c 1 1 -> 1\nconnective d 1 1 -> 1\n"
        "define forall x. nu1(c(p, q), x) <-> and(eq(p, q), nu1(p, x))\n"
        "define forall x. nu1(d(p, q), x) <-> nu1(p, x)\n"))
    sem = models.semantics(ns)
    same, other = pc(ns.spec, "c(p0, p0)"), pc(ns.spec, "c(p0, q0)")
    table = sem.table(1, 0)
    m = models.LStructure(1, spec=ns.spec)
    m.nu[1] = {(pc(ns.spec, "p0"), (0,)), (pc(ns.spec, "q0"), (0,))}
    for exprs in ([same], [other], [same]):
        _assert_labels_agree(sem, m, exprs, table)
    assert (m.labels[same], m.labels[other]) == (1, 0)
    assert models.brute_force_sat(ns, [same, other], 2) == ("unsat", None)
    res, m = models.brute_force_sat(ns, [pc(ns.spec, "d(p0, q0)")], 2)
    assert res == "sat" and m.format() == "domain: e0\nnu1 p0: e0\n"
    # d reads the constant k0, and c reads it through d(p): the key of
    # c(p0) must change with k0's relation, though c's head names only p
    ns = normalize.normalize(specfile.parse_spec(
        "sorts 2\nvars 1 p\nconsts 1 k\nconnective c 1 -> 1\n"
        "connective d 1 -> 1\n"
        "define forall x. nu1(d(p), x) <-> and(nu1(p, x), nu1(k0, x))\n"
        "define forall x. nu1(c(p), x) <-> nu1(d(p), x)\n"))
    sem = models.semantics(ns)
    k0, p0 = pc(ns.spec, "k0"), pc(ns.spec, "p0")
    table = sem.table(1, 0)
    for head in ("d", "c"):
        e = pc(ns.spec, head + "(p0)")
        for k0_holds in (False, True, False):
            m = models.LStructure(1, spec=ns.spec)
            m.nu[1] = {(p0, (0,))} | ({(k0, (0,))} if k0_holds else set())
            _assert_labels_agree(sem, m, [e], table)
            assert m.labels[e] == k0_holds
        # atoms are searched k0 first: k0 empty, then k0 = {e0}
        assert models.brute_force_sat(ns, [(e, False), k0, p0], 1) == \
            ("unsat", None)


def test_oracle_checks_read_beyond_the_carrier():
    # the directed sentence reads c(p0), and the axiom k0: neither is in the
    # closure of p0, and an atom outside it holds nowhere
    ns = normalize.normalize(specfile.parse_spec(
        "sorts 2\nvars 1 p\nconsts 1 k\nconnective c 1 -> 1\n"
        "define forall x. nu1(c(p), x) <-> nu1(p, x)\n"
        "define+ forall x. nu1(c(p), x) -> false\n"))
    p0 = pc(ns.spec, "p0")
    assert models.brute_force_sat(ns, [p0], 2) == ("unsat", None)
    res, m = models.brute_force_sat(ns, [(p0, False)], 2)
    assert res == "sat" and m.format() == "domain: e0\n"
    axiom = normalize.normalize(specfile.parse_spec(
        "sorts 2\nvars 1 p\nconsts 1 k\nconnective c 1 -> 1\n"
        "define forall x. nu1(c(p), x) <-> nu1(p, x)\n"
        "axiom forall x. nu1(k0, x)\n"))
    assert models.brute_force_sat(axiom, [p0], 2) == ("unsat", None)
    res, m = models.brute_force_sat(axiom, [pc(axiom.spec, "c(k0)")], 2)
    assert res == "sat" and m.format() == "domain: e0\nnu1 k0: e0\n"


# -- agreement and the independent evaluator -------------------------------------

def _reference_eval(m, f, val):
    """Independently coded evaluator: ground all quantifiers and unfold all
    compound expressions eagerly, then evaluate the ground tree."""
    def ground(g, env):
        op = getattr(g, "op", None)
        if op == "forall":
            return ("and", [ground(g.subs[0], {**env, g.var: e})
                            for e in range(m.size)])
        if op == "exists":
            return ("or", [ground(g.subs[0], {**env, g.var: e})
                           for e in range(m.size)])
        if op in ("not", "and", "or"):
            return (op, [ground(s, env) for s in g.subs])
        if op == "implies":
            return ("or", [("not", [ground(g.subs[0], env)]),
                           ground(g.subs[1], env)])
        if op == "iff":
            l, r = (ground(s, env) for s in g.subs)
            return ("or", [("and", [l, r]), ("and", [("not", [l]),
                                                     ("not", [r])])])
        a = g
        if a.pred[0] == "false":
            return ("const", False)
        if a.pred[0] == "eq":
            x, y = (m.eval_term(t, env) for t in a.args)
            return ("const", x == y)
        if a.pred[0] == "pred":
            tup = tuple(m.eval_term(t, env) for t in a.args)
            return ("const", tup in m.preds.get(a.pred[1], ()))
        expr = a.args[0]
        elems = tuple(m.eval_term(t, env) for t in a.args[1:])
        if expr.kind != "app":
            return ("const", (expr, elems) in m.nu.get(a.pred[1], ()))
        d = m.spec.definition_of(expr.name)
        lsub = dict(zip(d.head_atom.args[0].args, expr.args))
        body = sx.substitute_formula(d.body, lsub)
        env2 = dict(zip(d.dom_vars, elems))
        return ground(body, env2)

    def run(node):
        tag, kids = node
        if tag == "const":
            return kids
        if tag == "not":
            return not run(kids[0])
        if tag == "and":
            return all(run(k) for k in kids)
        return any(run(k) for k in kids)

    return run(ground(f, dict(val)))


def _random_structure(rng, spec, size):
    m = models.LStructure(size, spec=spec)
    p0, q0 = pc(spec, "p0"), pc(spec, "q0")
    m.nu[1] = {(a, (e,)) for a in (p0, q0)
               for e in range(size) if rng.random() < 0.5}
    pairs = list(itertools.product(range(size), repeat=2))
    if spec.name == "so":
        m.nu[2] = {(pc(spec, "r0", 2), t) for t in pairs if rng.random() < 0.5}
        m.nu0[pc(spec, "l0", 0)] = rng.randrange(size)
    else:
        m.preds["R"] = {t for t in pairs if rng.random() < 0.5}
    return m


# leaves of random formulas: concepts read at x, and an atom relating x and y
SO_LEAVES = (["p0", "q0", "or(p0, q0)", "not(p0)", "exists(r0, q0)",
              "one(l0)"], "nu2(r0, x, y)")
IPC_LEAVES = (["p0", "q0", "and(p0, q0)", "or(p0, bot)", "impl(p0, q0)",
               "impl(impl(p0, q0), p0)"], "R(x, y)")


def _random_formula(rng, spec, depth, leaves=SO_LEAVES):
    sig = spec.signature
    exprs, binary = leaves
    if depth == 0 or rng.random() < 0.35:
        roll = rng.random()
        if roll < 0.6:
            return checkers.parse_formula(sig, "nu1(%s, x)" % rng.choice(exprs))
        if roll < 0.8:
            return checkers.parse_formula(sig, binary)
        return checkers.parse_formula(sig, "eq(x, y)")
    roll = rng.random()
    a = _random_formula(rng, spec, depth - 1, leaves)
    b = _random_formula(rng, spec, depth - 1, leaves)
    if roll < 0.2:
        return sx.formula("not", (a,))
    if roll < 0.8:
        op = "and" if roll < 0.4 else "or" if roll < 0.6 else \
            "implies" if roll < 0.7 else "iff"
        return sx.formula(op, (a, b))
    var = sx.dvar(rng.choice(("x", "y")))
    return sx.formula("forall" if roll < 0.9 else "exists", (a,), var)


def test_evaluator_cross_check(so_spec):
    rng = random.Random(20240813)
    for _ in range(1000):
        size = rng.choice((1, 2, 3))
        m = _random_structure(rng, so_spec, size)
        f = _random_formula(rng, so_spec, rng.choice((1, 2, 3)))
        val = {sx.dvar("x"): rng.randrange(size),
               sx.dvar("y"): rng.randrange(size)}
        assert models.evaluate(m, f, val) == _reference_eval(m, f, val)


def _outcome(thunk):
    try:
        return thunk()
    except sx.TabError as e:
        assert str(e).startswith("no value for domain term ")
        return "unassigned"


@pytest.mark.parametrize("preset, leaves", [("so", SO_LEAVES),
                                            ("ipc", IPC_LEAVES)],
                         ids=["so", "ipc"])
def test_compiled_semantics_agree_with_evaluate(request, preset, leaves):
    ns = request.getfixturevalue(preset + "_ns")
    spec, sem = ns.spec, models.semantics(ns)
    assert models.semantics(ns) is sem and ns.semantics is sem
    # objects the parameters stand for, compound concepts included
    pool = {1: [pc(spec, t) for t in leaves[0]]}
    if preset == "so":
        pool.update({0: [pc(spec, "l0", 0)], 2: [pc(spec, "r0", 2)]})
    p, x, y = sx.lvar(1, "p"), sx.dvar("x"), sx.dvar("y")
    # the compiled semantics reads labels: the pool's closure, and p, which
    # names itself where no parameter binds it
    labelled = [e for exprs in pool.values() for e in exprs] + [p]
    rng = random.Random(20261018)
    for _ in range(1000):
        size = rng.choice((1, 2, 3))
        m = _random_structure(rng, spec, size)
        _label(sem, m, labelled)
        # the background sentences, their object variables bound to the pool
        for g in ns.sb:
            lvs, run = sem.sentence(g)
            objs = [rng.choice(pool[v.sort]) for v in lvs]
            inst = sx.substitute_formula(g, dict(zip(lvs, objs)))
            assert run(m, objs) == models.evaluate(m, inst), sx.formula_text(g)
        for c in pool[1]:
            e = rng.randrange(size)
            assert bool(m.labels[c] >> e & 1) == m.holds(1, c, (e,)), c.text()
        # a random formula over p, x and y, any of which may stay unbound
        f = _random_formula(rng, spec, rng.choice((1, 2, 3)),
                            (leaves[0] + ["p"], leaves[1]))
        val = {v: rng.randrange(size) for v in (x, y) if rng.random() < 0.9}
        lvs = [p] if rng.random() < 0.5 else []
        objs = [rng.choice(pool[1]) for _ in lvs]
        if m.nu0 and rng.random() < 0.2:
            m.nu0.clear()
            m._memo.clear()
            _label(sem, m, labelled)
        inst = sx.substitute_formula(f, dict(zip(lvs, objs)))
        want = _outcome(lambda: models.evaluate(m, inst, dict(val)))
        run = models._compile(f, lvs, list(val))
        got = _outcome(lambda: run(m, objs, list(val.values())))
        assert got == want, sx.formula_text(f)


# connectives of sort 3: the presets stop at sort 2, so only this spec has
# nu atoms whose position in a label takes three domain arguments
TERNARY_SPEC = """sorts 4
vars 1 p
vars 3 t
connective rot 3 -> 3
connective meet 3 1 -> 1
define forall x. forall y. forall z. nu3(rot(t), x, y, z) <-> nu3(t, y, z, x)
define forall x. nu1(meet(t, p), x) <-> exists y. and(nu3(t, x, y, y), nu1(p, y))
"""


def test_compiled_semantics_read_ternary_atoms():
    spec = specfile.parse_spec(TERNARY_SPEC, "ternary")
    sem = models.semantics(normalize.normalize(spec))
    t0, p0 = pc(spec, "t0", 3), pc(spec, "p0")
    roles = [t0, pc(spec, "rot(t0)", 3), pc(spec, "rot(rot(t0))", 3)]
    labelled = roles + [p0, pc(spec, "meet(rot(t0), p0)")]
    t, dvars = sx.lvar(3, "t"), [sx.dvar(v) for v in "xyz"]
    texts = ["nu3(t, x, y, z)", "not(nu3(t, z, a0, x))",
             "exists y. nu3(t, x, y, z)",
             "forall z. or(nu3(t, x, y, z), not(nu3(t, z, y, x)))"]
    rng = random.Random(20261019)
    for _ in range(300):
        size = rng.choice((1, 2, 3))
        m = models.LStructure(size, spec=spec)
        m.nu[3] = {(t0, tup) for tup in itertools.product(range(size), repeat=3)
                   if rng.random() < 0.4}
        m.nu[1] = {(p0, (e,)) for e in range(size) if rng.random() < 0.5}
        if rng.random() < 0.5:
            m.dconsts["a0"] = rng.randrange(size)
        _label(sem, m, labelled)
        for e in labelled:
            tuples = itertools.product(range(size), repeat=e.sort)
            assert all(bool(m.labels[e] >> i & 1) == m.holds(e.sort, e, tup)
                       for i, tup in enumerate(tuples)), e.text()
        f = checkers.parse_formula(spec.signature, rng.choice(texts))
        val = {v: rng.randrange(size) for v in dvars if rng.random() < 0.9}
        role = rng.choice(roles)
        inst = sx.substitute_formula(f, {t: role})
        want = _outcome(lambda: models.evaluate(m, inst, dict(val)))
        run = models._compile(f, [t], list(val))
        got = _outcome(lambda: run(m, (role,), list(val.values())))
        assert got == want, sx.formula_text(f)


def test_oracle_prover_agreement_smoke(so_blocked, so_ns):
    cases = ["p0", "not(p0)", "or(p0, not(p0))", "exists(r0, one(l0))",
             "not(or(p0, not(p0)))"]
    for text in cases:
        c = pc(so_blocked, text)
        res, _ = models.brute_force_sat(so_ns, [c], 3)
        v = engine.prove(so_blocked, [c], ns=so_ns, node_budget=200000)
        assert v.kind in ("sat", "unsat")
        assert res == v.kind, text
