"""The acceptance suite: one test per shipped criterion, each printing a
pass/fail line.  Criteria 4-7 share the two corpus runs, which are executed
once per session and cached."""

import hashlib
import os
import shutil
import subprocess
import time
from pathlib import Path

import pytest

import checkers
from corpus import ipc_formulas, so_concepts
from tabsynth import engine, models, normalize, parser, refine, synth, tptp
from tabsynth import syntax as sx
from test_synth import golden

NODE_BUDGET = 10 ** 6


def _report(criterion, ok, detail=""):
    print("criterion %s: %s%s" % (criterion, "PASS" if ok else "FAIL",
                                  " — " + detail if detail else ""))
    assert ok, "criterion %s failed: %s" % (criterion, detail)


def pc(calc, text):
    return parser.parse_lexpr(calc.signature, text, 1)


# -- criterion 1: calculus reproduction ---------------------------------------

def test_criterion_1_calculus_reproduction(so_ns, ipc_ns):
    t0 = time.monotonic()
    so = synth.synthesize(so_ns)
    so_elapsed = time.monotonic() - t0
    t0 = time.monotonic()
    ipc = synth.synthesize(ipc_ns)
    ipc_elapsed = time.monotonic() - t0
    counts = so.counts_by_kind()
    ok = (checkers.calculus_equal(so, golden("so_generated.calc"))
          and checkers.calculus_equal(ipc, golden("ipc_generated.calc"))
          and counts["decomposition"] == 8 and counts["theory"] == 1
          and counts["closure"] == 3
          and len([r for r in so.rules if r.kind == "equality"]) == 17
          and so_elapsed < 1.0 and ipc_elapsed < 1.0)
    _report(1, ok, "golden match, counts %r, %.2fs/%.2fs"
            % (counts, so_elapsed, ipc_elapsed))


# -- criterion 2: refinement reproduction --------------------------------------

def test_criterion_2_refinement_reproduction(so_calc, so_ctx, ipc_calc):
    import importlib.resources as ir

    def pt(name):
        return ir.files("tabsynth").joinpath("presets/%s" % name).read_text()

    t0 = time.monotonic()
    so_ref, log = refine.apply_script(
        so_calc, refine.parse_script(pt("so.refine")), ctx=so_ctx)
    so_elapsed = time.monotonic() - t0
    removed = next(l for l in log if l.startswith("simplify"))
    t0 = time.monotonic()
    ipc_ref, _ = refine.apply_script(
        ipc_calc, refine.parse_script(pt("ipc.refine")))
    ipc_elapsed = time.monotonic() - t0
    ok = (checkers.calculus_equal(so_ref, golden("so_refined.calc"))
          and checkers.calculus_equal(ipc_ref, golden("ipc_refined.calc"))
          and all(rid in removed for rid in
                  ("not_pos", "one_pos", "one_neg", "closure_eq"))
          and so_elapsed < 1.0 and ipc_elapsed < 1.0)
    _report(2, ok, "%s; %.2fs/%.2fs" % (removed, so_elapsed, ipc_elapsed))


# -- criterion 3: the known-incomplete fold ------------------------------------

def test_criterion_3_ke_regression(so_calc, so_ns):
    ke = refine.refine_rule(so_calc, "or_pos", [0], drop_dp=True, unsafe=True)
    v1 = engine.prove(ke, [pc(so_calc, "or(p, q)")], ns=so_ns)
    open_without_split = v1.kind == "sat" and not any(
        l.text() in ("nu1(p, a0)", "nu1(q, a0)") for l in v1.branch.literals)

    inputs = [pc(so_calc, "or(not(p), not(q))"), pc(so_calc, "p"),
              pc(so_calc, "q")]
    v2 = engine.prove(ke, inputs, ns=so_ns)
    res, _ = models.brute_force_sat(so_ns, inputs, 3)
    ok = open_without_split and v2.kind == "sat" and res == "unsat"
    _report(3, ok, "saturates open under the folded rule although the "
                   "oracle refutes it")


# -- corpus fixtures -----------------------------------------------------------

@pytest.fixture(scope="session")
def so_corpus_run(so_blocked, so_ns):
    records = []
    t0 = time.monotonic()
    for prob in so_concepts(so_blocked.signature, count=220):
        res, structure = models.brute_force_sat(so_ns, prob, 3)
        eng = engine.Engine(so_blocked, ns=so_ns, node_budget=NODE_BUDGET)
        verdict = eng.expand(eng.init(prob))
        records.append((prob, res, structure, verdict, eng))
    return records, time.monotonic() - t0


@pytest.fixture(scope="session")
def ipc_corpus_run(ipc_blocked, ipc_ns):
    curated = ["not(impl(p0, p0))",                      # valid
               "not(impl(impl(impl(p0, q0), p0), p0))",  # Peirce, not valid
               "not(or(impl(p0, q0), impl(q0, p0)))"]    # not valid
    probs = []
    for text in curated:
        inner = text[len("not("):-1]
        probs.append([(parser.parse_lexpr(ipc_blocked.signature, inner, 1),
                       False)])
    probs += ipc_formulas(ipc_blocked.signature, count=220)
    records = []
    t0 = time.monotonic()
    for prob in probs:
        res, structure = models.brute_force_sat(ipc_ns, prob, 4)
        eng = engine.Engine(ipc_blocked, ns=ipc_ns, node_budget=NODE_BUDGET)
        verdict = eng.expand(eng.init(prob))
        records.append((prob, res, structure, verdict, eng))
    return records, time.monotonic() - t0


# -- criteria 4 and 5: oracle agreement ----------------------------------------

def test_criterion_4_so_agreement(so_corpus_run):
    records, elapsed = so_corpus_run
    mismatches = [(p, res, v.kind) for p, res, _, v, _ in records
                  if v.kind != res]
    unsound = [(p,) for p, res, _, v, _ in records
               if res == "sat" and v.kind == "unsat"]
    ok = len(records) >= 200 and not mismatches and not unsound \
        and elapsed < 300
    _report(4, ok, "%d instances, %d mismatches, %.1fs"
            % (len(records), len(mismatches), elapsed))


def test_criterion_5_ipc_agreement(ipc_corpus_run, ipc_blocked, ipc_ns):
    records, elapsed = ipc_corpus_run
    mismatches = [(p, res, v.kind) for p, res, _, v, _ in records
                  if v.kind != res]
    unsound = [p for p, res, _, v, _ in records
               if res == "sat" and v.kind == "unsat"]
    # curated expectations: p->p valid; Peirce and (p->q)v(q->p) not valid
    curated = records[:3]
    curated_ok = [curated[0][3].kind == "unsat",
                  curated[1][3].kind == "sat",
                  curated[2][3].kind == "sat"]
    m = models.extract_model(curated[2][3].branch, ipc_ns)
    countermodel_ok = m.size >= 3 and \
        models.verify_reflection(m, curated[2][3].branch) == []
    ok = len(records) >= 200 and not mismatches and not unsound \
        and all(curated_ok) and countermodel_ok and elapsed < 300
    _report(5, ok, "%d instances, %d mismatches, curated %r, %.1fs"
            % (len(records), len(mismatches), curated_ok, elapsed))


# -- criterion 6: termination within budget -------------------------------------

def test_criterion_6_termination(so_corpus_run, ipc_corpus_run):
    worst = 0
    limited = 0
    for records, _ in (so_corpus_run, ipc_corpus_run):
        for _, _, _, verdict, eng in records:
            worst = max(worst, eng.applications)
            limited += verdict.kind == "limit"
    ok = limited == 0 and worst < NODE_BUDGET
    _report(6, ok, "no budget hits, worst run %d applications" % worst)


# -- criterion 7: constructive completeness -------------------------------------

def _anchor_class(m, calc):
    if calc.mode == "internalized":
        return m.term_class[sx.nu0(sx.lconst(0, "i0"))]
    return m.dconsts["a0"]


def _background_holds(m, ns):
    carrier = [e for pair in m.nu.items() for (expr, _) in pair[1]
               for e in expr.subexprs()]
    carrier += list(m.nu0.keys())
    carrier = list(dict.fromkeys(carrier))
    for f in ns.sb:
        lvs = sorted({e for e in sx.lexprs_of_formula(f) if e.kind == "var"},
                     key=lambda e: e.text())
        import itertools
        for combo in itertools.product(*[[e for e in carrier
                                          if e.sort == v.sort] for v in lvs]):
            inst = sx.substitute_formula(f, dict(zip(lvs, combo)))
            if not models.evaluate(m, inst):
                return False
    return True


def test_criterion_7_constructive_completeness(so_corpus_run, ipc_corpus_run,
                                               so_blocked, ipc_blocked,
                                               so_ns, ipc_ns):
    checked = violations = 0
    for (records, _), calc, ns in ((so_corpus_run, so_blocked, so_ns),
                                   (ipc_corpus_run, ipc_blocked, ipc_ns)):
        for prob, _, _, verdict, _ in records:
            if verdict.kind != "sat":
                continue
            checked += 1
            m = models.extract_model(verdict.branch, ns, ctx=calc.ctx,
                                     skolems=calc.skolems)
            if models.verify_reflection(m, verdict.branch, ctx=calc.ctx,
                                        skolems=calc.skolems):
                violations += 1
                continue
            root = _anchor_class(m, calc)
            signed = [c if isinstance(c, tuple) else (c, True) for c in prob]
            if not all(m.holds(1, c, (root,)) == pos for c, pos in signed):
                violations += 1
                continue
            if not _background_holds(m, ns):
                violations += 1
    ok = checked > 0 and violations == 0
    _report(7, ok, "%d satisfiable runs checked, %d violations"
            % (checked, violations))


# -- what the corpus runs return, beyond their verdicts --------------------------

# SHA-256 over each corpus problem's oracle verdict and structure, SO at bound
# 3 then IPC at bound 4, computed before the oracle reused its work across
# calls and candidates
ORACLE_DIGEST = \
    "da3f8e6203b1eff5093fd36fa02c77c623e5b32339a487a741e5a1437e9ac8e7"


def test_oracle_structures_are_pinned(so_corpus_run, ipc_corpus_run):
    h = hashlib.sha256()
    count = 0
    for records, _ in (so_corpus_run, ipc_corpus_run):
        for _, res, structure, _, _ in records:
            text = structure.format() if structure is not None else ""
            h.update(("%s\n%s\0" % (res, text)).encode("utf-8"))
            count += 1
    assert count == 443
    assert h.hexdigest() == ORACLE_DIGEST


# SHA-256 over each corpus run's prover verdict and the text of the model read
# off its open branch, SO then IPC, computed before extraction walked each
# branch once
PROVER_MODEL_DIGEST = \
    "1b62522721ea38510b2374c0ad2573f58a6015f4fb55b350df35564d3c0b71e8"


def test_prover_models_are_pinned(so_corpus_run, ipc_corpus_run, so_blocked,
                                  ipc_blocked, so_ns, ipc_ns):
    h = hashlib.sha256()
    count = 0
    for (records, _), calc, ns in ((so_corpus_run, so_blocked, so_ns),
                                   (ipc_corpus_run, ipc_blocked, ipc_ns)):
        for _, _, _, verdict, _ in records:
            text = ""
            if verdict.kind == "sat":
                text = models.extract_model(verdict.branch, ns, ctx=calc.ctx,
                                            skolems=calc.skolems).format()
            h.update(("%s\n%s\0" % (verdict.kind, text)).encode("utf-8"))
            count += 1
    assert count == 443
    assert h.hexdigest() == PROVER_MODEL_DIGEST


def test_every_corpus_unsat_replays(so_corpus_run, ipc_corpus_run, so_blocked,
                                    ipc_blocked, so_ns, ipc_ns):
    # the refined calculi's refutations of the oracle's unsat problems, each
    # re-checked step by step from its trace
    replayed = []
    for (records, _), calc, ns in ((so_corpus_run, so_blocked, so_ns),
                                   (ipc_corpus_run, ipc_blocked, ipc_ns)):
        count = 0
        for prob, res, _, _, _ in records:
            if res != "unsat":
                continue
            v = engine.prove(calc, prob, ns=ns, node_budget=NODE_BUDGET,
                             trace=True)
            assert v.kind == "unsat"
            assert checkers.replay_trace(calc, prob,
                                         "\n".join(v.engine.trace)) > 0
            count += 1
        replayed.append(count)
    assert replayed == [11, 33]


# -- criterion 8: subexpression property ----------------------------------------

def test_criterion_8_subexpression_property(so_calc, ipc_calc, so_ns, ipc_ns):
    # the check covers every literal derived, whether or not a run finishes
    # inside its budget, so the slow unrefined theory rules get a small cap
    runs = failures = derived = 0
    so_ub = refine.attach_ub(so_calc, synth.UbConfig(True, 0))
    for prob in so_concepts(so_calc.signature, count=60):
        eng = engine.Engine(so_ub, ns=so_ns, node_budget=20000)
        v = eng.expand(eng.init(prob))
        runs += 1
        derived += eng.applications
        failures += bool(eng.subexpr_violations)
    ipc_ub = refine.attach_ub(ipc_calc, synth.UbConfig(True, 0))
    for prob in ipc_formulas(ipc_calc.signature, count=60):
        eng = engine.Engine(ipc_ub, ns=ipc_ns, node_budget=4000)
        eng.expand(eng.init(prob))
        runs += 1
        derived += eng.applications
        failures += bool(eng.subexpr_violations)
    ok = runs == 120 and failures == 0
    _report(8, ok, "%d generated-calculus runs (%d applications), "
                   "%d with violations" % (runs, derived, failures))


# -- criterion 9: obligation export ----------------------------------------------

def test_criterion_9_wd_export(so_ns, ipc_ns, tmp_path):
    names = []
    for ns, sub in ((so_ns, "so"), (ipc_ns, "ipc")):
        obs = normalize.emit_wd_obligations(ns)
        paths = tptp.write_obligations(obs, ns.signature,
                                       str(tmp_path / sub))
        for p in paths:
            checkers.validate_tptp(Path(p).read_text(encoding="utf-8"))
            names.append(os.path.basename(p))
    prover = next((p for p in ("eprover", "vampire") if shutil.which(p)), None)
    note = "no first-order prover installed; discharge step skipped"
    discharged = None
    if prover:
        target = str(tmp_path / "so" / "wd3_exists.p")
        res = subprocess.run([prover, "--auto", target], capture_output=True,
                             text=True, timeout=60)
        discharged = "Theorem" in res.stdout
        note = "%s discharged wd3_exists: %s" % (prover, discharged)
    ok = sorted(names) == sorted(
        ["wd1.p", "wd3_one.p", "wd3_not.p", "wd3_or.p", "wd3_exists.p",
         "wd1.p", "wd3_bot.p", "wd3_and.p", "wd3_or.p", "wd3_impl.p"]) \
        and discharged in (None, True)
    _report(9, ok, "10 valid obligation files; " + note)
