"""The tabsynth benchmark: one workload in a closed loop, one process, one
problem at a time, no threads.

    python3 perfbench/run.py --workload so-refined --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
wraps the same public calls to take spans and counts, recomputes the
independent reference of every problem live, writes the spans to
``perfbench/out/`` and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See README.md for the workloads and metrics.
"""

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import workloads as w
from tracing import EVALUATE, HIT, HOLDS, MATCH, Tracer
from workloads import calcfile

from tabsynth import cli

OUT = os.path.join(w.HERE, "out")
# Set-up probes: at least this many, and more while the time lasts.  Most of
# a cheap set-up is imports, which spread by a third from one process to the
# next.
SETUP_SAMPLES = 5
SETUP_SECONDS = 2.0
# Passes over the problem set in one run.  With one, p90 rested on one or two
# solves; three take about 45 s on a 2-CPU x86 machine.
PASSES = 3
RUN_SECONDS = 60   # BENCHMARK.json's run_seconds, a guard on the passes
PROBE_TIMEOUT = 120


# ---------------------------------------------------------------------------
# the work of one problem, per workload

class Run:
    """One workload's set-up, its solver and its reference checks."""

    def __init__(self, workload, setup, current, frozen):
        self.workload = workload
        self.setup = setup
        self.current = current
        self.frozen = frozen

    def logic(self, pool):
        return self.setup.logics[w.logic_of(pool)]

    def budget(self, pool):
        if self.workload == "unrefined-c8":
            return w.C8_BUDGET[w.logic_of(pool)]
        return w.REFINED_BUDGET

    def solve(self, pool, i, on_engine=None):
        problem = self.current[pool][i]
        if self.workload == "ipc-oracle":
            return w.oracle(self.logic(pool), problem, w.ORACLE_BOUND["ipc"])
        return w.prove(self.logic(pool), problem, self.budget(pool),
                       on_engine)

    def reference(self, pool, i):
        """The frozen verdict of the independent reference."""
        if pool in ("so", "c8-so"):
            return self.frozen["so"]["oracle"][i]
        if pool == "ipc":   # the oracle is checked against the prover
            return self.frozen["ipc"]["verdict"][i]
        return self.frozen["ipc"]["oracle"][len(w.CURATED_IPC) + i]

    def errors(self, pool, i, out):
        """What is wrong with one outcome of the timed loop."""
        errs = []
        ref = self.reference(pool, i)
        if pool.startswith("c8"):
            if out.verdict != self.frozen[pool]["verdict"][i]:
                errs.append("verdict %s, frozen %s"
                            % (out.verdict, self.frozen[pool]["verdict"][i]))
            elif out.verdict != "limit" and out.verdict != ref:
                errs.append("verdict %s, oracle %s" % (out.verdict, ref))
        elif out.verdict != ref:
            errs.append("verdict %s, reference %s" % (out.verdict, ref))
        errs += self.output_errors(pool, out)
        return errs

    def output_errors(self, pool, out):
        errs = []
        if out.verdict == "sat":
            if out.branch is None:
                err = w.structure_error(out)
            else:
                err = w.model_error(self.logic(pool), out)
            if err:
                errs.append(err)
        if out.violations:
            errs.append("%d engine discipline violations" % out.violations)
        return errs


# ---------------------------------------------------------------------------
# the timed loop

def timed_loop(run, orders, passes, seconds, tracer=None):
    """Make ``passes`` passes over the problem set, each in the next order
    of ``orders``, unless ``seconds`` run out first.  Every solve is a
    sample.  Returns the records ``(id, pool, index, verdict, seconds,
    errors, pass)``, the number of passes begun and the loop's wall time
    less the time of the benchmark's own checks."""
    start = time.perf_counter()
    deadline = start + seconds
    records = []
    checking = 0.0
    done = 0
    for order in itertools.islice(orders, passes):
        for pid, pool, i in order:
            if time.perf_counter() >= deadline:
                break
            verdict, dt, errs, check_s = solve_once(run, pid, pool, i, tracer)
            records.append((pid, pool, i, verdict, dt, errs, done))
            checking += check_s
        done += 1
        if time.perf_counter() >= deadline:
            break
    return records, done, time.perf_counter() - start - checking


def solve_once(run, pid, pool, i, tracer=None):
    """One timed solve and the untimed checks on it.  The collector is left
    alone, so the program's own collections fall inside the solves that
    trigger them.  A solve that raises is a failed problem, not a failed
    run.  Returns (verdict, seconds, errors, seconds of checks)."""
    out, errs = None, []
    if tracer is not None:
        tracer.request = pid
        root = len(tracer.spans)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = run.solve(pool, i)
        else:
            out = tracer.span("problem", run.solve, pool, i, tracer.instrument)
    except Exception as exc:
        errs.append("raised %r" % exc)
    t1 = time.perf_counter()
    if out is not None:
        try:
            errs += run.errors(pool, i, out)
            if tracer is not None:
                errs += count_errors(run, pool, i, out, tracer.spans[root])
        except Exception as exc:
            errs.append("check raised %r" % exc)
    if tracer is not None:
        tracer.request = None
    return ((out.verdict if out else "error"), t1 - t0, errs,
            time.perf_counter() - t1)


def count_errors(run, pool, i, out, rec):
    """Traced prover runs must repeat the frozen per-problem counts."""
    frozen = run.frozen[pool]
    if run.workload == "ipc-oracle":
        return []
    got = (out.applications, rec[6][MATCH] - rec[5][MATCH])
    want = (frozen["applications"][i], frozen["match_attempts"][i])
    if got != want:
        return ["applications/match attempts %r, frozen %r" % (got, want)]
    return []


def gate(run, records, tracer):
    """Recompute each attempted problem's reference live: the SO oracle at
    bound 3 for SO problems, the refined IPC prover for ipc-oracle.  The IPC
    half of unrefined-c8 keeps its frozen bound-4 oracle verdicts (a live
    check of one of its valid formulas takes up to 15 s)."""
    failures = {}
    for pid, pool, i, verdict, _, _, _ in records:
        if pool == "c8-ipc":
            continue
        tracer.request = pid
        try:
            errs = gate_errors(run, pool, i, verdict, tracer)
        except Exception as exc:
            errs = ["live reference raised %r" % exc]
        if errs:
            failures[pid] = errs
    tracer.request = None
    return failures


def gate_errors(run, pool, i, verdict, tracer):
    problem = run.current[pool][i]
    if pool == "ipc":
        out = tracer.span("gate", w.prove, run.setup.logics["ipc"], problem,
                          w.REFINED_BUDGET, tracer.instrument)
        frozen = (run.frozen["ipc"]["applications"][i],
                  run.frozen["ipc"]["verdict"][i])
        live = (out.applications, out.verdict)
    else:
        out = tracer.span("gate", w.oracle, run.logic(pool), problem,
                          w.ORACLE_BOUND["so"])
        frozen = run.frozen["so"]["oracle"][i]
        live = out.verdict
    errs = run.output_errors(pool, out)
    if live != frozen:
        errs.append("live reference %r, frozen %r" % (live, frozen))
    if out.verdict != verdict and verdict != "limit":
        errs.append("live reference %s, timed %s" % (out.verdict, verdict))
    return errs


# ---------------------------------------------------------------------------
# outside the loop: set-up probes and the exit-code smoke

def probe_setup(workload):
    """Median set-up time over fresh processes."""
    samples = []
    start = time.perf_counter()
    while (len(samples) < SETUP_SAMPLES
           or time.perf_counter() - start < SETUP_SECONDS):
        res = subprocess.run([sys.executable, os.path.join(w.HERE, "probe.py"),
                              workload], capture_output=True, text=True,
                             timeout=PROBE_TIMEOUT, check=True)
        samples.append(float(res.stdout.split()[-1]))
    return statistics.median(samples), samples


def smoke(run, records):
    """``cli.main`` in process on the shortest sat and unsat problems the run
    attempted; returns the number of runs and the failures."""
    os.makedirs(OUT, exist_ok=True)
    ran, failures = 0, []
    for want, code in (("sat", cli.EXIT_SAT), ("unsat", cli.EXIT_UNSAT)):
        cands = [(len(repr(run.current[pool][i])), pid, pool, i)
                 for pid, pool, i, verdict, _, _, _ in records
                 if verdict == want]
        if not cands:
            continue
        _, pid, pool, i = min(cands)
        logic = run.logic(pool)
        prob_path = os.path.join(OUT, "smoke-%d-%s.txt" % (os.getpid(), pid))
        calc_path = os.path.join(OUT, "smoke-%d.calc" % os.getpid())
        with open(prob_path, "w", encoding="utf-8") as fh:
            for text, pos in run.current[pool][i]:
                fh.write((text if pos else "not(%s)" % text) + "\n")
        if run.workload == "ipc-oracle":
            argv = ["oracle", "--preset", "ipc", "--max-size",
                    str(w.ORACLE_BOUND["ipc"]), prob_path]
        else:
            with open(calc_path, "w", encoding="utf-8") as fh:
                fh.write(calcfile.print_calculus(logic.unblocked))
            argv = ["prove", "--calc", calc_path, "--preset", logic.preset,
                    "--ub", "--budget-nodes", str(run.budget(pool)), prob_path]
        sink = io.StringIO()
        ran += 1
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                got = cli.main(argv)
        except Exception as exc:
            got = "raised %r" % exc
        finally:
            for path in (prob_path, calc_path):
                if os.path.exists(path):
                    os.remove(path)
        if got != code:
            failures.append("smoke %s on %s: exit %r, expected %d"
                            % (want, pid, got, code))
    return ran, failures


# ---------------------------------------------------------------------------
# metrics

def heap_bytes():
    """Shallow size of every object the collector tracks, after a full
    collection: the intern tables, caches and the objects they keep.
    (``tracemalloc`` would see every allocation but slowed the traced loop
    five- to eightfold, which distorted every layer's time.)"""
    gc.collect()
    return sum(sys.getsizeof(o) for o in gc.get_objects())


def quantiles(times):
    """(p50, p90, samples beyond p90)."""
    if len(times) < 2:
        return times[0], times[0], 0
    deciles = statistics.quantiles(times, n=10)
    return (statistics.median(times), deciles[8],
            sum(1 for t in times if t > deciles[8]))


def end_to_end(records, solving_s, setup_s):
    times = [r[4] for r in records]
    p50, p90, beyond = quantiles(times)
    decided = sum(1 for r in records if r[3] in ("sat", "unsat"))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": (setup_s, "s"),
               "problems_per_s": (len(times) / solving_s, "1/s"),
               "solve_p50_s": (p50, "s"),
               "solve_p90_s": (p90, "s"),
               "decided_ratio": (decided / len(times), "ratio"),
               "peak_rss_mb": (peak, "MB")}
    return metrics, beyond


def per_layer(tracer, setup, records, solving_s, retained, counts0):
    spans = tracer.spans
    self_t = tracer.self_times()
    own = {}
    calls = {}
    for rec, st in zip(spans, self_t):
        own[rec[0]] = own.get(rec[0], 0.0) + st
        calls[rec[0]] = calls.get(rec[0], 0) + 1

    def s(*names):
        return sum(own.get(n, 0.0) for n in names)

    def n(*names):
        return sum(calls.get(x, 0) for x in names)

    counts = [b - a for a, b in zip(counts0, tracer.counts)]
    apps = n("engine.apply", "engine.close_by_exhaustion")
    expand = sum(r[2] - r[1] for r in spans if r[0] == "engine.expand")
    oracle = [(k, r) for k, r in enumerate(spans)
              if r[0] == "models.brute_force_sat"]
    asked = [(k, r) for k, r in oracle if r[4] is not None]

    def osum(result):
        return sum(r[2] - r[1] for k, r in asked
                   if tracer.oracle_results[k] == result)

    def ocount(slot):
        return sum(r[6][slot] - r[5][slot] for _, r in asked)

    warmup = [r for _, r in oracle if r[4] is None]
    logics = setup.logics.values()
    m = {
        "specfile.parse_s": (s("specfile.preset"), "s"),
        "normalize.s": (s("normalize.normalize"), "s"),
        "synth.s": (s("synth.synthesize"), "s"),
        "synth.rules": (sum(x.synth_rules for x in logics), "count"),
        "refine.s": (s("refine.parse_context", "refine.parse_script",
                       "refine.apply_script", "refine.attach_ub"), "s"),
        "refine.rules": (sum(x.refine_rules for x in logics), "count"),
        "calcfile.print_s": (s("calcfile.print_calculus"), "s"),
        "calcfile.parse_s": (s("calcfile.parse_calculus"), "s"),
        "calcfile.bytes": (sum(x.calc_bytes for x in logics), "bytes"),
        "parser.s": (s("parser.parse_lexpr"), "s"),
        "parser.problems": (n("problem", "gate"), "count"),
        "engine.init_s": (s("engine.init"), "s"),
        "engine.collect_s": (s("engine.collect"), "s"),
        "engine.apply_s": (s("engine.apply", "engine.close_by_exhaustion"),
                           "s"),
        "engine.collect_calls": (n("engine.collect"), "count"),
        "engine.applications": (apps, "count"),
        "engine.applications_per_s": (apps / expand if expand else 0.0, "1/s"),
        "engine.branches_opened": (tracer.opened, "count"),
        "engine.branches_closed": (tracer.closed, "count"),
        "engine.verdict.sat": (tracer.verdicts["sat"], "count"),
        "engine.verdict.unsat": (tracer.verdicts["unsat"], "count"),
        "engine.verdict.limit": (tracer.verdicts["limit"], "count"),
        "syntax.match_attempts": (counts[MATCH], "count"),
        "syntax.match_hits": (counts[HIT], "count"),
        "syntax.match_hit_ratio": (counts[HIT] / counts[MATCH]
                                   if counts[MATCH] else 0.0, "ratio"),
        "syntax.attempts_per_application": (counts[MATCH] / apps
                                            if apps else 0.0, "count"),
        "syntax.retained_mb": (retained / 2 ** 20, "MB"),
        "models.extract_s": (s("models.extract_model"), "s"),
        "models.verify_s": (s("models.verify_reflection"), "s"),
        "models.model_elements": (tracer.model_elements, "count"),
        "oracle.s": (osum("sat") + osum("unsat"), "s"),
        "oracle.sat_s": (osum("sat"), "s"),
        "oracle.unsat_s": (osum("unsat"), "s"),
        "oracle.evaluate_calls": (ocount(EVALUATE), "count"),
        "oracle.holds_calls": (ocount(HOLDS), "count"),
        "oracle.frame_warmup_s": (warmup[0][2] - warmup[0][1]
                                  if warmup else 0.0, "s"),
        "trace.problems_per_s": (len(records) / solving_s, "1/s"),
    }
    return m


# ---------------------------------------------------------------------------

def failed_solves(records):
    return {(r[6], r[0]): r[5] for r in records if r[5]}


def untraced(workload, orders, current, frozen, seconds):
    setup_s, samples = probe_setup(workload)
    run = Run(workload, w.Setup(workload), current, frozen)
    records, done, solving_s = timed_loop(run, orders, PASSES, seconds)
    metrics, beyond = end_to_end(records, solving_s, setup_s)
    notes = ["set-up samples (s): %s" % " ".join("%.4f" % x for x in samples),
             "solve samples: %d in %d passes, beyond p90: %d"
             % (len(records), done, beyond)]
    return run, records, failed_solves(records), metrics, notes


def traced(workload, orders, current, frozen, seconds, seed):
    """One pass, so that the counts are those of the problem set once."""
    tracer = Tracer()
    tracer.install()
    try:
        setup = tracer.span("setup", w.Setup, workload)
        run = Run(workload, setup, current, frozen)
        base = heap_bytes()
        counts0 = list(tracer.counts)
        records, _, solving_s = timed_loop(run, orders, 1, seconds, tracer)
        retained = heap_bytes() - base
        failures = failed_solves(records)
        for pid, errs in gate(run, records, tracer).items():
            failures.setdefault((0, pid), []).extend(errs)
    finally:
        tracer.uninstall()
    metrics = per_layer(tracer, setup, records, solving_s, retained, counts0)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "spans-%s-%d.jsonl" % (workload, seed))
    tracer.write(path)
    notes = ["%d spans written to %s" % (len(tracer.spans),
                                          os.path.relpath(path))]
    return run, records, failures, metrics, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=w.WORKLOADS)
    ap.add_argument("--seed", type=int, default=w.SO_SEED,
                    help="seed of the draw from the frozen pools")
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help="time limit of the timed loop (the benchmark "
                    "contract passes run_seconds here)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    current = w.pools()
    frozen = w.load_frozen(current)
    problems = w.draw(args.workload, current, frozen)
    orders = w.passes(problems, args.workload, args.seed)
    if args.trace:
        result = traced(args.workload, orders, current, frozen, args.seconds,
                        args.seed)
    else:
        result = untraced(args.workload, orders, current, frozen,
                          args.seconds)
    run, records, failures, metrics, notes = result
    smoke_runs, smoke_failures = smoke(run, records)

    failed = len(failures) + len(smoke_failures)
    print("workload %s, seed %d, trace %d: %d solves over a set of %d "
          "problems, closed loop, 1 caller" % (args.workload, args.seed,
                                               args.trace, len(records),
                                               len(problems)))
    for line in notes:
        print("  " + line)
    print("  failed_ratio %.4f (%d failed solves, %d failed smoke runs)"
          % (len(failures) / len(records), len(failures),
             len(smoke_failures)))
    for (k, pid), errs in sorted(failures.items()):
        print("  FAIL %s (pass %d): %s" % (pid, k + 1, "; ".join(errs)))
    for line in smoke_failures:
        print("  FAIL " + line)
    for name, (value, unit) in metrics.items():
        print("  %-34s %14.6g %s" % (name, value, unit))
    print(json.dumps({"correct": failed == 0,
                      "attempted": len(records) + smoke_runs,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
