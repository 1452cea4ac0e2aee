"""Problem pools, seeded draws, set-up pipelines and the per-problem work of
the three benchmark workloads.

Every problem is text: a tuple of ``(concept text, polarity)`` pairs that the
program parses with ``parser.parse_lexpr``.  The pools are the frozen corpora
of the agreement suites, regenerated here from their seeds with the same
random draws as ``tests/corpus.py``; ``frozen.json`` holds their reference
verdicts and exact per-problem counts, and a digest of the pool text so that
a drifted generator is caught before anything is timed.
"""

import hashlib
import importlib.resources
import itertools
import json
import os
import random
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
FROZEN = os.path.join(HERE, "frozen.json")

if not os.path.isfile(os.path.join(SRC, "tabsynth", "__init__.py")):
    raise SystemExit("perfbench: no tabsynth package under %s" % SRC)
sys.path.insert(0, SRC)

from tabsynth import (calcfile, engine, models, normalize,  # noqa: E402
                      parser, refine, specfile, synth)
from tabsynth import syntax as sx  # noqa: E402

SO_SEED = 20240811
IPC_SEED = 20240812
POOL_SIZE = 220
C8_SIZE = 60                     # criterion 8 runs the first 60 of each corpus
REFINED_BUDGET = 10 ** 6
C8_BUDGET = {"so": 20000, "ipc": 4000}
ORACLE_BOUND = {"so": 3, "ipc": 4}
WARMUP_FORMULA = "impl(p0, p0)"

# p -> p (valid); Peirce's law and (p -> q) v (q -> p) (not valid)
CURATED_IPC = ["impl(p0, p0)", "impl(impl(impl(p0, q0), p0), p0)",
               "or(impl(p0, q0), impl(q0, p0))"]

WORKLOADS = ("so-refined", "ipc-oracle", "unrefined-c8")


# ---------------------------------------------------------------------------
# pools: the frozen corpora as text

def so_texts(seed=SO_SEED, count=POOL_SIZE):
    """Concept lists drawn exactly as ``so_concepts`` draws them."""
    rng = random.Random(seed)
    atoms = ["p0", "q0"]

    def concept(depth, allow_nominal):
        roll = rng.random()
        if depth <= 0 or roll < 0.28:
            if allow_nominal[0] and rng.random() < 0.15:
                allow_nominal[0] = False
                return "one(l0)"
            return rng.choice(atoms)
        if roll < 0.5:
            return "not(%s)" % concept(depth - 1, allow_nominal)
        if roll < 0.75:
            return "or(%s, %s)" % (concept(depth - 1, allow_nominal),
                                   concept(depth - 1, allow_nominal))
        return "exists(r0, %s)" % concept(depth - 1, allow_nominal)

    problems = []
    for _ in range(count):
        allow = [True]
        k = rng.choice((1, 1, 2, 2, 3))
        texts = [concept(rng.choice((2, 3, 4)), allow) for _ in range(k)]
        problems.append(tuple((t, True) for t in texts))
    return problems


def ipc_texts(seed=IPC_SEED, count=POOL_SIZE):
    """Validity problems drawn exactly as ``ipc_formulas`` draws them: the
    formula is rooted with negative polarity."""
    rng = random.Random(seed)
    atoms = ["p0", "q0", "p1"]

    def formula(depth):
        roll = rng.random()
        if depth <= 0 or roll < 0.3:
            return rng.choice(atoms + (["bot"] if rng.random() < 0.1 else []))
        if roll < 0.5:
            return "and(%s, %s)" % (formula(depth - 1), formula(depth - 1))
        if roll < 0.7:
            return "or(%s, %s)" % (formula(depth - 1), formula(depth - 1))
        return "impl(%s, %s)" % (formula(depth - 1), formula(depth - 1))

    return [((formula(rng.choice((2, 3, 4))), False),) for _ in range(count)]


def pools():
    """The three pools: the SO corpus, the IPC corpus behind the curated
    formulas, and the criterion-8 inputs (the first 60 of each corpus)."""
    so = so_texts()
    ipc_corpus = ipc_texts()
    return {"so": so,
            "ipc": [((t, False),) for t in CURATED_IPC] + ipc_corpus,
            "c8-so": so[:C8_SIZE],
            "c8-ipc": ipc_corpus[:C8_SIZE]}


def digest(pool):
    return hashlib.sha256(json.dumps(pool).encode()).hexdigest()


def load_frozen(current):
    """The frozen reference data, checked against the regenerated pools."""
    with open(FROZEN, encoding="utf-8") as fh:
        frozen = json.load(fh)
    for name, pool in current.items():
        if frozen[name]["sha256"] != digest(pool):
            raise SystemExit("perfbench: pool %s no longer matches frozen.json"
                             % name)
    return frozen


def atom_count(problem):
    return len({a for text, _ in problem
                for a in re.findall(r"\b[pq]\d+\b", text)})


# ---------------------------------------------------------------------------
# seeded draws, sized to the run length

IPC_SAT_CHOSEN = 43
C8_LIMIT_CHOSEN = 3


def draw(workload, current, frozen):
    """The problems of one run as ``(id, pool, index)``.

    The set of problems is the same at every seed; the seed sets only the
    order of each pass over it (see ``passes``).  (A seeded subset made the
    median and p90 depend on which problems a seed happened to pick.)

    so-refined runs the whole SO corpus.  ipc-oracle runs all curated
    formulas, every valid formula over at most two atoms, and 43
    satisfiable ones picked once.  (The oracle's cost grows with the atom
    count: 0.3-0.5 s for one atom, 0.7-1.9 s for two, 3-18 s for three, so a
    single three-atom validity would fill a run.)  With 65 problems the 13
    two-atom validities are the top fifth, and p90 falls in their middle,
    near 1 s.  They take four fifths of a pass, so p90 follows the same
    stretch of machine time as problems_per_s.  (On the edge of a cluster,
    p90 swung with its fastest member; on the 7 one-atom validities it
    rested on 2 s of a 16 s pass.)  unrefined-c8 runs every criterion-8 input
    that ends in a verdict plus the three node-capped IPC runs in the middle
    by match attempts.  Each capped run makes 4000 applications in 3-11 s,
    in step with its match attempts (5-7 us each).
    """
    if workload == "so-refined":
        chosen = [("so", i) for i in range(len(current["so"]))]
    elif workload == "ipc-oracle":
        ref = frozen["ipc"]["oracle"]
        curated = list(range(len(CURATED_IPC)))
        corpus = range(len(CURATED_IPC), len(current["ipc"]))
        sat = [i for i in corpus if ref[i] == "sat"]
        valid = [i for i in corpus if ref[i] == "unsat"
                 and atom_count(current["ipc"][i]) <= 2]
        picked = random.Random(workload).sample(sat, IPC_SAT_CHOSEN)
        chosen = [("ipc", i) for i in curated + valid + picked]
    elif workload == "unrefined-c8":
        verdicts = frozen["c8-ipc"]["verdict"]
        attempts = frozen["c8-ipc"]["match_attempts"]
        capped = sorted((i for i, v in enumerate(verdicts) if v == "limit"),
                        key=lambda i: (attempts[i], i))
        middle = (len(capped) - C8_LIMIT_CHOSEN) // 2
        chosen = [("c8-so", i) for i in range(len(current["c8-so"]))]
        chosen += [("c8-ipc", i) for i, v in enumerate(verdicts)
                   if v != "limit"]
        chosen += [("c8-ipc", i)
                   for i in capped[middle:middle + C8_LIMIT_CHOSEN]]
    else:
        raise ValueError("unknown workload %r" % workload)
    return [("%s-%03d" % (pool, i), pool, i) for pool, i in chosen]


def passes(problems, workload, seed):
    """Endless passes over ``problems``, each in its own order drawn from
    ``seed``."""
    for k in itertools.count():
        order = list(problems)
        random.Random("%s/%d/%d" % (workload, seed, k)).shuffle(order)
        yield order


# ---------------------------------------------------------------------------
# set-up: specification -> calculus, through the public pipeline

def _preset_file(name):
    return importlib.resources.files("tabsynth").joinpath(
        "presets/%s" % name).read_text(encoding="utf-8")


class Logic:
    """One preset compiled for proving: its normalized specification and the
    calculus the workload proves with (after a .calc print/parse round
    trip, as the command line loads it)."""

    def __init__(self, preset, refined):
        self.preset = preset
        self.ns = normalize.normalize(specfile.preset(preset))
        calc = synth.synthesize(self.ns)
        self.synth_rules = len(calc.rules)
        if refined:
            ctx = None
            if preset == "so":
                ctx = refine.parse_context(_preset_file("so.ctx"),
                                           calc.signature, calc.skolems)
            steps = refine.parse_script(_preset_file("%s.refine" % preset))
            calc, _ = refine.apply_script(calc, steps, ctx=ctx)
        self.unblocked = calc
        calc = refine.attach_ub(calc, synth.UbConfig(True, 0))
        self.refine_rules = len(calc.rules)
        text = calcfile.print_calculus(calc)
        self.calc_bytes = len(text.encode("utf-8"))
        self.calc = calcfile.parse_calculus(text)


class Setup:
    """Everything a workload builds before its first problem."""

    def __init__(self, workload):
        if workload == "so-refined":
            self.logics = {"so": Logic("so", refined=True)}
        elif workload == "ipc-oracle":
            self.logics = {"ipc": Logic("ipc", refined=True)}
            # fills the oracle's frame cache, which every later call reuses
            ipc = self.logics["ipc"]
            models.brute_force_sat(ipc.ns, parse(ipc.ns.signature,
                                                 ((WARMUP_FORMULA, False),)),
                                   ORACLE_BOUND["ipc"])
        elif workload == "unrefined-c8":
            self.logics = {"so": Logic("so", refined=False),
                           "ipc": Logic("ipc", refined=False)}
        else:
            raise ValueError("unknown workload %r" % workload)


def logic_of(pool):
    return "so" if pool in ("so", "c8-so") else "ipc"


# ---------------------------------------------------------------------------
# the measured work and the checks on its output

def parse(sig, problem):
    return [(parser.parse_lexpr(sig, text, 1), pos) for text, pos in problem]


class Outcome:
    __slots__ = ("inputs", "verdict", "model", "branch", "applications",
                 "violations")

    def __init__(self, inputs, verdict, model=None, branch=None,
                 applications=0, violations=0):
        self.inputs = inputs
        self.verdict = verdict      # "sat" | "unsat" | "limit"
        self.model = model          # extracted model or oracle structure
        self.branch = branch        # the saturated branch of a prover model
        self.applications = applications
        self.violations = violations  # the engine's own discipline checks


def prove(logic, problem, budget, on_engine=None):
    """Parse, run the engine, and extract the model of a saturated branch."""
    calc = logic.calc
    inputs = parse(calc.signature, problem)
    eng = engine.Engine(calc, ns=logic.ns, node_budget=budget)
    if on_engine is not None:
        on_engine(eng)
    verdict = eng.expand(eng.init(inputs))
    model = None
    if verdict.kind == "sat":
        model = models.extract_model(verdict.branch, logic.ns, ctx=calc.ctx,
                                     skolems=calc.skolems)
    return Outcome(inputs, verdict.kind, model, verdict.branch,
                   eng.applications,
                   len(eng.subexpr_violations) + len(eng.c1_violations))


def oracle(logic, problem, bound):
    inputs = parse(logic.ns.signature, problem)
    res, structure = models.brute_force_sat(logic.ns, inputs, bound)
    return Outcome(inputs, res, structure)


def model_error(logic, out):
    """Why a prover model is wrong, or None: it must reflect its branch and
    satisfy every input at the anchor individual."""
    calc = logic.calc
    m = out.model
    if models.verify_reflection(m, out.branch, ctx=calc.ctx,
                                skolems=calc.skolems):
        return "model does not reflect its branch"
    if calc.mode == "internalized":
        anchor = m.term_class[sx.nu0(sx.lconst(0, "i0"))]
    else:
        anchor = m.dconsts["a0"]
    if any(m.holds(1, c, (anchor,)) != pos for c, pos in out.inputs):
        return "model misses an input at the anchor"
    return None


def structure_error(out):
    """Why an oracle structure is wrong, or None: every input must get its
    polarity at element 0 under ``models.evaluate``."""
    x = sx.dvar("x")
    for c, pos in out.inputs:
        if models.evaluate(out.model, sx.atom(sx.nu(1), [c, x]), {x: 0}) != pos:
            return "structure misses an input at element 0"
    return None
