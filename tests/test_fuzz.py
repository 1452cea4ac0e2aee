"""Mutated input files through the command line: every input ends in an exit
code of the contract, never in a traceback.

Lines are mutated token by token (dropped, inserted, truncated, swapped),
and a quarter of the problem, specification, context and refinement files
get one byte that is not UTF-8.  The calculi stay UTF-8, so every one
reaches the parser: the rule lines of the golden calculi go through
``prove``, which reaches the ``.calc`` reader, the calculus checks, and the
matchers generated for whatever premises survive.  Problems go through
``prove`` and ``oracle``, and the preset specifications through ``synth``
and ``oracle``.  The preset ``.ctx`` and ``.refine`` files go through
``refine`` on the generated golden calculus, and a calculus it refines
through ``prove``.
"""

import os
import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tabsynth import cli  # noqa: E402

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
PRESETS = os.path.join(os.path.dirname(cli.__file__), "presets")
CALCS = ("so_refined.calc", "so_generated.calc", "ipc_refined.calc",
         "ipc_generated.calc")
PROBLEMS = {"so": "exists(r0, or(p0, not(q0)))\n", "ipc": "not(or(p0, impl(p0, q0)))\n"}
FUZZ_PROBLEMS = {
    "so": "exists(r0, or(p0, not(one(l0))))\nnot(exists(r0, q0))\n",
    "ipc": "not(or(and(p0, bot), impl(p0, q0)))\n"}
CONTRACT = (0, 1, 2, 20, 30)
TOKEN = re.compile(r"\w+\s*|[^\w\s]\s*")  # a token and the blanks after it


def fuzz(examples):
    return settings(
        max_examples=examples, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture])


def _lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _vocabulary(texts):
    return sorted({t for text in texts for t in TOKEN.findall(text)})


CALC_LINES = {name: _lines(os.path.join(GOLDEN, name)) for name in CALCS}
CALC_VOCABULARY = _vocabulary(line for lines in CALC_LINES.values()
                              for line in lines if line.startswith("rule "))
SPEC_LINES = {logic: _lines(os.path.join(PRESETS, logic + ".spec"))
              for logic in PROBLEMS}
SPEC_VOCABULARY = _vocabulary(line for lines in SPEC_LINES.values()
                              for line in lines)
PROBLEM_VOCABULARY = _vocabulary(FUZZ_PROBLEMS.values())
REFINE_LINES = {name: _lines(os.path.join(PRESETS, name))
                for name in ("so.ctx", "so.refine", "ipc.refine")}
REFINE_VOCABULARY = _vocabulary(line for lines in REFINE_LINES.values()
                                for line in lines)


def _mutated(draw, lines, targets, vocabulary):
    """``lines`` with one to three token mutations in the lines at
    ``targets``, as UTF-8 bytes."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.sampled_from(targets))
        toks = TOKEN.findall(lines[i])
        if not toks:  # truncated away by an earlier mutation
            continue
        k = draw(st.integers(0, len(toks) - 1))
        op = draw(st.sampled_from(("drop", "insert", "truncate", "swap")))
        if op == "drop":
            del toks[k]
        elif op == "insert":
            toks.insert(k, draw(st.sampled_from(vocabulary)))
        elif op == "truncate":
            del toks[k:]
        else:
            j = draw(st.integers(0, len(toks) - 1))
            toks[j], toks[k] = toks[k], toks[j]
        lines[i] = "".join(toks)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _maybe_not_utf8(draw, data):
    """``data``, a quarter of the time with a 0xff byte put in."""
    if draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, len(data)))
        data = data[:k] + b"\xff" + data[k:]
    return data


@st.composite
def mutated_calc(draw):
    name = draw(st.sampled_from(CALCS))
    lines = CALC_LINES[name]
    rules = [i for i, line in enumerate(lines) if line.startswith("rule ")]
    return name.split("_")[0], _mutated(draw, lines, rules, CALC_VOCABULARY)


@st.composite
def mutated_problem(draw):
    logic = draw(st.sampled_from(sorted(FUZZ_PROBLEMS)))
    lines = FUZZ_PROBLEMS[logic].splitlines()
    data = _mutated(draw, lines, range(len(lines)), PROBLEM_VOCABULARY)
    return logic, _maybe_not_utf8(draw, data)


@st.composite
def mutated_file(draw, lines, vocabulary):
    """A line-oriented file with its comment and blank lines kept."""
    content = [i for i, line in enumerate(lines)
               if line and not line.startswith("#")]
    return _maybe_not_utf8(draw, _mutated(draw, lines, content, vocabulary))


@st.composite
def mutated_spec(draw):
    logic = draw(st.sampled_from(sorted(SPEC_LINES)))
    return logic, draw(mutated_file(SPEC_LINES[logic], SPEC_VOCABULARY))


@fuzz(300)
@given(mutated_calc())
def test_mutated_calc_keeps_the_exit_contract(tmp_path, case):
    logic, data = case
    calc, prob = tmp_path / "fuzz.calc", tmp_path / "fuzz.problem"
    calc.write_bytes(data)
    prob.write_text(PROBLEMS[logic], encoding="utf-8")
    code = cli.main(["prove", "--calc", str(calc), "--ub", "--budget-nodes",
                     "300", str(prob)])
    assert code in CONTRACT


@fuzz(60)
@given(mutated_problem())
def test_mutated_problem_keeps_the_exit_contract(tmp_path, case):
    logic, data = case
    prob = tmp_path / "fuzz.problem"
    prob.write_bytes(data)
    calc = os.path.join(GOLDEN, logic + "_refined.calc")
    code = cli.main(["prove", "--calc", calc, "--ub", "--budget-nodes", "300",
                     str(prob)])
    assert code in CONTRACT
    code = cli.main(["oracle", "--preset", logic, "--max-size", "2",
                     str(prob)])
    assert code in CONTRACT


@fuzz(120)
@given(mutated_spec())
def test_mutated_spec_keeps_the_exit_contract(tmp_path, case):
    logic, data = case
    spec, prob = tmp_path / "fuzz.spec", tmp_path / "fuzz.problem"
    spec.write_bytes(data)
    prob.write_text(PROBLEMS[logic], encoding="utf-8")
    code = cli.main(["synth", "--spec", str(spec), "-o",
                     str(tmp_path / "fuzz.calc")])
    assert code in CONTRACT
    code = cli.main(["oracle", "--spec", str(spec), "--max-size", "2",
                     str(prob)])
    assert code in CONTRACT


@pytest.mark.parametrize("name", sorted(REFINE_LINES))
@fuzz(100)
@given(data=st.data())
def test_mutated_refinement_keeps_the_exit_contract(tmp_path, name, data):
    logic, kind = name.split(".")
    files = {"refine": os.path.join(PRESETS, logic + ".refine"),
             "ctx": os.path.join(PRESETS, "so.ctx") if logic == "so" else None}
    files[kind] = str(tmp_path / ("fuzz." + kind))
    with open(files[kind], "wb") as fh:
        fh.write(data.draw(mutated_file(REFINE_LINES[name], REFINE_VOCABULARY)))
    calc, prob = tmp_path / "fuzz.calc", tmp_path / "fuzz.problem"
    args = ["refine", "--calc", os.path.join(GOLDEN, logic + "_generated.calc"),
            "--refine-script", files["refine"], "-o", str(calc)]
    if files["ctx"]:
        args += ["--ctx", files["ctx"]]
    code = cli.main(args)
    assert code in CONTRACT
    if code == 0:
        prob.write_text(PROBLEMS[logic], encoding="utf-8")
        code = cli.main(["prove", "--calc", str(calc), "--ub",
                         "--budget-nodes", "300", str(prob)])
        assert code in CONTRACT
