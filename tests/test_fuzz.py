"""Mutated ``.calc`` files through ``prove``: every input ends in an exit
code of the contract, never in a traceback.

The rule lines of the golden calculi are mutated token by token (dropped,
inserted, truncated, swapped), which reaches the ``.calc`` reader, the
calculus checks, and the matchers generated for whatever premises survive.
"""

import os
import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tabsynth import cli  # noqa: E402

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
CALCS = ("so_refined.calc", "so_generated.calc", "ipc_refined.calc",
         "ipc_generated.calc")
PROBLEMS = {"so": "exists(r0, or(p0, not(q0)))\n", "ipc": "not(or(p0, impl(p0, q0)))\n"}
TOKEN = re.compile(r"\w+\s*|[^\w\s]\s*")  # a token and the blanks after it


def _lines(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read().splitlines()


VOCABULARY = sorted({t for name in CALCS for line in _lines(name)
                     if line.startswith("rule ") for t in TOKEN.findall(line)})


@st.composite
def mutated_calc(draw):
    name = draw(st.sampled_from(CALCS))
    lines = _lines(name)
    rules = [i for i, line in enumerate(lines) if line.startswith("rule ")]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.sampled_from(rules))
        toks = TOKEN.findall(lines[i])
        if not toks:  # truncated away by an earlier mutation
            continue
        k = draw(st.integers(0, len(toks) - 1))
        op = draw(st.sampled_from(("drop", "insert", "truncate", "swap")))
        if op == "drop":
            del toks[k]
        elif op == "insert":
            toks.insert(k, draw(st.sampled_from(VOCABULARY)))
        elif op == "truncate":
            del toks[k:]
        else:
            j = draw(st.integers(0, len(toks) - 1))
            toks[j], toks[k] = toks[k], toks[j]
        lines[i] = "".join(toks)
    return name.split("_")[0], "\n".join(lines) + "\n"


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_calc())
def test_mutated_calc_keeps_the_exit_contract(tmp_path, case):
    logic, text = case
    calc, prob = tmp_path / "fuzz.calc", tmp_path / "fuzz.problem"
    calc.write_text(text, encoding="utf-8")
    prob.write_text(PROBLEMS[logic], encoding="utf-8")
    code = cli.main(["prove", "--calc", str(calc), "--ub", "--budget-nodes",
                     "300", str(prob)])
    assert code in (0, 1, 2, 20, 30)
