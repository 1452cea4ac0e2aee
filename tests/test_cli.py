import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import checkers
from tabsynth import cli
from tabsynth import syntax as sx


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
PRESETS = os.path.join(os.path.dirname(cli.__file__), "presets")


def run_cli(args):
    return cli.main(args)


def _golden_text(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    assert run_cli(["synth", "--preset", "so",
                    "-o", str(d / "so.calc")]) == 0
    assert run_cli(["synth", "--preset", "ipc",
                    "-o", str(d / "ipc.calc")]) == 0
    assert run_cli(["refine", "--calc", str(d / "so.calc"),
                    "--refine-script", os.path.join(PRESETS, "so.refine"),
                    "--ctx", os.path.join(PRESETS, "so.ctx"),
                    "-o", str(d / "so_refined.calc")]) == 0
    assert run_cli(["refine", "--calc", str(d / "ipc.calc"),
                    "--refine-script", os.path.join(PRESETS, "ipc.refine"),
                    "-o", str(d / "ipc_refined.calc")]) == 0
    return d


def _write(path, text):
    """Write ``text`` (bytes as they are) and return the path."""
    with open(path, "wb") as fh:
        fh.write(text if isinstance(text, bytes) else text.encode("utf-8"))
    return str(path)


# a file that is not UTF-8 from its first byte on
NOT_UTF8 = b"\xffsorts 2\n"


def test_exit_code_unsat(work):
    prob = _write(work / "p1.txt",
                  "exists(r0, exists(r0, p0))\nnot(exists(r0, p0))\n")
    code = run_cli(["prove", "--calc", str(work / "so_refined.calc"),
                    "--preset", "so", "--ub", prob])
    assert code == 20


def test_exit_code_sat_with_model(work):
    prob = _write(work / "p2.txt", "exists(r0, p0)\n")
    model = str(work / "m.txt")
    code = run_cli(["prove", "--calc", str(work / "so_refined.calc"),
                    "--preset", "so", "--ub", "--model", model, prob])
    assert code == 0
    text = Path(model).read_text(encoding="utf-8")
    assert text.startswith("domain:")
    assert "nu1 p0:" in text


def test_exit_code_unknown_on_budget(work, capsys):
    prob = _write(work / "p3.txt", "exists(r0, p0)\n")
    code = run_cli(["prove", "--calc", str(work / "so_refined.calc"),
                    "--preset", "so", "--ub", "--budget-nodes", "2", prob])
    assert code == 30
    assert capsys.readouterr() == ("UNKNOWN\n",
                                   "limit: node budget 2 reached\n")


def test_exit_code_malformed_problem(work):
    prob = _write(work / "p4.txt", "or(p0\n")
    code = run_cli(["prove", "--calc", str(work / "so_refined.calc"),
                    "--preset", "so", prob])
    assert code == 2


def test_exit_code_empty_problem(work):
    prob = _write(work / "p5.txt", "# nothing here\n")
    code = run_cli(["prove", "--calc", str(work / "so_refined.calc"), prob])
    assert code == 2


def test_exit_code_broken_spec(tmp_path):
    spec = _write(tmp_path / "broken.spec", "sorts 2\nvars 1 p\ndefine junk\n")
    assert run_cli(["synth", "--spec", spec]) == 1


def test_refine_missing_rule(tmp_path, work):
    script = _write(tmp_path / "bad.refine", "rf nosuch fold 0\n")
    code = run_cli(["refine", "--calc", str(work / "so.calc"),
                    "--refine-script", script])
    assert code == 1


def test_refine_unsafe_needs_flag(tmp_path, work):
    script = _write(tmp_path / "ke.refine", "rf or_pos fold 0 drop-dp\n")
    out = str(tmp_path / "ke.calc")
    assert run_cli(["refine", "--calc", str(work / "so.calc"),
                    "--refine-script", script, "-o", out]) == 1
    assert run_cli(["refine", "--calc", str(work / "so.calc"),
                    "--refine-script", script, "--unsafe-refine",
                    "-o", out]) == 0


@pytest.mark.parametrize("script", [
    "rf or_pos fold 0 drop-dp\nsimplify\n",
    # the preset's steps, internalization among them, and blocking keep it too
    "rf or_pos fold 0 drop-dp\nrf exists_neg fold 0 drop-dp\n"
    "rf theory_0 fold 0 1 drop-dp\ntr\nsimplify\nub\n"])
def test_refine_warns_of_an_unsafe_fold_whatever_follows(tmp_path, work,
                                                         capsys, script):
    path = _write(tmp_path / "ke.refine", script)
    assert run_cli(["refine", "--calc", str(work / "so.calc"),
                    "--refine-script", path, "--unsafe-refine",
                    "--ctx", os.path.join(PRESETS, "so.ctx"),
                    "-o", str(tmp_path / "ke.calc")]) == 0
    assert "warning: fold of or_pos is outside the whitelist: completeness " \
        "not guaranteed\n" in capsys.readouterr().err


def test_an_unsafe_fold_warning_survives_a_calc_file(tmp_path, work, capsys):
    warning = ("fold of or_pos is outside the whitelist: completeness "
               "not guaranteed")
    ke = str(tmp_path / "ke.calc")
    script = _write(tmp_path / "ke.refine", "rf or_pos fold 0 drop-dp\n")
    assert run_cli(["refine", "--calc", str(work / "so.calc"),
                    "--refine-script", script, "--unsafe-refine",
                    "-o", ke]) == 0
    capsys.readouterr()
    prob = _write(tmp_path / "p.txt", "or(p0, q0)\nnot(p0)\n")
    assert run_cli(["prove", "--calc", ke, prob]) == 0
    assert "warning: %s\n" % warning in capsys.readouterr().err
    simplify = _write(tmp_path / "simplify.refine", "simplify\n")
    again = tmp_path / "again.calc"
    assert run_cli(["refine", "--calc", ke, "--refine-script", simplify,
                    "-o", str(again)]) == 0
    assert "\nwarning %s\n" % warning in again.read_text(encoding="utf-8")


def test_a_calc_without_its_mode_line_follows_its_ctx_lines(tmp_path):
    text = _golden_text("so_refined.calc")
    assert text.splitlines()[1] == "mode internalized"
    calc = _write(tmp_path / "no-mode.calc",
                  text.replace("mode internalized\n", "", 1))
    prob = _write(tmp_path / "unsat.txt",
                  "exists(r0, exists(r0, p0))\nnot(exists(r0, p0))\n")
    assert run_cli(["prove", "--calc", calc, "--ub", prob]) == 20


def test_synth_deterministic_bytes(work, tmp_path):
    out2 = str(tmp_path / "so2.calc")
    assert run_cli(["synth", "--preset", "so", "-o", out2]) == 0
    assert Path(out2).read_bytes() == (work / "so.calc").read_bytes()


@pytest.mark.parametrize("made, golden", [
    ("so.calc", "so_generated.calc"), ("ipc.calc", "ipc_generated.calc"),
    ("so_refined.calc", "so_refined.calc"), ("ipc_refined.calc", "ipc_refined.calc")])
def test_cli_output_is_golden_bytes(work, made, golden):
    with open(work / made, "rb") as fh:
        got = fh.read()
    with open(os.path.join(GOLDEN, golden), "rb") as fh:
        assert got == fh.read()


# (name, text of the file {f} or None, arguments, what the error must name);
# {nodir} is a directory that does not exist, {p0} the problem p0, {fold}
# a refine script folding theory_0 into theory_0_1
BAD_FILES = [
    ("missing.spec", None, ["synth", "--spec", "{f}"], "{f}"),
    ("missing.calc", None,
     ["refine", "--calc", "{f}", "--refine-script", "{so_refine}"], "{f}"),
    ("bad.ctx", "connective colon a 1 -> 1\n",
     ["refine", "--calc", "{work}/so.calc", "--refine-script", "{so_refine}",
      "--ctx", "{f}"], "at 1:?"),
    ("bad.calc", "sorts 2\nvars 1 p\nctx connective colon a 1 -> 1\n",
     ["prove", "--calc", "{f}", "{work}/none.txt"], "at 3:?"),
    ("bad.refine", "ub depth x\n",
     ["refine", "--calc", "{work}/so.calc", "--refine-script", "{f}"], "at 1:?"),
    ("synth-out", None, ["synth", "--preset", "so", "-o", "{nodir}/x.calc"],
     "{nodir}"),
    ("refine-out", "simplify\n",
     ["refine", "--calc", "{work}/so.calc", "--refine-script", "{f}",
      "-o", "{nodir}/x.calc"], "{nodir}"),
    # a timeout that subprocess cannot take, or that times every call out,
    # is refused before any obligation is written
    *[("prover-timeout-%s" % t, None,
       ["check-wd", "--preset", "so", "--outdir", "{nodir}", "--prover",
        "true", "--prover-timeout", t], "prover timeout must be")
      for t in ("nan", "inf", "-1")],
    ("prove-trace", "exists(r0, p0)\n",
     ["prove", "--calc", "{work}/so_refined.calc", "--preset", "so", "--ub",
      "--trace", "{nodir}/t.txt", "{f}"], "{nodir}"),
    ("prove-model", "exists(r0, p0)\n",
     ["prove", "--calc", "{work}/so_refined.calc", "--preset", "so", "--ub",
      "--model", "{nodir}/m.txt", "{f}"], "{nodir}"),
    ("oracle-model", "p0\n",
     ["oracle", "--preset", "so", "--max-size", "2", "--model", "{nodir}/m.txt",
      "{f}"], "{nodir}"),
    # a head expression that repeats a variable matches fewer concepts than
    # its definition speaks of
    ("repeated-head-var.spec",
     "sorts 2\nvars 1 p\nconnective a 1 1 -> 1\n"
     "define forall x. nu1(a(p, p), x) <-> nu1(p, x)\n",
     ["synth", "--spec", "{f}"], "distinct"),
    # a command that needs a specification says so before it reads its input
    ("prove-model-no-spec", "p0\nnot(p0)\n",
     ["prove", "--calc", "{work}/so_refined.calc", "--model", "{work}/m.txt",
      "{f}"], "--model needs --spec or --preset"),
    ("synth-no-spec", None, ["synth"], "synth needs --preset or --spec"),
    ("check-wd-no-spec", None, ["check-wd", "--outdir", "{nodir}"],
     "check-wd needs --preset or --spec"),
    ("oracle-no-spec", None, ["oracle", "{f}"],
     "oracle needs --preset or --spec"),
    ("synth-unknown-preset", None, ["synth", "--preset", "nosuch"],
     "unknown preset 'nosuch' (bundled: ipc, so)"),
    # a preset is a bundled name, never a path to another .spec file
    ("synth-preset-path", None, ["synth", "--preset", "../presets/so"],
     "unknown preset '../presets/so' (bundled: ipc, so)"),
    # each refusal says what failed, not only the symbol it failed on
    ("twice-and-undefined.spec",
     "sorts 2\nvars 1 p\nconnective a 1 -> 1\nconnective b 1 -> 1\n"
     "define forall x. nu1(a(p), x) <-> nu1(p, x)\n"
     "define forall x. nu1(a(p), x) <-> not(nu1(p, x))\n",
     ["synth", "--spec", "{f}"],
     "error: connective a is defined twice; connective b has no definition\n"),
    ("self-reference.spec",
     "sorts 2\nvars 1 p\nconnective a 1 -> 1\n"
     "define forall x. nu1(a(p), x) <-> nu1(a(p), x)\n",
     ["synth", "--spec", "{f}"], "error: definition of a mentions a\n"),
    # the oracle refuses a cyclic ordering as synthesis does; no structure
    # satisfies a(p) <-> not(a(p))
    ("cyclic.spec",
     "sorts 2\nvars 1 p\nconnective a 1 -> 1\nconnective b 1 -> 1\n"
     "define forall x. nu1(a(p), x) <-> nu1(b(p), x)\n"
     "define forall x. nu1(b(p), x) <-> not(nu1(a(p), x))\n",
     ["oracle", "--spec", "{f}", "--max-size", "1", "{a_p0}"],
     "error: induced ordering has a cycle: ['a', 'b', 'a']\n"),
    # a frame sentence over a domain constant: no frame gives it a value
    ("frame-const.spec",
     "sorts 2\nvars 1 p\npredicate R 2\naxiom R(a0, a0)\n",
     ["oracle", "--spec", "{f}", "--max-size", "2", "{p0}"],
     "error: no value for domain term a0\n"),
    # a definition body over a domain constant: an input read through it
    # has no value there
    ("body-const.spec",
     "sorts 2\nvars 1 p\npredicate R 2\nconnective a 1 -> 1\n"
     "define forall x. nu1(a(p), x) <-> R(x, a0)\n",
     ["oracle", "--spec", "{f}", "--max-size", "2", "{a_p0}"],
     "error: no value for domain term a0\n"),
    ("no-such-rule.refine", "rf nosuch fold 0\n",
     ["refine", "--calc", "{work}/so.calc", "--refine-script", "{f}"],
     "error: no rule nosuch\n"),
    # a fold with no index would only rename the rule
    ("fold-nothing.refine", "simplify\nrf exists_neg fold drop-dp\n",
     ["refine", "--calc", "{work}/so.calc", "--refine-script", "{f}"],
     "rf <rule> fold <i>... [drop-dp] at 2:?"),
    # a model is extracted under the specification the calculus came from
    ("so-calc-ipc-spec", None,
     ["prove", "--calc", "{work}/so_refined.calc", "--preset", "ipc", "--ub",
      "--model", "{work}/m.txt", "{one_l0}"],
     "specification ipc does not fit calculus so: 2 sorts"),
    ("ipc-calc-so-spec", None,
     ["prove", "--calc", "{work}/ipc_refined.calc", "--preset", "so", "--ub",
      "--model", "{work}/m.txt", "{p0}"],
     "specification so does not fit calculus ipc: 3 sorts"),
    ("unbound.calc",
     "sorts 2\nvars 1 p\nrule bad [equality]: eq(x, x) / eq(y, y)\n",
     ["prove", "--calc", "{f}", "{work}/none.txt"], "binds y at 3:?"),
    ("no-premises.calc", "sorts 2\nvars 1 p\nrule bad [closure]: / false\n",
     ["prove", "--calc", "{f}", "{work}/none.txt"], "no premises at 3:?"),
    # a calculus is internalized exactly when it has ctx lines
    ("no-ctx.calc", "mode internalized\nsorts 2\nvars 0 l\nvars 1 p\n",
     ["prove", "--calc", "{f}", "{work}/none.txt"],
     "mode internalized, but a calculus without 'ctx' lines is base at 1:?"),
    ("mode-base.calc", _golden_text("so_refined.calc").replace(
        "mode internalized", "mode base"),
     ["prove", "--calc", "{f}", "--ub", "{p0}"],
     "mode base, but a calculus with 'ctx' lines is internalized at 2:?"),
    ("ub-depth", "exists(r0, p0)\n",
     ["prove", "--calc", "{work}/so_refined.calc", "--ub", "--ub-depth", "-1",
      "{f}"], "depth"),
    # a NaN time budget never runs out
    ("budget-secs-nan", "exists(r0, p0)\n",
     ["prove", "--calc", "{work}/so_refined.calc", "--ub", "--budget-secs",
      "nan", "{f}"], "time budget must be >= 0 seconds, not nan"),
    ("budget-secs", "exists(r0, p0)\n",
     ["prove", "--calc", "{work}/so_refined.calc", "--ub", "--budget-secs",
      "-1", "{f}"], "time budget must be >= 0 seconds, not -1"),
    ("budget-nodes", "exists(r0, p0)\n",
     ["prove", "--calc", "{work}/so_refined.calc", "--ub", "--budget-nodes",
      "-5", "{f}"], "node budget must be >= 0, not -5"),
    ("no-equality.calc",
     "sorts 2\nvars 1 p\nrule c [closure]: nu1(p, x), not(nu1(p, x)) / false\n",
     ["prove", "--calc", "{f}", "--ub", "{p0}"], "equality"),
    ("oracle-size", "exists(r0, p0)\n",
     ["oracle", "--preset", "so", "--max-size", "0", "{f}"], "max size"),
    ("ub-depth-missing.refine", "ub depth\n",
     ["refine", "--calc", "{work}/so.calc", "--refine-script", "{f}"],
     "malformed 'ub' directive at 1:?"),
    ("ub-deep.refine", "simplify\nub deep 3\n",
     ["refine", "--calc", "{work}/so.calc", "--refine-script", "{f}"],
     "malformed 'ub' directive at 2:?"),
    ("ub-number.refine", "ub 3\n",
     ["refine", "--calc", "{work}/so.calc", "--refine-script", "{f}"],
     "malformed 'ub' directive at 1:?"),
    ("blocking.calc", "sorts 2\nvars 1 p\nblocking nonsense\n",
     ["prove", "--calc", "{f}", "{p0}"], "malformed 'blocking' directive at 3:?"),
    ("blocking-rule.calc", "sorts 2\nvars 1 p\nrule ub [blocking]: eq(x, x), "
     "eq(y, y), eq(z, z) / eq(x, y) | not(eq(x, y))\n",
     ["prove", "--calc", "{f}", "{p0}"], "two premises of one variable each at 3:?"),
    # a template parameter its expression lacks never gets a value, and a
    # variable that is no parameter would stay one on the branch
    ("template-param.calc", _golden_text("so_refined.calc").replace(
        "ctx d+ eq(l, l1) = colon(l, one(l1))",
        "ctx d+ eq(l, l1) = colon(l, one(l))"),
     ["prove", "--calc", "{f}", "--ub", "{one_l0}"], "'l1' does not occur in "
     "its expression at 23:?"),
    ("template-var.calc", _golden_text("so_refined.calc").replace(
        "ctx c+ 1(p, l) = colon(l, p)", "ctx c+ 1(p, l) = colon(l, or(p, q))"),
     ["prove", "--calc", "{f}", "--ub", "{p0}"],
     "template variable 'q' is not a parameter at 19:?"),
    # traces name a rule by its id: the two rules a could not be told apart
    ("repeated-rule.calc",
     "sorts 3\nvars 0 l\nvars 1 p q\nvars 2 r\nconnective not 1 -> 1\n"
     "rule a [decomposition+]: nu1(not(p), x) / not(nu1(p, x))\n"
     "rule a [decomposition+]: nu1(not(p), x) / nu1(p, x)\n"
     "rule closure_nu1 [closure]: nu1(p, x), not(nu1(p, x)) / false\n",
     ["prove", "--calc", "{f}", "{work}/none.txt"],
     "duplicate rule id 'a' at 7:?"),
    ("repeated-fold.calc",
     "sorts 3\nvars 0 l\nvars 1 p q\nvars 2 r\n"
     "rule theory_0_1 [closure]: nu1(p, x), not(nu1(p, x)) / false\n"
     "rule theory_0 [theory]: eq(r, r), eq(x, x), eq(y, y), eq(z, z) / "
     "not(nu2(r, x, y)) | not(nu2(r, y, z)) | nu2(r, x, z)\n",
     ["refine", "--calc", "{f}", "--refine-script", "{fold}"],
     "duplicate rule id 'theory_0_1'"),
    # every file a command reads must be UTF-8 text
    ("latin1.spec", NOT_UTF8, ["synth", "--spec", "{f}"], "{f}: not UTF-8"),
    ("latin1.calc", NOT_UTF8, ["prove", "--calc", "{f}", "{p0}"],
     "{f}: not UTF-8"),
    ("latin1.refine", NOT_UTF8,
     ["refine", "--calc", "{work}/so.calc", "--refine-script", "{f}"],
     "{f}: not UTF-8"),
    ("latin1.ctx", NOT_UTF8,
     ["refine", "--calc", "{work}/so.calc", "--refine-script", "{so_refine}",
      "--ctx", "{f}"], "{f}: not UTF-8")]


def _run_module(args):
    """The command line in a child process that imports this package."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, "-m", "tabsynth.cli"] + args,
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("name, text, args, names", BAD_FILES,
                         ids=[c[0] for c in BAD_FILES])
def test_bad_file_is_error_without_traceback(work, tmp_path, name, text, args,
                                             names):
    path = tmp_path / name
    if text is not None:
        _write(path, text)
    fields = {"f": path, "work": work, "nodir": tmp_path / "nodir",
              "so_refine": os.path.join(PRESETS, "so.refine"),
              "p0": _write(tmp_path / "p0.txt", "p0\n"),
              "one_l0": _write(tmp_path / "one_l0.txt", "exists(r0, one(l0))\n"),
              "a_p0": _write(tmp_path / "a_p0.txt", "a(p0)\n"),
              "fold": _write(tmp_path / "fold.refine", "rf theory_0 fold 0\n")}
    proc = _run_module([a.format(**fields) for a in args])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert names.format(**fields) in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unknown_oracle_preset_is_input_error(tmp_path, capsys):
    prob = _write(tmp_path / "p.txt", "p0\n")
    assert run_cli(["oracle", "--preset", "nosuch", prob]) == 2
    assert capsys.readouterr().err == \
        "input error: unknown preset 'nosuch' (bundled: ipc, so)\n"
    assert run_cli(["oracle", "--preset", "../presets/so", prob]) == 2
    assert capsys.readouterr().err == \
        "input error: unknown preset '../presets/so' (bundled: ipc, so)\n"


@pytest.mark.parametrize("args", [
    ["prove", "--calc", "{work}/so_refined.calc", "--ub", "{bad}"],
    ["oracle", "--preset", "so", "{bad}"],
    ["prove", "--calc", "{work}/so_refined.calc", "--spec", "{bad}", "{p0}"],
    ["oracle", "--spec", "{bad}", "{p0}"]],
    ids=["prove", "oracle", "prove-spec", "oracle-spec"])
def test_non_utf8_input_is_input_error(work, tmp_path, capsys, args):
    fields = {"work": work, "bad": _write(tmp_path / "bad.txt", NOT_UTF8),
              "p0": _write(tmp_path / "p0.txt", "p0\n")}
    assert run_cli([a.format(**fields) for a in args]) == 2
    assert capsys.readouterr().err == "input error: %s: not UTF-8 text " \
        "(byte 0xff at offset 0)\n" % fields["bad"]


# a problem nested deeper than the interpreter's recursion limit
DEEP_PROBLEM = "not(" * 1500 + "p0" + ")" * 1500 + "\n"


@pytest.mark.parametrize("args", [
    ["prove", "--calc", "{work}/so_refined.calc", "--preset", "so", "--ub"],
    ["oracle", "--preset", "so", "--max-size", "2"]], ids=["prove", "oracle"])
def test_deep_problem_is_input_error_without_traceback(work, tmp_path, args):
    prob = _write(tmp_path / "deep.txt", DEEP_PROBLEM)
    proc = _run_module([a.format(work=work) for a in args] + [prob])
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error: ")
    assert "nested too deeply" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_oracle_compiles_a_deeply_nested_definition(tmp_path):
    # f's definition alternates or and and 450 levels deep: compiled as one
    # function, its source would nest more brackets than compile() takes
    body = "nu1(p, x)"
    for i in range(450):
        body = "%s(nu1(p, x), %s)" % ("and" if i % 2 else "or", body)
    spec = _write(tmp_path / "deep.spec", "sorts 2\nvars 1 p\nconnective f 1 "
                  "-> 1\ndefine forall x. nu1(f(p), x) <-> %s\n" % body)
    prob = _write(tmp_path / "f.txt", "f(p0)\n")
    proc = _run_module(["oracle", "--spec", spec, "--max-size", "2", prob])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "SAT\n", "")


def test_blocking_rule_variables_follow_the_signature(tmp_path):
    # the SO logic with sort-0 variables named w: the internalized blocking
    # rule must be written with those names to be read back
    def renamed(name):
        with open(os.path.join(PRESETS, name), encoding="utf-8") as fh:
            text = fh.read()
        return re.sub(r"\bl(1?)\b", r"w\1", text)

    spec = _write(tmp_path / "w.spec", renamed("so.spec"))
    ctx = _write(tmp_path / "w.ctx", renamed("so.ctx"))
    script = _write(tmp_path / "w.refine", renamed("so.refine") + "ub\n")
    calc, refined = str(tmp_path / "w.calc"), str(tmp_path / "w_refined.calc")
    assert run_cli(["synth", "--spec", spec, "-o", calc]) == 0
    assert run_cli(["refine", "--calc", calc, "--refine-script", script,
                    "--ctx", ctx, "-o", refined]) == 0
    assert "colon(w, one(w1))" in Path(refined).read_text(encoding="utf-8")
    sat = _write(tmp_path / "sat.txt", "exists(r0, p0)\n")
    unsat = _write(tmp_path / "unsat.txt",
                   "exists(r0, exists(r0, p0))\nnot(exists(r0, p0))\n")
    assert run_cli(["prove", "--calc", refined, sat]) == 0
    assert run_cli(["prove", "--calc", refined, unsat]) == 20


@pytest.mark.parametrize("status, outcome", [
    ("CounterSatisfiable", "not proved (exit 0)"), ("Theorem", "proved")])
def test_checkwd_prover_reads_szs_status(tmp_path, capsys, status, outcome):
    prover = tmp_path / "fake_prover"
    _write(prover, '#!/bin/sh\necho "%% SZS status %s for $1"\n' % status)
    prover.chmod(0o755)
    # the obligation paths name "Theorem"; only the status word may count
    outdir = str(tmp_path / "Theorem")
    assert run_cli(["check-wd", "--preset", "ipc", "--outdir", outdir,
                    "--prover", str(prover)]) == 0
    assert "wd1: %s" % outcome in capsys.readouterr().out.splitlines()


def test_ipc_validity_pipeline(work):
    prob = _write(work / "p6.txt", "not(impl(p0, p0))\n")
    code = run_cli(["prove", "--calc", str(work / "ipc_refined.calc"),
                    "--preset", "ipc", "--ub", prob])
    assert code == 20


def test_oracle_exit_codes(work):
    prob = _write(work / "p7.txt", "p0\nnot(p0)\n")
    assert run_cli(["oracle", "--preset", "so", "--max-size", "3", prob]) == 20
    prob2 = _write(work / "p8.txt", "p0\n")
    assert run_cli(["oracle", "--preset", "so", "--max-size", "3",
                    prob2]) == 0
    assert run_cli(["oracle", "--preset", "so", "--max-size", "3",
                    str(work / "p4.txt")]) == 2


# counter-models of three IPC non-theorems, recorded when the oracle still
# tried every labelled frame
ORACLE_GOLDEN = [
    ("oracle_ipc_width.model",
     "or(or(impl(p0, or(q0, p1)), impl(q0, or(p0, p1))), impl(p1, or(p0, q0)))"),
    ("oracle_ipc_linearity.model", "or(impl(p0, q0), impl(q0, p0))"),
    ("oracle_ipc_wem.model", "or(impl(p0, bot), impl(impl(p0, bot), bot))")]


@pytest.mark.parametrize("golden, formula", ORACLE_GOLDEN,
                         ids=[c[0] for c in ORACLE_GOLDEN])
def test_oracle_model_is_golden_bytes(tmp_path, golden, formula):
    prob = _write(tmp_path / "p.txt", "not(%s)\n" % formula)
    model = tmp_path / "m.txt"
    assert run_cli(["oracle", "--preset", "ipc", "--max-size", "4",
                    "--model", str(model), prob]) == 0
    with open(os.path.join(GOLDEN, golden), "rb") as fh:
        assert model.read_bytes() == fh.read()


def test_oracle_frames_are_cached_per_predicate_arity(tmp_path):
    # no variable-free sentences in either: the frames of a binary R must
    # not serve a unary R of the same name
    head = "sorts 2\nvars 1 p\npredicate R %d\nconnective %s 1 -> 1\n"
    a = _write(tmp_path / "a.spec", head % (2, "dia") +
               "define forall x. nu1(dia(p), x) <-> "
               "exists y. and(R(x, y), nu1(p, y))\n")
    b = _write(tmp_path / "b.spec", head % (1, "mark") +
               "define forall x. nu1(mark(p), x) <-> and(R(x), nu1(p, x))\n")
    for spec, concept in ((a, "dia(p0)"), (b, "mark(p0)")):
        prob = _write(tmp_path / "p.txt", concept + "\n")
        assert run_cli(["oracle", "--spec", spec, "--max-size", "1",
                        prob]) == 0


def test_checkwd_blank_prover_is_error(tmp_path, capsys):
    assert run_cli(["check-wd", "--preset", "ipc", "--outdir", str(tmp_path),
                    "--prover", " "]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_checkwd_unstartable_prover_is_error(tmp_path):
    # the script is executable, but the interpreter it names does not exist
    prover = tmp_path / "prover"
    _write(prover, "#!/nonexistent/interp\n")
    prover.chmod(0o755)
    proc = _run_module(["check-wd", "--preset", "ipc", "--outdir",
                        str(tmp_path / "wd"), "--prover", str(prover)])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def _fail(*args, **kwargs):
    raise sx.TabError("injected")


# a pipeline stage that fails after the input is read
@pytest.mark.parametrize("target, args", [
    ("tabsynth.engine.Engine.expand",
     ["prove", "--calc", "{work}/so_refined.calc", "--ub", "{p0}"]),
    ("tabsynth.models.extract_model",
     ["prove", "--calc", "{work}/so_refined.calc", "--preset", "so", "--ub",
      "--model", "{tmp}/m.txt", "{p0}"]),
    ("tabsynth.models.brute_force_sat", ["oracle", "--preset", "so", "{p0}"]),
    ("tabsynth.tptp.write_obligations",
     ["check-wd", "--preset", "so", "--outdir", "{tmp}/wd"])],
    ids=["expand", "extract_model", "brute_force_sat", "write_obligations"])
def test_pipeline_failure_is_error(work, tmp_path, monkeypatch, capsys, target,
                                   args):
    monkeypatch.setattr(target, _fail)
    fields = {"work": work, "tmp": tmp_path,
              "p0": _write(tmp_path / "p0.txt", "p0\n")}
    assert run_cli([a.format(**fields) for a in args]) == 1
    assert capsys.readouterr().err == "error: injected\n"


def test_checkwd_writes_files(work, tmp_path):
    outdir = str(tmp_path / "wd")
    assert run_cli(["check-wd", "--preset", "ipc", "--outdir", outdir]) == 0
    names = sorted(os.listdir(outdir))
    assert names == ["wd1.p", "wd3_and.p", "wd3_bot.p", "wd3_impl.p",
                     "wd3_or.p"]


def test_checkwd_unwritable_outdir(work):
    assert run_cli(["check-wd", "--preset", "so",
                    "--outdir", "/proc/nonexistent/wd"]) == 1


def test_every_public_name_has_a_product_caller():
    # the package ships what a command or the benchmark reaches; a name only
    # the tests use belongs in tests/ (checkers.py holds such checkers)
    root = Path(__file__).resolve().parent.parent
    package = sorted((root / "src" / "tabsynth").glob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for p in package + sorted((root / "perfbench").glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    unreached = []
    for p in package:
        for node in trees[p].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            unreached += ["%s.%s" % (p.stem, name) for name in names
                          if not name.startswith("_") and name not in used]
    assert unreached == []


def test_trace_written_and_replayable(work, tmp_path):
    prob = _write(work / "p9.txt", "exists(r0, p0)\n")
    trace = str(tmp_path / "run.trace")
    code = run_cli(["prove", "--calc", str(work / "so_refined.calc"),
                    "--preset", "so", "--ub", "--trace", trace, prob])
    assert code == 0
    from tabsynth import calcfile, engine, parser, refine, synth
    calc = calcfile.parse_calculus(
        (work / "so_refined.calc").read_text(encoding="utf-8"))
    calc = refine.attach_ub(calc, synth.UbConfig(True, 0))
    c = parser.parse_lexpr(calc.signature, "exists(r0, p0)", 1)
    steps = checkers.replay_trace(calc, [c], Path(trace).read_text(encoding="utf-8"))
    assert steps > 0


def _golden_calc_ub(name):
    from tabsynth import calcfile, refine, synth
    with open(os.path.join(GOLDEN, name)) as fh:
        calc = calcfile.parse_calculus(fh.read())
    return refine.attach_ub(calc, synth.UbConfig(True, 0))


def test_replay_rejects_a_step_whose_premise_is_absent():
    from tabsynth import engine, parser
    calc = _golden_calc_ub("so_refined.calc")
    c = parser.parse_lexpr(calc.signature, "exists(r0, p0)", 1)
    with open(os.path.join(GOLDEN, "so_refined_exists.trace")) as fh:
        trace = fh.read()
    assert checkers.replay_trace(calc, [c], trace) == 22
    # the root holds exists(r0, p0) at i0, not exists(r0, q0)
    first = "apply dp_pos_nu1 {l:=i0; p:=exists(r0, p0)}"
    assert trace.startswith(first)
    bad = trace.replace(first, first.replace("p0", "q0"), 1)
    with pytest.raises(sx.TabError, match="absent"):
        checkers.replay_trace(calc, [c], bad)
    # an instance is read off the rule's variables only: the second line of
    # a split that binds one more is rejected all the same
    split = next(l for l in trace.splitlines() if " den#1 " in l)
    bad = trace.replace(split, split.replace("{", "{q:=p0; ", 1))
    with pytest.raises(sx.TabError, match="premise variables"):
        checkers.replay_trace(calc, [c], bad)


@pytest.mark.parametrize("line, why", [
    ("apply foo", "bad trace line"),
    ("apply foo {} den#0", "bad trace line"),
    ("apply foo {} den#0 branch#zz -> branch#0", "bad trace line"),
    ("apply dp_pos_nu1 {l:=i0; p:=exists(r0, p0)} den#7 branch#0 -> branch#0",
     "no denominator 7"),
    ("apply dp_pos_nu1 {l:=i7; l:=i0; p:=exists(r0, p0)} den#0 branch#0 -> "
     "branch#0", "names l twice"),
    ("apply foo {} den#0 branch#0 -> branch#0", "unknown rule foo"),
    ("apply dp_pos_nu1 {i0:=i0} den#0 branch#0 -> branch#0",
     "bad binding variable 'i0'"),
    ("apply dp_pos_nu1 {l:=i0; p:=exists(r0, p0)} den#0 branch#5 -> branch#5",
     "unknown or closed branch 5")])
def test_replay_rejects_a_malformed_step_line(line, why):
    from tabsynth import engine, parser
    calc = _golden_calc_ub("so_refined.calc")
    c = parser.parse_lexpr(calc.signature, "exists(r0, p0)", 1)
    with pytest.raises(sx.TabError, match=why):
        checkers.replay_trace(calc, [c], line)


@pytest.mark.parametrize("keep, line, why", [
    # line 4 made branch#1 already
    (4, "apply ub {l:=i0; l1:=fex(r0, p0, i0)} den#1 branch#0 -> branch#1",
     "reuses branch 1"),
    # branch#1 inherits the instance line 1 applied on branch#0
    (6, "apply dp_pos_nu1 {l:=i0; p:=exists(r0, p0)} den#0 branch#1 -> branch#1",
     "instance already applied"),
    # line 1 repeated
    (1, "apply dp_pos_nu1 {l:=i0; p:=exists(r0, p0)} den#0 branch#0 -> branch#0",
     "instance already applied"),
    (3, "apply ub {l:=fex(r0, p0, i0); l1:=i0} den#0 branch#0 -> branch#1",
     "terms not distinct and in birth order")])
def test_replay_rejects_a_tampered_golden_step(keep, line, why):
    from tabsynth import engine, parser
    calc = _golden_calc_ub("so_refined.calc")
    c = parser.parse_lexpr(calc.signature, "exists(r0, p0)", 1)
    with open(os.path.join(GOLDEN, "so_refined_exists.trace")) as fh:
        lines = fh.read().splitlines()
    with pytest.raises(sx.TabError, match=why):
        checkers.replay_trace(calc, [c], "\n".join(lines[:keep] + [line]))


def test_replay_rejects_an_unsat_claim_that_skips_a_denominator():
    # or(p0, q0) with not(p0) is satisfiable: the q0 branch stays open
    from tabsynth import engine, parser
    calc = _golden_calc_ub("so_refined.calc")
    cs = [parser.parse_lexpr(calc.signature, t, 1)
          for t in ("or(p0, q0)", "not(p0)")]
    v = engine.prove(calc, cs, trace=True)
    lines = v.engine.trace
    assert v.kind == "sat" and len(lines) == 6
    assert checkers.replay_trace(calc, cs, "\n".join(lines)) == 4
    assert " den#1 branch#0 -> branch#2" in lines[2]
    # the split's line into branch#2 left out
    with pytest.raises(sx.TabError, match="split left unfinished"):
        checkers.replay_trace(calc, cs, "\n".join(lines[:2] + lines[3:5]))
    with pytest.raises(sx.TabError, match="ends inside a split"):
        checkers.replay_trace(calc, cs, "\n".join(lines[:2]))
    # the split's second line alone
    with pytest.raises(sx.TabError, match="start at den#0"):
        checkers.replay_trace(calc, cs, "\n".join(lines[:1] + lines[2:3]))
    # p0 taken in place although q0 is not contradicted
    in_place = [l.replace("-> branch#1", "-> branch#0").replace(
        "branch#1 ->", "branch#0 ->") for l in (lines[1], lines[3])]
    with pytest.raises(sx.TabError, match="step in place not justified"):
        checkers.replay_trace(calc, cs, "\n".join(lines[:1] + in_place
                                                  + ["close branch#0"]))


def test_replay_rejects_a_closing_step_into_another_branch():
    from tabsynth import engine, parser
    calc = _golden_calc_ub("so_refined.calc")
    cs = [parser.parse_lexpr(calc.signature, t, 1) for t in ("p0", "not(p0)")]
    lines = engine.prove(calc, cs, trace=True).engine.trace
    assert lines == ["apply closure_nu1 {l:=i0; p:=p0} den#0 branch#0 -> "
                     "branch#0", "close branch#0"]
    assert checkers.replay_trace(calc, cs, "\n".join(lines)) == 1
    moved = lines[0].replace("-> branch#0", "-> branch#9")
    with pytest.raises(sx.TabError, match="closing step targets another"):
        checkers.replay_trace(calc, cs, "\n".join([moved] + lines[1:]))


def test_replay_checks_a_closure_by_exhaustion(ipc_blocked):
    from tabsynth import engine, parser
    # problem 161 of the IPC corpus, the shortest the refined blocked
    # calculus closes by exhaustion
    c = parser.parse_lexpr(ipc_blocked.signature,
                           "impl(and(p1, and(q0, p1)), p1)", 1)
    v = engine.prove(ipc_blocked, [(c, False)], trace=True)
    lines = v.engine.trace
    assert v.kind == "unsat" and len(lines) == 8
    assert lines[6].startswith("apply and_pos {")
    assert lines[6].endswith("} den#x branch#0 -> branch#0")
    assert checkers.replay_trace(ipc_blocked, [(c, False)], "\n".join(lines)) == 7
    # the first step's denominator is not contradicted on the root
    with pytest.raises(sx.TabError, match="exhaustion close not justified"):
        checkers.replay_trace(ipc_blocked, [(c, False)],
                              lines[0].replace(" den#0 ", " den#x "))


def test_replay_checks_where_the_trace_ends():
    from tabsynth import engine, parser
    calc = _golden_calc_ub("so_refined.calc")
    cs = [parser.parse_lexpr(calc.signature, t, 1)
          for t in ("exists(r0, exists(r0, p0))", "not(exists(r0, p0))")]
    v = engine.prove(calc, cs, trace=True)
    lines = v.engine.trace
    assert v.kind == "unsat" and len(lines) == 29
    assert checkers.replay_trace(calc, cs, "\n".join(lines)) == 26
    # cut short, the derivation leaves its branch open
    with pytest.raises(sx.TabError, match="open"):
        checkers.replay_trace(calc, cs, "\n".join(lines[:3]))
    # no step closed branch#0 just before
    with pytest.raises(sx.TabError, match="did not close"):
        checkers.replay_trace(calc, cs, "\n".join(lines[:1] + ["close branch#0"]))
    # an unsat derivation has no saturated branch
    with pytest.raises(sx.TabError, match="not open"):
        checkers.replay_trace(calc, cs, "\n".join(lines + ["saturated branch#1"]))
    gen = _golden_calc_ub("so_generated.calc")
    c = parser.parse_lexpr(gen.signature, "exists(r0, one(l0))", 1)
    with open(os.path.join(GOLDEN, "so_generated_exists_one.trace")) as fh:
        trace = fh.read()
    assert checkers.replay_trace(gen, [c], trace) == 24
    # a saturated line ends the trace
    with pytest.raises(sx.TabError, match="after saturated"):
        checkers.replay_trace(gen, [c], trace + lines[0] + "\n")


def test_replay_checks_that_a_saturated_branch_is_saturated():
    from tabsynth import engine, parser
    calc = _golden_calc_ub("so_refined.calc")
    c = parser.parse_lexpr(calc.signature, "exists(r0, p0)", 1)
    with open(os.path.join(GOLDEN, "so_refined_exists.trace")) as fh:
        lines = fh.read().splitlines()
    assert lines[-1] == "saturated branch#1"
    assert checkers.replay_trace(calc, [c], "\n".join(lines)) == 22
    # cut after three steps, branch#0 still has steps left
    cut = "\n".join(lines[:3] + ["saturated branch#0"])
    with pytest.raises(sx.TabError, match="step left"):
        checkers.replay_trace(calc, [c], cut)


# (calculus, problem, golden file name, blocking depth) of the --trace and
# --model of blocked SO derivations, the second with Skolem terms; the first
# two were recorded before object expressions and domain terms shared one
# node, the third before each rule's priority was fixed in its plan
TRACE_GOLDEN = [("so_refined.calc", "exists(r0, p0)", "so_refined_exists", 0),
                ("so_generated.calc", "exists(r0, one(l0))",
                 "so_generated_exists_one", 0),
                # a blocking pair queued before the second term-producing
                # step keeps waiting behind term production
                ("so_refined.calc", "exists(r0, p0)",
                 "so_refined_exists_depth2", 2)]


@pytest.mark.parametrize("calc, concept, golden, depth", TRACE_GOLDEN,
                         ids=[c[2] for c in TRACE_GOLDEN])
def test_trace_and_model_are_golden_bytes(tmp_path, calc, concept, golden,
                                          depth):
    prob = _write(tmp_path / "p.txt", concept + "\n")
    trace, model = tmp_path / "t.txt", tmp_path / "m.txt"
    assert run_cli(["prove", "--calc", os.path.join(GOLDEN, calc), "--preset",
                    "so", "--ub", "--ub-depth", str(depth), "--trace",
                    str(trace), "--model", str(model), prob]) == 0
    for path, ext in ((trace, "trace"), (model, "model")):
        with open(os.path.join(GOLDEN, "%s.%s" % (golden, ext)), "rb") as fh:
            assert path.read_bytes() == fh.read()


def test_ub_depth_alone_attaches_blocking(tmp_path):
    """``--ub-depth D`` without ``--ub`` attaches the blocking rule at depth
    D: at 0 the run is the golden ``--ub`` one."""
    prob = _write(tmp_path / "p.txt", "exists(r0, p0)\n")
    trace = tmp_path / "t.txt"
    assert run_cli(["prove", "--calc", os.path.join(GOLDEN, "so_refined.calc"),
                    "--ub-depth", "0", "--budget-nodes", "2000", "--trace",
                    str(trace), prob]) == 0
    with open(os.path.join(GOLDEN, "so_refined_exists.trace"), "rb") as fh:
        assert trace.read_bytes() == fh.read()


def test_console_entry_point(work):
    proc = _run_module(["synth", "--preset", "so"])
    assert proc.returncode == 0
    assert "rule or_pos" in proc.stdout
    assert "decomposition: 8" in proc.stderr


def test_time_budget_gives_unknown(work, capsys):
    prob = _write(work / "p10.txt", "exists(r0, p0)\n")
    code = run_cli(["prove", "--calc", str(work / "so_refined.calc"),
                    "--preset", "so", "--ub", "--budget-secs", "0", prob])
    assert code == 30
    assert capsys.readouterr() == ("UNKNOWN\n",
                                   "limit: time budget 0s reached\n")


def test_model_requires_spec(work, tmp_path):
    prob = _write(work / "p11.txt", "p0\n")
    code = run_cli(["prove", "--calc", str(work / "so_refined.calc"),
                    "--model", str(tmp_path / "m.txt"), prob])
    assert code == 1
