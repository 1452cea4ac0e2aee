"""Command line driver: synthesis, refinement, proving, obligation export
and the brute-force oracle.

Exit codes are a fixed contract: 0 satisfiable (or plain success), 20
unsatisfiable, 30 unknown / resource limit, 1 pipeline error, 2 malformed
input.  Commands report results and raise failures; ``main`` alone maps a
failure to its exit code: 2 for one inside an ``_input()`` stage, 1 for any
other.
"""

from __future__ import annotations

import argparse
import contextlib
import re
import shutil
import subprocess
import sys

from . import calcfile, engine, models, normalize, refine, specfile, synth, tptp
from . import syntax as sx
from .parser import Elaborator, SpecSyntaxError, TreeParser, content_lines, tokenize

EXIT_SAT = 0
EXIT_OK = 0
EXIT_UNSAT = 20
EXIT_UNKNOWN = 30
EXIT_ERROR = 1
EXIT_BAD_INPUT = 2


class BadInput(Exception):
    """A failure while reading the user's input; ``main`` reports it as
    malformed input."""


@contextlib.contextmanager
def _input():
    """The stage that reads the problem, or the specification of ``prove``
    and ``oracle``: what fails in it is malformed input."""
    try:
        yield
    except (OSError, sx.TabError) as e:
        raise BadInput(e) from e


def _read(path):
    """The text of a user file.  A file that is not UTF-8 is a TabError that
    names it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise sx.TabError("%s: not UTF-8 text (byte 0x%02x at offset %d)"
                              % (path, e.object[e.start], e.start)) from None


def _load_spec(args, needed=True, as_input=False):
    """The normalized specification that --preset or --spec names, or None
    when neither is given and it is not ``needed``; read in an ``_input()``
    stage when ``as_input``."""
    if not (args.preset or args.spec):
        if needed:
            raise sx.TabError("%s needs --preset or --spec" % args.command)
        return None
    with _input() if as_input else contextlib.nullcontext():
        spec = (specfile.preset(args.preset) if args.preset else
                specfile.parse_spec(_read(args.spec), name=args.spec))
        return normalize.normalize(spec)


def _save(path, text):
    """Write ``text`` to ``path``, or to standard output when ``path`` is
    None."""
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_problem(sig, skolems, path):
    """One concept per line; a not(...) line whose not is no connective of
    the signature roots the negated literal instead.  A problem with no
    concept is an error."""
    text = _read(path)
    el = Elaborator(sig, skolems)
    inputs = []
    for lineno, line in content_lines(text):
        tp = TreeParser(tokenize(line, lineno))
        tree = tp.tree()
        if not tp.at_end():
            raise SpecSyntaxError("trailing input", lineno)
        if tree[0] == "app" and tree[1] == "not" \
                and "not" not in sig.conns and len(tree[2]) == 1:
            inputs.append((el.lexpr(tree[2][0], 1), False))
        else:
            inputs.append((el.lexpr(tree, 1), True))
    if not inputs:
        raise sx.TabError("empty problem")
    return inputs


def cmd_synth(args):
    ns = _load_spec(args)
    calc = synth.synthesize(ns, assume_well_founded=args.assume_well_founded)
    _save(args.out, calcfile.print_calculus(calc))
    for kind, n in sorted(calc.counts_by_kind().items()):
        print("%s: %d" % (kind, n), file=sys.stderr)
    return EXIT_OK


def cmd_refine(args):
    calc = calcfile.parse_calculus(_read(args.calc))
    steps = refine.parse_script(_read(args.refine_script))
    ctx = None
    if args.ctx:
        ctx = refine.parse_context(_read(args.ctx), calc.signature,
                                   calc.skolems)
    calc, log = refine.apply_script(calc, steps, ctx=ctx,
                                    unsafe=args.unsafe_refine)
    _save(args.out, calcfile.print_calculus(calc))
    for warning in calc.warnings:
        print("warning: %s" % warning, file=sys.stderr)
    for entry in log:
        print(entry, file=sys.stderr)
    return EXIT_OK


def cmd_prove(args):
    if args.model and not (args.spec or args.preset):
        raise sx.TabError("--model needs --spec or --preset")
    calc = calcfile.parse_calculus(_read(args.calc))
    for warning in calc.warnings:
        print("warning: %s" % warning, file=sys.stderr)
    ns = _load_spec(args, needed=False, as_input=True)
    if ns is not None:
        # the calculus's signature may add its context's connectives
        spec, have = ns.signature, calc.signature
        misfit = ["%d sorts" % spec.n_lsorts] \
            if spec.n_lsorts != have.n_lsorts else []
        misfit += [n for n, c in spec.conns.items() if have.conns.get(n) is not c]
        misfit += [n for n, k in spec.preds.items() if have.preds.get(n) != k]
        if misfit:
            raise sx.TabError("specification %s does not fit calculus %s: %s"
                              % (ns.spec.name, calc.name, ", ".join(misfit)))
    with _input():
        inputs = _load_problem(calc.signature, calc.skolems, args.problem)
    if args.ub or args.ub_depth is not None:
        calc = refine.attach_ub(calc, synth.UbConfig(True, args.ub_depth or 0))
    # without ns the engine skips its subexpression check, which nothing
    # here reads
    eng = engine.Engine(calc, node_budget=args.budget_nodes,
                        time_budget=args.budget_secs, search=args.search,
                        trace=bool(args.trace))
    with _input():
        tab = eng.init(inputs)
    verdict = eng.expand(tab)
    if args.trace:
        _save(args.trace, "\n".join(eng.trace) + "\n")
    if verdict.kind == "unsat":
        print("UNSAT")
        return EXIT_UNSAT
    if verdict.kind == "limit":
        print("UNKNOWN")
        if verdict.budget == "nodes":
            print("limit: node budget %d reached" % args.budget_nodes,
                  file=sys.stderr)
        else:
            print("limit: time budget %gs reached" % args.budget_secs,
                  file=sys.stderr)
        return EXIT_UNKNOWN
    print("SAT")
    if args.model:
        m = models.extract_model(verdict.branch, ns, ctx=calc.ctx,
                                 skolems=calc.skolems)
        _save(args.model, m.format())
    return EXIT_SAT


def cmd_checkwd(args):
    if args.prover is not None and not args.prover.split():
        raise sx.TabError("--prover names no command")
    ns = _load_spec(args)
    obligations = normalize.emit_wd_obligations(ns)
    paths = tptp.write_obligations(obligations, ns.signature, args.outdir)
    for ob, path in zip(obligations, paths):
        note = " (%s)" % ob.status if ob.status else ""
        print("wrote %s%s" % (path, note))
    if args.prover:
        prog = args.prover.split()[0]
        if shutil.which(prog) is None:
            print("prover %r not found; obligations left for later" % prog,
                  file=sys.stderr)
            return EXIT_OK
        for ob, path in zip(obligations, paths):
            cmd = args.prover.split() + [path]
            try:
                res = subprocess.run(cmd, capture_output=True, text=True,
                                     timeout=args.prover_timeout)
                status = re.search(r"SZS status (\w+)", res.stdout + res.stderr)
                if status and status.group(1) in ("Theorem", "Unsatisfiable"):
                    print("%s: proved" % ob.name)
                else:
                    print("%s: not proved (exit %d)" % (ob.name, res.returncode))
            except subprocess.TimeoutExpired:
                print("%s: prover timeout" % ob.name)
    return EXIT_OK


def cmd_oracle(args):
    ns = _load_spec(args, as_input=True)
    with _input():
        inputs = _load_problem(ns.signature, {}, args.problem)
    try:
        res, m = models.brute_force_sat(ns, inputs, args.max_size)
    except models.CarrierTooLarge as e:
        print("UNKNOWN")
        print("carrier too large: %s" % e, file=sys.stderr)
        return EXIT_UNKNOWN
    if res == "sat":
        print("SAT")
        if args.model:
            _save(args.model, m.format())
        return EXIT_SAT
    print("UNSAT")
    return EXIT_UNSAT


def _add_spec_opts(p):
    p.add_argument("--preset", help="bundled specification (so, ipc)")
    p.add_argument("--spec", help="specification file")


def build_parser():
    ap = argparse.ArgumentParser(prog="tabsynth",
                                 description="tableau calculus synthesis and "
                                             "generic tableau proving")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="compile a specification to a calculus")
    _add_spec_opts(p)
    p.add_argument("-o", "--out", help="output .calc path (default stdout)")
    p.add_argument("--assume-well-founded", action="store_true")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("refine", help="apply a refinement script")
    p.add_argument("--calc", required=True)
    p.add_argument("--refine-script", required=True)
    p.add_argument("--ctx", help="rewrite context for tr steps")
    p.add_argument("--unsafe-refine", action="store_true",
                   help="acknowledge folds outside the admissible whitelist")
    p.add_argument("-o", "--out")
    p.set_defaults(fn=cmd_refine)

    p = sub.add_parser("prove", help="decide satisfiability of a problem")
    p.add_argument("--calc", required=True)
    _add_spec_opts(p)
    p.add_argument("--ub", action="store_true", help="attach the blocking rule")
    p.add_argument("--ub-depth", type=int, metavar="D",
                   help="attach the blocking rule at this depth (--ub: 0)")
    p.add_argument("--search", choices=("dfs", "bfs"), default="dfs")
    p.add_argument("--budget-nodes", type=int, default=10 ** 6)
    p.add_argument("--budget-secs", type=float, default=None)
    p.add_argument("--model", help="write the extracted model here on SAT")
    p.add_argument("--trace", help="write a replayable derivation trace here")
    p.add_argument("problem", help="file with one concept per line")
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("check-wd", help="export well-definedness obligations")
    _add_spec_opts(p)
    p.add_argument("--outdir", default="wd")
    p.add_argument("--prover", help="external first-order prover command")
    p.add_argument("--prover-timeout", type=float, default=30.0)
    p.set_defaults(fn=cmd_checkwd)

    p = sub.add_parser("oracle", help="brute-force finite-model search")
    _add_spec_opts(p)
    p.add_argument("--max-size", type=int, default=3)
    p.add_argument("--model", help="write the found model here on SAT")
    p.add_argument("problem")
    p.set_defaults(fn=cmd_oracle)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BadInput as e:
        print("input error: %s" % e, file=sys.stderr)
        return EXIT_BAD_INPUT
    except (OSError, sx.TabError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_ERROR
    except RecursionError:
        # readers, the prover and the oracle recurse on the nesting of terms
        print("input error: expression nested too deeply (Python recursion "
              "limit %d)" % sys.getrecursionlimit(), file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
