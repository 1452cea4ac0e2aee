"""The ``.calc`` text format: a self-contained, round-trippable calculus.

The file embeds the signature (the directives of a ``.spec`` file, read and
written by ``parser``), Skolem function declarations, the blocking
configuration and (for internalized calculi) the rewrite context, followed by
one ``rule`` line per rule.  Zero denominators print as ``/ false``.  A
calculus whose refinement left its completeness unproven carries one
``warning`` line per warning after its head.
"""

from __future__ import annotations

from . import syntax as sx
from .parser import (Elaborator, SignatureBlock, SpecSyntaxError, TreeParser,
                     print_signature, read_directives, tokenize)
from .synth import Calculus, DuplicateRuleId, TableauRule, UbConfig


def print_calculus(calc):
    out = ["calculus %s" % calc.name, "mode %s" % calc.mode]
    if calc.refined:
        out.append("refined yes")
    if calc.spec_name:
        out.append("spec %s" % calc.spec_name)
    out.extend("warning %s" % w for w in calc.warnings)
    out.extend(print_signature(calc.signature))
    for fn in calc.skolems.values():
        ls = " ".join(str(s) for s in fn.lsorts)
        out.append("skolem %s %s/ %d" % (fn.name, ls + " " if ls else "", fn.n_dom))
    if calc.blocking:
        out.append("blocking ub depth %d" % calc.blocking.depth)
    else:
        out.append("blocking off")
    if calc.ctx is not None:
        from .refine import print_context
        for line in print_context(calc.ctx).splitlines():
            out.append("ctx %s" % line)
    for r in calc.rules:
        out.append(r.text())
    return "\n".join(out) + "\n"


def _parse_rule_line(el, rest, lineno):
    # <id> [<kind>][*]: prem, prem / den, den | den, den
    head, _, body = rest.partition(":")
    parts = head.split()
    if len(parts) != 2 or not parts[1].startswith("["):
        raise SpecSyntaxError("malformed rule header", lineno)
    rid, kind_txt = parts[0], parts[1]
    produces = kind_txt.endswith("*")
    if produces:
        kind_txt = kind_txt[:-1]
    if not kind_txt.endswith("]"):
        raise SpecSyntaxError("malformed rule header", lineno)
    kind = kind_txt[1:-1]
    prem_txt, _, den_txt = body.partition("/")

    def lits(chunk):
        chunk = chunk.strip()
        if not chunk:
            return []
        toks = tokenize(chunk, lineno)
        tp = TreeParser(toks)
        out = [el.rule_literal(tp.tree())]
        while tp.peek().kind == "comma":
            tp.next()
            out.append(el.rule_literal(tp.tree()))
        if not tp.at_end():
            t = tp.peek()
            raise SpecSyntaxError("trailing input %r" % t.value, t.line, t.col)
        return out

    premises = lits(prem_txt)
    den_txt = den_txt.strip()
    if den_txt == "false":
        denominators = []
    else:
        denominators = [lits(part) for part in den_txt.split("|")]
    try:
        return TableauRule(rid, kind, premises, denominators,
                           produces_terms=produces)
    except sx.TabError as e:
        raise SpecSyntaxError(str(e), lineno) from None


def parse_calculus(text):
    block, head, skolems, ctx_lines, rule_lines = SignatureBlock(), {}, {}, {}, []
    warnings = []
    at = {}  # the line of each head directive

    def directive(lineno, word, rest):
        if block.read(word, rest):
            return
        if word in ("calculus", "mode", "refined", "spec"):
            head[word], at[word] = rest, lineno
        elif word == "skolem":
            sig_part, _, ndom = rest.partition("/")
            name, *lsorts = sig_part.split()
            skolems[name] = sx.FnSym(name, tuple(int(s) for s in lsorts), int(ndom))
        elif word == "blocking":
            parts = rest.split()
            if parts == ["off"]:
                head["blocking"] = None
            elif len(parts) == 3 and parts[:2] == ["ub", "depth"]:
                head["blocking"] = UbConfig(True, int(parts[2]))
            else:
                raise ValueError(rest)
        elif word == "warning":
            warnings.append(rest)
        elif word == "ctx":
            ctx_lines[lineno] = rest
        elif word == "rule":
            rule_lines.append((rest, lineno))
        else:
            raise SpecSyntaxError("unknown directive %r" % word, lineno)

    read_directives(text, directive)
    sig = block.signature()
    ctx = None
    if ctx_lines:
        from .refine import parse_context
        # blank lines keep every ctx line at its line number in this file,
        # which is the one context errors name
        ctx = parse_context("\n".join(ctx_lines.get(n, "")
                                      for n in range(1, max(ctx_lines) + 1)),
                            sig, skolems)
    el = Elaborator(sig, skolems)
    rules = [_parse_rule_line(el, rest, lineno) for rest, lineno in rule_lines]
    # a calculus is internalized exactly when it carries a context
    mode = "base" if ctx is None else "internalized"
    if head.get("mode", mode) != mode:
        raise SpecSyntaxError("mode %s, but a calculus %s 'ctx' lines is %s"
                              % (head["mode"], "without" if ctx is None
                                 else "with", mode), at["mode"])
    try:
        return Calculus(head.get("calculus", "calculus"), sig, rules, skolems,
                        head.get("blocking"), ctx, spec_name=head.get("spec"),
                        refined=head.get("refined") == "yes" or ctx is not None,
                        warnings=warnings)
    except DuplicateRuleId as e:
        raise SpecSyntaxError(str(e), rule_lines[e.index][1]) from None
