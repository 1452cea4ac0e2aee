"""Rendering well-definedness obligations as TPTP FOF problems.

Sorts are encoded with unary guard predicates ``sort_i(X)`` / ``dom(X)``;
object connectives become functions prefixed ``c_``, the holds predicates
stay ``nu1``, ``nu2``, ..., ``nu0`` is a function, and the polymorphic
equality maps to TPTP ``=`` (whose congruence axioms are built in, which is
exactly the role of the implicit equality axioms).
"""

from __future__ import annotations

import re

from . import syntax as sx


def _render_term(t):
    """A variable's lowercase name is upper-cased (``p`` as ``P``); any other
    keeps its case behind ``Vu_``, which no upper-cased name equals."""
    domain = t.sort == sx.DOMAIN
    if t.kind == "var":
        lower = re.fullmatch("[a-z][a-z0-9_]*", t.name)
        return t.name.upper() if lower else "Vu_" + t.name
    if t.kind == "const":
        return ("d_%s" if domain else "q_%s") % t.name
    head = t.name if domain else "c_" + t.name
    if not t.args and not domain:
        return head
    return "%s(%s)" % (head, ",".join(_render_term(a) for a in t.args))


_INFIX = {"and": " & ", "or": " | ", "implies": " => ", "iff": " <=> "}
_QUANT = {"forall": ("!", "=>"), "exists": ("?", "&")}  # symbol, guard join


def _render_formula(f):
    if type(f) is sx.Literal:
        p, args = f.pred, [_render_term(a) for a in f.args]
        if p[0] == "false":
            text = "$false"
        elif p[0] == "eq":
            text = "(%s = %s)" % tuple(args)
        else:
            head = "nu%d" % p[1] if p[0] == "nu" else "p_" + p[1]
            text = "%s(%s)" % (head, ",".join(args))
        return text if f.pos else "~ " + text
    subs = [_render_formula(s) for s in f.subs]
    if f.op == "not":
        return "~ " + subs[0]
    if f.op in _INFIX:
        return "(%s)" % _INFIX[f.op].join(subs)
    q, join = _QUANT[f.op]
    v = _render_term(f.var)
    return "( %s [%s] : (dom(%s) %s %s) )" % (q, v, v, join, subs[0])


def _closed(f, lvars):
    """Universally close over the free L-variables, with sort guards."""
    body = _render_formula(f)
    if not lvars:
        return body
    names = [_render_term(v) for v in lvars]
    guards = " & ".join("sort_%d(%s)" % (v.sort, n) for v, n in zip(lvars, names))
    return "( ! [%s] : ((%s) => %s) )" % (",".join(names), guards, body)


def _sanitize(name):
    return re.sub(r"[^a-zA-Z0-9_]", "_", name)


def render_obligation(ob, sig):
    """The full FOF problem text for one obligation."""
    lines = ["%% obligation: %s" % ob.name]
    if ob.status:
        lines.append("%% status: %s" % ob.status)
    lines.append("% sorts encoded by unary guard predicates; eq is native =")
    for c in sig.conns.values():
        if not c.arg_sorts:
            lines.append("fof(sort_conn_%s, axiom, sort_%d(c_%s))."
                         % (_sanitize(c.name), c.res_sort, c.name))
            continue
        vs = ["A%d" % i for i in range(len(c.arg_sorts))]
        guards = " & ".join("sort_%d(%s)" % (s, v) for s, v in zip(c.arg_sorts, vs))
        lines.append("fof(sort_conn_%s, axiom, ( ! [%s] : ((%s) => sort_%d(c_%s(%s))) ))."
                     % (_sanitize(c.name), ",".join(vs), guards, c.res_sort,
                        c.name, ",".join(vs)))
    lines.append("fof(sort_nu0, axiom, ( ! [L] : (sort_0(L) => dom(nu0(L))) )).")
    for label, f, lvars in ob.axioms:
        lines.append("fof(%s, axiom, %s)." % (_sanitize(label), _closed(f, lvars)))
    label, f, lvars = ob.conjecture
    lines.append("fof(%s, conjecture, %s)." % (_sanitize(label), _closed(f, lvars)))
    return "\n".join(lines) + "\n"


def write_obligations(obligations, sig, outdir):
    import os
    paths = []
    os.makedirs(outdir, exist_ok=True)
    for ob in obligations:
        path = os.path.join(outdir, "%s.p" % ob.name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_obligation(ob, sig))
        paths.append(path)
    return paths
