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
    domain = t.sort == sx.DOMAIN
    if t.kind == "var":
        return t.name.upper()
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
        p = f.pred
        if p[0] == "false":
            text = "$false"
        elif p[0] == "eq":
            text = "(%s = %s)" % (_render_term(f.args[0]), _render_term(f.args[1]))
        elif p[0] == "nu":
            text = "nu%d(%s)" % (p[1], ",".join(_render_term(a) for a in f.args))
        else:
            text = "p_%s(%s)" % (p[1], ",".join(_render_term(a) for a in f.args))
        return text if f.pos else "~ " + text
    subs = [_render_formula(s) for s in f.subs]
    if f.op == "not":
        return "~ " + subs[0]
    if f.op in _INFIX:
        return "(%s)" % _INFIX[f.op].join(subs)
    q, join = _QUANT[f.op]
    v = f.var.name.upper()
    return "( %s [%s] : (dom(%s) %s %s) )" % (q, v, v, join, subs[0])


def _closed(f, lvars):
    """Universally close over the free L-variables, with sort guards."""
    body = _render_formula(f)
    if not lvars:
        return body
    names = [v.name.upper() for v in lvars]
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


# ---------------------------------------------------------------------------
# a small validator for the FOF subset we emit (and a little more)

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|%[^\n]*)
  | (?P<punct><=>|=>|!=|[=~&|!?\[\]:,().])
  | (?P<lword>[a-z][a-zA-Z0-9_]*|\$[a-z]+)
  | (?P<uword>[A-Z][a-zA-Z0-9_]*)
""", re.VERBOSE)


def _tptp_tokens(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise sx.TabError("bad character %r at offset %d" % (text[pos], pos))
        pos = m.end()
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group()))
    out.append(("eof", ""))
    return out


class _TptpParser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def eat(self, val=None, kind=None):
        k, v = self.toks[self.i]
        if (val is not None and v != val) or (kind is not None and k != kind):
            raise sx.TabError("expected %r, found %r" % (val or kind, v))
        self.i += 1
        return v

    def formula(self):
        left = self.unit()
        k, v = self.peek()
        while v in ("&", "|", "=>", "<=>"):
            self.eat(v)
            right = self.unit()
            left = (v, left, right)
            k, v = self.peek()
        return left

    def unit(self):
        k, v = self.peek()
        if v == "~":
            self.eat("~")
            return ("~", self.unit())
        if v in ("!", "?"):
            self.eat(v)
            self.eat("[")
            self.eat(kind="uword")
            while self.peek()[1] == ",":
                self.eat(",")
                self.eat(kind="uword")
            self.eat("]")
            self.eat(":")
            return ("q", v, self.unit())
        if v == "(":
            self.eat("(")
            f = self.formula()
            self.eat(")")
            return f
        return self.atomic()

    def atomic(self):
        t = self.term()
        k, v = self.peek()
        if v in ("=", "!="):
            self.eat(v)
            t2 = self.term()
            return ("eq", t, t2)
        return t

    def term(self):
        k, v = self.peek()
        if k == "uword":
            self.eat(kind="uword")
            return ("var", v)
        if k == "lword":
            self.eat(kind="lword")
            if self.peek()[1] == "(":
                self.eat("(")
                args = [self.term()]
                while self.peek()[1] == ",":
                    self.eat(",")
                    args.append(self.term())
                self.eat(")")
                return ("app", v, args)
            return ("const", v)
        raise sx.TabError("expected a term, found %r" % v)


def validate_tptp(text):
    """Parse the document; raises TabError when malformed."""
    p = _TptpParser(_tptp_tokens(text))
    n = 0
    while p.peek()[0] != "eof":
        p.eat("fof")
        p.eat("(")
        p.eat(kind="lword")
        p.eat(",")
        role = p.eat(kind="lword")
        if role not in ("axiom", "conjecture", "hypothesis", "lemma", "definition"):
            raise sx.TabError("bad role %r" % role)
        p.eat(",")
        p.formula()
        p.eat(")")
        p.eat(".")
        n += 1
    if n == 0:
        raise sx.TabError("no fof annotated formulae found")
    return n
