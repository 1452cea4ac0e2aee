"""Checkers and helpers that only the tests use; no command reaches them.

- ``replay_trace`` re-runs a ``--trace`` derivation step by step;
- ``validate_tptp`` reads the FOF problems ``check-wd`` writes;
- ``calculus_equal`` compares two calculi up to renaming;
- ``print_spec`` prints a specification back, for round trips;
- ``parse_formula``, ``parse_term`` and ``parse_rule_literal`` read one
  formula, term or rule literal over a signature.
"""

import re

from tabsynth import syntax as sx
from tabsynth.engine import Engine, _plan
from tabsynth.parser import Elaborator, _parse_with, print_signature


# ---------------------------------------------------------------------------
# reading one formula, term or rule literal

def parse_formula(sig, text, skolems=None, line_offset=1):
    return _parse_with(text, Elaborator(sig, skolems).formula, line_offset)


def parse_term(sig, text, skolems=None, line_offset=1):
    return _parse_with(text, Elaborator(sig, skolems).term, line_offset)


def parse_rule_literal(sig, text, skolems=None, line_offset=1):
    return _parse_with(text, Elaborator(sig, skolems).rule_literal, line_offset)


# ---------------------------------------------------------------------------
# printing a specification

def print_spec(spec):
    """Canonical text of a specification; parse(print(s)) == s."""
    out = print_signature(spec.signature)
    for d in spec.definitions:
        pre = "".join("forall %s. " % v.name for v in d.dom_vars)
        out.append("define %s%s <-> %s"
                   % (pre, d.head_atom.text(), sx.formula_text(d.body)))
    for ds in spec.directed:
        pre = "".join("forall %s. " % v.name for v in ds.dom_vars)
        if ds.polarity == "+":
            out.append("define+ %s%s -> %s"
                       % (pre, ds.head_atom.text(), sx.formula_text(ds.body)))
        else:
            out.append("define- %s%s -> %s"
                       % (pre, sx.formula_text(ds.body), ds.head_atom.text()))
    for ax in spec.axioms:
        out.append("axiom %s" % sx.formula_text(ax))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# canonical renaming and comparison

def canonical_rule_text(rule):
    """Rule text under canonical injective renaming of L-variables, domain
    variables and Skolem symbols, in traversal order."""
    lmap, dmap, fmap = {}, {}, {}

    def rterm(t):
        domain = t.sort == sx.DOMAIN
        if t.kind == "var":
            if domain:
                return dmap.setdefault(t, "W%d" % len(dmap))
            return lmap.setdefault(t, "V%d_%d" % (t.sort, len(lmap)))
        if t.kind == "const":
            return t.name
        head = t.name
        if domain and t.sym is not sx.NU0:
            head = fmap.setdefault(t.sym, "K%d" % len(fmap))
        if not t.args and not domain:
            return head
        return "%s(%s)" % (head, ", ".join(rterm(a) for a in t.args))

    def rlit(l):
        if l.pred[0] == "false":
            s = "false"
        elif l.pred[0] == "holds":
            s = rterm(l.args[0])
        else:
            s = "%s(%s)" % (sx.pred_text(l.pred),
                            ", ".join(rterm(t) for t in l.args))
        return s if l.pos else "not(%s)" % s

    prem = ", ".join(rlit(l) for l in rule.premises)
    den = " | ".join(", ".join(rlit(l) for l in d) for d in rule.denominators) \
        if rule.denominators else "false"
    return "[%s] %s / %s" % (rule.kind, prem, den)


def calculus_fingerprint(calc):
    """Kind-bucketed multiset of canonical rule texts."""
    out = {}
    for r in calc.rules:
        out.setdefault(r.kind, []).append(canonical_rule_text(r))
    return {k: sorted(v) for k, v in out.items()}


def calculus_equal(a, b):
    return calculus_fingerprint(a) == calculus_fingerprint(b)


# ---------------------------------------------------------------------------
# trace replay

def replay_trace(calc, concepts, trace_text):
    """Re-run a recorded derivation, checking each step was applicable and
    that it ends as its trace says.

    The steps are checked without the matcher: see ``_check_step``.  A
    split is one step written as a line per denominator, in order, each
    into a fresh child: its first line is checked, and the step lines after
    it must finish it.  A step in place taking one of several denominators
    needs the others contradicted on the branch, and a closure by
    exhaustion (``den#x``) all of them.  A closure or exhaustion line
    targets the branch it closes, and a ``close`` line must name the branch
    the step before it closed.  The trace must end with every branch
    it created closed, or with ``saturated`` on an open branch on which the
    engine finds no step left (``Engine.collect`` returns None).  That last
    check uses the engine's matcher, so the independent certificate of a SAT
    answer is still its model under ``models.verify_reflection``.  Each
    branch has its own set of the instances applied on it (rule id and slot
    nodes), which a split's children inherit.  Returns the number of
    application lines replayed; raises on mismatch.
    """
    eng = Engine(calc)
    tab = eng.init(concepts)
    branches = {tab.root.bid: tab.root}
    applied = {tab.root.bid: set()}  # bid -> (rule id, slot nodes) applied
    split = set()      # bids of branches a step split into children
    just_closed = None  # the branch the step on the line before closed
    saturated = False
    steps = 0
    splitting = None  # (instance, source bid, next denominator) of a split
    for line in trace_text.splitlines():
        line = line.strip()
        if not line:
            continue
        if saturated:
            raise sx.TabError("trace goes on after saturated: %s" % line)
        closed, just_closed = just_closed, None
        end = re.fullmatch(r"(close|saturated) branch#(\d+)", line)
        if end:
            b = branches.get(int(end[2]))
            if end[1] == "close" and (b is None or b is not closed):
                raise sx.TabError("the step before did not close it: %s" % line)
            if end[1] == "saturated":
                if b is None or b.closed or b.bid in split:
                    raise sx.TabError("saturated branch is not open: %s" % line)
                if eng.collect(b) is not None:
                    raise sx.TabError("saturated branch has a step left: %s"
                                      % line)
                saturated = True
            continue
        step = re.fullmatch(r"apply (\S+) \{(.*)\} den#(\d+|x) "
                            r"branch#(\d+) -> branch#(\d+)", line)
        if not step:
            raise sx.TabError("bad trace line: %s" % line)
        rid, body, den_tok = step[1], step[2], step[3]
        src_bid, dst_bid = int(step[4]), int(step[5])
        rule = calc.rule(rid)
        if rule is None:
            raise sx.TabError("trace names unknown rule %s" % rid)
        binding = _parse_binding(calc, body)
        plan = _plan(rule)
        if set(binding) != set(plan.slots):
            # checked on every line: an instance is read off the slots only
            raise sx.TabError("step not applicable (binding does not match "
                              "the premise variables): %s" % line)
        inst = rid, tuple(map(binding.get, plan.slots))
        src = branches.get(src_bid)
        if src is None or src.closed:
            raise sx.TabError("trace targets an unknown or closed branch %d"
                              % src_bid)
        if dst_bid != src_bid and dst_bid in branches:
            raise sx.TabError("trace reuses branch %d: %s" % (dst_bid, line))
        j = None if den_tok == "x" else int(den_tok)
        if splitting is None:
            _check_step(rule, binding, src, line, inst in applied[src_bid])
            applied[src_bid].add(inst)
        elif splitting != (inst, src_bid, j) or dst_bid == src_bid:
            raise sx.TabError("split left unfinished: %s" % line)
        child = src
        if j is None or rule.is_closure():
            if dst_bid != src_bid:
                raise sx.TabError("a closing step targets another branch: %s"
                                  % line)
            if not _contradicted(src, rule, binding):
                raise sx.TabError("exhaustion close not justified: %s" % line)
            src.closed = True
        else:
            n = len(rule.denominators)
            if j >= n:
                raise sx.TabError("rule %s has no denominator %d: %s"
                                  % (rid, j, line))
            if dst_bid == src_bid:
                if not _contradicted(src, rule, binding, j):
                    raise sx.TabError("step in place not justified: %s" % line)
            elif splitting is None and j:
                raise sx.TabError("split does not start at den#0: %s" % line)
            else:
                child = branches[dst_bid] = src.clone(dst_bid)
                applied[dst_bid] = applied[src_bid].copy()
                split.add(src_bid)
                splitting = (inst, src_bid, j + 1) if j + 1 < n else None
            for lit in rule.denominators[j]:
                child.add(sx.substitute_literal(lit, binding), eng)
        just_closed = child if child.closed else None
        steps += 1
    if splitting is not None:
        raise sx.TabError("trace ends inside a split")
    if not saturated:
        for bid, b in branches.items():
            if not b.closed and bid not in split:
                raise sx.TabError("trace ends with branch %d open" % bid)
    return steps


def _contradicted(branch, rule, binding, but=None):
    """Whether every denominator of the instance other than ``but`` has a
    literal whose negation is on the branch."""
    return all(any(sx.substitute_literal(l, binding).negate() in branch.literals
                   for l in den)
               for i, den in enumerate(rule.denominators) if i != but)


def _check_step(rule, binding, branch, line, repeated):
    """A step whose binding binds exactly the premise variables applies
    when the instance is not applied yet on the branch (``repeated``),
    every premise instance is on the branch, and a blocking step pairs two
    distinct terms in birth order."""
    def fail(why):
        raise sx.TabError("step not applicable (%s): %s" % (why, line))

    if repeated:
        fail("instance already applied")
    for prem in rule.premises:
        if sx.substitute_literal(prem, binding) not in branch.literals:
            fail("premise %s absent" % prem.text())
    if rule.kind == "blocking":
        born = [branch.term_birth.get(binding[v]) for v in _plan(rule).slots]
        if None in born or born[0] >= born[1]:
            fail("terms not distinct and in birth order")


def _parse_binding(calc, body):
    binding = {}
    if not body.strip():
        return binding
    for part in body.split("; "):
        name, _, val = part.partition(":=")
        name = name.strip()
        cls = calc.signature.classify_name(name)
        t = parse_term(calc.signature, val.strip(), calc.skolems)
        if cls and cls[0] == "var":
            v = sx.lvar(cls[1], name)
        elif cls and cls[0] == "dvar":
            v = sx.dvar(name)
        else:
            raise sx.TabError("bad binding variable %r" % name)
        if v in binding:
            raise sx.TabError("binding names %s twice" % name)
        binding[v] = t
    return binding


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
            names = [self.eat(kind="uword")]
            while self.peek()[1] == ",":
                self.eat(",")
                names.append(self.eat(kind="uword"))
            self.eat("]")
            self.eat(":")
            return ("q", v, names, self.unit())
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


def _check_scope(node, bound=frozenset()):
    """Refuse a variable that is free, repeated in one quantifier list, or
    bound again inside its own scope."""
    tag = node[0]
    if tag == "q":
        names = node[2]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise sx.TabError("variable %s repeated in one quantifier"
                                  % name)
            if name in bound:
                raise sx.TabError("variable %s bound again in its scope" % name)
        _check_scope(node[3], bound | set(names))
    elif tag == "var":
        if node[1] not in bound:
            raise sx.TabError("free variable %s" % node[1])
    elif tag == "app":
        for arg in node[2]:
            _check_scope(arg, bound)
    elif tag != "const":  # a connective or an equation
        for sub in node[1:]:
            _check_scope(sub, bound)


def validate_tptp(text):
    """Parse the document and check its variables' scopes; raises TabError
    when malformed."""
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
        f = p.formula()
        p.eat(")")
        p.eat(".")
        _check_scope(f)
        n += 1
    if n == 0:
        raise sx.TabError("no fof annotated formulae found")
    return n
