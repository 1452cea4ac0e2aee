"""Normalized specifications, the induced expression ordering, and the
well-definedness proof obligations.

A normalized specification splits every connective definition into a
"positive" sentence (head implies body) and a "negative" one (body implies
head), merges multiple sentences for one head, and keeps the background
theory separate.  The bodies induce an ordering on expressions: smaller
expressions are the ones a head decomposes into; synthesis and termination
both lean on that ordering being well founded.
"""

from __future__ import annotations

from . import syntax as sx
from .specfile import DirectedSentence, SemanticSpec


class Xi(DirectedSentence):
    """One directed, normalized sentence: (¬)nu_n(E(p..), x..) vs body."""

    def __init__(self, polarity, head_atom, body, dom_vars, definitional):
        super().__init__(polarity, head_atom, body, tuple(dom_vars))
        self.head_expr = head_atom.args[0]
        self.nu_n = head_atom.pred[1]
        self.definitional = definitional  # split off a connective definition

    def head_lvars(self):
        """Head expression variables in first-occurrence order."""
        return sx.lvars(self.head_expr)


class NormalizedSpec:
    def __init__(self, spec, s_plus, s_minus, sb):
        self.spec = spec
        self.signature = spec.signature
        self.s_plus = list(s_plus)
        self.s_minus = list(s_minus)
        self.sb = list(sb)
        self.semantics = None  # models.Semantics, compiled on first use

    @property
    def definitional_only(self):
        return all(x.definitional for x in self.s_plus + self.s_minus)


def occurring(ns, kind):
    """What the sentences' literals of ``kind`` name, sorted: the domain
    predicates for "pred", the sorts for "nu"."""
    seen = set()
    for f in [xi.sentence() for xi in ns.s_plus + ns.s_minus] + list(ns.sb):
        for g in sx.subformulas(f):
            if type(g) is sx.Literal and g.pred[0] == kind:
                seen.add(g.pred[1])
    return sorted(seen)


def head_key(xi):
    """Canonical rendering of a head pattern, for merging."""
    names = {}

    def walk(e):
        if e.kind == "var":
            if e not in names:
                names[e] = "v%d_%d" % (e.sort, len(names))
            return names[e]
        if e.kind == "const":
            return e.text()
        return "%s(%s)" % (e.name, ",".join(walk(a) for a in e.args))

    return (xi.nu_n, walk(xi.head_expr))


def _rename_onto(xi_from, xi_to):
    """Variable map sending xi_from's head onto xi_to's head (the two heads
    have the same ``head_key``)."""
    m = dict(zip(xi_from.head_lvars(), xi_to.head_lvars()))
    m.update(zip(xi_from.dom_vars, xi_to.dom_vars))
    return m


def normalize(spec: SemanticSpec) -> NormalizedSpec:
    """Split definitions into directed sentences, merge per head, pass the
    background theory through (it must only mention atomic expressions)."""
    plus, minus = [], []
    for d in spec.definitions:
        plus.append(Xi("+", d.head_atom, d.body, d.dom_vars, True))
        minus.append(Xi("-", d.head_atom, d.body, d.dom_vars, True))
    for ds in spec.directed:
        xi = Xi(ds.polarity, ds.head_atom, ds.body, ds.dom_vars, False)
        (plus if ds.polarity == "+" else minus).append(xi)

    for xi in plus + minus:
        head_vars = xi.head_lvars()
        for e in sx.lvars(xi.body):
            if e not in head_vars:
                raise sx.TabError("body variable %s does not occur in the head %s"
                                  % (e.text(), xi.head_expr.text()))

    def merge(xis, combine):
        by_key = {}
        order = []
        for xi in xis:
            k = head_key(xi)
            if k not in by_key:
                by_key[k] = xi
                order.append(k)
            else:
                base = by_key[k]
                body2 = sx.substitute_formula(xi.body, _rename_onto(xi, base))
                merged = combine(base.body, body2)
                by_key[k] = Xi(base.polarity, base.head_atom, merged,
                               base.dom_vars, base.definitional and xi.definitional)
        return [by_key[k] for k in order]

    plus = merge(plus, lambda a, b: sx.formula("and", (a, b)))
    minus = merge(minus, lambda a, b: sx.formula("or", (a, b)))

    for ax in spec.axioms:
        for e in sx.lexprs_of_formula(ax):
            if e.kind == "app":
                raise sx.TabError(
                    "background sentence mentions compound expression %s" % e.text())
    return NormalizedSpec(spec, plus, minus, spec.axioms)


# ---------------------------------------------------------------------------
# induced ordering

class InducedOrdering:
    """Edges (head pattern, body occurrence) harvested from sentence bodies.

    ``E' < E`` holds when E instantiates some head and E' the corresponding
    occurrence; queries work on the transitive closure, computed lazily.
    """

    def __init__(self, pairs):
        self.pairs = list(pairs)  # (head_expr pattern, occurrence pattern)

    def direct_lower(self, e):
        """Ground expressions directly below ``e``."""
        out = []
        for head, occ in self.pairs:
            binding = {}
            if sx.match_expr(head, e, binding):
                inst = sx.substitute_expr(occ, binding)
                if inst not in out:
                    out.append(inst)
        return out

    def sub_closure(self, exprs):
        """All expressions <=-below some member of ``exprs`` (reflexive)."""
        return list(self.lower_sets(exprs))

    def lower_sets(self, exprs):
        """``{e: direct_lower(e)}`` for each expression of
        ``sub_closure(exprs)``, in its order."""
        lower = dict.fromkeys(exprs)
        todo = list(lower)
        while todo:
            e = todo.pop()
            lower[e] = self.direct_lower(e)
            for e2 in lower[e]:
                if e2 not in lower:
                    lower[e2] = None
                    todo.append(e2)
        return lower


def induced_ordering(ns: NormalizedSpec) -> InducedOrdering:
    pairs = []
    for xi in ns.s_plus + ns.s_minus:
        head = xi.head_expr
        for occ in dict.fromkeys(sx.lexprs_of_formula(xi.body)):
            if (head, occ) not in pairs:
                pairs.append((head, occ))
    return InducedOrdering(pairs)


class WellFoundedVerdict:
    def __init__(self, kind, witness=None):
        self.kind = kind  # "proved" | "cycle" | "unknown"
        self.witness = witness

    def __repr__(self):
        return "WellFoundedVerdict(%s%s)" % (
            self.kind, ", %r" % (self.witness,) if self.witness else "")


def check_well_founded(ordering: InducedOrdering) -> WellFoundedVerdict:
    """Sufficient structural criterion, then cycle detection, else unknown."""
    suspicious = []
    for head, occ in ordering.pairs:
        if occ is head:
            return WellFoundedVerdict("cycle", witness=occ.text())
        proper_sub = occ in head.subexprs() and occ is not head
        if not proper_sub:
            suspicious.append((head, occ))
    if not suspicious:
        return WellFoundedVerdict("proved")

    heads = {}
    for head, _ in ordering.pairs:
        if head.kind == "app":
            heads.setdefault(head.name, head)
    edges = {}
    for head, occ in ordering.pairs:
        if head.kind != "app":
            continue
        for sub in occ.subexprs():
            if sub.kind == "app" and sub.name in heads:
                structural = sub in head.subexprs() and sub is not head
                if not structural:
                    edges.setdefault(head.name, set()).add(sub.name)
    # depth-first cycle search over connective names
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {c: WHITE for c in heads}
    stack = []

    def visit(c):
        color[c] = GRAY
        stack.append(c)
        for d in sorted(edges.get(c, ())):
            if color.get(d, BLACK) == GRAY:
                return stack[stack.index(d):] + [d]
            if color.get(d) == WHITE:
                cyc = visit(d)
                if cyc:
                    return cyc
        stack.pop()
        color[c] = BLACK
        return None

    for c in sorted(heads):
        if color[c] == WHITE:
            cyc = visit(c)
            if cyc:
                return WellFoundedVerdict("cycle", witness=cyc)
    return WellFoundedVerdict("unknown",
                              witness=[(h.text(), o.text()) for h, o in suspicious])


def refuse_cycle(ordering: InducedOrdering) -> WellFoundedVerdict:
    """The verdict of :func:`check_well_founded`, "proved" or "unknown": an
    ordering with a cycle is refused with a TabError that names it."""
    verdict = check_well_founded(ordering)
    if verdict.kind == "cycle":
        raise sx.TabError("induced ordering has a cycle: %r" % (verdict.witness,))
    return verdict


# ---------------------------------------------------------------------------
# well-definedness obligations

class Obligation:
    def __init__(self, name, axioms, conjecture, status=""):
        self.name = name
        self.axioms = axioms            # list of (label, Formula, lvars-to-close)
        self.conjecture = conjecture    # (label, Formula, lvars-to-close)
        self.status = status            # free-form comment, e.g. "trivial"


def emit_wd_obligations(ns: NormalizedSpec):
    """One entailment problem for the definitional adequacy of the whole
    specification, plus one per connective relating the directed sentences
    with the connective's definition over the restricted background theory."""
    spec = ns.spec
    obligations = []

    s0_sentences = [("def_%s" % d.conn.name, d.sentence()) for d in spec.definitions]
    sb_sentences = [("bg_%d" % i, ax) for i, ax in enumerate(ns.sb)]
    s_all = [("s_plus_%d" % i, xi.sentence()) for i, xi in enumerate(ns.s_plus)]
    s_all += [("s_minus_%d" % i, xi.sentence()) for i, xi in enumerate(ns.s_minus)]
    s_all += [("s_bg_%d" % i, ax) for i, ax in enumerate(ns.sb)]
    conj = sx.formula("and", [f for _, f in s_all]) if len(s_all) > 1 \
        else s_all[0][1]
    status = "trivial (every sentence is a split definition or background axiom)" \
        if ns.definitional_only else ""
    obligations.append(Obligation(
        "wd1",
        [(n, f, sx.lvars(f)) for n, f in s0_sentences + sb_sentences],
        ("goal", conj, sx.lvars(conj)),
        status=status))

    ordering = induced_ordering(ns)
    for d in spec.definitions:
        head = d.head_atom.args[0]
        phi_plus = _matching_bodies(ns.s_plus, head, d.dom_vars)
        phi_minus = _matching_bodies(ns.s_minus, head, d.dom_vars)
        below = [e for e in ordering.sub_closure([head]) if e is not head]
        bg_insts = sx.restrict(ns.sb, below)
        big_plus = _conj(phi_plus)
        big_minus = _disj(phi_minus)
        f = sx.forall_each(d.dom_vars, sx.formula("and", (
            sx.formula("implies", (big_plus, d.body)),
            sx.formula("implies", (d.body, big_minus)))))
        status = "tautology" if phi_plus == [d.body] and phi_minus == [d.body] else ""
        obligations.append(Obligation(
            "wd3_%s" % d.conn.name,
            [(n, g, sx.lvars(g)) for n, g in s0_sentences]
            + [("bg_inst_%d" % i, g, sx.lvars(g)) for i, g in enumerate(bg_insts)],
            ("goal", f, sx.lvars(f)),
            status=status))
    return obligations


def _matching_bodies(xis, head, dom_vars):
    """Bodies of sentences whose head pattern instantiates to ``head``,
    instantiated accordingly (domain variables aligned with the definition)."""
    out = []
    for xi in xis:
        binding = {}
        if not sx.match_expr(xi.head_expr, head, binding):
            continue
        binding.update(zip(xi.dom_vars, dom_vars))
        out.append(sx.substitute_formula(xi.body, binding))
    return out


def _conj(fs):
    if not fs:
        return sx.formula("not", (sx.FALSE,))
    if len(fs) == 1:
        return fs[0]
    return sx.formula("and", fs)


def _disj(fs):
    if not fs:
        return sx.FALSE
    if len(fs) == 1:
        return fs[0]
    return sx.formula("or", fs)
