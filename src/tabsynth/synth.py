"""Compiling a normalized specification into a tableau calculus.

Each directed sentence becomes a decomposition rule: existentials in its body
are Skolemized (negative sentences are first turned into their
contrapositive), the body is rewritten to disjunctive normal form, the head
becomes the main premise, each disjunct a denominator.  Background sentences
become theory rules whose premises are domain-predication equalities
``v = v`` for every variable of the Skolemized matrix; those equalities are
how the engine knows which terms (and expressions) a universal rule may be
instantiated with.  A default block of equality rules and one closure rule
per holds-predicate/predicate constant complete the calculus.
"""

from __future__ import annotations

import re

from . import syntax as sx
from .normalize import (NormalizedSpec, head_key, induced_ordering, occurring,
                        refuse_cycle)


DNF_LITERAL_CAP = 4096


class UnboundVariable(sx.TabError):
    pass


class DuplicateRuleId(sx.TabError):
    def __init__(self, rid, index):
        super().__init__("duplicate rule id %r" % rid)
        self.index = index  # of the second rule with the id


class TableauRule:
    def __init__(self, rid, kind, premises, denominators, fresh_functions=(),
                 produces_terms=False):
        self.id = rid
        self.kind = kind  # decomposition+ | decomposition- | theory | equality
        #                   | closure | blocking
        self.premises = tuple(premises)
        self.denominators = tuple(tuple(d) for d in denominators)
        self.fresh_functions = tuple(fresh_functions)
        self.produces_terms = produces_terms
        self.plan = None  # the engine's RulePlan, built on first use
        if not self.premises and kind not in ("theory",):
            raise sx.TabError("rule %s has no premises" % rid)
        bound = sx.lvars(self.premises) + sx.dvars(self.premises)
        if kind == "blocking" and (len(self.premises) != 2 or len(bound) != 2):
            # the engine conjectures pairs of marked terms into its two slots
            raise sx.TabError("rule %s: a blocking rule needs two premises "
                              "of one variable each" % rid)
        for v in sx.lvars(self.denominators) + sx.dvars(self.denominators):
            if v not in bound:
                raise UnboundVariable("rule %s: no premise binds %s"
                                      % (rid, v.name))

    @property
    def branching_factor(self):
        return len(self.denominators)

    def is_closure(self):
        return not self.denominators

    def text(self):
        prem = ", ".join(l.text() for l in self.premises)
        if self.is_closure():
            den = "false"
        else:
            den = " | ".join(", ".join(l.text() for l in d)
                             for d in self.denominators)
        star = "*" if self.produces_terms else ""
        return "rule %s [%s]%s: %s / %s" % (self.id, self.kind, star, prem, den)


class UbConfig:
    def __init__(self, enabled=True, depth=0):
        if depth < 0:
            raise sx.TabError("blocking depth must be >= 0")
        self.enabled = enabled
        self.depth = depth


class Calculus:
    def __init__(self, name, signature, rules, skolems=None, blocking=None,
                 ctx=None, spec_name=None, refined=False, warnings=()):
        self.name = name
        self.signature = signature
        self.rules = list(rules)
        self.skolems = dict(skolems or {})
        self.blocking = blocking
        self.ctx = ctx                # TrContext when internalized
        self.spec_name = spec_name
        self.refined = refined        # any transformation applied post-synthesis
        self.warnings = tuple(warnings)  # what a refinement leaves unproven
        self.round = None  # the engine's generated round, built on first use
        # traces name a rule by its id, and ``rule`` finds the first one: a
        # second rule with an id in use could not be told apart from it
        ids = set()
        for k, r in enumerate(self.rules):
            if r.id in ids:
                raise DuplicateRuleId(r.id, k)
            ids.add(r.id)

    @property
    def mode(self):
        """"internalized" exactly when the calculus carries a context."""
        return "base" if self.ctx is None else "internalized"

    def rule(self, rid):
        for r in self.rules:
            if r.id == rid:
                return r
        return None

    def counts_by_kind(self):
        out = {}
        for r in self.rules:
            k = "decomposition" if r.kind.startswith("decomposition") else r.kind
            out[k] = out.get(k, 0) + 1
        return out

    def replaced(self, rules, refined=True):
        return Calculus(self.name, self.signature, rules, self.skolems,
                        self.blocking, self.ctx, self.spec_name,
                        refined=self.refined or refined, warnings=self.warnings)


# ---------------------------------------------------------------------------
# Skolemization / DNF

class _SkolemNamer:
    """Deterministic sk_<origin>_<j> names, globally unique per synthesis."""

    def __init__(self):
        self.used = set()

    def fresh(self, origin_slug, j):
        name = "sk_%s_%d" % (origin_slug, j)
        while name in self.used:
            j += 1
            name = "sk_%s_%d" % (origin_slug, j)
        self.used.add(name)
        return name


def _skolemize(tree, head_lvars, scope, namer, slug, counter):
    """Remove quantifiers from an NNF tree: existentials become Skolem terms
    over (head L-variables, enclosing universals); universals become free
    variables, renamed apart from everything already in scope."""
    if type(tree) is sx.Literal:
        return tree, []
    if tree.var is None:
        subs, fns = [], []
        for s in tree.subs:
            s2, f2 = _skolemize(s, head_lvars, scope, namer, slug, counter)
            subs.append(s2)
            fns.extend(f2)
        return sx.formula(tree.op, subs), fns
    var, body = tree.var, tree.subs[0]
    if tree.op == "exists":
        fn = sx.FnSym(namer.fresh(slug, counter[0]),
                      tuple(v.sort for v in head_lvars), len(scope))
        counter[0] += 1
        term = sx.app(fn, list(head_lvars) + list(scope))
        body2 = sx.substitute_formula(body, {var: term})
        t, fns = _skolemize(body2, head_lvars, scope, namer, slug, counter)
        return t, [fn] + fns
    # universal: strip, keeping the variable free (renamed apart if clashing)
    v = var
    if any(v is s for s in scope):
        base = v.name.rstrip("0123456789")
        k = 1
        while any(sx.dvar("%s%d" % (base, k)) is s for s in scope):
            k += 1
        v2 = sx.dvar("%s%d" % (base, k))
        body = sx.substitute_formula(body, {var: v2})
        v = v2
    return _skolemize(body, head_lvars, scope + [v], namer, slug, counter)


def _dnf(tree):
    """List of conjunctions (ordered literal lists), naively distributed."""
    if type(tree) is sx.Literal:
        return [[tree]]
    subs = tree.subs
    if tree.op == "or":
        out = []
        for s in subs:
            out.extend(_dnf(s))
            if sum(len(c) for c in out) > DNF_LITERAL_CAP:
                raise sx.TabError("matrix exceeds %d literals" % DNF_LITERAL_CAP)
        return out
    # and: distribute
    out = [[]]
    for s in subs:
        parts = _dnf(s)
        nxt = []
        for left in out:
            for right in parts:
                nxt.append(left + [l for l in right if l not in left])
        out = nxt
        if sum(len(c) for c in out) > DNF_LITERAL_CAP:
            raise sx.TabError("matrix exceeds %d literals" % DNF_LITERAL_CAP)
    return out


def _clean_matrix(conjs):
    """Drop contradictory denominators (false, or psi with its negation);
    dedupe denominators, keeping first occurrences."""
    out = []
    for conj in conjs:
        lits = list(dict.fromkeys(conj))
        contradictory = any(l.pred[0] == "false" and l.pos for l in lits) or \
            any(l.negate() in lits for l in lits)
        if contradictory:
            continue
        if lits not in out:
            out.append(lits)
    return out


def _slug(e):
    if e.kind == "app":
        return re.sub(r"[^a-zA-Z0-9]+", "_", e.name)
    return re.sub(r"[^a-zA-Z0-9]+", "_", e.text())


def head_slug(xi):
    e = xi.head_expr
    if e.kind == "app" and all(a.kind == "var" for a in e.args):
        return _slug(e)
    return re.sub(r"[^a-zA-Z0-9]+", "_", e.text()).strip("_")


def _matrix(f, pos, head_lvars, scope, namer, slug):
    """(DNF matrix, fresh Skolem functions) of ``f``, negated unless
    ``pos``: negation normal form (:func:`~tabsynth.syntax.nnf`),
    Skolemization, DNF and clean-up in turn."""
    tree, fns = _skolemize(sx.nnf(f, pos), head_lvars, scope,
                           namer or _SkolemNamer(), slug, [0])
    return _clean_matrix(_dnf(tree)), fns


def implicational_form(xi, namer=None):
    """(head literal, DNF matrix, fresh Skolem functions) for one sentence."""
    head_lit = xi.head_atom if xi.polarity == "+" else xi.head_atom.negate()
    matrix, fns = _matrix(xi.body, xi.polarity == "+", xi.head_lvars(),
                          list(xi.dom_vars), namer, head_slug(xi))
    return head_lit, matrix, fns


def make_decomposition_rule(xi, namer=None):
    head_lit, matrix, fns = implicational_form(xi, namer)
    premises = [head_lit] + [_eq(v, v) for v in sx.dvars(matrix)
                             if v not in xi.dom_vars]
    rid = head_slug(xi) + ("_pos" if xi.polarity == "+" else "_neg")
    kind = "decomposition+" if xi.polarity == "+" else "decomposition-"
    return TableauRule(rid, kind, premises, matrix, fns,
                       produces_terms=bool(fns))


def make_theory_rule(idx, sentence, namer=None):
    for e in sx.lexprs_of_formula(sentence):
        if e.kind == "app":
            raise sx.TabError("background sentence mentions compound "
                              "expression %s" % e.text())
    lvars = sx.lvars(sentence)
    matrix, fns = _matrix(sentence, True, lvars, [], namer, "bg%d" % idx)
    premises = [_eq(v, v) for v in lvars + sx.dvars(matrix)]
    return TableauRule("theory_%d" % idx, "theory", premises, matrix, fns,
                       produces_terms=bool(fns))


# ---------------------------------------------------------------------------
# default equality and closure rules

class _RuleVars:
    """Fresh standardly-named variables for schema instantiation."""

    def __init__(self, sig):
        self.sig = sig
        self.dnames = ["x", "y", "z"]
        self.dcount = 0
        self.lcount = {s: 0 for s in range(sig.n_lsorts)}

    def dv(self):
        i = self.dcount
        self.dcount += 1
        if i < 3:
            return sx.dvar(self.dnames[i])
        return sx.dvar("%s%d" % (self.dnames[i % 3], i // 3))

    def lv(self, sort):
        pfx = self.sig.var_prefixes[sort] or ("v%d_" % sort,)
        i = self.lcount[sort]
        self.lcount[sort] += 1
        if i < len(pfx):
            return sx.lvar(sort, pfx[i])
        return sx.lvar(sort, "%s%d" % (pfx[i % len(pfx)], i // len(pfx)))


def _eq(a, b):
    return sx.atom(sx.EQ, [a, b])


def _families(sig, ns):
    """The predicate families the default rules are written over: (name,
    predicate, sort of the leading object argument or None, number of domain
    arguments) for eq, each occurring predicate and each occurring
    holds-predicate nu_n."""
    return ([("eq", sx.EQ, None, 2)]
            + [(p, sx.pred(p), None, sig.preds[p]) for p in occurring(ns, "pred")]
            # the primary sort is always exercised by the input layer
            + [("nu%d" % n, sx.nu(n), n, n)
               for n in sorted({1, *occurring(ns, "nu")})])


def _fresh_args(sig, lead, k):
    """A fresh variable supply, the leading object variable drawn from it (as
    a list, empty when ``lead`` is None) and ``k`` domain variables."""
    rv = _RuleVars(sig)
    return rv, [] if lead is None else [rv.lv(lead)], [rv.dv() for _ in range(k)]


def default_equality_rules(sig, ns, skolems=()):
    """The standard block: domain predication for every predicate family,
    symmetry, transitivity, and congruence rules for every predicate family
    and every (Skolem) function.

    Congruence comes in both polarities.  The negative variants are the
    surviving branch of the unrefined congruence rule (its other two
    denominators contradict the premises); without them a negative literal
    on a term equated with an older one could never migrate to the
    representative, and blocking would suppress the only rule able to close
    the branch."""
    rules = []
    fams = _families(sig, ns)
    for name, pred, lead, k in fams:
        _, ls, xs = _fresh_args(sig, lead, k)
        for sign, tag in ((True, "pos"), (False, "neg")):
            rules.append(TableauRule(
                "dp_%s_%s" % (tag, name), "equality",
                [sx.literal(sign, pred, ls + xs)],
                [[_eq(v, v) for v in ls + xs]]))

    rv = _RuleVars(sig)
    x, y, z = rv.dv(), rv.dv(), rv.dv()
    rules.append(TableauRule("eq_sym", "equality", [_eq(x, y)], [[_eq(y, x)]]))
    rules.append(TableauRule("eq_trans", "equality", [_eq(x, y), _eq(y, z)],
                             [[_eq(x, z)]]))

    for name, pred, lead, k in fams:
        for i in range(k):
            for sign, tag in ((True, ""), (False, "neg_")):
                if name == "eq" and not sign:
                    # negative equalities conflict through symmetry and
                    # transitivity alone; no transfer rule is needed
                    continue
                rv, ls, xs = _fresh_args(sig, lead, k)
                ys = xs.copy()
                ys[i] = rv.dv()
                rules.append(TableauRule(
                    "congr_%s%s_%d" % (tag, name, i + 1), "equality",
                    [sx.literal(sign, pred, ls + xs), _eq(xs[i], ys[i])],
                    [[sx.literal(sign, pred, ls + ys)]]))
    for fn in skolems:
        for i in range(fn.n_dom):
            rv = _RuleVars(sig)
            ls = [rv.lv(s) for s in fn.lsorts]
            xs = [rv.dv() for _ in range(fn.n_dom)]
            yi = rv.dv()
            t1 = sx.app(fn, ls + xs)
            ys = xs.copy()
            ys[i] = yi
            t2 = sx.app(fn, ls + ys)
            # the rewritten function term may be new on the branch, so this
            # rule produces terms and falls under the blocking restrictions
            rules.append(TableauRule(
                "congr_fn_%s_%d" % (fn.name, i + 1), "equality",
                [_eq(t1, t1), _eq(xs[i], yi)],
                [[_eq(t1, t2)]],
                produces_terms=True))
    return rules


def closure_rules(sig, ns):
    """One contradiction rule per predicate family: the holds-predicates
    first, then the predicates, then eq."""
    rules = []
    for name, pred, lead, k in sorted(_families(sig, ns),
                                      key=lambda f: (f[2] is None, f[0] == "eq")):
        _, ls, xs = _fresh_args(sig, lead, k)
        a = sx.atom(pred, ls + xs)
        rules.append(TableauRule("closure_%s" % name, "closure",
                                 [a, a.negate()], []))
    return rules


def synthesize(ns: NormalizedSpec, assume_well_founded=False) -> Calculus:
    verdict = refuse_cycle(induced_ordering(ns))
    if verdict.kind == "unknown" and not assume_well_founded:
        raise sx.TabError("cannot prove the induced ordering well-founded; "
                          "pass assume_well_founded to proceed")
    sig = ns.signature
    namer = _SkolemNamer()
    decomp = []
    plus_heads = {head_key(xi) for xi in ns.s_plus}
    for xi in sorted(ns.s_plus, key=lambda x: head_slug(x)):
        decomp.append(make_decomposition_rule(xi, namer))
        for xim in ns.s_minus:
            if head_key(xim) == head_key(xi):
                decomp.append(make_decomposition_rule(xim, namer))
    # negative sentences whose head has no positive partner
    for xim in sorted(ns.s_minus, key=lambda x: head_slug(x)):
        if head_key(xim) not in plus_heads:
            decomp.append(make_decomposition_rule(xim, namer))
    theory = [make_theory_rule(i, ax, namer) for i, ax in enumerate(ns.sb)]
    skolems = []
    for r in decomp + theory:
        skolems.extend(r.fresh_functions)
    equality = default_equality_rules(sig, ns, skolems)
    closure = closure_rules(sig, ns)
    rules = decomp + theory + equality + closure
    return Calculus(ns.spec.name, sig, rules,
                    skolems={f.name: f for f in skolems},
                    spec_name=ns.spec.name)
