"""Calculus refinement: folding conclusions into premises, rewriting a
calculus into the object language, simplification, and the blocking rule.

Folding (the first refinement) replaces a branching rule by one rule per
literal of the folded denominator, each taking that literal's negation as an
extra premise.  Internalization (the second refinement) rewrites every
literal as a concept of the primary sort, given context templates expressing
the holds-predicates and domain predicates inside the logic itself; domain
terms travel through fresh connectives standing for the Skolem functions.
"""

from __future__ import annotations

import itertools

from . import syntax as sx
from .parser import (Elaborator, SpecSyntaxError, TreeParser, connective_text,
                     parse_connective, read_directives, tokenize)
from .synth import Calculus, TableauRule, UbConfig, UnboundVariable


# ---------------------------------------------------------------------------
# folding

def _is_dp(lit):
    return lit.pos and lit.pred[0] == "eq" and \
        lit.args[0] is lit.args[1] and lit.args[0].kind == "var"


def fold_whitelisted(rule, folded_lits, signature):
    """Folds that are harmless by construction: theory rules (their
    denominators only mention atomic expressions), and folds whose literals
    contain no expression of a sort that connectives can produce."""
    if rule.kind == "theory":
        return True
    conn_sorts = signature.sorts_with_connectives()
    for lit in folded_lits:
        for t in lit.args:
            for e in sx.lexprs_of_formula(t):
                if e.sort in conn_sorts:
                    return False
    return True


def refine_rule(calc, rule_id, fold, drop_dp=False, unsafe=False):
    """Replace ``rule_id`` by the rules that take the folded denominators'
    negated literals as premises; optionally drop redundant domain
    predication premises afterwards."""
    rule = calc.rule(rule_id)
    if rule is None:
        raise sx.TabError("no rule %s" % rule_id)
    if not rule.denominators:
        raise sx.TabError("rule %s has no denominators" % rule_id)
    fold = sorted(set(fold))
    for i in fold:
        if not (0 <= i < len(rule.denominators)):
            raise sx.TabError("%s has no denominator %d" % (rule_id, i))

    folded = [rule.denominators[i] for i in fold]
    kept = [d for i, d in enumerate(rule.denominators) if i not in fold]
    flat = [l for d in folded for l in d]
    whitelisted = fold_whitelisted(rule, flat, calc.signature)
    if not whitelisted and not unsafe:
        raise sx.TabError(
            "folding %s does not preserve model construction by construction; "
            "re-run with the unsafe-refine acknowledgement" % rule_id)

    new_rules = []
    combos = list(itertools.product(*folded))
    for j, combo in enumerate(combos, 1):
        premises = list(rule.premises) + [l.negate() for l in combo]
        if drop_dp:
            keptp = []
            for k, p in enumerate(premises):
                if _is_dp(p):
                    v = p.args[0]
                    others = premises[:k] + premises[k + 1:]
                    if any(v in sx.lvars(o) + sx.dvars(o)
                           and not (_is_dp(o) and o.args[0] is v)
                           for o in others):
                        continue
                keptp.append(p)
            premises = keptp
        rid = "%s_%d" % (rule_id, j)
        new_rules.append(TableauRule(
            rid, rule.kind, premises, kept, rule.fresh_functions,
            produces_terms=rule.produces_terms and bool(kept)))

    rules = []
    for r in calc.rules:
        if r.id == rule_id:
            rules.extend(new_rules)
        else:
            rules.append(r)
    out = calc.replaced(rules)
    if not whitelisted:
        out.warnings += ("fold of %s is outside the whitelist: completeness "
                         "not guaranteed" % rule_id,)
    return out


# ---------------------------------------------------------------------------
# internalization context

class Template:
    """A concept template over placeholder variables."""

    def __init__(self, params, expr):
        self.params = tuple(params)   # (p of sort n, l1..ln) or (l1..ln)
        self.expr = expr              # a Term of the primary sort

    def instantiate(self, args):
        if len(args) != len(self.params):
            raise sx.TabError("template arity mismatch")
        sub = {}
        for v, a in zip(self.params, args):
            if a.sort != v.sort:
                raise sx.TabError("template argument sort mismatch")
            sub[v] = a
        return sx.substitute_expr(self.expr, sub)

    def match(self, concept):
        """Placeholder values if ``concept`` instantiates this template."""
        binding = {}
        if sx.match_expr(self.expr, concept, binding):
            return tuple(binding[v] for v in self.params)
        return None


class TrContext:
    def __init__(self, new_conns, fn_conns, templates):
        self.new_conns = list(new_conns)    # Conn objects the context adds
        self.fn_conns = dict(fn_conns)      # Skolem fn name -> Conn
        # "c+"/"c-": sort n -> Template(p, l1..ln);
        # "d+"/"d-": predicate name (or "eq") -> Template(l1..ln)
        self.templates = templates

    def template(self, kind, pos, key):
        """The ``kind`` ("c" or "d") template of polarity ``pos`` for
        ``key``: a sort for c templates, a predicate name or "eq" for d."""
        word = kind + ("+" if pos else "-")
        tpl = self.templates[word].get(key)
        if tpl is None:
            raise sx.TabError("missing %s template for %s" % (
                word, "sort %d" % key if kind == "c" else key))
        return tpl


def parse_context(text, sig, skolems):
    """Read a context in two passes: the connective and function
    declarations first, then the templates over the extended signature."""
    new_conns, fn_conns = [], {}
    templates = {"c+": {}, "c-": {}, "d+": {}, "d-": {}}

    def declaration(lineno, word, rest):
        if word == "connective":
            new_conns.append(parse_connective(rest))
        elif word == "function":
            fname, _, cname = rest.partition("->")
            fname, cname = fname.strip(), cname.strip()
            fn = skolems.get(fname)
            if fn is None:
                raise sx.TabError("unknown function %s" % fname)
            conn = sx.Conn(cname, fn.lsorts + (0,) * fn.n_dom, 0)
            new_conns.append(conn)
            fn_conns[fname] = conn
        elif word not in templates:
            raise SpecSyntaxError("unknown context directive %r" % word, lineno)

    read_directives(text, declaration)
    ext = sig.extended(new_conns)
    el = Elaborator(ext)

    def template(lineno, word, rest):
        if word not in templates:
            return
        key_txt, _, body = rest.partition("=")
        key_parts = key_txt.split("(", 1)
        key = key_parts[0].strip()
        if len(key_parts) != 2 or not key_parts[1].rstrip().endswith(")"):
            raise SpecSyntaxError("template needs a parameter list", lineno)
        param_names = [p.strip() for p in key_parts[1].rstrip()[:-1].split(",")]
        params = []
        for pn in param_names:
            cls = ext.classify_name(pn)
            if cls is None or cls[0] != "var":
                raise SpecSyntaxError("template parameter %r must be an "
                                      "object variable" % pn, lineno)
            params.append(sx.lvar(cls[1], pn))
        tp = TreeParser(tokenize(body.strip(), lineno))
        expr = el.lexpr(tp.tree(), 1)
        if not tp.at_end():
            raise SpecSyntaxError("trailing input in template", lineno)
        # a parameter missing from the expression never gets a value, and
        # a variable that is no parameter stays a variable in an instance
        used = sx.lvars(expr)
        for p in params:
            if p not in used:
                raise SpecSyntaxError("template parameter %r does not occur "
                                      "in its expression" % p.name, lineno)
        for v in used:
            if v not in params:
                raise SpecSyntaxError("template variable %r is not a parameter"
                                      % v.name, lineno)
        if word in ("c+", "c-"):
            key = int(key)
            if [p.sort for p in params] != [key] + [0] * key:
                raise SpecSyntaxError("c%s %d takes a sort-%d variable then %d "
                                      "individuals" % (word[1], key, key, key), lineno)
        else:
            arity = 2 if key == "eq" else sig.preds.get(key)
            if arity is None:
                raise SpecSyntaxError("unknown predicate %r" % key, lineno)
            if [p.sort for p in params] != [0] * arity:
                raise SpecSyntaxError("d%s %s takes %d individuals"
                                      % (word[1], key, arity), lineno)
        templates[word][key] = Template(params, expr)

    read_directives(text, template)
    return TrContext(new_conns, fn_conns, templates)


def print_context(ctx):
    out = []
    fn_conn_names = {c.name for c in ctx.fn_conns.values()}
    for c in ctx.new_conns:
        if c.name in fn_conn_names:
            continue
        out.append(connective_text(c))
    for fname, conn in ctx.fn_conns.items():
        out.append("function %s -> %s" % (fname, conn.name))

    for word, tpls in ctx.templates.items():
        for key, tpl in tpls.items():
            params = ", ".join(p.name for p in tpl.params)
            out.append("%s %s(%s) = %s" % (word, key, params, tpl.expr.text()))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# internalization

def _epsilon_for_rule(rule, sig):
    """Injective map from the rule's domain variables to fresh individuals."""
    lits = (rule.premises,) + rule.denominators
    pfx = (sig.var_prefixes[0] or ("l",))[0]
    used = {e.name for e in sx.lvars(lits) if e.sort == 0}
    eps, k = {}, 0
    for v in sx.dvars(lits):
        while True:
            name = pfx if k == 0 else "%s%d" % (pfx, k)
            k += 1
            if name not in used:
                break
        eps[v] = sx.lvar(0, name)
    return eps


class _Internalizer:
    def __init__(self, calc, ctx):
        self.ctx = ctx
        self.sig = calc.signature.extended(ctx.new_conns)

    def individual(self, t, eps):
        """The sort-0 expression standing for a domain term."""
        if t.sort != sx.DOMAIN:
            raise sx.TabError("object expression in domain position")
        if t.kind == "var":
            return eps[t]
        if t.kind == "const":
            return sx.lconst(0, t.name)
        if t.sym is sx.NU0:
            return t.args[0]
        conn = self.ctx.fn_conns.get(t.name)
        if conn is None:
            raise sx.TabError("no connective for function %s" % t.name)
        return sx.app(conn, [self.individual(a, eps) if a.sort == sx.DOMAIN else a
                             for a in t.args])

    def literal(self, lit, eps):
        """The concept literal standing for ``lit``; None when it dissolves
        (reflexive equalities at object sorts carry no information here)."""
        p = lit.pred
        if p[0] in ("holds", "false"):
            return lit
        if p[0] == "nu":
            tpl = self.ctx.template("c", lit.pos, p[1])
            args = [lit.args[0]] + [self.individual(t, eps) for t in lit.args[1:]]
        elif p[0] == "pred":
            tpl = self.ctx.template("d", lit.pos, p[1])
            args = [self.individual(t, eps) for t in lit.args]
        else:  # equality
            s, t = lit.args
            if s.sort != sx.DOMAIN:
                if s is t:
                    return None  # reflexive object-sort predication dissolves
                raise sx.TabError("object-sort equality %s cannot be "
                                  "internalized" % lit.text())
            tpl = self.ctx.template("d", lit.pos, "eq")
            # put a bare domain variable side first; keeps rules whose premise
            # and conclusion say the same thing literally identical
            if t.kind == "var" and s.kind != "var":
                s, t = t, s
            args = [self.individual(s, eps), self.individual(t, eps)]
        return sx.atom(sx.HOLDS, [tpl.instantiate(args)])

    def rule(self, r):
        eps = _epsilon_for_rule(r, self.sig)
        # every literal is encoded before a vacuous rule is dropped, so a
        # missing template is reported wherever it is needed
        premises, *denominators = [
            [x for x in (self.literal(l, eps) for l in lits) if x is not None]
            for lits in (r.premises,) + r.denominators]
        if not premises or not all(denominators):
            return None  # a vacuous denominator makes the rule a no-op
        try:
            return TableauRule(r.id, r.kind, premises, denominators,
                               r.fresh_functions, r.produces_terms)
        except UnboundVariable:
            # an object-sort predication premise was load bearing: nothing in
            # the object language can express it, so the rule must be folded
            # into a form whose remaining premises carry its variables first
            raise sx.TabError(
                "rule %s instantiates over object-sort predication the "
                "context cannot express; fold it before internalizing"
                % r.id) from None


def internalize(calc, ctx):
    """Rewrite every rule into the object language; the result speaks only
    concepts of the primary sort."""
    intern = _Internalizer(calc, ctx)
    rules = []
    for r in calc.rules:
        nr = intern.rule(r)
        if nr is not None:
            rules.append(nr)
    return Calculus(calc.name, intern.sig, rules, calc.skolems, calc.blocking,
                    ctx, calc.spec_name, refined=True, warnings=calc.warnings)


# ---------------------------------------------------------------------------
# simplification

def _rule_is_trivial(rule):
    prem = set(rule.premises)
    return any(d and set(d) <= prem for d in rule.denominators)


def _premises_instance_of(a, b):
    """Are a's premises an instance of b's premises, positionally?"""
    if len(a.premises) != len(b.premises):
        return False
    binding = {}
    return all(sx.match_literal(pb, pa, binding)
               for pb, pa in zip(b.premises, a.premises))


def simplify(calc):
    """Remove rules whose denominators repeat their premises, and closure
    rules whose premises instantiate another closure rule's premises.
    Returns the reduced calculus and the removed rule ids."""
    removed = []
    rules = []
    for r in calc.rules:
        if _rule_is_trivial(r):
            removed.append(r.id)
        else:
            rules.append(r)
    closures = [r for r in rules if r.is_closure()]
    drop = set()
    for r in closures:
        for other in closures:
            if other.id != r.id and other.id not in drop \
                    and _premises_instance_of(r, other):
                drop.add(r.id)
                break
    removed.extend(sorted(drop))
    rules = [r for r in rules if r.id not in drop]
    return calc.replaced(rules), removed


# ---------------------------------------------------------------------------
# blocking

def attach_ub(calc, cfg):
    """Add the equality-conjecture blocking rule; the engine enforces the
    term-introduction restrictions when ``cfg`` is enabled."""
    if not cfg.enabled:
        return calc
    x, y = sx.dvar("x"), sx.dvar("y")
    a = sx.atom(sx.EQ, [x, y])
    ub = TableauRule("ub", "blocking",
                     [sx.atom(sx.EQ, [v, v]) for v in (x, y)],
                     [[a], [a.negate()]])
    if calc.mode == "internalized":
        ctx = calc.ctx
        if ctx is None or "eq" not in ctx.templates["d+"] \
                or "eq" not in ctx.templates["d-"]:
            raise sx.TabError("internalized calculus lacks equality templates")
        ub = _Internalizer(calc, ctx).rule(ub)
    elif not any(l.pred[0] == "eq"
                 for r in calc.rules
                 for lits in (r.premises,) + r.denominators
                 for l in lits):
        raise sx.TabError("calculus never mentions equality")
    rules = [r for r in calc.rules if r.id != "ub"] + [ub]
    out = calc.replaced(rules, refined=calc.refined)
    out.blocking = cfg
    return out


# ---------------------------------------------------------------------------
# refinement scripts

class RefineStep:
    def __init__(self, kind, rule_id=None, fold=(), drop_dp=False, depth=0):
        self.kind = kind  # rf | tr | simplify | ub
        self.rule_id = rule_id
        self.fold = tuple(fold)
        self.drop_dp = drop_dp
        self.depth = depth


def parse_script(text):
    steps = []

    def directive(lineno, word, rest):
        parts = rest.split()
        if word == "rf":
            if len(parts) < 3 or parts[1] != "fold":
                raise SpecSyntaxError("rf <rule> fold <i>... [drop-dp]", lineno)
            drop = parts[-1] == "drop-dp"
            nums = parts[2:-1] if drop else parts[2:]
            try:
                fold = [int(n) for n in nums]
            except ValueError:
                raise SpecSyntaxError("fold indices must be integers", lineno)
            steps.append(RefineStep("rf", rule_id=parts[0], fold=fold, drop_dp=drop))
        elif word in ("tr", "simplify"):
            steps.append(RefineStep(word))
        elif word == "ub":
            # `ub` or `ub depth <n>`; the reader reports a ValueError as malformed
            if parts and (len(parts) != 2 or parts[0] != "depth"):
                raise ValueError(rest)
            steps.append(RefineStep("ub", depth=int(parts[1]) if parts else 0))
        else:
            raise SpecSyntaxError("unknown refinement step %r" % word, lineno)

    read_directives(text, directive)
    return steps


def apply_script(calc, steps, ctx=None, unsafe=False):
    """Run the steps in order; ``tr`` uses the supplied context."""
    log = []
    for s in steps:
        if s.kind == "rf":
            calc = refine_rule(calc, s.rule_id, s.fold, s.drop_dp, unsafe=unsafe)
            log.append("rf %s" % s.rule_id)
        elif s.kind == "tr":
            if ctx is None:
                raise sx.TabError("script has a tr step but no context given")
            calc = internalize(calc, ctx)
            log.append("tr")
        elif s.kind == "simplify":
            calc, removed = simplify(calc)
            log.append("simplify removed: %s" % ", ".join(removed))
        else:
            calc = attach_ub(calc, UbConfig(True, s.depth))
            log.append("ub")
    return calc, log
