"""Finite structures: extraction from open branches, formula evaluation,
reflection checking, and the brute-force satisfiability oracle.

A structure interprets atomic expressions directly and compound expressions
through the connective definitions, by recursion on the definition bodies
(memoized; the recursion terminates because definitions are well founded).
The oracle enumerates all structures up to a domain bound, so its verdicts
are independent of the tableau machinery and usable as a test oracle.

The oracle does not walk formula trees per candidate structure.  The
connective definitions and the background sentences are compiled once per
specification into closures (:class:`Semantics`): object variables are
parameters, domain variables slots, and quantifiers loops over the domain.
:func:`evaluate` and :meth:`LStructure.holds` stay the tree-walking
reference; they check what the oracle returns and never go through the
compiled path.
"""

from __future__ import annotations

import itertools

from . import syntax as sx
from .normalize import induced_ordering, occurring_preds


class BranchClosed(sx.TabError):
    pass


class UnassignedVariable(sx.TabError):
    pass


class CarrierTooLarge(sx.TabError):
    pass


CARRIER_CAP = 64  # expressions in an input's closure the oracle accepts


class LStructure:
    """A finite first-order structure over equivalence classes 0..n-1."""

    def __init__(self, size, spec=None):
        if size < 1:
            raise sx.TabError("domain must be nonempty")
        self.size = size
        self.spec = spec            # SemanticSpec giving compound semantics
        self.nu0 = {}               # ground sort-0 expression -> element
        self.nu = {}                # sort n -> set of (atomic expr, elems)
        self.preds = {}             # predicate name -> set of tuples
        self.funs = {}              # function name -> {args key: element}
        self.dconsts = {}           # domain constant name -> element
        self.term_class = {}        # ground domain term -> element
        self._memo = {}

    def holds(self, n, expr, elems):
        """nu_n membership; compound expressions unfold their definition."""
        elems = tuple(elems)
        if expr.kind != "app":
            return (expr, elems) in self.nu.get(n, ())
        key = (id(expr), n, elems)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        self._memo[key] = False  # cut off accidental cycles defensively
        d = self.spec.definition_of(expr.name)
        body = _instantiated_body(d, expr)
        val = {v: e for v, e in zip(d.dom_vars, elems)}
        res = evaluate(self, body, val)
        self._memo[key] = res
        return res

    def eval_term(self, t, val):
        if t.sort != sx.DOMAIN:
            return t  # canonical valuation: object expressions name themselves
        if t.kind == "var":
            graph, key = val, t
        elif t.kind == "const":
            graph, key = self.dconsts, t.name
        elif t.sym is sx.NU0:
            graph, key = self.nu0, t.args[0]
        else:
            graph = self.funs.get(t.name, {})
            key = tuple(self.eval_term(a, val) for a in t.args)
        if key not in graph:
            raise UnassignedVariable(t.text())
        return graph[key]

    def format(self):
        lines = ["domain: %s" % " ".join("e%d" % i for i in range(self.size))]
        for e in sorted(self.nu0, key=lambda x: x.text()):
            lines.append("nu0 %s: e%d" % (e.text(), self.nu0[e]))
        for n in sorted(self.nu):
            by_expr = {}
            for expr, elems in self.nu[n]:
                by_expr.setdefault(expr, []).append(elems)
            for expr in sorted(by_expr, key=lambda x: x.text()):
                tups = sorted(by_expr[expr])
                if n == 1:
                    cells = " ".join("e%d" % t[0] for t in tups)
                else:
                    cells = " ".join("(%s)" % ",".join("e%d" % i for i in t)
                                     for t in tups)
                lines.append("nu%d %s: %s" % (n, expr.text(), cells))
        for p in sorted(self.preds):
            cells = " ".join("(%s)" % ",".join("e%d" % i for i in t)
                             for t in sorted(self.preds[p]))
            lines.append("%s: %s" % (p, cells))
        return "\n".join(lines) + "\n"


_BODY_CACHE = {}


def _instantiated_body(d, expr):
    """The definition body with the head variables replaced by the
    expression's arguments; pure in the interned expression, so cached.
    The cache keeps the definition object alive so its id stays unique."""
    key = (id(d), id(expr))
    hit = _BODY_CACHE.get(key)
    if hit is not None and hit[0] is d:
        return hit[1]
    lsub = {p: e for p, e in zip(d.head_atom.args[0].args, expr.args)}
    body = sx.substitute_formula(d.body, lsub)
    _BODY_CACHE[key] = (d, body)
    return body


def evaluate(m, f, val=None):
    """Truth of a formula in ``m`` under a domain valuation (object-language
    variables and constants denote themselves)."""
    val = val or {}
    if type(f) is sx.Atom:
        p = f.pred
        if p[0] == "false":
            return False
        if p[0] == "nu":
            expr = f.args[0]
            elems = [m.eval_term(t, val) for t in f.args[1:]]
            return m.holds(p[1], expr, elems)
        if p[0] == "eq":
            a = m.eval_term(f.args[0], val)
            b = m.eval_term(f.args[1], val)
            return a == b  # elements, or interned expressions
        if p[0] == "pred":
            elems = tuple(m.eval_term(t, val) for t in f.args)
            return elems in m.preds.get(p[1], ())
        raise sx.TabError("cannot evaluate %s" % f.text())
    op, subs = f.op, f.subs
    if op == "not":
        return not evaluate(m, subs[0], val)
    if op == "and":
        return all(evaluate(m, s, val) for s in subs)
    if op == "or":
        return any(evaluate(m, s, val) for s in subs)
    if op == "implies":
        return not evaluate(m, subs[0], val) or evaluate(m, subs[1], val)
    if op == "iff":
        return evaluate(m, subs[0], val) == evaluate(m, subs[1], val)
    want_all = op == "forall"
    var = f.var
    had, old = var in val, val.get(var)
    try:
        for e in range(m.size):
            val[var] = e
            got = evaluate(m, subs[0], val)
            if got != want_all:
                return got
        return want_all
    finally:
        if had:
            val[var] = old
        else:
            val.pop(var, None)


# ---------------------------------------------------------------------------
# extraction from a branch

def individual_term(e, ctx, skolems):
    """The domain term a sort-0 expression stands for: connectives that
    encode functions map back to those functions (``skolems`` maps the
    function names of ``ctx`` to the calculus's symbols), anything else goes
    through nu0."""
    if e.kind == "app":
        for fname, conn in ctx.fn_conns.items():
            if e.sym is conn:
                fn = skolems[fname]
                args = list(e.args[:len(fn.lsorts)])
                args += [individual_term(a, ctx, skolems)
                         for a in e.args[len(fn.lsorts):]]
                return sx.app(fn, args)
    return sx.nu0(e)


def detranslate(literals, ctx, skolems):
    """Rewrite internalized branch concepts back into base literals using
    every context template that matches (all readings are entailed)."""
    if skolems is None:
        raise sx.TabError("a context needs the calculus's skolems")
    out = []

    def term_of(e):
        return individual_term(e, ctx, skolems)

    def emit(lit):
        if lit not in out:
            out.append(lit)

    for lit in literals:
        if lit.atom.pred[0] != "holds":
            emit(lit)
            continue
        c = lit.atom.args[0]
        # d before c: model element numbering follows this order
        for word in ("d+", "d-", "c+", "c-"):
            for key, tpl in ctx.templates[word].items():
                m = tpl.match(c)
                if not m:
                    continue
                if word[0] == "c":
                    # c templates, keyed by sort: an expression, then individuals
                    a = sx.atom(sx.nu(key), [m[0]] + [term_of(e) for e in m[1:]])
                else:
                    pred = sx.EQ if key == "eq" else sx.pred(key)
                    a = sx.atom(pred, [term_of(e) for e in m])
                emit(sx.literal(word[1] == "+", a))
    return out


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        self.add(x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def extract_model(branch, ns, ctx=None, skolems=None):
    """The structure read off an open saturated branch: elements are the
    equality classes of the branch's ground domain terms."""
    from .engine import Branch
    if isinstance(branch, Branch):
        if branch.closed:
            raise BranchClosed("cannot extract a model from a closed branch")
        literals = branch.literals
    else:
        literals = list(branch)
    if ctx is not None:
        literals = detranslate(literals, ctx, skolems)

    terms = sx.ground_terms(literals)
    if not terms:
        terms.append(sx.dconst("a0"))
    uf = _UnionFind()
    for t in terms:
        uf.add(t)
    for lit in literals:
        a = lit.atom
        if lit.pos and a.pred[0] == "eq" and a.args[0].sort == sx.DOMAIN:
            uf.union(a.args[0], a.args[1])
    classes = {}
    for t in terms:
        r = uf.find(t)
        if r not in classes:
            classes[r] = len(classes)
    m = LStructure(len(classes), spec=ns.spec)
    for t in terms:
        m.term_class[t] = classes[uf.find(t)]
        if t.kind == "const":
            m.dconsts[t.name] = m.term_class[t]
        elif t.sym is sx.NU0:
            m.nu0[t.args[0]] = m.term_class[t]
        else:
            key = tuple(a if a.sort != sx.DOMAIN else m.term_class[a]
                        for a in t.args)
            m.funs.setdefault(t.name, {})[key] = m.term_class[t]
    for lit in literals:
        a = lit.atom
        if not lit.pos:
            continue
        if a.pred[0] == "nu" and a.args[0].kind != "app":
            elems = tuple(m.term_class[t] for t in a.args[1:])
            m.nu.setdefault(a.pred[1], set()).add((a.args[0], elems))
        elif a.pred[0] == "pred":
            elems = tuple(m.term_class[t] for t in a.args)
            m.preds.setdefault(a.pred[1], set()).add(elems)
    # individuals buried inside concepts also need nu0 entries so that
    # singleton concepts over them can be evaluated.  One that no branch term
    # places (it occurs only in a disjunct the branch satisfied otherwise)
    # goes to the anchor's element 0, the class of the first input's term.
    for e in sx.lexprs_of_formula(literals):
        if e.sort == 0 and e not in m.nu0:
            t = sx.nu0(e) if ctx is None else individual_term(e, ctx, skolems)
            m.nu0[e] = m.term_class.get(t, 0)
    return m


def verify_reflection(m, branch, ctx=None, skolems=None):
    """Check the structure agrees with every branch literal; returns the
    list of violations (empty means the branch is reflected)."""
    from .engine import Branch
    literals = branch.literals if isinstance(branch, Branch) else list(branch)
    if ctx is not None:
        literals = detranslate(literals, ctx, skolems)
    violations = []
    for lit in literals:
        a = lit.atom
        try:
            if a.pred[0] == "nu":
                elems = [m.term_class[t] for t in a.args[1:]]
                truth = m.holds(a.pred[1], a.args[0], elems)
            elif a.pred[0] == "pred":
                elems = tuple(m.term_class[t] for t in a.args)
                truth = elems in m.preds.get(a.pred[1], ())
            elif a.pred[0] == "eq":
                s, t = a.args
                if s.sort == sx.DOMAIN:
                    truth = m.term_class[s] == m.term_class[t]
                else:
                    truth = s is t
            elif a.pred[0] == "false":
                truth = False
            else:
                continue
        except KeyError as e:
            violations.append((lit.text(), "unmapped term"))
            continue
        if truth != lit.pos:
            violations.append((lit.text(), "model disagrees"))
    return violations


# ---------------------------------------------------------------------------
# compiled semantics, which the oracle evaluates

class Semantics:
    """The connective definitions and the sentences of a normalized
    specification compiled into closures, once per specification: use
    :func:`semantics`, which keeps them on ``ns.semantics``.

    A compiled formula is a function ``(m, objs, slots)``.  ``objs`` holds
    the object expressions its object variables stand for, in the order it
    was compiled with; any other object variable names itself, as in
    :func:`evaluate`.  ``slots`` holds one domain element per domain
    variable given at compilation, then one per quantifier, which loops over
    ``range(m.size)``; any other free domain variable raises
    :class:`UnassignedVariable` when it is reached.  Compound expressions
    unfold through the compiled definitions, memoized in ``m._memo`` under
    keys of their own.  Nothing here calls :func:`evaluate` or
    :meth:`LStructure.holds`: they stay the tree-walking reference that
    checks what the oracle returns.
    """

    def __init__(self, ns):
        defs = {}

        def holds(m, n, expr, elems):
            if expr.kind != "app":
                return (expr, elems) in m.nu.get(n, ())
            key = (expr, n, elems)
            hit = m._memo.get(key)
            if hit is None:
                m._memo[key] = False  # cut off accidental cycles, as holds does
                body, pad = defs[expr.name]
                hit = m._memo[key] = body(m, expr.args, [*elems, *pad])
            return hit

        for d in ns.spec.definitions:
            body, n_slots = _compile(d.body, d.head_atom.args[0].args,
                                     d.dom_vars, holds)
            defs[d.conn.name] = (body, [None] * (n_slots - len(d.dom_vars)))
        self.holds = holds  # (m, n, ground expression, elements) -> truth
        self._sentences = {}

    def formula(self, f, lvars=(), dvars=()):
        """``f`` as a function ``(m, objs=(), elems=())`` of the expressions
        standing for ``lvars`` and the elements standing for ``dvars``."""
        body, n_slots = _compile(f, lvars, dvars, self.holds)
        pad = [None] * (n_slots - len(dvars))
        return lambda m, objs=(), elems=(): body(m, objs, [*elems, *pad])

    def sentence(self, f):
        """``(lvars, run)``: the object variables of ``f`` sorted by name,
        and ``f`` compiled with them as its parameters; compiled once."""
        hit = self._sentences.get(f)
        if hit is None:
            lvs = sorted(sx.lvars(f), key=lambda e: e.text())
            hit = self._sentences[f] = (lvs, self.formula(f, lvs))
        return hit


def semantics(ns):
    """The compiled semantics of ``ns``, built on first use and kept on it."""
    if ns.semantics is None:
        ns.semantics = Semantics(ns)
    return ns.semantics


def _compile(f, lvars, dvars, holds):
    """``f`` as a closure ``(m, objs, slots)`` (see :class:`Semantics`) and
    the number of slots it needs."""
    objs = {v: k for k, v in enumerate(lvars)}
    n_slots = len(dvars)

    def expr(e):
        # an object expression: a function of objs
        if e.kind == "var" and e in objs:
            k = objs[e]
            return lambda o: o[k]
        if not any(v in objs for v in sx.lvars(e)):
            return lambda o: e
        sym, parts = e.sym, [expr(a) for a in e.args]
        return lambda o: sx.app(sym, [g(o) for g in parts])

    def term(t, scope):
        # a domain term: a function (m, o, s) -> element
        if t in scope:
            i = scope[t]
            return lambda m, o, s: s[i]
        if t.kind == "var":
            def graph_key(m, o, s):
                return {}, t  # a free variable no slot holds
        elif t.kind == "const":
            def graph_key(m, o, s):
                return m.dconsts, t.name
        elif t.sym is sx.NU0:
            g = expr(t.args[0])

            def graph_key(m, o, s):
                return m.nu0, g(o)
        else:  # specification sentences apply no other domain function
            raise sx.TabError("cannot compile %s" % t.text())

        def get(m, o, s):
            graph, key = graph_key(m, o, s)
            if key not in graph:
                raise UnassignedVariable(
                    sx.substitute_expr(t, dict(zip(lvars, o))).text())
            return graph[key]
        return get

    def elems(ts, scope):
        # the domain arguments of an atom: a function (m, o, s) -> tuple
        if all(t in scope for t in ts):
            idx = [scope[t] for t in ts]  # the common shapes, without calls
            if len(idx) == 1:
                i, = idx
                return lambda m, o, s: (s[i],)
            if len(idx) == 2:
                i, j = idx
                return lambda m, o, s: (s[i], s[j])
        gs = [term(t, scope) for t in ts]
        return lambda m, o, s: tuple([g(m, o, s) for g in gs])

    def atom(a, scope):
        kind, args = a.pred[0], a.args
        if kind == "false":
            return lambda m, o, s: False
        if kind == "eq":
            x, y = args
            if x.sort != sx.DOMAIN:
                gx, gy = expr(x), expr(y)
                return lambda m, o, s: gx(o) is gy(o)
            gx, gy = term(x, scope), term(y, scope)
            return lambda m, o, s: gx(m, o, s) == gy(m, o, s)
        if kind == "pred":
            name, el = a.pred[1], elems(args, scope)
            return lambda m, o, s: el(m, o, s) in m.preds.get(name, ())
        if kind == "nu":
            n, e, ts = a.pred[1], args[0], args[1:]
            if e in objs and len(ts) == 1 and ts[0] in scope:
                k, i = objs[e], scope[ts[0]]
                return lambda m, o, s: holds(m, n, o[k], (s[i],))
            g, el = expr(e), elems(ts, scope)
            return lambda m, o, s: holds(m, n, g(o), el(m, o, s))
        raise sx.TabError("cannot compile %s" % a.text())

    def comp(g, scope):
        nonlocal n_slots
        if type(g) is sx.Atom:
            return atom(g, scope)
        op = g.op
        if g.var is not None:
            i = n_slots
            n_slots += 1
            body = comp(g.subs[0], {**scope, g.var: i})
            want = op == "forall"

            def quantifier(m, o, s):
                for e in range(m.size):
                    s[i] = e
                    if body(m, o, s) != want:
                        return not want
                return want
            return quantifier
        parts = [comp(x, scope) for x in g.subs]
        if op == "not":
            a, = parts
            return lambda m, o, s: not a(m, o, s)
        if op == "implies":
            a, b = parts
            return lambda m, o, s: not a(m, o, s) or b(m, o, s)
        if op == "iff":
            a, b = parts
            return lambda m, o, s: a(m, o, s) == b(m, o, s)
        if len(parts) == 2:
            a, b = parts
            if op == "and":
                return lambda m, o, s: a(m, o, s) and b(m, o, s)
            return lambda m, o, s: a(m, o, s) or b(m, o, s)
        if op == "and":
            return lambda m, o, s: all(p(m, o, s) for p in parts)
        return lambda m, o, s: any(p(m, o, s) for p in parts)

    body = comp(f, {v: i for i, v in enumerate(dvars)})
    return body, n_slots


# ---------------------------------------------------------------------------
# the brute-force oracle

def _signed(inputs):
    return [c if isinstance(c, tuple) else (c, True) for c in inputs]


def _subsets(universe):
    for k in range(len(universe) + 1):
        yield from itertools.combinations(universe, k)


def brute_force_sat(ns, inputs, max_size):
    """Enumerate structures up to ``max_size`` elements over the input's
    expression closure; returns ("sat", structure) or ("unsat", None).

    The bound is taken as authoritative: exhausting it without a model is an
    unsat verdict, so callers choose bounds that are conclusive for their
    inputs.  Candidates are evaluated through the specification's compiled
    :class:`Semantics`.
    """
    if max_size < 1:
        raise sx.TabError("max size must be at least 1, not %d" % max_size)
    signed = _signed(inputs)
    exprs = [c for c, _ in signed]
    ordering = induced_ordering(ns)
    carrier = ordering.sub_closure(exprs)
    if len(carrier) > CARRIER_CAP:
        raise CarrierTooLarge("%d expressions exceed the cap %d"
                              % (len(carrier), CARRIER_CAP))
    individuals = sorted({e for e in carrier if e.sort == 0 and e.kind != "app"},
                         key=lambda e: e.text())
    atoms_by_sort = {}
    for e in carrier:
        if e.sort >= 1 and e.kind != "app":
            atoms_by_sort.setdefault(e.sort, []).append(e)
    for s in atoms_by_sort:
        atoms_by_sort[s] = sorted(set(atoms_by_sort[s]), key=lambda e: e.text())
    pred_names = occurring_preds(ns)
    sem = semantics(ns)
    no_var, one_var, multi_var = [], [], []
    for f in ns.sb:
        lvs, run = sem.sentence(f)
        mentions_l = any(True for _ in sx.lexprs_of_formula(f))
        if not lvs and not mentions_l:
            no_var.append(f)  # a pure frame condition, filters predicates
        elif len(lvs) == 1 and len(set(sx.lexprs_of_formula(f))) == 1:
            one_var.append((f, lvs, run))
        else:
            # ground object symbols or several variables: checked against
            # complete structures only
            multi_var.append((f, lvs, run))
    extra = [sem.sentence(xi.sentence()) for xi in ns.s_plus + ns.s_minus
             if not xi.definitional]
    prune = {}  # sort -> the one-variable sentences over it
    for _, lvs, run in one_var:
        prune.setdefault(lvs[0].sort, []).append(run)

    def choices(lvs, atomic):
        return [[e for e in carrier if e.sort == v.sort
                 and not (atomic and e.kind == "app")] for v in lvs]

    # the multi-variable sentences over the atomic carrier, then the final
    # full gate: the background theory (and any non-definitional sentences)
    # over the whole carrier
    gate = [(lvs, run) for _, lvs, run in one_var + multi_var] + extra
    checks = [(run, choices(lvs, True)) for _, lvs, run in multi_var]
    checks += [(run, choices(lvs, False)) for lvs, run in gate]

    # per-atom pruning results may be reused across nu0 assignments only when
    # no pruning sentence mentions individuals
    one_var_uses_nu0 = any(
        any(t.sym is sx.NU0 for g in sx.subformulas(f) if isinstance(g, sx.Atom)
            for t in g.args)
        for f, _, _ in one_var)

    for size in range(1, max_size + 1):
        elems = list(range(size))
        pred_space = _frame_assignments(ns, pred_names, size, no_var)
        for preds in pred_space:
            rel_cache = {}
            for nu0_assign in itertools.product(elems, repeat=len(individuals)):
                if one_var_uses_nu0:
                    rel_cache = {}
                base = LStructure(size, spec=ns.spec)
                base.preds = {p: set(v) for p, v in preds.items()}
                base.nu0 = {e: w for e, w in zip(individuals, nu0_assign)}
                found = _search_valuations(base, sem, atoms_by_sort, prune,
                                           rel_cache, signed, checks)
                if found is not None:
                    return ("sat", found)
    return ("unsat", None)


_FRAME_CACHE = {}


def _frame_assignments(ns, pred_names, size, no_var):
    """Predicate interpretations satisfying the variable-free sentences, one
    per class of frames isomorphic by a permutation fixing element 0: the
    first of each class in enumeration order.

    The inputs are read at element 0, every other sentence is closed, and
    every nu0 and atom valuation is enumerated, so a frame has a model
    exactly when its images do.  The first frame with a model is therefore
    kept, and the oracle's verdicts and structures are those of the full
    enumeration.  Cached per (sentences, predicates with their arities,
    size): the filter is instance independent and dominates the enumeration
    cost at size four."""
    preds = tuple((p, ns.signature.preds[p]) for p in pred_names)
    key = (tuple(no_var), preds, size)
    hit = _FRAME_CACHE.get(key)
    if hit is not None:
        return hit
    runs = [semantics(ns).sentence(f)[1] for f in no_var]
    spaces = [list(_subsets(list(itertools.product(range(size), repeat=n))))
              for _, n in preds]
    perms = [(0,) + rest for rest in itertools.permutations(range(1, size))]
    out, seen = [], set()
    probe = LStructure(size, spec=ns.spec)  # the sentences read only preds
    for combo in itertools.product(*spaces):
        if combo in seen:
            continue
        probe.preds = {p: set(v) for (p, _), v in zip(preds, combo)}
        if all(run(probe) for run in runs):
            out.append({p: frozenset(v) for (p, _), v in zip(preds, combo)})
            # the images, as the sorted tuples that _subsets yields
            seen.update(tuple(tuple(sorted(tuple(pi[e] for e in t) for t in v))
                              for v in combo)
                        for pi in perms)
    _FRAME_CACHE[key] = out
    return out


def _search_valuations(base, sem, atoms_by_sort, prune, rel_cache, signed,
                       checks):
    """Assign relations to the atomic expressions sort by sort, pruning each
    atom with the single-variable background sentences (``prune``, by sort),
    then finish with the inputs at element 0 and ``checks``: compiled
    sentences with the carrier expressions their parameters range over."""
    sorts = sorted(atoms_by_sort)
    atom_list = [(s, a) for s in sorts for a in atoms_by_sort[s]]

    def admissible(sort, expr, rel):
        key = (sort, frozenset(rel))
        hit = rel_cache.get(key)
        if hit is None:
            probe = LStructure(base.size, spec=base.spec)
            probe.preds = base.preds
            probe.nu0 = base.nu0
            probe.nu = {sort: {(expr, t) for t in rel}}
            hit = all(run(probe, (expr,)) for run in prune.get(sort, ()))
            rel_cache[key] = hit
        return hit

    def rec(i):
        if i == len(atom_list):
            return finish()
        sort, expr = atom_list[i]
        universe = list(itertools.product(range(base.size), repeat=sort))
        for rel in _subsets(universe):
            if prune and not admissible(sort, expr, rel):
                continue
            prev = base.nu.get(sort, set())
            base.nu[sort] = prev | {(expr, t) for t in rel}
            base._memo.clear()
            got = rec(i + 1)
            base.nu[sort] = prev
            if got is not None:
                return got
        return None

    def finish():
        base._memo.clear()
        for c, pos in signed:
            if bool(sem.holds(base, 1, c, (0,))) != pos:
                return None
        for run, choices in checks:
            for combo in itertools.product(*choices):
                if not run(base, combo):
                    return None
        snapshot = LStructure(base.size, spec=base.spec)
        snapshot.preds = {p: set(v) for p, v in base.preds.items()}
        snapshot.nu0 = dict(base.nu0)
        snapshot.nu = {s: set(v) for s, v in base.nu.items()}
        return snapshot

    if not atom_list:
        return finish()
    return rec(0)
