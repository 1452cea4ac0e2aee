"""Finite structures: extraction from open branches, formula evaluation,
reflection checking, and the brute-force satisfiability oracle.

A structure interprets atomic expressions directly and compound expressions
through the connective definitions.  The reference, :func:`evaluate` and
:meth:`LStructure.holds`, unfolds a definition body per truth it is asked
for (memoized; the recursion terminates because definitions are well
founded).  The oracle enumerates all structures up to a domain bound, so its
verdicts are independent of the tableau machinery and usable as a test
oracle.

The oracle does not walk formula trees per candidate structure.  The
connective definitions and the background sentences are compiled once per
specification into generated functions (:class:`Semantics`, through
:class:`~tabsynth.syntax.Codegen`): variables are parameters, quantifiers
``all``/``any`` over the domain.  They are compiled, and the frame sentences
grounded, from negation normal form (:func:`~tabsynth.syntax.nnf`, as in
synthesis); the reference reads the connectives as written.
Each candidate labels every expression of the input's closure with its
extension, an ``int`` with a bit per tuple, bottom-up in the induced
ordering.  Within a frame a compound's extension depends only on the labels
of the expressions its definition names, so a connective is a table per
frame, and a compound is labelled by one lookup.  A compiled sentence reads
``nu_n(e, t)`` as a bit of ``e``'s label.  The reference checks what the
oracle returns and never goes through the compiled path.

Nor does the oracle redo per call or per candidate what it already knows.
Per specification its :class:`Semantics` keeps the induced ordering, the
sentence classes, each size's frames, each frame's admissible relations and
its connective tables, and they are freed with the specification; per call
it works out only the input's carrier, atoms and labelling plan; and between
candidates it relabels only what the atom just assigned reaches.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator

from . import syntax as sx
from .normalize import induced_ordering, occurring, refuse_cycle


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
        self.labels = {}            # expr -> extension, for Semantics only
        self._memo = {}             # LStructure.holds' truths

    def holds(self, n, expr, elems):
        """nu_n membership; compound expressions unfold their definition."""
        elems = tuple(elems)
        if expr.kind != "app":
            return (expr, elems) in self.nu.get(n, ())
        key = (n, expr, elems)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        self._memo[key] = False  # cut off accidental cycles defensively
        d = self.spec.definition_of(expr.name)
        body = sx.substitute_formula(d.body, dict(zip(d.head_atom.args[0].args,
                                                      expr.args)))
        res = evaluate(self, body, dict(zip(d.dom_vars, elems)))
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
            raise sx.TabError("no value for domain term %s" % t.text())
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


def evaluate(m, f, val=None):
    """Truth of a formula in ``m`` under a domain valuation (object-language
    variables and constants denote themselves)."""
    val = val or {}
    if type(f) is sx.Literal:
        p = f.pred
        if p[0] == "false":
            truth = False
        elif p[0] == "nu":
            elems = [m.eval_term(t, val) for t in f.args[1:]]
            truth = m.holds(p[1], f.args[0], elems)
        elif p[0] == "eq":
            a = m.eval_term(f.args[0], val)
            b = m.eval_term(f.args[1], val)
            truth = a == b  # elements, or interned expressions
        elif p[0] == "pred":
            elems = tuple(m.eval_term(t, val) for t in f.args)
            truth = elems in m.preds.get(p[1], ())
        else:
            raise sx.TabError("cannot evaluate %s" % f.text())
        return truth if f.pos else not truth
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
        if lit.pred[0] != "holds":
            emit(lit)
            continue
        c = lit.args[0]
        # d before c: model element numbering follows this order
        for word in ("d+", "d-", "c+", "c-"):
            for key, tpl in ctx.templates[word].items():
                m = tpl.match(c)
                if not m:
                    continue
                if word[0] == "c":
                    # c templates, keyed by sort: an expression, then individuals
                    pred, args = sx.nu(key), [m[0]] + [term_of(e) for e in m[1:]]
                else:
                    pred = sx.EQ if key == "eq" else sx.pred(key)
                    args = [term_of(e) for e in m]
                emit(sx.literal(word[1] == "+", pred, args))
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
            raise sx.TabError("cannot extract a model from a closed branch")
        branch = branch.literals
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
        if lit.pos and lit.pred[0] == "eq" and lit.args[0].sort == sx.DOMAIN:
            uf.union(*lit.args)
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
        p, args = lit.pred, lit.args
        if not lit.pos:
            continue
        if p[0] == "nu" and args[0].kind != "app":
            elems = tuple(m.term_class[t] for t in args[1:])
            m.nu.setdefault(p[1], set()).add((args[0], elems))
        elif p[0] == "pred":
            elems = tuple(m.term_class[t] for t in args)
            m.preds.setdefault(p[1], set()).add(elems)
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
    literals = list(branch.literals if isinstance(branch, Branch) else branch)
    if ctx is not None:
        literals = detranslate(literals, ctx, skolems)
    violations = []
    for lit in literals:
        p, args = lit.pred, lit.args
        try:
            if p[0] == "nu":
                elems = [m.term_class[t] for t in args[1:]]
                truth = m.holds(p[1], args[0], elems)
            elif p[0] == "pred":
                elems = tuple(m.term_class[t] for t in args)
                truth = elems in m.preds.get(p[1], ())
            elif p[0] == "eq":
                s, t = args
                if s.sort == sx.DOMAIN:
                    truth = m.term_class[s] == m.term_class[t]
                else:
                    truth = s is t
            elif p[0] == "false":
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
    """The oracle's view of a normalized specification, built once per
    specification: use :func:`semantics`, which keeps it on
    ``ns.semantics``, so it is freed with the specification.  A
    specification whose induced ordering has a cycle is refused.

    It compiles the connective definitions and the sentences into generated
    functions ``(m, objs=(), elems=())`` (:func:`_compile`).  ``objs`` holds
    the object expressions its object variables stand for, in the order it
    was compiled with; any other object variable names itself, as in
    :func:`evaluate`.  ``elems`` holds one domain element per domain
    variable given at compilation.  Any other free domain variable, or a
    domain constant or nu0 term without a value, raises
    :class:`~tabsynth.syntax.TabError` when it is reached.

    A compiled formula reads ``nu_n(e, t)`` as a bit of ``e``'s label in
    ``m.labels`` (see :meth:`label_steps`): the extension of ``e`` as an
    ``int`` over ``range(m.size) ** n`` in product order, bit ``i`` for the
    ``i``-th tuple.  A definition body reads nothing of the structure but
    the frame and the labels of the object expressions it names: its
    parameters, constants, and compounds of them (an individual's label is
    its nu0 element).  So within one frame a compound's extension is a
    function of those labels, each connective is a table, kept per size
    and frame (:meth:`table`), and a compound is labelled by one lookup
    (:meth:`plan`); a miss runs the compiled definition body once per
    tuple.  Nothing here calls :func:`evaluate` or :meth:`LStructure.holds`:
    they stay the tree-walking reference that checks what the oracle
    returns.

    The background sentences fall into frame conditions (``frame``, the
    sentences themselves: no object expression, they filter the
    interpretations of ``preds``, the (predicate, arity) pairs the sentences
    mention, and are grounded into clauses per size), pruning sentences
    (``prune``, by sort: their one object expression is their variable, so
    they judge each atom's relation alone) and the others (``multi``,
    checked over the atomic carrier).  ``gate`` is the final check over the
    whole carrier: the pruning and other sentences, then the
    non-definitional directed ones.  Each entry of ``multi`` and ``gate`` is
    ``(lvars, run, reads)``: :meth:`sentence`, and the object expressions
    other than variables the sentence reads.  The frames (:meth:`frames`),
    their admissible relations (:meth:`relations`) and their connective
    tables are found on first use.
    """

    def __init__(self, ns):
        self.ordering = induced_ordering(ns)
        refuse_cycle(self.ordering)
        self._defs = {}
        for d in ns.spec.definitions:
            params = d.head_atom.args[0].args
            body = _compile(d.body, params, d.dom_vars)
            # the body reads the frame and the labels of the object
            # expressions it names (a parameter as its index in the head)
            named = [params.index(t) if t in params else t
                     for t in dict.fromkeys(sx.lexprs_of_formula(d.body))]
            # a body that compares objects reads its arguments themselves
            by_name = any(type(g) is sx.Literal and g.pred == sx.EQ
                          and g.args[0].sort != sx.DOMAIN
                          for g in sx.subformulas(d.body))
            self._defs[d.conn.name] = (body, len(d.dom_vars), params, named,
                                       by_name)
        self._sentences = {}

        def check(f):
            return (*self.sentence(f), [e for e in dict.fromkeys(
                sx.lexprs_of_formula(f)) if e.kind != "var"])

        self.preds = [(p, ns.signature.preds[p]) for p in occurring(ns, "pred")]
        self.frame, self.prune, self.multi, one_var = [], {}, [], []
        for f in ns.sb:
            lvs, run = self.sentence(f)
            lexprs = set(sx.lexprs_of_formula(f))
            if not lvs and not lexprs:
                self.frame.append(f)
            elif len(lvs) == 1 and len(lexprs) == 1:
                self.prune.setdefault(lvs[0].sort, []).append(run)
                one_var.append(check(f))
            else:
                # ground object symbols or several variables: checked against
                # complete structures only
                self.multi.append(check(f))
        self.gate = one_var + self.multi + [
            check(xi.sentence()) for xi in ns.s_plus + ns.s_minus
            if not xi.definitional]
        self._frames = {}
        self._relations = {}
        self._tables = {}

    def sentence(self, f):
        """``(lvars, run)``: the object variables of ``f`` sorted by name,
        and ``f`` compiled with them as its parameters; compiled once."""
        hit = self._sentences.get(f)
        if hit is None:
            lvs = sorted(sx.lvars(f), key=lambda e: e.text())
            hit = self._sentences[f] = (lvs, _compile(f, lvs, ()))
        return hit

    def frames(self, size):
        """The frames of ``size`` elements, found once by unit propagation
        over the frame sentences grounded over ``range(size)`` (see
        :func:`_frame_assignments`)."""
        hit = self._frames.get(size)
        if hit is None:
            hit = self._frames[size] = _frame_assignments(self.frame,
                                                          self.preds, size)
        return hit

    def relations(self, size, k, sort):
        """The relations over ``range(size)`` that an atom of ``sort`` may
        take in frame ``k`` of that size, as labels: those the sort's pruning
        sentences accept, in :func:`_subsets` order.  A pruning sentence
        mentions no object expression but its variable, so it reads the
        atom's relation and the frame only (nu0 takes sort-0 expressions,
        and atoms have sort 1 or more): the list holds for every atom of the
        sort and every nu0 assignment.  ``stand_in`` plays the atom."""
        key = (size, k, sort)
        hit = self._relations.get(key)
        if hit is None:
            runs = self.prune.get(sort, ())
            stand_in = sx.lvar(sort, "p")
            probe = LStructure(size)
            probe.preds = self.frames(size)[k]
            hit = self._relations[key] = []
            for rel in _subsets(list(itertools.product(range(size),
                                                       repeat=sort))):
                mask = probe.labels[stand_in] = _mask(rel, size)
                if all(run(probe, (stand_in,)) for run in runs):
                    hit.append(mask)
        return hit

    def table(self, size, k):
        """The connective tables of frame ``k`` of ``size`` elements: for
        each head (see :meth:`plan`), a dict from a key to its extension,
        filled by :meth:`label_steps` and shared by every structure on that
        frame."""
        hit = self._tables.get((size, k))
        if hit is None:
            hit = self._tables[size, k] = collections.defaultdict(dict)
        return hit

    def plan(self, lower, atoms):
        """How the compounds of ``lower`` (as
        :meth:`~tabsynth.normalize.InducedOrdering.lower_sets` gives it) are
        labelled as ``atoms`` get their relations: ``plan[i]`` holds the
        steps of level ``i``, the compounds whose last atom below is
        ``atoms[i - 1]`` (level 0: none), each after what it reads.

        A step ``(e, head, read)`` labels ``e`` through the entries of
        ``head`` in a table: its connective, or ``e`` itself when the
        definition compares objects.  ``read(labels)`` is the key: the
        labels of the expressions the definition names, instantiated for
        ``e`` (one label, a tuple of several, or None).  Within a frame the
        body reads nothing else, so the key fixes ``e``'s extension."""
        level = {a: i + 1 for i, a in enumerate(atoms)}
        plan = [[] for _ in range(len(atoms) + 1)]
        for e in _topological(lower):
            if e.kind != "app":
                continue
            level[e] = max((level.get(b, 0) for b in lower[e]), default=0)
            _, _, params, named, by_name = self._defs[e.name]
            read = [e.args[t] if type(t) is int else
                    sx.substitute_expr(t, dict(zip(params, e.args)))
                    for t in named]
            plan[level[e]].append((e, e if by_name else e.sym,
                                   operator.itemgetter(*read) if read
                                   else lambda labels: None))
        return plan

    def label_steps(self, m, steps, table):
        """Label the compounds of ``steps`` (a level of :meth:`plan`) on
        ``m``, in order, through ``table``.  A compound whose body cannot be
        evaluated (an individual without a nu0 element below it) gets a
        label that raises that error when read."""
        labels = m.labels
        for e, head, read in steps:
            entries, key = table[head], read(labels)
            ext = entries.get(key)
            if ext is None:
                try:
                    ext = entries[key] = self._extension(m, e)
                except sx.TabError as error:
                    ext = _Unlabelled(error)
            labels[e] = ext

    def _extension(self, m, e):
        """The extension of compound ``e`` on ``m``, by its compiled
        definition body, once per tuple."""
        body, n, _, _, _ = self._defs[e.name]
        ext = 0
        for i, t in enumerate(itertools.product(range(m.size), repeat=n)):
            if body(m, e.args, t):
                ext |= 1 << i
        return ext


class _Unlabelled:
    """The label of an expression whose extension could not be worked out:
    reading a bit of it raises the error that stopped it."""

    def __init__(self, error):
        self.error = error

    def __rshift__(self, _):
        raise self.error

    __and__ = __rshift__  # an input is read at element 0 as ``label & 1``


def _mask(rel, size):
    """The label of a relation: a bit per tuple of ``rel``, at the tuple's
    index in ``range(size) ** n``, product order."""
    return sum(1 << functools.reduce(lambda i, e: i * size + e, t, 0)
               for t in rel)


def _topological(lower):
    """The expressions of ``lower`` (as :meth:`InducedOrdering.lower_sets`
    gives them) with each after every expression directly below it; the
    ordering has no cycle (:class:`Semantics` refuses one)."""
    order, seen = [], set()
    for root in lower:
        if root in seen:
            continue
        seen.add(root)
        path = [(root, iter(lower[root]))]
        while path:
            e, below = path[-1]
            for b in below:
                if b not in seen:
                    seen.add(b)
                    path.append((b, iter(lower[b])))
                    break
            else:
                path.pop()
                order.append(e)
    return order


def semantics(ns):
    """The compiled semantics of ``ns``, built on first use and kept on it."""
    if ns.semantics is None:
        ns.semantics = Semantics(ns)
    return ns.semantics


SPLIT = 50  # formula levels per generated function (see _compile)


def _compile(f, lvars, dvars):
    """``sx.nnf(f)`` as a generated function ``(m, objs=(), elems=())`` (see
    :class:`Semantics`): junctions become ``and``/``or``, quantifiers
    ``all``/``any`` over the domain, and atoms read the labels, the frame
    and the elements in scope inline.  The subformulas ``SPLIT`` levels down
    are compiled after ``f``, each into a function of its own called with
    the elements in scope, so neither compile(), which takes 200 nested
    brackets, nor this walk nests deeper."""
    g = sx.Codegen()
    app, value = g.const(sx.app), g.const(_value)
    objs = {v: "o[%d]" % k for k, v in enumerate(lvars)}
    names = ["e%d" % i for i in range(len(dvars))]
    fresh = itertools.count(len(names))
    later = []  # (const index, subformula, domain variables in scope)

    def expr(e):
        # an object expression
        if e in objs:
            return objs[e]
        if not any(v in objs for v in sx.lvars(e)):
            return g.const(e)
        return "%s(%s, (%s,))" % (app, g.const(e.sym),
                                  ", ".join(map(expr, e.args)))

    def term(t, scope):
        # a domain term: an element, or the helper that raises without one
        if t in scope:
            return scope[t]
        if t.kind == "var":
            graph, key = "{}", g.const(t)  # a free variable no scope holds
        elif t.kind == "const":
            graph, key = "m.dconsts", g.const(t.name)
        elif t.sym is sx.NU0:
            graph, key = "m.nu0", expr(t.args[0])
        else:  # specification sentences apply no other domain function
            raise sx.TabError("cannot compile %s" % t.text())
        return "%s(%s, %s, %s, %s, o)" % (value, graph, key, g.const(t),
                                          g.const(lvars))

    def atom(a, scope):
        # the truth of the literal ``a``, its sign included
        kind, args, neg = a.pred[0], a.args, "" if a.pos else "not "
        if kind == "false":
            return str(not a.pos)
        if kind == "eq" and args[0].sort != sx.DOMAIN:
            return "%s is %s%s" % (expr(args[0]), neg, expr(args[1]))
        if kind == "eq":
            return "%s %s %s" % (term(args[0], scope), "!=" if neg else "==",
                                 term(args[1], scope))
        if kind == "pred":
            return "(%s) %sin m.preds.get(%s, ())" % (
                "".join(term(t, scope) + ", " for t in args), neg,
                g.const(a.pred[1]))
        if kind != "nu":
            raise sx.TabError("cannot compile %s" % a.text())
        # the bit of the tuple's index in product order, as in _mask
        at, *rest = [term(t, scope) for t in args[1:]]
        for t in rest:
            at = "(%s) * m.size + %s" % (at, t)
        return "%sm.labels[%s] >> (%s) & 1" % (neg, expr(args[0]), at)

    def walk(h, scope, depth):
        if type(h) is sx.Literal:
            return atom(h, scope)
        if depth == SPLIT:
            later.append((len(g.consts), h, list(scope)))
            return "%s(m, o, (%s))" % (g.const(None), "".join(
                e + ", " for e in scope.values()))
        if h.var is not None:
            e = "e%d" % next(fresh)
            return "%s(%s for %s in range(m.size))" % (
                "all" if h.op == "forall" else "any",
                walk(h.subs[0], {**scope, h.var: e}, depth + 1), e)
        parts = [walk(s, scope, depth + 1) for s in h.subs]
        return "(%s)" % (" %s " % h.op).join(parts) if parts \
            else str(h.op == "and")

    body = walk(sx.nnf(f), dict(zip(dvars, names)), 0)
    for k, h, scope in later:
        g.consts[k] = _compile(h, lvars, scope)
    unpack = ["%s, = s" % ", ".join(names)] if names else []
    return g.function("formula(m, o=(), s=())", unpack + ["return " + body])


def _value(graph, key, t, lvars, objs):
    """``graph[key]``, the element of the domain term ``t`` with ``objs``
    for its object variables ``lvars``, or the error that it has none."""
    if key not in graph:
        e = sx.substitute_expr(t, dict(zip(lvars, objs)))
        raise sx.TabError("no value for domain term %s" % e.text())
    return graph[key]


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
    inputs.  Candidates are labelled and checked through the specification's
    :class:`Semantics`, which also keeps what depends on the specification
    alone (the sentence classes, the frames, each frame's admissible
    relations and its connective tables); a call works out only its
    carrier, individuals, atoms, labelling plan and checks.
    """
    if max_size < 1:
        raise sx.TabError("max size must be at least 1, not %d" % max_size)
    signed = _signed(inputs)
    sem = semantics(ns)
    lower = sem.ordering.lower_sets([c for c, _ in signed])
    if len(lower) > CARRIER_CAP:
        raise CarrierTooLarge("%d expressions exceed the cap %d"
                              % (len(lower), CARRIER_CAP))
    carrier = list(lower)
    individuals = sorted({e for e in carrier if e.sort == 0 and e.kind != "app"},
                         key=lambda e: e.text())
    atoms = sorted({e for e in carrier if e.sort >= 1 and e.kind != "app"},
                   key=lambda e: (e.sort, e.text()))

    def choices(lvs, atomic):
        return [[e for e in carrier if e.sort == v.sort
                 and not (atomic and e.kind == "app")] for v in lvs]

    checks, built = [], []
    for atomic, group in ((True, sem.multi), (False, sem.gate)):
        for lvs, run, reads in group:
            ranges = choices(lvs, atomic)
            checks.append((run, ranges))
            for combo in itertools.product(*ranges) if reads else ():
                sub = dict(zip(lvs, combo))
                built += [sx.substitute_expr(e, sub) for e in reads]
    # the checks read the carrier and what their sentences build from it; an
    # atom or individual below the latter alone has no relation or element
    labelled = {**lower, **sem.ordering.lower_sets(built)}
    unassigned = {e: None if e.sort == 0 else 0 for e in labelled
                  if e.kind != "app" and e not in lower}

    plan = sem.plan(labelled, atoms)

    for size in range(1, max_size + 1):
        for k, preds in enumerate(sem.frames(size)):
            masks = [sem.relations(size, k, a.sort) for a in atoms]
            base = LStructure(size, spec=ns.spec)
            base.preds = preds
            base.labels.update(unassigned)
            for nu0_assign in itertools.product(range(size),
                                                repeat=len(individuals)):
                base.nu0 = dict(zip(individuals, nu0_assign))
                base.labels.update(base.nu0)
                found = _search_valuations(base, sem, sem.table(size, k),
                                           atoms, masks, plan, signed, checks)
                if found is not None:
                    return ("sat", found)
    return ("unsat", None)


def _frame_assignments(sentences, preds, size):
    """Interpretations of ``preds`` ((predicate, arity) pairs) over
    ``range(size)`` satisfying the variable-free sentences ``sentences``,
    one per class of frames isomorphic by a permutation fixing element 0: the
    first of each class in enumeration order (per predicate, the number of
    tuples, then the tuples, as :func:`_subsets` yields them).

    Finding the frames is a finite all-models SAT problem.  Each sentence's
    negation normal form (:func:`~tabsynth.syntax.nnf`) is grounded over
    ``range(size)`` (:func:`_ground`) and then into clauses over the cells,
    one per (predicate, tuple), and auxiliary variables (:func:`_clauses`).
    :func:`_models` lists every assignment of the cells that satisfies them,
    by backtracking over the cells in order with unit propagation.  The
    frames found are sorted into enumeration order before the first of each
    class is kept.

    The inputs are read at element 0, every other sentence is closed, and
    every nu0 and atom valuation is enumerated, so a frame has a model
    exactly when its images do.  The first frame with a model is therefore
    kept, and the oracle's verdicts and structures are those of the full
    enumeration."""
    universes = [list(itertools.product(range(size), repeat=n))
                 for _, n in preds]
    cells = {}
    for (p, _), universe in zip(preds, universes):
        for t in universe:
            cells[p, t] = len(cells)
    grounded = [_ground(sx.nnf(f), {}, cells, size) for f in sentences]
    if any(node is False for node in grounded):
        return []
    clauses, n_vars = _clauses(grounded, len(cells))
    # the positive literal of each cell, by predicate, in product order
    lits = [[2 * cells[p, t] for t in universe]
            for (p, _), universe in zip(preds, universes)]
    # as _subsets yields them: the tuples in product order
    found = [tuple(tuple(t for t, lit in zip(universe, row) if val[lit])
                   for universe, row in zip(universes, lits))
             for val in _models(clauses, n_vars, len(cells))]
    found.sort(key=lambda combo: [(len(v), v) for v in combo])
    perms = [(0,) + rest for rest in itertools.permutations(range(1, size))]
    out, seen = [], set()
    for combo in found:
        if combo in seen:
            continue
        out.append({p: frozenset(v) for (p, _), v in zip(preds, combo)})
        # the images, as the sorted tuples that _subsets yields
        seen.update(tuple(tuple(sorted(tuple(pi[e] for e in t) for t in v))
                          for v in combo)
                    for pi in perms)
    return out


def _ground(f, env, cells, size):
    """``f``, in negation normal form (:func:`~tabsynth.syntax.nnf`), over
    ``range(size)`` with the domain variables of ``env`` valued: True,
    False, a cell literal (``2 * cells[p, t]``, plus 1 when negated), or
    ``(op, children)`` with ``op`` ``and`` or ``or``.  A quantifier becomes
    a conjunction or a disjunction over the elements, and ``eq`` and
    ``false`` become constants, which :func:`_join` folds away.  The parts
    of a junction are grounded left to right until a constant decides it, so
    a domain term without a value raises :class:`~tabsynth.syntax.TabError`
    only where evaluation would reach it."""
    if type(f) is sx.Literal:
        if f.pred[0] == "false":
            return not f.pos
        elems = []
        for t in f.args:
            if t not in env:
                raise sx.TabError("no value for domain term %s" % t.text())
            elems.append(env[t])
        if f.pred[0] == "eq":
            return (elems[0] == elems[1]) == f.pos
        return 2 * cells[f.pred[1], tuple(elems)] + (not f.pos)
    if f.var is not None:
        return _join("and" if f.op == "forall" else "or", (
            _ground(f.subs[0], {**env, f.var: e}, cells, size)
            for e in range(size)))
    return _join(f.op, (_ground(g, env, cells, size) for g in f.subs))


def _join(op, nodes):
    """The ``op`` (``and`` or ``or``) of ``nodes`` (as :func:`_ground` gives
    them, an iterable).  A constant that decides it is returned before the
    later nodes are grounded, the other constant drops out, a nested
    junction of the same kind is flattened and a repeated child kept
    once."""
    unit = op == "and"
    children = {}
    for node in nodes:
        if type(node) is bool:
            if node is not unit:
                return node
        elif type(node) is tuple and node[0] == op:
            children.update(dict.fromkeys(node[1]))
        else:
            children[node] = None
    if len(children) < 2:
        return next(iter(children), unit)
    return (op, tuple(children))


def _clauses(nodes, n_cells):
    """Clauses whose models are those of the conjunction of ``nodes`` (as
    :func:`_ground` gives them) over the variables ``0..n_cells - 1``, and
    the number of variables they use.  A clause is a list of literals,
    ``2 * v`` for variable ``v`` and ``2 * v + 1`` for its negation.  A
    junction below a disjunction gets an auxiliary variable defined in both
    directions (Tseitin), one per distinct junction, so once every cell has
    a value unit propagation fixes every auxiliary variable."""
    clauses, defined = [], {}

    def literal(node):
        if type(node) is int:
            return node
        hit = defined.get(node)
        if hit is None:
            op, children = node
            kids = [literal(c) for c in children]
            hit = defined[node] = 2 * (n_cells + len(defined))
            if op == "and":
                clauses.extend([hit ^ 1, k] for k in kids)
                clauses.append([hit] + [k ^ 1 for k in kids])
            else:
                clauses.append([hit ^ 1] + kids)
                clauses.extend([hit, k ^ 1] for k in kids)
        return hit

    for node in nodes:
        if node is True:
            continue
        conjuncts = node[1] if type(node) is tuple and node[0] == "and" \
            else (node,)
        for c in conjuncts:
            clauses.append([literal(k) for k in c[1]]
                           if type(c) is tuple else [c])
    return clauses, n_cells + len(defined)


def _models(clauses, n_vars, n_cells):
    """Every assignment of the variables ``0..n_cells - 1`` that, with the
    others fixed by unit propagation, satisfies ``clauses`` (as
    :func:`_clauses` gives them, none empty), as a list of truths by
    literal; the list is reused, so read it before the next.  The cells are
    decided in order, false first; a clause that propagation leaves with
    every literal false backtracks."""
    val = [None] * (2 * n_vars)  # by literal: True, False, None unassigned
    falsified = [[] for _ in val]  # by literal: the clauses it makes false
    for c in clauses:
        for lit in c:
            falsified[lit ^ 1].append(c)
    trail, pending = [], []

    def assume(lit):
        if val[lit] is None:
            val[lit], val[lit ^ 1] = True, False
            trail.append(lit)
            pending.append(lit)
        return val[lit]

    def propagate():
        while pending:
            for c in falsified[pending.pop()]:
                unit = None
                for lit in c:
                    v = val[lit]
                    if v is None:
                        if unit is not None:
                            break
                        unit = lit
                    elif v:
                        break
                else:
                    if unit is None:
                        del pending[:]
                        return False
                    assume(unit)
        return True

    for c in clauses:
        if len(c) == 1 and not assume(c[0]):
            return
    if not propagate():
        return
    decisions, cell = [], 0  # (cell, trail length before it)
    while True:
        while cell < n_cells and val[2 * cell] is not None:
            cell += 1
        if cell < n_cells:
            decisions.append((cell, len(trail)))
            assume(2 * cell + 1)
            if propagate():
                continue
        else:
            yield val
        # back to the last cell decided false, which now goes true
        while decisions:
            cell, mark = decisions.pop()
            was_false = val[2 * cell + 1]
            for lit in trail[mark:]:
                val[lit] = val[lit ^ 1] = None
            del trail[mark:]
            if was_false:
                decisions.append((cell, mark))
                assume(2 * cell)
                if propagate():
                    break
        else:
            return


def _search_valuations(base, sem, table, atoms, masks, plan, signed, checks):
    """Assign each atom one of its admissible relations (``masks``, by
    atom), in order, then finish with the inputs at element 0 and
    ``checks``: compiled sentences with the carrier expressions their
    parameters range over.

    ``base`` carries a frame and a nu0 assignment, and its labels name them.
    The compounds of level ``i`` (``plan[i]``, see :meth:`Semantics.plan`)
    are labelled through ``table`` when atom ``i - 1`` gets its relation,
    those of level 0 once; every other label stays valid for every later
    candidate."""
    labels, label_steps = base.labels, sem.label_steps
    label_steps(base, plan[0], table)

    def rec(i):
        if i == len(atoms):
            return finish()
        atom, steps = atoms[i], plan[i + 1]
        for mask in masks[i]:
            labels[atom] = mask
            label_steps(base, steps, table)
            got = rec(i + 1)
            if got is not None:
                return got
        return None

    def finish():
        for c, pos in signed:
            if (labels[c] & 1) != pos:
                return None
        for run, choices in checks:
            for combo in itertools.product(*choices):
                if not run(base, combo):
                    return None
        size = base.size
        snapshot = LStructure(size, spec=base.spec)
        snapshot.preds = {p: set(v) for p, v in base.preds.items()}
        snapshot.nu0 = dict(base.nu0)
        for a in atoms:
            tuples = itertools.product(range(size), repeat=a.sort)
            snapshot.nu.setdefault(a.sort, set()).update(
                (a, t) for i, t in enumerate(tuples) if labels[a] >> i & 1)
        return snapshot

    return rec(0)
