"""Finite structures: extraction from open branches, formula evaluation,
reflection checking, and the brute-force satisfiability oracle.

A structure interprets atomic expressions directly and compound expressions
through the connective definitions, by recursion on the definition bodies
(memoized; the recursion terminates because definitions are well founded).
The oracle enumerates all structures up to a domain bound, so its verdicts
are independent of the tableau machinery and usable as a test oracle.
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
        d = self.spec.definition_of(expr.conn.name)
        body = _instantiated_body(d, expr)
        val = {v: e for v, e in zip(d.dom_vars, elems)}
        res = evaluate(self, body, val)
        self._memo[key] = res
        return res

    def eval_term(self, t, val):
        if isinstance(t, sx.LExpr):
            return t  # canonical valuation: object expressions name themselves
        if t.kind == "dvar":
            if t not in val:
                raise UnassignedVariable(t.name)
            return val[t]
        if t.kind == "dconst":
            if t.name not in self.dconsts:
                raise UnassignedVariable(t.name)
            return self.dconsts[t.name]
        if t.kind == "nu0":
            e = t.ind
            if e not in self.nu0:
                raise UnassignedVariable("nu0(%s)" % e.text())
            return self.nu0[e]
        args = tuple(self.eval_term(a, val) for a in t.args)
        graph = self.funs.get(t.fn.name, {})
        if args not in graph:
            raise UnassignedVariable(sx.term_text(t))
        return graph[args]

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
    if isinstance(f, sx.Atom):
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
            return a is b if isinstance(a, sx.LExpr) else a == b
        if p[0] == "pred":
            elems = tuple(m.eval_term(t, val) for t in f.args)
            return elems in m.preds.get(p[1], ())
        raise sx.TabError("cannot evaluate %s" % f.text())
    if isinstance(f, sx.Not):
        return not evaluate(m, f.sub, val)
    if isinstance(f, sx.And):
        return all(evaluate(m, s, val) for s in f.subs)
    if isinstance(f, sx.Or):
        return any(evaluate(m, s, val) for s in f.subs)
    if isinstance(f, sx.Implies):
        return not evaluate(m, f.lhs, val) or evaluate(m, f.rhs, val)
    if isinstance(f, sx.Equiv):
        return evaluate(m, f.lhs, val) == evaluate(m, f.rhs, val)
    if isinstance(f, (sx.Forall, sx.Exists)):
        want_all = isinstance(f, sx.Forall)
        var = f.var
        had, old = var in val, val.get(var)
        try:
            for e in range(m.size):
                val[var] = e
                got = evaluate(m, f.body, val)
                if got != want_all:
                    return got
            return want_all
        finally:
            if had:
                val[var] = old
            else:
                val.pop(var, None)
    raise TypeError("not a formula: %r" % (f,))


# ---------------------------------------------------------------------------
# extraction from a branch

def individual_term(e, ctx, skolems=None):
    """The domain term a sort-0 expression stands for: connectives that
    encode functions map back to those functions, anything else goes
    through nu0."""
    skolems = skolems or {}
    if e.kind == "app":
        for fname, conn in ctx.fn_conns.items():
            if e.conn == conn:
                fn = skolems.get(fname) or _fn_for(fname, conn)
                args = list(e.args[:len(fn.lsorts)])
                args += [individual_term(a, ctx, skolems)
                         for a in e.args[len(fn.lsorts):]]
                return sx.funapp(fn, args)
    return sx.nu0(e)


def detranslate(literals, ctx, skolems=None):
    """Rewrite internalized branch concepts back into base literals using
    every context template that matches (all readings are entailed)."""
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


def _fn_for(fname, conn):
    # fallback when the Skolem table is unavailable: individuals trail the
    # argument list, so strip the longest run of sort-0 arguments
    n_dom = 0
    for s in reversed(conn.arg_sorts):
        if s != 0:
            break
        n_dom += 1
    return sx.FnSym(fname, conn.arg_sorts[:len(conn.arg_sorts) - n_dom], n_dom)


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
        if lit.pos and a.pred[0] == "eq" and sx.is_domain_term(a.args[0]) \
                and sx.is_domain_term(a.args[1]):
            uf.union(a.args[0], a.args[1])
    classes = {}
    for t in terms:
        r = uf.find(t)
        if r not in classes:
            classes[r] = len(classes)
    m = LStructure(len(classes), spec=ns.spec)
    for t in terms:
        m.term_class[t] = classes[uf.find(t)]
        if t.kind == "dconst":
            m.dconsts[t.name] = m.term_class[t]
        elif t.kind == "nu0":
            m.nu0[t.ind] = m.term_class[t]
        elif t.kind == "fun":
            key = tuple(a if isinstance(a, sx.LExpr) else m.term_class[a]
                        for a in t.args)
            m.funs.setdefault(t.fn.name, {})[key] = m.term_class[t]
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
                if sx.is_domain_term(s):
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
# the brute-force oracle

def _signed(inputs):
    return [c if isinstance(c, tuple) else (c, True) for c in inputs]


def _subsets(universe):
    for k in range(len(universe) + 1):
        yield from itertools.combinations(universe, k)


def brute_force_sat(ns, inputs, max_size, carrier_cap=64):
    """Enumerate structures up to ``max_size`` elements over the input's
    expression closure; returns ("sat", structure) or ("unsat", None).

    The bound is taken as authoritative: exhausting it without a model is an
    unsat verdict, so callers choose bounds that are conclusive for their
    inputs.
    """
    if max_size < 1:
        raise sx.TabError("max size must be at least 1, not %d" % max_size)
    signed = _signed(inputs)
    exprs = [c for c, _ in signed]
    ordering = induced_ordering(ns)
    carrier = ordering.sub_closure(exprs)
    if len(carrier) > carrier_cap:
        raise CarrierTooLarge("%d expressions exceed the cap %d"
                              % (len(carrier), carrier_cap))
    individuals = sorted({e for e in carrier if e.sort == 0 and e.kind != "app"},
                         key=lambda e: e.text())
    atoms_by_sort = {}
    for e in carrier:
        if e.sort >= 1 and e.kind != "app":
            atoms_by_sort.setdefault(e.sort, []).append(e)
    for s in atoms_by_sort:
        atoms_by_sort[s] = sorted(set(atoms_by_sort[s]), key=lambda e: e.text())
    pred_names = occurring_preds(ns)

    no_var, one_var, multi_var = [], [], []
    for f in ns.sb:
        lvs = sorted(sx.lvars(f), key=lambda e: e.text())
        mentions_l = any(True for _ in sx.lexprs_of_formula(f))
        if not lvs and not mentions_l:
            no_var.append(f)  # a pure frame condition, filters predicates
        elif len(lvs) == 1 and len(set(sx.lexprs_of_formula(f))) == 1:
            one_var.append((f, lvs[0]))
        else:
            # ground object symbols or several variables: checked against
            # complete structures only
            multi_var.append((f, lvs))
    extra = [xi.sentence() for xi in ns.s_plus + ns.s_minus
             if not xi.definitional]

    # per-atom pruning results may be reused across nu0 assignments only when
    # no pruning sentence mentions individuals
    one_var_uses_nu0 = any(
        any(t.kind == "nu0" for g in sx.subformulas(f) if isinstance(g, sx.Atom)
            for t in g.args if sx.is_domain_term(t))
        for f, _ in one_var)

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
                found = _search_valuations(base, ns, atoms_by_sort, one_var,
                                           rel_cache, signed, multi_var,
                                           extra, carrier)
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
    key = (tuple(sx.formula_text(f) for f in no_var), preds, size)
    hit = _FRAME_CACHE.get(key)
    if hit is not None:
        return hit
    spaces = [list(_subsets(list(itertools.product(range(size), repeat=n))))
              for _, n in preds]
    perms = [(0,) + rest for rest in itertools.permutations(range(1, size))]
    out, seen = [], set()
    for combo in itertools.product(*spaces):
        if combo in seen:
            continue
        probe = LStructure(size, spec=ns.spec)
        probe.preds = {p: set(v) for (p, _), v in zip(preds, combo)}
        if all(evaluate(probe, f) for f in no_var):
            out.append({p: frozenset(v) for (p, _), v in zip(preds, combo)})
            # the images, as the sorted tuples that _subsets yields
            seen.update(tuple(tuple(sorted(tuple(pi[e] for e in t) for t in v))
                              for v in combo)
                        for pi in perms)
    _FRAME_CACHE[key] = out
    return out


def _search_valuations(base, ns, atoms_by_sort, one_var, rel_cache, signed,
                       multi_var, extra, carrier):
    """Assign relations to the atomic expressions sort by sort, pruning each
    atom with the single-variable background sentences, then finish checks."""
    sorts = sorted(atoms_by_sort)
    atom_list = [(s, a) for s in sorts for a in atoms_by_sort[s]]

    def admissible(sort, expr, rel):
        key = (sort, frozenset(rel))
        hit = rel_cache.get(key)
        if hit is None:
            probe = LStructure(base.size, spec=ns.spec)
            probe.preds = base.preds
            probe.nu0 = base.nu0
            probe.nu = {sort: {(expr, t) for t in rel}}
            hit = all(evaluate(probe, sx.substitute_formula(f, {v: expr}))
                      for f, v in one_var if v.sort == sort)
            rel_cache[key] = hit
        return hit

    def rec(i):
        if i == len(atom_list):
            return finish()
        sort, expr = atom_list[i]
        universe = list(itertools.product(range(base.size), repeat=sort))
        for rel in _subsets(universe):
            if one_var and not admissible(sort, expr, rel):
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
            if bool(base.holds(1, c, (0,))) != pos:
                return None
        for f, lvs in multi_var:
            for combo in itertools.product(*[
                    [e for e in carrier if e.sort == v.sort and e.kind != "app"]
                    for v in lvs]):
                inst = sx.substitute_formula(f, dict(zip(lvs, combo)))
                if not evaluate(base, inst):
                    return None
        # final full gate: instantiate the background theory (and any
        # non-definitional sentences) over the whole carrier
        for f in [g for g, _ in one_var] + [g for g, _ in multi_var] + extra:
            lvs = sorted(sx.lvars(f), key=lambda e: e.text())
            for combo in itertools.product(*[
                    [e for e in carrier if e.sort == v.sort] for v in lvs]):
                inst = sx.substitute_formula(f, dict(zip(lvs, combo)))
                if not evaluate(base, inst):
                    return None
        snapshot = LStructure(base.size, spec=ns.spec)
        snapshot.preds = {p: set(v) for p, v in base.preds.items()}
        snapshot.nu0 = dict(base.nu0)
        snapshot.nu = {s: set(v) for s, v in base.nu.items()}
        return snapshot

    if not atom_list:
        return finish()
    return rec(0)
