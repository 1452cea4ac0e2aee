"""Sorted object-language expressions and the first-order meta-language.

The object language is a many-sorted propositional language.  Sorts are
numbered 0..N; sort 0 holds individuals, sort 1 is the primary sort
(concepts).  The meta-language adds one extra sort (the domain sort), a
holds-predicate ``nu_n`` per object sort, one polymorphic equality symbol,
named domain predicates and domain-sort function symbols (Skolem functions,
and ``nu0`` taking an individual to the element it denotes).

Three nodes carry the syntax.  :class:`Term` holds both kinds of term:
object expressions have a sort 0..N, domain terms the sort ``DOMAIN``.  A
:class:`Literal` is a sign, a predicate and its arguments in one node: the
positive literal is the atomic formula, and the negative one its negation as
the prover reads it.  :class:`Formula` holds every compound formula: a
connective or quantifier word (``op``), its subformulas, and the variable a
quantifier binds.  The formula reader spells negation as a ``not`` formula;
only the prover's literals and the negation normal forms of :func:`nnf`
(which synthesis and the oracle start from) hold negative leaves.  Printing,
negation normal form, substitution, matching and the variable walks are
loops over an explicit stack, so nesting depth is not limited by the
interpreter's recursion limit.

Everything here is immutable after construction.  Symbols, terms, literals
and formulas are hash-consed in one table, keyed by their kind and parts:
structurally equal values are the same object, so ``==`` and ``hash`` are
O(1).  The table is a plain dict; build nodes from a single thread (reads
are safe to share afterwards).  A literal or expression used as a pattern
also carries the matcher generated for it on first use.
"""

from __future__ import annotations

import itertools

DOMAIN = -1  # pseudo sort id for the meta-language domain sort

# name families reserved by the meta-language, never available to signatures.
# Object connectives may reuse first-order connective names (or, not, ...):
# expression and formula positions never overlap, so context disambiguates.
RESERVED_DVAR_PREFIXES = ("x", "y", "z")
RESERVED_DCONST_PREFIXES = ("a", "b", "c")
RESERVED_ANCHOR_PREFIX = "i"  # fresh individuals of internalized derivations
RESERVED_WORDS = {"eq", "false"}
MAX_SORTS = 64  # a signature keeps tables per sort: refuse more up front


def _reserved_name(name):
    return name in RESERVED_WORDS or (name.startswith("nu") and name[2:].isdigit())


class TabError(Exception):
    """The error every stage raises when it refuses its input; the message
    says what failed.  A subclass exists only where a caller tells it apart."""


def _strip_digits(name):
    base = name.rstrip("0123456789")
    return base, name[len(base):]


class Conn:
    """An object-language connective with its argument and result sorts.

    Interned like the nodes below: equal parts give the same object, so
    symbols compare by identity."""

    __slots__ = ("name", "arg_sorts", "res_sort")

    def __new__(cls, name, arg_sorts, res_sort):
        arg_sorts = tuple(arg_sorts)
        return _intern(cls, ("conn", name, arg_sorts, res_sort),
                       name, arg_sorts, res_sort)

    def __repr__(self):
        return "Conn(%r, %r, %r)" % (self.name, self.arg_sorts, self.res_sort)

    @property
    def arity(self):
        return len(self.arg_sorts)


class LSignature:
    """Sorts, connectives and the variable/constant name families per sort.

    ``n_lsorts`` counts the object sorts 0..N (so N = n_lsorts - 1).  Name
    families are prefix based: a token consisting of a declared prefix plus
    an optional digit suffix parses as a variable (or constant) of that sort.
    Domain variables (x, y, z + digits) and domain constants (a, b, c +
    digits) are reserved globally.
    """

    def __init__(self, n_lsorts, conns=(), var_prefixes=None, const_prefixes=None,
                 preds=None):
        if n_lsorts < 2:
            raise TabError("need at least sorts 0 (individuals) and 1 (concepts)")
        if n_lsorts > MAX_SORTS:
            raise TabError("at most %d sorts, not %d" % (MAX_SORTS, n_lsorts))
        self.n_lsorts = n_lsorts
        self.conns = {}
        self.var_prefixes = {s: tuple() for s in range(n_lsorts)}
        self.const_prefixes = {s: tuple() for s in range(n_lsorts)}
        self.preds = dict(preds or {})
        for s, pfxs in (var_prefixes or {}).items():
            self._check_sort(s)
            self.var_prefixes[s] = tuple(pfxs)
        for s, pfxs in (const_prefixes or {}).items():
            self._check_sort(s)
            self.const_prefixes[s] = tuple(pfxs)
        for c in conns:
            self.add_connective(c)
        self._check_prefixes()

    @property
    def max_sort(self):
        return self.n_lsorts - 1

    def _check_sort(self, s):
        if not (0 <= s < self.n_lsorts):
            raise TabError("sort %r not declared (have 0..%d)" % (s, self.max_sort))

    def _check_prefixes(self):
        seen = {}
        for s in range(self.n_lsorts):
            for p in self.var_prefixes[s] + self.const_prefixes[s]:
                if p in RESERVED_DVAR_PREFIXES or p in RESERVED_DCONST_PREFIXES \
                        or p == RESERVED_ANCHOR_PREFIX:
                    raise TabError("prefix %r is reserved" % p)
                if _reserved_name(p) or p in ("forall", "exists"):
                    raise TabError("prefix %r is a reserved word" % p)
                if p in seen:
                    raise TabError("prefix %r declared %s" % (p, "for two sorts"
                                   if seen[p] != s else "twice for sort %d" % s))
                seen[p] = s
        for cname in list(self.conns) + list(self.preds):
            base, digits = _strip_digits(cname)
            if digits and base in seen:
                raise TabError("name %r is ambiguous with the %r variable family"
                               % (cname, base))

    def add_connective(self, conn):
        if conn.name in self.conns:
            raise TabError("duplicate connective %r" % conn.name)
        if _reserved_name(conn.name):
            raise TabError("connective name %r is reserved" % conn.name)
        for s in conn.arg_sorts + (conn.res_sort,):
            self._check_sort(s)
        self.conns[conn.name] = conn

    def extended(self, extra_conns):
        """A copy of this signature with additional connectives; re-declaring
        an identical connective is a no-op, conflicting ones are an error."""
        sig = LSignature(self.n_lsorts, (), dict(self.var_prefixes),
                         dict(self.const_prefixes), dict(self.preds))
        for c in list(self.conns.values()) + list(extra_conns):
            have = sig.conns.get(c.name)
            if have is not None:
                if have is not c:
                    raise TabError("conflicting redeclaration of %r" % c.name)
                continue
            sig.add_connective(c)
        return sig

    def sorts_with_connectives(self):
        """Sorts that some connective produces; the rest are always atomic."""
        return {c.res_sort for c in self.conns.values()}

    def classify_name(self, name):
        """Map a bare identifier to its syntactic category, or None."""
        if name in self.conns:
            return ("conn", self.conns[name])
        if name in self.preds:
            return ("pred", name)
        base, digits = _strip_digits(name)
        if base in RESERVED_DVAR_PREFIXES:
            return ("dvar", name)
        if base in RESERVED_DCONST_PREFIXES:
            return ("dconst", name)
        if base == RESERVED_ANCHOR_PREFIX:
            return ("const", 0)
        for s in range(self.n_lsorts):
            if base in self.var_prefixes[s]:
                return ("var", s)
            if base in self.const_prefixes[s]:
                return ("const", s)
        return None


# ---------------------------------------------------------------------------
# terms (hash-consed): object expressions of sorts 0..N and domain terms

class FnSym:
    """A domain-sort function symbol: L-sorted arguments then domain ones.
    Interned like :class:`Conn`."""

    __slots__ = ("name", "lsorts", "n_dom", "arg_sorts")
    res_sort = DOMAIN

    def __new__(cls, name, lsorts, n_dom):
        lsorts = tuple(lsorts)
        return _intern(cls, ("fn", name, lsorts, n_dom), name, lsorts, n_dom,
                       lsorts + (DOMAIN,) * n_dom)

    def __repr__(self):
        return "FnSym(%r, %r, %r)" % (self.name, self.lsorts, self.n_dom)

    @property
    def arity(self):
        return len(self.arg_sorts)


_NODES = {}  # the one intern table: key (kind tag or symbol, parts) -> node


def _intern(cls, key, *values):
    """The node of class ``cls`` keyed by ``key``, made from ``values`` (in
    slot order) on first use.  A key holds the node's parts themselves, not
    their ids, and its first element tells the node kinds apart."""
    n = _NODES.get(key)
    if n is None:
        n = _NODES[key] = object.__new__(cls)
        for slot, v in zip(cls.__slots__, values):
            setattr(n, slot, v)
    return n


NU0 = FnSym("nu0", (0,), 0)  # the domain element an individual denotes


def formula_text(x):
    """Prefix notation of a formula, literal or term."""
    out, stack = [], [x]
    while stack:
        t = stack.pop()
        ty = type(t)
        if ty is str:
            out.append(t)
            continue
        if ty is Term:
            # a domain application always prints its parentheses, so a
            # nullary Skolem term reads back as one
            if t.kind != "app" or not t.args and t.sort != DOMAIN:
                out.append(t.name)
                continue
            head, parts = t.name, t.args
        elif ty is Literal:
            if not t.pos:
                out.append("not(")
                stack.append(")")
            if t.pred[0] == "false":
                out.append("false")
                continue
            if t.pred[0] == "holds":
                stack.append(t.args[0])
                continue
            head, parts = pred_text(t.pred), t.args
        elif t.var is not None:
            out.append("%s %s. " % (t.op, t.var.name))
            stack.append(t.subs[0])
            continue
        else:
            head, parts = t.op, t.subs
        out.append(head + "(")
        stack.append(")")
        for k, a in enumerate(reversed(parts)):
            if k:
                stack.append(", ")
            stack.append(a)
    return "".join(out)


class Term:
    """A variable, a constant, or an application of a connective (object
    sorts) or a function symbol (the domain sort).

    Use the factories :func:`lvar`, :func:`lconst`, :func:`app` and their
    domain shorthands :func:`dvar`, :func:`dconst`, :func:`nu0`.  Instances
    are interned, so identity coincides with structural equality.  ``name``
    is the variable's or constant's name, or the applied symbol's.  A term
    used as a pattern keeps its generated matcher (see :func:`match_expr`),
    built on first use.
    """

    __slots__ = ("kind", "sort", "name", "sym", "args", "matcher")

    def __repr__(self):
        return "Term(%s)" % self.text()

    def text(self):
        return self.name if self.kind != "app" else formula_text(self)

    def subexprs(self):
        """All subterms including self, no duplicates, preorder."""
        out, seen, stack = [], set(), [self]
        while stack:
            e = stack.pop()
            if id(e) in seen:
                continue
            seen.add(id(e))
            out.append(e)
            stack.extend(reversed(e.args))
        return out


def lvar(sort, name):
    return _intern(Term, ("var", sort, name), "var", sort, name, None, (), None)


def lconst(sort, name):
    return _intern(Term, ("const", sort, name), "const", sort, name, None, (),
                   None)


def dvar(name):
    return lvar(DOMAIN, name)


def dconst(name):
    return lconst(DOMAIN, name)


def app(sym, args):
    """``sym`` (a :class:`Conn` or an :class:`FnSym`) applied to ``args``."""
    args = tuple(args)
    want = sym.arg_sorts
    if len(args) != len(want):
        raise TabError("%s expects %d arguments, got %d"
                       % (sym.name, len(want), len(args)))
    for k, (a, s) in enumerate(zip(args, want)):
        if a.sort != s:
            raise TabError("argument %d of %s has sort %d, expected %d"
                           % (k + 1, sym.name, a.sort, s))
    return _intern(Term, (sym,) + args, "app", sym.res_sort, sym.name, sym, args,
                   None)


def nu0(ind):
    return app(NU0, (ind,))


def term_is_ground(t):
    """No domain variable occurs in ``t``; object expressions are inert
    data at the term level, whatever variables they hold."""
    stack = [t]
    while stack:
        x = stack.pop()
        if x.sort == DOMAIN:
            if x.kind == "var":
                return False
            stack.extend(x.args)
    return True


# ---------------------------------------------------------------------------
# literals, formulae

EQ = ("eq",)
FALSUM = ("false",)
HOLDS = ("holds",)


def nu(n):
    return ("nu", n)


def pred(name):
    return ("pred", name)


def pred_text(p):
    if p[0] == "nu":
        return "nu%d" % p[1]
    if p[0] == "eq":
        return "eq"
    if p[0] == "pred":
        return p[1]
    if p[0] == "false":
        return "false"
    return "holds"


class Literal:
    """An atomic formula or its negation, as one node: the sign ``pos``, the
    predicate ``pred`` and its arguments ``args``.  The atomic formulas are
    nu_n(E, t1..tn), eq(s, t), P(t1..tn), false, and (post-internalization)
    a bare concept asserted to hold.  Use :func:`literal` or :func:`atom`;
    instances are interned.  A literal used as a pattern keeps its
    generated matcher (see :func:`match_literal`), built on first use."""

    __slots__ = ("pos", "pred", "args", "matcher")

    def __repr__(self):
        return "Literal(%s)" % self.text()

    def text(self):
        return formula_text(self)

    def negate(self):
        pos = not self.pos
        return _intern(Literal, ("lit", pos, self.pred) + self.args,
                       pos, self.pred, self.args, None)


def literal(pos, p, args):
    """The literal of sign ``pos`` over predicate ``p`` applied to ``args``,
    whose sorts must fit ``p``."""
    args = tuple(args)
    if p[0] == "nu":
        n = p[1]
        if len(args) != n + 1:
            raise TabError("nu%d takes %d arguments" % (n, n + 1))
        if args[0].sort != n:
            raise TabError("first argument of nu%d must be a sort-%d expression" % (n, n))
        for t in args[1:]:
            if t.sort != DOMAIN:
                raise TabError("nu%d takes domain terms after the expression" % n)
    elif p[0] == "eq":
        if len(args) != 2 or args[0].sort != args[1].sort:
            raise TabError("eq relates two terms of one sort: %s / %s"
                           % (args[0].text(), args[1].text()))
    elif p[0] == "pred":
        for t in args:
            if t.sort != DOMAIN:
                raise TabError("predicate %s takes domain terms" % p[1])
    elif p[0] == "holds":
        if len(args) != 1 or args[0].sort != 1:
            raise TabError("a held concept must have the primary sort")
    return _intern(Literal, ("lit", pos, p) + args, pos, p, args, None)


def atom(p, args=()):
    """The atomic formula ``p(args)``: its positive literal."""
    return literal(True, p, args)


FALSE = atom(FALSUM)


class Formula:
    """A compound formula: ``op`` is ``not``, ``and``, ``or``, ``implies``,
    ``iff``, ``forall`` or ``exists``; ``subs`` the literals and formulas it
    joins (one under a quantifier); ``var`` the domain variable a quantifier
    binds, None otherwise.  Object variables are never bound: sentences are
    L-open.  Use :func:`formula`; instances are interned."""

    __slots__ = ("op", "subs", "var")

    def __repr__(self):
        return "Formula(%s)" % formula_text(self)


def formula(op, subs, var=None):
    subs = tuple(subs)
    return _intern(Formula, (op, var) + subs, op, subs, var)


def forall_each(vs, f):
    """``f`` under one universal quantifier per variable of ``vs``, the
    first outermost."""
    for v in reversed(vs):
        f = formula("forall", (f,), v)
    return f


def subformulas(f):
    """``f`` and every formula and literal inside it, in preorder."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if type(g) is Formula:
            stack.extend(reversed(g.subs))


_DUAL = {"and": "or", "or": "and", "forall": "exists", "exists": "forall"}


def nnf(f, pos=True):
    """``f`` (negated unless ``pos``) in negation normal form: ``and``,
    ``or`` and quantifiers over literals.  An implication becomes a
    disjunction, an equivalence two implications, in the order written, and
    a junction or quantifier under a negation takes its dual."""
    out, stack = [], [(f, pos)]
    while stack:
        g, pos = stack.pop()
        if g is None:  # join the last n results under (op, n, var)
            op, n, var = pos
            k = len(out) - n
            out[k:] = [formula(op, out[k:], var)]
        elif type(g) is Literal:
            out.append(g if pos else g.negate())
        elif g.op == "not":
            stack.append((g.subs[0], not pos))
        elif g.op in ("implies", "iff"):
            a, b = g.subs
            inner = (None, ("or" if pos else "and", 2, None))
            if g.op == "iff":
                stack += [(None, ("and" if pos else "or", 2, None)),
                          inner, (a, pos), (b, not pos)]
            stack += [inner, (b, pos), (a, not pos)]
        else:
            stack.append((None, (g.op if pos else _DUAL[g.op], len(g.subs),
                                 g.var)))
            stack.extend((s, pos) for s in reversed(g.subs))
    return out[0]


# ---------------------------------------------------------------------------
# traversals

def _walk(x):
    """The domain terms inside ``x`` and its outermost object expressions,
    in preorder with repeats.  ``x`` is an expression, term, literal,
    formula, or a list or tuple (nested or not) of those."""
    out, stack = [], [x]
    while stack:
        y = stack.pop()
        t = type(y)
        if t is Term:
            out.append(y)
            if y.sort == DOMAIN:
                stack.extend(reversed(y.args))
        elif t is Literal:
            stack.extend(reversed(y.args))
        elif t is Formula:
            stack.extend(reversed(y.subs))
        elif t is list or t is tuple:
            stack.extend(reversed(y))
        else:
            raise TypeError("cannot walk %r" % (y,))
    return out


def lexprs_of_formula(x):
    """All object-language expressions occurring in ``x`` (anything
    ``_walk`` takes), nested included."""
    return [s for e in _walk(x) if e.sort != DOMAIN for s in e.subexprs()]


def lvars(x):
    """Object variables of ``x``, in order of first occurrence."""
    return list(dict.fromkeys(e for e in lexprs_of_formula(x) if e.kind == "var"))


def dvars(x):
    """Domain variables of ``x``, bound ones included, in order of first
    occurrence."""
    return list(dict.fromkeys(t for t in _walk(x)
                              if t.sort == DOMAIN and t.kind == "var"))


def ground_terms(x):
    """Ground domain terms of ``x``, nested ones included, in order of first
    occurrence."""
    return list(dict.fromkeys(t for t in _walk(x)
                              if t.sort == DOMAIN and term_is_ground(t)))


def free_dvars(f, bound=frozenset()):
    """Free domain variables of a formula, in first-occurrence order."""
    out, stack = [], [(f, frozenset(bound))]
    while stack:
        g, bnd = stack.pop()
        if type(g) is Literal:
            out += [v for v in dvars(g) if v not in bnd and v not in out]
            continue
        if g.var is not None:
            bnd = bnd | {g.var}
        stack.extend((s, bnd) for s in reversed(g.subs))
    return out


# ---------------------------------------------------------------------------
# substitution (uniform, simultaneous)

# ``sub`` maps object variables to expressions and domain variables to
# domain terms, as one binding of the matcher below does.

def substitute_expr(t, sub):
    """``t`` with its variables replaced as ``sub`` says."""
    done, stack = {}, [(t, False)]
    while stack:
        x, ready = stack.pop()
        if x in done:
            continue
        if x.kind == "var":
            r = sub.get(x, x)
            if r.sort != x.sort:
                raise TabError("cannot substitute sort-%d expression for %s"
                               % (r.sort, x.name))
            done[x] = r
        elif x.kind == "const":
            done[x] = x
        elif ready:
            done[x] = app(x.sym, [done[a] for a in x.args])
        else:
            stack.append((x, True))
            stack.extend((a, False) for a in x.args)
    return done[t]


def substitute_literal(l, sub):
    return literal(l.pos, l.pred, [substitute_expr(t, sub) for t in l.args])


def substitute_formula(f, sub):
    """Substitute free variables of both kinds; a quantifier shields the
    domain variable it binds."""
    out, stack = [], [(f, sub, False)]
    while stack:
        g, s, ready = stack.pop()
        if type(g) is Literal:
            out.append(substitute_literal(g, s))
        elif ready:
            n = len(g.subs)
            out[-n:] = [formula(g.op, out[-n:], g.var)]
        else:
            if g.var in s:
                s = {k: v for k, v in s.items() if k is not g.var}
            stack.append((g, s, True))
            stack.extend((x, s, False) for x in reversed(g.subs))
    return out[0]


def restrict(sentences, x_set):
    """Instances of L-open ``sentences`` all of whose L-expressions lie in
    ``x_set``.  Substitutions draw from ``x_set`` members of matching sort."""
    x_set = dict.fromkeys(x_set)
    out = []
    for f in sentences:
        fvars = lvars(f)
        for values in itertools.product(*([x for x in x_set if x.sort == v.sort]
                                          for v in fvars)):
            inst = substitute_formula(f, dict(zip(fvars, values)))
            if inst not in out and all(e in x_set
                                       for e in lexprs_of_formula(inst)):
                out.append(inst)
    return out


# ---------------------------------------------------------------------------
# one-way pattern matching (rule patterns against ground data)

def match_literal(pattern, value, binding):
    """Extend ``binding`` so pattern, a literal or an object expression,
    instantiates to ``value``; one-way only.

    Runs the matcher generated for ``pattern``, built on first use.  All
    or nothing: every variable is checked before any is bound, so a failed
    match leaves ``binding`` as it was.
    """
    m = pattern.matcher
    if m is None:
        m = pattern.matcher = _compile_matcher(pattern)
    return m(value, binding)


# Expressions match through the same function.  A wrapper that counts
# attempts by rebinding the module attribute ``match_literal`` leaves this
# name on the original, so it counts the literal matches only, and makes
# the engine run its counted round (see ``engine._compile_round``).
match_expr = match_literal


class Codegen:
    """The source of one generated function and the objects it names.

    Each :meth:`const` names an object by a parameter of the factory that
    :meth:`function` compiles and calls, so the generated code reaches it
    through its closure, with no global lookup."""

    def __init__(self):
        self.consts = []

    def const(self, x):
        self.consts.append(x)
        return "c%d" % (len(self.consts) - 1)

    def function(self, head, lines):
        """The function ``def <head>:`` with body ``lines`` (each may
        indent further)."""
        src = "def make(%s):\n def %s:\n  %s\n return %s" % (
            ", ".join("c%d" % k for k in range(len(self.consts))), head,
            "\n  ".join(lines), head[:head.index("(")])
        scope = {}
        exec(compile(src, "<generated>", "exec"), scope)
        return scope["make"](*self.consts)


def _open_subterms(terms):
    """The subterms of ``terms`` that hold a variable of either kind."""
    open_, seen, stack = set(), set(), [(t, False) for t in terms]
    while stack:
        t, done = stack.pop()
        if done:
            if any(x in open_ for x in t.args):
                open_.add(t)
        elif t not in seen:
            seen.add(t)
            if t.kind == "var":
                open_.add(t)
            stack.append((t, True))
            stack += [(x, False) for x in t.args]
    return open_


def emit_match(g, pattern, v, fail, pre="", bound=()):
    """Lines testing that the value in local ``v`` matches ``pattern``, a
    literal or an object expression, each running ``fail`` on a mismatch;
    and the variables of ``pattern`` not in ``bound`` (variable -> local),
    in preorder, as (variable, constant, local, sort to check or None).

    A literal's polarity, predicate and arity are tested first; an
    expression is itself the one argument, in a position that leaves its
    sort open.  Then each symbol, each ground subterm and each repeat of a
    subterm or of a bound variable is tested where it stands, by identity
    (nodes are interned), on parts unpacked into locals ``pre`` + ``t<k>``.
    """
    if type(pattern) is Term:  # the value itself is t0
        args, names, code, typed = (pattern,), [v], [], False
    else:
        args = pattern.args
        names = ["%st%d" % (pre, k) for k in range(len(args))]
        code = ["if %s%s.pos: %s" % ("not " if pattern.pos else "", v, fail),
                "if %s.pred != %s: %s" % (v, g.const(pattern.pred), fail)]
        if pattern.pred[0] == "pred":  # the other predicates fix their arity
            code.append("if len(%s.args) != %d: %s" % (v, len(args), fail))
        if names:
            code.append("%s, = %s.args" % (", ".join(names), v))
        # only eq leaves the sorts of a literal's arguments open
        typed = pattern.pred != EQ
    open_ = _open_subterms(args)
    stack = [(p, n, typed) for p, n in zip(reversed(args), reversed(names))]
    first = dict(bound)  # pattern subterm -> the local holding its first value
    variables = []
    while stack:
        p, n, typed = stack.pop()
        if p in first:
            code.append("if %s is not %s: %s" % (n, first[p], fail))
            continue
        first[p] = n
        if p.kind == "var":
            variables.append((p, g.const(p), n, None if typed else p.sort))
        elif p not in open_:
            code.append("if %s is not %s: %s" % (n, g.const(p), fail))
        else:
            code.append("if %s.sym is not %s: %s" % (n, g.const(p.sym), fail))
            subs = ["%st%d" % (pre, k)
                    for k in range(len(names), len(names) + len(p.args))]
            names += subs
            code.append("%s, = %s.args" % (", ".join(subs), n))
            stack += [(q, m, True) for q, m in zip(reversed(p.args),
                                                    reversed(subs))]
    return code, variables


def _compile_matcher(pattern):
    """A function ``(value, binding)`` matching ``pattern``, a literal or an
    object expression: the tests of :func:`emit_match`, then each variable
    looked up in the binding and checked, sort-checked where it is unbound
    unless its position fixes the sort.  Only when every check has passed
    are the unbound variables bound, in preorder.  The tests hold every
    generated matcher to a tree-walking reference.
    """
    g = Codegen()
    v = "t0" if type(pattern) is Term else "v"
    code, variables = emit_match(g, pattern, v, "return False")
    for k, (_, c, n, sort) in enumerate(variables):
        x = "x%d" % k
        code.append("%s = b.get(%s)" % (x, c))
        if sort is None:
            code.append("if %s is not None and %s is not %s: return False"
                        % (x, x, n))
        else:
            code += ["if %s is None:" % x,
                     " if %s.sort != %d: return False" % (n, sort),
                     "elif %s is not %s: return False" % (x, n)]
    code += ["if x%d is None: b[%s] = %s" % (k, c, n)
             for k, (_, c, n, _) in enumerate(variables)]
    code.append("return True")
    return g.function("match(%s, b)" % v, code)


def compile_substitution(lits):
    """A function ``binding -> tuple`` giving ``substitute_literal(l,
    binding)`` for each literal ``l`` of ``lits``.

    Ground subterms (no variable of either sort) are constants.  Each open
    subterm and literal is built once per call, in postorder: its intern
    key is looked up in ``_NODES``, and only on a miss is the node made
    through :func:`app` or :func:`literal`, which keep their sort checks.
    A hit needs no check: every node in the table passed them when it was
    made.  Every variable of ``lits`` must be bound.
    """
    g = Codegen()
    get, app_, literal_ = g.const(_NODES.get), g.const(app), g.const(literal)
    open_ = _open_subterms([t for l in lits for t in l.args])
    code, value, out = [], {}, []  # value: subterm -> the expression giving it
    for l in lits:
        stack = [(t, False) for t in l.args]
        while stack:
            t, ready = stack.pop()
            if t in value:
                continue
            if t not in open_:
                value[t] = g.const(t)
            elif t.kind == "var":
                value[t] = "b[%s]" % g.const(t)
            elif not ready:
                stack.append((t, True))
                stack += [(a, False) for a in t.args]
            else:
                sym = g.const(t.sym)
                value[t] = n = "n%d" % len(value)
                code += ["k = (%s, %s)" % (sym, "".join(value[a] + ", "
                                                        for a in t.args)),
                         "%s = %s(k) or %s(%s, k[1:])" % (n, get, app_, sym)]
        if not any(t in open_ for t in l.args):
            out.append(g.const(l))
            continue
        p = g.const(l.pred)
        code += ["k = ('lit', %s, %s, %s)" % (l.pos, p, "".join(
                     value[t] + ", " for t in l.args)),
                 "l%d = %s(k) or %s(%s, %s, k[3:])"
                 % (len(out), get, literal_, l.pos, p)]
        out.append("l%d" % len(out))
    code.append("return (%s)" % "".join(x + ", " for x in out))
    return g.function("instances(b)", code)
