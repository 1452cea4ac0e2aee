"""Sorted object-language expressions and the first-order meta-language.

The object language is a many-sorted propositional language.  Sorts are
numbered 0..N; sort 0 holds individuals, sort 1 is the primary sort
(concepts).  The meta-language adds one extra sort (the domain sort), a
holds-predicate ``nu_n`` per object sort, one polymorphic equality symbol,
named domain predicates and domain-sort function symbols (Skolem functions,
and ``nu0`` taking an individual to the element it denotes).

Two nodes carry the syntax.  :class:`Term` holds both kinds of term: object
expressions have a sort 0..N, domain terms the sort ``DOMAIN``.
:class:`Formula` holds every compound formula: a connective or quantifier
word (``op``), its subformulas, and the variable a quantifier binds; an
:class:`Atom` is the atomic formula, and a :class:`Literal` a possibly
negated atom as the prover reads it.  Printing, substitution, matching and
the variable walks are loops over an explicit stack, so nesting depth is not
limited by the interpreter's recursion limit.

Everything here is immutable after construction.  Terms, atoms, literals
and formulas are hash-consed in one table, keyed by their kind and parts:
structurally equal values are the same object, so ``==`` and ``hash`` are
O(1).  The table is a plain dict; build nodes from a single thread (reads
are safe to share afterwards).
"""

from __future__ import annotations

from dataclasses import dataclass

DOMAIN = -1  # pseudo sort id for the meta-language domain sort

# name families reserved by the meta-language, never available to signatures.
# Object connectives may reuse first-order connective names (or, not, ...):
# expression and formula positions never overlap, so context disambiguates.
RESERVED_DVAR_PREFIXES = ("x", "y", "z")
RESERVED_DCONST_PREFIXES = ("a", "b", "c")
RESERVED_ANCHOR_PREFIX = "i"  # fresh individuals of internalized derivations
RESERVED_WORDS = {"eq", "false"}


def _reserved_name(name):
    return name in RESERVED_WORDS or (name.startswith("nu") and name[2:].isdigit())


class TabError(Exception):
    """Base class for all errors raised by this package."""


class IllSorted(TabError):
    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class SortMismatch(TabError):
    pass


def _strip_digits(name):
    base = name.rstrip("0123456789")
    return base, name[len(base):]


@dataclass(frozen=True)
class Conn:
    """An object-language connective with its argument and result sorts."""

    name: str
    arg_sorts: tuple
    res_sort: int

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
            raise IllSorted("need at least sorts 0 (individuals) and 1 (concepts)")
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
            raise IllSorted("sort %r not declared (have 0..%d)" % (s, self.max_sort))

    def _check_prefixes(self):
        seen = {}
        for s in range(self.n_lsorts):
            for p in self.var_prefixes[s] + self.const_prefixes[s]:
                if p in RESERVED_DVAR_PREFIXES or p in RESERVED_DCONST_PREFIXES \
                        or p == RESERVED_ANCHOR_PREFIX:
                    raise TabError("prefix %r is reserved" % p)
                if _reserved_name(p) or p in ("forall", "exists"):
                    raise TabError("prefix %r is a reserved word" % p)
                if p in seen and seen[p] != s:
                    raise TabError("prefix %r declared for two sorts" % p)
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
                if have != c:
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

@dataclass(frozen=True)
class FnSym:
    """A domain-sort function symbol: L-sorted arguments then domain ones."""

    name: str
    lsorts: tuple
    n_dom: int

    @property
    def arity(self):
        return len(self.lsorts) + self.n_dom

    @property
    def arg_sorts(self):
        return self.lsorts + (DOMAIN,) * self.n_dom

    @property
    def res_sort(self):
        return DOMAIN


NU0 = FnSym("nu0", (0,), 0)  # the domain element an individual denotes

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


def formula_text(x):
    """Prefix notation of a formula, atom or term."""
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
        elif ty is Atom:
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
    is the variable's or constant's name, or the applied symbol's.
    """

    __slots__ = ("kind", "sort", "name", "sym", "args")

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
    return _intern(Term, ("var", sort, name), "var", sort, name, None, ())


def lconst(sort, name):
    return _intern(Term, ("const", sort, name), "const", sort, name, None, ())


def dvar(name):
    return lvar(DOMAIN, name)


def dconst(name):
    return lconst(DOMAIN, name)


def app(sym, args):
    """``sym`` (a :class:`Conn` or an :class:`FnSym`) applied to ``args``."""
    args = tuple(args)
    want = sym.arg_sorts
    if len(args) != len(want):
        raise IllSorted("%s expects %d arguments, got %d"
                        % (sym.name, len(want), len(args)))
    for k, (a, s) in enumerate(zip(args, want)):
        if a.sort != s:
            raise IllSorted("argument %d of %s has sort %d, expected %d"
                            % (k + 1, sym.name, a.sort, s), position=k)
    return _intern(Term, (sym,) + args, "app", sym.res_sort, sym.name, sym, args)


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
# atoms, literals, formulae

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


class Atom:
    """An atomic formula: nu_n(E, t1..tn), eq(s, t), P(t1..tn), false,
    or (post-internalization) a bare concept asserted to hold."""

    __slots__ = ("pred", "args")

    def __repr__(self):
        return "Atom(%s)" % self.text()

    def text(self):
        return formula_text(self)


def atom(p, args=()):
    args = tuple(args)
    if p[0] == "nu":
        n = p[1]
        if len(args) != n + 1:
            raise IllSorted("nu%d takes %d arguments" % (n, n + 1))
        if args[0].sort != n:
            raise IllSorted("first argument of nu%d must be a sort-%d expression" % (n, n))
        for t in args[1:]:
            if t.sort != DOMAIN:
                raise IllSorted("nu%d takes domain terms after the expression" % n)
    elif p[0] == "eq":
        if len(args) != 2 or args[0].sort != args[1].sort:
            raise SortMismatch("eq relates two terms of one sort: %s / %s"
                               % (args[0].text(), args[1].text()))
    elif p[0] == "pred":
        for t in args:
            if t.sort != DOMAIN:
                raise IllSorted("predicate %s takes domain terms" % p[1])
    elif p[0] == "holds":
        if len(args) != 1 or args[0].sort != 1:
            raise IllSorted("a held concept must have the primary sort")
    return _intern(Atom, ("atom", p) + args, p, args)


FALSE = atom(FALSUM)


class Literal:
    """A possibly negated atom."""

    __slots__ = ("pos", "atom")

    def __repr__(self):
        return "Literal(%s)" % self.text()

    def text(self):
        return self.atom.text() if self.pos else "not(%s)" % self.atom.text()

    def negate(self):
        return literal(not self.pos, self.atom)


def literal(pos, a):
    return _intern(Literal, ("lit", pos, a), pos, a)


def pos_lit(a):
    return literal(True, a)


def neg_lit(a):
    return literal(False, a)


class Formula:
    """A compound formula: ``op`` is ``not``, ``and``, ``or``, ``implies``,
    ``iff``, ``forall`` or ``exists``; ``subs`` the atoms and formulas it
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
    """``f`` and every formula and atom inside it, in preorder."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        if type(g) is Formula:
            stack.extend(reversed(g.subs))


# ---------------------------------------------------------------------------
# traversals

def _walk(x):
    """The domain terms inside ``x`` and its outermost object expressions,
    in preorder with repeats.  ``x`` is an expression, term, atom, literal,
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
            stack.append(y.atom)
        elif t is Atom:
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
        if type(g) is Atom:
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
                raise SortMismatch("cannot substitute sort-%d expression for %s"
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


def substitute_atom(a, sub):
    return atom(a.pred, [substitute_expr(t, sub) for t in a.args])


def substitute_literal(l, sub):
    return literal(l.pos, substitute_atom(l.atom, sub))


def substitute_formula(f, sub):
    """Substitute free variables of both kinds; a quantifier shields the
    domain variable it binds."""
    out, stack = [], [(f, sub, False)]
    while stack:
        g, s, ready = stack.pop()
        if type(g) is Atom:
            out.append(substitute_atom(g, s))
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
    x_set = list(dict.fromkeys(x_set))
    out = []
    for f in sentences:
        fvars = lvars(f)
        choices = [[x for x in x_set if x.sort == v.sort] for v in fvars]
        if any(not c for c in choices):
            continue
        idx = [0] * len(fvars)
        while True:
            sub = {v: choices[k][idx[k]] for k, v in enumerate(fvars)}
            inst = substitute_formula(f, sub)
            if all(e in x_set for e in lexprs_of_formula(inst)):
                if inst not in out:
                    out.append(inst)
            k = len(fvars) - 1
            while k >= 0:
                idx[k] += 1
                if idx[k] < len(choices[k]):
                    break
                idx[k] = 0
                k -= 1
            if k < 0:
                break
    return out


# ---------------------------------------------------------------------------
# one-way pattern matching (rule patterns against ground data)

def _match(pairs, binding):
    """Extend ``binding`` so each (pattern, value) pair of the stack
    ``pairs`` matches, the top pair first."""
    while pairs:
        p, v = pairs.pop()
        if p.kind == "var":
            bound = binding.get(p)
            if bound is None:
                if v.sort != p.sort:
                    return False
                binding[p] = v
            elif bound is not v:
                return False
        elif p is not v:
            if p.kind != "app" or p.sym is not v.sym and p.sym != v.sym:
                return False
            pairs += zip(reversed(p.args), reversed(v.args))
    return True


def match_expr(pattern, value, binding):
    return _match([(pattern, value)], binding)


def match_literal(pattern, value, binding):
    """Extend ``binding`` so pattern instantiates to ``value``; one-way only.

    Mutates ``binding`` on partial success; callers pass a scratch copy.
    """
    pa, va = pattern.atom, value.atom
    if pattern.pos != value.pos or pa.pred != va.pred or len(pa.args) != len(va.args):
        return False
    return _match(list(zip(reversed(pa.args), reversed(va.args))), binding)
