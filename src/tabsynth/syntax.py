"""Sorted object-language expressions and the first-order meta-language.

The object language is a many-sorted propositional language.  Sorts are
numbered 0..N; sort 0 holds individuals, sort 1 is the primary sort
(concepts).  The meta-language adds one extra sort (the domain sort), a
holds-predicate ``nu_n`` per object sort, one polymorphic equality symbol,
named domain predicates and domain-sort function symbols (Skolem functions).

Everything here is immutable after construction.  Expressions and terms are
hash-consed: structurally equal values are the same object, so ``==`` and
``hash`` are O(1).  The intern tables are plain dicts; build expressions from
a single thread (reads are safe to share afterwards).
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
# object-language expressions (hash-consed)

_EXPR_TABLE = {}


class LExpr:
    """An object-language expression: variable, constant or application.

    Use the factories :func:`lvar`, :func:`lconst`, :func:`lapp`.  Instances
    are interned, so identity coincides with structural equality.
    """

    __slots__ = ("kind", "sort", "name", "conn", "args")

    def __repr__(self):
        return "LExpr(%s)" % self.text()

    def text(self):
        if self.kind != "app":
            return self.name
        if not self.args:
            return self.conn.name
        return "%s(%s)" % (self.conn.name, ", ".join(a.text() for a in self.args))

    def subexprs(self):
        """All subexpressions including self, no duplicates, preorder."""
        out, seen, stack = [], set(), [self]
        while stack:
            e = stack.pop()
            if id(e) in seen:
                continue
            seen.add(id(e))
            out.append(e)
            if e.kind == "app":
                stack.extend(reversed(e.args))
        return out


def _mk_expr(key, kind, sort, name=None, conn=None, args=()):
    e = _EXPR_TABLE.get(key)
    if e is None:
        e = object.__new__(LExpr)
        e.kind = kind
        e.sort = sort
        e.name = name
        e.conn = conn
        e.args = args
        _EXPR_TABLE[key] = e
    return e


def lvar(sort, name):
    return _mk_expr(("v", sort, name), "var", sort, name=name)


def lconst(sort, name):
    return _mk_expr(("c", sort, name), "const", sort, name=name)


def lapp(conn, args):
    args = tuple(args)
    if len(args) != conn.arity:
        raise IllSorted("connective %s expects %d arguments, got %d"
                        % (conn.name, conn.arity, len(args)))
    for k, (a, want) in enumerate(zip(args, conn.arg_sorts)):
        if a.sort != want:
            raise IllSorted("argument %d of %s has sort %d, expected %d"
                            % (k + 1, conn.name, a.sort, want), position=k)
    key = ("a", conn.name, conn.arg_sorts, conn.res_sort) + tuple(id(a) for a in args)
    return _mk_expr(key, "app", conn.res_sort, conn=conn, args=args)


def sort_of(sig, e):
    """Check well-sortedness of ``e`` under ``sig`` and return its sort."""
    if e.kind == "app":
        conn = sig.conns.get(e.conn.name)
        if conn is None or conn != e.conn:
            raise IllSorted("connective %r not in signature" % e.conn.name)
        for a in e.args:
            sort_of(sig, a)
        # arg sorts were enforced at construction; recheck against sig's decl
        for k, (a, want) in enumerate(zip(e.args, conn.arg_sorts)):
            if a.sort != want:
                raise IllSorted("argument %d of %s has sort %d, expected %d"
                                % (k + 1, conn.name, a.sort, want), position=k)
    else:
        if not (0 <= e.sort <= sig.max_sort):
            raise IllSorted("expression %s has undeclared sort %d" % (e.text(), e.sort))
    return e.sort


# ---------------------------------------------------------------------------
# meta-language terms (domain sort).  Also hash-consed.

_TERM_TABLE = {}


class _Term:
    __slots__ = ("kind", "name", "fn", "args", "ind")

    def __repr__(self):
        return "Term(%s)" % term_text(self)


@dataclass(frozen=True)
class FnSym:
    """A domain-sort function symbol: L-sorted arguments then domain ones."""

    name: str
    lsorts: tuple
    n_dom: int

    @property
    def arity(self):
        return len(self.lsorts) + self.n_dom


def _mk_term(key, kind, **kw):
    t = _TERM_TABLE.get(key)
    if t is None:
        t = _Term()
        t.kind = kind
        t.name = kw.get("name")
        t.fn = kw.get("fn")
        t.args = kw.get("args")
        t.ind = kw.get("ind")
        _TERM_TABLE[key] = t
    return t


def dvar(name):
    return _mk_term(("dv", name), "dvar", name=name)


def dconst(name):
    return _mk_term(("dc", name), "dconst", name=name)


def nu0(ind):
    if ind.sort != 0:
        raise IllSorted("nu0 applies to individuals (sort 0), got sort %d" % ind.sort)
    return _mk_term(("n0", id(ind)), "nu0", ind=ind)


def funapp(fn, args):
    args = tuple(args)
    if len(args) != fn.arity:
        raise IllSorted("function %s expects %d arguments, got %d"
                        % (fn.name, fn.arity, len(args)))
    for a, want in zip(args, fn.lsorts):
        if not isinstance(a, LExpr) or a.sort != want:
            raise IllSorted("L-argument of %s has wrong sort" % fn.name)
    for a in args[len(fn.lsorts):]:
        if isinstance(a, LExpr):
            raise IllSorted("domain argument of %s is an L-expression" % fn.name)
    key = ("f", fn) + tuple(id(a) for a in args)
    return _mk_term(key, "fun", fn=fn, args=args)


def is_domain_term(t):
    return isinstance(t, _Term)


def term_sort(t):
    """DOMAIN for meta-language terms, the L-sort for object expressions."""
    return DOMAIN if isinstance(t, _Term) else t.sort


def term_text(t):
    if isinstance(t, LExpr):
        return t.text()
    if t.kind in ("dvar", "dconst"):
        return t.name
    if t.kind == "nu0":
        return "nu0(%s)" % t.ind.text()
    return "%s(%s)" % (t.fn.name, ", ".join(term_text(a) for a in t.args))


def term_is_ground(t):
    if isinstance(t, LExpr):
        return True  # L-expressions are inert data at the term level
    if t.kind == "dvar":
        return False
    if t.kind == "fun":
        return all(term_is_ground(a) for a in t.args if is_domain_term(a))
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


_ATOM_TABLE = {}
_LIT_TABLE = {}


class Atom:
    """An atomic formula: nu_n(E, t1..tn), eq(s, t), P(t1..tn), false,
    or (post-internalization) a bare concept asserted to hold."""

    __slots__ = ("pred", "args")

    def __repr__(self):
        return "Atom(%s)" % self.text()

    def text(self):
        if self.pred[0] == "false":
            return "false"
        if self.pred[0] == "holds":
            return self.args[0].text()
        return "%s(%s)" % (pred_text(self.pred), ", ".join(term_text(a) for a in self.args))


def atom(p, args=()):
    args = tuple(args)
    if p[0] == "nu":
        n = p[1]
        if len(args) != n + 1:
            raise IllSorted("nu%d takes %d arguments" % (n, n + 1))
        if not isinstance(args[0], LExpr) or args[0].sort != n:
            raise IllSorted("first argument of nu%d must be a sort-%d expression" % (n, n))
        for t in args[1:]:
            if not is_domain_term(t):
                raise IllSorted("nu%d takes domain terms after the expression" % n)
    elif p[0] == "eq":
        if len(args) != 2 or term_sort(args[0]) != term_sort(args[1]):
            raise SortMismatch("eq relates two terms of one sort: %s / %s"
                               % (term_text(args[0]), term_text(args[1])))
    elif p[0] == "pred":
        for t in args:
            if not is_domain_term(t):
                raise IllSorted("predicate %s takes domain terms" % p[1])
    elif p[0] == "holds":
        if len(args) != 1 or not isinstance(args[0], LExpr) or args[0].sort != 1:
            raise IllSorted("a held concept must have the primary sort")
    key = (p,) + tuple(id(a) for a in args)
    a = _ATOM_TABLE.get(key)
    if a is None:
        a = object.__new__(Atom)
        a.pred = p
        a.args = args
        _ATOM_TABLE[key] = a
    return a


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
    key = (pos, id(a))
    l = _LIT_TABLE.get(key)
    if l is None:
        l = object.__new__(Literal)
        l.pos = pos
        l.atom = a
        _LIT_TABLE[key] = l
    return l


def pos_lit(a):
    return literal(True, a)


def neg_lit(a):
    return literal(False, a)


# formulae: Atom doubles as the atomic formula

@dataclass(frozen=True)
class Not:
    sub: object


@dataclass(frozen=True)
class And:
    subs: tuple


@dataclass(frozen=True)
class Or:
    subs: tuple


@dataclass(frozen=True)
class Implies:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Equiv:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Forall:
    var: object  # a domain variable; L-sort quantification is rejected upstream
    body: object


@dataclass(frozen=True)
class Exists:
    var: object
    body: object


def formula_text(f):
    if isinstance(f, Atom):
        return f.text()
    if isinstance(f, Not):
        return "not(%s)" % formula_text(f.sub)
    if isinstance(f, And):
        return "and(%s)" % ", ".join(formula_text(s) for s in f.subs)
    if isinstance(f, Or):
        return "or(%s)" % ", ".join(formula_text(s) for s in f.subs)
    if isinstance(f, Implies):
        return "implies(%s, %s)" % (formula_text(f.lhs), formula_text(f.rhs))
    if isinstance(f, Equiv):
        return "iff(%s, %s)" % (formula_text(f.lhs), formula_text(f.rhs))
    if isinstance(f, Forall):
        return "forall %s. %s" % (f.var.name, formula_text(f.body))
    if isinstance(f, Exists):
        return "exists %s. %s" % (f.var.name, formula_text(f.body))
    raise TypeError("not a formula: %r" % (f,))


def subformulas(f):
    yield f
    if isinstance(f, Not):
        yield from subformulas(f.sub)
    elif isinstance(f, (And, Or)):
        for s in f.subs:
            yield from subformulas(s)
    elif isinstance(f, (Implies, Equiv)):
        yield from subformulas(f.lhs)
        yield from subformulas(f.rhs)
    elif isinstance(f, (Forall, Exists)):
        yield from subformulas(f.body)


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
        if t is LExpr:
            out.append(y)
        elif t is _Term:
            out.append(y)
            if y.kind == "fun":
                stack.extend(reversed(y.args))
            elif y.kind == "nu0":
                stack.append(y.ind)
        elif t is Literal:
            stack.append(y.atom)
        elif t is Atom:
            stack.extend(reversed(y.args))
        elif t is Not:
            stack.append(y.sub)
        elif t is And or t is Or:
            stack.extend(reversed(y.subs))
        elif t is Implies or t is Equiv:
            stack += [y.rhs, y.lhs]
        elif t is Forall or t is Exists:
            stack.append(y.body)
        elif t is list or t is tuple:
            stack.extend(reversed(y))
        else:
            raise TypeError("cannot walk %r" % (y,))
    return out


def lexprs_of_formula(x):
    """All object-language expressions occurring in ``x`` (anything
    ``_walk`` takes), nested included."""
    return [s for e in _walk(x) if isinstance(e, LExpr) for s in e.subexprs()]


lexprs_of_term = lexprs_of_atom = lexprs_of_formula


def lvars(x):
    """Object variables of ``x``, in order of first occurrence."""
    return list(dict.fromkeys(e for e in lexprs_of_formula(x) if e.kind == "var"))


def dvars(x):
    """Domain variables of ``x``, bound ones included, in order of first
    occurrence."""
    return list(dict.fromkeys(t for t in _walk(x)
                              if isinstance(t, _Term) and t.kind == "dvar"))


def ground_terms(x):
    """Ground domain terms of ``x``, nested ones included, in order of first
    occurrence."""
    return list(dict.fromkeys(t for t in _walk(x)
                              if isinstance(t, _Term) and term_is_ground(t)))


def free_dvars(f, bound=frozenset()):
    """Free domain variables of a formula, in first-occurrence order."""
    out = []

    def go(g, bnd):
        if isinstance(g, Atom):
            for v in dvars(g):
                if v not in bnd and v not in out:
                    out.append(v)
        elif isinstance(g, Not):
            go(g.sub, bnd)
        elif isinstance(g, (And, Or)):
            for s in g.subs:
                go(s, bnd)
        elif isinstance(g, (Implies, Equiv)):
            go(g.lhs, bnd)
            go(g.rhs, bnd)
        elif isinstance(g, (Forall, Exists)):
            go(g.body, bnd | {g.var})

    go(f, frozenset(bound))
    return out


def is_l_open_sentence(f):
    """True iff every L-variable occurrence is free and no domain variable is.

    Quantifiers in this representation bind domain variables only, so the
    first half holds by construction; the check is for free domain variables.
    """
    return not free_dvars(f)


# ---------------------------------------------------------------------------
# substitution (uniform, simultaneous)

# ``sub`` maps object variables to expressions and domain variables to
# domain terms, as one binding of the matcher below does.

def substitute_expr(e, sub):
    if e.kind == "var":
        r = sub.get(e)
        if r is not None:
            if r.sort != e.sort:
                raise SortMismatch("cannot substitute sort-%d expression for %s"
                                   % (r.sort, e.text()))
            return r
        return e
    if e.kind == "const":
        return e
    return lapp(e.conn, [substitute_expr(a, sub) for a in e.args])


def substitute_term(t, sub):
    if isinstance(t, LExpr):
        return substitute_expr(t, sub)
    if t.kind == "dvar":
        return sub.get(t, t)
    if t.kind == "dconst":
        return t
    if t.kind == "nu0":
        return nu0(substitute_expr(t.ind, sub))
    return funapp(t.fn, [substitute_term(a, sub) for a in t.args])


def substitute_atom(a, sub):
    return atom(a.pred, [substitute_term(t, sub) for t in a.args])


def substitute_literal(l, sub):
    return literal(l.pos, substitute_atom(l.atom, sub))


def substitute_formula(f, sub):
    """Substitute free variables of both kinds; a quantifier shields the
    domain variable it binds."""
    if isinstance(f, Atom):
        return substitute_atom(f, sub)
    if isinstance(f, Not):
        return Not(substitute_formula(f.sub, sub))
    if isinstance(f, And):
        return And(tuple(substitute_formula(s, sub) for s in f.subs))
    if isinstance(f, Or):
        return Or(tuple(substitute_formula(s, sub) for s in f.subs))
    if isinstance(f, Implies):
        return Implies(substitute_formula(f.lhs, sub),
                       substitute_formula(f.rhs, sub))
    if isinstance(f, Equiv):
        return Equiv(substitute_formula(f.lhs, sub),
                     substitute_formula(f.rhs, sub))
    if isinstance(f, (Forall, Exists)):
        if f.var in sub:
            sub = {k: v for k, v in sub.items() if k is not f.var}
        return type(f)(f.var, substitute_formula(f.body, sub))
    raise TypeError("not a formula: %r" % (f,))


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

def match_expr(pattern, value, binding):
    if pattern.kind == "var":
        bound = binding.get(pattern)
        if bound is not None:
            return bound is value
        if not isinstance(value, LExpr) or value.sort != pattern.sort:
            return False
        binding[pattern] = value
        return True
    if pattern is value:
        return True
    if pattern.kind == "app" and isinstance(value, LExpr) and value.kind == "app" \
            and pattern.conn == value.conn:
        return all(match_expr(p, v, binding) for p, v in zip(pattern.args, value.args))
    return False


def match_term(pattern, value, binding):
    if isinstance(pattern, LExpr):
        return isinstance(value, LExpr) and match_expr(pattern, value, binding)
    if not is_domain_term(value):
        return False
    if pattern.kind == "dvar":
        bound = binding.get(pattern)
        if bound is not None:
            return bound is value
        binding[pattern] = value
        return True
    if pattern.kind == "dconst":
        return pattern is value
    if pattern.kind == "nu0":
        return value.kind == "nu0" and match_expr(pattern.ind, value.ind, binding)
    if pattern.kind == "fun":
        if value.kind != "fun" or pattern.fn != value.fn:
            return False
        return all(match_term(p, v, binding) for p, v in zip(pattern.args, value.args))
    return False


def match_literal(pattern, value, binding):
    """Extend ``binding`` so pattern instantiates to ``value``; one-way only.

    Mutates ``binding`` on partial success; callers pass a scratch copy.
    """
    if pattern.pos != value.pos or pattern.atom.pred != value.atom.pred:
        return False
    if len(pattern.atom.args) != len(value.atom.args):
        return False
    return all(match_term(p, v, binding)
               for p, v in zip(pattern.atom.args, value.atom.args))
