"""Text syntax for expressions, terms, formulae and literals.

Everything is prefix application over a comma list, e.g. ``or(p, q)``,
``nu1(exists(r, p), x)``, ``eq(nu0(l), x)``, ``not(nu1(p, x))``, with
quantifiers written ``forall x. ...`` / ``exists y. ...`` extending as far
right as possible.  Comments run from ``#`` to end of line.

The same token in different positions can denote an object-language
connective or a first-order connective (``or(p, q)`` inside ``nu1`` is a
concept; at formula level it is disjunction).  Parsing builds a generic tree
first and elaborates it against the expected kind.
"""

from __future__ import annotations

from . import syntax as sx


class SpecSyntaxError(sx.TabError):
    def __init__(self, message, line=None, col=None):
        at = "" if line is None else " at %s:%s" % (line, "?" if col is None else col)
        super().__init__(message + at)


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return "Token(%s, %r)" % (self.kind, self.value)


_PUNCT = {"(": "lpar", ")": "rpar", ",": "comma", ".": "dot", "|": "bar",
          "/": "slash", ":": "colon", "[": "lbrk", "]": "rbrk"}


def tokenize(text, line_offset=1):
    toks = []
    line, col = line_offset, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        two = text[i:i + 3]
        if two == "<->":
            toks.append(Token("equiv", "<->", line, col))
            i += 3
            col += 3
            continue
        if text[i:i + 2] == "->":
            toks.append(Token("arrow", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT:
            toks.append(Token(_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise SpecSyntaxError("unexpected character %r" % ch, line, col)
    toks.append(Token("eof", None, line, col))
    return toks


# generic parse tree: ("app", name, [trees]) | ("name", name) | ("quant", q, var, tree)

class TreeParser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t.kind != kind:
            raise SpecSyntaxError("expected %s, found %r" % (kind, t.value), t.line, t.col)
        return t

    def at_end(self):
        return self.peek().kind == "eof"

    def tree(self):
        t = self.peek()
        if t.kind == "name" and t.value in ("forall", "exists") \
                and self.toks[self.i + 1].kind == "name" \
                and self.toks[self.i + 2].kind == "dot":
            # quantifier form `forall x. ...`; `exists(...)` may instead be an
            # object connective application, handled below
            self.next()
            var = self.expect("name")
            self.expect("dot")
            body = self.tree()
            return ("quant", t.value, var.value, body, t)
        if t.kind != "name":
            raise SpecSyntaxError("expected an identifier, found %r" % t.value,
                                  t.line, t.col)
        self.next()
        if self.peek().kind == "lpar":
            self.next()
            args = []
            if self.peek().kind != "rpar":
                args.append(self.tree())
                while self.peek().kind == "comma":
                    self.next()
                    args.append(self.tree())
            self.expect("rpar")
            return ("app", t.value, args, t)
        return ("name", t.value, t)


class Elaborator:
    """Turns generic trees into L-expressions, terms, formulae, literals."""

    def __init__(self, sig, skolems=None):
        self.sig = sig
        self.skolems = dict(skolems or {})

    def _err(self, msg, tok):
        raise SpecSyntaxError(msg, tok.line, tok.col)

    # -- L-expressions ------------------------------------------------------
    def lexpr(self, tree, want_sort=None):
        tok = tree[-1]
        if tree[0] == "quant":
            self._err("quantifier not allowed inside an expression", tok)
        name = tree[1]
        cls = self.sig.classify_name(name)
        if tree[0] == "name":
            if cls is None:
                self._err("unknown symbol %r" % name, tok)
            if cls[0] == "conn" and cls[1].arity == 0:
                e = sx.app(cls[1], [])
            elif cls[0] == "var":
                e = sx.lvar(cls[1], name)
            elif cls[0] == "const":
                e = sx.lconst(cls[1], name)
            else:
                self._err("%r is not an object-language expression" % name, tok)
            return self._want(e, want_sort, tok)
        if cls is None or cls[0] != "conn":
            self._err("unknown connective %r" % name, tok)
        conn = cls[1]
        args = tree[2]
        if len(args) != conn.arity:
            self._err("connective %s expects %d arguments, got %d"
                      % (name, conn.arity, len(args)), tok)
        ex = [self.lexpr(a, s) for a, s in zip(args, conn.arg_sorts)]
        return self._want(sx.app(conn, ex), want_sort, tok)

    def _want(self, e, want_sort, tok):
        if want_sort is not None and e.sort != want_sort:
            self._err("expression %s has sort %d, expected %d"
                      % (e.text(), e.sort, want_sort), tok)
        return e

    # -- terms --------------------------------------------------------------
    def term(self, tree):
        """A domain term or an L-expression, whichever the tree denotes."""
        tok = tree[-1]
        if tree[0] == "quant":
            self._err("quantifier not allowed inside a term", tok)
        name = tree[1]
        if tree[0] == "app":
            fn = sx.NU0 if name == "nu0" else self.skolems.get(name)
            if fn is None:
                return self.lexpr(tree)
            args = tree[2]
            if len(args) != fn.arity:
                self._err("function %s expects %d arguments" % (name, fn.arity), tok)
            out = []
            for a, s in zip(args, fn.arg_sorts):
                t = self.lexpr(a, s) if s != sx.DOMAIN else self.term(a)
                if t.sort != s:
                    self._err("domain argument expected in %s" % name, tok)
                out.append(t)
            return sx.app(fn, out)
        cls = self.sig.classify_name(name)
        if cls is None:
            self._err("unknown symbol %r" % name, tok)
        if cls[0] == "dvar":
            return sx.dvar(name)
        if cls[0] == "dconst":
            return sx.dconst(name)
        return self.lexpr(tree)

    # -- formulae -----------------------------------------------------------
    def formula(self, tree):
        tok = tree[-1]
        if tree[0] == "quant":
            _, q, vname, body, _ = tree
            cls = self.sig.classify_name(vname)
            if cls is None or cls[0] != "dvar":
                self._err("quantifiers bind domain variables only, not %r" % vname, tok)
            return sx.formula(q, (self.formula(body),), sx.dvar(vname))
        name = tree[1]
        if tree[0] == "name":
            if name == "false":
                return sx.FALSE
            self._err("%r is not a formula" % name, tok)
        args = tree[2]
        if name == "not":
            if len(args) != 1:
                self._err("not takes one formula", tok)
        elif name == "and" or name == "or":
            # only a first-order connective in formula position
            if len(args) < 2:
                self._err("%s takes at least two formulae" % name, tok)
        elif name == "implies" or name == "iff":
            if len(args) != 2:
                self._err("%s takes two formulae" % name, tok)
        else:
            return self.atomic(tree)
        return sx.formula(name, [self.formula(a) for a in args])

    def atomic(self, tree):
        tok = tree[-1]
        name = tree[1]
        args = tree[2] if tree[0] == "app" else []
        if name == "false" and not args:
            return sx.FALSE
        if name.startswith("nu") and name[2:].isdigit():
            n = int(name[2:])
            if n == 0:
                self._err("nu0 is a term, not an atom", tok)
            if n > self.sig.max_sort:
                self._err("no sort %d in this signature" % n, tok)
            if len(args) != n + 1:
                self._err("nu%d takes %d arguments" % (n, n + 1), tok)
            e = self.lexpr(args[0], n)
            ts = [self.term(a) for a in args[1:]]
            return sx.atom(sx.nu(n), [e] + ts)
        if name == "eq":
            if len(args) != 2:
                self._err("eq takes two terms", tok)
            return sx.atom(sx.EQ, [self.term(args[0]), self.term(args[1])])
        cls = self.sig.classify_name(name)
        if cls is not None and cls[0] == "pred":
            arity = self.sig.preds[name]
            if len(args) != arity:
                self._err("predicate %s takes %d arguments" % (name, arity), tok)
            return sx.atom(sx.pred(name), [self.term(a) for a in args])
        self._err("%r is not an atom" % name, tok)

    # -- rule literals ------------------------------------------------------
    def rule_literal(self, tree):
        """An atom, ``not(atom)``, or (internalized calculi) a bare concept."""
        tok = tree[-1]
        name = tree[1] if tree[0] != "quant" else None
        if tree[0] == "app" and name == "not" and len(tree[2]) == 1:
            inner = tree[2][0]
            try:
                return self.atomic(inner).negate()
            except SpecSyntaxError:
                pass  # fall through: the whole tree may be a concept
        try:
            if name == "false" and tree[0] == "name":
                return sx.FALSE
            return self.atomic(tree)
        except SpecSyntaxError:
            pass
        try:
            e = self.lexpr(tree, 1)
        except SpecSyntaxError:
            self._err("cannot read literal", tok)
        return sx.atom(sx.HOLDS, [e])


def _parse_with(text, fn, line_offset=1):
    tp = TreeParser(tokenize(text, line_offset))
    tree = tp.tree()
    if not tp.at_end():
        t = tp.peek()
        raise SpecSyntaxError("trailing input %r" % t.value, t.line, t.col)
    return fn(tree)


def parse_lexpr(sig, text, want_sort=None, line_offset=1):
    return _parse_with(text, lambda t: Elaborator(sig).lexpr(t, want_sort), line_offset)


def parse_formula(sig, text, skolems=None, line_offset=1):
    return _parse_with(text, Elaborator(sig, skolems).formula, line_offset)


def parse_term(sig, text, skolems=None, line_offset=1):
    return _parse_with(text, Elaborator(sig, skolems).term, line_offset)


def parse_rule_literal(sig, text, skolems=None, line_offset=1):
    return _parse_with(text, Elaborator(sig, skolems).rule_literal, line_offset)


# ---------------------------------------------------------------------------
# line-oriented files (.spec, .calc, .ctx, .refine, problems)

def content_lines(text):
    """``(lineno, line)`` for every line left non-blank once its ``#``
    comment is cut off."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def read_directives(text, handle, errors=None):
    """Call ``handle(lineno, word, rest)`` for every directive line; the
    first run of whitespace separates the word from the rest.

    A ValueError or IndexError from the handler (a missing field, a number
    that is none) reports the directive as malformed at its line.  Errors
    propagate at once, or are collected in ``errors`` when a list is given.
    """
    for lineno, line in content_lines(text):
        word, *rest = line.split(None, 1)
        try:
            try:
                handle(lineno, word, rest[0] if rest else "")
            except (ValueError, IndexError):
                raise SpecSyntaxError("malformed %r directive" % word, lineno)
        except sx.TabError as e:
            if errors is None:
                raise
            errors.append(e)


def parse_connective(rest):
    """A connective directive's ``name s1 .. sn -> s``."""
    head, _, res = rest.partition("->")
    name, *arg_sorts = head.split()
    return sx.Conn(name, tuple(int(s) for s in arg_sorts), int(res))


def connective_text(c):
    sorts = "".join(" %d" % s for s in c.arg_sorts)
    return "connective %s%s -> %d" % (c.name, sorts, c.res_sort)


class SignatureBlock:
    """The ``sorts``/``vars``/``consts``/``connective``/``predicate``
    directives that ``.spec`` and ``.calc`` files share, read one at a time."""

    def __init__(self):
        self.n_sorts = None
        self.prefixes = {"vars": {}, "consts": {}}
        self.conns, self.preds = [], {}

    def read(self, word, rest):
        """Take one directive; False when it is no signature directive."""
        if word == "sorts":
            self.n_sorts = int(rest)
        elif word in self.prefixes:
            sort, *names = rest.split()
            self.prefixes[word].setdefault(int(sort), []).extend(names)
        elif word == "connective":
            self.conns.append(parse_connective(rest))
        elif word == "predicate":
            name, arity = rest.split()
            self.preds[name] = int(arity)
        else:
            return False
        return True

    def signature(self):
        if self.n_sorts is None:
            raise SpecSyntaxError("missing 'sorts' directive")
        return sx.LSignature(self.n_sorts, self.conns, self.prefixes["vars"],
                             self.prefixes["consts"], self.preds)


def print_signature(sig):
    """The signature directives of ``sig``, one line each."""
    out = ["sorts %d" % sig.n_lsorts]
    for s in range(sig.n_lsorts):
        for word, prefixes in (("vars", sig.var_prefixes),
                               ("consts", sig.const_prefixes)):
            if prefixes[s]:
                out.append("%s %d %s" % (word, s, " ".join(prefixes[s])))
    out.extend(connective_text(c) for c in sig.conns.values())
    out.extend("predicate %s %d" % item for item in sig.preds.items())
    return out
