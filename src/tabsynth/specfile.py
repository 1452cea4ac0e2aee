"""The ``.spec`` file format: signature plus semantic sentences.

A specification file is line oriented (``#`` comments):

    sorts 3                      # object sorts 0..2
    vars 1 p q                   # variable name families per sort
    connective or 1 1 -> 1
    predicate R 2
    define forall x. nu1(or(p, q), x) <-> or(nu1(p, x), nu1(q, x))
    define+ forall x. nu1(E, x) -> body          # extra one-directional sentence
    define- forall x. body -> nu1(E, x)
    axiom forall x. forall y. forall z. implies(...)

``define`` gives the connective definitions (one per connective, mandatory);
``define+``/``define-`` add optional one-directional sentences, possibly for
compound head expressions; ``axiom`` sentences form the background theory.
The standard equality axioms (reflexivity, symmetry, transitivity and
congruence for every predicate and function) are implicit in every
specification; they surface as the default equality rules during synthesis.
"""

from __future__ import annotations

import importlib.resources

from . import syntax as sx
from .parser import (Elaborator, SignatureBlock, SpecSyntaxError, TreeParser,
                     print_signature, read_directives, tokenize)


class UndefinedConnective(sx.TabError):
    pass


class DuplicateDefinition(sx.TabError):
    pass


class NotLOpen(sx.TabError):
    pass


class ConnectiveSelfReference(sx.TabError):
    pass


class UnknownPreset(sx.TabError):
    pass


class SpecErrors(sx.TabError):
    """Bundle of errors found while reading a specification."""

    def __init__(self, errors):
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = list(errors)


class Definition:
    """One connective definition: forall xs. nu_n(sigma(ps), xs) <-> body."""

    def __init__(self, conn, head_atom, body, dom_vars):
        self.conn = conn
        self.head_atom = head_atom      # the atom nu_n(sigma(p1..pm), x1..xn)
        self.body = body                # the defining formula
        self.dom_vars = dom_vars        # (x1..xn) in prefix order

    def sentence(self):
        return sx.forall_each(self.dom_vars,
                              sx.formula("iff", (self.head_atom, self.body)))


class DirectedSentence:
    """A pre-split sentence: head -> body (plus) or body -> head (minus)."""

    def __init__(self, polarity, head_atom, body, dom_vars):
        self.polarity = polarity        # "+" or "-"
        self.head_atom = head_atom
        self.body = body
        self.dom_vars = dom_vars

    def sentence(self):
        pair = (self.head_atom, self.body) if self.polarity == "+" \
            else (self.body, self.head_atom)
        return sx.forall_each(self.dom_vars, sx.formula("implies", pair))


class SemanticSpec:
    def __init__(self, name, signature, definitions, axioms, directed=()):
        self.name = name
        self.signature = signature
        self.definitions = list(definitions)   # in declaration order
        self.axioms = list(axioms)             # background sentences (L-open)
        self.directed = list(directed)         # extra define+/define- sentences

    def definition_of(self, conn_name):
        for d in self.definitions:
            if d.conn.name == conn_name:
                return d
        raise UndefinedConnective(conn_name)


def _parse_quant_prefix(tp, sig):
    """Leading ``forall v.`` tokens of a define line; returns the dvars."""
    dvs = []
    while tp.peek().kind == "name" and tp.peek().value == "forall":
        save = tp.i
        tp.next()
        v = tp.expect("name")
        cls = sig.classify_name(v.value)
        if cls is None or cls[0] != "dvar":
            tp.i = save
            break
        tp.expect("dot")
        dvs.append(sx.dvar(v.value))
    return dvs


def _head_shape(at, line):
    """Check a head atom nu_n(E(p1..pm), x1..xn); returns (expr, dom vars)."""
    if type(at) is not sx.Literal or at.pred[0] != "nu":
        raise SpecSyntaxError("head must be a nu atom", line)
    e = at.args[0]
    seen = []
    for v in at.args[1:]:
        if v.sort != sx.DOMAIN or v.kind != "var" or v in seen:
            raise SpecSyntaxError("head positions must be distinct domain variables",
                                  line)
        seen.append(v)
    return e, seen


def parse_spec(text, name="spec"):
    """Parse and validate a specification document."""
    errors = []
    block = SignatureBlock()
    body_lines = []  # (kind, rest-of-line, lineno)

    def directive(lineno, word, rest):
        if word in ("define", "define+", "define-", "axiom"):
            body_lines.append((word, rest, lineno))
        elif not block.read(word, rest):
            raise SpecSyntaxError("unknown directive %r" % word, lineno)

    read_directives(text, directive, errors)
    if errors and block.n_sorts is not None:
        raise SpecErrors(errors)
    try:
        sig = block.signature()
    except sx.TabError as e:
        raise SpecErrors(errors + [e])

    el = Elaborator(sig)
    definitions, axioms, directed = [], [], []
    for word, rest, lineno in body_lines:
        try:
            tp = TreeParser(tokenize(rest, lineno))
            if word == "axiom":
                f = el.formula(tp.tree())
                if not tp.at_end():
                    raise SpecSyntaxError("trailing input", lineno)
                if sx.free_dvars(f):
                    raise NotLOpen("free domain variable in axiom (line %d): %s"
                                   % (lineno, sx.formula_text(f)))
                axioms.append(f)
                continue
            dvs = _parse_quant_prefix(tp, sig)
            lhs = el.formula(tp.tree())
            conn_tok = tp.next()
            if word == "define" and conn_tok.kind != "equiv":
                raise SpecSyntaxError("define uses <->", lineno, conn_tok.col)
            if word in ("define+", "define-") and conn_tok.kind != "arrow":
                raise SpecSyntaxError("%s uses ->" % word, lineno, conn_tok.col)
            rhs = el.formula(tp.tree())
            if not tp.at_end():
                raise SpecSyntaxError("trailing input", lineno)

            if word == "define" or word == "define+":
                head, body = lhs, rhs
            else:
                head, body = rhs, lhs
            e, head_dvs = _head_shape(head, lineno)
            if [v.name for v in head_dvs] != [v.name for v in dvs]:
                raise SpecSyntaxError("quantifier prefix must list the head's "
                                      "domain variables in order", lineno)
            sent_free = sx.free_dvars(body, bound=set(dvs))
            if word == "define":
                if e.kind != "app":
                    raise SpecSyntaxError("define head must apply a connective", lineno)
                if any(a.kind != "var" for a in e.args):
                    raise SpecSyntaxError("define head arguments must be variables",
                                          lineno)
                if len(set(e.args)) != len(e.args):
                    raise SpecSyntaxError("define head variables must be distinct",
                                          lineno)
                if sent_free:
                    raise NotLOpen("free domain variable %s in definition body"
                                   % sent_free[0].name)
                if any(x.kind == "app" and x.sym is e.sym
                       for x in sx.lexprs_of_formula(body)):
                    raise ConnectiveSelfReference(e.name)
                definitions.append(Definition(e.sym, head, body, head_dvs))
            else:
                if sent_free:
                    raise NotLOpen("free domain variable %s" % sent_free[0].name)
                directed.append(DirectedSentence("+" if word == "define+" else "-",
                                                 head, body, head_dvs))
        except sx.TabError as exc:
            errors.append(exc)
    if errors:
        raise SpecErrors(errors)

    defined = {}
    for d in definitions:
        if d.conn.name in defined:
            errors.append(DuplicateDefinition(d.conn.name))
        defined[d.conn.name] = d
    for cname in sig.conns:
        if cname not in defined:
            errors.append(UndefinedConnective(cname))
    if errors:
        raise SpecErrors(errors)
    return SemanticSpec(name, sig, definitions, axioms, directed)


def print_spec(spec):
    """Canonical text of a specification; parse(print(s)) == s."""
    out = print_signature(spec.signature)
    for d in spec.definitions:
        pre = "".join("forall %s. " % v.name for v in d.dom_vars)
        out.append("define %s%s <-> %s"
                   % (pre, d.head_atom.text(), sx.formula_text(d.body)))
    for ds in spec.directed:
        pre = "".join("forall %s. " % v.name for v in ds.dom_vars)
        if ds.polarity == "+":
            out.append("define+ %s%s -> %s"
                       % (pre, ds.head_atom.text(), sx.formula_text(ds.body)))
        else:
            out.append("define- %s%s -> %s"
                       % (pre, sx.formula_text(ds.body), ds.head_atom.text()))
    for ax in spec.axioms:
        out.append("axiom %s" % sx.formula_text(ax))
    return "\n".join(out) + "\n"


def preset_text(name):
    presets = importlib.resources.files("tabsynth").joinpath("presets")
    res = presets.joinpath("%s.spec" % name)
    if not res.is_file():
        raise UnknownPreset("unknown preset %r (bundled: %s)" % (name, ", ".join(
            sorted(f.name[:-5] for f in presets.iterdir()
                   if f.name.endswith(".spec")))))
    return res.read_text(encoding="utf-8")


def preset(name):
    """One of the bundled specifications, exactly as shipped."""
    return parse_spec(preset_text(name), name=name)
