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
                     read_directives, tokenize)


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
        raise sx.TabError("connective %s has no definition" % conn_name)


def _peel_quant_prefix(tree, sig):
    """The domain variables of the ``forall v.`` nodes that open a define
    line's left side, and the tree under them."""
    dvs = []
    while tree[0] == "quant" and tree[1] == "forall":
        cls = sig.classify_name(tree[2])
        if cls is None or cls[0] != "dvar":
            break
        dvs.append(sx.dvar(tree[2]))
        tree = tree[3]
    return dvs, tree


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
        raise _joined(errors)
    try:
        sig = block.signature()
    except sx.TabError as e:
        raise _joined(errors + [e])

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
                    raise sx.TabError("free domain variable in axiom (line %d): %s"
                                      % (lineno, sx.formula_text(f)))
                axioms.append(f)
                continue
            dvs, lhs = _peel_quant_prefix(tp.tree(), sig)
            lhs = el.formula(lhs)
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
                    raise sx.TabError("free domain variable %s in definition body"
                                      % sent_free[0].name)
                if any(x.kind == "app" and x.sym is e.sym
                       for x in sx.lexprs_of_formula(body)):
                    raise sx.TabError("definition of %s mentions %s"
                                      % (e.name, e.name))
                definitions.append(Definition(e.sym, head, body, head_dvs))
            else:
                if sent_free:
                    raise sx.TabError("free domain variable %s" % sent_free[0].name)
                directed.append(DirectedSentence("+" if word == "define+" else "-",
                                                 head, body, head_dvs))
        except sx.TabError as exc:
            errors.append(exc)
    if errors:
        raise _joined(errors)

    defined = {}
    for d in definitions:
        if d.conn.name in defined:
            errors.append("connective %s is defined twice" % d.conn.name)
        defined[d.conn.name] = d
    for cname in sig.conns:
        if cname not in defined:
            errors.append("connective %s has no definition" % cname)
    if errors:
        raise _joined(errors)
    return SemanticSpec(name, sig, definitions, axioms, directed)


def _joined(errors):
    """One error whose message joins every error found in a specification."""
    return sx.TabError("; ".join(str(e) for e in errors))


def preset_text(name):
    presets = importlib.resources.files("tabsynth").joinpath("presets")
    bundled = sorted(f.name[:-5] for f in presets.iterdir()
                     if f.name.endswith(".spec"))
    if name not in bundled:  # a bundled name, never a path
        raise sx.TabError("unknown preset %r (bundled: %s)"
                          % (name, ", ".join(bundled)))
    return presets.joinpath(name + ".spec").read_text(encoding="utf-8")


def preset(name):
    """One of the bundled specifications, exactly as shipped."""
    return parse_spec(preset_text(name), name=name)
