"""Executing a calculus: branches, rule matching, blocking, verdicts.

A branch is a growing set of ground literals, kept once, in a dict from
each literal, in order of arrival, to its terms; two functions picked per
engine (:func:`_reader`) read a literal's terms and the equality pair it
states, once, as it arrives.  The branch files each literal in an index
under the prefixes of its key path (:func:`_path`).  Rule premises are
matched one-way against branch literals (no unification of branch terms).
The calculus is compiled whole on its first use into a generated round
kept on the calculus (:func:`_compile_round`), which matches each premise
inline in its loop, and each rule into a :class:`RulePlan` kept on the
rule: its priority, its variable slots, and one generated function per
denominator.  ``tests/test_engine.py`` holds the generated matchers to a
tree-walking reference matcher of its own, the inline round to the
counted one, and the denominators to ``syntax.substitute_literal``.
Each round queues only the instances that use a literal added since the
round before (semi-naive evaluation), so every instance is queued once.  A
step takes none, one or all of an instance's denominators
(:meth:`Engine.collect`): it closes the branch, extends it in place, or
splits it.  Then the instance asks for nothing more, with no record of
the applied ones: the branch it extends, or each child, holds a
denominator it took.

Each branch queues its instances on a heap by the priority fixed in their
rule's plan (see :class:`RulePlan`), then by discovery order.  With blocking
enabled the engine restricts term-producing rules: once an equality
``t = t'`` between a younger and an older term is on the branch, no
term-producing rule is applied to literals mentioning the younger term.  A
blocking pair queued before the branch's ``depth``-th term-producing step
gets priority 5 and keeps it, so it waits behind term production; a pair
queued from then on gets the plan's 3 and goes before term production.  At
depth 0 every pair gets 3.
Exploration is one loop over a deque of open branches, depth-first by
default with the denominators in rule order; equal-conjecture branches
therefore come first, which keeps models small.
Branches are independent once created (each owns its state and the calculus
is immutable), so distinct open branches could be explored by parallel
workers; this driver explores them sequentially.
"""

from __future__ import annotations

import bisect
import collections
import heapq
import operator
import time

from . import syntax as sx


_POSITION = operator.itemgetter(1)  # a candidate's index on its branch


# ---------------------------------------------------------------------------
# the literal reader: what counts as a term and an equality

def _domain_eq(lit):
    """(t, t') when ``lit`` is a positive equality between ground domain
    terms; t is t' for the domain marker t = t."""
    if lit.pos and lit.pred[0] == "eq" and lit.args[0].sort == sx.DOMAIN \
            and all(map(sx.term_is_ground, lit.args)):
        return lit.args
    return None


def _held_terms(lit):
    # branch literals are fully instantiated, so any sort-0 subexpression of
    # a held concept is an individual of the derivation
    if lit.pred[0] != "holds":
        return []
    return [e for e in lit.args[0].subexprs() if e.sort == 0]


def _reader(calc):
    """The terms of a branch literal and the equality pair it states (or
    None), as ``calc`` reads them: a base calculus reads its domain
    literals, an internalized one the concepts its ``holds`` literals hold,
    through its ``d+ eq`` template."""
    if calc.mode != "internalized":
        return sx.ground_terms, _domain_eq
    deq_plus = calc.ctx.templates["d+"].get("eq")

    def held_eq(lit):
        if lit.pred[0] == "holds" and deq_plus is not None:
            return deq_plus.match(lit.args[0])
        return None
    return _held_terms, held_eq


# ---------------------------------------------------------------------------
# branches

def _path(lit):
    """The key path of a literal or a premise: its sign and predicate, then,
    for a ``nu`` or ``holds`` literal whose first argument is compound, that
    argument's symbol.  A branch files a literal under every prefix of its
    path of length two or more; a premise reads its whole path."""
    p = lit.pred
    if p[0] in ("nu", "holds") and lit.args and lit.args[0].kind == "app":
        return (lit.pos, p, lit.args[0].sym)
    return (lit.pos, p)


class Branch:
    __slots__ = ("bid", "literals", "index", "term_birth", "seen_next",
                 "tp_count", "closed", "blocked", "markers", "heap",
                 "scan_upto")

    def __init__(self, bid):
        self.bid = bid
        self.literals = {}     # literal -> its terms, in order of arrival
        self.index = {}        # path prefix -> [(literal, arrival index)]
        self.term_birth = {}
        self.seen_next = 0
        self.tp_count = 0
        self.closed = False
        self.blocked = set()   # younger terms equated to an older one
        self.markers = {}      # term -> index of its first reflexive marker
        # (priority, seen, rule, binding, terms) of the instances discovered;
        # applied ones are dropped when they reach the top (see collect)
        self.heap = []
        self.scan_upto = 0     # literals before this index are fully matched

    def clone(self, bid):
        b = Branch(bid)
        b.literals = self.literals.copy()
        b.index = {k: v.copy() for k, v in self.index.items()}
        b.term_birth = self.term_birth.copy()
        b.seen_next = self.seen_next
        b.tp_count = self.tp_count
        b.closed = self.closed
        b.blocked = self.blocked.copy()
        b.markers = self.markers.copy()
        b.heap = self.heap.copy()
        b.scan_upto = self.scan_upto
        return b

    def add(self, lit, eng):
        """Add ``lit`` if new, read by ``eng``'s reader; whether it was new."""
        if lit in self.literals:
            return False
        idx = len(self.literals)
        terms = self.literals[lit] = tuple(eng.terms_of(lit))
        path = _path(lit)
        for n in range(2, len(path) + 1):
            self.index.setdefault(path[:n], []).append((lit, idx))
        if lit.pos and lit.pred[0] == "false":
            self.closed = True
        for t in terms:
            if t not in self.term_birth:
                self.term_birth[t] = len(self.term_birth)
        pair = eng.eq_pair(lit)
        if pair is None:
            return True
        t1, t2 = pair
        if t1 is t2:
            self.markers.setdefault(t1, idx)
        else:
            b1 = self.term_birth.get(t1)
            b2 = self.term_birth.get(t2)
            if b1 is not None and b2 is not None and b1 != b2:
                self.blocked.add(t1 if b1 > b2 else t2)
        return True


# ---------------------------------------------------------------------------
# rule plans: each rule compiled whole, on its first use

class RulePlan:
    """A rule compiled for the engine, kept on the rule (``rule.plan``).

    ``slots`` are the rule's variables: the object ones, then the domain
    ones, each in order of first occurrence over the premises.
    ``denominators`` are one generated function per denominator from a
    binding to its literals (``sx.compile_substitution``).  ``priority``
    orders the rule's instances on the heap, lowest first: closure 0,
    equality 1, other non-branching 2, branching and blocking 3,
    term-producing 4.  The calculus's round (:func:`_compile_round`)
    matches the other rules' premises itself, and calls
    :meth:`blocking_pairs` for the blocking rule.
    """

    __slots__ = ("priority", "slots", "denominators")

    def __init__(self, rule):
        self.priority = (0 if rule.is_closure() else
                         1 if rule.kind == "equality" else
                         3 if rule.kind == "blocking" else
                         4 if rule.produces_terms else
                         2 if rule.branching_factor <= 1 else 3)
        self.slots = tuple(sx.lvars(rule.premises) + sx.dvars(rule.premises))
        self.denominators = tuple(sx.compile_substitution(d)
                                  for d in rule.denominators)

    def blocking_pairs(self, branch, new_from):
        """The blocking rule's instances as bindings: pairs of marked terms
        in birth order, each premise binding one, with a marker literal at or
        after ``new_from``.  Markers arrive in index order, so the newest is
        the last one in ``branch.markers``.  A term with an old marker is
        paired only with the later-born terms whose markers are new."""
        markers = branch.markers
        if not markers or next(reversed(markers.values())) < new_from:
            return
        v1, v2 = self.slots
        marked = sorted(markers, key=branch.term_birth.__getitem__)
        fresh = [t for t in marked if markers[t] >= new_from]
        k = 0  # fresh terms born up to t1
        for i, t1 in enumerate(marked):
            if markers[t1] >= new_from:
                k += 1
                partners = marked[i + 1:]
            else:
                partners = fresh[k:]
            for t2 in partners:
                yield {v1: t1, v2: t2}


def _plan(rule):
    plan = rule.plan
    if plan is None:
        plan = rule.plan = RulePlan(rule)
    return plan


def _compile_round(calc, counted):
    """The generated ``round(branch, early)`` of a calculus, kept on it
    (``calc.round[counted]``): it queues on ``branch`` every instance that
    matches a premise to a literal added since the round before, rule by
    rule in calculus order, and marks the branch's literals as matched.  No
    such instance was queued before; an applied one has a denominator
    wholly on the branch, so :meth:`Engine.collect` drops it.  ``early``
    holds the blocking rule's pairs back (priority 5).

    Each index bucket a premise reads, its whole key path (:func:`_path`),
    is looked up once per round, with whether it holds a new literal
    (``N<k>``) and its new literals (``T<k>``).  A rule runs only when one
    of its buckets has a new literal, as one ``for`` loop per premise,
    nested in premise order: level ``i`` walks its bucket under the
    binding of the levels before it, whole if an earlier level matched a
    new literal (``u<i>``) or a later premise's bucket has one, its new
    literals otherwise.  An attempt runs the premise's tests
    (``sx.emit_match``) inline: a variable the premise binds is a local,
    one an earlier premise bound is compared to its local, and an instance
    gets a dict of them in order of binding, and the terms of its matched
    literals from ``branch.literals`` if its rule produces terms.

    The ``counted`` round, which :meth:`Engine._discover` runs while a
    counter wraps ``sx.match_literal``, makes each attempt one call of it
    on one scratch binding: a failed match leaves it as it was, a level
    removes what its premise bound before its next candidate, and an
    instance gets a copy.
    """
    g = sx.Codegen()
    keys, code = {}, []  # keys: a premise's path -> k of B<k>, N<k>, T<k>
    for rule in calc.rules:
        plan = _plan(rule)
        entry = "%s, s, %s" % (plan.priority, g.const(rule))
        if rule.kind == "blocking":
            code += ["for bb in %s(branch, new_from):"
                     % g.const(plan.blocking_pairs),
                     " push(heap, (5 if early else %s, bb, ())); s += 1"
                     % entry]
            continue
        prems = rule.premises
        ks = [keys.setdefault(_path(p), len(keys)) for p in prems]
        # new_in[i]: a bucket of premise i or of a later one has a new literal
        new_in = [" or ".join("N%d" % k for k in sorted(set(ks[i:])))
                  for i in range(len(ks))]
        code.append("if %s:" % (new_in[0] if prems else "not new_from"))
        bound, dels, binding = {}, [], []  # bound: variable -> its local
        for i, (p, k) in enumerate(zip(prems, ks)):
            ind = " " * (i + 1)
            whole = (["u%d" % i] if i else []) + new_in[i + 1:i + 2]
            rest = "B%d if %s else T%d" % (k, " or ".join(whole), k) \
                if whole else "T%d" % k
            code.append("%sfor l%d, i%d in %s:" % (ind, i, i, rest))
            if counted:
                code.append("%s if not match(%s, l%d, b): continue"
                            % (ind, g.const(p), i))
                new = [v for v in sx.lvars(p) + sx.dvars(p) if v not in bound]
                bound.update(dict.fromkeys(new))
                if new:
                    dels.append("%s del %s" % (ind, ", ".join(
                        "b[%s]" % g.const(v) for v in new)))
            else:
                tests, new = sx.emit_match(g, p, "l%d" % i, "continue",
                                           "l%d" % i, bound)
                code += ["%s %s" % (ind, t) for t in tests]
                code += ["%s if %s.sort != %d: continue" % (ind, n, sort)
                         for _, _, n, sort in new if sort is not None]
                bound.update((v, n) for v, _, n, _ in new)
                binding += ["%s: %s" % (c, n) for _, c, n, _ in new]
            if i < len(prems) - 1:
                code.append("%s u%d = %si%d >= new_from"
                            % (ind, i + 1, "u%d or " % i if i else "", i))
        ind = " " * (len(prems) + 1)
        terms = "tuple({%s})" % ", ".join("*lits[l%d]" % i
                                          for i in range(len(prems))) \
            if rule.produces_terms and prems else "()"
        code.append("%spush(heap, (%s, %s, %s)); s += 1" % (
            ind, entry, "dict(b)" if counted else "{%s}" % ", ".join(binding),
            terms))
        code += reversed(dels)
    bisect_, pos = g.const(bisect.bisect_left), g.const(_POSITION)
    head = ["new_from = branch.scan_upto",
            "branch.scan_upto = len(branch.literals)",
            "lits, index, heap = branch.literals, branch.index, branch.heap"]
    if counted:
        head += ["match, push = %s.match_literal, %s"
                 % (g.const(sx), g.const(heapq.heappush)),
                 "s, b = branch.seen_next, {}"]
    else:
        head += ["push = %s" % g.const(heapq.heappush), "s = branch.seen_next"]
    for key, k in keys.items():
        head += ["B%d = index.get(%s, ())" % (k, g.const(key)),
                 "N%d = bool(B%d) and B%d[-1][1] >= new_from" % (k, k, k),
                 "T%d = B%d[%s(B%d, new_from, key=%s):] if N%d else ()"
                 % (k, k, bisect_, k, pos, k)]
    return g.function("round(branch, early)",
                      head + code + ["branch.seen_next = s"])


class Tableau:
    def __init__(self, root_branch):
        self.root = root_branch
        self.next_bid = root_branch.bid + 1


class Verdict:
    def __init__(self, kind, branch=None, budget=None):
        self.kind = kind  # "unsat" | "sat" | "limit"
        self.branch = branch
        self.budget = budget  # the one a "limit" ran out of: "nodes" | "seconds"

    def __repr__(self):
        return "Verdict(%s)" % self.kind


# ---------------------------------------------------------------------------
# the engine

class Engine:
    def __init__(self, calc, ns=None, node_budget=10 ** 6, time_budget=None,
                 search="dfs", trace=False):
        if node_budget < 0:
            raise sx.TabError("node budget must be >= 0, not %d" % node_budget)
        if time_budget is not None and not time_budget >= 0:  # NaN too
            raise sx.TabError("time budget must be >= 0 seconds, not %g"
                              % time_budget)
        self.calc = calc
        self.ns = ns
        self.node_budget = node_budget
        self.time_budget = time_budget
        self.search = search
        self.terms_of, self.eq_pair = _reader(calc)
        self.trace_enabled = trace
        self.trace = []
        self.applications = 0
        self.subexpr_violations = []
        self.c1_violations = []
        self.allowed_exprs = None  # set by init for the subexpression check
        self.blocking = calc.blocking  # None, or an enabled UbConfig

    # -- construction --------------------------------------------------------
    def init(self, concepts):
        """Build the root: one fresh constant satisfying every input.

        Inputs are concepts or ``(concept, polarity)`` pairs; a negative
        polarity roots the corresponding negated literal (used for validity
        checks in logics without object-level negation).
        """
        signed = [c if isinstance(c, tuple) else (c, True) for c in concepts]
        if not signed:
            raise sx.TabError("no input concepts")
        for c, _ in signed:
            if c.sort != 1:
                raise sx.TabError("inputs must be concepts (sort 1)")
        # the online subexpression check runs for unrefined generated calculi
        if self.ns is not None and not self.calc.refined \
                and self.calc.mode == "base":
            from .normalize import induced_ordering
            ordering = induced_ordering(self.ns)
            self.allowed_exprs = set(ordering.sub_closure([c for c, _ in signed]))
        root = Branch(0)
        if self.calc.mode == "internalized":
            anchor = sx.lconst(0, "i0")
            for c, pos in signed:
                tpl = self.calc.ctx.template("c", pos, 1)
                self._add(root, sx.atom(sx.HOLDS,
                                        [tpl.instantiate([c, anchor])]))
        else:
            a0 = sx.dconst("a0")
            for c, pos in signed:
                self._add(root, sx.literal(pos, sx.nu(1), [c, a0]))
        return Tableau(root)

    def _add(self, branch, lit):
        if branch.add(lit, self) and self.allowed_exprs is not None:
            for e in sx.lexprs_of_formula(lit):
                if e not in self.allowed_exprs:
                    self.subexpr_violations.append((lit.text(), e.text()))

    # -- matching ------------------------------------------------------------
    def _discover(self, branch):
        """Queue the instances with a premise matched to a literal added
        since the last round.  Such an instance was never queued before: the
        literal did not exist, and a round walks each combination once.  The
        blocking rule waits behind term production until the branch has had
        ``depth`` term-producing steps."""
        counted = sx.match_literal is not sx.match_expr  # a counter wraps it
        rnd = self.calc.round[counted]
        if rnd is None:
            rnd = self.calc.round[counted] = _compile_round(self.calc, counted)
        early = self.blocking and branch.tp_count < self.blocking.depth
        rnd(branch, early)

    def collect(self, branch):
        """Queue the new instances and pick the next step.

        Returns None when saturated, or (rule, binding, dens) where ``dens``
        are the indices of the denominators the step takes: every one,
        unless at most one is left uncontradicted on the branch, and then
        that one or none (none, too, for a closure rule).  An instance with
        a denominator wholly on the branch asks for nothing and is dropped:
        so is an applied one, as the steps leave it (see :meth:`apply`).
        """
        self._discover(branch)
        heap, present = branch.heap, branch.literals
        while heap:
            _, _, rule, binding, terms = heap[0]
            if terms and self.blocking and not branch.blocked.isdisjoint(terms):
                # a term-producing instance on a term equated with an older
                # one; blocking only grows, so it is gone for good
                heapq.heappop(heap)
                continue
            dens = _plan(rule).denominators
            left = []
            for i, den in enumerate(dens):
                lits = den(binding)
                if all(l in present for l in lits):
                    break
                if not any(l.negate() in present for l in lits):
                    left.append(i)
            else:
                return (rule, binding,
                        tuple(range(len(dens))) if len(left) > 1 else tuple(left))
            heapq.heappop(heap)
        return None

    # -- application ---------------------------------------------------------
    def apply(self, tableau, branch, rule, binding, dens):
        """Apply one instance taking the denominators ``dens`` (see
        :meth:`collect`); returns the successor branches.  No denominator
        closes the branch (a closure rule), one extends it in place, and
        more split it into a child each.  The branch it extends, or each
        child, holds the denominator it took, so the instance is not
        offered there again."""
        self.applications += 1
        if rule.produces_terms:
            if self.blocking:
                # online check of the blocking discipline: no term-producing
                # step may touch a term already equated with an older one
                for prem in rule.premises:
                    lit = sx.substitute_literal(prem, binding)
                    for t in self.terms_of(lit):
                        if t in branch.blocked:
                            self.c1_violations.append(
                                (rule.id, t.text()))
            branch.tp_count += 1
        if not dens:
            branch.closed = True
            self._trace_step(rule, binding, 0, branch, branch)
        out = []
        for j in dens:
            child = branch
            if len(dens) > 1:
                child = branch.clone(tableau.next_bid)
                tableau.next_bid += 1
            for lit in _plan(rule).denominators[j](binding):
                self._add(child, lit)
            self._trace_step(rule, binding, j, branch, child)
            out.append(child)
        return out

    def close_by_exhaustion(self, branch, rule, binding):
        """Every denominator of the instance is contradicted on the branch."""
        self.applications += 1
        branch.closed = True
        self._trace_step(rule, binding, "x", branch, branch)

    def _trace_step(self, rule, binding, den, src, dst):
        """Trace one application of denominator ``den`` from branch ``src``
        into ``dst``, and the closing of ``dst`` if it closed."""
        if not self.trace_enabled:
            return
        self.trace.append("apply %s {%s} den#%s branch#%d -> branch#%d"
                          % (rule.id, _binding_text(binding), den, src.bid, dst.bid))
        if dst.closed:
            self.trace.append("close branch#%d" % dst.bid)

    # -- search --------------------------------------------------------------
    def expand(self, tableau):
        """One loop over the open branches, taking each step from the right
        end of a deque.  A step in place puts its branch back if it stays
        open; a split's open children go on the right reversed (depth
        first: the first denominator next) or on the left (breadth first)."""
        start = time.monotonic()
        work = collections.deque([tableau.root])
        while work:
            if self.applications >= self.node_budget:
                return Verdict("limit", budget="nodes")
            if self.time_budget is not None and \
                    time.monotonic() - start > self.time_budget:
                return Verdict("limit", budget="seconds")
            branch = work.pop()
            if branch.closed:
                continue
            best = self.collect(branch)
            if best is None:
                if self.trace_enabled:
                    self.trace.append("saturated branch#%d" % branch.bid)
                return Verdict("sat", branch=branch)
            rule, binding, dens = best
            if not dens and rule.denominators:
                self.close_by_exhaustion(branch, rule, binding)
                continue
            succ = self.apply(tableau, branch, rule, binding, dens)
            open_succ = [c for c in succ if not c.closed]
            if self.search == "bfs" and succ != [branch]:
                work.extendleft(open_succ)
            else:
                work.extend(reversed(open_succ))
        return Verdict("unsat")


def _binding_text(binding):
    """The binding as a trace shows it: object variables, then domain
    variables (``$`` sorts after letters), each by name."""
    return "; ".join("%s:=%s" % (k.name, binding[k].text())
                     for k in sorted(binding, key=lambda v: "$" + v.name
                                     if v.sort == sx.DOMAIN else v.name))


def prove(calc, concepts, ns=None, node_budget=10 ** 6, time_budget=None,
          search="dfs", trace=False):
    eng = Engine(calc, ns=ns, node_budget=node_budget, time_budget=time_budget,
                 search=search, trace=trace)
    verdict = eng.expand(eng.init(concepts))
    verdict.engine = eng
    return verdict
