"""In-memory spans and counters taken around the program's public calls.

Nothing here is inside the program: the benchmark replaces module and
instance attributes with wrappers while a traced run lasts and puts the
originals back afterwards.  A span is ``[name, start, end, parent index,
request id, counters at start, counters at end]``; the request id is the
problem id (None during set-up).  The hottest calls (``syntax.match_literal``,
``models.evaluate``, ``LStructure.holds``) are counted, not spanned.
"""

import json
import time

from workloads import (calcfile, models, normalize, parser, refine,
                       specfile, sx, synth)

# counter slots
MATCH, HIT, EVALUATE, HOLDS = range(4)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = None
        self.counts = [0, 0, 0, 0]
        self.opened = 0
        self.closed = 0
        self.verdicts = {"sat": 0, "unsat": 0, "limit": 0}
        self.model_elements = 0
        self.oracle_results = {}   # span index -> "sat" | "unsat"
        self._undo = []

    # -- spans ---------------------------------------------------------------
    def wrap(self, name, fn, counted=False, note=None):
        """``fn`` recording one span per call; ``note(index, result, args)``
        sees each result."""
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), None, stack[-1] if stack else None,
                   self.request, tuple(counts) if counted else None, None]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if counted:
                    rec[6] = tuple(counts)
            if note is not None:
                note(idx, result, args)
            return result
        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` under a span of its own (used for the problem roots,
        which also snapshot the counters)."""
        return self.wrap(name, fn, counted=True)(*args, **kwargs)

    def patch(self, module, attr, counted=False, note=None):
        orig = getattr(module, attr)
        self._undo.append((module, attr, orig))
        name = "%s.%s" % (module.__name__.rsplit(".", 1)[-1], attr)
        setattr(module, attr, self.wrap(name, orig, counted, note))

    def count(self, owner, attr, slot, hit_slot=None):
        """Replace ``owner.attr`` by a wrapper that only counts calls (and
        true results into ``hit_slot``)."""
        orig = getattr(owner, attr)
        self._undo.append((owner, attr, orig))
        counts = self.counts
        if hit_slot is None:
            def counted(*args, **kwargs):
                counts[slot] += 1
                return orig(*args, **kwargs)
        else:
            def counted(*args, **kwargs):
                counts[slot] += 1
                if orig(*args, **kwargs):
                    counts[hit_slot] += 1
                    return True
                return False
        setattr(owner, attr, counted)

    # -- installation --------------------------------------------------------
    def install(self):
        """Wrap the public pipeline and model functions, and count matches,
        evaluations and holds lookups."""
        for mod, attr in ((specfile, "preset"), (normalize, "normalize"),
                          (synth, "synthesize"), (refine, "parse_context"),
                          (refine, "parse_script"), (refine, "apply_script"),
                          (refine, "attach_ub"), (calcfile, "print_calculus"),
                          (calcfile, "parse_calculus"), (parser, "parse_lexpr"),
                          (models, "verify_reflection")):
            self.patch(mod, attr)
        self.patch(models, "extract_model", note=self._note_model)
        self.patch(models, "brute_force_sat", counted=True,
                   note=self._note_oracle)
        self.count(sx, "match_literal", MATCH, HIT)
        self.count(models, "evaluate", EVALUATE)
        self.count(models.LStructure, "holds", HOLDS)

    def instrument(self, eng):
        """Span the engine's steps as instance attributes, which ``expand``
        reaches through ``self``."""
        eng.init = self.wrap("engine.init", eng.init)
        eng.expand = self.wrap("engine.expand", eng.expand,
                               note=self._note_verdict)
        eng.collect = self.wrap("engine.collect", eng.collect)
        eng.apply = self.wrap("engine.apply", eng.apply,
                              note=self._note_apply)
        eng.close_by_exhaustion = self.wrap("engine.close_by_exhaustion",
                                            eng.close_by_exhaustion,
                                            note=self._note_exhausted)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- notes at the boundaries ---------------------------------------------
    def _note_apply(self, idx, succ, args):
        branch = args[1]
        if not succ:
            self.closed += 1
        elif len(succ) == 1 and succ[0] is branch:
            self.closed += branch.closed
        else:
            self.opened += len(succ)
            self.closed += sum(1 for c in succ if c.closed)

    def _note_exhausted(self, idx, result, args):
        self.closed += 1

    def _note_verdict(self, idx, verdict, args):
        self.verdicts[verdict.kind] += 1

    def _note_model(self, idx, m, args):
        self.model_elements += m.size

    def _note_oracle(self, idx, result, args):
        self.oracle_results[idx] = result[0]

    # -- output ----------------------------------------------------------------
    def self_times(self):
        """Per-span self time: duration minus the time its children cover
        (children of one span never overlap: the run is single-threaded)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] is not None:
                child[rec[3]] += rec[2] - rec[1]
        return [rec[2] - rec[1] - c for rec, c in zip(spans, child)]

    def write(self, path):
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": rec[0],
                                     "start": rec[1] - origin,
                                     "end": rec[2] - origin,
                                     "parent": rec[3],
                                     "request": rec[4]}) + "\n")
