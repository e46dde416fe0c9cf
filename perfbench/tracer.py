"""Outside-in tracer: wraps the public functions of the mdprolog modules.

Nothing in the package is edited.  Each wrapped function is rebound in
every loaded ``mdprolog`` module that holds it by name (``from .terms
import unify`` makes a second binding that patching ``terms.unify`` alone
would miss), or on its class for methods.

Three kinds of wrapper:

* timed -- a plain function: one span per call with name, start, end,
  parent span and operation id;
* counted -- the generator functions ``Solver.solve``,
  ``Solver.call_predicate`` and ``dispatcher.dispatch`` and a few hot
  helpers: a plain function that counts the call and returns the
  original result.  No generator frame is added, so the depth at which
  the C stack overflows stays the same;
* resumed -- ``reader.parse_program`` yields items one by one while the
  engine consults them, so each resumption of the generator is a span.

A span's self time is its duration minus its timed children and the GC
pauses inside it.  Work done inside a generator is charged to the timed
span that resumed it; at the top of an operation that is the operation
span itself, whose self time is reported as the solver's.  The garbage
collector stays enabled; its pauses inside operations are timed through
``gc.callbacks`` and reported as the ``runtime`` layer.
"""

from __future__ import annotations

import functools
import gc
import gzip
import json
import sys
from array import array
from time import perf_counter

# (owner, attribute); an owner is a module or a class of the package.
TIMED = [
    ("mdprolog.terms", "unify"),
    ("mdprolog.terms", "rename_term"),
    ("mdprolog.terms", "resolve"),
    ("mdprolog.kb.KnowledgeBase", "clauses_for"),
    ("mdprolog.dispatcher", "score_signature"),
    ("mdprolog.dispatcher", "updated_context"),
    ("mdprolog.reader", "parse_term"),
    ("mdprolog.transformer", "expand_source_item"),
    ("mdprolog.engine.Engine", "consult_text"),
    ("mdprolog.render", "render"),
    ("mdprolog.corpus", "_program_text"),
]
COUNTED = [
    ("mdprolog.solver.Solver", "solve"),
    ("mdprolog.solver.Solver", "call_predicate"),
    ("mdprolog.solver.Solver", "tick"),
    ("mdprolog.dispatcher", "dispatch"),
    ("mdprolog.dispatcher", "candidates_for"),
    ("mdprolog.kb.KnowledgeBase", "add_clause"),
    ("mdprolog.transformer", "phase1_rewrite"),
    ("mdprolog.engine.Engine", "apply_term_hook"),
    ("mdprolog.corpus", "run_case"),
]
RESUMED = [("mdprolog.reader", "parse_program")]

OP = "op"   # name of the operation spans; their self time is the solver's
MAX_SPANS = 1_000_000


def _name(owner, attr):
    module = owner.split(".")[1]
    return "%s.%s" % (module, attr)


def _resolve_owner(path):
    parts = path.split(".")
    obj = sys.modules[".".join(parts[:2])]
    for part in parts[2:]:
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self):
        self.names = [OP]
        self.ids = {OP: 0}
        self.calls = [0]
        self.self_s = [0.0]
        self.counts = {}          # counted wrappers and derived counters
        self.gc_s = 0.0
        self.gc_collections = 0
        self.op_id = 0
        self.ops_s = 0.0          # summed duration of the operation spans
        self.spans_dropped = 0
        self._stack = []          # [span id, name id, start, child time, parent]
        self._next_span = 1
        self._gc_start = None
        self._columns = {c: array(t) for c, t in (
            ("span", "q"), ("name", "i"), ("parent", "q"), ("op", "q"),
            ("start", "d"), ("end", "d"))}
        self._patches = []
        self._scores = {}         # id(ctx_keys) -> [ctx_keys, best, n_best]
        self.t0 = perf_counter()

    # -- spans -----------------------------------------------------------------

    def _id(self, name):
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def _enter(self, nid):
        stack = self._stack
        parent = stack[-1][0] if stack else 0
        span = self._next_span
        self._next_span = span + 1
        stack.append([span, nid, perf_counter(), 0.0, parent])

    def _exit(self):
        end = perf_counter()
        span, nid, start, child, parent = self._stack.pop()
        duration = end - start
        self.calls[nid] += 1
        self.self_s[nid] += duration - child
        if self._stack:
            self._stack[-1][3] += duration
        else:
            self.ops_s += duration
        cols = self._columns
        if len(cols["span"]) < MAX_SPANS:
            cols["span"].append(span)
            cols["name"].append(nid)
            cols["parent"].append(parent)
            cols["op"].append(self.op_id)
            cols["start"].append(start - self.t0)
            cols["end"].append(end - self.t0)
        else:
            self.spans_dropped += 1

    def begin_op(self, op_id):
        self.op_id = op_id
        self._enter(0)

    def end_op(self):
        self._exit()
        winners = sum(entry[2] for entry in self._scores.values())
        self.counts["dispatcher.winners"] = \
            self.counts.get("dispatcher.winners", 0) + winners
        self._scores.clear()

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            pause = perf_counter() - self._gc_start
            self._gc_start = None
            if self._stack:   # only pauses inside an operation
                self.gc_s += pause
                self.gc_collections += 1
                self._stack[-1][3] += pause

    # -- wrappers --------------------------------------------------------------

    def _timed(self, name, func):
        nid = self._id(name)
        enter, exit_ = self._enter, self._exit

        @functools.wraps(func)
        def timed(*args, **kwargs):
            enter(nid)
            try:
                return func(*args, **kwargs)
            finally:
                exit_()
        return timed

    def _counted(self, name, func):
        counts = self.counts
        counts.setdefault(name + ".calls", 0)
        key = name + ".calls"

        @functools.wraps(func)
        def counted(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)
        return counted

    def _resumed(self, name, func):
        nid = self._id(name)
        counts = self.counts
        key = name + ".calls"
        counts.setdefault(key, 0)
        enter, exit_ = self._enter, self._exit

        @functools.wraps(func)
        def resumed(*args, **kwargs):
            counts[key] += 1
            it = func(*args, **kwargs)
            while True:
                enter(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    exit_()
                yield item
        return resumed

    def _special(self, name, wrapper):
        """Wrappers that also read results: unify, clauses_for, scoring."""
        counts = self.counts
        if name == "terms.unify":
            counts["terms.unify.success"] = 0

            def after(result, args):
                if result:
                    counts["terms.unify.success"] += 1
        elif name == "kb.clauses_for":
            counts["kb.clauses_for.items"] = 0

            def after(result, args):
                counts["kb.clauses_for.items"] += len(result)
        elif name == "dispatcher.score_signature":
            counts["dispatcher.eligible"] = 0
            scores = self._scores

            def after(result, args):
                score = result[0]
                if score is None:
                    return
                counts["dispatcher.eligible"] += 1
                keys = args[4]   # one set object per dispatch
                entry = scores.get(id(keys))
                if entry is None:
                    scores[id(keys)] = [keys, score, 1]
                elif score > entry[1]:
                    entry[1:] = [score, 1]
                elif score == entry[1]:
                    entry[2] += 1
        elif name == "dispatcher.candidates_for":
            counts["dispatcher.candidates"] = 0

            def after(result, args):
                counts["dispatcher.candidates"] += len(result)
        else:
            return wrapper

        @functools.wraps(wrapper)
        def observed(*args, **kwargs):
            result = wrapper(*args, **kwargs)
            after(result, args)
            return result
        return observed

    def install(self):
        import mdprolog  # noqa: F401  (loads every module that gets wrapped)
        import mdprolog.corpus  # noqa: F401

        for group, make in ((TIMED, self._timed), (COUNTED, self._counted),
                            (RESUMED, self._resumed)):
            for owner_path, attr in group:
                name = _name(owner_path, attr)
                owner = _resolve_owner(owner_path)
                original = owner.__dict__[attr]
                wrapper = self._special(name, make(name, original))
                self._rebind(owner, attr, original, wrapper)
                if isinstance(owner, type):
                    continue
                for mod_name, module in list(sys.modules.items()):
                    if not mod_name.startswith("mdprolog.") or module is owner:
                        continue
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, alias, original, wrapper)
        gc.callbacks.append(self._on_gc)

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def write_spans(self, path):
        """Spans as gzipped CSV, after a JSON header line naming the columns."""
        cols = self._columns
        header = {"columns": ["span", "name", "parent", "op", "start_us", "end_us"],
                  "names": self.names, "dropped": self.spans_dropped,
                  "parent_0": "no parent (the span is an operation)"}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            rows = zip(cols["span"], cols["name"], cols["parent"], cols["op"],
                       cols["start"], cols["end"])
            fh.writelines("%d,%d,%d,%d,%.1f,%.1f\n"
                          % (s, n, p, o, b * 1e6, e * 1e6)
                          for s, n, p, o, b, e in rows)

    def summary(self):
        """Per-function calls and self times, per-layer self times, counters."""
        functions = {}
        layers = {}
        for nid, name in enumerate(self.names):
            functions[name] = {"calls": self.calls[nid], "self_s": self.self_s[nid]}
            layer = "solver" if name == OP else name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + self.self_s[nid]
        layers["runtime"] = self.gc_s
        return {"functions": functions, "layers": layers,
                "counts": dict(self.counts), "ops_s": self.ops_s,
                "gc_collections": self.gc_collections,
                "spans": self._next_span - 1, "spans_dropped": self.spans_dropped}
