"""Public entry point: consult programs, run queries, inspect dispatch.

Consulting is done once per process where it can be: every engine starts
from a copy of the consulted bootstrap and prelude (``_BASES``), and an
engine that has run no query and consults the texts that another engine
consulted before, in the same order and configuration, starts from a
copy of that engine's state after them (``_CONSULTED``).
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .dispatcher import DISPATCH, dispatch
from .errors import ConsultError, PrologThrow
from .kb import KnowledgeBase
from .reader import parse_program, parse_term
from .render import render
from .solver import BOOTSTRAP, Solver
from .terms import Atom, BindingStore, NIL, Struct, Var, resolve
from .transformer import expand_source_item, phase1_rewrite


def _prelude_path():
    return resources.files("mdprolog").joinpath("prelude.mdp")


def read_source(path):
    """The text of a UTF-8 source file; a ConsultError if it cannot be read."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConsultError("%s: %s" % (path, exc.strerror)) from exc
    except UnicodeDecodeError as exc:
        raise ConsultError("%s:%d: not UTF-8 text: %s" % (
            path, exc.object.count(b"\n", 0, exc.start) + 1, exc.reason)) from exc


class Solution:
    """One query answer: resolved bindings for the named query variables.

    The query's named variables print under their names and an anonymous
    one as ``_``; any other variable, such as a copy made by copy_term/2
    or findall/3, prints as ``_G<serial>``, so two distinct variables
    never share a name.
    """

    def __init__(self, bindings, optable, names):
        self.bindings = bindings  # name -> term, in first-occurrence order
        self._optable = optable
        self._names = names     # query variable -> its name

    def __getitem__(self, name):
        return self.bindings[name]

    def __contains__(self, name):
        return name in self.bindings

    def render(self, name):
        return render(self.bindings[name], None, self._optable, False,
                      names=self._names)

    def text(self):
        visible = [(n, t) for n, t in self.bindings.items()
                   if not n.startswith("_")]
        if not visible:
            return "true"
        # a value stands on the right of =, a slot of priority 699
        return ",\n".join(
            "%s = %s" % (n, render(t, None, self._optable, False, 699,
                                   self._names))
            for n, t in visible)

    def __repr__(self):
        return "<Solution %s>" % self.text().replace("\n", " ")


# bool(prelude) -> the knowledge base of the consulted bootstrap and, if
# true, prelude; built once per process, and every engine gets a copy
_BASES = {}


# (state before, filename, text, budget, occurs_check, trace_dispatch) ->
# (knowledge base, oid_counter) after the consult of that text, for each
# consult that raised nothing and wrote nothing.  The state before is the
# stored knowledge base that the engine's state is a copy of: a base, or
# one stored here.  It is compared by identity, so a key stays one level
# deep however many consults made the state.  At most _CONSULTED_MAX
# entries, the oldest going first.
_CONSULTED = {}
_CONSULTED_MAX = 128


class _Watched:
    """A sink that notes whether anything was written to it."""

    def __init__(self, sink):
        self.sink, self.wrote = sink, False

    def write(self, text):
        self.wrote = True
        return self.sink.write(text)


def _consult_base(prelude):
    """Consult the start-up text into a new knowledge base, with no budget."""
    engine = object.__new__(Engine)
    engine.kb = KnowledgeBase()
    engine.solver = Solver(engine.kb)
    engine._consult(BOOTSTRAP, "<bootstrap>")
    if prelude:
        engine._consult(read_source(_prelude_path()), "<prelude>")
    return engine.kb


class Engine:
    def __init__(self, prelude=True, occurs_check=False, budget=None,
                 trace_dispatch=False, out=None, err=None):
        prelude = bool(prelude)
        base = _BASES.get(prelude)
        if base is None:
            base = _BASES[prelude] = _consult_base(prelude)
        self.kb = base.copy()
        self.solver = Solver(self.kb, out=out, err=err,
                             occurs_check=occurs_check, budget=budget,
                             trace_dispatch=trace_dispatch)
        # the stored knowledge base that the engine's state is a copy of,
        # or None once the engine has left the table of consulted states
        self._state = base

    # -- configuration -------------------------------------------------------

    # The solver holds the configuration (engine.solver.out, .err,
    # .trace_dispatch); budget is kept here too because the benchmark
    # (perfbench/child.py) sets it on the engine.
    @property
    def budget(self):
        return self.solver.budget

    @budget.setter
    def budget(self, value):
        self.solver.budget = value

    # -- consulting ------------------------------------------------------

    def consult_file(self, path):
        self.consult_text(read_source(Path(path)), filename=str(path))

    def consult_text(self, text, filename="<text>"):
        """Consult a program text in place of what was consulted under
        its filename before.

        While the engine has run no query and each of its consults was
        stored, the state after this consult is looked up in
        ``_CONSULTED``.  If it is there, the engine takes a copy of it and
        nothing is read, expanded, solved or compiled; if not, the
        consult runs and its result is stored, unless it raised or wrote
        to ``out`` or ``err``.  A consult not stored takes the engine out
        of the table, and every consult after it runs.
        """
        solver = self.solver
        state, self._state = self._state, None
        if state is None:
            return self._consult(text, filename)
        key = (state, filename, text, solver.budget, solver.occurs_check,
               solver.trace_dispatch)
        stored = _CONSULTED.get(key)
        if stored is None:
            sinks = solver.out, solver.err
            solver.out, solver.err = watched = tuple(map(_Watched, sinks))
            try:
                self._consult(text, filename)
            finally:
                solver.out, solver.err = sinks
            if watched[0].wrote or watched[1].wrote:
                return
            if len(_CONSULTED) >= _CONSULTED_MAX:
                del _CONSULTED[next(iter(_CONSULTED))]
            stored = _CONSULTED[key] = self.kb.copy(), solver.oid_counter
        else:
            self.kb = solver.kb = stored[0].copy()
            solver.oid_counter = stored[1]
        self._state = stored[0]

    def _consult(self, text, filename):
        self.kb.forget_file(filename)
        try:
            for item in parse_program(text, self.kb.optable, filename):
                self._consult_item(item)
        except PrologThrow as exc:
            raise ConsultError(
                "%s: uncaught exception: %s"
                % (filename, self._render(exc.ball))) from exc

    def _consult_item(self, item):
        self.solver.reset_run()
        where = "%s:%s" % (item.filename, item.line)
        if item.is_directive:
            rewritten = phase1_rewrite(self, item.term.args[0], NIL, 0, where)
            try:
                if not self.solver.solve(rewritten, BindingStore()).step():
                    raise ConsultError("directive failed at %s" % where)
            except PrologThrow as exc:
                raise ConsultError(
                    "directive raised %s at %s"
                    % (self._render(exc.ball), where)) from exc
            return
        head, body, sig = expand_source_item(self, item.term, item.filename,
                                             item.line)
        if sig is None:
            self.kb.add_clause(head, body, item.filename, item.line)
        else:   # an mdp rule: its implementation clause goes with its signature
            self.kb.add_signature(sig, head, body)

    # -- transformer hooks -------------------------------------------------

    def _run_hook(self, hook_name, ctx_var, term):
        store = BindingStore()
        # skip a solve that would fail on every head: no head's second
        # argument can match the term
        pred = self.kb.predicates.get((hook_name, 3))
        if pred is None or not pred.at(1, term, store.deref):
            return None
        out_var = Var("_HookOut")
        goal = Struct(hook_name, (ctx_var, term, out_var))
        if self.solver.solve(goal, store).step():
            return resolve(out_var, store)
        return None

    def apply_term_hook(self, ctx_var, term):
        return self._run_hook("hook_mdp_term", ctx_var, term)

    def apply_spec_hook(self, ctx_var, entry):
        return self._run_hook("hook_context_rule_mdp_term", ctx_var, entry)

    # -- queries -------------------------------------------------------------

    def _prepare(self, text):
        self._state = None      # a query may change the state
        self.solver.reset_run()
        term, varmap = parse_term(text, self.kb.optable)
        goal = phase1_rewrite(self, term, NIL, 0, "<query>")
        return goal, BindingStore(), varmap

    def solutions(self, text):
        """Lazily enumerate solutions of a query given as text."""
        goal, store, varmap = self._prepare(text)
        names = {var: name for name, var in varmap.items()}
        for _ in self.solver.solve(goal, store):
            bindings = {name: resolve(var, store)
                        for name, var in varmap.items()}
            yield Solution(bindings, self.kb.optable, names)

    def query(self, text, max_solutions=None):
        """All (or the first max_solutions) solutions, as a list."""
        out = []
        for sol in self.solutions(text):
            out.append(sol)
            if max_solutions is not None and len(out) >= max_solutions:
                break
        return out

    def run(self, text):
        """True when the query has at least one solution."""
        goal, store, _ = self._prepare(text)
        return self.solver.solve(goal, store).step()

    def explain(self, text):
        """Dispatch scoring report for a single ``Given ? Goal`` query.

        The machine runs the context rules of each eligible goal-bearing
        candidate once, as the dispatch would, and calls no winner.
        """
        goal, store, _ = self._prepare(text)
        if not (isinstance(goal, Struct) and goal.functor == DISPATCH):
            raise ValueError("explain() needs a dispatch query (Given ? Goal)")
        scoring = dispatch(self.solver, store, *goal.args)
        if scoring[4] is None:  # goal-bearing candidates: their rules run
            self.solver.explain(scoring, store)
        return scoring[2], list(scoring[3])

    # -- introspection ---------------------------------------------------------

    def dump_expansion(self):
        """Readable listing of every signature and its implementation clauses."""
        lines = []
        for sig in self.kb.all_signatures():
            lines.append("%% %s  (required dimensions: [%s])"
                         % (sig.label(), ", ".join(sig.required_dims)))
            sig_term = Struct("mdp_signature", (
                Atom(sig.name), sig.arity, Atom(sig.impl_name), sig.ctx_var,
                Struct("context_rules", sig.rules) if sig.rules else Atom("true"),
            ))
            lines.append(self._render(sig_term, quoted=True) + ".")
            clause = sig.clause
            term = clause.head if clause.body is Atom("true") else \
                Struct(":-", (clause.head, clause.body))
            lines.append(self._render(term, quoted=True) + ".")
            lines.append("")
        return "\n".join(lines)

    def _render(self, term, quoted=False):
        return render(term, None, self.kb.optable, quoted=quoted)
