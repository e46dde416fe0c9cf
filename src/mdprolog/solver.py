"""SLD resolution as an explicit goal/choicepoint machine.

A run of the machine (``Run``) keeps two structures:

* the continuation, the goals still to prove, as a linked list of
  ``(goal, cut barrier, next)`` tuples; ``None`` means every goal is
  proved, which is a solution;
* the choicepoint stack, a list of the alternatives left to try.  Each
  entry holds the trail mark to undo to and the continuation to resume:
  the clauses a call has not tried yet, the other branch of a
  disjunction, the winners of a dispatch not run yet, a suspended
  nondeterministic builtin, or the frame of a catch/3 or findall/3.

A goal's cut barrier is the height the choicepoint stack had when its
clause was called, and ``!`` truncates the stack to that height; nothing
polls a cut flag.  call/N, \\+, findall/3, forall/2, the condition of
if-then-else and the goal of catch/3 are opaque to cut: the barrier of
their goal is the height at which they started.  The machine runs these
constructs itself.  Each pushes a choicepoint and puts a marker in the
continuation of its goal, a ``(kind, height, ...)`` tuple in the goal
position that acts when the goal succeeds: if-then-else commits to its
condition there, \\+ fails, findall/3 collects an answer, and catch/3
stops guarding its goal.  A thrown ball unwinds to the innermost
catch/3 whose exit marker is still in the continuation of the goal that
threw, so a throw after a catch/3 goal has exited is not caught by it.

A call that has no clause left to try leaves no choicepoint, and a
clause body's last goal continues with its caller's continuation, so
deterministic recursion grows neither the choicepoint stack nor the
Python stack.  The other builtins live in ``builtins``: deterministic
ones return a bool; between/3 and ctx_member/3 are generators that a
choicepoint resumes.

A clause is tried through its template (``Clause.compile``, compiled on
its first try): the goal's arguments are matched against the head in
place (``terms.match_args``), and the body is built from the filled slots
(``terms.build``) only when the head matched.  Nothing of the clause is
renamed; ``rename_term`` copies runtime terms only (findall, copy_term,
throw/catch and assertz).
"""

from __future__ import annotations

import sys

from .builtins import DETERMINISTIC, NONDETERMINISTIC
from .dispatcher import dispatch
from .errors import (
    BudgetExceeded,
    PrologThrow,
    existence_error,
    instantiation_error,
    type_error,
)
from .render import render
from .terms import (
    Atom,
    Struct,
    Var,
    build,
    make_list,
    match_args,
    proper_list,
    rename_term,
    resolve,
    unify,
)

FAIL = Atom("fail")

# Choicepoint kinds, the first item of a choicepoint; the second is the
# trail mark to undo to when the choicepoint is resumed.
CLAUSES = 0     # (CLAUSES, mark, cont, args, clauses, index of the next)
RESUME = 1      # (RESUME, mark, cont): go on with cont
GENERATOR = 2   # (GENERATOR, mark, cont, suspended builtin)
WINNERS = 3     # (WINNERS, mark, cont, [(goal, key)], index of the next)
CATCH = 4       # (CATCH, mark, cont, catcher, recovery, barrier)
FINDALL = 5     # (FINDALL, mark, cont, template, answers, result)
CUT_FAIL = 6    # (CUT_FAIL, mark, height): cut to height, then fail

# Continuation markers, tuples in the goal position of a continuation
# entry; they count no inference.  A resumed CLAUSES or GENERATOR
# choicepoint is put back into the continuation as a marker too.
CALL = 10        # (CALL, goal, key): call a predicate, no goal inference
CUT_TO = 11      # (CUT_TO, height): commit, as if-then-else does
FAIL_TO = 12     # (FAIL_TO, height): cut to height, then fail
CATCH_EXIT = 13  # (CATCH_EXIT, height of the CATCH choicepoint)
COLLECT = 14     # (COLLECT, height of the FINDALL choicepoint)
FORALL = 15      # (FORALL, height, action): test the action once

# the continuation of a run whose next step backtracks; _backtrack returns
# it when no choicepoint is left
_REDO = ("redo",)


class Solver:
    """Owns the runtime state of one engine: kb, sinks, counters, flags."""

    def __init__(self, kb, out=None, err=None, occurs_check=False, budget=None,
                 trace_dispatch=False):
        self.kb = kb
        self.out = out if out is not None else sys.stdout
        self.err = err if err is not None else sys.stderr
        self.occurs_check = occurs_check
        self.budget = budget
        self.trace_dispatch = trace_dispatch
        self.inferences = 0
        self.oid_counter = 0

    def reset_run(self):
        self.inferences = 0

    def tick(self):
        self.inferences += 1
        if self.budget is not None and self.inferences > self.budget:
            raise BudgetExceeded("inference budget of %d exhausted" % self.budget)

    def unify(self, a, b, store):
        return unify(a, b, store, self.occurs_check)

    # -- resolution --------------------------------------------------------

    def solve(self, goal, store, key=None):
        """A run of the machine on goal; it yields once per solution.

        While a solution is yielded its bindings are in place; an exhausted
        run leaves the store as it found it.  With a key, goal is called as
        the predicate of that key, the way a dispatch calls a winner: the
        goal itself counts no inference.
        """
        return Run(self, store, goal, key)

    def solve_once(self, goal, store, key=None):
        """True with the bindings of the first solution kept, else False."""
        return self.solve(goal, store, key).step()

    def call_predicate(self, goal, key, store):
        """The clauses a call of goal tries, in definition order.

        This is the one selection point of a predicate call: an unknown
        predicate is an existence error, and a bound first argument
        leaves only the clauses whose first argument could match it.
        """
        kb = self.kb
        if not kb.has_predicate(key):
            culprit = Struct("/", (Atom(key[0]), key[1]))
            raise existence_error("procedure", culprit)
        return kb.clauses_for(key, store.deref(goal.args[0]) if key[1] else None)

    def render(self, term, store=None, quoted=False):
        return render(term, store, self.kb.optable, quoted)


class Run:
    """One run of the machine over a goal: the continuation and choicepoints.

    ``step`` proves goals until the continuation is empty (a solution,
    True) or no choicepoint is left (False); the next ``step`` resumes
    the newest choicepoint.  Iterating a run yields once per solution.
    """

    __slots__ = ("solver", "store", "cont", "cps", "base")

    def __init__(self, solver, store, goal, key=None):
        self.solver = solver
        self.store = store
        self.base = store.mark()
        self.cps = []
        self.cont = (goal if key is None else (CALL, goal, key), 0, None)

    def __iter__(self):
        return self

    def __next__(self):
        if self.step():
            return None
        raise StopIteration

    def step(self):
        """Prove goals up to the next solution; False when none is left."""
        solver = self.solver
        store = self.store
        cps = self.cps
        tick = solver.tick
        call_predicate = solver.call_predicate
        occurs_check = solver.occurs_check
        cont = self.cont
        if cont is _REDO:
            cont = self._backtrack()
        while cont is not _REDO:
            try:
                while True:     # prove the goals of cont; a break fails
                    if cont is None:
                        self.cont = _REDO
                        return True
                    goal, barrier, cont = cont
                    if type(goal) is tuple:
                        kind = goal[0]
                        if kind is CLAUSES:     # a call's next clauses
                            _, mark, _, args, clauses, i = goal
                        elif kind is CALL:
                            _, goal, key = goal
                            args = goal.args
                            clauses = None
                        elif kind is CUT_TO:
                            del cps[goal[1]:]
                            continue
                        elif kind is FAIL_TO:
                            del cps[goal[1]:]
                            break
                        elif kind is CATCH_EXIT:
                            if len(cps) == goal[1] + 1:
                                cps.pop()   # the goal left no choicepoint
                            continue
                        elif kind is GENERATOR:
                            if not next(goal[3], False):
                                break
                            cps.append(goal)
                            continue
                        elif kind is COLLECT:
                            cp = cps[goal[1]]
                            cp[4].append(rename_term(cp[3], store))
                            break
                        else:       # FORALL: one proof of the action
                            height = len(cps)
                            cps.append((CUT_FAIL, store.mark(), goal[1]))
                            cont = (goal[2], height + 1, ((FAIL_TO, height), 0, cont))
                            continue
                    else:
                        tick()
                        cls = type(goal)
                        if cls is Var:
                            goal = store.deref(goal)
                            cls = type(goal)
                        if cls is Struct:
                            args = goal.args
                            key = (goal.functor, len(args))
                        elif cls is Atom:
                            args = ()
                            key = (goal.name, 0)
                        elif cls is Var:
                            raise instantiation_error()
                        else:
                            raise type_error("callable", resolve(goal, store))
                        op = _BUILTINS.get(key)
                        if op is None:
                            pass        # a predicate call
                        elif type(op) is not int:
                            if op(solver, store, *args):
                                continue
                            break
                        elif op is C_CONJ:
                            cont = (args[0], barrier, (args[1], barrier, cont))
                            continue
                        elif op is C_TRUE:
                            continue
                        elif op is C_CUT:
                            del cps[barrier:]
                            continue
                        elif op is C_DISPATCH:
                            calls = dispatch(solver, store, *args)
                            if not calls:
                                break
                            if len(calls) > 1:
                                cps.append((WINNERS, store.mark(), cont, calls, 1))
                            goal, key = calls[0]
                            args = goal.args
                        elif op is C_DISJ or op is C_ITE:
                            if op is C_ITE:
                                either, other = goal, FAIL
                            else:
                                either, other = store.deref(args[0]), args[1]
                            height = len(cps)
                            cps.append((RESUME, store.mark(), (other, barrier, cont)))
                            if (type(either) is Struct and either.functor == "->"
                                    and len(either.args) == 2):
                                cond, then = either.args
                                cont = (cond, height + 1,
                                        ((CUT_TO, height), 0, (then, barrier, cont)))
                            else:
                                cont = (either, barrier, cont)
                            continue
                        elif op is C_FAIL:
                            break
                        elif op is C_CALL:
                            goal = _extend_goal(store, args[0], args[1:])
                            cont = (goal, len(cps), cont)
                            continue
                        elif op is C_NONDET:
                            mark = store.mark()
                            suspended = NONDETERMINISTIC[key](solver, store, *args)
                            if not next(suspended, False):
                                break
                            cps.append((GENERATOR, mark, cont, suspended))
                            continue
                        else:
                            height = len(cps)
                            mark = store.mark()
                            if op is C_NOT:
                                cps.append((RESUME, mark, cont))
                                cont = (args[0], height + 1, ((FAIL_TO, height), 0, cont))
                            elif op is C_FINDALL:
                                cps.append((FINDALL, mark, cont, args[0], [], args[2]))
                                cont = (args[1], height + 1, ((COLLECT, height), 0, cont))
                            elif op is C_FORALL:
                                cps.append((RESUME, mark, cont))
                                cont = (args[0], height + 1,
                                        ((FORALL, height, args[1]), 0, cont))
                            elif op is C_CATCH:
                                cps.append((CATCH, mark, cont, args[1], args[2], barrier))
                                cont = (args[0], height + 1,
                                        ((CATCH_EXIT, height), 0, cont))
                            else:   # C_APPLY
                                cont = (_apply_goal(store, *args), height, cont)
                            continue
                        clauses = None
                    if clauses is None:
                        clauses = call_predicate(goal, key, store)
                        mark = store.mark()
                        i = 0
                    # try the clauses in order from clauses[i]; the first
                    # whose head matches leaves a choicepoint for the rest
                    height = len(cps)
                    n = len(clauses)
                    while i < n:
                        tick()
                        clause = clauses[i]
                        i += 1
                        heads, body, size = clause.compiled or clause.compile()
                        slots = [None] * size
                        if match_args(heads, args, slots, store, occurs_check):
                            if i < n:
                                cps.append((CLAUSES, mark, cont, args, clauses, i))
                            cont = (build(body, slots), height, cont)
                            break
                        store.undo_to(mark)
                    else:
                        break
            except PrologThrow as exc:
                cont = self._recover(exc, cont)
                if cont is None:
                    raise
                continue
            cont = self._backtrack()
        self.cont = _REDO
        return False

    def _backtrack(self):
        """The continuation of the newest alternative, or _REDO if none is left.

        Choicepoints without an alternative are popped, and the trail is
        undone to the mark of the one resumed.  A clause or builtin
        choicepoint comes back inside the continuation, as a marker that
        ``step`` resumes.  With no choicepoint left the store is as the
        run found it.
        """
        cps = self.cps
        store = self.store
        while cps:
            cp = cps.pop()
            store.undo_to(cp[1])
            kind = cp[0]
            if kind is CLAUSES or kind is GENERATOR:
                return cp, 0, cp[2]
            if kind is RESUME:
                return cp[2]
            if kind is WINNERS:
                _, mark, cont, calls, i = cp
                if i + 1 < len(calls):
                    cps.append((WINNERS, mark, cont, calls, i + 1))
                return (CALL,) + calls[i], 0, cont
            if kind is FINDALL:
                if self.solver.unify(cp[5], make_list(cp[4]), store):
                    return cp[2]
            elif kind is CUT_FAIL:
                del cps[cp[2]:]
            # a CATCH choicepoint: its goal has no answer left
        store.undo_to(self.base)
        return _REDO

    def _recover(self, exc, cont):
        """The continuation of the catch/3 that takes exc, or None.

        The catch/3 calls that guard the goal which threw are those whose
        exit marker is in its continuation ``cont``, innermost first.
        Each one tried undoes its goal's bindings and choicepoints.
        """
        cps = self.cps
        store = self.store
        while cont is not None:
            marker = cont[0]
            if type(marker) is tuple and marker[0] is CATCH_EXIT:
                height = marker[1]
                _, mark, after, catcher, recovery, barrier = cps[height]
                del cps[height:]
                store.undo_to(mark)
                ball = rename_term(exc.ball, store)
                if self.solver.unify(catcher, ball, store):
                    return recovery, barrier, after
            cont = cont[2]
        return None


def _extend_goal(store, g, extra):
    g = store.deref(g)
    if isinstance(g, Var):
        raise instantiation_error()
    if isinstance(g, Atom):
        return Struct(g.name, tuple(extra)) if extra else g
    if isinstance(g, Struct):
        return Struct(g.functor, g.args + tuple(extra)) if extra else g
    raise type_error("callable", resolve(g, store))


def _apply_goal(store, g, arglist):
    items = proper_list(arglist, store)
    if items is None:
        raise type_error("list", resolve(arglist, store))
    return _extend_goal(store, g, tuple(items))


# Control constructs: the machine runs these itself.
(C_CONJ, C_TRUE, C_CUT, C_DISPATCH, C_DISJ, C_ITE, C_FAIL, C_CALL, C_NONDET,
 C_NOT, C_FINDALL, C_FORALL, C_CATCH, C_APPLY) = range(14)


_BUILTINS = {
    ("true", 0): C_TRUE,
    ("fail", 0): C_FAIL,
    ("false", 0): C_FAIL,
    ("!", 0): C_CUT,
    (",", 2): C_CONJ,
    (";", 2): C_DISJ,
    ("->", 2): C_ITE,
    ("\\+", 1): C_NOT,
    ("catch", 3): C_CATCH,
    ("findall", 3): C_FINDALL,
    ("forall", 2): C_FORALL,
    ("apply", 2): C_APPLY,
    ("$dispatch", 3): C_DISPATCH,
    **{("call", n): C_CALL for n in range(1, 9)},
    **{key: C_NONDET for key in NONDETERMINISTIC},
    **DETERMINISTIC,
}

BOOTSTRAP = """
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).

append([], L, L).
append([H|T], L, [H|R]) :- append(T, L, R).
"""
