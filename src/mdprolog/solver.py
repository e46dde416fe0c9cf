"""SLD resolution as an explicit goal/choicepoint machine.

A run of the machine (``Run``) keeps two structures:

* the continuation, the goals still to prove, as a linked list of
  ``(marker, cut barrier, next)`` tuples; ``None`` means every goal is
  proved, which is a solution;
* the choicepoint stack, a list of the alternatives left to try.  Each
  entry holds the trail mark to undo to, the watermark that goes with
  it and the continuation to resume: the clauses a call (or the winners
  a dispatch) has not tried yet, the other branch of a disjunction, a
  candidate whose context rules are being scored, the values of a
  nondeterministic builtin not yet tried, or the frame of a catch/3 or
  findall/3.  A choicepoint holds only data: what it tries next is an
  index into its clauses or values, never a suspended Python frame.

There is one way to run a goal: as goal entries made by one compiler.
A clause body is compiled with its head (``compile_body``) into a tuple
of entries, one per goal of its conjunctions, each with its operation
resolved: a predicate key, a builtin, cut, a dispatch, or a control
construct.  Each goal's arguments are made by a builder, Python code
generated for the shape of the goal (``terms.arg_builder``), as the
WAM's put instructions are; the variables of the slots first met in a
goal are made there, so no slot is read before its first goal has
filled it.  A goal known only when it runs, such as a query, a hook
goal, the goal of call/N or apply/2, or a variable body goal, is
compiled when it is called (``compile_goal``) by the same compiler,
with no frame (None): its entries hold its arguments as they are, and
no code is generated for it.  Its conjunctions are flattened with
bindings followed, and an atom goal's entries are made once.  A running
body is a ``(BODY, entries, index, frame)`` marker in the continuation;
its last entry continues with the caller's continuation, and a fact's
body ``true`` is no entry at all.  Each entry owes one inference for
its goal and one for each ``,`` the term would have taken apart just
before it, so counts are those of running the goal as a term; the
entries a variable goal is compiled into owe one inference less, since
its own entry counted the goal itself.

A goal's cut barrier is the height the choicepoint stack had when its
clause was called, and ``!`` truncates the stack to that height; nothing
polls a cut flag.  A variable body goal keeps the barrier of its clause.
call/N, \\+, findall/3, forall/2, the condition of if-then-else and the
goal of catch/3 are opaque to cut: the barrier of their goal is the
height at which they started.  A control construct compiles into an
entry that holds its goals as compiled sub-bodies, which share the
clause's frame; \\+ G runs as ``(G -> fail ; true)`` and forall(C, A)
as ``\\+ (C, \\+ A)``.  If-then-else, disjunction, findall/3 and
catch/3 push a choicepoint, and all but disjunction put a marker in the
continuation of their goal, a ``(kind, height)`` tuple that acts when
the goal succeeds: if-then-else commits to its condition there,
findall/3 collects an answer, and catch/3 stops guarding its goal.  The
slots first met in a construct get fresh variables before its
choicepoint is pushed, so a branch that fails leaves no value in the
frame that the undo cannot reach; they are made in the order in which
``build`` would make them (``terms._first_slots``), as a body's builders
make theirs, so where a goal sits does not change an answer.  An
if-then-else whose condition is an
arithmetic comparison of slots met before it pushes nothing: the
comparison picks the branch.  A thrown ball unwinds to the innermost
catch/3 whose exit marker is still in the continuation of the goal that
threw, so a throw after a catch/3 goal has exited is not caught by it.

A call that has no clause left to try leaves no choicepoint, and a
clause body's last goal continues with its caller's continuation, so
deterministic recursion grows neither the choicepoint stack nor the
Python stack.  The other builtins live in ``builtins``: deterministic
ones return a bool; between/3 and ctx_member/3 bind nothing, but return
a term and the values it unifies with, in order.  The machine tries
those values as it tries a call's clauses (``Run._values``), with no
inference for a redo: it marks only when there are two or more, and a
VALUES choicepoint holds the index of the next value only while values
remain, so a last answer leaves no choicepoint.

A store trails only bindings of variables older than its watermark
(``terms.BindingStore``).  ``store.mark()`` raises the watermark where
an undo can follow: before the first head that has another clause or
winner after it, before the first of two or more values, at every
choicepoint pushed, and where a builtin tests and undoes
(``BindingStore.attempt``: ``\\=``, intersection/3, retractall/1).
Each choicepoint keeps the watermark it raised.  Wherever the stack is
cut or popped, and after a call's last clause or a last value, the
watermark goes back to that of the newest choicepoint left, as the WAM
restores HB, and the trail entries from the mark on that only the
choicepoints gone could undo are dropped (``Run._release``).  So
deterministic code, and a loop whose choicepoints are gone by its next
step, keeps only the terms it still uses.

A clause is tried through what ``Clause.compile`` makes on its first
try: a head whose first atom or number argument differs from the goal's
is passed over before any of it is matched, and otherwise the goal's
arguments are matched in place by the head's matcher, a function
generated for the shape of the head and shared by every head of that
shape (``terms.head_matcher``).  It fills a frame that holds one value
per clause variable, storing a variable's first occurrence with no test
and building structure only where the goal has an unbound variable.
Nothing of the clause is renamed; ``rename_term`` copies runtime terms
only (findall, copy_term, throw/catch and assertz), and under a budget
a copy builds at most as many compounds as inferences are left
(``Solver.copy``).

In a clause body, ``is/2`` and the arithmetic comparisons over clause
variables, integers and ``+ - *`` compile to Python code of the frame,
and each maximal run of such goals is one entry whose generated
function runs them all (``builtins.ArithRun``, made by the generator of
head matchers and builders), as a superoperator fuses a run of
instructions.  It counts each goal's inferences before
the goal, as the entries would, so a budget runs out at the same
inference.  ``X is E`` with a first occurrence of ``X`` stores the
value in the frame without a variable, and a run that fails clears
those values.  Where the code gives up (an unbound or non-integer
operand, a result outside 64 bits) ``builtins.eval_arith`` evaluates
the goal's expression templates over the frame, with no goal built, so
answers and error terms are the builtin's.  An if-then-else whose
condition is such a comparison tests it with a run of its own.

A dispatch is a call.  Its clauses are the implementation clauses of
its winners, kept on their signatures, in the order of the report, and
its arguments the updated context and the goal's arguments
(``dispatcher.winner_calls``); they are tried as a call's clauses are,
without indexing.  Its CLAUSES choicepoint, pushed only when a clause
matched and later winners remain, lies below the cut barrier of the
winner that matched, so a cut in one winner does not stop the next.

A dispatch whose eligible candidates include goal-bearing ones (context
rules with goals) is scored on the same machine before its winners are
called.  A signature's rules were compiled into goal entries, as a
clause body is, with the context variable as the one head argument
(``Signature.compile``).  For each such candidate in definition order a
SCORE choicepoint is pushed and the rules run as a body whose frame
holds the updated context in slot 0, followed by a SCORED marker.  The
marker builds the weights from that frame, adds those of the rules'
first solution to the candidate's score, cuts back to the choicepoint
and undoes to its mark, so nothing of the rules outlives the scoring; if
the rules fail, backtracking resumes the choicepoint, which leaves the
candidate out.  A cut in the rules is local to them, and an error they
throw unwinds the caller's continuation like any other.  The dispatch
puts a CALL_WINNERS marker after the scoring, so after the last
candidate the winners, those of the highest score, are called;
``Engine.explain`` runs the same scoring with nothing after it, and so
calls no winner.  So dispatch nests as deep as plain recursion does:
nothing runs on the Python stack but one run.
"""

from __future__ import annotations

import sys

from .builtins import (
    COMPARISONS,
    DETERMINISTIC,
    NONDETERMINISTIC,
    ArithRun,
)
from .dispatcher import DISPATCH, dispatch, weighed, winner_calls
from .errors import (
    PrologThrow,
    existence_error,
    instantiation_error,
    type_error,
)
from .render import render
from .terms import (
    TRUE,
    Atom,
    BudgetExceeded,
    Skeleton,
    Struct,
    Var,
    _first_slots,
    arg_builder,
    build,
    make_list,
    proper_list,
    rename_term,
    resolve,
    unify,
)

FAIL = Atom("fail")

# Choicepoint kinds, the first item of a choicepoint; the second is the
# trail mark to undo to when it is resumed, the third the watermark it
# raised and the fourth the continuation it resumes:
#   (CLAUSES, mark, watermark, cont, args, clauses, index of the next,
#   spared): the clauses of a call, spared 0, or the winners of a
#   dispatch, spared 1, whose cut barrier lies above this choicepoint, so
#   that a cut in one winner spares the next
#   (RESUME, mark, watermark, cont): go on with cont
#   (VALUES, mark, watermark, cont, term, values, index of the next): the
#   values of a nondeterministic builtin still to unify with term
#   (CATCH, mark, watermark, cont, catcher, recovery entries, frame, barrier)
#   (FINDALL, mark, watermark, cont, template, answers, result)
#   (SCORE, mark, watermark, cont, scoring, index of the candidate); the
#   marker (SCORE, None, None, None, scoring, -1) starts a scoring
CLAUSES, RESUME, VALUES, CATCH, FINDALL, SCORE = range(6)

# Continuation markers, tuples in the first position of a continuation
# entry; they count no inference.  A resumed CLAUSES or SCORE choicepoint
# is put back into the continuation as a marker.
#   (CUT_TO, height): commit, as if-then-else does
#   (CATCH_EXIT, height of the CATCH choicepoint)
#   (COLLECT, height of the FINDALL choicepoint)
#   (BODY, goal entries, index of the next, frame)
#   (SCORED, height of SCORE, signature, score, weight templates, frame of
#   the rules)
#   (CALL_WINNERS, scoring): call the winners of a scored dispatch
CUT_TO, CATCH_EXIT, COLLECT, BODY, SCORED, CALL_WINNERS = range(11, 17)

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
        # the contexts that dispatches built, in the dispatcher's format
        # (dispatcher.updated_context)
        self.contexts = {}

    def reset_run(self):
        self.inferences = 0
        self.contexts.clear()

    def tick(self):
        self.inferences += 1
        if self.budget is not None and self.inferences > self.budget:
            raise BudgetExceeded("inference budget of %d exhausted" % self.budget)

    def unify(self, a, b, store):
        return unify(a, b, store, self.occurs_check)

    def copy(self, term, store, mapping=None):
        """A copy of a runtime term (``rename_term``).  Under a budget it
        may build at most as many compounds as inferences are left."""
        limit = None if self.budget is None else self.budget - self.inferences
        return rename_term(term, store, mapping, limit)

    # -- resolution --------------------------------------------------------

    def solve(self, goal, store):
        """A run of the machine on a goal term; it yields once per solution.

        While a solution is yielded its bindings are in place; an exhausted
        run leaves the store as it found it.
        """
        return Run(self, store, (BODY, compile_goal(goal, store), 0, None))

    def explain(self, scoring, store):
        """Run the context rules of a dispatch's goal-bearing candidates.

        scoring is a ``dispatcher.dispatch`` result whose report the rules
        complete, as a dispatch would.  Nothing follows the scoring in this
        run, so no winner is called.
        """
        Run(self, store, (SCORE, None, None, None, scoring, -1)).step()

    def call_predicate(self, key, args, store):
        """The clauses a call of the predicate key tries, in definition order.

        This is the one selection point of a predicate call: an unknown
        predicate is an existence error, and the index leaves out clauses
        that a bound argument rules out (``kb.ClauseIndex``).  ``args``
        is () for a call that is not indexed.
        """
        kb = self.kb
        if key not in kb.clauses:       # a dynamic predicate is always there
            culprit = Struct("/", (Atom(key[0]), key[1]))
            raise existence_error("procedure", culprit)
        return kb.clauses_for(key, args, store)

    def render(self, term, store=None, quoted=False):
        return render(term, store, self.kb.optable, quoted)


class Run:
    """One run of the machine: the continuation and choicepoints.

    ``step`` proves goals until the continuation is empty (a solution,
    True) or no choicepoint is left (False); the next ``step`` resumes
    the newest choicepoint.  Iterating a run yields once per solution.
    """

    __slots__ = ("solver", "store", "cont", "cps", "base", "floor")

    def __init__(self, solver, store, marker):
        self.solver = solver
        self.store = store
        self.base = store.mark()
        self.floor = store.watermark    # the watermark with no choicepoint
        self.cps = []
        self.cont = (marker, 0, None)

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
        deref = store.deref
        trail = store.trail
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
                    kind = goal[0]
                    if kind is BODY:    # the next goal of a body
                        _, entries, k, frame = goal
                        ticks, code, x, y = entries[k]
                        k += 1
                        if k < len(entries):
                            cont = ((BODY, entries, k, frame), barrier, cont)
                        if code is E_ARITH:     # it counts its own inferences
                            if x(solver, store, frame, tick):
                                continue
                            break
                        if ticks == 1:
                            tick()
                        else:   # ',' before the goal, or none owed
                            for _ in range(ticks):
                                tick()
                        # y builds the arguments, but for a runtime goal,
                        # whose frame is None and whose y holds them
                        if code is E_CALL:
                            args = y if frame is None else y(frame)
                            clauses = call_predicate(x, args, store)
                            mark, i, spared = None, 0, 0
                        elif code is C_DISPATCH:
                            scoring = dispatch(solver, store,
                                               *(y if frame is None else y(frame)))
                            if scoring[4] is None:  # goal-bearing rules first
                                cont = self._score(
                                    (SCORE, None, None, None, scoring, -1),
                                    ((CALL_WINNERS, scoring), 0, cont))
                                continue
                            args, clauses = winner_calls(solver, scoring)
                            mark, i, spared = None, 0, 1
                        elif code is E_DET:
                            if x(solver, store, *(y if frame is None else y(frame))):
                                continue
                            break
                        elif code is C_IF:    # the condition picks the branch
                            ok = x(solver, store, frame, tick)
                            for slot in y[2]:
                                frame[slot.index] = Var(slot.name)
                            cont = ((BODY, y[0] if ok else y[1], 0, frame),
                                    barrier, cont)
                            continue
                        elif code is C_CUT:
                            if len(cps) > barrier:
                                self._cut(barrier)
                            continue
                        elif code is E_NONDET:  # a term and its values
                            cont = self._values(cont, *x(
                                solver, store, *(y if frame is None else y(frame))))
                            continue
                        elif code is C_TRUE:
                            continue
                        elif code is C_FAIL:
                            break
                        else:
                            cont = self._open(code, x, y, frame, barrier, cont)
                            continue
                    elif kind is CLAUSES:     # a call's next clauses
                        _, mark, watermark, _, args, clauses, i, spared = goal
                    elif kind is CUT_TO:
                        self._cut(goal[1])
                        continue
                    elif kind is CATCH_EXIT:
                        if len(cps) == goal[1] + 1:     # the goal left no
                            self._cut(goal[1])          # choicepoint
                        continue
                    elif kind is COLLECT:
                        cp = cps[goal[1]]
                        cp[5].append(solver.copy(cp[4], store))
                        break
                    elif kind is CALL_WINNERS:
                        args, clauses = winner_calls(solver, goal[1])
                        mark, i, spared = None, 0, 1
                    else:       # SCORED or SCORE
                        cont = self._score(goal, cont)
                        continue
                    # try the clauses in order from clauses[i]; the first
                    # whose head matches leaves a choicepoint for the rest,
                    # and a mark is taken before the first head that has an
                    # alternative
                    n = len(clauses)
                    while i < n:
                        tick()
                        clause = clauses[i]
                        i += 1
                        match, body, size, guard = clause.compiled or clause.compile()
                        if guard is not None:   # a head constant the goal lacks
                            pos, constant = guard
                            arg = args[pos]
                            if type(arg) is Var:
                                arg = deref(arg)
                            if not (arg is constant or type(arg) is Var or (
                                    type(arg) is type(constant) and arg == constant)):
                                continue
                        if mark is None and i < n:
                            mark = store.mark()
                            watermark = store.watermark
                        frame = [None] * size
                        if match(args, frame, store, occurs_check):
                            height = len(cps)
                            if i < n:
                                cps.append((CLAUSES, mark, watermark, cont, args,
                                            clauses, i, spared))
                                height += spared
                            elif mark is not None:  # the last clause
                                self._release(mark)
                            if body:
                                cont = ((BODY, body, 0, frame), height, cont)
                            else:
                                tick()      # the body true of a fact
                            break
                        if mark is not None and len(trail) > mark:
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

    def _open(self, code, x, y, frame, barrier, cont):
        """The continuation that runs a goal of call/N or a variable goal,
        or the goals of a control construct.

        A goal known only now is compiled now.  If-then-else (and so \\+
        and forall/2), disjunction, findall/3 and catch/3 give their slots
        first met fresh variables, then push a choicepoint and, but for a
        disjunction, a marker for their goal.
        """
        store = self.store
        cps = self.cps
        height = len(cps)
        if code is C_CALL or code is E_VAR:
            if x is None:   # the goal of call/1, compiled with the clause
                return (BODY, y, 0, frame), height, cont
            goal = x(self.solver, store, *(y if frame is None else y(frame)))
            if code is C_CALL:
                return (BODY, compile_goal(goal, store), 0, None), height, cont
            # a variable goal, counted by its entry, keeps its clause's barrier
            return (BODY, compile_goal(goal, store, 1), 0, None), barrier, cont
        for slot in x:
            frame[slot.index] = Var(slot.name)
        first, second, third = y
        mark = store.mark()
        watermark = store.watermark
        if code is C_ITE or code is C_DISJ:
            alternative = (BODY, third, 0, frame), barrier, cont
            cps.append((RESUME, mark, watermark, alternative))
            if code is C_DISJ:
                return (BODY, first, 0, frame), barrier, cont
            after = (CUT_TO, height), 0, ((BODY, second, 0, frame), barrier, cont)
        elif code is C_FINDALL:
            cps.append((FINDALL, mark, watermark, cont, build(second, frame), [],
                        build(third, frame)))
            after = (COLLECT, height), 0, cont
        else:       # C_CATCH
            cps.append((CATCH, mark, watermark, cont, build(second, frame), third,
                        frame, barrier))
            after = (CATCH_EXIT, height), 0, cont
        return (BODY, first, 0, frame), height + 1, after

    def _score(self, marker, cont):
        """The continuation that goes on with the scoring of a dispatch.

        At a SCORED marker, the weights of the rules' first solution are
        added to the candidate's score and the rules are cut and undone; a
        resumed SCORE choicepoint leaves its candidate reported as failed.
        Then the context rules of the next eligible goal-bearing candidate
        run under a SCORE choicepoint, or, with none left, the run goes on
        with cont, where a dispatch has put the call of its winners.  A
        SCORE marker of candidate -1 starts the scoring.
        """
        cps = self.cps
        store = self.store
        if marker[0] is SCORED:
            _, height, sig, score, weights, frame = marker
            _, mark, _, _, scoring, k = cps[height]
            scoring[3][k] = sig, weighed(
                store, score, [build(w, frame) for w in weights]), None
            store.undo_to(mark)
            self._cut(height)
        else:
            scoring, k = marker[4], marker[5]
        ctx, report = scoring[2], scoring[3]
        for k in range(k + 1, len(report)):
            sig, score, _ = report[k]
            if score is not None and not sig.dimension_only:
                rules, weights, size = sig.compiled or sig.compile()
                frame = [None] * size
                frame[0] = ctx      # the slot of the context variable
                report[k] = sig, None, "context rules failed"
                height = len(cps)
                cps.append((SCORE, store.mark(), store.watermark, cont, scoring, k))
                marker = SCORED, height, sig, score, weights, frame
                return (BODY, rules or _TRUE, 0, frame), height + 1, (marker, 0, cont)
        return cont

    def _values(self, cont, term, values, i=0, mark=None):
        """cont once term unifies with the first of values[i:] that it
        can, or _FAILED if none does.

        A mark is taken before the first of two or more values.  While
        values remain, a VALUES choicepoint holds the index of the next;
        after the last, the mark is released.
        """
        store = self.store
        n = len(values)
        if mark is None and n > 1:
            mark = store.mark()
        for i in range(i, n):
            if self.solver.unify(term, values[i], store):
                if i + 1 < n:
                    self.cps.append((VALUES, mark, store.watermark, cont, term,
                                     values, i + 1))
                elif mark is not None:
                    self._release(mark)
                return cont
        return _FAILED

    def _release(self, mark):
        """Put back the watermark of the newest choicepoint left, and drop
        the trail entries from mark on that no choicepoint left can undo:
        those of variables made after its watermark."""
        store, trail, cps = self.store, self.store.trail, self.cps
        watermark = store.watermark = cps[-1][2] if cps else self.floor
        if len(trail) > mark:
            trail[mark:] = [var for var in trail[mark:] if var.serial < watermark]

    def _cut(self, height):
        """Drop the choicepoints from height on, and the trail entries
        that only they could undo."""
        mark = self.cps[height][1]
        del self.cps[height:]
        self._release(mark)

    def _backtrack(self):
        """The continuation of the newest alternative, or _REDO if none is left.

        Choicepoints without an alternative are popped, and the trail is
        undone to the mark of the one resumed.  A clause choicepoint, or a
        scored candidate whose rules failed, come back inside the
        continuation, as a marker that ``step`` resumes; the next values
        of a builtin are tried here.  With no choicepoint left the store
        is as the run found it.
        """
        cps = self.cps
        store = self.store
        while cps:
            cp = cps.pop()
            store.undo_to(cp[1])
            kind = cp[0]
            if kind is CLAUSES or kind is VALUES:
                store.watermark = cp[2]     # the retry runs under it
                if kind is CLAUSES:
                    return cp, 0, cp[3]
                return self._values(cp[3], cp[4], cp[5], cp[6], cp[1])
            self._release(cp[1])
            if kind is RESUME:
                return cp[3]
            if kind is SCORE:
                return cp, 0, cp[3]
            if kind is FINDALL:
                if self.solver.unify(cp[6], make_list(cp[5]), store):
                    return cp[3]
            # a CATCH choicepoint: its goal has no answer left
        store.undo_to(self.base)
        store.watermark = self.floor
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
            if marker[0] is CATCH_EXIT:
                height = marker[1]
                _, mark, _, after, catcher, recovery, frame, barrier = cps[height]
                store.undo_to(mark)
                self._cut(height)
                ball = self.solver.copy(exc.ball, store)
                if self.solver.unify(catcher, ball, store):
                    return (BODY, recovery, 0, frame), barrier, after
            cont = cont[2]
        return None


def _call_goal(solver, store, g, *extra):
    """The goal of call/N: g with the extra arguments added, to the goal
    that g dispatches if g is a dispatch."""
    g = store.deref(g)
    if type(g) is Atom:
        return Struct(g.name, extra) if extra else g
    if type(g) is Struct:
        if not extra:
            return g
        if g.functor == DISPATCH and len(g.args) == 3:
            goal = _call_goal(solver, store, g.args[2], *extra)
            return Struct(DISPATCH, g.args[:2] + (goal,))
        return Struct(g.functor, g.args + extra)
    if type(g) is Var:
        raise instantiation_error()
    raise type_error("callable", resolve(g, store))


def _apply_goal(solver, store, g, arglist):
    items = proper_list(arglist, store)
    if items is None:
        raise type_error("list", resolve(arglist, store))
    return _call_goal(solver, store, g, *items)


# -- compiled goals -----------------------------------------------------------

# Kinds of goal entry, the second item of an entry (ticks, kind, x, y).
# In a clause body, y holds a builder (``terms.arg_builder``) that makes
# the goal's arguments from the frame; the goal's first occurrences get
# their variables there, so no entry reads a slot before its first goal
# has filled it.  In a goal compiled when it runs, y holds the arguments.
#   E_CALL: predicate key, arguments
#   E_DET: builtin, arguments
#   E_ARITH: the function of a run of is/2 and comparisons
#   (``builtins.ArithRun``), which counts its own inferences; ticks 0, y
#   None
#   E_NONDET: builtin that returns a term and its values, arguments
#   E_VAR: _call_goal, (goal,); compiled when it runs
#   C_CALL: goal maker, arguments; or None, the entries of a call/1 goal
#   compiled with the clause
#   C_DISPATCH: None, (implicit context, given context, goal)
#   C_CUT, C_TRUE, C_FAIL: None, ()
#   C_IF: the run of the condition, (then entries, else entries, fresh
#   slots), for an if-then-else whose condition is a comparison of slots
#   met before it
# The other constructs: x holds the slots first met in the construct,
# given fresh variables before it runs, and y its three parts, each goal
# among them compiled into entries:
#   C_ITE (condition, then, else), C_DISJ (either, None, or),
#   C_FINDALL (goal, template, result), C_CATCH (goal, catcher, recovery)
# \+ G runs as (G -> fail ; true) and forall(C, A) as \+ (C, \+ A), with
# no inference for the parts that the term does not have.
(E_CALL, E_DET, E_ARITH, E_NONDET, E_VAR, C_CALL, C_DISPATCH, C_CUT,
 C_TRUE, C_FAIL, C_IF, C_ITE, C_DISJ, C_NOT, C_FINDALL, C_FORALL,
 C_CATCH) = range(20, 37)

# the positions of the goals among a construct's parts, in compiled order
_GOALS = {C_ITE: (0, 1, 2), C_DISJ: (0, 2), C_NOT: (0,), C_FINDALL: (0,),
          C_FORALL: (0, 1), C_CATCH: (0, 2)}
# constructs nested deeper than NESTING_LIMIT compile when they run, so
# that compiling stays clear of the limit of the Python stack, and so do
# the goals of a runtime conjunction past the first CHUNK, so that a cyclic
# one runs, and counts its inferences, as it compiles
NESTING_LIMIT = 100
CHUNK = 10_000

# the positions of the goal arguments of each control construct: the
# machine runs the term there as a goal, and the transformer rewrites it
# as one (``transformer.phase1_rewrite``); apply/2, whose goal is left as
# it is written, is not among them
GOAL_ARGS = {
    (",", 2): (0, 1), (";", 2): (0, 1), ("->", 2): (0, 1), ("\\+", 1): (0,),
    ("findall", 3): (1,), ("forall", 2): (0, 1), ("catch", 3): (0, 2),
    **{("call", n): (0,) for n in range(1, 9)},
}

_BUILTINS = {
    ("true", 0): (C_TRUE, None), ("fail", 0): (C_FAIL, None),
    ("false", 0): (C_FAIL, None), ("!", 0): (C_CUT, None),
    (";", 2): (C_DISJ, None), ("->", 2): (C_ITE, None), ("\\+", 1): (C_NOT, None),
    ("catch", 3): (C_CATCH, None), ("findall", 3): (C_FINDALL, None),
    ("forall", 2): (C_FORALL, None), (DISPATCH, 3): (C_DISPATCH, None),
    ("apply", 2): (C_CALL, _apply_goal),
    **{("call", n): (C_CALL, _call_goal) for n in range(1, 9)},
    **{key: (E_NONDET, builtin) for key, builtin in NONDETERMINISTIC.items()},
    **{key: (E_DET, builtin) for key, builtin in DETERMINISTIC.items()},
}
_ARITH = {"is", *COMPARISONS}


def compile_body(body, heads):
    """The goal entries of a clause body template; () for ``true``.

    ``heads`` are the head's argument templates, whose slots all hold a
    value once the head has matched.  Each entry owes one inference for
    its goal and one for each ``,`` the term would have taken apart just
    before it, so the counts are those of running the body as a term.
    Each maximal run of is/2 and comparisons whose expressions compile is
    one E_ARITH entry.
    """
    if body is TRUE:
        return ()
    return _compile(body, set(_first_slots(heads)), None, 0)


def compile_goal(goal, store, counted=0):
    """The goal entries of a runtime goal, a template without slots.

    Bindings are followed where goals are taken apart, and a variable
    still unbound becomes a variable goal; no code is generated.
    ``counted`` is 1 for a variable goal, whose own inference its entry
    has counted.  The entries of an atom goal are made once.
    """
    if type(goal) is Atom:
        key = goal, counted
        found = _ATOM_GOALS.get(key)
        if found is None:
            if len(_ATOM_GOALS) >= _ATOMS_KEPT:
                _ATOM_GOALS.clear()
            found = _ATOM_GOALS[key] = _compile(goal, None, None, 0, -counted)
        return found
    return _compile(goal, None, store.deref, 0, -counted)


_ATOM_GOALS = {}        # (atom, counted) -> its entries
_ATOMS_KEPT = 512


def _compile(body, seen, deref, depth, commas=0):
    """The entries of a conjunction's goals; seen is None at run time.

    A runtime conjunction of more than ``CHUNK`` goals, a cyclic one
    among them, compiles the goals past them when it gets there.
    """
    entries = []
    run = None      # a run of arithmetic goals while it grows
    stack = [body]
    while stack:
        goal = stack.pop()
        if deref is not None and type(goal) is Var:
            goal = deref(goal)
        if (type(goal) in (Skeleton, Struct) and goal.functor == ","
                and len(goal.args) == 2):
            if deref is not None and len(entries) + len(stack) >= CHUNK:
                stack.append(goal)
                break
            commas += 1
            stack += reversed(goal.args)
            continue
        ticks, commas = commas + 1, 0
        if (seen is not None and type(goal) is Skeleton
                and goal.functor in _ARITH and len(goal.args) == 2):
            run = run or ArithRun(seen)
            if run.add(ticks, (goal.functor, 2), goal.args):
                continue
        if run:
            entries.append((0, E_ARITH, run.function(), None))
        run = None
        entries.append(_compile_goal(goal, ticks, seen, deref, depth))
    if run:
        entries.append((0, E_ARITH, run.function(), None))
    for goal in reversed(stack):    # the goals past a chunk, if any
        entries.append((commas + 1, E_VAR, _call_goal, (goal,)))
        commas = 0
    return tuple(entries)


def _compile_goal(goal, ticks, seen, deref, depth):
    cls = type(goal)
    if cls is Skeleton or cls is Struct:
        key, args = (goal.functor, len(goal.args)), goal.args
    else:
        key, args = (goal.name, 0) if cls is Atom else None, ()
    code, op = _BUILTINS.get(key) or (E_CALL, key)
    if code is E_CALL and key is not None:
        return ticks, E_CALL, key, _put(args, seen)
    if key is None or (code in _GOALS and depth >= NESTING_LIMIT):
        # a variable, no callable term, or a construct nested too deep to
        # compile on the Python stack
        return ticks, E_VAR, _call_goal, _put((goal,), seen)
    if code in _GOALS:
        return _compile_construct(code, args, ticks, seen, deref, depth + 1)
    if key == ("call", 1) and depth < NESTING_LIMIT:
        called = args[0] if deref is None else deref(args[0])
        if type(called) in (Skeleton, Struct, Atom):
            return ticks, C_CALL, None, _compile(called, seen, deref, depth + 1)
    if code is C_CUT or code is C_TRUE or code is C_FAIL:
        return ticks, code, None, ()
    return ticks, code, op, _put(args, seen)


def _put(templates, seen):
    """A goal's arguments as its entry holds them: a builder in a clause
    body, which adds the goal's slots to seen, or the terms themselves at
    run time."""
    return templates if seen is None else arg_builder(templates, seen)


def _compile_construct(code, args, ticks, seen, deref, depth):
    if code is C_DISJ:
        either = args[0] if deref is None else deref(args[0])
        if (type(either) in (Skeleton, Struct) and either.functor == "->"
                and len(either.args) == 2):
            code, args = C_ITE, either.args + args[1:]
        else:
            args = args[0], None, args[1]
    elif code is C_ITE:
        args += (FAIL,)
    elif code is C_FINDALL:
        args = args[1], args[0], args[2]
    cond = args[0]      # a comparison of known slots needs no choicepoint
    test = None
    if (code in (C_ITE, C_NOT) and seen is not None
            and type(cond) in (Skeleton, Struct) and cond.functor in COMPARISONS
            and len(cond.args) == 2):
        run = ArithRun(seen)
        if run.add(0, (cond.functor, 2), cond.args):
            test = run.function()
    fresh = {} if seen is None else _first_slots(args, seen)
    if fresh:
        seen.update(fresh)
    fresh = tuple(fresh.values())
    goals = _GOALS[code]
    parts = [_compile(a, seen, deref, depth) if i in goals else a
             for i, a in enumerate(args)]
    if code is C_NOT:
        code, parts = C_ITE, [parts[0], _QUIET_FAIL, _QUIET_TRUE]
    elif code is C_FORALL:
        inner = 0, C_ITE, (), (parts[1], _QUIET_FAIL, _QUIET_TRUE)
        code, parts = C_ITE, [parts[0] + (inner,), _QUIET_FAIL, _QUIET_TRUE]
    if test:
        return ticks + 1, C_IF, test, (*parts[1:], fresh)
    return ticks, code, fresh, tuple(parts)


_TRUE = _compile(TRUE, None, None, 0)
_QUIET_TRUE = ((0, C_TRUE, None, ()),)
_QUIET_FAIL = ((0, C_FAIL, None, ()),)
# the continuation of a goal that has failed, with no inference to count
_FAILED = (BODY, _QUIET_FAIL, 0, None), 0, None


BOOTSTRAP = """
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).

append([], L, L).
append([H|T], L, [H|R]) :- append(T, L, R).
"""
