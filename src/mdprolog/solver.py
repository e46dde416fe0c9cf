"""SLD resolution as an explicit goal/choicepoint machine.

A run of the machine (``Run``) keeps two structures:

* the continuation, the goals still to prove, as a linked list of
  ``(goal, cut barrier, next)`` tuples; ``None`` means every goal is
  proved, which is a solution;
* the choicepoint stack, a list of the alternatives left to try.  Each
  entry holds the trail mark to undo to and the continuation to resume:
  the clauses a call has not tried yet, the other branch of a
  disjunction, the winners of a dispatch not run yet, a candidate whose
  context rules are being scored, a suspended nondeterministic builtin,
  or the frame of a catch/3 or findall/3.

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

A store trails only bindings of variables older than its watermark,
which ``store.mark()`` raises (``terms.BindingStore``), so marks are
taken only where an undo can follow: before the first head that has
another clause or winner after it, at every choicepoint pushed (a run's
start, ``;``, ``->``, \\+, findall/3, forall/2, catch/3, a
nondeterministic builtin, a scoring) and where a builtin undoes on its
own (``\\=``, retractall/1).  Deterministic code
takes no mark, so it keeps only the terms it still uses.

A clause is tried through what ``Clause.compile`` makes on its first
try: a head whose first atom or number argument differs from the goal's
is passed over before any of it is matched, and otherwise the goal's
arguments are matched in place by the head's matcher, a function
generated for the shape of the head and shared by every head of that
shape (``terms.head_matcher``).  It fills a frame that holds one value
per clause variable, storing a variable's first occurrence with no test
and building structure only where the goal has an unbound variable.
Nothing of the clause is renamed; ``rename_term`` copies runtime terms
only (findall, copy_term, throw/catch and assertz).

The body was compiled with the head (``compile_body``) into a tuple of
goal entries, one per goal of its conjunctions, each with its operation
resolved: a predicate key and argument templates, a deterministic
builtin, cut, or a dispatch.  A running body is a ``(BODY, entries,
index, frame)`` marker in the continuation; its last entry continues
with the caller's continuation, and a fact's body ``true`` is no entry
at all.  Each entry owes one inference for its goal and one for each
``,`` the term would have taken apart just before it, so counts are
those of running the body as a term.  Other control constructs and
variable goals are built from the frame and run on the term path, as
runtime goals (queries, call/N, findall/3) are.

``is/2`` and the arithmetic comparisons over clause variables, integers
and ``+ - *`` compile to a function of the frame
(``builtins.arith_evaluator``); ``X is E`` with a first occurrence of
``X`` stores the value in the frame without a variable.  Where the
function gives up (an unbound or non-integer operand, a result outside
64 bits) the builtin runs on the built goal, so answers and error terms
are the builtin's.

A dispatch returns ``(args, key)`` calls.  Its winners are called
without indexing, since each implementation predicate has one clause,
one after another while their clauses fail; the WINNERS choicepoint is
pushed only when a clause of one matched and later winners remain.

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
throw unwinds the caller's continuation like any other.  After the last
candidate the winners, those of the highest score, are called
(``dispatcher.winner_calls``); ``Engine.explain`` runs the same scoring
and calls no winner.  So dispatch nests as deep as plain recursion does:
nothing runs on the Python stack but one run.
"""

from __future__ import annotations

import sys

from .builtins import (
    COMPARISONS,
    DETERMINISTIC,
    NONDETERMINISTIC,
    arith_evaluator,
)
from .dispatcher import dispatch, weighed, winner_calls
from .errors import (
    BudgetExceeded,
    PrologThrow,
    existence_error,
    instantiation_error,
    type_error,
)
from .render import render
from .terms import (
    TRUE,
    Atom,
    Skeleton,
    Slot,
    Struct,
    Var,
    build,
    build_args,
    make_list,
    new_struct,
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
WINNERS = 3     # (WINNERS, mark, cont, [(args, key)] of the next, last first)
CATCH = 4       # (CATCH, mark, cont, catcher, recovery, barrier)
FINDALL = 5     # (FINDALL, mark, cont, template, answers, result)
CUT_FAIL = 6    # (CUT_FAIL, mark, height): cut to height, then fail
SCORE = 7       # (SCORE, mark, cont, scoring, index of the candidate);
                # the marker (SCORE, 0, 0, scoring, -1) starts a scoring

# Continuation markers, tuples in the goal position of a continuation
# entry; they count no inference.  A resumed CLAUSES, GENERATOR, WINNERS
# or SCORE choicepoint is put back into the continuation as a marker too.
CUT_TO = 11      # (CUT_TO, height): commit, as if-then-else does
FAIL_TO = 12     # (FAIL_TO, height): cut to height, then fail
CATCH_EXIT = 13  # (CATCH_EXIT, height of the CATCH choicepoint)
COLLECT = 14     # (COLLECT, height of the FINDALL choicepoint)
FORALL = 15      # (FORALL, height, action): test the action once
BODY = 16        # (BODY, goal entries, index of the next, frame)
SCORED = 17      # (SCORED, height of SCORE, signature, score, weight
                 #  templates, frame of the rules)

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

    def solve(self, goal, store):
        """A run of the machine on goal; it yields once per solution.

        While a solution is yielded its bindings are in place; an exhausted
        run leaves the store as it found it.  goal is a term, or a marker
        that starts the scoring of a dispatch (``Engine.explain``).
        """
        return Run(self, store, goal)

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
    """One run of the machine over a goal: the continuation and choicepoints.

    ``step`` proves goals until the continuation is empty (a solution,
    True) or no choicepoint is left (False); the next ``step`` resumes
    the newest choicepoint.  Iterating a run yields once per solution.
    """

    __slots__ = ("solver", "store", "cont", "cps", "base")

    def __init__(self, solver, store, goal):
        self.solver = solver
        self.store = store
        self.base = store.mark()
        self.cps = []
        self.cont = (goal, 0, None)

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
        later = ()      # the winners of a dispatch still to call, last first
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
                    clauses = mark = None
                    i = 0
                    if type(goal) is tuple:
                        kind = goal[0]
                        if kind is BODY:    # the next goal of a clause body
                            _, entries, k, frame = goal
                            ticks, code, x, y, firsts = entries[k]
                            for slot in firsts:     # see compile_body
                                frame[slot] = None
                            k += 1
                            if k < len(entries):
                                cont = ((BODY, entries, k, frame), barrier, cont)
                            tick()
                            if ticks > 1:
                                for _ in range(1, ticks):
                                    tick()
                            if code is E_CALL:
                                args = build_args(y, frame)
                                clauses = call_predicate(x, args, store)
                            elif code is C_DISPATCH:
                                ctx, functor, templates = x
                                target = new_struct(
                                    functor, build_args(templates, frame))
                                later = dispatch(solver, store, build(ctx, frame),
                                                 build(y, frame), target)
                                if type(later) is tuple:    # rules to run first
                                    cont = self._score((SCORE, 0, 0, later, -1), cont)
                                    later = ()
                                    continue
                                clauses = ()
                            elif code is E_COMPARE:
                                ok = x(frame, deref)
                                if ok is None:
                                    builtin, templates = y
                                    ok = builtin(solver, store,
                                                 *build_args(templates, frame))
                                if ok:
                                    continue
                                break
                            elif code is E_IS:
                                value = x(frame, deref)
                                builtin, templates, out = y
                                if value is None:
                                    if builtin(solver, store,
                                               *build_args(templates, frame)):
                                        continue
                                    break
                                if frame[out] is None:  # a first occurrence
                                    frame[out] = value
                                    continue
                                if unify(frame[out], value, store, occurs_check):
                                    continue
                                break
                            elif code is E_DET:
                                if x(solver, store, *build_args(y, frame)):
                                    continue
                                break
                            elif code is C_CUT:
                                del cps[barrier:]
                                continue
                            else:   # E_GOAL: run on the term path below
                                goal = build(x, frame)
                        elif kind is CLAUSES:     # a call's next clauses
                            _, mark, _, args, clauses, i = goal
                        elif kind is WINNERS:     # a dispatch's next winners
                            _, mark, _, later = goal
                            clauses = ()
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
                        elif kind is SCORED or kind is SCORE:
                            cont = self._score(goal, cont)
                            continue
                        else:       # FORALL: one proof of the action
                            height = len(cps)
                            cps.append((CUT_FAIL, store.mark(), goal[1]))
                            cont = (goal[2], height + 1, ((FAIL_TO, height), 0, cont))
                            continue
                    else:
                        tick()
                    if clauses is None:     # a goal term
                        cls = type(goal)
                        if cls is Var:
                            goal = deref(goal)
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
                        if op is None:      # a predicate call
                            clauses = call_predicate(key, args, store)
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
                            later = dispatch(solver, store, *args)
                            if type(later) is tuple:    # rules to run first
                                cont = self._score((SCORE, 0, 0, later, -1), cont)
                                later = ()
                                continue
                            clauses = ()
                        elif op is C_FAIL:
                            break
                        elif op is C_NONDET:
                            mark = store.mark()
                            suspended = NONDETERMINISTIC[key](solver, store, *args)
                            if not next(suspended, False):
                                break
                            cps.append((GENERATOR, mark, cont, suspended))
                            continue
                        else:
                            cont = self._open(op, goal, args, barrier, cont)
                            continue
                    # try the clauses in order from clauses[i], then those
                    # of each later winner; the first whose head matches
                    # leaves choicepoints for the rest, and a mark is taken
                    # before the first head that has an alternative
                    n = len(clauses)
                    while i < n or later:
                        if i == n:      # the next winner, which is unindexed
                            args, key = later.pop()
                            clauses = call_predicate(key, (), store)
                            n = len(clauses)
                            i = 0
                            continue
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
                        if mark is None and (i < n or later):
                            mark = store.mark()
                        frame = [None] * size
                        if match(args, frame, store, occurs_check):
                            if later:
                                cps.append((WINNERS, mark, cont, later))
                                later = ()
                            height = len(cps)
                            if i < n:
                                cps.append((CLAUSES, mark, cont, args, clauses, i))
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
                later = ()
                cont = self._recover(exc, cont)
                if cont is None:
                    raise
                continue
            cont = self._backtrack()
        self.cont = _REDO
        return False

    def _open(self, op, goal, args, barrier, cont):
        """The continuation that runs the goal of a control construct.

        If-then-else, disjunction, \\+, findall/3, forall/2 and catch/3
        push a choicepoint and a marker for their goal; call/N and apply/2
        extend theirs.
        """
        cps = self.cps
        store = self.store
        height = len(cps)
        if op is C_CALL:
            return _extend_goal(store, args[0], args[1:]), height, cont
        if op is C_APPLY:
            return _apply_goal(store, *args), height, cont
        mark = store.mark()
        if op is C_DISJ or op is C_ITE:
            if op is C_ITE:
                either, other = goal, FAIL
            else:
                either, other = store.deref(args[0]), args[1]
            cps.append((RESUME, mark, (other, barrier, cont)))
            if (type(either) is Struct and either.functor == "->"
                    and len(either.args) == 2):
                cond, then = either.args
                return cond, height + 1, ((CUT_TO, height), 0, (then, barrier, cont))
            return either, barrier, cont
        if op is C_NOT:
            cps.append((RESUME, mark, cont))
            return args[0], height + 1, ((FAIL_TO, height), 0, cont)
        if op is C_FINDALL:
            cps.append((FINDALL, mark, cont, args[0], [], args[2]))
            return args[1], height + 1, ((COLLECT, height), 0, cont)
        if op is C_FORALL:
            cps.append((RESUME, mark, cont))
            return args[0], height + 1, ((FORALL, height, args[1]), 0, cont)
        cps.append((CATCH, mark, cont, args[1], args[2], barrier))   # C_CATCH
        return args[0], height + 1, ((CATCH_EXIT, height), 0, cont)

    def _score(self, marker, cont):
        """The continuation that goes on with the scoring of a dispatch.

        At a SCORED marker, the weights of the rules' first solution are
        added to the candidate's score and the rules are cut and undone; a
        resumed SCORE choicepoint leaves its candidate reported as failed.
        Then the context rules of the next eligible goal-bearing candidate
        run under a SCORE choicepoint, or, with none left, the winners are
        called; an explained dispatch calls none.  A SCORE marker of
        candidate -1 starts the scoring.
        """
        if marker[0] is SCORED:
            _, height, sig, score, weights, frame = marker
            _, mark, _, scoring, k = self.cps[height]
            score = weighed(self.store, score, build_args(weights, frame))
            scoring[3][k] = sig, score, None
            del self.cps[height:]
            self.store.undo_to(mark)
        else:
            _, _, _, scoring, k = marker
        name, args, ctx, report, explaining = scoring
        for k in range(k + 1, len(report)):
            sig, score, _ = report[k]
            if score is not None and not sig.dimension_only:
                rules, weights, size = sig.compiled or sig.compile()
                frame = [None] * size
                frame[0] = ctx      # the slot of the context variable
                report[k] = sig, None, "context rules failed"
                height = len(self.cps)
                self.cps.append((SCORE, self.store.mark(), cont, scoring, k))
                marker = SCORED, height, sig, score, weights, frame
                # rules of no entry, such as [true], tick as the term true
                goal = (BODY, rules, 0, frame) if rules else TRUE
                return goal, height + 1, (marker, 0, cont)
        if explaining:
            return cont
        calls = winner_calls(self.solver, name, args, ctx, report)
        return (WINNERS, None, None, calls), 0, cont

    def _backtrack(self):
        """The continuation of the newest alternative, or _REDO if none is left.

        Choicepoints without an alternative are popped, and the trail is
        undone to the mark of the one resumed.  A clause or builtin
        choicepoint, or the winners of a dispatch left to call, come back
        inside the continuation, as a marker that ``step`` resumes.  With
        no choicepoint left the store is as the run found it.
        """
        cps = self.cps
        store = self.store
        while cps:
            cp = cps.pop()
            store.undo_to(cp[1])
            kind = cp[0]
            if (kind is CLAUSES or kind is GENERATOR or kind is WINNERS
                    or kind is SCORE):
                return cp, 0, cp[2]
            if kind is RESUME:
                return cp[2]
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


# -- compiled clause bodies ---------------------------------------------------

# Kinds of goal entry, the second item of an entry; its last, firsts, are
# the slots first met in the goal (see compile_body).  Two control codes
# are kinds too:
#   (ticks, C_CUT, None, None, firsts) and
#   (ticks, C_DISPATCH, (implicit context template, goal functor,
#    goal argument templates), given context template, firsts)
E_CALL = 20      # (ticks, E_CALL, key, argument templates, firsts)
E_DET = 21       # (ticks, E_DET, builtin, argument templates, firsts)
E_IS = 22        # (ticks, E_IS, evaluator, (builtin, templates, out), firsts)
E_COMPARE = 23   # (ticks, E_COMPARE, evaluator, (builtin, templates), firsts)
E_GOAL = 24      # (ticks, E_GOAL, goal template, None, firsts): the term path


def compile_body(body, heads):
    """The goal entries of a clause body template; () for ``true``.

    ``heads`` are the head's argument templates, whose slots all hold a
    value once the head has matched.  Each entry owes one inference for
    its goal and one for each ``,`` the term path would have taken apart
    just before it, so the counts are those of running the body as a term.
    An entry ends with the slots first met in its goal, cleared before it
    runs: after backtracking such a slot may hold an ``is/2`` value or a
    variable made since the choicepoint, whose binding was not trailed.
    """
    if body is TRUE:
        return ()
    seen = set()
    _note_slots(heads, seen)
    entries = []
    commas = 0
    stack = [body]
    while stack:
        goal = stack.pop()
        if (type(goal) in (Skeleton, Struct) and goal.functor == ","
                and len(goal.args) == 2):
            commas += 1
            stack.append(goal.args[1])
            stack.append(goal.args[0])
            continue
        entries.append((*_compile_goal(goal, commas + 1, seen),
                        _note_slots((goal,), seen)))
        commas = 0
    return tuple(entries)


def _note_slots(templates, seen):
    """Add the slots of templates to seen; the indices that were not."""
    firsts = []
    stack = list(templates)
    while stack:
        t = stack.pop()
        if type(t) is Slot and t.index not in seen:
            seen.add(t.index)
            firsts.append(t.index)
        elif type(t) is Skeleton:
            stack.extend(t.args)
    return tuple(firsts)


def _compile_goal(goal, ticks, seen):
    cls = type(goal)
    if cls is Skeleton or cls is Struct:
        key = (goal.functor, len(goal.args))
        args = goal.args
    elif cls is Atom:
        key = (goal.name, 0)
        args = ()
    else:       # a variable or a number: the term path calls or rejects it
        return ticks, E_GOAL, goal, None
    op = _BUILTINS.get(key)
    if op is None:
        return ticks, E_CALL, key, args
    if op is C_CUT:
        return ticks, C_CUT, None, None
    if op is C_DISPATCH:
        implicit, given, target = args
        if ((type(implicit) is not Slot or implicit.index in seen)
                and type(target) in (Skeleton, Struct)):
            return ticks, C_DISPATCH, (
                implicit, target.functor, target.args), given
    if type(op) is int:
        # another control construct, a nondeterministic builtin, or a
        # dispatch whose goal is a variable or an atom
        return ticks, E_GOAL, goal, None
    if key[0] in COMPARISONS and key[1] == 2:
        evaluator = arith_evaluator(args, seen, key[0])
        if evaluator is not None:
            return ticks, E_COMPARE, evaluator, (op, args)
    elif key == ("is", 2) and type(args[0]) is Slot:
        evaluator = arith_evaluator(args[1:], seen)
        if evaluator is not None:
            return ticks, E_IS, evaluator, (op, args, args[0].index)
    return ticks, E_DET, op, args


BOOTSTRAP = """
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).

append([], L, L).
append([H|T], L, [H|R]) :- append(T, L, R).
"""
