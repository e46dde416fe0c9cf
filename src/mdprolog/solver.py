"""SLD resolution with chronological backtracking, plus the builtin suite.

Solutions are enumerated lazily through Python generators.  Every generator
restores the binding store to its entry state when it is exhausted; while a
solution is yielded the bindings are in place.  Cut is a flag on the frame
of the enclosing clause body; call/N, \\+, findall and forall are opaque
to it.

A clause is tried through its template (``Clause.compile``, compiled on
its first try): the goal's arguments are matched against the head in
place (``terms.match_args``), and the body is built from the filled slots
(``terms.build``) only when the head matched.  Nothing of the clause is
renamed; ``rename_term`` copies runtime terms only (findall, copy_term,
throw/catch and assertz).
"""

from __future__ import annotations

import functools
import math
import sys

from .dispatcher import dispatch
from .errors import (
    BudgetExceeded,
    Halt,
    PrologThrow,
    evaluation_error,
    existence_error,
    instantiation_error,
    permission_error,
    type_error,
)
from .render import render
from .terms import (
    Atom,
    Struct,
    Var,
    build,
    compare_terms,
    functor_of,
    indicator,
    is_callable_term,
    is_number,
    list_parts,
    make_list,
    match_args,
    proper_list,
    rename_term,
    resolve,
    unify,
)

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1

NIL = Atom("[]")


class Frame:
    """Cut barrier for one clause body."""

    __slots__ = ("cut",)

    def __init__(self):
        self.cut = False


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

    def solve(self, goal, store, frame):
        self.tick()
        goal = store.deref(goal)
        if isinstance(goal, Var):
            raise instantiation_error()
        if not is_callable_term(goal):
            raise type_error("callable", resolve(goal, store))
        name, args = functor_of(goal)
        key = (name, len(args))
        builtin = _BUILTINS.get(key)
        if builtin is not None:
            yield from builtin(self, store, frame, *args)
            return
        yield from self.call_predicate(goal, key, store)

    def call_predicate(self, goal, key, store):
        kb = self.kb
        if not kb.has_predicate(key):
            culprit = Struct("/", (Atom(key[0]), key[1]))
            raise existence_error("procedure", culprit)
        frame = Frame()
        args = goal.args if key[1] else ()
        first = store.deref(args[0]) if args else None
        occurs_check = self.occurs_check
        for clause in kb.clauses_for(key, first):
            self.tick()
            mark = store.mark()
            heads, body, size = clause.compiled or clause.compile()
            slots = [None] * size
            if match_args(heads, args, slots, store, occurs_check):
                yield from self.solve(build(body, slots), store, frame)
            store.undo_to(mark)
            if frame.cut:
                return

    def solve_once(self, goal, store):
        """First solution of a goal in an opaque frame; bindings kept."""
        it = self.solve(goal, store, Frame())
        for _ in it:
            it.close()
            return True
        return False

    # -- arithmetic ----------------------------------------------------------

    def eval_arith(self, term, store):
        t = store.deref(term)
        if isinstance(t, Var):
            raise instantiation_error()
        if isinstance(t, bool):
            raise type_error("evaluable", t)
        if isinstance(t, int):
            self._check_int(t)
            return t
        if isinstance(t, float):
            return t
        if isinstance(t, Atom):
            raise type_error("evaluable", Struct("/", (t, 0)))
        if isinstance(t, Struct):
            f, n = t.functor, len(t.args)
            if n == 1:
                a = self.eval_arith(t.args[0], store)
                if f == "-":
                    return self._check_int(-a) if isinstance(a, int) else -a
                if f == "+":
                    return a
                if f == "abs":
                    return self._check_int(abs(a)) if isinstance(a, int) else abs(a)
                if f == "floor":
                    return self._check_int(math.floor(a))
                if f == "sqrt":
                    if a < 0:
                        raise evaluation_error("undefined")
                    return math.sqrt(a)
            elif n == 2:
                a = self.eval_arith(t.args[0], store)
                b = self.eval_arith(t.args[1], store)
                if f == "+":
                    return self._num_result(a + b)
                if f == "-":
                    return self._num_result(a - b)
                if f == "*":
                    return self._num_result(a * b)
                if f == "/":
                    if b == 0:
                        raise evaluation_error("zero_divisor")
                    if isinstance(a, int) and isinstance(b, int):
                        if a % b == 0:
                            return self._check_int(a // b)
                        return a / b
                    return a / b
                if f == "mod":
                    if not (isinstance(a, int) and isinstance(b, int)):
                        raise type_error("integer", a if not isinstance(a, int) else b)
                    if b == 0:
                        raise evaluation_error("zero_divisor")
                    return self._check_int(a % b)
                if f == "min":
                    return min(a, b)
                if f == "max":
                    return max(a, b)
            raise type_error("evaluable", Struct("/", (Atom(f), n)))
        raise type_error("evaluable", t)

    @staticmethod
    def _check_int(value):
        if not INT_MIN <= value <= INT_MAX:
            raise evaluation_error("int_overflow")
        return value

    def _num_result(self, value):
        if isinstance(value, int):
            return self._check_int(value)
        return value

    def render(self, term, store=None, quoted=False):
        return render(term, store, self.kb.optable, quoted)


# ---------------------------------------------------------------------------
# control constructs (cut-transparent unless noted)


def _c_true(solver, store, frame):
    yield


def _c_fail(solver, store, frame):
    return
    yield  # pragma: no cover


def _c_cut(solver, store, frame):
    yield
    frame.cut = True


def _c_conj(solver, store, frame, a, b):
    for _ in solver.solve(a, store, frame):
        yield from solver.solve(b, store, frame)
        if frame.cut:
            return


def _c_disj(solver, store, frame, a, b):
    a_deref = store.deref(a)
    if isinstance(a_deref, Struct) and a_deref.functor == "->" and len(a_deref.args) == 2:
        yield from _ite(solver, store, frame, a_deref.args[0], a_deref.args[1], b)
        return
    yield from solver.solve(a, store, frame)
    if frame.cut:
        return
    yield from solver.solve(b, store, frame)


def _c_arrow(solver, store, frame, cond, then_):
    yield from _ite(solver, store, frame, cond, then_, Atom("fail"))


def _ite(solver, store, frame, cond, then_, else_):
    mark = store.mark()
    if solver.solve_once(cond, store):
        yield from solver.solve(then_, store, frame)
        store.undo_to(mark)
    else:
        store.undo_to(mark)
        yield from solver.solve(else_, store, frame)


def _c_not(solver, store, frame, goal):
    mark = store.mark()
    found = solver.solve_once(goal, store)
    store.undo_to(mark)
    if not found:
        yield


def _c_call(solver, store, frame, g, *extra):
    goal = _extend_goal(solver, store, g, extra)
    yield from solver.solve(goal, store, Frame())


def _extend_goal(solver, store, g, extra):
    g = store.deref(g)
    if isinstance(g, Var):
        raise instantiation_error()
    if isinstance(g, Atom):
        return Struct(g.name, tuple(extra)) if extra else g
    if isinstance(g, Struct):
        return Struct(g.functor, g.args + tuple(extra)) if extra else g
    raise type_error("callable", resolve(g, store))


def _c_catch(solver, store, frame, goal, catcher, recovery):
    mark = store.mark()
    it = solver.solve(goal, store, Frame())
    while True:
        try:
            next(it)
        except StopIteration:
            return
        except PrologThrow as exc:
            store.undo_to(mark)
            ball = rename_term(exc.ball, store)
            inner = store.mark()
            if solver.unify(catcher, ball, store):
                yield from solver.solve(recovery, store, frame)
                store.undo_to(inner)
                return
            raise
        else:
            yield


def _c_findall(solver, store, frame, template, goal, out):
    mark = store.mark()
    results = []
    for _ in solver.solve(goal, store, Frame()):
        results.append(rename_term(template, store))
    store.undo_to(mark)
    result_list = make_list(results)
    if solver.unify(out, result_list, store):
        yield
        store.undo_to(mark)


def _c_forall(solver, store, frame, cond, action):
    mark = store.mark()
    holds = True
    for _ in solver.solve(cond, store, Frame()):
        inner = store.mark()
        if not solver.solve_once(action, store):
            holds = False
        store.undo_to(inner)
        if not holds:
            break
    store.undo_to(mark)
    if holds:
        yield


# ---------------------------------------------------------------------------
# builtins


def _unify_yield(solver, store, a, b):
    mark = store.mark()
    if solver.unify(a, b, store):
        yield
        store.undo_to(mark)


def _b_unify(solver, store, frame, a, b):
    yield from _unify_yield(solver, store, a, b)


def _b_not_unify(solver, store, frame, a, b):
    mark = store.mark()
    ok = solver.unify(a, b, store)
    store.undo_to(mark)
    if not ok:
        yield


def _b_struct_eq(solver, store, frame, a, b):
    if compare_terms(a, b, store) == 0:
        yield


def _b_struct_neq(solver, store, frame, a, b):
    if compare_terms(a, b, store) != 0:
        yield


def _b_is(solver, store, frame, out, expr):
    value = solver.eval_arith(expr, store)
    yield from _unify_yield(solver, store, out, value)


def _arith_cmp(op):
    def builtin(solver, store, frame, a, b):
        x = solver.eval_arith(a, store)
        y = solver.eval_arith(b, store)
        if op(x, y):
            yield
    return builtin


def _b_var(solver, store, frame, t):
    if isinstance(store.deref(t), Var):
        yield


def _b_nonvar(solver, store, frame, t):
    if not isinstance(store.deref(t), Var):
        yield


def _b_atom(solver, store, frame, t):
    if isinstance(store.deref(t), Atom):
        yield


def _b_number(solver, store, frame, t):
    if is_number(store.deref(t)):
        yield


def _b_functor(solver, store, frame, t, name, arity):
    td = store.deref(t)
    if isinstance(td, Var):
        n = store.deref(name)
        a = store.deref(arity)
        if isinstance(n, Var) or isinstance(a, Var):
            raise instantiation_error()
        if not isinstance(a, int):
            raise type_error("integer", a)
        if a == 0:
            yield from _unify_yield(solver, store, t, n)
            return
        if not isinstance(n, Atom):
            raise type_error("atom", n)
        built = Struct(n.name, tuple(Var() for _ in range(a)))
        yield from _unify_yield(solver, store, t, built)
        return
    if isinstance(td, Struct):
        pair = Struct(",", (Atom(td.functor), len(td.args)))
    else:
        pair = Struct(",", (td, 0))
    yield from _unify_yield(solver, store, Struct(",", (name, arity)), pair)


def _b_univ(solver, store, frame, t, lst):
    td = store.deref(t)
    if isinstance(td, Var):
        items = proper_list(lst, store)
        if items is None:
            raise instantiation_error()
        if not items:
            raise type_error("list", resolve(lst, store))
        head = store.deref(items[0])
        if len(items) == 1:
            if isinstance(head, Var):
                raise instantiation_error()
            yield from _unify_yield(solver, store, t, head)
            return
        if not isinstance(head, Atom):
            raise type_error("atom", head)
        yield from _unify_yield(solver, store, t, Struct(head.name, tuple(items[1:])))
        return
    if isinstance(td, Struct):
        out = make_list([Atom(td.functor), *td.args])
    else:
        out = make_list([td])
    yield from _unify_yield(solver, store, lst, out)


def _b_copy_term(solver, store, frame, t, out):
    yield from _unify_yield(solver, store, out, rename_term(t, store))


def _b_apply(solver, store, frame, g, arglist):
    items = proper_list(arglist, store)
    if items is None:
        raise type_error("list", resolve(arglist, store))
    goal = _extend_goal(solver, store, g, tuple(items))
    yield from solver.solve(goal, store, Frame())


def _b_between(solver, store, frame, low, high, x):
    lo = store.deref(low)
    hi = store.deref(high)
    if isinstance(lo, Var) or isinstance(hi, Var):
        raise instantiation_error()
    if not isinstance(lo, int):
        raise type_error("integer", lo)
    if not isinstance(hi, int):
        raise type_error("integer", hi)
    xd = store.deref(x)
    if isinstance(xd, int):
        if lo <= xd <= hi:
            yield
        return
    if not isinstance(xd, Var):
        raise type_error("integer", xd)
    for i in range(lo, hi + 1):
        mark = store.mark()
        store.bind(xd, i)
        yield
        store.undo_to(mark)


def _b_length(solver, store, frame, lst, n):
    items, tail = list_parts(lst, store)
    if tail is NIL:
        yield from _unify_yield(solver, store, n, len(items))
        return
    nd = store.deref(n)
    if isinstance(tail, Var) and isinstance(nd, int):
        if nd < len(items):
            return
        extension = make_list([Var() for _ in range(nd - len(items))])
        yield from _unify_yield(solver, store, tail, extension)
        return
    raise instantiation_error()


def _b_msort(solver, store, frame, lst, out):
    items = proper_list(lst, store)
    if items is None:
        raise type_error("list", resolve(lst, store))
    ordered = sorted(items, key=functools.cmp_to_key(
        lambda a, b: compare_terms(a, b, store)))
    yield from _unify_yield(solver, store, out, make_list(ordered))


def _b_keysort(solver, store, frame, lst, out):
    items = proper_list(lst, store)
    if items is None:
        raise type_error("list", resolve(lst, store))
    pairs = []
    for item in items:
        d = store.deref(item)
        if not (isinstance(d, Struct) and d.functor == "-" and len(d.args) == 2):
            raise type_error("pair", resolve(item, store))
        pairs.append(d)
    ordered = sorted(pairs, key=functools.cmp_to_key(
        lambda a, b: compare_terms(a.args[0], b.args[0], store)))
    yield from _unify_yield(solver, store, out, make_list(ordered))


def _numeric_list(solver, store, term):
    items = proper_list(term, store)
    if items is None:
        raise type_error("list", resolve(term, store))
    values = []
    for item in items:
        d = store.deref(item)
        if not is_number(d):
            raise type_error("number", resolve(item, store))
        values.append(d)
    return values


def _b_max_list(solver, store, frame, lst, out):
    values = _numeric_list(solver, store, lst)
    if not values:
        return
    yield from _unify_yield(solver, store, out, max(values))


def _b_sum_list(solver, store, frame, lst, out):
    values = _numeric_list(solver, store, lst)
    yield from _unify_yield(solver, store, out, sum(values) if values else 0)


def _b_intersection(solver, store, frame, a, b, out):
    items_a = proper_list(a, store)
    items_b = proper_list(b, store)
    if items_a is None or items_b is None:
        raise type_error("list", resolve(a if items_a is None else b, store))
    kept = []
    for item in items_a:
        for other in items_b:
            mark = store.mark()
            ok = solver.unify(item, other, store)
            store.undo_to(mark)
            if ok:
                kept.append(item)
                break
    yield from _unify_yield(solver, store, out, make_list(kept))


def _split_clause(solver, store, term):
    t = store.deref(term)
    if isinstance(t, Var):
        raise instantiation_error()
    if isinstance(t, Struct) and t.functor == ":-" and len(t.args) == 2:
        head, body = t.args
    else:
        head, body = t, Atom("true")
    head = store.deref(head)
    if not is_callable_term(head):
        raise type_error("callable", resolve(head, store))
    return head, body


def _b_assertz(solver, store, frame, clause):
    head, body = _split_clause(solver, store, clause)
    mapping = {}
    head_copy = rename_term(head, store, mapping)
    body_copy = rename_term(body, store, mapping)
    key = indicator(head_copy)
    if solver.kb.has_mdp_predicate(*key):
        raise permission_error("modify", "mdp_predicate",
                               Struct("/", (Atom(key[0]), key[1])))
    solver.kb.set_dynamic(key)
    solver.kb.add_clause(head_copy, body_copy)
    yield


def _b_retractall(solver, store, frame, pattern):
    head = store.deref(pattern)
    if isinstance(head, Var):
        raise instantiation_error()
    if not is_callable_term(head):
        raise type_error("callable", resolve(head, store))
    key = indicator(head)
    args = head.args if key[1] else ()
    solver.kb.set_dynamic(key)
    survivors = []
    for clause in solver.kb.clauses_for(key):
        heads, _, size = clause.compiled or clause.compile()
        slots = [None] * size
        mark = store.mark()
        matched = match_args(heads, args, slots, store, solver.occurs_check)
        store.undo_to(mark)
        if not matched:
            survivors.append(clause)
    solver.kb.replace_clauses(key, survivors)
    yield


def _each_indicator(solver, store, spec):
    s = store.deref(spec)
    if isinstance(s, Struct) and s.functor == "," and len(s.args) == 2:
        yield from _each_indicator(solver, store, s.args[0])
        yield from _each_indicator(solver, store, s.args[1])
        return
    if isinstance(s, Struct) and s.functor == "/" and len(s.args) == 2:
        name = store.deref(s.args[0])
        arity = store.deref(s.args[1])
        if isinstance(name, Atom) and isinstance(arity, int):
            yield (name.name, arity)
            return
    raise type_error("predicate_indicator", resolve(spec, store))


def _b_dynamic(solver, store, frame, spec):
    for key in _each_indicator(solver, store, spec):
        if solver.kb.has_mdp_predicate(*key):
            raise permission_error("modify", "mdp_predicate",
                                   Struct("/", (Atom(key[0]), key[1])))
        solver.kb.set_dynamic(key)
    yield


def _b_op(solver, store, frame, priority, fixity, name):
    p = store.deref(priority)
    f = store.deref(fixity)
    n = store.deref(name)
    if isinstance(p, Var) or isinstance(f, Var) or isinstance(n, Var):
        raise instantiation_error()
    if not isinstance(p, int):
        raise type_error("integer", p)
    if not isinstance(f, Atom) or not isinstance(n, Atom):
        raise type_error("atom", f if not isinstance(f, Atom) else n)
    solver.kb.optable.add(p, f.name, n.name)
    yield


def _b_writeln(solver, store, frame, term):
    text = solver.render(resolve(term, store), None, quoted=False)
    solver.out.write(text + "\n")
    yield


def _b_halt0(solver, store, frame):
    raise Halt(0)
    yield  # pragma: no cover


def _b_halt1(solver, store, frame, code):
    c = store.deref(code)
    raise Halt(c if isinstance(c, int) else 0)
    yield  # pragma: no cover


def _b_throw(solver, store, frame, ball):
    b = store.deref(ball)
    if isinstance(b, Var):
        raise instantiation_error()
    raise PrologThrow(rename_term(ball, store))
    yield  # pragma: no cover


def _b_new_oid(solver, store, frame, out):
    solver.oid_counter += 1
    yield from _unify_yield(solver, store, out, Struct("oid", (solver.oid_counter,)))


def _b_ctx_member(solver, store, frame, ctx, dim, coord):
    entries = proper_list(ctx, store)
    if entries is None:
        raise type_error("list", resolve(ctx, store))
    for entry in entries:
        e = store.deref(entry)
        if not (isinstance(e, Struct) and e.functor == ":" and len(e.args) == 2):
            continue
        mark = store.mark()
        if solver.unify(dim, e.args[0], store) and solver.unify(coord, e.args[1], store):
            yield
        store.undo_to(mark)


def _b_dispatch(solver, store, frame, implicit, given, goal):
    yield from dispatch(solver, store, implicit, given, goal)


_BUILTINS = {
    ("true", 0): _c_true,
    ("fail", 0): _c_fail,
    ("false", 0): _c_fail,
    ("!", 0): _c_cut,
    (",", 2): _c_conj,
    (";", 2): _c_disj,
    ("->", 2): _c_arrow,
    ("\\+", 1): _c_not,
    ("catch", 3): _c_catch,
    ("findall", 3): _c_findall,
    ("forall", 2): _c_forall,
    ("=", 2): _b_unify,
    ("\\=", 2): _b_not_unify,
    ("==", 2): _b_struct_eq,
    ("\\==", 2): _b_struct_neq,
    ("is", 2): _b_is,
    ("<", 2): _arith_cmp(lambda a, b: a < b),
    (">", 2): _arith_cmp(lambda a, b: a > b),
    ("=<", 2): _arith_cmp(lambda a, b: a <= b),
    (">=", 2): _arith_cmp(lambda a, b: a >= b),
    ("=:=", 2): _arith_cmp(lambda a, b: a == b),
    ("=\\=", 2): _arith_cmp(lambda a, b: a != b),
    ("var", 1): _b_var,
    ("nonvar", 1): _b_nonvar,
    ("atom", 1): _b_atom,
    ("number", 1): _b_number,
    ("functor", 3): _b_functor,
    ("=..", 2): _b_univ,
    ("copy_term", 2): _b_copy_term,
    ("apply", 2): _b_apply,
    ("between", 3): _b_between,
    ("length", 2): _b_length,
    ("msort", 2): _b_msort,
    ("keysort", 2): _b_keysort,
    ("max_list", 2): _b_max_list,
    ("sum_list", 2): _b_sum_list,
    ("intersection", 3): _b_intersection,
    ("assertz", 1): _b_assertz,
    ("retractall", 1): _b_retractall,
    ("dynamic", 1): _b_dynamic,
    ("op", 3): _b_op,
    ("writeln", 1): _b_writeln,
    ("halt", 0): _b_halt0,
    ("halt", 1): _b_halt1,
    ("throw", 1): _b_throw,
    ("new_oid", 1): _b_new_oid,
    ("ctx_member", 3): _b_ctx_member,
    ("$dispatch", 3): _b_dispatch,
}
for _n in range(1, 9):
    _BUILTINS[("call", _n)] = _c_call

BOOTSTRAP = """
member(X, [X|_]).
member(X, [_|T]) :- member(X, T).

append([], L, L).
append([H|T], L, [H|R]) :- append(T, L, R).
"""
