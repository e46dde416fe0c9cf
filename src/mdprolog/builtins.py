"""The builtin predicates that the resolution machine calls.

Deterministic builtins take the solver, the binding store and the goal's
arguments and return True on success, False on failure; errors are
raised as ``PrologThrow``.  The nondeterministic ones bind nothing:
they return a term and the values it unifies with, in order, and the
machine tries those values as it tries a call's clauses.  A builtin
that tests a unification and undoes it runs the test through
``BindingStore.attempt``, so none of them marks or undoes on its own.
ctx_member/3 is one of them, but the dispatcher's own
(``dispatcher.ctx_member``), since it reads the contexts that dispatches
keep.  A list argument that must be a proper list is read by
``errors.list_items``, whose error is ``type_error(list, Term)`` for a
partial list too; ``msort/2``, ``keysort/2``, ``=../2`` and ``length/2``
keep ISO's rules, where a partial list is an instantiation error.

The is/2 and comparisons of a clause body also compile, in runs, to
generated Python code of the clause's frame (``ArithRun``), made by the
generator that makes head matchers and argument builders
(``terms._TemplateCode``).  Where that code cannot settle a goal it
falls back to ``eval_arith``, the evaluator of these builtins, on the
goal's own templates.
"""

from __future__ import annotations

import functools
import math
import sys

from .dispatcher import ctx_member
from .errors import (
    Halt,
    PrologThrow,
    domain_error,
    evaluation_error,
    instantiation_error,
    list_items,
    permission_error,
    type_error,
)
from .ops import FIXITIES
from .terms import (
    MATCH_NODES,
    NIL,
    RESOLVE_DEPTH_LIMIT,
    Atom,
    MdpError,
    Skeleton,
    Slot,
    Struct,
    Var,
    _TemplateCode,
    compare_terms,
    compile_source,
    flatten_conj,
    indicator,
    is_callable_term,
    is_number,
    list_parts,
    make_list,
    resolve,
)

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1


# ---------------------------------------------------------------------------
# arithmetic


def eval_arith(term, store, frame=None):
    """The value of an arithmetic expression.

    The expression may be a template of a clause body, a ``Skeleton``
    being a compound and a ``Slot`` the value in frame.  The compounds
    whose arguments are still being evaluated wait on a stack, with the
    values found so far, in place of recursion.  A compound of arity 3 or
    more is an error before its arguments are evaluated, the others
    after, left to right.
    """
    stack = []      # (compound, the values of its arguments so far)
    t = term
    while True:
        if type(t) is Slot:
            t = frame[t.index]
        if type(t) is Var:
            t = store.deref(t)
        cls = type(t)
        if cls is int:
            value = t if INT_MIN <= t <= INT_MAX else _check_int(t)
        elif cls is float:
            value = t
        elif cls is Struct or cls is Skeleton:
            if len(t.args) > 2:
                raise type_error("evaluable",
                                 Struct("/", (Atom(t.functor), len(t.args))))
            if len(stack) > RESOLVE_DEPTH_LIMIT:
                raise MdpError("term too deep while evaluating")
            stack.append((t, []))
            t = t.args[0]
            continue
        elif cls is Var:
            raise instantiation_error()
        elif cls is Atom:
            raise type_error("evaluable", Struct("/", (t, 0)))
        else:
            raise type_error("evaluable", t)
        while stack:    # hand the value to the compound waiting on it
            node, values = stack[-1]
            values.append(value)
            if len(values) < len(node.args):
                t = node.args[len(values)]
                break
            stack.pop()
            value = _apply(node.functor, values)
        else:
            return value


def _apply(f, values):
    """The value of f over the values of its one or two arguments."""
    if len(values) == 1:
        a = values[0]
        if f == "-":
            return _check_int(-a) if isinstance(a, int) else -a
        if f == "+":
            return a
        if f == "abs":
            return _check_int(abs(a)) if isinstance(a, int) else abs(a)
        if f == "floor":
            if a != a:      # NaN
                raise evaluation_error("undefined")
            if a in (math.inf, -math.inf):
                raise evaluation_error("int_overflow")
            return _check_int(math.floor(a))
        if f == "sqrt":
            if a < 0:
                raise evaluation_error("undefined")
            return math.sqrt(a)
    else:
        a, b = values
        if f == "+":
            return _num_result(a + b)
        if f == "-":
            return _num_result(a - b)
        if f == "*":
            return _num_result(a * b)
        if f == "/":
            if b == 0:
                raise evaluation_error("zero_divisor")
            if isinstance(a, int) and isinstance(b, int) and a % b == 0:
                return _check_int(a // b)
            return _num_result(a / b)
        if f == "mod":
            if not (isinstance(a, int) and isinstance(b, int)):
                raise type_error("integer", a if not isinstance(a, int) else b)
            if b == 0:
                raise evaluation_error("zero_divisor")
            return _check_int(a % b)
        if f == "min":
            return min(a, b)
        if f == "max":
            return max(a, b)
    raise type_error("evaluable", Struct("/", (Atom(f), len(values))))


def _check_int(value):
    if not INT_MIN <= value <= INT_MAX:
        raise evaluation_error("int_overflow")
    return value


def _num_result(value):
    """The value of + - * or /: a 64-bit integer or a finite float."""
    if isinstance(value, int):
        return _check_int(value)
    if value != value:
        raise evaluation_error("undefined")
    if value in (math.inf, -math.inf):
        raise evaluation_error("float_overflow")
    return value


# Compiled arithmetic: is/2 and the comparisons of a clause body, over
# slots, integer constants and + - *, become Python code of the frame.
# Where eval_arith could differ (an operand that is not a 64-bit integer,
# a result out of range) the code gives up, and eval_arith evaluates the
# goal's own expression templates instead, which gives its value or error.

COMPARISONS = {"<": "<", ">": ">", "=<": "<=", ">=": ">=", "=:=": "==",
               "=\\=": "!="}
_OPERATORS = ("+", "-", "*")


class ArithRun(_TemplateCode):
    """A run of body goals, is/2 and comparisons, as one generated function
    ``run(solver, store, frame, tick) -> bool``, a superoperator.

    ``add`` takes the goals in order while their expressions compile,
    each goal's within a ``MATCH_NODES`` budget of its own; ``function``
    makes the run.  The function counts each goal's inferences
    (``ticks``) with one ``tick`` call each before it runs the goal, as
    the machine would.
    ``make(T, eval_arith)`` reads its parameters from ``T``, which holds
    the argument templates of each goal in turn, so that runs of one
    shape share one source (``terms.compile_source``).  A goal computes
    its values in a ``for`` loop of one turn, which it leaves with
    ``continue`` where an operand is no 64-bit integer or a result is out
    of range: ``eval_arith`` then computes them from the goal's templates
    and the frame.  One tail follows: the comparison, the binding or test
    of a known result, or, for a first occurrence of the variable of
    ``X is E``, the value stored in the frame with no variable.  When a
    goal fails the run returns False, and first clears the first
    occurrences it has filled.
    """

    __slots__ = ("goals", "filled")

    def __init__(self, known):
        super().__init__(known)
        self.goals = []
        self.filled = []    # the params of the first occurrences filled

    def __bool__(self):
        return bool(self.goals)

    def value(self, t, path, lines):
        """The local or parameter of the value of the expression t, at
        path, which lines compute; None if it does not compile.  Each
        compound spends one of the budget."""
        cls = type(t)
        if cls is int:
            return self.param(path) if INT_MIN <= t <= INT_MAX else None
        name = self.local()
        if cls is Slot:
            if t.index not in self.known:
                return None
            lines += ("%s = frame[%s]" % (name, self.param(path + ".index")),
                      "if type(%s) is not int:" % name,
                      "    %s = store.deref(%s)" % (name, name),
                      "    if type(%s) is not int: continue" % name)
        elif ((cls is Skeleton or cls is Struct) and t.functor in _OPERATORS
              and len(t.args) == 2 and self.nodes > 0):
            self.nodes -= 1
            a = self.value(t.args[0], path + ".args[0]", lines)
            b = self.value(t.args[1], path + ".args[1]", lines)
            if a is None or b is None:
                return None
            lines.append("%s = %s %s %s" % (name, a, t.functor, b))
        else:
            return None
        lines.append("if not %d <= %s <= %d: continue"
                     % (INT_MIN, name, INT_MAX))
        return name

    def add(self, ticks, key, args):
        """Add the goal key(args) if it compiles; known holds the slots set
        before it, and then the goal's too.  Whether it was added."""
        out = None
        if key == ("is", 2) and type(args[0]) is Slot:
            out = args[0]
        elif not (key[0] in COMPARISONS and key[1] == 2):
            return False
        path = "T[%d]" % len(self.goals)
        saved = dict(self.params), self.names
        self.nodes = MATCH_NODES
        lines = []
        results = [self.value(args[j], "%s[%d]" % (path, j), lines)
                   for j in range(out is not None, 2)]
        if None in results:
            self.params, self.names = saved
            return False
        self.goals.append(args)
        self.emit(2, *["tick()"] * ticks)
        if lines:       # a constant needs no test
            self.emit(2, "for _ in (0,):")
            self.emit(3, *lines, "break")
            self.emit(2, "else:")
            self.emit(3, *["%s = eval_arith(%s, store, frame)" % (
                result, self.param("%s[%d]" % (path, j)))
                for j, result in enumerate(results, out is not None)
                if result.startswith("x")])     # a local, no constant
        index = None if out is None else self.param(path + "[0].index")
        if out is None:
            self.emit(2, "if not %s %s %s:" % (
                results[0], COMPARISONS[key[0]], results[1]))
            self._fail(3)
        elif out.index in self.known:   # bind or compare what is there
            known, value = self.local(), results[0]
            self.emit(2, "%s = store.deref(frame[%s])" % (known, index),
                      "if type({0}) is Var: store.bind({0}, {1})".format(
                          known, value),
                      "elif type({0}) is not type({1}) or {0} != {1}:".format(
                          known, value))
            self._fail(3)
        else:
            self.emit(2, "frame[%s] = %s" % (index, results[0]))
            self.filled.append(index)
            self.known.add(out.index)
        return True

    def _fail(self, indent):
        self.emit(indent, *["frame[%s] = None" % i for i in self.filled],
                  "return False")

    def function(self):
        self.emit(2, "return True")
        source = self.make_source("T, eval_arith",
                                  "run(solver, store, frame, tick)")
        return compile_source(source)(tuple(self.goals), eval_arith)


# ---------------------------------------------------------------------------
# builtins


def _b_unify(solver, store, a, b):
    return solver.unify(a, b, store)


def _b_not_unify(solver, store, a, b):
    return not store.attempt(solver.unify, a, b, store)


def _b_struct_eq(solver, store, a, b):
    return compare_terms(a, b, store) == 0


def _b_struct_neq(solver, store, a, b):
    return compare_terms(a, b, store) != 0


def _b_is(solver, store, out, expr):
    return solver.unify(out, eval_arith(expr, store), store)


def _arith_cmp(op):
    def builtin(solver, store, a, b):
        return op(eval_arith(a, store), eval_arith(b, store))
    return builtin


def _b_var(solver, store, t):
    return isinstance(store.deref(t), Var)


def _b_nonvar(solver, store, t):
    return not isinstance(store.deref(t), Var)


def _b_atom(solver, store, t):
    return isinstance(store.deref(t), Atom)


def _b_number(solver, store, t):
    return is_number(store.deref(t))


def _b_functor(solver, store, t, name, arity):
    td = store.deref(t)
    if isinstance(td, Var):
        n = store.deref(name)
        a = store.deref(arity)
        if isinstance(n, Var) or isinstance(a, Var):
            raise instantiation_error()
        if isinstance(n, Struct):
            raise type_error("atomic", resolve(n, store))
        if not isinstance(a, int):
            raise type_error("integer", a)
        if a < 0:
            raise domain_error("not_less_than_zero", a)
        if a == 0:
            return solver.unify(t, n, store)
        if not isinstance(n, Atom):
            raise type_error("atom", n)
        return solver.unify(t, Struct(n.name, tuple(Var() for _ in range(a))), store)
    if isinstance(td, Struct):
        pair = Struct(",", (Atom(td.functor), len(td.args)))
    else:
        pair = Struct(",", (td, 0))
    return solver.unify(Struct(",", (name, arity)), pair, store)


def _b_univ(solver, store, t, lst):
    td = store.deref(t)
    if isinstance(td, Var):
        items = list_items(lst, store, iso=True)
        if not items:
            raise domain_error("non_empty_list", NIL)
        head = store.deref(items[0])
        if isinstance(head, Var):
            raise instantiation_error()
        if len(items) == 1:
            if isinstance(head, Struct):
                raise type_error("atomic", resolve(head, store))
            return solver.unify(t, head, store)
        if not isinstance(head, Atom):
            raise type_error("atom", head)
        return solver.unify(t, Struct(head.name, tuple(items[1:])), store)
    tail = list_parts(lst, store)[1]
    if not (tail is NIL or isinstance(tail, Var)):
        raise type_error("list", resolve(lst, store))
    if isinstance(td, Struct):
        out = make_list([Atom(td.functor), *td.args])
    else:
        out = make_list([td])
    return solver.unify(lst, out, store)


def _b_copy_term(solver, store, t, out):
    return solver.unify(out, solver.copy(t, store), store)


def _b_between(solver, store, low, high, x):
    lo = store.deref(low)
    hi = store.deref(high)
    if isinstance(lo, Var) or isinstance(hi, Var):
        raise instantiation_error()
    for bound in (lo, hi):
        if not isinstance(bound, int):
            raise type_error("integer", bound)
    xd = store.deref(x)
    if isinstance(xd, int):     # the one value xd, if it is in range
        lo, hi = max(lo, xd), min(hi, xd)
    elif not isinstance(xd, Var):
        raise type_error("integer", xd)
    # len() counts at most sys.maxsize values, more than any run can try
    return xd, range(lo, min(hi + 1, lo + sys.maxsize))


def _b_length(solver, store, lst, n):
    items, tail = list_parts(lst, store)
    nd = store.deref(n)
    if not isinstance(nd, (Var, int)):
        raise type_error("integer", resolve(nd, store))
    if tail is NIL:
        return solver.unify(n, len(items), store)
    if not isinstance(tail, Var):
        raise type_error("list", resolve(lst, store))
    if isinstance(nd, Var):
        raise instantiation_error()
    if nd < len(items):
        return False
    extension = make_list([Var() for _ in range(nd - len(items))])
    return solver.unify(tail, extension, store)


def _b_msort(solver, store, lst, out):
    ordered = sorted(list_items(lst, store, iso=True), key=functools.cmp_to_key(
        lambda a, b: compare_terms(a, b, store)))
    return solver.unify(out, make_list(ordered), store)


def _b_keysort(solver, store, lst, out):
    pairs = []
    for item in list_items(lst, store, iso=True):
        d = store.deref(item)
        if isinstance(d, Var):
            raise instantiation_error()
        if not (isinstance(d, Struct) and d.functor == "-" and len(d.args) == 2):
            raise type_error("pair", resolve(item, store))
        pairs.append(d)
    ordered = sorted(pairs, key=functools.cmp_to_key(
        lambda a, b: compare_terms(a.args[0], b.args[0], store)))
    return solver.unify(out, make_list(ordered), store)


def _numeric_list(solver, store, term):
    values = []
    for item in list_items(term, store):
        d = store.deref(item)
        if not is_number(d):
            raise type_error("number", resolve(item, store))
        values.append(d)
    return values


def _b_max_list(solver, store, lst, out):
    values = _numeric_list(solver, store, lst)
    return bool(values) and solver.unify(out, max(values), store)


def _b_sum_list(solver, store, lst, out):
    total = 0
    for value in _numeric_list(solver, store, lst):
        total = _num_result(total + value)     # each partial sum, as is/2
    return solver.unify(out, total, store)


def _b_intersection(solver, store, a, b, out):
    items_a = list_items(a, store)
    items_b = list_items(b, store)
    kept = []
    for item in items_a:    # unified with the first element it matches
        for other in items_b:
            if store.attempt(solver.unify, item, other, store):
                solver.unify(item, other, store)
                kept.append(item)
                break
    return solver.unify(out, make_list(kept), store)


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


# the indicators of the heads that make a consulted clause an mdp rule
# (``transformer.expand_source_item``): Spec # Head, and a context list,
# the head of an anonymous rule
MDP_RULE_HEADS = {("#", 2), ("[]", 0), (".", 2)}


def _b_assertz(solver, store, clause):
    head, body = _split_clause(solver, store, clause)
    key = indicator(head)
    # only a consult makes an mdp rule, with its signature
    kind = "mdp_rule" if key in MDP_RULE_HEADS else "mdp_predicate"
    if kind == "mdp_rule" or solver.kb.has_mdp_predicate(*key):
        raise permission_error("modify", kind,
                               Struct("/", (Atom(key[0]), key[1])))
    mapping = {}
    head_copy = solver.copy(head, store, mapping)
    body_copy = solver.copy(body, store, mapping)
    solver.kb.set_dynamic(key)
    solver.kb.add_clause(head_copy, body_copy)
    return True


def _b_retractall(solver, store, pattern):
    head = store.deref(pattern)
    if isinstance(head, Var):
        raise instantiation_error()
    if not is_callable_term(head):
        raise type_error("callable", resolve(head, store))
    key = indicator(head)
    args = head.args if key[1] else ()
    kb = solver.kb
    pred = kb.set_dynamic(key)
    removed = []
    for clause in kb.clauses_for(key, args, store):
        match, _, size, _ = clause.compiled or clause.compile()
        if store.attempt(match, args, [None] * size, store, solver.occurs_check):
            removed.append(clause)
    if removed:
        pred.remove(removed)
    return True


def _each_indicator(solver, store, spec):
    for s in flatten_conj(spec, store):
        if isinstance(s, Struct) and s.functor == "/" and len(s.args) == 2:
            name = store.deref(s.args[0])
            arity = store.deref(s.args[1])
            if isinstance(name, Atom) and isinstance(arity, int):
                yield (name.name, arity)
                continue
        raise type_error("predicate_indicator", resolve(s, store))


def _b_dynamic(solver, store, spec):
    for key in _each_indicator(solver, store, spec):
        if solver.kb.has_mdp_predicate(*key):
            raise permission_error("modify", "mdp_predicate",
                                   Struct("/", (Atom(key[0]), key[1])))
        solver.kb.set_dynamic(key)
    return True


def _b_op(solver, store, priority, fixity, name):
    p = store.deref(priority)
    f = store.deref(fixity)
    n = store.deref(name)
    if isinstance(p, Var) or isinstance(f, Var) or isinstance(n, Var):
        raise instantiation_error()
    if not isinstance(p, int):
        raise type_error("integer", p)
    if not isinstance(f, Atom) or not isinstance(n, Atom):
        raise type_error("atom", f if not isinstance(f, Atom) else n)
    if not 1 <= p <= 1200:      # priority 0, which removes an operator, too
        raise domain_error("operator_priority", p)
    if f.name not in FIXITIES:
        raise domain_error("operator_specifier", f)
    if n.name == ",":
        raise permission_error("modify", "operator", n)
    solver.kb.optable.add(p, f.name, n.name)
    solver.kb.origin = None
    return True


def _b_writeln(solver, store, term):
    text = solver.render(resolve(term, store), None, quoted=False)
    solver.out.write(text + "\n")
    return True


def _b_halt0(solver, store):
    raise Halt(0)


def _b_halt1(solver, store, code):
    c = store.deref(code)
    if isinstance(c, Var):
        raise instantiation_error()
    if not isinstance(c, int):
        raise type_error("integer", resolve(c, store))
    raise Halt(c)


def _b_throw(solver, store, ball):
    b = store.deref(ball)
    if isinstance(b, Var):
        raise instantiation_error()
    raise PrologThrow(solver.copy(ball, store))


def _b_new_oid(solver, store, out):
    solver.oid_counter += 1
    return solver.unify(out, Struct("oid", (solver.oid_counter,)), store)


# nondeterministic builtins: each returns a term and the values, in order,
# that the machine tries to unify it with
NONDETERMINISTIC = {
    ("between", 3): _b_between,
    ("ctx_member", 3): ctx_member,
}

DETERMINISTIC = {
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
}
