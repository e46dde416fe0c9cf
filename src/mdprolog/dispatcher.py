"""Context-directed dispatch over multidimensional predicates.

A dispatch call receives the implicit context of the calling rule, the
given context written at the call site, and the goal.  It builds the
updated context, scores every candidate signature of the goal's
predicate, and runs the implementation clauses of all maximally specific
candidates in definition order.
"""

from __future__ import annotations

from .errors import existence_error, instantiation_error, type_error
from .terms import (
    NIL,
    Atom,
    Struct,
    Var,
    build,
    functor_of,
    is_callable_term,
    proper_list,
    resolve,
)

PREDICATE_DIM = "predicate"
PREDICATE = Atom(PREDICATE_DIM)


def _context_entries(ctx, store):
    """Dimension names and entries of an engine-built context list.

    An entry is the ``name: Coord`` compound itself, so an updated
    context reuses the entries it does not change.
    """
    deref = store.deref
    names = []
    entries = []
    t = deref(ctx)
    while type(t) is Struct and t.functor == "." and len(t.args) == 2:
        e = deref(t.args[0])
        if type(e) is Struct and e.functor == ":" and len(e.args) == 2:
            name = deref(e.args[0])
            if type(name) is Atom:
                names.append(name.name)
                entries.append(e)
        t = deref(t.args[1])
    if t is not NIL:
        raise type_error("list", resolve(ctx, store))
    return names, entries


def _given_entries(given, store):
    """Removed names and (name, entry) upserts of a call-site context."""
    removals = set()
    upserts = []
    g = store.deref(given)
    if g is NIL:
        return removals, upserts
    given_items = proper_list(g, store)
    if given_items is None:
        if isinstance(g, Var):
            raise instantiation_error()
        raise type_error("list", resolve(given, store))
    for item in given_items:
        e = store.deref(item)
        if isinstance(e, Var):
            raise instantiation_error()
        if isinstance(e, Struct) and e.functor == "-" and len(e.args) == 1:
            name = store.deref(e.args[0])
            if isinstance(name, Var):
                raise instantiation_error()
            if not isinstance(name, Atom):
                raise type_error("atom", resolve(name, store))
            removals.add(name.name)
            continue
        if isinstance(e, Struct) and e.functor == ":" and len(e.args) == 2:
            name = store.deref(e.args[0])
            if isinstance(name, Var):
                raise instantiation_error()
            if not isinstance(name, Atom):
                raise type_error("atom", resolve(name, store))
            if name is not e.args[0]:    # a bound variable names it
                e = Struct(":", (name, e.args[1]))
            upserts.append((name.name, e))
            continue
        raise type_error("context_entry", resolve(item, store))
    return removals, upserts


def updated_context(store, implicit, given, goal):
    """Merge the call-site context into the implicit one.

    Removals (-name) are applied first, then each name: coord entry
    upserts in order, and finally the goal itself is recorded under the
    predicate dimension.  Returns the context list and the set of its
    dimension names.
    """
    names, entries = _context_entries(implicit, store)
    removals, upserts = _given_entries(given, store)
    upserts.append((PREDICATE_DIM, Struct(":", (PREDICATE, store.deref(goal)))))
    if removals:
        kept = [i for i, n in enumerate(names) if n not in removals]
        names = [names[i] for i in kept]
        entries = [entries[i] for i in kept]
    for name, entry in upserts:
        if name in names:
            entries[names.index(name)] = entry
        else:
            names.append(name)
            entries.append(entry)
    ctx = NIL
    for entry in reversed(entries):
        ctx = Struct(".", (entry, ctx))
    return ctx, set(names)


def score_signature(solver, store, sig, ctx, ctx_keys):
    """Score one candidate against a context.

    Returns (score, None) when eligible, else (None, reason).  All
    bindings made while checking are undone before returning.  A
    dimension-only signature is scored from ``ctx_keys`` alone.
    """
    dims = sig.required_dims
    for d in dims:
        if d not in ctx_keys:
            return None, "missing dimension %s" % ", ".join(
                d for d in dims if d not in ctx_keys)
    score = len(dims) - dims.count(PREDICATE_DIM)
    if sig.dimension_only:
        return score, None

    rules_template, score_templates, size = sig.compiled or sig.compile()
    frame = [None] * size
    frame[0] = ctx                 # the slot of the context variable
    rules = build(rules_template, frame)
    score_vars = [build(v, frame) for v in score_templates]

    mark = store.mark()
    if not solver.solve_once(rules, store):
        store.undo_to(mark)
        return None, "context rules failed"
    for v in score_vars:
        value = store.deref(v)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            store.undo_to(mark)
            raise type_error("number", resolve(v, store))
        score += value
    store.undo_to(mark)
    return score, None


def candidates_for(kb, name, arity):
    """The signatures a dispatch of name/arity scores: a cached tuple."""
    return kb.candidates(name, arity)


def score_candidates(solver, store, implicit, given, goal):
    """Build the updated context and score every candidate of the goal.

    Returns (name, args, context, [(signature, score_or_None, reason)])
    with the candidates in definition order.
    """
    goal_d = store.deref(goal)
    if isinstance(goal_d, Var):
        raise instantiation_error()
    if not is_callable_term(goal_d):
        raise type_error("callable", resolve(goal_d, store))
    name, args = functor_of(goal_d)
    sigs = candidates_for(solver.kb, name, len(args))
    if not sigs:
        raise existence_error(
            "mdp_predicate", Struct("/", (Atom(name), len(args))))
    ctx, ctx_keys = updated_context(store, implicit, given, goal_d)
    report = [(sig,) + score_signature(solver, store, sig, ctx, ctx_keys)
              for sig in sigs]
    return name, args, ctx, report


def dispatch(solver, store, implicit, given, goal):
    """The calls that run the winners of a dispatch, in definition order.

    Each call is a ``(goal, key)`` pair: the winner's implementation
    predicate applied to the updated context and the goal's arguments.
    """
    name, args, ctx, report = score_candidates(
        solver, store, implicit, given, goal)
    arity = len(args)
    if solver.trace_dispatch:
        for sig, score, reason in report:
            label = "%s -> %s" % (
                sig.label(),
                ("score %s" % score) if score is not None else reason)
            solver.err.write("dispatch %s/%d: %s\n" % (name, arity, label))

    best = None
    winners = []
    for sig, score, _ in report:
        if score is None:
            continue
        if best is None or score > best:
            best = score
            winners = [sig]
        elif score == best:
            winners.append(sig)
    if winners and solver.trace_dispatch:
        solver.err.write(
            "dispatch %s/%d: running %s\n"
            % (name, arity, ", ".join(sig.label() for sig in winners)))

    calls = []
    for sig in winners:
        if sig.anonymous:
            call = Struct(sig.impl_name, (ctx,))
        else:
            call = Struct(sig.impl_name, (ctx,) + args)
        calls.append((call, (sig.impl_name, len(call.args))))
    return calls
