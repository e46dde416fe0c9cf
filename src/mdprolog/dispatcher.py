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
    Atom,
    Struct,
    Var,
    build,
    functor_of,
    is_callable_term,
    make_list,
    proper_list,
    resolve,
)

PREDICATE_DIM = "predicate"


def _context_entries(ctx, store):
    """(name, coord) pairs of an engine-built context list."""
    items = proper_list(ctx, store)
    if items is None:
        raise type_error("list", resolve(ctx, store))
    entries = []
    for item in items:
        e = store.deref(item)
        if (isinstance(e, Struct) and e.functor == ":" and len(e.args) == 2):
            name = store.deref(e.args[0])
            if isinstance(name, Atom):
                entries.append((name.name, e.args[1]))
    return entries


def updated_context(store, implicit, given, goal):
    """Merge the call-site context into the implicit one.

    Removals (-name) are applied first, then each name: coord entry
    upserts in order, and finally the goal itself is recorded under the
    predicate dimension.  Returns the context list and the set of its
    dimension names.
    """
    base = _context_entries(implicit, store)
    given_items = proper_list(given, store)
    if given_items is None:
        g = store.deref(given)
        if isinstance(g, Var):
            raise instantiation_error()
        raise type_error("list", resolve(given, store))

    removals = set()
    upserts = []
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
            upserts.append((name.name, e.args[1]))
            continue
        raise type_error("context_entry", resolve(item, store))

    entries = [(n, c) for (n, c) in base if n not in removals]

    def upsert(name, coord):
        for i, (n, _) in enumerate(entries):
            if n == name:
                entries[i] = (name, coord)
                return
        entries.append((name, coord))

    for name, coord in upserts:
        upsert(name, coord)
    upsert(PREDICATE_DIM, store.deref(goal))

    ctx = make_list([Struct(":", (Atom(n), c)) for n, c in entries])
    return ctx, {n for n, _ in entries}


def score_signature(solver, store, sig, ctx, ctx_keys):
    """Score one candidate against a context.

    Returns (score, None) when eligible, else (None, reason).  All
    bindings made while checking are undone before returning.  A
    dimension-only signature is scored from ``ctx_keys`` alone.
    """
    missing = [d for d in sig.required_dims if d not in ctx_keys]
    if missing:
        return None, "missing dimension %s" % ", ".join(missing)
    score = len([d for d in sig.required_dims if d != PREDICATE_DIM])
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
    return list(kb.signatures_for(name, arity)) + list(kb.anonymous_signatures)


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
    name, args, ctx, report = score_candidates(
        solver, store, implicit, given, goal)
    arity = len(args)
    if solver.trace_dispatch:
        for sig, score, reason in report:
            label = "%s -> %s" % (
                sig.label(),
                ("score %s" % score) if score is not None else reason)
            solver.err.write("dispatch %s/%d: %s\n" % (name, arity, label))

    scored = [(sig, score) for sig, score, _ in report if score is not None]
    if not scored:
        return

    best = max(s for _, s in scored)
    winners = [sig for sig, s in scored if s == best]
    if solver.trace_dispatch:
        solver.err.write(
            "dispatch %s/%d: running %s\n"
            % (name, arity, ", ".join(sig.label() for sig in winners)))

    for sig in winners:
        if sig.anonymous:
            call = Struct(sig.impl_name, (ctx,))
        else:
            call = Struct(sig.impl_name, (ctx,) + tuple(args))
        key = (sig.impl_name, len(call.args))
        yield from solver.call_predicate(call, key, store)
