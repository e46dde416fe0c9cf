"""Context-directed dispatch over multidimensional predicates.

A dispatch call receives the implicit context of the calling rule, the
given context written at the call site, and the goal.  It builds the
updated context and scores every candidate signature of the goal's
predicate (``dispatch``), the predicate's own signatures and then the
anonymous ones, each in definition order.  The winners, all maximally
specific candidates, are then called as one call whose clauses are
their implementation clauses in that order (``winner_calls``), so the
machine runs them as it runs the clauses of a plain predicate.
"""

from __future__ import annotations

from .errors import existence_error, instantiation_error, type_error
from .terms import (
    NIL,
    Atom,
    Struct,
    Var,
    new_struct,
    proper_list,
    resolve,
)

PREDICATE_DIM = "predicate"
PREDICATE = Atom(PREDICATE_DIM)


def parse_given(given, store):
    """Removed names and (name, entry) upserts of a call-site context."""
    g = store.deref(given)
    given_items = proper_list(g, store)
    if given_items is None:
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
            if name is not e.args[0]:    # a bound variable names it
                e = new_struct(":", (name, e.args[1]))
            upserts.append((name.name, e))
            continue
        raise type_error("context_entry", resolve(item, store))
    return frozenset(removals), tuple(upserts)


def updated_context(store, implicit, given, goal):
    """Merge the call-site context into the implicit one.

    Removals (-name) are applied first, then each name: coord entry
    upserts in order, and finally the goal itself is recorded under the
    predicate dimension.  ``given`` is the call-site context term and
    ``goal`` is dereferenced.  Returns the context list and the set of
    its dimension names.
    """
    # The implicit context is engine-built: its entries are the
    # ``name: Coord`` compounds themselves, which the update reuses.
    names = []
    entries = []
    t = store.deref(implicit) if type(implicit) is Var else implicit
    while type(t) is Struct and t.functor == "." and len(t.args) == 2:
        e, t = t.args
        if type(e) is Var:
            e = store.deref(e)
        if type(e) is Struct and e.functor == ":" and len(e.args) == 2:
            name = e.args[0]
            if type(name) is Var:
                name = store.deref(name)
            if type(name) is Atom:
                names.append(name.name)
                entries.append(e)
        if type(t) is Var:
            t = store.deref(t)
    if t is not NIL:
        raise type_error("list", resolve(implicit, store))
    if given is not NIL:
        removals, upserts = parse_given(given, store)
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
    entry = new_struct(":", (PREDICATE, goal))
    if PREDICATE_DIM in names:
        entries[names.index(PREDICATE_DIM)] = entry
    else:
        names.append(PREDICATE_DIM)
        entries.append(entry)
    ctx = NIL
    for entry in reversed(entries):
        ctx = new_struct(".", (entry, ctx))
    return ctx, set(names)


def score_signature(solver, store, sig, ctx, ctx_keys):
    """Check one candidate's dimensions against a context.

    Returns (score, None) when the context has every dimension the
    candidate requires, else (None, reason); the score counts them.  A
    goal-bearing candidate's context rules still have to run, and the
    weights of their first solution add to its score (``weighed``).
    """
    dims = sig.required_dims
    for d in dims:
        if d not in ctx_keys:
            return None, "missing dimension " + d
    return len(dims) - dims.count(PREDICATE_DIM), None


def weighed(store, score, weights):
    """The score plus the numbers bound to the score variables."""
    for v in weights:
        value = store.deref(v)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise type_error("number", resolve(v, store))
        score += value
    return score


def candidates_for(kb, name, arity):
    """The signatures a dispatch of name/arity scores: a cached tuple."""
    return kb.candidates(name, arity)


def dispatch(solver, store, implicit, given, goal):
    """Build the updated context and check every candidate of the goal.

    Returns the scoring, (name, args, context, report, pending): the
    report lists (signature, score_or_None, reason) for the candidates in
    definition order.  pending is true while an eligible candidate's
    context rules hold goals: its score lacks their weights, and the
    machine runs the rules and completes the report
    (``solver.Run._score``) before it calls the winners (``winner_calls``).
    ``Engine.explain`` runs the same scoring and calls no winner.
    """
    if type(goal) is Var:
        goal = store.deref(goal)
    cls = type(goal)
    if cls is Struct:
        name, args = goal.functor, goal.args
    elif cls is Atom:
        name, args = goal.name, ()
    elif cls is Var:
        raise instantiation_error()
    else:
        raise type_error("callable", resolve(goal, store))
    sigs = candidates_for(solver.kb, name, len(args))
    if not sigs:
        raise existence_error(
            "mdp_predicate", Struct("/", (Atom(name), len(args))))
    ctx, ctx_keys = updated_context(store, implicit, given, goal)
    report = []
    pending = False
    for sig in sigs:
        score, reason = score_signature(solver, store, sig, ctx, ctx_keys)
        report.append((sig, score, reason))
        if score is not None and not sig.dimension_only:
            pending = True
    return name, args, ctx, report, pending


def winner_calls(solver, scoring):
    """The winners of a complete scoring as one call: its arguments and the
    winners' implementation clauses, in the order of the report.

    The winners are the candidates of the highest score in the report.
    The arguments are the updated context and the goal's arguments, and
    the machine tries the clauses with them as it tries the clauses of a
    predicate.  An anonymous winner's clause, which takes the context
    alone, is its variant for the goal's arity (``Signature.variant``).
    """
    name, args, ctx, report, _ = scoring
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
    if solver.trace_dispatch:
        indicator = "%s/%d" % (name, len(args))
        for sig, score, reason in report:
            solver.err.write("dispatch %s: %s -> %s\n" % (
                indicator, sig.label(),
                ("score %s" % score) if score is not None else reason))
        if winners:
            solver.err.write("dispatch %s: running %s\n" % (
                indicator, ", ".join(sig.label() for sig in winners)))
    n = len(args)
    return (ctx,) + args, tuple([sig.clause if sig.arity == n else sig.variant(n)
                                 for sig in winners])
