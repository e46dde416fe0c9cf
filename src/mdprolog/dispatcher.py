"""Context-directed dispatch over multidimensional predicates.

A dispatch goal, of functor ``DISPATCH`` and arguments (implicit
context, given context, goal), is what the transformer makes of ``Given
? Goal``, and this module alone names that functor.  A dispatch call
receives the implicit context of the calling rule, the given context
written at the call site, and the goal.  It builds the updated context
and scores every candidate signature of the goal's predicate
(``dispatch``), its own signatures and the anonymous ones together, in
definition order.  The winners, all maximally specific candidates, are
then called as one call whose clauses are their implementation clauses
in that order (``winner_calls``), so the machine runs them as it runs
the clauses of a plain predicate.

This module owns all that dispatch keeps between calls.  A candidate's
dimension checks read only whether the context names each dimension it
requires.  So the checks of a predicate depend only on which of the
names its candidates require the context holds, and each predicate's
dispatch record (``Candidates``, found by ``candidates_for``) is its
candidates, a tuple, that keeps the checks made per such set of names,
and with them, when no goal-bearing candidate is eligible, the winners'
clauses: a dispatch whose context has a shape seen before scores
nothing, as a polymorphic inline cache reuses the lookup made for a
receiver's type.  A name that no candidate requires makes no new shape.
A dispatch looks its record up once.  The records live in the knowledge
base's ``dispatch`` dict, which a change to the signatures empties; the
names with no signature of their own share one record per arity.

A dispatch reads the call-site list once (``updated_context``), and a
list argument that must be a proper list is read by
``errors.list_items``, as the builtins read theirs.

A context that a dispatch builds is kept with its entries by name in
``Solver.contexts`` (``updated_context``), so the next dispatch inside
it starts from them, and ``ctx_member/3`` (``ctx_member``) looks a name
up in them instead of walking the list.  No other module reads that
table.
"""

from __future__ import annotations

from .errors import existence_error, instantiation_error, list_items, type_error
from .terms import NIL, Atom, Struct, Var, new_struct, resolve

DISPATCH = "$dispatch"
PREDICATE_DIM = "predicate"
PREDICATE = Atom(PREDICATE_DIM)


def updated_context(solver, store, implicit, given, goal):
    """Merge the call-site context into the implicit one.

    Removals (-name) are applied first, then each name: coord entry
    upserts in order, and finally the goal itself is recorded under the
    predicate dimension.  ``given`` is the call-site context term and
    ``goal`` is dereferenced.  Returns the context list and its entries
    by name, an ordered dict.

    The call-site list is walked once: a removal applies where the walk
    meets it, and the upserts, checked there, apply after the walk.  An
    item is checked as it is met, so the first bad one is the error.

    A context built here has unique names, and it is kept with that dict
    in ``solver.contexts``, under its id, so that an update of it starts
    from a copy of the dict and ``ctx_member/3`` looks a name up in it.
    Any other implicit list is walked (``_named``).
    """
    t = store.deref(implicit) if type(implicit) is Var else implicit
    contexts = solver.contexts
    known = contexts.get(id(t))
    if known is not None and known[0] is t:
        named, repeats = known[1].copy(), False
    elif t is NIL:      # the context of a query or a plain rule
        named, repeats = {}, False
    else:
        named, repeats = _named(store, implicit)
    if given is not NIL:
        g = store.deref(given)
        if isinstance(g, Var):
            raise instantiation_error()
        upserts = []
        for item in list_items(g, store):
            e = store.deref(item)
            if isinstance(e, Var):
                raise instantiation_error()
            arity = len(e.args) if isinstance(e, Struct) else 0
            if not (arity == 1 and e.functor == "-"
                    or arity == 2 and e.functor == ":"):
                raise type_error("context_entry", resolve(item, store))
            name = store.deref(e.args[0])
            if isinstance(name, Var):
                raise instantiation_error()
            if not isinstance(name, Atom):
                raise type_error("atom", resolve(name, store))
            if arity == 1:
                named.pop(name.name, None)
                if repeats:     # and the entries of a name met again
                    named = {key: x for key, x in named.items()
                             if type(key) is str or key[0] != name.name}
            else:
                if name is not e.args[0]:    # a bound variable names it
                    e = new_struct(":", (name, e.args[1]))
                upserts.append((name.name, e))
        for name, entry in upserts:     # in place, or appended
            named[name] = entry
    named[PREDICATE_DIM] = new_struct(":", (PREDICATE, goal))
    ctx = NIL
    for entry in reversed(named.values()):
        ctx = new_struct(".", (entry, ctx))
    if not repeats:
        if len(contexts) >= CONTEXTS_KEPT:
            contexts.clear()
        contexts[id(ctx)] = ctx, named
    return ctx, named


CONTEXTS_KEPT = 64      # the engine-built contexts a solver keeps by id


def ctx_member(solver, store, ctx, dim, coord):
    """ctx_member/3, a nondeterministic builtin: for an atom dim, coord
    and the coordinates of the entries named dim, until an entry's name
    is not an atom; from there, or for any other dim, dim:coord and every
    ``:``/2 entry.

    A context that ``updated_context`` built names each entry once, and
    with an atom dim the answer is one lookup in the entries by name kept
    with it; any other list is walked."""
    ctx = store.deref(ctx)
    dim = store.deref(dim)
    named = type(dim) is Atom
    known = solver.contexts.get(id(ctx))
    if named and known is not None and known[0] is ctx:
        entry = known[1].get(dim.name)
        return coord, [] if entry is None else [entry.args[1]]
    values = []
    for entry in map(store.deref, list_items(ctx, store)):
        if type(entry) is Struct and entry.functor == ":" and len(entry.args) == 2:
            if named:
                name = store.deref(entry.args[0])
                if type(name) is Atom:
                    if name is dim:
                        values.append(entry.args[1])
                    continue
                named = False   # a name that may be dim: the pairs so far
                values = [Struct(":", (dim, value)) for value in values]
            values.append(entry)
    return (coord, values) if named else (Struct(":", (dim, coord)), values)


def _named(store, implicit):
    """The ``name: Coord`` entries of an implicit list whose name is an
    atom, in order, and whether a name is met again.

    An entry is keyed by its name, or, where the name is met again, by
    (name, position), so that an upsert replaces the first and the rest
    stay.  A name bound through a variable is put in the entry.
    """
    named = {}
    repeats = False
    for i, e in enumerate(list_items(implicit, store)):
        e = store.deref(e)
        if type(e) is Struct and e.functor == ":" and len(e.args) == 2:
            name = store.deref(e.args[0])
            if type(name) is Atom:
                if name is not e.args[0]:
                    e = new_struct(":", (name, e.args[1]))
                if name.name in named:
                    named[name.name, i] = e
                    repeats = True
                else:
                    named[name.name] = e
    return named, repeats


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


class Candidates(tuple):
    """A predicate's dispatch record: its candidates, in definition order,
    with the caches of their checks.  ``shapes`` holds the checks by the
    set of required names that a context holds, ``entries`` the report
    entries those checks share, and ``required`` the names the candidates
    require."""

    def __new__(cls, sigs):
        record = tuple.__new__(cls, sigs)
        record.shapes = {}
        record.entries = {}
        record.required = frozenset([d for sig in sigs
                                     for d in sig.required_dims])
        return record


def candidates_for(kb, name, arity):
    """The dispatch record of name/arity (``Candidates``), the signatures
    a dispatch scores.

    It is the predicate's entry in ``kb.dispatch``, made here on the
    first dispatch after a change to the signatures.  The names with no
    signature of their own, whose candidates are the anonymous ones
    alone, share one record per arity, kept under (None, arity), a key
    that no predicate has.  With no candidates it is an empty tuple and
    no entry is made, so dispatches of names that no signature holds
    keep nothing.
    """
    record = kb.dispatch.get((name, arity))
    if record is None:
        if not kb.has_mdp_predicate(name, arity):
            name = None
            record = kb.dispatch.get((None, arity))
        if record is None:
            sigs = kb.candidates(name, arity)
            if not sigs:
                return sigs
            record = kb.dispatch[name, arity] = Candidates(sigs)
    return record


def dispatch(solver, store, implicit, given, goal):
    """Build the updated context and check every candidate of the goal.

    Returns the scoring, (name, args, context, report, winners): the
    report lists (signature, score_or_None, reason) for the candidates in
    definition order, and winners holds the winners' clauses as
    ``winner_calls`` gives them.  winners is None while an eligible
    candidate's context rules hold goals: its score lacks their weights,
    and the machine runs the rules and completes the report, a list of
    its own (``solver.Run._score``), before it calls the winners.
    ``Engine.explain`` runs the same scoring and calls no winner.  The
    checks of a context that holds a set of the required names that the
    predicate has met before come from its record.
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
    n = len(args)
    record = candidates_for(solver.kb, name, n)
    if not record:
        raise existence_error("mdp_predicate", Struct("/", (Atom(name), n)))
    ctx, named = updated_context(solver, store, implicit, given, goal)
    ctx_keys = record.required.intersection(named)  # all that the checks read
    shapes = record.shapes
    found = shapes.get(ctx_keys)
    if found is None:
        if len(shapes) >= SHAPES_KEPT:
            shapes.clear()
        found = shapes[ctx_keys] = _checks(solver, store, record, ctx,
                                           ctx_keys, n)
    report, winners = found
    if winners is None:     # the rules complete a copy
        report = list(report)
    return name, args, ctx, report, winners


SHAPES_KEPT = 64    # the sets of required names a predicate keeps checks for


def _checks(solver, store, record, ctx, ctx_keys, n):
    """The report of the record's dimension checks, as a tuple, and the
    winners' clauses for a goal of n arguments, or None if an eligible
    candidate is goal-bearing.  A candidate's entry is made once per
    outcome of its check and kept in the record's entries, so the reports
    it keeps share them, and no signature refers back to its entries."""
    entries = record.entries
    report = []
    pending = False
    for sig in record:
        score, reason = score_signature(solver, store, sig, ctx, ctx_keys)
        outcome = sig.order, score if reason is None else reason
        entry = entries.get(outcome)
        if entry is None:
            entry = entries[outcome] = sig, score, reason
        report.append(entry)
        if score is not None and not sig.dimension_only:
            pending = True
    return tuple(report), None if pending else _clauses(_winners(report), n)


def _winners(report):
    """The candidates of the highest score in the report, in its order."""
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
    return winners


def _clauses(winners, n):
    """The winners' implementation clauses for a goal of n arguments.  An
    anonymous winner's clause, which takes the context alone, is its
    variant for n (``Signature.variant``)."""
    return tuple([sig.clause if sig.arity == n else sig.variant(n)
                  for sig in winners])


def winner_calls(solver, scoring):
    """The winners of a complete scoring as one call: its arguments and the
    winners' implementation clauses, in the order of the report.

    The winners are the candidates of the highest score in the report.
    The arguments are the updated context and the goal's arguments, and
    the machine tries the clauses with them as it tries the clauses of a
    predicate.
    """
    name, args, ctx, report, clauses = scoring
    if clauses is None or solver.trace_dispatch:
        winners = _winners(report)
        if clauses is None:
            clauses = _clauses(winners, len(args))
        if solver.trace_dispatch:
            indicator = "%s/%d" % (name, len(args))
            for sig, score, reason in report:
                solver.err.write("dispatch %s: %s -> %s\n" % (
                    indicator, sig.label(),
                    ("score %s" % score) if score is not None else reason))
            if winners:
                solver.err.write("dispatch %s: running %s\n" % (
                    indicator, ", ".join(sig.label() for sig in winners)))
    return (ctx,) + args, clauses
