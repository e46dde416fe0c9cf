"""Consult-time rewriting of multidimensional rules and goal bodies.

An mdp rule ``Spec # Head :- Body`` compiles into one implementation
clause (context argument prepended, context-rule residue prefixed to the
body) plus one signature record used by the dispatcher for scoring.
The transformer makes the signature empty and fills it entry by entry as
it translates the specification (``translate_entry``): its required
dimensions, context rules, score variables and whether it is
dimension-only.  A rule whose head is just a context specification list
becomes an anonymous rule: applicable to any predicate, matched purely
by context.

Goal bodies are rewritten so that every ``Given ? Goal`` call site turns
into an internal dispatch goal carrying the implicit-context variable of
the enclosing rule; the bodies of plain rules, queries and directives
dispatch in the empty context ``[]``.  User hooks get a chance to rewrite
each goal term and each context-rule entry first.
"""

from __future__ import annotations

from .builtins import MDP_RULE_HEADS
from .dispatcher import DISPATCH
from .errors import TransformError
from .kb import ANONYMOUS, Signature
from .solver import GOAL_ARGS
from .terms import (
    Atom,
    NIL,
    Struct,
    Var,
    conj,
    flatten_conj,
    functor_of,
    indicator,
    is_callable_term,
    is_number,
    list_parts,
    make_list,
    proper_list,
)

MAX_REWRITE_DEPTH = 32


def translate_entry(engine, entry, sig, residue, depth, where):
    """Translate one entry of a specification into the signature: its
    dimension, rule and score variable, and the goal, if any, that the
    implementation body runs first (residue).

    The signature stays dimension-only while every rule comes from a
    ``name: V`` entry whose V is a variable of its own, not the context
    variable: then no guard or precondition was added, and no coordinate
    can fail to unify, so the context's key set alone decides scoring.
    """
    if depth > MAX_REWRITE_DEPTH:
        raise TransformError(
            "context specification hook recursion exceeded %d in %s"
            % (MAX_REWRITE_DEPTH, where))
    ctx_var = sig.ctx_var
    keeps = False   # whether the signature stays dimension-only
    if isinstance(entry, Var) or is_number(entry):
        # left for the runtime to reject or call; hooks must not see it,
        # a variable would unify with any hook pattern
        goal = entry
    elif isinstance(entry, Struct) and entry.functor == ":" and len(entry.args) == 2:
        name, coord = entry.args
        if not isinstance(name, Atom):
            raise TransformError(
                "dimension name must be an atom in %s" % where)
        if name.name not in sig.required_dims:
            sig.required_dims += (name.name,)
        # while it is dimension-only, each rule so far came from such an
        # entry, and its third argument is that entry's coordinate
        keeps = (sig.dimension_only and isinstance(coord, Var)
                 and coord is not ctx_var
                 and all(rule.args[2] is not coord for rule in sig.rules))
        goal = Struct("ctx_member", (ctx_var, name, coord))
    elif isinstance(entry, Struct) and entry.functor == "@" and len(entry.args) == 2:
        goal, weight = entry.args
        sig.rules += (phase1_rewrite(engine, goal, ctx_var, 0),)
        sig.score_vars += (weight,)
        sig.dimension_only = False
        return
    elif isinstance(entry, Struct) and entry.functor == "-" and len(entry.args) == 1:
        raise TransformError(
            "context removal is only allowed at call sites, not in %s" % where)
    else:
        # plain precondition: offer it to the context-rule hook first
        replacement = engine.apply_spec_hook(ctx_var, entry)
        if replacement is not None:
            for conjunct in flatten_conj(replacement):
                translate_entry(engine, conjunct, sig, residue, depth + 1, where)
            return
        goal = phase1_rewrite(engine, entry, ctx_var, 0)
    sig.rules += (goal,)
    sig.dimension_only = keeps
    residue.append(goal)


def translate_spec(engine, spec_term, sig, where):
    """Fill the signature from the specification; returns its residue."""
    entries = proper_list(spec_term)
    if entries is None:
        raise TransformError("context specification must be a list in %s" % where)
    residue = []
    for entry in entries:
        translate_entry(engine, entry, sig, residue, 0, where)
    return residue


def _merge_given(inner, outer, where):
    """Prepend the inner given context (from a nested rewrite) to the outer."""
    items, tail = list_parts(inner)
    if tail is NIL:
        return make_list(items, outer)
    if outer is NIL:
        return inner
    raise TransformError(
        "cannot merge an open-ended given context in %s" % where)


def _make_dispatch(engine, ctx_var, given, goal, depth, where):
    rewritten = phase1_rewrite(engine, goal, ctx_var, depth + 1)
    if (isinstance(rewritten, Struct) and rewritten.functor == DISPATCH
            and len(rewritten.args) == 3):
        merged = _merge_given(rewritten.args[1], given, where)
        return Struct(DISPATCH, (ctx_var, merged, rewritten.args[2]))
    return Struct(DISPATCH, (ctx_var, given, rewritten))


def phase1_rewrite(engine, term, ctx_var, depth, where="rule body"):
    """Rewrite one goal position: hooks first, then dispatch and descent.

    ``depth`` counts nested dispatches and descents into a hook's output,
    the steps that can repeat without end.  Other descents into control
    constructs do not count: each construct descended into waits on a
    stack, with the goal positions it has left, so a body of any length
    or nesting rewrites.
    """
    stack = []      # [functor, args, goal positions, the one open, depth]
    while True:
        if depth > MAX_REWRITE_DEPTH:
            raise TransformError("goal rewrite exceeded depth %d in %s"
                                 % (MAX_REWRITE_DEPTH, where))
        t = term
        if not (isinstance(t, Var) or is_number(t)):
            for _ in range(MAX_REWRITE_DEPTH):
                replacement = engine.apply_term_hook(ctx_var, t)
                if replacement is None:
                    break
                t = replacement
                if isinstance(t, Var) or is_number(t):
                    break
            else:
                raise TransformError(
                    "goal-term hook kept rewriting (more than %d rounds) in %s"
                    % (MAX_REWRITE_DEPTH, where))
        if isinstance(t, Struct):
            positions = GOAL_ARGS.get((t.functor, len(t.args)))
            if t.functor == "?" and 1 <= len(t.args) <= 3:
                # ?(Goal), Given ? Goal, or ?(Ctx, Given, Goal) from a hook,
                # which already carries an implicit-context slot
                given = NIL if len(t.args) == 1 else t.args[-2]
                t = _make_dispatch(engine, ctx_var, given, t.args[-1], depth,
                                   where)
            elif positions:
                if t is not term:   # a hook's output may hold what it
                    depth += 1      # rewrites again
                args = list(t.args)
                stack.append([t.functor, args, positions, 0, depth])
                term = args[positions[0]]
                continue
        # t is the rewrite of the open goal position: put it in its place
        # and open the next position, or rebuild the construct it ends
        while stack:
            functor, args, positions, k, depth = frame = stack[-1]
            args[positions[k]] = t
            k += 1
            if k < len(positions):
                frame[3] = k
                term = args[positions[k]]
                break
            stack.pop()
            t = Struct(functor, tuple(args))
        else:
            return t


def expand_source_item(engine, term, filename=None, line=None):
    """Compile one consulted clause.

    Returns (head, body, signature): a plain clause comes back with no
    signature, its body rewritten in the context ``[]``; an mdp rule
    gives its generated implementation clause and its signature record.
    """
    if isinstance(term, Struct) and term.functor == ":-" and len(term.args) == 2:
        head, body = term.args
    else:
        head, body = term, Atom("true")

    where = "%s:%s" % (filename or "<consult>", line if line is not None else "?")

    if not is_callable_term(head):
        raise TransformError("clause head must be callable in %s" % where)
    key = indicator(head)
    if key == ("#", 2):
        spec_term, real_head = head.args
        if not is_callable_term(real_head):
            raise TransformError("mdp rule head must be callable in %s" % where)
        name, head_args = functor_of(real_head)
    elif key in MDP_RULE_HEADS:     # a context list: an anonymous rule
        spec_term, name, head_args = head, ANONYMOUS, ()
    else:
        if head is not term:    # a rule; a fact has no body to rewrite
            body = phase1_rewrite(engine, body, NIL, 0, where)
        return head, body, None

    sig = Signature(name, len(head_args))
    residue = translate_spec(engine, spec_term, sig, where)
    rewritten_body = phase1_rewrite(engine, body, sig.ctx_var, 0, where)

    sig.impl_name = engine.kb.next_impl_name(name, sig.arity)
    impl_head = Struct(sig.impl_name, (sig.ctx_var,) + tuple(head_args))
    return impl_head, conj(residue + [rewritten_body]), sig
