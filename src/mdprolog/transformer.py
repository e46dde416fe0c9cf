"""Consult-time rewriting of multidimensional rules and goal bodies.

An mdp rule ``Spec # Head :- Body`` compiles into one implementation
clause (context argument prepended, context-rule residue prefixed to the
body) plus one signature record used by the dispatcher for scoring.
A rule whose head is just a context specification list becomes an
anonymous rule: applicable to any predicate, matched purely by context.

Goal bodies are rewritten so that every ``Given ? Goal`` call site turns
into an internal dispatch goal carrying the implicit-context variable of
the enclosing rule; the bodies of plain rules, queries and directives
dispatch in the empty context ``[]``.  User hooks get a chance to rewrite
each goal term and each context-rule entry first.
"""

from __future__ import annotations

from .errors import TransformError
from .kb import ANONYMOUS, Signature
from .terms import (
    Atom,
    NIL,
    Struct,
    Var,
    conj,
    flatten_conj,
    functor_of,
    is_callable_term,
    is_number,
    list_parts,
    make_list,
    proper_list,
)

MAX_REWRITE_DEPTH = 32

DISPATCH = "$dispatch"

# goal argument positions of control constructs the rewrite descends into
_GOAL_POSITIONS = {
    (",", 2): (0, 1),
    (";", 2): (0, 1),
    ("->", 2): (0, 1),
    ("\\+", 1): (0,),
    ("findall", 3): (1,),
    ("forall", 2): (0, 1),
    ("catch", 3): (0, 2),
}
for _n in range(1, 9):
    _GOAL_POSITIONS[("call", _n)] = (0,)


class SpecParts:
    """Accumulated translation of one context specification."""

    def __init__(self):
        self.ctx_var = Var("ImplicitContext")
        self.dims = []      # required dimension names, in order, deduped
        self.rules = []     # context-rule goals (scored residue)
        self.score_vars = []
        self.residue = []   # goals prefixed to the implementation body
        self.coords = []    # coordinates of the name: coord entries

    def add_dim(self, name):
        if name not in self.dims:
            self.dims.append(name)

    def dimension_only(self):
        """True when every rule is a name: V entry with a V of its own.

        Then no guard or precondition was added, and no coordinate can
        fail to unify, so the context's key set alone decides scoring.
        """
        coords = self.coords
        return (len(self.rules) == len(coords)
                and all(isinstance(c, Var) and c is not self.ctx_var
                        for c in coords)
                and len(set(coords)) == len(coords))


def _is_list_term(t):
    return t is NIL or (isinstance(t, Struct) and t.functor == "." and len(t.args) == 2)


def translate_entry(engine, entry, parts, depth, where):
    if depth > MAX_REWRITE_DEPTH:
        raise TransformError(
            "context specification hook recursion exceeded %d in %s"
            % (MAX_REWRITE_DEPTH, where))
    if isinstance(entry, Var) or is_number(entry):
        # left for the runtime to reject or call; hooks must not see it,
        # a variable would unify with any hook pattern
        parts.rules.append(entry)
        parts.residue.append(entry)
        return
    if isinstance(entry, Struct) and entry.functor == ":" and len(entry.args) == 2:
        name, coord = entry.args
        if not isinstance(name, Atom):
            raise TransformError(
                "dimension name must be an atom in %s" % where)
        parts.add_dim(name.name)
        parts.coords.append(coord)
        goal = Struct("ctx_member", (parts.ctx_var, name, coord))
        parts.rules.append(goal)
        parts.residue.append(goal)
        return
    if isinstance(entry, Struct) and entry.functor == "@" and len(entry.args) == 2:
        goal, weight = entry.args
        rewritten = phase1_rewrite(engine, goal, parts.ctx_var, 0)
        parts.rules.append(rewritten)
        parts.score_vars.append(weight)
        return
    if isinstance(entry, Struct) and entry.functor == "-" and len(entry.args) == 1:
        raise TransformError(
            "context removal is only allowed at call sites, not in %s" % where)
    # plain precondition: offer it to the context-rule hook first
    replacement = engine.apply_spec_hook(parts.ctx_var, entry)
    if replacement is not None:
        for conjunct in flatten_conj(replacement):
            translate_entry(engine, conjunct, parts, depth + 1, where)
        return
    rewritten = phase1_rewrite(engine, entry, parts.ctx_var, 0)
    parts.rules.append(rewritten)
    parts.residue.append(rewritten)


def translate_spec(engine, spec_term, where):
    entries = proper_list(spec_term)
    if entries is None:
        raise TransformError("context specification must be a list in %s" % where)
    parts = SpecParts()
    for entry in entries:
        translate_entry(engine, entry, parts, 0, where)
    return parts


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
            positions = _GOAL_POSITIONS.get((t.functor, len(t.args)))
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

    Returns (clauses, signature): a plain clause is a single (head, body)
    pair with no signature, its body rewritten in the context ``[]``; mdp
    rules produce the generated implementation clause plus a signature
    record.
    """
    if isinstance(term, Struct) and term.functor == ":-" and len(term.args) == 2:
        head, body = term.args
    else:
        head, body = term, Atom("true")

    where = "%s:%s" % (filename or "<consult>", line if line is not None else "?")

    if isinstance(head, Struct) and head.functor == "#" and len(head.args) == 2:
        spec_term, real_head = head.args
        if not is_callable_term(real_head):
            raise TransformError("mdp rule head must be callable in %s" % where)
        name, head_args = functor_of(real_head)
    elif _is_list_term(head):
        spec_term, real_head = head, None
        name, head_args = ANONYMOUS, ()
    else:
        if not is_callable_term(head):
            raise TransformError("clause head must be callable in %s" % where)
        if head is not term:    # a rule; a fact has no body to rewrite
            body = phase1_rewrite(engine, body, NIL, 0, where)
        return [(head, body)], None

    parts = translate_spec(engine, spec_term, where)
    rewritten_body = phase1_rewrite(engine, body, parts.ctx_var, 0, where)

    impl_name = engine.kb.next_impl_name(name, len(head_args))
    impl_head = Struct(impl_name, (parts.ctx_var,) + tuple(head_args))
    impl_body = conj(parts.residue + [rewritten_body])

    sig = Signature(
        name=name,
        arity=len(head_args),
        impl_name=impl_name,
        ctx_var=parts.ctx_var,
        required_dims=tuple(parts.dims),
        rules=tuple(parts.rules),
        score_vars=tuple(parts.score_vars),
        filename=filename,
        line=line,
        dimension_only=parts.dimension_only(),
    )
    return [(impl_head, impl_body)], sig
