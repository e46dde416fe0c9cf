"""Term representation, binding store, unification and standard order.

Terms are values; only a variable changes, when a store binds it:

* atoms        -- ``Atom`` (interned by name)
* integers     -- Python ``int`` (engine enforces a 64-bit range in arithmetic)
* floats       -- Python ``float``
* variables    -- ``Var`` (identity-based, carries a print name)
* compounds    -- ``Struct`` (functor + non-empty arg tuple)

Lists are compounds of ``'.'/2`` terminated by the atom ``[]``.

Stored clauses and signatures are used through templates
(``compile_terms``): ``match_args`` unifies templates with runtime terms
in place and ``build`` makes the runtime copy of a template.  ``resolve``,
``rename_term`` and ``compile_terms`` copy through one iterative walk
that shares what it leaves unchanged, and in which a list counts as one
level of nesting, whatever its length.

No walk here recurses in Python: each keeps its own stack, so the depth
of a term is bounded by ``RESOLVE_DEPTH_LIMIT`` or by the template it
follows, never by the interpreter's recursion limit.
"""

from __future__ import annotations

import itertools
from operator import is_not


class MdpError(Exception):
    """Base class for engine errors that are not Prolog exceptions."""


class Var:
    """A logic variable. Identity is what matters; the name is for printing.

    Bound, it holds its value in ``ref`` and the store that bound it in
    ``owner``; no other store sees the binding.
    """

    __slots__ = ("name", "serial", "ref", "owner")
    _counter = itertools.count(1)

    def __init__(self, name=None):
        self.serial = next(Var._counter)
        self.name = name if name is not None else "_G%d" % self.serial
        self.owner = None

    def __repr__(self):
        return "Var(%s)" % self.name


class Atom:
    """An interned constant. ``Atom('foo') is Atom('foo')``."""

    __slots__ = ("name",)
    _interned: dict = {}

    def __new__(cls, name):
        cached = cls._interned.get(name)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        object.__setattr__(self, "name", name)
        cls._interned[name] = self
        return self

    def __setattr__(self, key, value):
        raise AttributeError("atoms are immutable")

    def __repr__(self):
        return "Atom(%s)" % self.name


class Struct:
    """A compound term: functor text plus at least one argument."""

    __slots__ = ("functor", "args")

    def __init__(self, functor, args):
        args = tuple(args)
        if not functor:
            raise MdpError("compound functor must be non-empty")
        if not args:
            raise MdpError("compound arity must be >= 1")
        object.__setattr__(self, "functor", functor)
        object.__setattr__(self, "args", args)

    def __setattr__(self, key, value):
        raise AttributeError("compound terms are immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Struct)
            and self.functor == other.functor
            and self.args == other.args
        )

    def __hash__(self):
        return hash((self.functor, self.args))

    def __repr__(self):
        return "Struct(%s/%d)" % (self.functor, len(self.args))


_new_object = object.__new__
_set_functor = Struct.functor.__set__
_set_args = Struct.args.__set__


def new_struct(functor, args):
    """A compound from a checked functor and a non-empty tuple of arguments.

    The engine's own constructor: it skips the copy and the checks of
    ``Struct(...)``, so callers must pass a tuple they hold already.
    """
    struct = _new_object(Struct)
    _set_functor(struct, functor)
    _set_args(struct, args)
    return struct


NIL = Atom("[]")
TRUE = Atom("true")


def is_number(t):
    return isinstance(t, (int, float)) and not isinstance(t, bool)


def is_callable_term(t):
    return isinstance(t, (Atom, Struct))


def functor_of(t):
    """(name, args) of a callable term."""
    if isinstance(t, Atom):
        return t.name, ()
    if isinstance(t, Struct):
        return t.functor, t.args
    raise MdpError("not a callable term: %r" % (t,))


def indicator(t):
    name, args = functor_of(t)
    return name, len(args)


def conj(goals):
    """Right-nested conjunction of a goal list (true for an empty list)."""
    goals = [g for g in goals if g is not TRUE]
    if not goals:
        return TRUE
    result = goals[-1]
    for g in reversed(goals[:-1]):
        result = Struct(",", (g, result))
    return result


def flatten_conj(term, store=None):
    """Goal list of a right- or left-nested conjunction, bindings followed.

    Conjunctions nested deeper than ``RESOLVE_DEPTH_LIMIT`` levels, such as a
    cyclic binding, are an error.
    """
    deref = (store or _EMPTY_STORE).deref
    goals = []
    stack = [(term, 0)]     # (subterm, its depth)
    while stack:
        t, depth = stack.pop()
        t = deref(t)
        if type(t) is Struct and t.functor == "," and len(t.args) == 2:
            if depth > RESOLVE_DEPTH_LIMIT:
                raise MdpError("term too deep while flattening (cyclic binding?)")
            stack.append((t.args[1], depth + 1))
            stack.append((t.args[0], depth + 1))
        else:
            goals.append(t)
    return goals


class BindingStore:
    """The trail of one solve run; its bindings live on the variables.

    ``mark`` returns a trail position for ``undo_to`` and raises the
    watermark (the WAM's HB register) past every variable made so far.
    Only a variable older than the watermark is trailed when bound: a
    newer one cannot be reached from the state an undo restores.  Until
    its first mark a store trails every binding.
    """

    __slots__ = ("trail", "watermark")

    def __init__(self):
        self.trail = []
        self.watermark = float("inf")

    def deref(self, t):
        while type(t) is Var and t.owner is self:
            t = t.ref
        return t

    def bind(self, var, term):
        var.ref = term
        var.owner = self
        if var.serial < self.watermark:
            self.trail.append(var)

    def mark(self):
        self.watermark = next(Var._counter)
        return len(self.trail)

    def undo_to(self, mark):
        trail = self.trail
        while len(trail) > mark:
            var = trail.pop()
            var.owner = var.ref = None


_EMPTY_STORE = BindingStore()


def occurs_in(var, term, store):
    stack = [term]
    while stack:
        t = store.deref(stack.pop())
        if t is var:
            return True
        if isinstance(t, Struct):
            stack.extend(t.args)
    return False


def unify(t1, t2, store, occurs_check=False):
    """Extend ``store`` so both terms dereference equal; rewind on failure.

    The rewind undoes the trailed bindings; the others are of variables
    that the backtracking after a failure leaves unreachable.  Compounds
    are immutable, so a cycle passes through a bound variable: a pair of
    compounds reached through one is unified once, and met again it is
    taken as equal, so two cyclic terms unify as rational trees do.
    """
    mark = len(store.trail)
    stack = [(t1, t2)]
    seen = None     # the pairs of compounds reached through a bound variable
    while stack:
        a0, b0 = stack.pop()
        a = store.deref(a0)
        b = store.deref(b0)
        if a is b:
            continue
        if isinstance(a, Var):
            if isinstance(b, Var):
                # bind the younger variable to the older one
                if a.serial < b.serial:
                    store.bind(b, a)
                else:
                    store.bind(a, b)
                continue
            if occurs_check and occurs_in(a, b, store):
                store.undo_to(mark)
                return False
            store.bind(a, b)
            continue
        if isinstance(b, Var):
            if occurs_check and occurs_in(b, a, store):
                store.undo_to(mark)
                return False
            store.bind(b, a)
            continue
        if isinstance(a, Atom) or isinstance(b, Atom):
            if a is b:
                continue
            store.undo_to(mark)
            return False
        if is_number(a) or is_number(b):
            if type(a) is type(b) and a == b:
                continue
            store.undo_to(mark)
            return False
        if isinstance(a, Struct) and isinstance(b, Struct):
            if a.functor != b.functor or len(a.args) != len(b.args):
                store.undo_to(mark)
                return False
            if a is not a0 or b is not b0:
                seen = set() if seen is None else seen
                if (id(a), id(b)) in seen:
                    continue
                seen.add((id(a), id(b)))
            stack.extend(zip(a.args, b.args))
            continue
        store.undo_to(mark)
        return False
    return True


def _order_key(t):
    """Var < Number (a float before an equal int) < Atom < Compound."""
    cls = type(t)
    if cls is Var:
        return 0, t.serial
    if cls is Atom:
        return 2, t.name
    if cls is Struct:
        return 3, len(t.args), t.functor
    return 1, t, cls is int


def compare_terms(t1, t2, store=_EMPTY_STORE):
    """Standard order of two terms: -1, 0 or 1.

    Iterative; compounds nested deeper than ``RESOLVE_DEPTH_LIMIT`` levels,
    such as two cyclic terms, are an error.
    """
    deref = store.deref
    stack = [iter(((t1, t2),))]     # the argument pairs left, per level
    while stack:
        pair = next(stack[-1], None)
        if pair is None:
            stack.pop()
            continue
        a = deref(pair[0])
        b = deref(pair[1])
        if a is b:
            continue
        ka, kb = _order_key(a), _order_key(b)
        if ka != kb:
            return -1 if ka < kb else 1
        if type(a) is Struct:
            if len(stack) > RESOLVE_DEPTH_LIMIT:
                raise MdpError("term too deep while comparing (cyclic binding?)")
            stack.append(zip(a.args, b.args))
    return 0


RESOLVE_DEPTH_LIMIT = 100_000


def _copy(term, store, var_copy, make, too_deep):
    """The one term-copying walk, behind resolve, rename_term, compile_terms.

    An unbound variable becomes ``var_copy(var)`` and a compound with a
    changed argument ``make(functor, args)``; any other compound comes back
    as it is, and a list keeps its cells from the last changed one on.  A
    compound met again is not walked again: its copy is shared, as it is,
    so a term whose subterms are shared copies in time linear in its size.
    A term nested deeper than ``RESOLVE_DEPTH_LIMIT`` levels, such as a cyclic
    binding, is the error ``too_deep``, and a cyclic list is an error too.
    """
    deref = store.deref
    t = deref(term)
    if type(t) is not Struct:
        return var_copy(t) if type(t) is Var else t
    stack = []      # (compound, its subterms to copy, their copies so far)
    copies = {}     # id of a compound walked -> its copy
    while True:
        if t.functor == "." and len(t.args) == 2:
            parts, tail = list_parts(t, store)
            parts.append(tail)      # a list: its elements and its tail
        else:
            parts = t.args
        stack.append((t, parts, []))
        while True:
            node, parts, done = stack[-1]
            if len(done) < len(parts):
                t = deref(parts[len(done)])
                if type(t) is Struct:
                    copy = copies.get(id(t))
                    if copy is not None:
                        done.append(copy)
                        continue
                    if len(stack) > RESOLVE_DEPTH_LIMIT:
                        raise MdpError(too_deep)
                    break
                done.append(var_copy(t) if type(t) is Var else t)
                continue
            stack.pop()
            if parts is node.args:
                copy = node
                if any(map(is_not, done, parts)):
                    copy = make(node.functor, tuple(done))
            else:
                cells = [node]
                for _ in range(len(parts) - 2):
                    cells.append(deref(cells[-1].args[1]))
                copy = done.pop()       # the tail's copy
                for cell in reversed(cells):
                    item = done.pop()
                    copy = (cell if item is cell.args[0] and copy is cell.args[1]
                            else make(".", (item, copy)))
            if not stack:
                return copy
            copies[id(node)] = copy
            stack[-1][2].append(copy)


def resolve(term, store):
    """Deep-substitute bindings; unbound variables stay as-is.

    A subterm without bound variables comes back as it is.  A term nested
    more than ``RESOLVE_DEPTH_LIMIT`` deep, such as a cyclic binding, is an
    error, and so is a cyclic list.
    """
    return _copy(term, store, lambda var: var, new_struct,
                 "term too deep while resolving (cyclic binding?)")


def rename_term(term, store, mapping=None):
    """Copy with fresh variables (after resolving current bindings).

    For runtime terms only; clauses and signatures are copied from their
    templates (``compile_terms``, ``match_args``, ``build``).
    """
    if mapping is None:
        mapping = {}

    def fresh(var):
        new = mapping.get(var)
        if new is None:
            new = mapping[var] = Var(var.name)
        return new

    return _copy(term, store, fresh, new_struct, "term too deep while copying")


class Slot:
    """A clause variable in a template: its index in the frame."""

    __slots__ = ("index", "name")

    def __init__(self, index, name):
        self.index = index
        self.name = name

    def __repr__(self):
        return "Slot(%d, %s)" % (self.index, self.name)


class Skeleton:
    """A compound of a template that holds at least one slot."""

    __slots__ = ("functor", "args")

    def __init__(self, functor, args):
        self.functor = functor
        self.args = args

    def __repr__(self):
        return "Skeleton(%s/%d)" % (self.functor, len(self.args))


def compile_terms(terms):
    """Templates of terms that share variables, and their slot count.

    Each distinct variable becomes a ``Slot`` numbered in order of first
    occurrence.  A compound without variables is its own template, so
    ground parts of a clause stay shared with every copy built from it.
    The terms must hold no bound variables, as stored clauses do not.
    """
    slots = {}

    def slot(var):
        new = slots.get(var)
        if new is None:
            new = slots[var] = Slot(len(slots), var.name)
        return new

    return tuple([_copy(t, _EMPTY_STORE, slot, Skeleton,
                        "term too deep while copying")
                  for t in terms]), len(slots)


def match_args(templates, terms, frame, store, occurs_check=False):
    """Unify argument templates with terms, filling the templates' slots.

    ``frame`` holds one entry per slot, None until the slot is first met.
    A slot met for the first time takes the term itself, with no new
    variable and no trail entry; a slot met again is unified with its
    value.  A compound met by an unbound variable is built and bound to
    it, so structure is only made where the term has none.  Compounds are
    matched in place of recursion through a stack of the argument pairs
    left at each level.  On failure the bindings made so far stay for the
    caller to undo.
    """
    pairs = zip(templates, terms)
    stack = None    # the argument pairs left at the levels above
    while True:
        for sub, arg in pairs:
            cls = type(sub)
            if cls is Slot:
                if frame[sub.index] is None:
                    frame[sub.index] = arg      # the common case
                    continue
                if not unify(frame[sub.index], arg, store, occurs_check):
                    return False
                continue
            if type(arg) is Var:
                arg = store.deref(arg)
            if cls is Skeleton:
                if type(arg) is Var:
                    built = build(sub, frame)
                    if occurs_check and occurs_in(arg, built, store):
                        return False
                    store.bind(arg, built)
                    continue
                if not (type(arg) is Struct and arg.functor == sub.functor
                        and len(arg.args) == len(sub.args)):
                    return False
                if stack is None:
                    stack = []
                stack.append(pairs)
                pairs = zip(sub.args, arg.args)
                break
            # a ground template: an atom, a number or a compound without
            # variables, which no occurrence check can fail against
            if type(arg) is Var:
                store.bind(arg, sub)
            elif cls is Struct:
                if sub is not arg and not unify(sub, arg, store):
                    return False
            elif not (sub is arg or type(arg) is cls and arg == sub):
                return False
        else:
            if not stack:
                return True
            pairs = stack.pop()


def build(template, frame):
    """The term a template stands for, given the slot values in frame.

    A slot with no value yet gets a fresh variable named after the clause
    variable, which later occurrences share.  A skeleton inside a skeleton
    waits on a stack, with its arguments built so far, in place of
    recursion.
    """
    cls = type(template)
    if cls is Slot:
        value = frame[template.index]
        if value is None:
            value = frame[template.index] = Var(template.name)
        return value
    if cls is not Skeleton:
        return template
    todo, args = iter(template.args), []
    stack = None    # the skeletons above: (skeleton, args built, args to build)
    while True:
        for sub in todo:
            cls = type(sub)
            if cls is Slot:
                value = frame[sub.index]
                if value is None:
                    value = frame[sub.index] = Var(sub.name)
                args.append(value)
            elif cls is Skeleton:
                if stack is None:
                    stack = []
                stack.append((template, args, todo))
                template, args, todo = sub, [], iter(sub.args)
                break
            else:
                args.append(sub)
        else:
            term = new_struct(template.functor, tuple(args))
            if not stack:
                return term
            template, args, todo = stack.pop()
            args.append(term)


def build_args(templates, frame):
    """``build`` over a tuple of templates, such as a goal's arguments."""
    args = []
    for sub in templates:   # slots and ground arguments without a call
        cls = type(sub)
        if cls is Slot:
            value = frame[sub.index]
            if value is None:
                value = frame[sub.index] = Var(sub.name)
            args.append(value)
        elif cls is Skeleton:
            args.append(build(sub, frame))
        else:
            args.append(sub)
    return tuple(args)


def make_list(items, tail=NIL):
    result = tail
    for item in reversed(list(items)):
        result = new_struct(".", (item, result))
    return result


def list_parts(term, store=_EMPTY_STORE):
    """Split a list term into (elements, tail). Proper lists have tail [].

    A cyclic list is an error, found by comparing each cell with the one
    saved at the last power of two (Brent), in constant memory.
    """
    items = []
    t = saved = store.deref(term)
    steps = power = 1
    while type(t) is Struct and t.functor == "." and len(t.args) == 2:
        items.append(t.args[0])
        t = store.deref(t.args[1])
        if t is saved:
            raise MdpError("cyclic list")
        if steps == power:
            saved, steps, power = t, 0, power * 2
        steps += 1
    return items, t


def proper_list(term, store=_EMPTY_STORE):
    """Elements of a proper list, or None."""
    items, tail = list_parts(term, store)
    return items if tail is NIL else None
