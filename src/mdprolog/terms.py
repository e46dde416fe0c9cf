"""Term representation, binding store, unification and standard order.

Terms are values; only a variable changes, when a store binds it:

* atoms        -- ``Atom`` (interned by name)
* integers     -- Python ``int`` (engine enforces a 64-bit range in arithmetic)
* floats       -- Python ``float``
* variables    -- ``Var`` (identity-based, carries a print name)
* compounds    -- ``Struct`` (functor + non-empty arg tuple)

Lists are compounds of ``'.'/2`` terminated by the atom ``[]``.

Stored clauses and signatures are used through templates
(``compile_terms``): a clause head is matched with runtime terms in place
by code generated for its shape, at every depth (``head_matcher``), a
body goal's arguments are made by code generated for the goal's shape
(``arg_builder``), and ``build`` makes the runtime copy of any template.
A compound beyond the budget of generated code is made by ``build``,
and one of a head matched by ``build`` and ``unify``, the reference the
generated code agrees with.  One generator (``_TemplateCode``) makes
all generated code, head matchers, argument builders and the arithmetic
runs of ``builtins``: it reads a clause's constants into the code through
paths, spends one budget of compounds, builds a term one way, which a
head's write mode shares, and finds first occurrences with one walk
(``_first_slots``).  Matchers and builders are kept by shape in one
cache, and every source is compiled once per text (``compile_source``).
``resolve``, ``rename_term`` and
``compile_terms`` copy through one iterative walk that shares what it
leaves unchanged, and in which a list counts as one level of nesting,
whatever its length.

No walk here recurses in Python: each keeps its own stack, so the depth
of a term is bounded by ``RESOLVE_DEPTH_LIMIT`` or by the template it
follows, never by the interpreter's recursion limit.
"""

from __future__ import annotations

import functools
import itertools
from operator import is_not


class MdpError(Exception):
    """Base class for engine errors that are not Prolog exceptions."""


class BudgetExceeded(MdpError):
    """The inference budget for a solve run was exhausted."""


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
    its first mark a store trails every binding.  Whoever marks puts the
    watermark back once no undo can return to the mark: the machine
    keeps the watermark of each choicepoint and restores that of the
    newest one left when choicepoints go (``solver.Run._release``), and
    ``attempt``, which undoes a test outside the machine, restores the
    one it found.

    A variable holds one store's binding at a time: binding it through a
    second store overwrites the first store's binding, which that store's
    undo then cannot restore.  So a caller must not bind a variable
    through another store while a query that uses it still enumerates;
    undo the first store's bindings before.  The engine never does this.
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

    def attempt(self, test, *args):
        """Whether test(*args) succeeds; the bindings it makes are undone."""
        watermark, mark = self.watermark, self.mark()
        ok = test(*args)
        self.undo_to(mark)
        self.watermark = watermark      # no undo goes back to mark later
        return ok


_EMPTY_STORE = BindingStore()


def occurs_in(var, term, store):
    """Whether var occurs in term; a compound met again is not walked again,
    so a term whose subterms are shared is walked in time linear in its size."""
    stack = [term]
    walked = set()
    while stack:
        t = store.deref(stack.pop())
        if t is var:
            return True
        if isinstance(t, Struct) and id(t) not in walked:
            walked.add(id(t))
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
            store.undo_to(mark)
            return False
        if is_number(a) or is_number(b):
            if type(a) is type(b) and a == b:
                continue
            store.undo_to(mark)
            return False
        # two compounds, the one case left
        if a.functor != b.functor or len(a.args) != len(b.args):
            store.undo_to(mark)
            return False
        if a is not a0 or b is not b0:
            seen = set() if seen is None else seen
            if (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
        stack.extend(zip(a.args, b.args))
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


def rename_term(term, store, mapping=None, limit=None):
    """Copy with fresh variables (after resolving current bindings).

    For runtime terms only; clauses and signatures are copied from their
    templates (``compile_terms``, ``head_matcher``, ``build``).  With a
    limit, the copy may build at most that many compounds, and one more
    raises ``BudgetExceeded`` before it is built.
    """
    if mapping is None:
        mapping = {}

    def fresh(var):
        new = mapping.get(var)
        if new is None:
            new = mapping[var] = Var(var.name)
        return new

    make = new_struct
    if limit is not None:
        built = itertools.count(1)

        def make(functor, args):
            if next(built) > limit:
                raise BudgetExceeded(
                    "inference budget exhausted: a copy may build at most %d "
                    "compounds" % limit)
            return new_struct(functor, args)

    return _copy(term, store, fresh, make, "term too deep while copying")


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


# -- generated code -----------------------------------------------------------

# Generated code matches or builds inline the first MATCH_NODES compounds
# of its templates, at any depth; slots and constants are always inline.
# Past the budget a head's template is matched by build and unify, and a
# built one made by build.  Each process compiles the code of each shape it
# meets, up to a millisecond for a large head, so a head's code is kept
# flat: a compound below a compound argument is matched at its parent's
# indentation, with no block of its own, and the generated code nests 4
# blocks deep: two functions, the compound argument and a one-line test.
MATCH_NODES = 64
_CACHED = 512           # generated sources, and shapes, kept at most
_SHAPE_NODES = 256      # the nodes of the largest shape kept


@functools.lru_cache(maxsize=_CACHED)
def compile_source(source):
    """The function ``make`` that a generated Python source defines.

    Generated code is cached by its text, so clauses or goals of one shape
    share one code object; what differs between them (constants, slot
    indices, functors, variable names) is passed to ``make``, whose result
    closes over it.  The source sees the names of ``_GENERATED_NAMES``.
    """
    namespace = dict(_GENERATED_NAMES)
    exec(source, namespace)
    return namespace["make"]


def head_matcher(templates):
    """A function ``match(args, frame, store, occurs_check) -> bool``.

    It unifies the terms args with the terms the templates stand for,
    filling the frame, in code generated for the shape of the templates,
    as the WAM's get instructions specialise a head (``_HeadCode``); it
    agrees with ``build`` of each template and ``unify`` with its term.
    A slot's first occurrence is known when the head is compiled, so it is
    stored in the frame with no test, and later ones are unified.  An atom
    is matched by identity, a number by type and value, and a compound
    without variables through ``unify``.  A skeleton argument met by an
    unbound variable is built as an argument builder builds it, the WAM's
    write mode, and bound to the variable, with the occurs check where a
    variable of the goal could be inside; otherwise its functor and arity
    are checked and its arguments matched one level down.  A skeleton
    deeper down is matched in the same flat code: an unbound variable
    there is unified with the term ``build`` makes, then the term is
    checked as a bound one is.  Slots and constants are always matched
    inline; each compound beyond the first ``MATCH_NODES`` is built and
    unified too, so heads of any depth and arity compile.

    The frame holds one entry per slot, all None; on failure the bindings
    made so far stay for the caller to undo.  A variable holds one store's
    binding at a time (``BindingStore``): the goal's variables must not be
    bound through a second store while a query that uses them still
    enumerates.

    Heads of one shape share one generated function, found by the shape
    alone (``_shape``), so the source is generated once per shape; the
    function's ``make(templates)`` reads the constants, functors and
    variable names of each head from its templates.
    """
    shape = _shape(_HeadCode, templates)
    make = _MAKERS.get(shape) or _maker(shape, _HeadCode(templates))
    return make(templates)


def arg_builder(templates, known):
    """A function ``put(frame) -> tuple``: the terms the templates stand
    for, such as a body goal's arguments, as ``build`` would make them.

    ``known`` holds the indices of the slots that have a value when the
    function runs; the others are met first here, and each gets its
    variable, in the order in which ``build`` would make them, with no
    test of the frame.  They are added to ``known``, since the function
    has set them when it returns.  The code is generated for the shape of
    the templates, as the WAM's put instructions specialise a goal
    (``_PutCode``), and shared by every goal of that shape; a skeleton
    beyond the first ``MATCH_NODES`` is made by ``build``, and so is every
    argument if a slot met first lies in such a skeleton, so that the
    variables are made in order.
    """
    firsts = []
    shape = _shape(_PutCode, templates, known, firsts)
    if shape is None:   # too large: the slots are found without the shape
        firsts = list(_first_slots(templates, known).values())
    make = (_MAKERS.get(shape)
            or _maker(shape, _PutCode(templates, known, firsts)))
    known.update([slot.index for slot in firsts])
    return make(templates)


_MAKERS = {}        # shape -> the make function of its generated code


def _maker(shape, code):
    """The make function of the generated code, kept in ``_MAKERS`` by
    its shape, whose first item is the generator; a shape of None, too
    large, is not kept."""
    make = compile_source(code.source())
    if shape is not None:
        if len(_MAKERS) >= _CACHED:
            _MAKERS.clear()
        _MAKERS[shape] = make
    return make


def _shape(code, templates, known=None, firsts=None):
    """What the code generated for templates depends on, in a flat tuple.

    The generator code, then the templates in prefix order: a slot by its
    index, after ``Slot`` if it is not in ``known`` (a builder's shape), a
    skeleton by its arity negated, any other node by its type.  The slots
    not in ``known`` are appended to the list ``firsts`` as they are first
    met.  None for more than ``_SHAPE_NODES`` nodes, which are not looked
    up by their shape.
    """
    shape = [code, len(templates)]
    stack = list(reversed(templates))
    while stack:
        if len(shape) > _SHAPE_NODES:
            return None
        t = stack.pop()
        cls = type(t)
        if cls is Slot:
            if known is not None and t.index not in known:
                shape.append(Slot)
                if t not in firsts:
                    firsts.append(t)
            shape.append(t.index)
        elif cls is Skeleton:
            shape.append(-len(t.args))
            stack.extend(reversed(t.args))
        else:
            shape.append(cls)
    return tuple(shape)


def _first_slots(templates, known=()):
    """The slots of templates not in known, by index, in the order of
    their first occurrence, which is the order in which ``build`` makes
    their variables; a skeleton met again, shared by the templates, is
    not walked again."""
    firsts = {}
    walked = set()
    stack = list(reversed(templates))
    while stack:
        t = stack.pop()
        if type(t) is Slot:
            if t.index not in known and t.index not in firsts:
                firsts[t.index] = t
        elif type(t) is Skeleton and id(t) not in walked:
            walked.add(id(t))
            stack.extend(reversed(t.args))
    return firsts


class _TemplateCode:
    """Generated source whose parameters are read from templates.

    Each parameter ``pN`` is read from the arguments of ``make`` through a
    path (``T[1].args[0].functor``) when ``make`` runs, so the source names
    no constant of a clause.  Each term
    or value gets a local of its own, ``x1``, ``x2``...  ``known`` holds
    the slots that have a value at the point of the code being written;
    ``nodes`` is what is left of the ``MATCH_NODES`` budget, which each
    compound matched or built inline spends one of; ``met`` maps
    the slots ``term`` met without a value to a path of theirs.
    """

    __slots__ = ("lines", "params", "known", "nodes", "names", "met")

    def __init__(self, known):
        self.lines = []
        self.params = {}    # path -> name
        self.known = known
        self.nodes = MATCH_NODES
        self.names = 0
        self.met = {}

    def param(self, path):
        name = self.params.get(path)
        if name is None:
            name = self.params[path] = "p%d" % len(self.params)
        return name

    def local(self):
        self.names += 1
        return "x%d" % self.names

    def emit(self, indent, *lines):
        self.lines += ["    " * indent + line for line in lines]

    def term(self, t, path):
        """The expression of the template t, at path, which builds what
        ``build`` builds: a compound inline while the budget lasts, and
        through ``build`` beyond.  A slot without a value is the local
        ``sN`` of its variable, which ``made`` makes."""
        cls = type(t)
        if cls is Slot:
            if t.index in self.known:
                return "frame[%d]" % t.index
            self.met[t.index] = path
            return "s%d" % t.index
        if cls is not Skeleton:
            return self.param(path)
        if self.nodes < 1:
            return "build(%s, frame)" % self.param(path)
        self.nodes -= 1
        args = [self.term(a, "%s.args[%d]" % (path, j))
                for j, a in enumerate(t.args)]
        return "new_struct(%s, (%s,))" % (self.param(path + ".functor"),
                                          ", ".join(args))

    def made(self, indent, firsts):
        """Make the variables of the slots firsts, in order, before the
        terms built with them; False, with nothing made, if ``term`` did
        not meet them all, since ``build`` makes those it meets."""
        if not all(slot.index in self.met for slot in firsts):
            return False
        for slot in firsts:
            self.emit(indent, "s{0} = frame[{0}] = Var({1})".format(
                slot.index, self.param(self.met[slot.index] + ".name")))
        return True

    def make_source(self, arguments, function):
        """``make(arguments)``, which returns the generated ``function``."""
        params = "".join("    %s = %s\n" % (name, path)
                         for path, name in self.params.items())
        return "def make(%s):\n%s    def %s:\n%s\n    return %s\n" % (
            arguments, params, function, "\n".join(self.lines),
            function.split("(")[0])


class _HeadCode(_TemplateCode):
    """The source of a head matcher, generated from head templates.

    Its one fallback, for a write whose variables ``build`` must make and
    for what lies beyond the budget, is ``unify`` with what ``build``
    makes (``built``).
    """

    __slots__ = ()

    def __init__(self, templates):
        super().__init__(set())
        self.siblings(templates, "T", "args", False, 2)
        self.emit(2, "return True")

    def source(self):
        return self.make_source("T", "match(args, frame, store, occurs_check)")

    def fail_unless(self, indent, test):
        self.emit(indent, "if not %s: return False" % test)

    def siblings(self, subs, path, container, nested, indent):
        """Match subs, the templates at ``path``, with the terms of the
        tuple ``container``; nested, they are a skeleton argument's, whose
        skeletons are matched flat."""
        names = [self.local() for _ in subs]
        if subs:
            self.emit(indent, "%s, = %s" % (", ".join(names), container))
        for j, sub in enumerate(subs):
            self.one(sub, "%s[%d]" % (path, j), names[j], nested, indent)

    def one(self, sub, path, x, nested, indent):
        """Match the template sub, at path, with the term in the local x."""
        cls = type(sub)
        if cls is Slot:
            if sub.index in self.known:
                self.fail_unless(indent, "unify(frame[%d], %s, store, "
                                 "occurs_check)" % (sub.index, x))
            else:
                self.emit(indent, "frame[%d] = %s" % (sub.index, x))
                self.known.add(sub.index)
            return
        if cls is Skeleton and self.nodes < 1:     # beyond the budget
            self.fail_unless(indent, self.built(x, path))
            self.known.update(_first_slots((sub,)))
            return
        deref = ("while type({0}) is Var and {0}.owner is store: "
                 "{0} = {0}.ref".format(x))
        self.emit(indent, deref)
        if cls is Skeleton and nested:
            # flat: a variable is bound to the term built, then matched
            self.nodes -= 1
            self.emit(indent, "if type(%s) is Var and not %s: return False"
                      % (x, self.built(x, path)), deref,
                      "if type({0}) is not Struct or {0}.functor != {1} or "
                      "len({0}.args) != {2}: return False".format(
                          x, self.param(path + ".functor"), len(sub.args)))
            self.siblings(sub.args, path + ".args", x + ".args", True, indent)
            return
        if cls is Skeleton:
            self.emit(indent, "if type(%s) is Var:" % x)
            nodes = self.nodes      # the write and the match are alternatives
            self.write(sub, path, x, indent + 1)
            self.nodes = nodes - 1
            functor = self.param(path + ".functor")
            self.emit(indent, "elif type({0}) is Struct and {0}.functor == {1} "
                              "and len({0}.args) == {2}:".format(
                                  x, functor, len(sub.args)))
            self.siblings(sub.args, path + ".args", x + ".args", True,
                          indent + 1)
            self.emit(indent, "else:")
            self.emit(indent + 1, "return False")
            return
        p = self.param(path)
        self.emit(indent, "if type(%s) is Var: store.bind(%s, %s)" % (x, x, p))
        if cls is Atom:
            self.emit(indent, "elif %s is not %s: return False" % (x, p))
        elif cls is Struct:     # no variable in it, so no occurs check
            self.emit(indent, "elif {0} is not {1} and not unify({1}, {0}, "
                              "store): return False".format(x, p))
        else:   # a number: 1 and 1.0 differ
            kind = self.param("type(%s)" % path)
            self.emit(indent, "elif type({0}) is not {1} or {0} != {2}: "
                              "return False".format(x, kind, p))

    def write(self, sub, path, x, indent):
        """Bind the unbound variable x to the term of the skeleton sub, at
        path, built by the code of an argument builder.

        The occurs check is made where a slot with a value, one of the
        goal's, lies inside.  Where a slot met first lies beyond what is
        built inline, ``build`` makes all of the term, in its order.
        """
        slots = _first_slots((sub,))
        firsts = [slot for slot in slots.values()
                  if slot.index not in self.known]
        params = dict(self.params)
        built = self.term(sub, path)
        if not self.made(indent, firsts):
            self.params = params
            self.fail_unless(indent, self.built(x, path))
            return
        if len(firsts) < len(slots):
            self.emit(indent, "t = " + built, "if occurs_check and occurs_in("
                      "%s, t, store): return False" % x)
            built = "t"
        self.emit(indent, "store.bind(%s, %s)" % (x, built))

    def built(self, x, path):
        """The test that unifies the term in x with the term that ``build``
        makes of the template at path: the one fallback."""
        return "unify(%s, build(%s, frame), store, occurs_check)" % (
            x, self.param(path))


def build(template, frame):
    """The term a template stands for, given the slot values in frame.

    A slot with no value yet gets a fresh variable named after the clause
    variable, which later occurrences share.  A skeleton inside a skeleton
    waits on a stack, with its arguments built so far, in place of
    recursion, and a skeleton met again, shared by the template, gives the
    term already built for it, so a template whose skeletons are shared is
    built in time linear in its size.
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
    built = None    # id of an inner skeleton built -> its term
    while True:
        for sub in todo:
            cls = type(sub)
            if cls is Slot:
                value = frame[sub.index]
                if value is None:
                    value = frame[sub.index] = Var(sub.name)
                args.append(value)
            elif cls is Skeleton:
                term = None if built is None else built.get(id(sub))
                if term is not None:
                    args.append(term)
                    continue
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
            if built is None:
                built = {}
            built[id(template)] = term
            template, args, todo = stack.pop()
            args.append(term)


class _PutCode(_TemplateCode):
    """The source of a goal's argument builder, generated from templates:
    the variables of the slots met first are made before anything is built,
    all by ``build`` if one of them lies beyond what is built inline."""

    __slots__ = ()

    def __init__(self, templates, known, firsts):
        super().__init__(known)
        terms = [self.term(t, "T[%d]" % j) for j, t in enumerate(templates)]
        if not self.made(2, firsts):
            self.params = {}
            terms = ["build(%s, frame)" % self.param("T[%d]" % j)
                     for j in range(len(templates))]
        self.emit(2, "return (%s)" % "".join(t + ", " for t in terms))

    def source(self):
        return self.make_source("T", "put(frame)")


# the globals of generated code
_GENERATED_NAMES = {"Var": Var, "Struct": Struct, "new_struct": new_struct,
                    "unify": unify, "occurs_in": occurs_in, "build": build}


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
