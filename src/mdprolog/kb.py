"""Predicate records, mdp signature store and related bookkeeping.

Each predicate has one record, a ``Predicate`` in ``predicates``: its
clauses, their argument groups and its dynamic flag.  The record is made
by the first clause or declaration and replaced only when the predicate
goes, when a consult removes its last clause and it is not dynamic.
Every removal, by retractall/1 or by a consult, goes through
``Predicate.remove``.

The dispatcher keeps each predicate's dispatch record in ``dispatch``
(``dispatcher.candidates_for``), and one record per arity that the
names with no signature of their own share, under a key that no
predicate has; the knowledge base never reads a record there, and
empties the dict, or a predicate's record, when a signature that its
candidates hold is added or forgotten.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import filterfalse
from operator import attrgetter

from .ops import default_table
from .solver import compile_body
from .terms import (Atom, Struct, Var, compile_terms, conj, head_matcher,
                    indicator)

ANONYMOUS = "$anonymous_rule"


@dataclass(slots=True, eq=False)     # a clause is equal only to itself
class Clause:
    head: object
    body: object
    filename: str = None
    line: int = None
    order: int = 0
    # (head matcher, body goal entries, slot count, guard) once tried; the
    # guard is (position, constant) of the first head argument that is an
    # atom or a number, or None
    compiled: tuple = field(default=None, repr=False, compare=False)

    def compile(self):
        """Compile the head's matcher and the body on the first try."""
        (head, body), size = compile_terms((self.head, self.body))
        heads = getattr(head, "args", ())
        guard = next(((i, t) for i, t in enumerate(heads)
                      if type(t) in (Atom, int, float)), None)
        self.compiled = (head_matcher(heads), compile_body(body, heads), size,
                         guard)
        return self.compiled


@dataclass(slots=True)
class Signature:
    """Compiled metadata for one mdp rule, and its implementation clause.

    ``name`` is ANONYMOUS for anonymous rules.  ``ctx_var``, ``rules`` and
    ``score_vars`` share variables; scoring runs the rules as a compiled
    body and builds the score variables from the same frame.  The
    implementation clause is called only through its signature, when it
    wins a dispatch, so it is no predicate of the knowledge base.
    """

    name: str            # predicate name, or ANONYMOUS
    arity: int           # source arity (0 for anonymous rules)
    impl_name: str       # functor of the generated implementation clause
    ctx_var: Var
    required_dims: tuple
    rules: tuple         # context-rule goals, in specification order
    score_vars: tuple
    order: int = 0
    filename: str = None
    line: int = None
    # every rule is ctx_member(ctx_var, name, V) with a V of its own: the
    # context's key set alone decides eligibility and score
    dimension_only: bool = False
    # (context-rule goal entries, score templates, slot count) once scored;
    # the context variable is slot 0
    compiled: tuple = field(default=None, repr=False, compare=False)
    # the implementation clause, whose head takes the context first; set
    # by KnowledgeBase.add_signature
    clause: Clause = field(default=None, repr=False, compare=False)
    # an anonymous rule's clause variants: goal arity -> Clause
    variants: dict = field(default_factory=dict, repr=False, compare=False)

    def compile(self):
        """Compile the context rules and score variables on first scoring.

        The rules compile as a clause body whose one head argument is the
        context variable.
        """
        (ctx, rules, *weights), size = compile_terms(
            (self.ctx_var, conj(self.rules)) + self.score_vars)
        self.compiled = compile_body(rules, (ctx,)), tuple(weights), size
        return self.compiled

    def variant(self, n):
        """The clause of an anonymous rule for a goal of n arguments, made
        once: its head takes the context and n void arguments."""
        found = self.variants.get(n)
        if found is None:
            clause = self.clause
            head = Struct(clause.head.functor,
                          clause.head.args + tuple(Var("_") for _ in range(n)))
            found = self.variants[n] = Clause(head, clause.body, clause.filename,
                                              clause.line, clause.order)
        return found

    @property
    def anonymous(self):
        return self.name == ANONYMOUS

    def label(self):
        if self.anonymous:
            return "%s(#%d)" % (ANONYMOUS, self.order)
        return "%s/%d(#%d)" % (self.name, self.arity, self.order)


def arg_key(t):
    """Index key of a dereferenced argument.

    Numbers carry their type, since 1 and 1.0 do not unify, and compounds
    are keyed by name and arity, apart from the atom of the same name.
    A variable has no key.
    """
    cls = type(t)
    if cls is Atom:
        return t
    if cls is Struct:
        return t.functor, len(t.args)
    if cls is int or cls is float:
        return cls, t
    return None


def _compound(key):
    """Whether an argument key is that of a compound: (name, arity)."""
    return type(key) is tuple and type(key[0]) is str


_by_order = attrgetter("order")


class ArgGroups:
    """A predicate's clauses grouped on the key of the argument at ``pos``.

    ``keyed`` maps a key to the clauses that hold it, in definition order;
    ``unkeyed`` holds the clauses with a variable there, which match any
    key.  The group of a compound key whose clauses hold at least two
    distinct keys in the compound's first argument (``obj(1)``,
    ``obj(2)``; a variable counts as one) is deepened: its clauses are
    grouped again under (name, arity, inner key), the inner key None
    standing for a variable.
    A group that does not split so, such as the one ``[H|T]`` of a list
    predicate, is never deepened, so a call gets one bucket per key some
    clause holds, not one per list element.

    A bucket is the tuple a call gets: a group merged with the clauses
    that match any key, in definition order.  Buckets are cached only
    for keys that some clause holds; a write drops the buckets it would
    change.
    """

    __slots__ = ("pos", "keyed", "unkeyed", "deep", "buckets")

    def __init__(self, pos, clauses):
        self.pos = pos
        self.keyed = keyed = {}
        self.deep = set()      # the deepened compound keys
        self.buckets = {}      # key -> tuple, built on first use
        unkeyed = []
        shared = set()         # the keys of more than one clause
        for clause in clauses:
            key = arg_key(clause.head.args[pos])
            if key is None:
                unkeyed.append(clause)
                continue
            group = keyed.get(key)
            if group is None:
                keyed[key] = [clause]
            else:
                group.append(clause)
                shared.add(key)
        self.unkeyed = tuple(unkeyed)
        for key in shared:
            group = keyed[key]
            if _compound(key) and len({self._inner(c) for c in group}) > 1:
                self._deepen(key, group)

    def _inner(self, clause):
        return arg_key(clause.head.args[self.pos].args[0])

    def _deepen(self, key, group):
        self.deep.add(key)
        keyed = self.keyed
        for clause in group:
            keyed.setdefault(key + (self._inner(clause),), []).append(clause)

    def splits(self):
        """Whether some key leaves out some of the clauses."""
        keyed = self.keyed
        return len(keyed) > 1 or (keyed and self.unkeyed)

    def bucket(self, arg, deref):
        """The clauses whose argument could match arg, which is bound."""
        key = arg_key(arg)
        if key in self.deep:
            inner = arg.args[0]
            if type(inner) is Var:
                inner = deref(inner)
            inner = arg_key(inner)
            if inner is not None:
                return self._deep_bucket(key, inner)
            # uncached: the fast path would hand it to calls keyed deeper
            return self._merged(self.keyed[key])
        found = self.buckets.get(key)
        if found is None:
            own = self.keyed.get(key)
            if own is None:
                return self.unkeyed
            found = self.buckets[key] = self._merged(own)
        return found

    def _deep_bucket(self, outer, inner):
        key = outer + (inner,)
        if key not in self.keyed:   # no clause holds inner: those open there
            key = outer + (None,)
            if key not in self.keyed:
                return self.unkeyed
        found = self.buckets.get(key)
        if found is None:
            unbound = () if key[2] is None else self.keyed.get(outer + (None,), ())
            found = self.buckets[key] = self._merged(self.keyed[key], unbound)
        return found

    def _merged(self, own, more=()):
        if not (more or self.unkeyed):
            return tuple(own)
        # ordered runs: the sort merges them
        return tuple(sorted((*own, *more, *self.unkeyed), key=_by_order))

    def append(self, clause):
        """Group a clause just appended to the predicate."""
        key = arg_key(clause.head.args[self.pos])
        if key is None:     # it belongs to every bucket
            self.unkeyed += (clause,)
            self.buckets.clear()
            return
        group = self.keyed.get(key)
        if group is None:
            self.keyed[key] = [clause]
            return
        group.append(clause)
        self.buckets.pop(key, None)
        if key in self.deep:
            inner = self._inner(clause)
            self.keyed.setdefault(key + (inner,), []).append(clause)
            if inner is None:   # it belongs to every deeper bucket
                self.buckets.clear()
            else:
                self.buckets.pop(key + (inner,), None)
        elif _compound(key) and self._inner(group[0]) != self._inner(clause):
            self._deepen(key, group)

    def remove(self, removed, gone):
        """Drop the removed clauses; gone tests a clause for being one."""
        keys = set()
        every = False   # whether a removed clause was in every bucket made
        for clause in removed:
            key = arg_key(clause.head.args[self.pos])
            if key is None:
                every = True
            elif key in self.deep:
                inner = self._inner(clause)
                keys.update((key, key + (inner,)))
                every = every or inner is None
            else:
                keys.add(key)
        if every:
            self.unkeyed = tuple(filterfalse(gone, self.unkeyed))
            self.buckets.clear()
        keyed = self.keyed
        for key in keys:
            group = list(filterfalse(gone, keyed[key]))
            if group:
                keyed[key] = group
            else:
                del keyed[key]
                self.deep.discard(key)
            self.buckets.pop(key, None)


class Predicate:
    """One predicate's record: its clauses, grouped on their arguments on
    demand, and whether it is dynamic.

    ``clauses`` is the clause list, which grows by appends and is
    replaced by its survivors on a removal.  A call gets a tuple that
    later writes never touch, which is the logical update view: the
    bucket of its first bound argument whose position splits the clauses
    (``ArgGroups``), or all the clauses.  A position is grouped the first
    time a call needs it, so a predicate that is only written or scanned
    never pays for grouping; a clause appended later joins the groups
    made, and a removed one leaves them.  Whether each grouped position
    splits the clauses is kept until a write.
    """

    __slots__ = ("clauses", "dynamic", "snapshot", "groups", "splitting",
                 "lead", "cached")

    def __init__(self, arity, clauses=(), dynamic=False):
        self.clauses = list(clauses)
        self.dynamic = dynamic
        self.snapshot = ()     # tuple(clauses), remade after a write
        self.groups = {}       # position -> ArgGroups, once grouped
        self.splitting = [None] * arity     # position -> groups[pos].splits()
        self.lead = None       # groups[0] while they split the clauses
        self.cached = {}       # the lead's buckets

    def view(self):
        """All the clauses, as a tuple."""
        if len(self.snapshot) != len(self.clauses):
            self.snapshot = tuple(self.clauses)
        return self.snapshot

    def select(self, args, store):
        """The clauses a call with these arguments could match.

        A bound first argument whose position splits the clauses, the
        common case, takes its bucket here; every other call looks
        through the positions in ``_select``.
        """
        arg = args[0]
        cls = type(arg)
        if cls is Var:
            arg = store.deref(arg)
            cls = type(arg)
            if cls is Var:
                return self._select(args, store.deref)
        # arg_key, inline; a term of no key gets one that no clause holds
        if cls is Atom:
            key = arg
        elif cls is Struct:
            key = arg.functor, len(arg.args)
        else:
            key = cls, arg
        found = self.cached.get(key)
        if found is not None:
            return found
        lead = self.lead
        if lead is None:
            return self._select(args, store.deref)
        if key not in lead.keyed:
            return lead.unkeyed
        return lead.bucket(arg, store.deref)

    def _select(self, args, deref):
        splitting = self.splitting
        for pos, arg in enumerate(args):
            if type(arg) is Var:
                arg = deref(arg)
                if type(arg) is Var:
                    continue
            split = splitting[pos]
            if split is None:
                self._group(pos)
                split = splitting[pos]
            if split:
                return self.groups[pos].bucket(arg, deref)
        return self.view()

    def at(self, pos, arg, deref):
        """The clauses whose argument at pos could match arg, which is bound."""
        return (self.groups.get(pos) or self._group(pos)).bucket(arg, deref)

    def _group(self, pos):
        group = self.groups[pos] = ArgGroups(pos, self.clauses)
        self._find_lead()
        return group

    def _find_lead(self):
        """Note which grouped positions split, after a grouping or a write."""
        splitting = self.splitting
        for pos, group in self.groups.items():
            splitting[pos] = bool(group.splits())
        if splitting and splitting[0]:
            self.lead = self.groups[0]
            self.cached = self.lead.buckets
        else:
            self.lead, self.cached = None, {}

    def append(self, clause):
        self.clauses.append(clause)
        if self.groups:
            for group in self.groups.values():
                group.append(clause)
            self._find_lead()

    def remove(self, removed):
        """Drop the removed clauses; the survivors keep their order and groups."""
        gone = set(removed).__contains__
        self.clauses = list(filterfalse(gone, self.clauses))
        self.snapshot = ()
        if self.groups:
            for group in self.groups.values():
                group.remove(removed, gone)
            self._find_lead()


class KnowledgeBase:
    """Predicate records, signatures, operator table and the dispatcher's cache."""

    def __init__(self):
        self.predicates = {}       # (name, arity) -> Predicate
        self.signatures = {}       # (name, arity) -> [Signature]; the
                                   # anonymous ones under (ANONYMOUS, 0)
        self.dispatch = {}         # (name, arity) -> the dispatcher's record,
                                   # emptied by a change to the signatures
        self.optable = default_table()
        self.files = set()         # the filenames of the clauses and signatures
        self._next_order = 1       # order of the next clause or signature
        self._impl_counters = {}   # predicate name -> count

    def copy(self):
        """A knowledge base with the same contents that shares nothing mutable.

        The clause and signature objects themselves are shared: once stored
        nothing writes to them but their caches (``compiled``, a
        signature's ``variants``), which are the same in every copy.  Each
        predicate's record starts with no groups, and the dispatcher's
        entries start empty.
        """
        kb = object.__new__(KnowledgeBase)
        kb.predicates = {key: Predicate(key[1], pred.clauses, pred.dynamic)
                         for key, pred in self.predicates.items()}
        kb.signatures = {key: list(group)
                         for key, group in self.signatures.items()}
        kb.dispatch = {}
        kb.optable = self.optable.copy()
        kb.files = set(self.files)
        kb._next_order = self._next_order
        kb._impl_counters = dict(self._impl_counters)
        return kb

    def _take_order(self):
        order = self._next_order
        self._next_order = order + 1
        return order

    # -- clauses ---------------------------------------------------------

    def _predicate(self, key):
        """The record of a predicate, made on first use."""
        pred = self.predicates.get(key)
        if pred is None:
            pred = self.predicates[key] = Predicate(key[1])
        return pred

    def add_clause(self, head, body, filename=None, line=None):
        key = indicator(head)
        clause = Clause(head, body, filename, line, self._take_order())
        self.files.add(filename)
        self._predicate(key).append(clause)
        return clause

    def clauses_for(self, key, args=(), store=None):
        """The clauses of a known predicate, in definition order, as a tuple.

        Given a call's arguments and the store they are bound in, only the
        clauses that the index cannot rule out (``Predicate.select``).
        """
        pred = self.predicates[key]
        if args:
            return pred.select(args, store)
        return pred.view()

    def set_dynamic(self, key):
        """Declare a predicate dynamic; it exists from now on, clauses or not."""
        pred = self._predicate(key)
        pred.dynamic = True
        return pred

    # -- signatures --------------------------------------------------------

    def next_impl_name(self, name, arity):
        n = self._impl_counters.get(name, 0) + 1
        self._impl_counters[name] = n
        return "$impl$%s/%d#%d" % (name, arity, n)

    def add_signature(self, sig, head, body):
        """Store a signature with its implementation clause (head, body)."""
        self.dispatch.clear()
        self.files.add(sig.filename)
        sig.clause = Clause(head, body, sig.filename, sig.line, self._take_order())
        sig.order = self._take_order()
        self.signatures.setdefault((sig.name, sig.arity), []).append(sig)

    def signatures_for(self, name, arity):
        return tuple(self.signatures.get((name, arity), ()))

    def candidates(self, name, arity):
        """The signatures of name/arity and every anonymous one, in
        definition order."""
        found = self.signatures_for(name, arity)
        anonymous = self.signatures_for(ANONYMOUS, 0)
        if anonymous and (name, arity) != (ANONYMOUS, 0):   # two ordered runs
            found = tuple(sorted(found + anonymous, key=_by_order))
        return found

    def all_signatures(self):
        return sorted((s for group in self.signatures.values() for s in group),
                      key=_by_order)

    def has_mdp_predicate(self, name, arity):
        return bool(self.signatures.get((name, arity)))

    # -- consult bookkeeping -----------------------------------------------

    def forget_file(self, filename):
        """Drop clauses and signatures previously consulted from this file.

        Only a predicate that loses a signature loses its dispatcher's
        record.  One that loses a clause loses it as retractall/1 would,
        and keeps the groups of the rest; one left with no clause, and not
        dynamic, loses its record.  A file that nothing was stored from
        costs one lookup.
        """
        if filename not in self.files:
            return
        self.files.discard(filename)
        for key in list(self.signatures):
            group = self.signatures[key]
            kept = [sig for sig in group if sig.filename != filename]
            if len(kept) == len(group):
                continue
            if key == (ANONYMOUS, 0):   # among the candidates of every name
                self.dispatch.clear()
            else:
                self.dispatch.pop(key, None)
            if kept:
                self.signatures[key] = kept
            else:
                del self.signatures[key]
        for key, pred in list(self.predicates.items()):
            removed = [c for c in pred.clauses if c.filename == filename]
            if removed:
                pred.remove(removed)
                if not (pred.clauses or pred.dynamic):
                    del self.predicates[key]
