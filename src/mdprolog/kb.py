"""Clause store, mdp signature store and related bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import filterfalse
from operator import attrgetter

from .ops import default_table
from .solver import compile_body
from .terms import Atom, Struct, Var, compile_terms, conj, indicator

ANONYMOUS = "$anonymous_rule"


@dataclass(slots=True, eq=False)     # a clause is equal only to itself
class Clause:
    head: object
    body: object
    filename: str = None
    line: int = None
    order: int = 0
    # (head argument templates, body goal entries, slot count, guard) once
    # tried; the guard is (position, constant) of the first head argument
    # that is an atom or a number, or None
    compiled: tuple = field(default=None, repr=False, compare=False)

    def compile(self):
        """Compile the clause into templates on its first try."""
        (head, body), size = compile_terms((self.head, self.body))
        heads = getattr(head, "args", ())
        guard = next(((i, t) for i, t in enumerate(heads)
                      if type(t) in (Atom, int, float)), None)
        self.compiled = heads, compile_body(body, heads), size, guard
        return self.compiled


@dataclass(slots=True)
class Signature:
    """Compiled metadata for one mdp rule.

    ``name`` is ANONYMOUS for anonymous rules.  ``ctx_var``, ``rules`` and
    ``score_vars`` share variables; scoring runs the rules as a compiled
    body and builds the score variables from the same frame.
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
    # key of the implementation predicate: the context comes first
    impl_key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.impl_key = (self.impl_name, self.arity + 1)

    def compile(self):
        """Compile the context rules and score variables on first scoring.

        The rules compile as a clause body whose one head argument is the
        context variable.
        """
        (ctx, rules, *weights), size = compile_terms(
            (self.ctx_var, conj(self.rules)) + self.score_vars)
        self.compiled = compile_body(rules, (ctx,)), tuple(weights), size
        return self.compiled

    @property
    def anonymous(self):
        return self.name == ANONYMOUS

    def label(self):
        if self.anonymous:
            return "%s(#%d)" % (ANONYMOUS, self.order)
        return "%s/%d(#%d)" % (self.name, self.arity, self.order)


def first_arg_key(t):
    """Index key of a dereferenced first argument.

    Numbers carry their type, since 1 and 1.0 do not unify, and compounds
    are keyed by name and arity, apart from the atom of the same name.
    A variable, or None for no argument, has no key.
    """
    cls = type(t)
    if cls is Atom:
        return t
    if cls is Struct:
        return t.functor, len(t.args)
    if cls is int or cls is float:
        return cls, t
    return None


_by_order = attrgetter("order")


class FirstArgIndex:
    """One predicate's clauses, grouped on their first argument on demand.

    ``source`` is the predicate's clause list, which grows by appends and
    is replaced by its survivors on a removal.  A call gets a tuple that
    later writes never touch, which is the logical update view: all the
    clauses, or the bucket of its first argument's key, which holds in
    definition order the clauses with that key together with those whose
    first argument is a variable.  The clauses are grouped on the first
    call with a bound first argument, so a predicate that is only written
    or scanned never pays for the grouping; a clause appended later joins
    its group, a removed one leaves it, and either drops the buckets it
    would change.
    """

    __slots__ = ("source", "snapshot", "keyed", "unkeyed", "buckets")

    def __init__(self, source):
        self.source = source
        self.snapshot = ()     # tuple(source), remade after a write
        self.keyed = None      # key -> [Clause], once grouped
        self.unkeyed = ()      # clauses with a variable first argument
        self.buckets = {}      # key -> tuple, built on first use

    def clauses(self):
        if len(self.snapshot) != len(self.source):
            self.snapshot = tuple(self.source)
        return self.snapshot

    def _group(self):
        # reached only for a bound first argument, so every head is compound
        keyed = {}
        for clause in self.source:
            key = first_arg_key(clause.head.args[0])
            group = keyed.get(key)
            if group is None:
                keyed[key] = [clause]
            else:
                group.append(clause)
        self.unkeyed = tuple(keyed.pop(None, ()))
        self.keyed = keyed

    def bucket(self, first):
        key = first_arg_key(first)
        if key is None:
            return self.clauses()
        found = self.buckets.get(key)
        if found is None:
            if self.keyed is None:
                self._group()
            own = self.keyed.get(key)
            if own is None:
                return self.unkeyed
            if self.unkeyed:   # two ordered runs: the sort merges them
                own = sorted((*own, *self.unkeyed), key=_by_order)
            found = self.buckets[key] = tuple(own)
        return found

    def append(self, clause):
        """Group a clause just appended to the source, if grouped already."""
        if self.keyed is None:
            return
        key = first_arg_key(clause.head.args[0])
        if key is None:     # it belongs to every bucket
            self.unkeyed += (clause,)
            self.buckets = {}
        else:
            self.keyed.setdefault(key, []).append(clause)
            self.buckets.pop(key, None)

    def remove(self, survivors, removed):
        """Make survivors, the source less the removed clauses, the source."""
        self.source = survivors
        self.snapshot = ()
        if self.keyed is None:
            return
        gone = set(removed).__contains__
        for key in {first_arg_key(clause.head.args[0]) for clause in removed}:
            if key is None:
                self.unkeyed = tuple(filterfalse(gone, self.unkeyed))
                self.buckets = {}
                continue
            group = list(filterfalse(gone, self.keyed[key]))
            if group:
                self.keyed[key] = group
            else:
                del self.keyed[key]
            self.buckets.pop(key, None)


class KnowledgeBase:
    """Indexed clauses, signatures, operator table and hook/dynamic registries."""

    def __init__(self):
        self.clauses = {}          # (name, arity) -> [Clause]
        self._index = {}           # (name, arity) -> FirstArgIndex
        self.signatures = {}       # (name, arity) -> [Signature]; the
                                   # anonymous ones under (ANONYMOUS, 0)
        self._candidates = {}      # (name, arity) -> tuple, until a change
        self.dynamic = set()       # (name, arity)
        self.optable = default_table()
        self._next_order = 1       # order of the next clause or signature
        self._impl_counters = {}   # predicate name -> count

    def copy(self):
        """A knowledge base with the same contents that shares nothing mutable.

        The clause and signature objects themselves are shared: once stored
        nothing writes to them but their ``compiled`` caches, which are the
        same in every copy.  The indexes start empty.
        """
        kb = object.__new__(KnowledgeBase)
        kb.clauses = {key: list(group) for key, group in self.clauses.items()}
        kb._index = {}
        kb.signatures = {key: list(group)
                         for key, group in self.signatures.items()}
        kb._candidates = {}
        kb.dynamic = set(self.dynamic)
        kb.optable = self.optable.copy()
        kb._next_order = self._next_order
        kb._impl_counters = dict(self._impl_counters)
        return kb

    def _take_order(self):
        order = self._next_order
        self._next_order = order + 1
        return order

    # -- clauses ---------------------------------------------------------

    def add_clause(self, head, body, filename=None, line=None):
        key = indicator(head)
        clause = Clause(head, body, filename, line, self._take_order())
        self.clauses.setdefault(key, []).append(clause)
        index = self._index.get(key)
        if index is not None:
            index.append(clause)
        return clause

    def remove_clauses(self, key, survivors, removed):
        """Keep only the survivors, in order, of a predicate's clauses."""
        if not removed:
            return
        self.clauses[key] = survivors
        index = self._index.get(key)
        if index is not None:
            index.remove(survivors, removed)

    def clauses_for(self, key, first=None):
        """The clauses of a predicate, in definition order, as a tuple.

        Given the dereferenced first argument of a call, only the clauses
        whose first argument could unify with it.
        """
        index = self._index.get(key)
        if index is None:
            source = self.clauses.get(key)
            if source is None:
                return ()
            index = self._index[key] = FirstArgIndex(source)
        if first is None:
            return index.clauses()
        return index.bucket(first)

    def set_dynamic(self, key):
        """Declare a predicate dynamic; it exists from now on, clauses or not."""
        self.dynamic.add(key)
        self.clauses.setdefault(key, [])

    # -- signatures --------------------------------------------------------

    def next_impl_name(self, name, arity):
        n = self._impl_counters.get(name, 0) + 1
        self._impl_counters[name] = n
        return "$impl$%s/%d#%d" % (name, arity, n)

    def add_signature(self, sig):
        self._candidates.clear()
        sig.order = self._take_order()
        self.signatures.setdefault((sig.name, sig.arity), []).append(sig)

    def signatures_for(self, name, arity):
        return tuple(self.signatures.get((name, arity), ()))

    def candidates(self, name, arity):
        """The signatures of name/arity, then every anonymous one."""
        key = (name, arity)
        found = self._candidates.get(key)
        if found is None:
            found = self.signatures_for(name, arity)
            if key != (ANONYMOUS, 0):   # else they are all in found already
                found += self.signatures_for(ANONYMOUS, 0)
            self._candidates[key] = found
        return found

    def all_signatures(self):
        return sorted((s for group in self.signatures.values() for s in group),
                      key=_by_order)

    def has_mdp_predicate(self, name, arity):
        return bool(self.signatures.get((name, arity)))

    # -- consult bookkeeping -----------------------------------------------

    def forget_file(self, filename):
        """Drop clauses and signatures previously consulted from this file."""
        self._index.clear()
        self._candidates.clear()
        doomed_impls = set()
        for key in list(self.signatures):
            kept = []
            for sig in self.signatures[key]:
                if sig.filename == filename:
                    doomed_impls.add(sig.impl_key)
                else:
                    kept.append(sig)
            if kept:
                self.signatures[key] = kept
            else:
                del self.signatures[key]
        for key in list(self.clauses):
            if key in doomed_impls:
                del self.clauses[key]
                continue
            kept = [c for c in self.clauses[key] if c.filename != filename]
            if kept or key in self.dynamic:
                self.clauses[key] = kept
            else:
                del self.clauses[key]
