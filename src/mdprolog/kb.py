"""Clause store, mdp signature store and related bookkeeping."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import attrgetter

from .ops import default_table
from .terms import Atom, Struct, Var, compile_terms, conj, indicator

ANONYMOUS = "$anonymous_rule"


@dataclass(slots=True)
class Clause:
    head: object
    body: object
    filename: str = None
    line: int = None
    order: int = 0
    # (head argument templates, body template, slot count) once tried
    compiled: tuple = field(default=None, repr=False, compare=False)

    def compile(self):
        """Compile the clause into templates on its first try."""
        (head, body), size = compile_terms((self.head, self.body))
        self.compiled = getattr(head, "args", ()), body, size
        return self.compiled


@dataclass(slots=True)
class Signature:
    """Compiled metadata for one mdp rule.

    ``name`` is ANONYMOUS for anonymous rules.  ``ctx_var``, ``rules`` and
    ``score_vars`` share variables; scoring builds fresh copies of them
    from one template.
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
    # (context-rule goal template, score templates, slot count) once scored;
    # the context variable is slot 0
    compiled: tuple = field(default=None, repr=False, compare=False)

    def compile(self):
        """Compile the context rules and score variables on first scoring."""
        templates, size = compile_terms(
            (self.ctx_var, conj(self.rules)) + self.score_vars)
        self.compiled = templates[1], templates[2:], size
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
    if isinstance(t, Atom):
        return t
    if isinstance(t, Struct):
        return t.functor, len(t.args)
    if isinstance(t, (int, float)):
        return type(t), t
    return None


_by_order = attrgetter("order")


class FirstArgIndex:
    """Snapshot of one predicate's clauses, bucketed on demand.

    A bucket holds, in definition order, the clauses whose first argument
    has the bucket's key together with those whose first argument is a
    variable.  A call iterates over a tuple that later writes never touch,
    which is the logical update view.  The clauses are grouped on the
    first call with a bound first argument, so a predicate that is only
    written or scanned between writes never pays for the grouping.
    """

    __slots__ = ("clauses", "keyed", "unkeyed", "buckets")

    def __init__(self, clauses):
        self.clauses = tuple(clauses)
        self.keyed = None      # key -> [Clause], once grouped
        self.unkeyed = ()      # clauses with a variable first argument
        self.buckets = {}      # key -> tuple, built on first use

    def _group(self):
        # reached only for a bound first argument, so every head is compound
        keyed = {}
        for clause in self.clauses:
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
            return self.clauses
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


class KnowledgeBase:
    """Indexed clauses, signatures, operator table and hook/dynamic registries."""

    def __init__(self):
        self.clauses = {}          # (name, arity) -> [Clause]
        self._index = {}           # (name, arity) -> FirstArgIndex
        self.signatures = {}       # (name, arity) -> [Signature]
        self.anonymous_signatures = []
        self._candidates = {}      # (name, arity) -> tuple, until a change
        self.dynamic = set()       # (name, arity)
        self.optable = default_table()
        self._order = itertools.count(1)
        self._impl_counters = {}   # predicate name -> count

    # -- clauses ---------------------------------------------------------

    def add_clause(self, head, body, filename=None, line=None):
        key = indicator(head)
        clause = Clause(head, body, filename, line, next(self._order))
        self.clauses.setdefault(key, []).append(clause)
        self._index.pop(key, None)
        return clause

    def replace_clauses(self, key, clauses):
        self.clauses[key] = clauses
        self._index.pop(key, None)

    def clauses_for(self, key, first=None):
        """The clauses of a predicate, in definition order, as a tuple.

        Given the dereferenced first argument of a call, only the clauses
        whose first argument could unify with it.
        """
        index = self._index.get(key)
        if index is None:
            index = self._index[key] = FirstArgIndex(self.clauses.get(key, ()))
        return index.bucket(first)

    def has_predicate(self, key):
        return key in self.clauses or key in self.dynamic

    def set_dynamic(self, key):
        self.dynamic.add(key)
        self.clauses.setdefault(key, [])
        self._index.pop(key, None)

    # -- signatures --------------------------------------------------------

    def next_impl_name(self, name, arity):
        n = self._impl_counters.get(name, 0) + 1
        self._impl_counters[name] = n
        return "$impl$%s/%d#%d" % (name, arity, n)

    def add_signature(self, sig):
        self._candidates.clear()
        sig.order = next(self._order)
        if sig.anonymous:
            self.anonymous_signatures.append(sig)
        else:
            self.signatures.setdefault((sig.name, sig.arity), []).append(sig)

    def signatures_for(self, name, arity):
        return tuple(self.signatures.get((name, arity), ()))

    def candidates(self, name, arity):
        """The signatures of name/arity, then every anonymous one."""
        key = (name, arity)
        found = self._candidates.get(key)
        if found is None:
            found = self._candidates[key] = (
                self.signatures_for(name, arity) + tuple(self.anonymous_signatures))
        return found

    def all_signatures(self):
        named = [s for group in self.signatures.values() for s in group]
        return sorted(named + self.anonymous_signatures, key=lambda s: s.order)

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
                    doomed_impls.add((sig.impl_name, sig.arity + 1))
                else:
                    kept.append(sig)
            if kept:
                self.signatures[key] = kept
            else:
                del self.signatures[key]
        kept_anon = []
        for sig in self.anonymous_signatures:
            if sig.filename == filename:
                doomed_impls.add((sig.impl_name, 1))
            else:
                kept_anon.append(sig)
        self.anonymous_signatures = kept_anon
        for key in list(self.clauses):
            if key in doomed_impls:
                del self.clauses[key]
                continue
            kept = [c for c in self.clauses[key] if c.filename != filename]
            if kept or key in self.dynamic:
                self.clauses[key] = kept
            else:
                del self.clauses[key]
