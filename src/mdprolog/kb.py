"""Clause store, mdp signature store and related bookkeeping."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .ops import default_table
from .terms import Var, indicator

ANONYMOUS = "$anonymous_rule"


@dataclass
class Clause:
    head: object
    body: object
    filename: str = None
    line: int = None
    order: int = 0


@dataclass
class Signature:
    """Compiled metadata for one mdp rule.

    ``name`` is None for anonymous rules.  ``ctx_var``, ``rules`` and
    ``score_vars`` share variables; the whole record is renamed apart
    before scoring.
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

    @property
    def anonymous(self):
        return self.name == ANONYMOUS

    def label(self):
        if self.anonymous:
            return "%s(#%d)" % (ANONYMOUS, self.order)
        return "%s/%d(#%d)" % (self.name, self.arity, self.order)


class KnowledgeBase:
    """Indexed clauses, signatures, operator table and hook/dynamic registries."""

    def __init__(self):
        self.clauses = {}          # (name, arity) -> [Clause]
        self.signatures = {}       # (name, arity) -> [Signature]
        self.anonymous_signatures = []
        self.dynamic = set()       # (name, arity)
        self.optable = default_table()
        self._order = itertools.count(1)
        self._impl_counters = {}   # predicate name -> count

    # -- clauses ---------------------------------------------------------

    def add_clause(self, head, body, filename=None, line=None):
        key = indicator(head)
        clause = Clause(head, body, filename, line, next(self._order))
        self.clauses.setdefault(key, []).append(clause)
        return clause

    def clauses_for(self, key):
        return tuple(self.clauses.get(key, ()))

    def has_predicate(self, key):
        return key in self.clauses or key in self.dynamic

    def set_dynamic(self, key):
        self.dynamic.add(key)
        self.clauses.setdefault(key, [])

    # -- signatures --------------------------------------------------------

    def next_impl_name(self, name, arity):
        n = self._impl_counters.get(name, 0) + 1
        self._impl_counters[name] = n
        return "$impl$%s/%d#%d" % (name, arity, n)

    def add_signature(self, sig):
        sig.order = next(self._order)
        if sig.anonymous:
            self.anonymous_signatures.append(sig)
        else:
            self.signatures.setdefault((sig.name, sig.arity), []).append(sig)

    def signatures_for(self, name, arity):
        return tuple(self.signatures.get((name, arity), ()))

    def all_signatures(self):
        named = [s for group in self.signatures.values() for s in group]
        return sorted(named + self.anonymous_signatures, key=lambda s: s.order)

    def has_mdp_predicate(self, name, arity):
        return bool(self.signatures.get((name, arity)))

    # -- consult bookkeeping -----------------------------------------------

    def forget_file(self, filename):
        """Drop clauses and signatures previously consulted from this file."""
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
