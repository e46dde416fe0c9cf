"""Canonical term rendering.

Operators render per the active operator table, lists as ``[a, b|T]``,
atoms quoted when needed (in quoted mode).  Rendered-then-parsed ground
terms are structurally equal to the original.
"""

from __future__ import annotations

import re

from .ops import default_table
from .reader import SYMBOL_CHARS
from .terms import (Atom, BindingStore, MdpError, Struct, Var, is_number,
                    list_parts)

_UNQUOTED_ALPHA = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")
_SOLO_ATOMS = {"!", ";", "[]", "{}"}

RENDER_DEPTH_LIMIT = 10_000

_EMPTY = BindingStore()


def atom_needs_quotes(name):
    if not name:
        return True
    if _UNQUOTED_ALPHA.match(name):
        return False
    if name in _SOLO_ATOMS:
        return False
    if all(c in SYMBOL_CHARS for c in name):
        return False
    return True


def quote_atom(name):
    escaped = (
        name.replace("\\", "\\\\")
        .replace("'", "\\'")
        .replace("\n", "\\n")
        .replace("\t", "\\t")
    )
    return "'%s'" % escaped


def _join(pieces):
    """Concatenate token pieces, inserting spaces where tokens would merge."""
    out = []
    last = ""
    for piece in pieces:
        if not piece:
            continue
        if out:
            a, b = last[-1], piece[0]
            if (a in SYMBOL_CHARS and b in SYMBOL_CHARS) or (
                (a.isalnum() or a == "_") and (b.isalnum() or b == "_")
            ):
                out.append(" ")
        out.append(piece)
        last = piece
    return "".join(out)


class _Renderer:
    def __init__(self, store, optable, quoted):
        self.store = store or _EMPTY
        self.ops = optable or default_table()
        self.quoted = quoted

    def atom_text(self, name):
        if self.quoted and atom_needs_quotes(name):
            return quote_atom(name)
        return name

    def render(self, term, max_priority=1200, depth=0):
        if depth > RENDER_DEPTH_LIMIT:
            raise MdpError("term too deep to render (cyclic?)")
        t = self.store.deref(term)
        if isinstance(t, Var):
            return t.name
        if isinstance(t, bool):
            raise MdpError("not a term: %r" % (t,))
        if isinstance(t, int):
            return str(t)
        if isinstance(t, float):
            return repr(t)
        if isinstance(t, Atom):
            text = self.atom_text(t.name)
            # a bare operator atom needs parens inside operator expressions
            if self.ops.is_operator(t.name) and max_priority < 1201:
                return "(" + text + ")"
            return text
        if not isinstance(t, Struct):
            raise MdpError("not a term: %r" % (t,))
        if t.functor == "." and len(t.args) == 2:
            return self.render_list(t, depth)
        if t.functor == "," and len(t.args) == 2:
            return self.wrap(
                _join([self.render(t.args[0], 999, depth + 1), ",",
                       self.render(t.args[1], 1000, depth + 1)]),
                1000, max_priority)
        if len(t.args) == 2:
            entry = self.ops.infix_op(t.functor)
            if entry:
                priority, fixity = entry
                lp = priority if fixity == "yfx" else priority - 1
                rp = priority if fixity == "xfy" else priority - 1
                text = _join([
                    self.render(t.args[0], lp, depth + 1),
                    self.atom_text(t.functor),
                    self.render(t.args[1], rp, depth + 1),
                ])
                return self.wrap(text, priority, max_priority)
        if len(t.args) == 1:
            entry = self.ops.prefix_op(t.functor)
            if entry:
                priority, fixity = entry
                ap = priority if fixity == "fy" else priority - 1
                arg = self.store.deref(t.args[0])
                rendered_arg = self.render(t.args[0], ap, depth + 1)
                if rendered_arg.startswith("("):
                    # a space keeps this from re-reading as functional notation
                    text = self.atom_text(t.functor) + " " + rendered_arg
                else:
                    text = _join([self.atom_text(t.functor), rendered_arg])
                # keep "- 1" from re-reading as the literal -1
                if t.functor in ("-", "+") and is_number(arg):
                    text = "%s (%s)" % (self.atom_text(t.functor),
                                        self.render(t.args[0], 1200, depth + 1))
                return self.wrap(text, priority, max_priority)
            entry = self.ops.postfix_op(t.functor)
            if entry:
                priority, fixity = entry
                ap = priority if fixity == "yf" else priority - 1
                text = _join([self.render(t.args[0], ap, depth + 1),
                              self.atom_text(t.functor)])
                return self.wrap(text, priority, max_priority)
        args = ", ".join(self.render(a, 999, depth + 1) for a in t.args)
        name = t.functor
        # solo atoms render bare as operands but must be quoted as functors
        if name in _SOLO_ATOMS or (self.quoted and atom_needs_quotes(name)):
            name = quote_atom(name)
        return "%s(%s)" % (name, args)

    def render_list(self, t, depth):
        """A list's elements count one level of nesting, however many."""
        items, tail = list_parts(t, self.store)
        text = ", ".join(self.render(item, 999, depth + 1) for item in items)
        if tail is Atom("[]"):
            return "[%s]" % text
        return "[%s|%s]" % (text, self.render(tail, 999, depth + 1))

    @staticmethod
    def wrap(text, priority, max_priority):
        if priority > max_priority:
            return "(" + text + ")"
        return text


def render(term, store=None, optable=None, quoted=False, max_priority=1200):
    return _Renderer(store, optable, quoted).render(term, max_priority)
