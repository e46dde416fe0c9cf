"""Canonical term rendering.

Operators render per the active operator table, lists as ``[a, b|T]``,
atoms quoted when needed (in quoted mode).  Rendered-then-parsed ground
terms are structurally equal to the original.

Rendering walks the term on its own stack, bottom up, under the one depth
bound of ``terms.RESOLVE_DEPTH_LIMIT``; a list counts as one level.
"""

from __future__ import annotations

import re

from .ops import INFIX_FIXITIES, POSTFIX_FIXITIES, default_table
from .reader import SYMBOL_CHARS
from .terms import (NIL, RESOLVE_DEPTH_LIMIT, Atom, BindingStore, MdpError,
                    Struct, Var, is_number, list_parts)

_UNQUOTED_ALPHA = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")
_SOLO_ATOMS = {"!", ";", "[]", "{}"}

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


# How a compound's children join: the second item of a form
_LIST, _INFIX, _PREFIX, _POSTFIX, _CANONICAL = range(5)


class _Renderer:
    def __init__(self, store, optable, quoted, names):
        self.store = store or _EMPTY
        self.ops = optable or default_table()
        self.quoted = quoted
        self.names = names

    def atom_text(self, name):
        if self.quoted and atom_needs_quotes(name):
            return quote_atom(name)
        return name

    def render(self, term, max_priority=1200):
        """The text of a term, in parentheses if its priority exceeds max_priority.

        A compound is put together once the text and priority of each of
        its children is known; it puts parentheses around a child whose
        priority is above the most its slot takes.  The compounds still
        being put together wait on a stack in place of recursion, and one
        nested deeper than ``RESOLVE_DEPTH_LIMIT`` levels is an error.  A
        list's elements and tail count as one level, however many.  A
        bare operator atom has priority 1201, so it is in parentheses
        wherever it is an operand.
        """
        deref = self.store.deref
        atom_text = self.atom_text
        operators = self.ops.priority
        stack = []      # the compounds above, as (children, slots, form, texts)
        # the term is the one child of a root whose slot takes max_priority
        children, slots, form, texts = (term,), (max_priority,), None, []
        while True:
            i = len(texts)
            if i < len(children):
                t = deref(children[i])
                cls = type(t)
                if cls is Struct:
                    if len(stack) > RESOLVE_DEPTH_LIMIT:
                        raise MdpError("term too deep to render (cyclic?)")
                    stack.append((children, slots, form, texts))
                    children, slots, form = self.parts(t)
                    texts = []
                    continue
                if cls is Var:
                    text, priority = self.var_text(t), 0
                elif cls is Atom:
                    text = atom_text(t.name)
                    priority = 1201 if t.name in operators else 0
                elif cls is int or cls is float:
                    text, priority = repr(t), 0
                else:
                    raise MdpError("not a term: %r" % (t,))
            elif form is None:
                return texts[0]
            else:
                text, priority = self.join(form, texts)
                children, slots, form, texts = stack.pop()
                i = len(texts)
            texts.append("(" + text + ")" if priority > slots[i] else text)

    def var_text(self, var):
        """A variable's print name; with names, its name there, ``_`` for
        an anonymous one and ``_G<serial>`` for any other."""
        if self.names is None or var.name == "_":
            return var.name
        return self.names.get(var) or "_G%d" % var.serial

    def parts(self, t):
        """(children, the maximum priority of each child's slot, form).

        The form tells ``join`` how to put the children's texts together.
        """
        f, args = t.functor, t.args
        if f == "." and len(args) == 2:
            items, tail = list_parts(t, self.store)
            if tail is not NIL:
                items.append(tail)
            return items, [999] * len(items), (_LIST, tail is not NIL)
        if len(args) == 2:
            if f == ",":
                return args, (999, 1000), (_INFIX, ",", 1000)
            entry = self.ops.infix.get(f)
            if entry and entry[1] in INFIX_FIXITIES:
                priority, fixity = entry
                return args, (
                    priority if fixity == "yfx" else priority - 1,
                    priority if fixity == "xfy" else priority - 1,
                ), (_INFIX, self.atom_text(f), priority)
        elif len(args) == 1:
            entry = self.ops.prefix.get(f)
            if entry:
                priority, fixity = entry
                # keep "- 1" from re-reading as the literal -1
                number = f in ("-", "+") and is_number(self.store.deref(args[0]))
                return args, (priority if fixity == "fy" else priority - 1,), (
                    _PREFIX, self.atom_text(f), priority, number)
            entry = self.ops.infix.get(f)
            if entry and entry[1] in POSTFIX_FIXITIES:
                priority, fixity = entry
                return args, (priority if fixity == "yf" else priority - 1,), (
                    _POSTFIX, self.atom_text(f), priority)
        # solo atoms render bare as operands but must be quoted as functors
        if f in _SOLO_ATOMS or (self.quoted and atom_needs_quotes(f)):
            f = quote_atom(f)
        return args, (999,) * len(args), (_CANONICAL, f)

    @staticmethod
    def join(form, texts):
        """The text and priority of a compound from its children's texts."""
        kind = form[0]
        if kind is _LIST:
            if form[1]:
                return "[%s|%s]" % (", ".join(texts[:-1]), texts[-1]), 0
            return "[%s]" % ", ".join(texts), 0
        if kind is _INFIX:
            return _join([texts[0], form[1], texts[1]]), form[2]
        if kind is _PREFIX:
            arg = texts[0]
            if form[3]:
                return "%s (%s)" % (form[1], arg), form[2]
            if arg.startswith("("):
                # a space keeps this from re-reading as functional notation
                return form[1] + " " + arg, form[2]
            return _join([form[1], arg]), form[2]
        if kind is _POSTFIX:
            return _join([texts[0], form[1]]), form[2]
        return "%s(%s)" % (form[1], ", ".join(texts)), 0


def render(term, store=None, optable=None, quoted=False, max_priority=1200,
           names=None):
    """The text of term; names, if given, maps each variable that keeps
    its name to that name, and any other but ``_`` prints as
    ``_G<serial>``."""
    return _Renderer(store, optable, quoted, names).render(term, max_priority)
