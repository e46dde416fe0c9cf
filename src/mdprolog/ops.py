"""Operator table for reading and writing terms.

An operator name has at most one prefix entry and one infix/postfix entry,
with priorities in 1..1200.  ``op/3`` directives replace entries in place.
The reader looks names up in the three dicts directly; ``priority`` holds
each name's highest priority as any operator.
"""

from __future__ import annotations

from .terms import MdpError

PREFIX_FIXITIES = {"fy", "fx"}
INFIX_FIXITIES = {"xfx", "xfy", "yfx"}
POSTFIX_FIXITIES = {"xf", "yf"}
FIXITIES = PREFIX_FIXITIES | INFIX_FIXITIES | POSTFIX_FIXITIES


class OperatorError(MdpError):
    pass


class OperatorTable:
    def __init__(self):
        self.prefix = {}   # name -> (priority, fixity)
        self.infix = {}    # name -> (priority, fixity); includes postfix
        self.priority = {}  # name -> its highest priority as any operator

    def add(self, priority, fixity, name):
        if not isinstance(priority, int) or not 1 <= priority <= 1200:
            raise OperatorError("operator priority out of range: %r" % (priority,))
        if fixity in PREFIX_FIXITIES:
            self.prefix[name] = (priority, fixity)
        elif fixity in INFIX_FIXITIES or fixity in POSTFIX_FIXITIES:
            self.infix[name] = (priority, fixity)
        else:
            raise OperatorError("unknown operator fixity: %r" % (fixity,))
        self.priority[name] = max(self.prefix.get(name, (0,))[0],
                                  self.infix.get(name, (0,))[0])

    def copy(self):
        """A table with the same entries that later ``add`` calls do not share."""
        table = OperatorTable()
        table.prefix = dict(self.prefix)
        table.infix = dict(self.infix)
        table.priority = dict(self.priority)
        return table

    def prefix_op(self, name):
        return self.prefix.get(name)

    def infix_op(self, name):
        entry = self.infix.get(name)
        if entry and entry[1] in INFIX_FIXITIES:
            return entry
        return None

    def postfix_op(self, name):
        entry = self.infix.get(name)
        if entry and entry[1] in POSTFIX_FIXITIES:
            return entry
        return None

    def is_operator(self, name):
        return name in self.priority


_DEFAULT_OPS = [
    (1200, "xfx", ":-"),
    (1200, "fy", ":-"),
    (1150, "xfx", "#"),
    (1150, "fx", "dynamic"),
    (1100, "xfy", ";"),
    (1050, "xfy", "->"),
    (990, "xfx", "?"),
    (990, "fy", "?"),
    (900, "fy", "\\+"),
    (700, "xfx", "="),
    (700, "xfx", "\\="),
    (700, "xfx", "=="),
    (700, "xfx", "\\=="),
    (700, "xfx", "is"),
    (700, "xfx", "<"),
    (700, "xfx", ">"),
    (700, "xfx", "=<"),
    (700, "xfx", ">="),
    (700, "xfx", "=:="),
    (700, "xfx", "=\\="),
    (700, "xfx", "=.."),
    (500, "yfx", "+"),
    (500, "yfx", "-"),
    (400, "yfx", "*"),
    (400, "yfx", "/"),
    (400, "yfx", "mod"),
    (200, "fy", "-"),
    (200, "xfy", ":"),
    (200, "xfx", "@"),
]


def default_table():
    table = OperatorTable()
    for priority, fixity, name in _DEFAULT_OPS:
        table.add(priority, fixity, name)
    return table
