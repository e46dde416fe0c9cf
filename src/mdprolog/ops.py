"""Operator table for reading and writing terms: plain data.

An operator name has at most one prefix entry and one infix/postfix entry,
with priorities in 1..1200.  ``op/3`` replaces entries in place; it checks
its arguments before it calls ``add``, which checks nothing.  The reader
and the renderer look names up in the three dicts directly; ``priority``
holds each name's highest priority as any operator.
"""

from __future__ import annotations

PREFIX_FIXITIES = {"fy", "fx"}
INFIX_FIXITIES = {"xfx", "xfy", "yfx"}
POSTFIX_FIXITIES = {"xf", "yf"}
FIXITIES = PREFIX_FIXITIES | INFIX_FIXITIES | POSTFIX_FIXITIES


class OperatorTable:
    def __init__(self):
        self.prefix = {}   # name -> (priority, fixity)
        self.infix = {}    # name -> (priority, fixity); includes postfix
        self.priority = {}  # name -> its highest priority as any operator

    def add(self, priority, fixity, name):
        """Enter an operator: priority in 1..1200, fixity one of FIXITIES."""
        if fixity in PREFIX_FIXITIES:
            self.prefix[name] = (priority, fixity)
        else:
            self.infix[name] = (priority, fixity)
        self.priority[name] = max(self.prefix.get(name, (0,))[0],
                                  self.infix.get(name, (0,))[0])

    def copy(self):
        """A table with the same entries that later ``add`` calls do not share."""
        table = OperatorTable()
        table.prefix = dict(self.prefix)
        table.infix = dict(self.infix)
        table.priority = dict(self.priority)
        return table


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
