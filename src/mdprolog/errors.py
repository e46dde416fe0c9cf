"""Engine error and exception types, the error terms of ISO builtins,
and ``list_items``, the one reader of a list argument that must be a
proper list."""

from __future__ import annotations

from .render import render
from .terms import NIL, Atom, MdpError, Struct, Var, list_parts, resolve


class TransformError(MdpError):
    """Consult-time translation of an mdp clause failed."""


class ConsultError(MdpError):
    """A file could not be consulted (parse error, bad directive, ...)."""


class Halt(Exception):
    """Raised by halt/0 and halt/1."""

    def __init__(self, code=0):
        self.code = code
        super().__init__(code)


class PrologThrow(Exception):
    """A ball thrown by throw/1; catch/3 may intercept it."""

    def __init__(self, ball):
        self.ball = ball
        super().__init__(ball)

    def __str__(self):
        return render(self.ball, quoted=True)


def error_term(kind, *args):
    formal = Struct(kind, args) if args else Atom(kind)
    return Struct("error", (formal, Atom("mdprolog")))


def instantiation_error():
    return PrologThrow(error_term("instantiation_error"))


def type_error(expected, culprit):
    return PrologThrow(error_term("type_error", Atom(expected), culprit))


def domain_error(domain, culprit):
    return PrologThrow(error_term("domain_error", Atom(domain), culprit))


def existence_error(kind, culprit):
    return PrologThrow(error_term("existence_error", Atom(kind), culprit))


def permission_error(action, kind, culprit):
    return PrologThrow(error_term("permission_error", Atom(action), Atom(kind),
                                  culprit))


def evaluation_error(what):
    return PrologThrow(error_term("evaluation_error", Atom(what)))


def list_items(term, store, iso=False):
    """The elements of a proper list; any other term, a partial list
    too, is a ``type_error(list, Term)``, and a cyclic list an error
    (``list_parts``).  With iso a partial list is an
    ``instantiation_error``, as ISO has it for the sorts and ``=../2``."""
    items, tail = list_parts(term, store)
    if tail is not NIL:
        if iso and type(tail) is Var:
            raise instantiation_error()
        raise type_error("list", resolve(term, store))
    return items
