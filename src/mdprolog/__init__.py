"""A small Prolog engine with multidimensional (context-dispatched) predicates."""

from .engine import Engine, Solution
from .errors import (
    ConsultError,
    Halt,
    PrologThrow,
    TransformError,
)
from .reader import ReaderError
from .terms import BudgetExceeded, MdpError

__all__ = [
    "Engine",
    "Solution",
    "MdpError",
    "ReaderError",
    "ConsultError",
    "TransformError",
    "PrologThrow",
    "BudgetExceeded",
    "Halt",
]

__version__ = "0.1.0"
