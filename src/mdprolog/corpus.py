"""Executable example corpus: programs plus expected-outcome case files.

Each case is a ``.case`` file of Prolog facts, one per field, read by the
engine's own reader: the program files, a query, and expectations
(ordered solutions, output-sink lines, an expected error, or a hazard
marker for queries that may repeat solutions or blow an inference
budget).  Queries and expected lines are quoted atoms.  Cases run on a
fresh engine and double as documentation.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .engine import Engine, read_source
from .errors import Halt, PrologThrow
from .ops import default_table
from .reader import parse_program
from .render import render
from .terms import NIL, Atom, BudgetExceeded, MdpError, Struct, list_parts


@dataclass
class CorpusCase:
    name: str
    topic: str
    programs: list
    query: str
    setup: list = field(default_factory=list)
    budget: int = None
    max_solutions: int = None
    expect: dict = field(default_factory=dict)
    source: str = None


@dataclass
class CaseResult:
    case: CorpusCase
    passed: bool
    details: str = ""


def _packaged_root():
    return resources.files("mdprolog").joinpath("corpus")


def _atom(term):
    return term.name if type(term) is Atom else None


def _atoms(term):
    items, tail = list_parts(term)
    names = [_atom(item) for item in items]
    return names if tail is NIL and None not in names else None


# each field of a case file, a fact of one argument: the kind of its value
# and its reader, which gives None for a value of another kind; the fields
# that are not CorpusCase's are what the case expects
_FIELDS = {
    **dict.fromkeys(("name", "topic", "query", "error"), ("an atom", _atom)),
    **dict.fromkeys(("programs", "setup", "solutions", "output"),
                    ("a list of atoms", _atoms)),
    **dict.fromkeys(("budget", "max_solutions"),
                    ("an integer", lambda t: t if type(t) is int else None)),
    "hazard": ("true or false",
               lambda t: {"true": True, "false": False}.get(_atom(t))),
}


def load_case(path):
    """The case of a case file; an MdpError that names the file if it is none."""
    values = {}
    for item in parse_program(read_source(Path(path)), default_table(), str(path)):
        term = item.term
        key = type(term) is Struct and len(term.args) == 1 and term.functor
        if key not in _FIELDS or key in values:
            raise MdpError("%s:%d: %s" % (path, item.line, (
                "%s given twice" % key if key in values
                else "not a field of a case: " + render(term, quoted=True))))
        kind, read = _FIELDS[key]
        values[key] = read(term.args[0])
        if values[key] is None:
            raise MdpError("%s: %s must be %s" % (path, key, kind))
    if "name" not in values or "query" not in values:
        raise MdpError("%s: a case needs a name and a query" % path)
    fields = CorpusCase.__dataclass_fields__
    expect = {k: values.pop(k) for k in list(values) if k not in fields}
    if not expect:
        raise MdpError("%s: a case needs solutions, output, error or hazard"
                       % path)
    return CorpusCase(**{"topic": "", "programs": [], **values},
                      expect=expect, source=str(path))


def load_cases(directory=None):
    """Cases from a directory, or the packaged set, sorted by file name."""
    root = (_packaged_root().joinpath("cases") if directory is None
            else Path(directory))
    paths = sorted(root.iterdir() if root.is_dir() else (), key=lambda p: p.name)
    return [load_case(p) for p in paths if p.name.endswith(".case")]


def _program_text(name, directory=None):
    """The text of a program: the directory's file of that name, if there
    is one, else the packaged one."""
    path = Path(directory) / name if directory is not None else None
    if path is None or not path.exists():
        path = _packaged_root().joinpath("programs").joinpath(name)
    return read_source(path)


def _solution_line(sol):
    """A solution's text on one line.  The variables that are not the
    query's, ``_G<serial>``, are numbered in order of appearance, so a
    line does not depend on the run and two variant answers read alike."""
    names = {}
    return re.sub(r"_G\d+", lambda m: names.setdefault(
        m.group(), "_G%d" % len(names)), sol.text().replace("\n", " "))


def run_case(case, programs_dir=None):
    """Run one case on a fresh engine.  A program that an earlier case
    consulted after the same programs, under the same budget, is a copy
    of that consult's result (``Engine.consult_text``), so a case run
    again pays only for its setup goals and its query."""
    sink = io.StringIO()
    engine = Engine(budget=case.budget, out=sink)
    try:
        for name in case.programs:
            engine.consult_text(_program_text(name, programs_dir), name)
        for goal in case.setup:
            if not engine.query(goal, max_solutions=1):
                return CaseResult(case, False, "setup goal failed: %s" % goal)
        expect = case.expect

        if expect.get("hazard"):
            try:
                sols = engine.query(case.query,
                                    max_solutions=case.max_solutions)
            except BudgetExceeded:
                return CaseResult(case, True, "budget exhausted")
            lines = [_solution_line(s) for s in sols]
            if len(set(lines)) < len(lines):
                return CaseResult(case, True, "duplicate solutions: %s" % lines)
            return CaseResult(
                case, False, "no duplicates and budget survived: %s" % lines)

        if "error" in expect:
            try:
                engine.query(case.query, max_solutions=case.max_solutions)
            except PrologThrow as exc:
                text = render(exc.ball, None, engine.kb.optable, quoted=False)
                if expect["error"] in text:
                    return CaseResult(case, True)
                return CaseResult(case, False, "wrong error: %s" % text)
            return CaseResult(case, False, "expected an error, got none")

        sols = engine.query(case.query, max_solutions=case.max_solutions)
        got = {"solutions": [_solution_line(s) for s in sols],
               "output": sink.getvalue().splitlines()}
        for key in ("solutions", "output"):
            if key in expect and got[key] != expect[key]:
                return CaseResult(case, False, "%s %r != expected %r"
                                  % (key, got[key], expect[key]))
        return CaseResult(case, True)
    except BudgetExceeded as exc:
        return CaseResult(case, False, "budget exhausted: %s" % exc)
    except Halt as halt:
        return CaseResult(case, False, "halt %d" % halt.code)
    except MdpError as exc:     # a reader, consult or engine error
        return CaseResult(case, False, "error: %s" % exc)
    except PrologThrow as exc:
        text = render(exc.ball, None, engine.kb.optable, quoted=False)
        return CaseResult(case, False, "uncaught error: %s" % text)


def run_all(directory=None, report=None):
    """Run every case; returns (passed_count, results)."""
    cases = load_cases(directory)
    results = [run_case(c, programs_dir=directory) for c in cases]
    if report is not None:
        for r in results:
            report.write("%-4s %s%s\n" % (
                "ok" if r.passed else "FAIL", r.case.name,
                "  (%s)" % r.details if not r.passed and r.details else ""))
        report.write("%d/%d cases passed\n"
                     % (sum(r.passed for r in results), len(results)))
    return sum(r.passed for r in results), results
