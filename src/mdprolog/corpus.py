"""Executable example corpus: programs plus expected-outcome case files.

Each case is a YAML file naming program files, a query, and expectations
(ordered solutions, output-sink lines, an expected error, or a hazard
marker for queries that may repeat solutions or blow an inference
budget).  Cases run on a fresh engine and double as documentation.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import yaml

from .engine import Engine, read_source
from .errors import PrologThrow
from .render import render
from .terms import BudgetExceeded, MdpError


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


# the fields of a case file and of its expect, and their types, a list's
# items being str; a case needs a name and a query, and a field given no
# value is an error
_FIELDS = {"name": str, "query": str, "topic": str, "programs": list,
           "setup": list, "budget": int, "max_solutions": int, "expect": dict}
_EXPECT = {"error": str, "solutions": list, "output": list, "hazard": bool}


def load_case(path):
    """The case of a YAML file; an MdpError that names the file if it is none."""
    try:
        data = yaml.safe_load(read_source(Path(path)))
    except yaml.YAMLError as exc:
        raise MdpError("%s: not a case file: %s" % (path, exc)) from exc
    if not isinstance(data, dict) or None in (data.get("name"), data.get("query")):
        raise MdpError("%s: a case needs a name and a query" % path)
    expect = data.get("expect") or {}
    for fields, values, prefix in ((_FIELDS, data, ""),
                                   (_EXPECT, expect, "expect.")):
        for key, kind in fields.items():
            value = values.get(key)
            if key in values and not (isinstance(value, kind) and (
                    kind is not list or all(isinstance(v, str) for v in value))):
                raise MdpError("%s: %s%s must be a %s"
                               % (path, prefix, key, kind.__name__))
    return CorpusCase(
        name=data["name"],
        topic=data.get("topic", ""),
        programs=data.get("programs", []),
        query=data["query"],
        setup=data.get("setup", []),
        budget=data.get("budget"),
        max_solutions=data.get("max_solutions"),
        expect=expect,
        source=str(path),
    )


def load_cases(directory=None):
    """Cases from a directory, or the packaged set, sorted by file name."""
    if directory is None:
        root = _packaged_root().joinpath("cases")
        paths = sorted(root.iterdir(), key=lambda p: p.name)
    else:
        paths = sorted(Path(directory).glob("*.yaml"))
    return [load_case(p) for p in paths if p.name.endswith(".yaml")]


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
                return CaseResult(case, True,
                                  "duplicate solutions: %s" % lines)
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
        lines = [_solution_line(s) for s in sols]
        if "solutions" in expect and lines != expect["solutions"]:
            return CaseResult(
                case, False,
                "solutions %r != expected %r" % (lines, expect["solutions"]))
        if "output" in expect:
            got = sink.getvalue().splitlines()
            if got != expect["output"]:
                return CaseResult(
                    case, False,
                    "output %r != expected %r" % (got, expect["output"]))
        return CaseResult(case, True)
    except BudgetExceeded as exc:
        return CaseResult(case, False, "budget exhausted: %s" % exc)
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
            status = "ok" if r.passed else "FAIL"
            line = "%-4s %s" % (status, r.case.name)
            if not r.passed and r.details:
                line += "  (%s)" % r.details
            report.write(line + "\n")
        report.write("%d/%d cases passed\n"
                     % (sum(r.passed for r in results), len(results)))
    return sum(r.passed for r in results), results
