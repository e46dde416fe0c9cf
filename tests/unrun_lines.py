"""The lines of the package that the tier-1 tests never run.

Runs the tier-1 tests in this process under a ``sys.settrace`` function
that notes each line of ``src/mdprolog`` as it runs, then prints, module
by module, the lines that hold code but never ran, and their count.  It
needs no coverage tool, only the standard library and the test runner.

What it cannot see is listed as unrun:

- the tests that run the package in a subprocess (the CLI tests, and the
  children of ``run_away`` and ``TestDepth``) are not traced, so a line
  that only they reach is listed;
- a test that installs a trace function of its own (the opcode counts
  of ``tests/test_step_cost.py``) replaces this one until it ends.

A test that runs slower under the trace may fail; the tests' exit status
is printed.  The script checks nothing and exits 0.

Given a git revision, it also prints, module by module, the unrun lines
that the diff from that revision to the working tree added or changed
(``git diff -U0``), so a review sees which new lines no test reaches.

    PYTHONPATH=src python tests/unrun_lines.py [--base REF] [pytest arguments]
"""

import importlib.util
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


def code_lines(path):
    """The lines of a module that hold code: those of its code objects'
    instructions, less the line of each function's ``def``, which runs in
    the scope that defines it."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        if code.co_name != "<module>":
            lines.discard(code.co_firstlineno)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class Tracer:
    """Notes the lines of the package's modules that run."""

    def __init__(self, package):
        self.prefix = str(package) + os.sep
        self.ran = set()        # (resolved file name, line)
        self.files = {}         # code file name -> its line tracer, or None

    def trace(self, frame, event, arg):
        name = frame.f_code.co_filename
        found = self.files.get(name, False)
        if found is False:
            resolved = os.path.realpath(name)
            found = self.files[name] = (self._lines(resolved)
                                        if resolved.startswith(self.prefix)
                                        else None)
        return found

    def _lines(self, resolved):
        ran = self.ran

        def line(frame, event, arg):
            if event == "line":
                ran.add((resolved, frame.f_lineno))
            return line
        return line

    def install(self):
        sys.settrace(self.trace)
        threading.settrace(self.trace)

    # a pytest plugin: each test starts traced, whatever the last one left
    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        self.install()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        self.install()


def ranges(lines):
    """'3, 5-7' for [3, 5, 6, 7]."""
    spans = []
    for n in sorted(lines):
        if spans and spans[-1][1] == n - 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in spans)


HUNK = re.compile(r"^@@ -\S+ \+(\d+)(?:,(\d+))? @@", re.MULTILINE)


def changed_lines(package, ref):
    """The lines of each module that the diff from ref added or changed,
    by module file name, read from the new side of ``git diff -U0``."""
    changed = {}
    for path in sorted(package.glob("*.py")):
        diff = subprocess.run(["git", "diff", "-U0", ref, "--", str(path)],
                              cwd=package, capture_output=True, text=True,
                              check=True).stdout
        for start, count in HUNK.findall(diff):
            start, count = int(start), int(count or 1)
            changed.setdefault(path.name, set()).update(
                range(start, start + count))
    return changed


def main(args):
    base = None
    if args[:1] == ["--base"]:
        base, args = args[1], args[2:]
    # found, not imported: module-level lines run under the trace
    spec = importlib.util.find_spec("mdprolog")
    package = Path(os.path.realpath(spec.submodule_search_locations[0]))
    tracer = Tracer(package)
    tracer.install()
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors",
                              *(args or [str(TESTS)])], plugins=[tracer])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    print("\nlines of %s that no test ran (tests exited %d):"
          % (package, status))
    unrun_by_module = {}
    for path in sorted(package.glob("*.py")):
        resolved = os.path.realpath(path)
        unrun = {n for n in code_lines(path) if (resolved, n) not in tracer.ran}
        if unrun:
            total += len(unrun)
            unrun_by_module[path.name] = unrun
            print("%-16s %4d  %s" % (path.name, len(unrun), ranges(unrun)))
    print("%-16s %4d" % ("total", total))
    if base is not None:
        changed = changed_lines(package, base)
        total = 0
        print("\nof them, lines added or changed since %s:" % base)
        for name, unrun in unrun_by_module.items():
            new = unrun & changed.get(name, set())
            if new:
                total += len(new)
                print("%-16s %4d  %s" % (name, len(new), ranges(new)))
        print("%-16s %4d" % ("total", total))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
