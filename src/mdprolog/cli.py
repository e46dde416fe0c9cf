"""Command-line front end: consult files, run goals, REPL, corpus runner."""

from __future__ import annotations

import argparse
import sys

from .corpus import run_all
from .engine import Engine
from .errors import Halt, MdpError, PrologThrow
from .reader import ends_clause
from .render import render


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mdprolog",
        description="A Prolog subset with multidimensional predicates.")
    parser.add_argument("files", nargs="*", help="program files to consult")
    parser.add_argument("-g", "--goal", help="goal to run instead of the REPL")
    parser.add_argument("--no-prelude", action="store_true",
                        help="skip the bundled standard library")
    parser.add_argument("--trace-dispatch", action="store_true",
                        help="log candidate scoring to stderr")
    parser.add_argument("--dump-expansion", action="store_true",
                        help="print generated signatures and clauses, then exit")
    parser.add_argument("--budget", type=int, metavar="N",
                        help="abort after N inferences per query")
    parser.add_argument("--occurs-check", action="store_true",
                        help="unify with occurs check")
    return parser


def _error(message):
    sys.stderr.write("mdprolog: %s\n" % message)


def run_goal(engine, text):
    """Print solutions `;`-separated, `.`-terminated; exit code semantics."""
    try:
        first = True
        for sol in engine.solutions(text):
            if not first:
                sys.stdout.write(" ;\n")
            sys.stdout.write(sol.text())
            first = False
        if first:
            return 1
        sys.stdout.write(".\n")
        return 0
    except Halt as halt:
        if not first:
            sys.stdout.write(".\n")
        return halt.code % 256
    except (PrologThrow, MdpError, MemoryError) as exc:
        _error(_describe(engine, exc))
        return 2


def _describe(engine, exc):
    if isinstance(exc, MemoryError):
        return "out of memory"
    if isinstance(exc, PrologThrow):
        return "uncaught exception: " + render(
            exc.ball, None, engine.kb.optable, quoted=False)
    return str(exc)


def repl(engine, stdin=None, stdout=None, stderr=None):
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    pushback = []

    def read_line():
        return pushback.pop() if pushback else stdin.readline()

    def read_query():
        buf = ""
        while True:
            stderr.write("?- " if not buf else "   ")
            stderr.flush()
            line = read_line()
            if not line:
                return None
            buf += line
            if ends_clause(buf):    # a comment may follow the dot
                return buf.strip()

    while True:
        text = read_query()
        if text is None:
            return 0
        text = text.strip()
        if text.startswith("?-"):
            text = text[2:].strip()
        if not text or text == ".":
            continue
        try:
            it = engine.solutions(text)
            any_solution = False
            for sol in it:
                any_solution = True
                stdout.write(sol.text())
                stdout.flush()
                answer = read_line()
                if answer and answer.strip().startswith(";"):
                    continue
                if answer and answer.strip():
                    # not a continuation: keep it for the next query
                    pushback.append(answer)
                stdout.write(".\n")
                break
            else:
                stdout.write(".\n" if any_solution else "false.\n")
        except Halt as halt:
            return halt.code % 256
        except (PrologThrow, MdpError) as exc:
            stderr.write("error: %s\n" % _describe(engine, exc))
        except MemoryError as exc:     # the query's terms are gone: go on
            stderr.write("mdprolog: %s\n" % _describe(engine, exc))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)

    if argv and argv[0] == "test":
        directory = argv[1] if len(argv) > 1 else None
        try:
            passed, results = run_all(directory, report=sys.stdout)
        except MdpError as exc:     # a case file that holds no case
            _error(str(exc))
            return 2
        if not results:
            _error("no corpus cases found in %s" % (directory or "package"))
            return 2
        return 0 if passed == len(results) else 1

    args = build_parser().parse_args(argv)
    if args.budget is not None and args.budget <= 0:
        _error("--budget must be positive")
        return 2

    try:
        engine = Engine(prelude=not args.no_prelude,
                        occurs_check=args.occurs_check,
                        budget=args.budget,
                        trace_dispatch=args.trace_dispatch)
        for path in args.files:
            engine.consult_file(path)
    except Halt as halt:     # a directive of a consulted file halted
        return halt.code % 256
    except (OSError, PrologThrow, MdpError) as exc:
        _error(str(exc))
        return 2
    except MemoryError as exc:
        _error(_describe(None, exc))
        return 2

    if args.dump_expansion:
        sys.stdout.write(engine.dump_expansion())
        return 0

    if args.goal is not None:
        return run_goal(engine, args.goal)

    return repl(engine)


if __name__ == "__main__":
    sys.exit(main())
