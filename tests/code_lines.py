"""The code lines of each module of the package, and their total.

A code line holds a token of code: blank lines, comment lines and the
lines of docstrings (the first statement of a module, class or function,
when it is a string) are not counted.  Given a git revision, it also
prints each module's count at that revision (read with ``git show``) and
the difference.

    python tests/code_lines.py [--base REF] [package directory]
"""

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mdprolog"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(line for line in range(token.start[0], token.end[0] + 1)
                         if line not in skip)
    return len(lines)


def git(cwd, *args):
    return subprocess.run(("git",) + args, cwd=cwd, capture_output=True,
                          text=True, check=True).stdout


def base_counts(package, ref):
    """The code lines of each module of the package at the git revision ref."""
    top = Path(git(package, "rev-parse", "--show-toplevel").strip())
    prefix = package.resolve().relative_to(top).as_posix() + "/"
    counts = {}
    for name in git(top, "ls-tree", "--name-only", ref, prefix).splitlines():
        if name.endswith(".py"):
            counts[name[len(prefix):]] = code_lines(
                git(top, "show", "%s:%s" % (ref, name)))
    return counts


def main(argv):
    args = argv[1:]
    base = None
    if args[:1] == ["--base"]:
        base, args = args[1], args[2:]
    package = Path(args[0]) if args else PACKAGE
    counts = {path.name: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(package.glob("*.py"))}
    counts["total"] = sum(counts.values())
    if base is None:
        for name, count in counts.items():
            print("%-16s %5d" % (name, count))
        return
    before = base_counts(package, base)
    before["total"] = sum(before.values())
    print("%-16s %5s %5s %6s" % ("module", "now", "base", "diff"))
    names = sorted(counts.keys() | before.keys(), key=lambda n: (n == "total", n))
    for name in names:
        now, then = counts.get(name, 0), before.get(name, 0)
        print("%-16s %5d %5d %+6d" % (name, now, then, now - then))


if __name__ == "__main__":
    main(sys.argv)
