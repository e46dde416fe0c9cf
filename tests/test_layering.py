"""Module layering: every import sits at the top of its module.

An import inside a function body is how an import cycle gets hidden, so
forbidding them keeps the package's import graph acyclic.
"""

import ast
from pathlib import Path

import mdprolog

PACKAGE = Path(mdprolog.__file__).parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def function_local_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    sites = []
    for func in ast.walk(tree):
        if not isinstance(func, FUNCTIONS):
            continue
        for node in ast.walk(func):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                sites.append("%s:%d" % (path.name, node.lineno))
    return sites


def test_no_module_imports_inside_a_function():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    sites = sorted({site for m in modules for site in function_local_imports(m)})
    assert sites == []
