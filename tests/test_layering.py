"""Module layering: every import sits at the top of its module.

An import inside a function body is how an import cycle gets hidden, so
forbidding them keeps the package's import graph acyclic.  Every name a
module imports is used there, so code that a change leaves without a
user does not keep its imports.
"""

import ast
import importlib
import importlib.util
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


def unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}       # name -> line
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return ["%s:%d %s" % (path.name, line, name)
            for name, line in imported.items() if name not in used]


def test_every_imported_name_is_used():
    # the package's __init__ imports names to re-export them
    modules = sorted(m for m in PACKAGE.glob("*.py") if m.name != "__init__.py")
    assert len(modules) > 10
    assert [site for m in modules for site in unused_imports(m)] == []


def load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_tracer_wraps_exists():
    tracer = load_tracer()
    missing = []
    for owner_path, attr in tracer.TIMED + tracer.COUNTED + tracer.RESUMED:
        module_name = ".".join(owner_path.split(".")[:2])
        owner = importlib.import_module(module_name)
        for part in owner_path.split(".")[2:]:
            owner = getattr(owner, part)
        if attr not in owner.__dict__:
            missing.append("%s.%s" % (owner_path, attr))
    assert missing == []
