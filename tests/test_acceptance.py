"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single
``criterion N: pass``/``fail`` line (visible with ``pytest -s``; the
``pytest -v`` report gives the same one line per criterion).
"""

import io
import random
import subprocess
import sys
import time
from importlib import resources

import pytest

from mdprolog import BudgetExceeded, Engine
from mdprolog.reader import parse_program, parse_term
from mdprolog.render import render
from mdprolog.transformer import expand_source_item
from variants import variant_of


def program_text(name):
    return resources.files("mdprolog").joinpath(
        "corpus", "programs", name).read_text()


def engine_with(*programs):
    engine = Engine(out=io.StringIO())
    for i, name in enumerate(programs):
        engine.consult_text(program_text(name), filename="<%s>" % name)
    return engine


def rows(engine, query, *names, max_solutions=None):
    out = []
    for sol in engine.solutions(query):
        out.append(tuple(sol.render(n) for n in names))
        if max_solutions and len(out) >= max_solutions:
            break
    return out


def criterion(n, body):
    try:
        body()
    except BaseException:
        print("criterion %d: fail" % n)
        raise
    print("criterion %d: pass" % n)


def test_criterion_01_graph_paths_and_debug_output():
    def body():
        start = time.monotonic()
        engine = engine_with("graph.mdp")
        assert rows(engine, "[] ? path(X, Y)", "X", "Y") == \
            [("a", "b"), ("b", "c"), ("a", "c")]

        engine = engine_with("graph.mdp", "debug_path.mdp")
        assert rows(engine, "[debug: writeln] ? path(X, Y)", "X", "Y") == \
            [("a", "b"), ("b", "c"), ("a", "c")]
        assert engine.out.getvalue() == "a,b\nb,c\na,c\n"
        assert time.monotonic() - start < 1.0
    criterion(1, body)


def test_criterion_02_printed_rectangle_session(tmp_path):
    def body():
        shapes = tmp_path / "shapes.mdp"
        shapes.write_text(program_text("shapes.mdp"))
        session = (
            "?- new_oid(Rectangle), Rectangle ! write(type, rectangle), "
            "Rectangle ! write(width, 100), Rectangle ! write(height, 100).\n"
            "?- oid(1) ! representation(R).\n"
            "halt.\n")
        proc = subprocess.run(
            [sys.executable, "-m", "mdprolog.cli", str(shapes)],
            input=session, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "R = rectangle(100, 100).\n" in proc.stdout
    criterion(2, body)


def test_criterion_03_ambiguous_gui_then_weighted():
    def body():
        query = ("box_prototype(T), "
                 "[ambient_light: dark, render_type: svg] "
                 "? T ! representation(R)")
        engine = engine_with("gui.mdp")
        assert rows(engine, query, "R") == [
            ("svg(shape=box, color=midnight_blue)",),
            ("svg(shape=box, color=original_color)",),
        ]
        engine = engine_with("gui_weighted.mdp")
        assert rows(engine, query, "R") == [
            ("svg(shape=box, color=midnight_blue)",),
        ]
    criterion(3, body)


def test_criterion_04_subtype_scoring():
    def body():
        engine = engine_with("shapes.mdp")
        assert rows(engine, "type_distance(shape, special_rectangle, D)",
                    "D") == [("3",)]
        assert rows(engine, "max_type_distance(D)", "D") == [("3",)]
        assert rows(engine, "type_affinity(rectangle, special_rectangle, N)",
                    "N") == [("2",)]

        engine.run("new_oid(S), S ! write(type, special_rectangle), "
                   "S ! write(width, 2), S ! write(height, 3)")
        assert rows(engine, "oid(1) ! representation(R)", "R") == \
            [("special_rectangle(2, 3)",)]

        _, report = engine.explain("[rcvr: oid(1)] ? representation(_)")
        by_score = sorted((s for _, s, _ in report if s is not None),
                          reverse=True)
        assert by_score == [4, 3, 2]
        assert sum(1 for _, s, _ in report if s is None) == 1  # circle
    criterion(4, body)


def test_criterion_05_specialized_and_anonymous_rules_tie():
    def body():
        engine = engine_with("graph.mdp", "debug_edge.mdp", "debug_anon.mdp",
                             "ready_console.mdp")
        _, report = engine.explain("[debug: writeln] ? edge(a, Y)")
        eligible = [s for _, s, _ in report if s is not None]
        assert eligible.count(1) >= 2       # specialized rule and anonymous
        assert rows(engine, "[debug: writeln] ? edge(a, Y)", "Y") == \
            [("b",), ("b",)]
        assert engine.out.getvalue() == "a,b\nedge(a, b)\n"
    criterion(5, body)


def test_criterion_06_memoization():
    def body():
        engine = engine_with("primes.mdp", "memo_specialized.mdp")
        assert engine.run("[memoize: yes] ? is_prime(7)")
        first = rows(engine, "base_evals(N)", "N")
        assert engine.run("[memoize: yes] ? is_prime(7)")
        second = rows(engine, "base_evals(N)", "N")
        assert first == second              # zero new base evaluations

        engine = engine_with("colors.mdp", "memo_generic.mdp")
        expected = [("red",), ("green",), ("blue",)]
        assert rows(engine, "[memoize: yes] ? color(C)", "C") == expected
        assert rows(engine, "[memoize: yes] ? color(C)", "C") == expected
    criterion(6, body)


def test_criterion_07_empty_spec_dispatch_matches_plain_resolution():
    def random_program(rng):
        consts = ["c%d" % i for i in range(4)]
        lines = []
        preds = []
        for i in range(rng.randrange(2, 5)):
            name, arity = "q%d" % i, rng.randrange(1, 3)
            preds.append((name, arity))
            for _ in range(rng.randrange(1, 5)):
                args = ", ".join(rng.choice(consts) for _ in range(arity))
                lines.append("%%s %s(%s)." % (name, args))
        head_vars = ["X", "Y"][:rng.randrange(1, 3)]
        for _ in range(rng.randrange(1, 4)):
            goals = []
            for _ in range(rng.randrange(1, 4)):
                name, arity = rng.choice(preds)
                args = [rng.choice(head_vars + consts) for _ in range(arity)]
                goals.append("%%s %s(%s)" % (name, ", ".join(args)))
            lines.append("%%s top(%s) :- %s." % (
                ", ".join(head_vars), ", ".join(goals)))
        query_args = ", ".join(head_vars)
        return lines, head_vars, "top(%s)" % query_args

    def body():
        start = time.monotonic()
        rng = random.Random(20260826)
        for _ in range(200):
            lines, head_vars, goal = random_program(rng)
            plain = Engine(prelude=False)
            plain.consult_text(
                "\n".join(line.replace("%s ", "") for line in lines))
            mdp = Engine(prelude=False)
            mdp.consult_text("\n".join(
                line.replace("%s ", "[] # ", 1).replace("%s ", "? ")
                for line in lines))
            assert rows(plain, goal, *head_vars) == \
                rows(mdp, "? " + goal, *head_vars)
        assert time.monotonic() - start < 30.0
    criterion(7, body)


def test_criterion_08_transformer_golden_structure():
    def body():
        engine = Engine(prelude=False)
        text = ("[debug: P, weight(debug, D)@D] # edge(A, B) :- "
                "[-debug] ? edge(A, B), call(P, (A, B)).")
        term, _ = parse_term(text, engine.kb.optable)
        clauses, sig = expand_source_item(engine, term)
        assert sig.required_dims == ("debug",)
        assert len(sig.score_vars) == 1
        head, _ = clauses[0]
        assert len(head.args) == 3          # context + the two original args
        assert head.args[0] is sig.ctx_var
    criterion(8, body)


def test_criterion_09_reader_round_trip():
    def round_trip(term, optable):
        text = render(term, None, optable, quoted=True)
        back, _ = parse_term(text, optable)
        assert variant_of(term, back), text

    def body():
        engine = Engine()       # prelude gives the full operator table
        optable = engine.kb.optable
        package = resources.files("mdprolog")
        root = package.joinpath("corpus", "programs")
        count = 0
        for entry in [package.joinpath("prelude.mdp")] + sorted(
                root.iterdir(), key=lambda e: e.name):
            for item in parse_program(entry.read_text(), optable, entry.name):
                round_trip(item.term, optable)
                count += 1
        assert count > 50

        import test_reader
        rng = random.Random(20240817)
        for _ in range(500):
            text = test_reader.random_ground_term(rng)
            term, _ = parse_term(text, optable)
            round_trip(term, optable)
    criterion(9, body)


def test_criterion_10_cycles_terminate_and_the_hazard_is_real():
    def body():
        engine = engine_with("graph_cyclic.mdp")
        sols = rows(engine, "[graph_type: cyclic] ? path(a, X)", "X")
        assert {x for (x,) in sols} == {"a", "b"}

        engine = engine_with("graph_hazard.mdp")
        engine.budget = 10 ** 6
        try:
            sols = rows(engine, "[] ? path(a, X)", "X", max_solutions=3)
        except BudgetExceeded:
            return                          # exhausted the budget: hazard
        assert len(sols) != len(set(sols))  # or duplicated solutions
    criterion(10, body)
