import io
import resource
import subprocess
import sys

import pytest

from mdprolog import BudgetExceeded, Engine
from mdprolog.cli import repl

CLI = [sys.executable, "-m", "mdprolog.cli"]

GRAPH = """
edge(a, b). edge(b, c).
[] # path(A, B) :- edge(A, B).
[] # path(A, C) :- edge(A, B), ? path(B, C).
"""


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "graph.mdp"
    path.write_text(GRAPH)
    return str(path)


def run_cli(*args, stdin=""):
    return subprocess.run(CLI + list(args), input=stdin,
                          capture_output=True, text=True, timeout=60)


class TestGoalMode:
    def test_solutions_are_printed_and_exit_zero(self, graph_file):
        proc = run_cli(graph_file, "-g", "? path(a, X)")
        assert proc.returncode == 0
        assert proc.stdout == "X = b ;\nX = c.\n"

    def test_failure_exits_one(self, graph_file):
        proc = run_cli(graph_file, "-g", "? path(c, X)")
        assert proc.returncode == 1

    def test_errors_exit_two(self, graph_file):
        proc = run_cli(graph_file, "-g", "? nothing(1)")
        assert proc.returncode == 2
        assert "existence_error" in proc.stderr

    def test_halt_exits_with_its_code(self):
        proc = run_cli("--no-prelude", "-g", "halt(3)")
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "")

    def test_halt_of_no_integer_exits_two(self):
        proc = run_cli("--no-prelude", "-g", "halt(foo)")
        assert proc.returncode == 2
        assert proc.stderr == ("mdprolog: uncaught exception: "
                               "error(type_error(integer, foo), mdprolog)\n")

    def test_missing_file_exits_two(self):
        proc = run_cli("/no/such/file.mdp", "-g", "true")
        assert proc.returncode == 2
        assert proc.stderr.strip()

    def test_syntax_error_in_file_exits_two(self, tmp_path):
        bad = tmp_path / "bad.mdp"
        bad.write_text("p(a.\n")
        proc = run_cli(str(bad), "-g", "true")
        assert proc.returncode == 2

    def test_a_goal_may_end_in_a_comment(self):
        proc = run_cli("--no-prelude", "-g", "X = 1 % note")
        assert proc.returncode == 0
        assert proc.stdout == "X = 1.\n"

    @pytest.mark.parametrize("goal", ["", "% c"])
    def test_a_goal_with_no_term_is_empty_input(self, goal):
        proc = run_cli("--no-prelude", "-g", goal)
        assert proc.returncode == 2
        assert proc.stderr == "mdprolog: <text>: empty input\n"

    def test_transform_error_in_goal_exits_two(self):
        proc = run_cli("-g", "X ? (Y ? p)")
        assert proc.returncode == 2
        assert "open-ended given context" in proc.stderr
        assert "Traceback" not in proc.stderr


    def test_runs_as_python_dash_m_mdprolog(self):
        proc = subprocess.run([sys.executable, "-m", "mdprolog", "-g", "true"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout == "true.\n"


class TestAnswerText:
    """An answer prints each value as the right-hand side of =, so an
    operator term of priority 700 or more reads back in parentheses."""

    QUERY = "G = (p(X), X > 1), call(G)"

    def test_solution_text_puts_operator_terms_in_parentheses(self):
        engine = Engine(prelude=False)
        engine.consult_text("p(2).")
        [sol] = engine.query(self.QUERY)
        assert sol.text() == "G = (p(2),2>1),\nX = 2"
        [sol] = engine.query("A = (a :- b), B = (x = y), C = 1 + 2")
        assert sol.text() == "A = (a:-b),\nB = (x=y),\nC = 1+2"

    def test_the_cli_answer_reads_back_as_the_same_value(self, tmp_path):
        program = tmp_path / "p.mdp"
        program.write_text("p(2).")
        proc = run_cli(str(program), "-g", self.QUERY)
        assert (proc.returncode, proc.stdout) == (0, "G = (p(2),2>1),\nX = 2.\n")
        proc = run_cli(str(program), "-g", "G = (p(2),2>1), call(G)")
        assert (proc.returncode, proc.stdout) == (0, "G = (p(2),2>1).\n")


class TestRepl:
    def test_session_transcript(self, graph_file):
        proc = run_cli(graph_file, stdin="?- ? path(a, X).\n;\nhalt.\n")
        assert proc.returncode == 0
        assert "X = b" in proc.stdout and "X = c" in proc.stdout

    def test_no_solution_prints_false(self, graph_file):
        proc = run_cli(graph_file, stdin="?- edge(z, _).\nhalt.\n")
        assert "false." in proc.stdout

    def test_a_comment_after_the_dot_ends_the_query(self):
        out, err = io.StringIO(), io.StringIO()
        stdin = io.StringIO("X = 1. % note\nY = 2.\n")
        assert repl(Engine(prelude=False), stdin, out, err) == 0
        assert out.getvalue() == "X = 1.\nY = 2.\n"
        assert "error" not in err.getvalue()

    def test_survives_a_syntax_error(self, graph_file):
        proc = run_cli(graph_file, stdin="?- p(.\n?- edge(a, X).\nhalt.\n")
        assert proc.returncode == 0
        assert "X = b" in proc.stdout


class TestFlags:
    def test_small_budget_leaves_room_for_start_up(self):
        proc = run_cli("--budget", "20", "-g", "true")
        assert proc.returncode == 0
        assert proc.stdout == "true.\n"

    def test_a_budget_of_one_lets_the_prelude_load(self):
        proc = run_cli("--budget", "1", "-g", "true")
        assert proc.returncode == 0
        assert proc.stdout == "true.\n"
        assert Engine(budget=1).run("true")

    def test_each_directive_of_a_program_gets_a_budget_of_its_own(self):
        with pytest.raises(BudgetExceeded):
            Engine(budget=1).consult_text(":- X = 1, Y = 2, Z = 3.")
        # three inferences each, six in all
        Engine(budget=3).consult_text(":- X = 1, Y = 2.\n:- X = 1, Y = 2.")

    def test_trace_dispatch_logs_to_stderr(self, graph_file):
        proc = run_cli("--trace-dispatch", graph_file, "-g", "? path(a, b)")
        assert proc.returncode == 0
        assert "path" in proc.stderr

    def test_dump_expansion_shows_generated_clauses(self, graph_file):
        proc = run_cli("--dump-expansion", graph_file, "-g", "true")
        assert "$impl$path/2" in proc.stdout
        assert "$dispatch" in proc.stdout

    def test_no_prelude_drops_the_object_protocol(self):
        proc = run_cli("--no-prelude", "-g", "new_oid(O), O ! write(a, 1)")
        assert proc.returncode == 2

    def test_budget_limits_runaway_queries(self, tmp_path):
        loop = tmp_path / "loop.mdp"
        loop.write_text("loop :- loop.\n")
        proc = run_cli("--budget", "1000", str(loop), "-g", "loop")
        assert proc.returncode == 2
        assert "budget" in proc.stderr.lower()


class TestTestSubcommand:
    def test_packaged_corpus_passes(self):
        proc = run_cli("test")
        assert proc.returncode == 0
        assert "cases passed" in proc.stdout

    def test_missing_directory_fails(self):
        proc = run_cli("test", "/no/such/corpus")
        assert proc.returncode != 0

    @pytest.mark.parametrize("program, query", [
        ("p(X) :- Y = f(Y), copy_term(Y, X).", "p(X)"),     # an engine error
        ("p(X :- .", "true"),                               # a reader error
    ])
    def test_a_case_that_raises_an_engine_error_fails(self, tmp_path,
                                                      program, query):
        (tmp_path / "prog.mdp").write_text(program + "\n")
        (tmp_path / "case.yaml").write_text(
            "name: broken\nprograms: [prog.mdp]\nquery: %r\n"
            "expect: {solutions: []}\n" % query)
        proc = run_cli("test", str(tmp_path))
        assert proc.returncode == 1
        assert proc.stdout.startswith("FAIL broken  (error: ")
        assert "Traceback" not in proc.stdout + proc.stderr


class TestDepth:
    def test_a_100000_element_answer_prints(self):
        proc = run_cli("--no-prelude", "-g",
                       "findall(_X, between(1, 100000, _X), L)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("L = [1, 2, 3, ")
        assert proc.stdout.endswith(", 99999, 100000].\n")

    def test_a_cyclic_list_answer_exits_two(self):
        proc = run_cli("--no-prelude", "-g", "L = [a|L]")
        assert proc.returncode == 2
        assert "cyclic" in proc.stderr

    def test_the_length_of_a_cyclic_list_exits_two(self):
        proc = run_cli("--no-prelude", "-g", "L = [a|L], length(L, N)")
        assert proc.returncode == 2
        assert "cyclic list" in proc.stderr

    def test_comparing_two_cyclic_terms_exits_two(self):
        proc = run_cli("--no-prelude", "-g", "X = f(X), Y = f(Y), X == Y")
        assert proc.returncode == 2
        assert "term too deep while comparing" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("goal", [
        "findall(X, X = f(X), L)", "X = f(X), copy_term(X, Y)"])
    def test_copying_a_cyclic_term_exits_two(self, goal):
        proc = run_cli("--no-prelude", "-g", goal)
        assert proc.returncode == 2
        assert "term too deep while copying" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_a_runaway_loop_under_a_budget_exits_two(self, tmp_path):
        loop = tmp_path / "loop.mdp"
        loop.write_text("loop(X) :- loop(X).\n")
        proc = run_cli(str(loop), "--budget", "100000", "-g", "loop(a)")
        assert proc.returncode == 2
        assert "budget" in proc.stderr

    def test_an_expression_nested_too_deep_exits_two(self, tmp_path):
        program = tmp_path / "sum.mdp"
        program.write_text("sum(0, 1) :- !.\n"
                           "sum(N, 1 + T) :- N1 is N - 1, sum(N1, T).\n")
        proc = run_cli("--no-prelude", str(program), "-g",
                       "sum(200000, E), X is E")
        assert proc.returncode == 2
        assert "term too deep while evaluating" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_context_rules_nest_10000_deep(self, tmp_path):
        # each level scores ok(N), whose goal dispatches the next level;
        # the rules run on the query's own machine, at the default limit
        program = tmp_path / "nest.mdp"
        program.write_text("[n: N, ok(N) @ 0] # q.\n"
                           "ok(0) :- !.\n"
                           "ok(N) :- M is N - 1, [n: M] ? q.\n")
        proc = run_cli("--no-prelude", str(program), "-g", "[n: 10000] ? q")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "true.\n"
        assert "Traceback" not in proc.stderr

    def test_a_cyclic_conjunction_of_indicators_exits_two(self):
        proc = run_cli("--no-prelude", "-g", "X = (a/1, X), dynamic(X)")
        assert proc.returncode == 2
        assert "term too deep while flattening" in proc.stderr
        assert "Traceback" not in proc.stderr


CASE = 'name: %s\nprograms: [%s]\nquery: "true"\nexpect: {solutions: ["true"]}\n'

# Inputs that are not what they claim: (files to write, arguments, exit
# code, texts that stdout and stderr hold).  "{}" stands for the directory
# the files are written to.
HOSTILE = {
    "floor of infinity": ({}, ["-g", "X is floor(1.0e400)"], 2, [
        "uncaught exception: error(evaluation_error(int_overflow), mdprolog)"]),
    "floor of NaN": ({}, ["-g", "X is floor(1.0e400 - 1.0e400)"], 2, [
        "uncaught exception: error(evaluation_error(undefined), mdprolog)"]),
    "float product out of range": ({}, ["-g", "X is 2.0 * 1.0e308"], 2, [
        "uncaught exception: error(evaluation_error(float_overflow), "
        "mdprolog)"]),
    "float quotient out of range": ({}, ["-g", "X is 1.0e308 / 1.0e-10"], 2, [
        "uncaught exception: error(evaluation_error(float_overflow), "
        "mdprolog)"]),
    "float NaN": ({}, ["-g", "X is 1.0e400, Y is X - X"], 2, [
        "uncaught exception: error(evaluation_error(undefined), mdprolog)"]),
    "program not UTF-8": (
        {"f.mdp": b"p(a).\np(\xff).\n"}, ["{}/f.mdp", "-g", "true"], 2,
        ["mdprolog: {}/f.mdp:2: not UTF-8 text: invalid start byte"]),
    "case not YAML": ({"c/a.yaml": b"name: [open\n"}, ["test", "{}/c"], 2,
                      ["mdprolog: {}/c/a.yaml: not a case file: "]),
    "case not UTF-8": ({"c/a.yaml": b"name: \xff\n"}, ["test", "{}/c"], 2,
                       ["mdprolog: {}/c/a.yaml:1: not UTF-8 text"]),
    "case without a query": (
        {"c/a.yaml": b"name: x\nprograms: []\n"}, ["test", "{}/c"], 2,
        ["mdprolog: {}/c/a.yaml: a case needs a name and a query"]),
    "case not a mapping": ({"c/a.yaml": b"- a\n"}, ["test", "{}/c"], 2,
                           ["mdprolog: {}/c/a.yaml: a case needs a name"]),
    "case with a wrong field": (
        {"c/a.yaml": b"name: x\nquery: 'true'\nprograms: [1]\n"},
        ["test", "{}/c"], 2, ["mdprolog: {}/c/a.yaml: programs must be a list"]),
    "case with a wrong expect field": (
        {"c/a.yaml": b"name: a\nquery: 'throw(x)'\nexpect: {error: 5}\n"},
        ["test", "{}/c"], 2, ["mdprolog: {}/c/a.yaml: expect.error must be a str"]),
    "case with an empty expect field": (
        {"c/a.yaml": b"name: a\nquery: 'true'\nexpect: {solutions: }\n"},
        ["test", "{}/c"], 2,
        ["mdprolog: {}/c/a.yaml: expect.solutions must be a list"]),
    "case with a missing program": (
        {"c/a.yaml": (CASE % ("a", "nope.mdp")).encode(),
         "c/b.yaml": (CASE % ("b", "")).encode()}, ["test", "{}/c"], 1,
        ["FAIL a  (error: ", "nope.mdp: No such file or directory)\n"
         "ok   b\n1/2 cases passed\n"]),
    "op priority out of range": (
        {"f.mdp": b":- op(1300, xfx, foo).\n"}, ["{}/f.mdp", "-g", "true"], 2,
        ["mdprolog: directive raised error(domain_error(operator_priority, "
         "1300), mdprolog) at {}/f.mdp:1\n"]),
    "op priority unbound": (
        {"f.mdp": b"p.\n:- op(_, xfx, foo).\n"}, ["{}/f.mdp", "-g", "true"], 2,
        ["mdprolog: directive raised error(instantiation_error, mdprolog) "
         "at {}/f.mdp:2\n"]),
    "op specifier unknown": (
        {"f.mdp": b":- op(700, abc, foo).\n"}, ["{}/f.mdp", "-g", "true"], 2,
        ["mdprolog: directive raised error(domain_error(operator_specifier, "
         "abc), mdprolog) at {}/f.mdp:1\n"]),
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_input_exits_with_a_message_and_no_traceback(tmp_path, name):
    files, args, code, texts = HOSTILE[name]
    for path, data in files.items():
        (tmp_path / path).parent.mkdir(exist_ok=True)
        (tmp_path / path).write_bytes(data)
    proc = run_cli(*[arg.format(tmp_path) for arg in args])
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    for text in texts:
        assert text.format(tmp_path) in proc.stdout + proc.stderr


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS")
class TestMemory:
    """Running out of memory is an error (exit 2), not a traceback."""

    HUGE = "length(L, 100000000)"   # no inference per element

    def run_limited(self, *args, stdin=""):
        # the limit is set in the child only, before it runs the CLI
        limit = 256 << 20
        return subprocess.run(
            CLI + list(args), input=stdin, capture_output=True, text=True,
            timeout=120, preexec_fn=lambda: resource.setrlimit(
                resource.RLIMIT_AS, (limit, limit)))

    def test_a_goal_out_of_memory_exits_two(self):
        proc = self.run_limited("--budget", "100", "-g", self.HUGE)
        assert proc.returncode == 2
        assert proc.stderr == "mdprolog: out of memory\n"

    def test_a_consult_out_of_memory_exits_two(self, tmp_path):
        program = tmp_path / "huge.mdp"
        program.write_text(":- %s.\n" % self.HUGE)
        proc = self.run_limited("--no-prelude", str(program), "-g", "true")
        assert proc.returncode == 2
        assert proc.stderr == "mdprolog: out of memory\n"

    def test_the_repl_goes_on_after_a_query_out_of_memory(self):
        proc = self.run_limited("--no-prelude", stdin="%s.\nX = 1.\n" % self.HUGE)
        assert proc.returncode == 0
        assert "mdprolog: out of memory\n" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == "X = 1.\n"
