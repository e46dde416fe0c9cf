import functools
import io
import itertools
import re
import resource
import subprocess
import sys
import time
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

from mdprolog import (BudgetExceeded, Engine, Halt, PrologThrow, builtins,
                      dispatcher, kb, solver, terms)
from mdprolog.reader import parse_term
from mdprolog.render import render
from mdprolog.terms import (NIL, Atom, BindingStore, MdpError, Var, compare_terms,
                            make_list, proper_list, unify)
from mdprolog.transformer import phase1_rewrite


# first arguments of a mixed fact table: numbers of both types, atoms,
# compounds sharing a name with an atom, lists and variables
FIRST_ARGS = ["0", "1", "1.0", "2.5", "a", "b", "[]", "a(1)", "a(b)",
              "a(_)", "a(1, 2)", "[1]", "[_|_]", "_"]
# arguments of a clause: those above and compounds of one name and arity
# whose first arguments differ, so that the index keys them one level deeper
ARGS = FIRST_ARGS + ["f(a)", "f(1)", "f(1.0)", "f(_)", "f(a, b)", "[a]"]
# arguments of a call or a retractall/1 pattern: unbound at least half the
# time, and X shared between positions
CALL_ARGS = st.one_of(st.sampled_from(["_", "X"]), st.sampled_from(ARGS))


@pytest.fixture
def engine():
    return Engine(prelude=False)


def answers(engine, text, var):
    return [sol.render(var) for sol in engine.solutions(text)]


def printed(engine, goal):
    """What the bodies of the clauses that goal reaches print, in order."""
    engine.solver.out = io.StringIO()
    assert engine.run("forall(%s, true)" % goal)
    return engine.solver.out.getvalue().split()


def unifiable(engine, text1, text2):
    optable = engine.kb.optable
    return unify(parse_term(text1, optable)[0], parse_term(text2, optable)[0],
                 BindingStore())


class TestResolution:
    def test_facts_in_order(self, engine):
        engine.consult_text("p(a). p(b). p(c).")
        assert answers(engine, "p(X)", "X") == ["a", "b", "c"]

    def test_conjunction_backtracks(self, engine):
        engine.consult_text("p(a). p(b). q(b).")
        assert answers(engine, "p(X), q(X)", "X") == ["b"]

    def test_disjunction(self, engine):
        assert answers(Engine(prelude=False), "(X = 1 ; X = 2)", "X") == ["1", "2"]

    def test_undefined_predicate_is_an_error(self, engine):
        with pytest.raises(PrologThrow) as e:
            engine.query("no_such_thing(1)")
        assert "existence_error" in str(e.value)

    def test_dynamic_predicate_may_be_empty(self, engine):
        engine.consult_text(":- dynamic maybe/1.")
        assert engine.query("maybe(X)") == []


class TestCut:
    def test_cut_commits_to_clause(self, engine):
        engine.consult_text("""
            first(X) :- member(X, [a, b, c]), !.
        """)
        assert answers(engine, "first(X)", "X") == ["a"]

    def test_cut_is_local_to_the_clause(self, engine):
        engine.consult_text("""
            p(1). p(2).
            q(X) :- p(X), !.
            r(X, Y) :- q(X), p(Y).
        """)
        assert [(s.render("X"), s.render("Y")) for s in engine.solutions("r(X, Y)")] \
            == [("1", "1"), ("1", "2")]

    def test_cut_inside_call_is_opaque(self, engine):
        engine.consult_text("p(1). p(2).")
        assert answers(engine, "p(X), call((! ; true))", "X") == ["1", "2"]

    def test_if_then_else(self, engine):
        assert answers(engine, "(1 > 0 -> X = yes ; X = no)", "X") == ["yes"]
        assert answers(engine, "(0 > 1 -> X = yes ; X = no)", "X") == ["no"]

    def test_condition_commits_to_first_solution(self, engine):
        engine.consult_text("p(1). p(2).")
        assert answers(engine, "(p(X) -> true ; fail)", "X") == ["1"]


class TestNegationAndAll:
    def test_negation_as_failure(self, engine):
        engine.consult_text("p(a).")
        assert engine.run("\\+ p(b)")
        assert not engine.run("\\+ p(a)")

    def test_findall_collects_in_order(self, engine):
        engine.consult_text("p(3). p(1). p(2).")
        assert answers(engine, "findall(X, p(X), L)", "L") == ["[3, 1, 2]"]

    def test_findall_of_nothing_is_nil(self, engine):
        engine.consult_text(":- dynamic p/1.")
        assert answers(engine, "findall(X, p(X), L)", "L") == ["[]"]

    def test_forall(self, engine):
        engine.consult_text("p(2). p(4).")
        assert engine.run("forall(p(X), 0 is X mod 2)")
        engine.consult_text("p(2). p(3).", filename="<text2>")
        assert not engine.run("forall(p(X), 0 is X mod 2)")


class TestArithmetic:
    def test_basics(self, engine):
        assert answers(engine, "X is 2 + 3 * 4", "X") == ["14"]
        assert answers(engine, "X is 7 mod 3", "X") == ["1"]
        assert answers(engine, "X is floor(sqrt(17))", "X") == ["4"]

    def test_division_stays_exact_when_possible(self, engine):
        assert answers(engine, "X is 6 / 3", "X") == ["2"]
        assert answers(engine, "X is 7 / 2", "X") == ["3.5"]

    def test_comparisons(self, engine):
        assert engine.run("1 < 2, 2 =< 2, 3 > 2, 2 >= 2, 2 =:= 2.0, 1 =\\= 2")

    def test_zero_divisor(self, engine):
        with pytest.raises(PrologThrow) as e:
            engine.run("X is 1 / 0")
        assert "zero_divisor" in str(e.value)

    def test_overflow_is_an_error(self, engine):
        with pytest.raises(PrologThrow) as e:
            engine.run("X is 9223372036854775807 + 1")
        assert "int_overflow" in str(e.value)

    def test_unbound_expression(self, engine):
        with pytest.raises(PrologThrow) as e:
            engine.run("X is Y + 1")
        assert "instantiation_error" in str(e.value)

    @pytest.mark.parametrize("expression, error", [
        ("floor(1.0e19)", "int_overflow"),
        ("floor(1.0e400)", "int_overflow"),     # reads as infinity
        ("floor(-1.0e400)", "int_overflow"),
        ("floor(1.0e400 - 1.0e400)", "undefined"),     # NaN
    ])
    def test_floor_of_a_float_out_of_range(self, engine, expression, error):
        assert outcome(engine, "X is %s" % expression) == [
            ("X", "error(evaluation_error(%s), mdprolog)" % error)]

    @pytest.mark.parametrize("expression, answer", [
        ("1.0e308 * 1.0", "1e+308"),
        ("2.0 * 1.0e308", "error(evaluation_error(float_overflow), mdprolog)"),
        ("1.0e308 + 1.0e308",
         "error(evaluation_error(float_overflow), mdprolog)"),
        ("-1.0e308 - 1.0e308",
         "error(evaluation_error(float_overflow), mdprolog)"),
        ("1.0e308 / 1.0e-10",
         "error(evaluation_error(float_overflow), mdprolog)"),
        ("1.0e400 + 1",     # reads as infinity
         "error(evaluation_error(float_overflow), mdprolog)"),
        ("1.0e400 - 1.0e400", "error(evaluation_error(undefined), mdprolog)"),
        ("1.0e400 * 0", "error(evaluation_error(undefined), mdprolog)"),
    ])
    def test_a_float_result_out_of_range(self, engine, expression, answer):
        [(x, error)] = outcome(engine, "X is %s" % expression)
        assert (error if error.startswith("error(") else x) == answer

    @pytest.mark.parametrize("expression, culprit", [
        ("foo(a, b, c)", "foo/3"),      # before its arguments are evaluated
        ("[1, 2|3]", ". /2"),           # the inner cell, after 2 and 3
        ("foo(1, a)", "a/0"),           # arguments first, left to right
        ("a + b", "a/0"),
    ])
    def test_an_expression_that_is_not_evaluable(self, engine, expression,
                                                 culprit):
        assert outcome(engine, "X is %s" % expression) == [
            ("X", "error(type_error(evaluable, %s), mdprolog)" % culprit)]


class TestExceptions:
    def test_catch_matching_ball(self, engine):
        assert answers(engine, "catch(throw(oops), E, true)", "E") == ["oops"]

    def test_catch_rethrows_mismatch(self, engine):
        with pytest.raises(PrologThrow):
            engine.run("catch(throw(oops), different(_), true)")

    def test_catch_restores_bindings(self, engine):
        assert answers(
            engine, "catch((X = 1, throw(oops)), oops, (var(X), X = 2))", "X") == ["2"]

    @pytest.mark.parametrize("goal, error", [
        ("functor(T, foo, -1)", "domain_error(not_less_than_zero, -1)"),
        ("op(5000, xfx, foo)", "domain_error(operator_priority, 5000)"),
        ("op(0, xfx, foo)", "domain_error(operator_priority, 0)"),
        ("op(700, yfy, foo)", "domain_error(operator_specifier, yfy)"),
        ("halt(foo)", "type_error(integer, foo)"),
        ("halt(f(a))", "type_error(integer, f(a))"),
        ("halt(1.0)", "type_error(integer, 1.0)"),
        ("halt(X)", "instantiation_error"),
    ])
    def test_builtin_argument_errors_are_catchable(self, engine, goal, error):
        assert answers(engine, "catch(%s, error(E, _), true)" % goal, "E") \
            == [error]

    def test_the_comma_operator_is_not_modified(self, engine):
        assert engine.run("catch(op(700, xfx, ','), error(permission_error("
                          "modify, operator, ','), _), true)")
        assert answers(engine, "X = (a, b, c), X = ','(a, B)", "B") \
            == ["b,c"]

    @pytest.mark.parametrize("goal, code", [
        ("halt", 0), ("halt(3)", 3), ("halt(-1)", -1),
        ("catch(halt(4), _, true)", 4)])
    def test_halt_is_not_an_error(self, engine, goal, code):
        with pytest.raises(Halt) as e:
            engine.run(goal)
        assert e.value.code == code

    def test_budget_is_not_catchable(self):
        engine = Engine(prelude=False, budget=100)
        engine.consult_text("loop :- loop.")
        with pytest.raises(BudgetExceeded):
            engine.run("catch(loop, _, true)")


class TestBudget:
    def test_budget_counts_each_query_afresh(self):
        engine = Engine(budget=10_000)
        assert len(engine.query("between(1, 500, X), X >= 500")) == 1
        engine.budget = 50
        assert len(engine.query("true")) == 1

    def test_consulting_does_not_spend_the_query_budget(self):
        engine = Engine(budget=20)
        assert engine.run("true")
        engine.consult_text("loop :- loop.")
        with pytest.raises(BudgetExceeded):
            engine.run("loop")

    @pytest.mark.parametrize("goal", [
        "G = (true, G), call(G)", "G = (G, true), call(G)", "G = (true, G), G",
        "G = (\\+ G), call(G)", "G = (G ; true), call(G)",
        "G = catch(G, _, true), call(G)"])
    def test_a_cyclic_goal_runs_out_of_budget(self, goal):
        # a goal compiles when it is called, a piece at a time, so a cyclic
        # one runs and counts inferences as it goes
        with pytest.raises(BudgetExceeded):
            Engine(prelude=False, budget=20_000).run(goal)

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS")
    @pytest.mark.parametrize("program, options", [
        # each step copies a term twice the size of the last, in findall/3,
        # copy_term/2, assertz/1, throw/1 or the ball catch/3 takes: within
        # the budget the last copy would build 2**17 compounds or more
        ("d(X) :- findall(X, true, [C]), d(f(X, C)).", "budget=120"),
        ("d(X) :- copy_term(X, C), d(f(X, C)).", "budget=120"),
        ("d(X) :- retractall(k(_)), assertz(k(X)), k(C), d(f(X, C)).",
         "budget=200"),
        ("d(X) :- catch(throw(X), C, true), d(f(X, C)).", "budget=120"),
        ("d(X) :- catch(functor(_, X, 1), error(type_error(_, C), _), true),"
         " d(f(X, C)).", "budget=120"),
        # each step doubles a tree whose subterms are shared, and the occurs
        # check walks it: a tree of 2**1000 nodes at 3,000 inferences
        ("d(X) :- Y = f(X, X), d(Y).", "budget=3000, occurs_check=True"),
    ])
    def test_work_that_doubles_each_step_ends_within_the_budget(self, program,
                                                                 options):
        assert run_away(program, options) == "BudgetExceeded\n"

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS")
    @pytest.mark.parametrize("context", ["[a: 1|L]", "[b, a: 1|L]"])
    def test_a_cyclic_implicit_context_is_an_error(self, context):
        # the walk of an implicit list that the engine did not build checks
        # for a cycle, as that of a given list does
        program = "[a: X] # p(X).\nd(_) :- L = %s, '$dispatch'(L, [], p(_))."
        assert run_away(program % context, "budget=1000") == "cyclic list\n"


def run_away(program, options):
    """The stdout of RUNAWAY_SCRIPT in a child process, which a timeout
    and an address-space limit of 1 GiB, set on the child only, end."""
    gib = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-c", RUNAWAY_SCRIPT % (options, program)],
        capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (gib, gib)))
    assert proc.stdout, proc.stderr
    return proc.stdout


RUNAWAY_SCRIPT = """
import time
from mdprolog import BudgetExceeded, Engine
from mdprolog.terms import MdpError
engine = Engine(prelude=False, %s)
engine.consult_text(%r)
start = time.monotonic()
try:
    engine.run("d(g(_))")
except BudgetExceeded:
    assert time.monotonic() - start < 10
    print("BudgetExceeded")
except MdpError as exc:
    assert time.monotonic() - start < 10
    print(exc)
"""


class TestDatabase:
    def test_assert_retract_cycle(self, engine):
        engine.consult_text(":- dynamic fact/1.")
        engine.run("assertz(fact(1)), assertz(fact(2))")
        assert answers(engine, "fact(X)", "X") == ["1", "2"]
        engine.run("retractall(fact(1))")
        assert answers(engine, "fact(X)", "X") == ["2"]

    def test_assertz_copies_bindings(self, engine):
        engine.consult_text(":- dynamic fact/1.")
        engine.run("X = 7, assertz(fact(X))")
        assert answers(engine, "fact(Y)", "Y") == ["7"]


class TestClauseSelection:
    """What first-argument indexing must keep of plain clause resolution."""

    def test_assertz_during_a_call_is_not_seen_by_it(self, engine):
        engine.consult_text(":- dynamic p/1, q/2.\np(1). p(2).\nq(a, 1). q(a, 2).")
        assert answers(engine, "findall(X, (p(X), assertz(p(3))), L)", "L") \
            == ["[1, 2]"]
        assert answers(engine, "p(X)", "X") == ["1", "2", "3", "3"]
        assert answers(engine, "findall(V, (q(a, V), assertz(q(a, 9))), L)",
                       "L") == ["[1, 2]"]
        assert answers(engine, "q(a, V)", "V") == ["1", "2", "9", "9"]

    def test_retractall_during_a_call_does_not_cut_it_short(self, engine):
        engine.consult_text(":- dynamic p/1, q/2.\np(1). p(2). p(3).\n"
                            "q(a, 1). q(a, 2). q(b, 3).")
        assert answers(engine, "findall(X, (p(X), retractall(p(_))), L)",
                       "L") == ["[1, 2, 3]"]
        assert answers(engine, "p(X)", "X") == []
        assert answers(engine, "findall(V, (q(a, V), retractall(q(_, _))), L)",
                       "L") == ["[1, 2]"]
        assert answers(engine, "q(K, V)", "V") == []

    def test_integer_and_float_keys_stay_apart(self, engine):
        engine.consult_text("f(1, int). f(1.0, float).")
        assert answers(engine, "f(1, T)", "T") == ["int"]
        assert answers(engine, "f(1.0, T)", "T") == ["float"]

    def test_atom_and_compound_of_one_name_stay_apart(self, engine):
        engine.consult_text("g(a, atom). g(a(1), compound). g(a(_), open).")
        assert answers(engine, "g(a, T)", "T") == ["atom"]
        assert answers(engine, "g(a(1), T)", "T") == ["compound", "open"]
        assert answers(engine, "g(a(2), T)", "T") == ["open"]
        assert answers(engine, "g(a(1, 2), T)", "T") == []

    def test_variable_first_arguments_keep_definition_order(self, engine):
        engine.consult_text("h(a, 1). h(_, 2). h(b, 3). h(a, 4). h(_, 5).")
        assert answers(engine, "h(a, V)", "V") == ["1", "2", "4", "5"]
        assert answers(engine, "h(b, V)", "V") == ["2", "3", "5"]
        assert answers(engine, "h(c, V)", "V") == ["2", "5"]
        assert answers(engine, "K = a, h(K, V)", "V") == ["1", "2", "4", "5"]
        assert answers(engine, "h(_, V)", "V") == ["1", "2", "3", "4", "5"]

    def test_empty_dynamic_predicate_fails_quietly(self, engine):
        engine.consult_text(":- dynamic e/2.")
        assert answers(engine, "e(a, X)", "X") == []
        engine.run("assertz(e(a, 1)), retractall(e(_, _))")
        assert answers(engine, "e(a, X)", "X") == []
        assert answers(engine, "e(X, Y)", "X") == []

    def test_clauses_consulted_after_a_call_are_seen_by_later_calls(
            self, engine):
        engine.consult_text("p(1).\n:- p(_).\np(2).")
        assert answers(engine, "p(X)", "X") == ["1", "2"]
        assert len(engine.query("p(2)")) == 1

    def test_reconsulting_a_file_drops_its_clauses_from_later_calls(
            self, engine):
        engine.consult_text("p(1, a).", filename="one.pl")
        engine.consult_text("p(1, b).", filename="two.pl")
        assert answers(engine, "p(1, V)", "V") == ["a", "b"]
        engine.consult_text("", filename="one.pl")
        assert answers(engine, "p(1, V)", "V") == ["b"]
        assert answers(engine, "p(K, V)", "V") == ["b"]

    def test_buckets_keep_number_types_and_arities_apart(self, engine):
        engine.consult_text("f(1, int). f(1.0, float). "
                            "g(a(1), one). g(a(1, 2), two).")
        # the call, the one clause of its bucket and that clause's body
        assert answers(engine, "f(1, T)", "T") == ["int"]
        assert engine.solver.inferences == 3
        assert answers(engine, "g(a(1, 2), T)", "T") == ["two"]
        assert engine.solver.inferences == 3

    def test_a_bound_lookup_tries_only_its_bucket(self, engine):
        engine.consult_text("".join(
            "fact(%d, v%d).\n" % (k, k) for k in range(5000)))
        assert answers(engine, "fact(4999, V)", "V") == ["v4999"]
        # the call, the one clause tried and its body (5,002 when every
        # clause was tried)
        assert engine.solver.inferences == 3

    def test_consulting_another_file_keeps_an_index(self, engine):
        engine.consult_text("".join("fact(%d, v%d).\n" % (k, k)
                                    for k in range(5000)), filename="facts.pl")
        assert answers(engine, "fact(4999, V)", "V") == ["v4999"]  # groups
        record = engine.kb.predicates[("fact", 2)]
        engine.consult_text("other(1).", filename="other.pl")
        assert engine.kb.predicates[("fact", 2)] is record
        assert record.groups
        assert answers(engine, "fact(17, V)", "V") == ["v17"]
        assert engine.solver.inferences == 3
        # consulting the file again removes every clause of the predicate,
        # which is not dynamic: its record goes, and a new one starts
        engine.consult_text("fact(1, w).\nfact(2, v2).", filename="facts.pl")
        assert engine.kb.predicates[("fact", 2)] is not record
        assert answers(engine, "fact(1, V)", "V") == ["w"]
        assert answers(engine, "fact(4999, V)", "V") == []

    @given(st.lists(st.tuples(*[st.sampled_from(ARGS)] * 3), max_size=12),
           st.tuples(*[CALL_ARGS] * 3))
    def test_a_call_sees_the_clauses_its_first_argument_unifies_with(
            self, table, probe):
        # now any argument: the clauses whose heads unify with the goal
        engine = Engine(prelude=False)
        heads = ["p(%s)" % ", ".join(row) for row in table]
        engine.consult_text(":- dynamic p/3.\n" + "".join(
            "%s :- writeln(%d).\n" % (head, i) for i, head in enumerate(heads)))
        goal = "p(%s)" % ", ".join(probe)
        assert printed(engine, goal) == [
            str(i) for i, head in enumerate(heads)
            if unifiable(engine, head, goal)]

    def test_writes_during_a_bound_call_keep_its_clauses_and_reach_the_next(
            self, engine):
        engine.consult_text(":- dynamic q/2.\nq(a, 1). q(b, 2). q(a, 3).")
        assert answers(engine, "q(a, V)", "V") == ["1", "3"]   # groups them
        assert answers(engine, "findall(V, (q(a, V), assertz(q(a, 4)), "
                       "assertz(q(_, 5))), L)", "L") == ["[1, 3]"]
        assert answers(engine, "q(a, V)", "V") == ["1", "3", "4", "5", "4", "5"]
        assert answers(engine, "q(b, V)", "V") == ["2", "5", "5"]
        assert answers(engine, "findall(V, (q(a, V), retractall(q(a, _))), L)",
                       "L") == ["[1, 3, 4, 5, 4, 5]"]
        assert answers(engine, "q(a, V)", "V") == []
        assert answers(engine, "q(b, V)", "V") == ["2"]
        assert answers(engine, "q(K, V)", "V") == ["2"]

    def test_retractall_keeps_the_index_of_the_survivors(self, engine):
        engine.consult_text(":- dynamic data/3.\n" + "".join(
            "data(obj(%d), %s, v%d).\n" % (i % 3 + 1, attr, i)
            for i, attr in enumerate(["color", "size"] * 6)) +
            "data(_, color, any).\ndata(_, size, some).\n")
        assert answers(engine, "data(obj(3), A, V)", "V") == \
            ["v2", "v5", "v8", "v11", "any", "some"]    # groups the clauses
        record = engine.kb.predicates[("data", 3)]
        groups = record.groups[0]
        assert engine.run("retractall(data(obj(3), color, _))")
        assert engine.kb.predicates[("data", 3)] is record
        assert record.groups[0] is groups
        assert answers(engine, "data(obj(3), A, V)", "V") == \
            ["v5", "v11", "some"]
        assert answers(engine, "data(obj(2), A, V)", "V") == \
            ["v1", "v4", "v7", "v10", "some"]
        assert answers(engine, "data(O, color, V)", "V") == \
            ["v0", "v4", "v6", "v10"]
        assert answers(engine, "data(O, A, V)", "V") == \
            ["v0", "v1", "v3", "v4", "v5", "v6", "v7", "v9", "v10", "v11",
             "some"]
        # a keyed clause alone leaves: its bucket goes, the others stay
        assert engine.run("retractall(data(obj(3), size, v5))")
        assert answers(engine, "data(obj(3), A, V)", "V") == ["v11", "some"]
        assert answers(engine, "data(obj(2), A, V)", "V") == \
            ["v1", "v4", "v7", "v10", "some"]

    @given(st.lists(st.tuples(st.sampled_from(["assertz", "retractall",
                                               "consult", "call"]),
                              st.tuples(*[CALL_ARGS] * 3)), max_size=16))
    # a deepened key left with one inner key splits no more
    @example([("assertz", ("_", "_", "_")), ("assertz", ("a(1)", "_", "_")),
              ("assertz", ("a(b)", "0", "_")), ("retractall", ("0", "_", "_")),
              ("retractall", ("_", "1", "_"))])
    def test_an_index_kept_through_writes_selects_as_a_fresh_one(self, ops):
        engine = Engine(prelude=False)
        engine.consult_text(":- dynamic p/3.")
        table = []      # (head, number, file) of each clause there should be
        for i, (op, row) in enumerate(ops):
            head = "p(%s)" % ", ".join(row)
            if op == "assertz":
                assert engine.run("assertz((%s :- writeln(%d)))" % (head, i))
                table.append((head, str(i), None))
            elif op == "retractall":
                assert engine.run("retractall(%s)" % head)
                table = [(h, n, f) for h, n, f in table
                         if not unifiable(engine, h, head)]
            elif op == "consult":
                # consulting a file again removes its clauses in place
                filename = "f%d.pl" % (i % 2)
                engine.consult_text("%s :- writeln(%d)." % (head, i),
                                    filename=filename)
                table = [(h, n, f) for h, n, f in table if f != filename]
                table.append((head, str(i), filename))
            else:
                assert printed(engine, head) == [
                    n for h, n, _ in table if unifiable(engine, h, head)]
            # each group kept through the writes splits as a fresh one
            record = engine.kb.predicates[("p", 3)]
            for pos, group in record.groups.items():
                assert group.split == kb.ArgGroups(pos, record.clauses).split

    def test_a_compound_key_splits_one_level_deeper(self, engine):
        engine.consult_text(DATA)
        assert answers(engine, "data(obj(3), k1, V)", "V") == ["v12"]
        # the call, the four clauses of obj(3) and the body of one (90
        # when every obj/1 clause was tried)
        assert engine.solver.inferences == 6
        assert answers(engine, "data(obj(_), k1, V)", "V") == \
            ["v%d" % i for i in range(0, 88, 4)]
        assert answers(engine, "data(obj(3), k1, V)", "V") == ["v12"]
        assert engine.solver.inferences == 6

    def test_clauses_asserted_after_grouping_are_keyed_deeper(self, engine):
        first, *rest = DATA.splitlines()
        engine.consult_text(":- dynamic data/3.\n" + first)
        assert answers(engine, "data(obj(0), k1, V)", "V") == ["v0"]
        for fact in rest:
            assert engine.run("assertz(%s)" % fact.rstrip("."))
        assert answers(engine, "data(obj(3), k1, V)", "V") == ["v12"]
        assert engine.solver.inferences == 6

    def test_writes_reach_the_deeper_buckets_made(self, engine):
        engine.consult_text(":- dynamic d/2.\nd(f(a), 1). d(f(b), 2). d(_, 3).")
        assert answers(engine, "d(f(a), V)", "V") == ["1", "3"]
        assert answers(engine, "d(f(c), V)", "V") == ["3"]
        assert engine.run("assertz(d(f(a), 4))")
        assert answers(engine, "d(f(a), V)", "V") == ["1", "3", "4"]
        assert engine.run("assertz(d(f(_), 5))")
        assert answers(engine, "d(f(a), V)", "V") == ["1", "3", "4", "5"]
        assert answers(engine, "d(f(c), V)", "V") == ["3", "5"]
        assert engine.run("retractall(d(_, 3))")
        assert answers(engine, "d(f(a), V)", "V") == ["1", "4", "5"]
        assert engine.run("retractall(d(f(_), 5))")
        assert answers(engine, "d(f(a), V)", "V") == ["1", "4"]
        assert answers(engine, "d(f(c), V)", "V") == []
        # ',', =/2, the call, the two clauses of f(a) and their bodies
        assert answers(engine, "X = a, d(f(X), V)", "V") == ["1", "4"]
        assert engine.solver.inferences == 7

    def test_a_call_indexes_on_its_first_bound_argument_that_splits(self):
        engine = Engine()
        engine.consult_file(CORPUS / "programs" / "shapes.mdp")
        assert answers(engine, "subtype(P, circle)", "P") == ["shape"]
        # the call, the one clause of circle's bucket and its body
        assert engine.solver.inferences == 3

    def test_a_position_every_clause_shares_is_passed_over(self, engine):
        engine.consult_text("q(a, 1, x). q(a, 2, y). q(a, 3, z).")
        assert answers(engine, "q(a, 2, V)", "V") == ["y"]
        assert engine.solver.inferences == 3

    def test_whether_a_position_splits_is_kept_until_a_write(self, engine,
                                                             monkeypatch):
        engine.consult_text(":- dynamic(q/3).\nq(a, 1, x). q(a, 2, y).")
        assert answers(engine, "q(a, 2, V)", "V") == ["y"]
        calls = []      # the positions whose groups note whether they split
        note = kb.ArgGroups._note_split
        monkeypatch.setattr(kb.ArgGroups, "_note_split",
                            lambda group: calls.append(group.pos) or note(group))
        for _ in range(3):
            assert answers(engine, "q(a, 1, V)", "V") == ["x"]
        assert calls == []
        # the write makes position 0 split, and the next call keys on it
        assert engine.run("assertz(q(b, 1, z))")
        assert calls == [0]     # the new key, of position 0 alone
        assert answers(engine, "q(b, X, V)", "V") == ["z"]
        assert engine.solver.inferences == 3

    def test_a_list_argument_is_not_keyed_by_its_elements(self, engine):
        engine.consult_text(NREV)
        assert engine.run("nrev([%s], R)" % ", ".join(map(str, range(300))))
        record = engine.kb.predicates[("app", 3)]
        # [] and '.'/2: the [H|T] clause does not split on its head
        assert sum(len(group.buckets) for group in record.groups.values()) <= 2

    def test_calls_with_keys_no_clause_holds_cache_no_bucket(self, engine):
        engine.consult_text("k(a, 1). k(b, 2). k(f(1), 3). k(f(2), 4). "
                            "k(2.5, 5). k(_, 6).")
        assert engine.run("forall(between(3, 502, I), "
                          "(findall(V, k(I, V), [6]), k(f(I), 6)))")
        record = engine.kb.predicates[("k", 2)]
        assert not any(group.buckets for group in record.groups.values())
        assert answers(engine, "k(f(2), V)", "V") == ["4", "6"]

    def test_retractall_tests_only_the_heads_the_index_leaves(self, engine):
        engine.consult_text(":- dynamic data/3.\n" + DATA)
        tried = []

        def counting(match):
            def counted(*args):
                tried.append(args)
                return match(*args)
            return counted

        for clause in engine.kb.predicates[("data", 3)].clauses:
            match, *rest = clause.compiled or clause.compile()
            clause.compiled = counting(match), *rest
        assert engine.run("retractall(data(obj(3), k2, _))")
        assert len(tried) == 4      # obj(3)'s heads, of 88
        assert answers(engine, "data(obj(3), K, _)", "K") == ["k1", "k3", "k4"]
        assert len(engine.query("data(O, K, V)")) == 87


# 22 objects with four attributes each
DATA = "".join("data(obj(%d), k%d, v%d).\n" % (i // 4, i % 4 + 1, i)
               for i in range(88))
CORPUS = resources.files("mdprolog").joinpath("corpus")


NREV = """
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
"""


class TestHeadUnification:
    """What matching a goal against a clause head must keep."""

    def test_occurs_check_applies_to_head_arguments(self):
        engine = Engine(prelude=False, occurs_check=True)
        engine.consult_text("p(X, f(X)).\nq(f(X), X).")
        assert engine.query("p(Y, Y)") == []
        assert engine.query("q(Y, Y)") == []
        assert len(engine.query("p(a, f(a))")) == 1

    def test_a_repeated_head_variable_unifies_its_arguments(self, engine):
        engine.consult_text("eq(X, X).")
        assert engine.query("eq(a, b)") == []
        assert engine.run("eq(A, B), A == B")
        assert answers(engine, "eq(f(A), f(B)), B = 1", "A") == ["1"]

    def test_shared_goal_variables_stay_identical_in_the_body(self, engine):
        engine.consult_text("q(A, B) :- A == B.")
        assert engine.run("q(Z, Z)")
        assert not engine.run("q(Z, _)")

    def test_a_ground_list_in_a_clause_is_returned_unchanged(self, engine):
        engine.consult_text("big([1, [2, 3], f(a, 'b c'), 4.5]).")
        stored = engine.kb.predicates[("big", 1)].clauses[0].head.args[0]
        sol = engine.query("big(L)")[0]
        assert sol["L"] == stored
        assert sol.render("L") == "[1, [2, 3], f(a, b c), 4.5]"

    def test_assertz_stores_bindings_and_fresh_variables(self, engine):
        engine.consult_text(":- dynamic r/2.")
        assert engine.run("X = 1, assertz(r(X, Y))")
        (clause,) = engine.kb.predicates[("r", 2)].clauses
        assert clause.head.args[0] == 1
        assert isinstance(clause.head.args[1], Var)
        assert engine.run("r(1, A), r(1, B), A \\== B, var(A)")

    def test_retractall_matches_repeated_variables(self, engine):
        engine.consult_text(":- dynamic p/2.\np(a, a). p(a, b). p(b, b).")
        engine.run("retractall(p(X, X))")
        assert answers(engine, "findall(X-Y, p(X, Y), L)", "L") == ["[a-b]"]
        # and in the stored heads
        engine.consult_text(":- dynamic q/2.\nq(X, X). q(X, f(X)). q(a, Y).")
        count = "findall(x, q(_, _), L), length(L, N)"
        for pattern, left in [("q(b, a)", "3"), ("q(c, c)", "2"),
                              ("q(b, f(c))", "2"), ("q(b, f(b))", "1")]:
            assert engine.run("retractall(%s)" % pattern)
            assert answers(engine, count, "N") == [left]
        assert answers(engine, "q(K, V)", "K") == ["a"]

    def test_unbound_arguments_render_as_before(self, engine):
        engine.consult_text(NREV)
        assert [s.text() for s in engine.solutions("app([], Y, Z)")] \
            == ["Y = Y,\nZ = Y"]
        assert [s.text() for s in engine.solutions("app([a], Y, Z)")] \
            == ["Y = Y,\nZ = [a|Y]"]
        assert answers(engine, "app(X, [], [a])", "X") == ["[a]"]

    def test_naive_reverse_of_30_counts_the_same_inferences(self, engine):
        engine.consult_text(NREV)
        items = ", ".join(str(i) for i in range(30))
        sol = engine.query("nrev([%s], R)" % items)[0]
        assert sol.render("R") == "[%s]" % ", ".join(
            str(i) for i in reversed(range(30)))
        assert engine.solver.inferences == 1053

    def test_a_clause_deeper_than_the_limit_is_an_error(
            self, engine, monkeypatch):
        monkeypatch.setattr(terms, "RESOLVE_DEPTH_LIMIT", 50)
        engine.consult_text("deep(%s)." % nested_text(60))
        with pytest.raises(MdpError, match="term too deep while copying"):
            engine.query("deep(X)")
        # a list counts as one level, whatever its length
        engine.consult_text("ok(%s). ok(%s)."
                            % (nested_text(40), make_list_text(range(60))))
        assert len(engine.query("ok(X)")) == 2


    def test_a_shared_skeleton_is_walked_once(self):
        # T is a tree of 2**24 leaves whose subterms are shared: asserting
        # it, compiling the clause and building its head walk each once
        script = DAG_SCRIPT % 24
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=60)
        assert proc.stdout == "ok\n", proc.stderr


DAG_SCRIPT = """
import time
from mdprolog import Engine
engine = Engine(prelude=False)
engine.consult_text("dagv(0, g(_)) :- !.\\n"
                    "dagv(N, f(T, T)) :- N1 is N - 1, dagv(N1, T).")
start = time.monotonic()
assert engine.run("dagv(%d, T), assertz(k(T)), k(C)")
assert time.monotonic() - start < 1
print("ok")
"""


def nested_text(depth):
    return "f(" * depth + "0" + ")" * depth


def make_list_text(items):
    return "[%s]" % ", ".join(str(i) for i in items)


class TestTermInspection:
    def test_functor_and_univ(self, engine):
        assert answers(engine, "functor(foo(a, b), N, _)", "N") == ["foo"]
        assert answers(engine, "foo(a, b) =.. L", "L") == ["[foo, a, b]"]
        assert answers(engine, "T =.. [foo, x]", "T") == ["foo(x)"]

    @pytest.mark.parametrize("goal, answer", [
        # ISO 8.5.1.3 c: a compound name is no atomic name
        ("functor(X, foo(a), 0)", "error(type_error(atomic, foo(a)), mdprolog)"),
        ("functor(X, foo(a), 1)", "error(type_error(atomic, foo(a)), mdprolog)"),
        ("functor(X, foo, 2), X = foo(a, b)", "foo(a, b)"),
        ("functor(T, foo, 2), T = foo(A, B), (A == B -> X = same ; X = distinct)",
         "distinct"),
        ("functor(X, foo, 0)", "foo"),
        ("functor(X, 3, 0)", "3"),
    ])
    def test_functor_constructs_or_raises(self, engine, goal, answer):
        [(x, error)] = outcome(engine, goal)
        assert (error if error.startswith("error(") else x) == answer

    @pytest.mark.parametrize("goal, answer", [
        # ISO 8.5.3.3: a list that is not partial is a list or a type
        # error; a partial one is an instantiation error
        ("X =.. foo", "error(type_error(list, foo), mdprolog)"),
        ("X =.. [foo|bar]", "error(type_error(list, [foo|bar]), mdprolog)"),
        ("X =.. [foo|T]", "error(instantiation_error, mdprolog)"),
        ("X =.. T", "error(instantiation_error, mdprolog)"),
        ("X =.. [foo, a|T]", "error(instantiation_error, mdprolog)"),
        ("X =.. [foo, a]", "foo(a)"),
        ("X =.. [Y, a]", "error(instantiation_error, mdprolog)"),
        ("X =.. []", "error(domain_error(non_empty_list, []), mdprolog)"),
        # a one-element list makes its element, which must be atomic
        ("X =.. [foo(a)]", "error(type_error(atomic, foo(a)), mdprolog)"),
        ("X =.. [2.5]", "2.5"),
        # the list of a term that is bound is a list or a partial list too
        ("X = f(a), X =.. foo", "error(type_error(list, foo), mdprolog)"),
        ("X = f(a), X =.. [f|bar]", "error(type_error(list, [f|bar]), mdprolog)"),
        ("f(a) =.. [F|X]", "[a]"),
    ])
    def test_univ_constructs_or_raises(self, engine, goal, answer):
        [(x, error)] = outcome(engine, goal)
        assert (error if error.startswith("error(") else x) == answer

    def test_copy_term(self, engine):
        assert engine.run("copy_term(f(X, X), f(Y, Z)), Y == Z")

    def test_between_and_length(self, engine):
        assert answers(engine, "findall(X, between(1, 4, X), L)", "L") == ["[1, 2, 3, 4]"]
        assert answers(engine, "length([a, b, c], N)", "N") == ["3"]


class TestListBuiltins:
    @pytest.mark.parametrize("goal, answer", [
        ("intersection([a, b, c], [c, a], X)", "[a, c]"),
        ("intersection([a, b, a], [a], X)", "[a, a]"),
        ("intersection([], [a], X)", "[]"),
        # the first match binds _ to 1, as memberchk/2 does
        ("intersection([f(1), f(2)], [f(_)], X)", "[f(1)]"),
        ("intersection(a, [], X)", "error(type_error(list, a), mdprolog)"),
        ("intersection([a], [b|_], X)",
         "error(type_error(list, [b|_]), mdprolog)"),
        ("sum_list([], X)", "0"),
        ("sum_list([1, 2, 3], X)", "6"),
        ("sum_list([1, 2.5], X)", "3.5"),
        ("sum_list(a, X)", "error(type_error(list, a), mdprolog)"),
        ("sum_list([a], X)", "error(type_error(number, a), mdprolog)"),
        # the range of is/2
        ("sum_list([9223372036854775807, 1], X)",
         "error(evaluation_error(int_overflow), mdprolog)"),
        ("sum_list([-9223372036854775808, -1], X)",
         "error(evaluation_error(int_overflow), mdprolog)"),
        # each partial sum, as X is 9223372036854775807 + 1 - 1 checks it
        ("sum_list([9223372036854775807, 1, -1], X)",
         "error(evaluation_error(int_overflow), mdprolog)"),
        ("sum_list([1.0e308, 1.0e308, -1.0e308], X)",
         "error(evaluation_error(float_overflow), mdprolog)"),
        # length/2: ISO's errors, and the generating mode
        ("length(foo, X)", "error(type_error(list, foo), mdprolog)"),
        ("length([a|foo], X)", "error(type_error(list, [a|foo]), mdprolog)"),
        ("length(X, a)", "error(type_error(integer, a), mdprolog)"),
        ("X = a, length([a], X)", "error(type_error(integer, a), mdprolog)"),
        ("length(X, 2), X = [a, b]", "[a, b]"),
        ("length(L, 2), L = [A, B], (A == B -> X = same ; X = distinct)",
         "distinct"),
        ("length([a|T], 3), T = [b, c], X = [a|T]", "[a, b, c]"),
    ])
    def test_answers_and_errors(self, engine, goal, answer):
        [(x, error)] = outcome(engine, goal)
        assert (error if error.startswith("error(") else x) == answer

    @pytest.mark.parametrize("goal, error", [
        ("msort(a, X)", "type_error(list, a)"),
        ("msort(X, Y)", "instantiation_error"),
        ("msort([b|T], Y)", "instantiation_error"),
        ("keysort(a, X)", "type_error(list, a)"),
        ("keysort([a-1|T], Y)", "instantiation_error"),
        ("keysort([a-1, P], Y)", "instantiation_error"),
        ("max_list([a|T], X)", "type_error(list, [a|_G])"),
        ("sum_list([1|foo], X)", "type_error(list, [1|foo])"),
        ("intersection([a], b, X)", "type_error(list, b)"),
        ("intersection(a, b, X)", "type_error(list, a)"),
        ("apply(foo, a)", "type_error(list, a)"),
        ("apply(foo, [a|T])", "type_error(list, [a|_G])"),
        ("ctx_member(X, a, V)", "type_error(list, _G)"),
    ])
    def test_a_list_argument_is_a_proper_list(self, engine, goal, error):
        # a partial list too is a type error, not an instantiation error;
        # but for the sorts, as ISO has it, and as an unbound pair
        [found] = [s.render("Error") for s in
                   engine.solutions("catch((%s), Error, true)" % goal)]
        assert re.sub(r"_G\d+", "_G", found) == "error(%s, mdprolog)" % error

    @pytest.mark.parametrize("goal, answer", [
        ("intersection([X, b], [a], L)", "X = a, L = [a]"),
        ("intersection([X, Y], [a, b], L)", "X = a, Y = a, L = [a, a]"),
        ("intersection([f(X, 1), f(2, Y)], [f(Z, Z)], L)",
         "X = 1, Y = Y, Z = 1, L = [f(1, 1)]"),
    ])
    def test_intersection_keeps_the_binding_it_matched(self, engine, goal,
                                                       answer):
        # as memberchk/2 would: each element is unified with the first
        # element of the second list that it matches
        [solution] = engine.solutions(goal)
        names = [name.split(" = ")[0] for name in answer.split(", ")
                 if " = " in name]
        assert ", ".join("%s = %s" % (name, solution.render(name))
                         for name in names) == answer


class TestSorting:
    def test_msort_keeps_duplicates(self, engine):
        assert answers(engine, "msort([b, a, b], L)", "L") == ["[a, b, b]"]

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 100)), max_size=20))
    def test_keysort_is_stable(self, pairs):
        engine = Engine(prelude=False)
        text = "[%s]" % ", ".join("%d-%d" % p for p in pairs)
        got = engine.query("keysort(%s, L)" % text)[0]["L"]
        expected = sorted(pairs, key=lambda p: p[0])  # Python sort is stable
        rendered = engine.query("X = [%s]" % ", ".join(
            "%d-%d" % p for p in expected))[0]["X"]
        assert compare_terms(got, rendered) == 0


K_PROGRAM = """
k(X) :- (X > 1 -> Y = a ; Y = b), \\+ X = 0,
    findall(Z, member(Z, [X, Y]), L), catch(length(L, 2), _, fail),
    forall(member(W, L), W \\== c).
"""


class TestControlSemantics:
    """Cut, if-then-else, catch and dispatch as the resolution core runs them."""

    def test_a_cut_in_the_recovery_cuts_the_clause(self, engine):
        engine.consult_text("q(X) :- member(X, [1,2,3]), catch(throw(e), _, !).")
        assert answers(engine, "q(X)", "X") == ["1"]

    def test_a_cut_in_the_then_branch_cuts_the_clause(self, engine):
        engine.consult_text("r(X) :- member(X, [1,2,3]), (X > 1 -> ! ; true).")
        assert answers(engine, "r(X)", "X") == ["1", "2"]

    def test_a_cut_in_a_disjunct_cuts_the_clause(self, engine):
        engine.consult_text("s(X) :- (member(X, [1,2,3]), ! ; X = 9).")
        assert answers(engine, "s(X)", "X") == ["1"]

    def test_a_throw_after_catch_exits_is_not_caught_by_it(self, engine):
        engine.consult_text("""
            c(X) :- catch(member(X, [1,2]), _, true), X > 1, throw(late).
            w(X) :- catch(c(X), late, X = caught).
        """)
        assert answers(engine, "findall(X, w(X), L)", "L") == ["[caught]"]

    def test_a_redo_into_the_catch_goal_is_caught_outside(self, engine):
        engine.consult_text("""
            u(X) :- catch(member(X, [1,2,3]), _, true),
                (X =:= 2 -> throw(two) ; true).
        """)
        assert answers(engine, "catch(u(X), two, X = got)", "X") == ["1", "got"]

    def test_a_cut_in_one_winner_does_not_stop_the_next(self, engine):
        engine.consult_text("[] # f(1) :- !.\n[] # f(2).")
        assert answers(engine, "[] ? f(X)", "X") == ["1", "2"]

    def test_named_and_anonymous_winners_answer_in_definition_order(self, engine):
        # an anonymous winner takes the context alone, and so is called
        # through a variant of its clause with a void argument for each of
        # the goal's
        engine.consult_text("""
            [] # g(X, Y) :- !, X = first, Y = 1.
            [] # g(second, 2).
            [predicate: g(X, Y)] :- !, X = anonymous, Y = 3.
            [] :- true.
        """)
        assert [s.text() for s in engine.solutions("[] ? g(X, Y)")] == [
            "X = first,\nY = 1", "X = second,\nY = 2",
            "X = anonymous,\nY = 3", "X = X,\nY = Y"]
        assert answers(engine, "[] ? g(second, Y)", "Y") == ["2", "Y"]

    def test_a_cut_in_a_condition_is_local_to_it(self, engine):
        engine.consult_text("t(X) :- member(X, [1,2,3]), ((!, X > 5) -> true ; true).")
        assert answers(engine, "t(X)", "X") == ["1", "2", "3"]

    def test_a_cut_in_findall_negation_or_forall_is_local_to_it(self, engine):
        engine.consult_text("""
            f(X, L) :- member(X, [a, b]), findall(Y, (member(Y, [1, 2]), !), L).
            n(X) :- member(X, [a, b]), \\+ (member(_, [1, 2]), !, fail).
            a(X) :- member(X, [a, b]), forall((member(Y, [1, 2]), !), Y > 0).
        """)
        assert [(s.render("X"), s.render("L")) for s in engine.solutions("f(X, L)")] \
            == [("a", "[1]"), ("b", "[1]")]
        assert answers(engine, "n(X)", "X") == ["a", "b"]
        assert answers(engine, "a(X)", "X") == ["a", "b"]

    def test_control_constructs_count_one_inference_each(self, engine):
        engine.consult_text(K_PROGRAM)
        assert engine.run("k(1)")
        assert engine.solver.inferences == 39
        assert answers(engine, "findall(N, (between(1, 5, N), k(N)), L)", "L") \
            == ["[1, 2, 3, 4, 5]"]
        assert engine.solver.inferences == 198


# operands: 64-bit extremes, an int past them, halves of them, floats, an
# atom and an unbound variable
ARITH_VALUES = ["0", "1", "-1", "7", "9223372036854775807",
                "-9223372036854775808", "9223372036854775808",
                "4611686018427387904", "-4611686018427387905", "2.5", "-0.5",
                "1.0e300", "a", "_"]
EXPRESSIONS = st.recursive(
    st.sampled_from(["A", "B", "C", "0", "1", "2"]),
    lambda sub: st.builds("({} {} {})".format, sub,
                          st.sampled_from(["+", "-", "*"]), sub),
    max_leaves=6)


def outcome(engine, text):
    """Answers of a goal as (X, caught error) texts."""
    return [(s.render("X"), s.render("Error"))
            for s in engine.solutions("catch((%s), Error, true)" % text)]


class TestCompiledBodies:
    """A clause body runs as compiled goal entries; it must run as its term."""

    @pytest.mark.parametrize("body, count", [
        ("(a, b), c", 11), ("a, (b, c)", 11), ("((a, b), c), (a, b)", 19),
        ("a, ((b, true), (c, !))", 15)])
    def test_nested_conjunctions_count_as_their_terms(self, engine, body, count):
        engine.consult_text("a. b. c.\nt :- %s." % body)
        assert engine.run(body)
        assert engine.solver.inferences == count
        assert engine.run("t")
        assert engine.solver.inferences == count + 2    # the call, its clause

    def test_a_variable_goal_and_a_cut_in_a_body(self, engine):
        engine.consult_text("""
            v(X) :- G = !, member(X, [1, 2, 3]), G.
            w(X) :- member(X, [1, 2, 3]), X > 1, !.
            u(X) :- G = (member(X, [1, 2, 3]), X > 1), G.
            n(X) :- G = nothing(X), G.
            c(X) :- G = !, member(X, [1, 2, 3]), call(G).
        """)
        assert answers(engine, "v(X)", "X") == ["1"]
        assert engine.solver.inferences == 9
        assert answers(engine, "c(X)", "X") == ["1", "2", "3"]   # call/1 is opaque
        assert answers(engine, "w(X)", "X") == ["2"]
        assert answers(engine, "u(X)", "X") == ["2", "3"]
        assert engine.solver.inferences == 23
        assert outcome(engine, "n(X)") == [
            ("X", "error(existence_error(procedure, nothing/1), mdprolog)")]

    @pytest.mark.parametrize("goal, error, count", [
        ("v1", "type_error(callable, 1)", 7),
        ("v2(_)", "instantiation_error", 5),
        ("v2(1)", "type_error(callable, 1)", 5),
        ("call(1)", "type_error(callable, 1)", 3),
        ("call(_)", "instantiation_error", 3),
        ("X", "instantiation_error", 3),
        ("call((true, 1))", "type_error(callable, 1)", 6),
        ("(true, X)", "instantiation_error", 5),
    ])
    def test_a_goal_that_is_not_callable_counts_its_inference(
            self, engine, goal, error, count):
        # a variable goal counts one inference, callable or not, as the
        # goal itself would; call/N counts one for itself and then rejects
        engine.consult_text("v1 :- G = 1, G.\nv2(G) :- G.")
        assert answers(engine, "catch(%s, E, true)" % goal, "E") == \
            ["error(%s, mdprolog)" % error]
        assert engine.solver.inferences == count

    def test_an_atom_goal_compiles_as_any_runtime_goal(self, engine):
        store = BindingStore()
        for atom in (Atom("true"), Atom("fail"), Atom("nothing")):
            for counted in (0, 1):
                first = solver.compile_goal(atom, store, counted)
                assert solver.compile_goal(atom, store, counted) == first
        assert solver.compile_goal(Atom("true"), store, 1) != \
            solver.compile_goal(Atom("true"), store, 0)
        engine.consult_text("m(G) :- call(G).\nv(G) :- G.")
        for _ in range(2):
            assert engine.run("m(true), v(true), \\+ m(fail), \\+ v(fail)")
            assert engine.solver.inferences == 19

    def test_deeply_nested_constructs_compile_a_piece_at_a_time(self, engine):
        goal = "\\+ " * 3000 + "fail"
        engine.consult_text("d :- %s." % goal)
        assert engine.run(goal) is False
        assert engine.run("d") is False
        assert engine.solver.inferences == 3003
        goal = "(" * 3000 + "true" + " ; fail)" * 3000
        engine.consult_text("d :- %s." % goal)
        assert engine.run("d")
        assert engine.solver.inferences == 3003

    def test_a_retried_body_computes_its_arithmetic_again(self, engine):
        engine.consult_text("""
            p(X) :- between(1, 3, I), Y is I * 2, Y > 4, X = Y.
            q(X) :- member(I, [1, 2.5]), Y is I + 1, Y > 3, X = Y.
        """)
        assert answers(engine, "p(X)", "X") == ["6"]
        assert engine.solver.inferences == 17
        assert answers(engine, "q(X)", "X") == ["3.5"]

    def test_body_arithmetic_errors_are_those_of_the_builtin(self, engine):
        engine.consult_text("""
            o(X) :- X is 9223372036854775807 + 1.
            s(X) :- Y = 4611686018427387904, X is Y * 2 - Y.
            t(X) :- Y = a, X is Y + 1.
            u(X) :- X is Y + 1.
        """)
        overflow = "error(evaluation_error(int_overflow), mdprolog)"
        assert outcome(engine, "o(X)") == [("X", overflow)]
        assert outcome(engine, "s(X)") == [("X", overflow)]
        assert outcome(engine, "t(X)") == [
            ("X", "error(type_error(evaluable, a/0), mdprolog)")]
        assert outcome(engine, "u(X)") == [
            ("X", "error(instantiation_error, mdprolog)")]

    def test_a_dispatch_in_a_body_parses_its_context_as_it_runs(self, engine):
        engine.consult_text("""
            [] # g(1).
            [a: A] # g(A).
            [] # bad(X) :- [foo] ? g(X).
            [] # late(X) :- G = [a: 2], G ? g(X).
            [] # fixed(X) :- [-a, a: 3] ? g(X).
        """)
        assert outcome(engine, "[] ? bad(X)") == [
            ("X", "error(type_error(context_entry, foo), mdprolog)")]
        assert answers(engine, "[] ? late(X)", "X") == ["2"]
        assert answers(engine, "[a: 0] ? fixed(X)", "X") == ["3"]

    def test_a_dispatch_in_a_plain_rule_runs_compiled(self, engine):
        engine.consult_text("""
            [] # h(1).
            [] # h(2).
            p(X) :- [] ? h(X).
            q :- [] ? h(2).
        """)
        assert answers(engine, "p(X)", "X") == ["1", "2"]
        assert engine.solver.inferences == 7
        assert len(engine.query("q")) == 1
        assert engine.solver.inferences == 6
        for key in [("p", 1), ("q", 0)]:
            _, body, _, _ = engine.kb.clauses_for(key)[0].compiled
            assert [entry[1] for entry in body] == [solver.C_DISPATCH]

    def test_an_if_then_else_on_a_comparison_pushes_no_choicepoint(self, engine):
        engine.consult_text("""
            t(X, Y) :- (X > 1 -> Y = big ; Y = small).
            n(X) :- \\+ X > 1.
            g(X, Y) :- (X > 1, true -> Y = big ; Y = small).
        """)
        assert answers(engine, "t(2, Y)", "Y") == ["big"]
        assert answers(engine, "t(0, Y)", "Y") == ["small"]
        assert engine.solver.inferences == 5    # call, clause, ;, >, =
        assert engine.run("n(0)") and not engine.run("n(2)")
        assert answers(engine, "g(2, Y)", "Y") == ["big"]
        assert answers(engine, "catch(t(a, _), E, true)", "E") == [
            "error(type_error(evaluable, a/0), mdprolog)"]
        for key, kind in [(("t", 2), solver.C_IF), (("n", 1), solver.C_IF),
                          (("g", 2), solver.C_ITE)]:
            _, body, _, _ = engine.kb.clauses_for(key)[0].compiled
            assert [entry[1] for entry in body] == [kind]

    def test_a_long_expression_in_a_body_keeps_to_the_builtin(self, engine):
        expression = "+".join(["X"] * 5000)
        engine.consult_text("big(X, Y) :- Y is %s, Y =:= %s."
                            % (expression, expression))
        assert answers(engine, "big(2, Y)", "Y") == ["10000"]
        _, body, _, _ = engine.kb.clauses_for(("big", 2))[0].compiled
        assert [entry[1] for entry in body] == [solver.E_DET, solver.E_DET]

    def test_mixed_integer_and_float_arithmetic(self, engine):
        engine.consult_text("""
            m(X) :- 1 =:= 1.0, A = 1, A =:= 1.0, X is A + 2.5.
            f(X) :- A = 2.0, A > 1, X is A * 3 - 1.
            z(X) :- A = 1, B = 1.0, A =\\= B, X = no.
            z(yes).
            k(X) :- X is 2 - 1.
            h(X) :- A = 0.5, X is A * 2.
        """)
        assert answers(engine, "m(X)", "X") == ["3.5"]
        assert answers(engine, "f(X)", "X") == ["5.0"]
        assert answers(engine, "z(X)", "X") == ["yes"]
        # a known result is compared by type and value, as unify would
        assert engine.run("k(1)") and engine.run("h(1.0)")
        for goal in ("k(1.0)", "k(a)", "k(f(1))", "h(1)"):
            assert not engine.run(goal)

    def test_a_run_of_arithmetic_is_one_entry(self, engine):
        engine.consult_text("""
            r(A, X) :- A > 0, B is A + 1, (B > 9 -> X = big ; X = small),
                C is B * 2, C =\\= 3, X \\== none.
        """)
        assert answers(engine, "r(4, X)", "X") == ["small"]
        _, body, _, _ = engine.kb.clauses_for(("r", 2))[0].compiled
        assert [entry[1] for entry in body] == [
            solver.E_ARITH, solver.C_IF, solver.E_ARITH, solver.E_DET]
        # a goal whose expression compiles only in part ends the run
        engine.consult_text("s(A, C, D) :- B is A + 1, C is A + 1.5, D is B * 2.")
        assert answers(engine, "s(2, C, D), X = C-D", "X") == ["3.5-6"]
        _, body, _, _ = engine.kb.clauses_for(("s", 3))[0].compiled
        assert [entry[1] for entry in body] == [
            solver.E_ARITH, solver.E_DET, solver.E_ARITH]

    def test_a_budget_that_runs_out_inside_a_run_stops_at_its_inference(self):
        # the run counts its goals' inferences one at a time, as the goals
        # would; nothing after the inference that exceeds the budget runs
        program = ("r(A) :- A > 0, B is A + 1, C is B * 2, C > 3, "
                   "writeln(C).\n")
        plain = Engine(prelude=False, out=io.StringIO())
        plain.consult_text(program)
        assert plain.run("r(5)")
        total = plain.solver.inferences
        # the same goals as a term: one more for the call of A = 5, one
        # fewer for the clause
        assert plain.run("A = 5, (A > 0, B is A + 1, C is B * 2, C > 3, "
                         "writeln(C))")
        assert plain.solver.inferences == total
        for budget in range(1, total + 1):
            engine = Engine(prelude=False, budget=budget, out=io.StringIO())
            engine.consult_text(program)
            if budget < total:
                with pytest.raises(BudgetExceeded):
                    engine.run("r(5)")
                assert engine.solver.inferences == budget + 1
                assert engine.solver.out.getvalue() == ""
            else:
                assert engine.run("r(5)")
                assert engine.solver.out.getvalue() == "12\n"

    @pytest.mark.parametrize("b", [1, 2.5])
    def test_a_failed_run_leaves_no_first_occurrence_value(self, engine, b):
        # with 2.5 the comparison runs as the builtin, and fails there
        engine.consult_text("t(A, B) :- X is A + 1, Y is X * 2, Y < B.")
        assert not engine.run("t(1, %s)" % b)
        _, body, size, _ = engine.kb.clauses_for(("t", 2))[0].compiled
        [(_, kind, run, _)] = body
        assert kind is solver.E_ARITH
        frame = [1, b] + [None] * (size - 2)
        store = BindingStore()
        assert not run(engine.solver, store, frame, engine.solver.tick)
        assert frame == [1, b, None, None]
        frame = [1, 5] + [None] * (size - 2)
        assert run(engine.solver, store, frame, engine.solver.tick)
        assert frame == [1, 5, 2, 4]

    @settings(max_examples=150, deadline=None)
    @given(EXPRESSIONS, EXPRESSIONS,
           st.sampled_from(["<", ">", "=<", ">=", "=:=", "=\\="]),
           st.lists(st.sampled_from(ARITH_VALUES), min_size=3, max_size=3))
    def test_body_arithmetic_agrees_with_call(self, left, right, op, values):
        engine = Engine(prelude=False)
        comparison = "%s %s %s" % (left, op, right)
        engine.consult_text("e(A, B, C, X) :- X is %s.\n"
                            "c(A, B, C, X) :- %s, X = true.\n" % (left, comparison))
        bind = "A = %s, B = %s, C = %s, " % tuple(values)
        assert outcome(engine, bind + "e(A, B, C, X)") == \
            outcome(engine, bind + "call((X is %s))" % left)
        assert outcome(engine, bind + "c(A, B, C, X)") == \
            outcome(engine, bind + "call((%s, X = true))" % comparison)


DEPTH_SCRIPT = """
import resource
import sys
from mdprolog import Engine
engine = Engine(prelude=False)
engine.consult_text('''
psum(0, A, A).
psum(N, A, S) :- N > 0, A1 is A + N, N1 is N - 1, psum(N1, A1, S).
[] # dsum(0, A, A).
[] # dsum(N, A, S) :- N > 0, A1 is A + N, N1 is N - 1, [] ? dsum(N1, A1, S).
upto(0, []).
upto(N, [N|T]) :- N > 0, N1 is N - 1, upto(N1, T).
p(X, f(X)).
mk(0, a) :- !.
mk(N, f(T)) :- N1 is N - 1, mk(N1, T).
sum(0, 1) :- !.
sum(N, 1 + T) :- N1 is N - 1, sum(N1, T).
''')
engine.consult_text(sys.stdin.read(), "<stdin>")
print(engine.query(sys.argv[1])[0].render(sys.argv[2]))
# the peak memory in kilobytes on Linux, as the last line of stderr
sys.stderr.write("%d\\n" % resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def first_answer_run(engine, text):
    goal, _ = parse_term(text, engine.kb.optable)
    run = engine.solver.solve(goal, BindingStore())
    assert run.step()
    return run


class TestDeterminism:
    """A goal with no alternative left leaves no choicepoint behind."""

    @pytest.mark.parametrize("text", [
        "app([1, 2, 3], [4], L)",
        "catch(app([1, 2], [3], L), _, true)",
        "(app(X, Y, [1]) -> true ; fail)",
        "\\+ app([1], [2], [])",
        "findall(X, member(X, [1, 2]), L)",
        "forall(member(X, [1, 2]), X > 0)",
        "call(app, [1], [2], L)",
        "member(X, [1, 2]), !",
        "between(1, 1, X)",
        "between(1, 3, 3)",
        "ctx_member([a: 1, b: 2], a, V)",
        "(between(1, 2, X), X > 1)",
    ])
    def test_the_first_answer_leaves_no_choicepoint(self, engine, text):
        engine.consult_text(NREV)
        assert first_answer_run(engine, text).cps == []

    def test_the_last_winner_of_a_dispatch_leaves_no_choicepoint(self, engine):
        engine.consult_text("""
            [] # w(1).
            [] # w(X) :- X = 2.
            [] :- true.
        """)
        goal, _ = parse_term("[] ? w(X)", engine.kb.optable)
        run = engine.solver.solve(phase1_rewrite(engine, goal, NIL, 0),
                                  BindingStore())
        heights = []
        while run.step():
            heights.append(len(run.cps))
        # one choicepoint holds the winners still to run, until the last
        assert heights == [1, 1, 0]


# goals of between/3 and ctx_member/3, and their answers or error
VALUE_GOALS = [
    ("between(1, 3, X)", ["X = 1", "X = 2", "X = 3"]),
    ("between(3, 1, X)", []),
    ("between(1, 3, 2)", ["true"]),
    ("between(1, 3, 5)", []),
    ("between(1, 3, X), X > 1, !", ["X = 2"]),
    ("between(a, 3, X)", "error(type_error(integer, a), mdprolog)"),
    ("between(1, 3, a)", "error(type_error(integer, a), mdprolog)"),
    ("between(X, 3, Y)", "error(instantiation_error, mdprolog)"),
    ("ctx_member([a: 1, b: 2], a, V)", ["V = 1"]),
    ("ctx_member([a: 1, a: 2], a, V)", ["V = 1", "V = 2"]),
    ("ctx_member([a: 1, b: 2], D, V)", ["D = a, V = 1", "D = b, V = 2"]),
    ("ctx_member([a: f(Y), a: f(2)], a, f(Z))", ["Y = Y, Z = Y", "Y = Y, Z = 2"]),
    # a name that is not an atom may be the dimension
    ("ctx_member([X: 1], a, V)", ["X = a, V = 1"]),
    ("ctx_member([K: 1, b: 2], b, V)", ["K = b, V = 1", "K = K, V = 2"]),
    # entries that are not name: coordinate pairs are passed over
    ("ctx_member([a: 1, b, Z], a, V)", ["Z = Z, V = 1"]),
    ("ctx_member([1: x, 1.0: y], 1, V)", ["V = x"]),
    ("ctx_member([a: 1, b: 2], a, 2)", []),
    ("ctx_member([a: 1, b: 2], f(x), V)", []),
    ("X = b, ctx_member([a: 1, b: 2], X, V)", ["X = b, V = 2"]),
    ("ctx_member([a: 1|T], a, V)", "error(type_error(list, [a:1|T]), mdprolog)"),
    ("ctx_member(foo, a, V)", "error(type_error(list, foo), mdprolog)"),
]


class TestValueBuiltins:
    """between/3 and ctx_member/3 return a term and the values it unifies
    with, and the machine tries them in order."""

    @pytest.mark.parametrize("goal, expected", VALUE_GOALS)
    def test_answers_and_errors(self, engine, goal, expected):
        try:
            found = [s.text().replace("\n", " ") for s in engine.solutions(goal)]
        except PrologThrow as exc:
            found = engine.solver.render(exc.ball)
        assert found == expected

    def test_a_range_longer_than_len_counts_is_enumerated(self, engine):
        goal = ("between(-9223372036854775808, 9223372036854775807, X), "
                "X > -9223372036854775807, !")
        assert answers(engine, goal, "X") == ["-9223372036854775806"]

    @pytest.mark.parametrize("goal, expected", VALUE_GOALS)
    def test_a_dispatch_runs_them_as_a_query_does(self, engine, goal, expected):
        # inside a winner, whose implicit context the engine built
        engine.consult_text("[] # run(G) :- G.")
        self.test_answers_and_errors(engine, "[a: 1, b: 2] ? run((%s))" % goal,
                                     expected)

    @pytest.mark.parametrize("goal", sorted({
        re.sub(r"^(.*?)ctx_member\((\[.*?\]|foo)", r"\1ctx_member(C", goal)
        for goal, _ in VALUE_GOALS if "ctx_member" in goal}))
    def test_an_engine_built_context_answers_as_its_list(self, engine, goal):
        # the goal's list is C: a context built by a dispatch, whose names
        # ctx_member/3 looks up, or the same entries as a list of the query
        found = []
        for built in (True, False):
            store = BindingStore()
            term, varmap = parse_term(goal, engine.kb.optable)
            entries = [terms.Struct(":", (Atom(name), coord)) for name, coord
                       in (("a", 1), ("b", 2), ("predicate", Atom("g")))]
            if built:
                ctx, _ = dispatcher.updated_context(
                    engine.solver, store, NIL, make_list(entries[:2]), Atom("g"))
                assert engine.solver.contexts[id(ctx)][0] is ctx
            else:
                ctx = make_list(entries)
            store.bind(varmap.pop("C"), ctx)
            engine.solver.inferences = 0
            texts = [[(name, render(var, store)) for name, var in varmap.items()]
                     for _ in engine.solver.solve(term, store)]
            found.append((texts, engine.solver.inferences))
        assert found[0] == found[1]

    def test_an_atom_name_in_an_engine_built_context_is_looked_up(self, engine,
                                                                  monkeypatch):
        store = BindingStore()
        given = make_list([terms.Struct(":", (Atom("a"), 1))])
        ctx, _ = dispatcher.updated_context(engine.solver, store, NIL, given,
                                            Atom("g"))
        ctx_member = builtins.NONDETERMINISTIC["ctx_member", 3]
        v = Var("V")
        monkeypatch.setattr(dispatcher, "list_items", None)     # no walk
        assert ctx_member(engine.solver, store, ctx, Atom("a"), v) == (v, [1])
        assert ctx_member(engine.solver, store, ctx, Atom("b"), v) == (v, [])

    def test_a_nondeterministic_builtin_binds_nothing(self, engine):
        store = BindingStore()
        x, k, v = Var("X"), Var("K"), Var("V")
        ctx = make_list([terms.Struct(":", (k, 1))])
        between = builtins.NONDETERMINISTIC["between", 3]
        ctx_member = builtins.NONDETERMINISTIC["ctx_member", 3]
        assert between(engine.solver, store, 1, 3, x) == (x, range(1, 4))
        # K may be a, so the entry is tried whole
        term, values = ctx_member(engine.solver, store, ctx, Atom("a"), v)
        assert term.args == (Atom("a"), v) and values == [ctx.args[0]]
        assert store.trail == [] and x.owner is k.owner is v.owner is None


# clause bodies that bind, test and undo around choicepoints: the goals
# where a binding left untrailed would show
ARGS = st.sampled_from(["X", "Y", "Z", "a", "b", "f(X, Y)", "f(Z, a)", "_"])
GOALS = st.recursive(
    st.one_of(
        st.builds("{} = {}".format, ARGS, ARGS),
        st.builds("{} \\= {}".format, ARGS, ARGS),
        st.builds("{} == {}".format, ARGS, ARGS),
        st.builds("{}({}, {})".format, st.sampled_from(["p", "q"]), ARGS, ARGS),
        st.builds("var({})".format, ARGS),
        st.sampled_from(["!", "Z = g(W), W = X"])),
    lambda sub: st.one_of(
        st.builds("({} ; {})".format, sub, sub),
        st.builds("({} -> {} ; {})".format, sub, sub, sub),
        st.builds("\\+ {}".format, sub),
        st.builds("findall(X, {}, Y)".format, sub)),
    max_leaves=4)
BODIES = st.lists(GOALS, min_size=1, max_size=4).map(", ".join)


def trail_outcome(program, query):
    """The first answers of query, or its error, and the inferences spent.

    The occurs check keeps answers acyclic, since copying a cyclic term
    (findall/3) still recurses on its nesting.  A variable that is not
    the query's prints as ``_G<serial>``; they are numbered in order of
    appearance, so that the answers of two engines compare.
    """
    engine = Engine(prelude=False, budget=3000, occurs_check=True)
    engine.consult_text(program + "p(a, b). q(b, a). q(_, c).\n")
    try:
        texts = [s.text() for s in itertools.islice(engine.solutions(query), 8)]
    except (BudgetExceeded, PrologThrow) as exc:
        texts = [type(exc).__name__]
    names = {}
    return [re.sub(r"_G\d+", lambda m: names.setdefault(
        m.group(), "_G%d" % len(names)), text) for text in texts], \
        engine.solver.inferences


class TestConditionalTrailing:
    """Bindings live on the variables and are trailed only where an undo
    can follow, so what backtracking or another store must not see is
    pinned here."""

    def test_a_retried_goal_does_not_reuse_a_backtracked_variable(self, engine):
        engine.consult_text("""
            t(A, C) :- (A = 1 ; A = 2), g(A, B), B > 10, C = B.
            g(1, 5). g(2, 20).
        """)
        assert [s.text() for s in engine.solutions("t(A, C)")] == \
            ["A = 2,\nC = 20"]

    def test_a_failed_head_is_undone_for_the_next_clause(self, engine):
        engine.consult_text("h(a, b). h(_, c). r(R) :- h(X, c), R = X.")
        assert engine.run("r(R), var(R)")

    def test_a_local_undo_leaves_no_binding(self, engine):
        engine.consult_text("""
            t(Y) :- f(a, X) \\= f(b, b), Y = X.
            r(Y) :- retractall(d(X, b)), Y = X.
            d(a, a).
        """)
        assert engine.run("t(Y), var(Y)")
        assert engine.run("r(Y), var(Y)")

    def test_an_earlier_solution_keeps_its_text(self, engine):
        query = "X = f(Y), (true ; Y = 1)"
        lazy = engine.solutions(query)
        first = next(lazy)
        text = first.text()
        assert [s.text() for s in lazy] == ["X = f(1),\nY = 1"]
        assert first.text() == text == "X = f(Y),\nY = Y"
        eager = engine.query(query, max_solutions=2)
        assert [s.text() for s in eager] == [text, "X = f(1),\nY = 1"]

    def test_a_hook_binding_does_not_leak_into_the_clause(self, engine):
        engine.consult_text("""
            hook_mdp_term(_, wrap(Y), true) :- Y = a.
            [] # p(X) :- wrap(X), q(X).
            q(Z) :- Z == b.
        """)
        assert engine.run("[] ? p(b)")

    @pytest.mark.parametrize("goal", [
        "(Y is 1, fail ; true), var(Y)",
        "\\+ (Y = 1, fail), var(Y)",
        "findall(Y, (Y is 2 ; Y is 3), L), var(Y)",
        "catch((Y is 1, throw(x)), x, true), var(Y)",
        "forall((Y = 1 ; Y is 2), true), var(Y)",
        "(member(Y, [1, 2]), Y > 1 -> true ; true), Y == 2",
        "(1 > 2 -> Y = a ; true), member(Z, [1, 2]), Y = Z, Z > 1",
    ])
    def test_a_failed_branch_leaves_no_value_behind(self, engine, goal):
        # the construct's variables are made before its choicepoint, so
        # an is/2 value or a binding of a failed branch is undone
        engine.consult_text("t :- %s." % goal)
        assert engine.run(goal)
        assert engine.run("t")

    @pytest.mark.parametrize("body", [
        "A = B, R = f(A, B)", "(A = B, R = f(A, B) ; true)",
        "(A = B, R = f(A, B) -> true ; true)", "\\+ \\+ true, A = B, R = f(A, B)",
        "(true ; fail), findall(A-B, fail, _), A = B, R = f(A, B)"])
    def test_a_construct_makes_its_variables_in_build_order(self, engine, body):
        # A is made first, so B is bound to it, wherever the goals sit
        engine.consult_text("p(R) :- %s." % body)
        r = engine.query("p(R)")[0]["R"]
        assert r.args[0] is r.args[1] and r.args[0].name == "A"

    @pytest.mark.parametrize("step", [
        "(N > 0 -> true ; true)",
        "(N > 0, true -> true ; true)",
        "\\+ N = -1",
        "(N =:= -1 ; true)",
        "(member(_, [N, N]), !)",
        "catch(N > 0, _, true)",
        "findall(N, N > 0, _)",
        "forall(N > 0, true)",
        "N \\= -1",
        "s(f(N))",
        "(m(I), I > 1)",
        "between(1, 1, _)",
        "ctx_member([a: N], a, _)",
        "(between(1, 2, I), I > 1)",
        "(ctx_member([a: 1, a: 2], a, I), I > 1)",
    ])
    def test_the_trail_stays_small_once_choicepoints_go(self, engine, step):
        # each step marks and then drops its choicepoints, so the watermark
        # goes back down and the binding of X is not trailed
        engine.consult_text('''
            ite(0, _) :- !.
            ite(N, X) :- %s, X = g(Y), N1 is N - 1, ite(N1, Y).
            s(f(-1)).
            s(_).
            m(1).
            m(2).
        ''' % step)
        run = first_answer_run(engine, "ite(10000, _)")
        assert len(run.store.trail) < 10

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["p", "q"]), ARGS, ARGS, BODIES),
                    min_size=1, max_size=4),
           ARGS, ARGS)
    def test_answers_are_those_of_trailing_every_binding(self, clauses, a, b):
        program = "".join("%s(%s, %s) :- %s.\n" % clause for clause in clauses)
        query = "p(%s, %s), q(_, W)" % (a, b)
        conditional = trail_outcome(program, query)
        with pytest.MonkeyPatch.context() as patch:
            # a mark that keeps the watermark above every variable
            patch.setattr(BindingStore, "mark", lambda store: len(store.trail))
            assert trail_outcome(program, query) == conditional


# bodies for the differential of a body run as a clause and as a query:
# control constructs, cut, throw, arithmetic, member/2 and variable goals
RUN_ARGS = st.sampled_from(["X", "Y", "Z", "1", "2", "a", "f(X)"])
RUN_GOALS = st.recursive(
    st.one_of(
        st.builds("{} = {}".format, RUN_ARGS, RUN_ARGS),
        st.builds("{} is {} + 1".format, st.sampled_from(["X", "Y", "Z"]),
                  RUN_ARGS),
        st.builds("{} {} {}".format, RUN_ARGS,
                  st.sampled_from(["<", ">=", "=:="]), RUN_ARGS),
        st.builds("member({}, [1, 2, a])".format, RUN_ARGS),
        st.builds("G = ({})".format, st.sampled_from(
            ["true", "fail", "!", "member(Z, [1, 2])", "(X = 1 ; X = 2)"])),
        st.sampled_from(["!", "G", "call(G)", "throw(e)", "throw(Y)", "true",
                         "fail"])),
    lambda sub: st.one_of(
        st.builds("({} ; {})".format, sub, sub),
        st.builds("({} -> {} ; {})".format, sub, sub, sub),
        st.builds("({} -> {})".format, sub, sub),
        st.builds("\\+ {}".format, sub),
        st.builds("findall(X, {}, Y)".format, sub),
        st.builds("forall({}, {})".format, sub, sub),
        st.builds("catch({}, E, {})".format, sub, sub),
        st.builds("call(({}))".format, sub)),
    max_leaves=5)
RUN_BODIES = st.lists(RUN_GOALS, min_size=1, max_size=4).map(", ".join)


def run_outcome(engine, query):
    """The first answers of query for X, Y and Z, or its error, and the
    inferences spent; unbound variables are named by first occurrence.

    Each variable prints as ``_G<serial>`` before it is renamed, since a
    copy keeps its original's name: which of two aliased variables
    findall/3 copies depends on the direction of the binding, which
    depends on the order the variables were made in."""
    texts = []
    try:
        for sol in itertools.islice(engine.solutions(query), 6):
            values = [sol.bindings.get(name, Var(name)) for name in "XYZ"]
            text = render(terms.Struct("v", tuple(values)), None,
                          engine.kb.optable, names={})
            names = {}
            texts.append(re.sub(r"\b[_A-Z]\w*", lambda m: names.setdefault(
                m.group(), "_V%d" % len(names)), text))
    except PrologThrow as exc:
        texts.append(engine.solver.render(exc.ball))
    return texts, engine.solver.inferences


class TestOneExecutionPath:
    """A goal runs as the same compiled entries whether it is a clause
    body or a query, so both give the same answers for the same work."""

    @settings(max_examples=200, deadline=None)
    @given(RUN_BODIES)
    def test_a_body_as_a_clause_and_as_a_query_agree(self, body):
        engine = Engine(prelude=False, budget=20000, occurs_check=True)
        engine.consult_text("t(X, Y, Z) :- %s." % body)
        try:
            clause, clause_count = run_outcome(engine, "t(X, Y, Z)")
            query, query_count = run_outcome(engine, body)
        except BudgetExceeded:
            return
        assert clause == query
        assert clause_count == query_count + 2    # the call and its clause


def small_stack():
    """Cap the C stack of a child process at 2 MB, a quarter of the usual."""
    resource.setrlimit(resource.RLIMIT_STACK, (2 << 20, 2 << 20))


def run_depth(query, var, program=""):
    """The answer to query for var, with program consulted, in a child
    process at the default recursion limit and on a small stack."""
    return subprocess.run([sys.executable, "-c", DEPTH_SCRIPT, query, var],
                          input=program, capture_output=True, text=True,
                          timeout=60, preexec_fn=small_stack)


def nested(opening, closing, leaf="a", n=30000):
    return opening * n + leaf + closing * n


class TestDepth:
    """Deep goals end in an answer or an error, never a crashed process."""

    def test_plain_recursion_30000_deep_answers(self):
        proc = run_depth("psum(30000, 0, S)", "S")
        assert (proc.returncode, proc.stdout) == (0, "450015000\n"), proc.stderr

    def test_dispatched_recursion_10000_deep_answers(self):
        proc = run_depth("[] ? dsum(10000, 0, S)", "S")
        assert (proc.returncode, proc.stdout) == (0, "50005000\n"), proc.stderr

    def test_a_30000_element_answer_comes_back(self):
        proc = run_depth("upto(30000, L), length(L, N)", "N")
        assert (proc.returncode, proc.stdout) == (0, "30000\n"), proc.stderr

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in kilobytes")
    def test_a_goal_bearing_dispatch_loop_runs_in_constant_memory(self):
        # each step's winner runs ctx_member/3 as its residue, whose last
        # answer leaves no choicepoint to keep the steps before it
        program = """
            ok.
            [n: _, ok @ 0] # gsum(0, A, A).
            [n: _, ok @ 0] # gsum(N, A, S) :- N > 0, A1 is A + N,
                N1 is N - 1, [n: N1] ? gsum(N1, A1, S).
            go(N) :- [n: N] ? gsum(N, 0, _).
        """
        peaks = []
        for n in (1000, 50000):
            proc = run_depth("go(%d), R = done" % n, "R", program)
            assert (proc.returncode, proc.stdout) == (0, "done\n"), proc.stderr
            peaks.append(int(proc.stderr.split()[-1]))
        assert peaks[1] <= 1.1 * peaks[0], peaks

    def test_a_100000_element_answer_renders(self):
        proc = run_depth("findall(X, between(1, 100000, X), L)", "L")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("[1, 2, 3, ")
        assert proc.stdout.endswith(", 99999, 100000]\n")

    @pytest.mark.parametrize("prefix, cycle", [(0, 1), (0, 3), (5, 3), (2, 40)])
    def test_rendering_a_cyclic_list_is_an_error(self, prefix, cycle):
        store = BindingStore()
        back = Var("Back")
        loop = make_list(range(cycle), back)
        assert unify(back, loop, store)
        with pytest.raises(MdpError, match="cyclic"):
            render(make_list(range(prefix), loop), store)
        assert render(make_list(range(20000))).endswith(", 19999]")

    def test_rendering_a_cyclic_compound_is_an_error(self):
        store = BindingStore()
        x = Var("X")
        assert unify(x, terms.Struct("f", (x,)), store)
        with pytest.raises(MdpError, match="term too deep to render"):
            render(x, store)

    def test_cprofile_runs_at_dispatch_depth(self):
        script = DEPTH_SCRIPT.replace(
            "print(", "import cProfile\ncProfile.run('engine.query(sys.argv[1])')\nprint(")
        proc = subprocess.run([sys.executable, "-c", script, "[] ? dsum(3000, 0, S)", "S"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith("4501500\n")

    def test_a_cyclic_answer_is_an_error(self):
        proc = run_depth("p(Y, Y)", "Y")
        assert proc.returncode == 1
        assert "term too deep while resolving" in proc.stderr

    def test_a_150000_element_answer_comes_back(self):
        proc = run_depth("findall(X, between(1, 150000, X), L)", "L")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith(", 149999, 150000]\n")

    def test_a_cyclic_list_answer_is_still_an_error(self):
        proc = run_depth("L = [a|L]", "L")
        assert proc.returncode == 1
        assert "MdpError: cyclic list" in proc.stderr

    @pytest.mark.parametrize("copy", [
        "copy_term(T, C)", "findall(T, true, [C])",
        "assertz(big(T)), big(C)", "catch(throw(T), C, true)"])
    @pytest.mark.parametrize("make", [
        "findall(X, between(1, 30000, X), T)", "mk(50000, T)"])
    def test_a_long_list_or_a_deep_term_is_copied(self, make, copy):
        proc = run_depth("%s, %s, (C == T -> R = same ; R = other)"
                         % (make, copy), "R")
        assert (proc.returncode, proc.stdout) == (0, "same\n"), proc.stderr

    @pytest.mark.parametrize("program, query, var, answer", [
        pytest.param("p(%s)." % nested("f(", ")"), "p(T)", "T",
                     nested("f(", ")"), id="read-compound"),
        pytest.param("p(%s)." % nested("[", "]"), "p(T)", "T",
                     nested("[", "]"), id="read-list"),
        pytest.param("p(%s)." % nested("(", ")"), "p(T)", "T", "a",
                     id="read-parentheses"),
        pytest.param("p(%s)." % nested("- ", ""), "p(T)", "T",
                     nested("- ", "", "-a", 29999), id="read-prefix"),
        pytest.param("p(X) :- %s, X = ok." % ", ".join(["true"] * 30000),
                     "p(X)", "X", "ok", id="long-body"),
        pytest.param("p(X) :- %s, X = ok." % nested("(", ", true)", "true"),
                     "p(X)", "X", "ok", id="left-nested-body"),
        pytest.param(":- dynamic %s." % ", ".join(
                         "a%d/1" % i for i in range(5000)),
                     "(a4999(_) -> X = no ; X = yes)", "X", "yes",
                     id="dynamic-5000"),
        pytest.param("", "mk(30000, T)", "T", nested("f(", ")"),
                     id="print-compound"),
        pytest.param("p(X) :- X is %s." % nested("(1 + ", ")", "1"),
                     "p(X)", "X", "30001", id="is-in-clause"),
        pytest.param("", "sum(50000, E), X is E", "X", "50001",
                     id="is-at-run-time"),
        pytest.param("", "length(L, 50000), assertz(big(L)), big(B), "
                     "length(B, N)", "N", "50000", id="assertz-long-list"),
    ])
    def test_a_deep_term_is_read_built_evaluated_and_printed(
            self, program, query, var, answer):
        proc = run_depth(query, var, program)
        assert (proc.returncode, proc.stdout) == (0, answer + "\n"), \
            proc.stderr[-2000:]

    def test_the_engine_leaves_the_recursion_limit_as_it_was(self):
        before = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            Engine()
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(before)

    @pytest.mark.parametrize("goals, answer", [
        ("X = f(X), Y = f(Y), X = Y", "yes"),
        ("X = [a|X], Y = [a, a|Y], X = Y", "yes"),
        ("X = f(X, a), Y = f(Y, b), X = Y", "no"),
        ("X = [a|X], Y = [a, b|Y], X = Y", "no"),
    ])
    def test_unifying_two_cyclic_terms_ends(self, goals, answer):
        proc = run_depth("(\\+ \\+ (%s) -> R = yes ; R = no)" % goals, "R")
        assert (proc.returncode, proc.stdout) == (0, answer + "\n"), proc.stderr


SHARED = """
sh(0, a) :- !.
sh(N, T) :- N1 is N - 1, sh(N1, S), T = f(S, S).
dag(0, a) :- !.
dag(N, f(T, T)) :- N1 is N - 1, dag(N1, T).
"""


class TestSharedSubterms:
    """A copy keeps the subterms it meets twice shared, so a term of
    depth N whose two arguments are one term copies in N steps, not 2^N."""

    @pytest.mark.parametrize("copy", [
        "copy_term(T, C)", "findall(T, true, [C])",
        "assertz(kept({n}, T)), kept({n}, C)"])
    @pytest.mark.parametrize("make", ["sh", "dag"])
    def test_a_shared_subterm_is_copied_once(self, engine, make, copy):
        engine.consult_text(SHARED)
        # depth 20 first: a copy of every path there takes seconds
        for n in (20, 30):
            start = time.perf_counter()
            sol = engine.query("%s(%d, T), %s" % (make, n, copy.format(n=n)))
            assert time.perf_counter() - start < 1.0
            copied = sol[0]["C"]
            for _ in range(n):
                assert copied.args[0] is copied.args[1]
                copied = copied.args[0]
            assert copied is Atom("a")


MEMORY_SCRIPT = """
import resource
import sys
from mdprolog import Engine
engine = Engine(prelude=False)
engine.consult_text('''
churn(0) :- !.
churn(N) :- X = f(N, _), X = f(_, a), N1 is N - 1, churn(N1).
numlist(N, N, [N]) :- !.
numlist(I, N, [I|T]) :- I1 is I + 1, numlist(I1, N, T).
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
''')
assert engine.run(sys.argv[1])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def peak_kb(query):
    proc = subprocess.run([sys.executable, "-c", MEMORY_SCRIPT, query],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in kilobytes")
class TestMemory:
    """Deterministic code keeps only its live terms, not every binding."""

    @pytest.mark.parametrize("small, large", [
        ("churn(1000)", "churn(200000)"),
        ("numlist(1, 30, L), nrev(L, _)", "numlist(1, 600, L), nrev(L, _)"),
    ])
    def test_peak_memory_does_not_grow_with_the_steps(self, small, large):
        assert peak_kb(large) - peak_kb(small) < 8 * 1024
