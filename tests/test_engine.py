"""Engines start from one consulted bootstrap and prelude and share nothing.

Each engine gets its own copy of a knowledge base consulted once per
process, so what one engine does to its clauses, signatures, operators or
counters must never reach another engine, nor the engines made later.
"""

import io
from importlib import resources

import pytest

from mdprolog import Engine
from mdprolog import engine as engine_module
from mdprolog.corpus import run_all
from mdprolog.solver import Solver
from mdprolog.terms import indicator, proper_list

PRELUDE = resources.files("mdprolog").joinpath("prelude.mdp").read_text()
PROGRAM = """
[] # greet(hello).
[lang: fr] # greet(bonjour).
"""


def start_state(engine):
    """What an engine starts from: expansion, clause counts and operators."""
    kb = engine.kb
    return (engine.dump_expansion(),
            {key: len(group) for key, group in kb.clauses.items()},
            dict(kb.optable.prefix), dict(kb.optable.infix), set(kb.dynamic))


def new_engine():
    engine = Engine(out=io.StringIO())
    engine.run("assertz(data(obj(1), color, blue))")
    return engine


# what one engine does, and how an engine shows that it was done
CHANGES = {
    "op": (lambda e: e.run("op(700, xfx, ===>)"),
           lambda e: "===>" in e.kb.optable.priority),
    "assertz": (lambda e: e.run("assertz(data(obj(3), color, red))"),
                lambda e: len(e.query("data(obj(3), color, red)")) == 1),
    "retractall": (lambda e: e.run("retractall(data(obj(1), _, _))"),
                   lambda e: not e.query("data(obj(1), color, blue)")),
    "new_oid": (lambda e: e.run("new_oid(_)"),
                lambda e: e.solver.oid_counter > 0),
    "mdp rules": (lambda e: e.consult_text(PROGRAM, "greet.mdp"),
                  lambda e: "greet/1" in e.dump_expansion()),
    "anonymous rule": (lambda e: e.consult_text("[trace: on] :- true."),
                       lambda e: "[trace]" in e.dump_expansion()),
    "prelude again": (lambda e: e.consult_text(PRELUDE, "<prelude>"),
                      lambda e: "'$impl$write/2#2'" in e.dump_expansion()),
}


class TestSharedBase:
    @pytest.mark.parametrize("change, seen", CHANGES.values(), ids=CHANGES)
    def test_a_change_reaches_no_other_engine(self, change, seen):
        waiting, acting = new_engine(), new_engine()
        pending = waiting.solutions("member(X, [1, 2, 3])")
        assert next(pending).render("X") == "1"
        assert not seen(acting)
        change(acting)
        assert seen(acting)
        assert not seen(waiting)
        assert [s.render("X") for s in pending] == ["2", "3"]
        assert not seen(new_engine())
        # and back: the first engine's change does not reach the second
        pending = acting.solutions("member(X, [1, 2, 3])")
        assert next(pending).render("X") == "1"
        change(waiting)
        assert seen(waiting)
        assert [s.render("X") for s in pending] == ["2", "3"]

    def test_engines_without_the_prelude_lack_its_operator(self):
        assert "!" in Engine().kb.optable.priority
        bare = Engine(prelude=False)
        assert "!" not in bare.kb.optable.priority
        assert ("hook_mdp_term", 3) not in bare.kb.clauses
        assert not bare.dump_expansion()

    def test_the_base_is_what_consulting_the_prelude_gives(self):
        fresh = Engine(prelude=False)
        fresh.consult_text(PRELUDE, "<prelude>")
        assert start_state(Engine()) == start_state(fresh)

    def test_a_new_engine_starts_as_the_first_after_all_changes(self):
        first = start_state(Engine())
        engine = new_engine()
        for change, _ in CHANGES.values():
            change(engine)
        passed, results = run_all()
        assert passed == len(results)
        assert start_state(Engine()) == first


class TestHookSolves:
    @pytest.fixture
    def solved(self, monkeypatch):
        """The goals of the runs started from now on, start-up included."""
        goals = []
        solve = Solver.solve

        def counting(self, goal, store):
            goals.append(goal)
            return solve(self, goal, store)

        monkeypatch.setattr(Solver, "solve", counting)
        monkeypatch.setattr(engine_module, "_BASES", {})
        return goals

    def test_start_up_solves_only_directives_and_the_one_matching_hook(
            self, solved):
        engine = Engine()
        # the prelude's op/3 and two dynamic/1 directives, and the hook for
        # the one `OIDClone ! write(Name, Value)` of clone/1's body
        assert [indicator(goal) for goal in solved] == \
            [("op", 3), ("dynamic", 1), ("dynamic", 1), ("hook_mdp_term", 3)]
        solved.clear()
        engine.consult_text("p(X) :- q(X), r(X, 1), s.\nq(1). r(1, 1). s.")
        assert solved == []     # no hook head's second argument matches
        engine.consult_text("t :- o ! q(_).")
        assert [indicator(goal) for goal in solved] == [("hook_mdp_term", 3)]


class TestAnswerNames:
    """An answer shows the query's variables under their names; any other
    variable shows as _G<serial>, so two distinct variables never share
    a name."""

    def test_distinct_variables_show_distinct_names(self):
        engine = Engine(prelude=False)
        engine.consult_text("p(f(A, B), A).")
        # a copy is not the variable it was copied from
        [s] = engine.solutions("X = f(Y), copy_term(X, Z)")
        assert s.render("X") == "f(Y)"
        assert s.render("Z") == "f(_G%d)" % s["Z"].args[0].serial
        # two fresh variables, neither of them the query's Y
        [s] = engine.solutions("findall(X-Y, member(X, [a, b]), L)")
        a, b = [pair.args[1] for pair in proper_list(s["L"])]
        assert a is not b and s["Y"] not in (a, b)
        assert s.render("L") == "[a-_G%d, b-_G%d]" % (a.serial, b.serial)
        # no clause variable's name leaks into the answer
        [s] = engine.solutions("findall(T, p(T, _), [C]), p(D, _)")
        c, d = s["C"].args[1], s["D"].args[1]
        assert c is not d
        assert s.text() == "T = T,\nC = f(_, _G%d),\nD = f(_, _G%d)" % (
            c.serial, d.serial)
