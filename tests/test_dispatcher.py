import io
import re
from importlib import resources

import pytest
from hypothesis import given, strategies as st

from mdprolog import BudgetExceeded, Engine, PrologThrow, dispatcher, solver
from mdprolog.dispatcher import updated_context
from mdprolog.kb import KnowledgeBase
from mdprolog.terms import NIL, Atom, BindingStore, Struct, Var, make_list, proper_list


def entry(name, coord):
    return Struct(":", (Atom(name), coord))


def updated(store, implicit, given, goal):
    """updated_context on a solver of its own."""
    return updated_context(solver.Solver(KnowledgeBase()), store, implicit,
                           given, goal)


def entries_of(ctx, store):
    out = []
    for item in proper_list(ctx, store):
        e = store.deref(item)
        out.append((store.deref(e.args[0]).name, store.deref(e.args[1])))
    return out


class TestUpdatedContext:
    def test_goal_is_recorded_under_predicate(self):
        store = BindingStore()
        goal = Struct("p", (Atom("x"),))
        ctx, _ = updated(store, make_list([]), make_list([]), goal)
        assert entries_of(ctx, store) == [("predicate", goal)]

    def test_upsert_replaces_in_place_and_appends_new(self):
        store = BindingStore()
        implicit = make_list([entry("a", Atom("1")), entry("b", Atom("2"))])
        given = make_list([entry("a", Atom("9")), entry("c", Atom("3"))])
        ctx, _ = updated(store, implicit, given, Atom("g"))
        assert [n for n, _ in entries_of(ctx, store)] == \
            ["a", "b", "c", "predicate"]
        assert dict(entries_of(ctx, store))["a"] == Atom("9")

    def test_removal_applies_before_upserts(self):
        store = BindingStore()
        implicit = make_list([entry("a", Atom("1"))])
        given = make_list([Struct("-", (Atom("a"),)), entry("a", Atom("2"))])
        ctx, _ = updated(store, implicit, given, Atom("g"))
        assert dict(entries_of(ctx, store))["a"] == Atom("2")

    def test_removal_of_absent_dimension_is_harmless(self):
        store = BindingStore()
        ctx, _ = updated(store, make_list([]),
                         make_list([Struct("-", (Atom("zz"),))]), Atom("g"))
        assert [n for n, _ in entries_of(ctx, store)] == ["predicate"]

    def test_call_site_predicate_entry_loses_to_live_goal(self):
        store = BindingStore()
        given = make_list([entry("predicate", Atom("fake"))])
        ctx, _ = updated(store, make_list([]), given, Atom("real"))
        assert dict(entries_of(ctx, store))["predicate"] == Atom("real")

    def test_unchanged_entries_are_reused(self):
        store = BindingStore()
        kept = entry("a", Atom("1"))
        given = entry("b", Atom("2"))
        implicit = make_list([kept, entry("predicate", Atom("old"))])
        ctx, named = updated(store, implicit, make_list([given]), Atom("g"))
        items = proper_list(ctx)
        assert items[0] is kept and items[2] is given
        assert dict(entries_of(ctx, store))["predicate"] == Atom("g")
        assert named.keys() == {"a", "predicate", "b"}

    def test_a_given_name_bound_through_a_variable_is_an_atom(self):
        store = BindingStore()
        name = Var("N")
        store.bind(name, Atom("mode"))
        given = make_list([Struct(":", (name, Atom("fast")))])
        ctx, named = updated(store, make_list([]), given, Atom("g"))
        assert proper_list(ctx)[0] == entry("mode", Atom("fast"))
        assert named.keys() == {"mode", "predicate"}


INSTANTIATION = "error(instantiation_error, mdprolog)"


class TestContextErrors:
    """The errors of a call-site context, of the implicit context a
    '$dispatch'/3 goal names and of the goal, item by item in list order,
    and the order in which removals and upserts apply."""

    @pytest.mark.parametrize("goal, expected", [
        ("[X] ? p", INSTANTIATION),
        ("[-X] ? p", INSTANTIATION),
        ("[-1] ? p", "error(type_error(context_entry, -1), mdprolog)"),
        ("[-f(x)] ? p", "error(type_error(atom, f(x)), mdprolog)"),
        ("[X: 1] ? p", INSTANTIATION),
        ("[1: a] ? p", "error(type_error(atom, 1), mdprolog)"),
        ("[foo] ? p", "error(type_error(context_entry, foo), mdprolog)"),
        ("G ? p", INSTANTIATION),
        ("foo ? p", "error(type_error(list, foo), mdprolog)"),
        ("[a: 1|T] ? p", "error(type_error(list, [a:1|_G]), mdprolog)"),
        ("[a: 1, X|foo] ? p", "error(type_error(list, [a:1, _G|foo]), mdprolog)"),
        ("[X, foo] ? p", INSTANTIATION),
        ("[foo, X] ? p", "error(type_error(context_entry, foo), mdprolog)"),
        ("[] ? X", INSTANTIATION),
        ("[] ? 1", "error(type_error(callable, 1), mdprolog)"),
        ("'$dispatch'(foo, [], p)", "error(type_error(list, foo), mdprolog)"),
        ("'$dispatch'([a: 1|T], [], p)",
         "error(type_error(list, [a:1|_G]), mdprolog)"),
        ("'$dispatch'(C, [], p)", "error(type_error(list, _G), mdprolog)"),
        ("'$dispatch'([a: 1, a: 2], [-a, X], p)", INSTANTIATION),
        ("[a: 1, -a] ? r(X)", "1"),
        ("[-a, a: 2] ? r(X)", "2"),
        ("'$dispatch'([a: 1, a: 2], [a: 3, -a], r(X))", "3"),
    ])
    def test_errors_and_order(self, goal, expected):
        # with no signature the existence error would come first
        engine = Engine(prelude=False)
        engine.consult_text("[] # p.\n[a: A] # r(A).")
        [found] = engine.query("catch((%s), E, true)" % goal)
        error = re.sub(r"_G\d+", "_G", found.render("E"))
        assert (error if error != "E" else found.render("X")) == expected


class TestImplicitLists:
    """An implicit context that no dispatch built is walked as a list, so a
    name it repeats stays; one that a dispatch built is kept with its
    entries by name, a bounded table that each query empties."""

    @pytest.mark.parametrize("query, expected", [
        ("'$dispatch'([a: 1, a: 2, b: 3], [-b], p(X))", ["1", "2"]),
        ("'$dispatch'([a: 1, a: 2], [a: 5], p(X))", ["5", "2"]),
        ("'$dispatch'([a: 1, a: 2, b: 3], [-a, a: 5], p(X))", ["5"]),
        ("G = [a: 1], '$dispatch'([b: 2|G], G, p(X))", ["1"]),
        ("[a: 1, a: 2] ? p(X)", ["2"]),
        ("N = a, '$dispatch'([N: 1], [], p(X))", ["1"]),
    ])
    def test_answers(self, query, expected):
        engine = Engine(prelude=False)
        engine.consult_text("[a: X] # p(X).")
        assert answers(engine, query) == expected

    def test_a_list_that_repeats_a_name_is_not_kept(self):
        engine = Engine(prelude=False)
        store = BindingStore()
        repeated = make_list([entry("a", 1), entry("a", 2)])
        _, named = updated_context(engine.solver, store, repeated, NIL, Atom("g"))
        assert list(named) == ["a", ("a", 1), "predicate"]
        assert engine.solver.contexts == {}
        _, named = updated_context(engine.solver, store, repeated,
                                   make_list([Struct("-", (Atom("a"),))]),
                                   Atom("g"))
        assert list(named) == ["predicate"]

    def test_the_kept_contexts_are_bounded_and_each_query_empties_them(
            self, monkeypatch):
        engine = Engine(prelude=False)
        engine.consult_text(
            "[] # d(0).\n[] # d(N) :- N > 0, N1 is N - 1, [n: N1] ? d(N1).")
        sizes = []
        update = dispatcher.updated_context
        monkeypatch.setattr(dispatcher, "updated_context", lambda solver, *args:
                            sizes.append(len(solver.contexts)) or update(solver, *args))
        assert engine.run("[] ? d(200)")
        assert max(sizes) == dispatcher.CONTEXTS_KEPT and sizes[0] == 0
        assert engine.run("true") and engine.solver.contexts == {}


class TestCandidates:
    """The cached candidate tuple follows every change of the signatures."""

    def test_signatures_consulted_after_a_dispatch_join_the_next(self):
        engine = Engine(prelude=False)
        engine.consult_text("[] # p(a).", filename="one")
        assert [s.render("X") for s in engine.query("[] ? p(X)")] == ["a"]
        engine.consult_text("[] # p(b).\n[] :- true.", filename="two")
        # the anonymous rule wins too, and binds nothing
        assert [s.render("X") for s in engine.query("[] ? p(X)")] == ["a", "b", "X"]

    def test_reconsulting_drops_the_old_signatures(self):
        engine = Engine(prelude=False)
        engine.consult_text("[] # p(a).", filename="one")
        engine.consult_text("[] # p(b).", filename="two")
        assert [s.render("X") for s in engine.query("[] ? p(X)")] == ["a", "b"]
        engine.consult_text("[] # p(c).", filename="one")
        assert [s.render("X") for s in engine.query("[] ? p(X)")] == ["b", "c"]

    def test_reconsulting_drops_the_old_anonymous_rules(self):
        engine = Engine(prelude=False, out=io.StringIO())
        engine.consult_text("[] # p(a).\n[t: T] :- writeln(one).",
                            filename="one")
        engine.consult_text("[t: T] :- writeln(two).", filename="two")
        engine.consult_text("[] # p(b).", filename="one")
        _, report = engine.explain("[t: 1] ? p(X)")
        # candidates in definition order, named and anonymous alike
        assert [(sig.label(), score) for sig, score, _ in report] == \
            [("$anonymous_rule(#10)", 1), ("p/1(#12)", 0)]
        assert len(engine.query("[t: 1] ? p(X)")) == 1
        assert engine.solver.out.getvalue() == "two\n"

    def test_consulting_a_file_again_without_its_signatures_drops_them(self):
        # the candidates cached by a dispatch lose what the file took away
        engine = Engine(prelude=False)
        engine.consult_text("[] # p(a).", filename="one")
        engine.consult_text("[] # p(b).", filename="two")
        assert [s.render("X") for s in engine.query("[] ? p(X)")] == ["a", "b"]
        engine.consult_text("q.", filename="one")
        assert [s.render("X") for s in engine.query("[] ? p(X)")] == ["b"]

        engine = Engine(prelude=False, out=io.StringIO())
        engine.consult_text("[t: T] :- writeln(one).", filename="one")
        engine.consult_text("[] # p(b).", filename="two")
        assert [s.render("X") for s in engine.query("[t: 1] ? p(X)")] == ["X"]
        engine.consult_text("q.", filename="one")
        assert [s.render("X") for s in engine.query("[t: 1] ? p(X)")] == ["b"]
        assert engine.solver.out.getvalue() == "one\n"

    def test_named_and_anonymous_candidates_mix_in_definition_order(self):
        engine = Engine(prelude=False)
        engine.consult_text("""
            [predicate: g(X)] :- X = anon.
            [] # g(named).
        """)
        assert [s.render("X") for s in engine.query("[] ? g(X)")] == \
            ["anon", "named"]

    def test_a_dispatch_of_the_anonymous_name_runs_each_rule_once(self):
        # anonymous signatures are kept under their own name, so its
        # candidates must not add them a second time
        engine = Engine(prelude=False, out=io.StringIO())
        engine.consult_text("[t: T] :- writeln(T).")
        assert len(engine.query("[t: 1] ? '$anonymous_rule'")) == 1
        assert engine.solver.out.getvalue() == "1\n"


class TestTermsMadeAtRunTime:
    """Only the text consulted or queried is rewritten: a ``?`` or ``#``
    in a term built at run time is no dispatch and no mdp rule."""

    PROGRAM = """
        [] # foo(1).
        r2(G) :- call(G).
        r3(G) :- G.
    """

    @pytest.mark.parametrize("goal", [
        "G = ([] ? foo(X)), call(G)",
        "r2([] ? foo(X))",
        "r3([] ? foo(X))",      # a variable body goal bound to a ? term
    ])
    def test_a_dispatch_built_at_run_time_is_an_unknown_procedure(self, goal):
        engine = Engine(prelude=False)
        engine.consult_text(self.PROGRAM)
        assert outcome(engine, goal) == \
            ["error(existence_error(procedure, (?)/2), mdprolog)"]
        assert answers(engine, "[] ? foo(X)") == ["1"]

    @pytest.mark.parametrize("clause, name, arity", [
        ("[] # g(1)", "#", 2),
        ("([m: M] # g(M) :- true)", "#", 2),
        ("([] :- writeln(hi))", "[]", 0),
        ("([m: 1] :- true)", ".", 2),
    ])
    def test_assertz_of_an_mdp_rule_is_refused(self, clause, name, arity):
        engine = Engine(prelude=False)
        engine.consult_text(self.PROGRAM)
        with pytest.raises(PrologThrow) as e:
            engine.query("assertz((%s))" % clause)
        assert e.value.ball.args[0] == Struct("permission_error", (
            Atom("modify"), Atom("mdp_rule"), Struct("/", (Atom(name), arity))))
        assert (name, arity) not in engine.kb.predicates
        assert answers(engine, "[] ? foo(X)") == ["1"]
        assert outcome(engine, "[] ? g(X)") == \
            ["error(existence_error(mdp_predicate, g/1), mdprolog)"]


class TestShapeCache:
    """The dimension checks of a dispatch are cached per predicate and set
    of context names."""

    PROGRAM = """
        [mode: M] # p(moded).
        [] # p(plain).
        [mode: fast, ok @ 1] # p(fast).
        ok.
    """

    def reports(self, engine, query):
        _, report = engine.explain(query)
        return [(sig.label(), score, reason) for sig, score, reason in report]

    def test_a_hit_reports_and_answers_as_the_miss_did(self, monkeypatch):
        engine = Engine(prelude=False, trace_dispatch=True, err=io.StringIO())
        engine.consult_text(self.PROGRAM)
        queries = ["[mode: fast] ? p(X)", "[mode: slow] ? p(X)", "[] ? p(X)",
                   "[other: 1] ? p(X)"]
        first = [(self.reports(engine, q), answers(engine, q)) for q in queries]
        trace = engine.solver.err.getvalue()
        scored = []
        score = dispatcher.score_signature
        monkeypatch.setattr(dispatcher, "score_signature",
                            lambda *args: scored.append(args[2]) or score(*args))
        engine.solver.err = io.StringIO()
        assert [(self.reports(engine, q), answers(engine, q))
                for q in queries] == first
        assert engine.solver.err.getvalue() == trace
        assert scored == []
        assert first[0][0] == [("p/1(#6)", 1, None), ("p/1(#8)", 0, None),
                               ("p/1(#10)", 2, None)]
        assert first[1][0][2] == ("p/1(#10)", None, "context rules failed")
        assert first[0][1] == ["fast"]
        assert first[3][1] == ["plain"]

    def test_a_consult_that_adds_or_removes_a_signature_drops_it(self):
        engine = Engine(prelude=False)
        engine.consult_text("[] # p(a).", filename="one")
        assert answers(engine, "[] ? p(X)") == ["a"]
        assert scorings(engine.kb, "p", 1)[0]
        engine.consult_text("[] # p(b).", filename="two")
        assert scorings(engine.kb, "p", 1) == ({}, {}, frozenset())
        assert answers(engine, "[] ? p(X)") == ["a", "b"]
        engine.consult_text("[] :- true.", filename="three")
        assert answers(engine, "[] ? p(X)") == ["a", "b", "X"]
        engine.consult_text("q.", filename="two")
        assert answers(engine, "[] ? p(X)") == ["a", "X"]
        engine.consult_text("q.", filename="three")
        assert answers(engine, "[] ? p(X)") == ["a"]
        copy = engine.kb.copy()
        assert scorings(copy, "p", 1) == ({}, {}, frozenset())
        engine.consult_text("[mode: M, d: _] # p(M).\n[] :- true.", filename="two")
        assert scorings(engine.kb, "p", 1)[2] == {"mode", "d"}

    def test_it_stays_bounded(self):
        # each query names another set of the eight dimensions that the
        # candidates require, so each is a shape of its own
        engine = Engine(prelude=False)
        engine.consult_text("[] # p(none).\n" + "".join(
            "[d%d: _] # p(%d).\n" % (j, j) for j in range(8)))
        for i in range(dispatcher.SHAPES_KEPT * 3):
            named = [j for j in range(8) if i >> j & 1]
            query = "[%s] ? p(X)" % ", ".join("d%d: 1" % j for j in named)
            assert answers(engine, query) == ([str(j) for j in named] or ["none"])
            assert len(scorings(engine.kb, "p", 1)[0]) <= dispatcher.SHAPES_KEPT
        # the cached reports share the first candidate's one entry
        reports = [report for report, _ in scorings(engine.kb, "p", 1)[0].values()]
        assert len(reports) > 1
        assert len({id(report[0]) for report in reports}) == 1

    def test_names_with_no_candidates_keep_no_entry(self, monkeypatch):
        # a name with no candidates gets no entry, so failing dispatches
        # of ever new names keep nothing
        engine = Engine()
        looked_up = []
        candidates_for = dispatcher.candidates_for
        monkeypatch.setattr(dispatcher, "candidates_for", lambda *args: (
            looked_up.append(args[1:]) or candidates_for(*args)))
        for i in range(50):
            assert outcome(engine, "[] ? f%d(1)" % i) == [
                "error(existence_error(mdp_predicate, f%d/1), mdprolog)" % i]
        assert looked_up == [("f%d" % i, 1) for i in range(50)]
        assert engine.kb.dispatch == {}

    def test_names_with_no_signature_share_one_record(self):
        # their candidates are the anonymous ones alone, the same for
        # every name of an arity, so ever new names keep one entry
        engine = Engine()
        engine.consult_text("[predicate: g(X)] :- X = anon.")
        for i in range(50):
            assert engine.query("catch([] ? f%d(1), _, true)" % i) == []
        assert answers(engine, "[] ? g(X)") == ["anon"]
        assert len(engine.kb.dispatch) == 1
        record = dispatcher.candidates_for(engine.kb, "f0", 1)
        assert record is dispatcher.candidates_for(engine.kb, "g", 1)
        assert len(record) == 1 and len(record.shapes) == 1

    def test_names_that_no_candidate_requires_make_no_shape(self, monkeypatch):
        engine = Engine(prelude=False)
        engine.consult_text("[] # p(a).")
        assert answers(engine, "[d1: 1] ? p(X)") == ["a"]
        scored = []
        score = dispatcher.score_signature
        monkeypatch.setattr(dispatcher, "score_signature",
                            lambda *args: scored.append(args[2]) or score(*args))
        assert answers(engine, "[d2: 1] ? p(X)") == ["a"]
        assert scored == [] and list(scorings(engine.kb, "p", 1)[0]) == [frozenset()]

    def test_a_name_that_a_candidate_requires_makes_a_shape(self, monkeypatch):
        engine = Engine(prelude=False)
        engine.consult_text("[mode: M] # p(moded(M)).\n[] # p(plain).")
        scored = []
        score = dispatcher.score_signature
        monkeypatch.setattr(dispatcher, "score_signature",
                            lambda *args: scored.append(args[2]) or score(*args))
        assert answers(engine, "[] ? p(X)") == ["plain"]
        assert answers(engine, "[mode: x] ? p(X)") == ["moded(x)"]
        assert len(scored) == 4
        assert answers(engine, "[mode: y, d: 1] ? p(X)") == ["moded(y)"]
        assert answers(engine, "[d: 1] ? p(X)") == ["plain"]
        assert len(scored) == 4
        assert set(scorings(engine.kb, "p", 1)[0]) == {frozenset(),
                                                      frozenset(["mode"])}


def answers(engine, query):
    return [s.render("X") for s in engine.query(query)]


def outcome(engine, goal):
    """The catcher of catch(goal, E, true) in each answer: the error
    goal raised, or a fresh variable."""
    return [s.render("E") for s in engine.query("catch((%s), E, true)" % goal)]


def scorings(kb, name, arity):
    """The dispatcher's caches for name/arity, made as a dispatch makes
    them: its checks by the set of required names that a context holds,
    the report entries they share, and the names the candidates require."""
    record = dispatcher.candidates_for(kb, name, arity)
    return record.shapes, record.entries, record.required


class TestScoring:
    @pytest.fixture
    def engine(self):
        engine = Engine(prelude=False)
        engine.consult_text("""
            [] # p(base).
            [mode: M] # p(moded(M)).
            [mode: M, level: L] # p(both(M, L)).
        """)
        return engine

    def scores(self, engine, query):
        _, report = engine.explain(query)
        return [score for _, score, _ in report]

    def test_specificity_counts_matched_dimensions(self, engine):
        assert self.scores(engine, "[mode: a, level: b] ? p(X)") == [0, 1, 2]

    def test_missing_dimension_makes_a_rule_ineligible(self, engine):
        _, report = engine.explain("[mode: a] ? p(X)")
        assert [score for _, score, _ in report] == [0, 1, None]
        _, _, reason = report[2]
        assert "level" in reason

    def test_only_the_most_specific_rules_run(self, engine):
        sols = engine.query("[mode: a, level: b] ? p(X)")
        assert [s.render("X") for s in sols] == ["both(a, b)"]

    def test_entry_order_does_not_change_the_winner(self, engine):
        one = engine.query("[mode: a, level: b] ? p(X)")
        two = engine.query("[level: b, mode: a] ? p(X)")
        assert [s.render("X") for s in one] == [s.render("X") for s in two]

    def test_ties_run_in_definition_order(self):
        engine = Engine(prelude=False)
        engine.consult_text("""
            [mode: M] # p(first).
            [mode: M] # p(second).
        """)
        sols = engine.query("[mode: x] ? p(X)")
        assert [s.render("X") for s in sols] == ["first", "second"]

    def test_failing_precondition_rules_out_the_rule(self):
        engine = Engine(prelude=False)
        engine.consult_text("""
            allowed(a).
            [mode: M, allowed(M)] # p(guarded).
            [] # p(fallback).
        """)
        assert [s.render("X") for s in engine.query("[mode: a] ? p(X)")] \
            == ["guarded"]
        assert [s.render("X") for s in engine.query("[mode: z] ? p(X)")] \
            == ["fallback"]

    def test_scoring_bindings_do_not_leak(self):
        engine = Engine(prelude=False)
        engine.consult_text("""
            [mode: M] # p(M).
            [] # p(plain).
        """)
        # explain scores both rules; the losing rule's trial bindings must
        # not survive into the returned context
        ctx, report = engine.explain("[mode: fast] ? p(X)")
        assert [score for _, score, _ in report] == [1, 0]

    def test_weight_annotations_add_to_the_score(self):
        engine = Engine(prelude=False)
        engine.consult_text("""
            bonus(mode, 5).
            [mode: M] # p(light).
            [mode: M, bonus(mode, W)@W] # p(heavy).
        """)
        assert self_scores(engine) == [1, 6]
        sols = engine.query("[mode: x] ? p(X)")
        assert [s.render("X") for s in sols] == ["heavy"]

    def test_non_numeric_weight_is_a_type_error(self):
        engine = Engine(prelude=False)
        engine.consult_text("""
            bonus(oops).
            [mode: M, bonus(W)@W] # p(bad).
        """)
        with pytest.raises(PrologThrow) as e:
            engine.query("[mode: x] ? p(X)")
        # the culprit is the weight, read before the rules are undone
        assert e.value.ball.args[0] == \
            Struct("type_error", (Atom("number"), Atom("oops")))

    def test_unknown_mdp_predicate_is_an_existence_error(self):
        engine = Engine(prelude=False)
        with pytest.raises(PrologThrow) as e:
            engine.query("[mode: x] ? nothing(1)")
        assert "existence_error" in str(e.value)
        assert "mdp_predicate" in str(e.value)

    def test_anonymous_rules_joinin_every_dispatch(self):
        engine = Engine(prelude=False, out=io.StringIO())
        engine.consult_text("""
            [] # p(x).
            [log: Sink] :- writeln(Sink).
        """)
        engine.query("[log: hello] ? p(X)")
        assert engine.solver.out.getvalue() == "hello\n"

    def test_explain_of_unknown_mdp_predicate_is_the_same_error(self):
        engine = Engine(prelude=False)
        with pytest.raises(PrologThrow) as dispatched:
            engine.query("[mode: x] ? nothing(1)")
        with pytest.raises(PrologThrow) as explained:
            engine.explain("[mode: x] ? nothing(1)")
        assert str(explained.value) == str(dispatched.value)

    def test_explain_winners_are_the_dispatch_winners(self, engine):
        assert explain_winners(engine, "[mode: a] ? p(X)") == \
            traced_winners(engine, "[mode: a] ? p(X)", "p/1")
        assert explain_winners(engine, "[mode: a, level: b] ? p(X)") == \
            traced_winners(engine, "[mode: a, level: b] ? p(X)", "p/1")

    def test_explain_winners_are_the_dispatch_winners_on_shapes(self):
        engine = Engine(out=io.StringIO())
        engine.consult_text(resources.files("mdprolog").joinpath(
            "corpus", "programs", "shapes.mdp").read_text())
        engine.run("new_oid(S), S ! write(type, special_rectangle), "
                   "S ! write(width, 2), S ! write(height, 3)")
        query = "[rcvr: oid(1)] ? representation(_)"
        special = engine.kb.signatures_for("representation", 1)[2]
        assert explain_winners(engine, query) == [special.label()]
        assert traced_winners(engine, query, "representation/1") == \
            [special.label()]

    def test_preconditions_run_when_scored_and_again_in_the_body(self):
        # the residue is relied on: memo_generic.mdp replays cached
        # solutions through it
        engine = Engine(prelude=False, out=io.StringIO())
        engine.consult_text("[writeln(checked), mode: M] # f(M).")
        sols = engine.query("[mode: x] ? f(X), [mode: y] ? f(Y)")
        assert [(s.render("X"), s.render("Y")) for s in sols] == [("x", "y")]
        assert engine.solver.out.getvalue() == "checked\n" * 4


class TestContextRules:
    """Context rules holding goals run on the query's own machine."""

    @pytest.mark.parametrize("query", ["[mode: z] ? p(X)", "q(z, X)"])
    def test_a_failing_precondition_from_a_query_or_a_body(self, query):
        # q/2 dispatches from a compiled clause body; the first call of
        # the rules, allowed(z), finds no clause
        engine = Engine(prelude=False)
        engine.consult_text("""
            allowed(a).
            [mode: M, allowed(M)] # p(guarded).
            [] # p(fallback).
            q(M, X) :- [mode: M] ? p(X).
        """)
        assert [s.render("X") for s in engine.query(query)] == ["fallback"]

    def test_a_throw_from_context_rules_reaches_the_callers_catch(self):
        engine = Engine(prelude=False)
        engine.consult_text("""
            [mode: M, (M == bad -> throw(oops) ; true)] # p(M).
            [] # p(none).
        """)
        sols = engine.query("catch([mode: bad] ? p(X), E, X = caught(E))")
        assert [s.render("X") for s in sols] == ["caught(oops)"]

    def test_a_cut_in_context_rules_is_local(self):
        engine = Engine()
        engine.consult_text("[mode: M, (member(M, [a, b]), !)] # p(M).")
        assert [s.render("X") for s in engine.query("[mode: b] ? p(X)")] \
            == ["b"]

    def test_only_the_first_solution_of_the_rules_scores(self):
        engine = Engine(prelude=False)
        engine.consult_text("""
            c(1). c(2). c(3).
            [mode: M, c(W) @ W] # p(M).
        """)
        assert self_scores(engine) == [2]
        assert [s.render("X") for s in engine.query("[mode: a] ? p(X)")] \
            == ["a"]

    def test_backtracking_into_the_winners_scores_nothing_again(self):
        engine = Engine(prelude=False, out=io.StringIO())
        engine.consult_text("""
            [mode: M, writeln(scored)] # p(1).
            [mode: M, writeln(scored)] # p(2).
        """)
        assert [s.render("X") for s in engine.query("[mode: a] ? p(X), X > 1")] \
            == ["2"]
        # two scorings, then the residue in each winner's body
        assert engine.solver.out.getvalue() == "scored\n" * 4

    def test_the_budget_counts_inferences_in_context_rules(self):
        engine = Engine(prelude=False, budget=2000)
        engine.consult_text("""
            loop :- loop.
            [mode: M, loop] # p(M).
        """)
        with pytest.raises(BudgetExceeded):
            engine.query("[mode: a] ? p(X)")
        assert engine.solver.inferences == 2001

    def test_explain_runs_the_rules_once_and_calls_no_winner(self):
        engine = Engine(prelude=False, out=io.StringIO(), err=io.StringIO(),
                        trace_dispatch=True)
        engine.consult_text("[writeln(scored), mode: M] # p(M) :- writeln(ran).")
        _, report = engine.explain("[mode: a] ? p(X)")
        assert [score for _, score, _ in report] == [1]
        assert engine.solver.out.getvalue() == "scored\n"
        assert engine.solver.err.getvalue() == ""

    def test_trace_lines_follow_the_scoring_and_precede_the_winner(self):
        sink = io.StringIO()
        engine = Engine(prelude=False, out=sink, err=sink, trace_dispatch=True)
        engine.consult_text("[writeln(scored), mode: M] # p(M) :- writeln(ran).")
        assert len(engine.query("[mode: a] ? p(X)")) == 1
        lines = sink.getvalue().splitlines()
        assert lines[0] == "scored"
        assert lines[1].startswith("dispatch p/1: p/1(#")
        assert lines[1].endswith(" -> score 1")
        assert lines[2].startswith("dispatch p/1: running p/1(#")
        assert lines[3:] == ["scored", "ran"]

    def test_a_hook_body_dispatches_to_a_goal_bearing_candidate(self):
        engine = Engine(prelude=False, out=io.StringIO())
        engine.consult_text("""
            [k: K, ok(K) @ 1] # tag(K, yes).
            ok(a).
            hook_mdp_term(_, hello(X), writeln(X)) :- [k: a] ? tag(a, yes).
        """)
        engine.consult_text("go :- hello(world).", filename="two")
        assert engine.run("go")
        assert engine.solver.out.getvalue() == "world\n"

    ARITHMETIC = """
        [d: X, (W is X * 2) @ W] # p(double).
        [d: X, X > 3] # p(big).
        [d: X] # p(plain).
    """

    def test_arithmetic_in_context_rules_scores_and_guards(self):
        engine = Engine(prelude=False)
        engine.consult_text(self.ARITHMETIC)
        _, report = engine.explain("[d: 5] ? p(R)")
        assert [score for _, score, _ in report] == [11, 1, 1]
        assert [s.render("R") for s in engine.query("[d: 5] ? p(R)")] \
            == ["double"]
        _, report = engine.explain("[d: 0] ? p(R)")
        assert [(score, reason) for _, score, reason in report] == \
            [(1, None), (None, "context rules failed"), (1, None)]
        assert [s.render("R") for s in engine.query("[d: 0] ? p(R)")] \
            == ["double", "plain"]

    def test_context_rules_compile_to_goal_entries(self):
        engine = Engine(prelude=False)
        engine.consult_text(self.ARITHMETIC)
        engine.explain("[d: 5] ? p(R)")
        double, big, _ = engine.kb.signatures_for("p", 1)
        kinds = [[entry[1] for entry in sig.compiled[0]] for sig in (double, big)]
        # is/2 and a comparison each make a run of arithmetic
        assert kinds == [[solver.E_NONDET, solver.E_ARITH],
                         [solver.E_NONDET, solver.E_ARITH]]

    def test_a_hook_call_counts_one_inference(self):
        # the call of the hook's goal, its clause and the fact's body true,
        # then the query's rewritten goal true
        engine = Engine(prelude=False)
        engine.consult_text("hook_mdp_term(_, hi, true).")
        assert engine.run("hi")
        assert engine.solver.inferences == 4

    def test_a_goal_bearing_step_keeps_its_inference_count(self):
        engine = Engine(prelude=False)
        engine.consult_text("""
            ok.
            [n: _, ok @ 0] # gsum(0, A, A).
            [n: _, ok @ 0] # gsum(N, A, S) :- N > 0, A1 is A + N,
                N1 is N - 1, [n: N1] ? gsum(N1, A1, S).
        """)
        [sol] = engine.query("[n: 200] ? gsum(200, 0, S)", max_solutions=1)
        assert sol.render("S") == "20100"
        assert engine.solver.inferences == 4213


class TestDimensionOnly:
    """Specifications the context's key set alone can score."""

    # a hook that writes a ctx_member/3 goal writes a precondition, not
    # a name: Coord entry, so the name is no required dimension
    HAS = "hook_context_rule_mdp_term(C, has(N), ctx_member(C, N, _)).\n"

    @pytest.mark.parametrize("spec, dimension_only, required", [
        ("[]", True, ()),
        ("[d: X]", True, ("d",)),
        ("[predicate: P, d: X]", True, ("predicate", "d")),
        ("[d: X, e: X]", False, ("d", "e")),
        ("[d: foo]", False, ("d",)),
        ("[d: f(X)]", False, ("d",)),
        ("[g@1]", False, ()),
        ("[ready]", False, ()),
        ("[has(n)]", False, ()),
        ("[n: X, has(n)]", False, ("n",)),
    ])
    def test_classification(self, spec, dimension_only, required):
        engine = Engine(prelude=False)
        engine.consult_text(self.HAS + "%s # p." % spec)
        [sig] = engine.kb.signatures_for("p", 0)
        assert sig.dimension_only is dimension_only
        assert sig.required_dims == required

    def test_a_hook_written_precondition_runs_as_a_goal(self):
        engine = Engine(prelude=False)
        engine.consult_text(self.HAS + "[has(n)] # q.")
        _, [(sig, score, reason)] = engine.explain("[m: 1] ? q")
        assert (score, reason) == (None, "context rules failed")
        assert engine.explain("[n: 1] ? q")[1] == [(sig, 0, None)]

    @given(st.lists(st.tuples(
        st.sampled_from(["d0", "d1", "d2", "e", "-d0", "-d1"]),
        st.sampled_from(["a", "1", "f(x)", "_"])), max_size=6))
    def test_scores_equal_those_of_the_goal_bearing_twin(self, given_ctx):
        engine = Engine(prelude=False)
        engine.consult_text(TWINS)
        assert [s.dimension_only for s in engine.kb.signatures_for("p", 1)] \
            == [True] * 4
        assert [s.dimension_only for s in engine.kb.signatures_for("q", 1)] \
            == [False] * 4
        entries = ", ".join(name if name.startswith("-")
                            else "%s: %s" % (name, coord)
                            for name, coord in given_ctx)
        fast = engine.explain("[%s] ? p(_)" % entries)[1]
        slow = engine.explain("[%s] ? q(_)" % entries)[1]
        assert [(score, reason) for _, score, reason in fast] == \
            [(score, reason) for _, score, reason in slow]

    def test_a_dispatched_step_spends_no_inference_on_scoring(self):
        engine = Engine(prelude=False)
        engine.consult_text("""
            [] # dsum(0, A, A).
            [] # dsum(N, A, S) :- N > 0, A1 is A + N, N1 is N - 1,
                [] ? dsum(N1, A1, S).
        """)
        assert [s.render("S") for s in engine.query("[] ? dsum(100, 0, S)")] \
            == ["5050"]
        # 1,108 when each empty specification was solved while scoring
        assert engine.solver.inferences == 906


TWINS = """
[d0: X, d1: Y] # p(a).
[d0: X] # p(b).
[] # p(c).
[predicate: P, d2: Z] # p(d).
[d0: X, d1: Y, true] # q(a).
[d0: X, true] # q(b).
[true] # q(c).
[predicate: P, d2: Z, true] # q(d).
"""


def explain_winners(engine, query):
    """Labels of the top-scoring candidates in explain, definition order."""
    _, report = engine.explain(query)
    best = max(score for _, score, _ in report if score is not None)
    return [sig.label() for sig, score, _ in report if score == best]


def traced_winners(engine, query, indicator):
    """Labels on the `running` line --trace-dispatch writes for a query."""
    engine.solver.err = io.StringIO()
    engine.solver.trace_dispatch = True
    try:
        engine.query(query)
    finally:
        engine.solver.trace_dispatch = False
    prefix = "dispatch %s: running " % indicator
    lines = [line[len(prefix):] for line in engine.solver.err.getvalue().splitlines()
             if line.startswith(prefix)]
    assert len(lines) == 1
    return lines[0].split(", ")


def self_scores(engine):
    _, report = engine.explain("[mode: x] ? p(X)")
    return [score for _, score, _ in report]


class TestImplicitPropagation:
    def test_context_flows_through_nested_dispatch(self):
        engine = Engine(prelude=False)
        engine.consult_text("""
            [] # inner(plain).
            [flag: F] # inner(flagged(F)).
            [] # outer(X) :- ? inner(X).
        """)
        assert [s.render("X") for s in engine.query("[flag: on] ? outer(X)")] \
            == ["flagged(on)"]

    def test_removal_stops_propagation(self):
        engine = Engine(prelude=False)
        engine.consult_text("""
            [] # inner(plain).
            [flag: F] # inner(flagged(F)).
            [] # outer(X) :- [-flag] ? inner(X).
        """)
        assert [s.render("X") for s in engine.query("[flag: on] ? outer(X)")] \
            == ["plain"]

    def test_predicate_dimension_names_the_current_goal(self):
        engine = Engine(prelude=False, out=io.StringIO())
        engine.consult_text("""
            [] # outer :- ? probe.
            [predicate: P] # probe :- writeln(P).
        """)
        assert len(engine.query("? outer")) == 1
        assert engine.solver.out.getvalue() == "probe\n"
