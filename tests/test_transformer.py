import pytest

from mdprolog import Engine, TransformError
from mdprolog.reader import parse_term
from mdprolog.terms import NIL, Atom, Struct, Var, make_list, proper_list
from mdprolog.transformer import expand_source_item, phase1_rewrite


@pytest.fixture
def engine():
    return Engine(prelude=False)


def read(engine, text):
    term, _ = parse_term(text, engine.kb.optable)
    return term


def expand(engine, text):
    return expand_source_item(engine, read(engine, text), "<test>", 1)


def flatten(body):
    """Flatten a right-nested conjunction into a list of goals."""
    goals = []
    while isinstance(body, Struct) and body.functor == "," and len(body.args) == 2:
        goals.append(body.args[0])
        body = body.args[1]
    goals.append(body)
    return goals


class TestContextRule:
    RULE = "[debug: P, weight(debug, D)@D] # edge(A, B) :- " \
           "[-debug] ? edge(A, B), call(P, (A, B))."

    def test_signature_shape(self, engine):
        clauses, sig = expand(engine, self.RULE)
        assert sig is not None
        assert sig.name == "edge" and sig.arity == 2
        assert sig.required_dims == ("debug",)
        assert len(sig.score_vars) == 1
        assert len(sig.rules) == 2
        dim_rule, weight_rule = sig.rules
        assert dim_rule.functor == "ctx_member" and len(dim_rule.args) == 3
        assert dim_rule.args[0] is sig.ctx_var
        assert dim_rule.args[1] == Atom("debug")
        assert weight_rule.functor == "weight"
        assert weight_rule.args[1] is sig.score_vars[0]

    def test_impl_clause_shape(self, engine):
        clauses, sig = expand(engine, self.RULE)
        assert len(clauses) == 1
        head, body = clauses[0]
        assert head.functor == sig.impl_name
        assert len(head.args) == 3          # context + the two head args
        assert head.args[0] is sig.ctx_var

        goals = flatten(body)
        # dimension binding runs first, then the rewritten body
        assert goals[0].functor == "ctx_member"
        dispatch = goals[-2]
        assert dispatch.functor == "$dispatch"
        assert dispatch.args[0] is sig.ctx_var
        assert proper_list(dispatch.args[1]) == [Struct("-", (Atom("debug"),))]
        assert dispatch.args[2].functor == "edge"
        assert goals[-1].functor == "call"

    def test_weight_entry_is_not_a_precondition(self, engine):
        clauses, sig = expand(engine, self.RULE)
        _, body = clauses[0]
        functors = [g.functor for g in flatten(body) if isinstance(g, Struct)]
        assert "weight" not in functors     # scored at dispatch, not re-run

    def test_implementation_names_are_distinct(self, engine):
        _, sig1 = expand(engine, "[a: 1] # p(X).")
        _, sig2 = expand(engine, "[a: 2] # p(X).")
        assert sig1.impl_name != sig2.impl_name


class TestAnonymousRule:
    def test_list_head_becomes_anonymous(self, engine):
        clauses, sig = expand(engine, "[debug: P] :- writeln(hi).")
        assert sig.anonymous
        assert sig.arity == 0
        head, _ = clauses[0]
        assert len(head.args) == 1          # the context alone

    def test_plain_clause_is_untouched(self, engine):
        term = read(engine, "p(X) :- q(X).")
        clauses, sig = expand_source_item(engine, term)
        assert sig is None
        assert clauses == [(term.args[0], term.args[1])]


class TestSpecEntries:
    def test_removal_is_rejected_in_a_rule_spec(self, engine):
        with pytest.raises(TransformError):
            expand(engine, "[-debug] # p(X).")

    def test_plain_goal_entry_is_a_precondition(self, engine):
        clauses, sig = expand(engine, "[guard(on)] # p(X).")
        assert sig.required_dims == ()
        assert sig.rules[0].functor == "guard"
        _, body = clauses[0]
        assert flatten(body)[0].functor == "guard"

    def test_variable_entry_passes_through(self, engine):
        _, sig = expand(engine, "[Cond] # p(X).")
        assert isinstance(sig.rules[0], Var)

    def test_non_list_spec_is_rejected(self, engine):
        with pytest.raises(TransformError):
            expand(engine, "foo # p(X).")


class TestDispatchRewrite:
    def rewrite(self, engine, text):
        ctx = Var("Ctx")
        return phase1_rewrite(engine, read(engine, text), ctx, 0), ctx

    def test_bare_question_mark(self, engine):
        out, ctx = self.rewrite(engine, "? p(X)")
        assert out.functor == "$dispatch"
        assert out.args[0] is ctx
        assert out.args[1] is NIL
        assert out.args[2].functor == "p"

    def test_given_context(self, engine):
        out, _ = self.rewrite(engine, "[mode: fast] ? p(X)")
        given = proper_list(out.args[1])
        assert len(given) == 1 and given[0].functor == ":"

    def test_nested_dispatch_merges_inner_first(self, engine):
        out, _ = self.rewrite(engine, "[outer: 1] ? ([inner: 2] ? p)")
        given = proper_list(out.args[1])
        names = [e.args[0].name for e in given]
        assert names == ["inner", "outer"]
        assert out.args[2] == Atom("p")

    def test_open_inner_tail_with_outer_entries_is_rejected(self, engine):
        ctx = Var("Ctx")
        inner = Struct("?", (make_list([Atom("a")], Var("T")), Atom("p")))
        outer = Struct("?", (make_list([Atom("b")]), inner))
        with pytest.raises(TransformError):
            phase1_rewrite(engine, outer, ctx, 0)

    def test_rewrite_descends_into_control(self, engine):
        out, _ = self.rewrite(engine, "(? p ; \\+ (? q))")
        assert out.args[0].functor == "$dispatch"
        assert out.args[1].args[0].functor == "$dispatch"

    def test_rewrite_leaves_plain_goals_alone(self, engine):
        term = read(engine, "q(X), r(Y)")
        assert phase1_rewrite(engine, term, Var("Ctx"), 0) == term

    def test_variables_and_numbers_bypass_rewriting(self, engine):
        v = Var("G")
        assert phase1_rewrite(engine, v, Var("Ctx"), 0) is v


class TestPlainRules:
    """Outside any ``#`` rule, a body dispatches in the empty context."""

    def test_a_plain_rule_dispatches(self, engine):
        engine.consult_text("[] # h(2).\np(X) :- [] ? h(X).")
        assert [s.render("X") for s in engine.query("p(X)")] == ["2"]

    def test_hooks_get_the_empty_context_in_a_plain_rule(self, engine):
        engine.consult_text("""
            hook_mdp_term(Ctx, where(W), W = Ctx).
            p(W) :- where(W).
        """)
        assert [s.render("W") for s in engine.query("p(W)")] == ["[]"]

    def test_the_body_of_a_fact_is_not_rewritten(self, engine):
        engine.consult_text("""
            hook_mdp_term(_, true, fail).
            fact.
            rule :- true.
        """)
        # call/1 of a variable goal passes the hook by
        assert engine.run("G = fact, call(G)")
        assert not engine.run("G = rule, call(G)")

    def test_a_body_of_any_length_rewrites(self, engine):
        goals = ", ".join("X%d = %d" % (i, i) for i in range(10_000))
        engine.consult_text("p(X0) :- %s.\n[] # q(X0) :- %s.\n"
                            % (goals, goals))
        assert engine.run("p(0), [] ? q(0), %s" % goals)

    def test_a_hook_with_a_variable_pattern_sees_every_goal(self, engine):
        engine.consult_text("""
            hook_mdp_term(_, G, new) :- G == old.
            new.
            p :- true, old.
        """)
        assert engine.run("p")

    def test_a_hook_that_keeps_growing_a_goal_is_an_error(self, engine):
        with pytest.raises(TransformError, match="exceeded depth"):
            engine.consult_text("""
                hook_mdp_term(_, grow, (grow, true)).
                p :- grow.
            """)


class TestTermHook:
    def test_hook_rewrites_before_dispatch(self):
        import io
        engine = Engine(prelude=False, out=io.StringIO())
        engine.consult_text("""
            hook_mdp_term(_, send(R, M), [rcvr: R] ? M).
            [rcvr: R] # ping :- writeln(R).
            [flag: 1] # relay :- send(server, ping).
        """)
        assert len(engine.query("[flag: 1] ? relay")) == 1
        assert engine.out.getvalue() == "server\n"

    def test_runaway_hook_is_cut_off(self):
        engine = Engine(prelude=False)
        engine.consult_text("hook_mdp_term(_, spin(X), spin(s(X))).")
        with pytest.raises(TransformError):
            expand(engine, "[mode: 1] # p :- spin(zero).")
