import pytest
from hypothesis import assume, given, strategies as st

from mdprolog import solver, terms
from mdprolog.kb import Clause
from mdprolog.terms import (
    RESOLVE_DEPTH_LIMIT,
    TRUE,
    Atom,
    BindingStore,
    MdpError,
    NIL,
    Slot,
    Struct,
    Var,
    arg_builder,
    build,
    compare_terms,
    compile_terms,
    head_matcher,
    make_list,
    proper_list,
    rename_term,
    resolve,
    unify,
)
from variants import variant_of


def atoms():
    return st.sampled_from(["a", "b", "foo", "bar", "[]", "hello world"]).map(Atom)


def ground_terms(depth=3):
    base = st.one_of(
        atoms(),
        st.integers(min_value=-1000, max_value=1000),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
    )
    def extend(children):
        return st.tuples(
            st.sampled_from(["f", "g", "+", "."]),
            st.lists(children, min_size=1, max_size=3),
        ).map(lambda t: Struct(t[0], tuple(t[1])))
    return st.recursive(base, extend, max_leaves=10)


class TestAtoms:
    def test_interned(self):
        assert Atom("foo") is Atom("foo")
        assert Atom("foo") is not Atom("bar")

    def test_nil_is_the_empty_list_atom(self):
        assert NIL is Atom("[]")


class TestUnify:
    def test_var_binds(self):
        store = BindingStore()
        x = Var("X")
        assert unify(x, Atom("a"), store)
        assert store.deref(x) is Atom("a")

    def test_struct_args_unify_pairwise(self):
        store = BindingStore()
        x, y = Var(), Var()
        assert unify(Struct("f", (x, Atom("b"))), Struct("f", (Atom("a"), y)), store)
        assert store.deref(x) is Atom("a")
        assert store.deref(y) is Atom("b")

    def test_functor_mismatch_fails_without_residue(self):
        store = BindingStore()
        x = Var()
        assert not unify(Struct("f", (x, Atom("b"))), Struct("g", (Atom("a"), Atom("b"))), store)
        assert store.deref(x) is x

    def test_partial_failure_rolls_back(self):
        store = BindingStore()
        x = Var()
        ok = unify(Struct("f", (x, Atom("b"))), Struct("f", (Atom("a"), Atom("c"))), store)
        assert not ok
        assert store.deref(x) is x

    def test_int_and_float_do_not_unify(self):
        store = BindingStore()
        assert not unify(1, 1.0, store)
        assert unify(1, 1, store)

    def test_occurs_check_flag(self):
        x = Var()
        cyclic = Struct("f", (x,))
        assert unify(x, cyclic, BindingStore())  # off by default
        assert not unify(x, cyclic, BindingStore(), occurs_check=True)

    @given(ground_terms())
    def test_ground_term_unifies_with_itself(self, t):
        assert unify(t, t, BindingStore())

    @given(ground_terms())
    def test_fresh_var_takes_any_ground_term(self, t):
        store = BindingStore()
        v = Var()
        assert unify(v, t, store)
        assert compare_terms(store.deref(v), t, store) == 0


class TestTrail:
    def test_undo_to_mark(self):
        store = BindingStore()
        x, y = Var(), Var()
        store.bind(x, Atom("a"))
        mark = store.mark()
        store.bind(y, Atom("b"))
        store.undo_to(mark)
        assert store.deref(x) is Atom("a")
        assert store.deref(y) is y

    def test_only_a_variable_older_than_the_last_mark_is_trailed(self):
        store = BindingStore()
        old = Var()
        mark = store.mark()
        new = Var()
        store.bind(new, 1)
        store.bind(old, 2)
        assert store.trail[mark:] == [old]
        store.undo_to(mark)
        assert store.deref(old) is old

    def test_a_binding_is_seen_only_by_its_store(self):
        x = Var()
        mine, other = BindingStore(), BindingStore()
        assert unify(x, Atom("a"), mine)
        assert other.deref(x) is x
        assert resolve(Struct("f", (x,)), other).args[0] is x


class TestCompare:
    def test_standard_order_of_types(self):
        # variables < numbers < atoms < compounds
        v = Var()
        assert compare_terms(v, 1) == -1
        assert compare_terms(1, Atom("a")) == -1
        assert compare_terms(Atom("a"), Struct("f", (Atom("a"),))) == -1

    def test_compounds_by_arity_then_functor_then_args(self):
        assert compare_terms(Struct("z", (1,)), Struct("a", (1, 2))) == -1
        assert compare_terms(Struct("a", (1,)), Struct("b", (1,))) == -1
        assert compare_terms(Struct("a", (1,)), Struct("a", (2,))) == -1

    def test_deep_terms_compare_without_recursion(self):
        a, b = Atom("a"), Atom("b")
        for _ in range(50_000):
            a, b = Struct("f", (a,)), Struct("f", (b,))
        assert compare_terms(a, b) == -1

    def test_two_cyclic_terms_are_too_deep_to_compare(self):
        store = BindingStore()
        x, y = Var(), Var()
        assert unify(x, Struct("f", (x,)), store)
        assert unify(y, Struct("f", (y,)), store)
        with pytest.raises(MdpError, match="term too deep while comparing"):
            compare_terms(x, y, store)
        assert compare_terms(x, x, store) == 0

    @given(ground_terms(), ground_terms())
    def test_antisymmetric(self, a, b):
        assert compare_terms(a, b) == -compare_terms(b, a)

    @given(ground_terms(), ground_terms(), ground_terms())
    def test_transitive(self, a, b, c):
        if compare_terms(a, b) <= 0 and compare_terms(b, c) <= 0:
            assert compare_terms(a, c) <= 0


class TestCopying:
    def test_rename_keeps_sharing(self):
        x = Var("X")
        t = Struct("f", (x, x))
        copy = rename_term(t, BindingStore())
        assert copy.args[0] is copy.args[1]
        assert copy.args[0] is not x

    def test_variant_of(self):
        x, y = Var(), Var()
        assert variant_of(Struct("f", (x, x)), Struct("f", (y, y)))
        assert not variant_of(Struct("f", (x, x)), Struct("f", (x, y)))

    def test_resolve_substitutes_deep(self):
        store = BindingStore()
        x, y = Var(), Var()
        store.bind(x, Struct("g", (y,)))
        store.bind(y, 1)
        assert compare_terms(resolve(Struct("f", (x,)), store),
                             Struct("f", (Struct("g", (1,)),))) == 0


def compiled(term, store):
    """The template of one term; ``compile_terms`` follows no bindings."""
    return compile_terms((term,))[0][0]


COPIERS = [resolve, rename_term, compiled]


def cyclic_list(prefix, cycle):
    """[0, .., prefix - 1 | L] where L = [0, .., cycle - 1 | L].

    The last cell is pointed back by the slot descriptor, as no binding
    can be, so that ``compile_terms`` meets the cycle too.
    """
    loop = last = make_list(range(cycle))
    while last.args[1] is not NIL:
        last = last.args[1]
    Struct.args.__set__(last, (last.args[0], loop))
    return make_list(range(prefix), loop)


class TestResolve:
    """The one copy walk, through each entry point: resolve, rename_term
    and compile_terms."""

    @pytest.mark.parametrize("copy", COPIERS, ids=lambda f: f.__name__)
    def test_a_list_longer_than_the_depth_limit_resolves(self, copy):
        store = BindingStore()
        n = RESOLVE_DEPTH_LIMIT + 50_000
        tail, x, y = Var(), Var(), Var("Y")
        assert unify(tail, make_list([x, y]), store)
        assert unify(x, 1, store)
        copied = copy(make_list(range(n), tail), store)
        items = []
        while getattr(copied, "functor", None) == ".":  # Struct or Skeleton
            items.append(copied.args[0])
            copied = copied.args[1]
        assert items[:n] == list(range(n))
        if copy is compiled:    # follows no bindings: the tail is a slot
            assert len(items) == n and isinstance(copied, Slot)
        else:                   # [1, Y], Y itself or renamed
            assert copied is NIL and items[n] == 1 and len(items) == n + 2
            assert isinstance(items[n + 1], Var)
            assert (items[n + 1] is y) == (copy is resolve)

    # the resolve cases keep the ids they had before the other entry points
    @pytest.mark.parametrize("copy, prefix, cycle", [
        pytest.param(c, p, n, id="-".join(
            ([] if c is resolve else [c.__name__]) + [str(p), str(n)]))
        for c in COPIERS for p, n in [(0, 1), (0, 2), (3, 5), (1, 64)]])
    def test_a_cyclic_list_is_an_error(self, copy, prefix, cycle):
        with pytest.raises(MdpError, match="cyclic"):
            copy(cyclic_list(prefix, cycle), BindingStore())

    @pytest.mark.parametrize("copy", COPIERS, ids=lambda f: f.__name__)
    def test_what_is_not_changed_is_shared(self, copy):
        store, x = BindingStore(), Var("X")
        assert unify(x, 1, store)
        ground = Struct("g", (make_list([1, Atom("a")]),))
        items = make_list([x, ground, 2])
        copied = copy(Struct("f", (Var("Y"), ground, items)), store)
        assert copied.args[1] is ground
        # a list keeps its cells from the last changed one on
        assert copied.args[2] is not items
        assert copied.args[2].args[1] is items.args[1]


    @pytest.mark.parametrize("copy", COPIERS, ids=lambda f: f.__name__)
    def test_a_shared_subterm_is_copied_once(self, copy):
        store, x = BindingStore(), Var("X")
        assert unify(x, 1, store)
        term = Struct("g", (x,))
        for _ in range(16):
            term = Struct("f", (term, term))
        copied = copy(term, store)
        assert copied is not term
        for _ in range(16):
            assert copied.args[0] is copied.args[1]
            copied = copied.args[0]

    @pytest.mark.parametrize("copy", [resolve, rename_term],
                             ids=lambda f: f.__name__)
    def test_a_cycle_through_a_shared_subterm_is_too_deep(self, copy):
        store, x = BindingStore(), Var("X")
        assert unify(x, Struct("f", (x, x)), store)
        with pytest.raises(MdpError, match="term too deep"):
            copy(x, store)


class TestLists:
    def test_round_trip(self):
        items = [Atom("a"), 1, Struct("f", (Atom("b"),))]
        assert proper_list(make_list(items)) == items

    def test_improper_list_is_not_proper(self):
        assert proper_list(Struct(".", (Atom("a"), Atom("b")))) is None
        assert proper_list(make_list([Atom("a")], tail=Var())) is None


CONSTANTS = [Atom("a"), Atom("b"), NIL, 1, 1.0, 2]
FUNCTORS = ["f", "g", "."]


def shapes(depth=3):
    """Term shapes whose ("var", i) leaves stand for the i-th variable."""
    base = st.one_of(
        st.sampled_from(CONSTANTS),
        st.integers(0, 3).map(lambda i: ("var", i)),
    )

    def extend(children):
        return st.tuples(st.sampled_from(FUNCTORS),
                         st.lists(children, min_size=1, max_size=3))
    return st.recursive(base, extend, max_leaves=8)


def one_change(shape):
    """The shapes that differ from shape at one node that is not a
    variable: a functor, an arity or a constant changed there."""
    if isinstance(shape, tuple) and shape[0] == "var":
        return
    if not isinstance(shape, tuple):
        for c in CONSTANTS:
            if type(c) is not type(shape) or c != shape:
                yield c
        return
    functor, children = shape
    for other in FUNCTORS:
        if other != functor:
            yield other, children
    if len(children) > 1:
        yield functor, children[:-1]
    yield functor, children + [Atom("a")]
    for i, child in enumerate(children):
        for changed in one_change(child):
            yield functor, children[:i] + [changed] + children[i + 1:]


def instantiate(shape, pool, prefix):
    if isinstance(shape, tuple) and shape[0] == "var":
        i = shape[1]
        if i not in pool:
            pool[i] = Var("%s%d" % (prefix, i))
        return pool[i]
    if isinstance(shape, tuple):
        return Struct(shape[0], [instantiate(s, pool, prefix) for s in shape[1]])
    return shape


def same_answer(a, b, goal_vars, fresh):
    """Equal terms, where goal variables must be identical and the other
    variables correspond one to one and carry the same names."""
    if isinstance(a, Var) or isinstance(b, Var):
        if a in goal_vars or b in goal_vars:
            return a is b
        if not (isinstance(a, Var) and isinstance(b, Var)) or a.name != b.name:
            return False
        return fresh.setdefault(a, b) is b
    if isinstance(a, Struct) and isinstance(b, Struct):
        return (a.functor == b.functor and len(a.args) == len(b.args)
                and all(same_answer(x, y, goal_vars, fresh)
                        for x, y in zip(a.args, b.args)))
    return type(a) is type(b) and a == b


class TestTemplates:
    def test_ground_compounds_stay_shared(self):
        x = Var("X")
        ground = make_list([Atom("a"), Struct("f", (1,))])
        (template,), size = compile_terms((Struct("p", (ground, x, x)),))
        assert size == 1
        assert template.args[0] is ground
        assert template.args[1] is template.args[2]
        assert compile_terms((ground,)) == ((ground,), 0)

    def test_a_body_variable_is_built_fresh_once(self):
        x, y = Var("X"), Var("Y")
        (head, body), size = compile_terms(
            (Struct("p", (x,)), Struct("q", (x, y, y))))
        frame = [None] * size
        assert head_matcher(head.args)((Atom("a"),), frame, BindingStore(), False)
        built = build(body, frame)
        assert built.args[0] is Atom("a")
        assert built.args[1] is built.args[2]
        assert built.args[1] is not y and built.args[1].name == "Y"

    @given(st.lists(st.tuples(shapes(), shapes()), min_size=1, max_size=3),
           shapes(), st.booleans())
    def test_match_then_build_agrees_with_rename_then_unify(
            self, arg_shapes, body_shape, occurs_check):
        clause_vars, goal_vars = {}, {}
        head = Struct("h", [instantiate(h, clause_vars, "H") for h, _ in arg_shapes])
        body = instantiate(body_shape, clause_vars, "H")
        goal = Struct("h", [instantiate(g, goal_vars, "G") for _, g in arg_shapes])
        agrees(head, body, goal, occurs_check)

    @given(st.lists(shapes(), min_size=1, max_size=3), st.data(),
           st.booleans())
    def test_a_goal_that_differs_from_the_head_at_one_node_fails(
            self, arg_shapes, data, occurs_check):
        # the goal has the head's shape but for one functor, arity or
        # constant, so every check of the matcher is needed to refuse it
        changes = [arg_shapes[:i] + [changed] + arg_shapes[i + 1:]
                   for i, shape in enumerate(arg_shapes)
                   for changed in one_change(shape)]
        assume(changes)
        goal_shapes = data.draw(st.sampled_from(changes))
        head = instantiate(("h", arg_shapes), {}, "H")
        goal = instantiate(("h", goal_shapes), {}, "G")
        assert not agrees(head, TRUE, goal, occurs_check)

    @pytest.mark.parametrize("occurs_check", [False, True])
    def test_heads_beyond_the_caps_match_as_unify_does(self, occurs_check):
        xs = [Var("X%d" % i) for i in range(1, 41)]
        deep = Struct("p", (make_list(xs), xs[-1]))     # p([X1, ..., X40], X40)
        ints = list(range(1, 41))
        body = Struct("b", tuple(xs))
        assert agrees(deep, body, Struct("p", (make_list(ints), Var("V"))),
                      occurs_check)
        assert agrees(deep, body, Struct("p", (Var("L"), Var("V"))), occurs_check)
        assert not agrees(deep, body, Struct("p", (make_list(ints[1:]), Var("V"))),
                          occurs_check)
        assert not agrees(deep, body, Struct("p", (make_list(ints), 7)),
                          occurs_check)
        z = Var("Z")
        assert agrees(deep, body, Struct("p", (make_list(ints[:20], z), z)),
                      occurs_check) != occurs_check   # Z = [21, ..., 40|Z]

        # p(X0, f(X0), a, 3, X4, f(X4), a, 7, ...): 100 arguments
        ys = [Var("Y%d" % i) for i in range(100)]
        pattern = [(y, Struct("f", (y,)), Atom("a"), 4 * i + 3)
                   for i, y in enumerate(ys[::4])]
        wide = Struct("q", tuple(t for group in pattern for t in group))
        values = [t for i in range(25)
                  for t in (i, Struct("f", (i,)), Atom("a"), 4 * i + 3)]
        body = Struct("b", tuple(ys[::4]))
        assert agrees(wide, body, Struct("q", tuple(values)), occurs_check)
        assert agrees(wide, body, Struct("q", tuple(Var("G%d" % i) for i in range(100))),
                      occurs_check)
        assert not agrees(wide, body, Struct("q", tuple(values[:-1]) + (1.0,)),
                          occurs_check)
        assert not agrees(wide, body, Struct("q", tuple(values[:-3]) + (
            Struct("f", (0,)), Atom("a"), 99)), occurs_check)

    def test_a_repeated_slot_in_a_built_skeleton_is_one_variable(self):
        x = Var("X")
        (head,), size = compile_terms((Struct("p", (Struct("f", (x, x)),)),))
        for occurs_check in (False, True):
            store, v, frame = BindingStore(), Var("V"), [None] * size
            assert head_matcher(head.args)((v,), frame, store, occurs_check)
            built = store.deref(v)
            assert built.functor == "f" and built.args[0] is built.args[1]
            assert built.args[0] is frame[0] and frame[0].name == "X"
            assert agrees(Struct("p", (Struct("f", (x, x)),)), x,
                          Struct("p", (v,)), occurs_check)

    def test_the_occurs_check_covers_a_built_skeleton(self):
        x, a = Var("X"), Var("A")
        for head, goal in [
                (Struct("p", (x, Struct("f", (x,)))), Struct("p", (a, a))),
                (Struct("p", (Struct("g", (x, Struct("f", (x,)))),)),
                 Struct("p", (Struct("g", (a, a)),)))]:
            assert agrees(head, x, goal, False)
            assert not agrees(head, x, goal, True)

    def test_numbers_match_by_type_and_value(self):
        for head_arg, goal_arg, ok in [(1, 1, True), (1, 1.0, False),
                                       (1.0, 1, False), (1.0, 1.0, True),
                                       (2, 1, False)]:
            for wrap in (lambda t: t, lambda t: Struct("f", (t, Var("X")))):
                head = Struct("p", (wrap(head_arg),))
                goal = Struct("p", (wrap(goal_arg),))
                assert agrees(head, TRUE, goal, True) is ok

    def test_a_cyclic_goal_argument_matches_as_a_rational_tree(self):
        store, x, y = BindingStore(), Var("X"), Var("Y")
        assert unify(x, Struct("f", (x,)), store)
        deep = y
        for _ in range(40):
            deep = Struct("f", (deep,))
        for head, ok in [(Struct("p", (deep, y)), True),
                         (Struct("p", (Struct("f", (Struct("f", (y,)),)), y)), True),
                         (Struct("p", (Struct("f", (Atom("a"),)), y)), False),
                         (Struct("p", (y, Struct("g", (y,)))), False)]:
            (template,), size = compile_terms((head,))
            for occurs_check in (False, True):
                mark = store.mark()
                frame = [None] * size
                assert head_matcher(template.args)(
                    (x, x), frame, store, occurs_check) is ok
                if ok:
                    assert store.deref(frame[0]) is store.deref(x)
                store.undo_to(mark)

    def test_heads_of_one_shape_share_one_matcher(self):
        clauses = [Clause(Struct("fact", (k, Atom("v%d" % k))), TRUE)
                   for k in range(5000)]
        matchers = [clause.compile()[0] for clause in clauses]
        assert len({match.__code__ for match in matchers}) == 1
        store, v = BindingStore(), Var("V")
        assert matchers[17]((17, v), [], store, False)
        assert store.deref(v) is Atom("v17")
        assert not matchers[18]((17, Var("W")), [], store, False)
        assert not matchers[17]((17.0, Var("W")), [], store, False)

    def test_builders_agree_with_build_beyond_their_caps(self):
        xs = [Var("X%d" % i) for i in range(100)]
        deep = xs[0]
        for i in range(50):
            deep = Struct("f", (deep, xs[i % 7]))
        shared = Struct("g", (xs[1], xs[2]))
        for _ in range(8):      # 2**8 leaves, shared
            shared = Struct("s", (shared, shared))
        goal = Struct("q", (make_list(xs), deep, xs[3], shared, Atom("a")))
        (head, body), size = compile_terms((Struct("p", (xs[3],)), goal))
        known = {head.args[0].index}
        for args in (body.args, body.args[1:], body.args[::-1]):
            frame = [None] * size
            frame[head.args[0].index] = Atom("v")
            put_frame = list(frame)
            built = arg_builder(args, set(known))(put_frame)
            expected = tuple(build(t, frame) for t in args)
            assert same_answer(Struct("r", built), Struct("r", expected),
                               set(), {})
            # the same slots get variables, made in the same order
            assert made_order(put_frame) == made_order(frame)

    def test_goals_of_one_shape_share_one_builder(self):
        x = Var("X")
        builders = []
        for k in range(50):
            (head, body), _ = compile_terms((
                Struct("p", (x,)), Struct("q", (Struct("f", (k, x)), Atom("a%d" % k),
                                                Var("Y")))))
            builders.append(arg_builder(body.args, {head.args[0].index}))
        assert len({put.__code__ for put in builders}) == 1
        frame = [7, None]
        built = builders[17](frame)
        assert built[0].args == (17, 7) and built[1] is Atom("a17")
        assert built[2] is frame[1] and built[2].name == "Y"

    def test_arith_runs_of_one_shape_share_one_function(self):
        x, y, w, z = Var("X"), Var("Y"), Var("W"), Var("Z")
        runs = []
        for k in range(50):
            a, b = (x, y) if k % 2 else (y, x)
            body = terms.conj([Struct(">", (a, k)),
                               Struct("is", (z, Struct("+", (b, k)))),
                               Struct("=<", (z, w))])
            _, entries, size, _ = Clause(Struct("p", (x, y, w)), body).compile()
            [(_, code, run, _)] = entries
            assert code is solver.E_ARITH and size == 4
            runs.append(run)
        assert len({run.__code__ for run in runs}) == 1
        # each run reads its own constants and slots: X, Y, W, then Z
        for k, z_value in [(3, 23), (4, 14), (30, None)]:
            frame = [10, 20, 100, None]
            assert runs[k](None, BindingStore(), frame, lambda: None) is (
                z_value is not None)
            assert frame[3] == z_value

    @pytest.mark.parametrize("occurs_check", [False, True])
    def test_a_head_write_beyond_its_caps_makes_variables_in_build_order(
            self, occurs_check):
        x, y, z = Var("X"), Var("Y"), Var("Z")
        deep = x
        for _ in range(terms.MATCH_NODES + 2):
            deep = Struct("f", (deep,))
        for head, local in [(Struct("p", (Struct("g", (deep, y)),)), "x1"),
                            (Struct("p", (z, Struct("g", (y, deep, z)))), "x2"),
                            (Struct("p", (Struct("g", (y, z)),
                                          Struct("h", (deep, z)))), "x2")]:
            (template,), _ = compile_terms((head,))
            source = terms._HeadCode(template.args).source()
            assert "if not unify(%s, build(" % local in source
            goal = Struct("p", tuple(Var("G%d" % i)
                                     for i in range(len(head.args))))
            assert agrees(head, Struct("b", (x, y, z)), goal, occurs_check)
        # a slot beyond that has a value already is left to build to read
        head = Struct("p", (x, Struct("g", (y, deep, z))))
        (template,), _ = compile_terms((head,))
        source = terms._HeadCode(template.args).source()
        assert "if not unify(x2, build(" not in source
        assert "t = new_struct(" in source and "build(" in source
        assert agrees(head, Struct("b", (x, y, z)), Struct("p", (1, Var("G"))),
                      occurs_check)

    def test_a_head_write_leaves_the_match_its_budget(self):
        # the write and the match of a compound argument are alternatives
        xs = tuple(Var("X%d" % i) for i in range(40))
        (template,), _ = compile_terms((Struct("p", (Struct("f", xs),)),))
        source = terms._HeadCode(template.args).source()
        assert "store.bind(x1, new_struct(" in source
        assert "build(" not in source

    @pytest.mark.parametrize("occurs_check", [False, True])
    def test_a_compound_below_a_compound_argument_is_matched_inline(
            self, occurs_check):
        x, y = Var("X"), Var("Y")
        head = Struct("p", (Struct("g", (Struct("f", (x, y)),
                                         Struct("k", (Atom("a"), y)))), x))
        body = Struct("b", (x, y))
        (template,), _ = compile_terms((head,))
        source = terms._HeadCode(template.args).source()
        # one write for each inner compound, in place in the flat code
        assert source.count("build(") == 2
        v, w = Var("V"), Var("W")
        f, k = Struct("f", (1, 2)), Struct("k", (Atom("a"), 2))
        for args, ok in [((f, k), True), ((f, v), True), ((v, k), True),
                         ((v, w), True), ((v, v), False),
                         ((Struct("h", (1, 2)), k), False),
                         ((Struct("f", (1,)), k), False),
                         ((f, Struct("k", (Atom("b"), 2))), False),
                         ((f, Struct("k", (Atom("a"), 3))), False)]:
            for last in (1, Var("Z")):
                goal = Struct("p", (Struct("g", args), last))
                assert agrees(head, body, goal, occurs_check) is ok

    def test_generated_code_nests_within_the_cap(self):
        f = Var("F")
        for _ in range(50):
            f = Struct("f", (f, Atom("a")))
        heads = [Struct("p", (make_list([Var("X%d" % i) for i in range(40)]),)),
                 Struct("p", (f, f)),
                 Struct("q", tuple(Struct("g", (Var("Y%d" % i),) * 3)
                                   for i in range(100)))]
        for head in heads:
            (template,), _ = compile_terms((head,))
            lines = terms._HeadCode(template.args).source().splitlines()
            # the two functions and a compound argument; a test's body
            # shares its line
            indents = {(len(line) - len(line.lstrip())) // 4 for line in lines}
            assert max(indents) <= 3


def made_order(frame, store=terms._EMPTY_STORE, newest=0):
    """The slots whose value, dereferenced, is an unbound variable newer
    than the variable of serial newest, oldest variable first."""
    values = [store.deref(v) for v in frame]
    return sorted((i for i, v in enumerate(values)
                   if isinstance(v, Var) and v.serial > newest),
                  key=lambda i: values[i].serial)


def term_vars(term):
    found, stack = set(), [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            found.add(t)
        elif isinstance(t, Struct):
            stack.extend(t.args)
    return found


def agrees(head, body, goal, occurs_check):
    """Whether goal matches the clause head :- body, checked to agree with
    renaming the clause and unifying.

    Both the generated matcher of the head's arguments and the reference,
    ``build`` of each argument template and ``unify`` with its term, are
    checked: the same success and, with the occurs check, the same answer
    (without it the answer may be cyclic), and on success the same order
    of the new variables left unbound in the frame.
    The body is made both by ``build`` and by the builder generated for
    it, which knows the head's slots to be set.
    """
    old = BindingStore()
    mapping = {}
    renamed = rename_term(head, old, mapping)
    mark = old.mark()
    old_ok = unify(goal, renamed, old, occurs_check)
    checked = old_ok and occurs_check
    if checked:
        old_answer = resolve(
            Struct("r", (goal, rename_term(body, old, mapping))), old)
    # a variable holds one store's binding at a time, so the goal's
    # variables are freed before the new store binds them
    old.undo_to(mark)

    (head_t, body_t), size = compile_terms((head, body))

    def reference(args, frame, store, oc):
        return all(unify(build(t, frame), a, store, oc)
                   for t, a in zip(head_t.args, args))

    newest = max((v.serial for v in term_vars(goal)), default=0)
    orders = []     # the slots whose new variables each matcher left, by age
    for match in (head_matcher(head_t.args), reference):
        frame = [None] * size
        new = BindingStore()    # no mark: it trails every binding
        assert match(goal.args, frame, new, occurs_check) == old_ok
        orders.append(made_order(frame, new, newest))
        if checked:
            put_frame = list(frame)
            new_answer = resolve(Struct("r", (goal, build(body_t, frame))), new)
            assert same_answer(old_answer, new_answer, term_vars(goal), {})
            known = set(terms._first_slots(head_t.args))
            [put_body] = arg_builder((body_t,), known)(put_frame)
            put_answer = resolve(Struct("r", (goal, put_body)), new)
            assert same_answer(old_answer, put_answer, term_vars(goal), {})
        new.undo_to(0)
    if old_ok:      # a head's write mode makes them in the order of build
        assert orders[0] == orders[1]
    return old_ok
