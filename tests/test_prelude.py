import io
from collections import deque
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from mdprolog import BudgetExceeded, Engine, PrologThrow

SHAPES_EDGES = [
    ("shape", "rectangle"),
    ("rectangle", "special_rectangle"),
    ("shape", "circle"),
]


def shapes_engine():
    engine = Engine(out=io.StringIO())
    engine.consult_text(
        "\n".join("subtype(%s, %s)." % e for e in SHAPES_EDGES) + """
        [rcvr: S, S < shape] # representation(_) :- throw(abstract).
        [rcvr: R, R < rectangle] # representation(rect) :-
            R ! read(width, _).
        [rcvr: R, R < special_rectangle] # representation(special) :-
            R ! read(width, _).
    """)
    return engine


def chain_distance(frm, to, edges):
    """Steps from `frm` down the subtype edges to `to`, plus one."""
    dist = {frm: 1}
    queue = deque([frm])
    while queue:
        t = queue.popleft()
        for parent, child in edges:
            if parent == t and child not in dist:
                dist[child] = dist[t] + 1
                queue.append(child)
    return dist.get(to)


class TestTypeDistance:
    @pytest.mark.parametrize("frm,to", [
        (a, b) for a in {t for e in SHAPES_EDGES for t in e}
        for b in {t for e in SHAPES_EDGES for t in e}
    ])
    def test_matches_graph_search(self, frm, to):
        engine = shapes_engine()
        expected = chain_distance(frm, to, SHAPES_EDGES)
        got = engine.query("type_distance(%s, %s, N)" % (frm, to))
        if expected is None:
            assert got == []
        else:
            assert [s.render("N") for s in got] == [str(expected)]

    def test_max_distance_covers_the_longest_chain(self):
        engine = shapes_engine()
        assert engine.query("max_type_distance(D)")[0].render("D") == "3"

    def test_affinity_is_higher_for_closer_types(self):
        engine = shapes_engine()
        near = engine.query(
            "type_affinity(special_rectangle, special_rectangle, N)")
        far = engine.query("type_affinity(shape, special_rectangle, N)")
        assert int(near[0].render("N")) > int(far[0].render("N"))

    @given(st.integers(2, 6))
    def test_affinity_decreases_along_a_chain(self, depth):
        engine = Engine(prelude=True)
        names = ["t%d" % i for i in range(depth)]
        engine.consult_text("\n".join(
            "subtype(%s, %s)." % (a, b) for a, b in zip(names, names[1:])))
        leaf = names[-1]
        scores = [int(engine.query(
            "type_affinity(%s, %s, N)" % (t, leaf))[0].render("N"))
            for t in names]
        assert scores == sorted(scores)    # root scores lowest, leaf highest
        assert len(set(scores)) == depth   # strictly increasing


# type_distance/3, max_type_distance/1 and type_affinity/3 as they were
# when max_type_distance/1 walked every path between every (parent,
# child) pair of subtype/2, under other names.
PATH_WALK_SCORING = """
old_type_affinity(T, S, N) :-
  old_max_type_distance(D),
  old_type_distance(T, S, DistanceTS),
  N is D - DistanceTS + 1.

old_type_distance(T, T, 1).

old_type_distance(T, S, N) :-
  T \\= S,
  subtype(Parent, S),
  old_type_distance(T, Parent, N1),
  N is N1 + 1.

old_max_type_distance(D) :-
  findall(D, (
      subtype(T, _),
      subtype(_, S),
      old_type_distance(T, S, D)), Distances),
  max_list(Distances, D).
"""

TYPE_NAMES = ["t%d" % i for i in range(12)]


@st.composite
def hierarchies(draw):
    """1-12 types in a random order, subtype/2 facts, in random order,
    each from a type to a later one, so that they make no cycle, and two
    of the types."""
    names = draw(st.permutations(TYPE_NAMES))[:draw(st.integers(1, 12))]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    facts = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=20)) if pairs else []
    return names, facts, draw(st.sampled_from(names)), draw(
        st.sampled_from(names))


def hierarchy_engine(names, facts, budget=None):
    engine = Engine(out=io.StringIO(), budget=budget)
    engine.consult_text("".join("subtype(%s, %s).\n" % f for f in facts)
                        + "".join("type(%s).\n" % t for t in names)
                        + PATH_WALK_SCORING)
    return engine


class TestAgainstThePathWalk:
    """The chain walk gives every answer the path walk gave, in order."""

    # type_distance/3 of every pair; type_affinity/3 of one pair, since
    # the path walk's takes up to 70,000 inferences a call
    QUERIES = [
        "findall(D, %smax_type_distance(D), L)",
        "findall(A-B-N, (type(A), type(B), %stype_distance(A, B, N)), L)",
        "findall(N, %stype_affinity({t}, {s}, N), L)",
    ]

    @settings(max_examples=60, deadline=None)
    @given(hierarchies())
    def test_every_answer_is_the_same(self, hierarchy):
        names, facts, t, s = hierarchy
        engine = hierarchy_engine(names, facts, budget=5_000_000)
        for query in self.QUERIES:
            query = query.format(t=t, s=s)
            [new] = engine.query(query % "")
            [old] = engine.query(query % "old_")
            assert new.render("L") == old.render("L"), query

    def test_no_facts_no_distance(self):
        engine = hierarchy_engine(["t0"], [])
        assert engine.query("max_type_distance(D)") == []
        assert engine.query("old_max_type_distance(D)") == []
        assert engine.query("type_affinity(t0, t0, N)") == []


class TestCyclicSubtypes:
    """A cycle has no longest chain."""

    def test_with_no_leaf_the_distance_fails(self):
        engine = hierarchy_engine(["a", "b"], [("a", "b"), ("b", "a")],
                                  budget=10_000)
        assert engine.query("max_type_distance(D)") == []
        assert engine.query("type_affinity(a, b, N)") == []

    def test_a_cycle_with_no_leaf_below_it_is_not_measured(self):
        engine = hierarchy_engine(
            ["a", "b", "x", "y"], [("a", "b"), ("b", "a"), ("x", "y")],
            budget=10_000)
        assert [s.render("D") for s in engine.query(
            "max_type_distance(D)")] == ["2"]

    def test_a_leaf_below_a_cycle_runs_until_the_budget(self):
        engine = hierarchy_engine(
            ["a", "b", "c"], [("a", "b"), ("b", "a"), ("b", "c")],
            budget=10_000)
        with pytest.raises(BudgetExceeded):
            engine.query("max_type_distance(D)")
        # as type_distance/3 does, as before, from a type the cycle
        # never reaches
        with pytest.raises(BudgetExceeded):
            engine.query("type_distance(c, a, N)")


class TestScoringCost:
    """The inferences of `<` scoring, so that a return to a walk over
    every path (946 and 165,633 inferences) fails here and not only in
    the benchmark."""

    def test_a_representation_send(self):
        engine = Engine(out=io.StringIO())
        engine.consult_text(resources.files("mdprolog").joinpath(
            "corpus", "programs", "shapes.mdp").read_text() +
            "data(obj(0), type, rectangle).\n"
            "data(obj(0), width, 3).\n"
            "data(obj(0), height, 4).\n"
            "data(obj(0), color, red).\n")
        [sol] = engine.query("obj(0) ! representation(R)")
        assert sol.render("R") == "rectangle(3, 4)"
        # at most 450
        assert engine.solver.inferences == 410

    def test_max_distance_on_a_binary_tree_of_60_types(self):
        engine = hierarchy_engine([], [
            ("t%d" % ((i - 1) // 2), "t%d" % i) for i in range(1, 60)])
        assert engine.query("max_type_distance(D)")[0].render("D") == "6"
        # at most 5,000
        assert engine.solver.inferences == 2326


class TestObjectProtocol:
    def test_write_then_read(self):
        engine = Engine(out=io.StringIO())
        engine.run("new_oid(O), O ! write(color, red)")
        assert engine.query(
            "data(O, color, V), O = oid(1)")[0].render("V") == "red"

    def test_write_replaces_the_attribute(self):
        engine = Engine(out=io.StringIO())
        engine.run("new_oid(O), O ! write(n, 1), O ! write(n, 2)")
        sols = engine.query("oid(1) ! read(n, V)")
        assert [s.render("V") for s in sols] == ["2"]

    def test_a_plain_rule_sends_messages(self):
        engine = Engine(out=io.StringIO())
        engine.consult_text("q(C) :- O = obj(1), O ! write(color, red),"
                            " O ! read(color, C).")
        assert [s.render("C") for s in engine.query("q(C)")] == ["red"]

    def test_oids_are_fresh_and_sequential(self):
        engine = Engine(out=io.StringIO())
        sols = engine.query("new_oid(A), new_oid(B)")
        assert sols[0].render("A") == "oid(1)"
        assert sols[0].render("B") == "oid(2)"

    def test_clone_copies_every_attribute_to_a_new_object(self):
        engine = Engine(out=io.StringIO())
        engine.run("new_oid(O), O ! write(a, 1), O ! write(b, 2)")
        engine.run("oid(1) ! clone(C)")
        for attr, val in [("a", "1"), ("b", "2")]:
            assert engine.query(
                "oid(2) ! read(%s, V)" % attr)[0].render("V") == val
        # the clone is a separate object
        engine.run("oid(2) ! write(a, 99)")
        assert engine.query("oid(1) ! read(a, V)")[0].render("V") == "1"


class TestSubtypeDispatch:
    def test_most_specific_type_wins(self):
        engine = shapes_engine()
        engine.run("new_oid(O), O ! write(type, special_rectangle), "
                   "O ! write(width, 5)")
        sols = engine.query("oid(1) ! representation(R)")
        assert [s.render("R") for s in sols] == ["special"]

    def test_intermediate_type_skips_deeper_rules(self):
        engine = shapes_engine()
        engine.run("new_oid(O), O ! write(type, rectangle), "
                   "O ! write(width, 5)")
        sols = engine.query("oid(1) ! representation(R)")
        assert [s.render("R") for s in sols] == ["rect"]

    def test_base_type_reaches_the_abstract_rule(self):
        engine = shapes_engine()
        engine.run("new_oid(O), O ! write(type, shape)")
        with pytest.raises(PrologThrow) as e:
            engine.query("oid(1) ! representation(_)")
        assert "abstract" in str(e.value)
