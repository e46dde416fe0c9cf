import io
from collections import deque

import pytest
from hypothesis import given, strategies as st

from mdprolog import Engine, PrologThrow

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
