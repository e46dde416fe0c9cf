"""The cost of one step of an accumulator loop, and of reading, in bytecodes.

A step is counted as the ``sys.settrace`` opcode events of a first
answer: (events at n = 300 - events at n = 100) / 200, after a warm-up.
The count does not depend on the machine's speed or load, so it can
guard the cost of control constructs against that of a plain step.
Reading is counted per token of the text read, after a warm-up read.

Consulting is counted as the events of consulting the corpus programs
into a fresh engine, cold and warm (``consult_cost``), and making an
engine as the events of one ``Engine()`` after a warm-up
(``engine_cost``): one ``KnowledgeBase.copy()``, the cost that every
consult served from the table of consulted states pays too.

Run as a script (``python tests/test_step_cost.py``), it prints the cost
of each loop's step and its ratio to a plain step, the cost of reading
each text per token and its ratio to the character-by-character
reader's, and the costs of consulting and of making an engine, on the
Python that runs it.
"""

import sys
from importlib import resources

import pytest

from mdprolog import Engine, solver
from mdprolog import engine as engine_module
from mdprolog.reader import _Reader, parse_program, parse_term

LOOPS = """
psum(0, A, A).
psum(N, A, S) :- N > 0, A1 is A + N, N1 is N - 1, psum(N1, A1, S).
isum(0, A, A).
isum(N, A, S) :- (N > 5 -> A1 is A + N ; A1 is A - N), N1 is N - 1,
    isum(N1, A1, S).
csum(0, A, A).
csum(N, A, S) :- call(N > 0), A1 is A + N, N1 is N - 1, csum(N1, A1, S).
[] # dsum(0, A, A).
[] # dsum(N, A, S) :- N > 0, A1 is A + N, N1 is N - 1, [] ? dsum(N1, A1, S).
ok.
[n: _, ok @ 0] # gsum(0, A, A).
[n: _, ok @ 0] # gsum(N, A, S) :- N > 0, A1 is A + N, N1 is N - 1,
    [n: N1] ? gsum(N1, A1, S).
lsum(0, _, A, A).
lsum(N, [X, Y|T], A, S) :- N > 0, A1 is A + X + Y, N1 is N - 1,
    lsum(N1, [Y, X|T], A1, S).
""" + """
blist(0, _, A, A).
blist(N, [{xs}], A, S) :- N > 0, A1 is A + N, N1 is N - 1,
    blist(N1, [{xs}], A1, S).
bwide(0, A, A{voids}).
bwide(N, A, S, {gs}) :- N > 0, A1 is A + N, N1 is N - 1,
    bwide(N1, A1, S, {gs}).
""".format(xs=", ".join("X%d" % i for i in range(40)),
           gs=", ".join("g(X%d)" % i for i in range(40)), voids=", _" * 40)
# the query of each loop, given n
QUERIES = {"psum": "psum(%d, 0, S)", "isum": "isum(%d, 0, S)",
           "csum": "csum(%d, 0, S)", "dsum": "[] ? dsum(%d, 0, S)",
           "gsum": "[n: 0] ? gsum(%d, 0, S)",
           "lsum": "lsum(%d, [1, 2], 0, S)",
           "blist": "blist(%%d, [%s], 0, S)" % ", ".join(map(str, range(40))),
           "bwide": "bwide(%%d, 0, S, %s)" % ", ".join(
               "g(%d)" % i for i in range(40))}


# A dispatch workload query, and a consulted text of 100 facts
READS = {"query": "[d1: 5, d3: 7] ? via([-d1, d0: 4], p50(R))",
         "facts": "".join("fact(%d, v%d).\n" % (k, k) for k in range(100))}
# (bytecodes, tokens) of reading each text with the character-by-character
# tokenizer and Token parser that the one-pass reader replaced, on
# Python 3.11.7
CHAR_READER = {"query": (7439, 27), "facts": (171050, 701)}


def opcodes(call):
    """The opcode events of call()."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        if event == "opcode":
            count += 1
        return trace

    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(None)
    return count


def step_cost(engine, loop):
    def first_answer(n):
        def run():
            assert engine.run(QUERIES[loop] % n)
        return opcodes(run)
    first_answer(50)
    return (first_answer(300) - first_answer(100)) / 200


def measure():
    engine = Engine(prelude=False)
    engine.consult_text(LOOPS)
    return {loop: step_cost(engine, loop) for loop in QUERIES}


@pytest.fixture(scope="module")
def costs():
    return measure()


def tokens(text):
    """The lexemes of text, its end counted as one, as the tokenizer did."""
    return _Reader(text, None, "<text>").last


def read_cost(name):
    """Bytecodes per token of reading READS[name], after a warm-up read."""
    optable = Engine(prelude=False).kb.optable
    text = READS[name]
    read = ((lambda: parse_term(text, optable)) if name == "query"
            else (lambda: list(parse_program(text, optable))))
    read()
    return opcodes(read) / tokens(text)


def consult_cost():
    """(cold, warm): the opcode events of consulting the corpus programs,
    in name order, into a fresh Engine(), after a warm-up.  Cold starts
    from an empty table of consulted states, and warm from the table that
    the cold consult filled, so each of its consults is a copy."""
    root = resources.files("mdprolog").joinpath("corpus").joinpath("programs")
    programs = [(p.name, p.read_text(encoding="utf-8"))
                for p in sorted(root.iterdir(), key=lambda p: p.name)
                if p.name.endswith(".mdp")]

    def consult_all():
        engine = Engine()
        return opcodes(lambda: [engine.consult_text(text, name)
                                for name, text in programs])

    for _ in range(2):      # the warm-up, then the cold consult
        engine_module._CONSULTED.clear()
        cold = consult_all()
    return cold, consult_all()


def engine_cost():
    """The opcode events of one Engine(), after a warm-up."""
    Engine()
    return opcodes(Engine)


def test_a_plain_step_is_a_run_of_arithmetic_and_a_call():
    engine = Engine(prelude=False)
    engine.consult_text(LOOPS)
    assert engine.run(QUERIES["psum"] % 1)
    _, body, _, _ = engine.kb.clauses_for(("psum", 3))[1].compiled
    assert [entry[1] for entry in body] == [solver.E_ARITH, solver.E_CALL]


def test_an_if_then_else_step_costs_at_most_1_6_plain_steps(costs):
    # the condition is a comparison: no choicepoint, no goal term
    assert costs["isum"] <= 1.6 * costs["psum"]


def test_a_call_step_costs_at_most_1_54_plain_steps(costs):
    # the goal of call/1 is compiled with the clause
    assert costs["csum"] <= 1.54 * costs["psum"]


def test_a_dispatched_step_costs_at_most_1_6_plain_steps(costs):
    # the winners of a dimension-only dispatch are called as the clauses
    # of one call, and the update starts from the implicit context's names
    assert costs["dsum"] <= 1.6 * costs["psum"]


def test_a_goal_bearing_step_costs_at_most_6_8_plain_steps(costs):
    # its context rules run as goals on the machine, three ctx_member/3
    # calls a step, each one lookup in the context's names
    assert costs["gsum"] <= 6.8 * costs["psum"]


def test_a_step_with_a_depth_two_head_costs_at_most_1_42_plain_steps(costs):
    # the list cell inside the head's list cell is matched by generated
    # code too, flat, with no interpreted matcher
    assert costs["lsum"] <= 1.42 * costs["psum"]


@pytest.mark.parametrize("loop", ["blist", "bwide"])
def test_a_step_with_a_wide_head_costs_at_most_7_plain_steps(costs, loop):
    # the 40 compounds of each head are matched inline, within the budget
    # of generated code, since a slot or a constant spends none of it
    assert costs[loop] <= 7 * costs["psum"]


@pytest.mark.parametrize("name", sorted(READS))
def test_reading_costs_at_most_half_the_character_reader(name):
    # one regex scan and a parser over its lexemes, with no token objects
    bytecodes, count = CHAR_READER[name]
    assert tokens(READS[name]) == count
    assert read_cost(name) <= 0.5 * bytecodes / count


def test_a_warm_consult_costs_at_most_6_percent_of_a_cold_one():
    # nothing is read, expanded or solved, and a copy of the stored
    # state is taken; on Python 3.11, where the bounds were set, a cold
    # consult of the 17 programs runs at most 340,000 events and a warm
    # one at most 20,000
    cold, warm = consult_cost()
    assert warm <= 0.06 * cold
    if sys.version_info[:2] == (3, 11):
        assert cold <= 340_000 and warm <= 20_000


def test_making_an_engine_costs_at_most_636_events_on_python_3_11():
    # a copy of the consulted prelude: a record per predicate, with no
    # groups, and the signatures, operators and counters (555 events on
    # Python 3.11.7)
    if sys.version_info[:2] != (3, 11):
        pytest.skip("the bound was measured on Python 3.11")
    assert engine_cost() <= 636


if __name__ == "__main__":
    print("Python %s: bytecodes per loop step" % sys.version.split()[0])
    print("loop   step     x psum")
    found = measure()
    for loop, cost in found.items():
        print("%-5s %6.0f %8.3f" % (loop, cost, cost / found["psum"]))
    print("Python %s: bytecodes per token read" % sys.version.split()[0])
    print("text   token  x char reader (3.11)")
    for name in READS:
        cost = read_cost(name)
        bytecodes, count = CHAR_READER[name]
        print("%-5s %6.1f %8.3f" % (name, cost, cost * count / bytecodes))
    print("Python %s: opcode events of consulting the corpus programs"
          % sys.version.split()[0])
    print("cold %d, warm %d" % consult_cost())
    print("Python %s: opcode events of Engine()" % sys.version.split()[0])
    print(engine_cost())
