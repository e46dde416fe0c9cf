import random

import pytest
from hypothesis import given, settings, strategies as st

from mdprolog import Engine
from mdprolog.ops import default_table
from mdprolog.reader import (ReaderError, ends_clause, parse_program, parse_term,
                             tokenize)
from mdprolog.render import render
from mdprolog.terms import RESOLVE_DEPTH_LIMIT, Atom, Struct, Var
from variants import variant_of


OPTABLE = default_table()


def parse(text):
    term, _ = parse_term(text, default_table())
    return term


def rt(text):
    """Parse, render, re-parse; both parses must be variants."""
    t1 = parse(text)
    rendered = render(t1, None, default_table(), quoted=True)
    t2 = parse(rendered)
    assert variant_of(t1, t2), "%r -> %r" % (text, rendered)
    return rendered


class TestTokenizer:
    def test_comments_are_skipped(self):
        toks = tokenize("a % line\n /* block */ b .", "<t>")
        assert [t.value for t in toks[:2]] == ["a", "b"]

    def test_quoted_atom_escapes(self):
        term = parse("'don''t \\n stop'")
        assert isinstance(term, Atom)
        assert term.name == "don't \n stop"

    def test_end_dot_requires_whitespace(self):
        # '.' inside a symbolic run or before non-space is not a clause end
        items = list(parse_program("a :- b. c :- d.", default_table(), "<t>"))
        assert len(items) == 2


POSITIONS_TEXT = (
    "% header comment\n"
    "p(X, 'don''t\\n') :- /* a block\n"
    "   over lines */ q(X, 1.5e3),\n"
    "\t'two\nlines' = Y, % tail\n"
    "  foo:-bar, [H|T] =.. 0.\n"
    "end.")

# (kind, value, line, col, spaced, func) of every token of POSITIONS_TEXT
POSITIONS = [
    ("atom", "p", 2, 1, True, True), ("punct", "(", 2, 2, False, False),
    ("var", "X", 2, 3, False, False), ("punct", ",", 2, 4, False, False),
    ("qatom", "don't\n", 2, 6, True, False),
    ("punct", ")", 2, 16, False, False), ("atom", ":-", 2, 18, True, False),
    ("atom", "q", 3, 18, True, True), ("punct", "(", 3, 19, False, False),
    ("var", "X", 3, 20, False, False), ("punct", ",", 3, 21, False, False),
    ("float", 1500.0, 3, 23, True, False),
    ("punct", ")", 3, 28, False, False), ("punct", ",", 3, 29, False, False),
    ("qatom", "two\nlines", 4, 2, True, False),
    ("atom", "=", 5, 8, True, False), ("var", "Y", 5, 10, True, False),
    ("punct", ",", 5, 11, False, False), ("atom", "foo", 6, 3, True, False),
    ("atom", ":-", 6, 6, False, False), ("atom", "bar", 6, 8, False, False),
    ("punct", ",", 6, 11, False, False), ("punct", "[", 6, 13, True, False),
    ("var", "H", 6, 14, False, False), ("punct", "|", 6, 15, False, False),
    ("var", "T", 6, 16, False, False), ("punct", "]", 6, 17, False, False),
    ("atom", "=..", 6, 19, True, False), ("int", 0, 6, 23, True, False),
    ("end", ".", 6, 24, False, False), ("atom", "end", 7, 1, True, False),
    ("end", ".", 7, 4, False, False), ("eof", None, 7, 5, True, False),
]


class TestPositions:
    def test_token_lines_and_columns(self):
        assert [(t.kind, t.value, t.line, t.col, t.spaced, t.func)
                for t in tokenize(POSITIONS_TEXT, "<t>")] == POSITIONS

    def test_trailing_comment_and_empty_block_comment(self):
        assert [(t.kind, t.line, t.col) for t in tokenize("% only", "<t>")] \
            == [("eof", 1, 7)]
        assert [(t.value, t.line, t.col)
                for t in tokenize("a. %c\n/**/b.\n\n  ]", "<t>")] == [
            ("a", 1, 1), (".", 1, 2), ("b", 2, 5), (".", 2, 6),
            ("]", 4, 3), (None, 4, 4)]

    @given(st.lists(st.tuples(
        st.sampled_from(["foo", "X_1", "42", "3.25", "1.0e-3", "'a''b'",
                         "'l1\nl2'", "=..", ";", "(", "]"]),
        # a symbol run would swallow a comment's opening "/*"
        st.sampled_from([" ", "\n", "\t\n  ", " % note\n", " /* x\n y */",
                         " /**/ "])), max_size=12))
    def test_positions_follow_the_text(self, pieces):
        text, starts = "", []
        for lexeme, layout in pieces:
            starts.append(len(text))
            text += lexeme + layout
        expected = []
        for at in starts:
            last_nl = text.rfind("\n", 0, at)
            expected.append((text.count("\n", 0, at) + 1, at - last_nl))
        tokens = tokenize(text, "<t>")
        assert [(t.line, t.col) for t in tokens[:-1]] == expected
        assert (tokens[-1].line, tokens[-1].col) \
            == (text.count("\n") + 1, len(text) - text.rfind("\n"))

    def test_a_non_decimal_digit_is_a_reader_error(self):
        with pytest.raises(ReaderError, match="unexpected character"):
            tokenize("x = 2².", "<t>")

    @pytest.mark.parametrize("text, line, col, message", [
        ("/* one\n two */ ok.\n  \"x\".", 3, 3, "unexpected character '\"'"),
        ("a.\n/* never\n closed", 2, 1, "unterminated block comment"),
        ("a.\n  'open\n quote", 2, 3, "unterminated quoted atom"),
        ("a.\n 'bad\\q'.", 2, 6, "unknown escape \\q in quoted atom"),
        ("'a\nb\\q'.", 2, 2, "unknown escape \\q in quoted atom"),
        ("x :- \n /* c\n */ f(a ] .", 3, 9,
         "expected ',' or ')' in argument list"),
    ])
    def test_error_lines_and_columns(self, text, line, col, message):
        with pytest.raises(ReaderError) as e:
            list(parse_program(text, OPTABLE, "<t>"))
        assert (e.value.line, e.value.col) == (line, col)
        assert str(e.value) == "<t>:%d: %s" % (line, message)

    def test_a_scan_error_is_raised_where_the_parser_reaches_it(self):
        items = parse_program('a.\nb :- "x".\nc.', OPTABLE, "<t>")
        assert next(items).term == Atom("a")
        with pytest.raises(ReaderError) as e:
            next(items)
        assert str(e.value) == "<t>:2: unexpected character '\"'"


class TestEndOfInput:
    @pytest.mark.parametrize("text", [
        "X = 1 % note", "X = 1. % note", "X = 1 /* note */", "X = 1.\n"])
    def test_a_query_ends_at_the_end_of_its_text(self, text):
        [solution] = Engine(prelude=False).query(text)
        assert solution.text() == "X = 1"

    @pytest.mark.parametrize("text", ["", " \n", "% c", "/* c */ % d"])
    def test_a_text_with_no_term_is_empty_input(self, text):
        with pytest.raises(ReaderError) as e:
            parse(text)
        assert str(e.value) == "<text>: empty input"

    @pytest.mark.parametrize("text, message", [
        ("X = ", "unexpected end of input"),
        ("f(a, ", "unexpected end of input"),
        ("(a", "expected ')', found end of input"),
        ("[a|T", "expected ']', found end of input"),
        ("X = 1 /* open", "unterminated block comment"),
        ("X = 1. /* open", "unterminated block comment"),
        (".", "unexpected end of clause"),
    ])
    def test_a_query_cut_short(self, text, message):
        with pytest.raises(ReaderError) as e:
            parse(text)
        assert str(e.value) == "<text>:1: " + message

    def test_a_clause_cut_short_by_the_end_of_a_program(self):
        with pytest.raises(ReaderError) as e:
            list(parse_program("a.\nb :- c", OPTABLE, "<t>"))
        assert (e.value.line, e.value.col) == (2, 7)
        assert str(e.value) == "<t>:2: unexpected end of input"

    @pytest.mark.parametrize("text, ends", [
        ("X = 1.", True), ("X = 1. % note\n", True), ("a. /* c */\n", True),
        ("X = 1", False), ("X = 'a.", False), ("X = 1. /* open", False),
        ("X =..", False), ("% c.", False), ("", False)])
    def test_ends_clause(self, text, ends):
        assert ends_clause(text) is ends


class TestParser:
    def test_operator_priorities(self):
        t = parse("1 + 2 * 3")
        assert t.functor == "+" and t.args[1].functor == "*"

    def test_right_assoc_conjunction(self):
        t = parse("a, b, c")
        assert t.functor == "," and t.args[1].functor == ","

    def test_negative_number_literal(self):
        assert parse("-5") == -5
        t = parse("- 5")
        assert isinstance(t, Struct) and t.functor == "-"

    def test_functional_notation_needs_adjacency(self):
        t = parse("f(a)")
        assert t.functor == "f"
        # with a space, f is read as an atom operand and the parse fails
        with pytest.raises(ReaderError):
            parse("f (a)")

    def test_context_spec_rule(self):
        t = parse("[debug: P] # edge(A, B) :- [-debug] ? edge(A, B)")
        assert t.functor == ":-"
        head = t.args[0]
        assert head.functor == "#"

    def test_vars_shared_within_clause(self):
        t = parse("f(X, X)")
        assert t.args[0] is t.args[1]
        assert isinstance(t.args[0], Var)

    def test_underscore_is_always_fresh(self):
        t = parse("f(_, _)")
        assert t.args[0] is not t.args[1]

    def test_op_directive_applies_immediately(self):
        items = list(parse_program(
            ":- op(700, xfx, ===).\n a === b.", default_table(), "<t>"))
        assert items[1].term.functor == "==="

    def test_parse_error_has_location(self):
        with pytest.raises(ReaderError) as e:
            list(parse_program("foo(a,\n,b).", default_table(), "bad.mdp"))
        assert "bad.mdp" in str(e.value)

    def test_unbalanced_paren(self):
        with pytest.raises(ReaderError):
            parse("foo(a")

    @pytest.mark.parametrize("opening, closing", [("f(", ")"), ("- ", "")])
    def test_a_term_nested_too_deep_is_a_reader_error(self, opening, closing):
        n = RESOLVE_DEPTH_LIMIT + 1
        with pytest.raises(ReaderError, match="term nested too deep"):
            parse(opening * n + "a" + closing * n)


def random_ground_term(rng, depth=0):
    names = ["a", "b", "foo", "'x y'", "+", "-", "[]", "bar_baz"]
    kind = rng.randrange(6 if depth < 4 else 3)
    if kind == 0:
        return rng.choice(names)
    if kind == 1:
        return str(rng.randrange(-999, 1000))
    if kind == 2:
        return "%.3f" % rng.uniform(-10, 10)
    if kind == 3:
        n = rng.randrange(1, 4)
        return "f(%s)" % ", ".join(
            random_ground_term(rng, depth + 1) for _ in range(n))
    if kind == 4:
        n = rng.randrange(0, 4)
        return "[%s]" % ", ".join(
            random_ground_term(rng, depth + 1) for _ in range(n))
    # bare operator atoms need parens when used as operands
    left = random_ground_term(rng, depth + 1)
    right = random_ground_term(rng, depth + 1)
    if left in ("+", "-"):
        left = "(%s)" % left
    if right in ("+", "-"):
        right = "(%s)" % right
    return "(%s %s %s)" % (left,
                           rng.choice(["+", "-", "*", "=", ":", "@"]),
                           right)


class TestRoundTrip:
    CASES = [
        "foo",
        "'hello world'",
        "f(a, b, c)",
        "[1, 2, 3]",
        "[a | T]",
        "a - b - c",
        "a - (b - c)",
        "- (1)",
        "1 - -2",
        "f(-1)",
        "(a , b) ; c",
        "a :- b, c",
        "\\+ a",
        "[debug: P] # edge(A, B) :- [-debug] ? edge(A, B), apply(P, [(A, B)])",
        "X = [a-1, b-2]",
        "f(A) = 'weird atom'",
        "3.25",
        "-0.5",
        "f([])",
        "'[]'(a)",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_named_cases(self, text):
        rt(text)

    def test_random_ground_terms(self):
        rng = random.Random(20240817)
        for _ in range(500):
            rt(random_ground_term(rng))

    @given(st.text(
        alphabet=st.sampled_from("abc_ ()[],.|!;'\"0123456789+-*/\\<>=:?@#"),
        max_size=30))
    @settings(max_examples=300)
    def test_parser_never_crashes_uncontrolled(self, text):
        try:
            parse(text)
        except ReaderError:
            pass
