import random

import pytest
from hypothesis import given, settings, strategies as st

from mdprolog import Engine
from mdprolog.errors import ConsultError
from mdprolog.ops import default_table
from mdprolog.reader import (ReaderError, _Reader, ends_clause, parse_program,
                             parse_term)
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


def lexemes(text):
    """(value, line, col) of each lexeme of text, then (None, line, col) of
    its end, each position as a ReaderError raised there reports it."""
    reader = _Reader(text, None, "<t>")
    found = []
    for k in range(1, reader.last + 1):
        with pytest.raises(ReaderError) as e:
            reader.error("", k)
        found.append((reader.value(k) if k < reader.last else None,
                      e.value.line, e.value.col))
    return found


class TestLexemes:
    def test_comments_are_skipped(self):
        assert [value for value, _, _ in
                lexemes("a % line\n /* block */ b .")] == ["a", "b", ".", None]

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

# (value, line, col) of every lexeme of POSITIONS_TEXT, and of its end
POSITIONS = [
    ("p", 2, 1), ("(", 2, 2), ("X", 2, 3), (",", 2, 4), ("don't\n", 2, 6),
    (")", 2, 16), (":-", 2, 18), ("q", 3, 18), ("(", 3, 19), ("X", 3, 20),
    (",", 3, 21), (1500.0, 3, 23), (")", 3, 28), (",", 3, 29),
    ("two\nlines", 4, 2), ("=", 5, 8), ("Y", 5, 10), (",", 5, 11),
    ("foo", 6, 3), (":-", 6, 6), ("bar", 6, 8), (",", 6, 11), ("[", 6, 13),
    ("H", 6, 14), ("|", 6, 15), ("T", 6, 16), ("]", 6, 17), ("=..", 6, 19),
    (0, 6, 23), (".", 6, 24), ("end", 7, 1), (".", 7, 4), (None, 7, 5),
]


class TestPositions:
    def test_lexeme_lines_and_columns(self):
        assert lexemes(POSITIONS_TEXT) == POSITIONS

    def test_trailing_comment_and_empty_block_comment(self):
        assert lexemes("% only") == [(None, 1, 7)]
        assert lexemes("a. %c\n/**/b.\n\n  ]") == [
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
        starts.append(len(text))    # the end
        expected = []
        for at in starts:
            last_nl = text.rfind("\n", 0, at)
            expected.append((text.count("\n", 0, at) + 1, at - last_nl))
        assert [(line, col) for _, line, col in lexemes(text)] == expected

    def test_a_non_decimal_digit_is_a_reader_error(self):
        with pytest.raises(ReaderError, match="unexpected character"):
            parse("x = 2².")

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

    def test_lexeme_kinds(self):
        # a variable, a quoted atom, an integer, a float, a name, a list
        t = parse("p(X, 'don''t\\n', 0, 1.5e3, foo, [H|T])")
        assert t.functor == "p"
        x, quoted, integer, number, name, items = t.args
        assert isinstance(x, Var) and quoted == Atom("don't\n")
        assert type(integer) is int and type(number) is float
        assert number == 1500.0 and name == Atom("foo")
        assert items.functor == "." and isinstance(items.args[1], Var)

    def test_a_dot_ends_a_clause_only_before_layout_or_the_end(self):
        assert parse("p(.)") == Struct("p", (Atom("."),))
        with pytest.raises(ReaderError, match="unexpected end of clause"):
            parse("p(. )")
        items = list(parse_program("a.\nb.", OPTABLE, "<t>"))
        assert [item.term for item in items] == [Atom("a"), Atom("b")]

    def test_a_functor_is_a_name_or_quoted_atom_right_before_its_paren(self):
        assert parse("'f g'(a)") == Struct("f g", (Atom("a"),))
        with pytest.raises(ReaderError, match="unexpected token"):
            parse("'f' (a)")
        with pytest.raises(ReaderError) as e:
            parse("p(a) :- X(a)")
        assert (e.value.line, e.value.col) == (1, 9)
        assert str(e.value) == "<text>:1: a variable cannot be used as a functor"

    def test_an_op_directive_governs_the_clauses_after_it(self):
        engine = Engine(prelude=False)
        engine.consult_text(":- op(700, xfx, ===).\n a === b.")
        [solution] = engine.query("X === Y")
        assert solution.text() == "X = a,\nY = b"

    def test_a_file_that_is_not_utf8_is_a_consult_error(self, tmp_path):
        path = tmp_path / "f.mdp"
        path.write_bytes(b"p(a).\np(\xff).\n")
        with pytest.raises(ConsultError) as e:
            Engine(prelude=False).consult_file(path)
        assert str(e.value) == "%s:2: not UTF-8 text: invalid start byte" % path

    def test_the_reader_applies_no_op_directive(self):
        optable = default_table()
        items = parse_program(":- op(700, xfx, ===).\n a === b.", optable, "<t>")
        assert next(items).is_directive
        assert "===" not in optable.priority
        with pytest.raises(ReaderError):
            next(items)

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


class TestPostfixOperators:
    @pytest.fixture(scope="class")
    def engine(self):
        engine = Engine(prelude=False)
        engine.consult_text(
            ":- op(200, xf, ++).\n:- op(200, xf, --).\n:- op(200, yf, ^^).")
        return engine

    @pytest.mark.parametrize("term, text, quoted", [
        ("++(++(a))", "(a++)++", "(a++)++"),      # xf takes no equal priority
        ("--(++(1))", "(1++)--", "(1++)--"),
        ("^^(^^(a))", "a^^ ^^", "a^^ ^^"),        # yf does
        ("^^(++(a))", "a++ ^^", "a++ ^^"),
        ("++(^^(a))", "(a^^)++", "(a^^)++"),
        ("++(1 + 2)", "(1+2)++", "(1+2)++"),
        ("++(-(a))", "(-a)++", "(-a)++"),
        ("-(++(a))", "-a++", "-a++"),
        ("++(-1)", "-1++", "-1++"),
        ("++('A')", "A++", "'A'++"),
        ("(++(a) = b)", "(a++ =b)", "a++ =b"),
        ("[++(a)|++(b)]", "[a++|b++]", "[a++|b++]"),
        ("++(a, b)", "++(a, b)", "++(a, b)"),     # not an infix operator
        ("++", "(++)", "(++)"),
    ])
    def test_postfix_terms_render_and_read_back(self, engine, term, text,
                                                quoted):
        [solution] = engine.query("X = " + term)
        assert solution.text() == "X = " + text
        optable = engine.kb.optable
        rendered = render(solution["X"], None, optable, quoted=True)
        assert rendered == quoted
        assert parse_term(rendered, optable)[0] == solution["X"]
