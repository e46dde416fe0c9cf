"""Tokenizer and operator-precedence parser for the mdp surface syntax."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .terms import Atom, MdpError, Struct, Var, make_list

SYMBOL_CHARS = set("#$&*+-./:<=>?@^~\\")
SOLO_CHARS = {"!", ";"}
PUNCT_CHARS = {"(", ")", "[", "]", ",", "|", "{", "}"}


class ReaderError(MdpError):
    def __init__(self, message, filename=None, line=None, col=None):
        self.filename = filename or "<text>"
        self.line = line
        self.col = col
        where = self.filename
        if line is not None:
            where += ":%d" % line
        super().__init__("%s: %s" % (where, message))


@dataclass(slots=True)
class Token:
    kind: str        # atom, qatom, var, int, float, punct, end, eof
    value: object
    line: int
    col: int
    spaced: bool     # preceded by whitespace or a comment
    func: bool = False  # immediately followed by '(' (compound notation)


_SPACE = re.compile(r"[ \t\r\n]+")
_NAME = re.compile(r"\w+")    # \w is str.isalnum() or "_"
_NUMBER = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_SYMBOLS = re.compile("[%s]+" % re.escape("".join(sorted(SYMBOL_CHARS))))
_QUOTED_RUN = re.compile(r"[^'\\]*")
_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", "'": "'", '"': '"'}


def tokenize(text, filename="<text>"):
    """Token list of a source text, ending with an eof token.

    Each step skips a whole run (layout, a comment, a name, a number, a
    symbol run or a quoted atom) by index.  Only layout, comments and
    quoted atoms can hold a newline; the line is advanced by the newlines
    in such a run, and a column is the distance from the start of the
    current line.
    """
    tokens = []
    append = tokens.append
    i, n = 0, len(text)
    line, line_start = 1, 0    # line number at offset i, and where it starts
    spaced = True

    def err(msg, at):
        raise ReaderError(msg, filename, line + text.count("\n", i, at),
                          at - text.rfind("\n", 0, at))

    while i < n:
        ch = text[i]
        col = i - line_start + 1
        layout = False         # whitespace, a comment or an end token
        if ch in " \t\r\n":
            j = _SPACE.match(text, i).end()
            layout = True
        elif ch == "%":
            j = text.find("\n", i)
            j = n if j < 0 else j
            layout = True
        elif ch == "/" and text.startswith("*", i + 1):
            j = text.find("*/", i + 2)
            if j < 0:
                err("unterminated block comment", i)
            j += 2
            layout = True
        elif ch in PUNCT_CHARS:
            if ch == "(" and not spaced and tokens \
                    and tokens[-1].kind in ("atom", "qatom", "var"):
                tokens[-1].func = True
            append(Token("punct", ch, line, col, spaced))
            j = i + 1
        elif ch in SOLO_CHARS:
            append(Token("atom", ch, line, col, spaced))
            j = i + 1
        elif ch == "'":
            buf = []
            j = i + 1
            while True:
                k = _QUOTED_RUN.match(text, j).end()
                buf.append(text[j:k])
                j = k
                if j >= n:
                    err("unterminated quoted atom", i)
                if text[j] == "'":
                    if text.startswith("'", j + 1):
                        buf.append("'")
                        j += 2
                        continue
                    j += 1
                    break
                if j + 1 >= n:
                    err("unterminated quoted atom", i)
                mapped = _ESCAPES.get(text[j + 1])
                if mapped is None:
                    err("unknown escape \\%s in quoted atom" % text[j + 1], j)
                buf.append(mapped)
                j += 2
            append(Token("qatom", "".join(buf), line, col, spaced))
        elif ch.isdecimal():
            j = _NUMBER.match(text, i).end()
            lexeme = text[i:j]
            if lexeme.isdecimal():
                append(Token("int", int(lexeme), line, col, spaced))
            else:
                append(Token("float", float(lexeme), line, col, spaced))
        elif ch.isalpha() or ch == "_":
            j = _NAME.match(text, i).end()
            kind = "var" if (ch == "_" or ch.isupper()) else "atom"
            append(Token(kind, text[i:j], line, col, spaced))
        elif ch == "." and (i + 1 == n or text[i + 1] in " \t\r\n%"):
            append(Token("end", ".", line, col, spaced))
            j = i + 1
            layout = True
        elif ch in SYMBOL_CHARS:
            j = _SYMBOLS.match(text, i).end()
            append(Token("atom", text[i:j], line, col, spaced))
        else:
            err("unexpected character %r" % ch, i)
        if layout or ch == "'":
            newlines = text.count("\n", i, j)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", i, j) + 1
        i = j
        spaced = layout

    append(Token("eof", None, line, n - line_start + 1, True))
    return tokens


TERM_START_KINDS = {"atom", "qatom", "var", "int", "float"}


class Parser:
    """Operator-precedence parser over a token list."""

    def __init__(self, tokens, optable, filename="<text>", pos=0):
        self.tokens = tokens
        self.ops = optable
        self.filename = filename
        self.pos = pos
        self.varmap = {}

    def err(self, msg, token=None):
        token = token or self.peek()
        raise ReaderError(msg, self.filename, token.line, token.col)

    def peek(self, offset=0):
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self):
        token = self.peek()
        if token.kind != "eof":
            self.pos += 1
        return token

    def expect_punct(self, value):
        token = self.next()
        if token.kind != "punct" or token.value != value:
            self.err("expected %r, found %r" % (value, token.value), token)

    # -- term reading ---------------------------------------------------

    def read_clause_term(self):
        """One term terminated by the end token, or None at eof."""
        self.varmap = {}
        if self.peek().kind == "eof":
            return None
        start = self.peek()
        term, _ = self.parse(1200)
        token = self.next()
        if token.kind != "end":
            self.err("operator priority clash or unexpected token %r" % (token.value,), token)
        return term, dict(self.varmap), start.line

    def parse(self, max_priority):
        """Parse a term; returns (term, priority)."""
        left, left_pri = self.parse_primary(max_priority)
        return self.parse_infix(left, left_pri, max_priority)

    def parse_infix(self, left, left_pri, max_priority):
        while True:
            token = self.peek()
            entry = None
            name = None
            if token.kind == "punct" and token.value == ",":
                entry, name = (1000, "xfy"), ","
            elif token.kind == "atom":
                name = token.value
                entry = self.ops.infix_op(name) or self.ops.postfix_op(name)
            if entry is None:
                return left, left_pri
            priority, fixity = entry
            if priority > max_priority:
                return left, left_pri
            max_left = priority if fixity in ("yfx", "yf") else priority - 1
            if left_pri > max_left:
                return left, left_pri
            self.next()
            if fixity in ("xf", "yf"):
                left = Struct(name, (left,))
                left_pri = priority
                continue
            right_max = priority if fixity == "xfy" else priority - 1
            right, _ = self.parse(right_max)
            left = Struct(name, (left, right))
            left_pri = priority

    def parse_primary(self, max_priority):
        token = self.next()
        kind = token.kind
        if kind in ("int", "float"):
            return token.value, 0
        if kind == "var":
            if token.func:
                self.err("a variable cannot be used as a functor", token)
            if token.value == "_":
                return Var("_"), 0
            var = self.varmap.get(token.value)
            if var is None:
                var = Var(token.value)
                self.varmap[token.value] = var
            return var, 0
        if kind == "punct":
            if token.value == "(":
                term, _ = self.parse(1200)
                self.expect_punct(")")
                return term, 0
            if token.value == "[":
                return self.parse_list(), 0
            if token.value == "{":
                nxt = self.peek()
                if nxt.kind == "punct" and nxt.value == "}":
                    self.next()
                    return Atom("{}"), 0
                self.err("brace terms are not supported", token)
            self.err("unexpected token %r" % token.value, token)
        if kind in ("atom", "qatom"):
            name = token.value
            if token.func:
                self.expect_punct("(")
                args = self.parse_arglist()
                return Struct(name, args), 0
            if kind == "atom":
                # fold an adjacent numeric literal: -1 is the integer
                nxt = self.peek()
                if (name in ("-", "+") and nxt.kind in ("int", "float")
                        and not nxt.spaced):
                    self.next()
                    value = nxt.value
                    return (-value if name == "-" else value), 0
                prefix = self.ops.prefix_op(name)
                if prefix is not None and prefix[0] <= max_priority:
                    if self.starts_term(nxt):
                        priority, fixity = prefix
                        arg_max = priority if fixity == "fy" else priority - 1
                        arg, _ = self.parse(arg_max)
                        return Struct(name, (arg,)), priority
            bare_pri = self.ops.max_priority(name) if kind == "atom" else 0
            if bare_pri > max_priority:
                # an operator atom used as an operand is priority 0 in parens
                self.err("operator %r cannot stand here" % name, token)
            return Atom(name), bare_pri
        if kind == "end":
            self.err("unexpected end of clause", token)
        self.err("unexpected end of input", token)

    def starts_term(self, token):
        if token.kind in TERM_START_KINDS:
            if token.kind == "atom":
                # an infix-only operator atom after a prefix op is likely an
                # operand only when something else follows it
                if (
                    self.ops.infix_op(token.value)
                    and not self.ops.prefix_op(token.value)
                    and not token.func
                ):
                    after = self.peek(1)
                    return after.kind in TERM_START_KINDS or (
                        after.kind == "punct" and after.value in ("(", "[")
                    )
            return True
        return token.kind == "punct" and token.value in ("(", "[")

    def parse_arglist(self):
        args = [self.parse(999)[0]]
        while True:
            token = self.next()
            if token.kind == "punct" and token.value == ",":
                args.append(self.parse(999)[0])
                continue
            if token.kind == "punct" and token.value == ")":
                return tuple(args)
            self.err("expected ',' or ')' in argument list", token)

    def parse_list(self):
        token = self.peek()
        if token.kind == "punct" and token.value == "]":
            self.next()
            return Atom("[]")
        items = [self.parse(999)[0]]
        tail = Atom("[]")
        while True:
            token = self.next()
            if token.kind == "punct" and token.value == ",":
                items.append(self.parse(999)[0])
                continue
            if token.kind == "punct" and token.value == "|":
                tail = self.parse(999)[0]
                self.expect_punct("]")
                break
            if token.kind == "punct" and token.value == "]":
                break
            self.err("expected ',', '|' or ']' in list", token)
        return make_list(items, tail)


@dataclass
class SourceItem:
    """A directive or clause term read from source, with provenance."""

    term: object
    is_directive: bool
    filename: str
    line: int
    varmap: dict = field(default_factory=dict)


def parse_term(text, optable, filename="<text>"):
    """Parse a single term (the terminating '.' is optional)."""
    stripped = text.rstrip()
    if not stripped.endswith("."):
        text = stripped + " ."
    parser = Parser(tokenize(text, filename), optable, filename)
    result = parser.read_clause_term()
    if result is None:
        raise ReaderError("empty input", filename)
    term, varmap, _ = result
    if parser.peek().kind != "eof":
        parser.err("unexpected text after term")
    return term, varmap


def parse_program(text, optable, filename="<text>"):
    """Yield SourceItems; op/3 directives update the table immediately."""
    tokens = tokenize(text, filename)
    parser = Parser(tokens, optable, filename)
    while True:
        result = parser.read_clause_term()
        if result is None:
            return
        term, varmap, line = result
        is_directive = (
            isinstance(term, Struct) and term.functor == ":-" and len(term.args) == 1
        )
        if is_directive:
            goal = term.args[0]
            if isinstance(goal, Struct) and goal.functor == "op" and len(goal.args) == 3:
                priority, fixity, name = goal.args
                if not isinstance(priority, int) or not isinstance(fixity, Atom) \
                        or not isinstance(name, Atom):
                    raise ReaderError("malformed op/3 directive", filename, line)
                optable.add(priority, fixity.name, name.name)
        yield SourceItem(term, is_directive, filename, line, varmap)
