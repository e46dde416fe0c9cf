"""Tokenizer and operator-precedence parser for the mdp surface syntax.

The parser reads a term in one loop over an explicit stack of the terms
that enclose the one being read, so the nesting a clause may have is
``RESOLVE_DEPTH_LIMIT`` levels, whatever the interpreter's recursion
limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .terms import NIL, RESOLVE_DEPTH_LIMIT, Atom, MdpError, Struct, Var, make_list

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

# Kinds of the frames of Parser.parse, each a term whose parts are read
_INFIX, _PREFIX, _PAREN, _ARGS, _LIST, _TAIL = range(6)


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
        token = self.tokens[self.pos]   # pos never passes the eof token
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
        """Parse a term; returns (term, priority).

        One loop reads the term.  A term that encloses others keeps a
        frame on a stack while they are read: the left operand of an
        infix operator, a prefix operator, a parenthesised term, a
        compound's arguments so far, or a list's elements so far and its
        tail.  Nesting deeper than ``RESOLVE_DEPTH_LIMIT`` is an error.
        """
        frames = []     # (kind, max priority around it, name, part, priority)
        while True:
            if len(frames) > RESOLVE_DEPTH_LIMIT:
                self.err("term nested too deep")
            # read the start of a term of at most max_priority
            token = self.next()
            kind = token.kind
            if kind in ("int", "float"):
                term, pri = token.value, 0
            elif kind == "var":
                if token.func:
                    self.err("a variable cannot be used as a functor", token)
                term = (Var("_") if token.value == "_"
                        else self.varmap.get(token.value))
                if term is None:
                    term = self.varmap[token.value] = Var(token.value)
                pri = 0
            elif kind == "punct":
                value = token.value
                if value == "(":
                    frames.append((_PAREN, max_priority, None, None, 0))
                    max_priority = 1200
                    continue
                nxt = self.peek()
                if value == "[":
                    if nxt.kind == "punct" and nxt.value == "]":
                        self.next()
                        term, pri = NIL, 0
                    else:
                        frames.append((_LIST, max_priority, None, [], 0))
                        max_priority = 999
                        continue
                elif value == "{" and nxt.kind == "punct" and nxt.value == "}":
                    self.next()
                    term, pri = Atom("{}"), 0
                elif value == "{":
                    self.err("brace terms are not supported", token)
                else:
                    self.err("unexpected token %r" % value, token)
            elif kind in ("atom", "qatom"):
                name = token.value
                if token.func:
                    self.expect_punct("(")
                    frames.append((_ARGS, max_priority, name, [], 0))
                    max_priority = 999
                    continue
                nxt = self.peek()
                prefix = self.ops.prefix_op(name) if kind == "atom" else None
                if (kind == "atom" and name in ("-", "+")
                        and nxt.kind in ("int", "float") and not nxt.spaced):
                    # fold an adjacent numeric literal: -1 is the integer
                    self.next()
                    term, pri = (-nxt.value if name == "-" else nxt.value), 0
                elif (prefix is not None and prefix[0] <= max_priority
                        and self.starts_term(nxt)):
                    priority, fixity = prefix
                    frames.append((_PREFIX, max_priority, name, None, priority))
                    max_priority = priority if fixity == "fy" else priority - 1
                    continue
                else:
                    pri = self.ops.max_priority(name) if kind == "atom" else 0
                    if pri > max_priority:
                        # an operator atom used as an operand is priority 0 in parens
                        self.err("operator %r cannot stand here" % name, token)
                    term = Atom(name)
            elif kind == "end":
                self.err("unexpected end of clause", token)
            else:
                self.err("unexpected end of input", token)
            # a term is read: take the operators after it, and close the
            # frames it completes, until one needs another term
            while True:
                term, pri, infix = self.parse_infix(term, pri, max_priority)
                if infix is not None:
                    name, priority, right_max = infix
                    frames.append((_INFIX, max_priority, name, term, priority))
                    max_priority = right_max
                    break
                if not frames:
                    return term, pri
                kind, max_priority, name, part, pri = frames.pop()
                if kind is _INFIX:
                    term = Struct(name, (part, term))
                elif kind is _PREFIX:
                    term = Struct(name, (term,))
                elif kind is _PAREN:
                    self.expect_punct(")")
                elif kind is _TAIL:
                    self.expect_punct("]")
                    term = make_list(part, term)
                else:   # the next argument or element, or the end
                    part.append(term)
                    token = self.next()
                    if token.kind == "punct" and token.value == ",":
                        frames.append((kind, max_priority, name, part, 0))
                        max_priority = 999
                        break
                    if kind is _ARGS:
                        if token.kind != "punct" or token.value != ")":
                            self.err("expected ',' or ')' in argument list",
                                     token)
                        term = Struct(name, tuple(part))
                    elif token.kind == "punct" and token.value == "|":
                        frames.append((_TAIL, max_priority, None, part, 0))
                        max_priority = 999
                        break
                    elif token.kind == "punct" and token.value == "]":
                        term = make_list(part)
                    else:
                        self.err("expected ',', '|' or ']' in list", token)

    def parse_infix(self, left, left_pri, max_priority):
        """Apply the postfix operators after left that fit max_priority.

        Returns (left, priority, infix): infix is the (name, priority,
        maximum priority of its right operand) of the infix operator
        whose right operand comes next, after it is taken, or None.
        """
        while True:
            token = self.tokens[self.pos]
            entry = None
            name = None
            if token.kind == "punct" and token.value == ",":
                entry, name = (1000, "xfy"), ","
            elif token.kind == "atom":
                name = token.value
                entry = self.ops.infix_op(name) or self.ops.postfix_op(name)
            if entry is None:
                return left, left_pri, None
            priority, fixity = entry
            if priority > max_priority:
                return left, left_pri, None
            max_left = priority if fixity in ("yfx", "yf") else priority - 1
            if left_pri > max_left:
                return left, left_pri, None
            self.next()
            if fixity in ("xf", "yf"):
                left = Struct(name, (left,))
                left_pri = priority
                continue
            right_max = priority if fixity == "xfy" else priority - 1
            return left, left_pri, (name, priority, right_max)

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
