"""Reader: one regex scan and an operator-precedence parser for mdp text.

Scanning is one ``re.findall`` of ``_SCAN``, run in C: it splits the whole
text into (lexeme, layout) pairs, where the layout is the whitespace and
comments after the lexeme.  The parser reads the pairs through an index.
It tells a lexeme's kind by its first character, with one dict lookup,
and reads the operator table's dicts directly; it makes no token objects.
A lexeme's line and column are worked out from the summed lengths of the
pairs before it, and only when a ``ReaderError`` is raised.  The scan
itself never fails: a character that starts no lexeme, an unterminated
quoted atom or block comment is an error when the parser reaches it.

The reader only reads: it turns text into terms and applies no
directive.  ``parse_program`` yields a file's items one at a time, so an
``op/3`` directive that the consult runs before asking for the next item
governs the clauses after it.

End of input ends a term as its final '.' does, so a query needs no dot,
even after a comment.  The parser reads a term in one loop over an
explicit stack of the terms that enclose the one being read, so the
nesting a clause may have is ``RESOLVE_DEPTH_LIMIT`` levels, whatever the
interpreter's recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain

from .ops import INFIX_FIXITIES
from .terms import (NIL, RESOLVE_DEPTH_LIMIT, Atom, MdpError, Struct, Var,
                    make_list, new_struct)

SYMBOL_CHARS = set("#$&*+-./:<=>?@^~\\")


class ReaderError(MdpError):
    def __init__(self, message, filename=None, line=None, col=None):
        self.filename = filename or "<text>"
        self.line = line
        self.col = col
        where = self.filename
        if line is not None:
            where += ":%d" % line
        super().__init__("%s: %s" % (where, message))


# Layout: whitespace, line comments and block comments
_CLOSED_LAYOUT = re.compile(r"(?:[ \t\r\n]+|%[^\n]*|/\*[\s\S]*?\*/)*")
# A lexeme and the layout after it.  The lexeme alternatives, in order:
# the empty lexeme before the text's leading layout; punctuation, ! and ;;
# a name; a number; a quoted atom, which left open runs to the end of the
# text, as an open block comment does in the layout; a symbol atom or an
# end dot; and any other character, an error, so the pairs cover the text.
_SCAN = re.compile(r"""(\A|[()\[\],|{}!;]|[^\W\d]\w*|\d+(?:\.\d+)?(?:[eE][+-]?\d+)?
    |'[^'\\]*(?:(?:''|\\[\s\S])[^'\\]*)*(?:'|\Z)|[#$&*+\-./:<=>?@^~\\]+|[\s\S])
    ((?:[ \t\r\n]+|%[^\n]*|/\*[\s\S]*?(?:\*/|\Z))*)""", re.VERBOSE)
_QUOTE_PARTS = re.compile(r"''|'|\\[\s\S]?")
_ESCAPES = {"\\n": "\n", "\\t": "\t", "\\\\": "\\", "\\'": "'", '\\"': '"',
            "''": "'"}

# Lexeme kinds, by first character
_ATOM, _VAR, _NUM, _PUNCT, _QUOTED, _DOT, _EOF, _BAD = range(8)


class _Kinds(dict):
    def __missing__(self, ch):   # outside ASCII
        if ch.isalpha():
            return _VAR if ch.isupper() else _ATOM
        return _NUM if ch.isdecimal() else _BAD


_KIND = _Kinds({ch: kind for chars, kind in [
    ("abcdefghijklmnopqrstuvwxyz!;#$&*+-/:<=>?@^~\\", _ATOM),
    ("ABCDEFGHIJKLMNOPQRSTUVWXYZ_", _VAR), ("0123456789", _NUM),
    ("()[],|{}", _PUNCT), ("'", _QUOTED), (".", _DOT), (" ", _EOF)]
    for ch in chars})
_EOF_PAIR = (" ", "")   # no lexeme starts with layout
_TERM_START = (_ATOM, _VAR, _NUM, _QUOTED)
_COMMA = (1000, "xfy")

# Kinds of the frames of _Reader.term, each a term whose parts are read
_INFIX, _PREFIX, _PAREN, _ARGS, _LIST, _TAIL = range(6)


def _unquote(lex):
    """(name, None) for a quoted atom's lexeme, or (None, (message, offset))."""
    parts, at = [], 1
    for m in _QUOTE_PARTS.finditer(lex, 1):
        parts.append(lex[at:m.start()])
        piece = m.group()
        if piece == "'":
            return "".join(parts), None
        mapped = _ESCAPES.get(piece)
        if mapped is None:
            if len(piece) == 1:
                break
            return None, ("unknown escape %s in quoted atom" % piece, m.start())
        parts.append(mapped)
        at = m.end()
    return None, ("unterminated quoted atom", 0)


class _Reader:
    """The (lexeme, layout) pairs of one text and what reading them needs."""

    def __init__(self, text, optable, filename):
        self.text = text
        self.ops = optable
        self.filename = filename
        self.pairs = _SCAN.findall(text)
        layout = self.pairs[-1][1]
        # the length of a block comment left open at the end of the text
        self.open = len(layout) - _CLOSED_LAYOUT.match(layout).end()
        self.pairs.append(_EOF_PAIR)
        self.last = len(self.pairs) - 1

    def error(self, message, k, at=0):
        """Raise a ReaderError at lexeme k.

        A lexeme that is itself wrong reports its own error instead: a
        character that starts no lexeme, a malformed quoted atom, the end
        of a text that leaves a block comment open, or a '(' right after a
        variable.
        """
        lex = self.pairs[k][0]
        kind = _KIND[lex[0]]
        if lex == "(" and _KIND[self.pairs[k - 1][0][:1]] is _VAR \
                and self.pairs[k - 1][1] == "":
            message, k = "a variable cannot be used as a functor", k - 1
        elif kind is _BAD:
            message = "unexpected character %r" % lex[0]
        elif kind is _QUOTED and _unquote(lex)[1]:
            message, at = _unquote(lex)[1]
        elif kind is _EOF and self.open:
            message, at = "unterminated block comment", -self.open
        offset = sum(map(len, chain.from_iterable(self.pairs[:k]))) + at
        text = self.text
        raise ReaderError(message, self.filename, text.count("\n", 0, offset) + 1,
                          offset - text.rfind("\n", 0, offset))

    def value(self, k):
        """The number, name or punctuation lexeme k stands for."""
        lex = self.pairs[k][0]
        kind = _KIND[lex[0]]
        return (_number(lex) if kind is _NUM
                else _unquote(lex)[0] if kind is _QUOTED else lex)

    def found(self, k):
        """How an error message names lexeme k."""
        return "end of input" if k == self.last else repr(self.value(k))

    def kind(self, k):
        """The kind of lexeme k: _DOT only for a '.' that ends a clause,
        one followed by layout or by the end of the text."""
        lex, layout = self.pairs[k]
        kind = _KIND[lex[0]]
        if kind is _DOT and (lex != "." or not layout and k + 1 < self.last):
            return _ATOM
        return kind

    def func(self, k):
        """Whether lexeme k is followed by '(' with no layout between."""
        return self.pairs[k][1] == "" and self.pairs[k + 1][0] == "("

    def starts_term(self, k):
        """Whether lexeme k, after a prefix operator, starts its operand."""
        lex = self.pairs[k][0]
        kind = self.kind(k)
        entry = self.ops.infix.get(lex)
        if kind is _ATOM and entry and entry[1] in INFIX_FIXITIES \
                and lex not in self.ops.prefix and not self.func(k):
            # an infix-only operator atom after a prefix op is likely an
            # operand only when something else follows it
            lex, kind = self.pairs[k + 1][0], self.kind(k + 1)
        return kind in _TERM_START or lex in ("(", "[")

    def term(self, i, varmap):
        """Read the term at lexeme i: (term, index of the lexeme after it).

        One loop reads the term.  A term that encloses others keeps a
        frame on a stack while they are read: the left operand of an
        infix operator, a prefix operator, a parenthesised term, a
        compound's arguments so far, or a list's elements so far and its
        tail.  Nesting deeper than ``RESOLVE_DEPTH_LIMIT`` is an error.
        """
        pairs = self.pairs
        ops = self.ops
        prefix, infix, priorities = ops.prefix, ops.infix, ops.priority
        frames = []     # (kind, max priority around it, name, part, priority)
        push = frames.append
        maxp = 1200
        # only a text of more lexemes than the limit can nest that deep
        deep = self.last - i > RESOLVE_DEPTH_LIMIT
        while True:
            if deep and len(frames) > RESOLVE_DEPTH_LIMIT:
                self.error("term nested too deep", i)
            # read the start of a term of at most priority maxp
            lex, layout = pairs[i]
            i += 1
            kind = _KIND[lex[0]]
            pri = 0
            if kind is _ATOM or kind is _DOT and self.kind(i - 1) is _ATOM:
                if not layout and pairs[i][0] == "(":
                    push((_ARGS, maxp, lex, [], 0))
                    i += 1
                    maxp = 999
                    continue
                if lex in priorities:
                    if not layout and (lex == "-" or lex == "+") \
                            and _KIND[pairs[i][0][0]] is _NUM:
                        # fold an adjacent numeric literal: -1 is the integer
                        term = _number(pairs[i][0])
                        term, i = (-term if lex == "-" else term), i + 1
                    else:
                        entry = prefix.get(lex)
                        if entry is not None and entry[0] <= maxp \
                                and self.starts_term(i):
                            pri, fixity = entry
                            push((_PREFIX, maxp, lex, None, pri))
                            maxp = pri if fixity == "fy" else pri - 1
                            continue
                        pri = priorities[lex]
                        if pri > maxp:
                            # an operator atom as an operand goes in parens
                            self.error("operator %r cannot stand here" % lex, i - 1)
                        term = Atom(lex)
                else:
                    term = Atom(lex)
            elif kind is _VAR:     # a '(' right after it fails below
                if lex == "_":
                    term = Var("_")
                else:
                    term = varmap.get(lex)
                    if term is None:
                        term = varmap[lex] = Var(lex)
            elif kind is _NUM:
                term = int(lex) if lex.isdecimal() else float(lex)
            elif kind is _PUNCT:
                if lex == "(":
                    push((_PAREN, maxp, None, None, 0))
                    maxp = 1200
                    continue
                if lex == "[":
                    if pairs[i][0] != "]":
                        push((_LIST, maxp, None, [], 0))
                        maxp = 999
                        continue
                    i += 1
                    term = NIL
                elif lex == "{" and pairs[i][0] == "}":
                    i += 1
                    term = Atom("{}")
                elif lex == "{":
                    self.error("brace terms are not supported", i - 1)
                else:
                    self.error("unexpected token %r" % lex, i - 1)
            elif kind is _QUOTED:
                name, bad = _unquote(lex)
                if bad:
                    self.error("", i - 1)
                if not layout and pairs[i][0] == "(":
                    push((_ARGS, maxp, name, [], 0))
                    i += 1
                    maxp = 999
                    continue
                term = Atom(name)
            elif kind is _DOT:
                self.error("unexpected end of clause", i - 1)
            else:
                self.error("unexpected end of input", i - 1)
            # a term is read: take the operators after it, and close the
            # frames it completes, until one needs another term
            while True:
                lex = pairs[i][0]
                entry = infix.get(lex)
                if entry is None:
                    if lex == "," and maxp >= 1000:
                        entry = _COMMA
                elif _KIND[lex[0]] is not _ATOM and self.kind(i) is not _ATOM:
                    entry = None   # punctuation, a variable, the end
                if entry is not None and entry[0] <= maxp:
                    priority, fixity = entry
                    if pri <= (priority if fixity in ("yfx", "yf") else priority - 1):
                        i += 1
                        if fixity in ("xf", "yf"):
                            term = new_struct(lex, (term,))
                            pri = priority
                            continue
                        push((_INFIX, maxp, lex, term, priority))
                        maxp = priority if fixity == "xfy" else priority - 1
                        break
                if not frames:
                    return term, i
                kind, maxp, name, part, pri = frames[-1]
                if kind is _ARGS or kind is _LIST:
                    part.append(term)
                    i += 1
                    if lex == ",":     # the next argument or element
                        maxp = 999
                        break
                del frames[-1]
                if kind is _ARGS:
                    if lex != ")":
                        self.error("expected ',' or ')' in argument list", i - 1)
                    term = new_struct(name, tuple(part))
                elif kind is _INFIX:
                    term = new_struct(name, (part, term))
                elif kind is _LIST:
                    if lex == "|":
                        push((_TAIL, maxp, None, part, 0))
                        maxp = 999
                        break
                    if lex != "]":
                        self.error("expected ',', '|' or ']' in list", i - 1)
                    term = make_list(part)
                elif kind is _PREFIX:
                    term = new_struct(name, (term,))
                else:
                    close = ")" if kind is _PAREN else "]"
                    if lex != close:
                        self.error("expected %r, found %s" % (close, self.found(i)), i)
                    i += 1
                    if kind is _TAIL:
                        term = make_list(part, term)

    def clause(self, i, varmap, query=False):
        """Read a term and its end: (term, index after the end), None at eof.

        A term ends with a '.', or, in a query, at the end of the text.
        """
        if i == self.last:
            self.check_layout()
            return None
        term, i = self.term(i, varmap)
        if self.kind(i) is _DOT:
            i += 1
        elif i != self.last:
            self.error("operator priority clash or unexpected token %r"
                       % (self.value(i),), i)
        elif not query:
            self.error("unexpected end of input", i)
        return term, i

    def check_layout(self):
        """Raise on a block comment left open at the end of the text."""
        if self.open:
            self.error("", self.last)


def _number(lex):
    return int(lex) if lex.isdecimal() else float(lex)


@dataclass
class SourceItem:
    """A directive or clause term read from source, with provenance."""

    term: object
    is_directive: bool
    filename: str
    line: int


def parse_term(text, optable, filename="<text>"):
    """Parse a single term; end of input ends it as a final '.' does."""
    reader = _Reader(text, optable, filename)
    varmap = {}
    read = reader.clause(1, varmap, query=True)
    if read is None:
        raise ReaderError("empty input", filename)
    if read[1] != reader.last:
        reader.error("unexpected text after term", read[1])
    reader.check_layout()
    return read[0], varmap


def ends_clause(text):
    """Whether text ends with an end token, no block comment left open."""
    reader = _Reader(text, None, "<text>")
    return reader.last > 1 and reader.kind(reader.last - 1) is _DOT and not reader.open


def parse_program(text, optable, filename="<text>"):
    """Yield a SourceItem for each clause and directive, as it is read.

    The next item is read only when it is asked for, with the table as it
    is then: an op/3 directive run in between governs the rest of the text.
    """
    reader = _Reader(text, optable, filename)
    pairs = reader.pairs
    i, line, offset, counted = 1, 1, 0, 0
    while True:
        read = reader.clause(i, {})
        if read is None:
            return
        # the line of the clause's first lexeme, counted on from the last
        start = offset + sum(map(len, chain.from_iterable(pairs[counted:i])))
        line += text.count("\n", offset, start)
        offset, counted = start, i
        term, i = read
        is_directive = (
            isinstance(term, Struct) and term.functor == ":-" and len(term.args) == 1
        )
        yield SourceItem(term, is_directive, filename, line)
