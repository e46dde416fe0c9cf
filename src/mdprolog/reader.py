"""Tokenizer and operator-precedence parser for the mdp surface syntax."""

from __future__ import annotations

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


@dataclass
class Token:
    kind: str        # atom, qatom, var, int, float, punct, end, eof
    value: object
    line: int
    col: int
    spaced: bool     # preceded by whitespace or a comment
    func: bool = False  # immediately followed by '(' (compound notation)


def tokenize(text, filename="<text>"):
    tokens = []
    i, n = 0, len(text)
    line, col = 1, 1
    spaced = True

    def err(msg, l=None, c=None):
        raise ReaderError(msg, filename, l or line, c or col)

    def advance(k=1):
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance()
            spaced = True
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                advance()
            spaced = True
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            start_line, start_col = line, col
            advance(2)
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                advance()
            if i >= n:
                err("unterminated block comment", start_line, start_col)
            advance(2)
            spaced = True
            continue

        start_line, start_col = line, col

        if ch in PUNCT_CHARS:
            tokens.append(Token("punct", ch, start_line, start_col, spaced))
            advance()
            spaced = False
            continue
        if ch in SOLO_CHARS:
            tokens.append(Token("atom", ch, start_line, start_col, spaced))
            advance()
            spaced = False
            continue
        if ch == "'":
            advance()
            buf = []
            while True:
                if i >= n:
                    err("unterminated quoted atom", start_line, start_col)
                c = text[i]
                if c == "'":
                    if i + 1 < n and text[i + 1] == "'":
                        buf.append("'")
                        advance(2)
                        continue
                    advance()
                    break
                if c == "\\":
                    if i + 1 >= n:
                        err("unterminated quoted atom", start_line, start_col)
                    esc = text[i + 1]
                    mapped = {"n": "\n", "t": "\t", "\\": "\\", "'": "'", '"': '"'}.get(esc)
                    if mapped is None:
                        err("unknown escape \\%s in quoted atom" % esc)
                    buf.append(mapped)
                    advance(2)
                    continue
                buf.append(c)
                advance()
            tokens.append(Token("qatom", "".join(buf), start_line, start_col, spaced))
            spaced = False
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            is_float = False
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                is_float = True
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    is_float = True
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lexeme = text[i:j]
            advance(j - i)
            if is_float:
                tokens.append(Token("float", float(lexeme), start_line, start_col, spaced))
            else:
                tokens.append(Token("int", int(lexeme), start_line, start_col, spaced))
            spaced = False
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            lexeme = text[i:j]
            advance(j - i)
            kind = "var" if (lexeme[0] == "_" or lexeme[0].isupper()) else "atom"
            tokens.append(Token(kind, lexeme, start_line, start_col, spaced))
            spaced = False
            continue
        if ch in SYMBOL_CHARS:
            nxt = text[i + 1] if i + 1 < n else None
            if ch == "." and (nxt is None or nxt in " \t\r\n%"):
                tokens.append(Token("end", ".", start_line, start_col, spaced))
                advance()
                spaced = True
                continue
            j = i
            while j < n and text[j] in SYMBOL_CHARS:
                j += 1
            lexeme = text[i:j]
            advance(j - i)
            tokens.append(Token("atom", lexeme, start_line, start_col, spaced))
            spaced = False
            continue
        err("unexpected character %r" % ch)

    tokens.append(Token("eof", None, line, col, True))
    # mark atoms directly followed by '(' as compound functors
    for idx in range(len(tokens) - 1):
        nxt = tokens[idx + 1]
        if (
            tokens[idx].kind in ("atom", "qatom", "var")
            and nxt.kind == "punct"
            and nxt.value == "("
            and not nxt.spaced
        ):
            tokens[idx].func = True
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
