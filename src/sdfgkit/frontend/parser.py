"""Lexer and recursive-descent parser for the array DSL.

Surface syntax is an indentation-structured Python subset: typed function
definitions, assignments and augmented assignments, slicing with negative
ends, `@` for matrix products, `for .. in range(..)` loops, parallel
`for .. in map[..]` scopes, and `if`/`elif`/`else` branches.
"""

from __future__ import annotations

import re

from .dsl_ast import (
    DTYPES, EBin, ECall, EName, ENum, ESlice, ESub, EUn, Expr, FuncDef, Param,
    Program, SAssign, SCall, SFor, SIf, Span, SReturn, Stmt, children,
)

KEYWORDS = {"def", "for", "in", "if", "elif", "else", "return", "range", "map",
            "and", "or", "not"}

# The analyses after parsing recurse once per level of an expression tree, and
# the parser once per bracket: a deeper expression is a syntax error, not a
# RecursionError.  A chain of 200 operands, as ``x + x + ... + x``, is 200
# levels deep.
MAX_DEPTH = 200
MAX_BRACKETS = 50

# one token and the spaces before it
_TOKEN_RE = re.compile(
    r" *(?:(?P<FLOAT>\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)"
    r"|(?P<INT>\d+)"
    r"|(?P<NAME>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<OP>\+=|-=|\*=|//|<=|>=|==|!=|[-+*/@=<>()\[\]:,]))"
)


class DslSyntaxError(SyntaxError):
    def __init__(self, message: str, span: Span):
        super().__init__(f"{span}: {message}")
        self.span = span
        self.raw_message = message


class Token:
    __slots__ = ("kind", "value", "span")

    def __init__(self, kind, value, span):
        self.kind = kind
        self.value = value
        self.span = span

    def __repr__(self):
        return f"Token({self.kind},{self.value!r})"


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    match = _TOKEN_RE.match
    indents = [0]
    lines = source.split("\n")
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if "\t" in raw[: len(raw) - len(raw.lstrip())]:
            raise DslSyntaxError("tabs are not allowed in indentation", Span(ln, 1))
        indent = len(line) - len(line.lstrip(" "))
        if indent > indents[-1]:
            indents.append(indent)
            tokens.append(Token("INDENT", indent, Span(ln, 1)))
        while indent < indents[-1]:
            indents.pop()
            tokens.append(Token("DEDENT", indent, Span(ln, 1)))
        if indent != indents[-1]:
            raise DslSyntaxError("inconsistent indentation", Span(ln, indent + 1))
        pos, end = indent, len(line)  # the line ends in a token
        while pos < end:
            m = match(line, pos)
            if not m:
                pos = end - len(line[pos:].lstrip(" "))
                raise DslSyntaxError(f"unexpected character {line[pos]!r}", Span(ln, pos + 1))
            kind = m.lastgroup
            text = m.group(kind)
            span = Span(ln, m.start(kind) + 1)
            if kind == "FLOAT":
                tokens.append(Token("FLOAT", float(text), span))
            elif kind == "INT":
                tokens.append(Token("INT", int(text), span))
            elif kind == "NAME":
                tokens.append(Token("KW" if text in KEYWORDS else "NAME", text, span))
            else:
                tokens.append(Token("OP", text, span))
            pos = m.end()
        tokens.append(Token("NEWLINE", None, Span(ln, len(line) + 1)))
    while len(indents) > 1:
        indents.pop()
        tokens.append(Token("DEDENT", 0, Span(len(lines), 1)))
    tokens.append(Token("EOF", None, Span(len(lines) + 1, 1)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0
        self.brackets = -1  # the expressions being parsed inside the outermost one

    # -- token helpers -------------------------------------------------------

    # ``take`` never consumes the EOF token that ends the list, so the
    # current token is always there; a read past it finds EOF

    def peek(self, k: int = 0) -> Token:
        try:
            return self.toks[self.i + k]
        except IndexError:
            return self.toks[-1]

    def at(self, kind: str, value=None) -> bool:
        t = self.toks[self.i]
        return t.kind == kind and (value is None or t.value == value)

    def take(self, kind: str, value=None) -> Token:
        t = self.toks[self.i]
        if t.kind != kind or (value is not None and t.value != value):
            want = value if value is not None else kind
            raise DslSyntaxError(f"expected {want!r}, got {t.value!r}", t.span)
        self.i += 1
        return t

    def take_op(self, op: str) -> Token:
        return self.take("OP", op)

    # -- grammar -------------------------------------------------------------

    def program(self) -> Program:
        funcs = []
        while not self.at("EOF"):
            funcs.append(self.funcdef())
        if not funcs:
            raise DslSyntaxError("empty program", Span(1, 1))
        return Program(funcs)

    def funcdef(self) -> FuncDef:
        t = self.take("KW", "def")
        name = self.take("NAME").value
        self.take_op("(")
        params = []
        while not self.at("OP", ")"):
            params.append(self.param())
            if self.at("OP", ","):
                self.take_op(",")
        self.take_op(")")
        self.take_op(":")
        body = self.block()
        return FuncDef(name, params, body, t.span)

    def param(self) -> Param:
        nt = self.take("NAME")
        self.take_op(":")
        dt = self.take("NAME")
        if dt.value not in DTYPES:
            raise DslSyntaxError(f"unknown dtype {dt.value!r}", dt.span)
        shape: list[Expr] = []
        if self.at("OP", "["):
            self.take_op("[")
            shape.append(self.expr())
            while self.at("OP", ","):
                self.take_op(",")
                shape.append(self.expr())
            self.take_op("]")
        return Param(nt.value, dt.value, shape, nt.span)

    def block(self) -> list[Stmt]:
        if self.at("NEWLINE"):
            self.take("NEWLINE")
            self.take("INDENT")
            stmts = []
            while not self.at("DEDENT") and not self.at("EOF"):
                stmts.append(self.statement())
            if self.at("DEDENT"):
                self.take("DEDENT")
            return stmts
        # inline single-statement block: `for i in map[..]: A[i] = 0.0`
        return [self.statement()]

    def statement(self) -> Stmt:
        t = self.peek()
        if t.kind == "KW" and t.value == "for":
            return self.for_stmt()
        if t.kind == "KW" and t.value == "if":
            return self.if_stmt()
        if t.kind == "KW" and t.value == "return":
            self.take("KW", "return")
            self.take("NEWLINE")
            return SReturn(t.span)
        if t.kind == "NAME":
            # call statement or assignment
            if self.peek(1).kind == "OP" and self.peek(1).value == "(":
                name = self.take("NAME").value
                self.take_op("(")
                args = []
                while not self.at("OP", ")"):
                    args.append(self.expr())
                    if self.at("OP", ","):
                        self.take_op(",")
                self.take_op(")")
                self.take("NEWLINE")
                return SCall(t.span, name, args)
            target = self.target()
            op_tok = self.take("OP")
            if op_tok.value not in ("=", "+=", "-=", "*="):
                raise DslSyntaxError(f"expected assignment, got {op_tok.value!r}", op_tok.span)
            value = self.expr()
            self.take("NEWLINE")
            return SAssign(t.span, target, op_tok.value, value)
        raise DslSyntaxError(f"unexpected token {t.value!r}", t.span)

    def for_stmt(self) -> SFor:
        t = self.take("KW", "for")
        names = [self.take("NAME").value]
        while self.at("OP", ","):
            self.take_op(",")
            names.append(self.take("NAME").value)
        self.take("KW", "in")
        it = self.take("KW")
        if it.value == "range":
            self.take_op("(")
            args = [self.expr()]
            while self.at("OP", ","):
                self.take_op(",")
                args.append(self.expr())
            self.take_op(")")
            if len(args) == 1:
                ranges = [None, args[0], None]
            elif len(args) == 2:
                ranges = [args[0], args[1], None]
            elif len(args) == 3:
                ranges = [args[0], args[1], args[2]]
            else:
                raise DslSyntaxError("range takes 1 to 3 arguments", it.span)
            kind = "range"
        elif it.value == "map":
            self.take_op("[")
            ranges = [self.slice_expr()]
            while self.at("OP", ","):
                self.take_op(",")
                ranges.append(self.slice_expr())
            self.take_op("]")
            kind = "map"
        else:
            raise DslSyntaxError("expected 'range' or 'map' iterator", it.span)
        self.take_op(":")
        body = self.block()
        return SFor(t.span, names, kind, ranges, body)

    def if_stmt(self) -> SIf:
        t = self.take("KW")  # 'if' or 'elif'
        cond = self.expr()
        self.take_op(":")
        then = self.block()
        orelse: list[Stmt] = []
        if self.at("KW", "elif"):
            orelse = [self.if_stmt()]
        elif self.at("KW", "else"):
            self.take("KW", "else")
            self.take_op(":")
            orelse = self.block()
        return SIf(t.span, cond, then, orelse)

    def target(self) -> Expr:
        t = self.take("NAME")
        if self.at("OP", "["):
            return self.subscript(t.value, t.span)
        return EName(t.span, t.value)

    # -- expressions ----------------------------------------------------------

    def expr(self) -> Expr:
        start = self.i
        if self.brackets == MAX_BRACKETS:
            raise DslSyntaxError(f"expression nests more than {MAX_BRACKETS} brackets deep",
                                 self.toks[start].span)
        self.brackets += 1
        e = self.or_expr()
        self.brackets -= 1
        # each level of the tree has a token of its own, so only an
        # expression of more tokens than levels allowed can be too deep
        if self.brackets < 0 and self.i - start > MAX_DEPTH and _depth(e) > MAX_DEPTH:
            raise DslSyntaxError(f"expression is more than {MAX_DEPTH} levels deep",
                                 self.toks[start].span)
        return e

    def or_expr(self) -> Expr:
        e = self.and_expr()
        while self.at("KW", "or"):
            t = self.take("KW")
            e = EBin(t.span, "or", e, self.and_expr())
        return e

    def and_expr(self) -> Expr:
        e = self.not_expr()
        while self.at("KW", "and"):
            t = self.take("KW")
            e = EBin(t.span, "and", e, self.not_expr())
        return e

    def not_expr(self) -> Expr:
        if not self.at("KW", "not"):
            return self.comparison()
        spans = []  # a loop, not one call per sign, however many there are
        while self.at("KW", "not"):
            spans.append(self.take("KW").span)
        e = self.comparison()
        for span in reversed(spans):
            e = EUn(span, "not", e)
        return e

    def comparison(self) -> Expr:
        e = self.arith()
        if self.peek().kind == "OP" and self.peek().value in ("<", "<=", ">", ">=", "==", "!="):
            t = self.take("OP")
            return EBin(t.span, t.value, e, self.arith())
        return e

    def arith(self) -> Expr:
        e = self.term()
        while self.peek().kind == "OP" and self.peek().value in ("+", "-"):
            t = self.take("OP")
            e = EBin(t.span, t.value, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek().kind == "OP" and self.peek().value in ("*", "/", "//", "@"):
            t = self.take("OP")
            e = EBin(t.span, t.value, e, self.unary())
        return e

    def unary(self) -> Expr:
        t = self.toks[self.i]
        if t.kind != "OP" or t.value not in ("-", "+"):
            return self.atom()
        spans = []  # of each minus sign (a plus sign changes nothing), in a loop
        while self.at("OP", "-") or self.at("OP", "+"):
            t = self.take("OP")
            if t.value == "-":
                spans.append(t.span)
        e = self.atom()
        for span in reversed(spans):
            e = EUn(span, "-", e)
        return e

    def atom(self) -> Expr:
        t = self.peek()
        if t.kind == "INT":
            self.take("INT")
            return ENum(t.span, t.value, False)
        if t.kind == "FLOAT":
            self.take("FLOAT")
            return ENum(t.span, t.value, True)
        if t.kind == "OP" and t.value == "(":
            self.take_op("(")
            e = self.expr()
            self.take_op(")")
            return e
        if t.kind == "NAME":
            name = self.take("NAME").value
            if self.at("OP", "("):
                self.take_op("(")
                args = []
                while not self.at("OP", ")"):
                    args.append(self.expr())
                    if self.at("OP", ","):
                        self.take_op(",")
                self.take_op(")")
                return ECall(t.span, name, args)
            if self.at("OP", "["):
                return self.subscript(name, t.span)
            return EName(t.span, name)
        raise DslSyntaxError(f"unexpected token {t.value!r}", t.span)

    def subscript(self, base: str, span: Span) -> ESub:
        self.take_op("[")
        indices = [self.slice_or_index()]
        while self.at("OP", ","):
            self.take_op(",")
            indices.append(self.slice_or_index())
        self.take_op("]")
        return ESub(span, base, indices)

    def slice_or_index(self) -> Expr:
        start = self.peek().span
        lo: Expr | None = None
        if not self.at("OP", ":"):
            lo = self.expr()
            if not self.at("OP", ":"):
                return lo  # plain point index
        self.take_op(":")
        hi: Expr | None = None
        if not self.at("OP", ":") and not self.at("OP", "]") and not self.at("OP", ","):
            hi = self.expr()
        step: Expr | None = None
        if self.at("OP", ":"):
            self.take_op(":")
            if not self.at("OP", "]") and not self.at("OP", ","):
                step = self.expr()
        return ESlice(start, lo, hi, step)

    def slice_expr(self) -> ESlice:
        e = self.slice_or_index()
        if not isinstance(e, ESlice):
            raise DslSyntaxError("map dimensions must be slices `begin:end`", e.span)
        return e


def _depth(e: Expr) -> int:
    """The number of levels of the tree under ``e``, found without recursion."""
    deepest, stack = 0, [(e, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        stack.extend((kid, level + 1) for kid in children(node))
    return deepest


def parse_tokens(source: str) -> Program:
    p = _Parser(tokenize(source))
    prog = p.program()
    prog.source = source
    return prog
