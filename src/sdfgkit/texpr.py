"""Scalar expression AST shared by tasklet bodies and interstate conditions.

Deliberately small: arithmetic, comparisons, boolean connectives, a ternary
select, and a handful of math intrinsics.  One representation serves the
interpreter, the serializer, and the C emitter.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Mapping


@dataclass(frozen=True)
class TExpr:
    """Base class of scalar expressions.

    Nodes are immutable, so each keeps what it derives: its hash (equal to
    the hash a frozen dataclass computes from its fields, so the order of
    sets and dicts of expressions does not move), its text
    (:func:`to_text`), its negation (:func:`negated`) and the names it
    reads.  Copies and pickles carry none of these."""

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k not in _DERIVED}

    def free_names(self) -> set[str]:
        # a set filled in the order of the walk, as the walk itself fills it
        return set(self._name_order)

    @functools.cached_property
    def _hash(self) -> int:
        return hash(tuple(getattr(self, f) for f in self.__match_args__))

    @functools.cached_property
    def _text(self) -> str:
        return _render(self, 0)

    @functools.cached_property
    def _negation(self) -> "TExpr":
        return _negate(self)

    @functools.cached_property
    def _name_order(self) -> tuple[str, ...]:
        """The names the expression reads, each once, in the order of a
        walk."""
        out: dict[str, None] = {}
        _names(self, out)
        return tuple(out)


_DERIVED = ("_hash", "_text", "_negation", "_name_order")


@dataclass(frozen=True)
class TNum(TExpr):
    value: float | int


@dataclass(frozen=True)
class TRef(TExpr):
    name: str


@dataclass(frozen=True)
class TUn(TExpr):
    op: str  # '-' | 'not'
    operand: TExpr


@dataclass(frozen=True)
class TBin(TExpr):
    op: str  # + - * / // < <= > >= == != and or
    left: TExpr
    right: TExpr


@dataclass(frozen=True)
class TSelect(TExpr):
    cond: TExpr
    then: TExpr
    other: TExpr


@dataclass(frozen=True)
class TCall(TExpr):
    fn: str  # sqrt exp abs pow min max
    args: tuple[TExpr, ...]


# the dataclass decorator gives each node class the hash of its fields;
# each keeps the base class's, which computes that hash once
for _cls in (TNum, TRef, TUn, TBin, TSelect, TCall):
    _cls.__hash__ = TExpr.__hash__


_INTRINSICS: dict[str, Callable] = {
    "sqrt": math.sqrt,
    "exp": math.exp,
    "abs": abs,
    "pow": pow,
    "min": min,
    "max": max,
}

COMPARISONS = ("<", "<=", ">", ">=", "==", "!=")


def _names(e: TExpr, out: dict[str, None]) -> None:
    if isinstance(e, TRef):
        out[e.name] = None
    elif isinstance(e, TUn):
        _names(e.operand, out)
    elif isinstance(e, TBin):
        _names(e.left, out)
        _names(e.right, out)
    elif isinstance(e, TSelect):
        _names(e.cond, out)
        _names(e.then, out)
        _names(e.other, out)
    elif isinstance(e, TCall):
        for a in e.args:
            _names(a, out)


def evaluate(e: TExpr, env: Mapping[str, float | int | bool]) -> float | int | bool:
    if isinstance(e, TNum):
        return e.value
    if isinstance(e, TRef):
        if e.name not in env:
            raise KeyError(f"unbound name '{e.name}' in scalar expression")
        return env[e.name]
    if isinstance(e, TUn):
        v = evaluate(e.operand, env)
        return (not v) if e.op == "not" else -v
    if isinstance(e, TBin):
        if e.op == "and":
            return bool(evaluate(e.left, env)) and bool(evaluate(e.right, env))
        if e.op == "or":
            return bool(evaluate(e.left, env)) or bool(evaluate(e.right, env))
        lv = evaluate(e.left, env)
        rv = evaluate(e.right, env)
        if e.op == "+":
            return lv + rv
        if e.op == "-":
            return lv - rv
        if e.op == "*":
            return lv * rv
        if e.op == "/":
            return lv / rv
        if e.op == "//":
            return lv // rv
        if e.op == "<":
            return lv < rv
        if e.op == "<=":
            return lv <= rv
        if e.op == ">":
            return lv > rv
        if e.op == ">=":
            return lv >= rv
        if e.op == "==":
            return lv == rv
        if e.op == "!=":
            return lv != rv
        raise ValueError(f"unknown operator {e.op!r}")
    if isinstance(e, TSelect):
        return evaluate(e.then, env) if evaluate(e.cond, env) else evaluate(e.other, env)
    if isinstance(e, TCall):
        return _INTRINSICS[e.fn](*(evaluate(a, env) for a in e.args))
    raise TypeError(type(e).__name__)


# ---------------------------------------------------------------------------
# Text form

_PREC = {
    "or": 1,
    "and": 2,
    "not": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4, "==": 4, "!=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "//": 6,
    "u-": 7,
}


def to_text(e: TExpr) -> str:
    return e._text


def _render(x: TExpr, parent: int) -> str:
    if isinstance(x, TNum):
        if isinstance(x.value, float):
            s = repr(x.value)
        else:
            s = str(x.value)
        return f"({s})" if (isinstance(x.value, (int, float)) and x.value < 0 and parent > 5) else s
    if isinstance(x, TRef):
        return x.name
    if isinstance(x, TCall):
        return f"{x.fn}({', '.join(_render(a, 0) for a in x.args)})"
    if isinstance(x, TSelect):
        body = f"{_render(x.cond, 4)} ? {_render(x.then, 1)} : {_render(x.other, 1)}"
        return f"({body})" if parent > 0 else body
    if isinstance(x, TUn):
        if x.op == "not":
            body = f"not {_render(x.operand, _PREC['not'])}"
            return f"({body})" if parent > _PREC["not"] else body
        body = f"-{_render(x.operand, _PREC['u-'])}"
        return f"({body})" if parent > _PREC["u-"] else body
    if isinstance(x, TBin):
        p = _PREC[x.op]
        body = f"{_render(x.left, p)} {x.op} {_render(x.right, p + 1)}"
        return f"({body})" if p < parent else body
    raise TypeError(type(x).__name__)


_TOK = re.compile(
    r"\s*(\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+|\d+"
    r"|[A-Za-z_][A-Za-z_0-9]*|//|<=|>=|==|!=|[-+*/()<>?,:])"
)


class TExprSyntaxError(ValueError):
    pass


class _Parser:
    def __init__(self, text: str):
        self.toks: list[str] = []
        pos = 0
        while pos < len(text):
            m = _TOK.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise TExprSyntaxError(f"bad scalar expression near {text[pos:]!r}")
                break
            self.toks.append(m.group(1))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, want=None):
        t = self.peek()
        if t is None:
            raise TExprSyntaxError("unexpected end of scalar expression")
        if want is not None and t != want:
            raise TExprSyntaxError(f"expected {want!r}, got {t!r}")
        self.i += 1
        return t

    def parse(self) -> TExpr:
        e = self.select()
        if self.peek() is not None:
            raise TExprSyntaxError(f"trailing tokens {self.toks[self.i:]}")
        return e

    def select(self) -> TExpr:
        cond = self.or_()
        if self.peek() == "?":
            self.take()
            then = self.select()
            self.take(":")
            other = self.select()
            return TSelect(cond, then, other)
        return cond

    def or_(self) -> TExpr:
        e = self.and_()
        while self.peek() == "or":
            self.take()
            e = TBin("or", e, self.and_())
        return e

    def and_(self) -> TExpr:
        e = self.not_()
        while self.peek() == "and":
            self.take()
            e = TBin("and", e, self.not_())
        return e

    def not_(self) -> TExpr:
        if self.peek() == "not":
            self.take()
            return TUn("not", self.not_())
        return self.comparison()

    def comparison(self) -> TExpr:
        e = self.addsub()
        if self.peek() in COMPARISONS:
            op = self.take()
            return TBin(op, e, self.addsub())
        return e

    def addsub(self) -> TExpr:
        e = self.muldiv()
        while self.peek() in ("+", "-"):
            op = self.take()
            e = TBin(op, e, self.muldiv())
        return e

    def muldiv(self) -> TExpr:
        e = self.unary()
        while self.peek() in ("*", "/", "//"):
            op = self.take()
            e = TBin(op, e, self.unary())
        return e

    def unary(self) -> TExpr:
        if self.peek() == "-":
            self.take()
            return TUn("-", self.unary())
        if self.peek() == "+":
            self.take()
            return self.unary()
        return self.atom()

    def atom(self) -> TExpr:
        t = self.take()
        if re.fullmatch(r"\d+", t):
            return TNum(int(t))
        if re.fullmatch(r"(\d+\.\d*|\.\d+|\d+)([eE][-+]?\d+)?", t):
            return TNum(float(t))
        if t == "(":
            e = self.select()
            self.take(")")
            return e
        if t in _INTRINSICS:
            self.take("(")
            args = [self.select()]
            while self.peek() == ",":
                self.take()
                args.append(self.select())
            self.take(")")
            return TCall(t, tuple(args))
        if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", t):
            return TRef(t)
        raise TExprSyntaxError(f"unexpected token {t!r}")


# an expression is an immutable value, so the parse of a text is kept in a
# bounded table; a text that fails to parse is not kept, and raises on every call
@functools.lru_cache(maxsize=4096)
def parse_texpr(text: str) -> TExpr:
    return _Parser(text).parse()


def negated(e: TExpr) -> TExpr:
    """Structural negation, used for else-branches and loop exits."""
    return e._negation


def _negate(e: TExpr) -> TExpr:
    if isinstance(e, TUn) and e.op == "not":
        return e.operand
    flip = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}
    if isinstance(e, TBin) and e.op in flip:
        return TBin(flip[e.op], e.left, e.right)
    return TUn("not", e)


def subst_refs(e: TExpr, mapping: Mapping[str, TExpr]) -> TExpr:
    if isinstance(e, TNum):
        return e
    if isinstance(e, TRef):
        return mapping.get(e.name, e)
    if isinstance(e, TUn):
        return TUn(e.op, subst_refs(e.operand, mapping))
    if isinstance(e, TBin):
        return TBin(e.op, subst_refs(e.left, mapping), subst_refs(e.right, mapping))
    if isinstance(e, TSelect):
        return TSelect(
            subst_refs(e.cond, mapping), subst_refs(e.then, mapping), subst_refs(e.other, mapping)
        )
    if isinstance(e, TCall):
        return TCall(e.fn, tuple(subst_refs(a, mapping) for a in e.args))
    raise TypeError(type(e).__name__)
