"""AST for the restricted array DSL (a typed Python subset, `.dpy` files)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from .sema import ProgramInfo


@dataclass(frozen=True)
class Span:
    line: int
    col: int

    def __str__(self):
        return f"{self.line}:{self.col}"


@dataclass
class Diagnostic:
    severity: str  # 'error' | 'warning'
    span: Span
    message: str
    restriction: str | None = None  # R1..R4 for language-restriction findings

    def to_json(self):
        return {
            "severity": self.severity,
            "line": self.span.line,
            "col": self.span.col,
            "message": self.message,
            "restriction": self.restriction,
        }

    def __str__(self):
        rid = f" [{self.restriction}]" if self.restriction else ""
        return f"{self.span}: {self.severity}: {self.message}{rid}"


# --- expressions -----------------------------------------------------------


@dataclass
class Expr:
    span: Span


@dataclass
class ENum(Expr):
    value: float | int
    is_float: bool


@dataclass
class EName(Expr):
    id: str


@dataclass
class ESlice(Expr):
    """Only valid directly inside a subscript."""

    lo: Expr | None
    hi: Expr | None
    step: Expr | None


@dataclass
class ESub(Expr):
    base: str
    indices: list[Expr]  # point expressions or ESlice


@dataclass
class EUn(Expr):
    op: str  # '-' | 'not'
    operand: Expr


@dataclass
class EBin(Expr):
    op: str  # + - * / // @ < <= > >= == != and or
    left: Expr
    right: Expr


@dataclass
class ECall(Expr):
    fn: str
    args: list[Expr]


# --- statements --------------------------------------------------------------


@dataclass
class Stmt:
    span: Span


@dataclass
class SAssign(Stmt):
    target: Expr  # EName or ESub
    op: str  # '=' | '+=' | '-=' | '*='
    value: Expr


@dataclass
class SFor(Stmt):
    names: list[str]
    kind: str  # 'range' | 'map'
    ranges: list  # range: [start|None, stop, step|None]; map: list[ESlice]
    body: list[Stmt] = field(default_factory=list)


@dataclass
class SIf(Stmt):
    cond: Expr
    then: list[Stmt] = field(default_factory=list)
    orelse: list[Stmt] = field(default_factory=list)


@dataclass
class SCall(Stmt):
    fn: str
    args: list[Expr] = field(default_factory=list)


@dataclass
class SReturn(Stmt):
    pass


@dataclass
class Param:
    name: str
    dtype: str  # 'f64' | 'i64' | 'i32'
    shape: list[Expr]
    span: Span


@dataclass
class FuncDef:
    name: str
    params: list[Param]
    body: list[Stmt]
    span: Span


@dataclass
class Program:
    functions: list[FuncDef]
    source: str = ""
    diagnostics: list[Diagnostic] = field(default_factory=list)
    # the analysis of the functions' parameters (``sema.program_info``)
    info: ProgramInfo | None = field(default=None, repr=False, compare=False)

    def function(self, name: str) -> FuncDef:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"no function '{name}'")

    @property
    def entry(self) -> FuncDef:
        """The last function in the file is the program entry point."""
        if not self.functions:
            raise ValueError("empty program")
        return self.functions[-1]


# the direct sub-nodes of each kind of node that has any, in source order;
# absent slice bounds and range parts are None
_KIDS = {
    ESub: lambda n: n.indices,
    ESlice: lambda n: (n.lo, n.hi, n.step),
    EUn: lambda n: (n.operand,),
    EBin: lambda n: (n.left, n.right),
    ECall: lambda n: n.args,
    SCall: lambda n: n.args,
    SAssign: lambda n: (n.target, n.value),
    SFor: lambda n: (*n.ranges, *n.body),
    SIf: lambda n: (n.cond, *n.then, *n.orelse),
}


def children(node: Expr | Stmt) -> list[Expr | Stmt]:
    """The direct sub-expressions and sub-statements of ``node`` in source
    order; absent slice bounds and range parts are skipped."""
    kids = _KIDS.get(type(node))
    return [] if kids is None else [k for k in kids(node) if k is not None]


def walk(*nodes: Expr | Stmt) -> Iterator[Expr | Stmt]:
    """Each of ``nodes`` and every node under it, in pre-order."""
    stack = list(reversed(nodes))
    kids_of = _KIDS.get
    while stack:
        node = stack.pop()
        if node is None:  # an absent slice bound or range part
            continue
        yield node
        kids = kids_of(type(node))
        if kids is not None:
            stack.extend(reversed(kids(node)))


DTYPES = ("f64", "i64", "i32")

# Built-in callables usable in expressions or as statements.
EXPR_BUILTINS = ("sum", "sqrt", "exp", "abs", "pow", "min", "max",
                 "zeros", "empty", "requests", "block_scatter", "block_gather")
STMT_BUILTINS = ("comm_isend", "comm_irecv", "comm_waitall")
