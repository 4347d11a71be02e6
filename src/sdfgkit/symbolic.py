"""Symbolic integer expressions and strided-subset algebra.

Every shape, iteration range, and memlet subset in the IR is written over
``SymExpr`` trees (integers, named symbols, +, -, *, floor division, min,
max).  Legality checks (``compare``, ``covers``, ``disjoint``) return a
``Ternary`` and are *sound*: TRUE/FALSE are only reported when they hold for
every symbol binding admitted by the ``Assumptions``; everything else is
UNKNOWN, which callers must treat as unsafe.

The decision procedure is deliberately simple: expressions are normalized to
a sum of products, and each term is bounded by interval arithmetic derived
from per-symbol lower bounds.  Nonlinear terms stay representable but mostly
undecidable, which keeps the analysis conservative.
"""

from __future__ import annotations

import functools
import math
import re
import weakref
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence


class Ternary(Enum):
    """Three-valued logic result; UNKNOWN must be treated as unsafe."""

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    def __bool__(self):
        raise TypeError("Ternary does not coerce to bool; compare explicitly")


def t_and(*values: Ternary) -> Ternary:
    if any(v is Ternary.FALSE for v in values):
        return Ternary.FALSE
    if all(v is Ternary.TRUE for v in values):
        return Ternary.TRUE
    return Ternary.UNKNOWN


def t_not(value: Ternary) -> Ternary:
    if value is Ternary.TRUE:
        return Ternary.FALSE
    if value is Ternary.FALSE:
        return Ternary.TRUE
    return Ternary.UNKNOWN


# ---------------------------------------------------------------------------
# Expression trees


class SymExpr:
    """Base class for symbolic integer expressions.

    Nodes are immutable and hash-consed: building a node equal to a live one
    returns that node, so equal expressions are one object and ``==`` is
    ``is``.  Each node keeps its hash, which equals the hash of the tuple of
    its fields (the hash a frozen dataclass computes), its free symbols and,
    once derived, its polynomial (see :func:`_normalize`) and its text (see
    :func:`to_text`).  The table of live nodes holds them weakly."""

    __slots__ = ("_hash", "_free", "_poly", "_text", "__weakref__")

    def __add__(self, other) -> SymExpr:
        return Add(self, as_expr(other))

    def __radd__(self, other) -> SymExpr:
        return Add(as_expr(other), self)

    def __sub__(self, other) -> SymExpr:
        return Sub(self, as_expr(other))

    def __rsub__(self, other) -> SymExpr:
        return Sub(as_expr(other), self)

    def __mul__(self, other) -> SymExpr:
        return Mul(self, as_expr(other))

    def __rmul__(self, other) -> SymExpr:
        return Mul(as_expr(other), self)

    def __floordiv__(self, other) -> SymExpr:
        return FloorDiv(self, as_expr(other))

    def __neg__(self) -> SymExpr:
        return Mul(Const(-1), self)

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field '{name}'")

    def __reduce__(self):  # copies and unpickled nodes are interned too
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def free_symbols(self) -> frozenset[str]:
        return self._free

    def evaluate(self, bindings: Mapping[str, int]) -> int:
        return _evaluate(self, bindings)

    def __str__(self) -> str:
        return to_text(self)


# the live nodes, held weakly, by (class, value) for leaves and by (class,
# id(left), id(right)) for the others: a node keeps its children alive, so
# their ids name them for as long as its entry lasts
_interned: dict[tuple, weakref.KeyedRef] = {}
_NO_SYMBOLS: frozenset[str] = frozenset()
_setfield = object.__setattr__


def _forget(ref: weakref.KeyedRef, table=_interned) -> None:
    # the table is bound as a default, so that a node freed while the
    # interpreter exits still finds it; the key may name a newer node
    if table.get(ref.key) is ref:
        del table[ref.key]


def _intern(node: SymExpr, key: tuple, h: int, free: frozenset[str]) -> None:
    _setfield(node, "_hash", h)
    _setfield(node, "_free", free)
    _setfield(node, "_poly", None)
    _setfield(node, "_text", None)
    _interned[key] = weakref.KeyedRef(node, _forget, key)


class Const(SymExpr):
    __slots__ = ("value",)
    __match_args__ = ("value",)

    def __new__(cls, value: int):
        # a float, bool or numpy integer would compare and hash equal to the
        # int, so a memoized canonical form could hand back the wrong type
        if type(value) is not int:
            raise TypeError(f"symbolic constant must be an int, not {type(value).__name__}")
        key = (cls, value)
        ref = _interned.get(key)
        node = ref() if ref is not None else None
        if node is None:
            node = object.__new__(cls)
            _setfield(node, "value", value)
            _intern(node, key, hash((value,)), _NO_SYMBOLS)
        return node


class Sym(SymExpr):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        ref = _interned.get(key)
        node = ref() if ref is not None else None
        if node is None:
            node = object.__new__(cls)
            _setfield(node, "name", name)
            _intern(node, key, hash((name,)), frozenset((name,)))
        return node


class _Binary(SymExpr):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __new__(cls, left: SymExpr, right: SymExpr):
        key = (cls, id(left), id(right))
        ref = _interned.get(key)
        node = ref() if ref is not None else None
        if node is None:
            node = object.__new__(cls)
            _setfield(node, "left", left)
            _setfield(node, "right", right)
            lf, rf = left._free, right._free
            _intern(node, key, hash((left, right)),
                    lf if rf <= lf else rf if lf <= rf else lf | rf)
        return node


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class FloorDiv(_Binary):
    __slots__ = ()


class Min(_Binary):
    __slots__ = ()


class Max(_Binary):
    __slots__ = ()


def as_expr(value: SymExpr | int | str) -> SymExpr:
    """Coerce an int or symbol name into a SymExpr."""
    if isinstance(value, SymExpr):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a symbolic integer")
    if isinstance(value, int):
        return Const(value)
    if isinstance(value, str):
        return Sym(value)
    raise TypeError(f"cannot interpret {value!r} as a symbolic expression")


def _evaluate(e: SymExpr, b: Mapping[str, int]) -> int:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Sym):
        if e.name not in b:
            raise KeyError(f"unbound symbol '{e.name}'")
        return int(b[e.name])
    lv = _evaluate(e.left, b)
    rv = _evaluate(e.right, b)
    if isinstance(e, Add):
        return lv + rv
    if isinstance(e, Sub):
        return lv - rv
    if isinstance(e, Mul):
        return lv * rv
    if isinstance(e, FloorDiv):
        if rv == 0:
            raise ZeroDivisionError("symbolic floor division by zero")
        return lv // rv  # rounds toward negative infinity
    if isinstance(e, Min):
        return min(lv, rv)
    if isinstance(e, Max):
        return max(lv, rv)
    raise TypeError(f"unknown node {type(e).__name__}")


# ---------------------------------------------------------------------------
# Assumptions


class Assumptions:
    """Per-symbol integer lower bounds used by all comparisons.

    Declared size symbols get a default lower bound of 1; auxiliary symbols
    (offsets, iteration distances) carry explicit bounds.

    Immutable and hashable, so that :func:`compare` can key its table on
    them: two assumptions are equal, and hash equal, when their bounds are.
    """

    __slots__ = ("_bounds", "_hash")
    DEFAULT_LOWER = 1

    def __init__(self, bounds: Mapping[str, int] | None = None):
        _setfield(self, "_bounds", dict(bounds or {}))
        _setfield(self, "_hash", None)

    @property
    def bounds(self) -> Mapping[str, int]:
        return MappingProxyType(self._bounds)

    def lower(self, name: str) -> int:
        return self._bounds.get(name, self.DEFAULT_LOWER)

    def with_bound(self, name: str, lower: int) -> "Assumptions":
        return Assumptions({**self._bounds, name: lower})

    def __eq__(self, other):
        return self is other or (isinstance(other, Assumptions) and self._bounds == other._bounds)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(frozenset(self._bounds.items()))
            _setfield(self, "_hash", h)
        return h

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field '{name}'")

    def __reduce__(self):
        return Assumptions, (self._bounds,)

    def __repr__(self):
        return f"Assumptions({self._bounds!r})"


# ---------------------------------------------------------------------------
# Normalization: sums of products with deterministic term order

# A monomial is a sorted tuple of atomic factors; an atom is a Sym or an
# opaque Min/Max/FloorDiv whose operands are already canonical.

_KIND_ORDER = {Sym: 0, FloorDiv: 1, Min: 2, Max: 3}


def _atom_key(a: SymExpr):
    if isinstance(a, Sym):
        return (0, a.name)
    return (_KIND_ORDER[type(a)] + 1, _expr_key(a.left), _expr_key(a.right))


def _expr_key(e: SymExpr):
    if isinstance(e, Const):
        return (0, "", e.value)
    if isinstance(e, Sym):
        return (1, e.name, 0)
    return (2 + _KIND_ORDER.get(type(e), 5), type(e).__name__, _expr_key(e.left), _expr_key(e.right))


def _poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for mono, coeff in q.items():
        out[mono] = out.get(mono, 0) + coeff
        if out[mono] == 0:
            del out[mono]
    return out


def _poly_scale(p: dict, factor: int) -> dict:
    if factor == 0:
        return {}
    return {m: c * factor for m, c in p.items()}


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = tuple(sorted(m1 + m2, key=_atom_key))
            out[mono] = out.get(mono, 0) + c1 * c2
            if out[mono] == 0:
                del out[mono]
    return out


def _poly_const(p: dict) -> int | None:
    """Constant value if the polynomial has no symbolic terms, else None."""
    if not p:
        return 0
    if len(p) == 1 and () in p:
        return p[()]
    return None


def _normalize(e: SymExpr) -> dict:
    """``e`` as a polynomial, monomial -> coefficient.  Kept on the node, so
    callers must not change it; an atom's polynomial names the node itself
    and is derived anew, which keeps nodes free of reference cycles."""
    poly = e._poly
    if poly is None:
        poly = _polynomial(e)
        if (e,) not in poly:
            _setfield(e, "_poly", poly)
    return poly


def _difference(a: SymExpr, b: SymExpr) -> dict:
    """The polynomial of ``a - b``, without building that node."""
    return _poly_add(_normalize(a), _poly_scale(_normalize(b), -1))


def _polynomial(e: SymExpr) -> dict:
    if isinstance(e, Const):
        return {(): e.value} if e.value != 0 else {}
    if isinstance(e, Sym):
        return {(e,): 1}
    if isinstance(e, Add):
        return _poly_add(_normalize(e.left), _normalize(e.right))
    if isinstance(e, Sub):
        return _difference(e.left, e.right)
    if isinstance(e, Mul):
        return _poly_mul(_normalize(e.left), _normalize(e.right))
    if isinstance(e, FloorDiv):
        num, den = _normalize(e.left), _normalize(e.right)
        nc, dc = _poly_const(num), _poly_const(den)
        if dc == 0:
            raise ZeroDivisionError("symbolic floor division by zero")
        if nc is not None and dc is not None:
            return {(): nc // dc} if nc // dc != 0 else {}
        if dc == 1:
            return num
        if dc is not None and dc > 0 and num and all(c % dc == 0 for c in num.values()):
            # Every coefficient divides exactly: floor division is exact.
            return {m: c // dc for m, c in num.items()}
        atom = FloorDiv(_rebuild(num), _rebuild(den))
        return {(atom,): 1}
    if isinstance(e, (Min, Max)):
        lp, rp = _normalize(e.left), _normalize(e.right)
        lc, rc = _poly_const(lp), _poly_const(rp)
        if lc is not None and rc is not None:
            v = min(lc, rc) if isinstance(e, Min) else max(lc, rc)
            return {(): v} if v != 0 else {}
        if lp == rp:
            return lp
        le, re_ = _rebuild(lp), _rebuild(rp)
        if _expr_key(le) > _expr_key(re_):
            le, re_ = re_, le
        atom = Min(le, re_) if isinstance(e, Min) else Max(le, re_)
        return {(atom,): 1}
    raise TypeError(f"unknown node {type(e).__name__}")


def _rebuild(p: dict) -> SymExpr:
    """Deterministically rebuild a canonical tree from a polynomial."""
    const_term = p.get((), 0)
    monos = sorted((m for m in p if m != ()), key=lambda m: tuple(_atom_key(a) for a in m))
    terms: list[SymExpr] = []
    for m in monos:
        coeff = p[m]
        factors: SymExpr | None = None
        for a in m:
            factors = a if factors is None else Mul(factors, a)
        assert factors is not None
        if coeff != 1:
            factors = Mul(Const(coeff), factors)
        terms.append(factors)
    if const_term != 0 or not terms:
        terms.append(Const(const_term))
    out = terms[0]
    for t in terms[1:]:
        out = Add(out, t)
    return out


@functools.lru_cache(maxsize=4096)
def simplify(e: SymExpr) -> SymExpr:
    """Normalize to the canonical sum-of-products form (idempotent).
    Cached: expressions are immutable, and graphs repeat the same few."""
    return _rebuild(_normalize(e))


def substitute(e: SymExpr, bindings: Mapping[str, SymExpr | int]) -> SymExpr:
    """Replace bound symbols by expressions, then simplify.  A subtree free
    of the symbols that change is kept as it is."""
    repl = {n: v for n, v in ((n, as_expr(v)) for n, v in bindings.items()) if v is not Sym(n)}

    def walk(x: SymExpr) -> SymExpr:
        if x._free.isdisjoint(repl):
            return x
        if isinstance(x, Sym):
            return repl[x.name]
        return type(x)(walk(x.left), walk(x.right))

    return simplify(walk(e))


# ---------------------------------------------------------------------------
# Interval arithmetic over [lower, +inf) symbol bounds

_INF = math.inf


def _iv_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _mul_end(x, y):
    if x == 0 or y == 0:
        return 0.0
    return x * y


def _iv_mul(a, b):
    cands = [_mul_end(x, y) for x in a for y in b]
    return (min(cands), max(cands))


def _iv_floordiv(a, b):
    if b[0] < 1:  # divisor may be zero or negative; give up
        return (-_INF, _INF)

    def fd(x, y):
        if x in (_INF, -_INF):
            return x
        if y == _INF:
            return 0.0 if x >= 0 else -1.0
        return float(math.floor(x / y))

    cands = [fd(x, y) for x in a for y in b]
    return (min(cands), max(cands))


def _atom_interval(atom: SymExpr, a: Assumptions):
    if isinstance(atom, Sym):
        return (float(a.lower(atom.name)), _INF)
    if isinstance(atom, FloorDiv):
        return _iv_floordiv(_expr_interval(atom.left, a), _expr_interval(atom.right, a))
    if isinstance(atom, Min):
        li, ri = _expr_interval(atom.left, a), _expr_interval(atom.right, a)
        return (min(li[0], ri[0]), min(li[1], ri[1]))
    if isinstance(atom, Max):
        li, ri = _expr_interval(atom.left, a), _expr_interval(atom.right, a)
        return (max(li[0], ri[0]), max(li[1], ri[1]))
    raise TypeError(f"not an atom: {atom!r}")


def _expr_interval(e: SymExpr, a: Assumptions):
    return _poly_interval(_normalize(e), a)


def _poly_interval(poly: dict, a: Assumptions):
    total = (float(poly.get((), 0)), float(poly.get((), 0)))
    for mono, coeff in poly.items():
        if mono == ():
            continue
        iv = (1.0, 1.0)
        for atom in mono:
            iv = _iv_mul(iv, _atom_interval(atom, a))
        iv = _iv_mul(iv, (float(coeff), float(coeff)))
        total = _iv_add(total, iv)
    return total


def compare(lhs: SymExpr | int, rhs: SymExpr | int, a: Assumptions) -> Ternary:
    """Decide ``lhs <= rhs`` for all bindings satisfying the assumptions.
    The verdict is a function of two interned expressions and immutable
    assumptions, so it is kept in a bounded table; the operands are coerced
    first, so an int and its ``Const`` share an entry and a bool is refused."""
    return _decide(as_expr(lhs), as_expr(rhs), a)


@functools.lru_cache(maxsize=4096)
def _decide(lhs: SymExpr, rhs: SymExpr, a: Assumptions) -> Ternary:
    diff = _difference(lhs, rhs)
    c = _poly_const(diff)
    if c is not None:
        return Ternary.TRUE if c <= 0 else Ternary.FALSE
    lo, hi = _poly_interval(diff, a)
    if hi <= 0:
        return Ternary.TRUE
    if lo >= 1:
        return Ternary.FALSE
    return Ternary.UNKNOWN


def lt(lhs, rhs, a: Assumptions) -> Ternary:
    return compare(Add(as_expr(lhs), Const(1)), rhs, a)


def eq(lhs, rhs, a: Assumptions) -> Ternary:
    l, r = as_expr(lhs), as_expr(rhs)
    if simplify(l) == simplify(r):
        return Ternary.TRUE
    return t_and(compare(l, r, a), compare(r, l, a))


# ---------------------------------------------------------------------------
# Multidimensional strided subsets


@dataclass(frozen=True)
class SubsetRange:
    """Per-dimension (begin, end, stride) triples; ends are inclusive.

    A Python slice ``a:b`` maps to ``begin=a, end=b-1, stride=1``.  The point
    set of a dimension is ``{begin + k*stride | k >= 0, begin + k*stride <= end}``.
    """

    dims: tuple[tuple[SymExpr, SymExpr, SymExpr], ...]

    @staticmethod
    def make(dims: Iterable[tuple]) -> "SubsetRange":
        out = []
        for d in dims:
            if len(d) == 2:
                b, e = d
                s = 1
            else:
                b, e, s = d
            out.append((simplify(as_expr(b)), simplify(as_expr(e)), simplify(as_expr(s))))
        return SubsetRange(tuple(out))

    @staticmethod
    def point(indices: Sequence[SymExpr | int]) -> "SubsetRange":
        return SubsetRange.make([(i, i, 1) for i in indices])

    @staticmethod
    def full(shape: Sequence[SymExpr | int]) -> "SubsetRange":
        return SubsetRange.make([(0, Sub(as_expr(d), Const(1)), 1) for d in shape])

    @property
    def rank(self) -> int:
        return len(self.dims)

    def lengths(self) -> tuple[SymExpr, ...]:
        return self._lengths

    def volume(self) -> SymExpr:
        return self._volume

    def free_symbols(self) -> frozenset[str]:
        return self._free

    # a subset is immutable, so its lengths, volume, free symbols, hash and
    # text are kept
    @functools.cached_property
    def _lengths(self) -> tuple[SymExpr, ...]:
        out = []
        for b, e, s in self.dims:
            if s == Const(1):
                out.append(simplify(Add(Sub(e, b), Const(1))))
            else:
                out.append(simplify(Add(FloorDiv(Sub(e, b), s), Const(1))))
        return tuple(out)

    @functools.cached_property
    def _volume(self) -> SymExpr:
        v: SymExpr = Const(1)
        for ln in self._lengths:
            v = Mul(v, ln)
        return simplify(v)

    @functools.cached_property
    def _free(self) -> frozenset[str]:
        return _NO_SYMBOLS.union(*(x._free for dim in self.dims for x in dim))

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.dims,))

    @functools.cached_property
    def _text(self) -> str:
        return ", ".join(f"{to_text(b)}:{to_text(e)}:{to_text(s)}" for b, e, s in self.dims)

    def __hash__(self) -> int:
        return self._hash

    def substitute(self, bindings: Mapping[str, SymExpr | int]) -> "SubsetRange":
        return _substitute_subset(self, tuple((n, as_expr(v)) for n, v in bindings.items()))

    def evaluate(self, bindings: Mapping[str, int]) -> tuple[range, ...]:
        out = []
        for b, e, s in self.dims:
            bv, ev, sv = b.evaluate(bindings), e.evaluate(bindings), s.evaluate(bindings)
            if sv < 1:
                raise ValueError(f"stride {sv} < 1 in subset {self}")
            out.append(range(bv, ev + 1, sv))
        return tuple(out)

    def __str__(self) -> str:
        return self._text


@functools.lru_cache(maxsize=4096)
def _substitute_subset(subset: SubsetRange, bindings: tuple) -> SubsetRange:
    """:meth:`SubsetRange.substitute`, kept in a bounded table: a subset and
    its bindings are immutable, and renamings repeat the same few."""
    b = dict(bindings)
    return SubsetRange(tuple((substitute(x, b), substitute(y, b), substitute(z, b))
                             for x, y, z in subset.dims))


def _dim_const(dim, bindings=None) -> tuple[int, int, int] | None:
    b, e, s = dim
    vals = []
    for x in (b, e, s):
        c = _poly_const(_normalize(x))
        if c is None:
            return None
        vals.append(c)
    return tuple(vals)  # type: ignore[return-value]


def _dim_points(c: tuple[int, int, int]) -> set[int]:
    b, e, s = c
    return set(range(b, e + 1, s))


def _dim_nonempty(dim, a: Assumptions) -> Ternary:
    b, e, _ = dim
    return compare(b, e, a)


def _dim_covers(outer, inner, a: Assumptions) -> Ternary:
    co, ci = _dim_const(outer), _dim_const(inner)
    if co is not None and ci is not None:
        return Ternary.TRUE if _dim_points(ci) <= _dim_points(co) else Ternary.FALSE

    inner_empty = t_not(_dim_nonempty(inner, a))
    if inner_empty is Ternary.TRUE:
        return Ternary.TRUE

    ob, oe, os = outer
    ib, ie, istride = inner
    lower_ok = compare(ob, ib, a)
    upper_ok = compare(ie, oe, a)

    if os == Const(1):
        stride_ok = Ternary.TRUE
    else:
        osc = _poly_const(_normalize(os))
        off = _poly_const(_difference(ib, ob))
        isc = _poly_const(_normalize(istride))
        if osc is not None and off is not None and isc is not None and osc >= 1:
            stride_ok = Ternary.TRUE if (off % osc == 0 and isc % osc == 0) else Ternary.UNKNOWN
        else:
            stride_ok = Ternary.UNKNOWN

    verdict = t_and(lower_ok, upper_ok, stride_ok)
    if verdict is Ternary.TRUE:
        return Ternary.TRUE

    # A definite FALSE needs a provable inner point outside the outer range.
    nonempty = _dim_nonempty(inner, a)
    if nonempty is Ternary.TRUE:
        if compare(ob, ib, a) is Ternary.FALSE:  # inner.begin < outer.begin always
            return Ternary.FALSE
        if istride == Const(1) and compare(ie, oe, a) is Ternary.FALSE:
            return Ternary.FALSE
        if compare(ib, oe, a) is Ternary.FALSE:  # first inner point past outer end
            return Ternary.FALSE
    return Ternary.UNKNOWN


@functools.lru_cache(maxsize=4096)
def covers(outer: SubsetRange, inner: SubsetRange, a: Assumptions) -> Ternary:
    """Decide whether every point of ``inner`` lies in ``outer``.  The
    verdict is a function of immutable operands, so it is kept in a bounded
    table."""
    if outer.rank != inner.rank:
        raise ValueError(f"rank mismatch: {outer.rank} vs {inner.rank}")
    per_dim = [_dim_covers(o, i, a) for o, i in zip(outer.dims, inner.dims)]
    if all(v is Ternary.TRUE for v in per_dim):
        return Ternary.TRUE
    if any(v is Ternary.FALSE for v in per_dim):
        # Only definitely not covered if the inner set provably has a point,
        # i.e. every inner dimension is provably nonempty.
        if all(_dim_nonempty(d, a) is Ternary.TRUE for d in inner.dims):
            return Ternary.FALSE
    return Ternary.UNKNOWN


def _dim_disjoint(d1, d2, a: Assumptions) -> Ternary:
    c1, c2 = _dim_const(d1), _dim_const(d2)
    if c1 is not None and c2 is not None:
        return Ternary.TRUE if not (_dim_points(c1) & _dim_points(c2)) else Ternary.FALSE

    b1, e1, s1 = d1
    b2, e2, s2 = d2
    # Empty on either side: no common point.
    if t_not(_dim_nonempty(d1, a)) is Ternary.TRUE or t_not(_dim_nonempty(d2, a)) is Ternary.TRUE:
        return Ternary.TRUE
    # Interval separation.
    if lt(e1, b2, a) is Ternary.TRUE or lt(e2, b1, a) is Ternary.TRUE:
        return Ternary.TRUE
    # Congruence separation: offsets differ modulo gcd of constant strides.
    s1c, s2c = _poly_const(_normalize(s1)), _poly_const(_normalize(s2))
    off = _poly_const(_difference(b1, b2))
    if s1c is not None and s2c is not None and off is not None:
        g = math.gcd(s1c, s2c)
        if g > 1 and off % g != 0:
            return Ternary.TRUE

    # Provable intersection: a shared, provably-member point.
    both_nonempty = t_and(_dim_nonempty(d1, a), _dim_nonempty(d2, a))
    if both_nonempty is Ternary.TRUE:
        if simplify(b1) == simplify(b2):
            return Ternary.FALSE
        for (pb, pe), other in (((b1, e1), d2), ((b2, e2), d1)):
            if simplify(pb) == simplify(pe):  # single point
                ob, oe, ostride = other
                inside = t_and(compare(ob, pb, a), compare(pb, oe, a))
                osc = _poly_const(_normalize(ostride))
                offp = _poly_const(_difference(pb, ob))
                aligned = (
                    Ternary.TRUE
                    if osc == 1 or (osc is not None and offp is not None and offp % osc == 0)
                    else Ternary.UNKNOWN
                )
                if t_and(inside, aligned) is Ternary.TRUE:
                    return Ternary.FALSE
    return Ternary.UNKNOWN


def disjoint(s1: SubsetRange, s2: SubsetRange, a: Assumptions) -> Ternary:
    """Decide whether two subsets share no point."""
    if s1.rank != s2.rank:
        raise ValueError(f"rank mismatch: {s1.rank} vs {s2.rank}")
    if s1.rank == 0:
        return Ternary.FALSE  # two scalars always collide
    per_dim = [_dim_disjoint(a1, a2, a) for a1, a2 in zip(s1.dims, s2.dims)]
    if any(v is Ternary.TRUE for v in per_dim):
        return Ternary.TRUE
    if all(v is Ternary.FALSE for v in per_dim):
        return Ternary.FALSE
    return Ternary.UNKNOWN


# ---------------------------------------------------------------------------
# Subset propagation over iteration parameters


def linear_coeff(e: SymExpr, p: str) -> int | None:
    """Coefficient of `p` when the expression is linear in it; None otherwise."""
    poly = _normalize(e)
    coeff = 0
    for mono, c in poly.items():
        opaque = [a for a in mono if not isinstance(a, Sym)]
        if any(p in a.free_symbols() for a in opaque):
            return None
        names = [a.name for a in mono if isinstance(a, Sym)]
        if names.count(p) == 0:
            continue
        if names.count(p) > 1 or len(mono) > 1:
            return None
        coeff = c
    return coeff


def element_subset(sub: SubsetRange, kept, params) -> SubsetRange:
    """The element one map iteration touches in ``sub``: each kept dimension
    (every dimension when ``kept`` is None) becomes the point ``b + p*s`` for
    the next of the parameter names ``params``; the others stay whole."""
    it = iter(params)
    dims = []
    for k, (b, e, s) in zip([True] * sub.rank if kept is None else kept, sub.dims):
        if k:
            ix = simplify(b + Sym(next(it)) * s)
            dims.append((ix, ix, Const(1)))
        else:
            dims.append((b, e, s))
    return SubsetRange.make(dims)


def propagate_subset(sub: SubsetRange, params) -> SubsetRange:
    """Image of a subset swept over map parameters.

    ``params`` is a sequence of ``(name, (begin, end, stride))``.  Exact for
    dimensions affine in a single parameter; a conservative unit-stride hull is
    used when several parameters mix in one dimension.
    """
    dims = []
    for (b, e, s) in sub.dims:
        lo, hi = b, e
        present = []
        for p, (pb, pe, ps) in params:
            if p in lo.free_symbols() or p in hi.free_symbols():
                present.append((p, pb, pe, ps))
        if not present:
            dims.append((b, e, s))
            continue
        if len(present) == 1 and b == e:
            p, pb, pe, ps = present[0]
            coeff = linear_coeff(b, p)
            if coeff is not None and coeff != 0:
                lo_end = pb if coeff > 0 else pe
                hi_end = pe if coeff > 0 else pb
                lo = substitute(b, {p: lo_end})
                hi = substitute(b, {p: hi_end})
                stride = simplify(Mul(Const(abs(coeff)), ps))
                dims.append((lo, hi, stride))
                continue
        for p, pb, pe, ps in present:
            cl = linear_coeff(lo, p)
            ch = linear_coeff(hi, p)
            if cl is None or ch is None:
                raise ValueError(f"cannot propagate nonlinear subset dimension {b}:{e}")
            lo = substitute(lo, {p: pb if cl >= 0 else pe})
            hi = substitute(hi, {p: pe if ch >= 0 else pb})
        dims.append((lo, hi, Const(1)))
    return SubsetRange.make(dims)


# ---------------------------------------------------------------------------
# Textual expression syntax: `(N - 1) * 2`, `min(N, M)`, `a // 4`

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|//|[-+*()\,:])")


def to_text(e: SymExpr) -> str:
    """The text of ``e`` in the grammar :func:`parse_expr` reads, rendered
    once and kept on the node."""
    text = e._text
    if text is None:
        text = _render(e)
        _setfield(e, "_text", text)
    return text


def _prec(x: SymExpr) -> int:
    if isinstance(x, (Const, Sym, Min, Max)):
        return 3
    if isinstance(x, (Mul, FloorDiv)):
        return 2
    return 1


def _operand(x: SymExpr, parent_prec: int) -> str:
    """The text of ``x`` as an operand of an operator of ``parent_prec``."""
    text = to_text(x)
    if isinstance(x, Const):
        return f"({text})" if x.value < 0 and parent_prec > 1 else text
    return f"({text})" if _prec(x) < parent_prec else text


def _render(x: SymExpr) -> str:
    if isinstance(x, Const):
        return str(x.value)
    if isinstance(x, Sym):
        return x.name
    if isinstance(x, Min):
        return f"min({to_text(x.left)}, {to_text(x.right)})"
    if isinstance(x, Max):
        return f"max({to_text(x.left)}, {to_text(x.right)})"
    p = _prec(x)
    if isinstance(x, Add):
        # Render `a + (-c)*b` and `a + (-c)` subtractively.
        rhs = x.right
        if isinstance(rhs, Const) and rhs.value < 0:
            return f"{_operand(x.left, p)} - {-rhs.value}"
        if isinstance(rhs, Mul) and isinstance(rhs.left, Const) and rhs.left.value < 0:
            neg = Mul(Const(-rhs.left.value), rhs.right) if rhs.left.value != -1 else rhs.right
            return f"{_operand(x.left, p)} - {_operand(neg, p + 1)}"
        return f"{_operand(x.left, p)} + {_operand(rhs, p + 1)}"
    if isinstance(x, Sub):
        return f"{_operand(x.left, p)} - {_operand(x.right, p + 1)}"
    if isinstance(x, Mul):
        return f"{_operand(x.left, p)} * {_operand(x.right, p + 1)}"
    if isinstance(x, FloorDiv):
        return f"{_operand(x.left, p)} // {_operand(x.right, p + 1)}"
    raise TypeError(type(x).__name__)


class ExprSyntaxError(ValueError):
    pass


class _Parser:
    def __init__(self, text: str):
        self.tokens: list[str] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise ExprSyntaxError(f"bad expression near {text[pos:]!r}")
                break
            self.tokens.append(m.group(1))
            pos = m.end()
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of expression")
        if expected is not None and tok != expected:
            raise ExprSyntaxError(f"expected {expected!r}, got {tok!r}")
        self.i += 1
        return tok

    def parse(self) -> SymExpr:
        e = self.addsub()
        if self.peek() is not None:
            raise ExprSyntaxError(f"trailing tokens: {self.tokens[self.i:]}")
        return e

    def addsub(self) -> SymExpr:
        e = self.muldiv()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.muldiv()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def muldiv(self) -> SymExpr:
        e = self.unary()
        while self.peek() in ("*", "//"):
            op = self.take()
            rhs = self.unary()
            e = Mul(e, rhs) if op == "*" else FloorDiv(e, rhs)
        return e

    def unary(self) -> SymExpr:
        if self.peek() == "-":
            self.take()
            return Mul(Const(-1), self.unary())
        if self.peek() == "+":
            self.take()
            return self.unary()
        return self.atom()

    def atom(self) -> SymExpr:
        tok = self.take()
        if tok.isdigit():
            return Const(int(tok))
        if tok == "(":
            e = self.addsub()
            self.take(")")
            return e
        if tok in ("min", "max"):
            self.take("(")
            a = self.addsub()
            self.take(",")
            b = self.addsub()
            self.take(")")
            return Min(a, b) if tok == "min" else Max(a, b)
        if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok):
            return Sym(tok)
        raise ExprSyntaxError(f"unexpected token {tok!r}")


# graphs repeat the same few texts, and a parse is a function of its text
# (an expression parses to the one interned node, a subset to an immutable
# value), so each parser answers from a bounded table; a text that fails to
# parse is not kept, and raises on every call
@functools.lru_cache(maxsize=4096)
def parse_expr(text: str) -> SymExpr:
    """Parse the textual expression syntax used in serialized graphs."""
    return _Parser(text).parse()


@functools.lru_cache(maxsize=4096)
def parse_subset(text: str) -> SubsetRange:
    text = text.strip()
    if not text:
        return SubsetRange(())
    dims = []
    for part in _split_top_level(text, ","):
        pieces = _split_top_level(part, ":")
        if len(pieces) == 1:
            b = parse_expr(pieces[0])
            dims.append((b, b, Const(1)))
        elif len(pieces) == 2:
            dims.append((parse_expr(pieces[0]), parse_expr(pieces[1]), Const(1)))
        elif len(pieces) == 3:
            dims.append(tuple(parse_expr(p) for p in pieces))
        else:
            raise ExprSyntaxError(f"bad subset dimension {part!r}")
    return SubsetRange.make(dims)


def _split_top_level(text: str, sep: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts
