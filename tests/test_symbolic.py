import copy
import gc
import pickle
import random
import weakref
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdfgkit import symbolic, texpr
from sdfgkit.ir import Sdfg
from sdfgkit.serialize import deserialize, serialize
from sdfgkit.symbolic import (
    Assumptions, Const, FloorDiv, Max, Min, SubsetRange, Sym, SymExpr, Ternary,
    compare, covers, disjoint, parse_expr, parse_subset, simplify, substitute,
    to_text,
)

N, M, I, J = Sym("N"), Sym("M"), Sym("i"), Sym("j")


class TestConst:
    @pytest.mark.parametrize("value", [1.0, True, np.int64(1), "1"],
                             ids=["float", "bool", "numpy_int", "str"])
    def test_only_python_ints(self, value):
        # each of these compares and hashes equal to Const(1), so a memoized
        # canonical form could hand one back for the others
        with pytest.raises(TypeError):
            Const(value)

    def test_memoized_forms_keep_their_type(self):
        assert type(simplify(Const(2) + Const(-1)).value) is int
        # an equal expression, built anew, gets the cached canonical form
        assert simplify(N + Const(1)) is simplify(N + Const(1))


class TestSimplify:
    def test_additive_identity(self):
        assert simplify(N + 0) == N

    def test_constant_folding(self):
        assert simplify((N - 1) - 1 + 1) == simplify(N - 1)

    def test_collect_terms(self):
        lhs = simplify(2 * N + 3 * N)
        rhs = simplify(5 * N)
        assert lhs == rhs
        for n in range(1, 101):
            assert (2 * N + 3 * N).evaluate({"N": n}) == lhs.evaluate({"N": n})

    def test_idempotent(self):
        exprs = [2 * N + 3 * N, (N - 1) * 2, N * M + N, Min(N, M) + 1,
                 FloorDiv(N + 1, Const(2)) * 4]
        for e in exprs:
            assert simplify(simplify(e)) == simplify(e)

    def test_floordiv_semantics(self):
        e = FloorDiv(N, Const(2))
        assert e.evaluate({"N": -3}) == -2  # rounds toward negative infinity

    def test_exact_floordiv_folds(self):
        assert simplify(FloorDiv(2 * N, Const(2))) == N


class TestCompare:
    def test_shifted(self):
        assert compare(N - 1, N, Assumptions({"N": 1})) is Ternary.TRUE

    def test_incomparable(self):
        assert compare(N, M, Assumptions({"N": 1, "M": 1})) is Ternary.UNKNOWN

    def test_coefficients(self):
        assert compare(2 * N, 3 * N, Assumptions({"N": 0})) is Ternary.TRUE
        for n in range(0, 101):
            assert (2 * n) <= (3 * n)

    def test_strictly_greater(self):
        assert compare(N + 1, N, Assumptions()) is Ternary.FALSE


class TestCovers:
    def test_shrunk_interval(self):
        outer = SubsetRange.make([(0, N - 1, 1)])
        inner = SubsetRange.make([(1, N - 2, 1)])
        assert covers(outer, inner, Assumptions({"N": 2})) is Ternary.TRUE

    def test_incomparable_ends(self):
        outer = SubsetRange.make([(0, N - 1, 1)])
        inner = SubsetRange.make([(0, M - 1, 1)])
        assert covers(outer, inner, Assumptions({"N": 1, "M": 1})) is Ternary.UNKNOWN

    def test_constant_enumeration(self):
        outer = SubsetRange.make([(0, 9, 1), (0, 9, 1)])
        inner = SubsetRange.make([(2, 7, 1), (0, 9, 1)])
        assert covers(outer, inner, Assumptions()) is Ternary.TRUE
        not_inner = SubsetRange.make([(2, 11, 1), (0, 9, 1)])
        assert covers(outer, not_inner, Assumptions()) is Ternary.FALSE

    def test_reflexive(self):
        for sub in (SubsetRange.make([(0, N - 1, 1)]),
                    SubsetRange.make([(1, N - 2, 1), (0, M - 1, 2)])):
            assert covers(sub, sub, Assumptions()) is Ternary.TRUE

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            covers(SubsetRange.make([(0, 1, 1)]),
                   SubsetRange.make([(0, 1, 1), (0, 1, 1)]), Assumptions())


class TestDisjoint:
    def test_offset_by_one(self):
        assert disjoint(SubsetRange.point([I]), SubsetRange.point([I + 1]),
                        Assumptions()) is Ternary.TRUE

    def test_identical_nonempty(self):
        s = SubsetRange.make([(0, N - 1, 1)])
        assert disjoint(s, s, Assumptions({"N": 1})) is Ternary.FALSE

    def test_parity(self):
        even = SubsetRange.make([(0, 2 * N - 1, 2)])
        odd = SubsetRange.make([(1, 2 * N - 1, 2)])
        assert disjoint(even, odd, Assumptions({"N": 1})) is Ternary.TRUE
        for n in range(1, 21):
            a = set(range(0, 2 * n, 2))
            b = set(range(1, 2 * n, 2))
            assert not (a & b)

    def test_shifted_iteration(self):
        a = Assumptions({"k": 1})
        own = SubsetRange.point([I])
        other = SubsetRange.point([I + Sym("k")])
        assert disjoint(own, other, a) is Ternary.TRUE


class TestSubstitute:
    def test_constant(self):
        assert substitute(I + 1, {"i": 3}) == Const(4)

    def test_expression(self):
        lhs = substitute(N * I, {"i": J + 1})
        for n in range(1, 6):
            for j in range(0, 6):
                assert lhs.evaluate({"N": n, "j": j}) == n * (j + 1)

    def test_unbound_unchanged(self):
        assert substitute(M, {"i": 0}) == M


class TestText:
    @pytest.mark.parametrize("expr", [
        (N - 1) * 2, Min(N, M) + 3, FloorDiv(N + 7, Const(8)), 5 * N * M - 2,
        Max(N - 1, Const(0)),
    ])
    def test_roundtrip(self, expr):
        canon = simplify(expr)
        assert simplify(parse_expr(to_text(canon))) == canon

    def test_subset_roundtrip(self):
        s = SubsetRange.make([(1, N - 2, 1), (0, Min(M, N) - 1, 2)])
        assert parse_subset(str(s)) == s


# --- soundness properties ----------------------------------------------------

_names = ("N", "M", "K")


def _rand_expr(rng: random.Random, depth: int = 0) -> SymExpr:
    if depth > 2 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Const(rng.randint(-4, 8))
        return Sym(rng.choice(_names))
    ctor = rng.choice(["add", "sub", "mul", "min", "max", "div"])
    a = _rand_expr(rng, depth + 1)
    b = _rand_expr(rng, depth + 1)
    if ctor == "add":
        return a + b
    if ctor == "sub":
        return a - b
    if ctor == "mul":
        return a * b
    if ctor == "min":
        return Min(a, b)
    if ctor == "max":
        return Max(a, b)
    return FloorDiv(a, Const(rng.randint(1, 4)))


def test_simplify_value_preservation_randomized():
    rng = random.Random(7)
    for _ in range(1000):
        e = _rand_expr(rng)
        s = simplify(e)
        binding = {n: rng.randint(-5, 12) for n in _names}
        assert e.evaluate(binding) == s.evaluate(binding)


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2))
@settings(max_examples=300, deadline=None)
def test_interval_decisions_sound(b1, l1, s1, b2, l2, s2, lb):
    """TRUE/FALSE from covers/disjoint agree with point enumeration over small
    bindings of the symbolic extent."""
    a = Assumptions({"N": lb})
    d1 = SubsetRange.make([(b1, Sym("N") + l1, s1)])
    d2 = SubsetRange.make([(b2, Sym("N") + l2, s2)])
    cv = covers(d1, d2, a)
    dj = disjoint(d1, d2, a)
    for n in range(lb, lb + 9):
        p1 = set(range(b1, n + l1 + 1, s1))
        p2 = set(range(b2, n + l2 + 1, s2))
        if cv is Ternary.TRUE:
            assert p2 <= p1
        if cv is Ternary.FALSE:
            assert not (p2 <= p1)
        if dj is Ternary.TRUE:
            assert not (p1 & p2)
        if dj is Ternary.FALSE:
            assert p1 & p2


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 2))
@settings(max_examples=200, deadline=None)
def test_compare_sound(c1, c2, lb):
    a = Assumptions({"N": lb, "M": lb})
    lhs = Sym("N") * c1 + c2
    rhs = Sym("N") + Sym("M")
    verdict = compare(lhs, rhs, a)
    for n in range(lb, lb + 9):
        for m in range(lb, lb + 9):
            lv = c1 * n + c2
            rv = n + m
            if verdict is Ternary.TRUE:
                assert lv <= rv
            if verdict is Ternary.FALSE:
                assert lv > rv


@given(st.integers(0, 3), st.integers(-2, 2), st.integers(1, 2),
       st.integers(0, 2), st.integers(3, 9))
@settings(max_examples=200, deadline=None)
def test_propagate_subset_covers_every_iteration(coeff_off, off, coeff, pb, pe):
    """The propagated outer subset contains the element subset of every
    iteration of the swept parameter."""
    if pe < pb:
        pb, pe = pe, pb
    p = Sym("p")
    ix = simplify(p * coeff + off + coeff_off)
    elem = SubsetRange.make([(ix, ix, 1)])
    outer = symbolic.propagate_subset(elem, [("p", (Const(pb), Const(pe), Const(1)))])
    (ob, oe, osr) = outer.dims[0]
    points = set(range(ob.evaluate({}), oe.evaluate({}) + 1, osr.evaluate({})))
    for v in range(pb, pe + 1):
        x = ix.evaluate({"p": v})
        assert x in points


# --- interning ------------------------------------------------------------------

# A tree is described by a recipe, so that the same tree can be built twice:
# ("c", value), ("s", name) or (class, left recipe, right recipe).
_BINARY = (symbolic.Add, symbolic.Sub, symbolic.Mul, FloorDiv, Min, Max)
_recipes = st.recursive(
    st.integers(-4, 6).map(lambda v: ("c", v)) | st.sampled_from("NMij").map(lambda n: ("s", n)),
    lambda kids: st.tuples(st.sampled_from(_BINARY), kids, kids),
    max_leaves=8)


def _build(r) -> SymExpr:
    if r[0] == "c":
        return Const(r[1])
    if r[0] == "s":
        return Sym(r[1])
    return r[0](_build(r[1]), _build(r[2]))


@dataclass(frozen=True)
class _Leaf:
    value: object


@dataclass(frozen=True)
class _Node:
    left: object
    right: object


def _mirror(r):
    """The tree as plain frozen dataclasses, whose hash is structural."""
    if r[0] in ("c", "s"):
        return _Leaf(r[1])
    return _Node(_mirror(r[1]), _mirror(r[2]))


def _walk_symbols(e: SymExpr) -> set[str]:
    if isinstance(e, Sym):
        return {e.name}
    if isinstance(e, Const):
        return set()
    return _walk_symbols(e.left) | _walk_symbols(e.right)


def _canonical(e: SymExpr) -> SymExpr | None:
    try:
        return simplify(e)
    except ZeroDivisionError:
        return None


class TestInterning:
    @given(_recipes)
    @settings(max_examples=200, deadline=None)
    def test_equal_trees_are_one_object(self, r):
        e = _build(r)
        assert _build(r) is e
        assert symbolic.as_expr(_build(r)) is e
        assert _canonical(_build(r)) is _canonical(e)
        bindings = {"N": Sym("M") + 1, "i": 2}
        try:
            assert substitute(_build(r), bindings) is substitute(e, bindings)
        except ZeroDivisionError:
            pass
        if _canonical(e) is not None:
            s1, s2 = SubsetRange.make([(e, e, 1)]), SubsetRange.make([(_build(r), _build(r), 1)])
            assert all(x is y for d1, d2 in zip(s1.dims, s2.dims) for x, y in zip(d1, d2))

    @given(_recipes)
    @settings(max_examples=100, deadline=None)
    def test_round_trip_builds_the_same_objects(self, r):
        e = _canonical(_build(r))
        if e is None:
            return
        g = Sdfg("t")
        for name in "NMij":
            g.add_symbol(name)
        g.add_state("a")
        g.add_state("b")
        g.add_transition("a", "b", assignments={"k": e})
        text = serialize(g)
        first, second = deserialize(text), deserialize(text)
        assert first.transitions[0].assignments["k"] is second.transitions[0].assignments["k"]
        assert first.transitions[0].assignments["k"] is e

    @given(_recipes)
    @settings(max_examples=200, deadline=None)
    def test_stored_hash_is_structural(self, r):
        e = _build(r)
        assert hash(e) == hash(_mirror(r))

    @given(_recipes)
    @settings(max_examples=200, deadline=None)
    def test_free_symbols_match_a_tree_walk(self, r):
        e = _build(r)
        assert e.free_symbols() == _walk_symbols(e)
        sub = SubsetRange.make([(0, Sym("N"), 1)] + ([(e, e, 1)] if _canonical(e) else []))
        want = set().union(*(_walk_symbols(x) for dim in sub.dims for x in dim))
        assert sub.free_symbols() == want

    def test_interned_ints_keep_rejecting_other_types(self):
        assert Const(1) is Const(1)
        for value in (True, 1.0):
            with pytest.raises(TypeError):
                Const(value)

    def test_copies_are_the_node(self):
        e = (N + 1) * M
        assert copy.copy(e) is e and copy.deepcopy(e) is e
        assert pickle.loads(pickle.dumps(e)) is e
        with pytest.raises(AttributeError):
            e.left = N

    def test_table_is_weak(self):
        e = symbolic.Add(Sym("held_only_here"), Const(918273645))
        ref = weakref.ref(e)
        del e
        gc.collect()
        assert ref() is None
        assert (Sym, "held_only_here") not in symbolic._interned
        assert (Const, 918273645) not in symbolic._interned


# --- kept texts and bounded tables -------------------------------------------


def _reference_text(x: SymExpr, parent: int = 0) -> str:
    """A from-scratch rendering that keeps nothing."""
    prec = 3 if isinstance(x, (Const, Sym, Min, Max)) else 2 if isinstance(
        x, (symbolic.Mul, FloorDiv)) else 1
    if isinstance(x, Const):
        return f"({x.value})" if x.value < 0 and parent > 1 else str(x.value)
    if isinstance(x, Sym):
        return x.name
    if isinstance(x, (Min, Max)):
        fn = "min" if isinstance(x, Min) else "max"
        return f"{fn}({_reference_text(x.left)}, {_reference_text(x.right)})"
    left = _reference_text(x.left, prec)
    if isinstance(x, symbolic.Add):
        r = x.right
        if isinstance(r, Const) and r.value < 0:
            body = f"{left} - {-r.value}"
        elif isinstance(r, symbolic.Mul) and isinstance(r.left, Const) and r.left.value < 0:
            neg = r.right if r.left.value == -1 else symbolic.Mul(Const(-r.left.value), r.right)
            body = f"{left} - {_reference_text(neg, prec + 1)}"
        else:
            body = f"{left} + {_reference_text(r, prec + 1)}"
    else:
        op = {symbolic.Sub: "-", symbolic.Mul: "*", FloorDiv: "//"}[type(x)]
        body = f"{left} {op} {_reference_text(x.right, prec + 1)}"
    return f"({body})" if prec < parent else body


class TestTables:
    def test_memoized_parse_is_the_built_node(self):
        built = symbolic.Sub(Sym("N"), Const(1))
        assert parse_expr("N - 1") is built
        assert parse_expr("N - 1") is built
        assert parse_subset("0:N - 1:1") == SubsetRange.make([(0, N - 1, 1)])

    @pytest.mark.parametrize("parse, text", [
        (parse_expr, "N +"), (parse_expr, "N $ 1"), (parse_subset, "0:N:1:2"),
        (texpr.parse_texpr, "a <"), (texpr.parse_texpr, "b ? 1"),
    ])
    def test_bad_text_raises_on_every_call(self, parse, text):
        for _ in range(2):
            with pytest.raises(ValueError):
                parse(text)

    def test_text_is_the_same_before_and_after_it_is_kept(self):
        e = Sym("kept_text_only_here") * (Const(-2) + N) - Max(M, Const(-1))
        assert e._text is None
        first = str(e)
        assert e._text == first
        assert str(e) == to_text(e) == first == _reference_text(e)
        sub = SubsetRange(((e, e, Const(1)),))
        assert str(sub) == str(sub) == f"{first}:{first}:1"

    @given(_recipes)
    @settings(max_examples=300, deadline=None)
    def test_kept_text_matches_a_fresh_rendering(self, r):
        e = _build(r)
        assert str(e) == _reference_text(e)
        assert str(e) == _reference_text(e)

    def test_compare_keys_on_equal_bounds(self):
        one, same, zero = Assumptions({"N": 1}), Assumptions({"N": 1}), Assumptions({"N": 0})
        assert one is not same and one == same and hash(one) == hash(same)
        assert compare(1, N, one) is Ternary.TRUE
        assert compare(1, N, same) is Ternary.TRUE
        assert compare(1, N, zero) is Ternary.UNKNOWN
        assert compare(1, N, one.with_bound("N", 0)) is Ternary.UNKNOWN

    def test_compare_refuses_a_bool_after_the_int_is_decided(self):
        a = Assumptions()
        assert compare(1, 1, a) is Ternary.TRUE
        with pytest.raises(TypeError):
            compare(True, 1, a)
        with pytest.raises(TypeError):
            compare(1, True, a)

    def test_assumptions_are_immutable(self):
        given_bounds = {"N": 2}
        a = Assumptions(given_bounds)
        given_bounds["N"] = 0
        assert a.lower("N") == 2
        with pytest.raises(TypeError):
            a.bounds["N"] = 0
        with pytest.raises(AttributeError):
            a.bounds = {"N": 0}
        with pytest.raises(AttributeError):
            a.extra = 1
        assert a.with_bound("N", 0).lower("N") == 0 and a.lower("N") == 2
        assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
