import copy
import sys

import numpy as np
import pytest

from sdfgkit import frontend
from sdfgkit.autoopt import auto_optimize
from sdfgkit.frontend import (
    check_restrictions, desugar, lower, oracle, parse, parse_tokens, sema,
)
from sdfgkit.interp import ExecContext, InterpOptions, interpret
from sdfgkit.frontend.dsl_ast import ESub, EUn, SAssign, SFor, walk
from sdfgkit.frontend.parser import DslSyntaxError
from sdfgkit.ir import LibKind, LibraryNode, MapEntry, Wcr, structural_eq
from sdfgkit.serialize import serialize
from sdfgkit.symbolic import Sym
from sdfgkit.texpr import to_text

from conftest import ALL_KERNELS, corpus_source
from test_interp_paths import CALLS
from test_optimizer_pin import LOWERING_PROGRAMS


class TestParse:
    def test_jacobi_listing(self):
        prog = parse(corpus_source("jacobi_1d"))
        assert len(prog.functions) == 1
        f = prog.entry
        assert f.name == "jacobi_1d"
        assert [(p.name, p.dtype, len(p.shape)) for p in f.params] == [
            ("TSTEPS", "i32", 0), ("A", "f64", 1), ("B", "f64", 1),
        ]
        assert isinstance(f.body[0], SFor) and f.body[0].kind == "range"
        assert prog.diagnostics == []

    def test_empty_body_function(self):
        prog = parse("def f(A: f64[N]): return\n")
        assert prog.entry.name == "f"
        assert len(prog.entry.body) == 1

    def test_use_before_def_in_map(self):
        prog = parse("def f(A: f64[M, N], B: f64[N, M]):\n"
                     "    for i in map[0:M, 0:N]: A[i, j] = B[j, i]\n")
        msgs = [d.message for d in prog.diagnostics if d.severity == "error"]
        assert any("j" in m and "undefined" in m for m in msgs)

    def test_syntax_error_has_position(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse("def f(A: f64[N]):\n    A[0] = = 1.0\n")
        assert "2:" in str(exc.value)

    def test_tabs_rejected(self):
        with pytest.raises(DslSyntaxError):
            parse("def f(x: f64):\n\tx = 1.0\n")


DEEP = {
    "sum_250": " + ".join(["x"] * 250),
    "sum_1000": " + ".join(["x"] * 1000),
    "negations": "-" * 200 + "x",
    "not_chain": "not " * 200 + "x < 1.0",
    "brackets": "(" * 51 + "x" + ")" * 51,
    "calls": "sqrt(" * 51 + "x" + ")" * 51,
    "right_nested": "x + (" * 51 + "x" + ")" * 51,
}

AT_THE_BOUND = {
    "sum_200": " + ".join(["x"] * 200),
    "negations": "-" * 199 + "x",
    "brackets": "(" * 50 + "x" + ")" * 50,
    "calls": "sqrt(" * 50 + "x" + ")" * 50,
    "right_nested": "x * 0.5 + (" * 50 + "x" + ")" * 50,
}


def deep_program(value: str) -> str:
    return f"def f(A: f64[4], x: f64):\n    A[0] = {value}\n"


class TestExpressionDepth:
    """Expressions deeper than the analyses can recurse are syntax errors at
    the expression, not a ``RecursionError``; those at the bound compile and
    run as the oracle does."""

    @pytest.mark.parametrize("case", sorted(DEEP))
    def test_too_deep_is_a_located_syntax_error(self, case):
        with pytest.raises(DslSyntaxError, match=r"^2:\d+: expression (is more than 200 "
                                                 r"levels|nests more than 50 brackets) deep$"):
            frontend.compile_source(deep_program(DEEP[case]))

    @pytest.mark.parametrize("case", sorted(AT_THE_BOUND))
    def test_at_the_bound_compiles_and_runs(self, case):
        source = deep_program(AT_THE_BOUND[case])
        g, diags = frontend.compile_source(source)
        assert g is not None and not [d for d in diags if d.severity == "error"]
        inputs = {"A": np.zeros(4), "x": 0.75}
        want = oracle.evaluate_program(parse(source), {}, copy.deepcopy(inputs))
        optimized = g.copy()
        auto_optimize(optimized)
        for graph in (g, optimized):
            ctx = ExecContext(bindings={}).bind_inputs(copy.deepcopy(inputs))
            assert interpret(graph, ctx)["A"].tobytes() == want["A"].tobytes()

    def test_prefix_operators_nest_right_to_left(self):
        value = parse(deep_program("not not - + -x < 1.0")).entry.body[0].value
        assert [(type(n).__name__, getattr(n, "op", None)) for n in walk(value)] == [
            ("EUn", "not"), ("EUn", "not"), ("EBin", "<"), ("EUn", "-"), ("EUn", "-"),
            ("EName", None), ("ENum", None)]
        assert [n.span.col for n in walk(value) if isinstance(n, EUn)] == [12, 16, 20, 24]


class TestRestrictions:
    def test_control_dependent_state(self):
        src = ("def f(x: f64, out: f64):\n"
               "    if x > 5.0:\n"
               "        y = 1.0\n"
               "    out = y\n")
        diags = check_restrictions(parse(src))
        assert any(d.restriction == "R3" for d in diags)

    def test_both_branches_define_is_fine(self):
        src = ("def f(x: f64, out: f64):\n"
               "    if x > 5.0:\n"
               "        y = 1.0\n"
               "    else:\n"
               "        y = 2.0\n"
               "    out = y\n")
        assert check_restrictions(parse(src)) == []

    def test_self_recursion(self):
        src = ("def f(A: f64[N]):\n"
               "    f(A)\n")
        diags = check_restrictions(parse(src))
        assert any(d.restriction == "R4" for d in diags)

    def test_mutual_recursion(self):
        src = ("def f(A: f64[N]):\n"
               "    h(A)\n"
               "def h(A: f64[N]):\n"
               "    f(A)\n")
        diags = check_restrictions(parse(src))
        assert any(d.restriction == "R4" for d in diags)

    def test_straightline_gemm_clean(self):
        assert check_restrictions(parse(corpus_source("gemm"))) == []


class TestDesugar:
    def _stmts(self, src):
        return desugar(parse(src)).entry.body

    def test_gemm_four_statements(self):
        body = self._stmts(corpus_source("gemm"))
        assert len(body) == 4
        targets = [s.target.id if hasattr(s.target, "id") else s.target.base
                   for s in body]
        assert targets == ["tmp0", "tmp1", "tmp2", "C"]

    def test_noop_assignment_unchanged(self):
        body = self._stmts("def f(x: f64, y: f64):\n    x = y\n")
        assert len(body) == 1
        assert isinstance(body[0], SAssign)

    def test_halfstep_counts(self):
        body = self._stmts(
            "def f(A: f64[N], B: f64[N]):\n"
            "    B[1:-1] = 0.33333 * (A[:-2] + A[1:-1] + A[2:])\n")
        assert len(body) == 4  # three temporaries plus the subset copy
        temps = [s for s in body if hasattr(s.target, "id")
                 and s.target.id.startswith("tmp")]
        assert len(temps) == 3


    @pytest.mark.parametrize("value", ["A < 1.0", "not A", "A and x > 0.0"])
    def test_whole_array_logic_in_map_body_rejected(self, value):
        src = ("def f(A: f64[N], B: f64[N], x: f64):\n"
               f"    for i in map[0:N]:\n        B[i] = {value}\n")
        g, diags = frontend.compile_source(src)
        assert g is None
        assert [d.message for d in diags] == ["array-valued operation inside a map body"]

    @pytest.mark.parametrize("cond, col", [
        ("A < x", 8), ("x < A", 12), ("not A", 12), ("x > 0.0 and A < x", 20),
        ("A + 1.0 < x", 10), ("A[0:2] < x", 8),
    ])
    def test_array_operand_in_condition_rejected(self, cond, col):
        src = ("def f(A: f64[N], B: f64[N], x: f64):\n"
               f"    if {cond}:\n        x = 1.0\n")
        g, diags = frontend.compile_source(src)
        assert g is None
        assert [(d.message, d.span.col) for d in diags] == [
            ("array-valued operand in a condition", col)]

    def test_scalar_condition_compiles(self):
        src = ("def f(A: f64[N], B: f64[N], x: f64):\n"
               "    if x < 1.0 and not (x > 0.5):\n        B[0] = x\n")
        g, diags = frontend.compile_source(src)
        assert g is not None and not diags


class TestLower:
    def test_wcr_augassign(self):
        g, diags = frontend.compile_source(corpus_source("wcr_sum"))
        assert not diags
        wcr_edges = [e for st in g.states for e in st.edges
                     if e.memlet is not None and e.memlet.wcr is Wcr.ADD
                     and e.memlet.container == "alpha"]
        assert wcr_edges

    def test_fig4_guard_body(self):
        g, _ = frontend.compile_source(corpus_source("fig4_loop"))
        guards = [s for s in g.states if s.label.endswith("_guard")]
        assert len(guards) == 1
        guard = guards[0]
        conds = [to_text(t.condition) for t in g.out_transitions(guard.label)
                 if t.condition is not None]
        assert "i < NI" in conds
        incr = [t for t in g.in_transitions(guard.label) if "i" in t.assignments
                and str(t.assignments["i"]) == "i + 1"]
        assert incr

    def test_matmul_rank_mismatch(self):
        g, diags = frontend.compile_source(
            "def f(A: f64[N], B: f64[M], y: f64):\n    y = sum(A @ B)\n")
        assert g is None
        assert any("rank mismatch" in d.message for d in diags)

    def test_statement_states_match_desugared_statements(self):
        src = corpus_source("gemm")
        g, _ = frontend.compile_source(src)
        body = desugar(parse(src)).entry.body
        stmt_states = [s for s in g.states
                       if not s.label.endswith("_guard")
                       and s.label not in ("exit",) and s.nodes]
        assert len(stmt_states) == len(body)

    def test_determinism(self):
        src = corpus_source("jacobi_2d")
        g1, _ = frontend.compile_source(src)
        g2, _ = frontend.compile_source(src)
        assert structural_eq(g1, g2)

    def test_lowered_graphs_validate(self):
        for name in ("gemm", "jacobi_1d", "adi", "gemver"):
            g, diags = frontend.compile_source(corpus_source(name))
            assert not [d for d in diags if d.severity == "error"]
            assert [d for d in g.validate() if d.severity == "error"] == []

    def test_reduce_lowered_as_library_node(self):
        g, _ = frontend.compile_source(corpus_source("doitgen"))
        kinds = [n.kind for st in g.states for n in st.nodes.values()
                 if isinstance(n, LibraryNode)]
        assert LibKind.REDUCE in kinds


def _counting(monkeypatch, *names: str) -> dict[str, int]:
    """Counts the calls of the ``sema`` functions ``names``, wrapping each in
    every sdfgkit module that holds it by name; calls within ``sema`` go
    through its module attributes, so recursion is counted too."""
    counts = dict.fromkeys(names, 0)
    for fn in names:
        original = getattr(sema, fn)

        def counting(*args, _fn=fn, _original=original):
            counts[_fn] += 1
            return _original(*args)

        for name, mod in list(sys.modules.items()):
            if mod is not None and name.startswith("sdfgkit"):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counting)
    return counts


class TestOneAnalysis:
    @pytest.fixture
    def analyses(self, monkeypatch):
        return _counting(monkeypatch, "analyze")

    @pytest.mark.parametrize("name", ALL_KERNELS + ["calls"])
    def test_compile_source_analyzes_once(self, analyses, name):
        src = CALLS if name == "calls" else corpus_source(name)
        g, _ = frontend.compile_source(src)
        assert g is not None
        assert analyses["analyze"] == 1

    def test_stages_analyze_a_program_parse_did_not(self, analyses):
        """A program built without ``parse`` is analyzed once, on first use,
        and lowers to the graph ``compile_source`` makes."""
        src = corpus_source("gemver")
        program = parse_tokens(src)
        assert check_restrictions(program) == []
        g = lower(desugar(program))
        assert analyses["analyze"] == 1
        assert program.diagnostics == []
        assert serialize(g) == serialize(frontend.compile_source(src)[0])


class TestOneDerivation:
    """Desugaring and lowering share one typing table per function, so each
    expression is typed once in each context it is read in."""

    def test_corpus_derivations(self, monkeypatch):
        # deriving every subtree again at each level of desugaring, and every
        # emitted statement again in lowering, took 1,739 and 402
        counts = _counting(monkeypatch, "classify", "resolve_subscript")
        for name in ALL_KERNELS:
            g, _ = frontend.compile_source(corpus_source(name))
            assert g is not None
        assert counts["classify"] <= 700
        assert counts["resolve_subscript"] <= 200

    @pytest.mark.parametrize("value, spans", [
        ("A * B + A", ["2:14"]),
        ("(A * B + A) * 2.0 - B", ["2:15", "2:30"]),
    ])
    def test_each_warning_once(self, value, spans):
        g, diags = frontend.compile_source(
            f"def f(A: f64[N], B: f64[M], C: f64[N]):\n    C[:] = {value}\n")
        assert g is not None
        assert [str(d) for d in diags] == [
            f"{span}: warning: element-wise shapes not provably equal" for span in spans]


# Programs whose expressions are read in two contexts: lowering used to
# forget the shadowed `i` after the inner loop, which analysis now refuses.
# Desugaring refuses the reallocated `x`, which lowering used to read with
# its first type where desugaring had given it the second.
CONTEXT_PROGRAMS = {
    "reallocated_local": ("def f(A: f64[N], B: f64[M]):\n"
                          "    x = zeros(N)\n"
                          "    A[:] = x + 1.0\n"
                          "    x = zeros(M)\n"
                          "    B[:] = x + 2.0\n"),
    "shadowed_loop": ("def f(A: f64[N], B: f64[N]):\n"
                      "    for i in range(1, N):\n"
                      "        for i in range(2, N):\n"
                      "            A[i] = 1.0\n"
                      "        B[0] = A[i - 1]\n"),
}


class TestTypingTable:
    @pytest.fixture
    def hits(self, monkeypatch):
        """Checks every hit of a typing table against a fresh derivation of
        the node in the same context, on a table of its own; returns the
        nodes that hit."""
        seen = []
        original = sema.TypingTable.lookup

        def checking(table, ctx, e):
            if table.key(ctx, e) not in table.entries:
                return original(table, ctx, e)
            got = original(table, ctx, e)
            fresh = copy.copy(ctx)
            fresh.table = sema.TypingTable()
            fresh.loop_vars = dict(ctx.loop_vars)
            fresh.local_types = dict(ctx.local_types)
            fresh.warnings = []
            try:
                want = fresh.derivation(e)
            except sema.SemanticError as ex:
                want = ex
            assert got == want, (e.span, got, want)
            seen.append(e)
            return got

        monkeypatch.setattr(sema.TypingTable, "lookup", checking)
        return seen

    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_corpus_hits_are_exact(self, hits, name):
        g, _ = frontend.compile_source(corpus_source(name))
        assert g is not None and hits

    @pytest.mark.parametrize("name", [*LOWERING_PROGRAMS, "calls", *CONTEXT_PROGRAMS])
    def test_program_hits_are_exact(self, hits, name):
        src = {"calls": CALLS, **LOWERING_PROGRAMS, **CONTEXT_PROGRAMS}[name]
        frontend.compile_source(src)

    @pytest.mark.parametrize("name", ["gemm", "jacobi_2d", "doitgen"])
    def test_lowering_reads_the_types_desugaring_derived(self, monkeypatch, name):
        # lowering derives only the subscripts written, which desugaring
        # does not read
        program = desugar(parse(corpus_source(name)))
        targets = [s.target for s in walk(*program.entry.body)
                   if isinstance(s, SAssign) and isinstance(s.target, ESub)]
        counts = _counting(monkeypatch, "classify", "resolve_subscript")
        lower(program)
        assert counts == {"classify": 0, "resolve_subscript": len(targets)}

    def test_loop_bounds_are_part_of_the_context(self):
        program = parse("def f(A: f64[N]):\n"
                        "    for i in range(1, N):\n"
                        "        A[i - 1] = 1.0\n")
        ctx = sema.TypeCtx(program.info, program.info.funcs["f"])
        target = program.entry.body[0].body[0].target
        ctx.loop_vars["i"] = 1
        assert str(ctx.subscript(target)[0]) == "i - 1:i - 1:1"
        ctx.loop_vars["i"] = 0
        with pytest.raises(sema.SemanticError, match="sign of index 'i - 1' is not provable"):
            ctx.subscript(target)

    def test_local_types_are_part_of_the_context(self):
        program = parse("def f(A: f64[N], B: f64[M]):\n    A[:] = x + 1.0\n")
        ctx = sema.TypeCtx(program.info, program.info.funcs["f"])
        value = program.entry.body[0].value
        with pytest.raises(sema.SemanticError, match="undefined name 'x'"):
            ctx.type_of(value)
        for shape in ("N", "M"):
            ctx.local_types["x"] = sema.Ty("array", "f64", (Sym(shape),))
            assert ctx.type_of(value) == sema.Ty("array", "f64", (Sym(shape),))


class TestZeros:
    """A ``zeros`` or ``empty`` that may run after its local was written (in
    a loop, or a second allocation) clears the local; a local keeps the type
    it was made with."""

    @pytest.mark.parametrize("name, want", [
        ("zeros_in_loop", lambda A: np.array([A[0]] * 3 + [0.0])),
        ("empty_in_loop", lambda A: np.array([A[0]] * 3 + [0.0])),
        ("zeros_twice", lambda A: np.full(4, 2.0)),
    ])
    def test_matches_oracle(self, name, want):
        src = LOWERING_PROGRAMS[name]
        g, diags = frontend.compile_source(src)
        assert not diags
        optimized = g.copy()
        auto_optimize(optimized)
        symbols = {"N": 4}
        inputs = {"A": np.array([5.0, 1.0, 2.0, 3.0]), "B": np.zeros(4)}
        ref = oracle.evaluate_program(parse(src), symbols, copy.deepcopy(inputs))
        assert np.array_equal(ref["B"], want(inputs["A"]))
        for graph in (g, optimized):
            for reverse in (False, True):
                for vectorize in (False, True):
                    ctx = ExecContext(bindings=dict(symbols)).bind_inputs(copy.deepcopy(inputs))
                    out = interpret(graph, ctx, InterpOptions(reverse_maps=reverse,
                                                              vectorize=vectorize))
                    assert all(np.array_equal(out[k], ref[k]) for k in ref)

    @pytest.mark.parametrize("src, message", [
        (LOWERING_PROGRAMS["zeros_other_shape"],
         "5:5: error: 'x' is reallocated as f64[M]; it was made as f64[N]"),
        ("def f(A: f64[N]):\n    x = 1.0\n    x = zeros(N)\n    A[:] = x\n",
         "3:5: error: 'x' is reallocated as f64[N]; it was made as f64"),
        ("def f(A: f64[N], B: f64[N]):\n    A = zeros(N)\n    B[:] = A + 1.0\n",
         "2:5: error: zeros() cannot rebind parameter 'A'"),
    ], ids=["other_shape", "scalar_first", "parameter"])
    def test_refused(self, src, message):
        g, diags = frontend.compile_source(src)
        assert g is None
        assert [str(d) for d in diags] == [message]

    def test_first_allocation_makes_no_state(self):
        g, _ = frontend.compile_source("def f(A: f64[N]):\n    x = zeros(N)\n    A[:] = x + 1.0\n")
        assert len(g.states) == 1


class TestShadowedLoop:
    """A loop or map that binds a name an enclosing loop binds is refused
    where it is written."""

    MESSAGE = "3:9: error: loop variable 'i' is bound by an enclosing loop"

    @pytest.mark.parametrize("src", [
        CONTEXT_PROGRAMS["shadowed_loop"],
        "def f(A: f64[N], B: f64[N]):\n"
        "    for i in range(1, N):\n"
        "        for i in range(2, N):\n"
        "            A[i] = 1.0\n",
        "def f(A: f64[N], B: f64[N]):\n"
        "    for i in range(1, N):\n"
        "        for i in map[0:N]:\n"
        "            A[i] = 1.0\n",
    ], ids=["read_after", "inner_only", "inner_map"])
    def test_refused(self, src):
        g, diags = frontend.compile_source(src)
        assert g is None
        assert [str(d) for d in diags] == [self.MESSAGE]

    def test_sibling_loops_compile(self):
        src = ("def f(A: f64[N]):\n"
               "    for i in range(1, N):\n"
               "        A[i] = 1.0\n"
               "    for i in range(2, N):\n"
               "        A[i] = 2.0\n")
        g, diags = frontend.compile_source(src)
        assert g is not None and not diags


class TestLoopVariantShape:
    """Containers are sized once, before the program runs, so a temporary
    or local whose shape uses a loop variable is refused where it is made."""

    @pytest.mark.parametrize("body, message", [
        ("C[i, :i + 1] *= beta", "4:9: error: shape of container 'tmp0' uses loop variable 'i'"),
        ("x = zeros(i + 1)", "4:9: error: shape of container 'x' uses loop variable 'i'"),
        ("x = C[i, :i + 1] * beta", "4:9: error: shape of container 'x' uses loop variable 'i'"),
    ])
    def test_refused(self, body, message):
        src = ("def f(beta: f64, C: f64[N, N]):\n"
               "    for j in range(N):\n"
               "        for i in range(j, N):\n"
               f"            {body}\n")
        g, diags = frontend.compile_source(src)
        assert g is None
        assert [str(d) for d in diags] == [message.replace("4:9", "4:13")]

    def test_syrk(self):
        g, diags = frontend.compile_source(LOWERING_PROGRAMS["loop_variant_shape"])
        assert g is None
        assert [str(d) for d in diags] == [
            "4:9: error: shape of container 'tmp0' uses loop variable 'i'"]

    def test_loop_invariant_shape_compiles(self):
        src = ("def f(beta: f64, C: f64[N, N]):\n"
               "    for i in range(N):\n"
               "        C[i, 1:] *= beta\n")
        g, diags = frontend.compile_source(src)
        assert g is not None and not diags
