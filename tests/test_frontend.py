import sys

import numpy as np
import pytest

from sdfgkit import frontend
from sdfgkit.frontend import check_restrictions, desugar, lower, parse, parse_tokens, sema
from sdfgkit.frontend.dsl_ast import SAssign, SFor
from sdfgkit.frontend.parser import DslSyntaxError
from sdfgkit.ir import LibKind, LibraryNode, MapEntry, Wcr, structural_eq
from sdfgkit.serialize import serialize
from sdfgkit.texpr import to_text

from conftest import ALL_KERNELS, corpus_source
from test_interp_paths import CALLS


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


class TestOneAnalysis:
    @pytest.fixture
    def analyses(self, monkeypatch):
        """Counts ``sema.analyze`` calls, wrapping it in every sdfgkit module
        that holds it by name."""
        calls = []
        original = sema.analyze

        def counting(program):
            calls.append(program)
            return original(program)

        for name, mod in list(sys.modules.items()):
            if mod is not None and name.startswith("sdfgkit"):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counting)
        return calls

    @pytest.mark.parametrize("name", ALL_KERNELS + ["calls"])
    def test_compile_source_analyzes_once(self, analyses, name):
        src = CALLS if name == "calls" else corpus_source(name)
        g, _ = frontend.compile_source(src)
        assert g is not None
        assert len(analyses) == 1

    def test_stages_analyze_a_program_parse_did_not(self, analyses):
        """A program built without ``parse`` is analyzed once, on first use,
        and lowers to the graph ``compile_source`` makes."""
        src = corpus_source("gemver")
        program = parse_tokens(src)
        assert check_restrictions(program) == []
        g = lower(desugar(program))
        assert len(analyses) == 1
        assert program.diagnostics == []
        assert serialize(g) == serialize(frontend.compile_source(src)[0])
