"""Frontend for the `.dpy` array DSL: parse, check, desugar, lower."""

from __future__ import annotations

from .dsl_ast import Diagnostic, Program, Span
from .parser import DslSyntaxError, parse_tokens
from .sema import SemanticError, analyze, check_restrictions
from .desugar import desugar
from .lower import LowerError, lower
from .oracle import OracleError, evaluate_program


def parse(source: str) -> Program:
    """Parse DSL text into an AST.

    Grammar errors raise :class:`DslSyntaxError` with line/column; name
    resolution problems (use before definition, unknown symbols in shapes)
    are collected into ``Program.diagnostics``.  The analysis is kept as
    ``Program.info``, which the restriction checks, desugaring and lowering
    reuse.
    """
    program = parse_tokens(source)
    analyze(program)  # fills program.diagnostics and program.info
    return program


def compile_source(source: str):
    """parse -> check_restrictions -> desugar -> lower.

    Returns ``(sdfg, diagnostics)``; the graph is None when errors block
    lowering.
    """
    program = parse(source)
    diags = list(program.diagnostics)
    diags += check_restrictions(program)
    if any(d.severity == "error" for d in diags):
        return None, diags
    lowered = desugar(program)
    diags += [d for d in lowered.diagnostics if d not in diags]
    if any(d.severity == "error" for d in diags):
        return None, diags
    try:
        g = lower(lowered)
    except (SemanticError, LowerError) as ex:
        diags.append(Diagnostic("error", ex.span, ex.raw_message))
        return None, diags
    return g, diags


__all__ = [
    "parse", "check_restrictions", "desugar", "lower", "compile_source",
    "evaluate_program", "Program", "Diagnostic", "Span", "DslSyntaxError",
    "SemanticError", "LowerError", "OracleError", "analyze",
]
