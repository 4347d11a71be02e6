"""From array DSL to an optimized dataflow graph, step by step.

Walks the matrix-multiply-accumulate kernel through the whole shared-memory
pipeline: parsing, statement-per-state lowering, dataflow coarsening, the
auto-optimization heuristics, CPU specialization for C, and interpretation --
checking the result against direct evaluation at every stage.

Run with:  python demos/demo_pipeline.py
"""

import numpy as np

from sdfgkit import frontend
from sdfgkit.autoopt import auto_optimize
from sdfgkit.cemit import lowered
from sdfgkit.frontend import desugar, evaluate_program, parse
from sdfgkit.interp import ExecContext, interpret
from sdfgkit.ir import LibraryNode, MapEntry
from sdfgkit.passes import coarsen

SOURCE = """
def gemm(alpha: f64, beta: f64, C: f64[NI, NJ], A: f64[NI, NK], B: f64[NK, NJ]):
    C[:] = alpha * A @ B + beta * C
"""


def describe(g, title):
    maps = sum(isinstance(n, MapEntry) for st in g.states for n in st.nodes.values())
    libs = [n.kind.value for st in g.states for n in st.nodes.values()
            if isinstance(n, LibraryNode)]
    print(f"--- {title}")
    print(f"    states: {[s.label for s in g.states]}")
    print(f"    map scopes: {maps}, library nodes: {libs}")


def main():
    # 1. The compound expression desugars into single-operation statements,
    #    introducing transients in evaluation order.
    program = parse(SOURCE)
    lowered_src = desugar(program)
    print("desugared statements:")
    for s in lowered_src.entry.body:
        target = getattr(s.target, "id", getattr(s.target, "base", "?"))
        print(f"    {target} = ...")

    # 2. Lowering produces one state per statement.
    g, diags = frontend.compile_source(SOURCE)
    assert not diags
    describe(g, "after lowering (statement per state)")

    # 3. Coarsening fuses the statement states into one dataflow graph.
    report = coarsen(g)
    describe(g, f"after coarsening ({dict(report.applications)})")

    # 4. The auto-optimizer fuses map scopes and places transients; the
    #    matrix product stays a library node, which the interpreter runs
    #    through numpy.
    g2, _ = frontend.compile_source(SOURCE)
    report = auto_optimize(g2)
    describe(g2, f"after auto-optimization ({dict(report.applications)})")

    # 5. Code generation specializes a copy for the CPU: the product expands
    #    into a tiled native subgraph, which is what the C emitter lowers.
    g3 = lowered(g2)
    describe(g3, "specialized for C")

    # 6. All three graphs compute exactly what direct evaluation computes.
    rng = np.random.default_rng(0)
    syms = {"NI": 4, "NJ": 6, "NK": 8}
    inputs = {
        "A": rng.random((4, 8)), "B": rng.random((8, 6)), "C": rng.random((4, 6)),
        "alpha": 1.5, "beta": 0.5,
    }
    ref = evaluate_program(program, syms, {k: (v.copy() if hasattr(v, "copy") else v)
                                           for k, v in inputs.items()})
    for label, graph in (("coarsened", g), ("auto-optimized", g2), ("specialized", g3)):
        ctx = ExecContext(bindings=syms).bind_inputs(
            {k: (np.array(v) if hasattr(v, "shape") else v) for k, v in inputs.items()})
        out = interpret(graph, ctx)
        err = np.max(np.abs(out["C"] - ref["C"]))
        print(f"{label:16s}: max |diff| vs direct evaluation = {err:.2e}")


if __name__ == "__main__":
    main()
