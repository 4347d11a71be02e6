"""Workloads, the kernel pipeline and the metrics of the sdfgkit benchmark.

One caller drives a closed loop: it pushes each kernel of the workload through
the library's public API and starts the next pipeline only when the previous
one is verified.  A pipeline is

    frontend.compile_source -> autoopt.auto_optimize -> serialize/deserialize
    -> cemit.emit_c -> interp.interpret (unoptimized and optimized graph)
    -> comparison with frontend.oracle.evaluate_program

and each pass takes one sample per kernel.  Workloads that compile once do
the first four steps in set-up and the rest on every pass, each time on a
fresh copy of the graphs.  Passes alternate between the in-memory optimized
graph (even passes) and its JSON round trip (odd passes); both must reproduce
the first pass's outputs bit for bit, and every pass must reproduce the first
pass's counts exactly.

Every timing is reported in seconds at a reference host speed.  The shared
hosts this benchmark runs on change speed by up to 1.6x within tens of
seconds, and every timing moves with it; so a fixed loop of Python arithmetic
that does not touch sdfgkit (``probe``) is timed right before and right
after each pipeline, compile and set-up, and the timing is scaled by
``PROBE_REF_S`` over the mean of the two probe times.  The wall times are
kept beside the scaled ones and printed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import statistics
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sdfgkit import deserialize, frontend, serialize
from sdfgkit.autoopt import auto_optimize, cpu_registry
from sdfgkit.cemit import emit_c
from sdfgkit.frontend import oracle
from sdfgkit.frontend.dsl_ast import EName, ENum
from sdfgkit.interp import ExecContext, interpret

from tracing import Tracer

clock = time.perf_counter

# Test-scale bindings, the same as tests/conftest.py KERNEL_SYMBOLS.
TEST_SCALE = {
    "adi": {"N": 8, "TSTEPS": 2},
    "atax": {"M": 6, "N": 4},
    "bicg": {"N": 6, "M": 4},
    "doitgen": {"NR": 4, "NQ": 4, "NP": 8},
    "fig4_loop": {"NI": 8},
    "gemm": {"NI": 4, "NJ": 6, "NK": 8},
    "gemver": {"N": 6},
    "gesummv": {"N": 6},
    "jacobi_1d": {"N": 8, "TSTEPS": 4},
    "jacobi_2d": {"N": 6, "TSTEPS": 4},
    "k2mm": {"NI": 4, "NJ": 6, "NK": 8, "NL": 4},
    "k3mm": {"NI": 4, "NJ": 6, "NK": 8, "NM": 4, "NL": 6},
    "mvt": {"N": 6},
    "wcr_sum": {"NI": 4, "NJ": 6},
}


@dataclass(frozen=True)
class Workload:
    kernels: dict[str, dict[str, int]]
    compile_each_pass: bool


WORKLOADS = {
    # Compile-bound: adi's auto_optimize alone is most of a pass, and
    # passes/autoopt/ir/symbolic take over 90% of the time; interp runs only
    # test-scale extents.
    "corpus-compile": Workload(TEST_SCALE, compile_each_pass=True),
    # Execute-bound: compiled once in set-up, so the compiler is bypassed and
    # time goes to map iterations and conflict-resolved writes.  gemm, k3mm
    # and atax run np.matmul unoptimized but a native map after expansion.
    "medium-execute": Workload({
        "gemm": {"NI": 20, "NJ": 20, "NK": 20},
        "k3mm": {"NI": 12, "NJ": 12, "NK": 12, "NM": 12, "NL": 12},
        "atax": {"M": 48, "N": 48},
        "wcr_sum": {"NI": 48, "NJ": 48},
        "doitgen": {"NR": 6, "NQ": 8, "NP": 12},
        "jacobi_2d": {"N": 24, "TSTEPS": 4},
    }, compile_each_pass=False),
    # Launch-bound: small extents and long time loops, so thousands of short
    # map launches, state transitions and condition evaluations.  adi is left
    # to corpus-compile: it takes about 13 s to compile, once in each of the
    # SETUP_REPEATS set-ups.
    "timestep-control": Workload({
        "jacobi_1d": {"N": 8, "TSTEPS": 60},
        "jacobi_2d": {"N": 6, "TSTEPS": 30},
    }, compile_each_pass=False),
}

# The tolerances of criterion 4 in tests/test_acceptance.py: kernels whose
# optimization reassociates floating-point sums get 1e-6, the others 1e-12.
REASSOCIATING = {"gemm", "k2mm", "k3mm", "atax", "bicg", "mvt", "gesummv",
                 "gemver", "doitgen", "wcr_sum"}

# Set-up runs this many times in an untraced run; setup_s is the median.
SETUP_REPEATS = 3
# A run makes whole passes, at least two and at least enough for this many
# samples, so that a tail percentile with ten samples beyond it lies above
# the median.
MIN_SAMPLES = 22
# In an untraced run a sample repeats its kernel's pipeline back to back
# until SAMPLE_S have passed or MAX_REPEATS are done, and reports the median
# of each timing: one pipeline of a small kernel lasts a few milliseconds and
# would report the machine's noise rather than the kernel.
SAMPLE_S = 0.2
MAX_REPEATS = 9
# The probe's time at the reference speed: about its time on an idle
# 2-vCPU x86-64 host with CPython 3.11.
PROBE_REF_S = 0.007


def probe() -> float:
    """Wall time of a fixed loop of Python integer arithmetic."""
    t = clock()
    s = 0
    for i in range(100_000):
        s += i * i
    return clock() - t


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two probes that took ``before`` and
    ``after``, in seconds at the reference speed."""
    return seconds * PROBE_REF_S * 2 / (before + after)


def expansion_names() -> list[str]:
    return sorted(f"{kind.value}_{x.name}"
                  for kind, xs in cpu_registry().by_kind.items() for x in xs)


# ---------------------------------------------------------------------------
# Inputs and checks


def _extent(e, symbols: dict[str, int]) -> int:
    if isinstance(e, ENum):
        return int(e.value)
    if isinstance(e, EName):
        return symbols[e.id]
    raise ValueError(f"unsupported shape expression {e!r}")


def make_inputs(program, symbols: dict[str, int], rng) -> dict:
    """Arrays uniform in [-1, 1), float scalars in [0.5, 1.5)."""
    inputs = {}
    for p in program.entry.params:
        if p.shape:
            shape = tuple(_extent(d, symbols) for d in p.shape)
            inputs[p.name] = rng.uniform(-1.0, 1.0, size=shape)
        elif p.dtype == "f64":
            inputs[p.name] = float(rng.uniform(0.5, 1.5))
    return inputs


def rel_err(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return math.inf
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1.0)))


def bitwise_equal(x: dict, y: dict) -> bool:
    return x.keys() == y.keys() and all(
        x[k].dtype == y[k].dtype and np.array_equal(x[k], y[k], equal_nan=True)
        for k in x)


# ---------------------------------------------------------------------------
# Kernels


@dataclass
class Compiled:
    plain: object
    opt: object
    roundtrip: object
    text: str  # the optimized graph's JSON
    seconds: float  # compile_source + auto_optimize, wall time
    signature: dict  # pass applications, graph sizes, JSON and C bytes


@dataclass
class Kernel:
    name: str
    symbols: dict[str, int]
    source: str
    program: object = None
    inputs: dict = field(default_factory=dict)
    compiled: Compiled | None = None
    compile_s: float = 0.0  # the set-up's compile at the reference speed
    setup_error: str | None = None
    first: tuple | None = None  # (plain outputs, optimized outputs, counts)


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, tracer: Tracer | None):
        self.corpus = root / "tests" / "corpus"
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.tracer = tracer
        self.tracing = False
        self.kernels: list[Kernel] = []
        self.defects: list[str] = []
        # (kernel, compile_source + auto_optimize seconds at the reference
        # speed) of each set-up
        self.setup_compile_s: list[tuple[str, float]] = []
        kernels = len(self.workload.kernels)
        self.min_passes = max(2, -(-MIN_SAMPLES // kernels))
        # the sample counts every run reaches, which fix the tail percentiles
        self.guaranteed = {
            "pipeline": kernels * self.min_passes,
            "compile": kernels * (self.min_passes if self.workload.compile_each_pass
                                  else SETUP_REPEATS),
        }

    @contextmanager
    def traced(self, on: bool):
        """Install the tracer's wrappers for the duration of the block."""
        self.tracing = on
        if on:
            self.tracer.install()
        try:
            yield
        finally:
            if on:
                self.tracer.uninstall()
            self.tracing = False

    def span(self, key: str):
        return self.tracer.span(key) if self.tracing else nullcontext()

    def count(self, key: str, n: int = 1) -> None:
        if self.tracing:
            self.tracer.counts[key] += n

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        """Read the corpus, generate the seeded inputs and, for workloads that
        compile once, build the compiled-graph cache."""
        rng = np.random.default_rng(self.seed)
        previous = {k.name: k for k in self.kernels}
        self.kernels = []
        for name, symbols in self.workload.kernels.items():
            k = Kernel(name, dict(symbols), (self.corpus / f"{name}.dpy").read_text())
            k.program = frontend.parse(k.source)
            k.inputs = make_inputs(k.program, k.symbols, rng)
            self.kernels.append(k)
        if not self.workload.compile_each_pass:
            self.compile_once(previous)

    def compile_once(self, previous: dict[str, Kernel]) -> None:
        """Fill each kernel's ``compiled``, which must give the same counts
        as the previous set-up's."""
        for k in self.kernels:
            gc.collect()
            before = probe()
            try:
                k.compiled = self.compile(k)
            except Exception:
                k.setup_error = traceback.format_exc(limit=1).strip()
                continue
            k.compile_s = at_reference(k.compiled.seconds, before, probe())
            earlier = getattr(previous.get(k.name), "compiled", None)
            if earlier and earlier.signature != k.compiled.signature:
                self.defects.append(f"{k.name}: compile counts differ between set-ups")

    def sample_compiles(self) -> None:
        """Take one compile_s sample per kernel of a compile-once workload:
        the median of the set-up's compile and of back-to-back recompiles
        until SAMPLE_S have passed or MAX_REPEATS are done, as for a
        pipeline sample.  Runs after a set-up and outside its timing; every
        recompile must give the set-up's counts."""
        for k in self.kernels:
            if k.compiled is None or k.setup_error:
                continue
            times, spent = [k.compile_s], k.compiled.seconds
            while spent < SAMPLE_S and len(times) < MAX_REPEATS:
                gc.collect()
                before = probe()
                try:
                    c = self.compile(k)
                except Exception:
                    self.defects.append(f"{k.name}: a recompile failed: "
                                        + traceback.format_exc(limit=1).strip())
                    break
                times.append(at_reference(c.seconds, before, probe()))
                spent += c.seconds
                if c.signature != k.compiled.signature:
                    self.defects.append(f"{k.name}: compile counts differ between compiles")
            self.setup_compile_s.append((k.name, statistics.median(times)))

    def compile(self, k: Kernel) -> Compiled:
        t0 = clock()
        g, diags = frontend.compile_source(k.source)
        if g is None:
            raise RuntimeError("; ".join(str(d) for d in diags if d.severity == "error"))
        t1 = clock()
        plain = g.copy()
        t2 = clock()
        report = auto_optimize(g)
        seconds = clock() - t2 + t1 - t0
        with self.span("serialize.serialize"):
            text = serialize(g)
        with self.span("serialize.deserialize"):
            roundtrip = deserialize(text)
        with self.span("cemit.emit"):
            c_source = emit_c(roundtrip)
        signature = {
            "report": report.to_json(),
            "json_bytes": len(text.encode()),
            "c_bytes": len(c_source.encode()),
        }
        if self.tracing:
            self._count_compile(report, signature)
        return Compiled(plain, g, roundtrip, text, seconds, signature)

    def _count_compile(self, report, signature: dict) -> None:
        apps = report.applications
        self.count("passes.rewrites", sum(apps.get(a, 0) for a in (
            "state_fusion", "redundant_copy_removal", "inline_nested", "loop_to_map")))
        self.count("passes.loops_considered", len(report.loop_decisions))
        self.count("passes.loops_parallelized", sum(ok for _, ok in report.loop_decisions))
        self.count("autoopt.fusions", apps.get("subgraph_fusion", 0))
        for a, n in apps.items():
            if a.startswith("expand_"):
                self.count("autoopt.expansions." + a[len("expand_"):], n)
        self.count("ir.nodes_before", report.before_nodes)
        self.count("ir.nodes_after", report.after_nodes)
        self.count("ir.states_after", report.after_states)
        self.count("serialize.json_bytes", signature["json_bytes"])
        self.count("cemit.c_bytes", signature["c_bytes"])

    # -- one pipeline ------------------------------------------------------

    def execute(self, graph, k: Kernel, key: str):
        ctx = ExecContext(bindings=dict(k.symbols)).bind_inputs(k.inputs)
        with self.span(key):
            out = interpret(graph, ctx)
        counters = ctx.counters.as_dict()
        for c in ("map_iterations", "wcr_commits", "bytes_moved"):
            self.count(f"interp.{c}", counters[c])
        return out, counters

    def pipeline(self, k: Kernel, pass_index: int) -> tuple[dict, list[str]]:
        """Returns the sample's timings and the reasons it failed, if any."""
        if k.setup_error:
            raise RuntimeError(k.setup_error)
        roundtrip = pass_index % 2 == 1
        if self.workload.compile_each_pass:
            t0 = clock()
            c = self.compile(k)
            plain, graph = c.plain, c.roundtrip if roundtrip else c.opt
        else:
            # interpret's time on a graph depends on the graph object: equal
            # copies of one graph run up to 1.5x apart.  A fresh copy (or, on
            # odd passes, a fresh JSON round trip) per pipeline averages that
            # out instead of fixing it for the whole run.
            c = k.compiled
            plain = c.plain.copy()
            graph = deserialize(c.text) if roundtrip else c.opt.copy()
            t0 = clock()
        t1 = clock()
        out_plain, ctr_plain = self.execute(plain, k, "interp.plain")
        t2 = clock()
        out_opt, ctr_opt = self.execute(graph, k, "interp.opt")
        t3 = clock()
        with self.span("frontend.oracle"):
            ref = oracle.evaluate_program(k.program, k.symbols, k.inputs)
        errors = []
        tol = 1e-6 if k.name in REASSOCIATING else 1e-12
        for label, out in (("unoptimized", out_plain), ("optimized", out_opt)):
            err = max(rel_err(out[n], ref[n]) if n in out else math.inf for n in ref)
            if not err <= tol:
                errors.append(f"{label} graph misses the oracle by {err:.1e} (tolerance {tol:.0e})")
        counts = {**c.signature, "plain": ctr_plain, "opt": ctr_opt}
        if k.first is None:
            k.first = (out_plain, out_opt, counts)
        else:
            if not bitwise_equal(out_plain, k.first[0]):
                errors.append("unoptimized outputs differ from the first pass")
            if not bitwise_equal(out_opt, k.first[1]):
                which = "JSON round-trip" if roundtrip else "in-memory"
                errors.append(f"optimized outputs of the {which} graph differ from the first pass")
            if counts != k.first[2]:
                errors.append("counts differ from the first pass")
        timing = {"pipeline_s": clock() - t0, "run_plain_s": t2 - t1, "run_s": t3 - t2}
        if self.workload.compile_each_pass:
            timing["compile_s"] = c.seconds
        return timing, errors

    # -- the measured loop -------------------------------------------------

    def measure(self, seconds: float) -> dict:
        """Whole passes until ``seconds`` have elapsed and ``min_passes``
        are done; two at least, so that both the in-memory and the
        round-tripped graph are checked.  With a tracer, even passes are
        traced and odd passes are not."""
        # (kernel, timings at the reference speed plus the wall time and the
        # probe's, verified)
        samples: list[tuple[str, dict, bool]] = []
        failures: list[str] = []
        pass_s = {True: [], False: []}
        attempted = failed = 0
        start = clock()
        passes = 0
        after = probe()
        while passes < self.min_passes or clock() - start < seconds:
            traced = self.tracer is not None and passes % 2 == 0
            with self.traced(traced):
                t = clock()
                for k in self.kernels:
                    timings = []
                    sample_start = clock()
                    while True:
                        gc.collect()  # every pipeline starts from a collected heap
                        before = after
                        attempted += 1
                        if traced:
                            self.tracer.request += 1
                        try:
                            with self.span("bench.pipeline"):
                                timing, errors = self.pipeline(k, passes)
                            after = probe()
                            timings.append({key: at_reference(v, before, after)
                                            for key, v in timing.items()}
                                           | {"pipeline_wall_s": timing["pipeline_s"],
                                              "probe_s": (before + after) / 2})
                        except Exception:  # a failed pipeline is counted, never fatal
                            errors = [traceback.format_exc(limit=1).strip().replace("\n", " | ")]
                            after = probe()
                        failures += [f"pass {passes} {k.name}: {e}" for e in errors]
                        failed += bool(errors)
                        if (errors or self.tracer or len(timings) >= MAX_REPEATS
                                or clock() - sample_start >= SAMPLE_S):
                            break
                    if timings:
                        samples.append((k.name, {key: statistics.median(t[key] for t in timings)
                                                 for key in timings[0]}, not errors))
                pass_s[traced].append(clock() - t)
            passes += 1
        return {"passes": passes, "attempted": attempted,
                "failed": failed, "samples": samples, "failures": failures, "pass_s": pass_s}

    def counts_digest(self) -> str:
        counts = {k.name: k.first[2] for k in self.kernels if k.first is not None}
        return hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Metrics


def _per_kernel(rows: list[tuple[str, float]]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for name, v in rows:
        out.setdefault(name, []).append(v)
    return out


def _geomean(values) -> float:
    values = list(values)
    return math.exp(statistics.fmean(map(math.log, values)))


def typical(rows: list[tuple[str, float]]) -> float:
    """The geometric mean over kernels of each kernel's median.  Every kernel
    weighs the same and every sample of the run counts, so the value does not
    jump to another kernel's timings when one kernel drifts past another."""
    return _geomean(statistics.median(vs) for vs in _per_kernel(rows).values())


def tail(rows: list[tuple[str, float]], guaranteed: int) -> float:
    """``typical(rows)`` scaled by the highest percentile, with at least ten
    samples beyond it in every run, of the samples divided by their kernel's
    median.  Runs reach at least ``guaranteed`` samples, so this is the
    nearest-rank percentile (guaranteed - 10) / guaranteed; it is fixed per
    workload so that a run with more passes reports the same percentile.
    With fewer than 21 guaranteed samples no percentile above the median has
    ten samples beyond it, and ``typical(rows)`` is reported."""
    if guaranteed < 21:
        return typical(rows)
    medians = {k: statistics.median(vs) for k, vs in _per_kernel(rows).items()}
    s = sorted(v / medians[k] for k, v in rows)
    rank = -(-(guaranteed - 10) * len(s) // guaranteed)
    return typical(rows) * s[rank - 1]


def end_to_end(run: dict, setup_compile_s: list[tuple[str, float]], guaranteed: dict,
               setup_s: float, peak_rss_mb: float) -> dict:
    """name -> (sample count, unit, value)."""
    samples = run["samples"]
    col = {key: [(name, t[key]) for name, t, _ in samples]
           for key in ("pipeline_s", "run_s", "run_plain_s")}
    col["compile_s"] = ([(name, t["compile_s"]) for name, t, _ in samples if "compile_s" in t]
                        or setup_compile_s)
    plain, opt = _per_kernel(col["run_plain_s"]), _per_kernel(col["run_s"])
    ratios = [statistics.median(plain[k]) / statistics.median(opt[k]) for k in plain]
    pipeline = [statistics.median(v) for v in _per_kernel(col["pipeline_s"]).values()]
    verified = sum(ok for _, _, ok in samples) / len(samples)
    attempted = run["attempted"]
    failed = run["failed"]
    return {
        # one pipeline of each kernel in turn, each at its median time; only
        # the verified share counts
        "kernels_per_s": (len(samples), "1/s", verified * len(pipeline) / sum(pipeline)),
        "pipeline_s_med": (len(samples), "s", typical(col["pipeline_s"])),
        "pipeline_s_tail": (len(samples), "s", tail(col["pipeline_s"], guaranteed["pipeline"])),
        "compile_s_med": (len(col["compile_s"]), "s", typical(col["compile_s"])),
        "compile_s_tail": (len(col["compile_s"]), "s", tail(col["compile_s"], guaranteed["compile"])),
        "run_s_med": (len(samples), "s", typical(col["run_s"])),
        "run_s_tail": (len(samples), "s", tail(col["run_s"], guaranteed["pipeline"])),
        "run_plain_s_med": (len(samples), "s", typical(col["run_plain_s"])),
        "opt_speedup": (len(ratios), "ratio", _geomean(ratios)),
        "verified_ratio": (attempted, "ratio", (attempted - failed) / attempted),
        "setup_s": (None, "s", setup_s),
        "peak_rss_mb": (None, "MB", peak_rss_mb),
    }


LAYERS = ("frontend", "passes", "autoopt", "ir", "symbolic", "serialize", "cemit",
          "interp", "bench")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(setup: dict, passes: dict, n: int, pass_s: dict) -> dict:
    """name -> (unit, value): one set-up plus the mean of ``n`` traced passes."""
    def merged(part: str) -> dict:
        keys = setup[part].keys() | passes[part].keys()
        return {k: setup[part].get(k, 0) + passes[part].get(k, 0) / n for k in keys}

    inc, own, cnt = merged("inclusive"), merged("self"), merged("counts")
    s = lambda key: ("s", inc.get(key, 0.0))
    c = lambda key: ("count", cnt.get(key, 0))
    m = {f"frontend.{x}_s": s(f"frontend.{x}")
         for x in ("parse", "sema", "desugar", "lower", "oracle")}
    m["passes.coarsen_s"] = s("passes.coarsen")
    m["passes.rewrites"] = c("passes.rewrites")
    m["passes.loop_to_map_ratio"] = ("ratio", _ratio(
        cnt.get("passes.loops_parallelized", 0), cnt.get("passes.loops_considered", 0)))
    for x in ("cleanup_maps", "subgraph_fusion", "tile_wcr", "transient_mitigation",
              "expand_library"):
        m[f"autoopt.{x}_s"] = s(f"autoopt.{x}")
    m["autoopt.fusions"] = c("autoopt.fusions")
    for x in expansion_names():
        m[f"autoopt.expansions.{x}"] = c(f"autoopt.expansions.{x}")
    m["ir.validate_s"] = s("ir.validate")
    m["ir.query_s"] = s("ir.query")
    for x in ("topological_calls", "scope_parents_calls", "scope_children_calls",
              "nodes_before", "nodes_after", "states_after"):
        m[f"ir.{x}"] = c(f"ir.{x}")
    m["symbolic.decisions"] = c("symbolic.decisions")
    m["symbolic.decide_s"] = s("symbolic.decide")
    m["symbolic.unknown_ratio"] = ("ratio", _ratio(
        cnt.get("symbolic.unknown", 0), cnt.get("symbolic.decisions", 0)))
    m["serialize.serialize_s"] = s("serialize.serialize")
    m["serialize.deserialize_s"] = s("serialize.deserialize")
    m["serialize.json_bytes"] = ("B", cnt.get("serialize.json_bytes", 0))
    m["cemit.emit_s"] = s("cemit.emit")
    m["cemit.c_bytes"] = ("B", cnt.get("cemit.c_bytes", 0))
    m["interp.plain_s"] = s("interp.plain")
    m["interp.opt_s"] = s("interp.opt")
    for x in ("map_iterations", "wcr_commits", "map_launches", "states_executed"):
        m[f"interp.{x}"] = c(f"interp.{x}")
    m["interp.bytes_moved"] = ("B", cnt.get("interp.bytes_moved", 0))
    iterations = cnt.get("interp.map_iterations", 0)
    m["interp.iters_per_s"] = ("1/s", _ratio(
        iterations, inc.get("interp.plain", 0.0) + inc.get("interp.opt", 0.0)))
    m["interp.iters_per_launch"] = ("ratio", _ratio(
        iterations, cnt.get("interp.map_launches", 0)))
    m["texpr.evaluations"] = c("texpr.evaluations")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = ("s", own.get(layer, 0.0))
    m["trace.overhead"] = ("ratio", statistics.median(pass_s[True])
                           / statistics.median(pass_s[False]) - 1)
    m["trace.spans"] = ("count", setup["spans"] + passes["spans"] / n)
    return m
