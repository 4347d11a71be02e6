"""In-memory tracing for the benchmark's traced run.

The tracer wraps public functions of each sdfgkit layer from outside the
library (the library itself carries no tracing code) and restores the
originals on ``uninstall``, so untraced passes run the unmodified program.

Every timed call is a span.  A span's self time is its duration minus the
time covered by the timed calls nested inside it, and a layer's self time is
the sum over its spans.  ``inclusive`` holds the wall time of each key,
counted only for the outermost active call of that key so that re-entrant
calls are not counted twice.  Hot calls (graph queries, symbolic decisions)
take part in the self-time accounting but are not stored as span records.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [key, start, end, parent index, request id]
        self.request = -1
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [key, start, child time, span index]
        self._active: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def enter(self, key: str, record: bool = True) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        idx = parent
        now = _clock()
        if record:
            idx = len(self.spans)
            self.spans.append([key, now, None, parent, self.request])
        self._active[key] += 1
        self._stack.append([key, now, 0.0, idx])

    def exit(self, record: bool = True) -> None:
        key, start, child, idx = self._stack.pop()
        now = _clock()
        dur = now - start
        if record:
            self.spans[idx][2] = now
        self.self_time[key.split(".", 1)[0]] += dur - child
        self._active[key] -= 1
        if not self._active[key]:
            self.inclusive[key] += dur
        if self._stack:
            self._stack[-1][2] += dur

    @contextmanager
    def span(self, key: str):
        self.enter(key)
        try:
            yield
        finally:
            self.exit()

    def snapshot(self) -> dict:
        """Aggregates so far (spans are summarised by their count)."""
        return {
            "inclusive": dict(self.inclusive),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
            "spans": len(self.spans),
        }

    def reset(self) -> None:
        self.spans.clear()
        self.inclusive.clear()
        self.self_time.clear()
        self.counts.clear()

    # -- instrumentation ---------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, fn, wrapper) -> None:
        """Rebind ``fn`` in every sdfgkit module that holds it by name."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not name.startswith("sdfgkit"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, wrapper)

    def _timed(self, key: str, fn, record: bool = True, count: str | None = None):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count:
                tr.counts[count] += 1
            tr.enter(key, record)
            try:
                return fn(*args, **kwargs)
            finally:
                tr.exit(record)

        return wrapper

    def _counted(self, count: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[count] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _decision(self, fn, symbolic):
        """Time and count symbolic decisions requested by other modules;
        the calls symbolic makes to itself belong to the outer decision."""
        tr = self
        own_globals = vars(symbolic)
        unknown = symbolic.Ternary.UNKNOWN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals is own_globals:
                return fn(*args, **kwargs)
            tr.counts["symbolic.decisions"] += 1
            tr.enter("symbolic.decide", False)
            try:
                verdict = fn(*args, **kwargs)
            finally:
                tr.exit(False)
            if verdict is unknown:
                tr.counts["symbolic.unknown"] += 1
            return verdict

        return wrapper

    def install(self) -> None:
        from sdfgkit import autoopt, frontend, interp, ir, passes, symbolic, texpr
        from sdfgkit.frontend import sema

        timed = {
            frontend.parse_tokens: "frontend.parse",
            sema.analyze: "frontend.sema",
            sema.check_restrictions: "frontend.sema",
            frontend.desugar: "frontend.desugar",
            frontend.lower: "frontend.lower",
            passes.coarsen: "passes.coarsen",
            autoopt.cleanup_maps: "autoopt.cleanup_maps",
            autoopt.subgraph_fusion: "autoopt.subgraph_fusion",
            autoopt.tile_wcr: "autoopt.tile_wcr",
            autoopt.transient_mitigation: "autoopt.transient_mitigation",
            autoopt.expand_library: "autoopt.expand_library",
            ir.validate: "ir.validate",
        }
        for fn, key in timed.items():
            self._patch_everywhere(fn, self._timed(key, fn))
        for meth in ("topological", "scope_parents", "scope_children"):
            fn = getattr(ir.State, meth)
            self._patch(ir.State, meth,
                        self._timed("ir.query", fn, record=False, count=f"ir.{meth}_calls"))
        for name in ("compare", "eq", "covers", "disjoint"):
            self._patch(symbolic, name, self._decision(getattr(symbolic, name), symbolic))
        self._patch(interp.Machine, "exec_map",
                    self._counted("interp.map_launches", interp.Machine.exec_map))
        self._patch(interp.Machine, "exec_state",
                    self._counted("interp.states_executed", interp.Machine.exec_state))
        self._patch_everywhere(texpr.evaluate,
                               self._counted("texpr.evaluations", texpr.evaluate))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

