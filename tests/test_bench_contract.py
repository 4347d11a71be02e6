"""The benchmark's contract with the library.

``bench/tracing.py`` wraps library functions by name and identity, and
``bench/workloads.py`` builds its per-layer metric names partly from the
library (the CPU expansion registry).  These tests import both, unchanged,
and check that the tracer still finds and restores what it patches and that
a traced result declares exactly the ``per_layer`` names of BENCHMARK.json.
"""

import importlib
import json
import pathlib

import pytest

from sdfgkit import frontend

from conftest import corpus_source

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    return importlib.import_module("tracing"), importlib.import_module("workloads")


def test_tracer_installs_and_restores_every_patch(bench):
    tracing, _ = bench
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original, (owner, attr)
        frontend.compile_source(corpus_source("gemm"))
        keys = {span[0] for span in tracer.spans}
        for layer in ("parse", "sema", "desugar", "lower"):
            assert f"frontend.{layer}" in keys
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, (owner, attr)


def test_per_layer_names_match_the_declared_metrics(bench):
    _, workloads = bench
    empty = {"inclusive": {}, "self": {}, "counts": {}, "spans": 0}
    names = set(workloads.per_layer(empty, empty, 1, {True: [1.0], False: [1.0]}))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert names == {m["name"] for m in declared}
