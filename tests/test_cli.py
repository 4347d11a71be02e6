import json
import subprocess
import sys

import numpy as np
import pytest

from sdfgkit.cli import main
from sdfgkit.interp import TensorValue

from conftest import CORPUS


@pytest.fixture
def gemm_inputs(tmp_path):
    d = tmp_path / "inputs"
    d.mkdir()
    TensorValue.of(np.array([[1.0, 2.0], [3.0, 4.0]])).save(d / "A.json")
    TensorValue.of(np.eye(2)).save(d / "B.json")
    TensorValue.of(np.zeros((2, 2))).save(d / "C.json")
    TensorValue.of(np.array(1.0)).save(d / "alpha.json")
    TensorValue.of(np.array(0.0)).save(d / "beta.json")
    return d


def test_parse_emits_graph_json(tmp_path, capsys):
    out = tmp_path / "gemm.sdfg.json"
    rc = main(["parse", str(CORPUS / "gemm.dpy"), "-o", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["name"] == "gemm" and doc["version"] == 1


def test_parse_reports_errors(tmp_path, capsys):
    bad = tmp_path / "bad.dpy"
    bad.write_text("def f(A: f64[M, N], B: f64[N, M]):\n"
                   "    for i in map[0:M, 0:N]: A[i, j] = B[j, i]\n")
    rc = main(["parse", str(bad)])
    assert rc == 1
    assert "undefined" in capsys.readouterr().err


@pytest.mark.parametrize("terms", [250, 1000])
def test_parse_refuses_a_too_deep_sum_in_one_line(terms, tmp_path, capsys):
    src = tmp_path / "deep.dpy"
    src.write_text("def f(A: f64[4], x: f64):\n    A[0] = " + " + ".join(["x"] * terms) + "\n")
    assert main(["parse", str(src)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "2:12: expression is more than 200 levels deep\n"


def test_parse_refuses_shadowed_loop_variable(tmp_path, capsys):
    bad = tmp_path / "shadow.dpy"
    bad.write_text("def f(A: f64[N], B: f64[N]):\n"
                   "    for i in range(1, N):\n"
                   "        for i in range(2, N):\n"
                   "            A[i] = 1.0\n")
    assert main(["parse", str(bad)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "3:9: error: loop variable 'i' is bound by an enclosing loop"]


def test_run_identity_product(tmp_path, gemm_inputs, capsys):
    graph = tmp_path / "gemm.sdfg.json"
    assert main(["parse", str(CORPUS / "gemm.dpy"), "-o", str(graph)]) == 0
    rc = main(["run", str(graph), "-s", "NI=2,NJ=2,NK=2",
               "--inputs", str(gemm_inputs)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outputs"]["C"]["data"] == [1.0, 2.0, 3.0, 4.0]


def test_optimize_then_emit(tmp_path, capsys):
    graph = tmp_path / "g.sdfg.json"
    opt = tmp_path / "opt.sdfg.json"
    assert main(["parse", str(CORPUS / "gemm.dpy"), "-o", str(graph)]) == 0
    assert main(["optimize", str(graph), "-o", str(opt)]) == 0
    rc = main(["emit", str(opt)])
    assert rc == 0
    assert "/* parallel-for */" in capsys.readouterr().out


def test_optimize_shifted_update(tmp_path):
    src = tmp_path / "shift.dpy"
    src.write_text("def f(A: f64[N]):\n    A[0:N - 1] = (A[1:N] * 2.0) + 1.0\n")
    assert main(["optimize", str(src), "-o", str(tmp_path / "opt.sdfg.json")]) == 0


@pytest.mark.parametrize("flags", [["--device", "gpu"], ["--expand", "matmul=bogus"],
                                   ["--tile", "0"]], ids=["device", "expand", "tile"])
def test_optimize_bad_flag_is_one_line(flags, capsys):
    rc = main(["optimize", str(CORPUS / "gemm.dpy"), *flags])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["parse", "show", "optimize", "run", "emit"])
def test_missing_input_file_is_one_line(command, tmp_path, capsys):
    missing = tmp_path / "missing.dpy"
    assert main([command, str(missing)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert str(missing) in err and "No such file" in err


def test_unwritable_output_is_one_line(tmp_path, capsys):
    out = tmp_path / "no" / "dir" / "x.json"
    assert main(["optimize", str(CORPUS / "gemm.dpy"), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"cannot write '{out}': No such file or directory"
    assert "Traceback" not in err


def test_distributed_run_matches_shared_memory(tmp_path, gemm_inputs, capsys):
    graph = tmp_path / "g.sdfg.json"
    dist = tmp_path / "dist.sdfg.json"
    assert main(["parse", str(CORPUS / "gemm.dpy"), "-o", str(graph)]) == 0
    assert main(["optimize", str(graph), "--device", "dist", "--grid", "2x2",
                 "-o", str(dist)]) == 0
    rc = main(["run", str(dist), "-s", "NI=2,NJ=2,NK=2",
               "--inputs", str(gemm_inputs), "--grid", "2x2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    got = np.array(doc["outputs"]["C"]["data"])
    assert np.allclose(got, [1.0, 2.0, 3.0, 4.0], rtol=1e-12)


def test_shell_pipeline_equals_in_process(tmp_path, gemm_inputs):
    cmd = (f"{sys.executable} -m sdfgkit.cli parse {CORPUS / 'gemm.dpy'} | "
           f"{sys.executable} -m sdfgkit.cli optimize - | "
           f"{sys.executable} -m sdfgkit.cli run - -s NI=2,NJ=2,NK=2 "
           f"--inputs {gemm_inputs}")
    piped = subprocess.run(cmd, shell=True, capture_output=True, text=True)
    assert piped.returncode == 0, piped.stderr

    from sdfgkit import frontend
    from sdfgkit.autoopt import auto_optimize
    from sdfgkit.interp import ExecContext, interpret

    g, _ = frontend.compile_source((CORPUS / "gemm.dpy").read_text())
    auto_optimize(g)
    ctx = ExecContext(bindings={"NI": 2, "NJ": 2, "NK": 2})
    for name in ("A", "B", "C", "alpha", "beta"):
        ctx.store[name] = TensorValue.load(gemm_inputs / f"{name}.json").array
    out = interpret(g, ctx)
    doc = json.loads(piped.stdout)
    piped_c = np.array(doc["outputs"]["C"]["data"]).reshape(2, 2)
    assert np.array_equal(piped_c, out["C"])  # bit-for-bit


def test_runtime_error_exit_code(tmp_path, capsys):
    src = tmp_path / "oob.dpy"
    src.write_text("def f(A: f64[N], B: f64[N], K: i64):\n    B[0] = A[K]\n")
    d = tmp_path / "i"
    d.mkdir()
    TensorValue.of(np.zeros(4)).save(d / "A.json")
    TensorValue.of(np.zeros(4)).save(d / "B.json")
    rc = main(["run", str(src), "-s", "N=4,K=9", "--inputs", str(d)])
    assert rc == 2
    assert "out-of-bounds" in capsys.readouterr().err


def test_loop_counter_sized_transient_exit_code(tmp_path):
    src = tmp_path / "prefix.dpy"
    src.write_text("def f(A: f64[N], B: f64[N]):\n"
                   "    for i in range(1, N):\n"
                   "        B[0:i] = A[0:i] * 2.0\n")
    d = tmp_path / "i"
    d.mkdir()
    TensorValue.of(np.ones(8)).save(d / "A.json")
    TensorValue.of(np.zeros(8)).save(d / "B.json")
    proc = subprocess.run(
        [sys.executable, "-m", "sdfgkit.cli", "run", str(src), "-s", "N=8",
         "--inputs", str(d)],
        capture_output=True, text=True)
    # containers are sized before the program runs, so the temporary that
    # `B[0:i] = ...` needs is refused where the frontend makes it
    assert proc.returncode == 1
    assert proc.stderr == "3:9: error: shape of container 'tmp0' uses loop variable 'i'\n"


def test_run_non_integer_binding_is_one_line(capsys):
    rc = main(["run", str(CORPUS / "gemm.dpy"), "-s", "NI=abc"])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "NI=abc" in err


@pytest.mark.parametrize("var", ["SDFGKIT_TILE", "SDFGKIT_STACK_LIMIT"])
def test_optimize_non_integer_environment_is_one_line(var, monkeypatch, capsys):
    monkeypatch.setenv(var, "x")
    rc = main(["optimize", str(CORPUS / "gemm.dpy")])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert var in err


def test_optimize_inapplicable_pinned_expansion_is_one_line(capsys):
    # blocked_native expands only matrix-matrix products; mvt has matrix-vector ones
    rc = main(["optimize", str(CORPUS / "mvt.dpy"), "--passes", "expand_library",
               "--expand", "matmul=blocked_native"])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "matmul" in err and "'blocked_native'" in err


@pytest.mark.parametrize("passes", [[], ["--passes", "coarsen,cleanup_maps"]],
                         ids=["pipeline", "passes"])
@pytest.mark.parametrize("flag, stage", [(["--tile", "4"], "tile_wcr"),
                                         (["--expand", "matmul=native"], "expand_library")],
                         ids=["tile", "expand"])
def test_optimize_flag_without_its_pass_is_one_line(flag, stage, passes, capsys):
    # only the tile_wcr and expand_library passes read --tile and --expand
    rc = main(["optimize", str(CORPUS / "gemm.dpy"), *passes, *flag])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert flag[0] in err and stage in err


@pytest.mark.parametrize("stage", ["tile_wcr", "expand_library"])
def test_optimize_dist_device_has_no_cpu_specialization(stage, tmp_path, capsys):
    out = tmp_path / "g.sdfg.json"
    rc = main(["optimize", str(CORPUS / "gemm.dpy"), "--device", "dist",
               "--passes", f"coarsen,{stage}", "-o", str(out)])
    assert rc == 1 and not out.exists()
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert stage in err and "dist" in err


def test_tile_size_reaches_emitted_c(tmp_path, monkeypatch, capsys):
    # --tile for the tile_wcr pass, SDFGKIT_TILE for what emit tiles itself
    src, opt = str(CORPUS / "wcr_sum.dpy"), str(tmp_path / "opt.sdfg.json")
    assert main(["optimize", src, "--passes", "coarsen,cleanup_maps,tile_wcr",
                 "--tile", "4", "-o", opt]) == 0
    assert main(["emit", opt]) == 0
    assert "((NI + 3) / 4)" in capsys.readouterr().out
    assert main(["optimize", src, "-o", opt]) == 0
    monkeypatch.setenv("SDFGKIT_TILE", "8")
    assert main(["emit", opt]) == 0
    assert "((NI + 7) / 8)" in capsys.readouterr().out


@pytest.mark.parametrize("case", ["stride", "empty", "misfit_source", "misfit_matmul"])
def test_malformed_graph_run_exit_code(case, tmp_path):
    from sdfgkit.serialize import serialize
    from test_interp_paths import MALFORMED

    build, bindings, _, container = MALFORMED[case]
    g = build()
    for name in bindings:
        g.add_symbol(name, 0)
    graph = tmp_path / "g.sdfg.json"
    graph.write_text(serialize(g))
    d = tmp_path / "i"
    d.mkdir()
    for name, desc in g.containers.items():
        TensorValue.of(np.zeros(tuple(int(x.evaluate({})) for x in desc.shape))).save(
            d / f"{name}.json")
    binding = ["-s", ",".join(f"{k}={v}" for k, v in bindings.items())] if bindings else []
    proc = subprocess.run(
        [sys.executable, "-m", "sdfgkit.cli", "run", str(graph), *binding, "--inputs", str(d)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("runtime error:") and container in proc.stderr
    assert "Traceback" not in proc.stderr


TWO_LOOPS = ("def f(A: f64[N], B: f64[N]):\n"
             "    for i in range(N):\n"
             "        A[i] = A[i] * 2.0\n"
             "    for j in range(N):\n"
             "        B[j] = B[j] + 1.0\n")


@pytest.mark.parametrize("passes", ["loop_to_map", "coarsen,loop_to_map"])
def test_optimize_loop_to_map_converts_sequential_loops(passes, tmp_path, capsys):
    from sdfgkit import frontend
    from sdfgkit.frontend import oracle
    from sdfgkit.interp import ExecContext, interpret
    from sdfgkit.serialize import deserialize

    src = tmp_path / "two_loops.dpy"
    src.write_text(TWO_LOOPS)
    out = tmp_path / "opt.sdfg.json"
    assert main(["optimize", str(src), "--passes", passes, "-o", str(out)]) == 0
    report = json.loads(capsys.readouterr().err)
    assert report["applications"]["loop_to_map"] == 2
    assert [d["parallelized"] for d in report["loop_decisions"]] == [True, True]
    assert report["states"]["before"] > report["states"]["after"] > 0
    rng = np.random.default_rng(3)
    inputs = {"A": rng.uniform(-1, 1, 6), "B": rng.uniform(-1, 1, 6)}
    ref = oracle.evaluate_program(frontend.parse(TWO_LOOPS), {"N": 6},
                                  {k: v.copy() for k, v in inputs.items()})
    ctx = ExecContext(bindings={"N": 6}).bind_inputs({k: v.copy() for k, v in inputs.items()})
    got = interpret(deserialize(out.read_text()), ctx)
    for name in ("A", "B"):
        assert np.array_equal(got[name], ref[name]), name


def _gemm_document(tmp_path, capsys) -> dict:
    graph = tmp_path / "gemm.sdfg.json"
    assert main(["optimize", str(CORPUS / "gemm.dpy"), "-o", str(graph)]) == 0
    capsys.readouterr()
    return json.loads(graph.read_text())


@pytest.mark.parametrize("command", ["optimize", "emit"])
def test_graph_that_fails_validation_is_one_line(command, tmp_path, capsys):
    doc = _gemm_document(tmp_path, capsys)
    nodes = doc["states"][0]["nodes"]
    nodes.append({"id": len(nodes), "type": "tasklet", "name": "t",
                  "ins": [], "outs": [], "code": []})
    graph = tmp_path / "sink.sdfg.json"
    graph.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([command, str(graph), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "is a dataflow sink" in err
    # a located message, not the diagnostic's repr
    label, node = doc["states"][0]["label"], nodes[-1]["id"]
    assert f"(state {label}, node {node})" in err and "Diagnostic(" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["optimize", "emit"])
def test_tasklet_code_that_misses_its_connector_is_one_line(command, tmp_path, capsys):
    """A tasklet whose code assigns another name than its out-connector is
    refused where ``emit`` used to raise ``KeyError: 'out'``."""
    graph = tmp_path / "fig4.sdfg.json"
    assert main(["parse", str(CORPUS / "fig4_loop.dpy"), "-o", str(graph)]) == 0
    doc = json.loads(graph.read_text())
    node = next(n for st in doc["states"] for n in st["nodes"] if n.get("name") == "assign_C")
    node["code"] = [["zz", "in0 + 1.0"]]
    graph.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, str(graph), "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "tasklet assign_C assigns 'zz'" in err
    assert err.endswith("[tasklet-connector]\n")
    assert not (tmp_path / "out").exists()


def test_run_refuses_a_graph_that_fails_validation(tmp_path, capsys):
    """``run`` prints each diagnostic and exits 1, as the other commands do,
    where it reported a runtime error and exited 2."""
    graph = tmp_path / "fig4.sdfg.json"
    assert main(["parse", str(CORPUS / "fig4_loop.dpy"), "-o", str(graph)]) == 0
    doc = json.loads(graph.read_text())
    node = next(n for st in doc["states"] for n in st["nodes"] if n.get("name") == "assign_C")
    node["code"] = [["zz", "in0 + 1.0"]]
    graph.write_text(json.dumps(doc))
    d = tmp_path / "i"
    d.mkdir()
    TensorValue.of(np.zeros(4)).save(d / "C.json")
    capsys.readouterr()
    assert main(["run", str(graph), "-s", "NI=4", "--inputs", str(d)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "tasklet assign_C assigns 'zz'" in err
    assert err.endswith("[tasklet-connector]\n") and "runtime error" not in err


def test_run_refuses_a_condition_over_an_array(tmp_path, capsys):
    """A transition condition that reads an array is refused with the
    validator's diagnostic, where ``run`` ended in a ``ValueError``
    traceback (the truth value of an array)."""
    graph = tmp_path / "jacobi_1d.sdfg.json"
    assert main(["parse", str(CORPUS / "jacobi_1d.dpy"), "-o", str(graph)]) == 0
    doc = json.loads(graph.read_text())
    doc["transitions"][1]["condition"] = "A > 0.5"
    graph.write_text(json.dumps(doc))
    d = tmp_path / "i"
    d.mkdir()
    for name in "AB":
        TensorValue.of(np.ones(8)).save(d / f"{name}.json")
    capsys.readouterr()
    assert main(["run", str(graph), "-s", "N=8,TSTEPS=4", "--inputs", str(d)]) == 1
    lines = capsys.readouterr().err.splitlines()
    # the other line warns that the guard's two conditions may not be exhaustive
    assert lines[0] == ("error: condition on loop0_guard->s1 reads array 'A'; a condition "
                        "reads only symbols and scalars [condition-container]")
    assert len(lines) == 2 and lines[1].startswith("warning: ")


@pytest.mark.parametrize("command", ["show", "optimize", "emit"])
def test_invalid_document_is_refused(command, tmp_path, capsys):
    """A lowered document whose first state has no label names no start
    state: every command that loads a graph refuses it in one line."""
    graph = tmp_path / "gemm.sdfg.json"
    assert main(["parse", str(CORPUS / "gemm.dpy"), "-o", str(graph)]) == 0
    doc = json.loads(graph.read_text())
    doc["states"][0]["label"] = None
    graph.write_text(json.dumps(doc))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, str(graph), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: missing or unknown start state 's0' [start-state]\n"
    assert not out.exists()


@pytest.mark.parametrize("kept", [[True], "x"], ids=["short", "string"])
@pytest.mark.parametrize("command", ["show", "optimize", "emit"])
def test_bad_library_attributes_are_refused(command, kept, tmp_path, capsys):
    """A matmul whose ``a_kept`` does not match its memlet is refused where
    ``emit`` used to raise ``StopIteration`` inside the expansion."""
    graph = tmp_path / "gemm.sdfg.json"
    assert main(["parse", str(CORPUS / "gemm.dpy"), "-o", str(graph)]) == 0
    doc = json.loads(graph.read_text())
    node = next(n for st in doc["states"] for n in st["nodes"] if n.get("kind") == "matmul")
    node["attrs"]["a_kept"] = kept
    graph.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, str(graph), "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "a_kept of matmul node 0" in err
    assert err.endswith("[library-attributes]\n")


@pytest.mark.parametrize("bound", ["x", True, 1.5], ids=["str", "bool", "float"])
@pytest.mark.parametrize("command", ["optimize", "emit", "run"])
def test_non_integer_symbol_bound_is_one_line(command, bound, tmp_path, capsys):
    doc = _gemm_document(tmp_path, capsys)
    doc["symbols"][0]["min"] = bound
    graph = tmp_path / "bound.sdfg.json"
    graph.write_text(json.dumps(doc))
    assert main([command, str(graph)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "not an integer" in err


@pytest.mark.parametrize("field", ["dst_conn", "params", "name"])
@pytest.mark.parametrize("command", ["show", "optimize", "emit", "run"])
def test_non_string_name_is_one_line(command, field, tmp_path, capsys):
    """A lowered document with an object ``dst_conn``, an integer map
    parameter or a list-valued graph name is refused by the loader in one
    line, where ``optimize`` and ``show`` ended in tracebacks and an
    integer parameter read as an undeclared name."""
    from test_serialize import junk_name

    graph = tmp_path / "jacobi_1d.sdfg.json"
    assert main(["parse", str(CORPUS / "jacobi_1d.dpy"), "-o", str(graph)]) == 0
    doc = json.loads(graph.read_text())
    path = junk_name(doc, field)
    graph.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, str(graph), "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"{path} is ") and "not a string" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", ["access", "tasklet", "condition"])
@pytest.mark.parametrize("command", ["show", "optimize", "emit", "run"])
def test_non_string_text_is_one_line(command, field, tmp_path, capsys):
    """A lowered document with a list-valued access node container, tasklet
    name or transition condition is refused by the loader in one line that
    names the field, where the container read as a misleading validator
    diagnostic and the tasklet name loaded."""
    from test_serialize import junk_text

    graph = tmp_path / "jacobi_1d.sdfg.json"
    assert main(["parse", str(CORPUS / "jacobi_1d.dpy"), "-o", str(graph)]) == 0
    doc = json.loads(graph.read_text())
    path = junk_text(doc, field)
    graph.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, str(graph), "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"{path} is ") and "not a string" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", ["attrs", "id", "tiled_list", "tiled_string"])
@pytest.mark.parametrize("command", ["show", "optimize", "emit"])
def test_node_attribute_of_the_wrong_type_is_one_line(command, field, tmp_path, capsys):
    """A lowered document with list-valued library ``attrs``, a string
    node ``id`` or a map entry's ``tiled`` that is no boolean is refused by
    the loader in one line that names the field, where ``attrs`` ended in
    an ``AttributeError`` traceback and the others loaded."""
    from test_serialize import NODE_ATTRIBUTES, junk_attribute

    kernel = NODE_ATTRIBUTES[field][0]
    graph = tmp_path / f"{kernel}.sdfg.json"
    assert main(["parse", str(CORPUS / f"{kernel}.dpy"), "-o", str(graph)]) == 0
    doc = json.loads(graph.read_text())
    path = junk_attribute(doc, field)
    graph.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, str(graph), "-o", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"{path} is ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", ["state", "nodes", "edges", "node", "edge"])
@pytest.mark.parametrize("command", ["show", "optimize", "emit", "run"])
def test_state_structure_of_the_wrong_type_is_one_line(command, field, tmp_path, capsys):
    """A lowered document whose state, list of nodes or edges, or one node
    or edge is a string is refused by the loader in one line that names
    the field, with exit status 1, where it ended in an ``AttributeError``
    traceback."""
    from test_serialize import junk_structure

    graph = tmp_path / "jacobi_1d.sdfg.json"
    assert main(["parse", str(CORPUS / "jacobi_1d.dpy"), "-o", str(graph)]) == 0
    doc = json.loads(graph.read_text())
    path, what = junk_structure(doc, field, "x")
    graph.write_text(json.dumps(doc))
    capsys.readouterr()
    args = ["-s", "N=8,TSTEPS=2"] if command == "run" else ["-o", str(tmp_path / "out")]
    assert main([command, str(graph), *args]) == 1
    err = capsys.readouterr().err
    assert err == f"{path} is 'x', not {what}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["show", "optimize", "emit", "run"])
def test_undeclared_name_in_a_map_range_is_a_diagnostic(command, tmp_path, capsys):
    """wcr_sum with its map range set to ``0:zz:1`` is refused by the
    validator, where it validated and ``optimize`` failed after optimizing
    ("optimized graph no longer validates")."""
    graph = tmp_path / "wcr_sum.sdfg.json"
    assert main(["parse", str(CORPUS / "wcr_sum.dpy"), "-o", str(graph)]) == 0
    doc = json.loads(graph.read_text())
    node = next(n for st in doc["states"] for n in st["nodes"] if n["type"] == "map_entry")
    node["params"][0][1] = "0:zz:1"
    graph.write_text(json.dumps(doc))
    capsys.readouterr()
    args = ["-s", "NI=2,NJ=2"] if command == "run" else ["-o", str(tmp_path / "out")]
    assert main([command, str(graph), *args]) == 1
    err = capsys.readouterr().err
    assert "error: range 0:zz:1 of map parameter 'i' uses undeclared name 'zz'" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()
