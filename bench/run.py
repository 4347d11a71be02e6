"""Run one workload of the sdfgkit benchmark and print its metrics.

    python3 bench/run.py --workload corpus-compile --seed 1 --seconds 25 --trace 0

The script imports sdfgkit from the checkout's src/ and reads the kernels from
tests/corpus/; without them it exits with status 2 and prints no result.  It
runs in one process and one thread: numpy's BLAS is pinned to one thread, and
no other process or thread is started.

Output: human-readable lines (run metadata, failures, one row per kernel, one
line per metric), then as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured with tracing off; with
``--trace 1`` they are the per-layer ones of a traced run (see tracing.py).
The workloads and the metrics are described in BENCHMARK.json.  Timings are
in seconds at a reference host speed (see workloads.py); the per-kernel rows
also give the wall time and the probe's time they were scaled by.

The distributed layer and the CLI are not measured: the ``sdfgkit.dist``
package does not exist yet, and ``sdfgkit.cli`` cannot be imported without it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
clock = time.perf_counter


def git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "sdfgkit").is_dir() or not (ROOT / "tests" / "corpus").is_dir():
        print(f"bench: {ROOT} is not a checkout of sdfgkit "
              "(src/sdfgkit or tests/corpus is missing)", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # must precede the first numpy import
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    t0 = clock()
    import numpy
    import workloads as wl
    from tracing import Tracer
    import_s = clock() - t0

    if args.workload not in wl.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    tracer = Tracer() if args.trace else None
    bench = wl.Bench(ROOT, args.workload, args.seed, tracer)
    setup_s = []

    def setup() -> None:
        before = wl.probe()
        t = clock()
        with bench.traced(tracer is not None):
            bench.setup()
        elapsed = clock() - t
        probes.extend((before, wl.probe()))
        setup_s.append(wl.at_reference(elapsed, *probes[-2:]))
        if not tracer:
            bench.sample_compiles()

    probes = [wl.probe()]
    import_s = wl.at_reference(import_s, probes[0], probes[0])
    setup()
    if tracer:
        setup_agg = tracer.snapshot()
        tracer.reset()
    run = bench.measure(args.seconds)
    counts_digest = bench.counts_digest()
    # The other set-ups follow the measured loop, so that the compile times a
    # compile-once workload takes in set-up come from both ends of the run.
    # The imports cannot be repeated in one process; their time counts once.
    for _ in range(0 if tracer else wl.SETUP_REPEATS - 1):
        setup()
        bench.defects += [f"{k.name}: a later set-up failed: {k.setup_error}"
                          for k in bench.kernels if k.setup_error]

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(ROOT),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": 1,
        "passes": run["passes"], "counts_sha256": counts_digest,
        "probe_ref_s": wl.PROBE_REF_S,
        "probe_s_med": statistics.median(probes + [t["probe_s"] for _, t, _ in run["samples"]]),
    }
    print("meta " + json.dumps(meta))
    for line in run["failures"] + bench.defects:
        print("FAILED " + line)

    by_kernel: dict[str, list[dict]] = {}
    for name, t, _ in run["samples"]:
        by_kernel.setdefault(name, []).append(t)
    print("per kernel, medians: wall seconds, then seconds at the reference speed")
    print(f"{'kernel':12s} {'n':>3s} {'wall_s':>9s} {'probe_ms':>9s} {'pipeline_s':>11s} "
          f"{'run_plain_s':>12s} {'run_s':>9s}")
    for name, ts in by_kernel.items():
        med = {key: statistics.median(t[key] for t in ts) for key in ts[0]}
        print(f"{name:12s} {len(ts):3d} {med['pipeline_wall_s']:9.4f} {med['probe_s'] * 1e3:9.3f} "
              f"{med['pipeline_s']:11.4f} {med['run_plain_s']:12.4f} {med['run_s']:9.4f}")

    if tracer:
        traced_passes = len(run["pass_s"][True])
        layer = wl.per_layer(setup_agg, tracer.snapshot(), traced_passes, run["pass_s"])
        metrics = {name: {"value": v, "unit": u} for name, (u, v) in layer.items()}
        print(f"per-layer values: one set-up plus the mean of {traced_passes} traced passes")
        for name, (u, v) in layer.items():
            print(f"{name:40s} {v:14.6g} {u}")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        e2e = wl.end_to_end(run, bench.setup_compile_s, bench.guaranteed,
                            import_s + statistics.median(setup_s), rss_mb)
        metrics = {name: {"value": v, "unit": u} for name, (_, u, v) in e2e.items()}
        for name, (n, u, v) in e2e.items():
            print(f"{name:20s} {v:14.6g} {u:6s}" + (f" n={n}" if n else ""))
    print(f"failed_ratio {run['failed'] / run['attempted']:.6g} "
          f"({run['failed']} of {run['attempted']} pipelines)")

    print(json.dumps({
        "correct": run["failed"] == 0 and not bench.defects,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
