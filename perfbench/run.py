"""The repiece benchmark: one workload, one seed, one closed-loop client.

Run from the repository root:

    python3 perfbench/run.py --workload small-single --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload deits-single --seed 1 --seconds 30 --trace 1

The seed makes the weights and input images; the engine only sees the files.
With --trace 0 the run measures every end-to-end metric with no tracing in
the process. With --trace 1 it alternates untraced rotations with rotations
during which the engine's public functions are wrapped; it prints the
per-layer table and metrics and writes the spans as JSON lines. Outputs go to
.perfbench/ under the repository root. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# the workload names, known before the engine can be imported
NAMES = ("deits-single", "small-single", "small-cli-batch")

#: Set-ups interleaved with the timed loop; `setup_s` is the median of these
#: and the one before the loop.
SETUPS = 12


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_record(workers: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "REPIECE_THREADS": os.environ.get("REPIECE_THREADS", "unset"),
        "fan_out_workers": workers,
    }


def matmul_probe() -> float:
    """GFLOP/s of a fixed float32 numpy product, the shape of a DeiT-S fc1
    (197x384 by 384x1536); median of 40 calls. Tells drift from regression."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((197, 384), dtype=np.float32)
    b = rng.standard_normal((384, 1536), dtype=np.float32)
    times = []
    for _ in range(40):
        start = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - start)
    return 2 * 197 * 384 * 1536 / statistics.median(times) / 1e9


def warm_allocator() -> None:
    """Allocate and free one 30 MiB block before anything is measured.

    glibc raises its mmap threshold to the largest mmapped block freed, up to
    32 MiB, as it does early in any long-running process. Left to allocation
    history, the engine's multi-megabyte temporaries were mapped and
    page-faulted afresh on every call in some runs and not in others: DeiT-S
    `none` read either about 170 ms or about 250 ms, by run (2 vCPUs, numpy
    2.4, OpenBLAS 0.3.31).
    """
    import numpy as np

    np.ones(30 * 2**20, dtype=np.uint8)


def traced_loop(bench, seconds: float, modules: dict, tracer):
    """Alternate untraced and traced rotations for `seconds`, so that drift
    of the machine falls on both sides of the tracing overhead alike."""
    import spans
    import workloads

    def traced(step):
        inst = spans.install(tracer, modules)
        try:
            step()
        finally:
            inst.uninstall()
        return inst.names

    plain, loop = workloads.LoopResult(), workloads.LoopResult()
    tracer.begin_op("setup")
    names = traced(bench.setup)
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        workloads.rotation(bench, plain, k)
        traced(lambda: workloads.rotation(bench, loop, k, lambda op, _: tracer.begin_op(op)))
        k += len(workloads.ROTATION)
        if time.perf_counter() >= deadline:
            break
    overhead = statistics.median(loop.rotation_seconds) / statistics.median(plain.rotation_seconds)
    return plain, loop, names, overhead


def run_one(args) -> int:
    import workloads
    from metrics import end_to_end, moves, per_layer
    from repiece import cli, container, diag, embed, numerics, reduce, vit

    wl = workloads.WORKLOADS[args.workload]
    warm_allocator()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        record = machine_record(diag.max_workers(wl.images_per_op))
        record["probe_gflop_per_s_before"] = matmul_probe()
        # a plain child, waited for: multiprocessing would leave its
        # resource tracker process running past the end of the run
        subprocess.run(
            [sys.executable, workloads.__file__, str(work), wl.name, str(args.seed)],
            env={**os.environ, "PYTHONPATH": str(SRC)}, check=True, timeout=600,
        )
        bench = workloads.Bench(wl, work)
        first_setup = bench.setup()
        verify_attempted, verify_failed = workloads.verify(bench)
        for failure in verify_failed:
            print(f"verify failed: {failure}", file=sys.stderr)
        if args.trace:
            import spans

            tracer = spans.Tracer()
            modules = {
                "numerics": numerics, "embed": embed, "vit": vit, "reduce": reduce,
                "diag": diag, "container": container, "cli": cli,
            }
            plain, loop, names, overhead = traced_loop(bench, args.seconds, modules, tracer)
            attempted = plain.attempted + loop.attempted
            failed = plain.failed + loop.failed
        else:
            loop = workloads.closed_loop(bench, args.seconds, SETUPS)
            attempted, failed = loop.attempted, loop.failed
        record["probe_gflop_per_s_after"] = matmul_probe()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted += verify_attempted
    failed += len(verify_failed)

    print(f"workload {wl.name}")
    print(f"seed {args.seed}, {args.seconds:g} s, closed loop with 1 client, "
          f"{wl.images_per_op} image(s) per operation")
    print("machine " + json.dumps(record))
    ops = {s: len(loop.latencies[s]) for s in workloads.ROTATION}
    print(f"operations passed per strategy {ops}; {attempted} attempted, {failed} failed "
          f"(incl. {verify_attempted} verify checks)")

    report: dict = {"workload": wl.name, "seed": args.seed, "machine": record}
    if args.trace:
        missing = sorted(n for n in wl.reaches if n not in {s.name for s in tracer.spans})
        if missing:
            print(f"traced run recorded no call of {missing}", file=sys.stderr)
            return 1
        metrics, info = per_layer(
            tracer.spans, loop, wl.images_per_op, record["fan_out_workers"], overhead
        )
        spans_path = OUT / f"spans-{wl.name}.jsonl"
        tracer.write(spans_path)
        _print_trace(info, len(names), len(tracer.spans), spans_path)
        report["info"] = info
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end(
            loop, [first_setup] + loop.setup_seconds, wl.images_per_op, peak_mb, attempted, failed
        )
        _print_costs(bench, metrics, wl.images_per_op, len(loop.strategy_of))
    print("metrics:" + ("  (and what each should move)" if args.trace else ""))
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {value:14.6g} {unit:8s} {moves(name) if args.trace else ''}")
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"result-{wl.name}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8"
    )
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


def _print_costs(bench, metrics: dict, images_per_op: int, ops: int) -> None:
    """Analytic FLOPs next to time, and the strategy ratios, as information."""
    print(f"p90 over {ops} operations; per strategy: analytic cost next to measured time")
    for s, gflops in bench.gflops.items():
        ms_per_image = metrics[f"latency_ms_p50.{s}"][0] / images_per_op
        print(f"  {s:10s} {gflops:7.3f} GFLOP/image  {ms_per_image:9.3f} ms/image (p50)  "
              f"{gflops / ms_per_image * 1e3:7.2f} GFLOP/s achieved")
    none = metrics["latency_ms_p50.none"][0]
    ratios = {s: none / metrics[f"latency_ms_p50.{s}"][0] for s in bench.gflops if s != "none"}
    print("information only, none p50 over strategy p50: "
          + ", ".join(f"{s} {r:.3f}" for s, r in ratios.items()))


def _print_trace(info: dict, wrapped: int, recorded: int, spans_path: Path) -> None:
    print(f"traced {info['images']} images; {wrapped} functions wrapped, "
          f"{recorded} spans written to {spans_path}")
    print("per image: calls, inclusive ms, self ms (largest self time first)")
    for name, calls, incl, own in info["table"][:30]:
        print(f"  {name:38s} {calls:9.2f} {incl:10.4f} {own:10.4f}")
    print("self ms per image by layer: "
          + ", ".join(f"{k} {v:.3f}" for k, v in info["layers_self_ms"].items()))
    print(f"self times under vit.forward_image account for {info['accounting']:.6f} of it")
    print("forward ms per image by strategy (base of reduce.share.*): "
          + ", ".join(f"{k} {v:.3f}" for k, v in info["forward_ms_per_image"].items()))
    print("stress shares: " + ", ".join(f"{k} {v:.3f}" for k, v in info["stress"].items()))


def run_all(args) -> int:
    """Every workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repiece" / "__init__.py").is_file():
        print(f"no engine source under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
