"""Write a BENCH file: perfbench's end-to-end metrics over seeds, one traced run, analytic GFLOPs.

Run from the repository root:

    python3 tools/bench_write.py --out BENCH_<n>.json
    python3 tools/bench_write.py --out BENCH_<n>.json --seeds 1,2,3,4,5 --seconds 30

where n numbers the change the file measures.

For each seed this runs `python3 perfbench/run.py --workload all --seed S
--seconds T --trace 0` as a subprocess, then one run with `--trace 1` at
seed TRACE_SEED, and copies each `.perfbench/result-<workload>-trace<0|1>.json`
as soon as its run ends, since the next run overwrites it. Per workload the file holds the
machine record, the median and quartiles over seeds of every end-to-end
metric, each strategy's analytic GFLOPs and token schedule beside its p50,
and the traced run's per-layer metrics. The analytic figures come from the
workload set-up in `perfbench/workloads.py` (its `Bench`), so they repeat
exactly; only timings vary between files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".perfbench"
TRACE_SEED = 9
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  perfbench's workload table

GAPS = [
    "batch 8 is not measured: perfbench has no batch-8 workload; deits-single and "
    "small-single run one image per operation and small-cli-batch two images per cli call",
]


def _result_path(directory: Path, name: str, trace: int) -> Path:
    return directory / f"result-{name}-trace{trace}.json"


def read_results(directory: Path, trace: int) -> dict[str, dict]:
    """Workload name -> the result file perfbench left in directory for that trace mode."""
    return {
        name: json.loads(_result_path(directory, name, trace).read_text("utf-8"))
        for name in workloads.WORKLOADS
    }


def run_perfbench(seed: int, seconds: float, trace: int) -> dict[str, dict]:
    """One `perfbench/run.py --workload all` run; its result files, read before the next run."""
    for name in workloads.WORKLOADS:  # an earlier run's file must not pass for this one's
        _result_path(RESULTS, name, trace).unlink(missing_ok=True)
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all",
            "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return read_results(RESULTS, trace)


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def analytic(name: str) -> dict[str, dict]:
    """Strategy -> analytic GFLOPs per image and token schedule of a perfbench workload."""
    bench = workloads.Bench(workloads.WORKLOADS[name], RESULTS)  # touches no file
    return {
        s: {"gflops": bench.gflops[s], "schedule": bench.schedules[s]} for s in workloads.ROTATION
    }


def summarize(untraced: list[dict[str, dict]], traced: dict[str, dict]) -> dict:
    """The BENCH document from each seed's untraced results and one traced run's."""
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        runs = [by_name[name] for by_name in untraced]
        metrics = runs[0]["metrics"]
        end_to_end = {
            metric: {"unit": metrics[metric]["unit"],
                     **_spread([r["metrics"][metric]["value"] for r in runs])}
            for metric in metrics
        }
        strategies = analytic(name)
        for strategy, entry in strategies.items():
            p50 = entry["latency_ms_p50"] = end_to_end[f"latency_ms_p50.{strategy}"]
            entry["gflop_per_s_at_median_p50"] = (
                entry["gflops"] * wl.images_per_op / (p50["median"] / 1e3)
            )
        probes = [r["machine"][f"probe_gflop_per_s_{at}"] for r in runs for at in ("before", "after")]
        machine = {k: v for k, v in runs[0]["machine"].items() if not k.startswith("probe_")}
        out[name] = {
            "machine": machine,
            "probe_gflop_per_s": _spread(probes),
            "images_per_op": wl.images_per_op,
            "seeds": [r["seed"] for r in runs],
            "end_to_end": end_to_end,
            "strategies": strategies,
            "traced": {"seed": traced[name]["seed"], "metrics": traced[name]["metrics"]},
        }
    return {"gaps": GAPS, "workloads": out}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="BENCH file to write")
    p.add_argument("--seeds", default="1,2,3,4,5", help="comma list of at least 5 seeds")
    p.add_argument("--seconds", type=float, default=30.0, help="seconds per workload run")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s]
    if len(seeds) < 5:
        p.error("give at least 5 seeds: the quartiles need them")
    untraced = [run_perfbench(seed, args.seconds, 0) for seed in seeds]
    traced = run_perfbench(TRACE_SEED, args.seconds, 1)
    document = {
        "perfbench": {"seeds": seeds, "seconds": args.seconds, "trace_seed": TRACE_SEED},
        **summarize(untraced, traced),
    }
    Path(args.out).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
