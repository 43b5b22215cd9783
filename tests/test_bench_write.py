"""tools/bench_write.py on canned perfbench result files; perfbench itself never runs."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_write  # noqa: E402
from repiece import diag  # noqa: E402
from repiece.config import ModelConfig, ReductionConfig  # noqa: E402

STRATEGIES = bench_write.workloads.ROTATION
#: Count-valued per-layer metrics of a traced run: they repeat exactly for a seed.
COUNTS = {"reduce.merges": 45.0, "reduce.edges_proposed": 187.75, "reduce.tokens_out": 112.75}


def _canned(name: str, seed: int, trace: int, scale: float) -> dict:
    """A perfbench result file's content, with timings scaled by `scale`."""
    machine = {"cores": 2, "numpy": "2.x", "fan_out_workers": 1,
               "probe_gflop_per_s_before": 100.0 * scale, "probe_gflop_per_s_after": 90.0 * scale}
    if trace:
        metrics = {"vit.mlp_forward.ms": (10.0 * scale, "ms"),
                   **{k: (v, "count") for k, v in COUNTS.items()}}
    else:
        metrics = {"images_per_s": (50.0 / scale, "1/s"), "latency_ms_p50": (20.0 * scale, "ms"),
                   "latency_ms_p90": (25.0 * scale, "ms"),
                   **{f"latency_ms_p50.{s}": ((20.0 + i) * scale, "ms")
                      for i, s in enumerate(STRATEGIES)},
                   "setup_s": (0.01 * scale, "s"), "peak_rss_mb": (90.0, "MB"),
                   "ops_ok_ratio": (1.0, "ratio")}
    return {"workload": name, "seed": seed, "machine": machine,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _fake_perfbench(tmp_path: Path, slow: float):
    """A stand-in for run_perfbench: writes canned files as perfbench would, then reads them."""

    def run(seed: int, seconds: float, trace: int) -> dict:
        results = tmp_path / f"run-{seed}-{trace}"
        results.mkdir()
        for name in bench_write.workloads.WORKLOADS:
            content = _canned(name, seed, trace, slow * (1 + seed / 100))
            (results / f"result-{name}-trace{trace}.json").write_text(json.dumps(content))
        return bench_write.read_results(results, trace)

    return run


def _write(tmp_path: Path, monkeypatch, slow: float) -> dict:
    work = tmp_path / f"slow{slow}"
    work.mkdir()
    monkeypatch.setattr(bench_write, "run_perfbench", _fake_perfbench(work, slow))
    out = work / "BENCH.json"
    assert bench_write.main(["--out", str(out), "--seeds", "1,2,3,4,5", "--seconds", "1"]) == 0
    return json.loads(out.read_text())


def test_bench_file_has_every_workload_metric_and_strategy(tmp_path, monkeypatch):
    doc = _write(tmp_path, monkeypatch, 1.0)
    assert doc["perfbench"] == {"seeds": [1, 2, 3, 4, 5], "seconds": 1.0, "trace_seed": 9}
    assert "batch-8" in doc["gaps"][0]
    assert set(doc["workloads"]) == set(bench_write.workloads.WORKLOADS)
    for name, entry in doc["workloads"].items():
        wl = bench_write.workloads.WORKLOADS[name]
        assert entry["seeds"] == [1, 2, 3, 4, 5] and entry["images_per_op"] == wl.images_per_op
        assert entry["machine"] == {"cores": 2, "numpy": "2.x", "fan_out_workers": 1}
        assert len(entry["probe_gflop_per_s"]["values"]) == 10
        canned = _canned(name, 1, 0, 1.0)["metrics"]
        assert set(entry["end_to_end"]) == set(canned)
        for metric, stats in entry["end_to_end"].items():
            assert stats["unit"] == canned[metric]["unit"]
            assert len(stats["values"]) == 5
            assert stats["q1"] <= stats["median"] <= stats["q3"]
            assert stats["median"] == sorted(stats["values"])[2]
        cfg = ModelConfig(**wl.model)
        assert list(entry["strategies"]) == list(STRATEGIES)
        for strategy, row in entry["strategies"].items():
            rcfg = ReductionConfig(
                strategy=strategy,
                prune_layers=frozenset(bench_write.workloads.prune_layers(wl, strategy)),
            )
            schedule = diag.token_schedule(cfg, rcfg)
            assert row["schedule"] == schedule
            assert row["gflops"] == diag.flops_count(cfg, schedule) / 1e9
            assert row["latency_ms_p50"] == entry["end_to_end"][f"latency_ms_p50.{strategy}"]
            p50 = row["latency_ms_p50"]["median"] / 1e3
            assert row["gflop_per_s_at_median_p50"] == pytest.approx(
                row["gflops"] * wl.images_per_op / p50
            )
        assert entry["traced"]["seed"] == 9
        assert entry["traced"]["metrics"]["vit.mlp_forward.ms"]["unit"] == "ms"


def test_counts_and_gflops_repeat_exactly_while_timings_vary(tmp_path, monkeypatch):
    fast, slow = _write(tmp_path, monkeypatch, 1.0), _write(tmp_path, monkeypatch, 1.5)
    for name in fast["workloads"]:
        a, b = fast["workloads"][name], slow["workloads"][name]
        for strategy in STRATEGIES:
            for key in ("gflops", "schedule"):
                assert a["strategies"][strategy][key] == b["strategies"][strategy][key]
        for metric, value in COUNTS.items():
            assert a["traced"]["metrics"][metric]["value"] == value
            assert b["traced"]["metrics"][metric]["value"] == value
        assert a["end_to_end"]["latency_ms_p50"] != b["end_to_end"]["latency_ms_p50"]


def test_fewer_than_five_seeds_is_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_write, "run_perfbench", _fake_perfbench(tmp_path, 1.0))
    with pytest.raises(SystemExit):
        bench_write.main(["--out", str(tmp_path / "b.json"), "--seeds", "1,2,3,4"])
    assert not (tmp_path / "b.json").exists()
