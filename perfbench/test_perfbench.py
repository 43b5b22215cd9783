"""Self-tests of the benchmark: span arithmetic, output checks, tracing, and
short runs of every workload. Run with `python -m pytest perfbench`."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repiece import cli, container, diag, embed, numerics, reduce, vit  # noqa: E402
from repiece.config import ModelConfig, ReductionConfig  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
MODULES = {
    "numerics": numerics, "embed": embed, "vit": vit, "reduce": reduce,
    "diag": diag, "container": container, "cli": cli,
}
TINY = {"depth": 3, "heads": 2, "dim": 16, "num_classes": 10}


def span(id, parent, thread, start, end, name="x"):
    return spans.Span(id, parent, 0, thread, name, start, end)


def test_self_time_subtracts_the_union_of_children_across_threads():
    tree = [
        span(0, None, 1, 0.0, 10.0),  # root on the main thread
        span(1, 0, 1, 1.0, 4.0),  # nested call on the main thread
        span(2, 1, 1, 2.0, 3.0),
        span(3, 0, 2, 2.5, 6.0),  # worker thread 2, overlaps span 1
        span(4, 0, 3, 5.0, 8.0),  # worker thread 3, overlaps span 3
        span(5, 4, 3, 6.0, 7.5),
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - 7.0)  # children cover [1, 8] once
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.5)
    assert selfs[4] == pytest.approx(1.5)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(1.5)


def test_coverage_clips_children_to_the_parent():
    assert spans.covered((0.0, 4.0), [(-1.0, 1.0), (0.5, 2.0), (3.0, 9.0)]) == pytest.approx(3.0)
    assert spans.covered((0.0, 4.0), []) == 0.0


def test_check_logits_trips_on_shape_and_non_finite_values():
    assert checks.check_logits(np.zeros(10, np.float32), 10) == []
    assert checks.check_logits(np.zeros(9, np.float32), 10)
    assert checks.check_logits(np.zeros((1, 10), np.float32), 10)
    bad = np.zeros(10, np.float32)
    bad[3] = np.nan
    assert checks.check_logits(bad, 10)


def test_check_schedule_trips_on_a_wrong_token_count():
    assert checks.check_schedule([197, 180], [197, 180]) == []
    assert checks.check_schedule([197, 181], [197, 180])
    assert checks.check_schedule([197], [197, 180])


def test_check_reference_trips_beyond_tolerance():
    ref = np.linspace(-1.0, 1.0, 10)
    assert checks.check_reference(ref.astype(np.float32), ref) == []
    assert checks.check_reference(ref + 1e-3, ref)


def _report(path: Path, logits, prediction, counts):
    per_layer = [{"token_count": c} for c in counts]
    path.write_text(json.dumps({"logits": logits, "prediction": prediction, "diag": {"per_layer": per_layer}}))


def test_check_cli_reports_trips_on_each_fault(tmp_path):
    inputs = [tmp_path / "a.ppm", tmp_path / "b.ppm"]
    good = [0.1, 0.9, 0.2]
    _report(tmp_path / "a.run.json", good, 1, [5, 4])
    _report(tmp_path / "b.run.json", good, 1, [5, 4])
    assert checks.check_cli_reports(0, tmp_path, inputs, 3, [5, 4]) == []
    assert checks.check_cli_reports(3, tmp_path, inputs, 3, [5, 4])
    assert checks.check_cli_reports(0, tmp_path, inputs, 3, [5, 3])
    _report(tmp_path / "b.run.json", good, 2, [5, 4])  # prediction is not the argmax
    assert len(checks.check_cli_reports(0, tmp_path, inputs, 3, [5, 4])) == 1
    (tmp_path / "b.run.json").write_text("{not json")
    assert len(checks.check_cli_reports(0, tmp_path, inputs, 3, [5, 4])) == 1


@pytest.fixture
def tiny_bench(tmp_path, monkeypatch, request):
    stem = getattr(request, "param", "grid")
    wl = workloads.Workload("tiny", {**TINY, "stem": stem, "stem_base": 4}, (1,), stem != "grid")
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", wl)
    workloads.prepare(str(tmp_path), "tiny", seed=3)
    bench = workloads.Bench(wl, tmp_path)
    bench.setup()
    return bench


@pytest.mark.parametrize("tiny_bench", ["grid", "coherence"], indirect=True)
def test_a_clean_rotation_and_verify_pass(tiny_bench):
    result = workloads.LoopResult()
    workloads.rotation(tiny_bench, result, 0)
    assert (result.attempted, result.failed) == (4, 0)
    assert workloads.verify(tiny_bench) == (5, [])


def test_reference_forward_matches_the_engine_on_both_stems(tiny_bench):
    for stem in ("grid", "coherence"):
        cfg = ModelConfig(**TINY, stem=stem, stem_base=4)
        weights = vit.init_random(cfg, seed=5)
        image = tiny_bench.images[0]
        logits, _ = vit.forward_image(image, weights, ReductionConfig(prune_layers=frozenset()))
        assert checks.check_reference(logits, checks.reference_logits(weights, image)) == []


def test_injected_wrong_logits_fail_the_operation(tiny_bench, monkeypatch):
    real = vit.forward_image
    monkeypatch.setattr(vit, "forward_image", lambda *a: (real(*a)[0][:-1], real(*a)[1]))
    result = workloads.LoopResult()
    workloads.rotation(tiny_bench, result, 0)
    assert (result.attempted, result.failed) == (4, 4)
    assert all(not v for v in result.latencies.values())


def test_injected_wrong_token_count_fails_the_operation(tiny_bench, monkeypatch):
    real = vit.forward_image

    def short_run(*args):
        logits, run = real(*args)
        return logits, dataclasses.replace(run, per_layer=run.per_layer[:-1])

    monkeypatch.setattr(vit, "forward_image", short_run)
    result = workloads.LoopResult()
    workloads.rotation(tiny_bench, result, 0)
    assert result.failed == 4


@pytest.mark.parametrize("tiny_bench", ["coherence"], indirect=True)
def test_injected_bad_cli_report_fails_the_operation(tiny_bench, monkeypatch):
    real = cli.main

    def tampered(argv):
        code = real(argv)
        report = Path(argv[argv.index("--out") + 1]) / "img_00.run.json"
        data = json.loads(report.read_text())
        data["prediction"] = (data["prediction"] + 1) % TINY["num_classes"]
        report.write_text(json.dumps(data))
        return code

    monkeypatch.setattr(cli, "main", tampered)
    result = workloads.LoopResult()
    workloads.rotation(tiny_bench, result, 0)
    assert result.failed == 4


def test_tracing_wraps_name_bindings_and_restores_them(tiny_bench):
    originals = (vit.patchify_embed, embed.patchify_embed, diag.RunDiag.to_dict)
    tracer = spans.Tracer()
    inst = spans.install(tracer, MODULES)
    try:
        assert vit.patchify_embed is embed.patchify_embed  # one wrapper for both bindings
        tracer.begin_op(0)
        result = workloads.LoopResult()
        workloads.rotation(tiny_bench, result, 0)
    finally:
        inst.uninstall()
    names = {s.name for s in tracer.spans}
    assert {"embed.patchify_embed", "numerics.matmul", "reduce.apply_merge"} <= names
    assert "numerics.as_f32" not in names
    assert (vit.patchify_embed, embed.patchify_embed, diag.RunDiag.to_dict) == originals
    roots = [s for s in tracer.spans if s.name == "vit.forward_image"]
    assert len(roots) == 4 and all(s.parent is None for s in roots)


def _run(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT):
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_each_workload_emits_every_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_counts_repeat_exactly_across_seeds():
    counts = ("reduce.merges", "reduce.edges_proposed", "reduce.tokens_out", "numerics.matmul.calls")
    seen = []
    for seed in (1, 2):
        done = _run("small-single", 1, seed)
        assert done.returncode == 0, done.stderr
        metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
        seen.append({name: metrics[name]["value"] for name in counts})
    assert seen[0] == seen[1]


def test_fails_without_the_engine_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("small-single", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
