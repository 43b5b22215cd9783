"""Fold a run's measurements into the metrics BENCHMARK.json names."""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

import numpy as np

from spans import LAYERS, Span, has_ancestor, self_times
from workloads import ROTATION, LoopResult


#: Which end-to-end metric each per-layer metric should move, on which
#: workload, and the control workload; the first matching prefix applies.
MOVES = (
    ("numerics.matmul", "latency_ms_p50.none on deits-single; small share on small-single"),
    ("numerics.gelu", "every latency_ms_p50.* on deits-single; latency_ms_p50 on small-cli-batch via the stem"),
    ("numerics.softmax_rows", "latency_ms_p50.none on small-single"),
    ("numerics.layer_norm", "latency_ms_p50.none on small-single"),
    ("numerics.conv2d", "latency_ms_p50 on small-cli-batch; zero on the single workloads"),
    ("embed.coherence_stem", "latency_ms_p50 on small-cli-batch; zero on the single workloads"),
    ("numerics.cosine_similarity_matrix", "latency_ms_p50.tome on small-single"),
    ("vit.mhsa_forward", "latency_ms_p50.none on deits-single"),
    ("vit.attention", "latency_ms_p50.none on deits-single"),
    ("vit.mlp", "images_per_s on deits-single"),
    ("vit.encoder_forward", "latency_ms_p50.* on small-single"),
    ("reduce.step", "the matching latency_ms_p50.<strategy> on small-single; control deits-single"),
    ("reduce.share", "the matching latency_ms_p50.<strategy> on small-single; control deits-single"),
    ("reduce.apply_merge", "latency_ms_p50.imagepiece and .tome on small-single"),
    ("reduce.bipartite_soft_match", "latency_ms_p50.imagepiece and .tome on small-single"),
    ("reduce.prune_keep", "latency_ms_p50.imagepiece and .tome on small-single"),
    ("reduce.", "a count: repeats exactly; a change means the algorithm changed"),
    ("container.load_tensors", "setup_s on deits-single; latency_ms_p50 on small-cli-batch"),
    ("embed.read_ppm", "setup_s on deits-single; latency_ms_p50 on small-cli-batch"),
    ("diag.", "latency_ms_p50 on small-cli-batch"),
    ("cli.", "images_per_s on small-cli-batch; no change on the single workloads"),
    ("trace.", "nothing: the cost of tracing itself"),
)


def moves(name: str) -> str:
    return next(text for prefix, text in MOVES if name.startswith(prefix))


def end_to_end(
    loop: LoopResult, setup_seconds: list[float], images_per_op: int, peak_rss_mb: float,
    attempted: int, failed: int,
) -> dict[str, tuple[float, str]]:
    """Name -> (value, unit). Throughput counts time inside operations only."""
    every = [t for s in ROTATION for t in loop.latencies[s]]
    ms = lambda values: 1e3 * float(np.median(values))  # noqa: E731
    metrics = {
        "images_per_s": (images_per_op * len(every) / sum(every), "1/s"),
        "latency_ms_p50": (ms(every), "ms"),
        "latency_ms_p90": (1e3 * float(np.percentile(every, 90)), "ms"),
    }
    for s in ROTATION:
        metrics[f"latency_ms_p50.{s}"] = (ms(loop.latencies[s]), "ms")
    metrics["setup_s"] = (statistics.median(setup_seconds), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    metrics["ops_ok_ratio"] = (1.0 - failed / attempted, "ratio")
    return metrics


class SpanTotals:
    """Per span name: calls, inclusive and self seconds, summed work counts."""

    def __init__(self, spans: list[Span], selfs: dict[int, float]) -> None:
        self.calls: Counter = Counter()
        self.incl: dict[str, float] = defaultdict(float)
        self.self: dict[str, float] = defaultdict(float)
        self.counts: dict[str, Counter] = defaultdict(Counter)
        for s in spans:
            self.calls[s.name] += 1
            self.incl[s.name] += s.end - s.start
            self.self[s.name] += selfs[s.id]
            self.counts[s.name].update(s.counts)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    spans: list[Span], loop: LoopResult, images_per_op: int, workers: int, overhead_ratio: float
) -> tuple[dict[str, tuple[float, str]], dict]:
    """Per-layer metrics from the traced loop, and the information behind them.

    Times are ms per image of the traced loop, except `container.load_tensors`
    and `embed.read_ppm`, which are ms per call over set-up and loop alike.
    """
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    loop_spans = [s for s in spans if s.op in loop.strategy_of]
    t = SpanTotals(loop_spans, selfs)
    images = images_per_op * len(loop.strategy_of)
    ms = lambda name: _ratio(1e3 * t.incl[name], images)  # noqa: E731
    self_ms = lambda name: _ratio(1e3 * t.self[name], images)  # noqa: E731
    per_image = lambda n: _ratio(n, images)  # noqa: E731

    m: dict[str, tuple[float, str]] = {}
    mm = "numerics.matmul"
    m[f"{mm}.ms"] = (ms(mm), "ms")
    m[f"{mm}.calls"] = (per_image(t.calls[mm]), "count")
    m[f"{mm}.gflop_per_s"] = (_ratio(t.counts[mm]["flop"], 1e9 * t.incl[mm]), "GFLOP/s")
    m[f"{mm}.gb_moved"] = (per_image(t.counts[mm]["bytes"]) / 1e9, "GB")
    m["numerics.gelu.ms"] = (ms("numerics.gelu"), "ms")
    m["numerics.gelu.melem_per_s"] = (
        _ratio(t.counts["numerics.gelu"]["elems"], 1e6 * t.incl["numerics.gelu"]), "Melem/s"
    )
    m["numerics.softmax_rows.ms"] = (ms("numerics.softmax_rows"), "ms")
    m["numerics.softmax_rows.calls"] = (per_image(t.calls["numerics.softmax_rows"]), "count")
    m["numerics.layer_norm.ms"] = (ms("numerics.layer_norm"), "ms")
    m["numerics.conv2d.ms"] = (ms("numerics.conv2d"), "ms")
    m["embed.coherence_stem.ms"] = (ms("embed.coherence_stem"), "ms")
    m["numerics.cosine_similarity_matrix.ms"] = (ms("numerics.cosine_similarity_matrix"), "ms")
    m["vit.mhsa_forward.ms"] = (ms("vit.mhsa_forward"), "ms")
    m["vit.mhsa_forward.self_ms"] = (self_ms("vit.mhsa_forward"), "ms")
    m["vit.attention.gflop_per_s"] = (
        _ratio(t.counts["vit.mhsa_forward"]["flop"], 1e9 * t.incl["vit.mhsa_forward"]), "GFLOP/s"
    )
    m["vit.mlp_forward.ms"] = (ms("vit.mlp_forward"), "ms")
    m["vit.mlp.gflop_per_s"] = (
        _ratio(t.counts["vit.mlp_forward"]["flop"], 1e9 * t.incl["vit.mlp_forward"]), "GFLOP/s"
    )
    m["vit.encoder_forward.self_ms"] = (self_ms("vit.encoder_forward"), "ms")

    step = Counter()
    forward = Counter()
    for s in loop_spans:
        strategy = loop.strategy_of[s.op]
        if s.name.startswith("reduce.step_"):
            step[strategy] += s.end - s.start
        elif s.name == "vit.forward_image":
            forward[strategy] += s.end - s.start
    images_each = images / len(ROTATION)  # whole rotations only
    for strategy in ROTATION:
        m[f"reduce.step.ms.{strategy}"] = (_ratio(1e3 * step[strategy], images_each), "ms")
    for strategy in ROTATION:
        m[f"reduce.share.{strategy}"] = (_ratio(step[strategy], forward[strategy]), "ratio")

    m["reduce.apply_merge.ms"] = (ms("reduce.apply_merge"), "ms")
    m["reduce.bipartite_soft_match.self_ms"] = (self_ms("reduce.bipartite_soft_match"), "ms")
    m["reduce.prune_keep.ms"] = (ms("reduce.prune_keep"), "ms")
    merges = t.counts["reduce.apply_merge"]["merges"]
    edges = t.counts["reduce.bipartite_soft_match"]["edges"]
    m["reduce.merges"] = (per_image(merges), "count")
    m["reduce.edges_proposed"] = (per_image(edges), "count")
    m["reduce.edge_use_ratio"] = (_ratio(merges, edges), "ratio")
    m["reduce.tokens_out"] = (per_image(t.counts["vit.encoder_forward"]["tokens_out"]), "count")

    every = SpanTotals(spans, selfs)
    for name in ("container.load_tensors", "embed.read_ppm"):
        m[f"{name}.ms"] = (_ratio(1e3 * every.incl[name], every.calls[name]), "ms")
    m["diag.run_to_dict.ms"] = (ms("diag.RunDiag.to_dict"), "ms")
    m["diag.canonical_json.ms"] = (ms("diag.canonical_json"), "ms")

    fanned = [
        s for s in loop_spans
        if s.name == "vit.forward_image" and has_ancestor(s, "cli.cmd_run", by_id)
    ]
    fanned_s = sum(s.end - s.start for s in fanned)
    m["cli.cmd_run.ms"] = (ms("cli.cmd_run"), "ms")
    m["cli.forward_image.ms"] = (_ratio(1e3 * fanned_s, len(fanned)), "ms")
    m["cli.worker_busy_ratio"] = (_ratio(fanned_s, t.incl["cli.cmd_run"] * workers), "ratio")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")

    info = {
        "images": images,
        "forward_ms_per_image": {s: _ratio(1e3 * forward[s], images_each) for s in ROTATION},
        "table": _table(t, images),
        "layers_self_ms": _layer_self_ms(loop_spans, selfs, images),
        "accounting": _accounting(loop_spans, selfs, by_id),
        "stress": {
            "matmul_gelu_share": _ratio(
                t.incl["numerics.matmul"] + t.incl["numerics.gelu"], sum(forward.values())
            ),
            "reduce_share_imagepiece": m["reduce.share.imagepiece"][0],
            "conv_stem_share": _ratio(t.incl["embed.coherence_stem"], fanned_s),
            "worker_busy_ratio": m["cli.worker_busy_ratio"][0],
        },
    }
    return m, info


def _table(t: SpanTotals, images: int) -> list[tuple[str, float, float, float]]:
    """(name, calls, inclusive ms, self ms) per image, largest self time first."""
    rows = [
        (name, t.calls[name] / images, 1e3 * t.incl[name] / images, 1e3 * t.self[name] / images)
        for name in t.calls
    ]
    return sorted(rows, key=lambda r: -r[3])


def _layer_self_ms(spans: list[Span], selfs: dict[int, float], images: int) -> dict[str, float]:
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        out[s.name.split(".", 1)[0]] += 1e3 * selfs[s.id] / images
    return out


def _accounting(spans: list[Span], selfs: dict[int, float], by_id: dict[int, Span]) -> float:
    """Sum of self times under `vit.forward_image` spans over their summed durations.

    1.0 means every microsecond of the forwards is owned by exactly one span.
    """
    roots = {s.id: s.end - s.start for s in spans if s.name == "vit.forward_image"}
    owned = 0.0
    for s in spans:
        node = s
        while node is not None and node.id not in roots:
            node = by_id.get(node.parent)
        if node is not None:
            owned += selfs[s.id]
    return _ratio(owned, sum(roots.values()))
