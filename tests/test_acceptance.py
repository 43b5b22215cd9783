"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single verdict line (visible even under capture) and then
asserts it, so a full run reads as a ten-line scorecard. Tolerances and counts
are stated inline next to each check.
"""

import json
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import batch_with_sizes, make_batch, random_block, token_patches
from repiece import cli, diag, reduce, vit
from repiece.config import ModelConfig, ReductionConfig
from repiece.cli import bench
from repiece.diag import (
    RunDiag,
    adjacency_similarity,
    aggregate_lowest,
    flops_count,
    inattn_to_attn_ratio,
    merged_pair_similarity,
    merged_topk_overlap,
    token_schedule,
)
from repiece.embed import TokenBatch, apply_random_masks, write_ppm
from repiece.errors import DegenerateInputError, RangeError
from repiece.reduce import LayerDiag
from repiece.synth import smooth_corpus


def _verdict(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _random_reduction(rng, depth: int) -> ReductionConfig:
    strategy = ("none", "evit", "tome", "imagepiece")[int(rng.integers(0, 4))]
    n_prune = int(rng.integers(0, depth))
    prune = frozenset(int(l) for l in rng.choice(depth, size=n_prune, replace=False))
    retok = None
    if rng.integers(0, 2):
        n_retok = int(rng.integers(0, depth + 1))
        retok = frozenset(int(l) for l in rng.choice(depth, size=n_retok, replace=False))
    return ReductionConfig(
        strategy=strategy,
        nonsemantic_proportion=float(rng.uniform(0.1, 0.45)),
        merge_ratio=float(rng.uniform(0.03, 0.2)),
        keep_rate=float(rng.uniform(0.5, 1.0)),
        tome_reduction=int(rng.integers(0, 21)),
        retokenize_layers=retok,
        prune_layers=prune,
        proportional_attention=bool(rng.integers(0, 2)),
        evit_fuse=bool(rng.integers(0, 2)),
    )


def test_criterion_01_matching_and_merging_match_bruteforce(capsys):
    """1000 random instances of <= 12 tokens: merge partners chosen identically
    to the all-pairs brute force, merged features within 1e-6, in under 30 s."""
    rng = np.random.default_rng(20260823)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n_a, n_b = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        n, dim = n_a + n_b, int(rng.integers(3, 9))
        keys = rng.standard_normal((n, dim)).astype(np.float32)
        a_pos = sorted(int(i) for i in rng.choice(n, size=n_a, replace=False))
        b_pos = [i for i in range(n) if i not in set(a_pos)]
        # the batch's row 0 is the class token, so key i belongs to token i + 1
        a_idx, b_idx = [i + 1 for i in a_pos], [i + 1 for i in b_pos]

        plan = reduce.bipartite_soft_match(keys[a_pos], keys[b_pos], a_idx, b_idx)
        expected = oracles.match_bruteforce(keys[a_pos], keys[b_pos])
        assert [(a, b) for a, b, _ in plan.edges] == [(a_idx[a], b_idx[b]) for a, b, _ in expected]
        for got, want in zip(plan.edges, expected):
            assert abs(got[2] - want[2]) <= 1e-6

        sizes = np.concatenate([[1], rng.integers(1, 5, size=n)])
        feats = np.concatenate([np.ones((1, dim), np.float32), rng.standard_normal((n, dim))])
        batch = batch_with_sizes(feats, sizes)  # token i > 0 holds sizes[i] consecutive patches
        prov = token_patches(batch)
        m = int(rng.integers(0, len(plan.edges) + 1))
        merged = reduce.apply_merge(batch, plan, m)
        ef, es, ep = oracles.merge_bruteforce(
            batch.features, sizes, prov, a_idx, b_idx, expected, m
        )
        assert merged.n_tokens == n + 1 - m == len(ef)
        dev = float(np.max(np.abs(merged.features.astype(np.float64) - np.stack(ef)))) if ef else 0.0
        worst = max(worst, dev)
        assert dev <= 1e-6
        assert list(merged.sizes) == es
        assert token_patches(merged) == ep
    elapsed = time.perf_counter() - start
    _verdict(
        capsys,
        1,
        elapsed < 30.0,
        f"1000 match+merge instances agree with brute force (max |Δfeature| {worst:.1e}, {elapsed:.1f}s < 30s)",
    )


def test_criterion_02_forwards_conserve_sizes_and_provenance(capsys):
    """500 random forwards: at every layer the surviving token sizes plus
    everything pruned so far account for all 197 tokens, and the owner map
    stays in range with every image token holding a patch."""
    rng = np.random.default_rng(4202)
    runs = 0
    for i in range(500):
        depth = int(rng.integers(2, 5))
        cfg = ModelConfig(
            depth=depth,
            heads=int(rng.choice([1, 2])),
            dim=int(rng.choice([8, 16])),
            num_classes=5,
        )
        rcfg = _random_reduction(rng, depth)
        weights = vit.init_random(cfg, seed=i)
        image = rng.random((3, 224, 224), dtype=np.float32)
        observed: list[TokenBatch] = []
        batch = vit.embed_image(image, weights)
        logits, run = vit.encoder_forward(
            batch, weights, rcfg, layer_hook=lambda _l, b: observed.append(b)
        )
        assert np.all(np.isfinite(logits))
        assert len(observed) == depth
        pruned_total = 0
        for layer_batch, ld in zip(observed, run.per_layer):
            layer_batch.validate()  # owner in range, every image token holds a patch
            pruned_total += ld.pruned_size
            assert int(layer_batch.sizes.sum()) + pruned_total == 197
        runs += 1
    _verdict(
        capsys,
        2,
        runs == 500,
        f"{runs}/500 random forwards conserved sizes + patch ownership at every layer",
    )


def test_criterion_03_schedule_predicts_live_token_counts(capsys):
    """The analytic schedule equals the live per-layer counts on 200 random
    configurations, and the stock settings land on their canonical endpoints."""
    rng = np.random.default_rng(31337)
    matched = 0
    for i in range(200):
        depth = int(rng.integers(1, 6))
        cfg = ModelConfig(
            depth=depth,
            heads=1,
            dim=8,
            num_classes=3,
            patch_size=int(rng.choice([28, 56, 112])),
        )
        rcfg = _random_reduction(rng, depth)
        weights = vit.init_random(cfg, seed=1000 + i)
        _, run = vit.forward_image(rng.random((3, 224, 224), dtype=np.float32), weights, rcfg)
        assert run.token_counts() == token_schedule(cfg, rcfg)
        matched += 1

    # stock settings, analytically on the full-size model...
    full = ModelConfig()
    assert token_schedule(full, ReductionConfig(strategy="imagepiece"))[-1] == 42
    assert token_schedule(full, ReductionConfig(strategy="tome"))[-1] == 41
    assert token_schedule(full, ReductionConfig(strategy="evit"))[-1] == 105
    # ...and live on a thin model with the same depth and grid
    thin = ModelConfig(depth=12, heads=2, dim=16, num_classes=5)
    weights = vit.init_random(thin, seed=7)
    image = rng.random((3, 224, 224), dtype=np.float32)
    finals = {}
    for strategy in ("imagepiece", "tome", "evit"):
        _, run = vit.forward_image(image, weights, ReductionConfig(strategy=strategy))
        assert run.token_counts() == token_schedule(thin, ReductionConfig(strategy=strategy))
        finals[strategy] = run.final_output_tokens
    ok = matched == 200 and finals == {"imagepiece": 42, "tome": 41, "evit": 105}
    _verdict(
        capsys,
        3,
        ok,
        f"{matched}/200 random configs + stock endpoints {finals} match the analytic schedule",
    )


def test_criterion_04_merges_avoid_attentive_tokens(capsys):
    """Retokenization never merges a token the current layer ranks in the top
    70% by class attention (overlap exactly 0.0 in 200/200 runs); global
    similarity merging has no such guard (overlap > 0 in >= 95% of 200 runs)."""
    cfg = ModelConfig(depth=1, heads=2, dim=16, num_classes=5)
    rng = np.random.default_rng(777)

    def overlaps(strategy: str) -> list[float]:
        rcfg = ReductionConfig(strategy=strategy, prune_layers=frozenset())
        out = []
        for i in range(200):
            weights = vit.init_random(cfg, seed=3000 + i)
            image = rng.random((3, 224, 224), dtype=np.float32)
            _, run = vit.forward_image(image, weights, rcfg)
            assert run.per_layer[0].merges_executed > 0
            out.append(merged_topk_overlap(run, 70.0))
        return out

    retok = overlaps("imagepiece")
    tome = overlaps("tome")
    zero_every_run = all(v == 0.0 for v in retok)
    tome_hits = sum(1 for v in tome if v > 0.0)
    ok = zero_every_run and tome_hits >= 190
    _verdict(
        capsys,
        4,
        ok,
        f"top-70% overlap: retokenization 0.0 in {sum(v == 0.0 for v in retok)}/200 runs, "
        f"global merging > 0 in {tome_hits}/200",
    )


def test_criterion_05_attention_matches_float64_definition(capsys):
    """100 random blocks: the float32 attention pass stays within 1e-5 of a
    direct float64 evaluation, and every attention row sums to 1 +- 1e-6."""
    rng = np.random.default_rng(555)
    worst_feat, worst_row = 0.0, 0.0
    for i in range(100):
        heads = int(rng.choice([1, 2, 4]))
        dim = heads * int(rng.choice([4, 8]))
        n_img = int(rng.integers(4, 20))
        batch = make_batch(rng, n_img=n_img, dim=dim)
        if i % 2:
            sizes = rng.integers(1, 6, size=batch.n_tokens).astype(np.int64)
            sizes[0] = 1
            batch = batch_with_sizes(batch.features, sizes)
        proportional = bool(i % 2)
        block = random_block(rng, dim, heads, std=0.2)  # activations stay O(1)
        out, record = vit.mhsa_forward(batch, block, proportional)
        ref_out, ref_class, _ = oracles.attention_direct(
            batch.features, block, sizes=batch.sizes if proportional else None
        )
        worst_feat = max(worst_feat, float(np.max(np.abs(out.features - ref_out))))
        assert np.allclose(out.features, ref_out, atol=1e-5)
        assert np.allclose(record.class_attention, ref_class, atol=1e-6)
        row_sums = record.per_head.sum(axis=2)
        worst_row = max(worst_row, float(np.max(np.abs(row_sums - 1.0))))
        assert np.allclose(row_sums, 1.0, atol=1e-6)
    _verdict(
        capsys,
        5,
        True,
        f"100 blocks within 1e-5 of the float64 reference "
        f"(max |Δout| {worst_feat:.1e}, max |row sum - 1| {worst_row:.1e})",
    )


def test_criterion_06_overlapping_stem_smooths_neighbours(capsys):
    """On 100 smooth synthetic images the overlapping-conv stem yields higher
    neighbour cosine similarity than the grid patchifier in >= 95 cases."""
    dim = 64
    grid_w = vit.init_random(ModelConfig(depth=0, heads=1, dim=dim, num_classes=2), seed=0)
    coh_w = vit.init_random(
        ModelConfig(depth=0, heads=1, dim=dim, num_classes=2, stem="coherence", stem_base=8),
        seed=0,
    )
    wins, margins = 0, []
    for image in smooth_corpus(100, seed=2026):
        stem = adjacency_similarity(vit.stem_tokens(image, coh_w))
        patch = adjacency_similarity(vit.stem_tokens(image, grid_w))
        wins += stem > patch
        margins.append(stem - patch)
    _verdict(
        capsys,
        6,
        wins >= 95,
        f"stem beats patchifier on {wins}/100 smooth images (min margin {min(margins):+.4f})",
    )


def test_criterion_07_flops_ratio_and_monotonicity(capsys):
    """Stock retokenization costs 40-70% of the unreduced model, and cost is
    monotone in keep_rate."""
    cfg = ModelConfig()  # 12 layers, dim 384
    base = flops_count(cfg, token_schedule(cfg, ReductionConfig()))
    reduced = flops_count(cfg, token_schedule(cfg, ReductionConfig(strategy="imagepiece")))
    ratio = reduced / base
    rates = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    costs = [
        flops_count(cfg, token_schedule(cfg, ReductionConfig(strategy="imagepiece", keep_rate=r)))
        for r in rates
    ]
    monotone = all(a <= b for a, b in zip(costs, costs[1:]))
    ok = 0.40 <= ratio <= 0.70 and monotone
    _verdict(
        capsys,
        7,
        ok,
        f"flops ratio {ratio:.4f} in [0.40, 0.70]; cost nondecreasing over keep_rate {rates}",
    )


def test_criterion_08_retokenization_is_faster_end_to_end(capsys):
    """Wall clock at batch 8, median of 20 rounds, identical weights and images:
    retokenization beats the unreduced forward. The two configs alternate
    round by round, so a burst of load on the machine slows both alike."""
    cfg = ModelConfig(depth=8, heads=4, dim=128, num_classes=100)
    weights = vit.init_random(cfg, seed=0)
    configs = (
        ReductionConfig(strategy="imagepiece", prune_layers=frozenset({2, 4, 6})),
        ReductionConfig(strategy="none", prune_layers=frozenset()),
    )
    rounds: tuple[list, list] = ([], [])
    for _ in range(20):
        for rcfg, times in zip(configs, rounds):
            times.append(bench(weights, rcfg, batch_size=8, iterations=1)["median_seconds"])
    (q1r, reduced, q3r), (q1p, plain, q3p) = (statistics.quantiles(t, n=4) for t in rounds)
    ok = reduced < plain
    _verdict(
        capsys,
        8,
        ok,
        f"imagepiece {8 / reduced:.1f} img/s vs none {8 / plain:.1f} img/s "
        f"(medians {reduced:.3f}s [quartiles {q1r:.3f}-{q3r:.3f}] < "
        f"{plain:.3f}s [{q1p:.3f}-{q3p:.3f}])",
    )


def test_criterion_09_runs_are_reproducible(capsys, tmp_path):
    """Weights survive a save/load round trip byte for byte, rerunning the CLI
    reproduces reports byte for byte, and masking k cells zeroes exactly
    k*256 pixels per channel."""
    cfg = ModelConfig(depth=3, heads=2, dim=16, num_classes=10)
    weights = vit.init_random(cfg, seed=0)
    w1, w2 = tmp_path / "w1.bin", tmp_path / "w2.bin"
    vit.save_weights(weights, w1)
    vit.save_weights(vit.load_weights(w1), w2)
    weights_ok = w1.read_bytes() == w2.read_bytes()

    image_path = tmp_path / "input.ppm"
    rng = np.random.default_rng(12)
    write_ppm(rng.random((3, 224, 224)).astype(np.float32), image_path)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "model": {"depth": 3, "heads": 2, "dim": 16, "num_classes": 10},
                "reduction": {"strategy": "imagepiece", "prune_layers": [1]},
                "weights": str(w1),
                "inputs": [str(image_path)],
            }
        )
    )
    outs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        assert cli.main(["run", "--config", str(spec_path), "--out", str(out_dir)]) == 0
        outs.append((out_dir / "input.run.json").read_bytes())
    reports_ok = outs[0] == outs[1]

    image = rng.uniform(0.05, 1.0, (3, 224, 224)).astype(np.float32)
    mask_ok = True
    for k in (7, 10, 15, 20, 25, 50):
        masked = apply_random_masks(image, k, seed=99)
        per_channel = (masked == 0.0).sum(axis=(1, 2))
        mask_ok = mask_ok and bool(np.all(per_channel == k * 256))
    ok = weights_ok and reports_ok and mask_ok
    _verdict(
        capsys,
        9,
        ok,
        f"weights round-trip {'bit-exact' if weights_ok else 'DIFFER'}, reports "
        f"{'byte-identical' if reports_ok else 'DIFFER'}, masks zero exactly k*256 pixels "
        f"per channel for k in 7..50: {mask_ok}",
    )


def test_criterion_10_metrics_hit_ranges_and_extremes(capsys, rng):
    """Every diagnostic stays in its documented range, hits its extremes on
    canonical inputs, and rejects malformed input."""
    checks = []

    checks.append(aggregate_lowest([0.9, 0.5, 0.7], n=2) == pytest.approx(0.6))
    with pytest.raises(DegenerateInputError):
        aggregate_lowest([None, None])

    ids, scores = np.arange(4), np.array([0.1, 0.2, 0.3, 0.4])
    checks.append(inattn_to_attn_ratio([], np.array([0]), np.array([0.5]), 0.3) == 0.0)
    checks.append(inattn_to_attn_ratio([2, 3], ids, scores, 0.5) == 1.0)
    checks.append(inattn_to_attn_ratio([0, 1], ids, scores, 0.5) == 0.0)

    def layer(merges, n_scored):
        # row 0 is the class token (id -1, score +inf), as every step records
        # it; merges holds one (A row, B row) pair per executed merge
        a, b = zip(*merges) if merges else ((), ())
        return LayerDiag(
            layer=0,
            token_count=0,
            token_ids=np.arange(-1, n_scored),
            scores=np.concatenate([[np.inf], np.zeros(n_scored)]),
            merged_a=np.array(a, dtype=np.intp),
            merged_b=np.array(b, dtype=np.intp),
            merge_similarities=np.full(len(merges), 0.5),
        )

    empty_run = RunDiag(per_layer=[layer((), 0)], final_output_tokens=0, flops=0, strategy="none")
    checks.append(merged_topk_overlap(empty_run, 70.0) == 0.0)
    checks.append(merged_pair_similarity(empty_run) is None)
    full_run = RunDiag(
        per_layer=[layer(((1, 2), (3, 4), (5, 6)), 10)],
        final_output_tokens=0,
        flops=0,
        strategy="tome",
    )
    checks.append(merged_topk_overlap(full_run, 100.0) == 100.0)
    with pytest.raises(RangeError):
        merged_topk_overlap(full_run, 130.0)

    flat = np.tile(np.array([1.0, 2.0, 0.5, 1.0], np.float32), (3, 3, 1))
    checks.append(adjacency_similarity(flat) == pytest.approx(1.0, abs=1e-6))
    noisy = rng.standard_normal((4, 4, 8)).astype(np.float32)
    checks.append(-1.0 <= adjacency_similarity(noisy) <= 1.0)
    with pytest.raises(DegenerateInputError):
        zeroed = noisy.copy()
        zeroed[0, 2] = 0.0
        adjacency_similarity(zeroed)

    cfg = ModelConfig()
    for strategy in ("imagepiece", "evit", "tome"):
        counts = token_schedule(cfg, ReductionConfig(strategy=strategy))
        checks.append(all(a >= b for a, b in zip(counts, counts[1:])))
        checks.append(flops_count(cfg, counts) > 0)
    # keep_rate 1.0 prunes nothing, so the pruning strategy goes flat
    checks.append(
        token_schedule(cfg, ReductionConfig(strategy="evit", keep_rate=1.0)) == [197] * 12
    )

    _verdict(
        capsys,
        10,
        all(checks),
        f"{sum(checks)}/{len(checks)} range/extreme checks hold across all diagnostics",
    )
