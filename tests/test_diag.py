import os

import numpy as np
import pytest

from conftest import make_batch
from repiece import cli, diag, numerics, vit
from repiece.config import ModelConfig, ReductionConfig
from repiece.diag import RunDiag
from repiece.errors import ConfigError, DegenerateInputError, DimensionError, RangeError
from repiece.reduce import LayerDiag, bottom_k_count


# ---------------------------------------------------------------- schedules

def test_schedule_none_is_flat():
    cfg = ModelConfig()
    assert diag.token_schedule(cfg, ReductionConfig()) == [197] * 12


def test_schedule_default_strategies():
    cfg = ModelConfig()
    imagepiece = diag.token_schedule(cfg, ReductionConfig(strategy="imagepiece"))
    evit = diag.token_schedule(cfg, ReductionConfig(strategy="evit"))
    tome = diag.token_schedule(cfg, ReductionConfig(strategy="tome"))
    assert imagepiece[-1] == 42
    assert evit[-1] == 105
    assert tome[-1] == 41  # 196 - 12 * 13 image tokens, plus CLS
    for counts in (imagepiece, evit, tome):
        assert len(counts) == 12
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_schedule_imagepiece_hand_layers():
    cfg = ModelConfig(depth=2)
    rcfg = ReductionConfig(strategy="imagepiece", prune_layers=frozenset({1}))
    # layer 0: 196 - floor(0.08 * 196) = 181; layer 1: merge to 167, keep ceil(0.8 * 167) = 134
    assert diag.token_schedule(cfg, rcfg) == [182, 135]


def test_schedule_evit_no_fuse():
    cfg = ModelConfig(depth=4)
    rcfg = ReductionConfig(strategy="evit", prune_layers=frozenset({0}), evit_fuse=False, keep_rate=0.5)
    assert diag.token_schedule(cfg, rcfg) == [99, 99, 99, 99]


def test_schedule_tome_runs_out_of_pairs():
    cfg = ModelConfig(depth=12)
    rcfg = ReductionConfig(strategy="tome", tome_reduction=90)
    counts = diag.token_schedule(cfg, rcfg)
    # 196 -> 106 -> 53 -> 26 -> 13 -> 6 -> 3 -> 1, then merging stalls
    assert counts[:8] == [107, 54, 27, 14, 7, 4, 2, 2]
    assert counts[-1] == 2


def test_schedule_depth_zero():
    assert diag.token_schedule(ModelConfig(depth=0), ReductionConfig(prune_layers=frozenset())) == []


def test_schedule_rejects_layers_past_depth():
    from repiece.errors import ConfigError

    with pytest.raises(ConfigError):
        diag.token_schedule(ModelConfig(depth=2), ReductionConfig())  # prune layer 9 > depth


# ---------------------------------------------------------------- flops

def test_flops_hand_computed():
    cfg = ModelConfig(depth=1, heads=1, dim=4, mlp_ratio=2.0, num_classes=3, patch_size=112)
    # stem 4*4*3*112^2 = 602112, head 12, attn 4*5*16 + 2*25*4 = 520, mlp 2*5*4*8 = 320
    assert diag.flops_count(cfg, [5]) == 2 * (602112 + 12 + 520 + 320)


def test_flops_depth_zero_is_stem_plus_head():
    cfg = ModelConfig(depth=0, heads=1, dim=8, num_classes=5)
    assert diag.flops_count(cfg, []) == 2 * (196 * 8 * 3 * 256 + 8 * 5)


def test_flops_fewer_tokens_cost_less():
    cfg = ModelConfig()
    full = diag.flops_count(cfg, [197] * 12)
    halved = diag.flops_count(cfg, [99] * 12)
    assert halved < full


def test_flops_matches_encoder_report(rng, tiny_config):
    weights = vit.init_random(tiny_config, seed=0)
    rcfg = ReductionConfig(strategy="imagepiece", prune_layers=frozenset({1, 3}))
    _, run = vit.forward_image(rng.random((3, 224, 224)).astype(np.float32), weights, rcfg)
    assert run.flops == diag.flops_count(tiny_config, run.token_counts())


def test_schedule_rows_accumulate():
    cfg = ModelConfig(depth=3)
    rcfg = ReductionConfig(strategy="tome", tome_reduction=20, prune_layers=frozenset())
    rows = diag.schedule_rows(cfg, rcfg)
    counts = diag.token_schedule(cfg, rcfg)
    assert [r[0] for r in rows] == [0, 1, 2]
    assert [r[1] for r in rows] == counts
    assert rows[0][2] < rows[1][2] < rows[2][2]
    assert rows[-1][2] == diag.flops_count(cfg, counts)
    # by hand, as in test_flops_hand_computed: stem 602112, 840 per layer, and
    # the head's 12 on the last row only
    cfg = ModelConfig(depth=2, heads=1, dim=4, mlp_ratio=2.0, num_classes=3, patch_size=112)
    rows = diag.schedule_rows(cfg, ReductionConfig(strategy="none", prune_layers=frozenset()))
    assert rows == [(0, 5, 2 * (602112 + 840)), (1, 5, 2 * (602112 + 2 * 840 + 12))]


# ---------------------------------------------------------------- metric folds

def test_inattn_ratio_empty_prev():
    assert diag.inattn_to_attn_ratio([], np.array([1]), np.array([0.5]), 0.3) == 0.0


def test_inattn_ratio_hand_case():
    ids, scores = np.arange(4), np.array([0.1, 0.2, 0.3, 0.4])
    # k = 2 -> bottom {0, 1}; of prev {1, 2} only 2 is now attentive
    assert diag.inattn_to_attn_ratio([1, 2], ids, scores, 0.5) == 0.5
    assert diag.inattn_to_attn_ratio([2, 3], ids, scores, 0.5) == 1.0
    assert diag.inattn_to_attn_ratio([0, 1], ids, scores, 0.5) == 0.0


def test_inattn_ratio_vanished_tokens_cannot_be_attentive():
    ids, scores = np.array([0, 1]), np.array([0.1, 0.9])
    assert diag.inattn_to_attn_ratio([7], ids, scores, 0.5) == 0.0
    assert diag.inattn_to_attn_ratio([1, 7], ids, scores, 0.5) == 0.5


def _layer(layer, scores=None, merges=(), n_scored=0):
    # scores maps image ids to scores; with none given, ids 0..n_scored-1
    # score 0.0. Row 0 is the class token (id -1, score +inf), as every step
    # records it. merges holds one (A row, B row, similarity) per executed
    # merge, best first, its rows counted with the class token at row 0.
    scores = {-1: np.inf, **(scores or dict.fromkeys(range(n_scored), 0.0))}
    a, b, sims = zip(*merges) if merges else ((), (), ())
    return LayerDiag(
        layer=layer,
        token_count=0,
        token_ids=np.array(list(scores), dtype=np.int64),
        scores=np.array(list(scores.values()), dtype=np.float64),
        merged_a=np.array(a, dtype=np.intp),
        merged_b=np.array(b, dtype=np.intp),
        merge_similarities=np.array(sims, dtype=np.float64),
    )


def test_inattn_trail_pairs_layers():
    run = RunDiag(
        per_layer=[
            _layer(0, merges=[(5, 3, 0.5), (6, 4, 0.6)], n_scored=6),  # ids 4, 5 into 2, 3
            _layer(1, scores={0: 0.1, 1: 0.2, 2: 0.3, 3: 0.4}),
            _layer(2, scores={0: 0.5, 1: 0.5}),
        ],
        final_output_tokens=0,
        flops=0,
        strategy="imagepiece",
    )
    assert diag.inattn_trail(run, 0.5) == [(1, 1.0)]
    # tied scores fall to the lowest ids, whatever order the record holds them in
    tied = RunDiag(
        per_layer=[
            _layer(0, merges=[(5, 3, 0.5), (6, 4, 0.6)], n_scored=6),  # ids 4, 5 into 2, 3
            _layer(1, scores=dict.fromkeys([3, 1, 2, 0], 0.2)),
        ],
        final_output_tokens=0,
        flops=0,
        strategy="imagepiece",
    )
    assert diag.inattn_trail(tied, 0.5) == [(1, 1.0)]


@pytest.mark.parametrize("strategy", ["imagepiece", "tome"])
def test_inattn_trail_reads_the_arrays_as_the_dict_would(strategy):
    # the trail reads each record's id/score arrays; the expected ratio is
    # folded in plain Python over the {id: score} map of the same record,
    # class token dropped, ranked by (score, id)
    from repiece.synth import smooth_image

    def ratio_from_map(prev_ids, by_id, p):
        ranked = sorted(by_id, key=lambda i: (by_id[i], i))
        attentive = set(ranked[bottom_k_count(len(ranked), p) :])
        return len(attentive & set(prev_ids)) / len(set(prev_ids))

    weights = vit.init_random(ModelConfig(depth=6, heads=2, dim=16, num_classes=10), seed=3)
    rcfg = ReductionConfig(strategy=strategy, prune_layers=frozenset({2, 4}))
    _, run = vit.forward_image(smooth_image(1), weights, rcfg)
    for p in (0.1, 0.3, 0.6):
        expected = []
        for prev, cur in zip(run.per_layer, run.per_layer[1:]):
            if prev.merged_token_ids:
                by_id = dict(zip(cur.token_ids.tolist(), cur.scores.tolist()))
                by_id.pop(-1)
                expected.append((cur.layer, ratio_from_map(prev.merged_token_ids, by_id, p)))
        assert len(expected) >= 2
        assert diag.inattn_trail(run, p) == expected


def test_merged_pair_similarity_first_last():
    run = RunDiag(
        per_layer=[
            _layer(0),
            _layer(1, merges=[(1, 2, 0.2), (3, 4, 0.4)], n_scored=4),
            _layer(2, merges=[(1, 2, 0.9)], n_scored=2),
        ],
        final_output_tokens=0,
        flops=0,
        strategy="imagepiece",
    )
    assert diag.merged_pair_similarity(run, "first") == pytest.approx(0.3)
    assert diag.merged_pair_similarity(run, "last") == pytest.approx(0.9)
    with pytest.raises(RangeError):
        diag.merged_pair_similarity(run, "middle")


def test_merged_pair_similarity_none_when_never_merged():
    run = RunDiag(per_layer=[_layer(0)], final_output_tokens=0, flops=0, strategy="none")
    assert diag.merged_pair_similarity(run) is None


def test_aggregate_lowest():
    assert diag.aggregate_lowest([0.9, 0.5, 0.7], n=2) == pytest.approx(0.6)
    assert diag.aggregate_lowest([None, 0.4, None], n=5) == pytest.approx(0.4)
    assert diag.aggregate_lowest([0.3, 0.1], n=500) == pytest.approx(0.2)
    with pytest.raises(DegenerateInputError):
        diag.aggregate_lowest([None, None])


def test_topk_overlap_hand_case():
    run = RunDiag(
        # ten tied scores rank row r at 10 - r: A rows 10 and 1 rank 0 and 9,
        # their shared B row 5 ranks 5
        per_layer=[_layer(0, merges=[(10, 5, 0.5), (1, 5, 0.5)], n_scored=10)],
        final_output_tokens=0,
        flops=0,
        strategy="tome",
    )
    # q=70 -> top_count 7 -> ranks {0, 5} hit out of 3
    assert diag.merged_topk_overlap(run, 70.0) == pytest.approx(200.0 / 3.0)
    assert diag.merged_topk_overlap(run, 0.0) == 0.0
    assert diag.merged_topk_overlap(run, 100.0) == 100.0


def test_topk_overlap_no_merges_and_bad_q():
    run = RunDiag(per_layer=[_layer(0)], final_output_tokens=0, flops=0, strategy="none")
    assert diag.merged_topk_overlap(run, 70.0) == 0.0
    with pytest.raises(RangeError):
        diag.merged_topk_overlap(run, 130.0)


def test_topk_overlap_uses_first_merging_layer():
    run = RunDiag(
        per_layer=[
            _layer(0, merges=[(1, 2, 0.5)], n_scored=10),  # ranks 9 and 8
            _layer(1, merges=[(10, 9, 0.5)], n_scored=10),  # ranks 0 and 1
        ],
        final_output_tokens=0,
        flops=0,
        strategy="tome",
    )
    assert diag.merged_topk_overlap(run, 70.0) == 0.0  # layer 1's rank-0 hit is ignored


# ---------------------------------------------------------------- adjacency

def test_adjacency_constant_features():
    fmap = np.tile(np.array([1.0, 2.0, 0.5, 1.0], np.float32), (3, 3, 1))
    assert diag.adjacency_similarity(fmap) == pytest.approx(1.0)


def test_adjacency_orthogonal_checkerboard():
    fmap = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]], np.float32)
    assert diag.adjacency_similarity(fmap) == pytest.approx(0.0)


def test_adjacency_rejects_input_that_is_not_a_map(rng):
    batch = make_batch(rng, n_img=9, dim=4, grid=(3, 3))
    for flat in (batch.features, batch.features[1:], batch.features[None, None]):
        with pytest.raises(DimensionError):
            diag.adjacency_similarity(flat)


def test_adjacency_rejects_zero_rows(rng):
    fmap = rng.standard_normal((2, 2, 3)).astype(np.float32)
    fmap[0, 1] = 0.0
    with pytest.raises(DegenerateInputError):
        diag.adjacency_similarity(fmap)


def test_adjacency_rejects_a_map_without_neighbours(rng):
    # a 1 x 1 map has no pair to average: an error, not a NaN
    with pytest.raises(DegenerateInputError):
        diag.adjacency_similarity(rng.standard_normal((1, 1, 4)).astype(np.float32))


# ---------------------------------------------------------------- reporting plumbing

def test_canonical_json_is_order_independent():
    assert diag.canonical_json({"b": 1, "a": [1, 2]}) == diag.canonical_json({"a": [1, 2], "b": 1})
    assert diag.canonical_json({"a": 1}) == '{"a":1}'


def test_run_diag_to_dict_shape():
    run = RunDiag(
        per_layer=[_layer(0, merges=[(5, 4, 0.8)], n_scored=5)],  # id 4 into id 3
        final_output_tokens=5,
        flops=123,
        strategy="tome",
    )
    d = run.to_dict()
    assert d["strategy"] == "tome" and d["flops"] == 123
    assert d["per_layer"][0]["merged_token_ids"] == [3]
    assert d["per_layer"][0]["merges_executed"] == 1
    assert d["per_layer"][0]["mean_merge_similarity"] == 0.8
    assert set(d["per_layer"][0]) == {
        "layer",
        "token_count",
        "merges_executed",
        "pruned_size",
        "mean_merge_similarity",
        "bottom_k_set",
        "merged_token_ids",
    }


def test_max_workers_env_cap(monkeypatch):
    monkeypatch.setenv(diag.THREADS_ENV, "2")
    assert diag.max_workers(10) == 2
    assert diag.max_workers(1) == 1
    monkeypatch.delenv(diag.THREADS_ENV)
    # unset, one image per usable core where numpy's OpenBLAS can be held to one thread
    counts = (0, 1, 2, 3, 8, 1000)
    if numerics._blas_threads() is not None:  # found through /proc, so on Linux
        cores = len(os.sched_getaffinity(0))
        assert [diag.max_workers(n) for n in counts] == [max(1, min(n, cores)) for n in counts]
    # and one after another where it cannot
    monkeypatch.setattr(numerics, "_blas_threads", lambda: None)
    assert [diag.max_workers(n) for n in counts] == [1] * 6
    monkeypatch.setenv(diag.THREADS_ENV, "abc")
    with pytest.raises(ConfigError, match=diag.THREADS_ENV):
        diag.max_workers(2)


# ---------------------------------------------------------------- harnesses

def test_bench_reports_consistent_analytics(tiny_config):
    rcfg = ReductionConfig(strategy="tome", tome_reduction=30, prune_layers=frozenset())
    report = cli.bench(vit.init_random(tiny_config, 0), rcfg, batch_size=2, iterations=2, seed=0)
    assert report["schedule"] == diag.token_schedule(tiny_config, rcfg)
    assert report["flops"] == diag.flops_count(tiny_config, report["schedule"])
    assert report["median_seconds"] > 0
    assert report["images_per_second"] == pytest.approx(2 / report["median_seconds"])
    assert report["batch_size"] == 2 and report["iterations"] == 2


def test_bench_rejects_empty_runs(tiny_config):
    with pytest.raises(RangeError):
        cli.bench(
            vit.init_random(tiny_config, 0),
            ReductionConfig(prune_layers=frozenset()),
            batch_size=0,
            iterations=1,
        )


def test_mask_eval_zero_masks_recovers_predictions(rng, tiny_config):
    weights = vit.init_random(tiny_config, seed=4)
    rcfg = ReductionConfig(prune_layers=frozenset())
    images = [rng.random((3, 224, 224)).astype(np.float32) for _ in range(3)]
    labels = [int(np.argmax(vit.forward_image(img, weights, rcfg)[0])) for img in images]
    rows = cli.mask_eval(weights, images, labels, [0, 20], seed=9, reduction=rcfg)
    assert rows[0] == {"k": 0, "correct": 3, "total": 3, "accuracy": 1.0}
    assert rows[1]["total"] == 3 and 0 <= rows[1]["accuracy"] <= 1


def test_mask_eval_deterministic(rng, tiny_config):
    weights = vit.init_random(tiny_config, seed=4)
    rcfg = ReductionConfig(prune_layers=frozenset())
    images = [rng.random((3, 224, 224)).astype(np.float32) for _ in range(2)]
    a = cli.mask_eval(weights, images, [0, 0], [5, 40], seed=3, reduction=rcfg)
    b = cli.mask_eval(weights, images, [0, 0], [5, 40], seed=3, reduction=rcfg)
    assert a == b


def test_mask_eval_input_validation(tiny_config, monkeypatch):
    weights = vit.init_random(tiny_config, seed=4)
    image = np.zeros((3, 224, 224), np.float32)
    with pytest.raises(DimensionError):
        cli.mask_eval(weights, [image], [0, 1], [0], seed=0)
    with pytest.raises(DegenerateInputError):
        cli.mask_eval(weights, [], [], [0], seed=0)
    # a mask count lies in [0, 196], the 14 x 14 cells of the grid, checked before any forward
    rcfg = ReductionConfig(prune_layers=frozenset())
    calls = []
    real = vit.forward_image
    monkeypatch.setattr(vit, "forward_image", lambda *args: calls.append(1) or real(*args))
    for k in (-1, 197):
        with pytest.raises(RangeError, match=f"mask count {k} outside \\[0, 196\\]"):
            cli.mask_eval(weights, [image], [0], [0, k], 0, rcfg)
    assert calls == []
