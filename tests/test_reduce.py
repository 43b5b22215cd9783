import math
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import batch_with_sizes, make_batch, token_patches
from repiece import numerics, reduce
from repiece.config import STRATEGIES, ReductionConfig
from repiece.embed import TokenBatch
from repiece.errors import DimensionError, RangeError
from repiece.reduce import AttentionRecord, LayerDiag


def fake_record(rng, batch, heads=2):
    """Attention record with random (but valid) maps and keys for a batch."""
    n = batch.n_tokens
    logits = rng.standard_normal((heads, n, n))
    per_head = np.exp(logits) / np.exp(logits).sum(axis=2, keepdims=True)
    return AttentionRecord(
        per_head=per_head.astype(np.float32),
        class_attention=per_head[:, 0, :].mean(axis=0).astype(np.float32),
        keys=rng.standard_normal((n, batch.dim)).astype(np.float32),
        heads=heads,
    )


# ---------------------------------------------------------------- scoring

def test_score_tokens_pins_cls(rng, small_batch):
    record = fake_record(rng, small_batch)
    scores = reduce.score_tokens(record, small_batch)
    assert scores[0] == np.inf
    assert np.allclose(scores[1:], record.class_attention[1:], atol=1e-7)


def test_score_tokens_count_mismatch(rng, small_batch):
    record = fake_record(rng, make_batch(rng, n_img=3))
    with pytest.raises(DimensionError):
        reduce.score_tokens(record, small_batch)


# ---------------------------------------------------------------- counting rules

def test_bottom_k_count_examples():
    assert reduce.bottom_k_count(196, 0.3) == 58
    assert reduce.bottom_k_count(10, 0.3) == 2  # floor gives 3, evened down
    assert reduce.bottom_k_count(5, 0.3) == 0
    assert reduce.bottom_k_count(0, 0.3) == 0


def test_merge_budget_examples():
    # an imagepiece retokenize layer merges floor(merge_ratio * n_img) pairs,
    # capped by the bottom-k's edges
    def merges(n_img, merge_ratio, p):
        cfg = ReductionConfig(
            strategy="imagepiece", merge_ratio=merge_ratio, nonsemantic_proportion=p
        )
        return reduce.merge_count(cfg, 0, n_img)

    assert merges(196, 0.08, 0.3) == 15
    assert merges(10, 0.08, 0.3) == 0  # floor(0.8) = 0
    assert merges(100, 0.5, 0.1) == 5  # capped by 10 bottom tokens / 2


def test_keep_count_examples():
    # a prune layer that merges nothing keeps ceil(keep_rate * n_img)
    def kept(n_img, keep_rate):
        return reduce.tokens_after(_evit(keep_rate, fuse=False), 0, n_img)

    assert kept(181, 0.8) == 145
    assert kept(10, 1.0) == 10
    assert kept(7, 0.5) == 4


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(STRATEGIES),
    st.integers(0, 200),
    st.floats(0.01, 0.99),
    st.floats(0.01, 0.99),
    st.floats(0.01, 1.0),
    st.integers(0, 150),
    st.frozensets(st.integers(0, 3)),
    st.frozensets(st.integers(0, 3)),
    st.integers(0, 3),
    st.booleans(),
    st.integers(0, 2**31 - 1),
)
def test_steps_follow_the_count_rule(
    strategy, n_img, p, merge_ratio, keep_rate, r, retokenize, prune, layer, fuse, seed
):
    # merge_count is the budget capped by the step's plan, and each step
    # merges exactly that many pairs, selects a bottom-k of bottom_k_count rows
    # where it retokenizes, and keeps ceil(keep_rate * n) where it prunes;
    # the counts are written out here, not read from the plan
    cfg = ReductionConfig(
        strategy=strategy,
        nonsemantic_proportion=p,
        merge_ratio=merge_ratio,
        keep_rate=keep_rate,
        tome_reduction=r,
        retokenize_layers=retokenize,
        prune_layers=prune,
        evit_fuse=fuse,
    )
    m = reduce.merge_count(cfg, layer, n_img)
    # the plan has one edge per A row, and none without a B row
    a_rows = {"imagepiece": reduce.bottom_k_count(n_img, p) // 2, "tome": (n_img + 1) // 2}
    edges = a_rows.get(strategy, 0) if n_img > 1 else 0
    budget = {"imagepiece": math.floor(merge_ratio * n_img) * cfg.retokenize_at(layer), "tome": r}
    assert m == min(budget.get(strategy, 0), edges)
    rng = np.random.default_rng(seed)
    batch = make_batch(rng, n_img=n_img, dim=4)
    record = AttentionRecord(
        per_head=None,
        class_attention=rng.random(n_img + 1).astype(np.float32),
        keys=rng.standard_normal((n_img + 1, 4)).astype(np.float32),
        heads=2,
    )
    out, info = reduce.step(batch, record, cfg, layer)
    assert info.merges_executed == m
    retokenizes = strategy == "imagepiece" and cfg.retokenize_at(layer)
    assert len(info.bottom_k) == (reduce.bottom_k_count(n_img, p) if retokenizes else 0)
    assert 0 not in info.bottom_k.tolist()
    n = n_img - m
    if strategy in ("imagepiece", "evit") and cfg.prune_at(layer):
        kept = math.ceil(keep_rate * n)
        n = kept + int(strategy == "evit" and fuse and kept < n)
    assert out.n_image_tokens == n
    assert out.n_image_tokens == reduce.tokens_after(cfg, layer, n_img)
    out.validate()
    # one A row and its B partner per merge: distinct A rows, no row on both
    # sides, never the class row; imagepiece merges only inside the bottom-k
    a, b = info.merged_a, info.merged_b
    assert len(a) == len(b) == m
    assert len(set(a.tolist())) == m and not set(a.tolist()) & set(b.tolist())
    assert all(1 <= row <= n_img for row in [*a.tolist(), *b.tolist()])
    if strategy == "imagepiece":
        assert set(a.tolist()) | set(b.tolist()) <= set(info.bottom_k.tolist())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["imagepiece", "tome"]), st.integers(3, 40), st.integers(0, 2**31 - 1))
def test_merged_token_ids_follow_the_batch_id_rule(strategy, n_img, seed):
    # tokens hold scattered patches, so a token's id is not its row; the id a
    # record derives for each merge result is the one the output batch gives
    # the token now holding its B row's patches
    rng = np.random.default_rng(seed)
    rows = np.concatenate([np.arange(1, n_img + 1), rng.integers(1, n_img + 1, n_img)])
    feats = rng.standard_normal((n_img + 1, 4)).astype(np.float32)
    batch = TokenBatch(features=feats, owner=rng.permutation(rows), grid=(2, n_img))
    cfg = ReductionConfig(
        strategy=strategy,
        nonsemantic_proportion=0.9,
        merge_ratio=0.5,
        tome_reduction=n_img,
        prune_layers=frozenset(),
    )
    out, info = reduce.step(batch, fake_record(rng, batch), cfg, 0)
    assert info.merges_executed > 0
    b_rows = np.unique(info.merged_b)
    # a token's id is one of its patches; that patch's new owner is the result
    held_by = out.owner[batch.token_ids()[b_rows]]
    assert out.token_ids()[held_by].tolist() == list(info.merged_token_ids)


# ---------------------------------------------------------------- bottom-k

def _bottom_k(class_attention, p):
    """The bottom-k rows a step records at an imagepiece retokenize layer whose
    attention record has the given class attention (row 0 is CLS)."""
    n = len(class_attention)
    batch = make_batch(np.random.default_rng(n), n_img=n - 1, dim=4)
    record = AttentionRecord(
        per_head=None,
        class_attention=np.array(class_attention, dtype=np.float32),
        keys=np.random.default_rng(0).standard_normal((n, 4)).astype(np.float32),
        heads=2,
    )
    cfg = ReductionConfig(
        strategy="imagepiece", nonsemantic_proportion=p, prune_layers=frozenset()
    )
    return reduce.step(batch, record, cfg, 0)[1].bottom_k


def test_select_bottom_k_basic():
    scores = [0.5, 0.1, 0.9, 0.2, 0.4, 0.8, 0.3, 0.7, 0.6, 0.05]
    # 9 image tokens -> k = floor(0.5 * 9) = 4
    assert _bottom_k(scores, 0.5).tolist() == [9, 1, 3, 6]


def test_select_bottom_k_ties_prefer_low_index():
    scores = [0.2, 0.1, 0.1, 0.1, 0.9, 0.9]
    assert _bottom_k(scores, 0.5).tolist() == [1, 2]


def test_select_bottom_k_ignores_infinite_sentinel():
    # the class row is left out even with the lowest attention of all
    scores = [0.0, 0.3, 0.1, 0.2, 0.4]
    # 4 image tokens -> k = floor(0.5 * 4) = 2
    assert _bottom_k(scores, 0.5).tolist() == [2, 3]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 5).map(float), max_size=30), st.floats(0.01, 0.99))
def test_select_bottom_k_matches_full_sort(quantized, p):
    # small integer scores force plenty of exact ties, and short lists give k = 0
    got = _bottom_k([0.0] + quantized, p)
    assert got.dtype.kind == "i"
    assert got.tolist() == oracles.bottom_k_sort([math.inf] + quantized, p)


# ---------------------------------------------------------------- array selections vs list oracles

@settings(max_examples=80, deadline=None)
@given(st.integers(1, 20), st.data())
def test_keep_selection_matches_oracle(n_img, data):
    batch = make_batch(np.random.default_rng(n_img), n_img=n_img, dim=2)
    values = data.draw(st.lists(st.integers(0, 3).map(float), min_size=n_img, max_size=n_img))
    scores = np.array([np.inf] + values)
    keep = data.draw(st.integers(0, n_img))
    kept, dropped = reduce._keep_selection(batch, scores, keep)
    expected = oracles.keep_sort(batch.image_indices(), scores, keep)
    assert (kept.tolist(), dropped.tolist()) == expected


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.data())
def test_bipartite_soft_match_matches_oracle(dim, data):
    # entries in {-1, 0, 1} give equal similarities, zero rows and empty groups
    def keys():
        rows = data.draw(st.lists(st.lists(st.integers(-1, 1), min_size=dim, max_size=dim), max_size=6))
        return np.array(rows, dtype=np.float32).reshape(-1, dim)

    a, b = keys(), keys()
    a_indices = data.draw(st.permutations(range(20)))[: len(a)]
    b_indices = data.draw(st.permutations(range(20)))[: len(b)]
    plan = reduce.bipartite_soft_match(a, b, a_indices, b_indices)
    expected = []
    if len(a) and len(b):
        sims = numerics.cosine_similarity_matrix(a, b).astype(np.float64)
        expected = oracles.match_from_sims(sims.tolist())
    assert list(plan.edges) == [(a_indices[i], b_indices[j], s) for i, j, s in expected]


# ---------------------------------------------------------------- split + match

def test_match_agrees_with_bruteforce(rng):
    a = rng.standard_normal((6, 8)).astype(np.float32)
    b = rng.standard_normal((4, 8)).astype(np.float32)
    plan = reduce.bipartite_soft_match(a, b)
    expected = oracles.match_bruteforce(a, b)
    assert [(e[0], e[1]) for e in plan.edges] == [(e[0], e[1]) for e in expected]
    for got, want in zip(plan.edges, expected):
        assert got[2] == pytest.approx(want[2], abs=1e-6)


def test_match_tie_prefers_lower_b():
    v = np.array([1.0, 0.0], np.float32)
    plan = reduce.bipartite_soft_match(v[None, :], np.stack([v, v, v]))
    assert plan.edges == ((0, 0, 1.0),)


def test_match_equal_sims_order_by_a_position():
    v = np.array([0.0, 2.0], np.float32)
    plan = reduce.bipartite_soft_match(np.stack([v, v]), v[None, :])
    assert [(a, b) for a, b, _ in plan.edges] == [(0, 0), (1, 0)]


def test_match_carries_global_indices():
    a = np.array([[1.0, 0.0]], np.float32)
    b = np.array([[0.0, 1.0]], np.float32)
    plan = reduce.bipartite_soft_match(a, b, a_indices=[11], b_indices=[22])
    assert plan.edges == ((11, 22, 0.0),)


def test_match_empty_groups():
    empty = np.zeros((0, 4), np.float32)
    keys = np.ones((2, 4), np.float32)
    assert reduce.bipartite_soft_match(empty, keys).edges == ()
    assert reduce.bipartite_soft_match(keys, empty).edges == ()


# ---------------------------------------------------------------- merging

def _plan(edges):
    """A MatchPlan from (A row, B row, similarity) tuples."""
    return reduce.MatchPlan(*(np.array(column) for column in zip(*edges)))


def _pair_batch():
    feats = np.array([[5.0, 5.0], [0.0, 2.0], [2.0, 0.0], [9.0, 9.0]], np.float32)
    return batch_with_sizes(feats, [1, 1, 3, 1])  # token 2 holds patches {1, 2, 3}


def test_apply_merge_weighted_mean():
    batch = _pair_batch()
    plan = _plan(((1, 2, 1.0),))
    out = reduce.apply_merge(batch, plan, 1)
    assert out.n_tokens == 3
    assert np.array_equal(out.features[0], [5.0, 5.0])
    # (1 * [0,2] + 3 * [2,0]) / 4
    assert np.allclose(out.features[1], [1.5, 0.5])
    assert out.sizes[1] == 4
    assert token_patches(out)[1] == {0, 1, 2, 3}
    assert np.allclose(out.features[2], [9.0, 9.0])


def test_apply_merge_m_zero_is_identity():
    batch = _pair_batch()
    plan = _plan(((1, 2, 1.0),))
    assert reduce.apply_merge(batch, plan, 0) is batch


def test_apply_merge_m_beyond_edges():
    batch = _pair_batch()
    plan = _plan(((1, 2, 1.0),))
    with pytest.raises(RangeError):
        reduce.apply_merge(batch, plan, 2)


def test_apply_merge_multiway_and_cls_remap(rng):
    batch = make_batch(rng, n_img=6, dim=4)  # CLS at 0, image tokens 1..6
    plan = reduce.bipartite_soft_match(
        batch.features[[1, 3]], batch.features[[2, 4]], a_indices=[1, 3], b_indices=[2, 4]
    )
    out = reduce.apply_merge(batch, plan, 2)
    assert out.n_tokens == 5
    assert out.features[0].tobytes() == batch.features[0].tobytes()
    rows = range(batch.n_tokens)  # the plan's edges are token rows already
    ef, es, ep = oracles.merge_bruteforce(
        batch.features, batch.sizes, token_patches(batch), rows, rows, list(plan.edges), 2
    )
    assert np.allclose(out.features, np.stack(ef), atol=1e-6)
    assert list(out.sizes) == es
    assert token_patches(out) == ep
    out.validate()


def test_apply_merge_cls_after_dropped_tokens(rng):
    feats = np.arange(8, dtype=np.float32).reshape(4, 2)
    batch = TokenBatch(features=feats, owner=np.array([1, 2, 3, -1], np.int64), grid=(2, 2))
    plan = _plan(((1, 3, 0.5),))
    out = reduce.apply_merge(batch, plan, 1)
    assert out.n_tokens == 3
    assert out.owner.tolist() == [2, 1, 2, -1]  # token 1 vanished, the pruned cell stays pruned
    assert np.array_equal(out.features[0], feats[0])
    out.validate()


def test_apply_merge_is_bit_identical_to_loop_reference(rng):
    # many A tokens per B token, and a second round over merged (size > 1) tokens;
    # the scatter-add keeps the loop's float64 summation order, so results are equal
    batch = make_batch(rng, n_img=20, dim=8)
    for _ in range(2):
        img = [int(i) for i in batch.image_indices()]
        a_idx, b_idx = img[: 2 * len(img) // 3], img[2 * len(img) // 3 :]
        plan = reduce.bipartite_soft_match(
            batch.features[a_idx], batch.features[b_idx], a_idx, b_idx
        )
        m = len(plan.edges) - 1
        assert len({b for _, b, _ in plan.edges[:m]}) < m  # some B absorbs several A
        out = reduce.apply_merge(batch, plan, m)
        rows = range(batch.n_tokens)  # the plan's edges are token rows already
        ef, es, ep = oracles.merge_bruteforce(
            batch.features, batch.sizes, token_patches(batch), rows, rows, list(plan.edges), m
        )
        assert out.features.tobytes() == np.stack(ef).astype(np.float32).tobytes()
        assert out.sizes.tolist() == es
        assert token_patches(out) == ep
        assert out.features[0].tobytes() == batch.features[0].tobytes()
        out.validate()
        batch = out


def test_match_plan_names_the_oracle_edges_as_token_rows(rng):
    # permuted index maps, so a plan that kept group positions would name the wrong rows
    batch = make_batch(rng, n_img=12, dim=6)
    rows = rng.permutation(np.arange(1, 13)).tolist()
    a_idx, b_idx = rows[:7], rows[7:]
    plan = reduce.bipartite_soft_match(
        batch.features[a_idx], batch.features[b_idx], a_idx, b_idx
    )
    expected = oracles.match_bruteforce(batch.features[a_idx], batch.features[b_idx])
    assert plan.a.tolist() == [a_idx[a] for a, _, _ in expected]
    assert plan.b.tolist() == [b_idx[b] for _, b, _ in expected]
    out = reduce.apply_merge(batch, plan, 5)
    ef, es, ep = oracles.merge_bruteforce(
        batch.features, batch.sizes, token_patches(batch), a_idx, b_idx, expected, 5
    )
    assert token_patches(out) == ep and out.sizes.tolist() == es
    assert np.allclose(out.features, np.stack(ef), atol=1e-6)


# ---------------------------------------------------------------- pruning

def test_prune_keep_counts_and_order(rng):
    batch = make_batch(rng, n_img=10, dim=4)
    scores = np.concatenate([[np.inf], rng.random(10)])
    out, pruned = reduce.prune_keep(batch, scores, 5, False)
    assert out.n_tokens == 6  # CLS + 5
    assert out.features[0].tobytes() == batch.features[0].tobytes()
    assert pruned == 5
    kept_ids = out.token_ids()[1:].tolist()
    assert kept_ids == sorted(kept_ids)  # sequence order preserved
    assert set(kept_ids) == set(np.argsort(-scores[1:])[:5])


def test_prune_keep_tie_prefers_low_index(rng):
    batch = make_batch(rng, n_img=4, dim=4)
    scores = np.array([np.inf, 0.25, 0.25, 0.25, 0.25])
    out, pruned = reduce.prune_keep(batch, scores, 2, False)
    assert pruned == 2
    assert token_patches(out)[1:] == [{0}, {1}]


def test_prune_keep_rate_one_is_noop(rng, small_batch):
    scores = np.concatenate([[np.inf], rng.random(8)])
    out, pruned = reduce.prune_keep(small_batch, scores, 8, False)  # all 8 kept
    assert out is small_batch and pruned == 0


def test_prune_keep_rejects_bad_count(rng, small_batch):
    scores = np.concatenate([[np.inf], rng.random(8)])
    for keep in (-1, 9):
        with pytest.raises(RangeError):
            reduce.prune_keep(small_batch, scores, keep, False)


# ---------------------------------------------------------------- strategy steps

def _evit(keep_rate: float, fuse: bool) -> ReductionConfig:
    """EViT pruning at layer 0."""
    return ReductionConfig(
        strategy="evit", keep_rate=keep_rate, evit_fuse=fuse, prune_layers=frozenset({0})
    )


def _tome(r: int) -> ReductionConfig:
    return ReductionConfig(strategy="tome", tome_reduction=r)


def _sizes_accounted(before: TokenBatch, after: TokenBatch, info: reduce.LayerDiag) -> bool:
    return int(before.sizes.sum()) == int(after.sizes.sum()) + info.pruned_size


def _pruned_patches(before: TokenBatch, after: TokenBatch) -> int:
    """Patches a step pruned: held before it, owned by no token after it."""
    assert not np.any((before.owner == -1) & (after.owner >= 0)), "a pruned patch came back"
    return int(np.count_nonzero((before.owner >= 0) & (after.owner == -1)))


def test_step_none_only_records(rng, small_batch):
    record = fake_record(rng, small_batch)
    out, info = reduce.step_none(small_batch, record, ReductionConfig(), layer=0)
    assert out is small_batch
    assert info.merges_executed == 0 and info.pruned_size == 0
    assert info.n_scored == 8
    assert set(info.token_ids[info.token_ids >= 0].tolist()) == set(range(8))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_step_calls_the_steps_bound_on_the_module(rng, monkeypatch, small_batch, strategy):
    # a tracer replaces reduce.step_<strategy> on the module; reduce.step must
    # call the replacement, and only that one step
    called = []

    def spy(name, real):
        def wrapper(*args):
            called.append(name)
            return real(*args)

        return wrapper

    for name in STRATEGIES:
        monkeypatch.setattr(reduce, f"step_{name}", spy(name, getattr(reduce, f"step_{name}")))
    cfg = ReductionConfig(strategy=strategy, prune_layers=frozenset({0}))
    reduce.step(small_batch, fake_record(rng, small_batch), cfg, 0)
    assert called == [strategy]


def _record_fields(info: LayerDiag) -> list:
    values = [getattr(info, f.name) for f in fields(info)]
    return [(v.dtype, v.tobytes()) if isinstance(v, np.ndarray) else v for v in values]


@pytest.mark.parametrize(
    "cfg",
    [
        ReductionConfig(strategy="evit", prune_layers=frozenset({1})),
        ReductionConfig(strategy="evit", prune_layers=frozenset({1}), evit_fuse=False),
        ReductionConfig(
            strategy="imagepiece", retokenize_layers=frozenset({1}), prune_layers=frozenset({1})
        ),
        ReductionConfig(strategy="tome", tome_reduction=0),
    ],
    ids=["evit", "evit-no-fuse", "imagepiece", "tome-r0"],
)
def test_idle_steps_return_the_batch_and_step_none_record(rng, small_batch, cfg):
    record = fake_record(rng, small_batch)
    out, info = getattr(reduce, f"step_{cfg.strategy}")(small_batch, record, cfg, 0)
    _, expected = reduce.step_none(small_batch, record, ReductionConfig(), 0)
    assert out is small_batch
    assert _record_fields(info) == _record_fields(expected)


def test_step_imagepiece_full_grid(rng):
    batch = make_batch(rng, n_img=196, dim=16, grid=(14, 14))
    record = fake_record(rng, batch)
    cfg = ReductionConfig(strategy="imagepiece", prune_layers=frozenset({5}))
    out, info = reduce.step_imagepiece(batch, record, cfg, layer=0)
    assert info.merges_executed == 15  # floor(0.08 * 196)
    assert len(info.bottom_k_set) == 58  # floor(0.3 * 196), evened
    assert out.n_tokens == 197 - 15
    assert len(info.merged_token_ids) <= 15
    assert len(info.merge_similarities) == 15
    assert _sizes_accounted(batch, out, info)
    out.validate()


def test_step_imagepiece_merges_only_bottom_k(rng):
    batch = make_batch(rng, n_img=50, dim=8, grid=(10, 5))
    record = fake_record(rng, batch)
    cfg = ReductionConfig(strategy="imagepiece", prune_layers=frozenset())
    scores = reduce.score_tokens(record, batch)
    bottom = np.array(oracles.bottom_k_sort(scores, cfg.nonsemantic_proportion))
    # every token holds one patch going in, so token id == original patch id
    ids = batch.token_ids()
    bottom_ids = {int(ids[i]) for i in bottom}
    out, info = reduce.step_imagepiece(batch, record, cfg, layer=0)
    assert info.merges_executed > 0
    before, after = token_patches(batch), token_patches(out)
    for j in range(out.n_tokens):
        if out.sizes[j] > 1:  # merged abstractions are built purely from bottom-k tokens
            assert after[j] <= bottom_ids
    untouched = [i for i in range(batch.n_tokens) if before[i] and ids[i] not in bottom_ids]
    for i in untouched:
        j = [k for k in range(out.n_tokens) if after[k] == before[i]]
        assert len(j) == 1 and np.array_equal(out.features[j[0]], batch.features[i])
    # the ascending bottom-k is dealt alternately: A = [0::2], B = [1::2]
    a_idx, b_idx = bottom[0::2].tolist(), bottom[1::2].tolist()
    metric = reduce.matching_metric(record, np.arange(batch.n_tokens))
    edges = oracles.match_bruteforce(metric[a_idx], metric[b_idx])
    ef, es, ep = oracles.merge_bruteforce(
        batch.features, batch.sizes, before, a_idx, b_idx, edges, info.merges_executed
    )
    assert after == ep and list(out.sizes) == es
    assert np.allclose(out.features, np.stack(ef), atol=1e-5)


def test_step_imagepiece_prune_layer_also_prunes(rng):
    batch = make_batch(rng, n_img=196, dim=16, grid=(14, 14))
    record = fake_record(rng, batch)
    cfg = ReductionConfig(strategy="imagepiece", prune_layers=frozenset({3}))
    out, info = reduce.step_imagepiece(batch, record, cfg, layer=3)
    # 196 - 15 merges = 181 image tokens, then ceil(0.8 * 181) = 145 kept
    assert out.n_tokens == 146
    assert info.pruned_size > 0
    assert _sizes_accounted(batch, out, info)
    assert _pruned_patches(batch, out) == info.pruned_size
    out.validate()


def test_step_imagepiece_prune_only_layer(rng):
    batch = make_batch(rng, n_img=20, dim=8, grid=(5, 4))
    record = fake_record(rng, batch)
    cfg = ReductionConfig(
        strategy="imagepiece", retokenize_layers=frozenset(), prune_layers=frozenset({2}), keep_rate=0.6
    )
    out, info = reduce.step_imagepiece(batch, record, cfg, layer=2)
    assert info.merges_executed == 0
    assert out.n_tokens == 13  # CLS + ceil(0.6 * 20)
    scores = reduce.score_tokens(record, batch)
    direct, dropped_size = reduce.prune_keep(batch, scores, 12, False)
    assert np.array_equal(out.features, direct.features)
    assert info.pruned_size == dropped_size


@settings(max_examples=40, deadline=None)
@given(
    st.integers(8, 48),
    st.sampled_from(["random", "ties", "zero"]),
    st.sampled_from([0.3, 0.5, 0.75, 0.9]),
    st.integers(0, 2**31 - 1),
)
def test_step_imagepiece_prune_keeps_the_oracle_survivors(n_img, attention, keep_rate, seed):
    # a merge and a prune on one layer: the prune ranks what the merge left
    rng = np.random.default_rng(seed)
    batch = make_batch(rng, n_img=n_img, dim=8)
    n = batch.n_tokens
    att = {
        "random": rng.random(n),
        "ties": rng.integers(0, 3, n).astype(np.float64),
        "zero": np.zeros(n),
    }[attention]
    record = AttentionRecord(
        per_head=None,
        class_attention=(att / max(att.sum(), 1.0)).astype(np.float32),
        keys=rng.standard_normal((n, 8)).astype(np.float32),
        heads=2,
    )
    cfg = ReductionConfig(
        strategy="imagepiece",
        nonsemantic_proportion=0.5,
        merge_ratio=0.2,
        keep_rate=keep_rate,
        prune_layers=frozenset({0}),
    )
    out, info = reduce.step_imagepiece(batch, record, cfg, layer=0)

    scores = [math.inf] + record.class_attention[1:].tolist()
    bottom = oracles.bottom_k_sort(scores, 0.5)
    a_idx, b_idx = bottom[0::2], bottom[1::2]
    metric = reduce.matching_metric(record, np.arange(n))
    edges = oracles.match_bruteforce(metric[a_idx], metric[b_idx])
    m = min(math.floor(0.2 * n_img), len(bottom) // 2)
    ef, _, ep = oracles.merge_bruteforce(
        batch.features, batch.sizes, token_patches(batch), a_idx, b_idx, edges, m
    )
    merged_away = {a_idx[a] for a, _, _ in edges[:m]}
    survivors = [i for i in range(n) if i not in merged_away]
    kept = [0] + oracles.prune_after_merge(record.class_attention, survivors, 0, keep_rate)
    assert info.merges_executed == m
    assert token_patches(out) == [ep[j] for j in kept]
    assert np.allclose(out.features, np.stack([ef[j] for j in kept]), atol=1e-5)


def test_step_imagepiece_zero_budget_layer_matches_nothing(rng, monkeypatch):
    # a retokenize layer whose merge budget is 0 still records its bottom-k,
    # but matches nothing and returns the batch as it came
    calls = []
    real = reduce.bipartite_soft_match
    monkeypatch.setattr(
        reduce, "bipartite_soft_match", lambda *args: calls.append(args) or real(*args)
    )
    batch = make_batch(rng, n_img=12, dim=8)
    cfg = ReductionConfig(strategy="imagepiece", merge_ratio=0.02, prune_layers=frozenset())
    assert reduce.merge_count(cfg, 0, 12) == 0  # floor(0.02 * 12)
    out, info = reduce.step(batch, fake_record(rng, batch), cfg, 0)
    assert calls == []
    assert out is batch
    assert len(info.bottom_k) == 2  # floor(0.3 * 12), evened
    assert info.merges_executed == 0 and info.merged_token_ids == ()


def test_step_imagepiece_deterministic(rng):
    batch = make_batch(rng, n_img=60, dim=8, grid=(10, 6))
    record = fake_record(rng, batch)
    cfg = ReductionConfig(strategy="imagepiece", prune_layers=frozenset({0}))
    out1, info1 = reduce.step_imagepiece(batch, record, cfg, layer=0)
    out2, info2 = reduce.step_imagepiece(batch, record, cfg, layer=0)
    assert np.array_equal(out1.features, out2.features)
    assert info1.merged_token_ids == info2.merged_token_ids
    assert np.array_equal(info1.merge_similarities, info2.merge_similarities)


def test_step_evit_counts_and_fused_value(rng):
    batch = make_batch(rng, n_img=196, dim=16, grid=(14, 14))
    record = fake_record(rng, batch)
    out, info = reduce.step_evit(batch, record, _evit(0.7, fuse=True), layer=0)
    assert out.n_tokens == 1 + 138 + 1  # CLS + ceil(0.7 * 196) + fused
    assert info.pruned_size == 0  # nothing leaves the books when fusing
    assert int(out.sizes.sum()) == int(batch.sizes.sum())
    scores = reduce.score_tokens(record, batch)
    _, dropped = reduce._keep_selection(batch, scores, 138)
    att = record.class_attention.astype(np.float64)[dropped]
    expected = (att / att.sum())[:, None] * batch.features[dropped].astype(np.float64)
    assert np.allclose(out.features[-1], expected.sum(axis=0), atol=1e-5)
    before = token_patches(batch)
    assert token_patches(out)[-1] == set().union(*(before[i] for i in dropped))
    out.validate()


def test_step_evit_no_fuse_drops_size(rng):
    batch = make_batch(rng, n_img=20, dim=8, grid=(5, 4))
    record = fake_record(rng, batch)
    out, info = reduce.step_evit(batch, record, _evit(0.5, fuse=False), layer=0)
    assert out.n_tokens == 11
    assert info.pruned_size == 10
    assert _pruned_patches(batch, out) == 10
    assert _sizes_accounted(batch, out, info)


def test_step_evit_keep_all_is_noop(rng, small_batch):
    record = fake_record(rng, small_batch)
    out, info = reduce.step_evit(small_batch, record, _evit(1.0, fuse=True), layer=0)
    assert out is small_batch and info.pruned_size == 0


def test_step_tome_matches_bruteforce(rng):
    batch = make_batch(rng, n_img=6, dim=8)
    record = fake_record(rng, batch)
    out, info = reduce.step_tome(batch, record, _tome(2), layer=0)
    assert out.n_tokens == 5 and info.merges_executed == 2
    metric = reduce.matching_metric(record, np.arange(batch.n_tokens))
    img = [int(i) for i in batch.image_indices()]
    a_idx, b_idx = img[0::2], img[1::2]
    edges = oracles.match_bruteforce(metric[a_idx], metric[b_idx])
    ef, es, ep = oracles.merge_bruteforce(
        batch.features, batch.sizes, token_patches(batch), a_idx, b_idx, edges, 2
    )
    assert np.allclose(out.features, np.stack(ef), atol=1e-5)
    assert list(out.sizes) == es


def test_step_tome_r_zero_and_edge_cap(rng):
    batch = make_batch(rng, n_img=5, dim=8)
    record = fake_record(rng, batch)
    out, info = reduce.step_tome(batch, record, _tome(0), layer=0)
    assert out is batch and info.merges_executed == 0
    out, info = reduce.step_tome(batch, record, _tome(99), layer=0)
    assert info.merges_executed == 3  # ceil(5 / 2) edges available
    assert out.n_tokens == 3


def test_matching_metric_averages_heads(rng):
    batch = make_batch(rng, n_img=3, dim=8)
    record = fake_record(rng, batch, heads=2)
    metric = reduce.matching_metric(record, np.arange(4))
    assert metric.shape == (4, 4)
    assert np.allclose(metric[1], (record.keys[1, :4] + record.keys[1, 4:]) / 2, atol=1e-6)


@pytest.mark.parametrize("rows, heads", [(196, 4), (58, 6), (1, 1)])
def test_matching_metric_sums_heads_in_reduce_order(rng, rows, heads):
    # summing the head slices in order gives the bytes of np.add.reduce over the head axis
    keys = rng.standard_normal((200, heads * 8)).astype(np.float32) * 3
    record = AttentionRecord(per_head=None, class_attention=None, keys=keys, heads=heads)
    picked = rng.permutation(200)[:rows]
    expected = np.add.reduce(keys[picked].reshape(rows, heads, 8), axis=1) / heads
    assert reduce.matching_metric(record, picked).tobytes() == expected.tobytes()


def _profiled_calls(fn) -> int:
    """Python and C-level function calls made while fn() runs."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("strategy", ["imagepiece", "tome"])
def test_step_calls_do_not_grow_with_token_count(rng, strategy):
    # a step's bookkeeping is array code: no Python call per token
    cfg = ReductionConfig(strategy="imagepiece", prune_layers=frozenset({0}))
    counts = []
    for n_img, grid in ((196, (14, 14)), (49, (7, 7))):
        batch = make_batch(rng, n_img=n_img, dim=16, grid=grid)
        record = fake_record(rng, batch)
        if strategy == "imagepiece":
            step = lambda: reduce.step_imagepiece(batch, record, cfg, layer=0)  # noqa: E731
        else:
            step = lambda: reduce.step_tome(batch, record, _tome(13), layer=0)  # noqa: E731
        step()  # warm-up: first calls may import or cache
        _, info = step()
        assert info.merges_executed > 0
        counts.append(_profiled_calls(step))
    assert counts[0] == counts[1]


# ---------------------------------------------------------------- shared invariants

@settings(max_examples=30, deadline=None)
@given(st.integers(4, 40), st.sampled_from(STRATEGIES), st.integers(0, 2**31 - 1))
def test_steps_conserve_patch_accounting(n_img, strategy, seed):
    rng = np.random.default_rng(seed)
    batch = make_batch(rng, n_img=n_img, dim=8)
    record = fake_record(rng, batch)
    if strategy == "none":
        out, info = reduce.step_none(batch, record, ReductionConfig(), layer=0)
    elif strategy == "imagepiece":
        cfg = ReductionConfig(strategy="imagepiece", prune_layers=frozenset({0}), keep_rate=0.75)
        out, info = reduce.step_imagepiece(batch, record, cfg, layer=0)
    elif strategy == "evit":
        out, info = reduce.step_evit(batch, record, _evit(0.75, fuse=bool(seed % 2)), layer=0)
    else:
        out, info = reduce.step_tome(batch, record, _tome(seed % 4), layer=0)
    out.validate()
    assert int(batch.sizes.sum()) == int(out.sizes.sum()) + info.pruned_size
    assert _pruned_patches(batch, out) == info.pruned_size
    # row 0 is the class token: it holds no patch, and no step touches it
    assert not np.any(out.owner == 0)
    assert out.features[0].tobytes() == batch.features[0].tobytes()
    assert reduce.score_tokens(record, batch)[0] == np.inf
