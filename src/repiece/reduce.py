"""Token-reduction strategies and their shared primitives.

`step(batch, record, cfg, layer)` runs between the attention and MLP halves of
an encoder layer. It calls `step_<cfg.strategy>`, and all four of those run
one step body. What that body does at a layer comes from one plan, the only
code here that names a strategy or weighs a count knob: which rows it
matches and how many, how many pairs of them it merges, how many image
tokens a prune then keeps, and whether that prune fuses. Three strategies
reduce:

- "imagepiece": retokenization. At its retokenization layers the least
  class-attentive tokens (bottom-k) are merged among themselves, up to a
  budget of pairs, into weighted-mean abstractions; attentive tokens are never
  touched. At its prune layers the post-merge survivors are then ranked by the
  layer's class attention and pruned.
- "evit": attentiveness pruning. The least class-attentive tokens are dropped
  at the prune layers, optionally fused into one attention-weighted token.
- "tome": similarity merging over *all* image tokens, a fixed number of pairs
  per layer.

The plan is the one count rule: the step reads every count from it, as
`merge_count` (pairs merged) and `tokens_after` (image tokens left) do, and
`diag.token_schedule` folds `tokens_after`. A merge deals its rows alternately
into groups A ([0::2]) and B ([1::2]), matches each A token to its most
similar B token on head-averaged keys (ToMe's bipartite soft matching) and
merges the plan's best pairs: the bottom-k in ascending score order, or every
image token in sequence order. Every prune calls `prune_keep` with the plan's
keep count.

All selection is deterministic: every tie breaks toward the lower index. The
data path is numpy arrays throughout: selections are stable argsorts of the
scores (equal keys keep their index order), a MatchPlan holds its edges as
parallel arrays of token rows, and a merge takes the plan's first m edges.

Every step returns the new batch and its layer's finished LayerDiag record.
It keeps the step's token ids and scores and, as rows of that input, the
bottom-k and each merge's A and B rows. Ids and counts are derived from them
only when read, and attentiveness ranks only by `diag.merged_topk_overlap`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import numerics
from .config import ReductionConfig
from .embed import TokenBatch
from .errors import DimensionError, RangeError


@dataclass(frozen=True)
class AttentionRecord:
    """What one attention pass saw, for scoring and matching.

    The encoder's attention half (`vit.mhsa_forward`) captures one per layer
    and hands it to that layer's reduction step.

    per_head: post-softmax attention maps, [heads x N_q x N_k]: a
        non-contiguous view of the key-major [N_k x heads x N_q] softmax
        output, not a copy.
    class_attention: the class token's query row (row 0) averaged over
        heads, [N].
    keys: the pre-head-split key matrix, [N x D]: a view into the layer's
        qkv product, not a copy.
    """

    per_head: np.ndarray
    class_attention: np.ndarray
    keys: np.ndarray
    heads: int


def _no_rows() -> np.ndarray:
    return np.zeros(0, dtype=np.intp)


@dataclass(frozen=True)
class LayerDiag:
    """Per-layer record of what the encoder and its reduction step did.

    token_count is the sequence length (CLS included) after the layer's
    reduction. token_ids and scores are the step's input: each token's id
    (the smallest original patch it holds; CLS -1) and its score (CLS +inf).
    The other arrays hold rows of that input: bottom_k the bottom-k rows in
    ascending score order, merged_a and merged_b one A row and its B partner
    per executed merge, best edge first, and merge_similarities (float64)
    each merge's similarity. Ids, which stay meaningful across layers even
    as tokens merge, are derived from the rows when read.
    `diag.RunDiag.to_dict` picks what a run report shows.
    """

    layer: int
    token_count: int
    token_ids: np.ndarray
    scores: np.ndarray
    pruned_size: int = 0
    bottom_k: np.ndarray = field(default_factory=_no_rows)
    merged_a: np.ndarray = field(default_factory=_no_rows)
    merged_b: np.ndarray = field(default_factory=_no_rows)
    merge_similarities: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def bottom_k_set(self) -> tuple[int, ...]:
        return tuple(self.token_ids[self.bottom_k].tolist())

    @property
    def merged_token_ids(self) -> tuple[int, ...]:
        """Ids of the merge results, ascending by B row: a result holds its B
        token's patches and its partners', so its id is the smallest of theirs."""
        ids = self.token_ids.copy()
        np.minimum.at(ids, self.merged_b, self.token_ids[self.merged_a])
        return tuple(ids[np.bincount(self.merged_b).nonzero()[0]].tolist())  # B rows, ascending

    @property
    def merges_executed(self) -> int:
        return len(self.merge_similarities)

    @property
    def mean_merge_similarity(self) -> float | None:
        sims = self.merge_similarities
        return float(np.mean(sims)) if sims.size else None

    @property
    def n_scored(self) -> int:
        """Image tokens scored: every token but CLS at row 0."""
        return len(self.token_ids) - 1


@dataclass(frozen=True)
class MatchPlan:
    """Candidate merge edges, best-first, as parallel arrays of token rows.

    Edge e merges A row a[e] into B row b[e] at cosine similarity
    similarity[e] (float64). Edges are sorted by similarity descending, ties
    to the lower A position in its group. Each A row appears at most once;
    B rows may repeat.
    """

    a: np.ndarray
    b: np.ndarray
    similarity: np.ndarray

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """The edges as (A row, B row, similarity) tuples, built on access."""
        return tuple(zip(self.a.tolist(), self.b.tolist(), self.similarity.tolist()))


def score_tokens(record: AttentionRecord, batch: TokenBatch) -> np.ndarray:
    """Per-token importance: the class-attention vector, CLS pinned to +inf.

    The +inf sentinel keeps the class token out of every bottom-k selection.
    """
    scores = np.array(record.class_attention, dtype=np.float64)
    if scores.shape[0] != batch.n_tokens:
        raise DimensionError(
            f"attention record covers {scores.shape[0]} tokens, batch has {batch.n_tokens}"
        )
    scores[0] = np.inf
    return scores


def matching_metric(record: AttentionRecord, rows: np.ndarray) -> np.ndarray:
    """Similarity feature space for matching: key vectors averaged across heads.

    Only the given token rows are computed, in the given order.
    """
    keys = np.asarray(record.keys, dtype=np.float32)[rows]
    head_dim = keys.shape[1] // record.heads
    # head slices summed in order: the bytes of np.add.reduce over the head
    # axis, without its strided middle-axis loop
    metric = keys[:, :head_dim].copy()
    for h in range(1, record.heads):
        metric += keys[:, h * head_dim : (h + 1) * head_dim]
    return metric / record.heads


def bottom_k_count(n_img: int, p: float) -> int:
    """Size of the non-semantic set: floor(p * n_img), rounded down to even."""
    k = int(math.floor(p * n_img))
    return k - (k % 2)


def _plan(
    cfg: ReductionConfig, layer: int, n_img: int
) -> tuple[str | None, int, int, int | None, bool]:
    """What the configured step does at a layer entered with n_img image tokens:
    the rows it matches ("bottom-k", "all" image rows, or None) and their count
    k, the pairs m it merges of them, the image tokens a prune then keeps (None
    when the layer does not prune), and whether that prune fuses.

    The bottom-k holds bottom_k_count(n_img, p) rows and merges
    floor(merge_ratio * n_img) pairs, capped by its k / 2 edges; tome merges
    tome_reduction pairs of all rows, capped by their ceil(n_img / 2) edges and
    none below two tokens. A prune keeps ceil(keep_rate * (n_img - m)). The
    only code here that names a strategy or weighs a count knob."""
    match, k, m = None, 0, 0
    if cfg.strategy == "tome":
        match, k = "all", n_img
        m = min(cfg.tome_reduction, (n_img + 1) // 2) if n_img > 1 else 0
    elif cfg.strategy == "imagepiece" and cfg.retokenize_at(layer):
        match, k = "bottom-k", bottom_k_count(n_img, cfg.nonsemantic_proportion)
        m = min(math.floor(cfg.merge_ratio * n_img), k // 2)
    keep = None
    if cfg.strategy in ("imagepiece", "evit") and cfg.prune_at(layer):
        keep = math.ceil(cfg.keep_rate * (n_img - m))
    return match, k, m, keep, cfg.strategy == "evit" and cfg.evit_fuse


def merge_count(cfg: ReductionConfig, layer: int, n_img: int) -> int:
    """Pairs the configured step merges at a layer entered with n_img image
    tokens, as its plan says."""
    return _plan(cfg, layer, n_img)[2]


def tokens_after(cfg: ReductionConfig, layer: int, n_img: int) -> int:
    """Image tokens the configured step leaves of n_img, as its plan says: the
    pairs merged, or, if it prunes, the keep count, plus the fused token when
    anything was dropped."""
    _, _, m, keep, fuse = _plan(cfg, layer, n_img)
    if keep is None:
        return n_img - m
    return keep + int(fuse and keep < n_img - m)


def bipartite_soft_match(
    a_keys: np.ndarray,
    b_keys: np.ndarray,
    a_indices: Sequence[int] | np.ndarray | None = None,
    b_indices: Sequence[int] | np.ndarray | None = None,
) -> MatchPlan:
    """Connect each A token to its most similar B token, best edges first.

    Similarity is cosine over the supplied [n x d] key rows. Ties in the per-A
    argmax go to the lowest B position; the edges are sorted by similarity
    descending with ties to the lower A position. a_indices/b_indices give
    each group position's token row; they default to the positions.
    """
    n_a, n_b = len(a_keys), len(b_keys)
    if n_a == 0 or n_b == 0:
        none = np.zeros(0, dtype=np.intp)
        return MatchPlan(none, none, np.zeros(0))
    a_indices = np.arange(n_a) if a_indices is None else np.asarray(a_indices, dtype=np.intp)
    b_indices = np.arange(n_b) if b_indices is None else np.asarray(b_indices, dtype=np.intp)
    sims = numerics.cosine_similarity_matrix(a_keys, b_keys)
    best_b = sims.argmax(axis=1)  # first occurrence wins ties
    best_sim = sims[np.arange(n_a), best_b].astype(np.float64)
    order = (-best_sim).argsort(kind="stable")
    return MatchPlan(a_indices[order], b_indices[best_b[order]], best_sim[order])


def _moved(batch: TokenBatch, features: np.ndarray, new_pos: np.ndarray) -> TokenBatch:
    """A batch of the given features, its patches moved by new_pos: per old
    token position, the new one, or -1 to prune. The class token stays at 0."""
    owner = new_pos[batch.owner]
    owner[batch.owner < 0] = -1
    return TokenBatch(features=features, owner=owner, grid=batch.grid)


def apply_merge(batch: TokenBatch, plan: MatchPlan, m: int) -> TokenBatch:
    """Execute the top-m edges of a plan as size-weighted mean merges.

    A B token that receives several selected edges absorbs all its A partners
    in one multi-way weighted mean. Merged tokens keep the B token's sequence
    position; A-side tokens disappear, so the token count drops by exactly m.
    """
    if m > plan.a.shape[0]:
        raise RangeError(f"m={m} exceeds {plan.a.shape[0]} candidate edges")
    if m <= 0:
        return batch

    a, b = plan.a[:m], plan.b[:m]
    n = batch.n_tokens
    # every A token now points at its B partner, then the survivors close ranks
    # (A and B are disjoint, so the survivors are the tokens pointing at themselves)
    target = np.arange(n)
    target[a] = b
    keep = target == np.arange(n)
    new_pos = (keep.cumsum() - 1)[target]

    # float64 size-weighted sums, scatter-added in edge order onto each B token;
    # the scatter runs over flat element indices, numpy's fast path for add.at
    sizes = batch.sizes
    targets = np.bincount(b).nonzero()[0]  # distinct B tokens, ascending
    sums = batch.features[targets].astype(np.float64) * sizes[targets, None]
    d = sums.shape[1]
    flat = (targets.searchsorted(b)[:, None] * d + np.arange(d)).reshape(-1)
    partners = batch.features[a].astype(np.float64) * sizes[a, None]
    np.add.at(sums.reshape(-1), flat, partners.reshape(-1))
    merged_sizes = np.bincount(target, weights=sizes)[targets]  # each token's size flows to its target
    feats = batch.features[keep]
    feats[new_pos[targets]] = sums / merged_sizes[:, None]
    return _moved(batch, feats, new_pos)


def _keep_selection(
    batch: TokenBatch, scores: np.ndarray, keep: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split image-token indices into (kept, dropped), each ascending.

    The kept tokens are the `keep` best by descending score, ties to the lower
    index.
    """
    img = batch.image_indices()
    if not 0 <= keep <= img.shape[0]:
        raise RangeError(f"keep must lie in [0, {img.shape[0]}], got {keep}")
    order = img[(-np.asarray(scores, dtype=np.float64)[img]).argsort(kind="stable")]
    kept, dropped = order[:keep], order[keep:]
    kept.sort()
    dropped.sort()
    return kept, dropped


def prune_keep(
    batch: TokenBatch, scores: np.ndarray, keep: int, fuse: bool
) -> tuple[TokenBatch, int]:
    """Keep CLS plus the `keep` best-scoring image tokens; a count outside
    [0, n_img] raises RangeError.

    Survivors stay in sequence order. Without fuse the dropped tokens' patches
    are pruned and their total size (original-patch count) is returned. With
    fuse they become one appended token, their score-weighted mean, and 0 is.
    """
    kept, dropped = _keep_selection(batch, scores, keep)
    if dropped.shape[0] == 0:
        return batch, 0
    alive = np.zeros(batch.n_tokens, dtype=bool)
    alive[kept] = True
    alive[0] = True
    new_pos = alive.cumsum() - 1
    feats = batch.features[alive]
    if not fuse:
        new_pos[dropped] = -1
        return _moved(batch, feats, new_pos), int(batch.sizes[dropped].sum())
    att = np.asarray(scores, dtype=np.float64)[dropped]
    total = att.sum()
    weights = att / total if total > 0 else np.full(dropped.shape[0], 1.0 / dropped.shape[0])
    fused = (weights[:, None] * batch.features[dropped].astype(np.float64)).sum(axis=0)
    new_pos[dropped] = feats.shape[0]
    feats = np.concatenate([feats, fused.astype(np.float32)[None, :]], axis=0)
    return _moved(batch, feats, new_pos), 0


def step(
    batch: TokenBatch, record: AttentionRecord, cfg: ReductionConfig, layer: int
) -> tuple[TokenBatch, LayerDiag]:
    """The configured strategy's reduction step for one layer.

    step_<strategy> is looked up by name when called, so a step replaced on
    this module (by a tracer, say) is the one that runs.
    """
    return globals()[f"step_{cfg.strategy}"](batch, record, cfg, layer)


def _step(
    batch: TokenBatch, record: AttentionRecord, cfg: ReductionConfig, layer: int
) -> tuple[TokenBatch, LayerDiag]:
    """Every strategy's step: score, then match and merge the plan's rows, then
    maybe prune. A layer whose plan does neither returns the batch as it came.

    Scores are this layer's class attention, so merged abstractions are
    re-scored by the *next* layer. The rows are dealt alternately into A
    ([0::2]) and B ([1::2]), each A row is matched to its most similar B row on
    head-averaged keys, and the best pairs merge, as many as the plan says. A
    prune ranks the post-merge survivors by this layer's scores, the
    merged-away rows left out.
    """
    match, k, m, keep, fuse = _plan(cfg, layer, batch.n_image_tokens)
    scores = score_tokens(record, batch)
    ids = batch.token_ids()
    bottom = merged_a = merged_b = _no_rows()
    sims = np.zeros(0)

    if match is not None:
        rows = batch.image_indices()
        if match == "bottom-k":
            rows = bottom = scores.argsort(kind="stable")[:k]  # CLS's +inf sorts last
        if m:
            metric = matching_metric(record, rows)  # rows dealt like the indices
            plan = bipartite_soft_match(metric[0::2], metric[1::2], rows[0::2], rows[1::2])
            merged_a, merged_b, sims = plan.a[:m], plan.b[:m], plan.similarity[:m]
            batch = apply_merge(batch, plan, m)

    pruned_size = 0
    if keep is not None:
        # the paper renormalizes first; a positive total cannot reorder or tie float32-born scores
        batch, pruned_size = prune_keep(batch, np.delete(scores, merged_a), keep, fuse)
    return batch, LayerDiag(
        layer, batch.n_tokens, ids, scores, pruned_size, bottom, merged_a, merged_b, sims
    )


# One name per strategy, each running the shared step for whatever cfg plans:
# the names let a tracer wrap and time each strategy's steps apart.


def step_none(
    batch: TokenBatch, record: AttentionRecord, cfg: ReductionConfig, layer: int
) -> tuple[TokenBatch, LayerDiag]:
    """No reduction; still records the scores so diagnostics see every layer."""
    return _step(batch, record, cfg, layer)


def step_imagepiece(
    batch: TokenBatch, record: AttentionRecord, cfg: ReductionConfig, layer: int
) -> tuple[TokenBatch, LayerDiag]:
    """Retokenization: merge within the bottom-k at the retokenization layers,
    then prune (unfused) at the prune layers."""
    return _step(batch, record, cfg, layer)


def step_evit(
    batch: TokenBatch, record: AttentionRecord, cfg: ReductionConfig, layer: int
) -> tuple[TokenBatch, LayerDiag]:
    """Attentiveness pruning at the prune layers, fused into one attention-weighted
    token with evit_fuse."""
    return _step(batch, record, cfg, layer)


def step_tome(
    batch: TokenBatch, record: AttentionRecord, cfg: ReductionConfig, layer: int
) -> tuple[TokenBatch, LayerDiag]:
    """Global similarity merging at every layer, over all image rows. No pruning."""
    return _step(batch, record, cfg, layer)
