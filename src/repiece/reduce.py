"""Token-reduction strategies and their shared primitives.

Three reducing strategies operate on a TokenBatch between the attention and MLP
halves of an encoder layer:

- "imagepiece": retokenization. The least class-attentive tokens (bottom-k)
  are split into two interleaved groups, each group-A token is matched to its
  most similar group-B token, and the top-m pairs are merged into weighted-mean
  abstractions. Attentive tokens are never touched. At designated layers the
  post-merge batch is additionally pruned by class attention.
- "evit": attentiveness pruning. The least class-attentive tokens are dropped
  at designated layers, optionally fused into one attention-weighted token.
- "tome": similarity merging over *all* image tokens, alternating by sequence
  position, a fixed number of pairs per layer.

All selection is deterministic: every tie breaks toward the lower index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import numerics
from .config import ReductionConfig
from .embed import TokenBatch
from .errors import DimensionError, RangeError

if TYPE_CHECKING:
    from .vit import AttentionRecord


@dataclass(frozen=True)
class MatchPlan:
    """Candidate merge edges between groups A and B, best-first.

    edges: (position in A, position in B, cosine similarity), sorted by
    similarity descending (ties: lower A position first). Each A position
    appears at most once; B positions may repeat.
    a_indices/b_indices: the global token indices the group positions refer to.
    """

    edges: tuple[tuple[int, int, float], ...]
    a_indices: tuple[int, ...]
    b_indices: tuple[int, ...]


@dataclass
class StepInfo:
    """What one reduction step did, for diagnostics accumulation."""

    merges_executed: int = 0
    merge_similarities: list[float] = field(default_factory=list)
    bottom_k_ids: list[int] = field(default_factory=list)
    merged_token_ids: list[int] = field(default_factory=list)  # ids of merge results
    merged_endpoint_ranks: list[int] = field(default_factory=list)
    n_scored: int = 0
    pruned_size: int = 0
    scores_by_id: dict[int, float] = field(default_factory=dict)


def score_tokens(record: "AttentionRecord", batch: TokenBatch) -> np.ndarray:
    """Per-token importance: the class-attention vector, CLS pinned to +inf.

    The +inf sentinel keeps the class token out of every bottom-k selection.
    """
    scores = np.asarray(record.class_attention, dtype=np.float64)
    if scores.shape[0] != batch.n_tokens:
        raise DimensionError(
            f"attention record covers {scores.shape[0]} tokens, batch has {batch.n_tokens}"
        )
    scores = scores.copy()
    if batch.cls_index is not None:
        scores[batch.cls_index] = np.inf
    return scores


def matching_metric(record: "AttentionRecord") -> np.ndarray:
    """Similarity feature space for matching: key vectors averaged across heads."""
    keys = np.asarray(record.keys, dtype=np.float32)
    n = keys.shape[0]
    return keys.reshape(n, record.heads, -1).mean(axis=1)


def bottom_k_count(n_img: int, p: float) -> int:
    """Size of the non-semantic set: floor(p * n_img), rounded down to even."""
    k = int(math.floor(p * n_img))
    return k - (k % 2)


def merge_budget(n_img: int, merge_ratio: float, p: float) -> int:
    """Merges per retokenization: floor(merge_ratio * n_img), capped by the edge count."""
    return min(int(math.floor(merge_ratio * n_img)), bottom_k_count(n_img, p) // 2)


def keep_count(n_img: int, keep_rate: float) -> int:
    """Image tokens surviving a prune: ceil(keep_rate * n_img)."""
    return min(n_img, int(math.ceil(keep_rate * n_img)))


def select_bottom_k(scores: np.ndarray, p: float) -> list[int]:
    """Indices of the k lowest-scoring tokens, ascending by (score, index).

    k = floor(p * n) rounded down to even, where n counts only finite scores
    (+inf sentinels, i.e. CLS, are excluded from both n and the result).
    """
    if not 0.0 < p < 1.0:
        raise RangeError(f"p must lie in (0, 1), got {p}")
    scores = np.asarray(scores, dtype=np.float64)
    n_img = int(np.isfinite(scores).sum())
    k = bottom_k_count(n_img, p)
    if k == 0:
        return []
    order = np.lexsort((np.arange(scores.shape[0]), scores))
    return [int(i) for i in order[:k]]


def alternating_split(bottom: Sequence[int]) -> tuple[list[int], list[int]]:
    """Deal a score-ascending index list into two equal groups, alternating."""
    if len(bottom) % 2:
        raise DimensionError(f"alternating_split needs an even-length list, got {len(bottom)}")
    return list(bottom[0::2]), list(bottom[1::2])


def bipartite_soft_match(
    a_keys: np.ndarray,
    b_keys: np.ndarray,
    a_indices: Sequence[int] | None = None,
    b_indices: Sequence[int] | None = None,
) -> MatchPlan:
    """Connect each A token to its most similar B token, best edges first.

    Similarity is cosine over the supplied key vectors. Ties in the per-A
    argmax go to the lowest B position; the edge list is sorted by similarity
    descending with ties to the lower A position.
    """
    a_keys = np.atleast_2d(numerics.as_f32(a_keys))
    b_keys = np.atleast_2d(numerics.as_f32(b_keys))
    if a_keys.shape[0] == 0 or b_keys.shape[0] == 0:
        return MatchPlan(edges=(), a_indices=(), b_indices=())
    if a_indices is None:
        a_indices = range(a_keys.shape[0])
    if b_indices is None:
        b_indices = range(b_keys.shape[0])
    sims = numerics.cosine_similarity_matrix(a_keys, b_keys).astype(np.float64)
    best_b = sims.argmax(axis=1)  # first occurrence wins ties
    best_sim = sims[np.arange(sims.shape[0]), best_b]
    order = np.lexsort((np.arange(sims.shape[0]), -best_sim))
    edges = tuple(zip(order.tolist(), best_b[order].tolist(), best_sim[order].tolist()))
    return MatchPlan(edges=edges, a_indices=tuple(a_indices), b_indices=tuple(b_indices))


def _relabel(owner: np.ndarray, new_pos: np.ndarray) -> np.ndarray:
    """Move every patch to its token's new position; -1 (pruned) stays -1.

    new_pos holds, per old token position, the new position or -1 to prune.
    """
    return np.append(new_pos, -1)[owner]


def apply_merge(batch: TokenBatch, plan: MatchPlan, m: int) -> TokenBatch:
    """Execute the top-m edges of a plan as size-weighted mean merges.

    A B token that receives several selected edges absorbs all its A partners
    in one multi-way weighted mean. Merged tokens keep the B token's sequence
    position; A-side tokens disappear, so the token count drops by exactly m.
    """
    if m > len(plan.edges):
        raise RangeError(f"m={m} exceeds {len(plan.edges)} candidate edges")
    if m <= 0:
        return batch

    executed = plan.edges[:m]
    a = np.array([plan.a_indices[e[0]] for e in executed], dtype=np.intp)
    b = np.array([plan.b_indices[e[1]] for e in executed], dtype=np.intp)
    # every A token now points at its B partner, then the survivors close ranks
    keep = np.ones(batch.n_tokens, dtype=bool)
    keep[a] = False
    target = np.arange(batch.n_tokens)
    target[a] = b
    new_pos = (np.cumsum(keep) - 1)[target]

    # float64 size-weighted sums, scatter-added in edge order onto each B token
    sizes = batch.sizes
    targets = np.unique(b)
    sums = batch.features[targets].astype(np.float64) * sizes[targets, None]
    np.add.at(sums, np.searchsorted(targets, b), batch.features[a].astype(np.float64) * sizes[a, None])
    merged_sizes = np.bincount(target, weights=sizes)[targets]  # each token's size flows to its target
    feats = batch.features.copy()
    feats[targets] = sums / merged_sizes[:, None]
    return TokenBatch(
        features=feats[keep],
        owner=_relabel(batch.owner, new_pos),
        cls_index=None if batch.cls_index is None else int(new_pos[batch.cls_index]),
        grid=batch.grid,
    )


def _keep_selection(
    batch: TokenBatch, scores: np.ndarray, keep_rate: float
) -> tuple[list[int], list[int]]:
    """Split image-token indices into (kept, dropped) by descending score."""
    if not 0.0 < keep_rate <= 1.0:
        raise RangeError(f"keep_rate must lie in (0, 1], got {keep_rate}")
    img = batch.image_indices()
    keep = keep_count(img.shape[0], keep_rate)
    img_scores = np.asarray(scores, dtype=np.float64)[img]
    order = np.lexsort((img, -img_scores))
    kept = sorted(int(img[j]) for j in order[:keep])
    dropped = sorted(int(img[j]) for j in order[keep:])
    return kept, dropped


def _gather(
    batch: TokenBatch, kept: list[int], dropped: list[int], fused: np.ndarray | None = None
) -> TokenBatch:
    """CLS plus the kept tokens, in sequence order.

    The dropped tokens' patches are pruned (owner -1), or, when a fused
    feature row is given, handed to one extra token appended at the end.
    """
    survivors = sorted(kept + ([batch.cls_index] if batch.cls_index is not None else []))
    new_pos = np.full(batch.n_tokens, -1)
    new_pos[survivors] = np.arange(len(survivors))
    feats = batch.features[survivors]
    if fused is not None:
        new_pos[dropped] = len(survivors)
        feats = np.concatenate([feats, fused[None, :]], axis=0)
    return TokenBatch(
        features=numerics.as_f32(feats),
        owner=_relabel(batch.owner, new_pos),
        cls_index=None if batch.cls_index is None else int(new_pos[batch.cls_index]),
        grid=batch.grid,
    )


def prune_keep(
    batch: TokenBatch, scores: np.ndarray, keep_rate: float
) -> tuple[TokenBatch, int]:
    """Keep CLS plus the ceil(keep_rate * n_img) best-scoring image tokens.

    Survivors stay in sequence order. Returns the batch and the total size
    (original-patch count) that was discarded.
    """
    kept, dropped = _keep_selection(batch, scores, keep_rate)
    if not dropped:
        return batch, 0
    return _gather(batch, kept, dropped), int(batch.sizes[dropped].sum())


def _image_ranks(scores: np.ndarray, batch: TokenBatch) -> np.ndarray:
    """Attentiveness rank (0 = most attentive) per token position; CLS gets -1.

    Defined as the exact mirror of the bottom-k ascending order, so a token
    inside the bottom-k can never hold a top rank even when scores tie.
    """
    img = batch.image_indices()
    img_scores = np.asarray(scores, dtype=np.float64)[img]
    ascending = np.lexsort((img, img_scores))
    ranks = np.full(batch.n_tokens, -1, dtype=np.int64)
    ranks[img[ascending]] = np.arange(img.shape[0] - 1, -1, -1)
    return ranks


def _begin_step(batch: TokenBatch, scores: np.ndarray) -> tuple[StepInfo, np.ndarray]:
    """Start the step's record; also returns the token ids, computed once per step."""
    ids = batch.token_ids()
    info = StepInfo()
    info.n_scored = batch.n_image_tokens
    img = batch.image_indices()
    info.scores_by_id = dict(zip(ids[img].tolist(), scores[img].tolist()))
    return info, ids


def _merge_and_record(
    batch: TokenBatch,
    plan: MatchPlan,
    m: int,
    scores: np.ndarray,
    ids: np.ndarray,
    info: StepInfo,
) -> tuple[TokenBatch, np.ndarray]:
    """Merge the top-m edges of a plan and record them in info.

    ids are the pre-merge token ids. Returns the merged batch and, per
    surviving token, its position before the merge.
    """
    ranks = _image_ranks(scores, batch)
    executed = plan.edges[:m]
    merged_a = [plan.a_indices[a] for a, _, _ in executed]
    partners = [plan.b_indices[b] for _, b, _ in executed]
    merged_b = sorted(set(partners))
    info.merge_similarities = [float(s) for _, _, s in executed]
    info.merged_endpoint_ranks = ranks[merged_a + merged_b].tolist()
    keep = np.ones(batch.n_tokens, dtype=bool)
    keep[merged_a] = False
    survivor_origin = np.flatnonzero(keep)
    batch = apply_merge(batch, plan, m)
    info.merges_executed = m
    # a merged token holds its B token's patches and its partners': its id
    # (smallest patch) is the smallest of their ids
    merged_ids = ids.copy()
    np.minimum.at(merged_ids, partners, ids[merged_a])
    info.merged_token_ids = merged_ids[merged_b].tolist()
    return batch, survivor_origin


def step_none(batch: TokenBatch, record: "AttentionRecord") -> tuple[TokenBatch, StepInfo]:
    """No reduction; still records the scores so diagnostics see every layer."""
    info, _ = _begin_step(batch, score_tokens(record, batch))
    return batch, info


def step_imagepiece(
    batch: TokenBatch,
    record: "AttentionRecord",
    cfg: ReductionConfig,
    layer: int,
) -> tuple[TokenBatch, StepInfo]:
    """One retokenization step: score, merge within the bottom-k, then maybe prune.

    Scoring uses the class attention captured by this layer's attention pass.
    Only bottom-k tokens ever appear in a merge; the merged abstractions are
    re-scored by the *next* layer's attention (that is the re-organization).
    When this layer also prunes, the prune scores are this layer's class
    attention restricted to the post-merge survivors and renormalized.
    """
    scores = score_tokens(record, batch)
    info, ids = _begin_step(batch, scores)
    survivor_origin = list(range(batch.n_tokens))

    if cfg.retokenize_at(layer):
        bottom = select_bottom_k(scores, cfg.nonsemantic_proportion)
        info.bottom_k_ids = ids[bottom].tolist()
        if bottom:
            a_idx, b_idx = alternating_split(bottom)
            metric = matching_metric(record)
            plan = bipartite_soft_match(metric[a_idx], metric[b_idx], a_idx, b_idx)
            m = merge_budget(batch.n_image_tokens, cfg.merge_ratio, cfg.nonsemantic_proportion)
            m = min(m, len(plan.edges))
            if m > 0:
                batch, survivor_origin = _merge_and_record(batch, plan, m, scores, ids, info)

    if cfg.prune_at(layer):
        restricted = np.asarray(record.class_attention, dtype=np.float64)[survivor_origin]
        total = restricted[np.isfinite(restricted)].sum()
        prune_scores = restricted / total if total > 0 else restricted
        if batch.cls_index is not None:
            prune_scores[batch.cls_index] = np.inf
        batch, info.pruned_size = prune_keep(batch, prune_scores, cfg.keep_rate)
    return batch, info


def step_evit(
    batch: TokenBatch,
    record: "AttentionRecord",
    keep_rate: float,
    fuse: bool = True,
) -> tuple[TokenBatch, StepInfo]:
    """Attentiveness pruning: drop the least class-attentive image tokens.

    With fuse enabled the dropped tokens survive as one extra token, their
    attention-weighted average, appended after the kept tokens and holding
    every patch the dropped tokens held.
    """
    scores = score_tokens(record, batch)
    info, _ = _begin_step(batch, scores)
    kept, dropped = _keep_selection(batch, scores, keep_rate)
    if not dropped:
        return batch, info

    if not fuse:
        info.pruned_size = int(batch.sizes[dropped].sum())
        return _gather(batch, kept, dropped), info
    att = np.asarray(record.class_attention, dtype=np.float64)[dropped]
    weights = att / att.sum() if att.sum() > 0 else np.full(len(dropped), 1.0 / len(dropped))
    fused = (weights[:, None] * batch.features[dropped].astype(np.float64)).sum(axis=0)
    return _gather(batch, kept, dropped, fused.astype(np.float32)), info


def step_tome(
    batch: TokenBatch,
    record: "AttentionRecord",
    r_per_layer: int,
) -> tuple[TokenBatch, StepInfo]:
    """Global similarity merging: alternate all image tokens by sequence position,
    match on head-averaged keys, merge the best r pairs. No pruning."""
    if r_per_layer < 0:
        raise RangeError(f"r_per_layer must be >= 0, got {r_per_layer}")
    scores = score_tokens(record, batch)
    info, ids = _begin_step(batch, scores)
    if r_per_layer == 0:
        return batch, info
    img = [int(i) for i in batch.image_indices()]
    a_idx, b_idx = img[0::2], img[1::2]
    metric = matching_metric(record)
    plan = bipartite_soft_match(metric[a_idx], metric[b_idx], a_idx, b_idx)
    m = min(r_per_layer, len(plan.edges))
    if m == 0:
        return batch, info
    batch, _ = _merge_and_record(batch, plan, m, scores, ids, info)
    return batch, info
