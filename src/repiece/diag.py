"""Diagnostics and accounting: token schedules, FLOPs, reduction metrics and
the run report.

Everything here is either pure arithmetic (schedules, FLOPs, the worker
count, which asks `numerics` whether it can hold numpy's OpenBLAS to one
thread), a pure fold over a RunDiag produced by the encoder, or its
serialization. Nothing in this module touches tensors beyond cosine
similarity, and nothing runs a forward: the harnesses that do (`bench`,
`mask_eval`) live in `cli`, next to their commands. Nor does it name a
strategy: the token schedule folds `reduce.tokens_after`, the count rule the
reduction steps themselves follow. A `LayerDiag` records the rows its step
acted on; the metrics read ids off its properties, and `merged_topk_overlap`
ranks the merged rows by the record's own scores.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import numerics
from .config import IMAGE_SIZE, ModelConfig, ReductionConfig
from .errors import ConfigError, DegenerateInputError, DimensionError, RangeError
from .reduce import LayerDiag, bottom_k_count, tokens_after

THREADS_ENV = "REPIECE_THREADS"


@dataclass(frozen=True)
class RunDiag:
    """Diagnostics of one forward pass: one LayerDiag per encoder layer."""

    per_layer: list[LayerDiag]
    final_output_tokens: int
    flops: int
    strategy: str

    def token_counts(self) -> list[int]:
        return [ld.token_count for ld in self.per_layer]

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "final_output_tokens": self.final_output_tokens,
            "flops": self.flops,
            "per_layer": [
                {
                    "layer": ld.layer,
                    "token_count": ld.token_count,
                    "merges_executed": ld.merges_executed,
                    "pruned_size": ld.pruned_size,
                    "mean_merge_similarity": ld.mean_merge_similarity,
                    "bottom_k_set": list(ld.bottom_k_set),
                    "merged_token_ids": list(ld.merged_token_ids),
                }
                for ld in self.per_layer
            ],
        }


def canonical_json(obj) -> str:
    """Stable serialization: sorted keys, no whitespace. Same dict, same bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def max_workers(n_items: int) -> int:
    """Worker count for the image fan-out of `run` and `mask-eval`.

    The REPIECE_THREADS env var, where set, caps it. Unset, it is the number
    of usable cores when numpy's OpenBLAS can be held to one thread while the
    images run (`numerics._blas_threads`), and one otherwise: a BLAS left to
    spread every product over all cores would compete with image threads for
    them. Never more than `n_items`, never less than one.
    """
    cap = os.environ.get(THREADS_ENV)
    if not cap:  # a held OpenBLAS was found through /proc: Linux, with sched_getaffinity
        limit = len(os.sched_getaffinity(0)) if numerics._blas_threads() else 1
    else:
        try:
            limit = int(cap)
        except ValueError:
            raise ConfigError(f"{THREADS_ENV} must be an integer, got {cap!r}") from None
    return max(1, min(n_items, limit))


# ---------------------------------------------------------------------------
# schedules and FLOPs


def token_schedule(cfg: ModelConfig, rcfg: ReductionConfig) -> list[int]:
    """Per-layer sequence lengths (CLS included) after each layer's reduction:
    `reduce.tokens_after`, the steps' own count rule, applied layer by layer."""
    rcfg.validate_depth(cfg.depth)
    n = cfg.num_patches
    counts: list[int] = []
    for layer in range(cfg.depth):
        n = tokens_after(rcfg, layer, n)
        counts.append(n + 1)
    return counts


def _stem_macs(cfg: ModelConfig) -> int:
    if cfg.stem == "grid":
        return cfg.num_patches * cfg.dim * 3 * cfg.patch_size**2
    widths = (3,) + cfg.stem_widths
    side = IMAGE_SIZE
    macs = 0
    for i in range(4):
        side //= 2
        macs += side * side * widths[i + 1] * widths[i] * 9
    macs += side * side * cfg.dim * widths[4]
    return macs


def flops_count(cfg: ModelConfig, schedule: Sequence[int]) -> int:
    """Analytic FLOPs (multiply-accumulates times two) for a token schedule.

    Attention at layer l runs on the sequence length entering the layer; the
    MLP runs on the post-reduction length schedule[l]. Stem and classifier
    head are counted once.
    """
    d = cfg.dim
    macs = _stem_macs(cfg) + d * cfg.num_classes
    n_in = cfg.num_patches + 1
    for n_out in schedule:
        macs += 4 * n_in * d * d + 2 * n_in * n_in * d + 2 * n_out * d * cfg.mlp_hidden
        n_in = n_out
    return 2 * int(macs)


def schedule_rows(cfg: ModelConfig, rcfg: ReductionConfig) -> list[tuple[int, int, int]]:
    """(layer, tokens, cumulative flops) rows: a row counts the stem and the
    layers up to its own, and the last row adds the head, so it reads
    `flops_count` of the whole schedule."""
    counts = token_schedule(cfg, rcfg)
    head = 2 * cfg.dim * cfg.num_classes
    last = len(counts) - 1
    return [
        (layer, n, flops_count(cfg, counts[: layer + 1]) - (head if layer < last else 0))
        for layer, n in enumerate(counts)
    ]


# ---------------------------------------------------------------------------
# reduction metrics


def inattn_to_attn_ratio(
    prev_merged_ids: Iterable[int], ids: np.ndarray, scores: np.ndarray, p: float
) -> float:
    """Fraction of previously merged (then-inattentive) tokens that now rank
    above the bottom-k cut.

    ids and scores are parallel arrays over the current image tokens (distinct
    ids, class token excluded). Tokens that no longer exist stay in the
    denominator but cannot count as attentive.
    """
    prev = np.unique(np.fromiter(prev_merged_ids, dtype=np.int64))
    if not prev.size:
        return 0.0
    ids = np.asarray(ids)
    k = bottom_k_count(ids.shape[0], p)
    attentive = ids[np.lexsort((ids, scores))[k:]]
    return int(np.count_nonzero(np.isin(attentive, prev))) / prev.size


def inattn_trail(run: RunDiag, p: float) -> list[tuple[int, float]]:
    """(layer, ratio) for every layer whose previous layer executed merges."""
    out = []
    for prev, cur in zip(run.per_layer, run.per_layer[1:]):
        if prev.merges_executed:  # row 0 is the class token
            ratio = inattn_to_attn_ratio(prev.merged_token_ids, cur.token_ids[1:], cur.scores[1:], p)
            out.append((cur.layer, ratio))
    return out


def merged_pair_similarity(run: RunDiag, layer_sel: str = "first") -> float | None:
    """Mean similarity of executed merges at the first or last merging layer;
    None when the run never merged."""
    if layer_sel not in ("first", "last"):
        raise RangeError(f"layer_sel must be 'first' or 'last', got {layer_sel!r}")
    merging = [ld for ld in run.per_layer if ld.merges_executed > 0]
    if not merging:
        return None
    chosen = merging[0] if layer_sel == "first" else merging[-1]
    return chosen.mean_merge_similarity


def aggregate_lowest(samples: Sequence[float | None], n: int = 500) -> float:
    """Mean of the n lowest defined per-sample values (None entries skipped)."""
    vals = sorted(s for s in samples if s is not None)
    if not vals:
        raise DegenerateInputError("no defined samples to aggregate")
    return float(np.mean(vals[:n]))


def merged_topk_overlap(run: RunDiag, q_percent: float) -> float:
    """Share (%) of first-merge-layer merged tokens ranked in the top q% by
    class attention. 0.0 when the run never merged.

    The merged tokens are every merged A row, then every distinct B row. A
    row's attentiveness rank (0 = most attentive) mirrors its place in the
    bottom-k ascending order, so a token inside the bottom-k can never hold a
    top rank even when scores tie; the class token's +inf sorts last.
    """
    if not 0.0 <= q_percent <= 100.0:
        raise RangeError(f"q_percent must lie in [0, 100], got {q_percent}")
    for ld in run.per_layer:
        if ld.merges_executed > 0:
            top_count = int(math.floor(q_percent * ld.n_scored / 100.0))
            place = ld.scores.argsort(kind="stable").argsort()  # each row's ascending place
            merged = np.concatenate([ld.merged_a, np.unique(ld.merged_b)])
            ranks = ld.n_scored - 1 - place[merged]
            return 100.0 * int(np.count_nonzero(ranks < top_count)) / ranks.size
    return 0.0


def adjacency_similarity(feature_map: np.ndarray) -> float:
    """Mean cosine similarity over all 4-neighbour pairs of a [rows x cols x D]
    feature map; a map without any (1 x 1) raises DegenerateInputError."""
    feats = np.array(feature_map, dtype=np.float64, order="C")
    if feats.ndim != 3:
        raise DimensionError(f"expected a rows x cols x D map, got shape {feats.shape}")
    norms = np.linalg.norm(feats, axis=-1)
    if not np.all(norms > 0):
        raise DegenerateInputError("zero-norm token feature in adjacency computation")
    unit = feats / norms[..., None]
    horizontal = (unit[:, :-1] * unit[:, 1:]).sum(axis=-1)
    vertical = (unit[:-1, :] * unit[1:, :]).sum(axis=-1)
    pairs = np.concatenate([horizontal.ravel(), vertical.ravel()])
    if not pairs.size:
        raise DegenerateInputError(f"a map of shape {feats.shape} has no neighbour pairs")
    return float(np.clip(pairs, -1.0, 1.0).mean())

