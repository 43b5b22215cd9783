"""DeiT-style transformer encoder with per-layer token-reduction hooks.

A model is a stack of pre-norm blocks (MHSA then MLP, both residual). The
attention pass additionally captures an AttentionRecord: the post-softmax maps,
the class-attention vector (head-mean of the CLS query row) that drives token
scoring, and the key vectors that drive merging. Reduction steps run between
the attention and MLP halves of a block, so the shrunken batch feeds the MLP.

Weights live in a simple binary container (JSON header + float32 blob, see
module container); the tensor names are fixed by `weights_schema`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import container, numerics, reduce
from .config import IMAGE_SIZE, ModelConfig, ReductionConfig, model_config_from_dict
from .diag import LayerDiag, RunDiag, flops_count
from .embed import StemWeights, TokenBatch, coherence_stem, finalize_tokens, patchify_embed
from .errors import ConfigError, DimensionError, FormatError, NumericError


@dataclass(frozen=True)
class AttentionRecord:
    """What one attention pass saw, for scoring and matching.

    per_head: post-softmax attention maps, [heads x N x N].
    class_attention: the CLS query row averaged over heads, [N]. When the
        batch carries no class token, row 0 stands in.
    keys: the pre-head-split key matrix, [N x D].
    """

    per_head: np.ndarray
    class_attention: np.ndarray
    keys: np.ndarray
    heads: int


@dataclass(frozen=True)
class BlockWeights:
    """Parameters of one encoder block, x @ W + b convention throughout."""

    ln1_gamma: np.ndarray
    ln1_beta: np.ndarray
    qkv_weight: np.ndarray  # [D x 3D]
    qkv_bias: np.ndarray
    proj_weight: np.ndarray  # [D x D]
    proj_bias: np.ndarray
    ln2_gamma: np.ndarray
    ln2_beta: np.ndarray
    fc1_weight: np.ndarray  # [D x mlp_hidden]
    fc1_bias: np.ndarray
    fc2_weight: np.ndarray  # [mlp_hidden x D]
    fc2_bias: np.ndarray
    heads: int


def mhsa_forward(
    batch: TokenBatch,
    block: BlockWeights,
    size_bias: np.ndarray | None = None,
) -> tuple[TokenBatch, AttentionRecord]:
    """Pre-norm multi-head self-attention with residual add.

    All heads run as one stacked product: q, k and v are viewed as
    [heads x N x head_dim], the logits Q·Kᵀ/sqrt(head_dim) of every head come
    from one batched matmul, one softmax normalizes them and one more batched
    matmul weighs the values. When size_bias is given, log(size) is added per
    key column, so a merged token attracts attention in proportion to the
    patches it represents. The record is captured before the residual add;
    its per_head maps are the softmax output itself.
    """
    x = batch.features
    n, d = x.shape
    if block.qkv_weight.shape[0] != d:
        raise DimensionError(
            f"block expects dim {block.qkv_weight.shape[0]}, batch has {d}"
        )
    if d % block.heads:
        raise DimensionError(f"dim {d} not divisible by {block.heads} heads")
    head_dim = d // block.heads

    h = numerics.layer_norm(x, block.ln1_gamma, block.ln1_beta)
    qkv = numerics.matmul(h, block.qkv_weight)
    qkv += block.qkv_bias
    # [N x 3D] -> [3 x heads x N x head_dim], views into qkv
    q, k, v = qkv.reshape(n, 3, block.heads, head_dim).transpose(1, 2, 0, 3)

    log_sizes = None
    if size_bias is not None:
        sizes = np.asarray(size_bias, dtype=np.float64)
        if sizes.shape != (n,):
            raise DimensionError(f"size_bias shape {sizes.shape} != ({n},)")
        log_sizes = np.log(sizes).astype(np.float32)

    logits = np.matmul(q, k.transpose(0, 2, 1))
    logits *= 1.0 / math.sqrt(head_dim)
    if log_sizes is not None:
        logits += log_sizes
    per_head = numerics.softmax_rows(logits)
    out = np.matmul(per_head, v).transpose(1, 0, 2).reshape(n, d)

    y = numerics.matmul(out, block.proj_weight)
    y += block.proj_bias
    y += x
    cls_row = batch.cls_index if batch.cls_index is not None else 0
    record = AttentionRecord(
        per_head=per_head,
        class_attention=per_head[:, cls_row, :].mean(axis=0),
        keys=qkv[:, d : 2 * d].copy(),
        heads=block.heads,
    )
    return batch.with_features(numerics._check_finite(y, "attention output")), record


def mlp_forward(batch: TokenBatch, block: BlockWeights) -> TokenBatch:
    """Pre-norm two-layer GELU MLP with residual; token metadata untouched."""
    x = batch.features
    h = numerics.layer_norm(x, block.ln2_gamma, block.ln2_beta)
    h = numerics.matmul(h, block.fc1_weight)
    h += block.fc1_bias
    y = numerics.matmul(numerics.gelu(h), block.fc2_weight)
    y += block.fc2_bias
    y += x
    return batch.with_features(numerics._check_finite(y, "mlp output"))


@dataclass(frozen=True)
class ModelWeights:
    """All parameters of one model plus its configuration."""

    config: ModelConfig
    positional: np.ndarray  # [(P+1) x D]
    cls_embedding: np.ndarray  # [D]
    blocks: tuple[BlockWeights, ...]
    final_gamma: np.ndarray
    final_beta: np.ndarray
    head_weight: np.ndarray  # [D x num_classes]
    head_bias: np.ndarray
    patch_projection: np.ndarray | None = None  # grid stem
    patch_bias: np.ndarray | None = None
    conv_kernels: tuple[np.ndarray, ...] | None = None  # coherence stem
    conv_biases: tuple[np.ndarray, ...] | None = None
    proj_kernel: np.ndarray | None = None
    proj_bias: np.ndarray | None = None

    def stem_weights(self) -> StemWeights:
        if self.conv_kernels is None:
            raise ConfigError("model was built with the grid stem, not the coherence stem")
        return StemWeights(
            conv_kernels=self.conv_kernels,
            conv_biases=self.conv_biases,
            proj_kernel=self.proj_kernel,
            proj_bias=self.proj_bias,
            positional=self.positional,
            cls_embedding=self.cls_embedding,
        )


def weights_schema(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Tensor name -> shape table for a configuration. Fixes the file layout."""
    d = config.dim
    schema: dict[str, tuple[int, ...]] = {
        "embed.positional": (config.num_patches + 1, d),
        "embed.cls": (d,),
        "final_norm.gamma": (d,),
        "final_norm.beta": (d,),
        "head.weight": (d, config.num_classes),
        "head.bias": (config.num_classes,),
    }
    if config.stem == "grid":
        schema["patch.projection"] = (3 * config.patch_size**2, d)
        schema["patch.bias"] = (d,)
    else:
        widths = (3,) + config.stem_widths
        for i in range(4):
            schema[f"stem.conv{i + 1}.weight"] = (widths[i + 1], widths[i], 3, 3)
            schema[f"stem.conv{i + 1}.bias"] = (widths[i + 1],)
        schema["stem.proj.weight"] = (d, widths[4], 1, 1)
        schema["stem.proj.bias"] = (d,)
    hidden = config.mlp_hidden
    for i in range(config.depth):
        schema[f"blocks.{i}.ln1.gamma"] = (d,)
        schema[f"blocks.{i}.ln1.beta"] = (d,)
        schema[f"blocks.{i}.attn.qkv.weight"] = (d, 3 * d)
        schema[f"blocks.{i}.attn.qkv.bias"] = (3 * d,)
        schema[f"blocks.{i}.attn.proj.weight"] = (d, d)
        schema[f"blocks.{i}.attn.proj.bias"] = (d,)
        schema[f"blocks.{i}.ln2.gamma"] = (d,)
        schema[f"blocks.{i}.ln2.beta"] = (d,)
        schema[f"blocks.{i}.mlp.fc1.weight"] = (d, hidden)
        schema[f"blocks.{i}.mlp.fc1.bias"] = (hidden,)
        schema[f"blocks.{i}.mlp.fc2.weight"] = (hidden, d)
        schema[f"blocks.{i}.mlp.fc2.bias"] = (d,)
    return schema


def _weights_from_tensors(
    config: ModelConfig, tensors: dict[str, np.ndarray]
) -> ModelWeights:
    blocks = tuple(
        BlockWeights(
            ln1_gamma=tensors[f"blocks.{i}.ln1.gamma"],
            ln1_beta=tensors[f"blocks.{i}.ln1.beta"],
            qkv_weight=tensors[f"blocks.{i}.attn.qkv.weight"],
            qkv_bias=tensors[f"blocks.{i}.attn.qkv.bias"],
            proj_weight=tensors[f"blocks.{i}.attn.proj.weight"],
            proj_bias=tensors[f"blocks.{i}.attn.proj.bias"],
            ln2_gamma=tensors[f"blocks.{i}.ln2.gamma"],
            ln2_beta=tensors[f"blocks.{i}.ln2.beta"],
            fc1_weight=tensors[f"blocks.{i}.mlp.fc1.weight"],
            fc1_bias=tensors[f"blocks.{i}.mlp.fc1.bias"],
            fc2_weight=tensors[f"blocks.{i}.mlp.fc2.weight"],
            fc2_bias=tensors[f"blocks.{i}.mlp.fc2.bias"],
            heads=config.heads,
        )
        for i in range(config.depth)
    )
    kwargs: dict = {}
    if config.stem == "grid":
        kwargs["patch_projection"] = tensors["patch.projection"]
        kwargs["patch_bias"] = tensors["patch.bias"]
    else:
        kwargs["conv_kernels"] = tuple(tensors[f"stem.conv{i + 1}.weight"] for i in range(4))
        kwargs["conv_biases"] = tuple(tensors[f"stem.conv{i + 1}.bias"] for i in range(4))
        kwargs["proj_kernel"] = tensors["stem.proj.weight"]
        kwargs["proj_bias"] = tensors["stem.proj.bias"]
    return ModelWeights(
        config=config,
        positional=tensors["embed.positional"],
        cls_embedding=tensors["embed.cls"],
        blocks=blocks,
        final_gamma=tensors["final_norm.gamma"],
        final_beta=tensors["final_norm.beta"],
        head_weight=tensors["head.weight"],
        head_bias=tensors["head.bias"],
        **kwargs,
    )


def _weights_to_tensors(weights: ModelWeights) -> dict[str, np.ndarray]:
    config = weights.config
    tensors: dict[str, np.ndarray] = {
        "embed.positional": weights.positional,
        "embed.cls": weights.cls_embedding,
        "final_norm.gamma": weights.final_gamma,
        "final_norm.beta": weights.final_beta,
        "head.weight": weights.head_weight,
        "head.bias": weights.head_bias,
    }
    if config.stem == "grid":
        tensors["patch.projection"] = weights.patch_projection
        tensors["patch.bias"] = weights.patch_bias
    else:
        for i in range(4):
            tensors[f"stem.conv{i + 1}.weight"] = weights.conv_kernels[i]
            tensors[f"stem.conv{i + 1}.bias"] = weights.conv_biases[i]
        tensors["stem.proj.weight"] = weights.proj_kernel
        tensors["stem.proj.bias"] = weights.proj_bias
    for i, blk in enumerate(weights.blocks):
        tensors[f"blocks.{i}.ln1.gamma"] = blk.ln1_gamma
        tensors[f"blocks.{i}.ln1.beta"] = blk.ln1_beta
        tensors[f"blocks.{i}.attn.qkv.weight"] = blk.qkv_weight
        tensors[f"blocks.{i}.attn.qkv.bias"] = blk.qkv_bias
        tensors[f"blocks.{i}.attn.proj.weight"] = blk.proj_weight
        tensors[f"blocks.{i}.attn.proj.bias"] = blk.proj_bias
        tensors[f"blocks.{i}.ln2.gamma"] = blk.ln2_gamma
        tensors[f"blocks.{i}.ln2.beta"] = blk.ln2_beta
        tensors[f"blocks.{i}.mlp.fc1.weight"] = blk.fc1_weight
        tensors[f"blocks.{i}.mlp.fc1.bias"] = blk.fc1_bias
        tensors[f"blocks.{i}.mlp.fc2.weight"] = blk.fc2_weight
        tensors[f"blocks.{i}.mlp.fc2.bias"] = blk.fc2_bias
    return tensors


def save_weights(weights: ModelWeights, path) -> None:
    from dataclasses import asdict

    container.save_tensors(path, _weights_to_tensors(weights), meta=asdict(weights.config))


def load_weights(path) -> ModelWeights:
    """Read a weights file, checking the header against the model schema."""
    tensors, meta = container.load_tensors(path)
    if meta is None:
        raise FormatError(f"{path}: missing model configuration entry")
    config = model_config_from_dict(meta)
    schema = weights_schema(config)
    missing = sorted(set(schema) - set(tensors))
    if missing:
        raise FormatError(f"{path}: missing tensors {missing}")
    extra = sorted(set(tensors) - set(schema))
    if extra:
        raise FormatError(f"{path}: unexpected tensors {extra}")
    for name, shape in schema.items():
        if tensors[name].shape != shape:
            raise FormatError(
                f"{path}: tensor {name!r} has shape {tensors[name].shape}, schema wants {shape}"
            )
    return _weights_from_tensors(config, tensors)


def _truncated_normal(rng: np.random.Generator, shape, std=0.02, bound=2.0) -> np.ndarray:
    """Normal(0, std) with samples beyond bound*sigma redrawn."""
    out = rng.standard_normal(size=shape)
    oob = np.abs(out) > bound
    while oob.any():
        out[oob] = rng.standard_normal(size=int(oob.sum()))
        oob = np.abs(out) > bound
    return (out * std).astype(np.float32)


def init_random(config: ModelConfig, seed: int) -> ModelWeights:
    """Deterministic random weights: truncated-normal projections, zero biases,
    unit norm gains. Tensors are drawn in sorted-name order so the result is a
    pure function of (config, seed).

    Stem 3x3 kernels initialize to random non-negative averaging filters
    (folded normals normalized to unit sum per output channel). Signed
    zero-mean kernels would make the random stem a band-pass cascade that
    *de*correlates neighbouring cells, inverting the smoothing behaviour the
    overlapping-convolution architecture exists to provide; non-negative
    averaging kernels preserve it at initialization.
    """
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in sorted(weights_schema(config).items()):
        if name.endswith(".gamma"):
            tensors[name] = np.ones(shape, dtype=np.float32)
        elif name.endswith((".bias", ".beta")):
            tensors[name] = np.zeros(shape, dtype=np.float32)
        elif name.startswith("stem.conv"):
            kernel = np.abs(_truncated_normal(rng, shape).astype(np.float64))
            kernel /= kernel.sum(axis=(1, 2, 3), keepdims=True)
            tensors[name] = kernel.astype(np.float32)
        else:
            tensors[name] = _truncated_normal(rng, shape)
    return _weights_from_tensors(config, tensors)


def embed_image(image: np.ndarray, weights: ModelWeights) -> TokenBatch:
    """Image [3 x 224 x 224] -> finalized token batch via the configured stem."""
    config = weights.config
    size = np.shape(image)[1:]
    if np.ndim(image) == 3 and size != (IMAGE_SIZE, IMAGE_SIZE):
        raise DimensionError(
            f"input image is {size[0]}x{size[1]}, the model expects {IMAGE_SIZE}x{IMAGE_SIZE}"
        )
    if config.stem == "grid":
        batch = patchify_embed(image, config.patch_size, weights.patch_projection, weights.patch_bias)
    else:
        batch = coherence_stem(image, weights.stem_weights())
    return finalize_tokens(batch, weights.positional, weights.cls_embedding)


def _reduction_step(
    batch: TokenBatch,
    record: AttentionRecord,
    rcfg: ReductionConfig,
    layer: int,
) -> tuple[TokenBatch, reduce.StepInfo]:
    if rcfg.strategy == "imagepiece" and (rcfg.retokenize_at(layer) or rcfg.prune_at(layer)):
        return reduce.step_imagepiece(batch, record, rcfg, layer)
    if rcfg.strategy == "evit" and rcfg.prune_at(layer):
        return reduce.step_evit(batch, record, rcfg.keep_rate, fuse=rcfg.evit_fuse)
    if rcfg.strategy == "tome":
        return reduce.step_tome(batch, record, rcfg.tome_reduction)
    return reduce.step_none(batch, record)


def encoder_forward(
    batch: TokenBatch,
    weights: ModelWeights,
    reduction: ReductionConfig | None = None,
    layer_hook=None,
) -> tuple[np.ndarray, RunDiag]:
    """Run the full encoder over a finalized batch.

    Per layer: MHSA (with proportional attention if enabled), then the
    strategy's reduction step, then the MLP. Ends with the final norm and the
    classifier read off the CLS token. The returned RunDiag carries per-layer
    token counts, merge/prune activity and scores for the diagnostics module.

    layer_hook, when given, is called as layer_hook(layer, batch) with the
    post-reduction batch — an observation point for invariant checks.
    """
    config = weights.config
    rcfg = reduction if reduction is not None else ReductionConfig()
    rcfg.validate_depth(config.depth)
    if batch.cls_index is None:
        raise DimensionError("encoder_forward needs a finalized batch (CLS present)")
    if batch.dim != config.dim:
        raise DimensionError(f"batch dim {batch.dim} != model dim {config.dim}")

    layers: list[LayerDiag] = []
    for layer, block in enumerate(weights.blocks):
        size_bias = batch.sizes if rcfg.proportional_attention else None
        try:
            batch, record = mhsa_forward(batch, block, size_bias)
            batch, info = _reduction_step(batch, record, rcfg, layer)
            if layer_hook is not None:
                layer_hook(layer, batch)
            batch = mlp_forward(batch, block)
        except NumericError as exc:
            raise NumericError(f"layer {layer}: {exc}") from exc
        sims = info.merge_similarities
        layers.append(
            LayerDiag(
                layer=layer,
                token_count=batch.n_tokens,
                merges_executed=info.merges_executed,
                pruned_size=info.pruned_size,
                mean_merge_similarity=float(np.mean(sims)) if sims else None,
                bottom_k_set=tuple(info.bottom_k_ids),
                merged_token_ids=tuple(info.merged_token_ids),
                n_scored=info.n_scored,
                merged_endpoint_ranks=tuple(info.merged_endpoint_ranks),
                scores_by_id=dict(info.scores_by_id),
                merge_similarities=tuple(sims),
            )
        )

    x = numerics.layer_norm(batch.features, weights.final_gamma, weights.final_beta)
    cls_feature = x[batch.cls_index][None, :]
    logits = (numerics.matmul(cls_feature, weights.head_weight) + weights.head_bias)[0]
    numerics._check_finite(logits, "logits")
    run = RunDiag(
        per_layer=layers,
        final_output_tokens=batch.n_tokens,
        flops=flops_count(config, [ld.token_count for ld in layers]),
        strategy=rcfg.strategy,
    )
    return numerics.as_f32(logits), run


def forward_image(
    image: np.ndarray,
    weights: ModelWeights,
    reduction: ReductionConfig | None = None,
) -> tuple[np.ndarray, RunDiag]:
    """Convenience: stem + finalize + encoder in one call."""
    return encoder_forward(embed_image(image, weights), weights, reduction)
