"""DeiT-style transformer encoder with per-layer token-reduction hooks.

A model is a stack of pre-norm blocks (MHSA then MLP, both residual). The
attention pass additionally captures a `reduce.AttentionRecord`: the
post-softmax maps, the class-attention vector (head-mean of the query row of
the class token, row 0) that drives token scoring, and the key vectors that
drive merging.
`reduce.step` runs between the attention and MLP halves of a block, so the
shrunken batch feeds the MLP, and returns its layer's `reduce.LayerDiag`;
which strategy runs at which layer is `reduce`'s business, not this module's.

Weights live in a simple binary container (JSON header + float32 blob, see
module container). Two layout tables, one for a block's tensors and one for
the rest, name every tensor once and fix its shape; they drive
`weights_schema`, loading and saving. `stem_tokens` is the one place that
picks the stem a model was built with.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import container, numerics, reduce
from .config import IMAGE_SIZE, ModelConfig, ReductionConfig, model_config_from_dict
from .diag import RunDiag, flops_count
from .embed import TokenBatch, coherence_stem, finalize_tokens, patchify_embed
from .errors import ConfigError, DimensionError, FormatError, NumericError
from .reduce import AttentionRecord, LayerDiag


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


def _add_size_bias(logits: np.ndarray, sizes: np.ndarray) -> None:
    """Add log(size) to each key slab of key-major logits [N_k x heads x N_q], in place.

    Only keys whose size is not 1 are touched. log 1 = 0, and adding 0.0 to a
    finite logit changes at most the sign of a zero, which no softmax output
    shows.
    """
    merged = np.flatnonzero(sizes != 1)
    if merged.size:
        logits[merged] += np.log(sizes[merged]).astype(np.float32)[:, None, None]


def mhsa_forward(
    batch: TokenBatch,
    block: BlockWeights,
    proportional: bool = False,
) -> tuple[TokenBatch, AttentionRecord]:
    """Pre-norm multi-head self-attention with residual add.

    All heads run as one stacked product: q, k and v are viewed as
    [heads x N x head_dim], and one batched matmul writes the logits
    K·Qᵀ/sqrt(head_dim) of every head key-major, as [N_k x heads x N_q].
    When proportional is set, log(size) of the batch's own sizes is added to
    the slab of every key whose size is not 1, so a merged token attracts
    attention in proportion to the patches it represents. One softmax
    normalizes along the key axis, axis 0, so each of its passes runs over
    whole heads x N_q rows, and one more batched matmul weighs the values.
    The record is captured before the residual add; its per_head maps are the
    softmax output itself, viewed as [heads x N_q x N_k].
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

    logits = np.empty((n, block.heads, n), dtype=np.float32)  # [N_k x heads x N_q]
    np.matmul(k, q.transpose(0, 2, 1), out=logits.transpose(1, 0, 2))
    logits *= 1.0 / math.sqrt(head_dim)
    if proportional:
        _add_size_bias(logits, batch.sizes)
    per_head = numerics.softmax_rows(logits, axis=0).transpose(1, 2, 0)
    # each head's product lands in its columns of an [N x heads x head_dim]
    # buffer, so the [N x D] result is a view, not a copy
    out = np.empty((n, block.heads, head_dim), dtype=np.float32)
    np.matmul(per_head, v, out=out.transpose(1, 0, 2))
    out = out.reshape(n, d)

    y = numerics.matmul(out, block.proj_weight)
    y += block.proj_bias
    y += x
    record = AttentionRecord(
        per_head=per_head,
        class_attention=np.add.reduce(per_head[:, 0, :], axis=0) / block.heads,
        keys=qkv[:, d : 2 * d],
        heads=block.heads,
    )
    return batch.with_features(numerics._check_finite(y, "attention output")), record


def _mlp_residual(x: np.ndarray, block: BlockWeights) -> np.ndarray:
    """x plus the block's pre-norm GELU MLP of x, for any [rows x D] array."""
    h = numerics.layer_norm(x, block.ln2_gamma, block.ln2_beta)
    h = numerics.matmul(h, block.fc1_weight)
    h += block.fc1_bias
    y = numerics.matmul(numerics.gelu(h, out=h), block.fc2_weight)
    y += block.fc2_bias
    y += x
    return numerics._check_finite(y, "mlp output")


def mlp_forward(batch: TokenBatch, block: BlockWeights) -> TokenBatch:
    """Pre-norm two-layer GELU MLP with residual; token metadata untouched."""
    return batch.with_features(_mlp_residual(batch.features, block))


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


def _model_layout(config: ModelConfig) -> tuple[tuple[str, str, tuple[int, ...]], ...]:
    """(ModelWeights field, tensor name, shape) for every tensor outside the blocks.

    The four stem convolutions fill the tuple-valued fields in table order.
    """
    d = config.dim
    common = (
        ("positional", "embed.positional", (config.num_patches + 1, d)),
        ("cls_embedding", "embed.cls", (d,)),
        ("final_gamma", "final_norm.gamma", (d,)),
        ("final_beta", "final_norm.beta", (d,)),
        ("head_weight", "head.weight", (d, config.num_classes)),
        ("head_bias", "head.bias", (config.num_classes,)),
    )
    if config.stem == "grid":
        return common + (
            ("patch_projection", "patch.projection", (3 * config.patch_size**2, d)),
            ("patch_bias", "patch.bias", (d,)),
        )
    widths = (3,) + config.stem_widths
    convs: tuple = ()
    for i in range(4):
        convs += (
            ("conv_kernels", f"stem.conv{i + 1}.weight", (widths[i + 1], widths[i], 3, 3)),
            ("conv_biases", f"stem.conv{i + 1}.bias", (widths[i + 1],)),
        )
    return common + convs + (
        ("proj_kernel", "stem.proj.weight", (d, widths[4], 1, 1)),
        ("proj_bias", "stem.proj.bias", (d,)),
    )


#: ModelWeights fields holding one tensor per stem convolution.
_PER_CONV_FIELDS = ("conv_kernels", "conv_biases")


def _block_layout(config: ModelConfig) -> tuple[tuple[str, str, tuple[int, ...]], ...]:
    """(BlockWeights field, tensor name after "blocks.<i>.", shape) for every block tensor."""
    d, hidden = config.dim, config.mlp_hidden
    return (
        ("ln1_gamma", "ln1.gamma", (d,)),
        ("ln1_beta", "ln1.beta", (d,)),
        ("qkv_weight", "attn.qkv.weight", (d, 3 * d)),
        ("qkv_bias", "attn.qkv.bias", (3 * d,)),
        ("proj_weight", "attn.proj.weight", (d, d)),
        ("proj_bias", "attn.proj.bias", (d,)),
        ("ln2_gamma", "ln2.gamma", (d,)),
        ("ln2_beta", "ln2.beta", (d,)),
        ("fc1_weight", "mlp.fc1.weight", (d, hidden)),
        ("fc1_bias", "mlp.fc1.bias", (hidden,)),
        ("fc2_weight", "mlp.fc2.weight", (hidden, d)),
        ("fc2_bias", "mlp.fc2.bias", (d,)),
    )


def weights_schema(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Tensor name -> shape table for a configuration. Fixes the file layout."""
    schema = {name: shape for _, name, shape in _model_layout(config)}
    block = _block_layout(config)
    for i in range(config.depth):
        schema.update((f"blocks.{i}.{name}", shape) for _, name, shape in block)
    for name, shape in schema.items():  # numpy's limit: a float32 array's bytes fit in an intp
        if 4 * math.prod(shape) > sys.maxsize:
            raise ConfigError(f"model config makes tensor {name!r} too large for a numpy array")
    return schema


def _weights_from_tensors(
    config: ModelConfig, tensors: dict[str, np.ndarray]
) -> ModelWeights:
    block = _block_layout(config)
    blocks = tuple(
        BlockWeights(
            heads=config.heads,
            **{field: tensors[f"blocks.{i}.{name}"] for field, name, _ in block},
        )
        for i in range(config.depth)
    )
    fields: dict = {}
    for field, name, _ in _model_layout(config):
        if field in _PER_CONV_FIELDS:
            fields[field] = fields.get(field, ()) + (tensors[name],)
        else:
            fields[field] = tensors[name]
    return ModelWeights(config=config, blocks=blocks, **fields)


def _weights_to_tensors(weights: ModelWeights) -> dict[str, np.ndarray]:
    per_conv = {field: iter(getattr(weights, field) or ()) for field in _PER_CONV_FIELDS}
    tensors = {
        name: next(per_conv[field]) if field in per_conv else getattr(weights, field)
        for field, name, _ in _model_layout(weights.config)
    }
    block = _block_layout(weights.config)
    for i, blk in enumerate(weights.blocks):
        for field, name, _ in block:
            tensors[f"blocks.{i}.{name}"] = getattr(blk, field)
    return tensors


def save_weights(weights: ModelWeights, path) -> None:
    container.save_tensors(path, _weights_to_tensors(weights), meta=asdict(weights.config))


def load_weights(path) -> ModelWeights:
    """Read a weights file, checking the header against the model schema."""
    tensors, meta = container.load_tensors(path)
    if meta is None:
        raise FormatError(f"{path}: missing model configuration entry")
    try:
        config = model_config_from_dict(meta)
        schema = weights_schema(config)
    except ConfigError as exc:  # name the file, as every weights-file error does
        raise ConfigError(f"{path}: {exc}") from None
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


def _truncated_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal(0, 0.02) with samples beyond 2 sigma redrawn."""
    out = rng.standard_normal(size=shape)
    oob = np.abs(out) > 2.0
    while oob.any():
        out[oob] = rng.standard_normal(size=int(oob.sum()))
        oob = np.abs(out) > 2.0
    return (out * 0.02).astype(np.float32)


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


def stem_tokens(image: np.ndarray, weights: ModelWeights) -> np.ndarray:
    """Image [3 x H x W] -> [rows x cols x D] feature map via the configured stem."""
    if weights.config.stem == "grid":
        return patchify_embed(
            image, weights.config.patch_size, weights.patch_projection, weights.patch_bias
        )
    return coherence_stem(
        image, weights.conv_kernels, weights.conv_biases, weights.proj_kernel, weights.proj_bias
    )


def embed_image(image: np.ndarray, weights: ModelWeights) -> TokenBatch:
    """Image [3 x 224 x 224] -> token batch via the configured stem."""
    size = np.shape(image)[1:]
    if np.ndim(image) == 3 and size != (IMAGE_SIZE, IMAGE_SIZE):
        raise DimensionError(
            f"input image is {size[0]}x{size[1]}, the model expects {IMAGE_SIZE}x{IMAGE_SIZE}"
        )
    return finalize_tokens(stem_tokens(image, weights), weights.positional, weights.cls_embedding)


def encoder_forward(
    batch: TokenBatch,
    weights: ModelWeights,
    reduction: ReductionConfig = ReductionConfig(),
    layer_hook=None,
) -> tuple[np.ndarray, RunDiag]:
    """Run the full encoder over a token batch.

    Per layer: MHSA (with proportional attention, if enabled, over the batch's
    own sizes), then `reduce.step`, then the MLP. Only the class token reaches
    the classifier, so the last block's MLP and the final norm run on the class
    row alone. The other rows of the last block's output are never computed,
    so they cannot raise NumericError either. The returned RunDiag holds, per
    layer, the LayerDiag record that layer's reduction step returned: token
    counts, merge/prune activity and the scores the diagnostics module folds
    over; its FLOPs still count the full last block.

    layer_hook, when given, is called as layer_hook(layer, batch) with the
    post-reduction batch — an observation point for invariant checks.
    """
    config = weights.config
    reduction.validate_depth(config.depth)
    if batch.dim != config.dim:
        raise DimensionError(f"batch dim {batch.dim} != model dim {config.dim}")

    layers: list[LayerDiag] = []
    last = len(weights.blocks) - 1
    cls_feature = batch.features[:1]
    for layer, block in enumerate(weights.blocks):
        try:
            batch, record = mhsa_forward(batch, block, reduction.proportional_attention)
            batch, layer_diag = reduce.step(batch, record, reduction, layer)
            if layer_hook is not None:
                layer_hook(layer, batch)
            if layer < last:
                batch = mlp_forward(batch, block)
            else:  # only the class row reaches the head
                cls_feature = _mlp_residual(batch.features[:1], block)
        except NumericError as exc:
            raise NumericError(f"layer {layer}: {exc}") from exc
        layers.append(layer_diag)

    x = numerics.layer_norm(cls_feature, weights.final_gamma, weights.final_beta)
    logits = (numerics.matmul(x, weights.head_weight) + weights.head_bias)[0]
    numerics._check_finite(logits, "logits")
    run = RunDiag(
        per_layer=layers,
        final_output_tokens=batch.n_tokens,
        flops=flops_count(config, [ld.token_count for ld in layers]),
        strategy=reduction.strategy,
    )
    return numerics.as_f32(logits), run


def forward_image(
    image: np.ndarray,
    weights: ModelWeights,
    reduction: ReductionConfig = ReductionConfig(),
) -> tuple[np.ndarray, RunDiag]:
    """Convenience: stem + finalize + encoder in one call."""
    # an overflow, or the inf - inf after it, ends in a NumericError: numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        return encoder_forward(embed_image(image, weights), weights, reduction)
