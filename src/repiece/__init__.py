"""repiece: a desk-scale ViT inference engine with pluggable token reduction.

The package is organized as small, composable modules. Each imports only
modules listed before it and the leaves config, errors, container and synth:

- numerics: dense float32 kernels (matmul, softmax, layer norm, GELU, conv2d,
  cosine similarity).
- embed: image -> token batches via grid patchifier or convolutional stem;
  CLS/positional handling; random patch masking; PPM I/O.
- reduce: the retokenization strategy plus pruning/merging baselines, and the
  per-layer records they read and write (AttentionRecord, LayerDiag).
- diag: schedules, FLOPs, reduction metrics and the RunDiag run report.
- vit: the transformer encoder with class-attention capture, reduction hooks,
  and the weights container.
- cli: the `repiece` command-line driver and the bench and mask harnesses.
"""

from .config import ModelConfig, ReductionConfig, STRATEGIES
from .diag import RunDiag, flops_count, token_schedule
from .embed import TokenBatch, apply_random_masks
from .errors import (
    ConfigError,
    DegenerateInputError,
    DimensionError,
    FormatError,
    NumericError,
    RangeError,
    RepieceError,
)
from .vit import ModelWeights, encoder_forward, forward_image, init_random, load_weights, save_weights

__version__ = "0.1.0"

__all__ = [
    "ModelConfig",
    "ReductionConfig",
    "STRATEGIES",
    "RunDiag",
    "TokenBatch",
    "ModelWeights",
    "encoder_forward",
    "forward_image",
    "init_random",
    "load_weights",
    "save_weights",
    "token_schedule",
    "flops_count",
    "apply_random_masks",
    "RepieceError",
    "ConfigError",
    "DegenerateInputError",
    "DimensionError",
    "FormatError",
    "NumericError",
    "RangeError",
    "__version__",
]
