"""Model and reduction configuration records.

Both configs are frozen dataclasses that check each field's type and then its
range on construction, however they are built; they are the only state shared
between the embedding stem, the encoder, the reduction strategies, and the
schedule/FLOPs analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from .errors import ConfigError

STRATEGIES = ("none", "evit", "tome", "imagepiece")

#: Image side length the positional table and mask grid are sized for.
IMAGE_SIZE = 224

#: Side length of one random occlusion mask (and of one DeiT patch).
MASK_SIZE = 16


#: Value types each annotated scalar field accepts. bool is an int subclass in
#: Python, so it is excluded from the numeric fields explicitly.
_FIELD_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,)}

_LAYER_FIELDS = ("retokenize_layers", "prune_layers")


def _check_types(config: Any, what: str) -> None:
    """Check each field of a config against its annotation; store layer sets as frozensets."""
    for name, field in config.__dataclass_fields__.items():
        value = getattr(config, name)
        if name in _LAYER_FIELDS:
            if value is None and name == "retokenize_layers":
                continue
            if not isinstance(value, (list, tuple, set, frozenset)) or not all(
                isinstance(l, int) and not isinstance(l, bool) and l >= 0 for l in value
            ):
                raise ConfigError(f"{what} config {name!r} must be a list of layer indices >= 0")
            object.__setattr__(config, name, frozenset(value))
            continue
        kind = field.type
        if not isinstance(value, _FIELD_TYPES[kind]) or (isinstance(value, bool) and kind != "bool"):
            raise ConfigError(f"{what} config {name!r} must be of type {kind}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{what} config {name!r} must be finite, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Shape of the transformer backbone and its tokenizer stem."""

    depth: int = 12
    heads: int = 6
    dim: int = 384
    mlp_ratio: float = 4.0
    num_classes: int = 1000
    patch_size: int = 16
    stem: str = "grid"  # "grid" (non-overlapping patches) or "coherence" (conv stack)
    stem_base: int = 24  # first conv width; doubles per stage (24 -> 48 -> 96 -> 192)

    def __post_init__(self) -> None:
        _check_types(self, "model")
        if self.depth < 0:
            raise ConfigError(f"depth must be >= 0, got {self.depth}")
        if self.heads < 1 or self.dim < 1:
            raise ConfigError("heads and dim must be positive")
        if self.dim % self.heads != 0:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.mlp_ratio <= 0:
            raise ConfigError(f"mlp_ratio must be positive, got {self.mlp_ratio}")
        if self.num_classes < 1:
            raise ConfigError("num_classes must be positive")
        if self.patch_size < 1 or IMAGE_SIZE % self.patch_size != 0:
            raise ConfigError(f"patch_size must divide {IMAGE_SIZE}, got {self.patch_size}")
        if self.stem not in ("grid", "coherence"):
            raise ConfigError(f"stem must be 'grid' or 'coherence', got {self.stem!r}")
        if self.stem_base < 1:
            raise ConfigError("stem_base must be positive")

    @property
    def grid_side(self) -> int:
        return IMAGE_SIZE // self.patch_size

    @property
    def num_patches(self) -> int:
        return self.grid_side * self.grid_side

    @property
    def mlp_hidden(self) -> int:
        return int(round(self.mlp_ratio * self.dim))

    @property
    def stem_widths(self) -> tuple[int, int, int, int]:
        b = self.stem_base
        return (b, 2 * b, 4 * b, 8 * b)


@dataclass(frozen=True)
class ReductionConfig:
    """Which token-reduction strategy runs, with its ratios and layer schedule.

    ``retokenize_layers=None`` means every layer. ``prune_layers`` defaults to
    the canonical {3, 6, 9} placement. A layer set may be any list, tuple or set
    of non-negative ints; it is stored as a frozenset. Layer indices are
    validated against the model depth at dispatch time, not here.
    """

    strategy: str = "none"
    nonsemantic_proportion: float = 0.3  # p: share of image tokens treated as non-semantic
    merge_ratio: float = 0.08  # merges per retokenization, as a share of image tokens
    keep_rate: float = 0.8  # r: share of image tokens kept at a pruning layer
    tome_reduction: int = 13  # token pairs merged per layer by the tome strategy
    retokenize_layers: frozenset[int] | None = None
    prune_layers: frozenset[int] = frozenset({3, 6, 9})
    proportional_attention: bool = True  # add log(size) to attention logits per key
    evit_fuse: bool = True  # fold pruned tokens into one attention-weighted extra token

    def __post_init__(self) -> None:
        _check_types(self, "reduction")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if not 0.0 < self.nonsemantic_proportion < 1.0:
            raise ConfigError(
                f"nonsemantic_proportion must lie in (0, 1), got {self.nonsemantic_proportion}"
            )
        if not 0.0 < self.merge_ratio < 1.0:
            raise ConfigError(f"merge_ratio must lie in (0, 1), got {self.merge_ratio}")
        if not 0.0 < self.keep_rate <= 1.0:
            raise ConfigError(f"keep_rate must lie in (0, 1], got {self.keep_rate}")
        if self.tome_reduction < 0:
            raise ConfigError(f"tome_reduction must be >= 0, got {self.tome_reduction}")

    def validate_depth(self, depth: int) -> None:
        """Reject layer schedules that reference layers past the model depth."""
        for name in _LAYER_FIELDS:
            layers = getattr(self, name)
            if layers is not None and any(l >= depth for l in layers):
                raise ConfigError(f"{name} references a layer >= depth {depth}")

    def retokenize_at(self, layer: int) -> bool:
        if self.retokenize_layers is None:
            return True
        return layer in self.retokenize_layers

    def prune_at(self, layer: int) -> bool:
        return layer in self.prune_layers


def _checked_fields(raw: Any, cls: type, what: str) -> dict[str, Any]:
    """Check that a JSON-style dict names only fields of a config dataclass."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} config must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown {what} config keys: {sorted(unknown)}")
    return raw


def model_config_from_dict(raw: dict[str, Any]) -> ModelConfig:
    """Build a ModelConfig from a JSON-style dict, rejecting unknown keys."""
    return ModelConfig(**_checked_fields(raw, ModelConfig, "model"))


def reduction_config_from_dict(raw: dict[str, Any]) -> ReductionConfig:
    """Build a ReductionConfig from a JSON-style dict, rejecting unknown keys."""
    return ReductionConfig(**_checked_fields(raw, ReductionConfig, "reduction"))
