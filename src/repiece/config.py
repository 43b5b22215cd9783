"""Model, reduction and run configuration records.

All three are frozen dataclasses that check each field against its annotation,
through one table of what each annotation accepts, and then its range, however
they are built: a call, `dataclasses.replace` or a `*_from_dict` JSON loader.
`ModelConfig` and `ReductionConfig` are all the stem, encoder, strategies and
schedule share; `RunSpec` is a CLI run's spec file merged with its flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

from .errors import ConfigError

STRATEGIES = ("none", "evit", "tome", "imagepiece")

#: Image side length the positional table and mask grid are sized for.
IMAGE_SIZE = 224

#: Side length of one random occlusion mask (and of one DeiT patch).
MASK_SIZE = 16

#: Largest accepted encoder depth, far above any ViT's (ViT-G has 48 blocks).
#: The weights schema, token schedule and FLOPs count each loop once per layer
#: before any tensor exists, so an unbounded depth would exhaust memory there
#: instead of failing as a configuration error.
MAX_DEPTH = 1024


_LAYER_FIELDS = ("retokenize_layers", "prune_layers")


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # True is not a count


def _is_finite_float(value: Any) -> bool:
    try:
        return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _is_layer_set(value: Any) -> bool:
    return isinstance(value, (list, tuple, set, frozenset)) and all(
        _is_int(l) and l >= 0 for l in value
    )


#: What each field annotation accepts: a predicate and its wording in messages.
_CHECKS: dict[str, tuple[Callable[[Any], bool], str]] = {
    "int": (_is_int, "an int"),
    "float": (_is_finite_float, "a finite float"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "bool": (lambda v: isinstance(v, bool), "a bool"),
    "list[str]": (
        lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
        "a list of strings",
    ),
    "dict[str, int]": (
        lambda v: isinstance(v, dict) and all(isinstance(k, str) and _is_int(n) for k, n in v.items()),
        "an object mapping names to ints",
    ),
    "frozenset[int]": (_is_layer_set, "a list of layer indices >= 0"),
    "ModelConfig": (lambda v: isinstance(v, ModelConfig), "a model config"),
    "ReductionConfig": (lambda v: isinstance(v, ReductionConfig), "a reduction config"),
}


def _check_types(config: Any, what: str) -> None:
    """Check each field of a record against its annotation; store layer sets as frozensets."""
    for name, declared in config.__dataclass_fields__.items():
        value = getattr(config, name)
        kind, _, optional = declared.type.partition(" | ")  # "T | None" also takes None
        if value is None and optional == "None":
            continue
        accepts, wanted = _CHECKS[kind]
        if not accepts(value):
            raise ConfigError(f"{what} {name!r} must be {wanted}, got {value!r}")
        if name in _LAYER_FIELDS:
            object.__setattr__(config, name, frozenset(value))


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
        _check_types(self, "model config")
        if not 0 <= self.depth <= MAX_DEPTH:
            raise ConfigError(f"depth must lie in [0, {MAX_DEPTH}], got {self.depth}")
        if self.heads < 1 or self.dim < 1:
            raise ConfigError("heads and dim must be positive")
        if self.dim % self.heads != 0:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.mlp_ratio <= 0:
            raise ConfigError(f"mlp_ratio must be positive, got {self.mlp_ratio}")
        try:
            self.mlp_hidden
        except OverflowError:
            raise ConfigError(f"mlp_ratio {self.mlp_ratio} times dim overflows a float") from None
        if self.num_classes < 1:
            raise ConfigError("num_classes must be positive")
        if self.patch_size < 1 or IMAGE_SIZE % self.patch_size != 0:
            raise ConfigError(f"patch_size must divide {IMAGE_SIZE}, got {self.patch_size}")
        if self.stem not in ("grid", "coherence"):
            raise ConfigError(f"stem must be 'grid' or 'coherence', got {self.stem!r}")
        if self.stem == "coherence" and self.patch_size != 16:  # four stride-2 convs: 14x14
            raise ConfigError(f"the coherence stem needs patch_size 16, got {self.patch_size}")
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
        _check_types(self, "reduction config")
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
        return self.retokenize_layers is None or layer in self.retokenize_layers

    def prune_at(self, layer: int) -> bool:
        return layer in self.prune_layers


@dataclass(frozen=True)
class RunSpec:
    """One CLI run: a spec file's seven keys, merged with the flags that override them."""

    model: ModelConfig = ModelConfig()
    reduction: ReductionConfig = ReductionConfig()
    weights: str | None = None
    inputs: list[str] = field(default_factory=list)
    out: str | None = None
    seed: int = 0
    labels: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_types(self, "spec")
        if self.seed < 0:
            raise ConfigError(f"spec 'seed' must be >= 0, got {self.seed}")


def _checked_fields(raw: Any, cls: type, what: str) -> dict[str, Any]:
    """Check that a JSON-style dict names only fields of a config dataclass."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    return raw


def model_config_from_dict(raw: dict[str, Any]) -> ModelConfig:
    """Build a ModelConfig from a JSON-style dict, rejecting unknown keys."""
    return ModelConfig(**_checked_fields(raw, ModelConfig, "model config"))


def reduction_config_from_dict(raw: dict[str, Any]) -> ReductionConfig:
    """Build a ReductionConfig from a JSON-style dict, rejecting unknown keys."""
    return ReductionConfig(**_checked_fields(raw, ReductionConfig, "reduction config"))


def run_spec_from_dict(raw: dict[str, Any]) -> RunSpec:
    """Build a RunSpec from a spec JSON document, rejecting unknown keys."""
    sections = {"model": model_config_from_dict, "reduction": reduction_config_from_dict}
    raw = _checked_fields(raw, RunSpec, "spec")
    return RunSpec(**{k: sections[k](v) if k in sections else v for k, v in raw.items()})
