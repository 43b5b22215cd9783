from dataclasses import replace

import pytest

from repiece.config import (
    ModelConfig,
    ReductionConfig,
    model_config_from_dict,
    reduction_config_from_dict,
)
from repiece.errors import ConfigError


def test_model_config_from_dict_round_trips():
    raw = {"depth": 2, "heads": 2, "dim": 16, "mlp_ratio": 4, "stem": "coherence"}
    assert model_config_from_dict(raw) == ModelConfig(**raw)


def test_reduction_config_from_dict_turns_layer_lists_into_sets():
    cfg = reduction_config_from_dict({"prune_layers": [1, 3], "retokenize_layers": None, "evit_fuse": False})
    assert cfg == ReductionConfig(prune_layers=frozenset({1, 3}), evit_fuse=False)


@pytest.mark.parametrize("raw", [[], [1], "depth", 5, None, 2.5])
def test_from_dict_rejects_non_objects(raw):
    with pytest.raises(ConfigError, match="JSON object"):
        model_config_from_dict(raw)
    with pytest.raises(ConfigError, match="JSON object"):
        reduction_config_from_dict(raw)


@pytest.mark.parametrize(
    "raw",
    [
        {"depth": "1"},
        {"depth": 1.0},
        {"depth": True},
        {"dim": None},
        {"mlp_ratio": "4"},
        {"mlp_ratio": float("inf")},
        {"stem": 1},
        {"heads": [2]},
        {"patch_size": True},
        {"depth": 2.5},
    ],
)
def test_model_config_rejects_wrong_types(raw):
    with pytest.raises(ConfigError):
        ModelConfig(**raw)
    with pytest.raises(ConfigError):
        model_config_from_dict(raw)


@pytest.mark.parametrize(
    "raw",
    [
        {"prune_layers": 3},
        {"prune_layers": None},
        {"prune_layers": "13"},
        {"prune_layers": [1.5]},
        {"retokenize_layers": [True]},
        {"keep_rate": "0.5"},
        {"keep_rate": float("nan")},
        {"tome_reduction": 2.0},
        {"evit_fuse": 1},
        {"strategy": None},
        {"tome_reduction": 2.5},
        {"merge_ratio": "0.1"},
        {"retokenize_layers": 5},
        {"prune_layers": {1.5}},
        {"prune_layers": {True}},
    ],
)
def test_reduction_config_rejects_wrong_types(raw):
    with pytest.raises(ConfigError):
        ReductionConfig(**raw)
    with pytest.raises(ConfigError):
        reduction_config_from_dict(raw)


def test_replace_runs_the_constructor_checks():
    cfg = replace(ReductionConfig(), prune_layers=[3, 1, 3], retokenize_layers=(0,))
    assert cfg.prune_layers == frozenset({1, 3}) and cfg.retokenize_layers == frozenset({0})
    with pytest.raises(ConfigError, match="'tome_reduction'"):
        replace(cfg, strategy="tome", tome_reduction=2.5)
    with pytest.raises(ConfigError, match="'mlp_ratio'"):
        replace(ModelConfig(), mlp_ratio=float("nan"))


def test_from_dict_still_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown model config keys"):
        model_config_from_dict({"depht": 1})
    with pytest.raises(ConfigError, match="unknown reduction config keys"):
        reduction_config_from_dict({"prune": [1]})


@pytest.mark.parametrize(
    "raw",
    [
        {"depth": -1},
        {"heads": 0},
        {"dim": 0},
        {"dim": 16, "heads": 3},
        {"mlp_ratio": 0},
        {"mlp_ratio": -1.5},
        {"num_classes": 0},
        {"patch_size": 0},
        {"patch_size": 15},
        {"stem": "square"},
        {"stem_base": 0},
    ],
)
def test_model_config_rejects_out_of_range_values(raw):
    with pytest.raises(ConfigError):
        ModelConfig(**raw)
    with pytest.raises(ConfigError):
        model_config_from_dict(raw)


@pytest.mark.parametrize(
    "raw",
    [
        {"strategy": "prune"},
        {"nonsemantic_proportion": 0.0},
        {"nonsemantic_proportion": 1.0},
        {"merge_ratio": 0.0},
        {"merge_ratio": 1.0},
        {"keep_rate": 0.0},
        {"keep_rate": 1.01},
        {"tome_reduction": -1},
        {"prune_layers": [2, -1]},
        {"retokenize_layers": [-3]},
    ],
)
def test_reduction_config_rejects_out_of_range_values(raw):
    with pytest.raises(ConfigError):
        ReductionConfig(**raw)
    with pytest.raises(ConfigError):
        reduction_config_from_dict(raw)


def test_range_boundaries_are_accepted():
    assert model_config_from_dict({"depth": 0}) == ModelConfig(depth=0)
    assert reduction_config_from_dict({"keep_rate": 1.0}) == ReductionConfig(keep_rate=1.0)
    assert reduction_config_from_dict({"tome_reduction": 0}) == ReductionConfig(tome_reduction=0)
    assert reduction_config_from_dict({"prune_layers": [0]}) == ReductionConfig(prune_layers={0})
