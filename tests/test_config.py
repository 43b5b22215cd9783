from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from repiece.config import (
    MAX_DEPTH,
    ModelConfig,
    ReductionConfig,
    RunSpec,
    model_config_from_dict,
    reduction_config_from_dict,
    run_spec_from_dict,
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
    with pytest.raises(ConfigError, match="JSON object"):
        run_spec_from_dict(raw)
    with pytest.raises(ConfigError, match="JSON object"):
        run_spec_from_dict({"model": raw})


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
        {"mlp_ratio": 10**400},
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
    with pytest.raises(ConfigError, match="unknown spec keys"):
        run_spec_from_dict({"wieghts": "w.bin"})


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
        {"mlp_ratio": 1e308},  # mlp_ratio * dim, the hidden width, overflows a float
        {"dim": 6 * 10**400},
        {"stem": "coherence", "patch_size": 56},  # the stem always makes a 14x14 map
        {"depth": MAX_DEPTH + 1},
        {"depth": 10**12, "heads": 1, "dim": 1},  # per-layer loops would exhaust memory
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
    assert model_config_from_dict({"depth": MAX_DEPTH}) == ModelConfig(depth=MAX_DEPTH)
    assert reduction_config_from_dict({"keep_rate": 1.0}) == ReductionConfig(keep_rate=1.0)
    assert reduction_config_from_dict({"tome_reduction": 0}) == ReductionConfig(tome_reduction=0)
    assert reduction_config_from_dict({"prune_layers": [0]}) == ReductionConfig(prune_layers={0})


def test_run_spec_defaults_and_sections():
    assert RunSpec() == RunSpec(ModelConfig(), ReductionConfig(), None, [], None, 0, {})
    spec = run_spec_from_dict(
        {"model": {"depth": 2, "heads": 2, "dim": 16}, "reduction": {"prune_layers": [1]}, "seed": 3}
    )
    assert spec == RunSpec(
        model=ModelConfig(depth=2, heads=2, dim=16),
        reduction=ReductionConfig(prune_layers=frozenset({1})),
        seed=3,
    )
    with pytest.raises(ConfigError, match="'model'"):  # sections are records, not dicts
        RunSpec(model={"depth": 2, "heads": 2, "dim": 16})


@pytest.mark.parametrize(
    "raw",
    [
        {"seed": True},
        {"seed": -1},
        {"seed": 1.0},
        {"inputs": ["a", 5]},
        {"inputs": "a.ppm"},
        {"labels": {"a": 1.0}},
        {"labels": {"a": True}},
        {"weights": 5},
        {"out": ["d"]},
    ],
)
def test_run_spec_rejects_wrong_values_naming_the_key(raw):
    (key,) = raw
    with pytest.raises(ConfigError, match=repr(key)):
        RunSpec(**raw)
    with pytest.raises(ConfigError, match=repr(key)):
        run_spec_from_dict(raw)


_RECORDS = (
    (ModelConfig, model_config_from_dict),
    (ReductionConfig, reduction_config_from_dict),
    (RunSpec, run_spec_from_dict),
)
_FIELDS = [(cls, load, f.name) for cls, load in _RECORDS for f in fields(cls)]
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 300),
    st.integers(-(10**400), 10**400),
    st.sampled_from([2**1024, 10**400, -(10**400)]),  # ints too large for a float
    st.floats(),  # nan, +-inf and -0.0 included
    st.sampled_from([0.5, 1.0, -0.0, float("nan"), float("inf"), -float("inf")]),
    st.sampled_from(["", "grid", "coherence", "tome", "imagepiece", "w.bin"]),
    st.text(max_size=6),
)
_KEYS = st.sampled_from([name for _, _, name in _FIELDS]) | st.text(max_size=4)
_RAW = _SCALARS | st.recursive(  # alone, st.recursive draws few top-level scalars
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(_RAW)
def test_any_raw_field_value_builds_a_record_or_raises_config_error(value):
    # each drawn value meets every field, so every field sees each kind of value
    for cls, from_dict, name in _FIELDS:
        for build in (lambda: cls(**{name: value}), lambda: from_dict({name: value})):
            try:
                assert isinstance(build(), cls)
            except ConfigError:
                pass
