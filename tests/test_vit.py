import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import repiece
from conftest import batch_with_sizes, make_batch, random_block
from repiece import numerics, reduce, vit
from repiece.embed import finalize_tokens
from repiece.config import STRATEGIES, ModelConfig, ReductionConfig
from repiece.diag import token_schedule
from repiece.errors import ConfigError, DimensionError, FormatError, NumericError, RepieceError


# ---------------------------------------------------------------- attention

def test_mhsa_matches_float64_reference(rng):
    batch = make_batch(rng, n_img=9, dim=16)
    block = random_block(rng, 16, 2)
    out, record = vit.mhsa_forward(batch, block)
    ref_out, ref_class, _ = oracles.attention_direct(batch.features, block, cls_row=0)
    assert np.allclose(out.features, ref_out, atol=1e-5)
    assert np.allclose(record.class_attention, ref_class, atol=1e-6)


def test_mhsa_attention_rows_are_distributions(rng):
    batch = make_batch(rng, n_img=7, dim=16)
    _, record = vit.mhsa_forward(batch, random_block(rng, 16, 4))
    assert record.per_head.shape == (4, 8, 8)
    assert np.allclose(record.per_head.sum(axis=2), 1.0, atol=1e-6)
    assert np.all(record.per_head >= 0)


def test_mhsa_size_bias_matches_reference(rng):
    batch = make_batch(rng, n_img=6, dim=16)
    sizes = np.array([1, 3, 1, 2, 5, 1, 1], dtype=np.int64)
    batch = batch_with_sizes(batch.features, sizes)
    block = random_block(rng, 16, 2)
    out, record = vit.mhsa_forward(batch, block, proportional=True)
    ref_out, ref_class, _ = oracles.attention_direct(batch.features, block, sizes=sizes)
    assert np.allclose(out.features, ref_out, atol=1e-5)
    assert np.allclose(record.class_attention, ref_class, atol=1e-6)


def test_mhsa_unit_sizes_change_nothing(rng):
    batch = make_batch(rng, n_img=6, dim=16)
    block = random_block(rng, 16, 2)
    plain, rec_a = vit.mhsa_forward(batch, block)
    biased, rec_b = vit.mhsa_forward(batch, block, proportional=True)
    # log(1) = 0 exactly, so the bias is a no-op bit for bit
    assert np.array_equal(plain.features, biased.features)
    assert np.array_equal(rec_a.per_head, rec_b.per_head)


def test_mhsa_single_token(rng):
    batch = make_batch(rng, n_img=0, dim=16)
    _, record = vit.mhsa_forward(batch, random_block(rng, 16, 2))
    assert np.allclose(record.class_attention, [1.0])


def test_mhsa_constant_features_attend_uniformly(rng):
    n = 5
    batch = make_batch(rng, n_img=n - 1, dim=16)
    batch = batch.with_features(np.tile(batch.features[0], (n, 1)))
    _, record = vit.mhsa_forward(batch, random_block(rng, 16, 2))
    assert np.allclose(record.per_head, 1.0 / n, atol=1e-6)


def test_mhsa_records_keys(rng):
    batch = make_batch(rng, n_img=5, dim=16)
    _, record = vit.mhsa_forward(batch, random_block(rng, 16, 2))
    assert record.keys.shape == (6, 16)
    assert record.heads == 2


def test_mhsa_dimension_checks(rng):
    batch = make_batch(rng, n_img=4, dim=16)
    with pytest.raises(DimensionError):
        vit.mhsa_forward(batch, random_block(rng, 32, 2))
    with pytest.raises(DimensionError):  # 3 heads do not divide dim 16
        vit.mhsa_forward(batch, replace(random_block(rng, 16, 2), heads=3))


# ---------------------------------------------------------------- mlp

def test_mlp_zero_weights_is_identity(rng):
    batch = make_batch(rng, n_img=4, dim=8)
    dim, hidden = 8, 32
    block = vit.BlockWeights(
        ln1_gamma=np.ones(dim, np.float32),
        ln1_beta=np.zeros(dim, np.float32),
        qkv_weight=np.zeros((dim, 3 * dim), np.float32),
        qkv_bias=np.zeros(3 * dim, np.float32),
        proj_weight=np.zeros((dim, dim), np.float32),
        proj_bias=np.zeros(dim, np.float32),
        ln2_gamma=np.ones(dim, np.float32),
        ln2_beta=np.zeros(dim, np.float32),
        fc1_weight=np.zeros((dim, hidden), np.float32),
        fc1_bias=np.zeros(hidden, np.float32),
        fc2_weight=np.zeros((hidden, dim), np.float32),
        fc2_bias=np.zeros(dim, np.float32),
        heads=2,
    )
    out = vit.mlp_forward(batch, block)
    assert np.array_equal(out.features, batch.features)


def test_mlp_matches_composition(rng):
    batch = make_batch(rng, n_img=5, dim=16)
    block = random_block(rng, 16, 2)
    out = vit.mlp_forward(batch, block)
    x = batch.features.astype(np.float64)
    h = oracles.layer_norm_rows_f64(x, block.ln2_gamma, block.ln2_beta)
    h = oracles.gelu_f64(h @ np.asarray(block.fc1_weight, np.float64) + block.fc1_bias)
    y = h @ np.asarray(block.fc2_weight, np.float64) + block.fc2_bias
    assert np.allclose(out.features, x + y, atol=1e-4)


# ---------------------------------------------------------------- weights i/o

def _assert_same_fields(a, b):
    """Every dataclass field equal: arrays bytewise, tuples of arrays item by item."""
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        elif isinstance(x, tuple) and x and isinstance(x[0], np.ndarray):
            assert len(x) == len(y), f.name
            for u, v in zip(x, y):
                assert u.dtype == v.dtype and np.array_equal(u, v), f.name
        elif f.name != "blocks":
            assert x == y, f.name


def test_save_load_round_trip(tmp_path, tiny_config):
    # grid stem, coherence stem, and a model with no blocks
    configs = (
        tiny_config,
        replace(tiny_config, depth=2, stem="coherence", stem_base=4),
        replace(tiny_config, depth=0, stem="coherence", stem_base=2),
    )
    for i, config in enumerate(configs):
        weights = vit.init_random(config, seed=11)
        path = tmp_path / f"w{i}.bin"
        vit.save_weights(weights, path)
        back = vit.load_weights(path)
        assert back.config == config
        _assert_same_fields(back, weights)
        assert len(back.blocks) == len(weights.blocks) == config.depth
        for a, b in zip(back.blocks, weights.blocks):
            _assert_same_fields(a, b)
        if config.stem == "coherence":
            assert len(back.conv_kernels) == len(back.conv_biases) == 4
            assert back.patch_projection is None and back.patch_bias is None
        else:
            assert back.conv_kernels is None and back.proj_kernel is None

        path2 = tmp_path / f"w{i}b.bin"
        vit.save_weights(back, path2)
        assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_missing_tensor(tmp_path, tiny_config):
    from repiece import container

    weights = vit.init_random(tiny_config, seed=0)
    path = tmp_path / "w.bin"
    vit.save_weights(weights, path)
    tensors, meta = container.load_tensors(path)
    del tensors["blocks.0.ln1.gamma"]
    container.save_tensors(path, tensors, meta=meta)
    with pytest.raises(FormatError, match="missing"):
        vit.load_weights(path)


def test_load_rejects_extra_tensor(tmp_path, tiny_config):
    from repiece import container

    weights = vit.init_random(tiny_config, seed=0)
    path = tmp_path / "w.bin"
    vit.save_weights(weights, path)
    tensors, meta = container.load_tensors(path)
    tensors["rogue"] = np.zeros(3, np.float32)
    container.save_tensors(path, tensors, meta=meta)
    with pytest.raises(FormatError, match="unexpected"):
        vit.load_weights(path)


def test_load_rejects_shape_mismatch(tmp_path, tiny_config):
    from repiece import container

    weights = vit.init_random(tiny_config, seed=0)
    path = tmp_path / "w.bin"
    vit.save_weights(weights, path)
    tensors, meta = container.load_tensors(path)
    tensors["embed.cls"] = np.zeros(tiny_config.dim + 1, np.float32)
    container.save_tensors(path, tensors, meta=meta)
    with pytest.raises(FormatError, match="embed.cls"):
        vit.load_weights(path)


def test_load_requires_config_meta(tmp_path, tiny_config):
    from repiece import container

    weights = vit.init_random(tiny_config, seed=0)
    path = tmp_path / "w.bin"
    vit.save_weights(weights, path)
    tensors, _ = container.load_tensors(path)
    container.save_tensors(path, tensors, meta=None)
    with pytest.raises(FormatError, match="configuration"):
        vit.load_weights(path)


def test_init_random_deterministic(tiny_config):
    a = vit.init_random(tiny_config, seed=5)
    b = vit.init_random(tiny_config, seed=5)
    c = vit.init_random(tiny_config, seed=6)
    assert np.array_equal(a.head_weight, b.head_weight)
    assert np.array_equal(a.blocks[2].fc1_weight, b.blocks[2].fc1_weight)
    assert not np.array_equal(a.head_weight, c.head_weight)


def test_init_random_value_profile(tiny_config):
    weights = vit.init_random(tiny_config, seed=1)
    assert np.all(weights.blocks[0].ln1_gamma == 1.0)
    assert np.all(weights.blocks[0].qkv_bias == 0.0)
    assert np.max(np.abs(weights.head_weight)) <= 0.04 + 1e-6  # 2 sigma at std 0.02


def test_init_stem_kernels_are_averaging_filters():
    cfg = ModelConfig(depth=0, heads=1, dim=8, num_classes=2, stem="coherence", stem_base=2)
    weights = vit.init_random(cfg, seed=3)
    for kernel in weights.conv_kernels:
        assert np.all(kernel >= 0)
        assert np.allclose(kernel.sum(axis=(1, 2, 3)), 1.0, atol=1e-6)


#: The file layout of a depth-1, dim-16, 10-class model, outside the stem.
#: Renaming or reshaping any tensor breaks every existing weights file.
_SCHEMA_COMMON = {
    "embed.positional": (197, 16),
    "embed.cls": (16,),
    "final_norm.gamma": (16,),
    "final_norm.beta": (16,),
    "head.weight": (16, 10),
    "head.bias": (10,),
    "blocks.0.ln1.gamma": (16,),
    "blocks.0.ln1.beta": (16,),
    "blocks.0.attn.qkv.weight": (16, 48),
    "blocks.0.attn.qkv.bias": (48,),
    "blocks.0.attn.proj.weight": (16, 16),
    "blocks.0.attn.proj.bias": (16,),
    "blocks.0.ln2.gamma": (16,),
    "blocks.0.ln2.beta": (16,),
    "blocks.0.mlp.fc1.weight": (16, 64),
    "blocks.0.mlp.fc1.bias": (64,),
    "blocks.0.mlp.fc2.weight": (64, 16),
    "blocks.0.mlp.fc2.bias": (16,),
}


def test_weights_schema_enumerates_blocks():
    cfg = ModelConfig()  # depth 12, dim 384
    schema = vit.weights_schema(cfg)
    assert schema["blocks.0.attn.qkv.weight"] == (384, 1152)
    assert schema["blocks.11.mlp.fc1.weight"] == (384, 1536)
    assert "blocks.12.ln1.gamma" not in schema
    assert schema["patch.projection"] == (768, 384)
    assert len(schema) == 6 + 2 + 12 * 12
    small = ModelConfig(depth=1, heads=2, dim=16, num_classes=10)
    assert vit.weights_schema(small) == {
        **_SCHEMA_COMMON,
        "patch.projection": (768, 16),
        "patch.bias": (16,),
    }


def test_weights_schema_coherence_stem():
    cfg = ModelConfig(stem="coherence")
    schema = vit.weights_schema(cfg)
    assert schema["stem.conv1.weight"] == (24, 3, 3, 3)
    assert schema["stem.conv4.weight"] == (192, 96, 3, 3)
    assert schema["stem.proj.weight"] == (384, 192, 1, 1)
    assert "patch.projection" not in schema
    small = ModelConfig(depth=1, heads=2, dim=16, num_classes=10, stem="coherence", stem_base=4)
    assert vit.weights_schema(small) == {
        **_SCHEMA_COMMON,
        "stem.conv1.weight": (4, 3, 3, 3),
        "stem.conv1.bias": (4,),
        "stem.conv2.weight": (8, 4, 3, 3),
        "stem.conv2.bias": (8,),
        "stem.conv3.weight": (16, 8, 3, 3),
        "stem.conv3.bias": (16,),
        "stem.conv4.weight": (32, 16, 3, 3),
        "stem.conv4.bias": (32,),
        "stem.proj.weight": (16, 32, 1, 1),
        "stem.proj.bias": (16,),
    }


@pytest.mark.parametrize(
    "cfg, tensor",
    [
        (ModelConfig(depth=1, heads=2, dim=16, num_classes=2, mlp_ratio=1e300), "blocks.0.mlp.fc1.weight"),
        (ModelConfig(depth=1, heads=1, dim=2**70, num_classes=2), "embed.positional"),
    ],
)
def test_geometry_numpy_cannot_allocate_is_config_error(cfg, tensor):
    # numpy raises a bare ValueError once a float32 tensor's bytes pass sys.maxsize
    with pytest.raises(ConfigError, match=repr(tensor)):
        vit.weights_schema(cfg)
    with pytest.raises(ConfigError, match=repr(tensor)):
        vit.init_random(cfg, seed=0)


# ---------------------------------------------------------------- encoder

NO_REDUCTION = ReductionConfig(strategy="none", prune_layers=frozenset())


def test_encoder_none_keeps_every_token(rng, tiny_config):
    weights = vit.init_random(tiny_config, seed=2)
    image = rng.random((3, 224, 224)).astype(np.float32)
    logits, run = vit.forward_image(image, weights, NO_REDUCTION)
    assert logits.shape == (10,)
    assert np.all(np.isfinite(logits))
    assert run.strategy == "none"
    assert run.token_counts() == [197] * 4
    assert run.final_output_tokens == 197
    assert all(ld.merges_executed == 0 and ld.pruned_size == 0 for ld in run.per_layer)


def test_encoder_matches_schedule(rng, tiny_config):
    weights = vit.init_random(tiny_config, seed=2)
    image = rng.random((3, 224, 224)).astype(np.float32)
    rcfg = ReductionConfig(
        strategy="imagepiece", prune_layers=frozenset({1, 3}), keep_rate=0.7, merge_ratio=0.1
    )
    _, run = vit.forward_image(image, weights, rcfg)
    assert run.token_counts() == token_schedule(tiny_config, rcfg)
    assert run.final_output_tokens < 197


def test_forward_image_equals_manual_composition(rng, tiny_config):
    image = rng.random((3, 224, 224)).astype(np.float32)
    for stem in ("grid", "coherence"):
        weights = vit.init_random(replace(tiny_config, stem=stem, stem_base=4), seed=2)
        via_helper, _ = vit.forward_image(image, weights, NO_REDUCTION)
        batch = vit.embed_image(image, weights)
        fmap = vit.stem_tokens(image, weights)
        assert isinstance(fmap, np.ndarray) and fmap.shape == (14, 14, 16)
        composed = finalize_tokens(fmap, weights.positional, weights.cls_embedding)
        assert np.array_equal(batch.features, composed.features)
        assert np.array_equal(batch.owner, composed.owner)
        assert batch.grid == composed.grid
        direct, _ = vit.encoder_forward(batch, weights, NO_REDUCTION)
        assert np.array_equal(via_helper, direct)


def test_encoder_layer_hook_sees_every_layer(rng, tiny_config):
    weights = vit.init_random(tiny_config, seed=2)
    batch = vit.embed_image(rng.random((3, 224, 224)).astype(np.float32), weights)
    seen = []
    vit.encoder_forward(batch, weights, NO_REDUCTION, layer_hook=lambda l, b: seen.append((l, b.n_tokens)))
    assert seen == [(0, 197), (1, 197), (2, 197), (3, 197)]


def test_encoder_rejects_schedule_past_depth(rng, tiny_config):
    weights = vit.init_random(tiny_config, seed=2)
    batch = vit.embed_image(rng.random((3, 224, 224)).astype(np.float32), weights)
    with pytest.raises(ConfigError):
        vit.encoder_forward(batch, weights, ReductionConfig(strategy="evit", prune_layers=frozenset({9})))


def test_encoder_rejects_a_batch_of_another_dim(rng, tiny_config):
    weights = vit.init_random(tiny_config, seed=2)
    batch = make_batch(rng, n_img=4, dim=tiny_config.dim + 2)
    with pytest.raises(DimensionError, match="batch dim"):
        vit.encoder_forward(batch, weights, NO_REDUCTION)


def test_embed_image_names_wrong_input_size(rng, tiny_config):
    weights = vit.init_random(tiny_config, seed=2)
    with pytest.raises(DimensionError, match="64x64.*224x224"):
        vit.embed_image(rng.random((3, 64, 64)).astype(np.float32), weights)


# ---------------------------------------------------------------- error contract

#: One configuration per strategy that runs on the 4-layer tiny model.
EVERY_STRATEGY = [
    ReductionConfig(strategy=s, prune_layers=frozenset() if s == "none" else frozenset({1, 3}))
    for s in STRATEGIES
]


@pytest.mark.parametrize("rcfg", EVERY_STRATEGY, ids=STRATEGIES)
def test_overflow_raises_numeric_error_naming_the_layer(rng, tiny_config, rcfg):
    weights = vit.init_random(tiny_config, seed=2)
    # each factor alone keeps the MLP finite (~1e30); together the fc2 product overflows
    blocks = tuple(
        replace(b, fc1_weight=b.fc1_weight * 1e30, fc2_weight=b.fc2_weight * 1e30)
        for b in weights.blocks
    )
    image = rng.random((3, 224, 224)).astype(np.float32)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match=r"^layer 0: non-finite") as info:
        vit.forward_image(image, replace(weights, blocks=blocks), rcfg)
    assert isinstance(info.value.__cause__, NumericError)


@pytest.mark.parametrize("stem", ["grid", "coherence"])
def test_near_overflow_weights_raise_numeric_error_without_a_numpy_warning(rng, stem):
    # every weight matrix and kernel scaled by 1e20: some product overflows in
    # every strategy, and the typed error is the only thing a caller sees
    config = ModelConfig(
        depth=3, heads=2, dim=16, num_classes=10, stem=stem, stem_base=1,
        patch_size=56 if stem == "grid" else 16,
    )
    tensors = vit._weights_to_tensors(vit.init_random(config, seed=2))
    scaled = {
        name: t * np.float32(1e20) if t.ndim >= 2 and not name.startswith("embed.") else t
        for name, t in tensors.items()
    }
    weights = vit._weights_from_tensors(config, scaled)
    _assert_only_numeric_errors(rng.random((3, 224, 224)).astype(np.float32), weights)


def test_infinite_tokens_raise_numeric_error_without_a_numpy_warning(rng):
    # the positional add overflows, so tokens enter the encoder as inf and
    # layer norm meets inf - inf
    config = ModelConfig(depth=3, heads=2, dim=16, num_classes=10, patch_size=56)
    weights = vit.init_random(config, seed=2)
    weights = replace(
        weights,
        positional=np.full_like(weights.positional, 3e38),
        patch_bias=np.full_like(weights.patch_bias, 3e38),
    )
    _assert_only_numeric_errors(rng.random((3, 224, 224)).astype(np.float32), weights)


def _assert_only_numeric_errors(image: np.ndarray, weights: vit.ModelWeights) -> None:
    for strategy in STRATEGIES:
        rcfg = ReductionConfig(strategy=strategy, prune_layers=frozenset({1}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="non-finite"):
                vit.forward_image(image, weights, rcfg)


@pytest.mark.parametrize(
    "forward, bias, what",
    [
        (vit.mhsa_forward, "proj_bias", "attention output"),
        (vit.mlp_forward, "fc2_bias", "mlp output"),
    ],
)
def test_block_rejects_nonfinite_residual(rng, forward, bias, what):
    batch = make_batch(rng, dim=16)
    batch = batch.with_features(np.full(batch.features.shape, 3e38, np.float32))
    block = replace(random_block(rng, 16, 2), **{bias: np.full(16, 3e38, np.float32)})
    with np.errstate(over="ignore"), pytest.raises(NumericError, match=what):
        forward(batch, block)


def test_encoder_rejects_nonfinite_logits(rng, tiny_config):
    weights = vit.init_random(tiny_config, seed=2)
    # the head product stays finite (~1.6e38); adding the bias overflows
    weights = replace(
        weights,
        final_beta=np.ones(16, np.float32),
        head_weight=np.full((16, 10), 1e37, np.float32),
        head_bias=np.full(10, 3e38, np.float32),
    )
    image = rng.random((3, 224, 224)).astype(np.float32)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="logits"):
        vit.forward_image(image, weights, NO_REDUCTION)


@pytest.mark.parametrize("rcfg", EVERY_STRATEGY, ids=STRATEGIES)
def test_zero_keys_run_every_strategy(rng, tiny_config, rcfg):
    weights = vit.init_random(tiny_config, seed=2)
    blocks = tuple(
        replace(b, qkv_weight=np.zeros_like(b.qkv_weight), qkv_bias=np.zeros_like(b.qkv_bias))
        for b in weights.blocks
    )
    image = rng.random((3, 224, 224)).astype(np.float32)
    logits, run = vit.forward_image(image, replace(weights, blocks=blocks), rcfg)
    assert np.all(np.isfinite(logits))
    assert run.token_counts() == token_schedule(tiny_config, rcfg)


# ---------------------------------------------------------------- forward property

#: Out-of-range and mistyped values for each reduction field; an example
#: breaks at most one field, so that most examples run.
_BAD_FIELDS = {
    "nonsemantic_proportion": [0.0, 1.0, float("nan"), True],
    "merge_ratio": [0.0, 1.0, -0.5, 1],
    "keep_rate": [0.0, 1.5, float("inf")],
    "tome_reduction": [-1, True, 2.0],
    "retokenize_layers": [[-1], 2, [0.0], [3]],  # layer 3 is past every drawn depth
    "prune_layers": [None, [-1], {1: 1}, [3]],
    "proportional_attention": [1],
    "evit_fuse": [0],
}


def _filled(weights: vit.ModelWeights, value: float) -> vit.ModelWeights:
    """A copy of weights with every tensor set to one value."""
    tensors = {k: np.full_like(t, value) for k, t in vit._weights_to_tensors(weights).items()}
    return vit._weights_from_tensors(weights.config, tensors)


def _sharpened(weights: vit.ModelWeights, batch) -> vit.ModelWeights:
    """A copy of weights with every block's q and k columns doubled until block
    0 attends one-hot over batch (at most 30 doublings)."""
    d = weights.config.dim
    for _ in range(30):
        if not weights.blocks:
            break
        per_head = vit.mhsa_forward(batch, weights.blocks[0])[1].per_head
        if np.all(per_head.max(axis=-1) == 1.0):
            break
        blocks = tuple(
            replace(b, qkv_weight=np.concatenate([2 * b.qkv_weight[:, : 2 * d], b.qkv_weight[:, 2 * d :]], 1))
            for b in weights.blocks
        )
        weights = replace(weights, blocks=blocks)
    return weights


def _model_draw(data, **geometry) -> ModelConfig:
    """A tiny model config: depth <= 3, dim <= 16, with the given stem geometry."""
    depth = data.draw(st.integers(0, 3), label="depth")
    heads = data.draw(st.sampled_from([1, 2, 4]), label="heads")
    return ModelConfig(
        depth=depth,
        heads=heads,
        dim=heads * data.draw(st.sampled_from([1, 2, 4]), label="head_dim"),
        mlp_ratio=data.draw(st.sampled_from([0.25, 1.0, 4.0]), label="mlp_ratio"),
        num_classes=3,
        **geometry,
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_forwards_keep_the_invariants_or_raise_a_typed_error(data):
    # tiny grid-stem models (a 4x4 grid) with degenerate weights, and raw
    # reduction fields run through every strategy: a forward completes with
    # owner, conservation and schedule intact at every layer, or raises a
    # RepieceError; a config is rejected alike for every strategy
    _check_forwards(data, _model_draw(data, patch_size=56))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_coherence_stem_forwards_keep_the_invariants_or_raise_a_typed_error(data):
    # the same property on the conv stem's 14x14 grid; each example runs 196
    # image tokens, so it gets a smaller budget
    stem_base = data.draw(st.integers(1, 2), label="stem_base")
    _check_forwards(data, _model_draw(data, patch_size=16, stem="coherence", stem_base=stem_base))


def _check_forwards(data, config: ModelConfig) -> None:
    depth = config.depth
    seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
    weights = vit.init_random(config, seed)
    variant = data.draw(st.sampled_from(["random", "zero", "constant", "one-hot"]), label="weights")
    if variant in ("zero", "constant"):
        weights = _filled(weights, 0.0 if variant == "zero" else 0.5)
    batch = vit.embed_image(np.random.default_rng(seed).random((3, 224, 224)), weights)
    if variant == "one-hot":
        weights = _sharpened(weights, batch)
    share = st.floats(1e-9, 1 - 1e-9)  # hypothesis often draws the bounds themselves
    layers = st.lists(st.booleans(), min_size=depth, max_size=depth).map(
        lambda on: frozenset(layer for layer, b in enumerate(on) if b)  # empty to full
    )
    raw = dict(
        nonsemantic_proportion=data.draw(share, label="p"),
        merge_ratio=data.draw(share, label="merge_ratio"),
        keep_rate=data.draw(st.floats(1e-9, 1.0), label="keep_rate"),
        tome_reduction=data.draw(st.integers(0, config.num_patches + 4), label="r"),  # past every token
        retokenize_layers=data.draw(st.one_of(st.none(), layers), label="retokenize_layers"),
        prune_layers=data.draw(layers, label="prune_layers"),
        proportional_attention=data.draw(st.booleans(), label="proportional_attention"),
        evit_fuse=data.draw(st.booleans(), label="evit_fuse"),
    )
    broken = data.draw(st.one_of(st.none(), st.sampled_from(sorted(_BAD_FIELDS))), label="broken")
    if broken is not None:
        raw[broken] = data.draw(st.sampled_from(_BAD_FIELDS[broken]), label=broken)
    rejected = {}
    for strategy in STRATEGIES:
        seen = {}
        try:
            rcfg = ReductionConfig(strategy=strategy, **raw)
            _, run = vit.encoder_forward(batch, weights, rcfg, layer_hook=seen.__setitem__)
        except ConfigError as exc:
            rejected[strategy] = str(exc)
            continue
        except RepieceError:
            continue
        schedule = token_schedule(config, rcfg)
        assert run.token_counts() == schedule and sorted(seen) == list(range(depth))
        pruned = 0
        for layer, out in seen.items():
            out.validate()  # owner in range, every image token holds a patch, CLS none
            pruned += run.per_layer[layer].pruned_size
            assert int(out.sizes[1:].sum()) + pruned == config.num_patches
            assert np.count_nonzero(out.owner < 0) == pruned
            assert out.n_tokens == schedule[layer]
    assert len(rejected) in (0, len(STRATEGIES)) and len(set(rejected.values())) <= 1


# ---------------------------------------------------------------- last block

@pytest.mark.parametrize("stem", ["grid", "coherence"])
@pytest.mark.parametrize("rcfg", EVERY_STRATEGY, ids=STRATEGIES)
def test_last_block_runs_its_mlp_on_the_class_row(rng, monkeypatch, stem, rcfg):
    config = ModelConfig(depth=4, heads=2, dim=16, num_classes=10, stem=stem)
    weights = vit.init_random(config, seed=2)
    batch = vit.embed_image(rng.random((3, 224, 224)).astype(np.float32), weights)
    hooked = {}
    gelu_rows = []
    gelu = numerics.gelu

    def spy(h, out=None):
        gelu_rows.append(h.shape[0])
        return gelu(h, out=out)

    monkeypatch.setattr(numerics, "gelu", spy)
    logits, run = vit.encoder_forward(batch, weights, rcfg, layer_hook=hooked.__setitem__)
    monkeypatch.undo()
    # every layer's MLP but the last saw all its tokens; the last saw the class row
    assert gelu_rows == run.token_counts()[:-1] + [1]

    # the blocks replayed by hand, every MLP over every row: the hook saw the
    # same full batches, and the full-row tail gives the same logits
    ref = batch
    for layer, block in enumerate(weights.blocks):
        ref, record = vit.mhsa_forward(ref, block, rcfg.proportional_attention)
        ref, _ = reduce.step(ref, record, rcfg, layer)
        assert hooked[layer].features.tobytes() == ref.features.tobytes()
        ref = vit.mlp_forward(ref, block)
    x = numerics.layer_norm(ref.features, weights.final_gamma, weights.final_beta)
    expected = x[0] @ weights.head_weight + weights.head_bias
    assert np.allclose(logits, expected, rtol=1e-6, atol=1e-6)


def test_encoder_without_blocks_reads_the_finalized_class_row(rng):
    weights = vit.init_random(ModelConfig(depth=0, heads=2, dim=16, num_classes=10), seed=2)
    batch = vit.embed_image(rng.random((3, 224, 224)).astype(np.float32), weights)
    logits, run = vit.encoder_forward(batch, weights, NO_REDUCTION)
    x = numerics.layer_norm(batch.features, weights.final_gamma, weights.final_beta)
    assert np.allclose(logits, x[0] @ weights.head_weight + weights.head_bias, rtol=1e-6, atol=1e-6)
    assert run.token_counts() == []


def test_engine_runs_without_scipy():
    # the engine's only runtime dependency is numpy: importing it and running a
    # forward through both stems must not load scipy
    code = "\n".join(
        [
            "import sys",
            "import repiece",
            "from repiece.synth import smooth_image",
            "for stem in ('grid', 'coherence'):",
            "    cfg = repiece.ModelConfig(depth=2, heads=2, dim=16, num_classes=10, stem=stem)",
            "    rcfg = repiece.ReductionConfig(strategy='imagepiece', prune_layers=frozenset({1}))",
            "    repiece.forward_image(smooth_image(0), repiece.init_random(cfg, seed=0), rcfg)",
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ]
    )
    src = str(Path(repiece.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
