from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import make_batch, random_block
from repiece import vit
from repiece.config import STRATEGIES, ModelConfig, ReductionConfig
from repiece.diag import token_schedule
from repiece.errors import ConfigError, DimensionError, FormatError, NumericError


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
    batch = vit.TokenBatch(
        features=batch.features,
        sizes=sizes,
        provenance=batch.provenance,
        cls_index=batch.cls_index,
        grid=batch.grid,
    )
    block = random_block(rng, 16, 2)
    out, record = vit.mhsa_forward(batch, block, size_bias=batch.sizes)
    ref_out, ref_class, _ = oracles.attention_direct(batch.features, block, sizes=sizes)
    assert np.allclose(out.features, ref_out, atol=1e-5)
    assert np.allclose(record.class_attention, ref_class, atol=1e-6)


def test_mhsa_unit_sizes_change_nothing(rng):
    batch = make_batch(rng, n_img=6, dim=16)
    block = random_block(rng, 16, 2)
    plain, rec_a = vit.mhsa_forward(batch, block)
    biased, rec_b = vit.mhsa_forward(batch, block, size_bias=np.ones(7, np.int64))
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
    with pytest.raises(DimensionError):
        vit.mhsa_forward(batch, random_block(rng, 16, 2), size_bias=np.ones(3))


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

def test_save_load_round_trip(tmp_path, tiny_config):
    weights = vit.init_random(tiny_config, seed=11)
    path = tmp_path / "w.bin"
    vit.save_weights(weights, path)
    back = vit.load_weights(path)
    assert back.config == tiny_config
    assert np.array_equal(back.positional, weights.positional)
    for a, b in zip(back.blocks, weights.blocks):
        assert np.array_equal(a.qkv_weight, b.qkv_weight)
        assert np.array_equal(a.fc2_bias, b.fc2_bias)

    path2 = tmp_path / "w2.bin"
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


def test_weights_schema_enumerates_blocks():
    cfg = ModelConfig()  # depth 12, dim 384
    schema = vit.weights_schema(cfg)
    assert schema["blocks.0.attn.qkv.weight"] == (384, 1152)
    assert schema["blocks.11.mlp.fc1.weight"] == (384, 1536)
    assert "blocks.12.ln1.gamma" not in schema
    assert schema["patch.projection"] == (768, 384)
    assert len(schema) == 6 + 2 + 12 * 12


def test_weights_schema_coherence_stem():
    cfg = ModelConfig(stem="coherence")
    schema = vit.weights_schema(cfg)
    assert schema["stem.conv1.weight"] == (24, 3, 3, 3)
    assert schema["stem.conv4.weight"] == (192, 96, 3, 3)
    assert schema["stem.proj.weight"] == (384, 192, 1, 1)
    assert "patch.projection" not in schema


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
    weights = vit.init_random(tiny_config, seed=2)
    image = rng.random((3, 224, 224)).astype(np.float32)
    via_helper, _ = vit.forward_image(image, weights, NO_REDUCTION)
    batch = vit.embed_image(image, weights)
    direct, _ = vit.encoder_forward(batch, weights, NO_REDUCTION)
    assert np.array_equal(via_helper, direct)


def test_encoder_layer_hook_sees_every_layer(rng, tiny_config):
    weights = vit.init_random(tiny_config, seed=2)
    batch = vit.embed_image(rng.random((3, 224, 224)).astype(np.float32), weights)
    seen = []
    vit.encoder_forward(batch, weights, NO_REDUCTION, layer_hook=lambda l, b: seen.append((l, b.n_tokens)))
    assert seen == [(0, 197), (1, 197), (2, 197), (3, 197)]


def test_encoder_rejects_unfinalized_batch(rng, tiny_config):
    weights = vit.init_random(tiny_config, seed=2)
    from repiece.embed import patchify_embed

    raw = patchify_embed(
        rng.random((3, 224, 224)).astype(np.float32), 16, weights.patch_projection, weights.patch_bias
    )
    with pytest.raises(DimensionError):
        vit.encoder_forward(raw, weights, NO_REDUCTION)


def test_encoder_rejects_schedule_past_depth(rng, tiny_config):
    weights = vit.init_random(tiny_config, seed=2)
    batch = vit.embed_image(rng.random((3, 224, 224)).astype(np.float32), weights)
    with pytest.raises(ConfigError):
        vit.encoder_forward(batch, weights, ReductionConfig(strategy="evit", prune_layers=frozenset({9})))


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


def test_stem_weights_accessor_requires_coherence(tiny_config):
    weights = vit.init_random(tiny_config, seed=0)
    with pytest.raises(ConfigError):
        weights.stem_weights()
