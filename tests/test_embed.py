import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repiece import embed
from repiece.config import ModelConfig
from repiece.errors import DimensionError, FormatError, RangeError
from repiece.vit import init_random


def test_patchify_shapes_and_bookkeeping(rng):
    image = rng.random((3, 32, 32)).astype(np.float32)
    proj = rng.standard_normal((3 * 16 * 16, 8)).astype(np.float32)
    fmap = embed.patchify_embed(image, 16, proj, np.zeros(8, np.float32))
    assert isinstance(fmap, np.ndarray)
    assert fmap.shape == (2, 2, 8) and fmap.dtype == np.float32
    batch = embed.finalize_tokens(fmap, np.zeros((5, 8), np.float32), np.zeros(8, np.float32))
    assert batch.grid == (2, 2)
    assert np.all(batch.sizes == 1)
    assert batch.owner.tolist() == [1, 2, 3, 4]
    assert batch.token_ids().tolist() == [-1, 0, 1, 2, 3]
    batch.validate()


def test_patchify_constant_image_with_sum_projection():
    # all-ones projection turns each feature into the sum over the patch
    image = np.full((3, 4, 4), 0.5, dtype=np.float32)
    proj = np.ones((3 * 2 * 2, 1), np.float32)
    fmap = embed.patchify_embed(image, 2, proj, np.zeros(1, np.float32))
    assert np.allclose(fmap, 0.5 * 12)


def test_patchify_reads_patches_in_row_major_cyx_order():
    # 1-pixel patches: the feature of patch (r, c) is just the pixel stack there
    image = np.arange(2 * 2 * 3, dtype=np.float32).reshape(3, 2, 2)
    proj = np.eye(3, dtype=np.float32)
    fmap = embed.patchify_embed(image, 1, proj, np.zeros(3, np.float32))
    assert np.array_equal(fmap[0, 0], image[:, 0, 0])
    assert np.array_equal(fmap[0, 1], image[:, 0, 1])
    assert np.array_equal(fmap[1, 1], image[:, 1, 1])


def test_patchify_rejects_indivisible_image():
    with pytest.raises(DimensionError):
        embed.patchify_embed(
            np.zeros((3, 30, 32), np.float32), 16, np.zeros((768, 4), np.float32), np.zeros(4, np.float32)
        )
    image, projection, bias = np.zeros((3, 32, 32)), np.zeros((768, 4)), np.zeros(4)
    for bad in ((image[0], projection), (image, projection[:767])):  # image rank, projection rows
        with pytest.raises(DimensionError):
            embed.patchify_embed(bad[0], 16, bad[1], bias)


def test_coherence_stem_grid(rng):
    cfg = ModelConfig(depth=0, heads=1, dim=8, num_classes=2, stem="coherence", stem_base=2)
    weights = init_random(cfg, seed=0)
    image = rng.random((3, 224, 224)).astype(np.float32)
    fmap = embed.coherence_stem(
        image, weights.conv_kernels, weights.conv_biases, weights.proj_kernel, weights.proj_bias
    )
    assert isinstance(fmap, np.ndarray)
    assert fmap.shape == (14, 14, 8) and fmap.dtype == np.float32
    batch = embed.finalize_tokens(fmap, weights.positional, weights.cls_embedding)
    assert batch.grid == (14, 14)
    batch.validate()


def test_coherence_stem_allocates_at_most_4_mib(rng):
    # holds while conv2d builds its columns a band at a time and GELU runs in
    # place: whole column matrices and a GELU copy of each map take 5.64 MiB
    weights = init_random(ModelConfig(stem="coherence"), seed=0)
    image = rng.random((3, 224, 224), dtype=np.float32)
    tracemalloc.start()
    try:
        embed.coherence_stem(
            image, weights.conv_kernels, weights.conv_biases, weights.proj_kernel, weights.proj_bias
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_coherence_stem_rejects_image_rank():
    cfg = ModelConfig(depth=0, heads=1, dim=8, num_classes=2, stem="coherence", stem_base=2)
    weights = init_random(cfg, seed=0)
    with pytest.raises(DimensionError):
        embed.coherence_stem(
            np.zeros((224, 224)), weights.conv_kernels, weights.conv_biases,
            weights.proj_kernel, weights.proj_bias,
        )


def test_with_features_keeps_the_shape():
    batch = embed.finalize_tokens(np.ones((2, 2, 6)), np.zeros((5, 6)), np.zeros(6))
    for shape in ((5, 7), (4, 6), (30,)):
        with pytest.raises(DimensionError):
            batch.with_features(np.zeros(shape, np.float32))


def test_finalize_prepends_cls_and_positions(rng):
    image = rng.random((3, 4, 4)).astype(np.float32)
    proj = rng.standard_normal((12, 6)).astype(np.float32)
    fmap = embed.patchify_embed(image, 2, proj, np.zeros(6, np.float32))
    positional = rng.standard_normal((5, 6)).astype(np.float32)
    cls_vec = rng.standard_normal(6).astype(np.float32)
    full = embed.finalize_tokens(fmap, positional, cls_vec)
    assert full.n_tokens == 5
    assert full.owner.tolist() == [1, 2, 3, 4]  # row 0 is the class token
    assert full.token_ids()[0] == -1 and full.sizes[0] == 1
    assert np.allclose(full.features[0], cls_vec + positional[0], atol=1e-6)
    assert np.allclose(full.features[1:], fmap.reshape(4, 6) + positional[1:], atol=1e-6)
    # a flat token array, or a batch's features, is not a feature map
    for flat in (fmap.reshape(4, 6), full.features, fmap[None]):
        with pytest.raises(DimensionError):
            embed.finalize_tokens(flat, positional, cls_vec)


def test_finalize_checks_positional_table_size(rng):
    image = rng.random((3, 4, 4)).astype(np.float32)
    fmap = embed.patchify_embed(image, 2, rng.standard_normal((12, 6)).astype(np.float32), np.zeros(6, np.float32))
    with pytest.raises(DimensionError):
        embed.finalize_tokens(fmap, np.zeros((4, 6), np.float32), np.zeros(6, np.float32))


def test_finalize_checks_class_embedding_shape():
    # the class row must match the map's dim, as the positional table does
    with pytest.raises(DimensionError):
        embed.finalize_tokens(np.ones((2, 2, 6)), np.zeros((5, 6)), np.zeros(5))


# ---------------------------------------------------------------- masking

def test_masks_zero_exact_pixel_count(rng):
    image = rng.uniform(0.1, 1.0, (3, 224, 224)).astype(np.float32)
    for k in (1, 7, 25):
        masked = embed.apply_random_masks(image, k, seed=42)
        assert masked.shape == image.shape
        assert int(np.sum(masked == 0.0)) == 3 * k * 256


def test_masks_are_grid_aligned(rng):
    image = rng.uniform(0.1, 1.0, (3, 224, 224)).astype(np.float32)
    masked = embed.apply_random_masks(image, 5, seed=7)
    zero_cells = 0
    for r in range(14):
        for c in range(14):
            block = masked[:, r * 16 : (r + 1) * 16, c * 16 : (c + 1) * 16]
            if np.all(block == 0.0):
                zero_cells += 1
            else:
                assert np.array_equal(block, image[:, r * 16 : (r + 1) * 16, c * 16 : (c + 1) * 16])
    assert zero_cells == 5


def test_masks_deterministic_per_seed(rng):
    image = rng.random((3, 224, 224)).astype(np.float32)
    a = embed.apply_random_masks(image, 10, seed=3)
    b = embed.apply_random_masks(image, 10, seed=3)
    c = embed.apply_random_masks(image, 10, seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_mask_k_zero_is_copy(rng):
    image = rng.random((3, 224, 224)).astype(np.float32)
    out = embed.apply_random_masks(image, 0, seed=0)
    assert out is not image and np.array_equal(out, image)


def test_mask_k_out_of_range(rng):
    image = rng.random((3, 224, 224)).astype(np.float32)
    with pytest.raises(RangeError):
        embed.apply_random_masks(image, 197, seed=0)
    with pytest.raises(RangeError):
        embed.apply_random_masks(image, -1, seed=0)


def test_mask_rejects_image_rank(rng):
    with pytest.raises(DimensionError):
        embed.apply_random_masks(rng.random((224, 224)).astype(np.float32), 1, seed=0)


# ---------------------------------------------------------------- ppm i/o

def test_ppm_round_trip_exact(tmp_path, rng):
    raw = rng.integers(0, 256, (3, 6, 5), dtype=np.uint8)
    image = raw.astype(np.float32) / 255.0
    path = tmp_path / "img.ppm"
    embed.write_ppm(image, path)
    back = embed.read_ppm(path)
    assert back.shape == (3, 6, 5)
    assert np.array_equal(np.rint(back * 255).astype(np.uint8), raw)


def test_ppm_decodes_every_byte_value_exactly(tmp_path):
    values = np.arange(256, dtype=np.uint8)
    # values * 7 wraps modulo 256: a third ordering of every byte value
    planes = np.stack([values, values[::-1], values * 7]).reshape(3, 8, 32)
    (tmp_path / "all.ppm").write_bytes(b"P6\n32 8\n255\n" + planes.transpose(1, 2, 0).tobytes())
    image = embed.read_ppm(tmp_path / "all.ppm")
    levels = np.arange(256, dtype=np.float32) / np.float32(255)
    assert image.dtype == np.float32 and image.shape == (3, 8, 32)
    assert image.tobytes() == levels[planes].tobytes()
    assert image.flags.c_contiguous and image.flags.writeable


def test_ppm_decode_gives_the_bytes_of_the_two_step_decode(tmp_path, rng):
    hwc = rng.integers(0, 256, (37, 53, 3), dtype=np.uint8)  # non-square
    (tmp_path / "wide.ppm").write_bytes(b"P6\n53 37\n255\n" + hwc.tobytes())
    image = embed.read_ppm(tmp_path / "wide.ppm")
    # the contiguous uint8 CHW copy first, then the scale
    planes = np.ascontiguousarray(hwc.transpose(2, 0, 1))
    two_step = np.divide(planes, np.float32(255.0), dtype=np.float32)
    assert image.shape == (3, 37, 53) and image.flags.c_contiguous
    assert image.tobytes() == two_step.tobytes()


def test_ppm_header_comments(tmp_path):
    body = bytes(range(12))  # 2x2 RGB
    (tmp_path / "c.ppm").write_bytes(b"P6\n# a comment\n2 2\n# another\n255\n" + body)
    image = embed.read_ppm(tmp_path / "c.ppm")
    assert image.shape == (3, 2, 2)
    assert np.isclose(image[0, 0, 0], 0.0) and np.isclose(image[2, 1, 1], 11 / 255)


def test_ppm_rejects_wrong_magic(tmp_path):
    (tmp_path / "bad.ppm").write_bytes(b"P3\n2 2\n255\n")
    with pytest.raises(FormatError):
        embed.read_ppm(tmp_path / "bad.ppm")


def test_ppm_rejects_truncated_pixels(tmp_path):
    (tmp_path / "short.ppm").write_bytes(b"P6\n4 4\n255\n\x00\x01")
    with pytest.raises(FormatError):
        embed.read_ppm(tmp_path / "short.ppm")


@pytest.mark.parametrize("shape", [(4, 2, 2), (1, 2, 2), (2, 2)])
def test_write_ppm_rejects_non_rgb_shape(tmp_path, shape):
    with pytest.raises(DimensionError):
        embed.write_ppm(np.zeros(shape, np.float32), tmp_path / "bad.ppm")
    assert not (tmp_path / "bad.ppm").exists()


def test_write_ppm_clips_out_of_range(tmp_path):
    image = np.array([[[1.5]], [[-0.2]], [[0.5]]], dtype=np.float32)
    embed.write_ppm(image, tmp_path / "clip.ppm")
    back = embed.read_ppm(tmp_path / "clip.ppm")
    assert back[0, 0, 0] == 1.0 and back[1, 0, 0] == 0.0


@pytest.mark.parametrize("dims", [b"-2 -3", b"0 4", b"4 0", b"3 -1"])
def test_ppm_rejects_non_positive_dims(tmp_path, dims):
    (tmp_path / "neg.ppm").write_bytes(b"P6\n" + dims + b"\n255\n" + b"\x00" * 64)
    with pytest.raises(FormatError, match="positive"):
        embed.read_ppm(tmp_path / "neg.ppm")


def test_ppm_header_ending_at_eof_is_truncated(tmp_path):
    (tmp_path / "bare.ppm").write_bytes(b"P6\n2 2\n255")
    with pytest.raises(FormatError, match="truncated"):
        embed.read_ppm(tmp_path / "bare.ppm")


# ---------------------------------------------------------------- fuzzing: only FormatError escapes

_FUZZ = settings(max_examples=40, deadline=None)


@pytest.fixture(scope="module")
def valid_ppm(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "valid.ppm"
    embed.write_ppm(np.random.default_rng(0).random((3, 4, 5)).astype(np.float32), path)
    return path, path.read_bytes()


def _read_or_format_error(path, data: bytes) -> None:
    path.write_bytes(data)
    try:
        image = embed.read_ppm(path)
    except FormatError:
        return
    assert image.ndim == 3 and image.shape[0] == 3 and image.dtype == np.float32


@_FUZZ
@given(st.data())
def test_fuzz_truncated_ppm(valid_ppm, data):
    path, raw = valid_ppm
    cut = data.draw(st.integers(0, len(raw) - 1))
    _read_or_format_error(path.with_name("cut.ppm"), raw[:cut])


@_FUZZ
@given(st.data())
def test_fuzz_flipped_bytes_ppm(valid_ppm, data):
    path, raw = valid_ppm
    flips = data.draw(
        st.lists(st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)), min_size=1, max_size=8)
    )
    buf = bytearray(raw)
    for pos, mask in flips:
        buf[pos] ^= mask
    _read_or_format_error(path.with_name("flip.ppm"), bytes(buf))


_HEADER_FIELD = st.one_of(
    st.integers(-(2**70), 2**70).map(lambda v: str(v).encode()),
    st.binary(min_size=1, max_size=6).filter(lambda b: not any(chr(c).isspace() for c in b)),
)


@_FUZZ
@given(_HEADER_FIELD, _HEADER_FIELD, _HEADER_FIELD, st.integers(0, 200))
def test_fuzz_lying_ppm_header(valid_ppm, width, height, maxval, body):
    path, _ = valid_ppm
    data = b"P6\n" + width + b" " + height + b"\n" + maxval + b"\n" + b"\x7f" * body
    _read_or_format_error(path.with_name("lie.ppm"), data)
