import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from repiece import numerics, vit
from repiece.errors import DimensionError, NumericError, RangeError


# ---------------------------------------------------------------- matmul

def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    assert np.array_equal(numerics.matmul(np.eye(2, dtype=np.float32), a), a)
    assert np.array_equal(numerics.matmul(a, np.eye(2, dtype=np.float32)), a)


def test_matmul_orthogonal_rows():
    out = numerics.matmul(np.array([[1.0, 0.0]], np.float32), np.array([[0.0], [5.0]], np.float32))
    assert out.shape == (1, 1) and out[0, 0] == 0.0


def test_matmul_against_loops(rng):
    a = rng.standard_normal((4, 3)).astype(np.float32)
    b = rng.standard_normal((3, 5)).astype(np.float32)
    assert np.allclose(numerics.matmul(a, b), oracles.matmul_loops(a, b), atol=1e-6)


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        numerics.matmul(np.ones((2, 3), np.float32), np.ones((4, 2), np.float32))
    with pytest.raises(DimensionError):  # a vector is not a matrix
        numerics.matmul(np.ones(3, np.float32), np.ones((3, 2), np.float32))


def test_matmul_rejects_nonfinite():
    bad = np.array([[np.nan, 1.0]], dtype=np.float32)
    with pytest.raises(NumericError):
        numerics.matmul(bad, np.ones((2, 1), np.float32))


# ---------------------------------------------------------------- softmax

def test_softmax_uniform_logits():
    out = numerics.softmax_rows(np.zeros((1, 3), np.float32))
    assert np.allclose(out, 1.0 / 3.0)


def test_softmax_no_overflow():
    out = numerics.softmax_rows(np.array([[1000.0, 0.0]], np.float32))
    assert np.allclose(out, [[1.0, 0.0]], atol=1e-6)


def test_softmax_against_f64_reference():
    row = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
    scale = np.sqrt(2.0)
    expected = oracles.softmax_row_f64(row[0], scale)
    assert np.allclose(numerics.softmax_rows(row / scale), expected[None, :], atol=1e-6)


def test_softmax_extreme_logits_stay_exact_without_warnings():
    # the max-subtract overflows to -inf, whose exponential is exactly 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = numerics.softmax_rows(np.array([[3e38, -3e38]], np.float32))
    assert np.array_equal(out, [[1.0, 0.0]])


def test_softmax_stack_matches_per_matrix(rng):
    t = (rng.standard_normal((3, 5, 7)) / 2.0).astype(np.float32)
    out = numerics.softmax_rows(t)
    assert out.shape == t.shape and out.dtype == np.float32
    assert np.array_equal(out, np.stack([numerics.softmax_rows(m) for m in t]))
    with pytest.raises(DimensionError):
        numerics.softmax_rows(np.zeros(3, np.float32))


def test_softmax_axis0_matches_transposed_last_axis_bytes(rng):
    # the key-axis sums add their terms in the order numpy's pairwise sum
    # adds a contiguous row, so every axis gives the last axis's bytes
    for n in (1, 7, 8, 9, 64, 127, 128, 129, 197, 300):
        t = (rng.standard_normal((n, 3, 5)) * 4 / 1.5).astype(np.float32)
        out = numerics.softmax_rows(t, axis=0)
        assert out.shape == t.shape and out.dtype == np.float32
        ref = numerics.softmax_rows(np.ascontiguousarray(t.transpose(1, 2, 0)))
        assert out.transpose(1, 2, 0).tobytes() == np.ascontiguousarray(ref).tobytes(), n
        assert np.allclose(out.sum(axis=0), 1.0, atol=1e-6)
    # 2-D: columns are the distributions
    t = (rng.standard_normal((197, 5)) * 4 / 2.0).astype(np.float32)
    assert np.array_equal(numerics.softmax_rows(t, axis=0), numerics.softmax_rows(t.T).T)
    # a middle axis normalizes too
    t = rng.standard_normal((4, 150, 5)).astype(np.float32)
    assert np.array_equal(
        numerics.softmax_rows(t, axis=1).transpose(0, 2, 1),
        numerics.softmax_rows(np.ascontiguousarray(t.transpose(0, 2, 1))),
    )


def test_softmax_axis0_extreme_logits_stay_exact_without_warnings():
    t = np.array([[3e38, -3e38], [-3e38, 3e38], [0.0, 0.0]], np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = numerics.softmax_rows(t, axis=0)
        stacked = numerics.softmax_rows(np.stack([t, -t], axis=1), axis=0)
    assert np.array_equal(out, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(stacked[:, 0], out)
    assert np.array_equal(stacked[:, 1], [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])


@pytest.mark.parametrize("axis", [0, -1])
def test_softmax_bias_columns(rng, axis):
    # a key biased by -inf is rejected as non-finite input, on either axis
    t = rng.standard_normal((4, 3, 4)).astype(np.float32)
    bad = t.copy()
    if axis == 0:
        bad[2] = -np.inf
    else:
        bad[..., 2] = -np.inf
    with pytest.raises(NumericError, match="softmax_rows input"):
        numerics.softmax_rows(bad, axis=axis)
    # the most negative finite bias gives that key exactly zero weight
    low = t.copy()
    if axis == 0:
        low[2] = -3e38
    else:
        low[..., 2] = -3e38
    out = numerics.softmax_rows(low, axis=axis)
    dropped = out[2] if axis == 0 else out[..., 2]
    assert np.array_equal(dropped, np.zeros_like(dropped))
    assert np.allclose(out.sum(axis=axis), 1.0, atol=1e-6)


def test_softmax_axis_out_of_range():
    for shape, axis in (((2, 3), 2), ((2, 3), -3), ((2, 3, 4), 3)):
        with pytest.raises(DimensionError, match="axis"):
            numerics.softmax_rows(np.zeros(shape, np.float32), axis=axis)


@settings(max_examples=200, deadline=None)
@given(
    sizes=st.lists(st.sampled_from((1,) * 8 + (2, 3, 7, 196)), min_size=1, max_size=12),
    heads=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_merged_keys_size_bias_matches_full_add(sizes, heads, seed):
    # vit adds log(size) only to keys whose size is not 1; the softmax it feeds
    # must be byte-identical to adding log(size) to every key
    rng = np.random.default_rng(seed)
    n = len(sizes)
    logits = (rng.standard_normal((n, heads, n)) * 3).astype(np.float32)
    logits[rng.random(logits.shape) < 0.2] = 0.0
    logits[rng.random(logits.shape) < 0.2] = -0.0
    full = logits + np.log(np.asarray(sizes, np.float64)).astype(np.float32)[:, None, None]
    merged_only = logits.copy()
    vit._add_size_bias(merged_only, np.asarray(sizes, np.int64))
    assert np.array_equal(merged_only, full)  # equal up to the sign of zero
    assert (
        numerics.softmax_rows(merged_only, axis=0).tobytes()
        == numerics.softmax_rows(full, axis=0).tobytes()
    )


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(-50, 50), min_size=2, max_size=6),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_softmax_rows_are_distributions(rows):
    t = np.array(rows, dtype=np.float32)
    out = numerics.softmax_rows(t)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)


# ---------------------------------------------------------------- layer norm

def test_layer_norm_constant_row_is_zero():
    t = np.full((1, 5), 3.0, dtype=np.float32)
    out = numerics.layer_norm(t, np.ones(5, np.float32), np.zeros(5, np.float32))
    assert np.allclose(out, 0.0)


def test_layer_norm_already_normalized():
    t = np.array([[-1.0, 1.0]], dtype=np.float32)
    out = numerics.layer_norm(t, np.ones(2, np.float32), np.zeros(2, np.float32))
    assert np.allclose(out, [[-1.0, 1.0]], atol=1e-5)


def test_layer_norm_moments(rng):
    t = rng.standard_normal((6, 32)).astype(np.float32)
    out = numerics.layer_norm(t, np.ones(32, np.float32), np.zeros(32, np.float32))
    assert np.all(np.abs(out.mean(axis=1)) < 1e-6)
    assert np.allclose(out.var(axis=1), 1.0, atol=1e-4)


def test_layer_norm_matches_loops(rng):
    t = rng.standard_normal((3, 8)).astype(np.float32)
    gamma = rng.standard_normal(8).astype(np.float32)
    beta = rng.standard_normal(8).astype(np.float32)
    assert np.allclose(
        numerics.layer_norm(t, gamma, beta), oracles.layer_norm_rows_f64(t, gamma, beta), atol=1e-5
    )


@pytest.mark.parametrize(
    "row, expected",
    [
        # squares of the entries overflow float32
        ([1e20, -1e20, 0.0], [np.sqrt(1.5), -np.sqrt(1.5), 0.0]),
        # -3e38 minus the row mean, 1e38, is -4e38: past float32's range
        ([3e38, 3e38, -3e38], [np.sqrt(0.5), np.sqrt(0.5), -np.sqrt(2.0)]),
    ],
)
def test_layer_norm_extreme_rows_normalize(row, expected):
    t = np.array([row], dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = numerics.layer_norm(t, np.ones(3, np.float32), np.zeros(3, np.float32))
    assert np.allclose(out, [expected], atol=1e-5)


def test_layer_norm_dim_mismatch():
    with pytest.raises(DimensionError):
        numerics.layer_norm(np.ones((2, 4), np.float32), np.ones(3, np.float32), np.zeros(3, np.float32))


# ---------------------------------------------------------------- gelu

def test_gelu_fixed_points():
    assert numerics.gelu(np.zeros(1, np.float32))[0] == 0.0
    assert np.isclose(numerics.gelu(np.array([1.0], np.float32))[0], 0.8413, atol=1e-4)


def test_gelu_asymptotes():
    out = numerics.gelu(np.array([30.0, -30.0], np.float32))
    assert np.isclose(out[0], 30.0) and np.isclose(out[1], 0.0)


def test_gelu_finite_at_float32_max():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = numerics.gelu(np.array([3e38, -3e38, 30.0, -30.0, 1e4, -1e4], np.float32))
    assert out[0] == np.float32(3e38) and out[1] == 0.0
    assert out[2:].tolist() == [30.0, 0.0, 1e4, 0.0]


def test_gelu_matches_erf_reference(rng):
    x = rng.standard_normal(50).astype(np.float32) * 3
    assert np.allclose(numerics.gelu(x), oracles.gelu_f64(x), atol=1e-6)


def test_gelu_dense_grid_matches_erfc_reference():
    x = np.linspace(-12.0, 12.0, 240_001, dtype=np.float32)
    ref = oracles.gelu_erfc_f64(x)
    err = np.abs(numerics.gelu(x).astype(np.float64) - ref)
    assert err.max() <= 1e-6
    # the negative tail, where x * Phi(x) is tiny, keeps its relative precision
    tail = (x >= -10.0) & (x <= -0.01)
    assert (err[tail] / np.abs(ref[tail])).max() <= 1e-4


def test_gelu_blocks_are_bit_identical(rng):
    n = numerics.GELU_BLOCK
    x = (rng.standard_normal(n + 3) * 4).astype(np.float32)
    parts = np.concatenate([numerics.gelu(x[:n]), numerics.gelu(x[n:])])
    assert numerics.gelu(x).tobytes() == parts.tobytes()
    chw = (rng.standard_normal((3, 160, 160)) * 4).astype(np.float32)  # spans two blocks
    out = numerics.gelu(chw)
    assert out.shape == chw.shape
    assert out.tobytes() == numerics.gelu(chw.ravel()).tobytes()


def test_gelu_in_place_gives_the_same_bytes(rng):
    t = (rng.standard_normal((3, 224, 224)) * 4).astype(np.float32)  # spans three blocks
    expected = numerics.gelu(t)
    assert numerics.gelu(t, out=t) is t
    assert t.tobytes() == expected.tobytes()


def test_gelu_rejects_an_out_of_another_shape_or_dtype():
    t = np.ones((4, 6), np.float32)
    for out in (np.empty((6, 4), np.float32), np.empty(24, np.float32), np.empty((4, 6)),
                np.empty((6, 4), np.float32).T):  # the last is not C-contiguous
        with pytest.raises(DimensionError):
            numerics.gelu(t, out=out)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gelu_rejects_nonfinite_input(bad):
    x = np.array([1.0, bad, -2.0], np.float32)
    with pytest.raises(NumericError):
        numerics.gelu(x)


# ---------------------------------------------------------------- conv2d

def test_conv2d_scalar_scaling():
    image = np.ones((1, 3, 3), np.float32)
    kernel = np.full((1, 1, 1, 1), 2.0, np.float32)
    out = numerics.conv2d(image, kernel, np.zeros(1, np.float32), stride=1, padding=0)
    assert np.allclose(out, 2.0) and out.shape == (1, 3, 3)


def test_conv2d_impulse_gives_cross_correlation():
    image = np.zeros((1, 5, 5), np.float32)
    image[0, 2, 2] = 1.0
    kernel = np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3)
    out = numerics.conv2d(image, kernel, np.zeros(1, np.float32), stride=1, padding=1)
    # cross-correlation: the impulse response reads the kernel flipped
    assert np.allclose(out[0, 1:4, 1:4], kernel[0, 0, ::-1, ::-1])


@pytest.mark.parametrize("size", [(8, 8), (7, 10)], ids=["8x8", "7x10"])
@pytest.mark.parametrize("kernel", [(3, 3), (1, 1), (2, 3)], ids=["k3x3", "k1x1", "k2x3"])
@pytest.mark.parametrize("channels", [1, 3], ids=["c1", "c3"])
@pytest.mark.parametrize("padding", [0, 1], ids=["p0", "p1"])
@pytest.mark.parametrize("stride", [1, 2], ids=["s1", "s2"])
def test_conv2d_against_loops(rng, stride, padding, channels, kernel, size):
    image = rng.standard_normal((channels, *size)).astype(np.float32)
    kernels = rng.standard_normal((4, channels, *kernel)).astype(np.float32)
    bias = rng.standard_normal(4).astype(np.float32)
    out = numerics.conv2d(image, kernels, bias, stride=stride, padding=padding)
    expected = oracles.conv2d_loops(image, kernels, bias, stride, padding)
    assert out.shape == expected.shape and out.dtype == np.float32
    assert np.allclose(out, expected, atol=1e-5)


def _conv2d_one_gemm(image, kernels, bias, stride, padding):
    """conv2d as one float32 GEMM over the whole im2col matrix of the padded image."""
    c = image.shape[0]
    f, _, kh, kw = kernels.shape
    padded = np.pad(image, ((0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(1, 2))
    win = win[:, ::stride, ::stride]  # C x H' x W' x kh x kw
    h_out, w_out = win.shape[1:3]
    cols = win.transpose(0, 3, 4, 1, 2).reshape(c * kh * kw, h_out * w_out)
    out = kernels.reshape(f, c * kh * kw) @ cols
    out += bias[:, None]
    return out.reshape(f, h_out, w_out)


def test_conv2d_bands_keep_the_coherence_stem_byte_identical(rng):
    # every conv shape of the coherence stem at stem_base 4-64, against one GEMM
    # over the whole column matrix: a band's product must round as its slice did
    image = rng.random((3, 224, 224), dtype=np.float32)
    for base in range(4, 65):
        x, c = image, 3
        for f in (base, 2 * base, 4 * base, 8 * base):
            kernels = (rng.standard_normal((f, c, 3, 3)) * np.sqrt(2 / (9 * c))).astype(np.float32)
            bias = (rng.standard_normal(f) * 0.1).astype(np.float32)
            out = numerics.conv2d(x, kernels, bias, stride=2, padding=1)
            assert out.tobytes() == _conv2d_one_gemm(x, kernels, bias, 2, 1).tobytes(), (base, f)
            x, c = out, f
        proj = rng.standard_normal((16, c, 1, 1)).astype(np.float32)
        bias = rng.standard_normal(16).astype(np.float32)
        out = numerics.conv2d(x, proj, bias)
        assert out.tobytes() == _conv2d_one_gemm(x, proj, bias, 1, 0).tobytes(), base


@settings(max_examples=150, deadline=None)
@given(
    channels=st.integers(1, 3),
    size=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    kernel=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    stride=st.integers(1, 3),
    padding=st.integers(0, 3),
    budget=st.integers(1, 64),
    seed=st.integers(0, 2**16),
)
def test_conv2d_bands_match_loops_at_any_geometry(channels, size, kernel, stride, padding, budget, seed):
    h, w = size
    kh, kw = kernel
    assume(h + 2 * padding >= kh and w + 2 * padding >= kw)
    rng = np.random.default_rng(seed)
    image = rng.standard_normal((channels, h, w)).astype(np.float32)
    kernels = rng.standard_normal((3, channels, kh, kw)).astype(np.float32)
    bias = rng.standard_normal(3).astype(np.float32)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "_CONV_BAND_ELEMS", budget)  # bands of one or a few output rows
        out = numerics.conv2d(image, kernels, bias, stride=stride, padding=padding)
    expected = oracles.conv2d_loops(image, kernels, bias, stride, padding)
    assert out.shape == expected.shape and out.dtype == np.float32
    assert np.allclose(out, expected, atol=1e-5)


def test_conv2d_nonpositive_extent():
    with pytest.raises(DimensionError):
        numerics.conv2d(
            np.ones((1, 2, 2), np.float32),
            np.ones((1, 1, 5, 5), np.float32),
            np.zeros(1, np.float32),
            stride=1,
            padding=0,
        )
    image, kernels, bias = np.ones((2, 4, 4)), np.ones((3, 2, 3, 3)), np.zeros(3)
    for bad in (
        (image[0], kernels, bias),  # input rank
        (image, kernels[0], bias),  # kernel rank
        (image[:1], kernels, bias),  # kernel channels != input channels
        (image, kernels, bias[:2]),  # one bias per kernel
    ):
        with pytest.raises(DimensionError):
            numerics.conv2d(*bad)
    for stride, padding in ((0, 0), (1, -1)):
        with pytest.raises(RangeError):
            numerics.conv2d(image, kernels, bias, stride=stride, padding=padding)


# ---------------------------------------------------------------- cosine

def _cosine(a, b) -> float:
    """Cosine of two vectors through the matrix kernel, as one-row inputs."""
    return float(numerics.cosine_similarity_matrix(a[None, :], b[None, :])[0, 0])


def test_cosine_dimension_checks():
    for a, b in ((np.ones((2, 3)), np.ones((2, 4))), (np.ones(3), np.ones((2, 3)))):
        with pytest.raises(DimensionError):
            numerics.cosine_similarity_matrix(a, b)


def test_cosine_self_orthogonal_antipodal():
    a = np.array([1.0, 2.0, 2.0], np.float32)
    assert np.isclose(_cosine(a, a), 1.0)
    assert np.isclose(_cosine(np.array([1.0, 0.0], np.float32), np.array([0.0, 1.0], np.float32)), 0.0)
    assert np.isclose(_cosine(a, -a), -1.0)


def test_cosine_matrix_zero_norm_rows_score_zero():
    a = np.array([[0.0, 0.0], [1.0, 0.0]], np.float32)
    b = np.array([[1.0, 1.0], [0.0, 0.0]], np.float32)
    sims = numerics.cosine_similarity_matrix(a, b)
    assert np.array_equal(sims[0], [0.0, 0.0]) and sims[1, 1] == 0.0
    assert np.isclose(sims[1, 0], np.sqrt(0.5))


def test_cosine_matrix_gives_the_bytes_of_per_group_normalization(rng):
    # both groups normalized as one stacked array, against each on its own;
    # widths up to past numpy's 128-element pairwise-sum block
    for n_a, n_b, dim in [(0, 3, 4), (3, 0, 4), (0, 0, 2), (1, 1, 1), (1, 9, 64), (9, 1, 64)] + [
        (int(rng.integers(1, 40)), int(rng.integers(1, 40)), int(rng.integers(1, 200)))
        for _ in range(60)
    ]:
        a = rng.standard_normal((n_a, dim)).astype(np.float32)
        b = (rng.standard_normal((n_b, dim)) * 1e3).astype(np.float32)
        a[rng.random(n_a) < 0.2] = 0.0  # zero-norm rows
        b[rng.random(n_b) < 0.2] = 0.0
        got = numerics.cosine_similarity_matrix(a, b)
        want = oracles.cosine_matrix_per_group(a, b)
        assert got.shape == (n_a, n_b) and got.tobytes() == want.tobytes(), (n_a, n_b, dim)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=2, max_size=6),
    st.lists(st.floats(-10, 10), min_size=2, max_size=6),
    st.floats(0.1, 50),
)
def test_cosine_symmetric_and_scale_invariant(a, b, alpha):
    n = min(len(a), len(b))
    va = np.array(a[:n], np.float32)
    vb = np.array(b[:n], np.float32)
    if np.linalg.norm(va) == 0 or np.linalg.norm(vb) == 0:
        return
    s1 = _cosine(va, vb)
    s2 = _cosine(vb, va)
    s3 = _cosine((alpha * va).astype(np.float32), vb)
    assert np.isclose(s1, s2, atol=1e-6)
    assert np.isclose(s1, s3, atol=1e-5)
    assert -1.0 <= s1 <= 1.0
