import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from repiece import numerics
from repiece.errors import DegenerateInputError, DimensionError, NumericError, RangeError


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


def test_matmul_rejects_nonfinite():
    bad = np.array([[np.nan, 1.0]], dtype=np.float32)
    with pytest.raises(NumericError):
        numerics.matmul(bad, np.ones((2, 1), np.float32))


# ---------------------------------------------------------------- softmax

def test_softmax_uniform_logits():
    out = numerics.softmax_rows(np.zeros((1, 3), np.float32), 1.0)
    assert np.allclose(out, 1.0 / 3.0)


def test_softmax_no_overflow():
    out = numerics.softmax_rows(np.array([[1000.0, 0.0]], np.float32), 1.0)
    assert np.allclose(out, [[1.0, 0.0]], atol=1e-6)


def test_softmax_against_f64_reference():
    row = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
    scale = np.sqrt(2.0)
    expected = oracles.softmax_row_f64(row[0], scale)
    assert np.allclose(numerics.softmax_rows(row, scale), expected[None, :], atol=1e-6)


def test_softmax_extreme_logits_stay_exact_without_warnings():
    # the max-subtract overflows to -inf, whose exponential is exactly 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = numerics.softmax_rows(np.array([[3e38, -3e38]], np.float32), 1.0)
    assert np.array_equal(out, [[1.0, 0.0]])


def test_softmax_stack_matches_per_matrix(rng):
    t = rng.standard_normal((3, 5, 7)).astype(np.float32)
    out = numerics.softmax_rows(t, 2.0)
    assert out.shape == t.shape and out.dtype == np.float32
    assert np.array_equal(out, np.stack([numerics.softmax_rows(m, 2.0) for m in t]))
    with pytest.raises(DimensionError):
        numerics.softmax_rows(np.zeros(3, np.float32), 1.0)


def test_softmax_scale_must_be_positive():
    with pytest.raises(RangeError):
        numerics.softmax_rows(np.zeros((1, 2), np.float32), 0.0)


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
    out = numerics.softmax_rows(t, 1.0)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)


# ---------------------------------------------------------------- layer norm

def test_layer_norm_constant_row_is_zero():
    t = np.full((1, 5), 3.0, dtype=np.float32)
    out = numerics.layer_norm(t, np.ones(5, np.float32), np.zeros(5, np.float32))
    assert np.allclose(out, 0.0)


def test_layer_norm_already_normalized():
    t = np.array([[-1.0, 1.0]], dtype=np.float32)
    out = numerics.layer_norm(t, np.ones(2, np.float32), np.zeros(2, np.float32), eps=1e-12)
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
        out = numerics.gelu(np.array([3e38, -3e38], np.float32))
    assert out[0] == np.float32(3e38) and out[1] == 0.0


def test_gelu_matches_erf_reference(rng):
    x = rng.standard_normal(50).astype(np.float32) * 3
    assert np.allclose(numerics.gelu(x), oracles.gelu_f64(x), atol=1e-6)


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


def test_conv2d_against_loops(rng):
    image = rng.standard_normal((3, 8, 8)).astype(np.float32)
    kernels = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    bias = rng.standard_normal(4).astype(np.float32)
    out = numerics.conv2d(image, kernels, bias, stride=2, padding=1)
    assert out.shape == (4, 4, 4)
    assert np.allclose(out, oracles.conv2d_loops(image, kernels, bias, 2, 1), atol=1e-5)


def test_conv2d_nonpositive_extent():
    with pytest.raises(DimensionError):
        numerics.conv2d(
            np.ones((1, 2, 2), np.float32),
            np.ones((1, 1, 5, 5), np.float32),
            np.zeros(1, np.float32),
            stride=1,
            padding=0,
        )


# ---------------------------------------------------------------- cosine

def test_cosine_self_orthogonal_antipodal():
    a = np.array([1.0, 2.0, 2.0], np.float32)
    assert np.isclose(numerics.cosine_similarity(a, a), 1.0)
    assert np.isclose(
        numerics.cosine_similarity(np.array([1.0, 0.0], np.float32), np.array([0.0, 1.0], np.float32)),
        0.0,
    )
    assert np.isclose(numerics.cosine_similarity(a, -a), -1.0)


def test_cosine_zero_norm():
    with pytest.raises(DegenerateInputError):
        numerics.cosine_similarity(np.zeros(3, np.float32), np.ones(3, np.float32))


def test_cosine_matrix_zero_norm_rows_score_zero():
    a = np.array([[0.0, 0.0], [1.0, 0.0]], np.float32)
    b = np.array([[1.0, 1.0], [0.0, 0.0]], np.float32)
    sims = numerics.cosine_similarity_matrix(a, b)
    assert np.array_equal(sims[0], [0.0, 0.0]) and sims[1, 1] == 0.0
    assert np.isclose(sims[1, 0], np.sqrt(0.5))


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
    s1 = numerics.cosine_similarity(va, vb)
    s2 = numerics.cosine_similarity(vb, va)
    s3 = numerics.cosine_similarity((alpha * va).astype(np.float32), vb)
    assert np.isclose(s1, s2, atol=1e-6)
    assert np.isclose(s1, s3, atol=1e-5)
    assert -1.0 <= s1 <= 1.0
