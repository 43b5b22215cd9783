"""Dense float32 tensor kernels used by every other module.

All functions are pure, take and return C-contiguous float32 arrays, and raise
instead of propagating NaN/Inf. matmul, conv2d, GELU and softmax compute in
float32 throughout, and layer norm keeps its [N x D] data in float32 too. The
only float64 accumulation among them is layer norm's per-row mean and
variance: two [N] vectors, wide enough that a row such as [1e20, -1e20, 0],
whose squares overflow float32, still normalizes. GELU and layer norm halve
their input first, so that no finite float32 input overflows on the way. The
cosine similarities, used for token matching, accumulate norms and dot
products in float64; their results are float32.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from .errors import DegenerateInputError, DimensionError, NumericError, RangeError

SQRT2 = float(np.sqrt(2.0))


def as_f32(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float32)


def _check_finite(x: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NumericError(f"non-finite values in {what}")
    return x


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of a [m x k] and b [k x n]."""
    a = as_f32(a)
    b = as_f32(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"inner dimensions disagree: {a.shape} vs {b.shape}")
    return _check_finite(a @ b, "matmul output")


def softmax_rows(t: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Softmax of t / scale over the last axis, stabilized by row-max subtraction.

    t is [N x M] or a stack of them, [H x N x M]. The row max is subtracted
    before dividing by scale; a difference that overflows float32 becomes
    -inf, whose exponential is exactly 0, so any finite input gives a finite
    distribution.
    """
    if scale <= 0:
        raise RangeError(f"scale must be positive, got {scale}")
    t = as_f32(t)
    if t.ndim not in (2, 3):
        raise DimensionError(f"softmax_rows expects a 2-D or 3-D array, got shape {t.shape}")
    _check_finite(t, "softmax_rows input")
    with np.errstate(over="ignore"):
        z = t - t.max(axis=-1, keepdims=True)
        if scale != 1.0:
            z /= scale
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def layer_norm(t: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Per-row standardization (population variance) followed by gamma/beta affine."""
    if eps <= 0:
        raise RangeError(f"eps must be positive, got {eps}")
    t = as_f32(t)
    gamma = as_f32(gamma)
    beta = as_f32(beta)
    if t.ndim != 2 or gamma.shape != (t.shape[1],) or beta.shape != (t.shape[1],):
        raise DimensionError(
            f"layer_norm shapes disagree: t {t.shape}, gamma {gamma.shape}, beta {beta.shape}"
        )
    # Standardizing t/2 with eps/4 gives the same result as t with eps, and a
    # halved row minus its mean cannot overflow float32. Only the [N] row
    # statistics accumulate in float64: squares of entries above ~1.8e19
    # overflow float32.
    out = t * np.float32(0.5)
    out -= out.mean(axis=1, dtype=np.float64).astype(np.float32)[:, None]
    var = np.einsum("ij,ij->i", out, out, dtype=np.float64) / t.shape[1]
    out *= (1.0 / np.sqrt(var + eps / 4)).astype(np.float32)[:, None]
    out *= gamma
    out += beta
    return _check_finite(out, "layer_norm output")


def gelu(t: np.ndarray) -> np.ndarray:
    """Elementwise Gaussian-error linear unit, exact erf form, in float32.

    Computed as (1 + erf(t/sqrt2)) * (t/2): halving t first keeps the result
    finite for |t| up to the float32 maximum.
    """
    t = as_f32(t)
    out = t / SQRT2
    erf(out, out=out)
    out += 1.0
    out *= 0.5 * t
    return _check_finite(out, "gelu output")


def conv2d(
    input: np.ndarray,
    kernels: np.ndarray,
    bias: np.ndarray,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """2-D cross-correlation of input [C x H x W] with kernels [F x C x kh x kw].

    Zero padding; output is [F x H' x W'] with H' = floor((H + 2p - kh)/s) + 1.
    """
    input = as_f32(input)
    kernels = as_f32(kernels)
    bias = as_f32(bias)
    if input.ndim != 3 or kernels.ndim != 4:
        raise DimensionError(f"conv2d expects CxHxW input and FxCxKhxKw kernels, got {input.shape}, {kernels.shape}")
    c, h, w = input.shape
    f, kc, kh, kw = kernels.shape
    if kc != c:
        raise DimensionError(f"kernel channels {kc} do not match input channels {c}")
    if bias.shape != (f,):
        raise DimensionError(f"bias shape {bias.shape} does not match {f} kernels")
    if stride < 1 or padding < 0:
        raise RangeError(f"stride must be >= 1 and padding >= 0, got {stride}, {padding}")
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    if h + 2 * padding < kh or w + 2 * padding < kw or h_out < 1 or w_out < 1:
        raise DimensionError(f"non-positive output extent for input {input.shape}, kernel {kh}x{kw}")

    if padding:
        input = np.pad(input, ((0, 0), (padding, padding), (padding, padding)))
    # im2col: windows become rows, one matmul does all positions at once
    win = np.lib.stride_tricks.sliding_window_view(input, (kh, kw), axis=(1, 2))
    win = win[:, ::stride, ::stride]  # C x H' x W' x kh x kw
    cols = win.transpose(1, 2, 0, 3, 4).reshape(h_out * w_out, c * kh * kw)
    out = cols @ kernels.reshape(f, c * kh * kw).T + bias
    return _check_finite(out.T.reshape(f, h_out, w_out).astype(np.float32), "conv2d output")


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between two vectors, in [-1, 1]."""
    a = as_f32(a).ravel()
    b = as_f32(b).ravel()
    if a.shape != b.shape:
        raise DimensionError(f"vector lengths disagree: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a.astype(np.float64)))
    nb = float(np.linalg.norm(b.astype(np.float64)))
    if na == 0.0 or nb == 0.0:
        raise DegenerateInputError("cosine_similarity needs non-zero norms")
    sim = float(np.dot(a.astype(np.float64), b.astype(np.float64)) / (na * nb))
    return min(1.0, max(-1.0, sim))


def cosine_similarity_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All pairwise cosine similarities between rows of a [m x d] and b [n x d].

    A zero-norm row has no direction; its similarity to every row is defined
    as 0.
    """
    a = as_f32(a)
    b = as_f32(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DimensionError(f"row-vector dims disagree: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a.astype(np.float64), axis=1)
    nb = np.linalg.norm(b.astype(np.float64), axis=1)
    # a zero row divided by 1 stays zero, so its dot products are exactly 0
    na[na == 0.0] = 1.0
    nb[nb == 0.0] = 1.0
    sims = (a.astype(np.float64) / na[:, None]) @ (b.astype(np.float64) / nb[:, None]).T
    return np.clip(sims, -1.0, 1.0).astype(np.float32)
