"""Dense float32 tensor kernels used by every other module.

All functions take and return C-contiguous float32 arrays and raise instead of
propagating NaN/Inf. All are pure but GELU given an `out` array, which it
writes; `out` may be the input itself, so the MLP and the coherence stem
apply GELU in place. The module needs numpy only. matmul, conv2d, GELU and
softmax compute in float32 throughout, and layer norm keeps its [N x D] data
in float32 too. The only float64 accumulation among them is layer norm's
per-row mean and variance: two [N] vectors, wide enough that a row such as
[1e20, -1e20, 0], whose squares overflow float32, still normalizes; layer
norm halves its input first, so that no finite float32 row overflows on the
way. GELU is the exact erf form, evaluated as relu(x) - |x| * Phi(-|x|) with
Numerical Recipes' erfc fit (fractional error below 1.2e-7), over blocks of
GELU_BLOCK elements that keep its in-place passes in L2 cache. Softmax
normalizes along any axis of a 2-D or 3-D array, with the same bytes on
every axis; attention normalizes key-major logits along axis 0, so that each
of its passes runs over whole rows rather than one short row per query.
conv2d builds its im2col columns one band of output rows at a time, each
band about _CONV_BAND_ELEMS elements, straight from the unpadded input, so
it holds neither a padded copy nor the whole column matrix. The cosine
similarity matrix, used for token matching, accumulates norms and dot
products in float64; its result is float32.

Privately, the module also holds numpy's OpenBLAS to one thread while
`cli` runs images on several threads at once (`_one_blas_thread`). It
finds the library among the process's mapped files on first use, through
`ctypes`. Where there is none it can hold, `_blas_threads` is None, the hold
does nothing, and images run one after another unless REPIECE_THREADS asks
otherwise (`diag.max_workers`).
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import threading
from typing import Callable, Iterator

import numpy as np

from .errors import DimensionError, NumericError, RangeError

# Elements per GELU block: 256 KiB per float32 temporary.
GELU_BLOCK = 65536

# Elements of one band of conv2d's im2col columns: 1 MiB of float32, so that a
# band and its slice of the output fit in one core's L2 cache.
_CONV_BAND_ELEMS = 1 << 18

LAYER_NORM_EPS = 1e-6  # layer norm's variance floor, as in DeiT

# Numerical Recipes' erfcc: erfc(z) = u * exp(-z^2 + P(u)), u = 1/(1 + z/2).
# Coefficients of P from u^9 down to u^1; the constant term follows, with
# ln(1/2) added so that the exponential gives erfc(z)/2 = Phi(-z*sqrt2).
_ERFC_COEFFS = (
    0.17087277, -0.82215223, 1.48851587, -1.13520398, 0.27886807,
    -0.18628806, 0.09678418, 0.37409196, 1.00002368,
)
_ERFC_C0_HALF = -1.26551223 + math.log(0.5)
_HALF_RSQRT2 = 0.5 / math.sqrt(2.0)


def as_f32(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float32)


def _check_finite(x: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(x).all():
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


def softmax_rows(t: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax of t along axis, stabilized by max subtraction.

    t is [N x M] or a stack of them, [H x N x M]; axis picks the axis each
    distribution runs along (the last by default). A difference from the max
    that overflows float32 becomes -inf, whose exponential is exactly 0, so
    any finite input gives a finite distribution. Along axis 0 of a
    C-contiguous array every pass runs over whole rows of the other axes, one
    long inner loop per pass instead of one short loop per distribution. The
    sums along any axis but the last add their terms in the order numpy's
    pairwise summation adds a contiguous row (`_pairwise_sum`), so the result
    is byte-identical to the last-axis softmax of the transposed array.
    """
    t = as_f32(t)
    if t.ndim not in (2, 3):
        raise DimensionError(f"softmax_rows expects a 2-D or 3-D array, got shape {t.shape}")
    if not -t.ndim <= axis < t.ndim:
        raise DimensionError(f"softmax_rows axis {axis} is out of range for shape {t.shape}")
    _check_finite(t, "softmax_rows input")
    with np.errstate(over="ignore"):
        z = t - np.maximum.reduce(t, axis=axis, keepdims=True)
    np.exp(z, out=z)
    if axis % t.ndim == t.ndim - 1:
        z /= np.add.reduce(z, axis=-1, keepdims=True)
    else:
        z /= np.expand_dims(_pairwise_sum(np.moveaxis(z, axis, 0)), axis)
    return z


def _pairwise_sum(a: np.ndarray) -> np.ndarray:
    """Sum over axis 0, in the order numpy's pairwise summation adds a contiguous row.

    numpy sums a float row of n <= 128 terms in eight interleaved
    accumulators, j, j+8, j+16, ..., combines them as a balanced tree and
    adds the n % 8 leftover terms one by one; a longer row is split in two at
    a multiple of 8 near its middle and its halves are summed that way. Here
    every scalar step is a whole-row operation over the other axes, so the
    sums along axis 0 come out byte-identical to np.add.reduce along a
    contiguous last axis, at the cost of one pass per term.
    """
    n = a.shape[0]
    if n < 8:
        return np.add.reduce(a, axis=0)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        total = _pairwise_sum(a[:half])
        total += _pairwise_sum(a[half:])
        return total
    whole = n - n % 8
    acc = np.add.reduce(a[:whole].reshape(whole // 8, 8, *a.shape[1:]), axis=0)
    acc = acc[0::2] + acc[1::2]
    acc = acc[0::2] + acc[1::2]
    total = acc[0] + acc[1]
    for row in a[whole:]:
        total += row
    return total


def layer_norm(t: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Per-row standardization (population variance) followed by gamma/beta affine."""
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
    out -= (np.add.reduce(out, axis=1, dtype=np.float64) / t.shape[1]).astype(np.float32)[:, None]
    var = np.einsum("ij,ij->i", out, out, dtype=np.float64) / t.shape[1]
    out *= (1.0 / np.sqrt(var + LAYER_NORM_EPS / 4)).astype(np.float32)[:, None]
    out *= gamma
    out += beta
    return _check_finite(out, "layer_norm output")


def gelu(t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise Gaussian-error linear unit, exact erf form x * Phi(x), in float32.

    Computed as relu(x) - a * Phi(-a) with a = |x|, which equals x * Phi(x)
    for either sign and has no cancellation in the negative tail. Phi(-a) is
    erfc(a/sqrt2) / 2, and erfc(z) = u * exp(-z^2 + P(u)) with u = 1/(1 + z/2)
    and P the Chebyshev fit of Numerical Recipes' erfcc (fractional error
    below 1.2e-7 for every z >= 0); the 1/2 is folded into P as ln(1/2). The
    flattened input is processed in blocks of GELU_BLOCK elements through
    four scratch buffers reused for every block, so the working set of the
    ~30 in-place passes stays in a core's L2 cache. No pass writes the output
    block before the last two read x, so `out` may be t itself; it must
    otherwise not overlap t. An out of another shape or dtype, or one that is
    not C-contiguous, raises DimensionError. Where a^2 overflows, exp(-inf) is
    0 and the result is exactly relu(x); NaN or infinite input gives a
    non-finite output, which raises NumericError.
    """
    t = as_f32(t)
    if out is None:
        out = np.empty_like(t)
    elif out.shape != t.shape or out.dtype != np.float32 or not out.flags.c_contiguous:
        raise DimensionError(
            f"gelu out must be a C-contiguous float32 array of shape {t.shape}, "
            f"got {out.dtype} {out.shape}"
        )
    flat_in = t.reshape(-1)
    flat_out = out.reshape(-1)
    n = flat_in.shape[0]
    scratch = np.empty((4, min(n, GELU_BLOCK)), dtype=np.float32)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for start in range(0, n, GELU_BLOCK):
            x = flat_in[start : start + GELU_BLOCK]
            o = flat_out[start : start + GELU_BLOCK]
            a, u, p, q = scratch[:, : x.shape[0]]
            np.abs(x, out=a)
            np.multiply(a, _HALF_RSQRT2, out=u)  # z/2
            u += 1.0
            np.reciprocal(u, out=u)
            np.multiply(u, _ERFC_COEFFS[0], out=p)
            for c in _ERFC_COEFFS[1:]:
                p += c
                p *= u
            p += _ERFC_C0_HALF
            np.multiply(a, a, out=q)
            q *= 0.5
            p -= q  # ln(erfc(z)/2 / u), z^2 = a^2/2
            np.exp(p, out=p)
            p *= u
            p *= a  # a * Phi(-a)
            np.maximum(x, 0.0, out=o)
            o -= p
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
    The im2col columns are built for one band of output rows at a time, as
    many rows as fit in _CONV_BAND_ELEMS elements (at least one), straight
    from the unpadded input: each (channel, kernel row, kernel column) row of
    the band is one strided slice of the input, and the entries whose tap
    lands in the padding are set to zero. Each band's product is written into
    its slice of one [F x H'*W'] output, with the bias added per band. The
    columns, their order and the GEMM are those of the whole column matrix,
    and at the coherence stem's shapes the result is byte-identical to one
    product over it; bands of a few columns may round differently.
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

    # channel-major im2col, one band of output rows at a time: one column per
    # output position, one row per (channel, kernel row, kernel column), so the
    # band's product is its slice of the [F x H'*W'] output, already in order
    weights = kernels.reshape(f, c * kh * kw)
    out = np.empty((f, h_out * w_out), dtype=np.float32)
    band_rows = min(h_out, max(1, _CONV_BAND_ELEMS // (c * kh * kw * w_out)))
    buf = np.empty((c * kh * kw, band_rows * w_out), dtype=np.float32)
    for r0 in range(0, h_out, band_rows):
        r1 = min(r0 + band_rows, h_out)
        cols = buf[:, : (r1 - r0) * w_out]
        taps = cols.reshape(c, kh, kw, r1 - r0, w_out)
        for dy in range(kh):
            i0, i1 = _tap_range(r0, r1, dy - padding, stride, h)
            for dx in range(kw):
                j0, j1 = _tap_range(0, w_out, dx - padding, stride, w)
                tap = taps[:, dy, dx]
                # taps that land in the zero padding
                tap[:, : i0 - r0] = 0.0
                tap[:, i1 - r0 :] = 0.0
                tap[:, :, :j0] = 0.0
                tap[:, :, j1:] = 0.0
                y, x = i0 * stride + dy - padding, j0 * stride + dx - padding
                tap[:, i0 - r0 : i1 - r0, j0:j1] = input[:, y::stride, x::stride][:, : i1 - i0, : j1 - j0]
        band = out[:, r0 * w_out : r1 * w_out]
        np.matmul(weights, cols, out=band)
        band += bias[:, None]
    return _check_finite(out.reshape(f, h_out, w_out), "conv2d output")


def _tap_range(lo: int, hi: int, offset: int, stride: int, size: int) -> tuple[int, int]:
    """The outputs o in [lo, hi) whose tap o*stride + offset lands inside [0, size),
    as [start, stop); empty ranges come back as (start, start)."""
    start = max(lo, -(offset // stride))
    stop = min(hi, (size - 1 - offset) // stride + 1)
    return start, max(start, stop)


def cosine_similarity_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All pairwise cosine similarities between rows of a [m x d] and b [n x d].

    Both groups are normalized together, as one stacked float64 array. A
    zero-norm row has no direction; its similarity to every row is defined
    as 0.
    """
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DimensionError(f"row-vector dims disagree: {a.shape} vs {b.shape}")
    rows = np.concatenate((a, b), dtype=np.float64)
    # row norms summed as np.linalg.norm(x, axis=1) sums them
    norms = np.sqrt(np.add.reduce(rows * rows, axis=1))
    # a zero row divided by 1 stays zero, so its dot products are exactly 0
    norms[norms == 0.0] = 1.0
    rows /= norms[:, None]
    sims = rows[: len(a)] @ rows[len(a) :].T
    np.maximum(sims, -1.0, out=sims)  # clip to [-1, 1]
    np.minimum(sims, 1.0, out=sims)
    return sims.astype(np.float32)


# ---------------------------------------------------------------------------
# the OpenBLAS thread count, held at one while `cli` fans images out

# getter and setter spellings: numpy's scipy-openblas wheels, then plain OpenBLAS
_BLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
_BLAS_LOCK = threading.Lock()
_blas_state: dict = {"probed": False, "handle": None, "depth": 0, "saved": 1}
_BlasHandle = tuple[Callable[[], int], Callable[[int], None]]  # (get, set) of the count


def _find_openblas() -> _BlasHandle | None:
    """(get, set) of the first mapped OpenBLAS whose count reads 1 after set(1)."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            paths = {line.split(None, 5)[5].strip() for line in fh if "openblas" in line}
    except OSError:  # no /proc: not Linux
        return None
    for path in sorted(paths, key=lambda p: ("numpy" not in p, p)):  # numpy's own first
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _BLAS_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is None or set_ is None:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            count = get()
            set_(1)
            took = get() == 1
            set_(count)
            if took:
                return get, set_
    return None


def _blas_threads() -> _BlasHandle | None:
    """The thread-count handle of numpy's OpenBLAS, or None where it cannot be held."""
    with _BLAS_LOCK:
        if not _blas_state["probed"]:
            _blas_state["handle"], _blas_state["probed"] = _find_openblas(), True
        return _blas_state["handle"]


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Hold numpy's OpenBLAS to one thread. Of overlapping holds, the last to
    end restores the count the first one found. Without a handle, do nothing."""
    handle = _blas_threads()
    if handle is None:
        yield
        return
    get, set_ = handle
    with _BLAS_LOCK:
        if _blas_state["depth"] == 0:
            _blas_state["saved"] = get()
            set_(1)
        _blas_state["depth"] += 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _blas_state["depth"] -= 1
            if _blas_state["depth"] == 0:
                set_(_blas_state["saved"])
