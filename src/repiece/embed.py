"""Image tokenization: grid patchifier, overlapping-conv stem, CLS/positions, masking.

Both stems take the image and their weights as plain arrays and return a
[rows x cols x D] feature map; `vit.stem_tokens` picks the stem a model was
built with and hands it that model's tensors. `finalize_tokens` turns a map
into the one kind of TokenBatch: the class token at row 0, then the map's
cells row-major.

A TokenBatch carries, next to the features, the bookkeeping every reduction
strategy relies on: one owner array over the original patch grid that names,
for each grid cell, the row of the token holding it (or -1 once the cell is
pruned). A token's size (how many original patches it stands for) and its
id (the smallest cell it holds) are both read off that array. Because each
cell has exactly one owner, the tokens' cell sets are disjoint by construction,
and the surviving tokens plus the pruned cells always partition the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numerics
from .config import MASK_SIZE
from .errors import DimensionError, FormatError, RangeError


@dataclass(frozen=True)
class TokenBatch:
    """Token features plus the patch-to-token owner map.

    Row 0 is the class token: it holds no patch, and no reduction moves it.
    Every other row is an image token holding at least one patch.

    features: [N x D] float32
    owner: [rows*cols] int64; owner[p] is the row of the token holding
        patch p, or -1 once p is pruned. Never 0.
    grid: (rows, cols) of the original patch grid
    """

    features: np.ndarray
    owner: np.ndarray
    grid: tuple[int, int]

    @property
    def n_tokens(self) -> int:
        return self.features.shape[0]

    @property
    def n_image_tokens(self) -> int:
        return self.n_tokens - 1

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def sizes(self) -> np.ndarray:
        """[N] int64: original patches behind each token (CLS: 1)."""
        sizes = np.bincount(self.owner[self.owner >= 0], minlength=self.n_tokens)
        sizes[0] = 1
        return sizes.astype(np.int64, copy=False)

    def token_ids(self) -> np.ndarray:
        """[N] int64: the smallest patch each token holds (CLS: -1)."""
        n, patches = self.n_tokens, self.owner.shape[0]
        # the spare last slot collects the pruned patches (owner -1)
        ids = np.full(n + 1, patches, dtype=np.int64)
        np.minimum.at(ids, self.owner, np.arange(patches))
        ids = ids[:n]
        ids[ids == patches] = -1  # a token holding no patch: CLS
        return ids

    def image_indices(self) -> np.ndarray:
        """Rows of the image tokens: every row but 0."""
        return np.arange(1, self.n_tokens)

    def with_features(self, features: np.ndarray) -> "TokenBatch":
        if features.shape != self.features.shape:
            raise DimensionError(
                f"replacement features {features.shape} != {self.features.shape}"
            )
        return TokenBatch(numerics.as_f32(features), self.owner, self.grid)

    def validate(self) -> None:
        """Check the structural invariants; used by tests, not on the hot path.

        Disjointness needs no check: every patch has exactly one owner.
        """
        n = self.n_tokens
        assert self.owner.shape == (self.grid[0] * self.grid[1],)
        assert self.owner.dtype == np.int64
        assert np.all((self.owner >= -1) & (self.owner < n)), "owner out of range"
        held = np.bincount(self.owner[self.owner >= 0], minlength=n) > 0
        assert not held[0], "the class token holds a patch"
        assert held[1:].all(), "an image token holds no patch"


def patchify_embed(
    image: np.ndarray,
    patch_size: int,
    projection: np.ndarray,
    bias: np.ndarray,
) -> np.ndarray:
    """One feature per non-overlapping patch: flatten (c, y, x order) and project.

    image: [3 x H x W]; projection: [(3*patch_size^2) x D]; bias: [D].
    Returns the float32 [H/patch_size x W/patch_size x D] feature map.
    """
    image = numerics.as_f32(image)
    if image.ndim != 3:
        raise DimensionError(f"expected CxHxW image, got shape {image.shape}")
    c, h, w = image.shape
    if h % patch_size or w % patch_size:
        raise DimensionError(f"image {h}x{w} not divisible by patch_size {patch_size}")
    rows, cols = h // patch_size, w // patch_size
    projection = numerics.as_f32(projection)
    if projection.shape[0] != c * patch_size * patch_size:
        raise DimensionError(
            f"projection rows {projection.shape[0]} != {c * patch_size * patch_size}"
        )
    patches = (
        image.reshape(c, rows, patch_size, cols, patch_size)
        .transpose(1, 3, 0, 2, 4)
        .reshape(rows * cols, c * patch_size * patch_size)
    )
    feats = numerics.matmul(patches, projection) + numerics.as_f32(bias)
    return feats.reshape(rows, cols, feats.shape[1])


def coherence_stem(
    image: np.ndarray,
    conv_kernels: tuple[np.ndarray, ...],
    conv_biases: tuple[np.ndarray, ...],
    proj_kernel: np.ndarray,
    proj_bias: np.ndarray,
) -> np.ndarray:
    """Tokenize through four stride-2 3x3 convolutions (GELU after each) and a 1x1 projection.

    Overlapping receptive fields entangle neighboring cells, so spatially
    adjacent tokens come out more similar than under the grid patchifier.
    224 -> 112 -> 56 -> 28 -> 14.

    image: [3 x H x W]; conv_kernels: four [C_out x C_in x 3 x 3] kernels, with
    conv_biases their four [C_out] biases; proj_kernel: [D x C4 x 1 x 1];
    proj_bias: [D]. Returns the float32 [rows x cols x D] feature map.
    """
    x = numerics.as_f32(image)
    if x.ndim != 3:
        raise DimensionError(f"expected CxHxW image, got shape {x.shape}")
    for kernel, bias in zip(conv_kernels, conv_biases):
        x = numerics.conv2d(x, kernel, bias, stride=2, padding=1)
        numerics.gelu(x, out=x)
    x = numerics.conv2d(x, proj_kernel, proj_bias, stride=1, padding=0)
    return numerics.as_f32(x.transpose(1, 2, 0))


def finalize_tokens(
    feature_map: np.ndarray,
    positional: np.ndarray,
    cls_embedding: np.ndarray,
) -> TokenBatch:
    """Token batch of a [rows x cols x D] feature map: the class token at row
    0, then the map's cells row-major, plus positional embeddings."""
    feature_map = numerics.as_f32(feature_map)
    if feature_map.ndim != 3:
        raise DimensionError(f"expected a rows x cols x D map, got shape {feature_map.shape}")
    rows, cols, d = feature_map.shape
    p = rows * cols
    positional = numerics.as_f32(positional)
    cls_embedding = numerics.as_f32(cls_embedding)
    if positional.shape != (p + 1, d):
        raise DimensionError(
            f"positional table {positional.shape} does not match {p + 1} tokens of dim {d}"
        )
    if cls_embedding.shape != (d,):
        raise DimensionError(f"class embedding {cls_embedding.shape} does not match dim {d}")
    feats = np.concatenate([cls_embedding[None, :], feature_map.reshape(p, d)], axis=0) + positional
    return TokenBatch(
        features=numerics.as_f32(feats),
        owner=np.arange(1, p + 1, dtype=np.int64),
        grid=(rows, cols),
    )


def apply_random_masks(image: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Zero out k distinct grid-aligned 16x16 regions, chosen uniformly by seed."""
    image = numerics.as_f32(image)
    if image.ndim != 3:
        raise DimensionError(f"expected CxHxW image, got shape {image.shape}")
    _, h, w = image.shape
    rows, cols = h // MASK_SIZE, w // MASK_SIZE
    cells = rows * cols
    if not 0 <= k <= cells:
        raise RangeError(f"k={k} outside [0, {cells}] for a {rows}x{cols} mask grid")
    out = image.copy()
    if k == 0:
        return out
    rng = np.random.default_rng(seed)
    chosen = rng.choice(cells, size=k, replace=False)
    for cell in chosen:
        r, c = divmod(int(cell), cols)
        out[:, r * MASK_SIZE : (r + 1) * MASK_SIZE, c * MASK_SIZE : (c + 1) * MASK_SIZE] = 0.0
    return out


def read_ppm(path: str | Path) -> np.ndarray:
    """Read a binary P6 PPM (8-bit RGB) as a [3 x H x W] float32 image in [0, 1]."""
    data = Path(path).read_bytes()

    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(data):
            if data[pos : pos + 1].isspace():
                pos += 1
            elif data[pos : pos + 1] == b"#":
                while pos < len(data) and data[pos : pos + 1] != b"\n":
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: truncated PPM header")
        return data[start:pos]

    if next_token() != b"P6":
        raise FormatError(f"{path}: not a binary P6 PPM")
    try:
        w, h, maxval = int(next_token()), int(next_token()), int(next_token())
    except ValueError as exc:
        raise FormatError(f"{path}: bad PPM header") from exc
    if w <= 0 or h <= 0:
        raise FormatError(f"{path}: PPM dimensions must be positive, got {w}x{h}")
    if maxval != 255:
        raise FormatError(f"{path}: only 8-bit PPMs supported, maxval={maxval}")
    pos += 1  # single whitespace after maxval
    pixels = np.frombuffer(memoryview(data)[pos:], dtype=np.uint8)  # empty past the end
    if pixels.size < 3 * h * w:
        raise FormatError(f"{path}: pixel data truncated")
    hwc = pixels[: 3 * h * w].reshape(h, w, 3)
    # order="C": a contiguous CHW image, not one laid out in the file's HWC order
    return np.divide(hwc.transpose(2, 0, 1), np.float32(255.0), dtype=np.float32, order="C")


def write_ppm(image: np.ndarray, path: str | Path) -> None:
    """Write a [3 x H x W] float32 image in [0, 1] as a binary P6 PPM."""
    image = numerics.as_f32(image)
    if image.ndim != 3 or image.shape[0] != 3:
        raise DimensionError(f"expected 3xHxW image, got shape {image.shape}")
    _, h, w = image.shape
    rgb = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(rgb.transpose(1, 2, 0).tobytes())
