import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from repiece.config import ModelConfig, ReductionConfig
from repiece.embed import TokenBatch


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_config():
    """Four layers, 16-dim, 10 classes, 14x14 grid — cheap but full-shaped."""
    return ModelConfig(depth=4, heads=2, dim=16, num_classes=10)


def make_batch(rng, n_img=8, dim=16, grid=None):
    """Random token batch: the class token at row 0, then one patch per image token.

    Image token i holds patch i - 1; grid cells past n_img start out pruned.
    """
    feats = rng.standard_normal((n_img + 1, dim)).astype(np.float32)
    if grid is None:
        side = int(np.ceil(np.sqrt(n_img)))
        grid = (side, side)
    owner = np.full(grid[0] * grid[1], -1, dtype=np.int64)
    owner[:n_img] = np.arange(1, n_img + 1)
    return TokenBatch(features=feats, owner=owner, grid=grid)


def batch_with_sizes(features, sizes):
    """Batch whose token i > 0 holds sizes[i] consecutive patches; row 0 is
    the class token and holds none."""
    counts = np.array(sizes, dtype=np.int64)
    counts[0] = 0
    owner = np.repeat(np.arange(len(sizes)), counts)
    return TokenBatch(
        features=np.asarray(features, dtype=np.float32),
        owner=owner,
        grid=(owner.shape[0], 1),
    )


def token_patches(batch) -> list[set[int]]:
    """Per token position, the set of patches it holds (CLS: empty)."""
    patches = [set() for _ in range(batch.n_tokens)]
    for patch, pos in enumerate(batch.owner.tolist()):
        if pos >= 0:
            patches[pos].add(patch)
    return patches


@pytest.fixture
def small_batch(rng):
    return make_batch(rng)


def random_block(rng, dim, heads, hidden=None, std=0.5):
    """Random encoder-block weights at a scale that keeps attention well-mixed."""
    from repiece.vit import BlockWeights

    hidden = hidden or 4 * dim
    return BlockWeights(
        ln1_gamma=rng.uniform(0.5, 1.5, dim).astype(np.float32),
        ln1_beta=rng.standard_normal(dim).astype(np.float32) * 0.1,
        qkv_weight=(rng.standard_normal((dim, 3 * dim)) * std).astype(np.float32),
        qkv_bias=(rng.standard_normal(3 * dim) * 0.1).astype(np.float32),
        proj_weight=(rng.standard_normal((dim, dim)) * std).astype(np.float32),
        proj_bias=(rng.standard_normal(dim) * 0.1).astype(np.float32),
        ln2_gamma=rng.uniform(0.5, 1.5, dim).astype(np.float32),
        ln2_beta=rng.standard_normal(dim).astype(np.float32) * 0.1,
        fc1_weight=(rng.standard_normal((dim, hidden)) * std).astype(np.float32),
        fc1_bias=(rng.standard_normal(hidden) * 0.1).astype(np.float32),
        fc2_weight=(rng.standard_normal((hidden, dim)) * std).astype(np.float32),
        fc2_bias=(rng.standard_normal(dim) * 0.1).astype(np.float32),
        heads=heads,
    )
