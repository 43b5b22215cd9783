"""
Tokenizing an image: grid patches vs. the overlapping-conv stem
===============================================================

A 224x224 image becomes 196 tokens either by slicing it into 16x16 patches
and projecting each one, or by running it through a small stack of stride-2
convolutions whose receptive fields overlap. The second route entangles
neighbouring cells, so adjacent tokens come out measurably more similar —
which is exactly the local-coherence prior the retokenization strategy
later exploits.
"""

import numpy as np

from repiece.config import ModelConfig
from repiece.diag import adjacency_similarity
from repiece.embed import finalize_tokens
from repiece.synth import gradient_image, smooth_image
from repiece.vit import init_random, stem_tokens

# Two tiny depth-0 models that differ only in their tokenizer.
dim = 64
grid_model = init_random(ModelConfig(depth=0, heads=1, dim=dim, num_classes=2), seed=0)
conv_model = init_random(
    ModelConfig(depth=0, heads=1, dim=dim, num_classes=2, stem="coherence", stem_base=8), seed=0
)

# A smooth synthetic image: broad gradients, wavelengths well above 16 pixels.
image = smooth_image(seed=42)

# stem_tokens runs the stem each model was built with and returns a feature
# map: one D-dimensional feature per grid cell, no class token, no positions.
grid_map = stem_tokens(image, grid_model)
conv_map = stem_tokens(image, conv_model)
print(f"grid feature map: {grid_map.shape} (rows, cols, dim)")
print(f"conv feature map: {conv_map.shape} (rows, cols, dim)")

# The payoff: mean cosine similarity between 4-neighbours on the grid.
for name, fmap in (("grid patchify", grid_map), ("overlap stem ", conv_map)):
    print(f"{name} neighbour similarity: {adjacency_similarity(fmap):.4f}")

# The gap persists across image content — here on a pure horizontal ramp.
ramp = gradient_image(direction="h")
ramp_grid = adjacency_similarity(stem_tokens(ramp, grid_model))
ramp_conv = adjacency_similarity(stem_tokens(ramp, conv_model))
print(f"gradient image: stem {ramp_conv:.4f} vs patchify {ramp_grid:.4f}")

# finalize_tokens turns a map into what the encoder consumes: the class token
# at row 0, then the cells row-major, plus positional embeddings.
full = finalize_tokens(grid_map, grid_model.positional, grid_model.cls_embedding)
print(f"finalized: {full.n_tokens} tokens on a {full.grid} grid, class token at row 0")

# Every patch cell knows which token holds it: owner[p] is that token's row
# (-1 once the cell is pruned). Fresh from finalize_tokens each image token
# holds exactly one cell, so owner is 1..196 and every size is 1; merges
# later point several cells at one token, and a token's size is its cell
# count. The class token holds no cell.
print("owner of cells 0-4:", full.owner[:5].tolist(), "size of token 1:", full.sizes[1])
print("cells covered:", int((full.owner >= 0).sum()))
