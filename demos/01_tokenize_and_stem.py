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

# stem_tokens runs the stem each model was built with; the tokens carry no
# class token or positions yet.
grid_batch = stem_tokens(image, grid_model)
conv_batch = stem_tokens(image, conv_model)
print(f"grid tokens: {grid_batch.n_tokens} on a {grid_batch.grid} grid")
print(f"conv tokens: {conv_batch.n_tokens} on a {conv_batch.grid} grid")

# Every patch cell knows which token holds it: owner[p] is that token's
# position (-1 once the cell is pruned). Straight out of the stem each token
# holds exactly one cell, so owner is 0..195 and every size is 1; merges later
# point several cells at one token, and a token's size is its cell count.
print("owner of cells 0-4:", grid_batch.owner[:5].tolist(), "size of token 0:", grid_batch.sizes[0])
print("cells covered:", int((grid_batch.owner >= 0).sum()))

# The payoff: mean cosine similarity between 4-neighbours on the token grid.
for name, batch in (("grid patchify", grid_batch), ("overlap stem ", conv_batch)):
    print(f"{name} neighbour similarity: {adjacency_similarity(batch):.4f}")

# The gap persists across image content — here on a pure horizontal ramp.
ramp = gradient_image(direction="h")
ramp_grid = adjacency_similarity(stem_tokens(ramp, grid_model))
ramp_conv = adjacency_similarity(stem_tokens(ramp, conv_model))
print(f"gradient image: stem {ramp_conv:.4f} vs patchify {ramp_grid:.4f}")

# finalize_tokens prepends the class token and adds positional embeddings;
# the result is what the encoder actually consumes.
full = finalize_tokens(grid_batch, grid_model.positional, grid_model.cls_embedding)
print(f"finalized: {full.n_tokens} tokens, class token at index {full.cls_index}")
