"""
Robustness under occlusion, and wall-clock payoff
=================================================

Two closing experiments on a randomly initialised model:

1. Mask k random 16x16 cells per image and ask how often the prediction
   survives, using each image's own unmasked prediction as its label.
   Accuracy at k=0 with reduction enabled measures plain agreement with
   the unreduced decision; the decay as k grows shows how hard the
   decision leans on the occluded patches.
2. Benchmark images/second with and without retokenization. The schedule
   says the reduced model is about half the FLOPs; here is what that buys
   in actual seconds on this machine.

Random weights are only weakly input-sensitive (the class-token pathway
dominates), so the inputs are uniform noise — each image then carries a
distinctive signature that heavy occlusion can destroy.
"""

import numpy as np

from repiece.config import ModelConfig, ReductionConfig
from repiece.cli import bench, mask_eval
from repiece.vit import forward_image, init_random

cfg = ModelConfig(depth=8, heads=4, dim=128, num_classes=10)
weights = init_random(cfg, seed=0)
prune = frozenset({2, 4, 6})
none = ReductionConfig(strategy="none", prune_layers=frozenset())

rng = np.random.default_rng(21)
images = [rng.uniform(0.0, 1.0, size=(3, 224, 224)).astype(np.float32) for _ in range(12)]

# Self-labels: whatever the unreduced, unmasked model says.
labels = [int(np.argmax(forward_image(img, weights, none)[0])) for img in images]
print(f"label distribution over {len(images)} noise images: {sorted(set(labels))}")

print("\nmasked-cell accuracy (label = own unmasked prediction, 196 cells total)")
print(f"{'k':>4s}  {'none':>8s}  {'imagepiece':>10s}")
k_list = [0, 30, 90, 150, 190]
rows_none = mask_eval(weights, images, labels, k_list, seed=9, reduction=none)
rcfg = ReductionConfig(strategy="imagepiece", prune_layers=prune)
rows_ip = mask_eval(weights, images, labels, k_list, seed=9, reduction=rcfg)
for a, b in zip(rows_none, rows_ip):
    print(f"{a['k']:4d}  {a['accuracy']:8.2f}  {b['accuracy']:10.2f}")

# Throughput: same weights, identical synthetic batches, median of repeats.
print("\nthroughput (batch 4, 5 timed iterations)")
for strategy, layers in (("none", frozenset()), ("imagepiece", prune)):
    rcfg = ReductionConfig(strategy=strategy, prune_layers=layers)
    report = bench(weights, rcfg, batch_size=4, iterations=5)
    print(f"{strategy:10s} {report['images_per_second']:7.1f} img/s  "
          f"median {report['median_seconds']:.3f}s  "
          f"{report['flops'] / 1e9:.2f} GFLOPs/img")
