"""Print one SHA-256 over the public outputs of the `repiece` package on PYTHONPATH.

A change that must leave every output byte-identical is checked by running
this script against the parent commit and against the change, and comparing
the two lines it prints:

    mkdir -p /tmp/parent && git archive HEAD | tar -x -C /tmp/parent
    PYTHONPATH=/tmp/parent/src python3 tools/output_digest.py
    PYTHONPATH=src python3 tools/output_digest.py

Only what the public API returns is hashed, so the digest does not depend on
how a record stores its fields: per forward the logits, the canonical run
report, every layer's post-reduction owner, ids and sizes (through
`layer_hook`) and the diagnostic metrics; per geometry and config the
`token_schedule` and `schedule_rows`; per strategy the exit code and CSV text
of `repiece schedule` swept over comma lists of all four knobs. The forwards
cover 4 geometries x 2 weight seeds x 2 images x 11 reduction configs, about
10 s on 2 cores.

Direct `reduce.step` calls are hashed as well, for cases no forward reaches:
batches of 0 to 12 image tokens holding scattered patches of a 4x4 grid,
random and tied class attention, and STEP_CONFIGS at layer 0. Per call the
output batch's features, owner, ids and sizes, and the record's public fields
and properties are hashed. The count rule is hashed on its own as well:
`reduce.merge_count` and `reduce.tokens_after` for every n_img in 0 to 196 at
layers 0 to 12, under each of CONFIGS and STEP_CONFIGS.

The run-spec path is hashed too, in a temporary working directory with
relative paths: the exit code, stdout and weights bytes of `repiece init`
from a spec that holds all seven keys; the reports of `repiece run` from that
spec, alone and with six flags overriding its keys, and from coherence-stem
weights at `stem_base` 8 and 40 (STEM_BASES); `repiece schedule
--config` with a `--tome-r` sweep, and with a `--strategy` override and a
two-flag sweep; the stdout and report file of `repiece diag` for each of its
five metrics and of `repiece mask-eval`, all from that spec, the latter also
with `--masks 0,196`; the exit code and stdout of `repiece mask-eval` with a
mask count out of range (`--masks=-1`, `--masks 0,300`); the reports of `run`
and `mask-eval` with REPIECE_THREADS=2 and again with REPIECE_THREADS=1, and
of `mask-eval` from the spec without its labels under each; and only the exit
codes of `repiece run` over mistyped, non-object and unknown-key specs. The
exit code, stdout and stderr of `repiece mask-eval` are hashed, under each
REPIECE_THREADS value, over one input (with and without labels), over inputs
that include a truncated PPM, and on weights shallower than the spec's prune
layers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

import repiece
from repiece import ModelConfig, ReductionConfig, cli, diag, reduce, vit
from repiece.config import STRATEGIES
from repiece.embed import TokenBatch, write_ppm
from repiece.synth import gradient_image, smooth_image

GEOMETRIES = (
    ModelConfig(),  # DeiT-S
    ModelConfig(depth=8, heads=4, dim=128, num_classes=10),
    ModelConfig(depth=6, heads=2, dim=32, num_classes=10, stem="coherence", stem_base=4),
    ModelConfig(depth=4, heads=2, dim=16, num_classes=10),
)
WEIGHT_SEEDS = (3, 11)
IMAGES = (smooth_image(seed=7), gradient_image(direction="v"))
CONFIGS = (
    dict(strategy="none"),
    dict(strategy="imagepiece"),
    dict(strategy="imagepiece", keep_rate=0.5, merge_ratio=0.15),
    dict(
        strategy="imagepiece",
        nonsemantic_proportion=0.45,
        merge_ratio=0.2,
        retokenize_layers=frozenset({0, 2}),
        proportional_attention=False,
    ),
    # budgets of 0 merges at most layers
    dict(strategy="imagepiece", merge_ratio=0.02, nonsemantic_proportion=0.05, keep_rate=0.3),
    dict(strategy="evit"),
    dict(strategy="evit", evit_fuse=False),
    dict(strategy="evit", keep_rate=0.3, evit_fuse=False, proportional_attention=False),
    dict(strategy="tome", tome_reduction=13),
    dict(strategy="tome", tome_reduction=40),
    dict(strategy="tome", tome_reduction=150),
)
STEP_CONFIGS = (
    dict(strategy="none"),
    dict(strategy="imagepiece", prune_layers=frozenset({0})),  # merge, then unfused prune
    dict(strategy="imagepiece", nonsemantic_proportion=0.9, merge_ratio=0.5, prune_layers=frozenset()),
    dict(strategy="imagepiece", retokenize_layers=frozenset(), prune_layers=frozenset({0})),
    dict(strategy="imagepiece", merge_ratio=0.02, prune_layers=frozenset({0})),  # zero budget
    dict(strategy="imagepiece", retokenize_layers=frozenset({1}), prune_layers=frozenset({1})),
    dict(strategy="evit", keep_rate=0.5, prune_layers=frozenset({0})),
    dict(strategy="evit", keep_rate=0.5, prune_layers=frozenset({0}), evit_fuse=False),
    dict(strategy="evit", keep_rate=1.0, prune_layers=frozenset({0})),
    dict(strategy="tome", tome_reduction=0),
    dict(strategy="tome", tome_reduction=1),
    dict(strategy="tome", tome_reduction=13),  # more pairs than any batch has
)
TOPK_Q = (0.0, 5.0, 10.0, 25.0, 33.3, 50.0, 70.0, 90.0, 100.0)
SWEEP = (
    "--proportion", "0.05,0.3,0.45",
    "--merge-ratio", "0.02,0.08,0.2",
    "--keep-rate", "0.3,0.5,1",
    "--tome-r", "0,13,40,150",
)

SPEC = {
    "model": {"depth": 3, "heads": 2, "dim": 16, "num_classes": 10, "stem": "coherence",
              "stem_base": 4},
    "reduction": {"strategy": "imagepiece", "prune_layers": [1], "merge_ratio": 0.2},
    "weights": "w.bin",
    "inputs": ["a.ppm", "b.ppm"],
    "out": "reports",
    "seed": 5,
    "labels": {"a.ppm": 1, "b.ppm": 2},
}
OVERRIDES = (
    "--seed", "9", "--weights", "w9.bin", "--input", "c.ppm", "--out", "overridden",
    "--strategy", "evit", "--keep-rate", "0.5",
)
# coherence-stem widths whose conv shapes the spec's stem_base 4 never reaches
STEM_BASES = (8, 40)
DIAG_METRICS = ("schedule", "overlap", "similarity", "inattn", "adjacency")
SPEC_SWEEP = ("--strategy", "tome", "--keep-rate", "0.5,1", "--tome-r", "0,13")
# the mistyped values of tests/test_cli.py, a non-object spec and an unknown key
BAD_SPECS = [
    {**SPEC, key: value}
    for key, value in (
        ("seed", [1]), ("seed", 1.5), ("seed", True), ("out", 5), ("weights", 5), ("inputs", 5),
        ("inputs", "x.ppm"), ("inputs", ["x.ppm", 5]), ("labels", {"img0.ppm": True}),
        ("labels", {"img0.ppm": 1.0}), ("bogus", 1),
    )
] + [[]]


def reduction_for(model: ModelConfig, overrides: dict) -> ReductionConfig:
    """The config with the default prune layers cut to the model's depth."""
    prune = frozenset(layer for layer in (3, 6, 9) if layer < model.depth)
    return ReductionConfig(**{"prune_layers": prune, **overrides})


def update(h, *items) -> None:
    for item in items:
        if isinstance(item, np.ndarray):
            h.update(f"{item.dtype}{item.shape}".encode())
            h.update(np.ascontiguousarray(item).tobytes())
        else:
            h.update(diag.canonical_json(item).encode())


def forward_case(h, weights: vit.ModelWeights, image: np.ndarray, rcfg: ReductionConfig) -> None:
    def hook(layer, batch):
        update(h, layer, batch.features, batch.owner, batch.token_ids(), batch.sizes)

    logits, run = vit.encoder_forward(vit.embed_image(image, weights), weights, rcfg, hook)
    update(
        h,
        logits,
        diag.canonical_json(run.to_dict()),
        [list(pair) for pair in diag.inattn_trail(run, rcfg.nonsemantic_proportion)],
        [diag.merged_topk_overlap(run, q) for q in TOPK_Q],
        [diag.merged_pair_similarity(run, sel) for sel in ("first", "last")],
    )


def step_cases(h) -> int:
    """Hash direct `reduce.step` calls; returns their number."""
    rng = np.random.default_rng(5)
    cfgs = [ReductionConfig(**overrides) for overrides in STEP_CONFIGS]
    calls = 0
    for n_img in range(13):
        # tokens hold scattered patches of a 4x4 grid, at least one each; the rest are pruned
        owner = np.full(16, -1, dtype=np.int64)
        held = rng.permutation(16)[: n_img + (rng.integers(0, 17 - n_img) if n_img else 0)]
        owner[held] = np.arange(len(held)) % max(n_img, 1) + 1
        features = rng.standard_normal((n_img + 1, 8)).astype(np.float32)
        batch = TokenBatch(features=features, owner=owner, grid=(4, 4))
        keys = rng.standard_normal((n_img + 1, 8)).astype(np.float32)
        for attention in (rng.random(n_img + 1), rng.integers(0, 3, n_img + 1).astype(np.float64)):
            record = reduce.AttentionRecord(
                per_head=None,
                class_attention=(attention / max(attention.sum(), 1.0)).astype(np.float32),
                keys=keys,
                heads=2,
            )
            for rcfg in cfgs:
                out, info = reduce.step(batch, record, rcfg, 0)
                update(h, out.features, out.owner, out.token_ids(), out.sizes)
                update(
                    h,
                    info.layer, info.token_count, info.token_ids, info.scores, info.pruned_size,
                    info.bottom_k, info.merged_a, info.merged_b, info.merge_similarities,
                    info.bottom_k_set, info.merged_token_ids, info.merges_executed,
                    info.mean_merge_similarity, info.n_scored,
                )
                calls += 1
    return calls


def count_cases(h) -> None:
    """Hash the count rule, `reduce.merge_count` and `reduce.tokens_after`, at
    every image-token count of a 14x14 grid and layers 0 to 12."""
    for overrides in (*CONFIGS, *STEP_CONFIGS):
        rcfg = ReductionConfig(**overrides)
        for layer in range(13):
            update(h, [
                (reduce.merge_count(rcfg, layer, n), reduce.tokens_after(rcfg, layer, n))
                for n in range(197)
            ])


def cli_call(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def cli_outcome(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def mask_eval_fault_cases(h) -> None:
    """Hash exit code, stdout and stderr of `mask-eval` over one input, over
    inputs that include a truncated PPM, and on weights shallower than the
    spec's prune layers; needs the files `spec_path_cases` writes."""
    Path("t.ppm").write_bytes(Path("a.ppm").read_bytes()[:5000])
    Path("shallow.json").write_text(json.dumps({"model": {**SPEC["model"], "depth": 1}}))
    update(h, *cli_outcome("init", "--config", "shallow.json", "--out", "shallow.bin"))
    for threads in ("2", "1"):
        with mock.patch.dict(os.environ, {diag.THREADS_ENV: threads}):
            for spec in ("spec.json", "unlabelled.json"):
                update(h, *cli_outcome("mask-eval", "--config", spec, "--input", "a.ppm"))
            inputs = ("--input", "a.ppm", "--input", "t.ppm", "--input", "b.ppm")
            update(h, *cli_outcome("mask-eval", "--config", "unlabelled.json", *inputs))
            update(h, *cli_outcome("mask-eval", "--config", "spec.json", "--weights", "shallow.bin"))


def spec_path_cases(h) -> None:
    """Hash the CLI's spec-file path, run in the current working directory."""
    for name, image in zip(("a", "b", "c"), (*IMAGES, smooth_image(seed=3))):
        write_ppm(image, f"{name}.ppm")
    Path("spec.json").write_text(json.dumps(SPEC))
    for weights, seed in (("w.bin", ()), ("w9.bin", ("--seed", "9"))):
        update(h, *cli_call("init", "--config", "spec.json", "--out", weights, *seed))
        h.update(Path(weights).read_bytes())
    for out, flags in (("reports", ()), ("overridden", OVERRIDES)):
        update(h, *cli_call("run", "--config", "spec.json", *flags))
        update(h, [(p.name, p.read_text()) for p in sorted(Path(out).iterdir())])
    for base in STEM_BASES:
        Path("stem.json").write_text(json.dumps({**SPEC, "model": {**SPEC["model"], "stem_base": base}}))
        update(h, *cli_call("init", "--config", "stem.json", "--out", "stem.bin"))
        update(h, *cli_call("run", "--config", "stem.json", "--weights", "stem.bin", "--out", "stem"))
        update(h, [(p.name, p.read_text()) for p in sorted(Path("stem").iterdir())])
    update(h, *cli_call("schedule", "--config", "spec.json", "--tome-r", "0,13,40"))
    for metric in DIAG_METRICS:
        update(h, *cli_call("diag", "--config", "spec.json", "--metric", metric))
        update(h, Path("reports", f"diag_{metric}.json").read_text())
    update(h, *cli_call("mask-eval", "--config", "spec.json"))
    update(h, Path("reports", "mask_eval.json").read_text())
    update(h, *cli_call("mask-eval", "--config", "spec.json", "--masks", "0,196"))
    update(h, Path("reports", "mask_eval.json").read_text())
    for masks in (("--masks=-1",), ("--masks", "0,300")):
        update(h, *cli_call("mask-eval", "--config", "spec.json", *masks))
    Path("unlabelled.json").write_text(json.dumps({**SPEC, "labels": {}}))
    for threads in ("2", "1"):  # fanned out, then one image after another
        with mock.patch.dict(os.environ, {diag.THREADS_ENV: threads}):
            update(h, *cli_call("run", "--config", "spec.json"))
            update(h, [(p.name, p.read_text()) for p in sorted(Path("reports").iterdir())])
            for spec in ("spec.json", "unlabelled.json"):
                update(h, *cli_call("mask-eval", "--config", spec, "--masks", "0,5,40"))
                update(h, Path("reports", "mask_eval.json").read_text())
    update(h, *cli_call("schedule", "--config", "spec.json", *SPEC_SWEEP))
    mask_eval_fault_cases(h)
    for spec in BAD_SPECS:
        Path("bad.json").write_text(json.dumps(spec))
        update(h, cli_call("run", "--config", "bad.json")[0])


def main() -> int:
    h = hashlib.sha256()
    cases = 0
    for strategy in STRATEGIES:
        update(h, *cli_call("schedule", "--strategy", strategy, *SWEEP))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            spec_path_cases(h)
        finally:
            os.chdir(cwd)
    for model in GEOMETRIES:
        rcfgs = [reduction_for(model, overrides) for overrides in CONFIGS]
        for rcfg in rcfgs:
            update(h, diag.token_schedule(model, rcfg), diag.schedule_rows(model, rcfg))
        for seed in WEIGHT_SEEDS:
            weights = vit.init_random(model, seed=seed)
            for image in IMAGES:
                for rcfg in rcfgs:
                    forward_case(h, weights, image, rcfg)
                    cases += 1
    steps = step_cases(h)
    count_cases(h)
    print(f"hashing the package at {repiece.__file__}", file=sys.stderr)
    print(f"{cases} forwards  {steps} steps  sha256 {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
