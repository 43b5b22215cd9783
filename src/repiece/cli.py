"""Command-line front end.

Subcommands: run (inference + diagnostics reports), schedule (token/FLOPs
sweep as CSV), bench (throughput), diag (single metric), mask-eval (accuracy
under random masking), init (write random weights). The two harnesses that
drive forwards for a command, `bench` and `mask_eval`, live here too and can
be called as library functions.

A run specification is a JSON document whose keys are the fields of
`config.RunSpec` ("model", "reduction", "weights", "inputs", "out", "seed",
"labels"); flags override the keys they name and pass the same checks. Exit codes:
0 success, 2 configuration, 3 I/O, 4 numeric failure; SIGPIPE on a closed stdout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import signal
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import diag, embed, vit
from .config import STRATEGIES, ReductionConfig, RunSpec, run_spec_from_dict
from .errors import (
    ConfigError,
    DegenerateInputError,
    DimensionError,
    FormatError,
    NumericError,
    RangeError,
    RepieceError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

_DEFAULT_MASKS = "7,10,15,20,25,50"


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _single(values: list, flag: str) -> float:
    if len(values) != 1:
        raise ConfigError(f"{flag} takes a single value here, got {values}")
    return values[0]


def load_spec(args: argparse.Namespace) -> RunSpec:
    """The spec file (or the defaults), with each flag that is given overriding its key."""
    spec = RunSpec()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        try:
            spec = run_spec_from_dict(raw)
        except ConfigError as exc:  # name the file, as every spec-file error does
            raise ConfigError(f"{args.config}: {exc}") from None

    reduction: dict = {}
    if args.strategy:
        reduction["strategy"] = args.strategy
    if args.proportion:
        reduction["nonsemantic_proportion"] = _single(_float_list(args.proportion), "--proportion")
    if args.merge_ratio:
        reduction["merge_ratio"] = _single(_float_list(args.merge_ratio), "--merge-ratio")
    if args.keep_rate:
        reduction["keep_rate"] = _single(_float_list(args.keep_rate), "--keep-rate")
    if args.tome_r:
        reduction["tome_reduction"] = _single(_int_list(args.tome_r), "--tome-r")
    given = {"weights": args.weights, "inputs": args.input, "out": args.out}
    overrides = {key: value for key, value in given.items() if value}
    if args.seed is not None:
        overrides["seed"] = args.seed
    return replace(spec, reduction=replace(spec.reduction, **reduction), **overrides)


def read_image(path: str) -> np.ndarray:
    """Load an input image, a binary P6 PPM, as a [3,H,W] float32 array in [0, 1]."""
    return embed.read_ppm(path)


def _write_or_print(text: str, out_dir: str | None, filename: str) -> None:
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        Path(out_dir, filename).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec(args)
    if not spec.weights:
        raise ConfigError("run needs a weights file (--weights or spec key 'weights')")
    if not spec.inputs:
        raise ConfigError("run needs at least one input image (--input or spec key 'inputs')")
    paths = sorted(spec.inputs)
    by_stem: dict[str, str] = {}
    for path in paths:  # one report per stem: a second would overwrite the first
        stem = Path(path).stem
        if stem in by_stem:
            raise ConfigError(f"inputs {by_stem[stem]} and {path} would both report as {stem}")
        by_stem[stem] = path
    weights = vit.load_weights(spec.weights)

    def one(path: str) -> dict:
        logits, run = vit.forward_image(read_image(path), weights, spec.reduction)
        return {
            "input": os.path.basename(path),
            "prediction": int(np.argmax(logits)),
            "logits": [float(v) for v in logits],
            "diag": run.to_dict(),
        }

    with ThreadPoolExecutor(max_workers=diag.max_workers(len(paths))) as pool:
        reports = list(pool.map(one, paths))
    for path, report in zip(paths, reports):
        _write_or_print(diag.canonical_json(report), spec.out, Path(path).stem + ".run.json")
    return EXIT_OK


def cmd_schedule(args: argparse.Namespace) -> int:
    # the sweep flags hold lists here; resolve the base spec without them
    base = argparse.Namespace(
        **{**vars(args), "keep_rate": None, "merge_ratio": None, "proportion": None, "tome_r": None}
    )
    spec = load_spec(base)
    red = spec.reduction
    keeps = _float_list(args.keep_rate) if args.keep_rate else [red.keep_rate]
    merges = _float_list(args.merge_ratio) if args.merge_ratio else [red.merge_ratio]
    props = _float_list(args.proportion) if args.proportion else [red.nonsemantic_proportion]
    tomes = _int_list(args.tome_r) if args.tome_r else [red.tome_reduction]
    print("strategy,proportion,merge_ratio,keep_rate,tome_r,layer,tokens,flops_cum")
    for prop, merge, keep, tome_r in itertools.product(props, merges, keeps, tomes):
        cfg = replace(
            red, nonsemantic_proportion=prop, merge_ratio=merge, keep_rate=keep,
            tome_reduction=tome_r,
        )
        for layer, tokens, flops_cum in diag.schedule_rows(spec.model, cfg):
            print(f"{cfg.strategy},{prop},{merge},{keep},{tome_r},{layer},{tokens},{flops_cum}")
    return EXIT_OK


def bench(
    weights: vit.ModelWeights,
    rcfg: ReductionConfig,
    batch_size: int,
    iterations: int,
    seed: int = 0,
) -> dict:
    """Median wall-clock throughput over synthetic inputs, plus the analytic
    schedule and FLOPs of the weights' own model under the same reduction."""
    if batch_size < 1 or iterations < 1:
        raise RangeError("batch_size and iterations must be positive")
    cfg = weights.config
    side = cfg.grid_side * cfg.patch_size
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xBE)))
    images = [rng.random((3, side, side)).astype(np.float32) for _ in range(batch_size)]

    for image in images[: min(2, batch_size)]:  # warmup
        vit.forward_image(image, weights, rcfg)
    times = []
    for _ in range(iterations):
        start = time.perf_counter()
        for image in images:
            vit.forward_image(image, weights, rcfg)
        times.append(time.perf_counter() - start)
    median = statistics.median(times)
    schedule = diag.token_schedule(cfg, rcfg)
    return {
        "images_per_second": batch_size / median,
        "median_seconds": median,
        "flops": diag.flops_count(cfg, schedule),
        "schedule": schedule,
        "batch_size": batch_size,
        "iterations": iterations,
    }


def cmd_bench(args: argparse.Namespace) -> int:
    spec = load_spec(args)
    if spec.weights:
        weights = vit.load_weights(spec.weights)
    else:
        weights = vit.init_random(spec.model, spec.seed)
    result = bench(weights, spec.reduction, args.batch, args.iters, seed=spec.seed)
    _write_or_print(diag.canonical_json(result), spec.out, "bench.json")
    return EXIT_OK


def _first_run(spec: RunSpec) -> diag.RunDiag:
    if not spec.weights:
        raise ConfigError("this metric needs a weights file")
    if not spec.inputs:
        raise ConfigError("this metric needs an input image")
    weights = vit.load_weights(spec.weights)
    _, run = vit.forward_image(read_image(sorted(spec.inputs)[0]), weights, spec.reduction)
    return run


def cmd_diag(args: argparse.Namespace) -> int:
    spec = load_spec(args)
    metric = args.metric
    if metric == "schedule":
        rows = diag.schedule_rows(spec.model, spec.reduction)
        report = {
            "metric": metric,
            "rows": [{"layer": l, "tokens": t, "flops_cum": f} for l, t, f in rows],
        }
    elif metric == "overlap":
        run = _first_run(spec)
        q = 100.0 * (1.0 - spec.reduction.nonsemantic_proportion)
        report = {"metric": metric, "q_percent": q, "value": diag.merged_topk_overlap(run, q)}
    elif metric == "similarity":
        run = _first_run(spec)
        report = {
            "metric": metric,
            "first": diag.merged_pair_similarity(run, "first"),
            "last": diag.merged_pair_similarity(run, "last"),
        }
    elif metric == "inattn":
        run = _first_run(spec)
        trail = diag.inattn_trail(run, spec.reduction.nonsemantic_proportion)
        report = {
            "metric": metric,
            "trail": [{"layer": layer, "ratio": ratio} for layer, ratio in trail],
        }
    else:  # adjacency
        if not spec.weights or not spec.inputs:
            raise ConfigError("adjacency needs a weights file and an input image")
        weights = vit.load_weights(spec.weights)
        value = diag.adjacency_similarity(
            vit.stem_tokens(read_image(sorted(spec.inputs)[0]), weights)
        )
        report = {"metric": metric, "stem": weights.config.stem, "value": value}
    _write_or_print(diag.canonical_json(report), spec.out, f"diag_{metric}.json")
    return EXIT_OK


def mask_eval(
    weights: vit.ModelWeights,
    images: Sequence[np.ndarray],
    labels: Sequence[int],
    k_list: Sequence[int],
    seed: int,
    reduction: ReductionConfig | None = None,
) -> list[dict]:
    """Top-1 accuracy under k random patch masks, one row per k.

    Mask placement for image i at mask count k derives from (seed, k, i), so
    every (k, image) cell is reproducible independently of evaluation order.
    """
    if len(images) != len(labels):
        raise DimensionError(f"{len(images)} images vs {len(labels)} labels")
    if not images:
        raise DegenerateInputError("empty image set")

    def predict(args) -> int:
        k, idx, image = args
        mask_seed = int(np.random.SeedSequence((seed, k, idx)).generate_state(1)[0])
        masked = embed.apply_random_masks(image, k, mask_seed)
        logits, _ = vit.forward_image(masked, weights, reduction)
        return int(np.argmax(logits))

    rows = []
    with ThreadPoolExecutor(max_workers=diag.max_workers(len(images))) as pool:
        for k in k_list:
            jobs = [(k, i, img) for i, img in enumerate(images)]
            preds = list(pool.map(predict, jobs))
            correct = sum(1 for pred, label in zip(preds, labels) if pred == int(label))
            n = len(images)
            rows.append({"k": int(k), "correct": correct, "total": n, "accuracy": correct / n})
    return rows


def cmd_mask_eval(args: argparse.Namespace) -> int:
    spec = load_spec(args)
    if not spec.weights:
        raise ConfigError("mask-eval needs a weights file")
    if not spec.inputs:
        raise ConfigError("mask-eval needs input images")
    k_list = _int_list(args.masks if args.masks else _DEFAULT_MASKS)
    weights = vit.load_weights(spec.weights)
    paths = sorted(spec.inputs)
    images = [read_image(p) for p in paths]
    names = [os.path.basename(p) for p in paths]
    if all(name in spec.labels for name in names):
        labels = [spec.labels[name] for name in names]
    else:
        # no labels given: score stability against the model's own unmasked predictions
        labels = [
            int(np.argmax(vit.forward_image(img, weights, spec.reduction)[0])) for img in images
        ]
    rows = mask_eval(weights, images, labels, k_list, spec.seed, spec.reduction)
    lines = ["k,correct,total,accuracy"]
    lines += [f"{r['k']},{r['correct']},{r['total']},{r['accuracy']}" for r in rows]
    print("\n".join(lines))
    if spec.out:
        _write_or_print(diag.canonical_json({"rows": rows}), spec.out, "mask_eval.json")
    return EXIT_OK


def cmd_init(args: argparse.Namespace) -> int:
    if not args.out:
        raise ConfigError("init needs --out for the weights file")
    spec = load_spec(args)
    weights = vit.init_random(spec.model, spec.seed)
    vit.save_weights(weights, args.out)
    tensors = len(vit.weights_schema(spec.model))
    print(diag.canonical_json({"out": str(args.out), "seed": spec.seed, "tensors": tensors}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="run-spec JSON file")
    common.add_argument("--weights", help="weights container file")
    common.add_argument("--input", action="append", help="input image (repeatable)")
    common.add_argument("--out", help="output directory (default: stdout)")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--strategy", choices=STRATEGIES)
    common.add_argument("--keep-rate", dest="keep_rate")
    common.add_argument("--merge-ratio", dest="merge_ratio")
    common.add_argument("--proportion", help="non-semantic proportion p")
    common.add_argument("--tome-r", dest="tome_r")

    parser = argparse.ArgumentParser(
        prog="repiece", description="token-reduction ViT inference engine"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", parents=[common], help="classify inputs, write reports")
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("schedule", parents=[common], help="token/FLOPs sweep as CSV")
    p.set_defaults(func=cmd_schedule)
    p = sub.add_parser("bench", parents=[common], help="wall-clock throughput")
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--iters", type=int, default=20)
    p.set_defaults(func=cmd_bench)
    p = sub.add_parser("diag", parents=[common], help="compute one diagnostic metric")
    p.add_argument(
        "--metric",
        choices=("schedule", "overlap", "similarity", "inattn", "adjacency"),
        default="schedule",
    )
    p.set_defaults(func=cmd_diag)
    p = sub.add_parser("mask-eval", parents=[common], help="accuracy under random masks")
    p.add_argument("--masks", help=f"comma-separated mask counts (default {_DEFAULT_MASKS})")
    p.set_defaults(func=cmd_mask_eval)
    p = sub.add_parser("init", parents=[common], help="write random weights for a config")
    p.set_defaults(func=cmd_init)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except NumericError as exc:
        print(f"repiece: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FormatError as exc:
        print(f"repiece: bad file: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"repiece: {exc}", file=sys.stderr)
        return EXIT_IO
    except (RepieceError, ValueError) as exc:
        print(f"repiece: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # a closed stdout ends the process, as for cat
    sys.exit(main())


if __name__ == "__main__":
    entry()
