"""Command-line front end.

Subcommands: run (inference + diagnostics reports), schedule (token/FLOPs
sweep as CSV), bench (throughput), diag (single metric), mask-eval (accuracy
under random masking), init (write random weights). `run`, `mask-eval` and
`diag`'s forward metrics share `_forward_spec`, which checks the spec, the flags
and the command's own rules before any file is read. `run`, `mask-eval` and
`bench` share `_fan_out`, which runs their images on every usable core at once,
with numpy's OpenBLAS held to one thread meanwhile, and one after another where
that BLAS cannot be held (`diag.max_workers`). `mask-eval` is one pass of one
job per input: the job decodes its input, takes its self-label when the spec
has no labels and runs every mask count, so memory is bounded by the workers.
An undecodable input fails when its job runs, and where jobs fail for
different reasons the lowest failing job's error wins. The harnesses `bench`
and `mask_eval` can be called as library functions.

A run specification is a JSON document whose keys are the fields of
`config.RunSpec` ("model", "reduction", "weights", "inputs", "out", "seed",
"labels"); flags override the keys they name and pass the same checks. The
numeric reduction flags, spelled once in `_REDUCTION_FLAGS`, take a comma list
that `schedule` sweeps and the other commands take as one value. A bad flag
value or an unparsable spec file is a configuration error naming it. Exit codes:
0 success, 2 configuration, 3 I/O, 4 numeric failure; SIGPIPE on a closed stdout.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import signal
import statistics
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from . import diag, embed, numerics, vit
from .config import (
    IMAGE_SIZE,
    MASK_SIZE,
    STRATEGIES,
    ModelConfig,
    ReductionConfig,
    RunSpec,
    run_spec_from_dict,
)
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
_MASK_CELLS = (IMAGE_SIZE // MASK_SIZE) ** 2


#: The numeric reduction flags in the column order of `schedule`'s CSV: each
#: flag, the `ReductionConfig` field it sets and the type of its values.
_REDUCTION_FLAGS = (
    ("--proportion", "nonsemantic_proportion", float),
    ("--merge-ratio", "merge_ratio", float),
    ("--keep-rate", "keep_rate", float),
    ("--tome-r", "tome_reduction", int),
)


def _values(text: str, flag: str, kind: type) -> list:
    """A flag's comma-separated values; an empty or malformed one is an error naming the flag."""
    try:
        return [kind(tok) for tok in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} takes comma-separated {kind.__name__}s, got {text!r}") from None


def _spec_file(path: str) -> RunSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return run_spec_from_dict(json.load(fh))
    except (ValueError, RecursionError) as exc:  # name the file, as every spec-file error does
        raise ConfigError(f"{path}: {exc}") from None


def load_specs(args: argparse.Namespace) -> Iterator[RunSpec]:
    """The spec file (or the defaults) with each given flag overriding its key: one
    spec per combination of the numeric flags' values, built lazily once every
    value has been checked."""
    spec = _spec_file(args.config) if args.config else RunSpec()
    given = {"weights": args.weights, "inputs": args.input, "out": args.out, "seed": args.seed}
    spec = replace(spec, **{key: value for key, value in given.items() if value is not None})
    red = spec.reduction if args.strategy is None else replace(spec.reduction, strategy=args.strategy)
    sweeps: dict[str, list] = {}
    for flag, name, kind in _REDUCTION_FLAGS:
        text = getattr(args, name)
        if text is not None:
            sweeps[name] = _values(text, flag, kind)
            for value in sweeps[name]:  # the ranges are independent: this covers every combination
                replace(red, **{name: value})
    return (
        replace(spec, reduction=replace(red, **dict(zip(sweeps, combo))))
        for combo in itertools.product(*sweeps.values())
    )


def load_spec(args: argparse.Namespace) -> RunSpec:
    """The one spec of `load_specs` for a command that takes one value per numeric flag."""
    for flag, name, _ in _REDUCTION_FLAGS:
        text = getattr(args, name)
        if text is not None and "," in text:
            raise ConfigError(f"{flag} takes a single value here, got {text!r}")
    return next(load_specs(args))


def _forward_spec(
    args: argparse.Namespace, check: Callable[[RunSpec, list[str]], None] = lambda *_: None
) -> tuple[RunSpec, vit.ModelWeights, list[str]]:
    """The spec of a command that runs forwards, its weights and its sorted inputs;
    `check(spec, paths)` raises the command's own errors before any file is read."""
    spec = load_spec(args)
    if not spec.weights:
        raise ConfigError(f"{args.command} needs a weights file (--weights or spec key 'weights')")
    if not spec.inputs:
        raise ConfigError(f"{args.command} needs an input image (--input or spec key 'inputs')")
    paths = sorted(spec.inputs)
    check(spec, paths)
    return spec, vit.load_weights(spec.weights), paths


def _fan_out(fn: Callable, jobs: Sequence) -> list:
    """`fn` of each job, in job order, on `diag.max_workers(len(jobs))` workers.

    One worker is a plain loop. More are the calling thread and helper threads,
    each taking the next job index, with numpy's OpenBLAS held to one thread
    meanwhile. After a failure no job is handed out; once the helpers have
    stopped, the error of the lowest failing job is raised, the one a loop
    would have raised, since every job before it was handed out and ran.
    """
    workers = diag.max_workers(len(jobs))
    if workers == 1:
        return [fn(job) for job in jobs]
    results: list = [None] * len(jobs)
    errors: dict[int, BaseException] = {}
    indices = iter(range(len(jobs)))  # next() is one call into C: no index goes out twice

    def work() -> None:
        while not errors:
            i = next(indices, None)
            if i is None:
                return
            try:
                results[i] = fn(jobs[i])
            except BaseException as exc:  # re-raised on the calling thread
                errors[i] = exc

    # the calling thread works too: each helper thread costs a malloc arena
    with numerics._one_blas_thread():
        helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
        for helper in helpers:
            helper.start()
        try:
            work()
        finally:
            for helper in helpers:
                helper.join()
    if errors:
        raise errors[min(errors)]
    return results


def read_image(path: str) -> np.ndarray:
    """Load an input image, a binary P6 PPM, as a [3,H,W] float32 array in [0, 1]."""
    return embed.read_ppm(path)


def _write_or_print(text: str, out_dir: str | None, filename: str) -> None:
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        Path(out_dir, filename).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _check_unique(paths: list[str], key: Callable[[str], str], clash: str) -> None:
    seen: dict[str, str] = {}
    for path in paths:
        name = key(path)
        if name in seen:
            raise ConfigError(f"inputs {seen[name]} and {path} would both {clash} {name}")
        seen[name] = path


def _check_stems(spec: RunSpec, paths: list[str]) -> None:  # one report per stem
    _check_unique(paths, lambda path: Path(path).stem, "report as")


def cmd_run(args: argparse.Namespace) -> int:
    spec, weights, paths = _forward_spec(args, _check_stems)

    def one(path: str) -> dict:
        logits, run = vit.forward_image(read_image(path), weights, spec.reduction)
        return {
            "input": os.path.basename(path),
            "prediction": int(np.argmax(logits)),
            "logits": [float(v) for v in logits],
            "diag": run.to_dict(),
        }

    for path, report in zip(paths, _fan_out(one, paths)):
        _write_or_print(diag.canonical_json(report), spec.out, Path(path).stem + ".run.json")
    return EXIT_OK


def _schedule_model(spec: RunSpec) -> ModelConfig:
    """The model a schedule counts: the named weights file's own, else the spec's."""
    return vit.load_weights(spec.weights).config if spec.weights else spec.model


def cmd_schedule(args: argparse.Namespace) -> int:
    specs = load_specs(args)  # every swept value is checked before the header goes out
    first = next(specs)
    model = _schedule_model(first)  # the weights file is never swept
    first.reduction.validate_depth(model.depth)  # and so are the layer sets, never swept
    columns = [flag[2:].replace("-", "_") for flag, _, _ in _REDUCTION_FLAGS]
    print(",".join(["strategy", *columns, "layer", "tokens", "flops_cum"]))
    for spec in itertools.chain([first], specs):
        red = spec.reduction
        knobs = ",".join(str(getattr(red, name)) for _, name, _ in _REDUCTION_FLAGS)
        for layer, tokens, flops_cum in diag.schedule_rows(model, red):
            print(f"{red.strategy},{knobs},{layer},{tokens},{flops_cum}")
    return EXIT_OK


def bench(
    weights: vit.ModelWeights,
    rcfg: ReductionConfig,
    batch_size: int,
    iterations: int,
    seed: int = 0,
) -> dict:
    """Median wall-clock throughput over synthetic inputs, plus the analytic
    schedule and FLOPs of the weights' own model under the same reduction.

    The batch, and the warm-up on its first two images, go through
    `_fan_out` as `run`'s inputs do, so the figure is `run`'s forward path on
    `diag.max_workers(batch_size)` workers.
    """
    if batch_size < 1 or iterations < 1:
        raise RangeError("batch_size and iterations must be positive")
    cfg = weights.config
    side = cfg.grid_side * cfg.patch_size
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xBE)))
    images = [rng.random((3, side, side)).astype(np.float32) for _ in range(batch_size)]

    def forward(image: np.ndarray) -> None:
        vit.forward_image(image, weights, rcfg)

    _fan_out(forward, images[:2])  # warm-up
    times = []
    for _ in range(iterations):
        start = time.perf_counter()
        _fan_out(forward, images)
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


def cmd_diag(args: argparse.Namespace) -> int:
    metric = args.metric
    if metric == "schedule":
        spec = load_spec(args)
        rows = diag.schedule_rows(_schedule_model(spec), spec.reduction)
        report = {"rows": [{"layer": l, "tokens": t, "flops_cum": f} for l, t, f in rows]}
    else:
        spec, weights, paths = _forward_spec(args)
        image = read_image(paths[0])
        run = None if metric == "adjacency" else vit.forward_image(image, weights, spec.reduction)[1]
    if metric == "overlap":
        q = 100.0 * (1.0 - spec.reduction.nonsemantic_proportion)
        report = {"q_percent": q, "value": diag.merged_topk_overlap(run, q)}
    elif metric == "similarity":
        report = {sel: diag.merged_pair_similarity(run, sel) for sel in ("first", "last")}
    elif metric == "inattn":
        trail = diag.inattn_trail(run, spec.reduction.nonsemantic_proportion)
        report = {"trail": [{"layer": layer, "ratio": ratio} for layer, ratio in trail]}
    elif metric == "adjacency":
        tokens = vit.stem_tokens(image, weights)
        report = {"stem": weights.config.stem, "value": diag.adjacency_similarity(tokens)}
    report["metric"] = metric
    _write_or_print(diag.canonical_json(report), spec.out, f"diag_{metric}.json")
    return EXIT_OK


def _top1(
    image: np.ndarray, weights: vit.ModelWeights, reduction: ReductionConfig = ReductionConfig()
) -> int:
    return int(np.argmax(vit.forward_image(image, weights, reduction)[0]))


def _check_mask_counts(k_list: Sequence[int], what: str) -> None:
    for k in k_list:
        if not 0 <= k <= _MASK_CELLS:
            raise RangeError(f"{what} {k} outside [0, {_MASK_CELLS}]")


def mask_eval(
    weights: vit.ModelWeights,
    images: Sequence[np.ndarray],
    labels: Sequence[int] | None,
    k_list: Sequence[int],
    seed: int,
    reduction: ReductionConfig = ReductionConfig(),
) -> list[dict]:
    """Top-1 accuracy under k random patch masks, one row per k.

    One `_fan_out` job per image reads `images[i]` (a sequence that decodes
    on indexing decodes on the worker), scores it against `labels[i]`, or
    against its own unmasked top-1 under `reduction` when `labels` is None,
    and runs every mask count. Mask placement for image i at mask count k
    derives from (seed, k, i), so every (k, image) cell is reproducible
    independently of evaluation order. Each k must lie in [0, 196], the cells
    of the 224-pixel image's mask grid.
    """
    if labels is not None and len(images) != len(labels):
        raise DimensionError(f"{len(images)} images vs {len(labels)} labels")
    if not images:
        raise DegenerateInputError("empty image set")
    _check_mask_counts(k_list, "mask count")
    n = len(images)

    def job(idx: int) -> list[bool]:  # image idx's hit at each mask count
        image = images[idx]
        label = _top1(image, weights, reduction) if labels is None else int(labels[idx])
        row = []
        for k in k_list:
            mask_seed = int(np.random.SeedSequence((seed, k, idx)).generate_state(1)[0])
            masked = embed.apply_random_masks(image, k, mask_seed)
            row.append(_top1(masked, weights, reduction) == label)
        return row

    hits = [sum(col) for col in zip(*_fan_out(job, range(n)))]
    return [{"k": int(k), "correct": c, "total": n, "accuracy": c / n} for k, c in zip(k_list, hits)]


class _Decoding(Sequence):
    """The images at `paths`, each decoded by `read_image` when indexed."""

    def __init__(self, paths: list[str]) -> None:
        self.paths = paths

    def __len__(self) -> int:
        return len(self.paths)

    def __getitem__(self, idx: int) -> np.ndarray:
        return read_image(self.paths[idx])


def _check_labels(spec: RunSpec, paths: list[str]) -> None:
    if spec.labels:  # keyed by base name, so inputs sharing one would share its label
        _check_unique(paths, os.path.basename, "take the label of")
    missing = [name for name in map(os.path.basename, paths) if name not in spec.labels]
    if spec.labels and missing:
        raise ConfigError(f"labels has no entry for input(s) {', '.join(missing)}")


def cmd_mask_eval(args: argparse.Namespace) -> int:
    k_list = _values(_DEFAULT_MASKS if args.masks is None else args.masks, "--masks", int)
    _check_mask_counts(k_list, "--masks count")
    spec, weights, paths = _forward_spec(args, _check_labels)
    # no labels: score stability against the model's own unmasked predictions
    labels = [spec.labels[os.path.basename(p)] for p in paths] if spec.labels else None
    rows = mask_eval(weights, _Decoding(paths), labels, k_list, spec.seed, spec.reduction)
    print("k,correct,total,accuracy")
    print("\n".join(f"{r['k']},{r['correct']},{r['total']},{r['accuracy']}" for r in rows))
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
    for flag, name, kind in _REDUCTION_FLAGS:
        common.add_argument(
            flag, dest=name, metavar=kind.__name__.upper(),
            help=f"reduction {name}; schedule sweeps a comma-separated list",
        )

    parser = argparse.ArgumentParser(
        prog="repiece", description="token-reduction ViT inference engine"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("run", parents=[common], help="classify inputs, write reports")
    sub.add_parser("schedule", parents=[common], help="token/FLOPs sweep as CSV")
    p = sub.add_parser("bench", parents=[common], help="wall-clock throughput")
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--iters", type=int, default=20)
    p = sub.add_parser("diag", parents=[common], help="compute one diagnostic metric")
    p.add_argument(
        "--metric",
        choices=("schedule", "overlap", "similarity", "inattn", "adjacency"),
        default="schedule",
    )
    p = sub.add_parser("mask-eval", parents=[common], help="accuracy under random masks")
    p.add_argument("--masks", help=f"comma-separated mask counts (default {_DEFAULT_MASKS})")
    sub.add_parser("init", parents=[common], help="write random weights for a config")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: building one costs more than ten parses."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        # looked up per call, so a cmd_* wrapped after the parser was built still runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
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
