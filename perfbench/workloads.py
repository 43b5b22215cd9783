"""The benchmark's workloads: inputs from a seed, preparation, set-up and one operation.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned and been checked. Operations rotate through
ROTATION, so each strategy gets the same share of a run, and a run always ends
on a whole rotation.
"""

from __future__ import annotations

import ctypes
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repiece import cli, diag, embed, vit
from repiece.config import IMAGE_SIZE, ModelConfig, ReductionConfig

import checks

ROTATION = ("none", "imagepiece", "evit", "tome")

#: Distinct input images per run; operations cycle through them.
N_IMAGES = 8

#: Images per `cli run` call. At about 75 ms per image on two cores, eight
#: per call would leave a run of the length BENCHMARK.json fixes below the
#: 100 operations a p90 needs.
CLI_IMAGES = 2

SMALL = {"depth": 8, "heads": 4, "dim": 128, "num_classes": 100}

#: Engine functions every workload reaches; a traced run that records no call
#: of one of them fails.
_REACHED = (
    "numerics.matmul", "numerics.softmax_rows", "numerics.layer_norm", "numerics.gelu",
    "numerics.cosine_similarity_matrix", "embed.finalize_tokens", "embed.read_ppm",
    "vit.load_weights", "vit.forward_image", "vit.embed_image", "vit.encoder_forward",
    "vit.mhsa_forward", "vit.mlp_forward", "reduce.step_none", "reduce.step_imagepiece",
    "reduce.step_evit", "reduce.step_tome", "reduce.apply_merge",
    "reduce.bipartite_soft_match", "reduce.prune_keep", "diag.flops_count",
    "container.load_tensors",
)
_REACHED_CLI = (
    "numerics.conv2d", "embed.coherence_stem", "cli.main", "cli.cmd_run", "cli.read_image",
    "diag.canonical_json", "diag.max_workers", "diag.RunDiag.to_dict",
)


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is recorded in BENCHMARK.json."""

    name: str
    model: dict
    prune_layers: tuple[int, ...]
    via_cli: bool

    @property
    def images_per_op(self) -> int:
        return CLI_IMAGES if self.via_cli else 1

    @property
    def reaches(self) -> tuple[str, ...]:
        return _REACHED + (_REACHED_CLI if self.via_cli else ("embed.patchify_embed",))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("deits-single", {}, (3, 6, 9), via_cli=False),  # default ModelConfig
        Workload("small-single", SMALL, (2, 4, 6), via_cli=False),
        Workload("small-cli-batch", {**SMALL, "stem": "coherence"}, (2, 4, 6), via_cli=True),
    )
}


def prune_layers(wl: Workload, strategy: str) -> tuple[int, ...]:
    return () if strategy == "none" else wl.prune_layers


# ---------------------------------------------------------------------------
# inputs


def make_image(rng: np.random.Generator) -> np.ndarray:
    """A [H x W x 3] uint8 image: coarse colour blocks, a ramp and pixel noise."""
    cells = IMAGE_SIZE // 28
    blocks = rng.random((cells, cells, 3)).repeat(28, axis=0).repeat(28, axis=1)
    ramp = np.linspace(0.0, 1.0, IMAGE_SIZE)[None, :, None] * rng.uniform(-1.0, 1.0, size=3)
    noise = rng.random((IMAGE_SIZE, IMAGE_SIZE, 3))
    pixels = 0.6 * blocks + 0.25 * (ramp - ramp.min()) + 0.15 * noise
    return np.clip(np.rint(pixels * 255.0), 0, 255).astype(np.uint8)


def write_ppm(path: Path, pixels: np.ndarray) -> None:
    h, w, _ = pixels.shape
    path.write_bytes(f"P6\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes())


def prepare(work: str, name: str, seed: int) -> None:
    """Write the run's weights, images and cli specs into work.

    Runs in a child process, so the measured process never holds the
    initialization temporaries and its peak RSS is the engine's own.
    """
    wl, work = WORKLOADS[name], Path(work)
    weight_seed, image_seed = np.random.SeedSequence([seed, 0x5EED]).generate_state(2)
    weights = vit.init_random(ModelConfig(**wl.model), int(weight_seed))
    vit.save_weights(weights, work / "weights.bin")
    rng = np.random.default_rng(int(image_seed))
    for i in range(N_IMAGES):
        write_ppm(work / f"img_{i:02d}.ppm", make_image(rng))
    for strategy in ROTATION:
        spec = {"reduction": {"prune_layers": list(prune_layers(wl, strategy))}}
        (work / f"spec_{strategy}.json").write_text(json.dumps(spec), encoding="utf-8")


# ---------------------------------------------------------------------------
# set-up and operations


def _release_free_memory() -> None:
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except AttributeError:  # not glibc: nothing to hand back this way
        pass


@dataclass
class Output:
    seconds: float
    failures: list[str]
    value: object  # compared bit for bit by the verify pass


class Bench:
    """One workload's prepared inputs, loaded engine state and operation."""

    def __init__(self, wl: Workload, work: Path) -> None:
        self.wl, self.work = wl, work
        self.cfg = ModelConfig(**wl.model)
        self.rcfgs = {
            s: ReductionConfig(strategy=s, prune_layers=frozenset(prune_layers(wl, s)))
            for s in ROTATION
        }
        self.schedules = {s: diag.token_schedule(self.cfg, r) for s, r in self.rcfgs.items()}
        self.gflops = {
            s: diag.flops_count(self.cfg, self.schedules[s]) / 1e9 for s in ROTATION
        }
        self.image_paths = [work / f"img_{i:02d}.ppm" for i in range(N_IMAGES)]
        self.out = work / "out"
        self.weights = None
        self.images: list[np.ndarray] = []

    def setup(self) -> float:
        """Load the weights and decode every input; returns the seconds taken.

        The previous state is dropped and the allocator's free memory handed
        back first, so every set-up faults its pages in as a fresh process
        does. Whether freed weights were reused otherwise depended on heap
        layout: DeiT-S set-up read either about 155 ms or about 210 ms, by run
        (2 vCPUs, numpy 2.4).
        """
        self.weights, self.images = None, []
        _release_free_memory()
        start = time.perf_counter()
        self.weights = vit.load_weights(self.work / "weights.bin")
        self.images = [embed.read_ppm(p) for p in self.image_paths]
        return time.perf_counter() - start

    def inputs(self, k: int) -> list[int]:
        """Indices of operation k's input images; one rotation shares its inputs."""
        first = (k // len(ROTATION)) * self.wl.images_per_op
        return [(first + j) % N_IMAGES for j in range(self.wl.images_per_op)]

    def run_op(self, strategy: str, k: int) -> Output:
        if self.wl.via_cli:
            return self._run_cli(strategy, k)
        image = self.images[self.inputs(k)[0]]
        start = time.perf_counter()
        logits, run = vit.forward_image(image, self.weights, self.rcfgs[strategy])
        seconds = time.perf_counter() - start
        failures = checks.check_logits(logits, self.cfg.num_classes)
        failures += checks.check_schedule(run.token_counts(), self.schedules[strategy])
        return Output(seconds, failures, np.asarray(logits).tobytes())

    def _run_cli(self, strategy: str, k: int) -> Output:
        inputs = [self.image_paths[i] for i in self.inputs(k)]
        for path in inputs:  # a stale report must not pass for a new one
            (self.out / f"{path.stem}.run.json").unlink(missing_ok=True)
        argv = ["run", "--config", str(self.work / f"spec_{strategy}.json")]
        argv += ["--weights", str(self.work / "weights.bin")]
        for path in inputs:
            argv += ["--input", str(path)]
        argv += ["--out", str(self.out), "--strategy", strategy]
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
        failures = checks.check_cli_reports(
            code, self.out, inputs, self.cfg.num_classes, self.schedules[strategy]
        )
        reports = [
            (self.out / f"{p.stem}.run.json").read_bytes() for p in inputs if not failures
        ]
        return Output(seconds, failures, reports)

    def reference_failures(self, out: Output) -> list[str]:
        """Compare a `none` output for the inputs of operation 0 with the float64 forward."""
        if self.wl.via_cli:
            logits = json.loads(out.value[0])["logits"]
        else:
            logits = np.frombuffer(out.value, dtype=np.float32)
        image = self.images[self.inputs(0)[0]]
        return checks.check_reference(logits, checks.reference_logits(self.weights, image))


def _attempt(bench: Bench, strategy: str, k: int) -> Output:
    """Run one operation; an exception is a failed operation, reported on stderr."""
    try:
        return bench.run_op(strategy, k)
    except Exception:  # the loop must keep running and count the failure
        return Output(0.0, [traceback.format_exc()], None)


def verify(bench: Bench) -> tuple[int, list[str]]:
    """Untimed checks: repeated operations on one input are bit-identical, and
    `none` matches the float64 reference. Returns (checks attempted, one
    message per failed check)."""
    failed: list[str] = []
    for strategy in ROTATION:
        first, again = _attempt(bench, strategy, 0), _attempt(bench, strategy, 0)
        problems = first.failures + again.failures
        if not problems and first.value != again.value:
            problems.append("repeated operations differ")
        if problems:
            failed.append(f"{strategy}: {problems}")
        if strategy == "none":
            problems = ["no output"] if first.failures else bench.reference_failures(first)
            if problems:
                failed.append(f"reference: {problems}")
    return len(ROTATION) + 1, failed


@dataclass
class LoopResult:
    latencies: dict[str, list[float]] = field(default_factory=lambda: {s: [] for s in ROTATION})
    attempted: int = 0
    failed: int = 0
    rotation_seconds: list[float] = field(default_factory=list)
    setup_seconds: list[float] = field(default_factory=list)
    strategy_of: dict[int, str] = field(default_factory=dict)


def rotation(bench: Bench, result: LoopResult, k: int, on_op=None) -> None:
    """Run operations k .. k+3, one per strategy, timing and checking each.

    on_op(k, strategy), when given, is called before operation k starts.
    Latencies are kept for operations that passed every check.
    """
    total = 0.0
    for strategy in ROTATION:
        if on_op is not None:
            on_op(k, strategy)
        out = _attempt(bench, strategy, k)
        result.strategy_of[k] = strategy
        result.attempted += 1
        total += out.seconds
        if out.failures:
            result.failed += 1
            print(f"operation {k} ({strategy}) failed: {out.failures}", file=sys.stderr)
        else:
            result.latencies[strategy].append(out.seconds)
        k += 1
    result.rotation_seconds.append(total)


def closed_loop(bench: Bench, seconds: float, setups: int = 0) -> LoopResult:
    """Run whole rotations until `seconds` have passed.

    About `setups` set-ups are interleaved between rotations, evenly over the
    run, so that set-up time is sampled under the same machine load as the
    operations. On a shared 2-vCPU host, speed swings by tens of percent within
    seconds, and set-ups taken back to back would all land in one swing.
    """
    result = LoopResult()
    start = time.perf_counter()
    k = 0
    while True:
        if len(result.setup_seconds) < setups * (time.perf_counter() - start) / seconds:
            result.setup_seconds.append(bench.setup())
        rotation(bench, result, k)
        k += len(ROTATION)
        if time.perf_counter() - start >= seconds:
            return result


if __name__ == "__main__":  # python3 perfbench/workloads.py WORK_DIR WORKLOAD SEED
    prepare(sys.argv[1], sys.argv[2], int(sys.argv[3]))
