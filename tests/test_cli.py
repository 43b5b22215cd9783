import collections
import json
import os
import signal
import struct
import subprocess
import sys
import threading
import time
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repiece import cli, container, diag, numerics, vit
from repiece.config import ModelConfig, ReductionConfig
from repiece.diag import token_schedule
from repiece.embed import write_ppm
from repiece.errors import FormatError, NumericError


MODEL = {"depth": 4, "heads": 2, "dim": 16, "num_classes": 10}
REDUCTION = {"strategy": "imagepiece", "prune_layers": [1, 3]}


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with a spec file, initialized weights and two PPM inputs."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(7)
    images = []
    for i in range(2):
        path = root / f"img{i}.ppm"
        write_ppm(rng.random((3, 224, 224)).astype(np.float32), path)
        images.append(str(path))
    weights_path = root / "weights.bin"
    spec = {
        "model": MODEL,
        "reduction": REDUCTION,
        "weights": str(weights_path),
        "inputs": images,
        "seed": 5,
    }
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(spec))
    rc = cli.main(["init", "--config", str(spec_path), "--out", str(weights_path), "--seed", "1"])
    assert rc == 0
    return {"root": root, "spec": str(spec_path), "weights": str(weights_path), "images": images}


def test_init_reports_and_writes_loadable_weights(ws, capsys):
    capsys.readouterr()  # drop fixture output
    out = ws["root"] / "w2.bin"
    rc = cli.main(["init", "--config", ws["spec"], "--out", str(out), "--seed", "1"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 1 and report["tensors"] == 6 + 2 + 4 * 12
    weights = vit.load_weights(out)
    assert weights.config == ModelConfig(**MODEL)
    assert out.read_bytes() == Path(ws["weights"]).read_bytes()  # same config+seed, same file


def test_run_writes_report_per_input(ws):
    out_dir = ws["root"] / "reports"
    rc = cli.main(["run", "--config", ws["spec"], "--out", str(out_dir)])
    assert rc == 0
    reports = sorted(out_dir.glob("*.run.json"))
    assert [p.name for p in reports] == ["img0.run.json", "img1.run.json"]
    data = json.loads(reports[0].read_text())
    assert data["input"] == "img0.ppm"
    assert data["prediction"] == int(np.argmax(data["logits"]))
    assert len(data["logits"]) == 10
    rcfg = ReductionConfig(strategy="imagepiece", prune_layers=frozenset({1, 3}))
    schedule = token_schedule(ModelConfig(**MODEL), rcfg)
    assert [ld["token_count"] for ld in data["diag"]["per_layer"]] == schedule
    assert data["diag"]["final_output_tokens"] == schedule[-1]


def test_run_reports_are_reproducible(ws):
    dirs = [ws["root"] / "rep_a", ws["root"] / "rep_b"]
    for d in dirs:
        assert cli.main(["run", "--config", ws["spec"], "--out", str(d)]) == 0
    for name in ("img0.run.json", "img1.run.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_run_thread_fan_out_matches_sequential_reports(ws, monkeypatch):
    third = ws["root"] / "img2.ppm"
    write_ppm(np.random.default_rng(8).random((3, 224, 224)).astype(np.float32), third)
    inputs = [arg for path in ws["images"] + [str(third)] for arg in ("--input", path)]
    seq, fan = ws["root"] / "seq", ws["root"] / "fan"
    monkeypatch.setenv(diag.THREADS_ENV, "1")
    assert cli.main(["run", "--config", ws["spec"], "--out", str(seq), *inputs]) == 0
    monkeypatch.setenv(diag.THREADS_ENV, "2")
    assert cli.main(["run", "--config", ws["spec"], "--out", str(fan), *inputs]) == 0
    names = ["img0.run.json", "img1.run.json", "img2.run.json"]
    assert sorted(p.name for p in fan.iterdir()) == names
    for name in names:
        assert (seq / name).read_bytes() == (fan / name).read_bytes()


@pytest.fixture
def blas_count():
    """Reads numpy's OpenBLAS thread count; reads None where it cannot be held."""
    handle = numerics._blas_threads()
    return handle[0] if handle else lambda: None


@pytest.fixture
def starts(monkeypatch) -> list:
    """Every thread started while the test runs."""
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


def _job_record(blas_count):
    def job(i):
        time.sleep(0.01)  # long enough for every worker to take a job
        return i, threading.get_ident(), blas_count()

    return job


def test_fan_out_holds_blas_and_works_on_the_calling_thread(monkeypatch, blas_count, starts):
    monkeypatch.delenv(diag.THREADS_ENV, raising=False)
    workers = diag.max_workers(8)
    if workers == 1:
        pytest.skip("one usable core, or no OpenBLAS this process can hold")
    count = blas_count()
    out = cli._fan_out(_job_record(blas_count), range(8))
    assert [i for i, _, _ in out] == list(range(8))
    assert {held for _, _, held in out} == {1} and blas_count() == count
    assert threading.get_ident() in {ident for _, ident, _ in out}
    assert len(starts) <= workers - 1
    assert len({ident for _, ident, _ in out}) == workers


def test_fan_out_without_blas_handle_runs_in_order_unless_asked(monkeypatch, blas_count, starts):
    monkeypatch.setattr(numerics, "_blas_threads", lambda: None)
    count = blas_count()
    monkeypatch.delenv(diag.THREADS_ENV, raising=False)
    assert diag.max_workers(8) == 1
    out = cli._fan_out(_job_record(blas_count), range(4))
    assert starts == [] and {ident for _, ident, _ in out} == {threading.get_ident()}
    assert {held for _, _, held in out} == {count}  # nothing held
    monkeypatch.setenv(diag.THREADS_ENV, "2")
    out = cli._fan_out(_job_record(blas_count), range(4))
    assert [i for i, _, _ in out] == list(range(4))
    assert len(starts) == 1 and len({ident for _, ident, _ in out}) == 2
    assert {held for _, _, held in out} == {count}


def test_fan_out_stress_runs_each_job_once_in_order(monkeypatch, blas_count):
    # more workers than cores, overlapping fan-outs and frequent thread switches
    monkeypatch.setenv(diag.THREADS_ENV, "8")
    count = blas_count()
    runs = collections.Counter()
    lock = threading.Lock()

    def job(i):
        with lock:
            runs[i] += 1
        return i

    outs = [None] * 4

    def call(slot):
        outs[slot] = cli._fan_out(job, range(slot * 500, (slot + 1) * 500))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(slot,)) for slot in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
            assert not caller.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert outs == [list(range(slot * 500, (slot + 1) * 500)) for slot in range(4)]
    assert runs == collections.Counter(range(2000))
    assert blas_count() == count and numerics._blas_state["depth"] == 0


@pytest.mark.parametrize(
    "failing, helper_delay", [((1,), 0.3), ((2, 3), 0.0)], ids=["one-job", "two-jobs"]
)
def test_run_fan_out_failure_matches_sequential(
    ws, monkeypatch, capsys, blas_count, failing, helper_delay
):
    # job 2 ends late, so that of two failing jobs the later one fails first;
    # a helper delay keeps a helper at work when the calling thread stops
    paths = list(ws["images"])
    for seed in (8, 9):
        paths.append(str(ws["root"] / f"img{len(paths)}.ppm"))
        write_ppm(np.random.default_rng(seed).random((3, 224, 224)).astype(np.float32), paths[-1])
    images = [cli.read_image(path) for path in paths]
    real_forward = vit.forward_image
    caller = threading.get_ident()

    def forward(image, weights, reduction):
        idx = next(i for i, known in enumerate(images) if np.array_equal(known, image))
        on_helper = threading.get_ident() != caller
        time.sleep((0.2 if idx == 2 else 0.0) + (helper_delay if on_helper else 0.0))
        if idx in failing:
            raise NumericError(f"image {idx} failed")
        return real_forward(image, weights, reduction)

    monkeypatch.setattr(vit, "forward_image", forward)
    out_dir = ws["root"] / "failed"
    argv = ["run", "--config", ws["spec"], "--out", str(out_dir)]
    argv += [arg for path in paths for arg in ("--input", path)]
    count = blas_count()
    threads = threading.active_count()
    outcomes = []
    for env in ("1", None):
        if env is None:
            monkeypatch.delenv(diag.THREADS_ENV)
            assert diag.max_workers(len(paths)) > 1 or count is None
        else:
            monkeypatch.setenv(diag.THREADS_ENV, env)
        capsys.readouterr()
        outcomes.append((cli.main(argv), capsys.readouterr()))
        assert not out_dir.exists()
        assert blas_count() == count
        assert threading.active_count() == threads
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 4 and outcomes[0][1].err.endswith(f"image {failing[0]} failed\n")


def test_overlapping_mask_evals_restore_blas_count(ws, monkeypatch, blas_count):
    monkeypatch.delenv(diag.THREADS_ENV, raising=False)
    if diag.max_workers(6) == 1:
        pytest.skip("one usable core, or no OpenBLAS this process can hold")
    weights = vit.load_weights(ws["weights"])
    images = [cli.read_image(path) for path in ws["images"]]
    rcfg = ReductionConfig(strategy="imagepiece", prune_layers=frozenset({1, 3}))
    args = (weights, images, [0, 1], [0, 5, 40], 3, rcfg)
    expected = cli.mask_eval(*args)
    count = blas_count()
    real_top1 = cli._top1
    overlapped = threading.Event()
    held = []

    def top1(*a):  # every job waits until both calls hold the count
        if numerics._blas_state["depth"] == 2:
            overlapped.set()
        overlapped.wait(timeout=10)
        held.append(blas_count())
        return real_top1(*a)

    monkeypatch.setattr(cli, "_top1", top1)
    results = [None, None]

    def call(slot):
        results[slot] = cli.mask_eval(*args)

    callers = [threading.Thread(target=call, args=(slot,)) for slot in range(2)]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join(timeout=60)
        assert not caller.is_alive()
    assert overlapped.is_set() and set(held) == {1}
    assert results == [expected, expected]
    assert blas_count() == count and numerics._blas_state["depth"] == 0


def test_run_stdout_mode(ws, capsys):
    capsys.readouterr()
    rc = cli.main(["run", "--config", ws["spec"], "--input", ws["images"][0]])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 1
    assert json.loads(lines[0])["input"] == "img0.ppm"


@pytest.mark.parametrize("out", [True, False])
def test_run_rejects_inputs_that_share_a_stem(ws, capsys, monkeypatch, out):
    other = ws["root"] / "elsewhere"
    other.mkdir(exist_ok=True)
    twin = other / "img0.ppm"
    twin.write_bytes(Path(ws["images"][0]).read_bytes())
    out_dir = ws["root"] / "twins"
    argv = ["run", "--config", ws["spec"], "--input", ws["images"][0], "--input", str(twin)]

    def no_forward(*args):
        raise AssertionError("a forward ran")

    monkeypatch.setattr(vit, "forward_image", no_forward)
    capsys.readouterr()
    assert cli.main(argv + (["--out", str(out_dir)] if out else [])) == 2
    err = capsys.readouterr().err
    assert ws["images"][0] in err and str(twin) in err
    assert not out_dir.exists()


def test_run_strategy_override_changes_schedule(ws):
    out_dir = ws["root"] / "override"
    rc = cli.main(
        ["run", "--config", ws["spec"], "--out", str(out_dir), "--strategy", "none", "--input", ws["images"][0]]
    )
    assert rc == 0
    data = json.loads((out_dir / "img0.run.json").read_text())
    assert data["diag"]["strategy"] == "none"
    assert [ld["token_count"] for ld in data["diag"]["per_layer"]] == [197] * 4


# ---------------------------------------------------------------- exit codes

def test_missing_weights_is_config_error(ws, capsys):
    spec = {"model": MODEL, "inputs": ws["images"]}
    path = ws["root"] / "nw.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["run", "--config", str(path)]) == 2
    assert "weights" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "diag", "mask-eval"])
def test_missing_input_is_config_error(ws, tmp_path, capsys, command):
    path = tmp_path / "ni.json"
    path.write_text(json.dumps({"model": MODEL, "weights": ws["weights"]}))
    capsys.readouterr()
    argv = [command, "--config", str(path)] + (["--metric", "overlap"] if command == "diag" else [])
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "--input" in captured.err and captured.out == ""


def test_init_without_out_is_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["init", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert "--out" in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_bad_ratio_is_config_error(ws, capsys):
    rc = cli.main(["run", "--config", ws["spec"], "--proportion", "1.5"])
    assert rc == 2
    assert "nonsemantic_proportion" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize("flag", ["--proportion", "--merge-ratio", "--keep-rate", "--tome-r"])
def test_sweep_flags_take_one_value_outside_schedule(ws, capsys, command, flag):
    assert cli.main([command, "--config", ws["spec"], flag, "1,2"]) == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("value", ["", "x", "0.5,", "0.5,,0.6"])
@pytest.mark.parametrize("flag", ["--proportion", "--merge-ratio", "--keep-rate", "--tome-r"])
def test_empty_or_malformed_flag_value_is_config_error(ws, capsys, flag, value):
    # a given value is used or rejected, never dropped
    for command in ("run", "schedule"):
        assert cli.main([command, "--config", ws["spec"], flag, value]) == 2
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == ""


@pytest.mark.parametrize("value", ["", "x", "3,", "1.5"])
def test_empty_or_malformed_masks_value_is_config_error(ws, capsys, value):
    assert cli.main(["mask-eval", "--config", ws["spec"], "--masks", value]) == 2
    captured = capsys.readouterr()
    assert "--masks" in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "content", [b'{"seed": 1,', b"\xff\xfe{}", b"[" * 100_000], ids=["json", "utf8", "nesting"]
)
def test_spec_file_parse_errors_name_the_file(tmp_path, capsys, content):
    path = tmp_path / "broken.json"
    path.write_bytes(content)
    assert cli.main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"repiece: {path}: ")


def test_closed_stdout_ends_the_command_by_sigpipe():
    # a 401-config sweep writes far more than a pipe buffers, so the writes
    # after the reader closes must meet the closed pipe
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["schedule", "--strategy", "tome", "--tome-r", ",".join(map(str, range(401)))]
    proc = subprocess.Popen(
        [sys.executable, "-m", "repiece.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline().startswith(b"strategy,")
        proc.stdout.close()
        assert proc.wait(timeout=120) == -signal.SIGPIPE
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


def test_unknown_spec_key_is_config_error(ws, capsys):
    path = ws["root"] / "junk.json"
    path.write_text(json.dumps({"model": MODEL, "wieghts": "x.bin"}))
    assert cli.main(["run", "--config", str(path)]) == 2
    assert "wieghts" in capsys.readouterr().err
    # init reads the same spec format and writes nothing for a bad one
    out = ws["root"] / "junk.bin"
    for spec, message in (([], "JSON object"), ({"model": MODEL, "bogus": 1}, "bogus")):
        path.write_text(json.dumps(spec))
        assert cli.main(["init", "--config", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_missing_file_is_io_error(ws, capsys):
    rc = cli.main(
        ["run", "--config", ws["spec"], "--weights", str(ws["root"] / "nope.bin")]
    )
    assert rc == 3
    capsys.readouterr()


def test_corrupt_weights_is_io_error(ws, capsys):
    bad = ws["root"] / "bad.bin"
    bad.write_bytes(b"\x00" * 32)
    assert cli.main(["run", "--config", ws["spec"], "--weights", str(bad)]) == 3
    capsys.readouterr()


def test_negative_tensor_dims_is_io_error(ws, capsys):
    header = json.dumps({"w": {"shape": [-1, -4], "offset": 0, "length": 16}}).encode()
    bad = ws["root"] / "negdims.bin"
    bad.write_bytes(struct.pack("<Q", len(header)) + header + b"\x00" * 16)
    assert cli.main(["run", "--config", ws["spec"], "--weights", str(bad)]) == 3
    capsys.readouterr()


def test_non_positive_ppm_dims_is_io_error(ws, capsys):
    bad = ws["root"] / "negdims.ppm"
    bad.write_bytes(b"P6\n-2 -3\n255\n" + b"\x00" * 18)
    assert cli.main(["run", "--config", ws["spec"], "--input", str(bad)]) == 3
    assert "positive" in capsys.readouterr().err


def test_container_image_input_is_io_error(ws, capsys):
    # inputs are PPM only: a tensor container holding a valid image is not one
    image = np.random.default_rng(3).random((3, 224, 224)).astype(np.float32)
    bad = ws["root"] / "image.bin"
    container.save_tensors(bad, {"image": image})
    assert cli.main(["run", "--config", ws["spec"], "--input", str(bad)]) == 3
    assert "P6" in capsys.readouterr().err


@pytest.mark.parametrize("meta", [[1], 5, "model", {**MODEL, "depth": "1"}, {**MODEL, "dim": None}])
def test_badly_typed_weights_meta_is_config_error(ws, capsys, meta):
    tensors, _ = container.load_tensors(ws["weights"])
    bad = ws["root"] / "badmeta.bin"
    container.save_tensors(bad, tensors, meta=meta)
    assert cli.main(["run", "--config", ws["spec"], "--weights", str(bad)]) == 2
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("seed", [1]),
        ("seed", 1.5),
        ("seed", True),
        ("out", 5),
        ("weights", 5),
        ("inputs", 5),
        ("inputs", "x.ppm"),
        ("inputs", ["x.ppm", 5]),
        ("labels", {"img0.ppm": True}),
        ("labels", {"img0.ppm": 1.0}),
    ],
)
def test_badly_typed_spec_key_is_config_error(ws, capsys, key, value):
    spec = {"model": MODEL, "weights": ws["weights"], "inputs": ws["images"], key: value}
    path = ws["root"] / f"typed_{key}.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["run", "--config", str(path)]) == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["init"], ["bench", "--batch", "1", "--iters", "1"]], ids=["init", "bench"]
)
@pytest.mark.parametrize("source", ["spec", "flag"])
def test_negative_seed_is_config_error(ws, tmp_path, capsys, command, source):
    path = tmp_path / "seed.json"
    path.write_text(json.dumps({"model": MODEL, "seed": -1 if source == "spec" else 0}))
    flag = ["--seed", "-1"] if source == "flag" else []
    assert cli.main([*command, "--config", str(path), "--out", str(tmp_path / "w.bin"), *flag]) == 2
    err = capsys.readouterr().err
    assert "'seed'" in err
    assert (str(path) in err) == (source == "spec")  # a spec-file error names the file
    assert not (tmp_path / "w.bin").exists()


@pytest.mark.parametrize(
    "geometry, tensor",
    [
        ({"dim": 2**70, "heads": 1}, "embed.positional"),
        ({"mlp_ratio": 1e300}, "blocks.0.mlp.fc1.weight"),
    ],
)
def test_weights_meta_numpy_cannot_allocate_is_config_error(ws, capsys, geometry, tensor):
    tensors, meta = container.load_tensors(ws["weights"])
    bad = ws["root"] / "huge.bin"
    container.save_tensors(bad, tensors, meta={**meta, **geometry})
    assert cli.main(["run", "--config", ws["spec"], "--weights", str(bad)]) == 2
    assert repr(tensor) in capsys.readouterr().err


@pytest.mark.parametrize(
    "geometry",
    [
        {"dim": 2**70, "heads": 6},  # not divisible by the heads
        {"depth": "1"},  # mistyped
        {"dim": 2**70, "heads": 1},  # a tensor numpy cannot allocate
    ],
)
def test_weights_meta_config_error_names_the_file(ws, capsys, geometry):
    tensors, meta = container.load_tensors(ws["weights"])
    bad = ws["root"] / "bad.bin"
    container.save_tensors(bad, tensors, meta={**meta, **geometry})
    assert cli.main(["run", "--config", ws["spec"], "--weights", str(bad)]) == 2
    assert str(bad) in capsys.readouterr().err


def test_non_list_prune_layers_is_config_error(ws, capsys):
    path = ws["root"] / "scalar_layers.json"
    path.write_text(json.dumps({"model": MODEL, "reduction": {"prune_layers": 3}}))
    assert cli.main(["run", "--config", str(path), "--weights", ws["weights"], "--input", ws["images"][0]]) == 2
    assert "prune_layers" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_weights_is_numeric_error(ws, capsys):
    weights = vit.load_weights(ws["weights"])
    blocks = tuple(
        replace(b, fc1_weight=b.fc1_weight * 1e30, fc2_weight=b.fc2_weight * 1e30)
        for b in weights.blocks
    )
    bad = ws["root"] / "overflow.bin"
    vit.save_weights(replace(weights, blocks=blocks), bad)
    assert cli.main(["run", "--config", ws["spec"], "--weights", str(bad)]) == 4
    assert "layer 0: non-finite" in capsys.readouterr().err


def test_schedule_layers_past_depth_is_config_error(ws, capsys):
    path = ws["root"] / "deep.json"
    path.write_text(json.dumps({"model": MODEL, "reduction": {"strategy": "evit"}}))
    capsys.readouterr()
    assert cli.main(["schedule", "--config", str(path)]) == 2  # default prune layer 9 > depth 4
    assert capsys.readouterr().out == ""  # checked before the header goes out


# ---------------------------------------------------------------- schedule

def _parse_csv(out):
    lines = [l for l in out.splitlines() if l]
    header = lines[0].split(",")
    return header, [dict(zip(header, l.split(","))) for l in lines[1:]]


def test_schedule_csv_shape(ws, capsys):
    capsys.readouterr()
    rc = cli.main(["schedule", "--config", ws["spec"]])
    assert rc == 0
    header, rows = _parse_csv(capsys.readouterr().out)
    assert header == ["strategy", "proportion", "merge_ratio", "keep_rate", "tome_r", "layer", "tokens", "flops_cum"]
    assert len(rows) == 4
    tokens = [int(r["tokens"]) for r in rows]
    assert tokens == token_schedule(
        ModelConfig(**MODEL), ReductionConfig(strategy="imagepiece", prune_layers=frozenset({1, 3}))
    )
    flops = [int(r["flops_cum"]) for r in rows]
    assert flops == sorted(flops) and flops[0] > 0


def test_schedule_sweeps_comma_lists(ws, capsys):
    capsys.readouterr()
    rc = cli.main(["schedule", "--config", ws["spec"], "--keep-rate", "0.5,0.9", "--merge-ratio", "0.05,0.1"])
    assert rc == 0
    _, rows = _parse_csv(capsys.readouterr().out)
    assert len(rows) == 4 * 4  # 2 keep rates x 2 merge ratios x 4 layers
    combos = {(r["keep_rate"], r["merge_ratio"]) for r in rows}
    assert combos == {("0.5", "0.05"), ("0.5", "0.1"), ("0.9", "0.05"), ("0.9", "0.1")}
    for keep, merge in combos:
        per = [int(r["tokens"]) for r in rows if (r["keep_rate"], r["merge_ratio"]) == (keep, merge)]
        assert all(a >= b for a, b in zip(per, per[1:]))


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--keep-rate", "0.5,2"], "keep_rate"),
        (["--keep-rate", "0.5,0.9", "--tome-r", "0,13,-1"], "tome_reduction"),
        (["--proportion", "0.3", "--merge-ratio", "0.1,0.2,1"], "merge_ratio"),
    ],
)
def test_schedule_checks_every_swept_value_before_any_output(capsys, flags, field):
    assert cli.main(["schedule", "--strategy", "imagepiece", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and field in captured.err


def test_load_specs_checks_each_value_once_and_builds_the_sweep_lazily(monkeypatch):
    # 100 values for each of the four flags: 10**8 combinations, far too many to build
    floats = ",".join(f"{i / 101}" for i in range(1, 101))
    argv = ["schedule", "--strategy", "tome", "--proportion", floats, "--merge-ratio", floats,
            "--keep-rate", floats, "--tome-r", ",".join(map(str, range(100)))]
    args = cli.build_parser().parse_args(argv)
    built = 0
    real = ReductionConfig.__post_init__

    def counted(self):
        nonlocal built
        built += 1
        if built > 1000:
            raise AssertionError("the sweep is built eagerly")
        real(self)

    monkeypatch.setattr(ReductionConfig, "__post_init__", counted)
    specs = cli.load_specs(args)
    assert built < 500  # about one check per value
    first = [next(specs).reduction for _ in range(3)]
    assert [r.tome_reduction for r in first] == [0, 1, 2]  # the last flag varies fastest
    assert {(r.nonsemantic_proportion, r.merge_ratio, r.keep_rate) for r in first} == {(1 / 101,) * 3}


def test_schedule_without_config_uses_defaults(capsys):
    capsys.readouterr()
    rc = cli.main(["schedule", "--strategy", "tome"])
    assert rc == 0
    _, rows = _parse_csv(capsys.readouterr().out)
    assert len(rows) == 12
    assert int(rows[-1]["tokens"]) == 41


def test_main_builds_its_parser_once_and_runs_the_command_bound_at_call_time(monkeypatch, capsys):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        assert cli.main(["schedule", "--strategy", "tome"]) == 0
        ran = []
        schedule = cli.cmd_schedule
        monkeypatch.setattr(cli, "cmd_schedule", lambda args: ran.append(args.strategy) or schedule(args))
        assert cli.main(["schedule", "--strategy", "evit"]) == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1] and ran == ["evit"]
    capsys.readouterr()


# ---------------------------------------------------------------- bench / diag / mask-eval

def test_bench_writes_report(ws):
    out_dir = ws["root"] / "bench"
    rc = cli.main(
        ["bench", "--config", ws["spec"], "--batch", "2", "--iters", "2", "--out", str(out_dir)]
    )
    assert rc == 0
    report = json.loads((out_dir / "bench.json").read_text())
    assert report["batch_size"] == 2 and report["iterations"] == 2
    rcfg = ReductionConfig(strategy="imagepiece", prune_layers=frozenset({1, 3}))
    assert report["schedule"] == token_schedule(ModelConfig(**MODEL), rcfg)
    assert report["images_per_second"] > 0


def test_schedules_take_the_model_from_the_weights_file(ws, tmp_path, capsys):
    # a spec with no model section that names depth-3 weights must not get
    # the default model's 12 rows: the rows are the weights' layers, as run counts them
    weights = tmp_path / "d3.bin"
    vit.save_weights(vit.init_random(ModelConfig(depth=3, heads=2, dim=16, num_classes=10), 2), weights)
    reduction = {"strategy": "imagepiece", "prune_layers": [1], "merge_ratio": 0.2}
    spec = tmp_path / "d3.json"
    spec.write_text(json.dumps({"reduction": reduction, "weights": str(weights), "inputs": ws["images"][:1]}))
    assert cli.main(["run", "--config", str(spec), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "img0.run.json").read_text())["diag"]
    tokens = [ld["token_count"] for ld in report["per_layer"]]
    bare = tmp_path / "bare.json"  # the weights named by the flag instead
    bare.write_text(json.dumps({"reduction": reduction}))
    capsys.readouterr()
    for argv in (["--config", str(spec)], ["--config", str(bare), "--weights", str(weights)]):
        assert cli.main(["schedule", *argv]) == 0
        _, rows = _parse_csv(capsys.readouterr().out)
        assert [int(r["layer"]) for r in rows] == [0, 1, 2]
        assert [int(r["tokens"]) for r in rows] == tokens
        assert int(rows[-1]["flops_cum"]) == report["flops"]
        assert cli.main(["diag", "--metric", "schedule", *argv]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [(r["layer"], r["tokens"]) for r in rows] == list(enumerate(tokens))
        assert rows[-1]["flops_cum"] == report["flops"]
    # prune layer 5 fits the default model's 12 layers, not the weights' 3
    spec.write_text(json.dumps({"reduction": {**reduction, "prune_layers": [5]}, "weights": str(weights)}))
    for command in (["schedule"], ["diag", "--metric", "schedule"]):
        assert cli.main([*command, "--config", str(spec)]) == 2
        assert capsys.readouterr().out == ""


def test_bench_takes_the_model_from_its_weights(ws, tmp_path):
    # a spec with no model section must not report the default model's
    # schedule and FLOPs for the depth-4 weights it times
    weights = vit.load_weights(ws["weights"])
    rcfg = ReductionConfig(prune_layers=frozenset())
    schedule = token_schedule(weights.config, rcfg)
    spec = tmp_path / "r.json"
    spec.write_text(json.dumps({"reduction": {"prune_layers": []}}))
    rc = cli.main(
        ["bench", "--weights", ws["weights"], "--config", str(spec), "--batch", "1", "--iters", "1",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    reports = [cli.bench(weights, rcfg, 1, 1), json.loads((tmp_path / "bench.json").read_text())]
    for report in reports:
        assert report["schedule"] == schedule and len(schedule) == 4
        assert report["flops"] == diag.flops_count(weights.config, schedule)


def test_bench_without_weights_times_random_weights_of_the_spec_model(ws, tmp_path, monkeypatch):
    spec = tmp_path / "nw.json"
    spec.write_text(json.dumps({"model": MODEL, "reduction": REDUCTION}))
    monkeypatch.setattr(vit, "load_weights", lambda path: pytest.fail("weights were read"))
    argv = ["bench", "--config", str(spec), "--batch", "1", "--iters", "1", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    report = json.loads((tmp_path / "bench.json").read_text())
    model = ModelConfig(**MODEL)
    rcfg = ReductionConfig(strategy="imagepiece", prune_layers=frozenset({1, 3}))
    schedule = token_schedule(model, rcfg)
    assert report["schedule"] == schedule and len(schedule) == 4
    assert report["flops"] == diag.flops_count(model, schedule)


def test_diag_schedule_metric(ws, capsys):
    capsys.readouterr()
    rc = cli.main(["diag", "--config", ws["spec"], "--metric", "schedule"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metric"] == "schedule" and len(report["rows"]) == 4


def test_diag_overlap_zero_for_retokenization(ws, capsys):
    capsys.readouterr()
    rc = cli.main(["diag", "--config", ws["spec"], "--metric", "overlap"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["q_percent"] == pytest.approx(70.0)
    assert report["value"] == 0.0


def test_diag_similarity_metric(ws, capsys):
    capsys.readouterr()
    rc = cli.main(["diag", "--config", ws["spec"], "--metric", "similarity"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert -1.0 <= report["first"] <= 1.0 and -1.0 <= report["last"] <= 1.0


def test_diag_inattn_metric(ws, capsys):
    capsys.readouterr()
    assert cli.main(["diag", "--config", ws["spec"], "--metric", "inattn"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metric"] == "inattn"
    rcfg = ReductionConfig(strategy="imagepiece", prune_layers=frozenset({1, 3}))
    image = cli.read_image(sorted(ws["images"])[0])
    _, run = vit.forward_image(image, vit.load_weights(ws["weights"]), rcfg)
    trail = diag.inattn_trail(run, rcfg.nonsemantic_proportion)
    assert trail and report["trail"] == [{"layer": layer, "ratio": ratio} for layer, ratio in trail]


def test_diag_adjacency_metric(ws, tmp_path, capsys):
    # both stems: the value is the adjacency of the model's own stem tokens
    for stem in ("grid", "coherence"):
        spec = json.loads(Path(ws["spec"]).read_text())
        spec["model"] = {**MODEL, "stem": stem, "stem_base": 4}
        spec["weights"] = str(tmp_path / f"{stem}.bin")
        path = tmp_path / f"{stem}.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["init", "--config", str(path), "--out", spec["weights"], "--seed", "1"]) == 0
        capsys.readouterr()
        rc = cli.main(["diag", "--config", str(path), "--metric", "adjacency"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["stem"] == stem
        weights = vit.load_weights(spec["weights"])
        tokens = vit.stem_tokens(cli.read_image(sorted(spec["inputs"])[0]), weights)
        assert report["value"] == diag.adjacency_similarity(tokens)
        assert -1.0 <= report["value"] <= 1.0


def test_diag_adjacency_one_patch_grid_is_config_error(ws, tmp_path, capsys):
    # a 224-pixel patch leaves a 1 x 1 grid: no neighbour pairs, exit 2, no NaN
    spec = json.loads(Path(ws["spec"]).read_text())
    spec["model"] = {"depth": 0, "heads": 1, "dim": 8, "num_classes": 2, "patch_size": 224}
    spec["reduction"] = {"prune_layers": []}
    spec["weights"] = str(tmp_path / "one_patch.bin")
    path = tmp_path / "one_patch.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["init", "--config", str(path), "--out", spec["weights"]]) == 0
    capsys.readouterr()
    assert cli.main(["diag", "--config", str(path), "--metric", "adjacency"]) == 2
    captured = capsys.readouterr()
    assert "neighbour" in captured.err
    assert "NaN" not in captured.out + captured.err


def test_mask_eval_csv_and_self_labels(ws, capsys):
    capsys.readouterr()
    rc = cli.main(["mask-eval", "--config", ws["spec"], "--masks", "0,5"])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert lines[0] == "k,correct,total,accuracy"
    assert lines[1] == "0,2,2,1.0"  # no labels: k=0 must reproduce the unmasked predictions
    k5 = lines[2].split(",")
    assert k5[0] == "5" and k5[2] == "2"


def test_mask_eval_with_spec_labels(ws, capsys):
    capsys.readouterr()
    spec = json.loads(Path(ws["spec"]).read_text())
    spec["labels"] = {"img0.ppm": 0, "img1.ppm": 1}
    path = ws["root"] / "labeled.json"
    path.write_text(json.dumps(spec))
    out_dir = ws["root"] / "mask"
    rc = cli.main(["mask-eval", "--config", str(path), "--masks", "0", "--out", str(out_dir)])
    assert rc == 0
    report = json.loads((out_dir / "mask_eval.json").read_text())
    assert report["rows"][0]["k"] == 0 and report["rows"][0]["total"] == 2
    capsys.readouterr()


@pytest.mark.parametrize("value", ["-3", "0,7,300", "197"])
def test_mask_eval_rejects_a_mask_count_before_any_forward(ws, capsys, monkeypatch, value):
    calls = []
    real = vit.forward_image
    monkeypatch.setattr(vit, "forward_image", lambda *args: calls.append(1) or real(*args))
    capsys.readouterr()
    assert cli.main(["mask-eval", "--config", ws["spec"], f"--masks={value}"]) == 2
    captured = capsys.readouterr()
    bad = value.split(",")[-1]
    assert f"--masks count {bad} outside [0, 196]" in captured.err and captured.out == ""
    assert calls == []


def test_mask_eval_labels_must_cover_every_input(ws, tmp_path, capsys, monkeypatch):
    # a label given for one input only is rejected, not dropped for self-labels
    spec = json.loads(Path(ws["spec"]).read_text())
    spec["labels"] = {"img0.ppm": 7}
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(spec))
    real_load = vit.load_weights
    monkeypatch.setattr(vit, "load_weights", lambda path: pytest.fail("weights were read"))
    capsys.readouterr()
    assert cli.main(["mask-eval", "--config", str(partial), "--masks", "0"]) == 2
    captured = capsys.readouterr()
    assert "img1.ppm" in captured.err and "img0.ppm" not in captured.err and captured.out == ""
    # keys for images that are not inputs stay allowed
    monkeypatch.setattr(vit, "load_weights", real_load)
    spec["labels"] = {"img0.ppm": 7, "img1.ppm": 7, "elsewhere.ppm": 1}
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps(spec))
    assert cli.main(["mask-eval", "--config", str(extra), "--masks", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("0,")


def test_mask_eval_labels_reject_inputs_that_share_a_base_name(ws, tmp_path, capsys, monkeypatch):
    # labels are keyed by base name: x/a.ppm and y/a.ppm would be scored against one label
    twins = []
    for folder in ("x", "y"):
        (tmp_path / folder).mkdir()
        twins.append(str(tmp_path / folder / "a.ppm"))
        Path(twins[-1]).write_bytes(Path(ws["images"][0]).read_bytes())
    spec = {"model": MODEL, "reduction": REDUCTION, "weights": ws["weights"], "inputs": twins}
    unlabeled = tmp_path / "unlabeled.json"
    unlabeled.write_text(json.dumps(spec))
    labeled = tmp_path / "labeled.json"
    labeled.write_text(json.dumps({**spec, "labels": {"a.ppm": 3}}))
    real_load = vit.load_weights
    monkeypatch.setattr(vit, "load_weights", lambda path: pytest.fail("weights were read"))
    capsys.readouterr()
    assert cli.main(["mask-eval", "--config", str(labeled), "--masks", "0"]) == 2
    captured = capsys.readouterr()
    assert twins[0] in captured.err and twins[1] in captured.err and captured.out == ""
    # without labels each input is scored against its own prediction
    monkeypatch.setattr(vit, "load_weights", real_load)
    assert cli.main(["mask-eval", "--config", str(unlabeled), "--masks", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "0,2,2,1.0"


def test_mask_eval_thread_fan_out_matches_sequential(ws, monkeypatch, capsys):
    # no labels, so the self-labels take the thread fan-out too
    third = ws["root"] / "img2.ppm"
    write_ppm(np.random.default_rng(8).random((3, 224, 224)).astype(np.float32), third)
    inputs = [arg for path in ws["images"] + [str(third)] for arg in ("--input", path)]

    def mask_eval(out_dir: Path) -> tuple[str, bytes]:
        capsys.readouterr()
        argv = ["mask-eval", "--config", ws["spec"], "--masks", "0,5,40", "--out", str(out_dir)]
        assert cli.main(argv + inputs) == 0
        return capsys.readouterr().out, (out_dir / "mask_eval.json").read_bytes()

    monkeypatch.setenv(diag.THREADS_ENV, "1")
    seq = mask_eval(ws["root"] / "mask_seq")
    monkeypatch.setenv(diag.THREADS_ENV, "2")
    assert mask_eval(ws["root"] / "mask_fan") == seq
    assert seq[0].splitlines()[1] == "0,3,3,1.0"


def test_mask_eval_deterministic_output(ws, capsys):
    capsys.readouterr()
    outs = []
    for _ in range(2):
        assert cli.main(["mask-eval", "--config", ws["spec"], "--masks", "3,9"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


# ---------------------------------------------------------------- mask-eval's streaming pass

def _more_inputs(ws, tmp_path, n: int) -> list[str]:
    """The workspace's two inputs plus n - 2 new ones, written to tmp_path."""
    paths = list(ws["images"])
    for seed in range(n - 2):
        paths.append(str(tmp_path / f"more{seed}.ppm"))
        write_ppm(np.random.default_rng(30 + seed).random((3, 224, 224)).astype(np.float32), paths[-1])
    return paths


@pytest.mark.parametrize("threads", ["1", "2"])
def test_mask_eval_holds_one_decoded_input_per_worker(ws, tmp_path, monkeypatch, capsys, threads):
    paths = _more_inputs(ws, tmp_path, 6)
    lock = threading.Lock()
    live, peak, decoded = [0], [0], []
    real_read = cli.read_image

    def released():
        with lock:
            live[0] -= 1

    def read_image(path):
        image = real_read(path)
        with lock:
            decoded.append(path)
            live[0] += 1
            peak[0] = max(peak[0], live[0])
        weakref.finalize(image, released)
        return image

    monkeypatch.setenv(diag.THREADS_ENV, threads)
    monkeypatch.setattr(cli, "read_image", read_image)
    argv = ["mask-eval", "--config", ws["spec"], "--masks", "0,5"]
    assert cli.main(argv + [arg for path in paths for arg in ("--input", path)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "0,6,6,1.0"
    assert sorted(decoded) == sorted(paths)  # each input decoded once
    assert peak[0] <= diag.max_workers(len(paths)) and live[0] == 0


def test_mask_eval_self_labels_match_the_unmasked_predictions(ws):
    weights = vit.load_weights(ws["weights"])
    images = [cli.read_image(path) for path in ws["images"]]
    rcfg = ReductionConfig(strategy="tome", prune_layers=frozenset({1}))
    labels = [cli._top1(image, weights, rcfg) for image in images]
    rows = cli.mask_eval(weights, images, None, [0, 5, 60, 196], 3, rcfg)
    assert rows == cli.mask_eval(weights, images, labels, [0, 5, 60, 196], 3, rcfg)
    assert rows[0]["correct"] == 2


@pytest.mark.parametrize("threads", ["1", "2"])
def test_mask_eval_unreadable_input_among_valid_ones_is_io_error(
    ws, tmp_path, monkeypatch, capsys, threads
):
    paths = _more_inputs(ws, tmp_path, 4)
    bad = tmp_path / "more0.ppm"  # the third of four sorted inputs
    bad.write_bytes(bad.read_bytes()[:5000])
    with pytest.raises(FormatError) as raised:
        cli.read_image(str(bad))
    monkeypatch.setenv(diag.THREADS_ENV, threads)
    capsys.readouterr()
    argv = ["mask-eval", "--config", ws["spec"], "--masks", "0,5"]
    assert cli.main(argv + [arg for path in paths for arg in ("--input", path)]) == 3
    assert capsys.readouterr() == ("", f"repiece: bad file: {raised.value}\n")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_mask_eval_on_too_shallow_weights_stops_after_one_decode_per_worker(
    ws, tmp_path, monkeypatch, capsys, threads
):
    shallow = tmp_path / "shallow.bin"
    vit.save_weights(vit.init_random(ModelConfig(**{**MODEL, "depth": 1}), seed=2), shallow)
    paths = _more_inputs(ws, tmp_path, 6)
    decoded = []
    real_read = cli.read_image
    monkeypatch.setattr(cli, "read_image", lambda path: decoded.append(path) or real_read(path))
    monkeypatch.setenv(diag.THREADS_ENV, threads)
    capsys.readouterr()
    argv = ["mask-eval", "--config", ws["spec"], "--weights", str(shallow), "--masks", "0"]
    assert cli.main(argv + [arg for path in paths for arg in ("--input", path)]) == 2
    assert capsys.readouterr() == ("", "repiece: prune_layers references a layer >= depth 1\n")
    assert 1 <= len(decoded) <= diag.max_workers(len(paths))
