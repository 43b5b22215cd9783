import json
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repiece import cli, vit
from repiece.config import ModelConfig, ReductionConfig
from repiece.diag import token_schedule
from repiece.embed import write_ppm


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


def test_run_stdout_mode(ws, capsys):
    capsys.readouterr()
    rc = cli.main(["run", "--config", ws["spec"], "--input", ws["images"][0]])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 1
    assert json.loads(lines[0])["input"] == "img0.ppm"


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


def test_bad_ratio_is_config_error(ws, capsys):
    rc = cli.main(["run", "--config", ws["spec"], "--proportion", "1.5"])
    assert rc == 2
    assert "nonsemantic_proportion" in capsys.readouterr().err


def test_unknown_spec_key_is_config_error(ws, capsys):
    path = ws["root"] / "junk.json"
    path.write_text(json.dumps({"model": MODEL, "wieghts": "x.bin"}))
    assert cli.main(["run", "--config", str(path)]) == 2
    assert "wieghts" in capsys.readouterr().err


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
    assert cli.main(["schedule", "--config", str(path)]) == 2  # default prune layer 9 > depth 4
    capsys.readouterr()


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


def test_schedule_without_config_uses_defaults(capsys):
    capsys.readouterr()
    rc = cli.main(["schedule", "--strategy", "tome"])
    assert rc == 0
    _, rows = _parse_csv(capsys.readouterr().out)
    assert len(rows) == 12
    assert int(rows[-1]["tokens"]) == 41


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


def test_diag_adjacency_metric(ws, capsys):
    capsys.readouterr()
    rc = cli.main(["diag", "--config", ws["spec"], "--metric", "adjacency"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["stem"] == "grid"
    assert -1.0 <= report["value"] <= 1.0


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


def test_mask_eval_deterministic_output(ws, capsys):
    capsys.readouterr()
    outs = []
    for _ in range(2):
        assert cli.main(["mask-eval", "--config", ws["spec"], "--masks", "3,9"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
