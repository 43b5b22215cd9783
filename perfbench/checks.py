"""Output checks for every benchmark operation, and a float64 reference forward.

Each check returns a list of failure messages; an empty list means the output
passed. The reference forward restates the unreduced DeiT forward in float64
with plain numpy and scipy. It imports nothing from the engine's kernels, so a
kernel that drifts cannot drag its own yardstick along.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.special import erf

#: Tolerance of float32 logits against the float64 reference: the criterion-5
#: bound (1e-5 on O(1) activations) plus a share of the logits' magnitude, for
#: a whole forward of up to twelve blocks. Seed-code errors are about 1e-6.
REFERENCE_ATOL = 1e-5
REFERENCE_RTOL = 1e-4


def check_logits(logits, num_classes: int) -> list[str]:
    logits = np.asarray(logits)
    if logits.shape != (num_classes,):
        return [f"logits have shape {logits.shape}, expected ({num_classes},)"]
    if not np.all(np.isfinite(logits)):
        return ["logits are not all finite"]
    return []


def check_schedule(token_counts, expected) -> list[str]:
    if list(token_counts) != list(expected):
        return [f"token counts {list(token_counts)} differ from the schedule {list(expected)}"]
    return []


def check_cli_reports(
    exit_code: int, out_dir: Path, inputs: list[Path], num_classes: int, expected
) -> list[str]:
    """Exit code 0, one parsable report per input whose prediction is the
    argmax of its logits and whose token counts follow the schedule."""
    if exit_code != 0:
        return [f"cli run exited with {exit_code}"]
    failures: list[str] = []
    for path in inputs:
        report_path = out_dir / f"{path.stem}.run.json"
        try:
            report = json.loads(report_path.read_text(encoding="utf-8"))
            logits = np.asarray(report["logits"], dtype=np.float64)
            prediction = report["prediction"]
            counts = [layer["token_count"] for layer in report["diag"]["per_layer"]]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            failures.append(f"{report_path.name}: unreadable report ({exc})")
            continue
        bad = check_logits(logits, num_classes)
        if not bad and prediction != int(np.argmax(logits)):
            bad.append(f"prediction {prediction} is not the argmax")
        bad += check_schedule(counts, expected)
        failures += [f"{report_path.name}: {f}" for f in bad]
    return failures


def check_reference(logits, reference) -> list[str]:
    logits = np.asarray(logits, dtype=np.float64)
    err = float(np.max(np.abs(logits - reference)))
    limit = REFERENCE_ATOL + REFERENCE_RTOL * float(np.max(np.abs(reference)))
    if not err <= limit:
        return [f"`none` logits differ from the float64 reference by {err:.2e} > {limit:.2e}"]
    return []


# ---------------------------------------------------------------------------
# float64 reference forward, strategy `none`


def _layer_norm(x, gamma, beta, eps=1e-6):
    mean = x.mean(axis=1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gamma + beta


def _gelu(x):
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def _conv(x, kernels, bias, stride, padding):
    """Cross-correlation of [C x H x W] with [F x C x kh x kw], zero padded."""
    _, h, w = x.shape
    f, _, kh, kw = kernels.shape
    x = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((f, h_out, w_out)) + bias[:, None, None]
    for i in range(kh):
        for j in range(kw):
            window = x[:, i : i + stride * h_out : stride, j : j + stride * w_out : stride]
            out += np.einsum("fc,chw->fhw", kernels[:, :, i, j], window)
    return out


def _tokens(weights, image):
    cfg = weights.config
    f64 = lambda a: np.asarray(a, dtype=np.float64)  # noqa: E731
    x = f64(image)
    if cfg.stem == "grid":
        p, side = cfg.patch_size, cfg.grid_side
        patches = x.reshape(3, side, p, side, p).transpose(1, 3, 0, 2, 4).reshape(side * side, -1)
        return patches @ f64(weights.patch_projection) + f64(weights.patch_bias)
    for kernel, bias in zip(weights.conv_kernels, weights.conv_biases):
        x = _gelu(_conv(x, f64(kernel), f64(bias), stride=2, padding=1))
    x = _conv(x, f64(weights.proj_kernel), f64(weights.proj_bias), stride=1, padding=0)
    return x.reshape(x.shape[0], -1).T


def reference_logits(weights, image) -> np.ndarray:
    """Logits of the unreduced forward, in float64 throughout.

    Every token has size 1 without reduction, so proportional attention adds
    log(1) = 0 and is left out. Weights are widened one block at a time.
    """
    f64 = lambda a: np.asarray(a, dtype=np.float64)  # noqa: E731
    cfg = weights.config
    d, heads = cfg.dim, cfg.heads
    hd = d // heads
    x = np.concatenate([f64(weights.cls_embedding)[None, :], _tokens(weights, image)])
    x = x + f64(weights.positional)
    for blk in weights.blocks:
        h = _layer_norm(x, f64(blk.ln1_gamma), f64(blk.ln1_beta))
        qkv = h @ f64(blk.qkv_weight) + f64(blk.qkv_bias)
        out = np.empty_like(h)
        for i in range(heads):
            q = qkv[:, i * hd : (i + 1) * hd]
            k = qkv[:, d + i * hd : d + (i + 1) * hd]
            v = qkv[:, 2 * d + i * hd : 2 * d + (i + 1) * hd]
            logits = q @ k.T / math.sqrt(hd)
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            out[:, i * hd : (i + 1) * hd] = (e / e.sum(axis=1, keepdims=True)) @ v
        x = x + out @ f64(blk.proj_weight) + f64(blk.proj_bias)
        h = _layer_norm(x, f64(blk.ln2_gamma), f64(blk.ln2_beta))
        h = _gelu(h @ f64(blk.fc1_weight) + f64(blk.fc1_bias))
        x = x + h @ f64(blk.fc2_weight) + f64(blk.fc2_bias)
    cls = _layer_norm(x[:1], f64(weights.final_gamma), f64(weights.final_beta))
    return (cls @ f64(weights.head_weight) + f64(weights.head_bias))[0]
