"""Naive reference implementations used as oracles.

Everything here trades speed for obviousness: explicit loops, float64
throughout, no shared code with the package internals. When a package op and
its oracle disagree, the oracle is the one you can check by eye.
"""

from __future__ import annotations

import math

import numpy as np


def matmul_loops(a, b):
    """Triple-loop matrix product in float64."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def conv2d_loops(image, kernels, bias, stride, padding):
    """Direct-sum cross-correlation with explicit zero padding."""
    image = np.asarray(image, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    c, h, w = image.shape
    f, c2, kh, kw = kernels.shape
    assert c == c2
    padded = np.zeros((c, h + 2 * padding, w + 2 * padding))
    padded[:, padding : padding + h, padding : padding + w] = image
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((f, oh, ow))
    for fi in range(f):
        for i in range(oh):
            for j in range(ow):
                acc = 0.0
                for ci in range(c):
                    for di in range(kh):
                        for dj in range(kw):
                            acc += (
                                kernels[fi, ci, di, dj]
                                * padded[ci, i * stride + di, j * stride + dj]
                            )
                out[fi, i, j] = acc + float(bias[fi])
    return out


def softmax_row_f64(row, scale=1.0):
    row = np.asarray(row, dtype=np.float64) / scale
    shifted = row - row.max()
    e = np.exp(shifted)
    return e / e.sum()


def layer_norm_rows_f64(x, gamma, beta, eps=1e-6):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        mu = x[i].mean()
        var = ((x[i] - mu) ** 2).mean()
        out[i] = (x[i] - mu) / math.sqrt(var + eps) * gamma + beta
    return out


def gelu_f64(x):
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))


def gelu_erfc_f64(x):
    """x * Phi(x) in float64, with Phi(x) = erfc(-x/sqrt2)/2 for x < 0.

    Unlike 1 + erf, the erfc form keeps full relative precision in the
    negative tail, where Phi(x) is far below float64's epsilon.
    """
    x = np.asarray(x, dtype=np.float64)
    erfc = np.vectorize(math.erfc)
    phi = np.where(x < 0, 0.5 * erfc(-x / math.sqrt(2.0)), 1.0 - 0.5 * erfc(x / math.sqrt(2.0)))
    return x * phi


def attention_direct(x, block, sizes=None, cls_row=0):
    """Float64 evaluation of one pre-norm attention block.

    Returns (residual output, class attention, per-head CLS rows). Written
    head by head against the softmax(Q Kt / sqrt(d)) V definition; only the
    final results are compared with the float32 path.
    """
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    heads = block.heads
    hd = d // heads
    h = layer_norm_rows_f64(x, np.asarray(block.ln1_gamma, np.float64), np.asarray(block.ln1_beta, np.float64))
    qkv = h @ np.asarray(block.qkv_weight, np.float64) + np.asarray(block.qkv_bias, np.float64)
    q, k, v = qkv[:, :d], qkv[:, d : 2 * d], qkv[:, 2 * d :]
    out = np.zeros((n, d))
    cls_rows = []
    for hi in range(heads):
        sl = slice(hi * hd, (hi + 1) * hd)
        logits = q[:, sl] @ k[:, sl].T / math.sqrt(hd)
        if sizes is not None:
            logits = logits + np.log(np.asarray(sizes, dtype=np.float64))[None, :]
        att = np.stack([softmax_row_f64(logits[i]) for i in range(n)])
        cls_rows.append(att[cls_row])
        out[:, sl] = att @ v[:, sl]
    y = out @ np.asarray(block.proj_weight, np.float64) + np.asarray(block.proj_bias, np.float64)
    class_attention = np.mean(cls_rows, axis=0)
    return x + y, class_attention, cls_rows


def cosine_f64(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def cosine_matrix_per_group(a, b):
    """All-pairs float32 cosine with each group normalized as its own float64
    array: the byte reference for numerics.cosine_similarity_matrix, which
    normalizes both groups as one stacked array."""
    a = np.asarray(a, dtype=np.float32).astype(np.float64)
    b = np.asarray(b, dtype=np.float32).astype(np.float64)
    na = np.sqrt(np.add.reduce(a * a, axis=1))
    nb = np.sqrt(np.add.reduce(b * b, axis=1))
    na[na == 0.0] = 1.0
    nb[nb == 0.0] = 1.0
    a /= na[:, None]
    b /= nb[:, None]
    sims = a @ b.T
    np.maximum(sims, -1.0, out=sims)
    np.minimum(sims, 1.0, out=sims)
    return sims.astype(np.float32)


def match_from_sims(sims):
    """Edges of a similarity matrix: argmax per A row (ties: lowest B), as
    (A position, B position, similarity), sorted by (similarity desc, A
    position asc)."""
    edges = []
    for ai, row in enumerate(sims):
        best_b, best_s = 0, -math.inf
        for bi, s in enumerate(row):
            if s > best_s:
                best_b, best_s = bi, float(s)
        edges.append((ai, best_b, best_s))
    edges.sort(key=lambda e: (-e[2], e[0]))
    return edges


def match_bruteforce(a_keys, b_keys):
    """All-pairs float64 cosine, then the edges of match_from_sims."""
    return match_from_sims([[cosine_f64(a, b) for b in b_keys] for a in a_keys])


def merge_bruteforce(features, sizes, provenance, a_idx, b_idx, edges, m):
    """Execute the top-m edges as weighted means, one list operation at a time."""
    features = [np.asarray(f, dtype=np.float64) for f in features]
    sizes = [int(s) for s in sizes]
    provenance = [set(p) for p in provenance]
    drop = set()
    groups: dict[int, list[int]] = {}
    for ai, bi, _ in edges[:m]:
        groups.setdefault(b_idx[bi], []).append(a_idx[ai])
        drop.add(a_idx[ai])
    out_f, out_s, out_p = [], [], []
    for i in range(len(features)):
        if i in drop:
            continue
        if i in groups:
            members = [i] + groups[i]
            total = sum(sizes[j] for j in members)
            vec = sum(sizes[j] * features[j] for j in members) / total
            prov = set()
            for j in members:
                prov |= provenance[j]
            out_f.append(vec)
            out_s.append(total)
            out_p.append(prov)
        else:
            out_f.append(features[i])
            out_s.append(sizes[i])
            out_p.append(provenance[i])
    return out_f, out_s, out_p


def bottom_k_sort(scores, p):
    """Full sort by (score, index), take the even-floored bottom share."""
    finite = [(float(s), i) for i, s in enumerate(scores) if math.isfinite(s)]
    k = int(math.floor(p * len(finite)))
    k -= k % 2
    finite.sort()
    return [i for _, i in finite[:k]]


def keep_sort(image_indices, scores, keep_rate):
    """(kept, dropped): the ceil(keep_rate * n) image indices best by (score
    desc, index asc), and the rest; each list ascending."""
    order = sorted((int(i) for i in image_indices), key=lambda i: (-float(scores[i]), i))
    keep = min(len(order), math.ceil(keep_rate * len(order)))
    return sorted(order[:keep]), sorted(order[keep:])


def prune_after_merge(class_attention, survivors, cls_index, keep_rate):
    """The paper's prune of a merged batch: rank the survivors' image tokens by
    class attention restricted to them and renormalized to sum 1 (left as is
    when it sums to 0), and keep the ceil(keep_rate * n) best by (weight
    desc, position asc).

    survivors[j] is the pre-merge position of post-merge token j. Returns the
    kept post-merge positions, ascending.
    """
    image = [j for j, i in enumerate(survivors) if i != cls_index]
    att = {j: float(class_attention[survivors[j]]) for j in image}
    total = sum(att.values())
    weights = {j: a / total for j, a in att.items()} if total > 0 else att
    return keep_sort(image, weights, keep_rate)[0]
