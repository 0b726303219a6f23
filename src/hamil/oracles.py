"""Reference implementations the fast paths are checked against.

Brute-force single link, the quadratic pairwise AUC, a literal-loop 2-D
cross-correlation and central finite differences share no code with the
library routines they check (`hierclust.build_hierarchy`,
`train_eval.auc_score`, `tensor.conv2d`, `Tensor.backward`). The
instance and cluster distances restate, one pair at a time, the
arithmetic of `hierclust.distance_matrix`. `hamil selftest` and the test
suite both use them.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np


def naive_single_link(features):
    """Literal agglomerator: rescan every cluster pair each round, strict
    '<' over ascending indices, no caching. Pure Python arithmetic; a
    distance that overflows is inf and ties like any other."""

    def dist(p, q):
        diffs = [float(x) - float(y) for x, y in zip(features[p], features[q])]
        return math.sqrt(sum(d * d for d in diffs))   # d ** 2 would raise

    m = len(features)
    clusters = {i + 1: [i] for i in range(m)}
    next_idx = m
    triplets = []
    while len(clusters) > 1:
        idxs = sorted(clusters)
        best = None
        for a_pos in range(len(idxs) - 1):
            for b_pos in range(a_pos + 1, len(idxs)):
                a, b = idxs[a_pos], idxs[b_pos]
                d = min(dist(p, q) for p in clusters[a] for q in clusters[b])
                if best is None or d < best[0]:
                    best = (d, a, b)
        _, a, b = best
        next_idx += 1
        clusters[next_idx] = clusters.pop(a) + clusters.pop(b)
        triplets.append((a, b, next_idx))
    return triplets


def pairwise_instance_distance(a, b) -> float:
    """Euclidean distance between two equal-length feature vectors, with
    the reduction `hierclust.distance_matrix` uses, so the two agree bit
    for bit."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    d = a - b
    return float(np.sqrt(np.sum(d * d)))


def cluster_distance(A: Sequence[int], B: Sequence[int], features) -> float:
    """Single-link distance: min over all cross-cluster instance pairs."""
    if not len(A) or not len(B):
        raise ValueError("cluster_distance on an empty cluster")
    F = np.stack([np.asarray(f, dtype=np.float64).ravel() for f in features])
    diff = F[list(A)][:, None, :] - F[list(B)][None, :, :]
    # sqrt is exact and monotone: sqrt(min(d2)) == min(sqrt(d2)) bitwise
    return float(np.sqrt(np.sum(diff * diff, axis=-1).min()))


def pairwise_auc(scores, targets) -> float:
    """Quadratic oracle: P(score_pos > score_neg) + 0.5 P(tie)."""
    pos = [s for s, t in zip(scores, targets) if t > 0.5]
    neg = [s for s, t in zip(scores, targets) if t <= 0.5]
    total = 0.0
    for p, n in itertools.product(pos, neg):
        total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def loop_conv2d(x, weight, bias, padding: int = 0) -> np.ndarray:
    """Literal zero-padded cross-correlation of x[..., Cin, H, W] with
    weight[Cout, Cin, kh, kw]: one Python multiply-add per tap, taps that
    fall in the padding skipped."""
    x = np.asarray(x, dtype=np.float64)
    *lead, cin, H, W = x.shape
    cout, _, kh, kw = weight.shape
    Ho, Wo = H + 2 * padding - kh + 1, W + 2 * padding - kw + 1
    out = np.zeros((*lead, cout, Ho, Wo))
    for n in np.ndindex(*lead):
        for o, r, c in itertools.product(range(cout), range(Ho), range(Wo)):
            acc = float(bias[o])
            for i, u, v in itertools.product(range(cin), range(kh), range(kw)):
                y, z = r + u - padding, c + v - padding
                if 0 <= y < H and 0 <= z < W:
                    acc += float(x[n + (i, y, z)]) * float(weight[o, i, u, v])
            out[n + (o, r, c)] = acc
    return out


def numeric_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x, dtype=np.float64)
    for idx in np.ndindex(*x.shape):
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2 * h)
    return g


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-8)
    return float(np.max(np.abs(a - b) / denom))
