"""Correctness checks, computed apart from hamil.

Each function returns a list of problems, empty when the check passes.
They use numpy and scipy only; the one exception is `MergeQueue.validate`,
hamil's own replay contract, which every captured queue must also pass.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np
from scipy.sparse.csgraph import csgraph_from_dense, minimum_spanning_tree
from scipy.spatial.distance import pdist, squareform

HEIGHT_RTOL = 1e-9
FD_STEP = 1e-6
FD_RTOL = 1e-6
FD_ATOL = 1e-9
SHUFFLE_ATOL = 1e-9
AUC_ATOL = 1e-12

def merge_heights(triplets: Sequence[Tuple[int, int, int]],
                  D: np.ndarray) -> np.ndarray:
    """Single-link distance of each merge, replayed from 1-based triplets
    over the instance distance matrix D."""
    members = {i + 1: [i] for i in range(D.shape[0])}
    heights = []
    for left, right, new in triplets:
        a, b = members.pop(left), members.pop(right)
        heights.append(D[np.ix_(a, b)].min())
        members[new] = a + b
    return np.asarray(heights)


def mst_weights(D: np.ndarray) -> np.ndarray:
    """Sorted edge weights of a minimum spanning tree of the complete graph
    on D. Every minimum spanning tree has the same sorted weights, so this
    holds under ties too."""
    W = D.copy()
    np.fill_diagonal(W, np.inf)          # a zero distance stays an edge
    w = minimum_spanning_tree(csgraph_from_dense(W, null_value=np.inf)).data
    # zero-weight edges (duplicate instances) are not kept as entries
    return np.sort(np.concatenate([np.zeros(D.shape[0] - 1 - w.size), w]))


def queue_problems(queue, features: np.ndarray) -> List[str]:
    """A merge queue from build_hierarchy against its (m, d) input features:
    it replays (`validate`), its merge heights never descend, and sorted
    they equal the minimum-spanning-tree weights, as single linkage must."""
    m = features.shape[0]
    try:
        queue.validate(m)
    except ValueError as e:
        return [f"m={m}: validate: {e}"]
    if m < 2:
        return []
    D = squareform(pdist(features))
    heights = merge_heights([(t.left, t.right, t.new) for t in queue], D)
    problems = []
    if np.any(heights[1:] < heights[:-1] * (1 - HEIGHT_RTOL)):
        problems.append(f"m={m}: merge heights descend")
    diff = np.abs(np.sort(heights) - mst_weights(D))
    if np.any(diff > HEIGHT_RTOL * np.abs(np.sort(heights))):
        problems.append(f"m={m}: sorted merge heights differ from the MST "
                        f"weights (max abs diff {diff.max():.3g})")
    return problems


def central_difference(f: Callable[[float], float], x0: float,
                       h: float = FD_STEP) -> Tuple[float, bool]:
    """Central difference of f at x0, and whether f is smooth there.

    Across a kink (a ReLU or max switching, or the merge order changing)
    the forward and backward slopes part, and the central difference is
    off by half their gap; such points are reported as not smooth.
    """
    fp, f0, fm = f(x0 + h), f(x0), f(x0 - h)
    fwd, bwd = (fp - f0) / h, (f0 - fm) / h
    smooth = abs(fwd - bwd) <= 1e-4 * max(abs(fwd), abs(bwd)) + 1e-8
    return (fp - fm) / (2 * h), smooth


def gradient_problems(entries: Dict[str, List[Tuple[float, float, bool]]]
                      ) -> List[str]:
    """entries[param] = [(analytic, central difference, smooth), ...].
    Every smooth entry must match; each parameter needs one smooth entry."""
    problems = []
    for name, rows in entries.items():
        smooth = [(a, n) for a, n, ok in rows if ok]
        if not smooth:
            problems.append(f"{name}: no entry where the loss is smooth")
        for a, n in smooth:
            if abs(a - n) > FD_RTOL * max(abs(a), abs(n)) + FD_ATOL:
                problems.append(f"{name}: analytic {a!r} vs finite "
                                f"difference {n!r}")
    return problems


def probability_problems(first: Dict[str, np.ndarray],
                         second: Dict[str, np.ndarray]) -> List[str]:
    """Eval probabilities are finite, inside (0, 1), and bit-identical on a
    second pass."""
    problems = []
    if first.keys() != second.keys():
        return ["the two eval passes scored different bags"]
    for bag_id, p in first.items():
        if not (np.all(np.isfinite(p)) and np.all((p > 0) & (p < 1))):
            problems.append(f"{bag_id}: probability {p} outside (0, 1)")
        if p.tobytes() != second[bag_id].tobytes():
            problems.append(f"{bag_id}: second eval pass gave "
                            f"{second[bag_id]} after {p}")
    return problems


def distinct_distances(features: np.ndarray) -> bool:
    d = pdist(features)
    return np.unique(d).size == d.size


def logit(p: float) -> float:
    return float(np.log(p) - np.log1p(-p))


def shuffle_problems(bag_id: str, p: float, p_shuffled: float) -> List[str]:
    """Permuting a bag's instances leaves its eval logit unchanged."""
    diff = abs(logit(p_shuffled) - logit(p))
    if diff < SHUFFLE_ATOL:
        return []
    return [f"{bag_id}: shuffling the instances moved the logit by {diff:.3g}"]


def pairwise_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Share of (positive, negative) pairs ordered correctly, ties half."""
    pos, neg = scores[labels > 0.5], scores[labels <= 0.5]
    greater = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((greater + 0.5 * ties) / (pos.size * neg.size))


def auc_problems(reported: float, scores: np.ndarray,
                 labels: np.ndarray) -> List[str]:
    counted = pairwise_auc(scores, labels)
    if abs(counted - reported) <= AUC_ATOL:
        return []
    return [f"evaluate's AUC {reported!r} but pairwise counting gives {counted!r}"]
