"""Single-link agglomerative hierarchy over a bag's instances.

Builds the merge-triplet queue that fixes the aggregation order: clusters
start as singletons with indices 1..m, every merge consumes the first
minimal cross-cluster pair in ascending-index scan order (strict "<") and
appends a triplet <left, right, new> with the fresh index max+1. The
merges are read off a minimum spanning tree of the instance distances,
with tied heights resolved by that same scan rule (`build_hierarchy`).

Clustering is combinatorial: no gradients flow through it, callers pass
detached feature arrays.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

_BLOCK_BYTES = 2 << 20     # difference buffer of `distance_matrix`


class EmptyBagError(ValueError):
    """Raised when a hierarchy is requested for zero instances."""


class QueueIntegrityError(ValueError):
    """Raised when a merge queue references invalid cluster indices."""


@dataclass(frozen=True)
class MergeTriplet:
    left: int
    right: int
    new: int

    def __post_init__(self):
        if not self.left < self.right < self.new:
            raise QueueIntegrityError(
                f"bad triplet <{self.left},{self.right},{self.new}>: "
                "requires left < right < new")


@dataclass(frozen=True)
class MergeQueue:
    """Ordered aggregation history; length m-1 for a bag of m instances."""

    triplets: tuple

    def __len__(self):
        return len(self.triplets)

    def __iter__(self):
        return iter(self.triplets)

    def to_json(self) -> str:
        return json.dumps([[t.left, t.right, t.new] for t in self.triplets])

    @staticmethod
    def from_json(s: str) -> "MergeQueue":
        return MergeQueue(tuple(MergeTriplet(*row) for row in json.loads(s)))

    def validate(self, m: int) -> None:
        """Check the queue replays cleanly for a bag of m instances."""
        if len(self.triplets) != max(m - 1, 0):
            raise QueueIntegrityError(
                f"queue length {len(self.triplets)} for bag of {m} instances")
        alive = set(range(1, m + 1))
        next_index = m + 1
        for t in self.triplets:
            if t.left not in alive or t.right not in alive:
                raise QueueIntegrityError(
                    f"triplet <{t.left},{t.right},{t.new}> references a "
                    "consumed or unknown cluster")
            if t.new != next_index:
                raise QueueIntegrityError(
                    f"triplet new index {t.new}, expected {next_index}")
            alive.discard(t.left)
            alive.discard(t.right)
            alive.add(t.new)
            next_index += 1


def feature_matrix(features) -> np.ndarray:
    """One float64 row per instance: an (m, ...) array is reshaped to
    (m, D), a sequence of arrays is flattened and stacked."""
    if isinstance(features, np.ndarray):
        return features.astype(np.float64, copy=False).reshape(len(features), -1)
    F = [np.asarray(f, dtype=np.float64).ravel() for f in features]
    dim = F[0].shape[0]
    for i, f in enumerate(F):
        if f.shape[0] != dim:
            raise ValueError(
                f"instance {i} has feature length {f.shape[0]}, expected {dim}")
    return np.stack(F)


def distance_matrix(F: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of F as sqrt(sum(diff*diff)),
    the arithmetic of `oracles.pairwise_instance_distance`. Each block of
    rows is computed against itself and the rows after it, so that the
    (rows, m, D) difference buffer stays near 2 MB, and mirrored: d(j, i)
    sums the same squares in the same order as d(i, j)."""
    m, dim = F.shape
    rows = min(m, max(1, _BLOCK_BYTES // (8 * m * max(dim, 1))))
    buf = np.empty((rows, m, dim))
    D = np.empty((m, m))
    with np.errstate(over="ignore"):         # an overflow is a tie at inf
        for s in range(0, m, rows):
            e = min(s + rows, m)
            diff = buf[:e - s, :m - s]
            np.subtract(F[s:e, None, :], F[None, s:, :], out=diff)
            np.multiply(diff, diff, out=diff)
            np.sqrt(np.sum(diff, axis=-1), out=D[s:e, s:])
            D[e:, s:e] = D[s:e, e:].T
    return D


def _prim(D: np.ndarray):
    """Minimum spanning tree of the complete graph D by Prim's algorithm:
    (weight, u, v) of its m-1 edges, v being the vertex each step adds.
    Which of several equal-weight edges it takes is arbitrary, so
    `build_hierarchy` uses only the weights of tied edges."""
    m = D.shape[0]
    best = D[0].copy()               # distance of each vertex to the tree
    src = np.zeros(m, dtype=np.intp)
    out = np.ones(m, dtype=bool)     # not yet in the tree
    out[0], best[0] = False, np.inf
    edges = []
    for _ in range(m - 1):
        v = int(best.argmin())
        if not out[v]:               # all remaining vertices at inf
            v = int(out.argmax())
        edges.append((float(best[v]), int(src[v]), v))
        out[v], best[v] = False, np.inf
        row = D[v]
        closer = row < best
        closer &= out
        np.putmask(best, closer, row)
        np.putmask(src, closer, v)
    return edges


def build_hierarchy(features) -> MergeQueue:
    """Agglomerate m instance embeddings into a merge queue of length m-1.

    The merges are those of the naive rescan (`oracles.naive_single_link`):
    each step merges the first minimal cluster pair in scan order, i
    ascending then j ascending, with a strict "<". Single-link merge
    heights are the weights of a minimum spanning tree, so one tree is
    built (Prim) and its edges are replayed by ascending weight. A weight
    carried by one tree edge names its cluster pair. A weight h carried by
    several is resolved by the scan rule itself: every instance pair at
    exactly h across clusters is a tie edge, and the smallest (i, j)
    cluster pair among them is merged until none is left.
    """
    m = len(features)
    if m == 0:
        raise EmptyBagError("cannot build a hierarchy for an empty bag")
    F = feature_matrix(features)
    bad = ~np.isfinite(F).all(axis=1)
    if bad.any():
        raise ValueError(f"instance {int(bad.argmax())} has a non-finite "
                         "feature value")
    D = distance_matrix(F)

    # 0-based labels; parent[c] == c for every live cluster, and a merged
    # cluster points at the one it went into, which has a larger label
    parent = list(range(2 * m - 1))
    triplets = []

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def merge(a, b):
        c = m + len(triplets)
        parent[a] = parent[b] = c
        triplets.append(MergeTriplet(a + 1, b + 1, c + 1))
        return c

    edges = sorted(_prim(D))
    ties = _tie_instances(D, sorted({w for (w, *_), (x, *_)
                                     in zip(edges, edges[1:]) if w == x}))
    for h, group in itertools.groupby(edges, key=itemgetter(0)):
        (_, u, v), *more = group
        if not more:
            a, b = find(u), find(v)
            merge(min(a, b), max(a, b))
            continue
        # The smallest (i, j) pair has i = the smallest live cluster with a
        # tie neighbour and j = that cluster's smallest neighbour. A merge
        # leaves the smaller clusters isolated and takes the largest label,
        # so i only ascends: one sweep over the labels, the new ones
        # appended as they are made, finds every merge in order.
        inst = ties[h]                       # the instances with a tie at h
        label = np.array([find(x) for x in inst.tolist()])
        tied = D[np.ix_(inst, inst)] == h
        sweep = np.unique(label).tolist()
        for a in sweep:
            if parent[a] != a:
                continue
            members = label == a
            near = np.unique(label[tied[members].any(axis=0)])
            near = near[near != a]
            if near.size:
                b = int(near[0])
                c = merge(a, b)
                label[members | (label == b)] = c
                sweep.append(c)
    return MergeQueue(tuple(triplets))


def _tie_instances(D: np.ndarray, weights) -> dict:
    """{h: the instances with another instance at distance exactly h},
    for each h in weights, from one pass over D."""
    if not weights:
        return {}
    hit = np.isin(D, weights)
    np.fill_diagonal(hit, False)
    h = D[hit]                                         # in row-major order
    rows = np.repeat(np.arange(len(D)), hit.sum(axis=1))
    return {w: np.flatnonzero(np.bincount(rows[h == w], minlength=len(D)))
            for w in weights}
