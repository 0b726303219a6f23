"""Single-link agglomerative hierarchy over a bag's instances.

Builds the merge-triplet queue that fixes the aggregation order: clusters
start as singletons with indices 1..m, every merge consumes the first
minimal cross-cluster pair in ascending-index scan order (strict "<") and
appends a triplet <left, right, new> with the fresh index max+1.

Clustering is combinatorial: no gradients flow through it, callers pass
detached feature arrays.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from typing import List

import numpy as np


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


def pairwise_instance_distance(a, b) -> float:
    """Euclidean distance between two equal-length feature vectors."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    d = a - b
    # same reduction as the matrix path below, so cluster distances match
    # instance distances bit for bit
    return float(np.sqrt(np.sum(d * d)))


def _feature_matrix(features) -> np.ndarray:
    F = [np.asarray(f, dtype=np.float64).ravel() for f in features]
    dim = F[0].shape[0]
    for i, f in enumerate(F):
        if f.shape[0] != dim:
            raise ValueError(
                f"instance {i} has feature length {f.shape[0]}, expected {dim}")
    return np.stack(F)


def build_hierarchy(features) -> MergeQueue:
    """Agglomerate m instance embeddings into a merge queue of length m-1.

    Scan order is i ascending then j ascending over active clusters ordered
    by index; a pair wins only with a strictly smaller distance, so the
    first minimal pair in scan order is merged. Cluster distances are
    maintained incrementally via min(d(.,C1), d(.,C2)), which is exactly
    the min over cross pairs, so results are bit-identical to the naive
    rescan.
    """
    m = len(features)
    if m == 0:
        raise EmptyBagError("cannot build a hierarchy for an empty bag")
    F = _feature_matrix(features)
    if m == 1:
        return MergeQueue(())

    total = 2 * m - 1
    D = np.full((total, total), np.inf)
    for i in range(m):
        diff = F - F[i]
        D[i, :m] = np.sqrt(np.sum(diff * diff, axis=1))
    np.fill_diagonal(D, np.inf)

    # nn_val[i]: min distance from cluster i to any active cluster with a
    # larger index; nn_j[i]: the smallest such index attaining it.
    nn_val = np.full(total, np.inf)
    nn_j = np.full(total, -1, dtype=np.int64)
    for i in range(m - 1):
        row = D[i, i + 1:m]
        k = int(np.argmin(row))
        nn_val[i] = row[k]
        nn_j[i] = i + 1 + k

    active: List[int] = list(range(m))  # always sorted ascending
    triplets = []
    for step in range(m - 1):
        act = np.asarray(active)
        a = active[int(np.argmin(nn_val[act]))]  # first row with minimal value
        b = int(nn_j[a])
        c = m + step
        active.remove(a)
        active.remove(b)
        rest = np.asarray(active)
        if rest.size:
            merged = np.minimum(D[rest, a], D[rest, b])
            D[rest, c] = merged
            D[c, rest] = merged
        active.append(c)
        nn_val[c] = np.inf
        nn_j[c] = -1
        if rest.size:
            # rows whose cached minimum pointed at a consumed cluster must
            # rescan; others only check the new cluster (index c is the
            # largest, so on ties the cached smaller index stands).
            stale = rest[(nn_j[rest] == a) | (nn_j[rest] == b)]
            for i in stale.tolist():
                js = active[bisect_right(active, i):]
                row = D[i, js]
                k = int(np.argmin(row))
                nn_val[i] = row[k]
                nn_j[i] = js[k]
            fresh = D[rest, c] < nn_val[rest]
            nn_val[rest[fresh]] = D[rest[fresh], c]
            nn_j[rest[fresh]] = c
        triplets.append(MergeTriplet(a + 1, b + 1, c + 1))
    return MergeQueue(tuple(triplets))
