import math

import numpy as np
import pytest

from hamil.hierclust import (EmptyBagError, MergeQueue, MergeTriplet,
                             QueueIntegrityError, build_hierarchy,
                             pairwise_instance_distance)
from hamil.oracles import cluster_distance, naive_single_link


def as_tuples(queue):
    return [(t.left, t.right, t.new) for t in queue]


class TestPairwiseDistance:
    def test_identical_is_zero(self, rng):
        a = rng.standard_normal(7)
        assert pairwise_instance_distance(a, a) == 0.0

    def test_three_four_five(self):
        assert pairwise_instance_distance([0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_matches_naive_sum_of_squares(self, rng):
        for _ in range(100):
            a = rng.standard_normal(12)
            b = rng.standard_normal(12)
            expected = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
            assert abs(pairwise_instance_distance(a, b) - expected) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            pairwise_instance_distance([1.0], [1.0, 2.0])


class TestClusterDistance:
    def test_singletons_equal_instance_distance(self, rng):
        feats = rng.standard_normal((2, 4))
        assert abs(cluster_distance([0], [1], feats)
                   - pairwise_instance_distance(feats[0], feats[1])) < 1e-12

    def test_single_link_on_a_line(self):
        feats = np.array([[0.0], [10.0], [4.0]])
        assert cluster_distance([0, 1], [2], feats) == 4.0

    def test_matches_exhaustive_double_loop(self, rng):
        for _ in range(50):
            feats = rng.standard_normal((8, 3))
            A, B = [0, 2, 5], [1, 3, 7]
            expected = min(pairwise_instance_distance(feats[i], feats[j])
                           for i in A for j in B)
            assert cluster_distance(A, B, feats) == expected

    def test_empty_cluster_rejected(self, rng):
        with pytest.raises(ValueError, match="empty"):
            cluster_distance([], [0], rng.standard_normal((2, 2)))


class TestBuildHierarchy:
    def test_forced_merge_order_on_line(self):
        queue = build_hierarchy([[0.0], [1.0], [10.0]])
        assert as_tuples(queue) == [(1, 2, 4), (3, 4, 5)]

    def test_single_instance_empty_queue(self):
        queue = build_hierarchy([[1.0, 2.0]])
        assert len(queue) == 0

    def test_two_instances(self):
        assert as_tuples(build_hierarchy([[0.0], [5.0]])) == [(1, 2, 3)]

    def test_empty_bag(self):
        with pytest.raises(EmptyBagError):
            build_hierarchy([])

    def test_ragged_features(self):
        with pytest.raises(ValueError, match="length"):
            build_hierarchy([[1.0, 2.0], [1.0]])

    def test_queue_length_is_m_minus_one(self, rng):
        for m in (1, 2, 5, 9):
            feats = rng.standard_normal((m, 3))
            assert len(build_hierarchy(feats)) == m - 1

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(200):
            m = int(rng.integers(1, 13))
            feats = rng.standard_normal((m, int(rng.integers(1, 5))))
            assert as_tuples(build_hierarchy(feats)) == naive_single_link(feats)

    def test_exact_tie_follows_scan_order(self):
        # exactly representable 1-D distances: (1,2) and (2,3) tie at 1.0,
        # the first pair in scan order wins
        feats = np.array([[0.0], [1.0], [2.0]])
        assert as_tuples(build_hierarchy(feats)) == [(1, 2, 4), (3, 4, 5)]
        assert naive_single_link(feats) == [(1, 2, 4), (3, 4, 5)]

    def test_duplicate_points(self):
        feats = np.array([[1.0], [1.0], [1.0], [5.0]])
        assert as_tuples(build_hierarchy(feats)) == naive_single_link(feats)


def canonical_tree(features):
    """Unordered hierarchy: frozenset of merged instance-feature multisets,
    independent of instance presentation order."""
    m = len(features)
    queue = build_hierarchy(features)
    sets = {i + 1: frozenset({tuple(np.ravel(features[i]))})
            for i in range(m)}
    merged = set()
    for t in queue:
        sets[t.new] = sets[t.left] | sets[t.right]
        merged.add(sets[t.new])
    return merged


class TestPermutationInvariance:
    def test_unordered_hierarchy_invariant(self, rng):
        feats = rng.standard_normal((8, 4))
        d = np.linalg.norm(feats[:, None] - feats[None, :], axis=-1)
        off = d[np.triu_indices(8, 1)]
        assert len(np.unique(off)) == len(off)  # distinct decision distances
        reference = canonical_tree(feats)
        for _ in range(50):
            perm = rng.permutation(8)
            assert canonical_tree(feats[perm]) == reference


class TestQueueContract:
    def test_replay_never_reuses_indices(self, rng):
        for _ in range(30):
            m = int(rng.integers(1, 10))
            queue = build_hierarchy(rng.standard_normal((m, 2)))
            queue.validate(m)  # raises on reuse/forward reference

    def test_validate_rejects_consumed_index(self):
        bad = MergeQueue((MergeTriplet(1, 2, 4), MergeTriplet(1, 4, 5)))
        with pytest.raises(QueueIntegrityError):
            bad.validate(3)

    def test_validate_rejects_wrong_length(self):
        with pytest.raises(QueueIntegrityError, match="length"):
            MergeQueue(()).validate(3)

    def test_triplet_ordering_enforced(self):
        with pytest.raises(QueueIntegrityError):
            MergeTriplet(2, 1, 3)

    def test_json_round_trip(self, rng):
        queue = build_hierarchy(rng.standard_normal((6, 2)))
        assert MergeQueue.from_json(queue.to_json()) == queue
