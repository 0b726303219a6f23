import hashlib
import math

import numpy as np
import pytest

from hamil.hierclust import (EmptyBagError, MergeQueue, MergeTriplet,
                             QueueIntegrityError, build_hierarchy,
                             distance_matrix)
from hamil.oracles import (cluster_distance, naive_single_link,
                           pairwise_instance_distance)


def as_tuples(queue):
    return [(t.left, t.right, t.new) for t in queue]


TIE_KINDS = ("relu", "zero_rows", "duplicates", "integer", "paired_gaps",
             "all_zero")


def tie_bag(kind, m, seed=0):
    """Seeded bags rich in exact distance ties: ReLU rows, ReLU rows with
    about 30 % all-zero rows, ReLU rows with a quarter copied from others,
    integer features in {0, 1, 2}^4, points on a line whose consecutive
    gaps each occur twice (about m/2 tied tree weights), and all-zero
    rows (one tie among all m)."""
    rng = np.random.default_rng([seed, m, TIE_KINDS.index(kind)])
    if kind == "integer":
        return rng.integers(0, 3, (m, 4)).astype(np.float64)
    if kind == "paired_gaps":
        gaps = np.repeat(np.arange(1.0, m // 2 + 2), 2)[:m - 1]
        return np.concatenate([[0.0], np.cumsum(gaps)])[rng.permutation(m), None]
    if kind == "all_zero":
        return np.zeros((m, 4))
    X = np.maximum(rng.standard_normal((m, 16)), 0.0)
    if kind == "zero_rows":
        X[rng.random(m) < 0.3] = 0.0
    elif kind == "duplicates":
        dst = rng.choice(m, m // 4, replace=False)
        X[dst] = X[rng.integers(0, m, dst.size)]
    return X


# sha256 of `to_json()` of the queues the nearest-neighbour-cache
# agglomerator (the implementation before the spanning-tree one) built
PINNED_QUEUES = {
    ("relu", 50): "bfce5f001d24c53469dd485d12ca94b053f11584258f39c5ec627d5245ffaa80",
    ("zero_rows", 50): "d7749e30e7f2f68e0137472c0292dba6402728db7a09a74e987fb2d2ae16ad46",
    ("duplicates", 50): "4712311f106e4b617018e3ec4cc35cbc3e13915c007c0d0a22544e2a1a6f2745",
    ("integer", 50): "e38465dbbbefd27c5fb9b753c109e38a1523605021c24704073094cc3222197c",
    ("relu", 200): "513c8351383f2c21cf070f4e49f8ffc9f58edcb2f3950b15386114cc2d390dcd",
    ("zero_rows", 200): "91e736843505529b1d6df877dcf949619a17b3273a2862fa202fc8d3fa573029",
    ("duplicates", 200): "2d1549a48adf9cc460e1198c162daeb29d44bd71789308242c72cd7cc261a7ee",
    ("integer", 200): "97286a2e4c3854caba16f1462244d05f176dfa50ef8e100ecbfd1458ca52a0c1",
    ("relu", 800): "306f52b8df3f0519c7f63602f119d8030aca48007eb7e298d4f553716b4c5d05",
    ("zero_rows", 800): "cee35db3ba6aa65b32a97ff5a9ffb7e6a8640b273fbc407d8bbfd530a642d3c7",
    ("duplicates", 800): "a0a962dcc12761c5a3196913d085f73f62bb128d9b8615a7451c61ab8d960eda",
    ("integer", 800): "514f1c873c911295e9496eb2f02c94ae66944adae9522d4dafcae8c28c644751",
    ("paired_gaps", 50): "f6f76a720df4a4bb4d53b48ac7d8fdd24182139212f26117a31a504d8561bf7c",
    ("paired_gaps", 200): "803497531bcc7096917f810a2ee66ad148465586eeba081da3c20f28f1c9e909",
    ("paired_gaps", 800): "39d4dad81a4b49bbc58c0dd8c023c760acb0dad2067b849e4b318c498b0aea16",
    ("all_zero", 50): "701ca2dbe00c95fa6ed49cffca1129355c9ea48601dfa28397bc44f2acea6b60",
    ("all_zero", 200): "491832bf8693652a5fa45ad27c983a94a831e0a2948178d9b56d07b039c77114",
    ("all_zero", 800): "75198d8545fbc60f517543da70af3d6c08d64af8535bbd81c3e38ca5c26232ed",
}


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

    @pytest.mark.parametrize("kind", TIE_KINDS)
    def test_tie_heavy_bags_match_brute_force(self, kind):
        for m in (2, 3, 7, 12, 20, 25):
            for seed in range(3):
                feats = tie_bag(kind, m, seed)
                assert as_tuples(build_hierarchy(feats)) \
                    == naive_single_link(feats), (kind, m, seed)

    def test_list_matrix_and_image_inputs_agree(self, rng):
        maps = rng.integers(0, 2, (9, 2, 3, 3)).astype(np.float32)
        flat = maps.reshape(9, -1).astype(np.float64)
        expected = naive_single_link(flat)
        assert as_tuples(build_hierarchy(maps)) == expected
        assert as_tuples(build_hierarchy(list(maps))) == expected
        assert as_tuples(build_hierarchy(flat)) == expected

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_names_the_instance(self, bad):
        feats = [[0.0, 1.0], [bad, 2.0], [3.0, 4.0]]
        with pytest.raises(ValueError, match="instance 1 has a non-finite"):
            build_hierarchy(feats)

    def test_overflowing_distances_tie_at_inf(self):
        # every squared difference overflows: all three distances are inf,
        # and the first pair in scan order wins each round
        feats = [[0.0], [1e200], [-1e200]]
        assert as_tuples(build_hierarchy(feats)) == [(1, 2, 4), (3, 4, 5)]
        assert naive_single_link(feats) == [(1, 2, 4), (3, 4, 5)]

    def test_overflow_mixed_with_finite_distances(self):
        feats = [[3e200], [0.0], [1e200], [-1e200], [1.0]]
        assert as_tuples(build_hierarchy(feats)) == naive_single_link(feats)


class TestPinnedQueues:
    @pytest.mark.parametrize("kind,m", sorted(PINNED_QUEUES))
    def test_queue_digest(self, kind, m):
        queue = build_hierarchy(tie_bag(kind, m))
        queue.validate(m)
        digest = hashlib.sha256(queue.to_json().encode()).hexdigest()
        assert digest == PINNED_QUEUES[kind, m]


class TestDistanceMatrix:
    @pytest.mark.parametrize("m,dim", [(1, 3), (2, 1), (5, 166), (40, 64),
                                       (300, 64), (301, 7)])
    def test_byte_equal_to_per_row_loop(self, rng, m, dim):
        # (300, 64) and (301, 7) take several row blocks, the last one short
        F = np.maximum(rng.standard_normal((m, dim)), 0.0)
        F[rng.random(m) < 0.2] = 0.0
        expected = np.empty((m, m))
        for i in range(m):
            diff = F - F[i]
            expected[i] = np.sqrt(np.sum(diff * diff, axis=1))
        assert distance_matrix(F).tobytes() == expected.tobytes()

    def test_matches_pairwise_instance_distance(self, rng):
        F = rng.standard_normal((6, 11))
        D = distance_matrix(F)
        for i in range(6):
            for j in range(6):
                assert D[i, j] == pairwise_instance_distance(F[i], F[j])


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
