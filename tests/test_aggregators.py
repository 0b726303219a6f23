import numpy as np
import pytest

from hamil import aggregators
from hamil import tensor as T
from hamil.aggregators import (AggregatorSpec, AggUnitParams, AttentionParams,
                               aggregate, aggregate_pair,
                               attention_aggregate, canonical_order,
                               hamil_a_aggregate, hamil_aggregate,
                               instance_scores, pool_aggregate, ramil_aggregate)
from hamil.data import Bag
from hamil.hierclust import MergeQueue, MergeTriplet, QueueIntegrityError, build_hierarchy
from hamil.models import build_model
from hamil.tensor import Tensor
from hamil.train_eval import OptimizerConfig, train

from hamil.oracles import numeric_grad, relative_error


def make_unit(mode="1d", layers=1, k=7, bn=False, seed=0):
    spec = AggregatorSpec(kind="hamil", layers=layers, kernel_size=k,
                          use_batchnorm=bn)
    return AggUnitParams(spec, mode, np.random.default_rng(seed))


class TestAggregatePair:
    def test_1d_mean_kernel(self, rng):
        params = AggUnitParams.mean_kernel(AggregatorSpec(kernel_size=1), "1d")
        a, b = Tensor(rng.standard_normal(6)), Tensor(rng.standard_normal(6))
        out = aggregate_pair(a, b, params)
        np.testing.assert_allclose(out.data, (a.data + b.data) / 2, atol=1e-15)

    def test_2d_centered_mean_kernel(self, rng):
        params = AggUnitParams.mean_kernel(AggregatorSpec(kernel_size=7), "2d")
        a = Tensor(rng.standard_normal((3, 5, 5)))
        b = Tensor(rng.standard_normal((3, 5, 5)))
        out = aggregate_pair(a, b, params)
        np.testing.assert_allclose(out.data, (a.data + b.data) / 2, atol=1e-15)

    def test_2d_matches_per_channel_reference(self, rng):
        # reference: the 1-layer 2-D unit run channel by channel, the
        # (1, H, W) outputs stacked and reshaped back to (C, H, W)
        params = make_unit("2d", k=3, seed=5)
        w, bias = params.weights[0], params.biases[0]

        def per_channel(a, b):
            return T.reshape(T.stack([T.conv2d(T.stack([a[c], b[c]]), w, bias,
                                               params.padding)
                                      for c in range(a.data.shape[0])]),
                             a.data.shape)

        av, bv = rng.standard_normal((4, 5, 5)), rng.standard_normal((4, 5, 5))
        G = Tensor(rng.standard_normal((4, 5, 5)))
        results = []
        for fuse in (lambda a, b: aggregate_pair(a, b, params), per_channel):
            a, b = Tensor(av, requires_grad=True), Tensor(bv, requires_grad=True)
            w.grad = bias.grad = None
            out = fuse(a, b)
            T.sum_all(T.mul(out, G)).backward()
            results.append([out.data, a.grad, b.grad, w.grad, bias.grad])
        for got, ref in zip(*results):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_2d_batchnorm_shares_statistics_across_channels(self, rng):
        params = make_unit("2d", k=3, bn=True, seed=6)
        av, bv = rng.standard_normal((3, 4, 4)), rng.standard_normal((3, 4, 4))
        aggregate_pair(Tensor(av), Tensor(bv), params, training=True)
        conv = T.conv2d(Tensor(np.stack([av, bv], axis=1)), params.weights[0],
                        params.biases[0], params.padding).data   # (3, 1, 4, 4)
        state = params.bn_state[0]
        np.testing.assert_allclose(state.running_mean, [0.1 * conv.mean()],
                                   rtol=1e-12)
        np.testing.assert_allclose(state.running_var, [0.9 + 0.1 * conv.var()],
                                   rtol=1e-12)

    def test_shape_mismatch(self, rng):
        params = make_unit("1d")
        with pytest.raises(T.ShapeError):
            aggregate_pair(Tensor(rng.standard_normal(4)),
                           Tensor(rng.standard_normal(5)), params)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            AggregatorSpec(kernel_size=4)

    def test_output_shape_matches_input(self, rng):
        p1 = make_unit("1d", layers=3, k=5)
        out = aggregate_pair(Tensor(rng.standard_normal(9)),
                             Tensor(rng.standard_normal(9)), p1)
        assert out.data.shape == (9,)
        p2 = make_unit("2d", layers=2, k=3)
        out = aggregate_pair(Tensor(rng.standard_normal((4, 6, 6))),
                             Tensor(rng.standard_normal((4, 6, 6))), p2)
        assert out.data.shape == (4, 6, 6)

    @pytest.mark.parametrize("mode,shape", [("1d", (8,)), ("2d", (2, 5, 5))])
    def test_gradients_on_inputs_and_params(self, rng, mode, shape):
        params = make_unit(mode, layers=2, k=3, seed=3)
        av = rng.standard_normal(shape)
        bv = rng.standard_normal(shape)

        def loss_wrt_a(v):
            return T.sum_all(aggregate_pair(Tensor(v), Tensor(bv), params)).item()

        a = Tensor(av, requires_grad=True)
        out = T.sum_all(aggregate_pair(a, Tensor(bv), params))
        out.backward()
        assert relative_error(a.grad, numeric_grad(loss_wrt_a, av)) < 1e-5

        w = params.weights[0]
        wv = w.data.copy()

        def loss_wrt_w(v):
            w.data = v
            val = T.sum_all(aggregate_pair(Tensor(av), Tensor(bv), params)).item()
            w.data = wv
            return val

        for p in params.weights + params.biases:
            p.grad = None
        out = T.sum_all(aggregate_pair(Tensor(av), Tensor(bv), params))
        out.backward()
        assert relative_error(w.grad, numeric_grad(loss_wrt_w, wv)) < 1e-5


class TestHamilReplay:
    def test_single_instance_identity(self, rng):
        X = Tensor(rng.standard_normal((1, 5)))
        out = hamil_aggregate(X, MergeQueue(()), make_unit())
        np.testing.assert_array_equal(out.data, X.data[0])

    def test_mean_kernel_three_instances(self, rng):
        params = AggUnitParams.mean_kernel(AggregatorSpec(kernel_size=1), "1d")
        X = Tensor(rng.standard_normal((3, 4)))
        queue = MergeQueue((MergeTriplet(1, 2, 4), MergeTriplet(3, 4, 5)))
        out = hamil_aggregate(X, queue, params)
        expected = ((X.data[0] + X.data[1]) / 2 + X.data[2]) / 2
        np.testing.assert_allclose(out.data, expected, atol=1e-15)

    @pytest.mark.parametrize("k", [1, 3])
    def test_order_maps_leaves_to_rows(self, rng, k):
        # leaf i reads row order[i-1]: the same as replaying X[order]
        params = AggUnitParams.mean_kernel(AggregatorSpec(kernel_size=k), "1d")
        X = rng.standard_normal((4, 3))
        queue = MergeQueue((MergeTriplet(1, 2, 5), MergeTriplet(3, 5, 6),
                            MergeTriplet(4, 6, 7)))
        order = [2, 0, 3, 1]
        got = hamil_aggregate(Tensor(X), queue, params, order=order)
        ref = hamil_aggregate(Tensor(X[order]), queue, params)
        np.testing.assert_array_equal(got.data, ref.data)
        got_a = hamil_a_aggregate(Tensor(X), queue, order=order)
        np.testing.assert_array_equal(
            got_a.data, hamil_a_aggregate(Tensor(X[order]), queue).data)

    def test_matches_hand_unrolled_composition(self, rng):
        params = make_unit("1d", layers=1, k=3, seed=5)
        for _ in range(20):
            m = int(rng.integers(2, 6))
            xs = [Tensor(rng.standard_normal(6)) for _ in range(m)]
            queue = build_hierarchy([x.data for x in xs])
            out = hamil_aggregate(T.stack(xs), queue, params)
            slots = {i + 1: xs[i] for i in range(m)}
            for t in queue:
                slots[t.new] = aggregate_pair(slots[t.left], slots[t.right], params)
            np.testing.assert_array_equal(out.data, slots[max(slots)].data)

    def test_malformed_queue(self, rng):
        X = Tensor(rng.standard_normal((3, 3)))
        bad = MergeQueue((MergeTriplet(1, 5, 6), MergeTriplet(2, 3, 7)))
        with pytest.raises(QueueIntegrityError):
            hamil_aggregate(X, bad, make_unit())


def generic_hamil(X, queue, params, training=False, order=None):
    """The per-merge tape: one aggregate_pair per merge on getitem rows."""
    rows = range(X.data.shape[0]) if order is None else order
    slots = {i + 1: X[r] for i, r in enumerate(rows)}
    for t in queue:
        slots[t.new] = aggregate_pair(slots.pop(t.left), slots.pop(t.right),
                                      params, training)
    (out,) = slots.values()
    return out


def ramil_fold(X, rng, params, training=False):
    """RAMIL's per-merge tape: a left-deep aggregate_pair fold over a random
    permutation of getitem rows."""
    order = rng.permutation(X.data.shape[0]).tolist()
    acc = X[order[0]]
    for i in order[1:]:
        acc = aggregate_pair(acc, X[i], params, training)
    return acc


def seeded(ramil, seed):
    """A ramil replay in replay_bytes' (X, queue, params) form; the queue
    goes unused."""
    return lambda X, queue, params: ramil(X, np.random.default_rng(seed), params)


def replay_bytes(replay, X, params, g):
    """Output, instance gradients and unit gradients of sum(g * replay), as
    bytes; a unit gradient is None when no merge ran."""
    xs = [Tensor(row, requires_grad=True) for row in X]
    for p in params.weights + params.biases:
        p.grad = None
    out = replay(T.stack(xs), build_hierarchy(list(X)), params)
    T.sum_all(T.mul(out, Tensor(g))).backward()
    return [a if a is None else a.tobytes()
            for a in (out.data, *(x.grad for x in xs),
                      params.weights[0].grad, params.biases[0].grad)]


ROWS = {
    "gaussian": lambda rng, m, d: rng.standard_normal((m, d)),
    # ReLU rows after dropout: many all-zero rows tie at distance 0
    "sparse": lambda rng, m, d: np.maximum(rng.standard_normal((m, d)), 0.0)
    * (rng.random((m, 1)) < 0.5),
    "duplicated": lambda rng, m, d: rng.standard_normal((m // 3 + 1, d))[
        rng.integers(0, m // 3 + 1, m)],
    "integer": lambda rng, m, d: rng.integers(-2, 3, (m, d)).astype(float),
    # separated clusters: merges with a merge on each side
    "clustered": lambda rng, m, d: 4 * rng.standard_normal((4, d))[np.arange(m) % 4]
    + rng.standard_normal((m, d)),
}


class TestFusedReplay:
    """The shipped unit (1-D, one layer, no batchnorm) replays a queue as one
    conv1d_replay node; it must equal the per-merge tape bit for bit."""

    @pytest.mark.parametrize("rows", sorted(ROWS))
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_bit_identical_to_per_merge_tape(self, rows, k):
        rng = np.random.default_rng([k, sorted(ROWS).index(rows)])
        for m in (2, 3, 9, 31, 60):
            d = int(rng.integers(1, 20))
            X = ROWS[rows](rng, m, d)
            params = make_unit("1d", k=k, seed=m)
            g = rng.standard_normal(d)
            assert replay_bytes(hamil_aggregate, X, params, g) \
                == replay_bytes(generic_hamil, X, params, g)

    @pytest.mark.parametrize("rows", sorted(ROWS))
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_ramil_bit_identical_to_per_merge_fold(self, rows, k):
        rng = np.random.default_rng([k, sorted(ROWS).index(rows), 1])
        # m = 1 has no merge; m = 2 is the smallest bag the fused node replays
        for m in (1, 2, 3, 9, 31, 60):
            d = int(rng.integers(1, 20))
            X = ROWS[rows](rng, m, d)
            params = make_unit("1d", k=k, seed=m)
            g = rng.standard_normal(d)
            assert replay_bytes(seeded(ramil_aggregate, m), X, params, g) \
                == replay_bytes(seeded(ramil_fold, m), X, params, g)

    def test_sgd_steps_bit_identical_to_generic_path(self, monkeypatch):
        rng = np.random.default_rng(7)
        bags = [Bag(f"b{i}", list(ROWS["clustered"](rng, int(rng.integers(2, 16)), 6)),
                    np.asarray([float(i % 2)])) for i in range(8)]

        def trained():
            # clustering without dropout keeps the input clusters, so the
            # trees have merges with a merge on each side
            model = build_model("vector", AggregatorSpec(kernel_size=3),
                                feature_dim=6, seed=3, cluster_without_dropout=True)
            train(model, bags, OptimizerConfig(learning_rate=0.01, epochs=3), seed=1)
            return ([p.data.tobytes() for p in model.parameters().values()],
                    [model.forward_bag(b).probs.data.tobytes() for b in bags])

        fused = trained()
        monkeypatch.setattr(aggregators, "hamil_aggregate", generic_hamil)
        assert trained() == fused

    def test_ramil_sgd_steps_bit_identical_to_fold(self, monkeypatch):
        rng = np.random.default_rng(8)
        bags = [Bag(f"b{i}", list(rng.standard_normal((int(rng.integers(1, 16)), 6))),
                    np.asarray([float(i % 2)])) for i in range(8)]

        def trained():
            model = build_model("vector", AggregatorSpec(kind="ramil", kernel_size=3),
                                feature_dim=6, seed=3)
            train(model, bags, OptimizerConfig(learning_rate=0.01, epochs=3), seed=1)
            return ([p.data.tobytes() for p in model.parameters().values()],
                    [model.forward_bag(b).probs.data.tobytes() for b in bags])

        fused = trained()
        monkeypatch.setattr(aggregators, "ramil_aggregate", ramil_fold)
        assert trained() == fused

    @pytest.mark.parametrize("kind,spec_kw,mode,shape,merges", [
        ("hamil", {}, "1d", (6,), 0),
        ("hamil", {"layers": 2}, "1d", (6,), 4),
        ("hamil", {"use_batchnorm": True}, "1d", (6,), 4),
        ("hamil", {}, "2d", (2, 4, 4), 4),
        ("ramil", {}, "1d", (6,), 0),
        ("ramil", {}, "2d", (2, 4, 4), 4),
    ])
    def test_generic_path_for_other_units(self, monkeypatch, rng, kind, spec_kw,
                                          mode, shape, merges):
        calls = []
        real = aggregators.aggregate_pair
        monkeypatch.setattr(aggregators, "aggregate_pair",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        spec = AggregatorSpec(kind=kind, kernel_size=3, **spec_kw)
        unit = AggUnitParams(spec, mode, np.random.default_rng(0))
        X = Tensor(rng.standard_normal((5, *shape)))
        out, _ = aggregate(X, spec, unit=unit, rng=np.random.default_rng(0))
        assert out.data.shape == shape
        assert len(calls) == merges


def rows_reference(X, spec, unit, attn, rng, training):
    """The row construction the aggregators replaced: one getitem node per
    instance, which each aggregator glues back together."""
    rows = [X[i] for i in range(X.data.shape[0])]
    if spec.kind in aggregators.POOL_KINDS:
        return T.reduce(T.stack(rows), spec.kind.split("_")[0], axis=0,
                        r=spec.lse_r)
    if "attention" in spec.kind:
        Xs = T.stack(rows)
        h = T.tanh(T.matmul(Xs, attn.V))
        if attn.gated:
            h = T.mul(h, T.sigmoid(T.matmul(Xs, attn.U)))
        w = T.softmax(T.reshape(T.matmul(h, attn.w), (len(rows),)))
        return T.reshape(T.matmul(T.reshape(w, (1, len(rows))), Xs),
                         (X.data.shape[1],))
    if spec.kind == "ramil":
        order = rng.permutation(len(rows))
        acc = rows[order[0]]
        for i in order[1:]:
            acc = aggregate_pair(acc, rows[i], unit, training)
        return acc
    F = np.stack([r.data.ravel() for r in rows])
    order = canonical_order(F)
    slots = {i + 1: rows[j] for i, j in enumerate(order)}
    for t in build_hierarchy(F[order]):
        a, b = slots.pop(t.left), slots.pop(t.right)
        slots[t.new] = aggregate_pair(a, b, unit, training) \
            if spec.kind == "hamil" else (a + b) * Tensor(0.5)
    (out,) = slots.values()
    return out


class TestMatrixBitIdentity:
    """Every aggregator on the (m, ...) matrix equals, byte for byte, the
    per-instance row construction in output, X.grad and unit gradients."""

    CASES = [(kind, {}, "1d") for kind in aggregators.AGGREGATOR_KINDS] + [
        ("hamil", {"layers": 2}, "1d"), ("hamil", {"use_batchnorm": True}, "1d"),
        ("ramil", {"layers": 3}, "1d"),
    ] + [(kind, {}, "2d") for kind in ("hamil", "hamil_a", "ramil")
         + aggregators.POOL_KINDS] + [("hamil", {"layers": 2}, "2d")]

    @pytest.mark.parametrize("kind,spec_kw,mode", CASES)
    @pytest.mark.parametrize("m", [1, 2, 9])
    def test_matrix_equals_row_construction(self, kind, spec_kw, mode, m):
        rng = np.random.default_rng([m, self.CASES.index((kind, spec_kw, mode))])
        shape = (6,) if mode == "1d" else (2, 4, 4)
        Xv = 3 * rng.standard_normal((3, *shape))[rng.integers(0, 3, m)] \
            + rng.standard_normal((m, *shape))
        G = Tensor(rng.standard_normal(shape))
        spec = AggregatorSpec(kind=kind, kernel_size=3, **spec_kw)
        runs = []
        for reference in (False, True):
            unit = AggUnitParams(spec, mode, np.random.default_rng(1))
            attn = AttentionParams(6, 8, kind == "gated_attention",
                                   np.random.default_rng(2))
            X = Tensor(Xv, requires_grad=True)
            if reference:
                out = rows_reference(X, spec, unit, attn,
                                     np.random.default_rng(3), True)
            else:
                out, _ = aggregate(X, spec, unit=unit, attn=attn,
                                   rng=np.random.default_rng(3), training=True)
            T.sum_all(T.mul(out, G)).backward()
            params = list(unit.named_params().values()) \
                + list(attn.named_params().values())
            runs.append([a.tobytes() for a in (out.data, X.grad)]
                        + [p.grad.tobytes() for p in params if p.grad is not None])
        assert runs[0] == runs[1]

    def test_instance_scores_per_row(self, rng):
        X = Tensor(np.vstack([rng.standard_normal((4, 5)), np.zeros((1, 5))]))
        agg = Tensor(rng.standard_normal(5))
        ref = [0.0 if not np.any(v) else
               float(np.dot(v, agg.data) / (np.linalg.norm(v) * np.linalg.norm(agg.data)))
               for v in X.data]
        assert instance_scores(X, agg) == ref


class TestHamilA:
    def test_two_instances_exact_mean(self, rng):
        X = Tensor(rng.standard_normal((2, 5)))
        out = hamil_a_aggregate(X, MergeQueue((MergeTriplet(1, 2, 3),)))
        np.testing.assert_array_equal(out.data, (X.data[0] + X.data[1]) * 0.5)

    def test_equals_hamil_with_mean_kernel(self, rng):
        params = AggUnitParams.mean_kernel(AggregatorSpec(kernel_size=7), "1d")
        for _ in range(20):
            m = int(rng.integers(1, 7))
            X = Tensor(rng.standard_normal((m, 10)))
            queue = build_hierarchy(X.data)
            a = hamil_a_aggregate(X, queue)
            b = hamil_aggregate(X, queue, params)
            np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_unrolled_oracle(self, rng):
        for _ in range(10):
            m = int(rng.integers(2, 6))
            X = Tensor(rng.standard_normal((m, 4)))
            queue = build_hierarchy(X.data)
            out = hamil_a_aggregate(X, queue)
            slots = {i + 1: x for i, x in enumerate(X.data)}
            for t in queue:
                slots[t.new] = (slots[t.left] + slots[t.right]) * 0.5
            np.testing.assert_array_equal(out.data, slots[max(slots)])


class TestRamil:
    def test_single_instance_identity(self, rng):
        X = Tensor(rng.standard_normal((1, 4)))
        out = ramil_aggregate(X, np.random.default_rng(0), make_unit())
        np.testing.assert_array_equal(out.data, X.data[0])

    def test_fixed_seed_reproducible(self, rng):
        X = Tensor(rng.standard_normal((4, 5)))
        params = make_unit(seed=2)
        a = ramil_aggregate(X, np.random.default_rng(11), params)
        b = ramil_aggregate(X, np.random.default_rng(11), params)
        np.testing.assert_array_equal(a.data, b.data)

    def test_order_changes_output_vs_hamil(self):
        # mean-kernel folding is order sensitive: left-deep random fold of
        # three distinct values differs from the hierarchy's grouping
        params = AggUnitParams.mean_kernel(AggregatorSpec(kernel_size=1), "1d")
        X = Tensor([[0.0], [1.0], [100.0]])
        queue = build_hierarchy(X.data)
        hamil_out = hamil_aggregate(X, queue, params)    # ((0+1)/2+100)/2
        assert abs(hamil_out.item() - 50.25) < 1e-12
        seen = set()
        for seed in range(10):
            out = ramil_aggregate(X, np.random.default_rng(seed), params)
            seen.add(round(out.item(), 9))
        assert any(abs(v - 50.25) > 1e-9 for v in seen)


class TestPooling:
    def test_single_instance_identity(self, rng):
        X = Tensor(rng.standard_normal((1, 5)))
        for kind in ("max_pool", "mean_pool", "sum_pool", "lse_pool"):
            out = pool_aggregate(X, kind)
            np.testing.assert_allclose(out.data, X.data[0], atol=1e-12)

    def test_mean_example(self):
        out = pool_aggregate(Tensor([[0.0, 2.0], [2.0, 0.0]]), "mean_pool")
        np.testing.assert_array_equal(out.data, [1.0, 1.0])

    def test_empty_bag(self):
        with pytest.raises(ValueError, match="empty"):
            pool_aggregate(Tensor(np.zeros((0, 4))), "max_pool")

    def test_permutation_invariance(self, rng):
        X = rng.standard_normal((5, 6))
        for kind in ("max_pool", "mean_pool", "sum_pool", "lse_pool"):
            ref = pool_aggregate(Tensor(X), kind, r=3.0).data
            for _ in range(10):
                perm = rng.permutation(5)
                out = pool_aggregate(Tensor(X[perm]), kind, r=3.0).data
                np.testing.assert_allclose(out, ref, atol=1e-12)


class TestAttention:
    def test_identical_instances_returns_instance(self, rng):
        x = rng.standard_normal(6)
        params = AttentionParams(6, 16, gated=False, rng=np.random.default_rng(0))
        out = attention_aggregate(Tensor(np.tile(x, (4, 1))), params)
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    @pytest.mark.parametrize("gated", [False, True])
    def test_weights_sum_to_one(self, rng, gated):
        params = AttentionParams(6, 16, gated=gated, rng=np.random.default_rng(1))
        xs = [Tensor(rng.standard_normal(6)) for _ in range(5)]
        X = T.stack(xs, axis=0)
        h = T.tanh(T.matmul(X, params.V))
        if gated:
            h = T.mul(h, T.sigmoid(T.matmul(X, params.U)))
        w = T.softmax(T.reshape(T.matmul(h, params.w), (5,))).data
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("gated", [False, True])
    def test_permutation_invariance(self, rng, gated):
        params = AttentionParams(4, 8, gated=gated, rng=np.random.default_rng(2))
        X = rng.standard_normal((6, 4))
        ref = attention_aggregate(Tensor(X), params).data
        for _ in range(10):
            perm = rng.permutation(6)
            out = attention_aggregate(Tensor(X[perm]), params).data
            np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_empty_bag(self):
        params = AttentionParams(4, 8, gated=False, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="empty"):
            attention_aggregate(Tensor(np.zeros((0, 4))), params)

    def test_feature_maps_rejected(self):
        params = AttentionParams(4, 8, gated=False, rng=np.random.default_rng(0))
        with pytest.raises(T.ShapeError, match="vectors"):
            attention_aggregate(Tensor(np.zeros((3, 4, 2, 2))), params)


class TestInstanceScores:
    def test_instance_equal_to_aggregate(self, rng):
        x = Tensor(rng.standard_normal(5))
        assert instance_scores(Tensor(x.data[None]), x) == [1.0]

    def test_orthogonal_and_antiparallel(self):
        agg = Tensor([1.0, 0.0])
        scores = instance_scores(Tensor([[0.0, 1.0], [-2.0, 0.0]]), agg)
        assert abs(scores[0]) < 1e-12
        assert abs(scores[1] + 1.0) < 1e-12

    def test_zero_vector_guard(self):
        assert instance_scores(Tensor([[0.0, 0.0]]), Tensor([1.0, 1.0])) == [0.0]


class TestDispatchAndTraining:
    def test_aggregate_output_shape_all_kinds(self, rng):
        X = Tensor(rng.standard_normal((4, 8)))
        for kind in ("hamil", "hamil_a", "ramil", "max_pool", "mean_pool",
                     "sum_pool", "lse_pool", "attention", "gated_attention"):
            spec = AggregatorSpec(kind=kind, kernel_size=3)
            unit = AggUnitParams(spec, "1d", np.random.default_rng(0)) \
                if kind in ("hamil", "ramil") else None
            attn = AttentionParams(8, 16, kind == "gated_attention",
                                   np.random.default_rng(0)) \
                if "attention" in kind else None
            out, queue = aggregate(X, spec, unit=unit, attn=attn,
                                   rng=np.random.default_rng(0))
            assert out.data.shape == (8,)
            assert (queue is not None) == (kind in ("hamil", "hamil_a"))

    def test_canonical_order_permutation_invariant(self, rng):
        feats = [rng.standard_normal(5) for _ in range(6)]
        base = canonical_order(feats)
        canon = [tuple(feats[i]) for i in base]
        for _ in range(10):
            perm = rng.permutation(6)
            shuffled = [feats[i] for i in perm]
            got = [tuple(shuffled[i]) for i in canonical_order(shuffled)]
            assert got == canon

    def test_ramil_eval_without_rng_is_deterministic(self, rng):
        spec = AggregatorSpec(kind="ramil", kernel_size=3)
        unit = AggUnitParams(spec, "1d", np.random.default_rng(1))
        X = Tensor(rng.standard_normal((4, 5)))
        a, _ = aggregate(X, spec, unit=unit, training=False)
        b, _ = aggregate(X, spec, unit=unit, training=False)
        np.testing.assert_array_equal(a.data, b.data)
        with pytest.raises(ValueError, match="rng"):
            aggregate(X, spec, unit=unit, training=True)

    def test_gradient_reaches_unit_params_after_training_step(self, rng):
        spec = AggregatorSpec(kind="hamil", kernel_size=3)
        unit = AggUnitParams(spec, "1d", np.random.default_rng(4))
        xs = [Tensor(rng.standard_normal(6), requires_grad=True) for _ in range(3)]
        out, _ = aggregate(T.stack(xs), spec, unit=unit)
        T.sum_all(out).backward()
        assert np.linalg.norm(unit.weights[0].grad) > 0
        assert all(x.grad is not None for x in xs)
