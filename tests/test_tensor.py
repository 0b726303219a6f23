import math

import numpy as np
import pytest

from hamil import tensor as T
from hamil.tensor import Tensor

from hamil import oracles
from hamil.oracles import numeric_grad, relative_error


def grad_check(build_loss, leaf_value, tol=1e-6, h=1e-5):
    """Compare autodiff gradient of a scalar loss w.r.t. one leaf against
    central finite differences."""
    leaf = Tensor(leaf_value, requires_grad=True)
    loss = build_loss(leaf)
    loss.backward()
    num = numeric_grad(lambda v: build_loss(Tensor(v)).item(), leaf_value, h)
    assert leaf.grad is not None
    assert relative_error(leaf.grad, num) < tol


class TestFullyConnected:
    def test_identity_weight(self):
        out = T.fully_connected(Tensor([[1.0, 2.0]]),
                                Tensor([[1.0, 0.0], [0.0, 1.0]]),
                                Tensor([0.0, 0.0]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0]])

    def test_hand_arithmetic(self):
        out = T.fully_connected(Tensor([[1.0, 1.0]]),
                                Tensor([[2.0], [3.0]]), Tensor([1.0]))
        np.testing.assert_array_equal(out.data, [[6.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(T.ShapeError, match=r"\(3, 5\).*\(4, 2\)"):
            T.fully_connected(Tensor(np.zeros((3, 5))),
                              Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))

    def test_gradients_match_finite_differences(self, rng):
        x = rng.standard_normal((3, 5))
        w = rng.standard_normal((5, 4))
        b = rng.standard_normal(4)
        grad_check(lambda t: T.sum_all(T.fully_connected(t, Tensor(w), Tensor(b))), x)
        grad_check(lambda t: T.sum_all(T.fully_connected(Tensor(x), t, Tensor(b))), w)
        grad_check(lambda t: T.sum_all(T.fully_connected(Tensor(x), Tensor(w), t)), b)


class TestConv1d:
    def test_delta_kernel(self):
        out = T.conv2d(Tensor([[1.0, 2.0, 3.0]]),
                       Tensor([[[0.0, 1.0, 0.0]]]), Tensor([0.0]), padding=1)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0]])

    def test_box_kernel_zero_padding(self):
        out = T.conv2d(Tensor([[1.0, 1.0, 1.0]]),
                       Tensor([[[1.0, 1.0, 1.0]]]), Tensor([0.0]), padding=1)
        np.testing.assert_array_equal(out.data, [[2.0, 3.0, 2.0]])

    def test_kernel_too_large(self):
        with pytest.raises(T.ShapeError, match="kernel"):
            T.conv2d(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 1, 7))),
                     Tensor(np.zeros(1)), padding=1)

    def test_output_length(self):
        out = T.conv2d(Tensor(np.zeros((2, 9))), Tensor(np.zeros((3, 2, 5))),
                       Tensor(np.zeros(3)), padding=2)
        assert out.data.shape == (3, 9)

    def test_gradients_match_finite_differences(self, rng):
        x = rng.standard_normal((2, 9))
        w = rng.standard_normal((2, 2, 7))
        b = rng.standard_normal(2)
        grad_check(lambda t: T.sum_all(T.relu(T.conv2d(t, Tensor(w), Tensor(b), 3))), x)
        grad_check(lambda t: T.sum_all(T.relu(T.conv2d(Tensor(x), t, Tensor(b), 3))), w)
        grad_check(lambda t: T.sum_all(T.relu(T.conv2d(Tensor(x), Tensor(w), t, 3))), b)


class TestConv1dReplay:
    # slots 0-4 are inputs; merges write slots 5-8: 5=(0,3) 6=(1,2) 7=(5,4)
    # 8=(6,7), so the root has a merge on each side
    LEFTS, RIGHTS = [0, 1, 5, 6], [3, 2, 4, 7]

    def per_merge(self, xs, w, b, padding):
        slots = list(xs)
        for left, right in zip(self.LEFTS, self.RIGHTS):
            pair = T.stack([slots[left], slots[right]])
            slots.append(T.reshape(T.conv2d(pair, w, b, padding), (-1,)))
        return slots[-1]

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_bit_identical_to_per_merge_conv1d(self, rng, k):
        X = rng.standard_normal((5, 7))
        X[2] = 0.0
        wv, bv, g = rng.standard_normal((1, 2, k)), rng.standard_normal(1), \
            rng.standard_normal(7)
        runs = []
        for fused in (True, False):
            xs = [Tensor(x, requires_grad=True) for x in X]
            w, b = Tensor(wv, requires_grad=True), Tensor(bv, requires_grad=True)
            out = T.conv_replay(T.stack(xs), self.LEFTS, self.RIGHTS, w, b) \
                if fused else self.per_merge(xs, w, b, k // 2)
            T.sum_all(T.mul(out, Tensor(g))).backward()
            runs.append([a.tobytes() for a in
                         (out.data, *(x.grad for x in xs), w.grad, b.grad)])
        assert runs[0] == runs[1]

    def test_gradients_match_finite_differences(self, rng):
        X = rng.standard_normal((5, 6))
        w, b = rng.standard_normal((1, 2, 3)), rng.standard_normal(1)

        def loss(Xt, wt, bt):
            out = T.conv_replay(Xt, self.LEFTS, self.RIGHTS, wt, bt)
            return T.sum_all(T.tanh(out))

        grad_check(lambda t: loss(t, Tensor(w), Tensor(b)), X)
        grad_check(lambda t: loss(Tensor(X), t, Tensor(b)), w)
        grad_check(lambda t: loss(Tensor(X), Tensor(w), t), b)

    def test_maps_gradients_match_finite_differences(self, rng):
        # a small kernel keeps tanh off saturation through four merges
        X = rng.standard_normal((5, 2, 3, 3))
        w, b = 0.2 * rng.standard_normal((1, 2, 3, 3)), rng.standard_normal(1)

        def loss(Xt, wt, bt):
            out = T.conv_replay(Xt, self.LEFTS, self.RIGHTS, wt, bt)
            return T.sum_all(T.tanh(out))

        grad_check(lambda t: loss(t, Tensor(w), Tensor(b)), X)
        grad_check(lambda t: loss(Tensor(X), t, Tensor(b)), w)
        grad_check(lambda t: loss(Tensor(X), Tensor(w), t), b)

    def test_one_instance_is_its_row(self, rng):
        X = Tensor(rng.standard_normal((1, 2, 3, 3)), requires_grad=True)
        out = T.conv_replay(X, [], [], Tensor(np.ones((1, 2, 3, 3))),
                            Tensor(np.zeros(1)))
        np.testing.assert_array_equal(out.data, X.data[0])

    def test_malformed_tree_rejected(self):
        X = Tensor(np.zeros((3, 4)))
        w, b = Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros(1))
        with pytest.raises(T.GraphError, match="slot 0"):
            T.conv_replay(X, [0, 0], [1, 2], w, b)       # read twice
        with pytest.raises(T.GraphError, match="slot 4"):
            T.conv_replay(X, [0, 2], [1, 4], w, b)       # not yet written
        with pytest.raises(T.ShapeError, match="merges"):
            T.conv_replay(X, [0], [1], w, b)
        for shape in ((1, 1, 3), (1, 2, 2)):
            with pytest.raises(T.ShapeError, match="weight"):
                T.conv_replay(X, [0, 2], [1, 3], Tensor(np.zeros(shape)), b)
        for shape in ((3, 4, 1), (3, 0), (4,)):
            with pytest.raises(T.ShapeError, match="vectors"):
                T.conv_replay(Tensor(np.zeros(shape)), [0, 2], [1, 3], w, b)
        maps = Tensor(np.zeros((3, 2, 4, 4)))
        for shape in ((1, 2, 3), (1, 2, 3, 2), (1, 1, 3, 3)):
            with pytest.raises(T.ShapeError, match="weight"):
                T.conv_replay(maps, [0, 2], [1, 3], Tensor(np.zeros(shape)), b)


class TestConv2d:
    def test_delta_kernel_identity(self, rng):
        x = rng.standard_normal((1, 3, 3))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = T.conv2d(Tensor(x), Tensor(w), Tensor([0.0]), padding=1)
        np.testing.assert_allclose(out.data, x)

    def test_all_ones_sum(self):
        out = T.conv2d(Tensor(np.ones((1, 2, 2))), Tensor(np.ones((1, 1, 2, 2))),
                       Tensor([0.0]), padding=0)
        np.testing.assert_array_equal(out.data, [[[4.0]]])

    def test_gradients_match_finite_differences(self, rng):
        x = rng.standard_normal((2, 8, 8))
        w = rng.standard_normal((1, 2, 7, 7))
        b = rng.standard_normal(1)
        grad_check(lambda t: T.sum_all(T.conv2d(t, Tensor(w), Tensor(b), 3)), x)
        grad_check(lambda t: T.sum_all(T.conv2d(Tensor(x), t, Tensor(b), 3)), w)
        grad_check(lambda t: T.sum_all(T.conv2d(Tensor(x), Tensor(w), t, 3)), b)

    def test_3d_input_pinned(self):
        # values and gradients of the one-sample conv2d, pinned bit for bit
        x = Tensor(np.arange(18.0).reshape(2, 3, 3) / 7, requires_grad=True)
        w = Tensor((np.arange(36.0).reshape(2, 2, 3, 3) - 17.5) / 13,
                   requires_grad=True)
        out = T.conv2d(x, w, Tensor([0.25, -0.5]), padding=1)
        g = Tensor(np.arange(18.0).reshape(2, 3, 3) / 3)
        T.sum_all(T.mul(out, g)).backward()
        np.testing.assert_array_equal(out.data.ravel(), [
            -1.7499999999999998, -3.618131868131868, -3.024725274725275,
            -5.222527472527472, -9.557692307692307, -7.53021978021978,
            -6.101648351648351, -10.541208791208788, -7.903846153846153,
            7.7857142857142865, 12.247252747252748, 8.093406593406593,
            13.016483516483516, 19.956043956043956, 13.08241758241758,
            8.18131868131868, 12.445054945054945, 7.96153846153846])
        np.testing.assert_array_equal(x.grad.ravel(), [
            -0.8717948717948718, -1.358974358974358, -0.6666666666666665,
            -1.769230769230769, -2.038461538461537, -0.5384615384615368,
            0.974358974358974, 2.333333333333334, 2.4102564102564106,
            11.128205128205128, 18.025641025641026, 13.179487179487179,
            20.384615384615383, 33.269230769230774, 24.384615384615387,
            18.51282051282051, 30.025641025641022, 21.794871794871796])
        np.testing.assert_array_equal(w.grad.ravel()[:9], [
            2.761904761904762, 4.761904761904762, 3.333333333333333,
            6.285714285714285, 9.714285714285714, 6.285714285714285,
            3.333333333333333, 4.761904761904762, 2.761904761904762])

    @pytest.mark.parametrize("lead", [(3,), (2, 2)])
    def test_batch_axes_match_oracle_and_loop(self, rng, lead):
        x = rng.standard_normal(lead + (2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        G = rng.standard_normal(lead + (3, 6, 6))

        def run(xv, Gv):
            leaves = [Tensor(v, requires_grad=True) for v in (xv, w, b)]
            out = T.conv2d(*leaves, padding=1)
            T.sum_all(T.mul(out, Tensor(Gv))).backward()
            return out.data, [t.grad for t in leaves]

        out, (gx, gw, gb) = run(x, G)
        np.testing.assert_allclose(out, oracles.loop_conv2d(x, w, b, 1),
                                   rtol=0, atol=1e-12)
        loop_gw, loop_gb = np.zeros_like(w), np.zeros_like(b)
        for n in np.ndindex(*lead):
            out_n, (gx_n, gw_n, gb_n) = run(x[n], G[n])
            np.testing.assert_allclose(out[n], out_n, rtol=0, atol=1e-12)
            np.testing.assert_allclose(gx[n], gx_n, rtol=0, atol=1e-12)
            loop_gw += gw_n
            loop_gb += gb_n
        np.testing.assert_allclose(gw, loop_gw, rtol=0, atol=1e-12)
        np.testing.assert_allclose(gb, loop_gb, rtol=0, atol=1e-12)

    def test_batch_gradients_match_oracle_differences(self, rng):
        # the oracle is linear in x and w, so central differences are exact
        # up to rounding
        x = rng.standard_normal((2, 1, 4, 4))
        w = rng.standard_normal((2, 1, 3, 3))
        b = rng.standard_normal(2)
        G = rng.standard_normal((2, 2, 4, 4))
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        T.sum_all(T.mul(T.conv2d(xt, wt, Tensor(b), 1), Tensor(G))).backward()
        num_x = numeric_grad(
            lambda v: float(np.sum(G * oracles.loop_conv2d(v, w, b, 1))), x)
        num_w = numeric_grad(
            lambda v: float(np.sum(G * oracles.loop_conv2d(x, v, b, 1))), w)
        assert relative_error(xt.grad, num_x) < 1e-6
        assert relative_error(wt.grad, num_w) < 1e-6


class TestPointwiseAndReduce:
    def test_relu(self):
        np.testing.assert_array_equal(
            T.relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_dropout_zero_rate_is_identity(self, rng):
        x = rng.standard_normal(10)
        out = T.dropout(Tensor(x), 0.0, training=True, rng=rng)
        np.testing.assert_array_equal(out.data, x)

    def test_dropout_eval_is_identity(self, rng):
        x = rng.standard_normal(10)
        out = T.dropout(Tensor(x), 0.5, training=False)
        np.testing.assert_array_equal(out.data, x)

    def test_dropout_scales_survivors(self):
        rng = np.random.default_rng(0)
        x = np.ones(10000)
        out = T.dropout(Tensor(x), 0.5, training=True, rng=rng).data
        assert set(np.round(np.unique(out), 12)) == {0.0, 2.0}
        assert abs(out.mean() - 1.0) < 0.05

    def test_dropout_invalid_rate(self):
        with pytest.raises(ValueError, match="rate"):
            T.dropout(Tensor([1.0]), 1.0, training=True,
                      rng=np.random.default_rng(0))

    @pytest.mark.filterwarnings("error")
    def test_sigmoid_saturates_without_warning(self):
        x = np.array([-1000.0, -40.0, 0.0, 40.0, 1000.0])
        s = T.sigmoid(Tensor(x)).data
        with np.errstate(over="ignore"):
            ref = 1 / (1 + np.exp(-x))
        assert s.tobytes() == ref.tobytes()
        assert s[0] == 0.0 and s[-1] == 1.0

    def test_lse_constant_input(self):
        for r in (0.5, 1.0, 10.0):
            out = T.reduce(Tensor([3.7, 3.7, 3.7]), "lse", axis=0, r=r)
            assert abs(out.item() - 3.7) < 1e-12

    def test_lse_approaches_max(self, rng):
        # the mean-inside-log convention costs log(n)/r absolute, so the
        # input scale must dominate it for a relative comparison
        x = rng.uniform(40, 80, size=8)
        lse = T.reduce(Tensor(x), "lse", axis=0, r=100.0).item()
        assert abs(lse - x.max()) / abs(x.max()) < 1e-3

    def test_reduce_invalid_axis(self):
        with pytest.raises(ValueError, match="axis"):
            T.reduce(Tensor([1.0]), "sum", axis=3)

    def test_reduce_gradients(self, rng):
        x = rng.standard_normal((4, 5))
        for kind in ("max", "mean", "sum", "lse"):
            grad_check(lambda t, k=kind: T.sum_all(T.reduce(t, k, axis=0, r=2.0)), x)


class TestBatchNorm:
    def test_training_normalizes(self, rng):
        x = rng.standard_normal((2, 50)) * 5 + 3
        st = T.BatchNormState(2)
        out = T.batchnorm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                          st, training=True)
        np.testing.assert_allclose(out.data.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.std(axis=1), 1.0, atol=1e-3)

    def test_eval_is_pure_function_of_stats(self, rng):
        x = rng.standard_normal((2, 8))
        st = T.BatchNormState(2)
        st.running_mean = np.array([1.0, -1.0])
        st.running_var = np.array([4.0, 9.0])
        g, b = Tensor(np.ones(2)), Tensor(np.zeros(2))
        a = T.batchnorm(Tensor(x), g, b, st, training=False).data
        bvals = T.batchnorm(Tensor(x), g, b, st, training=False).data
        np.testing.assert_array_equal(a, bvals)
        expected = (x - st.running_mean[:, None]) / np.sqrt(
            st.running_var[:, None] + T.BN_EPS)
        np.testing.assert_allclose(a, expected, atol=1e-12)

    def test_training_gradients(self, rng):
        x = rng.standard_normal((1, 12))
        gamma = rng.standard_normal(1)
        beta = rng.standard_normal(1)

        c = rng.standard_normal((1, 12))

        def build(t):
            st = T.BatchNormState(1)
            return T.sum_all(T.mul(T.batchnorm(
                t, Tensor(gamma), Tensor(beta), st, True), Tensor(c)))
        grad_check(build, x, tol=1e-5)

        def build_g(t):
            st = T.BatchNormState(1)
            return T.sum_all(T.relu(T.batchnorm(
                Tensor(x), t, Tensor(beta), st, True)))
        grad_check(build_g, gamma)


class TestBCELoss:
    def test_half_prediction(self):
        loss = T.bce_loss(Tensor([0.5]), Tensor([1.0]))
        assert abs(loss.item() - math.log(2)) < 1e-12

    def test_perfect_prediction_near_zero(self):
        loss = T.bce_loss(Tensor([1.0, 0.0]), Tensor([1.0, 0.0]))
        assert loss.item() < 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.bce_loss(Tensor([0.5, 0.5]), Tensor([1.0]))

    def test_gradients(self, rng):
        p = rng.uniform(0.05, 0.95, size=6)
        t = (rng.random(6) > 0.5).astype(float)
        grad_check(lambda x: T.bce_loss(x, Tensor(t)), p)

    def test_f32_confident_wrong_prediction_is_finite(self):
        # 1 - BCE_EPS rounds to 1 in float32, where sigmoid(17) is already 1
        T.set_default_dtype("f32")
        try:
            loss = T.bce_loss(Tensor([1.0]), Tensor([0.0]))
        finally:
            T.set_default_dtype("f64")
        below_one = float(np.nextafter(np.float32(1), np.float32(0)))
        assert loss.item() == pytest.approx(-math.log(1.0 - below_one),
                                            rel=1e-6)

    def test_f64_clips_at_one_minus_eps(self):
        loss = T.bce_loss(Tensor([1.0]), Tensor([0.0]))
        assert loss.item() == pytest.approx(-math.log(T.BCE_EPS), rel=1e-4)


class TestBackward:
    def test_sum_gives_ones(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        T.sum_all(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(T.GraphError, match="scalar"):
            (x * Tensor(2.0)).backward()

    def test_unreachable_leaf_untouched(self, rng):
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        y = Tensor(rng.standard_normal(3), requires_grad=True)
        T.sum_all(x).backward()
        assert y.grad is None

    def test_accumulation_without_reset(self, rng):
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        T.sum_all(x).backward()
        T.sum_all(x).backward()
        np.testing.assert_array_equal(x.grad, 2 * np.ones(3))

    def test_composite_sigmoid_dot(self, rng):
        x = rng.standard_normal(5)
        w = rng.standard_normal(5)
        grad_check(lambda t: T.sum_all(T.sigmoid(
            T.matmul(T.reshape(t, (1, 5)), T.reshape(Tensor(x), (5, 1))))), w)

    def test_diamond_graph(self, rng):
        # y = sum(x*x + x): gradient 2x + 1, x reused by two consumers
        xv = rng.standard_normal(4)
        x = Tensor(xv, requires_grad=True)
        T.sum_all(T.mul(x, x) + x).backward()
        np.testing.assert_allclose(x.grad, 2 * xv + 1, atol=1e-12)


class TestNoGrad:
    @staticmethod
    def head(x, w, b):
        return T.sigmoid(T.fully_connected(x, w, b))

    def operands(self, rng):
        return (Tensor(rng.standard_normal((3, 5))),
                Tensor(rng.standard_normal((5, 2)), requires_grad=True),
                Tensor(rng.standard_normal(2), requires_grad=True))

    def test_scope_records_no_tape_and_keeps_values(self, rng):
        ops = self.operands(rng)
        taped = self.head(*ops)
        assert taped._parents and taped._backward is not None
        with T.no_grad():
            plain = self.head(*ops)
        assert plain._parents == () and plain._backward is None
        assert not plain.requires_grad
        assert plain.data.tobytes() == taped.data.tobytes()

    def test_nested_scopes_restore_the_outer_setting(self, rng):
        ops = self.operands(rng)
        with T.no_grad():
            with T.no_grad():
                pass
            assert self.head(*ops)._parents == ()
        assert self.head(*ops)._parents

    def test_scope_restored_when_body_raises(self, rng):
        x, w, b = self.operands(rng)
        with pytest.raises(T.ShapeError):
            with T.no_grad():
                T.fully_connected(Tensor(np.ones((3, 4))), w, b)
        T.sum_all(self.head(x, w, b)).backward()
        assert w.grad is not None and b.grad is not None


class TestStackConcatGetitem:
    def test_stack_and_grads(self, rng):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        grad_check(lambda t: T.sum_all(T.mul(T.stack([t, Tensor(b)]), T.stack([t, Tensor(b)]))), a)

    def test_getitem_row_grad(self, rng):
        x = rng.standard_normal((4, 3))
        grad_check(lambda t: T.sum_all(T.mul(t[2], t[2])), x)

    def test_maxpool2d_grad(self, rng):
        x = rng.standard_normal((2, 4, 4))
        grad_check(lambda t: T.sum_all(T.maxpool2d(t, 2)), x)

    def test_maxpool2d_batch_axes_grad(self, rng):
        x = rng.standard_normal((3, 2, 4, 4))
        out = T.maxpool2d(Tensor(x), 2)
        assert out.data.shape == (3, 2, 2, 2)
        np.testing.assert_array_equal(out.data[1], T.maxpool2d(Tensor(x[1]), 2).data)
        G = rng.standard_normal((3, 2, 2, 2))
        grad_check(lambda t: T.sum_all(T.mul(T.maxpool2d(t, 2), Tensor(G))), x)


class TestPrecisionAndDeterminism:
    def test_f32_switch(self):
        T.set_default_dtype("f32")
        try:
            assert Tensor([1.0]).data.dtype == np.float32
        finally:
            T.set_default_dtype("f64")
        assert Tensor([1.0]).data.dtype == np.float64

    def test_dropout_deterministic_given_seed(self, rng):
        x = rng.standard_normal(20)
        a = T.dropout(Tensor(x), 0.4, True, np.random.default_rng(9)).data
        b = T.dropout(Tensor(x), 0.4, True, np.random.default_rng(9)).data
        np.testing.assert_array_equal(a, b)


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        params = {"a.weight": Tensor(rng.standard_normal((2, 3)), requires_grad=True),
                  "a.bias": Tensor(rng.standard_normal(3), requires_grad=True)}
        path = tmp_path / "ckpt.json"
        T.save_checkpoint(path, params)
        fresh = {k: Tensor(np.zeros_like(v.data), requires_grad=True)
                 for k, v in params.items()}
        T.restore_params(T.load_checkpoint(path), fresh)
        for k in params:
            np.testing.assert_array_equal(fresh[k].data, params[k].data)
