import math

import numpy as np
import pytest

from hamil import tensor as T
from hamil.aggregators import AggregatorSpec
from hamil.data import Bag
from hamil.models import (build_model, load_model, loss_bag, model_config,
                          save_model)
from hamil.tensor import Tensor

from hamil.oracles import numeric_grad, relative_error


def vec_bag(rng, m=4, dim=6, label=1.0, bag_id="b0"):
    return Bag(bag_id, [rng.standard_normal(dim) for _ in range(m)],
               np.asarray([label]))


def vec_model(kind="hamil", dim=6, seed=0, **kw):
    spec = AggregatorSpec(kind=kind, kernel_size=3)
    return build_model("vector", spec, feature_dim=dim, label_count=1,
                       seed=seed, **kw)


class TestLoss:
    def test_half_probability_is_ln2(self):
        loss = loss_bag(Tensor([0.5]), np.asarray([1.0]))
        assert abs(loss.item() - math.log(2.0)) < 1e-12

    def test_confident_correct_near_zero(self):
        assert loss_bag(Tensor([1.0 - 1e-12]), np.asarray([1.0])).item() < 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            loss_bag(Tensor([0.5, 0.5]), np.asarray([1.0]))


class TestVectorPathway:
    def test_probs_in_open_interval(self, rng):
        model = vec_model()
        out = model.forward_bag(vec_bag(rng))
        assert out.probs.data.shape == (1,)
        assert 0.0 < out.probs.item() < 1.0
        assert len(out.scores) == 4
        assert out.queue is not None and len(out.queue) == 3

    def test_single_instance_bag(self, rng):
        model = vec_model()
        out = model.forward_bag(vec_bag(rng, m=1))
        assert len(out.queue) == 0
        assert out.scores[0] == pytest.approx(1.0, abs=1e-12)

    def test_two_identical_instances_hamil_a_matches_single(self, rng):
        # mean-merging two identical embeddings is the identity, so the
        # bag probability equals the single-instance probability
        model = vec_model(kind="hamil_a")
        x = rng.standard_normal(6)
        single = model.forward_bag(Bag("s", [x], [1.0])).probs.item()
        double = model.forward_bag(Bag("d", [x, x.copy()], [1.0])).probs.item()
        assert abs(single - double) < 1e-12

    def test_permutation_invariance_eval(self, rng):
        for kind in ("hamil", "hamil_a", "max_pool", "mean_pool", "attention"):
            model = vec_model(kind=kind, seed=3)
            insts = [rng.standard_normal(6) for _ in range(7)]
            ref = model.forward_bag(Bag("b", insts, [1.0])).probs.item()
            for _ in range(50):
                perm = rng.permutation(7)
                got = model.forward_bag(
                    Bag("b", [insts[i] for i in perm], [1.0])).probs.item()
                tol = 1e-9 if kind in ("hamil", "hamil_a") else 1e-12
                assert abs(got - ref) < tol, kind

    def test_queue_rebuilt_each_forward(self, rng):
        model = vec_model()
        tight = Bag("t", [np.zeros(6), np.zeros(6) + 0.01,
                          np.ones(6) * 5], [1.0])
        q1 = model.forward_bag(tight).queue
        q2 = model.forward_bag(vec_bag(rng, m=5)).queue
        assert len(q1) == 2 and len(q2) == 4

    def test_wrong_feature_dim(self, rng):
        model = vec_model(dim=6)
        with pytest.raises(T.ShapeError, match="dim"):
            model.forward_bag(vec_bag(rng, dim=5))

    def test_train_mode_requires_rng_for_dropout(self, rng):
        model = vec_model()
        with pytest.raises(ValueError, match="rng"):
            model.forward_bag(vec_bag(rng), mode="train")
        out = model.forward_bag(vec_bag(rng), mode="train",
                                rng=np.random.default_rng(0))
        assert 0.0 < out.probs.item() < 1.0

    def test_invalid_mode(self, rng):
        with pytest.raises(ValueError, match="mode"):
            vec_model().forward_bag(vec_bag(rng), mode="test")

    def test_parameter_count_independent_of_bag_size(self, rng):
        model = vec_model()
        names = set(model.parameters())
        model.forward_bag(vec_bag(rng, m=2))
        model.forward_bag(vec_bag(rng, m=9))
        assert set(model.parameters()) == names

    def test_end_to_end_gradient_check(self, rng):
        model = vec_model(kind="hamil", dim=4, seed=1)
        bag = vec_bag(rng, m=3, dim=4)
        params = model.parameters()
        for name in ("fc0.weight", "agg.conv0.weight", "head.weight",
                     "head.bias"):
            p = params[name]
            base = p.data.copy()

            def f(v):
                p.data = v
                val = loss_bag(model.forward_bag(bag).probs, bag.labels).item()
                p.data = base
                return val

            for q in params.values():
                q.grad = None
            loss_bag(model.forward_bag(bag).probs, bag.labels).backward()
            assert relative_error(p.grad, numeric_grad(f, base)) < 1e-4, name


def interior_nodes(root):
    """Autodiff nodes with parents reachable from root."""
    seen, todo, count = set(), [root], 0
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += bool(node._parents)
        todo.extend(node._parents)
    return count


class TestBagGraphSize:
    @pytest.mark.parametrize("kind", ["hamil", "max_pool", "attention"])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_node_count_does_not_grow_with_bag_size(self, rng, kind, mode):
        # the bag stays one (m, 64) tensor into the aggregator: no node
        # per instance
        model = vec_model(kind=kind, seed=1)
        counts = []
        for m in (3, 30):
            bag = vec_bag(rng, m=m)
            out = model.forward_bag(bag, mode=mode, rng=np.random.default_rng(0))
            counts.append(interior_nodes(loss_bag(out.probs, bag.labels)))
        assert counts[0] == counts[1]


class TestImagePathway:
    def img_bag(self, rng, m=3, s=8, label=1.0):
        return Bag("i0", [rng.uniform(0, 1, (1, s, s)) for _ in range(m)],
                   np.asarray([label]))

    def test_forward_shapes(self, rng):
        spec = AggregatorSpec(kind="hamil", kernel_size=3)
        model = build_model("image", spec, image_size=8, seed=0)
        out = model.forward_bag(self.img_bag(rng))
        assert out.probs.data.shape == (1,)
        assert 0.0 < out.probs.item() < 1.0
        assert len(out.queue) == 2

    def test_size_not_divisible_by_four(self):
        with pytest.raises(ValueError, match="divisible"):
            build_model("image", AggregatorSpec(), image_size=10)

    def test_wrong_image_shape(self, rng):
        model = build_model("image", AggregatorSpec(kernel_size=3), image_size=8)
        with pytest.raises(T.ShapeError, match="shape"):
            model.forward_bag(self.img_bag(rng, s=12))

    def test_permutation_invariance(self, rng):
        model = build_model("image", AggregatorSpec(kind="hamil", kernel_size=3),
                            image_size=8, seed=2)
        insts = [rng.uniform(0, 1, (1, 8, 8)) for _ in range(5)]
        ref = model.forward_bag(Bag("b", insts, [1.0])).probs.item()
        for _ in range(10):
            perm = rng.permutation(5)
            got = model.forward_bag(
                Bag("b", [insts[i] for i in perm], [1.0])).probs.item()
            assert abs(got - ref) < 1e-9

    def test_batched_backbone_matches_per_instance_extract(self, rng):
        model = build_model("image", AggregatorSpec(kind="hamil", kernel_size=3),
                            image_size=8, seed=3)
        bag = self.img_bag(rng, m=4)
        feats = [model._embed(Tensor(img), False, None)
                 for img in bag.instances]
        aggregated, _ = model._aggregate(T.stack(feats), False, None,
                                         [f.data.ravel() for f in feats])
        logits = aggregated.data.mean(axis=(1, 2)) @ model.head_w.data \
            + model.head_b.data
        ref = 1.0 / (1.0 + np.exp(-logits))
        np.testing.assert_allclose(model.forward_bag(bag).probs.data, ref,
                                   rtol=0, atol=1e-12)

    def test_gradient_reaches_conv_backbone(self, rng):
        model = build_model("image", AggregatorSpec(kind="hamil", kernel_size=3),
                            image_size=8, seed=1)
        bag = self.img_bag(rng, m=2)
        loss_bag(model.forward_bag(bag).probs, bag.labels).backward()
        for name, p in model.parameters().items():
            assert p.grad is not None and np.any(p.grad != 0), name


class TestSaveLoad:
    def test_round_trip_preserves_outputs(self, rng, tmp_path):
        model = vec_model(kind="hamil", seed=4)
        bag = vec_bag(rng)
        ref = model.forward_bag(bag).probs.item()
        path = str(tmp_path / "model.json")
        save_model(model, path)
        back = load_model(path)
        assert model_config(back) == model_config(model)
        assert back.forward_bag(bag).probs.item() == ref

    def test_image_round_trip(self, rng, tmp_path):
        spec = AggregatorSpec(kind="hamil", layers=2, kernel_size=3,
                              use_batchnorm=True)
        model = build_model("image", spec, image_size=8, seed=5)
        bag = Bag("i", [rng.uniform(0, 1, (1, 8, 8)) for _ in range(3)], [1.0])
        ref = model.forward_bag(bag).probs.item()
        path = str(tmp_path / "model.json")
        save_model(model, path)
        assert load_model(path).forward_bag(bag).probs.item() == ref

    def test_unknown_pathway(self):
        with pytest.raises(ValueError, match="pathway"):
            build_model("graph", AggregatorSpec())
