import dataclasses
import json
import platform

import numpy as np
import pytest
from scipy.stats import rankdata

from hamil import tensor as T
from hamil import aggregators, train_eval
from hamil.aggregators import AggregatorSpec
from hamil.data import Bag, Dataset, MotifSpec, make_cv_plan, synth_image_bags
from hamil.models import build_model, loss_bag
from hamil.oracles import numeric_grad, pairwise_auc
from hamil.tensor import Tensor
from hamil.train_eval import (METRIC_NAMES, OptimizerConfig, RunSpec,
                              TrainingDivergedError, _Optimizer, auc_score,
                              evaluate, run_cv, tie_ranks, train)


def separable_dataset(n=16, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    bags = []
    for i in range(n):
        label = float(i % 2)
        shift = 3.0 if label else -3.0
        insts = [rng.standard_normal(dim) + shift
                 for _ in range(int(rng.integers(2, 5)))]
        bags.append(Bag(f"b{i}", insts, np.asarray([label])))
    return Dataset("separable", bags, dim, 1)


class ReferenceOptimizer(_Optimizer):
    """The out-of-place optimizer the in-place slots replaced: a per-name
    state dict, a suffix test per step, and new arrays on every update."""

    def __init__(self, params, cfg):
        super().__init__(params, cfg)
        self.state = {name: {} for name in params}

    def step(self, grad_scale=1.0):
        cfg = self.cfg
        self.t += 1
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            g = g * grad_scale
            if cfg.weight_decay and name.endswith((".weight", ".V", ".U", ".w")):
                g = g + cfg.weight_decay * p.data
            st = self.state[name]
            if cfg.kind == "sgd":
                v = st.get("v")
                v = g if v is None else cfg.momentum * v + g
                st["v"] = v
                p.data = p.data - cfg.learning_rate * v
            else:
                m = st.get("m", np.zeros_like(p.data))
                v = st.get("v", np.zeros_like(p.data))
                m = cfg.adam_beta1 * m + (1 - cfg.adam_beta1) * g
                v = cfg.adam_beta2 * v + (1 - cfg.adam_beta2) * g * g
                st["m"], st["v"] = m, v
                mhat = m / (1 - cfg.adam_beta1 ** self.t)
                vhat = v / (1 - cfg.adam_beta2 ** self.t)
                p.data = p.data - cfg.learning_rate * mhat / (np.sqrt(vhat) + 1e-8)


class TestOptimizer:
    def test_invalid_configs(self):
        with pytest.raises(ValueError, match="positive"):
            OptimizerConfig(learning_rate=0.0)
        with pytest.raises(ValueError, match="kind"):
            OptimizerConfig(kind="rmsprop")

    def test_sgd_momentum_hand_computed(self):
        p = Tensor(np.asarray([1.0]), requires_grad=True)
        opt = _Optimizer({"x.bias": p}, OptimizerConfig(
            kind="sgd", learning_rate=0.1, momentum=0.9, weight_decay=0.0))
        p.grad = np.asarray([2.0])
        opt.step()
        assert p.data[0] == pytest.approx(1.0 - 0.1 * 2.0)
        p.grad = np.asarray([1.0])
        opt.step()
        # v = 0.9*2 + 1 = 2.8; p = 0.8 - 0.1*2.8
        assert p.data[0] == pytest.approx(0.8 - 0.28)

    def test_weight_decay_applies_to_weights_not_biases(self):
        w = Tensor(np.asarray([2.0]), requires_grad=True)
        b = Tensor(np.asarray([2.0]), requires_grad=True)
        opt = _Optimizer({"fc.weight": w, "fc.bias": b}, OptimizerConfig(
            kind="sgd", learning_rate=0.1, momentum=0.0, weight_decay=0.5))
        w.grad = np.asarray([0.0])
        b.grad = np.asarray([0.0])
        opt.step()
        assert w.data[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)
        assert b.data[0] == pytest.approx(2.0)

    def test_adam_first_step_is_lr_sized(self):
        p = Tensor(np.asarray([0.0]), requires_grad=True)
        opt = _Optimizer({"x.bias": p}, OptimizerConfig(
            kind="adam", learning_rate=0.01, weight_decay=0.0))
        p.grad = np.asarray([5.0])
        opt.step()
        # bias-corrected first Adam step has magnitude ~lr regardless of g
        assert p.data[0] == pytest.approx(-0.01, rel=1e-6)

    def test_none_grad_skipped(self):
        p = Tensor(np.asarray([3.0]), requires_grad=True)
        opt = _Optimizer({"x.weight": p}, OptimizerConfig(kind="sgd"))
        opt.step()
        assert p.data[0] == 3.0

    def test_missing_grad_keeps_momentum(self):
        # a step without a gradient neither decays nor applies v
        p = Tensor(np.asarray([1.0]), requires_grad=True)
        opt = _Optimizer({"x.bias": p}, OptimizerConfig(
            kind="sgd", learning_rate=0.1, momentum=0.9, weight_decay=0.0))
        g1, g3 = np.asarray([2.0]), np.asarray([0.5])
        p.grad = g1
        opt.step()
        p.grad = None
        opt.step()
        assert p.data[0] == 1.0 - 0.1 * 2.0
        p.grad = g3
        opt.step()
        v3 = 0.9 * g1 + g3
        assert p.data.tobytes() == (1.0 - 0.1 * g1 - 0.1 * v3).tobytes()

    def test_undecayed_parameter_value_not_read(self):
        # 0.0 * inf would be NaN: no decay term is added when decay is 0
        p = Tensor(np.asarray([np.inf]), requires_grad=True)
        opt = _Optimizer({"x.bias": p}, OptimizerConfig(kind="sgd"))
        p.grad = np.asarray([1.0])
        opt.step()
        assert p.data[0] == np.inf

    @pytest.mark.parametrize("pathway", ["vector", "image"])
    @pytest.mark.parametrize("kind", aggregators.AGGREGATOR_KINDS)
    def test_decay_set(self, pathway, kind):
        spec = AggregatorSpec(kind=kind, layers=2, kernel_size=3,
                              attention_hidden=4)
        params = build_model(pathway, spec, feature_dim=4,
                             image_size=8).parameters()
        opt = _Optimizer(params, OptimizerConfig(weight_decay=0.25))
        decayed = {name for name, (_, decay, _, _) in zip(params, opt.slots)
                   if decay}
        expected = {name for name in params if name.endswith(".weight")
                    or name in ("attn.V", "attn.U", "attn.w")}
        assert decayed == expected
        assert {decay for _, decay, _, _ in opt.slots} <= {0.0, 0.25}
        assert all(name.endswith((".bias", ".gamma", ".beta"))
                   for name in set(params) - decayed)

    @pytest.mark.parametrize("pathway", ["vector", "image"])
    @pytest.mark.parametrize("bags_per_step", [1, 4])
    @pytest.mark.parametrize("precision", ["f64", "f32"])
    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_training_bit_identical_to_reference(self, monkeypatch, kind,
                                                 precision, bags_per_step,
                                                 pathway):
        # the single-instance bag's merge unit gets no gradient
        if pathway == "vector":
            bags = separable_dataset(n=7, dim=4).bags
            bags.append(Bag("solo", [np.full(4, 0.5)], np.asarray([1.0])))
        else:
            bags = synth_image_bags(8, (1, 3), MotifSpec(image_size=8,
                                                         motif_size=2),
                                    seed=2).bags
        cfg = OptimizerConfig(kind=kind, epochs=3, bags_per_step=bags_per_step,
                              learning_rate=1e-2 if kind == "sgd" else 1e-3)
        runs = []
        previous = T.set_default_dtype(precision)
        try:
            for optimizer in (ReferenceOptimizer, _Optimizer):
                monkeypatch.setattr(train_eval, "_Optimizer", optimizer)
                model = build_model(pathway, AggregatorSpec(kernel_size=3),
                                    feature_dim=4, image_size=8, seed=4)
                train(model, bags, cfg, seed=6)
                runs.append({name: p.data.tobytes()
                             for name, p in model.parameters().items()})
        finally:
            T.set_default_dtype(previous)
        assert runs[0] == runs[1]


class TestTrain:
    def test_same_seed_bitwise_identical(self):
        ds = separable_dataset()
        cfg = OptimizerConfig(epochs=2, learning_rate=1e-3)
        outs = []
        for _ in range(2):
            model = build_model("vector", AggregatorSpec(kernel_size=3),
                                feature_dim=4, seed=3)
            train(model, ds.bags, cfg, seed=42)
            outs.append({k: v.data.copy() for k, v in model.parameters().items()})
        for k in outs[0]:
            np.testing.assert_array_equal(outs[0][k], outs[1][k])

    def test_loss_decreases_on_separable_data(self):
        ds = separable_dataset()
        model = build_model("vector", AggregatorSpec(kernel_size=3),
                            feature_dim=4, seed=1, dropout_rate=0.0)
        losses = []
        train(model, ds.bags, OptimizerConfig(epochs=15, learning_rate=1e-2,
                                              kind="adam", weight_decay=0.0),
              seed=5, epoch_hook=lambda e, l: losses.append(l))
        assert losses[-1] < losses[0] * 0.5

    def test_empty_training_set(self):
        model = build_model("vector", AggregatorSpec(kernel_size=3),
                            feature_dim=4)
        with pytest.raises(ValueError, match="empty"):
            train(model, [], OptimizerConfig(), seed=0)

    def test_divergence_raises(self):
        ds = separable_dataset(n=6)
        model = build_model("vector", AggregatorSpec(kernel_size=3),
                            feature_dim=4, seed=1)
        for p in model.parameters().values():
            p.data = p.data * np.nan
        with pytest.raises(TrainingDivergedError):
            train(model, ds.bags, OptimizerConfig(epochs=1), seed=0)

    def test_f32_saturated_bag_trains(self):
        # scaled features saturate the f32 sigmoid at exactly 1.0 on a
        # wrong bag within the first epochs; the clipped loss stays finite
        rng = np.random.default_rng(0)
        bags = [Bag(f"b{i}", list(10.0 * rng.standard_normal(
                    (int(rng.integers(1, 16)), 6)) + 2 * (i % 2)),
                    np.asarray([float(i % 2)])) for i in range(12)]
        losses = []
        T.set_default_dtype("f32")
        try:
            model = build_model("vector", AggregatorSpec(kind="ramil",
                                                         kernel_size=3),
                                feature_dim=6, seed=3)
            train(model, bags, OptimizerConfig(learning_rate=0.01, epochs=3),
                  seed=1, epoch_hook=lambda e, l: losses.append(l))
        finally:
            T.set_default_dtype("f64")
        assert len(losses) == 3 and np.all(np.isfinite(losses))

    @pytest.mark.parametrize("kind", ["attention", "gated_attention"])
    def test_attention_parameters_train(self, kind):
        ds = separable_dataset(n=8)
        model = build_model("vector", AggregatorSpec(kind=kind), feature_dim=4,
                            seed=2)
        attn = {k: p.data.copy() for k, p in model.parameters().items()
                if k.startswith("attn.")}
        assert sorted(attn) == sorted(
            ["attn.V", "attn.w"] + (["attn.U"] if kind == "gated_attention"
                                    else []))
        train(model, ds.bags, OptimizerConfig(epochs=1, learning_rate=1e-2),
              seed=4)
        params = model.parameters()
        for k, before in attn.items():
            assert not np.array_equal(params[k].data, before), k

    @pytest.mark.parametrize("kind", ["attention", "gated_attention"])
    def test_attention_gradients_match_finite_differences(self, kind):
        bag = separable_dataset(n=2).bags[1]
        model = build_model("vector", AggregatorSpec(kind=kind,
                                                     attention_hidden=8),
                            feature_dim=4, seed=5, dropout_rate=0.0)
        params = model.parameters()

        def loss():
            out = model.forward_bag(bag, mode="eval")
            return loss_bag(out.probs, bag.labels)

        loss().backward()
        for name in [k for k in params if k.startswith("attn.")]:
            p = params[name]
            value, grad = p.data, p.grad

            def at(v):
                p.data = v
                try:
                    return loss().item()
                finally:
                    p.data = value

            # entries the ReLU features zero are exactly 0 in autodiff and
            # rounding noise (~1e-11) in the differences
            np.testing.assert_allclose(grad, numeric_grad(at, value),
                                       rtol=1e-5, atol=1e-10, err_msg=name)

    def test_gradient_accumulation_changes_trajectory_not_shapes(self):
        ds = separable_dataset(n=8)
        model = build_model("vector", AggregatorSpec(kernel_size=3),
                            feature_dim=4, seed=2)
        train(model, ds.bags,
              OptimizerConfig(epochs=1, bags_per_step=4), seed=9)
        for p in model.parameters().values():
            assert np.all(np.isfinite(p.data))


    @pytest.mark.parametrize("pathway", ["vector", "image"])
    def test_train_and_evaluate_compute_no_scores(self, monkeypatch, pathway):
        # instance scores are for inspection only; no step may pay for them
        def refuse(*args):
            raise AssertionError("instance_scores called")
        monkeypatch.setattr(aggregators, "instance_scores", refuse)
        if pathway == "vector":
            bags = separable_dataset(n=6).bags
            model = build_model("vector", AggregatorSpec(kernel_size=3),
                                feature_dim=4, seed=1)
        else:
            bags = synth_image_bags(6, (2, 3), MotifSpec(image_size=8,
                                                         motif_size=2),
                                    seed=3).bags
            model = build_model("image", AggregatorSpec(kernel_size=3),
                                image_size=8, seed=1)
        train(model, bags, OptimizerConfig(epochs=1, learning_rate=1e-3),
              seed=0)
        evaluate(model, bags)
        with pytest.raises(AssertionError, match="instance_scores"):
            model.forward_bag(bags[0]).scores


class TestAuc:
    def test_perfect_and_inverted(self):
        s = np.asarray([0.9, 0.8, 0.2, 0.1])
        t = np.asarray([1.0, 1.0, 0.0, 0.0])
        assert auc_score(s, t) == 1.0
        assert auc_score(-s, t) == 0.0

    def test_all_tied_is_half(self):
        assert auc_score(np.full(6, 0.5),
                         np.asarray([1, 0, 1, 0, 1, 0.0])) == 0.5

    def test_single_class_raises(self):
        with pytest.raises(ValueError, match="one class"):
            auc_score(np.asarray([0.1, 0.9]), np.asarray([1.0, 1.0]))

    def test_matches_quadratic_pairwise_oracle(self, rng):
        for _ in range(200):
            n = int(rng.integers(4, 30))
            scores = np.round(rng.random(n), 2)   # force some ties
            targets = rng.integers(0, 2, n).astype(float)
            if targets.min() == targets.max():
                targets[0] = 1.0 - targets[0]
            assert auc_score(scores, targets) == pytest.approx(
                pairwise_auc(scores, targets), abs=1e-12)

    def test_equals_quadratic_pairwise_oracle_exactly(self, rng):
        # tie-averaged ranks are exact half-integers: one rounding each side
        for _ in range(200):
            n = int(rng.integers(2, 40))
            scores = np.round(rng.random(n), int(rng.integers(1, 3)))
            targets = rng.integers(0, 2, n).astype(float)
            if targets.min() == targets.max():
                targets[0] = 1.0 - targets[0]
            assert auc_score(scores, targets) == pairwise_auc(scores, targets)

    @pytest.mark.parametrize("case", ["random", "tie_heavy", "all_tied",
                                      "f32", "signed_zero_inf"])
    def test_ranks_byte_equal_to_rankdata(self, rng, case):
        for _ in range(100):
            n = int(rng.integers(1, 300))
            scores = {
                "random": lambda: rng.standard_normal(n),
                "tie_heavy": lambda: rng.integers(0, 4, n).astype(float),
                "all_tied": lambda: np.full(n, 0.25),
                "f32": lambda: np.round(rng.random(n), 2).astype(np.float32),
                "signed_zero_inf": lambda: rng.choice(
                    [-np.inf, -0.0, 0.0, 1.0, np.inf], n),
            }[case]()
            ranks = tie_ranks(scores)
            assert ranks.dtype == np.float64
            assert ranks.tobytes() == rankdata(scores).tobytes()

    def test_nan_score_gives_nan(self):
        targets = np.asarray([1.0, 0.0, 1.0, 0.0])
        for scores in ([0.9, np.nan, 0.2, 0.1], [np.nan] * 4):
            assert np.isnan(auc_score(np.asarray(scores), targets))
        with pytest.raises(ValueError, match="one class"):
            auc_score(np.asarray([np.nan, 0.5]), np.asarray([1.0, 1.0]))


class FixedModel:
    """Stub mapping bag_id -> fixed probability vector, for metric tests."""

    def __init__(self, table):
        self.table = table

    def forward_bag(self, bag, mode="eval"):
        class Out:
            pass
        o = Out()
        o.probs = Tensor(np.asarray(self.table[bag.bag_id]))
        return o


class TestEvaluate:
    def make_bags(self, labels):
        return [Bag(f"b{i}", [np.zeros(2)], np.asarray(l))
                for i, l in enumerate(labels)]

    def test_hand_computed_counts(self):
        # preds at 0.5: [1, 1, 0, 0]; truth: [1, 0, 0, 1]
        bags = self.make_bags([[1.0], [0.0], [0.0], [1.0]])
        model = FixedModel({"b0": [0.9], "b1": [0.8], "b2": [0.2], "b3": [0.3]})
        m = evaluate(model, bags)
        assert m["accuracy"] == 0.5
        # tp=1 fp=1 fn=1 -> F1 = 2/(2+1+1)
        assert m["macro_f1"] == pytest.approx(0.5)
        assert m["micro_f1"] == pytest.approx(0.5)
        # pos scores 0.9, 0.3 vs neg 0.8, 0.2: 3 of 4 pairs ordered
        assert m["auc"] == pytest.approx(0.75)

    def test_multilabel_micro_vs_macro(self):
        bags = self.make_bags([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        model = FixedModel({"b0": [0.9, 0.1], "b1": [0.1, 0.9],
                            "b2": [0.9, 0.9]})
        m = evaluate(model, bags)
        # label0: tp=2 fp=0 fn=0 -> 1.0; label1: tp=1 fp=1 fn=0 -> 2/3
        assert m["macro_f1"] == pytest.approx((1.0 + 2 / 3) / 2)
        # pooled: tp=3 fp=1 fn=0 -> 6/7
        assert m["micro_f1"] == pytest.approx(6 / 7)
        assert m["accuracy"] == pytest.approx(5 / 6)

    def test_single_class_label_excluded_from_auc(self):
        bags = self.make_bags([[1.0, 1.0], [0.0, 1.0]])
        model = FixedModel({"b0": [0.9, 0.9], "b1": [0.1, 0.9]})
        m = evaluate(model, bags)
        assert m["auc"] == 1.0  # only label 0 contributes

    def test_order_invariance(self, rng):
        bags = self.make_bags([[1.0], [0.0], [1.0], [0.0], [1.0]])
        model = FixedModel({b.bag_id: [float(rng.random())] for b in bags})
        ref = evaluate(model, bags)
        for _ in range(5):
            perm = rng.permutation(len(bags))
            assert evaluate(model, [bags[i] for i in perm]) == ref

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate(FixedModel({}), [])


def eval_bags(pathway):
    if pathway == "vector":
        return separable_dataset(n=8, dim=4, seed=5).bags
    return synth_image_bags(8, (1, 4), MotifSpec(image_size=8, motif_size=2),
                            seed=5).bags


def eval_model(pathway, kind, seed=2):
    return build_model(pathway, AggregatorSpec(kind=kind, kernel_size=3),
                       feature_dim=4, image_size=8, seed=seed)


class TestEvaluateNoGrad:
    @pytest.mark.parametrize("precision", ["f64", "f32"])
    @pytest.mark.parametrize("pathway,kind", [
        (pathway, kind)
        for pathway in ("vector", "image")
        for kind in ("hamil", "hamil_a", "ramil", "max_pool", "attention")
        if (pathway, kind) != ("image", "attention")])
    def test_probabilities_equal_tape_forward(self, pathway, kind, precision):
        previous = T.set_default_dtype(precision)
        try:
            model = eval_model(pathway, kind)
            bags = eval_bags(pathway)
            forward, seen = model.forward_bag, []

            def capture(bag, mode="eval", rng=None):
                out = forward(bag, mode, rng)
                seen.append(out)
                return out
            model.forward_bag = capture
            evaluate(model, bags)
            taped = [forward(b, mode="eval") for b in bags]
        finally:
            T.set_default_dtype(previous)
        assert len(seen) == len(bags)
        for out, ref in zip(seen, taped):
            assert out.probs.data.dtype == np.dtype(precision.replace("f", "float"))
            assert out.probs.data.tobytes() == ref.probs.data.tobytes()
            assert ref.probs._parents
            for t in (out.probs, out.aggregated, out.features):
                assert t._parents == () and t._backward is None

    def test_scope_restored_when_forward_raises(self):
        model = eval_model("vector", "hamil")
        bags = eval_bags("vector")
        bad = Bag("wide", [np.zeros(5), np.ones(5)], np.asarray([1.0]))
        with pytest.raises(T.ShapeError, match="instance dim 5"):
            evaluate(model, bags[:3] + [bad])
        assert model.forward_bag(bags[0], mode="eval").probs._parents

    @pytest.mark.parametrize("pathway,kind", [
        ("vector", "hamil"), ("vector", "attention"), ("image", "hamil_a")])
    def test_train_step_after_evaluate_fills_every_gradient(self, pathway,
                                                            kind):
        model = eval_model(pathway, kind)
        bags = [b for b in eval_bags(pathway) if b.size >= 2]
        evaluate(model, bags)
        params = model.parameters()
        for p in params.values():
            p.grad = None
        out = model.forward_bag(bags[0], mode="train",
                                rng=np.random.default_rng(0))
        loss_bag(out.probs, bags[0].labels).backward()
        assert [n for n, p in params.items() if p.grad is None] == []


class TestRunCv:
    def small_spec(self, **kw):
        ds = separable_dataset(n=12, seed=4)
        return RunSpec(
            dataset=ds,
            aggregator=AggregatorSpec(kind="hamil", kernel_size=3),
            optimizer=OptimizerConfig(epochs=2, learning_rate=1e-3),
            repetitions=1, folds=2, base_seed=13, **kw)

    def test_smoke_all_folds_reported(self):
        res = run_cv(self.small_spec())
        assert len(res.folds) == 2
        for f in res.folds:
            assert set(f.metrics) == set(METRIC_NAMES)
            assert 0.0 <= f.metrics["accuracy"] <= 1.0
        s = res.summary()
        assert set(s) == set(METRIC_NAMES)
        assert "std_over_repetition_means" in s["accuracy"]

    def test_deterministic_metrics(self):
        a = run_cv(self.small_spec())
        b = run_cv(self.small_spec())
        assert [f.metrics for f in a.folds] == [f.metrics for f in b.folds]
        assert a.config_hash == b.config_hash

    def test_json_and_csv_render(self):
        res = run_cv(self.small_spec())
        payload = json.loads(res.to_json())
        assert payload["dataset"] == "separable"
        assert len(payload["folds"]) == 2
        csv_text = res.to_csv()
        assert csv_text.splitlines()[0].startswith("repetition,fold")
        assert "summary_mean" in csv_text

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_json_records_environment(self, precision):
        res = run_cv(self.small_spec(precision=precision))
        assert json.loads(res.to_json())["environment"] == {
            "python": platform.python_version(), "numpy": np.__version__,
            "precision": precision}

    def test_progress_callback(self):
        seen = []
        run_cv(self.small_spec(), progress=lambda f: seen.append((f.repetition,
                                                                  f.fold)))
        assert seen == [(0, 0), (0, 1)]

    def test_precision_enters_config_hash(self):
        assert (self.small_spec(precision="f32").config_hash()
                != self.small_spec(precision="f64").config_hash())

    def test_workers_left_out_of_config_hash(self):
        assert (self.small_spec(workers=1).config_hash()
                == self.small_spec(workers=2).config_hash())

    @pytest.mark.parametrize("precision,dtype", [("f32", np.float32),
                                                 ("f64", np.float64)])
    def test_run_fold_trains_in_spec_precision(self, monkeypatch, precision,
                                               dtype):
        seen = []
        real_train = train_eval.train

        def spy(model, *args, **kw):
            seen.append({p.data.dtype for p in model.parameters().values()})
            return real_train(model, *args, **kw)
        monkeypatch.setattr(train_eval, "train", spy)
        spec = self.small_spec(precision=precision)
        plan = make_cv_plan(spec.dataset, 1, 2, spec.base_seed)
        # the process-wide precision starts at the other value
        T.set_default_dtype("f64" if precision == "f32" else "f32")
        try:
            train_eval._run_fold((spec, plan, 0, 0))
        finally:
            T.set_default_dtype("f64")
        assert seen == [{np.dtype(dtype)}]

    @pytest.mark.parametrize("pathway,precision",
                             [("vector", "f64"), ("vector", "f32"),
                              ("image", "f64")])
    def test_worker_pool_matches_serial(self, pathway, precision):
        spec = self.small_spec(precision=precision)
        if pathway == "image":
            spec.dataset = synth_image_bags(
                8, (2, 3), MotifSpec(image_size=8, motif_size=2), seed=3)
            spec.pathway, spec.image_size = "image", 8
        pooled = run_cv(dataclasses.replace(spec, workers=2))
        assert run_cv(spec).folds == pooled.folds

    @pytest.mark.parametrize("workers", [1, 2])
    def test_caller_precision_restored(self, workers):
        try:
            run_cv(self.small_spec(precision="f32", workers=workers))
            assert Tensor(1.0).data.dtype == np.float64
        finally:
            T.set_default_dtype("f64")

    def test_image_pathway_smoke(self):
        ds = synth_image_bags(10, (2, 3), MotifSpec(image_size=8, motif_size=2),
                              seed=3)
        spec = RunSpec(dataset=ds, pathway="image",
                       aggregator=AggregatorSpec(kind="hamil", kernel_size=3),
                       optimizer=OptimizerConfig(epochs=1, learning_rate=1e-3),
                       repetitions=1, folds=2, base_seed=1, image_size=8)
        res = run_cv(spec)
        assert len(res.folds) == 2
