"""Release acceptance suite.

Each test prints exactly one [PASS]/[FAIL]/[SKIP] line for its criterion.
Criteria 5 and 6 need the classic benchmark CSVs (musk1, musk2, fox, tiger,
elephant in canonical format); point HAMIL_DATA_DIR at a directory holding
them, or place them under ./data. Without the files those two tests skip.
"""

import math
import os
import time

import numpy as np
import pytest

from hamil import tensor as T
from hamil.aggregators import (AggregatorSpec, AggUnitParams, hamil_a_aggregate,
                               hamil_aggregate)
from hamil.data import (Bag, MotifSpec, load_bag_csv, oracle_motif_detector,
                        save_bag_csv, synth_image_bags)
from hamil.hierclust import build_hierarchy
from hamil.models import build_model, loss_bag, save_model
from hamil.oracles import (naive_single_link, numeric_grad, pairwise_auc,
                           relative_error)
from hamil.tensor import Tensor
from hamil.train_eval import (OptimizerConfig, RunSpec, auc_score, evaluate,
                              run_cv, train)


def report(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def skip(num, detail):
    print(f"\n[SKIP] criterion {num}: {detail}")
    pytest.skip(detail)


def data_dir():
    return os.environ.get("HAMIL_DATA_DIR",
                          os.path.join(os.path.dirname(__file__), "..", "data"))


def benchmark_path(name):
    return os.path.join(data_dir(), f"{name}.csv")


class TestCriterion1GradientCorrectness:
    @staticmethod
    def op_cases(rng):
        """(name, leaf array, builder) triples covering every differentiable
        op; builder maps a leaf Tensor to a scalar Tensor."""
        a = rng.standard_normal((3, 4))
        b = Tensor(rng.standard_normal((3, 4)))
        v = rng.standard_normal(6)
        w1 = Tensor(rng.standard_normal((4, 2)))
        bias = Tensor(rng.standard_normal(2))
        k1 = Tensor(rng.standard_normal((1, 2, 3)))
        k2 = Tensor(rng.standard_normal((2, 1, 3, 3)))
        img = rng.standard_normal((1, 4, 4))
        pair = rng.standard_normal((2, 6))
        gamma = Tensor(rng.standard_normal(3))
        beta = Tensor(np.zeros(3))
        coeff = Tensor(np.arange(6.0))
        # weighting matrix: sum(batchnorm(x)) alone is constant in x
        cmat = Tensor(rng.standard_normal((3, 4)))
        targets = Tensor((rng.random((3, 4)) > 0.5).astype(float))

        S = T.sum_all
        return [
            ("add", a, lambda t: S(T.add(t, b))),
            ("mul", a, lambda t: S(T.mul(t, b))),
            ("div", a, lambda t: S(T.div(t, Tensor(np.asarray(2.5))))),
            ("relu", a + 0.05, lambda t: S(T.relu(t))),
            ("sigmoid", a, lambda t: S(T.sigmoid(t))),
            ("tanh", a, lambda t: S(T.tanh(t))),
            ("exp", a, lambda t: S(T.exp(t))),
            ("log", np.abs(a) + 1.0, lambda t: S(T.log(t))),
            ("matmul", a, lambda t: S(T.matmul(t, w1))),
            ("fully_connected", a,
             lambda t: S(T.fully_connected(t, w1, bias))),
            ("conv2d_vector", pair,
             lambda t: S(T.conv2d(t, k1, Tensor(np.zeros(1)), padding=1))),
            ("conv2d", img,
             lambda t: S(T.conv2d(t, k2, Tensor(np.zeros(2)), padding=1))),
            ("maxpool2d", img * 3.0, lambda t: S(T.maxpool2d(t, 2))),
            ("batchnorm", a,
             lambda t: S(T.mul(T.batchnorm(t, gamma, beta,
                                           T.BatchNormState(3), True),
                               cmat))),
            ("reduce_max", a * 2.0,
             lambda t: S(T.reduce(t, "max", axis=0))),
            ("reduce_mean", a, lambda t: S(T.reduce(t, "mean", axis=1))),
            ("reduce_sum", a, lambda t: S(T.reduce(t, "sum", axis=0))),
            ("reduce_lse", a,
             lambda t: S(T.reduce(t, "lse", axis=0, r=2.0))),
            ("softmax", v, lambda t: S(T.mul(T.softmax(t), coeff))),
            ("stack_getitem", v,
             lambda t: S(T.mul(T.stack([T.stack([t, T.mul(t, Tensor(np.asarray(2.0)))],
                                                axis=0)[1],
                                        T.reshape(T.reshape(t, (2, 3)), (6,))],
                                       axis=1),
                               Tensor(np.arange(12.0).reshape(6, 2))))),
            ("bce_loss", a,
             lambda t: T.bce_loss(T.sigmoid(t), targets)),
        ]

    @staticmethod
    def check_op(x, builder):
        leaf = Tensor(x.copy(), requires_grad=True)
        builder(leaf).backward()

        def f(v):
            return builder(Tensor(v)).item()

        return relative_error(leaf.grad, numeric_grad(f, x))

    def test_criterion_1(self):
        t0 = time.monotonic()
        worst_op = 0.0
        worst_e2e = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            for name, x, builder in self.op_cases(rng):
                err = self.check_op(np.asarray(x, dtype=np.float64), builder)
                worst_op = max(worst_op, err)
            # end-to-end: vector pathway with a trainable merge unit
            model = build_model(
                "vector", AggregatorSpec(kind="hamil", kernel_size=3),
                feature_dim=3, seed=seed)
            bag = Bag("b", [rng.standard_normal(3) for _ in range(3)], [1.0])
            params = model.parameters()
            for p in params.values():
                p.grad = None
            base_out = model.forward_bag(bag)
            base_queue = base_out.queue.to_json()
            X = Tensor(np.stack([np.ravel(i) for i in bag.instances]))

            def relu_mask():
                return model._embed(X, False, None).data > 0

            base_mask = relu_mask()
            loss_bag(base_out.probs, bag.labels).backward()
            for pname, p in params.items():
                base = p.data.copy()
                flat = base.ravel()
                picks = rng.choice(flat.size, size=min(3, flat.size),
                                   replace=False)
                for j in picks:
                    idx = np.unravel_index(j, base.shape)

                    def f(delta):
                        p.data = base.copy()
                        p.data[idx] += delta
                        out = model.forward_bag(bag)
                        p.data = base
                        # the loss is differentiable only where the
                        # clustering decisions and ReLU activation pattern
                        # are constant; a flip marks a piecewise boundary
                        p.data = base.copy()
                        p.data[idx] += delta
                        flipped = out.queue.to_json() != base_queue \
                            or not np.array_equal(relu_mask(), base_mask)
                        p.data = base
                        if flipped:
                            return None
                        return loss_bag(out.probs, bag.labels).item()

                    fp, fm = f(1e-5), f(-1e-5)
                    if fp is None or fm is None:
                        continue
                    num = (fp - fm) / 2e-5
                    ana = p.grad[idx]
                    worst_e2e = max(worst_e2e, abs(num - ana)
                                    / max(abs(num) + abs(ana), 1e-8))
        elapsed = time.monotonic() - t0
        ok = worst_op < 1e-5 and worst_e2e < 1e-4 and elapsed < 60
        report(1, ok,
               f"gradient checks over 100 seeds: op rel err {worst_op:.2e} "
               f"(< 1e-5), end-to-end {worst_e2e:.2e} (< 1e-4), "
               f"{elapsed:.1f}s (< 60s)")


class TestCriterion2ClusteringOracle:
    def test_criterion_2(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(20240)
        mismatches = 0
        for _ in range(1000):
            m = int(rng.integers(1, 13))
            feats = rng.standard_normal((m, int(rng.integers(1, 6))))
            got = [(t.left, t.right, t.new) for t in build_hierarchy(feats)]
            if got != naive_single_link(feats):
                mismatches += 1
        elapsed = time.monotonic() - t0
        ok = mismatches == 0 and elapsed < 10
        report(2, ok, f"1000 random bags (m <= 12) vs brute-force single "
                      f"link: {mismatches} mismatches, {elapsed:.1f}s (< 10s)")


def eval_logit(model, bag):
    p = model.forward_bag(bag, mode="eval").probs.item()
    return math.log(p) - math.log1p(-p)


class TestCriterion3PermutationInvariance:
    def test_criterion_3(self):
        rng = np.random.default_rng(333)
        worst = {"hamil": 0.0, "hamil_a": 0.0, "max_pool": 0.0,
                 "mean_pool": 0.0, "sum_pool": 0.0, "lse_pool": 0.0,
                 "attention": 0.0, "gated_attention": 0.0}
        models = {k: build_model("vector", AggregatorSpec(kind=k,
                                                          kernel_size=3),
                                 feature_dim=5, seed=9)
                  for k in worst}
        checked = 0
        while checked < 50:
            m = int(rng.integers(2, 9))
            insts = [rng.standard_normal(5) for _ in range(m)]
            # verify the single-link decision distances on the clustering
            # embeddings are pairwise distinct
            H = models["hamil"]._embed(
                Tensor(np.stack(insts)), False, None).data
            d = np.linalg.norm(H[:, None] - H[None, :], axis=-1)
            off = d[np.triu_indices(m, 1)]
            if len(np.unique(off)) != len(off):
                continue
            checked += 1
            for kind, model in models.items():
                ref = eval_logit(model, Bag("b", insts, [1.0]))
                for _ in range(5):
                    perm = rng.permutation(m)
                    got = eval_logit(model,
                                     Bag("b", [insts[i] for i in perm], [1.0]))
                    worst[kind] = max(worst[kind], abs(got - ref))
        hier = max(worst["hamil"], worst["hamil_a"])
        fixed = max(v for k, v in worst.items()
                    if k not in ("hamil", "hamil_a"))
        ok = hier < 1e-9 and fixed <= 1e-12
        report(3, ok, f"50 bags, shuffled instances: hierarchical logit "
                      f"drift {hier:.2e} (< 1e-9), pooling/attention "
                      f"{fixed:.2e} (<= 1e-12)")


class TestCriterion4KernelReductionIdentity:
    def test_criterion_4(self):
        rng = np.random.default_rng(44)
        params = AggUnitParams.mean_kernel(AggregatorSpec(kernel_size=7), "1d")
        worst = 0.0
        for _ in range(100):
            m = int(rng.integers(1, 9))
            X = Tensor(rng.standard_normal((m, 12)))
            queue = build_hierarchy(X.data)
            a = hamil_aggregate(X, queue, params)
            b = hamil_a_aggregate(X, queue)
            worst = max(worst, float(np.max(np.abs(a.data - b.data))))
        ok = worst <= 1e-12
        report(4, ok, f"mean-kernel unit vs elementwise-mean ablation on 100 "
                      f"random bags: max diff {worst:.2e} (<= 1e-12)")


def classic_run(name, kind, epochs):
    ds = load_bag_csv(benchmark_path(name), name=name)
    spec = RunSpec(
        dataset=ds, pathway="vector",
        aggregator=AggregatorSpec(kind=kind, kernel_size=7),
        optimizer=OptimizerConfig(kind="sgd", learning_rate=1e-4,
                                  momentum=0.9, weight_decay=0.005,
                                  epochs=epochs),
        repetitions=5, folds=10, base_seed=7,
        workers=min(10, os.cpu_count() or 1))
    return run_cv(spec).summary()["accuracy"]["mean"]


class TestCriterion5MuskAccuracy:
    def test_criterion_5(self):
        missing = [n for n in ("musk1", "musk2")
                   if not os.path.exists(benchmark_path(n))]
        if missing:
            skip(5, f"benchmark CSVs not present ({', '.join(missing)}); "
                    f"set HAMIL_DATA_DIR or place them under ./data")
        acc1 = classic_run("musk1", "hamil", epochs=100)
        acc2 = classic_run("musk2", "hamil", epochs=100)
        ok = abs(acc1 - 0.866) <= 0.06 and abs(acc2 - 0.820) <= 0.06
        report(5, ok, f"musk1 accuracy {acc1:.3f} (0.866 +- 0.06), "
                      f"musk2 {acc2:.3f} (0.820 +- 0.06)")


class TestCriterion6AnimalAccuracy:
    TARGETS = {
        ("fox", "hamil"): (0.647, 100), ("tiger", "hamil"): (0.815, 50),
        ("elephant", "hamil"): (0.865, 50),
        ("fox", "hamil_a"): (0.631, 100), ("tiger", "hamil_a"): (0.806, 50),
        ("elephant", "hamil_a"): (0.878, 50),
    }

    def test_criterion_6(self):
        missing = [n for n in ("fox", "tiger", "elephant")
                   if not os.path.exists(benchmark_path(n))]
        if missing:
            skip(6, f"benchmark CSVs not present ({', '.join(missing)}); "
                    f"set HAMIL_DATA_DIR or place them under ./data")
        pieces = []
        ok = True
        for (name, kind), (target, epochs) in self.TARGETS.items():
            acc = classic_run(name, kind, epochs)
            ok = ok and abs(acc - target) <= 0.06
            pieces.append(f"{name}/{kind} {acc:.3f} ({target} +- 0.06)")
        report(6, ok, "; ".join(pieces))


class TestCriterion7SyntheticImages:
    MOTIF = MotifSpec(image_size=8, motif_size=2, noise_level=0.4)

    def train_one(self, kind, seed, train_ds):
        model = build_model("image",
                            AggregatorSpec(kind=kind, kernel_size=3),
                            image_size=8, seed=seed)
        train(model, train_ds.bags,
              OptimizerConfig(kind="adam", learning_rate=2e-3,
                              weight_decay=0.0, epochs=20), seed=seed)
        return model

    def test_criterion_7(self, tmp_path, capsys):
        train_ds = synth_image_bags(40, (3, 6), self.MOTIF, seed=101)
        test_ds = synth_image_bags(60, (3, 6), self.MOTIF, seed=202)
        hamil_aucs, ramil_aucs = [], []
        for seed in range(5):
            hm = self.train_one("hamil", seed, train_ds)
            rm = self.train_one("ramil", seed, train_ds)
            hamil_aucs.append(evaluate(hm, test_ds.bags)["auc"])
            ramil_aucs.append(evaluate(rm, test_ds.bags)["auc"])
        hamil_mean = float(np.mean(hamil_aucs))
        ramil_mean = float(np.mean(ramil_aucs))

        # per-instance score ranking on positive test bags. The trainable
        # unit's output sign is arbitrary (cosine can flip wholesale), so
        # the hierarchy's motif-retention property is demonstrated with the
        # mean-merge variant, whose aggregate provably stays in the
        # instances' orthant with the last-merged (outlier) instance at
        # weight one half.
        rank_model = self.train_one("hamil_a", 0, train_ds)
        positives = [b for b in test_ds.bags if b.labels[0] > 0.5]
        hits = 0
        for bag in positives:
            out = rank_model.forward_bag(bag, mode="eval")
            top = int(np.argmax(out.scores))
            if oracle_motif_detector(bag.instances[top], self.MOTIF):
                hits += 1
        frac = hits / len(positives)
        first_model = rank_model

        # the scores subcommand reports the same per-instance ranking
        flat = [Bag(b.bag_id, [np.ravel(i) for i in b.instances], b.labels)
                for b in test_ds.bags]
        from hamil.data import Dataset
        csv_path = str(tmp_path / "synth.csv")
        save_bag_csv(Dataset("synth", flat, 64, 1), csv_path)
        ckpt = str(tmp_path / "model.json")
        save_model(first_model, ckpt)
        from hamil.cli import main as cli_main
        assert cli_main(["scores", ckpt, csv_path, positives[0].bag_id]) == 0
        cli_out = capsys.readouterr().out
        ref = first_model.forward_bag(positives[0], mode="eval").scores
        printed = [float(l.split("score")[1])
                   for l in cli_out.splitlines() if "score" in l]
        cli_matches = np.allclose(printed, ref, atol=1e-6)

        ok = hamil_mean >= 0.95 and hamil_mean > ramil_mean \
            and frac >= 0.8 and cli_matches
        report(7, ok,
               f"synthetic images: mean AUC {hamil_mean:.3f} (>= 0.95), "
               f"random-order ablation {ramil_mean:.3f} (must be lower), "
               f"motif ranked first in {frac:.0%} of positive bags (>= 80%), "
               f"scores subcommand consistent: {cli_matches}")


class TestCriterion8MetricsOracle:
    def test_criterion_8(self):
        rng = np.random.default_rng(888)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(4, 40))
            scores = np.round(rng.random(n), 2)
            targets = rng.integers(0, 2, n).astype(float)
            if targets.min() == targets.max():
                targets[0] = 1.0 - targets[0]
            worst = max(worst, abs(auc_score(scores, targets)
                                   - pairwise_auc(scores, targets)))

        # crafted confusion counts, computed by hand:
        # preds (>= 0.5): label0 [1,1,0,0], label1 [0,1,1,0]
        # truth:          label0 [1,0,0,1], label1 [1,1,0,0]
        class Fixed:
            table = {"b0": [0.9, 0.1], "b1": [0.8, 0.9],
                     "b2": [0.2, 0.7], "b3": [0.1, 0.3]}

            def forward_bag(self, bag, mode="eval"):
                out = type("O", (), {})()
                out.probs = Tensor(np.asarray(self.table[bag.bag_id]))
                return out

        bags = [Bag(f"b{i}", [np.zeros(1)], lab) for i, lab in enumerate(
            ([1.0, 1.0], [0.0, 1.0], [0.0, 0.0], [1.0, 0.0]))]
        m = evaluate(Fixed(), bags)
        # label0: tp=1 fp=1 fn=1 -> 0.5 ; label1: tp=1 fp=1 fn=1 -> 0.5
        macro_expected = 0.5
        # pooled: tp=2 fp=2 fn=2 -> 2*2/(2*2+2+2) = 0.5
        micro_expected = 0.5
        f1_ok = (abs(m["macro_f1"] - macro_expected) < 1e-12
                 and abs(m["micro_f1"] - micro_expected) < 1e-12)
        ok = worst == 0.0 and f1_ok
        report(8, ok, f"AUC vs quadratic pairwise oracle on 200 sets: max "
                      f"diff {worst:.1e} (exact); macro/micro F1 match "
                      f"hand-computed counts: {f1_ok}")
