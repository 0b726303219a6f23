import hashlib
import json

import numpy as np
import pytest

from hamil.data import (Bag, DataFormatError, Dataset, MotifSpec, convert_c45,
                        load_bag_csv, make_cv_plan, normalize,
                        oracle_motif_detector, save_bag_csv, synth_image_bags)


def toy_dataset(n_bags=6, feature_dim=3, seed=0):
    rng = np.random.default_rng(seed)
    bags = []
    for i in range(n_bags):
        m = int(rng.integers(1, 5))
        bags.append(Bag(f"b{i}", [rng.standard_normal(feature_dim)
                                  for _ in range(m)],
                        np.asarray([float(i % 2)])))
    return Dataset("toy", bags, feature_dim, 1)


class TestBagAndDataset:
    def test_empty_bag_rejected(self):
        with pytest.raises(DataFormatError, match="no instances"):
            Bag("b0", [], np.asarray([1.0]))

    def test_duplicate_bag_ids_rejected(self):
        b = [Bag("x", [np.zeros(2)], [0.0]), Bag("x", [np.zeros(2)], [1.0])]
        with pytest.raises(DataFormatError, match="duplicate"):
            Dataset("d", b, 2, 1)

    def test_counts(self):
        ds = toy_dataset()
        assert ds.instance_count == sum(b.size for b in ds.bags)
        sub = ds.subset(["b0", "b3"])
        assert [b.bag_id for b in sub.bags] == ["b0", "b3"]


class TestCsvRoundTrip:
    def test_exact_round_trip(self, rng, tmp_path):
        ds = toy_dataset(seed=7)
        path = str(tmp_path / "toy.csv")
        save_bag_csv(ds, path)
        back = load_bag_csv(path, name="toy")
        assert [b.bag_id for b in back.bags] == [b.bag_id for b in ds.bags]
        for a, b in zip(ds.bags, back.bags):
            np.testing.assert_array_equal(a.labels, b.labels)
            assert a.size == b.size
            for x, y in zip(a.instances, b.instances):
                np.testing.assert_array_equal(np.ravel(x), y)

    def test_sidecar_written_and_checked(self, tmp_path):
        ds = toy_dataset()
        path = str(tmp_path / "toy.csv")
        save_bag_csv(ds, path)
        with open(path + ".meta.json") as f:
            meta = json.load(f)
        assert meta["bag_count"] == len(ds.bags)
        assert meta["instance_count"] == ds.instance_count
        meta["bag_count"] += 1
        with open(path + ".meta.json", "w") as f:
            json.dump(meta, f)
        with pytest.raises(DataFormatError, match="sidecar"):
            load_bag_csv(path)

    def test_sidecar_checksum_checked(self, tmp_path):
        ds = toy_dataset()
        ds.bags[0].instances[0][0] = 2.0
        path = tmp_path / "toy.csv"
        save_bag_csv(ds, str(path))
        text = path.read_text()
        assert text.count(",2.0,") == 1
        path.write_text(text.replace(",2.0,", ",3.0,"))
        with pytest.raises(DataFormatError,
                           match=r"toy\.csv\.meta\.json has checksum="):
            load_bag_csv(str(path))

    def test_sidecar_checksum_is_file_sha256(self, tmp_path):
        path = tmp_path / "toy.csv"
        save_bag_csv(toy_dataset(), str(path))
        with open(str(path) + ".meta.json") as f:
            checksum = json.load(f)["checksum"]
        assert checksum == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_two_bag_example(self, tmp_path):
        path = tmp_path / "mini.csv"
        path.write_text("bag_id,label_0,f_0,f_1\n"
                        "a,1.0,0.5,0.25\n"
                        "a,1.0,1.5,2.5\n"
                        "b,0.0,3.0,4.0\n")
        ds = load_bag_csv(str(path))
        assert len(ds.bags) == 2
        assert ds.bags[0].size == 2 and ds.bags[1].size == 1
        np.testing.assert_array_equal(ds.bags[0].instances[1], [1.5, 2.5])
        np.testing.assert_array_equal(ds.bags[1].labels, [0.0])

    def test_inconsistent_labels_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("bag_id,label_0,f_0\na,1.0,0.1\na,0.0,0.2\n")
        with pytest.raises(DataFormatError, match="inconsistent"):
            load_bag_csv(str(path))

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("bag_id,label_0,f_0,f_1\na,1.0,0.1\n")
        with pytest.raises(DataFormatError, match="fields"):
            load_bag_csv(str(path))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,y,x0\na,1.0,0.1\n")
        with pytest.raises(DataFormatError, match="header"):
            load_bag_csv(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(DataFormatError, match="empty"):
            load_bag_csv(str(path))


class TestNormalize:
    def test_train_fold_standardized(self):
        rng = np.random.default_rng(3)
        bags = [Bag(f"b{i}", [rng.standard_normal(4) * 5 + 2 for _ in range(3)],
                    [1.0]) for i in range(4)]
        ds = Dataset("d", bags, 4, 1)
        out, stats = normalize(ds)
        X = np.concatenate([np.stack(b.instances) for b in out.bags])
        np.testing.assert_allclose(X.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(X.std(axis=0), 1.0, atol=1e-12)

    def test_constant_feature_maps_to_zero(self):
        bags = [Bag("a", [np.asarray([7.0, 1.0]), np.asarray([7.0, 3.0])], [0.0])]
        out, stats = normalize(Dataset("d", bags, 2, 1))
        assert stats.std[0] == 0.0
        assert all(inst[0] == 0.0 for inst in out.bags[0].instances)

    def test_test_fold_uses_train_stats_only(self):
        train = Dataset("t", [Bag("a", [np.asarray([0.0]), np.asarray([2.0])],
                                  [1.0])], 1, 1)
        test = Dataset("s", [Bag("b", [np.asarray([10.0])], [0.0])], 1, 1)
        _, stats = normalize(train)
        out, _ = normalize(test, stats)
        # (10 - 1) / 1 with train mean 1, train std 1
        assert out.bags[0].instances[0][0] == 9.0


class TestCvPlan:
    def test_every_bag_assigned_once(self):
        ds = toy_dataset(n_bags=20)
        plan = make_cv_plan(ds, repetitions=3, folds=5, base_seed=1)
        for rep in range(3):
            assert sorted(plan.assignment[rep]) == sorted(
                b.bag_id for b in ds.bags)

    def test_fold_sizes_differ_by_at_most_one(self):
        rng = np.random.default_rng(0)
        bags = [Bag(f"b{i}", [rng.standard_normal(2)],
                    [float(i < 47)]) for i in range(92)]
        ds = Dataset("d", bags, 2, 1)
        plan = make_cv_plan(ds, repetitions=2, folds=10, base_seed=9)
        for rep in range(2):
            counts = np.bincount(list(plan.assignment[rep].values()), minlength=10)
            assert counts.min() >= 9 and counts.max() <= 10

    def test_stratification_binary(self):
        rng = np.random.default_rng(0)
        bags = [Bag(f"b{i}", [rng.standard_normal(2)],
                    [float(i < 50)]) for i in range(100)]
        ds = Dataset("d", bags, 2, 1)
        plan = make_cv_plan(ds, repetitions=1, folds=10, base_seed=4)
        labels = {b.bag_id: b.labels[0] for b in ds.bags}
        for fold in range(10):
            members = [bid for bid, f in plan.assignment[0].items() if f == fold]
            pos = sum(labels[b] for b in members)
            assert pos == 5  # 50/50 split stratifies exactly

    def test_deterministic_per_seed(self):
        ds = toy_dataset(n_bags=15)
        a = make_cv_plan(ds, 2, 5, base_seed=11)
        b = make_cv_plan(ds, 2, 5, base_seed=11)
        c = make_cv_plan(ds, 2, 5, base_seed=12)
        assert a.assignment == b.assignment
        assert a.assignment != c.assignment

    def test_multi_label_plan(self):
        # no stratification: one permutation of all bags, dealt round robin
        rng = np.random.default_rng(3)
        bags = [Bag(f"b{i}", [rng.standard_normal(2)],
                    (rng.random(4) < 0.5).astype(float)) for i in range(23)]
        ds = Dataset("multi", bags, 2, 4)
        plan = make_cv_plan(ds, repetitions=3, folds=5, base_seed=6)
        for rep in range(3):
            assignment = plan.assignment[rep]
            assert sorted(assignment) == sorted(b.bag_id for b in bags)
            counts = np.bincount(list(assignment.values()), minlength=5)
            assert len(counts) == 5 and counts.max() - counts.min() <= 1
        assert make_cv_plan(ds, 3, 5, base_seed=6).assignment == plan.assignment
        assert make_cv_plan(ds, 3, 5, base_seed=7).assignment != plan.assignment

    def test_fold_split_keeps_bags_intact(self):
        ds = toy_dataset(n_bags=12)
        plan = make_cv_plan(ds, 1, 4, base_seed=2)
        train, test = plan.fold_split(ds, 0, 0)
        assert len(train.bags) + len(test.bags) == 12
        assert not {b.bag_id for b in train.bags} & {b.bag_id for b in test.bags}

    def test_more_folds_than_bags_rejected(self):
        with pytest.raises(ValueError, match="folds"):
            make_cv_plan(toy_dataset(n_bags=3), 1, 5, base_seed=0)


class TestSyntheticImages:
    def test_labels_match_oracle_detector(self):
        spec = MotifSpec()
        ds = synth_image_bags(40, (2, 6), spec, seed=5)
        for bag in ds.bags:
            has_motif = any(oracle_motif_detector(i, spec) for i in bag.instances)
            assert bag.labels[0] == (1.0 if has_motif else 0.0)

    def test_positive_fraction_extremes(self):
        spec0 = MotifSpec(positive_fraction=0.0)
        spec1 = MotifSpec(positive_fraction=1.0)
        ds0 = synth_image_bags(15, (1, 4), spec0, seed=1)
        ds1 = synth_image_bags(15, (1, 4), spec1, seed=1)
        assert all(b.labels[0] == 0.0 for b in ds0.bags)
        assert all(b.labels[0] == 1.0 for b in ds1.bags)

    def test_shapes_and_determinism(self):
        spec = MotifSpec(image_size=12, motif_size=3)
        a = synth_image_bags(5, (2, 3), spec, seed=9)
        b = synth_image_bags(5, (2, 3), spec, seed=9)
        for x, y in zip(a.bags, b.bags):
            assert all(i.shape == (1, 12, 12) for i in x.instances)
            for p, q in zip(x.instances, y.instances):
                np.testing.assert_array_equal(p, q)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="smaller"):
            MotifSpec(image_size=4, motif_size=4)
        with pytest.raises(ValueError, match="noise"):
            MotifSpec(noise_level=1.5)
        with pytest.raises(ValueError, match="range"):
            synth_image_bags(3, (4, 2), MotifSpec(), seed=0)


class TestC45Converter:
    def write_sample(self, tmp_path):
        path = tmp_path / "sample.data"
        path.write_text(
            "| header comment\n"
            "MUSK-1,cone_1,1.5,2.5,0.0,1.\n"
            "MUSK-1,cone_2,2.5,3.5,1.0,1.\n"
            "NON-1,cone_3,0.0,0.5,2.0,0.\n"
            "\n"
            "NON-2,cone_4,9.0,8.0,7.0,0.\n")
        return str(path)

    def test_parses_bags_features_labels(self, tmp_path):
        ds = convert_c45(self.write_sample(tmp_path), name="sample")
        assert [b.bag_id for b in ds.bags] == ["MUSK-1", "NON-1", "NON-2"]
        assert ds.feature_dim == 3 and ds.label_count == 1
        assert ds.bags[0].size == 2
        np.testing.assert_array_equal(ds.bags[0].instances[1], [2.5, 3.5, 1.0])
        assert ds.bags[0].labels[0] == 1.0
        assert ds.bags[2].labels[0] == 0.0

    def test_round_trips_through_canonical_csv(self, tmp_path):
        ds = convert_c45(self.write_sample(tmp_path))
        out = str(tmp_path / "sample.csv")
        save_bag_csv(ds, out)
        back = load_bag_csv(out)
        assert back.instance_count == ds.instance_count
        for a, b in zip(ds.bags, back.bags):
            for x, y in zip(a.instances, b.instances):
                np.testing.assert_array_equal(x, y)

    def test_conflicting_labels_rejected(self, tmp_path):
        path = tmp_path / "bad.data"
        path.write_text("B,one,1.0,2.0,1.\nB,two,1.0,2.0,0.\n")
        with pytest.raises(DataFormatError, match="conflicting"):
            convert_c45(str(path))

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "bad.data"
        path.write_text("B,one,1.\n")
        with pytest.raises(DataFormatError, match="expected"):
            convert_c45(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "bad.data"
        path.write_text("| only comments\n")
        with pytest.raises(DataFormatError, match="no data"):
            convert_c45(str(path))
