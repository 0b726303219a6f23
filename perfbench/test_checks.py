"""Each correctness check of the benchmark passes on good input and
rejects a corrupted one; the workloads cost the same on every seed; the
host clock scales by the units around an operation; and BENCHMARK.json
names the metrics that run.py prints.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os

import numpy as np
import pytest

import checks
import hostspeed
import run
import workloads as W
from hamil import build_hierarchy
from hamil.hierclust import MergeQueue, MergeTriplet
from hamil.train_eval import auc_score


def queue(rows):
    return MergeQueue(tuple(MergeTriplet(*r) for r in rows))


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def test_queue_check_accepts_build_hierarchy(rng):
    X = np.maximum(rng.normal(size=(40, 8)), 0.0)
    assert checks.queue_problems(build_hierarchy(list(X)), X) == []


def test_queue_check_accepts_ties_duplicates_and_zero_rows(rng):
    X = rng.integers(0, 3, size=(30, 4)).astype(float)
    X[5] = X[6] = X[7] = 0.0
    X[10] = X[11]
    assert checks.queue_problems(build_hierarchy(list(X)), X) == []


def test_queue_check_rejects_swapped_triplets(rng):
    X = rng.normal(size=(6, 3))
    rows = [(t.left, t.right, t.new) for t in build_hierarchy(list(X))]
    rows[1], rows[2] = rows[2], rows[1]
    problems = checks.queue_problems(queue(rows), X)
    assert problems and "validate" in problems[0]


def test_queue_check_rejects_a_merge_that_is_not_single_link():
    X = np.array([[0.0], [1.0], [10.0], [11.5]])
    assert checks.queue_problems(queue([(1, 2, 5), (3, 4, 6), (5, 6, 7)]), X) == []
    # valid replays that single linkage would not produce: the right tree
    # merged in the wrong order, and a tree that is not a minimum one
    problems = checks.queue_problems(queue([(2, 3, 5), (1, 5, 6), (4, 6, 7)]), X)
    assert problems == ["m=4: merge heights descend"]
    problems = checks.queue_problems(queue([(1, 3, 5), (2, 5, 6), (4, 6, 7)]), X)
    assert any("MST" in p for p in problems)


def test_mst_weights_keep_zero_edges():
    X = np.array([[0.0], [0.0], [2.0]])
    D = np.abs(X - X.T)
    assert checks.mst_weights(D).tolist() == [0.0, 2.0]


def test_central_difference_flags_a_kink():
    value, smooth = checks.central_difference(lambda x: x * x, 1.5)
    assert smooth and value == pytest.approx(3.0, rel=1e-8)
    assert not checks.central_difference(abs, 0.0)[1]


def test_gradient_check_rejects_a_perturbed_gradient():
    good = {"w": [(0.25, 0.25 + 1e-12, True), (9.0, 1.0, False)]}
    assert checks.gradient_problems(good) == []
    bad = {"w": [(0.25 * 1.001, 0.25, True)]}
    assert checks.gradient_problems(bad)
    assert checks.gradient_problems({"w": [(0.25, 0.3, False)]})


def test_probability_check_rejects_drift_and_range():
    p = {"a": np.array([0.3]), "b": np.array([0.7])}
    assert checks.probability_problems(p, {k: v.copy() for k, v in p.items()}) == []
    drift = {"a": np.array([np.nextafter(0.3, 1.0)]), "b": np.array([0.7])}
    assert checks.probability_problems(p, drift)
    for bad in (1.0, 0.0, np.nan):
        q = {"a": np.array([bad])}
        assert checks.probability_problems(q, q)


def test_shuffle_check_rejects_a_moved_logit():
    assert checks.shuffle_problems("a", 0.4, 0.4 + 1e-13) == []
    assert checks.shuffle_problems("a", 0.4, 0.4 + 1e-6)


def test_pairwise_auc_matches_the_rank_auc_with_ties(rng):
    scores = rng.integers(0, 5, size=50).astype(float)
    labels = (rng.random(50) < 0.4).astype(float)
    auc = auc_score(scores, labels)
    assert checks.pairwise_auc(scores, labels) == pytest.approx(auc, abs=1e-15)
    assert checks.auc_problems(auc, scores, labels) == []
    assert checks.auc_problems(auc + 1e-6, scores, labels)


def test_workload_shapes():
    sizes = W.musk1_sizes()
    assert (len(sizes), sum(sizes), min(sizes), max(sizes)) == (92, 476, 2, 40)
    sizes = W.musk2_sizes()
    assert (min(sizes), max(sizes)) == (1, 1044)
    assert sorted(b.size for b in W.image_bags(0).bags) == \
        sorted([m for m in W.IMAGE_SIZES for _ in range(2 * W.IMAGE_BAGS_PER_CELL)])


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_split_is_the_same_on_every_seed(tmp_path, name):
    wl = W.WORKLOADS[name]
    splits = []
    for seed in (1, 2):
        s = W.set_up(wl, W.prepare(wl, seed, str(tmp_path)), seed)
        splits.append(([(b.bag_id, b.size) for b in s.train_bags],
                       [(b.bag_id, b.size) for b in s.test_bags]))
    assert splits[0] == splits[1]
    largest = max(b for _, b in splits[0][0] + splits[0][1])
    assert largest in [size for _, size in splits[0][0]]


def test_benchmark_json_names_the_printed_metrics():
    path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
    with open(path) as f:
        bench = json.load(f)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in bench["workloads"]} <= set(W.WORKLOADS)


def test_host_clock_scales_by_the_units_around_an_operation():
    clock = hostspeed.HostClock("vector")
    nominal = clock.nominal_ms / 1e3
    # units at the two ends take twice the nominal time, one inside as well
    clock.starts = [1.0 - nominal, 1.5, 3.0 + 1e-4]
    clock.durations = [2 * nominal, 2 * nominal, 2 * nominal]
    assert clock.inside(1.0, 3.0) == pytest.approx(2 * nominal)
    assert clock.scaled(1.0, 3.0) == pytest.approx((2.0 - 2 * nominal) / 2)
    # far from any unit, the nearest one speaks for the operation
    assert clock.factor(10.0, 11.0) == pytest.approx(0.5)
