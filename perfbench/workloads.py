"""The three workloads: their inputs, made from the seed, and their set-up.

Bag sizes, labels and the CV split are fixed per workload; the seed draws
the feature values, the model initialisation and the training order. So
every seed costs the same amount of work, and hamil receives only the
generated bags.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, List

import numpy as np

import hamil
from hamil.data import Bag, Dataset, MotifSpec, save_bag_csv

# The shipped configs' base_seed. The split depends only on bag ids and
# labels, which are the same on every seed, so the split is too.
PLAN_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    pathway: str                     # "vector" | "image"
    kernel_size: int
    optimizer: hamil.OptimizerConfig
    folds: int


# epochs is a ceiling: the benchmark's epoch hook ends training
SGD = hamil.OptimizerConfig(kind="sgd", learning_rate=1e-4, momentum=0.9,
                            weight_decay=0.005, epochs=10**9)
ADAM = hamil.OptimizerConfig(kind="adam", learning_rate=1e-3,
                             weight_decay=0.0, epochs=10**9)

WORKLOADS = {
    "musk1_small": Workload("musk1_small", "vector", 7, SGD, folds=10),
    "musk2_large": Workload("musk2_large", "vector", 7, SGD, folds=4),
    "image_2d": Workload("image_2d", "image", 3, ADAM, folds=5),
}

VECTOR_DIM = 166


def long_tail_sizes(n: int, lo: int, hi: int, median: float,
                    sigma: float) -> List[int]:
    """n bag sizes at the quantiles of a log-normal, clipped to [lo, hi],
    with the smallest forced to lo and the largest to hi."""
    quantiles = [NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)]
    sizes = [min(hi, max(lo, round(median * np.exp(sigma * z))))
             for z in quantiles]
    sizes[0], sizes[-1] = lo, hi
    return sizes


def musk1_sizes() -> List[int]:
    """92 bags, 476 instances, sizes 2..40, as in Musk1."""
    return long_tail_sizes(92, 2, 40, median=3.99, sigma=0.65)


def musk2_sizes() -> List[int]:
    """40 bags with Musk2's long tail, from 1 up to its largest bag of 1044
    instances. The other 39 stay at or below 256 so that one training pass
    is about ten seconds with the current agglomerator."""
    return long_tail_sizes(39, 1, 256, median=12.0, sigma=1.4) + [1044]


def vector_bags(sizes: List[int], seed: int) -> Dataset:
    """Musk-shaped bags: integer features around a per-bag centre; every
    other bag is positive and carries one witness instance shifted along a
    fixed concept direction."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x766563]))
    concept = rng.normal(size=VECTOR_DIM)
    concept *= 80.0 / np.linalg.norm(concept)
    bags = []
    for i, m in enumerate(sizes):
        positive = i % 2 == 0
        centre = rng.normal(0.0, 60.0, size=VECTOR_DIM)
        X = centre + rng.normal(0.0, 25.0, size=(m, VECTOR_DIM))
        if positive:
            X[rng.integers(m)] += concept
        bags.append(Bag(f"bag{i:03d}", list(np.round(X)),
                        np.asarray([1.0 if positive else 0.0])))
    return Dataset("vector", bags, VECTOR_DIM, 1)


IMAGE_SIZES = (3, 4, 5, 6)
IMAGE_BAGS_PER_CELL = 10             # per (size, label): 80 bags in all
MOTIF = dict(image_size=16, motif_size=4)


def image_bags(seed: int) -> Dataset:
    """80 synthetic image bags, 16x16 with a 4x4 motif: ten positive and
    ten negative bags of each size 3..6, drawn by synth_image_bags."""
    bags = []
    for m in IMAGE_SIZES:
        for positive in (1.0, 0.0):
            part = hamil.synth_image_bags(
                IMAGE_BAGS_PER_CELL, (m, m),
                MotifSpec(positive_fraction=positive, **MOTIF),
                seed=int(np.random.SeedSequence([seed, m, int(positive)])
                         .generate_state(1)[0]))
            bags += [Bag(f"m{m}_{int(positive)}_{b.bag_id}", b.instances,
                         b.labels) for b in part.bags]
    return Dataset("synth_image", bags, part.feature_dim, 1)


def prepare(wl: Workload, seed: int, out_dir: str) -> str:
    """Write a vector workload's bags to the canonical CSV (not timed) and
    return its path; image bags are generated by set-up itself."""
    if wl.pathway == "image":
        return ""
    sizes = musk1_sizes() if wl.name == "musk1_small" else musk2_sizes()
    path = os.path.join(out_dir, f"{wl.name}-seed{seed}-{os.getpid()}.csv")
    save_bag_csv(vector_bags(sizes, seed), path)
    return path


@dataclass
class Setup:
    model: object
    train_bags: List[Bag]
    test_bags: List[Bag]


def _measured_fold(ds: Dataset, plan) -> int:
    """The first fold that trains on the workload's largest bag."""
    largest = max(ds.bags, key=lambda b: b.size).bag_id
    return next(f for f in range(plan.folds)
                if plan.assignment[0][largest] != f)


def no_span(name: str):
    return contextlib.nullcontext()


def set_up(wl: Workload, csv_path: str, seed: int,
           span: Callable = no_span) -> Setup:
    """Load or generate the dataset, plan the CV, normalise the measured
    fold and build the model: what `setup_s` times."""
    if wl.pathway == "vector":
        with span("data.load_csv"):
            ds = hamil.load_bag_csv(csv_path)
    else:
        with span("data.synth"):
            ds = image_bags(seed)
    plan = hamil.make_cv_plan(ds, 1, wl.folds, PLAN_SEED)
    train_ds, test_ds = plan.fold_split(ds, 0, _measured_fold(ds, plan))
    if wl.pathway == "vector":
        with span("data.normalize"):
            train_ds, stats = hamil.normalize(train_ds)
            test_ds, _ = hamil.normalize(test_ds, stats)
    model_seed = int(np.random.SeedSequence([seed, 0x6d6f64]).generate_state(1)[0])
    with span("models.build"):
        model = hamil.build_model(
            wl.pathway, hamil.AggregatorSpec(kind="hamil",
                                             kernel_size=wl.kernel_size),
            feature_dim=ds.feature_dim, label_count=ds.label_count,
            image_size=MOTIF["image_size"], seed=model_seed)
    return Setup(model, train_ds.bags, test_ds.bags)
