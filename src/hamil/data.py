"""Bags, datasets, the canonical CSV format, CV planning, normalization,
converters for the classic MIL distribution files, and synthetic image bags.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

CSV_FORMAT_VERSION = 1


class DataFormatError(ValueError):
    """Raised on malformed dataset files."""


@dataclass
class Bag:
    bag_id: str
    instances: List[np.ndarray]      # each (D,) or (C, H, W)
    labels: np.ndarray               # multi-hot, shape (k,)

    def __post_init__(self):
        if not self.instances:
            raise DataFormatError(f"bag {self.bag_id!r} has no instances")
        self.labels = np.asarray(self.labels, dtype=np.float64)

    @property
    def size(self) -> int:
        return len(self.instances)


@dataclass
class Dataset:
    name: str
    bags: List[Bag]
    feature_dim: int                 # D for vectors; flattened size for images
    label_count: int

    def __post_init__(self):
        ids = [b.bag_id for b in self.bags]
        if len(set(ids)) != len(ids):
            raise DataFormatError(f"dataset {self.name!r} has duplicate bag ids")

    @property
    def instance_count(self) -> int:
        return sum(b.size for b in self.bags)

    def subset(self, bag_ids) -> "Dataset":
        wanted = set(bag_ids)
        return Dataset(self.name, [b for b in self.bags if b.bag_id in wanted],
                       self.feature_dim, self.label_count)


# -- canonical CSV format ----------------------------------------------------
# Header: bag_id,label_0,...,label_{k-1},f_0,...,f_{D-1}; one row per
# instance; all rows of a bag carry identical labels. A JSON sidecar
# (<path>.meta.json) records name, dims, counts, and a checksum.

def _sidecar_path(csv_path: str) -> str:
    return csv_path + ".meta.json"


def save_bag_csv(dataset: Dataset, path: str) -> None:
    k, D = dataset.label_count, dataset.feature_dim
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["bag_id"] + [f"label_{i}" for i in range(k)]
                   + [f"f_{i}" for i in range(D)])
        for bag in dataset.bags:
            labels = [repr(float(v)) for v in bag.labels]
            for inst in bag.instances:
                w.writerow([bag.bag_id] + labels
                           + [repr(float(v)) for v in np.ravel(inst)])
    meta = {
        "format_version": CSV_FORMAT_VERSION,
        "name": dataset.name,
        "feature_dim": D,
        "label_count": k,
        "bag_count": len(dataset.bags),
        "instance_count": dataset.instance_count,
        "checksum": _file_sha256(path),
    }
    with open(_sidecar_path(path), "w") as f:
        json.dump(meta, f, indent=2)


def _file_sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


def load_bag_csv(path: str, name: Optional[str] = None) -> Dataset:
    """Load the canonical CSV, grouping rows by bag_id in file order."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        k = sum(1 for c in header if c.startswith("label_"))
        D = sum(1 for c in header if c.startswith("f_"))
        if header[0] != "bag_id" or k == 0 or D == 0 or len(header) != 1 + k + D:
            raise DataFormatError(
                f"{path}: bad header; expected bag_id,label_*...,f_*...")
        rows: Dict[str, List[np.ndarray]] = {}   # in file order
        labels: Dict[str, np.ndarray] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 1 + k + D:
                raise DataFormatError(
                    f"{path}:{lineno}: {len(row)} fields, expected {1 + k + D}")
            bid = row[0]
            lab = np.asarray([float(v) for v in row[1:1 + k]])
            feat = np.asarray([float(v) for v in row[1 + k:]])
            if bid not in rows:
                rows[bid] = []
                labels[bid] = lab
            elif not np.array_equal(labels[bid], lab):
                raise DataFormatError(
                    f"{path}:{lineno}: bag {bid!r} has inconsistent labels")
            rows[bid].append(feat)
    if not rows:
        raise DataFormatError(f"{path}: no instance rows")
    if name is None:
        name = os.path.splitext(os.path.basename(path))[0]
    bags = [Bag(bid, rows[bid], labels[bid]) for bid in rows]
    ds = Dataset(name, bags, D, k)
    sidecar = _sidecar_path(path)
    if os.path.exists(sidecar):
        with open(sidecar) as f:
            meta = json.load(f)
        for key, actual in (("feature_dim", D), ("label_count", k),
                            ("bag_count", len(bags)),
                            ("instance_count", ds.instance_count),
                            ("checksum", _file_sha256(path))):
            if meta.get(key) != actual:
                raise DataFormatError(
                    f"{path}: sidecar {sidecar} has {key}={meta.get(key)} "
                    f"but the file has {actual}")
    return ds


# -- normalization -----------------------------------------------------------

@dataclass
class NormStats:
    mean: np.ndarray
    std: np.ndarray                  # zero-variance features carry std=0


def normalize(dataset: Dataset,
              stats: Optional[NormStats] = None) -> Tuple[Dataset, NormStats]:
    """Per-feature z-score. Stats come from this dataset when not supplied
    (training fold); pass the returned stats to normalize test folds so no
    test statistics ever leak. Zero-variance features map to 0.
    """
    X = np.concatenate([np.stack([np.ravel(i) for i in b.instances])
                        for b in dataset.bags])
    if stats is None:
        stats = NormStats(mean=X.mean(axis=0), std=X.std(axis=0))
    scale = np.where(stats.std > 0, 1.0 / np.where(stats.std > 0, stats.std, 1.0), 0.0)
    bags = []
    for b in dataset.bags:
        inst = [(np.ravel(i) - stats.mean) * scale for i in b.instances]
        bags.append(Bag(b.bag_id, inst, b.labels.copy()))
    return Dataset(dataset.name, bags, dataset.feature_dim,
                   dataset.label_count), stats


# -- cross-validation --------------------------------------------------------

@dataclass
class CVPlan:
    repetitions: int
    folds: int
    base_seed: int
    # assignment[rep][bag_id] -> fold
    assignment: List[Dict[str, int]]

    def fold_split(self, dataset: Dataset, rep: int, fold: int):
        a = self.assignment[rep]
        train = [bid for bid, f in a.items() if f != fold]
        test = [bid for bid, f in a.items() if f == fold]
        return dataset.subset(train), dataset.subset(test)


def make_cv_plan(dataset: Dataset, repetitions: int, folds: int,
                 base_seed: int) -> CVPlan:
    """Bag-level folds, stratified by label for binary tasks, deterministic
    per (base_seed, repetition). Fold sizes differ by at most one.
    """
    n = len(dataset.bags)
    if folds > n:
        raise ValueError(f"{folds} folds for {n} bags")
    assignment = []
    binary = dataset.label_count == 1
    for rep in range(repetitions):
        rng = np.random.default_rng(np.random.SeedSequence([base_seed, rep]))
        if binary:
            pos = [b.bag_id for b in dataset.bags if b.labels[0] > 0.5]
            neg = [b.bag_id for b in dataset.bags if b.labels[0] <= 0.5]
            order = [pos[i] for i in rng.permutation(len(pos))] \
                + [neg[i] for i in rng.permutation(len(neg))]
        else:
            ids = [b.bag_id for b in dataset.bags]
            order = [ids[i] for i in rng.permutation(n)]
        assignment.append({bid: i % folds for i, bid in enumerate(order)})
    return CVPlan(repetitions, folds, base_seed, assignment)


# -- synthetic image bags ----------------------------------------------------

@dataclass
class MotifSpec:
    """Recipe for the synthetic image-bag task: a bag is positive iff at
    least one instance contains the bright motif block."""
    image_size: int = 16
    motif_size: int = 4
    motif_intensity: float = 1.0
    noise_level: float = 0.3         # background uniform[0, noise_level]
    positive_fraction: float = 0.5
    motifs_per_positive: int = 1     # motif-bearing instances per positive bag

    def __post_init__(self):
        if self.motif_size >= self.image_size:
            raise ValueError("motif must be smaller than the image")
        if not 0.0 <= self.noise_level < self.motif_intensity:
            raise ValueError("noise level must stay below motif intensity")


def oracle_motif_detector(image: np.ndarray, spec: MotifSpec) -> bool:
    """Independent label check: the motif block pushes pixels above the
    background ceiling."""
    return bool(np.max(image) > spec.noise_level + 0.5 * (
        spec.motif_intensity - spec.noise_level))


def synth_image_bags(n_bags: int, bag_size_range: Tuple[int, int],
                     motif_spec: MotifSpec, seed: int) -> Dataset:
    lo, hi = bag_size_range
    if lo < 1 or hi < lo:
        raise ValueError(f"invalid bag size range ({lo}, {hi})")
    rng = np.random.default_rng(seed)
    s = motif_spec.image_size
    bags = []
    for i in range(n_bags):
        m = int(rng.integers(lo, hi + 1))
        positive = rng.random() < motif_spec.positive_fraction
        n_motif = min(motif_spec.motifs_per_positive, m) if positive else 0
        motif_slots = set(rng.choice(m, size=n_motif, replace=False).tolist())
        instances = []
        for j in range(m):
            img = rng.uniform(0.0, motif_spec.noise_level, size=(1, s, s))
            if j in motif_slots:
                r = int(rng.integers(0, s - motif_spec.motif_size + 1))
                c = int(rng.integers(0, s - motif_spec.motif_size + 1))
                img[0, r:r + motif_spec.motif_size,
                    c:c + motif_spec.motif_size] = motif_spec.motif_intensity
            instances.append(img)
        bags.append(Bag(f"synth_{i:04d}", instances,
                        np.asarray([1.0 if positive else 0.0])))
    return Dataset("synth_image", bags, s * s, 1)


# -- converters for published MIL file layouts -------------------------------

def convert_c45(in_path: str, name: Optional[str] = None) -> Dataset:
    """Convert the C4.5-style layout used by the classic MIL distributions
    (Musk clean1/clean2 and the bag-annotated Fox/Tiger/Elephant files):
    comma-separated rows of bag_name, instance_name, D features, class.
    """
    rows: Dict[str, List[np.ndarray]] = {}   # in file order
    labels: Dict[str, float] = {}
    D = None
    with open(in_path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip().rstrip(".")
            if not line or line.startswith(("|", "%", "#")):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) < 4:
                raise DataFormatError(
                    f"{in_path}:{lineno}: expected bag,instance,features...,class")
            bid = parts[0]
            try:
                feats = np.asarray([float(v) for v in parts[2:-1]])
                label = float(parts[-1])
            except ValueError as e:
                raise DataFormatError(f"{in_path}:{lineno}: {e}") from None
            if D is None:
                D = feats.shape[0]
            elif feats.shape[0] != D:
                raise DataFormatError(
                    f"{in_path}:{lineno}: {feats.shape[0]} features, expected {D}")
            label = 1.0 if label > 0.5 else 0.0
            if bid not in rows:
                rows[bid] = []
                labels[bid] = label
            elif labels[bid] != label:
                raise DataFormatError(
                    f"{in_path}:{lineno}: bag {bid!r} has conflicting class labels")
            rows[bid].append(feats)
    if D is None:
        raise DataFormatError(f"{in_path}: no data rows")
    if name is None:
        name = os.path.splitext(os.path.basename(in_path))[0]
    bags = [Bag(bid, rows[bid], np.asarray([labels[bid]])) for bid in rows]
    return Dataset(name, bags, int(D), 1)


CONVERTERS = {"c45": convert_c45}
