"""Optimizers, the bag-level training loop, metrics, and the repeated
k-fold cross-validation protocol (default 10-fold, 5 repetitions).
"""

from __future__ import annotations

import hashlib
import json
import logging
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, asdict
from typing import Dict, List, Optional

import numpy as np

from . import tensor as T
from .aggregators import AggregatorSpec
from .data import Bag, Dataset, make_cv_plan, normalize
from .models import build_model, loss_bag

log = logging.getLogger(__name__)

METRIC_NAMES = ("accuracy", "auc", "macro_f1", "micro_f1")


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss becomes non-finite."""


@dataclass
class OptimizerConfig:
    kind: str = "sgd"                # sgd | adam
    learning_rate: float = 1e-4
    momentum: float = 0.9
    weight_decay: float = 0.005
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    epochs: int = 100
    bags_per_step: int = 1

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind: {self.kind!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1 or self.bags_per_step < 1:
            raise ValueError("epochs and bags_per_step must be at least 1")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise ValueError("adam_beta1 and adam_beta2 must be in [0, 1)")


class _Optimizer:
    """SGD-momentum or Adam; one (tensor, decay, m, v) slot per parameter,
    updated in place. Weight decay skips biases and batchnorm affines."""

    def __init__(self, params: dict, cfg: OptimizerConfig):
        self.params = params
        self.cfg = cfg
        self.t = 0
        self.slots = [
            (p, cfg.weight_decay if name.endswith((".weight", ".V", ".U", ".w"))
             else 0.0, np.zeros_like(p.data), np.zeros_like(p.data))
            for name, p in params.items()]

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self, grad_scale: float = 1.0):
        cfg = self.cfg
        b1, b2 = cfg.adam_beta1, cfg.adam_beta2
        self.t += 1
        for p, decay, m, v in self.slots:
            if p.grad is None:       # no gradient: the state does not advance
                continue
            g = p.grad * grad_scale
            if decay:                # an unguarded `+ 0.0 * p` maps -0.0 to
                g += decay * p.data  # +0.0 and inf to NaN
            if cfg.kind == "sgd":
                v *= cfg.momentum
                v += g
                p.data -= cfg.learning_rate * v
            else:
                m *= b1
                m += (1 - b1) * g
                v *= b2
                v += (1 - b2) * g * g
                mhat = m / (1 - b1 ** self.t)
                vhat = v / (1 - b2 ** self.t)
                p.data -= cfg.learning_rate * mhat / (np.sqrt(vhat) + 1e-8)


def train(model, train_bags: List[Bag], opt: OptimizerConfig, seed: int,
          epoch_hook=None):
    """Train in place; deterministic given the seed.

    Each step accumulates gradients over ``bags_per_step`` bags (mean of
    their losses) before applying one update.
    """
    if not train_bags:
        raise ValueError("empty training set")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7261]))
    optimizer = _Optimizer(model.parameters(), opt)
    n = len(train_bags)
    for epoch in range(opt.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, opt.bags_per_step):
            chunk = order[start:start + opt.bags_per_step]
            optimizer.zero_grad()
            for bi in chunk:
                bag = train_bags[bi]
                out = model.forward_bag(bag, mode="train", rng=rng)
                loss = loss_bag(out.probs, bag.labels)
                value = loss.item()
                if not np.isfinite(value):
                    raise TrainingDivergedError(
                        f"non-finite loss at epoch {epoch}, bag {bag.bag_id!r}")
                epoch_loss += value
                loss.backward()
            optimizer.step(grad_scale=1.0 / len(chunk))
        if epoch_hook is not None:
            epoch_hook(epoch, epoch_loss / n)
    return model


# -- metrics -----------------------------------------------------------------

def tie_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks, tied scores sharing their mean rank: exact
    half-integers, the same bytes as scipy.stats.rankdata."""
    _, inv, cnt = np.unique(scores, return_inverse=True, return_counts=True)
    return (np.cumsum(cnt) - (cnt - 1) / 2)[inv]


def auc_score(scores: np.ndarray, targets: np.ndarray) -> float:
    """Rank-statistic AUC with tie correction for one label column; NaN if
    any score is NaN."""
    pos = targets > 0.5
    npos = int(pos.sum())
    nneg = len(targets) - npos
    if npos == 0 or nneg == 0:
        raise ValueError("AUC undefined: only one class present")
    if np.isnan(scores).any():       # np.unique would rank NaN last
        return float("nan")
    ranks = tie_ranks(scores)
    return float((ranks[pos].sum() - npos * (npos + 1) / 2) / (npos * nneg))


def _f1_from_counts(tp: int, fp: int, fn: int) -> Optional[float]:
    if tp + fp + fn == 0:
        return None
    return 2 * tp / (2 * tp + fp + fn)


def evaluate(model, bags: List[Bag]) -> Dict[str, float]:
    """Eval-mode metrics: accuracy at 0.5, tie-corrected macro AUC, macro
    and micro F1. Per-label F1 undefined on a fold counts as 0 (logged);
    single-class labels are excluded from macro AUC (logged).
    """
    if not bags:
        raise ValueError("evaluate on empty bag list")
    with T.no_grad():
        probs = np.stack([model.forward_bag(b, mode="eval").probs.data
                          for b in bags])
    targets = np.stack([b.labels for b in bags])
    preds = probs >= 0.5
    pos = targets > 0.5
    accuracy = float((preds == pos).mean())
    aucs = []
    f1s = []
    tp_all = fp_all = fn_all = 0
    for j in range(targets.shape[1]):
        try:
            aucs.append(auc_score(probs[:, j], targets[:, j]))
        except ValueError:
            log.info("label %d: single class, excluded from macro AUC", j)
        tp = int((preds[:, j] & pos[:, j]).sum())
        fp = int((preds[:, j] & ~pos[:, j]).sum())
        fn = int((~preds[:, j] & pos[:, j]).sum())
        tp_all, fp_all, fn_all = tp_all + tp, fp_all + fp, fn_all + fn
        f1 = _f1_from_counts(tp, fp, fn)
        if f1 is None:
            log.info("label %d: F1 undefined (no positives), counted as 0", j)
            f1 = 0.0
        f1s.append(f1)
    micro = _f1_from_counts(tp_all, fp_all, fn_all)
    return {
        "accuracy": accuracy,
        "auc": float(np.mean(aucs)) if aucs else 0.5,
        "macro_f1": float(np.mean(f1s)),
        "micro_f1": micro if micro is not None else 0.0,
    }


# -- cross-validation protocol -----------------------------------------------

@dataclass
class RunSpec:
    """Everything run_cv needs for one benchmark run."""
    dataset: Dataset
    pathway: str = "vector"
    aggregator: AggregatorSpec = field(default_factory=AggregatorSpec)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    repetitions: int = 5
    folds: int = 10
    base_seed: int = 7
    dropout_rate: float = 0.5
    image_size: int = 16
    normalize_features: bool = True
    cluster_without_dropout: bool = False
    precision: str = "f64"           # f64 | f32, set in each fold's process
    workers: int = 1

    def __post_init__(self):
        if self.repetitions < 1 or self.folds < 2:
            raise ValueError("repetitions must be at least 1 and folds at least 2")

    def config_hash(self) -> str:
        """Hash of what determines the metrics; `workers` does not."""
        d = asdict(self)
        del d["workers"]
        d["dataset"] = {"name": self.dataset.name,
                        "bags": len(self.dataset.bags),
                        "instances": self.dataset.instance_count}
        return hashlib.sha256(
            json.dumps(d, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class FoldResult:
    repetition: int
    fold: int
    n_test_bags: int
    seed: int
    metrics: Dict[str, float]


@dataclass
class RunResult:
    dataset_name: str
    config_hash: str
    base_seed: int
    folds: List[FoldResult]
    wall_time_s: float
    environment: Dict[str, str]      # python and numpy versions, precision

    def summary(self) -> Dict[str, Dict[str, float]]:
        """mean/std per metric over all fold results, plus the std of
        per-repetition means (both reporting conventions)."""
        out = {}
        reps = sorted({f.repetition for f in self.folds})
        for m in METRIC_NAMES:
            vals = np.asarray([f.metrics[m] for f in self.folds])
            rep_means = np.asarray([
                np.mean([f.metrics[m] for f in self.folds if f.repetition == r])
                for r in reps])
            out[m] = {
                "mean": float(vals.mean()),
                "std_over_folds": float(vals.std()),
                "std_over_repetition_means": float(rep_means.std()),
            }
        return out

    def to_json(self) -> str:
        return json.dumps({
            "dataset": self.dataset_name,
            "config_hash": self.config_hash,
            "base_seed": self.base_seed,
            "wall_time_s": self.wall_time_s,
            "environment": self.environment,
            "summary": self.summary(),
            "folds": [asdict(f) for f in self.folds],
        }, indent=2)

    def to_csv(self) -> str:
        lines = ["repetition,fold,n_test_bags,seed," + ",".join(METRIC_NAMES)]
        for f in self.folds:
            lines.append(f"{f.repetition},{f.fold},{f.n_test_bags},{f.seed},"
                         + ",".join(f"{f.metrics[m]:.6f}" for m in METRIC_NAMES))
        s = self.summary()
        lines.append("summary_mean,,,," + ",".join(
            f"{s[m]['mean']:.6f}" for m in METRIC_NAMES))
        lines.append("summary_std,,,," + ",".join(
            f"{s[m]['std_over_folds']:.6f}" for m in METRIC_NAMES))
        return "\n".join(lines) + "\n"


def _fold_seed(base_seed: int, rep: int, fold: int) -> int:
    return int(np.random.SeedSequence([base_seed, rep, fold]).generate_state(1)[0])


def _run_fold(args):
    """One fold at the spec's precision; the caller's is restored after."""
    spec, plan, rep, fold = args
    previous = T.set_default_dtype(spec.precision)
    try:
        train_ds, test_ds = plan.fold_split(spec.dataset, rep, fold)
        if not train_ds.bags or not test_ds.bags:
            raise ValueError(f"rep {rep} fold {fold}: empty train or test split")
        if spec.pathway == "vector" and spec.normalize_features:
            train_ds, stats = normalize(train_ds)
            test_ds, _ = normalize(test_ds, stats)
        seed = _fold_seed(spec.base_seed, rep, fold)
        model = build_model(
            spec.pathway, spec.aggregator,
            feature_dim=spec.dataset.feature_dim,
            label_count=spec.dataset.label_count,
            dropout_rate=spec.dropout_rate, image_size=spec.image_size,
            seed=seed, cluster_without_dropout=spec.cluster_without_dropout)
        try:
            train(model, train_ds.bags, spec.optimizer, seed)
        except TrainingDivergedError as e:
            raise TrainingDivergedError(f"rep {rep} fold {fold}: {e}") from e
        metrics = evaluate(model, test_ds.bags)
        return FoldResult(rep, fold, len(test_ds.bags), seed, metrics)
    finally:
        T.set_default_dtype(previous)


def run_cv(spec: RunSpec, progress=None) -> RunResult:
    """Run the full repetitions x folds protocol, in `spec.workers`
    processes when more than one; bit-reproducible in metrics for identical
    spec and seeds, whatever the worker count."""
    t0 = time.monotonic()
    plan = make_cv_plan(spec.dataset, spec.repetitions, spec.folds,
                        spec.base_seed)
    jobs = [(spec, plan, r, f)
            for r in range(spec.repetitions) for f in range(spec.folds)]
    results: List[FoldResult] = []
    with (ProcessPoolExecutor(max_workers=spec.workers) if spec.workers > 1
          else nullcontext()) as pool:
        for res in (pool.map if pool else map)(_run_fold, jobs):
            results.append(res)
            if progress is not None:
                progress(res)
    return RunResult(spec.dataset.name, spec.config_hash(), spec.base_seed,
                     results, time.monotonic() - t0,
                     {"python": platform.python_version(),
                      "numpy": np.__version__, "precision": spec.precision})
