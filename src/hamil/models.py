"""End-to-end MIL networks.

VectorPathwayModel: fc-256/fc-128/fc-64 stack with dropout between layers,
an aggregator over the 64-d embeddings, and a sigmoid head — the
architecture used on the classic benchmarks.

ImagePathwayModel: a small conv backbone producing C x H x W maps so the
2-D aggregation units operate on genuine feature maps, with a
global-average + fc + sigmoid head. A desk-scale stand-in for large
pretrained backbones.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional

import numpy as np

from . import aggregators as agg
from . import tensor as T
from .aggregators import AggregatorSpec, AggUnitParams, AttentionParams
from .data import Bag
from .hierclust import MergeQueue
from .tensor import Tensor


@dataclass
class BagForward:
    probs: Tensor                    # (k,) bag-level probabilities, in (0,1)
    scores: List[float]              # per-instance cosine scores
    queue: Optional[MergeQueue]


def loss_bag(probs: Tensor, labels: np.ndarray) -> Tensor:
    labels = np.asarray(labels, dtype=np.float64)
    if probs.data.shape != labels.shape:
        raise T.ShapeError(
            f"loss_bag: probs {probs.data.shape} vs labels {labels.shape}")
    return T.bce_loss(probs, Tensor(labels))


class _BaseModel:
    """Shared aggregator wiring and parameter bookkeeping."""

    def __init__(self, spec: AggregatorSpec, embed_dim: int, agg_mode: str,
                 rng: np.random.Generator, cluster_without_dropout: bool):
        self.spec = spec
        self.cluster_without_dropout = cluster_without_dropout
        self.agg_unit = AggUnitParams(spec, agg_mode, rng) \
            if spec.trainable_unit else None
        self.attn = AttentionParams(
            embed_dim, spec.attention_hidden,
            gated=spec.kind == "gated_attention", rng=rng) \
            if spec.kind in ("attention", "gated_attention") else None

    def _aggregate(self, H: Tensor, training: bool, rng, cluster_feats=None):
        return agg.aggregate(H, self.spec, unit=self.agg_unit,
                             attn=self.attn, rng=rng, training=training,
                             cluster_features=cluster_feats)

    def _agg_params(self) -> dict:
        out = {}
        if self.agg_unit is not None:
            out.update(self.agg_unit.named_params("agg"))
        if self.attn is not None:
            out.update(self.attn.named_params("attn"))
        return out


class VectorPathwayModel(_BaseModel):
    """fc-256+ReLU / dropout / fc-128+ReLU / dropout / fc-64+ReLU / dropout,
    aggregation over the 64-d embeddings, fc-k+sigmoid head."""

    HIDDEN = (256, 128, 64)

    def __init__(self, feature_dim: int, label_count: int, spec: AggregatorSpec,
                 dropout_rate: float = 0.5, seed: int = 0,
                 cluster_without_dropout: bool = False):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xfeed]))
        self.feature_dim = feature_dim
        self.label_count = label_count
        self.dropout_rate = dropout_rate
        self.fc_w: List[Tensor] = []
        self.fc_b: List[Tensor] = []
        dims = (feature_dim,) + self.HIDDEN
        for din, dout in zip(dims, dims[1:]):
            self.fc_w.append(T.init_uniform((din, dout), din, rng))
            self.fc_b.append(T.init_uniform((dout,), din, rng))
        embed = self.HIDDEN[-1]
        super().__init__(spec, embed, "1d", rng, cluster_without_dropout)
        self.head_w = T.init_uniform((embed, label_count), embed, rng)
        self.head_b = T.init_uniform((label_count,), embed, rng)

    def parameters(self) -> dict:
        out = {}
        for i, (w, b) in enumerate(zip(self.fc_w, self.fc_b)):
            out[f"fc{i}.weight"] = w
            out[f"fc{i}.bias"] = b
        out.update(self._agg_params())
        out["head.weight"] = self.head_w
        out["head.bias"] = self.head_b
        return out

    def _feature_stack(self, X: Tensor, training: bool, rng) -> Tensor:
        h = X
        for w, b in zip(self.fc_w, self.fc_b):
            h = T.relu(T.fully_connected(h, w, b))
            h = T.dropout(h, self.dropout_rate, training, rng)
        return h

    def forward_bag(self, bag: Bag, mode: str = "eval",
                    rng: Optional[np.random.Generator] = None) -> BagForward:
        training = _check_mode(mode)
        X = np.stack([np.ravel(i) for i in bag.instances])
        if X.shape[1] != self.feature_dim:
            raise T.ShapeError(
                f"bag {bag.bag_id!r}: instance dim {X.shape[1]}, "
                f"model expects {self.feature_dim}")
        H = self._feature_stack(Tensor(X), training, rng)   # (m, 64)
        cluster_feats = None
        if training and self.cluster_without_dropout and self.spec.needs_queue:
            cluster_feats = self._feature_stack(Tensor(X), False, None).data
        aggregated, queue = self._aggregate(H, training, rng, cluster_feats)
        logits = T.fully_connected(T.reshape(aggregated, (1, -1)),
                                   self.head_w, self.head_b)
        probs = T.reshape(T.sigmoid(logits), (self.label_count,))
        scores = agg.instance_scores(H, aggregated)
        return BagForward(probs, scores, queue)


class ImagePathwayModel(_BaseModel):
    """Two conv+ReLU+maxpool blocks, 2-D aggregation on the resulting
    feature maps, global-average + fc + sigmoid head."""

    in_channels = 1
    channels = (4, 8)

    def __init__(self, image_size: int, label_count: int, spec: AggregatorSpec,
                 seed: int = 0, cluster_without_dropout: bool = False):
        if image_size % 4:
            raise ValueError("image size must be divisible by 4 (two 2x2 pools)")
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xbeef]))
        self.image_size = image_size
        self.label_count = label_count
        self.conv_w: List[Tensor] = []
        self.conv_b: List[Tensor] = []
        cin = self.in_channels
        for cout in self.channels:
            self.conv_w.append(T.init_uniform((cout, cin, 3, 3), cin * 9, rng))
            self.conv_b.append(T.init_uniform((cout,), cin * 9, rng))
            cin = cout
        super().__init__(spec, self.channels[-1], "2d", rng,
                         cluster_without_dropout)
        self.head_w = T.init_uniform((self.channels[-1], label_count),
                                     self.channels[-1], rng)
        self.head_b = T.init_uniform((label_count,), self.channels[-1], rng)

    def parameters(self) -> dict:
        out = {}
        for i, (w, b) in enumerate(zip(self.conv_w, self.conv_b)):
            out[f"conv{i}.weight"] = w
            out[f"conv{i}.bias"] = b
        out.update(self._agg_params())
        out["head.weight"] = self.head_w
        out["head.bias"] = self.head_b
        return out

    def _extract(self, imgs: np.ndarray) -> Tensor:
        """Backbone over imgs[..., Cin, s, s], giving [..., C, s/4, s/4]."""
        h = Tensor(imgs)
        for w, b in zip(self.conv_w, self.conv_b):
            h = T.maxpool2d(T.relu(T.conv2d(h, w, b, padding=1)), 2)
        return h

    def forward_bag(self, bag: Bag, mode: str = "eval",
                    rng: Optional[np.random.Generator] = None) -> BagForward:
        training = _check_mode(mode)
        s = self.image_size
        imgs = [np.asarray(inst, dtype=np.float64) for inst in bag.instances]
        for img in imgs:
            if img.shape != (self.in_channels, s, s):
                raise T.ShapeError(
                    f"bag {bag.bag_id!r}: image shape {img.shape}, model "
                    f"expects {(self.in_channels, s, s)}")
        H = self._extract(np.stack(imgs))                   # (m, C, s/4, s/4)
        aggregated, queue = self._aggregate(H, training, rng)
        pooled = T.reduce(T.reduce(aggregated, "mean", axis=2), "mean", axis=1)
        logits = T.fully_connected(T.reshape(pooled, (1, -1)),
                                   self.head_w, self.head_b)
        probs = T.reshape(T.sigmoid(logits), (self.label_count,))
        scores = agg.instance_scores(H, aggregated)
        return BagForward(probs, scores, queue)


def _check_mode(mode: str) -> bool:
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    return mode == "train"


def model_config(model) -> dict:
    """Architecture description sufficient to rebuild the model."""
    cfg = {
        "aggregator": asdict(model.spec),
        "label_count": model.label_count,
        "cluster_without_dropout": model.cluster_without_dropout,
    }
    if isinstance(model, VectorPathwayModel):
        cfg["pathway"] = "vector"
        cfg["feature_dim"] = model.feature_dim
        cfg["dropout_rate"] = model.dropout_rate
    else:
        cfg["pathway"] = "image"
        cfg["image_size"] = model.image_size
    return cfg


def save_model(model, path: str) -> None:
    extra = {"model": model_config(model)}
    if model.agg_unit is not None:
        extra["bn_states"] = [s.state_dict() for s in model.agg_unit.bn_state]
    T.save_checkpoint(path, model.parameters(), extra)


def load_model(path: str):
    payload = T.load_checkpoint(path)
    cfg = payload["model"]
    spec = AggregatorSpec(**cfg["aggregator"])
    model = build_model(
        cfg["pathway"], spec,
        feature_dim=cfg.get("feature_dim", 0),
        label_count=cfg["label_count"],
        dropout_rate=cfg.get("dropout_rate", 0.5),
        image_size=cfg.get("image_size", 16),
        cluster_without_dropout=cfg["cluster_without_dropout"])
    T.restore_params(payload, model.parameters())
    if model.agg_unit is not None and "bn_states" in payload:
        for state, d in zip(model.agg_unit.bn_state, payload["bn_states"]):
            state.load_state_dict(d)
    return model


def build_model(pathway: str, spec: AggregatorSpec, *, feature_dim: int = 0,
                label_count: int = 1, dropout_rate: float = 0.5,
                image_size: int = 16, seed: int = 0,
                cluster_without_dropout: bool = False):
    if pathway == "vector":
        return VectorPathwayModel(feature_dim, label_count, spec,
                                  dropout_rate, seed, cluster_without_dropout)
    if pathway == "image":
        return ImagePathwayModel(image_size, label_count, spec, seed=seed,
                                 cluster_without_dropout=cluster_without_dropout)
    raise ValueError(f"unknown pathway: {pathway!r}")
