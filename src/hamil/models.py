"""End-to-end MIL networks.

Both pathways run one bag forward: a backbone embeds the bag's m instances
as one (m, ...) tensor, an aggregator fuses them into one feature, and an
fc + sigmoid head gives the bag's label probabilities.

VectorPathwayModel: fc-256/fc-128/fc-64 stack with dropout between layers,
aggregation over the 64-d embeddings, the head on the aggregated vector —
the architecture used on the classic benchmarks.

ImagePathwayModel: a small conv backbone producing C x H x W maps so the
2-D aggregation units operate on genuine feature maps, the head on their
global average. A desk-scale stand-in for large pretrained backbones.
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
    queue: Optional[MergeQueue]
    features: Tensor                 # (m, ...) backbone output
    aggregated: Tensor               # the bag's fused feature

    @property
    def scores(self) -> List[float]:
        """Per-instance cosine scores, computed when read."""
        return agg.instance_scores(self.features, self.aggregated)


def loss_bag(probs: Tensor, labels: np.ndarray) -> Tensor:
    labels = np.asarray(labels, dtype=np.float64)
    if probs.data.shape != labels.shape:
        raise T.ShapeError(
            f"loss_bag: probs {probs.data.shape} vs labels {labels.shape}")
    return T.bce_loss(probs, Tensor(labels))


class _BaseModel:
    """The bag forward, aggregator wiring, head and parameter table. A
    pathway supplies its backbone: `backbone`, one (weight, bias) pair per
    layer, named `{layer}{i}.weight/bias`; `_bag_array`, which checks a
    bag's instances and stacks them; `_embed`; and `_pool`, when the head
    reads more than the aggregated feature as is."""

    pathway: str                     # build_model's name for the class
    layer: str
    config_keys: tuple               # constructor arguments model_config keeps
    dropout_rate = 0.0

    def __init__(self, spec: AggregatorSpec, embed_dim: int, label_count: int,
                 agg_mode: str, rng: np.random.Generator,
                 cluster_without_dropout: bool):
        self.spec = spec
        self.label_count = label_count
        self.cluster_without_dropout = cluster_without_dropout
        self.agg_unit = AggUnitParams(spec, agg_mode, rng) \
            if spec.trainable_unit else None
        self.attn = AttentionParams(
            embed_dim, spec.attention_hidden,
            gated=spec.kind == "gated_attention", rng=rng) \
            if spec.kind in ("attention", "gated_attention") else None
        self.head_w = T.init_uniform((embed_dim, label_count), embed_dim, rng)
        self.head_b = T.init_uniform((label_count,), embed_dim, rng)

    def parameters(self) -> dict:
        out = {}
        for i, (w, b) in enumerate(self.backbone):
            out[f"{self.layer}{i}.weight"] = w
            out[f"{self.layer}{i}.bias"] = b
        if self.agg_unit is not None:
            out.update(self.agg_unit.named_params("agg"))
        if self.attn is not None:
            out.update(self.attn.named_params("attn"))
        out["head.weight"] = self.head_w
        out["head.bias"] = self.head_b
        return out

    def _aggregate(self, H: Tensor, training: bool, rng, cluster_feats=None):
        return agg.aggregate(H, self.spec, unit=self.agg_unit,
                             attn=self.attn, rng=rng, training=training,
                             cluster_features=cluster_feats)

    def _pool(self, aggregated: Tensor) -> Tensor:
        return aggregated

    def forward_bag(self, bag: Bag, mode: str = "eval",
                    rng: Optional[np.random.Generator] = None) -> BagForward:
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        training = mode == "train"
        X = Tensor(self._bag_array(bag))
        H = self._embed(X, training, rng)
        cluster_feats = None
        if training and self.cluster_without_dropout and self.dropout_rate \
                and self.spec.needs_queue:
            with T.no_grad():
                cluster_feats = self._embed(X, False, None).data
        aggregated, queue = self._aggregate(H, training, rng, cluster_feats)
        logits = T.fully_connected(T.reshape(self._pool(aggregated), (1, -1)),
                                   self.head_w, self.head_b)
        probs = T.reshape(T.sigmoid(logits), (self.label_count,))
        return BagForward(probs, queue, H, aggregated)


class VectorPathwayModel(_BaseModel):
    """fc-256+ReLU / dropout / fc-128+ReLU / dropout / fc-64+ReLU / dropout,
    aggregation over the 64-d embeddings, fc-k+sigmoid head."""

    pathway, layer = "vector", "fc"
    config_keys = ("feature_dim", "dropout_rate")
    HIDDEN = (256, 128, 64)

    def __init__(self, feature_dim: int, label_count: int, spec: AggregatorSpec,
                 dropout_rate: float = 0.5, seed: int = 0,
                 cluster_without_dropout: bool = False):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xfeed]))
        self.feature_dim = feature_dim
        self.dropout_rate = dropout_rate
        dims = (feature_dim,) + self.HIDDEN
        self.backbone = [(T.init_uniform((din, dout), din, rng),
                          T.init_uniform((dout,), din, rng))
                         for din, dout in zip(dims, dims[1:])]
        super().__init__(spec, self.HIDDEN[-1], label_count, "1d", rng,
                         cluster_without_dropout)

    def _bag_array(self, bag: Bag) -> np.ndarray:
        X = np.stack([np.ravel(i) for i in bag.instances])
        if X.shape[1] != self.feature_dim:
            raise T.ShapeError(
                f"bag {bag.bag_id!r}: instance dim {X.shape[1]}, "
                f"model expects {self.feature_dim}")
        return X

    def _embed(self, X: Tensor, training: bool, rng) -> Tensor:
        """(m, D) instances to (m, 64) embeddings."""
        h = X
        for w, b in self.backbone:
            h = T.relu(T.fully_connected(h, w, b))
            h = T.dropout(h, self.dropout_rate, training, rng)
        return h


class ImagePathwayModel(_BaseModel):
    """Two conv+ReLU+maxpool blocks, 2-D aggregation on the resulting
    feature maps, global-average + fc + sigmoid head."""

    pathway, layer = "image", "conv"
    config_keys = ("image_size",)
    in_channels = 1
    channels = (4, 8)

    def __init__(self, image_size: int, label_count: int, spec: AggregatorSpec,
                 seed: int = 0, cluster_without_dropout: bool = False):
        if image_size % 4:
            raise ValueError("image size must be divisible by 4 (two 2x2 pools)")
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xbeef]))
        self.image_size = image_size
        cins = (self.in_channels,) + self.channels[:-1]
        self.backbone = [(T.init_uniform((cout, cin, 3, 3), cin * 9, rng),
                          T.init_uniform((cout,), cin * 9, rng))
                         for cin, cout in zip(cins, self.channels)]
        super().__init__(spec, self.channels[-1], label_count, "2d", rng,
                         cluster_without_dropout)

    def _bag_array(self, bag: Bag) -> np.ndarray:
        s = self.image_size
        imgs = [np.asarray(inst, dtype=np.float64) for inst in bag.instances]
        for img in imgs:
            if img.shape != (self.in_channels, s, s):
                raise T.ShapeError(
                    f"bag {bag.bag_id!r}: image shape {img.shape}, model "
                    f"expects {(self.in_channels, s, s)}")
        return np.stack(imgs)

    def _embed(self, X: Tensor, training: bool, rng) -> Tensor:
        """Backbone over X[..., Cin, s, s], giving [..., C, s/4, s/4]; it has
        no dropout, so training and rng are unused."""
        h = X
        for w, b in self.backbone:
            h = T.maxpool2d(T.relu(T.conv2d(h, w, b, padding=1)), 2)
        return h

    def _pool(self, aggregated: Tensor) -> Tensor:
        return T.reduce(T.reduce(aggregated, "mean", axis=2), "mean", axis=1)


def model_config(model) -> dict:
    """build_model's arguments, less the seed, with the spec as a dict."""
    return {"aggregator": asdict(model.spec),
            "label_count": model.label_count,
            "cluster_without_dropout": model.cluster_without_dropout,
            "pathway": model.pathway,
            **{key: getattr(model, key) for key in model.config_keys}}


def save_model(model, path: str) -> None:
    extra = {"model": model_config(model)}
    if model.agg_unit is not None:
        extra["bn_states"] = [s.state_dict() for s in model.agg_unit.bn_state]
    T.save_checkpoint(path, model.parameters(), extra)


def load_model(path: str):
    payload = T.load_checkpoint(path)
    cfg = payload["model"]
    model = build_model(spec=AggregatorSpec(**cfg.pop("aggregator")), **cfg)
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
