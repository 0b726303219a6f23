"""Aggregation mechanisms: trainable pairwise conv units, hierarchical and
random-order replay, elementwise-mean ablation, pooling, and attention.

Every aggregator maps a bag, one (m, ...) tensor X whose row i is instance
i's feature, to a single feature of the row shape. The conv units come in
1-D (length-D vectors, used for the classic benchmarks) and 2-D (C x H x W
feature maps) modes; one shared parameter set is reused by every merge
step. hamil, hamil_a and ramil all replay a binary merge tree: hamil and
ramil with a 1-layer unit, 1-D or 2-D, as one `conv_replay` node; hamil_a,
layers >= 2 and batchnorm one merge at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import tensor as T
from .hierclust import MergeQueue, build_hierarchy, feature_matrix
from .tensor import Tensor

POOL_KINDS = ("max_pool", "mean_pool", "sum_pool", "lse_pool")
AGGREGATOR_KINDS = ("hamil", "hamil_a", "ramil") + POOL_KINDS + (
    "attention", "gated_attention")


@dataclass
class AggregatorSpec:
    """Configuration selecting an aggregation mechanism."""

    kind: str = "hamil"
    layers: int = 1                  # conv unit depth, 1..3
    kernel_size: int = 7
    use_batchnorm: bool = False
    attention_hidden: int = 64
    lse_r: float = 1.0

    def __post_init__(self):
        if self.kind not in AGGREGATOR_KINDS:
            raise ValueError(f"unknown aggregator kind: {self.kind!r}")
        if self.layers not in (1, 2, 3):
            raise ValueError(f"aggregation unit layers must be 1..3, got {self.layers}")
        if self.kernel_size % 2 == 0 or self.kernel_size < 1:
            raise ValueError(f"kernel size must be odd, got {self.kernel_size}")
        if self.attention_hidden < 1:
            raise ValueError("attention_hidden must be at least 1")
        if self.lse_r <= 0:
            raise ValueError(f"lse_r must be positive, got {self.lse_r}")

    @property
    def needs_queue(self) -> bool:
        return self.kind in ("hamil", "hamil_a")

    @property
    def trainable_unit(self) -> bool:
        return self.kind in ("hamil", "ramil")


class AggUnitParams:
    """Shared parameters of an L1/L2/L3 aggregation unit.

    mode "1d": each conv maps a 2-channel length-D signal to 1 channel.
    mode "2d": the same 2->1 kernel fuses every channel of two C x H x W
    maps, with the C channels as the conv's batch axis; any batchnorm pools
    its statistics over all C maps of a merge.
    """

    def __init__(self, spec: AggregatorSpec, mode: str, rng: np.random.Generator):
        if mode not in ("1d", "2d"):
            raise ValueError(f"mode must be '1d' or '2d', got {mode!r}")
        self.mode = mode
        self.layers = spec.layers
        self.padding = (spec.kernel_size - 1) // 2
        k = spec.kernel_size
        self.weights: List[Tensor] = []
        self.biases: List[Tensor] = []
        self.bn_gamma: List[Tensor] = []
        self.bn_beta: List[Tensor] = []
        self.bn_state: List[T.BatchNormState] = []
        for layer in range(self.layers):
            cin = 2 if layer == 0 else 1
            shape = (1, cin, k) if mode == "1d" else (1, cin, k, k)
            fan_in = cin * (k if mode == "1d" else k * k)
            self.weights.append(T.init_uniform(shape, fan_in, rng))
            self.biases.append(T.init_uniform((1,), fan_in, rng))
        # batchnorm between layers (and optionally after a 1-layer unit);
        # running stats are shared across all merge steps, like the kernels
        n_bn = self.layers - 1 if self.layers > 1 else (1 if spec.use_batchnorm else 0)
        for _ in range(n_bn):
            self.bn_gamma.append(Tensor(np.ones(1), requires_grad=True))
            self.bn_beta.append(Tensor(np.zeros(1), requires_grad=True))
            self.bn_state.append(T.BatchNormState(1))

    def named_params(self, prefix: str = "agg") -> dict:
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"{prefix}.conv{i}.weight"] = w
            out[f"{prefix}.conv{i}.bias"] = b
        for i, (g, b) in enumerate(zip(self.bn_gamma, self.bn_beta)):
            out[f"{prefix}.bn{i}.gamma"] = g
            out[f"{prefix}.bn{i}.beta"] = b
        return out

    @classmethod
    def mean_kernel(cls, spec: AggregatorSpec, mode: str) -> "AggUnitParams":
        """Handcrafted 1-layer unit computing the elementwise pair mean."""
        spec = AggregatorSpec(kind=spec.kind, layers=1, kernel_size=spec.kernel_size,
                              use_batchnorm=False)
        p = cls(spec, mode, np.random.default_rng(0))
        w = np.zeros(p.weights[0].data.shape)
        w[0, :, *[spec.kernel_size // 2] * (w.ndim - 2)] = 0.5   # center taps
        p.weights[0].data = w
        p.biases[0].data = np.zeros(1)
        return p


def _unit_forward(x: Tensor, params: AggUnitParams, training: bool) -> Tensor:
    """Run the stacked conv unit on x[..., 2, *S], returning x[..., 1, *S].
    Batchnorm pools its one channel over the whole flattened output."""
    h = x
    for layer in range(params.layers):
        h = T.conv2d(h, params.weights[layer], params.biases[layer],
                     params.padding)
        if layer < len(params.bn_state):     # after inner layers, or a lone one
            shape = h.data.shape
            h = T.batchnorm(T.reshape(h, (1, -1)), params.bn_gamma[layer],
                            params.bn_beta[layer], params.bn_state[layer], training)
            h = T.reshape(h, shape)
        if layer < params.layers - 1:
            h = T.relu(h)
    return h


def aggregate_pair(a: Tensor, b: Tensor, params: AggUnitParams,
                   training: bool = False) -> Tensor:
    """Fuse two equal-shape features through the shared conv unit.

    The pair becomes the unit's two input channels: vectors (D,) are stacked
    into a 2 x D signal, feature maps (C, H, W) into C x 2 x H x W, where the
    C channels are a batch that one conv per layer fuses with the same kernel.
    """
    if a.data.shape != b.data.shape:
        raise T.ShapeError(
            f"aggregate_pair: shapes {a.data.shape} and {b.data.shape} differ")
    expected = (1, "vectors") if params.mode == "1d" else (3, "(C, H, W) maps")
    if a.data.ndim != expected[0]:
        raise T.ShapeError(f"{params.mode} aggregation expects {expected[1]}, "
                           f"got shape {a.data.shape}")
    pair = T.stack([a, b], axis=0 if params.mode == "1d" else 1)
    return T.reshape(_unit_forward(pair, params, training), a.data.shape)


def _mean_pair(a: Tensor, b: Tensor) -> Tensor:
    return (a + b) * Tensor(0.5)


def _queue_slots(queue: MergeQueue, m: int, order=None):
    """A validated queue as `_replay`'s slot lists; queue leaf i reads row
    order[i-1] of X (row i-1 when order is None)."""
    queue.validate(m)
    slot = [*(range(m) if order is None else order), *range(m, 2 * m - 1)]
    return [slot[t.left - 1] for t in queue], [slot[t.right - 1] for t in queue]


def _replay(X: Tensor, lefts, rights, merge_fn) -> Tensor:
    """Replay a merge tree one merge_fn call at a time. Slots 0..m-1 are
    getitem rows of X; merge j fuses slots lefts[j] and rights[j] into slot
    m+j, and the last slot is the bag's feature."""
    slots = [X[i] for i in range(X.data.shape[0])]
    for a, b in zip(lefts, rights):
        slots.append(merge_fn(slots[a], slots[b]))
    return slots[-1]


def _unit_replay(X: Tensor, lefts, rights, params: AggUnitParams,
                 training: bool) -> Tensor:
    """Replay a merge tree through the shared conv unit: a 1-layer unit
    without batchnorm is one conv2d per merge, so the whole tree is one
    `conv_replay` node, bit-identical to the per-merge `aggregate_pair`
    tape that every other unit builds."""
    if params.layers == 1 and not params.bn_state:
        return T.conv_replay(X, lefts, rights, params.weights[0],
                             params.biases[0])
    return _replay(X, lefts, rights,
                   lambda a, b: aggregate_pair(a, b, params, training))


def hamil_aggregate(X: Tensor, queue: MergeQueue, params: AggUnitParams,
                    training: bool = False, order=None) -> Tensor:
    """Replay the merge queue through the shared conv unit; queue leaf i
    reads row order[i-1] of X (row i-1 when order is None)."""
    return _unit_replay(X, *_queue_slots(queue, X.data.shape[0], order),
                        params, training)


def hamil_a_aggregate(X: Tensor, queue: MergeQueue, order=None) -> Tensor:
    """Hierarchy replay with parameter-free elementwise-mean merges."""
    return _replay(X, *_queue_slots(queue, X.data.shape[0], order), _mean_pair)


def ramil_aggregate(X: Tensor, rng: np.random.Generator,
                    params: AggUnitParams, training: bool = False) -> Tensor:
    """Left-deep fold over a uniformly random instance permutation: merge j
    fuses the running feature with row order[j+1]."""
    m = X.data.shape[0]
    if m == 0:
        raise ValueError("ramil_aggregate on an empty bag")
    order = rng.permutation(m).tolist()
    lefts = [order[0], *range(m, 2 * m - 2)][:m - 1]
    return _unit_replay(X, lefts, order[1:], params, training)


def pool_aggregate(X: Tensor, kind: str, r: float = 1.0) -> Tensor:
    """Elementwise max/mean/sum/lse reduction across instances (axis 0)."""
    if X.data.shape[0] == 0:
        raise ValueError("pool_aggregate on an empty bag")
    op = {"max_pool": "max", "mean_pool": "mean",
          "sum_pool": "sum", "lse_pool": "lse"}.get(kind)
    if op is None:
        raise ValueError(f"unknown pooling kind: {kind!r}")
    return T.reduce(X, op, axis=0, r=r)


class AttentionParams:
    """Weights of the (gated) attention scorer over D-vector instances."""

    def __init__(self, feature_dim: int, hidden: int, gated: bool,
                 rng: np.random.Generator):
        self.gated = gated
        self.V = T.init_uniform((feature_dim, hidden), feature_dim, rng)
        self.w = T.init_uniform((hidden, 1), hidden, rng)
        self.U = T.init_uniform((feature_dim, hidden), feature_dim, rng) if gated else None

    def named_params(self, prefix: str = "attn") -> dict:
        out = {f"{prefix}.V": self.V, f"{prefix}.w": self.w}
        if self.U is not None:
            out[f"{prefix}.U"] = self.U
        return out


def attention_aggregate(X: Tensor, params: AttentionParams) -> Tensor:
    """Softmax-weighted sum: a_i from w . tanh(V x_i), optionally gated by
    sigmoid(U x_i)."""
    if X.data.ndim != 2:
        raise T.ShapeError(
            f"attention operates on (m, D) vectors, got shape {X.data.shape}")
    m, dim = X.data.shape
    if m == 0:
        raise ValueError("attention_aggregate on an empty bag")
    h = T.tanh(T.matmul(X, params.V))               # (m, hidden)
    if params.gated:
        h = T.mul(h, T.sigmoid(T.matmul(X, params.U)))
    scores = T.reshape(T.matmul(h, params.w), (m,))
    weights = T.softmax(scores)                     # (m,), sums to 1
    out = T.matmul(T.reshape(weights, (1, m)), X)
    return T.reshape(out, (dim,))


def instance_scores(X: Tensor, aggregated: Tensor) -> List[float]:
    """Cosine similarity of each row of X to the aggregated feature."""
    agg = np.asarray(aggregated.data, dtype=np.float64).ravel()
    na = np.linalg.norm(agg)
    scores = []
    for row in X.data:
        v = np.asarray(row, dtype=np.float64).ravel()
        nv = np.linalg.norm(v)
        if na == 0.0 or nv == 0.0:
            scores.append(0.0)
        else:
            scores.append(float(np.dot(v, agg) / (nv * na)))
    return scores


def canonical_order(features) -> np.ndarray:
    """Permutation-invariant instance ordering: lexicographic on the
    flattened feature values. A bag is an unordered set, so the hierarchy
    (and the left/right feed order of the conv units, which is not
    symmetric) is anchored to this canonical order rather than to the
    arbitrary presentation order."""
    return np.lexsort(feature_matrix(features).T[::-1])


def aggregate(X: Tensor, spec: AggregatorSpec,
              unit: Optional[AggUnitParams] = None,
              attn: Optional[AttentionParams] = None,
              rng: Optional[np.random.Generator] = None,
              training: bool = False,
              cluster_features=None):
    """Dispatch on the spec for the bag X[m, ...]; returns (aggregated
    feature, queue or None).

    HAMIL kinds cluster on detached features (``cluster_features`` when
    given, an (m, ...) array or one array per instance, else X.data), so no
    gradient flows through the hierarchy construction; queue indices refer
    to canonical instance order.
    """
    kind = spec.kind
    if kind in ("hamil", "hamil_a"):
        F = feature_matrix(X.data if cluster_features is None
                           else cluster_features)
        order = canonical_order(F).tolist()
        queue = build_hierarchy(F[order])
        if kind == "hamil":
            return hamil_aggregate(X, queue, unit, training, order), queue
        return hamil_a_aggregate(X, queue, order), queue
    if kind == "ramil":
        if rng is None:
            if training:
                raise ValueError("ramil requires an rng during training")
            # eval mode: fixed order so evaluation is reproducible
            rng = np.random.default_rng(0)
        return ramil_aggregate(X, rng, unit, training), None
    if kind in POOL_KINDS:
        return pool_aggregate(X, kind, spec.lse_r), None
    if kind in ("attention", "gated_attention"):
        return attention_aggregate(X, attn), None
    raise ValueError(f"unknown aggregator kind: {kind!r}")
