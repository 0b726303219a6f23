"""Minimal dense tensor with reverse-mode automatic differentiation.

Covers exactly the operations the aggregation networks need: affine layers,
1D/2D cross-correlation, a tree of 1-D pair merges as one node
(conv1d_replay), pointwise nonlinearities, dropout, batchnorm,
reductions (max/mean/sum/log-sum-exp), stacking/indexing, and BCE loss.
conv2d and maxpool2d take leading batch axes (x[..., C, H, W]); otherwise
no broadcasting beyond scalars, no higher-order derivatives, CPU only.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_DEFAULT_DTYPE = np.float64

BCE_EPS = 1e-12
BN_EPS = 1e-5

CHECKPOINT_FORMAT_VERSION = 1


def set_default_dtype(dtype) -> None:
    """Switch global precision. 'f64' (default) or 'f32'."""
    global _DEFAULT_DTYPE
    if dtype in ("f64", np.float64, "float64"):
        _DEFAULT_DTYPE = np.float64
    elif dtype in ("f32", np.float32, "float32"):
        _DEFAULT_DTYPE = np.float32
    else:
        raise ValueError(f"unsupported dtype: {dtype!r}")


class ShapeError(ValueError):
    """Raised when operand shapes do not conform."""


class GraphError(RuntimeError):
    """Raised on autodiff contract violations (e.g. backward on non-scalar)."""


class Tensor:
    """A dense array node in a reverse-mode differentiation graph.

    Leaf tensors created with ``requires_grad=True`` receive a ``.grad``
    buffer after ``backward()`` on a downstream scalar. Non-leaf tensors
    record their parents and a closure that routes the incoming gradient.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: tuple = (), _backward=None):
        self.data = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._parents = _parents
        self._backward = _backward

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        if self.data.size != 1:
            raise GraphError(f"item() on tensor of size {self.data.size}")
        return float(self.data.reshape(()))

    # -- graph machinery -----------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        """Populate ``.grad`` on every reachable requires_grad leaf.

        Repeated calls accumulate until ``.grad`` is reset to None, which the
        training loop relies on for gradient accumulation across bags.
        """
        if self.data.size != 1:
            raise GraphError(
                f"backward() requires a scalar loss, got shape {self.data.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is not None:
                for parent, pg in node._backward(g):
                    if not _needs_grad(parent):
                        continue
                    key = id(parent)
                    if key in grads:
                        grads[key] = grads[key] + pg
                    else:
                        grads[key] = pg
            elif node.requires_grad:
                node._accumulate(g)

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def __getitem__(self, idx):
        return getitem(self, idx)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _needs_grad(t: Tensor) -> bool:
    return t.requires_grad or t._parents


def _node(data, parents, backward) -> Tensor:
    if any(_needs_grad(p) for p in parents):
        out = Tensor(data, _parents=tuple(parents), _backward=backward)
    else:
        out = Tensor(data)
    return out


def _binary_shapes(a: Tensor, b: Tensor, op: str):
    if a.data.shape != b.data.shape and a.data.size != 1 and b.data.size != 1:
        raise ShapeError(
            f"{op}: shapes {a.data.shape} and {b.data.shape} do not conform "
            "(equal shapes or scalar operand required)")


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Collapse a gradient onto a scalar operand's shape."""
    if g.shape == tuple(shape):
        return g
    return np.sum(g).reshape(shape).astype(g.dtype)


# -- elementwise arithmetic --------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "add")

    def backward(g):
        return [(a, _unbroadcast(g, a.data.shape)),
                (b, _unbroadcast(g, b.data.shape))]
    return _node(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "sub")

    def backward(g):
        return [(a, _unbroadcast(g, a.data.shape)),
                (b, _unbroadcast(-g, b.data.shape))]
    return _node(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "mul")

    def backward(g):
        return [(a, _unbroadcast(g * b.data, a.data.shape)),
                (b, _unbroadcast(g * a.data, b.data.shape))]
    return _node(a.data * b.data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "div")

    def backward(g):
        return [(a, _unbroadcast(g / b.data, a.data.shape)),
                (b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))]
    return _node(a.data / b.data, (a, b), backward)


# -- pointwise nonlinearities ------------------------------------------------

def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def backward(g):
        return [(x, g * mask)]
    return _node(np.where(mask, x.data, 0.0), (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):     # exp(-x) = inf gives s = 0 exactly
        s = 1.0 / (1.0 + np.exp(-x.data))

    def backward(g):
        return [(x, g * s * (1.0 - s))]
    return _node(s, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)

    def backward(g):
        return [(x, g * (1.0 - t * t))]
    return _node(t, (x,), backward)


def exp(x: Tensor) -> Tensor:
    e = np.exp(x.data)

    def backward(g):
        return [(x, g * e)]
    return _node(e, (x,), backward)


def log(x: Tensor) -> Tensor:
    def backward(g):
        return [(x, g / x.data)]
    return _node(np.log(x.data), (x,), backward)


def dropout(x: Tensor, rate: float, training: bool,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: surviving units scaled by 1/(1-rate) during
    training; x itself when it drops nothing."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in training mode requires an rng")
    keep = 1.0 - rate
    mask = (rng.random(x.data.shape) < keep).astype(x.data.dtype) / keep

    def backward(g):
        return [(x, g * mask)]
    return _node(x.data * mask, (x,), backward)


# -- reductions --------------------------------------------------------------

def reduce(x: Tensor, kind: str, axis: int, r: float = 1.0) -> Tensor:
    """Reduce one axis by max, mean, sum, or log-sum-exp.

    lse(x) = log(mean(exp(r*x)))/r with sharpness r, the smooth max
    approximation used by LSE pooling.
    """
    nd = x.data.ndim
    if not -nd <= axis < nd:
        raise ValueError(f"axis {axis} invalid for {nd}-d tensor")
    axis = axis % nd
    n = x.data.shape[axis]
    if kind == "sum":
        def backward(g):
            return [(x, np.repeat(np.expand_dims(g, axis), n, axis=axis))]
        return _node(np.sum(x.data, axis=axis), (x,), backward)
    if kind == "mean":
        def backward(g):
            return [(x, np.repeat(np.expand_dims(g, axis), n, axis=axis) / n)]
        return _node(np.mean(x.data, axis=axis), (x,), backward)
    if kind == "max":
        idx = np.argmax(x.data, axis=axis)

        def backward(g):
            gx = np.zeros_like(x.data)
            np.put_along_axis(gx, np.expand_dims(idx, axis),
                              np.expand_dims(g, axis), axis)
            return [(x, gx)]
        return _node(np.max(x.data, axis=axis), (x,), backward)
    if kind == "lse":
        # stabilized: log(mean(exp(r*x))) = r*m + log(mean(exp(r*(x-m))))
        m = np.max(x.data, axis=axis, keepdims=True)
        e = np.exp(r * (x.data - m))
        s = np.sum(e, axis=axis)
        out = (r * np.squeeze(m, axis) + np.log(s / n)) / r
        w = e / np.expand_dims(s, axis)  # softmax(r*x) along axis

        def backward(g):
            return [(x, np.expand_dims(g, axis) * w)]
        return _node(out, (x,), backward)
    raise ValueError(f"unknown reduce kind: {kind!r}")


def sum_all(x: Tensor) -> Tensor:
    def backward(g):
        return [(x, np.full_like(x.data, float(g)))]
    return _node(np.sum(x.data), (x,), backward)


def softmax(x: Tensor) -> Tensor:
    """Softmax over a 1-D tensor."""
    if x.data.ndim != 1:
        raise ShapeError(f"softmax expects a 1-D tensor, got {x.data.shape}")
    z = x.data - np.max(x.data)
    e = np.exp(z)
    p = e / np.sum(e)

    def backward(g):
        return [(x, p * (g - np.dot(g, p)))]
    return _node(p, (x,), backward)


# -- shape manipulation ------------------------------------------------------

def reshape(x: Tensor, shape) -> Tensor:
    old = x.data.shape

    def backward(g):
        return [(x, g.reshape(old))]
    return _node(x.data.reshape(shape), (x,), backward)


def getitem(x: Tensor, idx) -> Tensor:
    def backward(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return [(x, gx)]
    return _node(x.data[idx], (x,), backward)


def stack(xs: Sequence[Tensor], axis: int = 0) -> Tensor:
    xs = list(xs)
    if not xs:
        raise ShapeError("stack of zero tensors")
    shape0 = xs[0].data.shape
    for t in xs[1:]:
        if t.data.shape != shape0:
            raise ShapeError(f"stack: shapes {shape0} and {t.data.shape} differ")

    def backward(g):
        pieces = np.split(g, len(xs), axis=axis)
        return [(t, np.squeeze(p, axis=axis)) for t, p in zip(xs, pieces)]
    return _node(np.stack([t.data for t in xs], axis=axis), tuple(xs), backward)


# -- linear algebra ----------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: {a.data.shape} @ {b.data.shape}")

    def backward(g):
        return [(a, g @ b.data.T), (b, a.data.T @ g)]
    return _node(a.data @ b.data, (a, b), backward)


def fully_connected(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x[batch, in] @ weight[in, out] + bias[out]."""
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise ShapeError(
            f"fully_connected: x {x.data.shape} and weight {weight.data.shape} "
            "must both be 2-D")
    if x.data.shape[1] != weight.data.shape[0]:
        raise ShapeError(
            f"fully_connected: x {x.data.shape} does not conform with "
            f"weight {weight.data.shape}")
    if bias.data.shape != (weight.data.shape[1],):
        raise ShapeError(
            f"fully_connected: bias {bias.data.shape} does not match "
            f"weight {weight.data.shape}")

    def backward(g):
        return [(x, g @ weight.data.T),
                (weight, x.data.T @ g),
                (bias, g.sum(axis=0))]
    return _node(x.data @ weight.data + bias.data, (x, weight, bias), backward)


# -- convolutions ------------------------------------------------------------

def conv1d(x: Tensor, weight: Tensor, bias: Tensor, padding: int = 0) -> Tensor:
    """Cross-correlation of x[Cin, L] with weight[Cout, Cin, k], zero padded."""
    if x.data.ndim != 2 or weight.data.ndim != 3:
        raise ShapeError(
            f"conv1d: x {x.data.shape} must be (Cin, L) and "
            f"weight {weight.data.shape} must be (Cout, Cin, k)")
    cin, L = x.data.shape
    cout, wcin, k = weight.data.shape
    if wcin != cin:
        raise ShapeError(
            f"conv1d: input channels {cin} vs kernel channels {wcin}")
    if bias.data.shape != (cout,):
        raise ShapeError(f"conv1d: bias {bias.data.shape}, expected ({cout},)")
    if k > L + 2 * padding:
        raise ShapeError(
            f"conv1d: kernel size {k} exceeds padded length {L + 2 * padding}")
    xp = np.pad(x.data, ((0, 0), (padding, padding)))
    win = sliding_window_view(xp, k, axis=1)          # (Cin, L', k)
    out = _conv1d_out(win, weight.data, bias.data)

    def backward(g):
        gp = np.pad(g, ((0, 0), (k - 1, k - 1)))
        gwin = sliding_window_view(gp, k, axis=1)     # (Cout, L'+k-1, k)
        gx_p = _conv1d_grad_input(gwin, weight.data)  # padded-x shape
        gx = gx_p[:, padding:padding + L] if padding else gx_p
        return [(x, gx), (weight, _conv1d_grad_weight(win, g)),
                (bias, g.sum(axis=1))]
    return _node(out, (x, weight, bias), backward)


# conv1d's arithmetic, shared with conv1d_replay so both sum in one order


def _conv1d_out(win, w, b):
    """win[Cin, L', k] windows of the padded input against w[Cout, Cin, k]."""
    return np.einsum("ilk,oik->ol", win, w) + b[:, None]


def _conv1d_grad_weight(win, g):
    return np.einsum("ilk,ol->oik", win, g)


def _conv1d_grad_input(gwin, w):
    """gwin[Cout, L'+k-1, k] windows of the (k-1)-padded output gradient
    against the flipped kernel: the gradient of the padded input."""
    return np.einsum("olk,oik->il", gwin, w[:, :, ::-1])


def conv1d_replay(X: Tensor, lefts: Sequence[int], rights: Sequence[int],
                  weight: Tensor, bias: Tensor) -> Tensor:
    """A tree of 2->1 conv1d merges over the rows of X[m, D], as one node.

    Slots 0..m-1 hold the rows of X; merge j reads slots lefts[j] and
    rights[j] as the two input channels of a length-preserving conv1d with
    weight[1, 2, k] (k odd, padding k // 2) and writes slot m+j. Every slot
    but the last is read exactly once, so the merges form one tree whose
    root, the last merge, is returned.

    Values and gradients equal, bit for bit, those of ``conv1d`` run merge
    by merge on ``stack([left, right])`` of the rows: the same einsums on
    windows of the same layout, and the kernel and bias gradients summed in
    the order ``Tensor.backward`` visits the per-merge nodes, which is
    pre-order from the root (a merge, then its left subtree, then its right
    subtree).
    """
    if X.data.ndim != 2 or X.data.shape[1] < 1:
        raise ShapeError(
            f"conv1d_replay: X {X.data.shape} must be (m, D) vectors, D >= 1")
    m, D = X.data.shape
    n = m - 1
    if n < 1 or len(lefts) != n or len(rights) != n:
        raise ShapeError(
            f"conv1d_replay: {m} inputs need {max(n, 0)} merges (at least 1), "
            f"got {len(lefts)} lefts and {len(rights)} rights")
    if weight.data.ndim != 3 or weight.data.shape[:2] != (1, 2) \
            or weight.data.shape[2] % 2 == 0:
        raise ShapeError(
            f"conv1d_replay: weight {weight.data.shape} must be (1, 2, k), k odd")
    k = weight.data.shape[2]
    padding = k // 2
    if bias.data.shape != (1,):
        raise ShapeError(f"conv1d_replay: bias {bias.data.shape}, expected (1,)")
    # reader[s] = (merge, channel) that reads slot s; the root has none
    reader_j = np.full(m + n, -1)
    reader_c = np.zeros(m + n, dtype=np.intp)
    for j, pair in enumerate(zip(lefts, rights)):
        for c, s in enumerate(pair):
            if not 0 <= s < m + j or reader_j[s] >= 0:
                raise GraphError(f"conv1d_replay: merge {j} reads slot {s}, "
                                 "which is unwritten or already read")
            reader_j[s], reader_c[s] = j, c
    cols = slice(padding, padding + D)
    P = np.zeros((n, 2, D + 2 * padding), dtype=_DEFAULT_DTYPE)
    P[reader_j[:m], reader_c[:m], cols] = X.data
    win = sliding_window_view(P, k, axis=2)           # (n, 2, D, k)
    for j in range(n - 1):
        P[reader_j[m + j], reader_c[m + j], cols] = \
            _conv1d_out(win[j], weight.data, bias.data)[0]
    out = _conv1d_out(win[n - 1], weight.data, bias.data)

    def backward(g):
        G = np.zeros((1, D + 2 * (k - 1)), dtype=g.dtype)
        gwin = sliding_window_view(G, k, axis=1)      # (1, D+k-1, k)
        gout = {n - 1: g.reshape(1, D)}
        gX, gw, gb = np.zeros((m, D), dtype=g.dtype), None, None
        todo = [n - 1]
        while todo:
            j = todo.pop()
            gj = gout.pop(j)
            gwj, gbj = _conv1d_grad_weight(win[j], gj), gj.sum(axis=1)
            gw = gwj if gw is None else gw + gwj
            gb = gbj if gb is None else gb + gbj
            G[:, k - 1:k - 1 + D] = gj
            gx = _conv1d_grad_input(gwin, weight.data)[:, cols]
            for s, row in ((lefts[j], gx[0]), (rights[j], gx[1])):
                if s < m:
                    gX[s] = row
                else:
                    gout[s - m] = row.reshape(1, D)
            todo.extend(s - m for s in (rights[j], lefts[j]) if s >= m)
        return [(X, gX), (weight, gw), (bias, gb)]
    return _node(out.reshape(D), (X, weight, bias), backward)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, padding: int = 0) -> Tensor:
    """Cross-correlation of x[..., Cin, H, W] with weight[Cout, Cin, kh, kw];
    the leading axes of x are flattened into one batch for a single einsum."""
    if x.data.ndim < 3 or weight.data.ndim != 4:
        raise ShapeError(
            f"conv2d: x {x.data.shape} must be (..., Cin, H, W) and "
            f"weight {weight.data.shape} must be (Cout, Cin, kh, kw)")
    *lead, cin, H, W = x.data.shape
    cout, wcin, kh, kw = weight.data.shape
    if wcin != cin:
        raise ShapeError(
            f"conv2d: input channels {cin} vs kernel channels {wcin}")
    if bias.data.shape != (cout,):
        raise ShapeError(f"conv2d: bias {bias.data.shape}, expected ({cout},)")
    if kh > H + 2 * padding or kw > W + 2 * padding:
        raise ShapeError(
            f"conv2d: kernel ({kh},{kw}) exceeds padded input "
            f"({H + 2 * padding},{W + 2 * padding})")
    pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    xp = np.pad(x.data.reshape(-1, cin, H, W), pad)
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))   # (N, Cin, H', W', kh, kw)
    out = np.einsum("nihwuv,oiuv->nohw", win, weight.data) \
        + bias.data[:, None, None]

    def backward(g):
        g = g.reshape(out.shape)
        gw = np.einsum("nihwuv,nohw->oiuv", win, g)
        gb = g.sum(axis=(0, 2, 3))
        gp = np.pad(g, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
        gwin = sliding_window_view(gp, (kh, kw), axis=(2, 3))
        wf = weight.data[:, :, ::-1, ::-1]
        gx_p = np.einsum("nohwuv,oiuv->nihw", gwin, wf)
        gx = gx_p[:, :, padding:padding + H, padding:padding + W] if padding else gx_p
        return [(x, gx.reshape(x.data.shape)), (weight, gw), (bias, gb)]
    return _node(out.reshape(*lead, *out.shape[1:]), (x, weight, bias), backward)


def maxpool2d(x: Tensor, k: int = 2) -> Tensor:
    """Non-overlapping k x k max pooling over x[..., H, W]; H, W divisible by k."""
    *lead, H, W = x.data.shape
    if H % k or W % k:
        raise ShapeError(f"maxpool2d: ({H},{W}) not divisible by {k}")
    h2, w2 = H // k, W // k
    r = x.data.reshape(-1, h2, k, w2, k).transpose(0, 1, 3, 2, 4).reshape(-1, h2, w2, k * k)
    idx = np.argmax(r, axis=-1)
    out = np.take_along_axis(r, idx[..., None], axis=-1)[..., 0]

    def backward(g):
        gr = np.zeros_like(r)
        np.put_along_axis(gr, idx[..., None], g.reshape(idx.shape)[..., None], axis=-1)
        gx = gr.reshape(-1, h2, w2, k, k).transpose(0, 1, 3, 2, 4).reshape(x.data.shape)
        return [(x, gx)]
    return _node(out.reshape(*lead, h2, w2), (x,), backward)


# -- batch normalization -----------------------------------------------------

class BatchNormState:
    """Running statistics for one batchnorm, per channel (axis 0)."""

    def __init__(self, channels: int, momentum: float = 0.1):
        self.running_mean = np.zeros(channels, dtype=_DEFAULT_DTYPE)
        self.running_var = np.ones(channels, dtype=_DEFAULT_DTYPE)
        self.momentum = momentum

    def state_dict(self):
        return {"running_mean": self.running_mean.tolist(),
                "running_var": self.running_var.tolist(),
                "momentum": self.momentum}

    def load_state_dict(self, d):
        self.running_mean = np.asarray(d["running_mean"], dtype=_DEFAULT_DTYPE)
        self.running_var = np.asarray(d["running_var"], dtype=_DEFAULT_DTYPE)
        self.momentum = d["momentum"]


def batchnorm(x: Tensor, gamma: Tensor, beta: Tensor,
              state: BatchNormState, training: bool) -> Tensor:
    """Normalize per channel (axis 0) over all remaining axes.

    Training mode uses batch statistics and updates the running buffers;
    eval mode is a pure function of x and the stored statistics.
    """
    C = x.data.shape[0]
    if gamma.data.shape != (C,) or beta.data.shape != (C,):
        raise ShapeError(
            f"batchnorm: gamma/beta must have shape ({C},), got "
            f"{gamma.data.shape}/{beta.data.shape}")
    axes = tuple(range(1, x.data.ndim))
    expand = (slice(None),) + (None,) * (x.data.ndim - 1)
    n = int(np.prod([x.data.shape[a] for a in axes])) if axes else 1
    if training:
        mu = x.data.mean(axis=axes) if axes else x.data.copy()
        var = x.data.var(axis=axes) if axes else np.zeros(C, dtype=x.data.dtype)
        m = state.momentum
        state.running_mean = (1 - m) * state.running_mean + m * mu
        state.running_var = (1 - m) * state.running_var + m * var
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (x.data - mu[expand]) * inv[expand]
        out = gamma.data[expand] * xhat + beta.data[expand]

        def backward(g):
            dg = (g * xhat).sum(axis=axes) if axes else (g * xhat)
            db = g.sum(axis=axes) if axes else g.copy()
            gsum = db[expand]
            gxhat_sum = dg[expand]
            gx = (gamma.data[expand] * inv[expand] / n) * (
                n * g - gsum - xhat * gxhat_sum)
            return [(x, gx), (gamma, dg), (beta, db)]
        return _node(out, (x, gamma, beta), backward)
    inv = 1.0 / np.sqrt(state.running_var + BN_EPS)
    out = gamma.data[expand] * (x.data - state.running_mean[expand]) * inv[expand] \
        + beta.data[expand]

    def backward(g):
        xhat = (x.data - state.running_mean[expand]) * inv[expand]
        dg = (g * xhat).sum(axis=axes) if axes else (g * xhat)
        db = g.sum(axis=axes) if axes else g.copy()
        return [(x, g * gamma.data[expand] * inv[expand]), (gamma, dg), (beta, db)]
    return _node(out, (x, gamma, beta), backward)


# -- losses ------------------------------------------------------------------

def bce_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean binary cross entropy; probabilities clamped to [eps, 1-eps]."""
    if pred.data.shape != target.data.shape:
        raise ShapeError(
            f"bce_loss: pred {pred.data.shape} vs target {target.data.shape}")
    p = np.clip(pred.data, BCE_EPS, 1.0 - BCE_EPS)
    t = target.data
    n = p.size
    loss = float(np.mean(-(t * np.log(p) + (1.0 - t) * np.log(1.0 - p))))
    inside = (pred.data > BCE_EPS) & (pred.data < 1.0 - BCE_EPS)

    def backward(g):
        gp = np.where(inside, (-t / p + (1.0 - t) / (1.0 - p)) / n, 0.0)
        return [(pred, float(g) * gp)]
    return _node(loss, (pred,), backward)


# -- parameter initialization and checkpoints --------------------------------

def init_uniform(shape, fan_in: int, rng: np.random.Generator) -> Tensor:
    """Uniform in +-sqrt(1/fan_in), as a trainable leaf."""
    bound = float(np.sqrt(1.0 / fan_in))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def save_checkpoint(path, params: dict, extra: Optional[dict] = None) -> None:
    """Write a versioned JSON checkpoint: name -> shape + row-major values."""
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "params": {
            name: {"shape": list(t.data.shape),
                   "data": t.data.ravel().tolist()}
            for name, t in params.items()
        },
    }
    if extra:
        payload.update(extra)
    with open(path, "w") as f:
        json.dump(payload, f)


def load_checkpoint(path) -> dict:
    with open(path) as f:
        payload = json.load(f)
    version = payload.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version: {version}")
    return payload


def restore_params(payload: dict, params: dict) -> None:
    """Load checkpoint values into an existing name -> Tensor map, in place."""
    stored = payload["params"]
    missing = set(params) - set(stored)
    if missing:
        raise ValueError(f"checkpoint missing parameters: {sorted(missing)}")
    for name, t in params.items():
        entry = stored[name]
        arr = np.asarray(entry["data"], dtype=_DEFAULT_DTYPE).reshape(entry["shape"])
        if arr.shape != t.data.shape:
            raise ShapeError(
                f"checkpoint parameter {name}: shape {arr.shape} vs "
                f"expected {t.data.shape}")
        t.data = arr
