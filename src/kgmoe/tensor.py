"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Everything is float64 and single-threaded.  A Tensor produced by an op keeps
references to its parents and a backward closure; calling ``backward`` on a
scalar loss walks the recorded graph in reverse topological order and fills
``grad`` buffers on every reachable tensor with ``requires_grad``.
"""

from __future__ import annotations

import contextlib
import json
import math

import numpy as np

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording (forward-only evaluation)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_backward_done")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self._backward_done = False

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def backward(self):
        """Reverse-mode sweep from a scalar tensor.

        Fills ``grad`` on every tensor on the path that has requires_grad.
        A second call on the same graph root is an error.
        """
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {self.data.shape}")
        if self._backward_done:
            raise RuntimeError("backward already called on this graph")
        self._backward_done = True

        order = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in order:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _toposort(root: Tensor):
    """Iterative DFS; returns nodes in reverse topological order."""
    order, visited = [], set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    order.reverse()
    return order


def _make(data, parents, backward):
    req = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=req)
    if req:
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


# ---------------------------------------------------------------------------
# elementwise ops

def add(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))
    return _make(a.data + b.data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))
    return _make(a.data - b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))
    return _make(a.data * b.data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    def backward(g):
        _accum(a, g * s)
    return _make(a.data * s, (a,), backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def backward(g):
        _accum(a, g * mask)
    return _make(a.data * mask, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    y = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        _accum(a, g * y * (1.0 - y))
    return _make(y, (a,), backward)


def log(a: Tensor) -> Tensor:
    def backward(g):
        _accum(a, g / a.data)
    return _make(np.log(a.data), (a,), backward)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes only through unclipped entries."""
    mask = (a.data > lo) & (a.data < hi)

    def backward(g):
        _accum(a, g * mask)
    return _make(np.clip(a.data, lo, hi), (a,), backward)


# ---------------------------------------------------------------------------
# linear algebra / shaping

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else 0]:
        raise ValueError(f"matmul dimension mismatch: {a.data.shape} x {b.data.shape}")

    def backward(g):
        _accum(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape))
        _accum(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape))
    return _make(np.matmul(a.data, b.data), (a, b), backward)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape

    def backward(g):
        _accum(a, g.reshape(old))
    return _make(a.data.reshape(shape), (a,), backward)


def transpose(a: Tensor, axes) -> Tensor:
    inv = np.argsort(axes)

    def backward(g):
        _accum(a, g.transpose(inv))
    return _make(a.data.transpose(axes), (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, piece)
    return _make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward)


def embedding(table: Tensor, ids) -> Tensor:
    """Row gather; gradient scatter-adds back into the table."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise IndexError(f"embedding index out of range for table of {table.data.shape[0]} rows")

    def backward(g):
        if not table.requires_grad:
            return
        if table.grad is None:
            table.grad = np.zeros(table.data.shape)
        np.add.at(table.grad, idx, g)
    return _make(table.data[idx], (table,), backward)


def segment_mean(x: Tensor, seg_ids, num_segments: int) -> Tensor:
    """Mean of rows of x grouped by seg_ids; empty segments yield zero rows."""
    seg = np.asarray(seg_ids, dtype=np.int64)
    counts = np.bincount(seg, minlength=num_segments).astype(np.float64)
    out = np.zeros((num_segments,) + x.data.shape[1:])
    np.add.at(out, seg, x.data)
    safe = np.maximum(counts, 1.0)
    out /= safe[(...,) + (None,) * (x.data.ndim - 1)]

    def backward(g):
        _accum(x, g[seg] / safe[seg][(...,) + (None,) * (x.data.ndim - 1)])
    return _make(out, (x,), backward)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size

    def backward(g):
        _accum(a, np.full_like(a.data, float(g) / n))
    return _make(a.data.mean(), (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    def backward(g):
        _accum(a, np.full_like(a.data, float(g)))
    return _make(a.data.sum(), (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accum(a, (g - dot) * y)
    return _make(y, (a,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    d = x.data.shape[-1]

    def backward(g):
        _accum(gain, _unbroadcast(g * xhat, gain.data.shape))
        _accum(bias, _unbroadcast(g, bias.data.shape))
        gx = g * gain.data
        t1 = gx.sum(axis=-1, keepdims=True)
        t2 = (gx * xhat).sum(axis=-1, keepdims=True)
        _accum(x, inv * (gx - t1 / d - xhat * t2 / d))
    return _make(xhat * gain.data + bias.data, (x, gain, bias), backward)


def softmax_cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log-likelihood of integer targets under row softmax.

    Uses a log-sum-exp stable formulation; gradient is softmax minus one-hot.
    """
    t = np.asarray(targets, dtype=np.int64)
    n, v = logits.data.shape
    if t.shape != (n,):
        raise ValueError(f"targets shape {t.shape} does not match logits rows {n}")
    if t.size and (t.min() < 0 or t.max() >= v):
        raise IndexError(f"target id out of range for vocabulary of size {v}")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1)) + logits.data.max(axis=-1)
    nll = lse - logits.data[np.arange(n), t]

    def backward(g):
        p = np.exp(shifted)
        p /= p.sum(axis=-1, keepdims=True)
        p[np.arange(n), t] -= 1.0
        _accum(logits, float(g) * p / n)
    return _make(nll.mean(), (logits,), backward)


# ---------------------------------------------------------------------------
# optimizer and checkpointing

class Adam:
    """Adam over a name->Tensor parameter dict, updating in place.

    Rows are skipped exactly.  For a parameter with two or more dimensions a
    row (index on axis 0) goes live once any element of its gradient, after
    weight decay, is nonzero, and stays live.  Until then its moments are
    exactly 0 and the dense rule would compute m = v = 0 and subtract
    lr * 0 / (0 + eps) = 0, so only live rows are gathered, updated with the
    dense arithmetic and scattered back; the result is bit-identical to
    updating every row.  The moment buffers come from ``np.zeros``, so pages of
    rows that never go live are never written.  1-D and scalar parameters are
    updated densely.
    """

    def __init__(self, params: dict, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError(f"Adam betas must lie in [0, 1), got {betas}")
        if not (math.isfinite(eps) and eps > 0):
            raise ValueError(f"Adam eps must be finite and > 0, got {eps}")
        _check_lr(lr)
        self.params = params
        self.lr = lr
        self.b1, self.b2 = b1, b2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros(p.data.shape) for k, p in params.items()}
        self.v = {k: np.zeros(p.data.shape) for k, p in params.items()}
        self.live = {k: np.zeros(p.data.shape[0], dtype=bool)
                     for k, p in params.items() if p.data.ndim >= 2}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self, lr: float | None = None):
        lr = self.lr if lr is None else _check_lr(lr)
        self.t += 1
        c1 = 1 - self.b1 ** self.t
        c2 = 1 - self.b2 ** self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            rows = ...
            live = self.live.get(k)
            if live is not None and not live.all():
                live |= g.any(axis=tuple(range(1, g.ndim)))
                if not live.all():
                    rows = np.flatnonzero(live)
                    g = g[rows]
            m = self.b1 * self.m[k][rows] + (1 - self.b1) * g
            v = self.b2 * self.v[k][rows] + (1 - self.b2) * g * g
            self.m[k][rows] = m
            self.v[k][rows] = v
            p.data[rows] -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def _check_lr(lr: float) -> float:
    # A row skipped as untouched is exact only if the dense update there is +0.
    if not (math.isfinite(lr) and lr >= 0):
        raise ValueError(f"Adam learning rate must be finite and >= 0, got {lr}")
    return lr


CHECKPOINT_VERSION = 1


def save_checkpoint(path, params: dict, meta: dict | None = None):
    """Write parameters as a versioned JSON map name -> (shape, flat f64 list).

    Python's float repr round-trips exactly, so load returns bit-identical data.
    """
    payload = {
        "version": CHECKPOINT_VERSION,
        "meta": meta or {},
        "params": {
            name: {"shape": list(p.data.shape), "data": p.data.reshape(-1).tolist()}
            for name, p in sorted(params.items())
        },
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)


def load_checkpoint(path):
    """Read a checkpoint; returns (name->Tensor dict with requires_grad, meta).
    A bad file raises a ValueError naming it (and the parameter at fault)."""
    with open(path, encoding="utf-8") as f:
        try:
            payload = json.load(f)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: malformed checkpoint JSON: {err}") from None
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version!r}")
    params = {}
    for name, entry in payload.get("params", {}).items():
        if not isinstance(entry, dict) or not {"shape", "data"} <= entry.keys():
            raise ValueError(f"{path}: parameter {name!r} needs 'shape' and 'data'")
        try:
            arr = np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
        except (TypeError, ValueError) as err:
            raise ValueError(f"{path}: parameter {name!r}: {err}") from None
        params[name] = Tensor(arr, requires_grad=True)
    return params, payload.get("meta", {})


# ---------------------------------------------------------------------------
# init helpers

def uniform_init(rng: np.random.Generator, shape, scale: float = 0.05) -> Tensor:
    return Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=True)


def glorot_init(rng: np.random.Generator, shape) -> Tensor:
    fan_in, fan_out = shape[-2], shape[-1]
    std = math.sqrt(2.0 / (fan_in + fan_out))
    return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)


def zeros_init(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)
