"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Everything is float64 and single-threaded.  A Tensor produced by an op keeps
references to its parents and a backward closure; calling ``backward`` on a
scalar loss walks the recorded graph in reverse topological order and fills
``grad`` buffers on every reachable tensor with ``requires_grad``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os

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
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_backward_done",
                 "_touched")

    def __init__(self, data, requires_grad: bool = False):
        self.data = (data if type(data) is np.ndarray and data.dtype == np.float64
                     else np.asarray(data, dtype=np.float64))
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self._backward_done = False
        # (grad buffer, row-id arrays) while only embedding scatters wrote that buffer
        self._touched = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def drawn(self, idx) -> np.ndarray:
        """The data, whose rows idx at least hold their values (see `DrawnTable`)."""
        return self.data

    def item(self) -> float:
        """The value of a one-element tensor of any shape."""
        return self.data.item()

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
        # zeros_like(t.data) += g, g broadcast, written as g + 0.0 (-0.0 becomes
        # +0.0); a view's layout would change later products' rounding
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))
    else:
        t.grad += g
    t._touched = None


def _rows(table: Tensor, ids) -> np.ndarray:
    """ids as an int64 index array into table's rows, range-checked."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.size and (np.minimum.reduce(idx, axis=None) < 0
                     or np.maximum.reduce(idx, axis=None) >= table.shape[0]):
        raise IndexError(f"embedding index out of range for table of {table.shape[0]} rows")
    return idx


def _scatter_rows(table: Tensor, idx: np.ndarray, g: np.ndarray):
    """Add the rows of g into table's gradient at rows idx (an embedding's
    backward).  A fresh buffer remembers the row ids while only such scatters
    write it, for `Adam`'s touched-row check."""
    if not table.requires_grad:
        return
    if table.grad is None:
        table.grad = np.zeros(table.shape)
        table._touched = (table.grad, [])
    if table._touched is not None:
        table._touched[1].append(idx)
    _scatter_add(table.grad, idx, g)


def _scatter_add(dst: np.ndarray, idx: np.ndarray, rows: np.ndarray):
    """np.add.at(dst, idx, rows) for row ids idx on dst's axis 0, bit for bit.

    The row scatter runs as one 1-D scatter over element indices, which numpy
    does far faster; each element still takes its contributions one by one in
    index order onto what dst holds, so every sum is the same.
    """
    if not dst.flags.c_contiguous:
        np.add.at(dst, idx, rows)
        return
    width = math.prod(dst.shape[1:])
    flat = idx.reshape(-1, 1) * width + np.arange(width)
    np.add.at(dst.reshape(-1), flat.reshape(-1), rows.reshape(-1))


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        # a size-1 axis is dropped as a view: summing it would only turn -0.0
        # into +0.0, which every +0.0-initialised gradient buffer does anyway
        g = g[0] if g.shape[0] == 1 else np.add.reduce(g, axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and g.shape[ax] != 1:
            g = np.add.reduce(g, axis=ax, keepdims=True)
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


def scale(a: Tensor, s: float) -> Tensor:
    def backward(g):
        _accum(a, g * s)
    return _make(a.data * s, (a,), backward)


# ---------------------------------------------------------------------------
# linear algebra / shaping

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else 0]:
        raise ValueError(f"matmul dimension mismatch: {a.data.shape} x {b.data.shape}")

    def backward(g):
        _accum(a, _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.data.shape))
        _accum(b, _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.data.shape))
    return _make(np.matmul(a.data, b.data), (a, b), backward)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape

    def backward(g):
        _accum(a, g.reshape(old))
    return _make(a.data.reshape(shape), (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, piece)
    return _make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward)


def broadcast_to(a: Tensor, shape) -> Tensor:
    """a repeated over new or size-1 leading axes; gradient sums back."""
    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
    out = np.empty(shape)
    out[...] = a.data                # an exact copy, cheaper than np.broadcast_to's wrapper
    return _make(out, (a,), backward)


def embedding(table: Tensor, ids) -> Tensor:
    """Row gather; gradient scatter-adds back into the table."""
    idx = _rows(table, ids)

    def backward(g):
        _scatter_rows(table, idx, g)
    return _make(table.drawn(idx)[idx], (table,), backward)


def segment_mean(x: Tensor, seg_ids, num_segments: int) -> Tensor:
    """Mean of rows of x grouped by seg_ids; empty segments yield zero rows."""
    seg = np.asarray(seg_ids, dtype=np.int64)
    counts = np.bincount(seg, minlength=num_segments).astype(np.float64)
    out = np.zeros((num_segments,) + x.data.shape[1:])
    _scatter_add(out, seg, x.data)
    safe = np.maximum(counts, 1.0)
    out /= safe[(...,) + (None,) * (x.data.ndim - 1)]

    def backward(g):
        _accum(x, g[seg] / safe[seg][(...,) + (None,) * (x.data.ndim - 1)])
    return _make(out, (x,), backward)


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int, mask=None):
    """Multi-head scaled dot-product attention of q [..., tq, d] over k, v [..., tk, d].

    Leading axes broadcast: a q [tq, d] against k, v [K, tk, d] gives [K, tq, d].
    Splits n_heads heads, adds the optional additive mask [tq, tk] to the
    scaled scores, takes the row softmax and merges the heads into [..., tq, d].
    Returns (output, backward), where backward(g) gives the gradients of q, k
    and v over the broadcast leading axes.  Each view and float operation is
    the one a chain of reshape, transpose, matmul, scale and softmax ops would
    run, so BLAS sees the same layouts and the results match that chain bit
    for bit; the stacked products run one gemm per slice, so a batched call
    matches per-slice calls bit for bit.
    """
    qshape, kshape = q.shape, k.shape
    tq, d = qshape[-2:]
    heads = (n_heads, d // n_heads)
    s = 1.0 / math.sqrt(heads[1])
    # [..., t, d] -> [..., h, t, dh]; k and v share a shape
    qh = q.reshape(qshape[:-1] + heads).swapaxes(-3, -2)
    kh = k.reshape(kshape[:-1] + heads).swapaxes(-3, -2)
    vh = v.reshape(kshape[:-1] + heads).swapaxes(-3, -2)
    # the scores become the softmax weights in place, sparing the temporaries
    y = np.matmul(qh, kh.swapaxes(-1, -2))
    y *= s
    if mask is not None:
        y += mask
    # ufunc reductions are what ndarray.max and .sum run, minus their Python wrappers
    y -= np.maximum.reduce(y, axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= np.add.reduce(y, axis=-1, keepdims=True)
    out = np.matmul(y, vh)

    def backward(g):
        go = g.reshape(g.shape[:-1] + heads).swapaxes(-3, -2)
        gy = np.matmul(go, vh.swapaxes(-1, -2))
        gv = np.matmul(y.swapaxes(-1, -2), go)
        gs = (gy - np.add.reduce(gy * y, axis=-1, keepdims=True)) * y * s
        gq = np.matmul(gs, kh)
        gkt = np.matmul(qh.swapaxes(-1, -2), gs)
        lead = tuple(range(gkt.ndim - 3))
        return (gq.swapaxes(-3, -2).reshape(gq.shape[:-3] + (tq, d)),
                gkt.transpose(lead + (-1, -3, -2)).reshape(gkt.shape[:-3] + (kshape[-2], d)),
                gv.swapaxes(-3, -2).reshape(gv.shape[:-3] + (kshape[-2], d)))
    return out.swapaxes(-3, -2).reshape(out.shape[:-3] + (tq, d)), backward


def _norm(x: np.ndarray, gain: Tensor, bias: Tensor):
    """Layer norm of x over its last axis, scaled and shifted: (output,
    backward), where backward(g) accumulates the gain and bias gradients and
    returns x's."""
    # np.mean, np.var and ndarray.sum run these reductions, minus their Python wrappers
    d = x.shape[-1]
    centred = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    var = np.add.reduce(centred * centred, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = centred * inv

    def backward(g):
        _accum(gain, _unbroadcast(g * xhat, gain.data.shape))
        _accum(bias, _unbroadcast(g, bias.data.shape))
        gx = g * gain.data
        t1 = np.add.reduce(gx, axis=-1, keepdims=True)
        t2 = np.add.reduce(gx * xhat, axis=-1, keepdims=True)
        return inv * (gx - t1 / d - xhat * t2 / d)
    return xhat * gain.data + bias.data, backward


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    out, norm_backward = _norm(x.data, gain, bias)

    def backward(g):
        _accum(x, norm_backward(g))
    return _make(out, (x, gain, bias), backward)


# ---------------------------------------------------------------------------
# fused layers
#
# Each op below runs a whole chain of the ops above as one node with one
# backward closure.  It computes exactly the ndarray expressions of that chain,
# and it adds every gradient's terms in the order the chain's backward sweep
# would (a residual before the layer norm, a query's term before the key's
# and the value's), through buffers of the same memory layout, so values and
# parameter gradients match the chain bit for bit.  The order of each op's
# parents keeps the sweep's order over the rest of the graph.


def attention_sublayer(x: Tensor, gain: Tensor, bias: Tensor, wq: Tensor, k: Tensor,
                       v: Tensor, wo: Tensor, n_heads: int, mask=None, project: bool = True,
                       grow=None) -> Tensor:
    """x + attention(LN(x) wq, keys, values) wo, a pre-LN attention sublayer.

    With project (self-attention), k and v are the projections giving the
    keys LN(x) k and the values LN(x) v; `grow`, if given, maps those new
    positions' keys and values to the arrays attention reads (a decoder
    cache's, with them appended), and only the new positions pass a gradient
    on.  Without project, k and v are the keys and values themselves
    (cross-attention over a memory, projected by the caller).  Leading axes
    broadcast as in `_attend`; mask is added to the scaled scores.
    """
    xn, norm_backward = _norm(x.data, gain, bias)
    q = np.matmul(xn, wq.data)
    if project:
        keys, values = np.matmul(xn, k.data), np.matmul(xn, v.data)
        if grow is not None:
            keys, values = grow(keys, values)
    else:
        keys, values = k.data, v.data
    a, attend_backward = _attend(q, keys, values, n_heads, mask)
    out = x.data + np.matmul(a, wo.data)

    def backward(g):
        _accum(x, _unbroadcast(g, x.data.shape))
        _accum(wo, _unbroadcast(np.matmul(a.swapaxes(-1, -2), g), wo.data.shape))
        gq, gk, gv = attend_backward(np.matmul(g, wo.data.swapaxes(-1, -2)))
        gq = np.ascontiguousarray(_unbroadcast(gq, q.shape))
        _accum(wq, _unbroadcast(np.matmul(xn.swapaxes(-1, -2), gq), wq.data.shape))
        gxn = np.matmul(gq, wq.data.swapaxes(-1, -2))
        if project:
            t = xn.shape[-2]
            for w, gw in ((k, gk), (v, gv)):
                gw = np.ascontiguousarray(_unbroadcast(gw[..., -t:, :], xn.shape))
                _accum(w, _unbroadcast(np.matmul(xn.swapaxes(-1, -2), gw), w.data.shape))
                gxn += np.matmul(gw, w.data.swapaxes(-1, -2))
        else:
            _accum(k, _unbroadcast(gk, keys.shape))
            _accum(v, _unbroadcast(gv, values.shape))
        _accum(x, norm_backward(gxn))
    # k and v last: the sweep reaches a memory's projections before x's layers
    return _make(out, (x, gain, bias, wq, wo, k, v), backward)


def feed_forward_sublayer(x: Tensor, gain: Tensor, bias: Tensor, w1: Tensor, b1: Tensor,
                          w2: Tensor, b2: Tensor) -> Tensor:
    """x + ReLU(LN(x) w1 + b1) w2 + b2, a pre-LN feed-forward sublayer."""
    xn, norm_backward = _norm(x.data, gain, bias)
    pre = np.matmul(xn, w1.data) + b1.data
    mask = pre > 0
    hidden = pre * mask
    out = x.data + (np.matmul(hidden, w2.data) + b2.data)

    def backward(g):
        _accum(x, _unbroadcast(g, x.data.shape))
        _accum(b2, _unbroadcast(g, b2.data.shape))
        _accum(w2, _unbroadcast(np.matmul(hidden.swapaxes(-1, -2), g), w2.data.shape))
        gpre = np.matmul(g, w2.data.swapaxes(-1, -2)) * mask
        _accum(b1, _unbroadcast(gpre, b1.data.shape))
        _accum(w1, _unbroadcast(np.matmul(xn.swapaxes(-1, -2), gpre), w1.data.shape))
        _accum(x, norm_backward(np.matmul(gpre, w1.data.swapaxes(-1, -2))))
    return _make(out, (x, gain, bias, w1, b1, w2, b2), backward)


def rgcn_conv(h_rel: Tensor, h: Tensor, w_neighbor: Tensor, w_self: Tensor,
              messages) -> Tensor:
    """ReLU(mean over the messages into each node + h w_self), one relational
    graph convolution of node states h [n, d].

    messages is (src, dst, rel, divisor): the message along edge i is
    (h[src[i]] - h_rel[rel[i]]) w_neighbor, sent to node dst[i], and
    divisor [n] holds each node's in-degree, at least 1.
    """
    src, dst, rel, divisor = messages
    pre = np.matmul(h.data, w_self.data)
    if len(src):
        diff = h.data[src] - h_rel.data[rel]
        msg = np.matmul(diff, w_neighbor.data)
        agg = np.zeros(pre.shape)
        _scatter_add(agg, dst, msg)
        agg /= divisor[:, None]
        pre = agg + pre
    mask = pre > 0

    def backward(g):
        gpre = g * mask
        if len(src):
            gmsg = gpre[dst] / divisor[dst][:, None]
            gdiff = np.matmul(gmsg, w_neighbor.data.T)
            _accum(w_neighbor, np.matmul(diff.T, gmsg))
            # the edge scatter into h comes before the dense self term
            _scatter_rows(h, src, gdiff)
            _scatter_rows(h_rel, rel, -gdiff)
        _accum(h, np.matmul(gpre, w_self.data.T))
        _accum(w_self, np.matmul(h.data.T, gpre))
    # h_rel first: the sweep reaches h's layers before h_rel's projection
    return _make(pre * mask, (h_rel, h, w_neighbor, w_self), backward)


def sigmoid_mlp(h: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
                shift: tuple[Tensor, int]) -> Tensor:
    """sigmoid(ReLU((h + shift) w1 + b1) w2 + b2) for the rows of h [n, d], as
    an [n] tensor; w2 is [d_hidden, 1].  shift is (table, row), which adds
    that table row to every row of h and scatters its gradient back."""
    table, row = shift
    idx = _rows(table, [row])
    x = h.data + table.data[idx]
    pre = np.matmul(x, w1.data) + b1.data
    mask = pre > 0
    hidden = pre * mask
    y = 1.0 / (1.0 + np.exp(-(np.matmul(hidden, w2.data) + b2.data)))

    def backward(g):
        gz = g.reshape(y.shape) * y * (1.0 - y)
        _accum(b2, _unbroadcast(gz, b2.data.shape))
        _accum(w2, np.matmul(hidden.T, gz))
        gpre = np.matmul(gz, w2.data.T) * mask
        _accum(b1, _unbroadcast(gpre, b1.data.shape))
        _accum(w1, np.matmul(x.T, gpre))
        gx = np.matmul(gpre, w1.data.T)
        _accum(h, gx)
        _scatter_rows(table, idx, _unbroadcast(gx, (1, x.shape[1])))
    return _make(y.reshape(len(x)), (h, w1, b1, w2, b2, table), backward)


def binary_cross_entropy(p: Tensor, labels: np.ndarray, eps: float) -> Tensor:
    """Mean binary cross-entropy of probabilities p against 0/1 labels, with
    p clipped to [eps, 1 - eps]; no gradient passes where p was clipped."""
    pc = np.clip(p.data, eps, 1.0 - eps)
    kept = (p.data > eps) & (p.data < 1.0 - eps)
    qc = np.ones_like(labels) - pc
    negatives = 1.0 - labels
    terms = labels * np.log(pc) + negatives * np.log(qc)

    def backward(g):
        gt = float(g * -1.0) / terms.size
        _accum(p, ((gt * labels) / pc + -((gt * negatives) / qc)) * kept)
    return _make(terms.mean() * -1.0, (p,), backward)


def softmax_cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log-likelihood of integer targets under row softmax.

    logits [..., n, V] and targets [n] give one mean per leading index, a
    tensor of shape [...] (a scalar for 2-D logits).  Uses a log-sum-exp
    stable formulation; gradient is softmax minus one-hot.
    """
    t = np.asarray(targets, dtype=np.int64)
    x = logits.data
    n, v = x.shape[-2:]
    if t.shape != (n,):
        raise ValueError(f"targets shape {t.shape} does not match logits rows {n}")
    if t.size and (t.min() < 0 or t.max() >= v):
        raise IndexError(f"target id out of range for vocabulary of size {v}")
    rows = np.arange(n)
    shifted = x - x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1)) + x.max(axis=-1)
    nll = lse - x[..., rows, t]

    def backward(g):
        p = np.exp(shifted)
        p /= p.sum(axis=-1, keepdims=True)
        p[..., rows, t] -= 1.0
        _accum(logits, g[..., None, None] * p / n)
    return _make(nll.mean(axis=-1), (logits,), backward)


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
    updated densely.  When only ``embedding`` backwards wrote a gradient (no
    dense accumulation, no hand-assigned buffer) and there is no weight decay,
    every untouched row is +0.0, so the live check reads just the touched rows
    instead of the whole table.
    """

    def __init__(self, params: dict, lr: float = 1e-3, weight_decay: float = 0.0):
        _check_lr(lr)
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros(p.shape) for k, p in params.items()}
        self.v = {k: np.zeros(p.shape) for k, p in params.items()}
        self.live = {k: np.zeros(p.shape[0], dtype=bool)
                     for k, p in params.items() if len(p.shape) >= 2}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None
            p._touched = None

    def step(self, lr: float | None = None):
        lr = self.lr if lr is None else _check_lr(lr)
        b1, b2, eps = 0.9, 0.999, 1e-8      # Kingma & Ba's constants
        self.t += 1
        c1 = 1 - b1 ** self.t
        c2 = 1 - b2 ** self.t
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            rows = ...
            live = self.live.get(k)
            if live is not None and not live.all():
                touched = p._touched
                if touched is not None and touched[0] is p.grad and not self.weight_decay:
                    # only embedding scatters wrote g: every other row is +0.0
                    ids = np.concatenate([i.reshape(-1) for i in touched[1]])
                    live[ids[g[ids].any(axis=tuple(range(1, g.ndim)))]] = True
                else:
                    live |= g.any(axis=tuple(range(1, g.ndim)))
                if not live.all():
                    rows = np.flatnonzero(live)
                    g = g[rows]
            m = b1 * self.m[k][rows] + (1 - b1) * g
            v = b2 * self.v[k][rows] + (1 - b2) * g * g
            self.m[k][rows] = m
            self.v[k][rows] = v
            data = p.data if rows is ... else p.drawn(rows)
            data[rows] -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def _check_lr(lr: float) -> float:
    # A row skipped as untouched is exact only if the dense update there is +0.
    if not (math.isfinite(lr) and lr >= 0):
        raise ValueError(f"Adam learning rate must be finite and >= 0, got {lr}")
    return lr


CHECKPOINT_VERSION = 3


def save_checkpoint(path, params: dict, meta: dict | None = None):
    """Write parameters as a version-3 checkpoint: one header line, then raw bytes.

    The header is one line of strict JSON, ``{"version": 3, "meta": ...,
    "params": {name: {"shape": [...]}}}`` with names sorted, padded with spaces
    so that the payload after its newline starts at a multiple of 8 bytes.  The
    payload is each parameter's C-order little-endian float64 bytes, in name
    order, so load returns bit-identical data.  A NaN or infinity, in a
    parameter or in meta, is refused with a ValueError naming the file (and the
    parameter) before anything is written.  The file goes to a temporary file
    beside ``path`` that is fsynced and then renamed onto it, so a failed or
    interrupted save never leaves a truncated checkpoint and keeps any old one
    intact.
    """
    items = sorted(params.items())
    for name, p in items:
        if not np.isfinite(p.data).all():
            raise ValueError(f"{path}: parameter {name!r} holds a non-finite value; "
                             "a checkpoint stores finite floats only")
    try:
        header = json.dumps({"version": CHECKPOINT_VERSION, "meta": meta or {},
                             "params": {name: {"shape": list(p.data.shape)} for name, p in items}},
                            allow_nan=False)
    except ValueError as err:
        raise ValueError(f"{path}: checkpoint meta: {err}") from None
    header += " " * (-(len(header) + 1) % 8) + "\n"     # ASCII: json.dumps escapes the rest
    replace_file(path, [header.encode("ascii"),
                        *(np.ascontiguousarray(p.data, "<f8") for _, p in items)], fsync=True)


def replace_file(path, chunks, fsync: bool):
    """Write the byte chunks to a temporary file beside ``path`` (fsynced if
    ``fsync``) and rename it onto ``path``, so a failed or interrupted write
    never leaves a truncated file and keeps any old one intact."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
            if fsync:
                f.flush()
                os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _json_object(path, pairs):
    """object_pairs_hook of checkpoint JSON: a dict, refusing a repeated key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValueError(f"{path}: checkpoint JSON repeats key {key!r}")
    return obj


def _finite_number(path, text: str) -> float:
    """parse_float and parse_constant hook of checkpoint JSON: strict JSON has
    no NaN or infinity, so refuse those literals and a float64 overflow."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{path}: checkpoint JSON number {text} is not a finite float64")
    return value


def load_checkpoint(path):
    """Read a version-3 checkpoint; returns (name->Tensor dict with
    requires_grad, meta).

    The file is read once; its first line is the header and the rest the
    payload, and each parameter is a writable view of the one buffer (Adam
    updates parameters in place).  A bad file, one of another version
    included, raises a ValueError naming it (and the parameter at fault).
    """
    with open(path, "rb") as f:
        data = bytearray(os.fstat(f.fileno()).st_size)
        del data[f.readinto(data):]
    end = data.find(b"\n")
    finite = functools.partial(_finite_number, path)
    try:
        header = json.loads(data[:end if end >= 0 else len(data)].decode("utf-8"),
                            object_pairs_hook=functools.partial(_json_object, path),
                            parse_float=finite, parse_constant=finite)
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: malformed checkpoint JSON: byte {err.start} is not "
                         f"UTF-8 ({err.reason})") from None
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: malformed checkpoint JSON: {err}") from None
    # 3.0 == 3 in Python, but only the int is a checkpoint version
    version = header.get("version") if isinstance(header, dict) else None
    if version != CHECKPOINT_VERSION or type(version) is not int:
        raise ValueError(f"{path}: unsupported checkpoint version {version!r}")
    if end < 0:
        raise ValueError(f"{path}: a version-3 header must be one line ended by a newline")
    entries, meta = header.get("params", {}), header.get("meta", {})
    for key, value in (("params", entries), ("meta", meta)):
        if not isinstance(value, dict):
            raise ValueError(f"{path}: {key!r} must be an object, got {type(value).__name__}")
    offset = end + 1      # where the payload starts
    if offset % 8:
        raise ValueError(f"{path}: the payload starts at byte {offset}, not at a multiple of 8")
    if list(entries) != sorted(entries):
        raise ValueError(f"{path}: the header's parameters are not in name order")
    params = {}
    for name, entry in entries.items():
        if not isinstance(entry, dict) or "shape" not in entry:
            raise ValueError(f"{path}: parameter {name!r} needs 'shape'")
        shape = entry["shape"]
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise ValueError(f"{path}: parameter {name!r}: shape {shape!r} is not a list "
                             "of non-negative ints")
        size = 8 * math.prod(shape)
        try:
            if offset + size > len(data):
                raise ValueError(f"the payload holds {len(data) - offset} of its {size} bytes")
            arr = np.frombuffer(data, "<f8", size // 8, offset).reshape(shape)
        except ValueError as err:
            raise ValueError(f"{path}: parameter {name!r}: {err}") from None
        offset += size
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: parameter {name!r} holds a non-finite value")
        params[name] = Tensor(arr, requires_grad=True)
    if offset != len(data):
        raise ValueError(f"{path}: {len(data) - offset} bytes follow the last parameter")
    return params, meta


# ---------------------------------------------------------------------------
# init helpers

def uniform_init(rng: np.random.Generator, shape) -> Tensor:
    return Tensor(rng.uniform(-0.05, 0.05, size=shape), requires_grad=True)


class DrawnTable(Tensor):
    """``uniform_init(rng, shape)`` whose rows are drawn on first read, as a
    prefix, into a buffer from ``np.zeros`` (pages never drawn are never written).

    numpy's ``Generator.uniform`` takes one 64-bit PCG64 output per float64 (a
    rule numpy does not document; ``tests/test_drawn_table.py`` pins it), so a
    copy of the generator at the table's start draws the eager rows in
    consecutive runs, and the live generator, advanced past the table, goes on
    with the draws that follow the eager one.  ``drawn(idx)`` draws the rows
    from the count drawn so far up to the highest id; ``shape`` draws nothing;
    any other read of ``data`` draws the whole table, and assigning ``data``
    ends the laziness.
    """

    __slots__ = ("_buf", "_copy", "_rows")

    def __init__(self, rng: np.random.Generator, shape):
        super().__init__(np.zeros(shape), requires_grad=True)
        bits = rng.bit_generator
        self._copy = np.random.Generator(np.random.PCG64())
        self._copy.bit_generator.state = before = bits.state
        self._rows = 0
        # advance drops a buffered 32-bit half-draw, which a uniform draw keeps
        bits.advance(math.prod(shape))
        bits.state = {**bits.state, "has_uint32": before["has_uint32"],
                      "uinteger": before["uinteger"]}

    @property
    def data(self) -> np.ndarray:
        return self.drawn([len(self._buf) - 1])

    @data.setter
    def data(self, value):
        self._buf, self._rows = value, len(value)

    @property
    def shape(self):
        return self._buf.shape

    def drawn(self, idx) -> np.ndarray:
        n, lo = len(self._buf), self._rows
        hi = int(np.max(idx, initial=-1)) + 1
        if lo == 0 and 2 * hi > n:
            # most of an undrawn table: one draw is the buffer, where drawing
            # into the zeros would also copy every row
            self.data = self._copy.uniform(-0.05, 0.05, self._buf.shape)
        elif hi > lo:
            self._buf[lo:hi] = self._copy.uniform(-0.05, 0.05, (hi - lo, *self._buf.shape[1:]))
            self._rows = hi
        return self._buf


def uniform_table(rng: np.random.Generator, shape) -> Tensor:
    """``uniform_init(rng, shape)``, as a `DrawnTable` when rng is a numpy
    Generator on PCG64, the one bit generator whose jump-ahead it relies on."""
    if type(rng) is np.random.Generator and type(rng.bit_generator) is np.random.PCG64:
        return DrawnTable(rng, shape)
    return uniform_init(rng, shape)


def glorot_init(rng: np.random.Generator, shape) -> Tensor:
    fan_in, fan_out = shape[-2], shape[-1]
    std = math.sqrt(2.0 / (fan_in + fan_out))
    return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)


class ShapeOnly:
    """Stand-in for the numpy Generator of the init functions that draws
    nothing: each draw is a read-only zero-stride view of the asked shape."""

    def uniform(self, low, high, size):
        return np.broadcast_to(0.0, size)

    normal = uniform


def zeros_init(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)
