"""Shared test oracles: central finite differences over named parameter
dicts, and reference versions of the small ops the fused layers replace."""

import numpy as np

from kgmoe import tensor as T


def finite_diff_entry(loss_fn, param, index, h=1e-5):
    """Central finite difference of loss_fn w.r.t. one entry of param.data."""
    original = param.data[index]
    param.data[index] = original + h
    up = loss_fn()
    param.data[index] = original - h
    down = loss_fn()
    param.data[index] = original
    return (up - down) / (2 * h)


def check_gradients(loss_fn, params, rng, n_checks=20, h=1e-5, rel_tol=1e-6,
                    names=None):
    """Compare analytic grads (already filled) against central differences.

    Returns the worst relative error seen.  loss_fn() must be a pure float
    re-evaluation of the same loss.
    """
    names = sorted(names if names is not None else params.keys())
    worst = 0.0
    for _ in range(n_checks):
        name = names[int(rng.integers(0, len(names)))]
        p = params[name]
        flat_idx = int(rng.integers(0, p.data.size))
        index = np.unravel_index(flat_idx, p.data.shape)
        numeric = finite_diff_entry(loss_fn, p, index, h=h)
        analytic = 0.0 if p.grad is None else p.grad[index]
        denom = max(abs(numeric), abs(analytic), 1e-8)
        err = abs(numeric - analytic) / denom
        worst = max(worst, err)
        assert err < rel_tol, (
            f"gradient mismatch for {name}{index}: analytic {analytic} "
            f"vs numeric {numeric} (rel err {err:.2e})")
    return worst


# ---------------------------------------------------------------------------
# Reference ops.  kgmoe.tensor runs whole layers as fused ops; these are the
# small ops those layers were once chained from, with their original forward
# expressions and backward rules, for loss reducers and for checking each
# fused op against its chain.

def sub(a, b):
    def backward(g):
        T._accum(a, T._unbroadcast(g, a.data.shape))
        T._accum(b, T._unbroadcast(-g, b.data.shape))
    return T._make(a.data - b.data, (a, b), backward)


def mul(a, b):
    def backward(g):
        T._accum(a, T._unbroadcast(g * b.data, a.data.shape))
        T._accum(b, T._unbroadcast(g * a.data, b.data.shape))
    return T._make(a.data * b.data, (a, b), backward)


def relu(a):
    mask = a.data > 0

    def backward(g):
        T._accum(a, g * mask)
    return T._make(a.data * mask, (a,), backward)


def sigmoid(a):
    y = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        T._accum(a, g * y * (1.0 - y))
    return T._make(y, (a,), backward)


def log(a):
    def backward(g):
        T._accum(a, g / a.data)
    return T._make(np.log(a.data), (a,), backward)


def clip(a, lo, hi):
    """Clamp values; gradient passes only through unclipped entries."""
    mask = (a.data > lo) & (a.data < hi)

    def backward(g):
        T._accum(a, g * mask)
    return T._make(np.clip(a.data, lo, hi), (a,), backward)


def mean_all(a):
    n = a.data.size

    def backward(g):
        T._accum(a, np.full_like(a.data, float(g) / n))
    return T._make(a.data.mean(), (a,), backward)


def attention(q, k, v, n_heads, mask=None):
    """Multi-head attention of q [..., tq, d] over k, v [..., tk, d] as one op
    (`tensor._attend`), leading axes broadcasting."""
    out, attend_backward = T._attend(q.data, k.data, v.data, n_heads, mask)

    def backward(g):
        for t, gt in zip((q, k, v), attend_backward(g)):
            T._accum(t, T._unbroadcast(gt, t.data.shape))
    return T._make(out, (q, k, v), backward)


def compose(h_u, h_r):
    """Non-parametric composition of neighbor and relation states (difference)."""
    if h_u.shape != h_r.shape:
        raise ValueError(f"compose dimension mismatch: {h_u.shape} vs {h_r.shape}")
    return sub(h_u, h_r)
