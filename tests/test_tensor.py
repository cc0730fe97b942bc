"""Autodiff engine: op semantics, gradient oracles, optimizer, checkpoints."""

import json
import math
import re

import numpy as np
import pytest

from kgmoe import tensor as T

from util import (attention, check_gradients, clip, compose, log, mean_all, mul, relu,
                  sigmoid, sub)


def test_matmul_identity():
    out = T.matmul(T.Tensor([[1., 0.], [0., 1.]]), T.Tensor([[3.], [4.]]))
    assert out.data.tolist() == [[3.], [4.]]


def test_matmul_zeros():
    out = T.matmul(T.Tensor(np.zeros((2, 2))), T.Tensor([[7.], [9.]]))
    assert not out.data.any()


def test_matmul_arithmetic():
    out = T.matmul(T.Tensor([[1., 2.], [3., 4.]]), T.Tensor([[5.], [6.]]))
    assert out.data.tolist() == [[17.], [39.]]


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
        T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 2))))


def test_cross_entropy_uniform_logits():
    loss = T.softmax_cross_entropy(T.Tensor(np.zeros((1, 8))), [5])
    assert loss.item() == pytest.approx(math.log(8), abs=1e-12)


def test_cross_entropy_dominant_logit():
    logits = np.zeros((1, 4))
    logits[0, 2] = 1e4
    assert T.softmax_cross_entropy(T.Tensor(logits), [2]).item() == pytest.approx(0.0, abs=1e-30)


def test_cross_entropy_hand_value():
    loss = T.softmax_cross_entropy(T.Tensor([[1., 2., 3.]]), [2])
    assert loss.item() == pytest.approx(0.40760596, abs=1e-7)


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError):
        T.softmax_cross_entropy(T.Tensor(np.zeros((1, 3))), [3])


def test_backward_linear():
    w = T.Tensor([[0.5, -1.0]], requires_grad=True)
    x = T.Tensor([[1.], [2.]])
    mean_all(T.matmul(w, x)).backward()
    assert w.grad.tolist() == [[1., 2.]]


def test_backward_unreachable_param_has_no_grad():
    w = T.Tensor([[1.0]], requires_grad=True)
    unused = T.Tensor([[2.0]], requires_grad=True)
    mean_all(T.matmul(w, w)).backward()
    assert unused.grad is None


def test_backward_requires_scalar():
    v = T.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError):
        T.add(v, v).backward()


def test_backward_twice_is_error():
    v = T.Tensor([2.0], requires_grad=True)
    loss = mean_all(mul(v, v))
    loss.backward()
    with pytest.raises(RuntimeError):
        loss.backward()


def attention_weights(scores: np.ndarray) -> T.Tensor:
    """Row softmax of `scores` [tq, tk] through one-head attention: with keys
    and values the identity, each output row is the attention weights."""
    tk = scores.shape[1]
    eye = T.Tensor(np.eye(tk))
    return attention(T.Tensor(scores * math.sqrt(tk)), eye, eye, 1)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    y = attention_weights(rng.normal(size=(5, 7)) * 10)
    assert np.allclose(y.data.sum(axis=-1), 1.0, atol=1e-12)


def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    params = {
        "w1": T.Tensor(rng.normal(size=(4, 6)) * 0.5, requires_grad=True),
        "b1": T.Tensor(rng.normal(size=(6,)) * 0.1, requires_grad=True),
        "w2": T.Tensor(rng.normal(size=(6, 5)) * 0.5, requires_grad=True),
        "w3": T.Tensor(rng.normal(size=(5, 3)) * 0.5, requires_grad=True),
        "ln_g": T.Tensor(np.ones(5), requires_grad=True),
        "ln_b": T.Tensor(np.zeros(5), requires_grad=True),
    }
    x = np.asarray(rng.normal(size=(3, 4)))
    targets = [0, 2, 1]

    def forward():
        h = relu(T.add(T.matmul(T.Tensor(x), params["w1"]), params["b1"]))
        h = sigmoid(T.matmul(h, params["w2"]))
        h = T.layer_norm(h, params["ln_g"], params["ln_b"])
        return T.softmax_cross_entropy(T.matmul(h, params["w3"]), targets)

    loss = forward()
    loss.backward()
    check_gradients(lambda: forward().item(), params,
                    np.random.default_rng(2), n_checks=40, rel_tol=1e-6)


def test_segment_mean_and_embedding_gradients():
    rng = np.random.default_rng(3)
    table = T.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    idx = [0, 2, 2, 5, 1]
    seg = [0, 0, 1, 1, 2]

    def forward():
        rows = T.embedding(table, idx)
        pooled = T.segment_mean(rows, seg, 4)   # segment 3 stays empty
        return mean_all(mul(pooled, pooled))

    loss = forward()
    loss.backward()
    check_gradients(lambda: forward().item(), {"table": table},
                    np.random.default_rng(4), n_checks=20, rel_tol=1e-6)


def naive_attention(q, k, v, n_heads, mask=None):
    """Per-head reference: softmax(q_h k_h^T / sqrt(dh) + mask) v_h, heads side by side."""
    dh = q.shape[1] // n_heads
    heads = []
    for h in range(n_heads):
        cols = slice(h * dh, (h + 1) * dh)
        scores = q[:, cols] @ k[:, cols].T / math.sqrt(dh)
        if mask is not None:
            scores = scores + mask
        w = np.exp(scores - scores.max(axis=1, keepdims=True))
        heads.append((w / w.sum(axis=1, keepdims=True)) @ v[:, cols])
    return np.concatenate(heads, axis=1)


def causal_mask(t):
    return np.triu(np.full((t, t), -1e9), k=1)


@pytest.mark.parametrize("n_heads", [1, 2, 4])
@pytest.mark.parametrize("masked", [False, True], ids=["no-mask", "mask"])
def test_attention_matches_naive_per_head_reference(n_heads, masked):
    rng = np.random.default_rng(7 + n_heads)
    tq, tk, d = 3, 5, 8
    q, k, v = (rng.normal(size=(t, d)) for t in (tq, tk, tk))
    mask = rng.choice([0.0, -1e9], size=(tq, tk)) if masked else None
    if masked:
        mask[:, 0] = 0.0                 # every query keeps one key
    out = attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), n_heads, mask)
    assert out.shape == (tq, d)
    assert np.allclose(out.data, naive_attention(q, k, v, n_heads, mask), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_attention_gradients_match_finite_differences(n_heads):
    rng = np.random.default_rng(20 + n_heads)
    params = {name: T.Tensor(rng.normal(size=(t, 8)), requires_grad=True)
              for name, t in (("q", 4), ("k", 6), ("v", 6))}
    mask = np.zeros((4, 6))
    mask[:2, 4:] = -1e9
    target = rng.normal(size=(4, 8))

    def forward():
        out = attention(params["q"], params["k"], params["v"], n_heads, mask)
        diff = sub(out, T.constant(target))
        return mean_all(mul(diff, diff))

    forward().backward()
    for name in params:
        check_gradients(lambda: forward().item(), params, np.random.default_rng(30 + n_heads),
                        n_checks=15, rel_tol=1e-6, names=[name])


@pytest.mark.parametrize("k_batch", [1, 2, 3])
@pytest.mark.parametrize("broadcast_q", [False, True], ids=["batched-q", "shared-q"])
@pytest.mark.parametrize("masked", [False, True], ids=["no-mask", "mask"])
def test_batched_attention_equals_per_slice_calls_bit_for_bit(k_batch, broadcast_q, masked):
    rng = np.random.default_rng(40 + k_batch)
    tq, tk, d, n_heads = 5, 7, 8, 2
    q = rng.normal(size=(tq, d) if broadcast_q else (k_batch, tq, d))
    k, v = rng.normal(size=(2, k_batch, tk, d))
    mask = rng.choice([0.0, -1e9], size=(tq, tk)) if masked else None
    if masked:
        mask[:, 0] = 0.0
    out = attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), n_heads, mask)
    assert out.shape == (k_batch, tq, d)
    for z in range(k_batch):
        qz = q if broadcast_q else q[z]
        single = attention(T.Tensor(qz), T.Tensor(k[z]), T.Tensor(v[z]), n_heads, mask)
        assert np.array_equal(out.data[z], single.data)


@pytest.mark.parametrize("broadcast_q", [False, True], ids=["batched-q", "shared-q"])
def test_batched_attention_gradients_match_finite_differences(broadcast_q):
    rng = np.random.default_rng(50)
    k_batch, tq, tk, d = 3, 4, 6, 8
    params = {"q": T.Tensor(rng.normal(size=(tq, d) if broadcast_q else (k_batch, tq, d)),
                            requires_grad=True),
              "k": T.Tensor(rng.normal(size=(k_batch, tk, d)), requires_grad=True),
              "v": T.Tensor(rng.normal(size=(k_batch, tk, d)), requires_grad=True)}
    mask = np.zeros((tq, tk))
    mask[:2, 4:] = -1e9
    target = rng.normal(size=(k_batch, tq, d))

    def forward():
        out = attention(params["q"], params["k"], params["v"], 2, mask)
        diff = sub(out, T.constant(target))
        return mean_all(mul(diff, diff))

    forward().backward()
    assert params["q"].grad.shape == params["q"].shape
    for name in params:
        check_gradients(lambda: forward().item(), params, np.random.default_rng(60),
                        n_checks=15, rel_tol=1e-6, names=[name])


def test_batched_cross_entropy_is_one_mean_per_leading_index():
    rng = np.random.default_rng(70)
    logits = rng.normal(size=(3, 4, 6))
    targets = [1, 0, 5, 2]
    batched = T.softmax_cross_entropy(T.Tensor(logits), targets)
    assert batched.shape == (3,)
    for z in range(3):
        assert batched.data[z] == T.softmax_cross_entropy(T.Tensor(logits[z]), targets).item()
    params = {"logits": T.Tensor(logits, requires_grad=True)}
    weights = T.constant([0.5, -1.0, 2.0])

    def forward():
        return mean_all(mul(T.softmax_cross_entropy(params["logits"], targets), weights))

    forward().backward()
    check_gradients(lambda: forward().item(), params, np.random.default_rng(71), n_checks=15)


# --- fused layers against the chains of small ops they replace ----------------

def chain_attention(x, gain, bias, wq, k, v, wo, n_heads, mask=None, project=True):
    normed = T.layer_norm(x, gain, bias)
    q = T.matmul(normed, wq)
    if project:
        k, v = T.matmul(normed, k), T.matmul(normed, v)
    return T.add(x, T.matmul(attention(q, k, v, n_heads, mask), wo))


def chain_feed_forward(x, gain, bias, w1, b1, w2, b2):
    normed = T.layer_norm(x, gain, bias)
    hidden = relu(T.add(T.matmul(normed, w1), b1))
    return T.add(x, T.add(T.matmul(hidden, w2), b2))


def chain_rgcn(h_rel, h, w_neighbor, w_self, messages):
    src, dst, rel, _ = messages
    self_term = T.matmul(h, w_self)
    if not len(src):
        return relu(self_term)
    diff = compose(T.embedding(h, src), T.embedding(h_rel, rel))
    return relu(T.add(T.segment_mean(T.matmul(diff, w_neighbor), dst, h.shape[0]), self_term))


def chain_sigmoid_mlp(h, w1, b1, w2, b2, shift):
    h = T.add(h, T.embedding(shift[0], [shift[1]]))
    hidden = relu(T.add(T.matmul(h, w1), b1))
    return T.reshape(sigmoid(T.add(T.matmul(hidden, w2), b2)), (h.shape[0],))


def chain_binary_cross_entropy(p, labels, eps):
    pc = clip(p, eps, 1.0 - eps)
    pos = mul(T.constant(labels), log(pc))
    neg = mul(T.constant(1.0 - labels), log(sub(T.constant(np.ones_like(labels)), pc)))
    return T.scale(mean_all(T.add(pos, neg)), -1.0)


def run_layer(layer, arrays, weights, *args, **kwargs):
    """(output, gradient of each input) of layer(*inputs, *args, **kwargs),
    with leaf inputs holding copies of arrays, under the loss mean(out * weights)."""
    inputs = [T.Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = layer(*inputs, *args, **kwargs)
    mean_all(mul(out, T.constant(weights))).backward()
    return out.data, [t.grad for t in inputs]


def assert_layer_matches_chain(fused, chain, arrays, out_shape, rng, *args, **kwargs):
    weights = rng.normal(size=out_shape)
    got, got_grads = run_layer(fused, arrays, weights, *args, **kwargs)
    want, want_grads = run_layer(chain, arrays, weights, *args, **kwargs)
    assert got.shape == out_shape and _same_bits(got, want)
    for i, (a, b) in enumerate(zip(got_grads, want_grads)):
        assert a is None and b is None or _same_bits(a, b), i
    return got_grads


def assert_layer_matches_finite_differences(layer, arrays, out_shape, rng, *args, **kwargs):
    params = {str(i): T.Tensor(a.copy(), requires_grad=True) for i, a in enumerate(arrays)}
    weights = T.constant(rng.normal(size=out_shape))

    def forward():
        out = layer(*params.values(), *args, **kwargs)
        return mean_all(mul(out, weights))

    forward().backward()
    for name in params:
        check_gradients(lambda: forward().item(), params, rng, n_checks=10, rel_tol=1e-6,
                        names=[name])


def attention_arrays(rng, x_shape, kv_shape, project):
    d = x_shape[-1]
    k_shape = (d, d) if project else kv_shape
    return [rng.normal(size=x_shape), 1.0 + 0.2 * rng.normal(size=d), 0.2 * rng.normal(size=d),
            rng.normal(size=(d, d)) / 3, rng.normal(size=k_shape) / 3,
            rng.normal(size=k_shape) / 3, rng.normal(size=(d, d)) / 3]


# (x, keys/values) shapes: a 3-D [K, t, d] stream with its own projections, a
# [t, d] stream, and a shared [t, d] query over a [K, s, d] memory
ATTENTION_CASES = {"self-3d": ((3, 5, 12), None), "self-2d": ((5, 12), None),
                   "cross-3d": ((3, 5, 12), (3, 7, 12)), "cross-broadcast": ((5, 12), (3, 7, 12))}


@pytest.mark.parametrize("case", ATTENTION_CASES)
@pytest.mark.parametrize("n_heads", [1, 3])
def test_attention_sublayer_matches_chain_bit_for_bit(case, n_heads):
    x_shape, kv_shape = ATTENTION_CASES[case]
    rng = np.random.default_rng(80 + n_heads)
    project = kv_shape is None
    arrays = attention_arrays(rng, x_shape, kv_shape, project)
    t = x_shape[-2]
    mask = causal_mask(t) if project else None
    out_shape = x_shape if project else kv_shape[:-2] + x_shape[-2:]
    assert_layer_matches_chain(T.attention_sublayer, chain_attention, arrays, out_shape, rng,
                               n_heads, mask, project=project)
    assert_layer_matches_finite_differences(T.attention_sublayer, arrays, out_shape, rng,
                                            n_heads, mask, project=project)


def test_attention_sublayer_grow_hook_reads_held_keys_and_passes_new_gradients():
    rng = np.random.default_rng(85)
    x_shape, held = (2, 3, 12), 4
    arrays = attention_arrays(rng, x_shape, None, True)
    past_k, past_v = rng.normal(size=(2, 2, held, 12))
    # the hook prepends held positions, as a decoder cache does
    def grow(k, v):
        return np.concatenate((past_k, k), axis=-2), np.concatenate((past_v, v), axis=-2)
    mask = np.triu(np.full((3, held + 3), -1e9), k=held + 1)
    got = T.attention_sublayer(*map(T.Tensor, arrays), 3, mask, grow=grow).data
    # the same rows as a stream of all held + new positions whose keys and values are given
    x, gain, bias, wq, wk, wv, wo = map(T.Tensor, arrays)
    normed = T.layer_norm(x, gain, bias)
    k, v = (T.constant(np.concatenate((past, T.matmul(normed, w).data), axis=-2))
            for past, w in ((past_k, wk), (past_v, wv)))
    want = T.attention_sublayer(x, gain, bias, wq, k, v, wo, 3, mask, project=False).data
    assert np.array_equal(got, want)
    assert_layer_matches_finite_differences(T.attention_sublayer, arrays, x_shape, rng, 3, mask,
                                            grow=grow)


@pytest.mark.parametrize("x_shape", [(3, 5, 12), (5, 12)], ids=["3d", "2d"])
def test_feed_forward_sublayer_matches_chain_bit_for_bit(x_shape):
    rng = np.random.default_rng(90)
    d, ff = x_shape[-1], 20
    arrays = [rng.normal(size=x_shape), 1.0 + 0.2 * rng.normal(size=d),
              0.2 * rng.normal(size=d), rng.normal(size=(d, ff)) / 3,
              0.3 * rng.normal(size=ff), rng.normal(size=(ff, d)) / 3, 0.3 * rng.normal(size=d)]
    assert_layer_matches_chain(T.feed_forward_sublayer, chain_feed_forward, arrays, x_shape, rng)
    assert_layer_matches_finite_differences(T.feed_forward_sublayer, arrays, x_shape, rng)


@pytest.mark.parametrize("edges", [[(0, 0, 1), (1, 1, 2), (2, 0, 0), (0, 1, 3), (3, 0, 1)], []],
                         ids=["edges", "no-edges"])
def test_rgcn_conv_matches_chain_bit_for_bit(edges):
    from kgmoe.kg import Subgraph
    rng = np.random.default_rng(91)
    n, n_relations, d = 5, 2, 6
    messages = Subgraph(nodes=set(range(n)), edges=edges, seeds=set()).message_arrays(n_relations)
    arrays = [rng.normal(size=(2 * n_relations, d)), rng.normal(size=(n, d)),
              rng.normal(size=(d, d)), rng.normal(size=(d, d))]
    grads = assert_layer_matches_chain(T.rgcn_conv, chain_rgcn, arrays, (n, d), rng, messages)
    # without messages, the relation states and w_neighbor get no gradient
    assert [g is None for g in grads] == [not edges, False, not edges, False]
    assert_layer_matches_finite_differences(T.rgcn_conv, arrays, (n, d), rng, messages)


def test_sigmoid_mlp_matches_chain_bit_for_bit():
    rng = np.random.default_rng(92)
    n, d = 7, 6
    arrays = [rng.normal(size=(n, d)), rng.normal(size=(d, d)) / 2, 0.3 * rng.normal(size=d),
              rng.normal(size=(d, 1)), 0.3 * rng.normal(size=1), rng.normal(size=(3, d))]

    def with_shift(layer):
        def run(h, w1, b1, w2, b2, table):
            return layer(h, w1, b1, w2, b2, (table, 2))
        return run
    assert_layer_matches_chain(with_shift(T.sigmoid_mlp), with_shift(chain_sigmoid_mlp), arrays,
                               (n,), rng)
    assert_layer_matches_finite_differences(with_shift(T.sigmoid_mlp), arrays, (n,), rng)


def test_binary_cross_entropy_matches_chain_bit_for_bit():
    rng = np.random.default_rng(93)
    eps = 1e-7
    p = rng.uniform(0.05, 0.95, size=9)
    p[[1, 6]] = [1e-9, 1.0 - 1e-9]            # clipped: no gradient passes there
    labels = (rng.random(9) < 0.4).astype(float)
    got, [got_grad] = run_layer(T.binary_cross_entropy, [p], 0.7, labels, eps)
    want, [want_grad] = run_layer(chain_binary_cross_entropy, [p], 0.7, labels, eps)
    assert got.shape == () and _same_bits(got, want) and _same_bits(got_grad, want_grad)
    assert got_grad[1] == 0.0 and got_grad[6] == 0.0
    interior = [i for i in range(9) if i not in (1, 6)]
    assert_layer_matches_finite_differences(
        lambda q: T.binary_cross_entropy(q, labels[interior], eps), [p[interior]], (), rng)


def test_first_gradient_broadcasts_as_zeros_plus_g():
    # a [1, d] first gradient into an [n, d] tensor, -0.0 included: the grad
    # is zeros + g bit for bit, -0.0 turned +0.0, in t.data's layout
    g = np.array([[-0.0, 1.5, -2.25, 5e-324]])
    for data in (np.ones((3, 4)), np.ones((4, 3)).T):
        t = T.Tensor(data, requires_grad=True)
        T._accum(t, g)
        want = np.zeros_like(data)
        want += g
        assert _same_bits(t.grad, want) and t.grad.strides == want.strides
        assert not np.signbit(t.grad[:, 0]).any()


def test_attention_causal_mask_hides_future_positions():
    rng = np.random.default_rng(8)
    t, d = 5, 8
    q, k, v = (rng.normal(size=(t, d)) for _ in range(3))
    base = attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), 2, causal_mask(t)).data
    k2, v2 = k.copy(), v.copy()
    k2[3:] = rng.normal(size=(2, d))
    v2[3:] = rng.normal(size=(2, d))
    moved = attention(T.Tensor(q), T.Tensor(k2), T.Tensor(v2), 2, causal_mask(t)).data
    # rows 0-2 see keys 0-2 only: bit-identical, since masked weights are exactly 0
    assert np.array_equal(base[:3], moved[:3])
    assert not np.allclose(base[3:], moved[3:])

    # and no gradient flows from earlier rows into future keys or values
    kt, vt = T.Tensor(k, requires_grad=True), T.Tensor(v, requires_grad=True)
    out = attention(T.Tensor(q), kt, vt, 2, causal_mask(t))
    mean_all(mul(out, T.constant(np.arange(t)[:, None] < 3))).backward()
    assert not kt.grad[3:].any() and not vt.grad[3:].any()
    assert kt.grad[:3].any() and vt.grad[:3].any()


def test_scatter_add_equals_add_at_bit_for_bit():
    rng = np.random.default_rng(21)
    trailing = [(), (3,), (2, 3)]
    for case in range(300):
        n_rows = int(rng.integers(1, 7))
        tail = trailing[case % 3]
        n_ids = int(rng.integers(0, 12))          # 0: empty ids
        ids = rng.integers(0, n_rows, size=n_ids)  # few rows, so ids repeat
        if case % 2:
            ids = ids[:, None]                     # the prompt-prefix [[z], ...] form
        rows = rng.normal(size=ids.shape + tail) * 10.0 ** rng.uniform(-8, 8, ids.shape + tail)
        rows[rng.random(rows.shape) < 0.1] = -0.0
        dst = np.zeros((n_rows,) + tail)
        if case % 4 >= 2:                          # a buffer earlier scatters wrote into
            dst = rng.normal(size=dst.shape) * 10.0 ** rng.uniform(-8, 8, dst.shape)
            dst[rng.random(dst.shape) < 0.1] = -0.0
        if case % 5 == 0:
            dst = np.asfortranarray(dst)
        want = dst.copy()
        np.add.at(want, ids, rows)
        T._scatter_add(dst, ids, rows)
        assert _same_bits(dst, want), case


def test_embedding_and_segment_mean_gradients_over_column_ids_and_3d_rows():
    rng = np.random.default_rng(22)
    table = T.Tensor(rng.normal(size=(5, 2, 3)), requires_grad=True)
    ids = [[4], [1], [1], [0]]                     # [n, 1] ids, row 1 twice
    seg = [2, 0, 2, 0]

    def forward():
        rows = T.reshape(T.embedding(table, ids), (4, 2, 3))
        pooled = T.segment_mean(rows, seg, 3)      # segment 1 stays empty
        again = T.embedding(table, [1, 3, 1])      # a second scatter into the same buffer
        return T.add(mean_all(mul(pooled, pooled)), mean_all(mul(again, again)))

    loss = forward()
    loss.backward()
    check_gradients(lambda: forward().item(), {"table": table},
                    np.random.default_rng(23), n_checks=20, rel_tol=1e-6)


def test_segment_mean_empty_segment_is_zero():
    x = T.Tensor([[2.0, 4.0]])
    out = T.segment_mean(x, [1], 3)
    assert out.data[0].tolist() == [0.0, 0.0]
    assert out.data[2].tolist() == [0.0, 0.0]
    assert out.data[1].tolist() == [2.0, 4.0]


def test_forward_determinism():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 4))
    a = attention_weights(x).data
    b = attention_weights(x).data
    assert np.array_equal(a, b)


def test_adam_zero_lr_keeps_params():
    p = T.Tensor([1.0, 2.0], requires_grad=True)
    opt = T.Adam({"p": p}, lr=0.0)
    mean_all(mul(p, p)).backward()
    opt.step()
    assert p.data.tolist() == [1.0, 2.0]


def test_adam_descends():
    p = T.Tensor([3.0], requires_grad=True)
    opt = T.Adam({"p": p}, lr=0.1)
    values = []
    for _ in range(60):
        opt.zero_grad()
        loss = mean_all(mul(p, p))
        values.append(loss.item())
        loss.backward()
        opt.step()
    assert values[-1] < values[0] * 0.01



class DenseAdam:
    """Reference: the plain Adam update applied to every element."""

    def __init__(self, params, lr, weight_decay, betas=(0.9, 0.999), eps=1e-8):
        self.params, self.lr, self.weight_decay = params, lr, weight_decay
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, lr):
        self.t += 1
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            self.m[k] = self.b1 * self.m[k] + (1 - self.b1) * g
            self.v[k] = self.b2 * self.v[k] + (1 - self.b2) * g * g
            mhat = self.m[k] / (1 - self.b1 ** self.t)
            vhat = self.v[k] / (1 - self.b2 ** self.t)
            p.data -= lr * mhat / (np.sqrt(vhat) + self.eps)


def _same_bits(a, b):
    return np.array_equal(a, b) and a.tobytes() == b.tobytes()


def _dense_moments(opt, k):
    """Adam's first and second moments of parameter k as full arrays, rebuilt
    from its live-row state: rows that never went live hold +0.0.  The unused
    tail of each moment buffer must be +0.0 too, since rows going live later
    start from it."""
    if k not in opt.rows:
        return opt.m[k], opt.v[k]
    rows = opt.rows[k]
    assert len(set(rows.tolist())) == len(rows)
    dense = []
    for buf in (opt.m[k], opt.v[k]):
        assert _same_bits(buf[len(rows):], np.zeros((len(buf) - len(rows), *buf.shape[1:])))
        full = np.zeros(opt.params[k].shape)
        full[rows] = buf[:len(rows)]
        dense.append(full)
    return dense


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adam_row_skipping_matches_dense_oracle(weight_decay):
    rng = np.random.default_rng(11)
    init = {
        "table": rng.normal(size=(8, 3)),
        "bias": rng.normal(size=(3,)),
        "cube": rng.normal(size=(4, 2, 2)),
        "late": rng.normal(size=(5, 2)),
    }
    init["table"][6] = 0.0          # zero row: stays dead even under weight decay
    init["table"][7] = [-0.0, 1.5, -2.0]
    # table rows touched per step: row 0 only in step 1, row 5 gets -0.0,
    # rows 6 and 7 never; step 5 has an all-zero gradient.
    table_rows = [[0, 1], [2, 5], [3, 1], [4], []]
    steps = len(table_rows)
    grads = []
    for s, rows in enumerate(table_rows):
        g = {"table": np.zeros((8, 3)), "bias": rng.normal(size=3),
             "cube": np.zeros((4, 2, 2)), "late": rng.normal(size=(5, 2))}
        for r in rows:
            g["table"][r] = -0.0 if r == 5 else rng.normal(size=3)
        g["cube"][s % 4, 1, 0] = rng.normal()
        if s == 2:
            g["late"] = None
        grads.append(g)

    fast = {k: T.Tensor(v.copy(), requires_grad=True) for k, v in init.items()}
    dense = {k: T.Tensor(v.copy(), requires_grad=True) for k, v in init.items()}
    opt = T.Adam(fast, lr=1e-2, weight_decay=weight_decay)
    ref = DenseAdam(dense, lr=1e-2, weight_decay=weight_decay)
    for s in range(steps):
        for k in init:
            g = grads[s][k]
            fast[k].grad = None if g is None else g.copy()
            dense[k].grad = None if g is None else g.copy()
        lr = 1e-2 * (s + 1) / steps
        opt.step(lr=lr)
        ref.step(lr)
        for k in init:
            assert _same_bits(fast[k].data, dense[k].data), (s, k)
            m, v = _dense_moments(opt, k)
            assert _same_bits(m, ref.m[k]), (s, k)
            assert _same_bits(v, ref.v[k]), (s, k)

    # under weight decay every row with a nonzero value goes live
    never = [6] if weight_decay else [5, 6, 7]
    for buf in _dense_moments(opt, "table"):
        assert _same_bits(buf[never], np.zeros((len(never), 3)))
    assert sorted(opt.rows["table"].tolist()) == [r for r in range(8) if r not in never]
    assert "bias" not in opt.rows


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adam_touched_rows_match_dense_oracle_through_embedding(weight_decay):
    rng = np.random.default_rng(12)
    init = {
        "table": rng.normal(size=(10, 3)),    # read only by embedding
        "rel": rng.normal(size=(6, 3)),       # by embedding and by a dense matmul
        "hand": rng.normal(size=(7, 2)),      # its grad is replaced by hand
    }
    init["table"][9] = 0.0
    fast = {k: T.Tensor(v.copy(), requires_grad=True) for k, v in init.items()}
    dense = {k: T.Tensor(v.copy(), requires_grad=True) for k, v in init.items()}
    opt = T.Adam(fast, lr=1e-2, weight_decay=weight_decay)
    ref = DenseAdam(dense, lr=1e-2, weight_decay=weight_decay)
    # row 8 of the table is read twice with opposite weights in every step,
    # so its gradient cancels to exactly 0.0 and the row must stay dead
    table_ids = [[0, 3, 3, 8, 8], [1, 1, 8, 8], [5, 8, 8, 0], [8, 8], [2, 6, 6, 8, 8]]
    steps = len(table_ids)
    plan = []
    for ids in table_ids:
        w = rng.normal(size=(len(ids), 3))
        first, second = [i for i, r in enumerate(ids) if r == 8]
        w[second] = -w[first]
        plan.append((ids, w, rng.integers(0, 6, size=3), rng.normal(size=(2, 6)),
                     rng.integers(0, 7, size=2), rng.normal(size=2)))

    def loss_of(params, ids, w, rel_ids, x, hand_ids, hand_w):
        emb = mul(T.embedding(params["table"], ids), T.constant(w))
        rel = T.add(mean_all(T.embedding(params["rel"], rel_ids)),
                    mean_all(T.matmul(T.constant(x), params["rel"])))
        hand = mean_all(mul(T.embedding(params["hand"], hand_ids), T.constant(hand_w)))
        return T.add(T.add(mean_all(emb), rel), hand)

    for s, step in enumerate(plan):
        for params in (fast, dense):
            for p in params.values():
                p.grad = None
            loss_of(params, *step).backward()
            # a hand-assigned buffer: rows the scatter never touched change too
            params["hand"].grad = params["hand"].grad.copy()
            params["hand"].grad[s % 7] += 0.5
        assert fast["table"]._touched[0] is fast["table"].grad
        assert fast["rel"]._touched is None
        lr = 1e-2 * (s + 1) / steps
        opt.step(lr=lr)
        ref.step(lr)
        for k in init:
            assert _same_bits(fast[k].data, dense[k].data), (s, k)
            m, v = _dense_moments(opt, k)
            assert _same_bits(m, ref.m[k]), (s, k)
            assert _same_bits(v, ref.v[k]), (s, k)

    live = sorted(opt.rows["table"].tolist())
    if weight_decay:
        assert live == [r for r in range(10) if r != 9]
    else:
        assert live == [0, 1, 2, 3, 5, 6]
        for buf in _dense_moments(opt, "table"):
            assert _same_bits(buf[8], np.zeros(3))


def test_adam_keeps_moments_for_live_rows_only():
    # a 1,000,000-row table of which two steps touch 3 rows: the moments
    # follow the rows touched, not the table
    table = T.Tensor(np.ones((1_000_000, 4)), requires_grad=True)
    opt = T.Adam({"table": table}, lr=0.1)
    for ids in ([3, 999_999, 3], [3, 42]):
        opt.zero_grad()
        mean_all(T.embedding(table, ids)).backward()
        opt.step()
    for moments in (opt.m["table"], opt.v["table"]):
        assert moments.shape[1:] == (4,) and len(moments) <= 2 * 3
    assert sorted(opt.rows["table"].tolist()) == [3, 42, 999_999]
    assert table.data[[3, 42, 999_999]].max() < 1.0
    assert np.count_nonzero(table.data != 1.0) == 3 * 4


@pytest.mark.parametrize("kwargs", [dict(lr=float("nan")), dict(lr=-float("inf")), dict(lr=-1e-3),
                                    dict(lr=float("inf"))])
def test_adam_rejects_settings_that_break_row_skipping(kwargs):
    p = T.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="Adam"):
        T.Adam({"p": p}, **kwargs)


def test_adam_step_rejects_negative_lr():
    p = T.Tensor(np.ones((2, 2)), requires_grad=True)
    opt = T.Adam({"p": p})
    p.grad = np.ones((2, 2))
    with pytest.raises(ValueError, match="learning rate"):
        opt.step(lr=-0.1)


def test_checkpoint_round_trip_exact(tmp_path):
    rng = np.random.default_rng(6)
    tiny = np.finfo(np.float64).smallest_subnormal
    params = {
        "a": T.Tensor(rng.normal(size=(3, 5)), requires_grad=True),
        "b": T.Tensor(rng.normal(size=(7,)) * 1e300, requires_grad=True),
        "signs": T.Tensor(np.array([[-0.0, 0.0], [tiny, -tiny * 3]]), requires_grad=True),
        "scalar": T.Tensor(np.array(-0.0), requires_grad=True),
        "empty": T.Tensor(np.zeros((0, 4)), requires_grad=True),
    }
    path = tmp_path / "ckpt.json"
    T.save_checkpoint(path, params, {"note": "x"})
    raw = path.read_bytes()
    header = _v3_header(raw)
    assert header["version"] == 3 and list(header["params"]) == sorted(params)
    start = raw.index(b"\n") + 1
    assert start % 8 == 0 and raw[:start - 1].rstrip(b" ").endswith(b"}")
    assert raw[start:] == b"".join(params[name].data.astype("<f8").tobytes()
                                   for name in sorted(params))
    loaded, meta = T.load_checkpoint(path)
    assert meta["note"] == "x"
    for name in params:
        assert loaded[name].shape == params[name].shape
        assert np.array_equal(loaded[name].data.view(np.int64), params[name].data.view(np.int64))
        assert loaded[name].data.dtype == np.float64


def _v3_header(raw: bytes) -> dict:
    """The JSON header line of a version-3 checkpoint file's bytes."""
    return json.loads(raw[:raw.index(b"\n")])


def _v3(header: str, *values, pad: bool = True) -> bytes:
    """A hand-made version-3 file: the header text, padded to a multiple of 8
    bytes when asked, a newline, then `values` as little-endian float64 bytes."""
    if pad:
        header += " " * (-(len(header) + 1) % 8)
    return (header + "\n").encode() + np.asarray(values, dtype="<f8").tobytes()


def test_checkpoint_edge_values_load_and_resave_to_the_same_bits(tmp_path):
    values = np.random.default_rng(9).normal(size=(3, 4)) * 1e-300
    values[0, :2] = -0.0, np.finfo(np.float64).smallest_subnormal
    first = tmp_path / "first.json"
    first.write_bytes(_v3('{"version": 3, "meta": {"note": "old"}, "params": {'
                          '"e": {"shape": [0, 4]}, "s": {"shape": []}, "w": {"shape": [3, 4]}}}',
                          -0.0, *values.ravel()))
    old, old_meta = T.load_checkpoint(first)
    assert old_meta == {"note": "old"} and sorted(old) == ["e", "s", "w"]
    assert [old[name].shape for name in "esw"] == [(0, 4), (), (3, 4)]
    assert old["s"].data.tobytes() == np.float64(-0.0).tobytes()
    assert old["w"].data.tobytes() == values.tobytes()
    T.save_checkpoint(tmp_path / "again.json", old, old_meta)
    assert (tmp_path / "again.json").read_bytes() == first.read_bytes()


@pytest.mark.parametrize("version, data", [(1, [1.0]), (2, "AAAAAAAA8D8=")], ids=["v1", "v2"])
def test_checkpoint_of_an_older_version_is_refused(tmp_path, version, data):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"version": version, "meta": {},
                                "params": {"w": {"shape": [1], "data": data}}}) + "\n")
    with pytest.raises(ValueError, match=rf"old\.json: unsupported checkpoint version {version}$"):
        T.load_checkpoint(path)


def test_checkpoint_saves_are_byte_identical(tmp_path):
    params = {"b": T.Tensor(np.arange(6.0).reshape(2, 3)), "a": T.Tensor([0.1, -2.5])}
    T.save_checkpoint(tmp_path / "one.json", params, {"k": 1})
    T.save_checkpoint(tmp_path / "two.json", params, {"k": 1})
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()


def test_loaded_parameters_are_writable_for_adam(tmp_path):
    path = tmp_path / "ckpt.json"
    T.save_checkpoint(path, {"w": T.Tensor(np.ones((3, 2))), "b": T.Tensor([0.5])})
    params, _ = T.load_checkpoint(path)
    for p in params.values():
        assert p.data.flags.writeable
        p.grad = np.ones_like(p.data)
    T.Adam(params, lr=0.1).step()
    assert (params["w"].data < 1.0).all() and params["b"].data[0] < 0.5


def test_failing_save_keeps_the_old_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "ckpt.json"
    T.save_checkpoint(path, {"w": T.Tensor([1.0, 2.0])})
    before = path.read_bytes()

    def fail_to_sync(fd):
        raise OSError("disk full")
    monkeypatch.setattr(T.os, "fsync", fail_to_sync)
    with pytest.raises(OSError, match="disk full"):
        T.save_checkpoint(path, {"w": T.Tensor([3.0, 4.0])})
    assert path.read_bytes() == before
    assert [q.name for q in tmp_path.iterdir()] == ["ckpt.json"]


def test_checkpoint_version_check(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version": 99, "params": {}}')
    with pytest.raises(ValueError, match=r"bad\.json: unsupported checkpoint version 99"):
        T.load_checkpoint(path)


@pytest.mark.parametrize("version, shown", [("true", "True"), ("2.0", r"2\.0")])
def test_checkpoint_version_must_be_an_int(tmp_path, version, shown):
    # true == 1 and 2.0 == 2 in Python, but neither is a checkpoint version
    path = tmp_path / "bad.json"
    path.write_text(f'{{"version": {version}, "params": {{}}}}')
    with pytest.raises(ValueError, match=rf"bad\.json: unsupported checkpoint version {shown}"):
        T.load_checkpoint(path)


@pytest.mark.parametrize("body, message", [
    ('{"version": 3, "params": {', r"malformed checkpoint JSON"),
    (_v3('{"version": 3, "params": "w"}'), r"'params' must be an object, got str"),
    (_v3('{"version": 3, "params": {}, "meta": []}'), r"'meta' must be an object, got list"),
    (_v3('{"version": 3, "params": {"w": {"shape": [2, -1]}}}', 1.0, 2.0),
     r"parameter 'w': shape \[2, -1\] is not a list of non-negative ints"),
    (_v3('{"version": 3, "params": {"w": {"shape": 2}}}', 1.0, 2.0),
     r"parameter 'w': shape 2 is not a list of non-negative ints"),
    (_v3('{"version": 3, "params": {"w": {"shape": [2.0]}}}', 1.0, 2.0),
     r"parameter 'w': shape \[2.0\] is not a list of non-negative ints"),
    (_v3('{"version": 3, "params": {', 1.0), r"malformed checkpoint JSON"),
    (_v3('{"version": 3, "params": {}}').rstrip(b"\n"),
     r"a version-3 header must be one line ended by a newline"),
    (_v3('{"version": 3, "params": {"w": {"shape": [2]}}}', 1.0),
     r"parameter 'w': the payload holds 8 of its 16 bytes"),
    (_v3('{"version": 3, "params": {"w": {"shape": [1]}}}', 1.0, 2.0),
     r"8 bytes follow the last parameter"),
    (_v3('{"version": 3, "params": {"w": {"shape": [2]}}}', 1.0, math.inf),
     r"parameter 'w' holds a non-finite value"),
    (_v3('{"version": 3, "params": {"w": {"shape": [-1]}}}', 1.0),
     r"parameter 'w': shape \[-1\] is not a list of non-negative ints"),
    (_v3('{"version": 3, "params": {"w": {"data": [1.0]}}}', 1.0),
     r"parameter 'w' needs 'shape'$"),
    (_v3('{"version": 3, "params": {"ww": {"shape": [1]}}}', 1.0, pad=False),
     r"the payload starts at byte 49, not at a multiple of 8"),
    (_v3('{"version": 3, "params": {"w": {"shape": [1]}, "b": {"shape": [1]}}}', 1.0, 2.0),
     r"the header's parameters are not in name order"),
    (_v3('{"version": 3, "params": []}'), r"'params' must be an object, got list"),
    (_v3('{"version": 3, "version": 3, "params": {}}'),
     r"checkpoint JSON repeats key 'version'"),
    (_v3('{"version": 3, "params": {"w": {"shape": [1], "shape": [1]}}}', 1.0),
     r"checkpoint JSON repeats key 'shape'"),
    (_v3('{"version": 3, "params": {"w": {"shape": [1]}, "w": {"shape": [1]}}}', 1.0, 2.0),
     r"checkpoint JSON repeats key 'w'"),
    (_v3('{"version": 3, "meta": {"k": 1, "k": 2}, "params": {}}'),
     r"checkpoint JSON repeats key 'k'"),
    (_v3('{"version": 3, "meta": {"note": "?"}, "params": {}}').replace(b"?", b"\xff"),
     r"malformed checkpoint JSON: byte 33 is not UTF-8")],
    ids=["malformed-json", "params-list", "meta-list", "negative-shape", "shape-not-list",
         "float-shape", "v3-header-not-json", "v3-header-not-ended", "v3-truncated-payload",
         "v3-trailing-bytes", "v3-non-finite", "v3-bad-shape", "v3-no-shape",
         "v3-unaligned-payload", "v3-names-out-of-order", "v3-params-list",
         "version-twice", "shape-twice", "v3-parameter-twice", "v3-meta-key-twice",
         "header-not-utf8"])
def test_checkpoint_bad_entry_names_file_and_parameter(tmp_path, body, message):
    path = tmp_path / "bad.json"
    path.write_bytes(body if isinstance(body, bytes) else body.encode())
    with pytest.raises(ValueError, match=r"bad\.json: " + message):
        T.load_checkpoint(path)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
def test_checkpoint_load_rejects_non_finite_values(tmp_path, literal):
    # strict JSON, as save_checkpoint writes it: no NaN or infinity in the header
    path = tmp_path / "bad.json"
    path.write_bytes(_v3('{"version": 3, "meta": {"lr": %s}, "params": {}}' % literal))
    with pytest.raises(ValueError, match=rf"bad\.json: checkpoint JSON number {re.escape(literal)} "
                                         r"is not a finite float64"):
        T.load_checkpoint(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_checkpoint_save_refuses_non_finite_values(tmp_path, bad):
    path = tmp_path / "ckpt.json"
    params = {"a": T.Tensor([1.0, 2.0]), "w": T.Tensor([1.0, bad, 3.0])}
    with pytest.raises(ValueError, match=r"ckpt\.json: parameter 'w' holds a non-finite value"):
        T.save_checkpoint(path, params)
    with pytest.raises(ValueError, match=r"ckpt\.json: checkpoint meta: Out of range float"):
        T.save_checkpoint(path, {"a": params["a"]}, {"loss": bad})
    assert not path.exists()


def test_no_grad_blocks_graph():
    p = T.Tensor([1.0], requires_grad=True)
    with T.no_grad():
        out = mul(p, p)
    assert out.requires_grad is False
    assert out._backward is None
