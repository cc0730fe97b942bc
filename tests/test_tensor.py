"""Autodiff engine: op semantics, gradient oracles, optimizer, checkpoints."""

import math

import numpy as np
import pytest

from kgmoe import tensor as T

from util import check_gradients


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
    T.sum_all(T.matmul(w, x)).backward()
    assert w.grad.tolist() == [[1., 2.]]


def test_backward_unreachable_param_has_no_grad():
    w = T.Tensor([[1.0]], requires_grad=True)
    unused = T.Tensor([[2.0]], requires_grad=True)
    T.sum_all(T.matmul(w, w)).backward()
    assert unused.grad is None


def test_backward_requires_scalar():
    v = T.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError):
        T.add(v, v).backward()


def test_backward_twice_is_error():
    v = T.Tensor([2.0], requires_grad=True)
    loss = T.sum_all(T.mul(v, v))
    loss.backward()
    with pytest.raises(RuntimeError):
        loss.backward()


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    y = T.softmax(T.Tensor(rng.normal(size=(5, 7)) * 10))
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
        h = T.relu(T.add(T.matmul(T.Tensor(x), params["w1"]), params["b1"]))
        h = T.sigmoid(T.matmul(h, params["w2"]))
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
        return T.sum_all(T.mul(pooled, pooled))

    loss = forward()
    loss.backward()
    check_gradients(lambda: forward().item(), {"table": table},
                    np.random.default_rng(4), n_checks=20, rel_tol=1e-6)


def test_segment_mean_empty_segment_is_zero():
    x = T.Tensor([[2.0, 4.0]])
    out = T.segment_mean(x, [1], 3)
    assert out.data[0].tolist() == [0.0, 0.0]
    assert out.data[2].tolist() == [0.0, 0.0]
    assert out.data[1].tolist() == [2.0, 4.0]


def test_forward_determinism():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 4))
    a = T.softmax(T.Tensor(x)).data
    b = T.softmax(T.Tensor(x)).data
    assert np.array_equal(a, b)


def test_adam_zero_lr_keeps_params():
    p = T.Tensor([1.0, 2.0], requires_grad=True)
    opt = T.Adam({"p": p}, lr=0.0)
    T.sum_all(T.mul(p, p)).backward()
    opt.step()
    assert p.data.tolist() == [1.0, 2.0]


def test_adam_descends():
    p = T.Tensor([3.0], requires_grad=True)
    opt = T.Adam({"p": p}, lr=0.1)
    values = []
    for _ in range(60):
        opt.zero_grad()
        loss = T.sum_all(T.mul(p, p))
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
            assert _same_bits(opt.m[k], ref.m[k]), (s, k)
            assert _same_bits(opt.v[k], ref.v[k]), (s, k)

    # under weight decay every row with a nonzero value goes live
    never = [6] if weight_decay else [5, 6, 7]
    for buf in (opt.m["table"], opt.v["table"]):
        assert _same_bits(buf[never], np.zeros((len(never), 3)))
    assert opt.live["table"].tolist() == [r not in never for r in range(8)]
    assert "bias" not in opt.live


@pytest.mark.parametrize("kwargs", [dict(eps=0.0), dict(eps=float("nan")), dict(lr=-1e-3),
                                    dict(lr=float("inf")), dict(betas=(1.0, 0.999))])
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
    params = {
        "a": T.Tensor(rng.normal(size=(3, 5)), requires_grad=True),
        "b": T.Tensor(rng.normal(size=(7,)), requires_grad=True),
    }
    path = tmp_path / "ckpt.json"
    T.save_checkpoint(path, params, {"note": "x"})
    loaded, meta = T.load_checkpoint(path)
    assert meta["note"] == "x"
    for name in params:
        assert np.array_equal(loaded[name].data, params[name].data)
        assert loaded[name].data.dtype == np.float64


def test_checkpoint_version_check(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version": 99, "params": {}}')
    with pytest.raises(ValueError, match=r"bad\.json: unsupported checkpoint version 99"):
        T.load_checkpoint(path)


@pytest.mark.parametrize("body, message", [
    ('{"version": 1, "params": {', r"malformed checkpoint JSON"),
    ('{"version": 1, "params": {"w": {"data": [1.0]}}}', r"parameter 'w' needs 'shape' and 'data'"),
    ('{"version": 1, "params": {"w": {"shape": [1]}}}', r"parameter 'w' needs 'shape' and 'data'"),
    ('{"version": 1, "params": {"w": {"shape": [2, 2], "data": [1.0, 2.0, 3.0]}}}',
     r"parameter 'w': cannot reshape")],
    ids=["malformed-json", "no-shape", "no-data", "data-misfits-shape"])
def test_checkpoint_bad_entry_names_file_and_parameter(tmp_path, body, message):
    path = tmp_path / "bad.json"
    path.write_text(body)
    with pytest.raises(ValueError, match=r"bad\.json: " + message):
        T.load_checkpoint(path)


def test_no_grad_blocks_graph():
    p = T.Tensor([1.0], requires_grad=True)
    with T.no_grad():
        out = T.mul(p, p)
    assert out.requires_grad is False
    assert out._backward is None
