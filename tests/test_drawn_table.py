"""The concept table drawn on demand (`tensor.DrawnTable`): every drawn prefix,
the draws after the table, and every reader outside the row paths see the
values of the eager ``rng.uniform`` draw, bit for bit, and training and
decoding draw only the prefix they read."""

import numpy as np
import pytest

from kgmoe import decoding
from kgmoe import tensor as T
from kgmoe.generator import Vocab
from kgmoe.moe import TrainConfig, build_model, prepare_example, train
from kgmoe.pipeline import make_synthetic_task, synthetic_kg

ROWS = 2 * 4096 + 17


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def test_a_rising_series_of_reads_and_the_draws_after_it_match_the_eager_draw():
    """numpy's Generator.uniform takes one 64-bit PCG64 output per float64, so
    rows drawn in consecutive runs are the eager rows.  numpy does not document
    this; if a numpy release changes it, this test is the one that says so."""
    shape = (ROWS, 3)
    lazy_rng, eager_rng = np.random.default_rng(41), np.random.default_rng(41)
    # a float32 draw leaves half of a 64-bit output buffered; the table keeps it
    assert _bits(lazy_rng.random(dtype=np.float32)) == _bits(eager_rng.random(dtype=np.float32))
    table = T.uniform_table(lazy_rng, shape)
    eager = eager_rng.uniform(-0.05, 0.05, size=shape)
    assert type(table) is T.DrawnTable and table.shape == shape

    # (ids read, rows drawn after the read); [3] is below the drawn prefix
    reads = [([5], 6), ([3], 6), ([4096, 17], 4097), ([4097, 4200, 300], 4201),
             ([ROWS - 1, 0], ROWS)]
    for ids, rows in reads:
        buf = table.drawn(np.array(ids))
        assert table._rows == rows, (ids, table._rows)
        assert _bits(buf[:rows]) == _bits(eager[:rows]), (
            f"the prefix after reading {ids}: numpy's uniform no longer takes one "
            "PCG64 output per float64")
        assert not buf[rows:].any()
    assert _bits(table.data) == _bits(eager)
    for draw in (lambda g: g.random(dtype=np.float32), lambda g: g.uniform(size=5),
                 lambda g: g.normal(0.0, 0.3, size=(4, 4))):
        assert _bits(draw(lazy_rng)) == _bits(draw(eager_rng)), \
            "the generator after the table does not continue the eager stream"


def test_a_first_read_past_half_draws_the_whole_table_in_one_call():
    shape = (ROWS, 3)
    eager = np.random.default_rng(43).uniform(-0.05, 0.05, size=shape)
    table = T.uniform_table(np.random.default_rng(43), shape)
    zeros = table._buf
    buf = table.drawn([ROWS // 2 + 1])
    assert buf is not zeros and table.data is buf and table._rows == ROWS
    assert _bits(buf) == _bits(eager)

    table = T.uniform_table(np.random.default_rng(43), shape)
    table.drawn([5])[5] = 7.0            # a short prefix drawn, then updated as Adam would
    buf = table.drawn([ROWS - 1])        # past half, but not the first read: no redraw
    assert table.data is buf and table._rows == ROWS
    eager[5] = 7.0
    assert _bits(buf) == _bits(eager)


def test_only_a_numpy_pcg64_generator_draws_on_demand():
    assert type(T.uniform_table(np.random.default_rng(0), (3, 2))) is T.DrawnTable
    other = np.random.Generator(np.random.PCG64DXSM(0))
    assert type(T.uniform_table(other, (3, 2))) is T.Tensor
    shapes = T.uniform_table(T.ShapeOnly(), (3, 2))
    assert type(shapes) is T.Tensor and shapes.shape == (3, 2)


def _table():
    return T.uniform_table(np.random.default_rng(5), (ROWS, 2))


def test_an_out_of_range_id_raises_before_drawing():
    table = _table()
    for ids in ([0, ROWS], [-1]):
        with pytest.raises(IndexError, match="out of range"):
            T.embedding(table, ids)
    assert repr(table) == f"Tensor(shape={(ROWS, 2)}, requires_grad=True)"
    assert table._rows == 0


def test_writes_through_data_act_as_on_a_plain_tensor():
    table = _table()
    table.data[:] = 0.0
    assert not T.embedding(table, [0, 4096, ROWS - 1]).data.any()
    assert not table.data.any()

    other = np.arange(8.0).reshape(4, 2)
    table = _table()
    table.data = other
    assert table.data is other and table.shape == (4, 2)
    assert T.embedding(table, [3]).data.tolist() == [[6.0, 7.0]]
    with pytest.raises(IndexError):
        T.embedding(table, [4])


def _task(n_inputs=8, kg_size=3 * 4096):
    examples, triples = make_synthetic_task(7, n_inputs, 3, kg_size)
    vocab = Vocab.build([t for ex in examples for t in (ex.input, *ex.references)], 3)
    return examples, synthetic_kg(triples), vocab


def _config(**kw):
    return TrainConfig(**{**dict(n_experts=3, d_model=8, n_heads=2, n_encoder_layers=1,
                                 n_decoder_layers=1, d_ff=16, max_len=24, rgcn_layers=1,
                                 top_concepts=3, epochs=1, batch_size=8, seed=0,
                                 learning_rate=1e-2), **kw})


@pytest.fixture
def eager(monkeypatch):
    """Calls fn with the table drawn eagerly, as `uniform_init` draws it."""
    def run(fn):
        with monkeypatch.context() as m:
            m.setattr(T, "uniform_table", T.uniform_init)
            return fn()
    return run


def test_a_fresh_model_saves_the_eager_bytes(tmp_path, eager):
    _, kg, vocab = _task()
    lazy = build_model(kg, vocab, _config())
    dense = eager(lambda: build_model(kg, vocab, _config()))
    assert type(lazy.params["rgcn.node_embed"]) is T.DrawnTable
    assert type(dense.params["rgcn.node_embed"]) is T.Tensor
    T.save_checkpoint(tmp_path / "lazy.ckpt", lazy.params)
    T.save_checkpoint(tmp_path / "eager.ckpt", dense.params)
    assert (tmp_path / "lazy.ckpt").read_bytes() == (tmp_path / "eager.ckpt").read_bytes()


def test_adam_with_weight_decay_gives_the_eager_bits(eager):
    examples, kg, vocab = _task()          # 24 units in batches of 8: 3 Adam steps
    cfg = _config(weight_decay=0.01)
    lazy, lazy_log = train(examples, kg, cfg, vocab)
    dense, dense_log = eager(lambda: train(examples, kg, cfg, vocab))
    assert len(lazy_log) == 3 and lazy_log == dense_log
    table = lazy.params["rgcn.node_embed"]
    assert table._rows == table.shape[0]          # weight decay reads every row
    for name, p in dense.params.items():
        assert _bits(lazy.params[name].data) == _bits(p.data), name


def test_training_and_decoding_draw_exactly_the_prefix_they_read(eager):
    """The hot path reads the table's rows through `drawn` only: an epoch of
    training and two decoders draw the rows up to the highest node id a
    subgraph holds, and no further.  A `.data` read slipped into training or
    decoding draws them all."""
    examples, kg, vocab = _task(n_inputs=4, kg_size=6 * 4096)
    cfg = _config()
    model, log = train(examples, kg, cfg, vocab)
    contexts = [prepare_example(ex, kg, vocab, cfg) for ex in examples]
    bundles = [(decoding.decode_moe(c, model), decoding.decode_truncated(c, model, 5, 3, 3))
               for c in contexts]
    table = model.params["rgcn.node_embed"]
    reached = 1 + max(int(c.subgraph.node_array.max()) for c in contexts)
    assert type(table) is T.DrawnTable
    assert table._rows == reached < table.shape[0]

    dense, dense_log = eager(lambda: train(examples, kg, cfg, vocab))
    assert log == dense_log
    assert _bits(table.data) == _bits(dense.params["rgcn.node_embed"].data)
    assert bundles == [(decoding.decode_moe(c, dense),
                        decoding.decode_truncated(c, dense, 5, 3, 3)) for c in contexts]
