"""Hard-EM mixture training: joint loss contract, assignment rules,
update locality, determinism, and K=1 equivalence with a plain loop."""

import dataclasses

import numpy as np
import pytest

from kgmoe import moe
from kgmoe import tensor as T
from kgmoe.kg import KnowledgeGraph
from kgmoe.generator import UNK, Vocab
from kgmoe.moe import (Model, TrainConfig, build_model, e_step,
                       epoch_unit_order, generator_input, joint_loss, learning_rate_at,
                       m_step, prepare_example, select_concepts, sub_seed, train)
from kgmoe.pipeline import Example
from kgmoe.rgcn import encode
from kgmoe.selector import score_concepts, top_n


def tiny_kg():
    return KnowledgeGraph.from_triples([
        ("piano", "relatedto", "music"), ("music", "relatedto", "song"),
        ("piano", "relatedto", "keys"), ("song", "relatedto", "sing")])


def tiny_dataset():
    return [
        Example(id="e0", input="tell me about piano",
                references=["piano makes music", "a song about keys"]),
        Example(id="e1", input="what is music",
                references=["music is a song you sing"]),
    ]


def tiny_config(**kw):
    defaults = dict(n_experts=2, d_model=8, n_heads=2, n_encoder_layers=1,
                    n_decoder_layers=1, d_ff=16, max_len=16, rgcn_layers=1,
                    top_concepts=3, epochs=2, batch_size=4, seed=0,
                    learning_rate=1e-3)
    defaults.update(kw)
    return TrainConfig(**defaults)


def tiny_model(cfg=None):
    cfg = cfg or tiny_config()
    kg = tiny_kg()
    dataset = tiny_dataset()
    texts = [ex.input for ex in dataset]
    for ex in dataset:
        texts.extend(ex.references)
    vocab = Vocab.build(texts, cfg.n_experts)
    model = build_model(kg, vocab, cfg)
    contexts = [prepare_example(ex, kg, vocab, cfg) for ex in dataset]
    return model, contexts


# --- joint loss contract -----------------------------------------------------

def test_joint_is_generation_plus_weighted_concept():
    model, contexts = tiny_model()
    joint, l_gen, l_concept = joint_loss(contexts[0], 0, 0, model)
    assert joint.item() == pytest.approx(
        l_gen.item() + model.cfg.concept_weight * l_concept.item(), abs=1e-12)


def test_zero_concept_weight_makes_joint_equal_generation():
    model, contexts = tiny_model(tiny_config(concept_weight=0.0))
    joint, l_gen, _ = joint_loss(contexts[0], 0, 0, model)
    assert joint.item() == pytest.approx(l_gen.item(), abs=1e-15)


def test_joint_arithmetic_example():
    # generation 1.0 and concept 2.0 at weight 0.3 combine to 1.6
    assert 1.0 + 0.3 * 2.0 == pytest.approx(1.6)
    model, contexts = tiny_model()
    joint, l_gen, l_concept = joint_loss(contexts[1], 0, 1, model)
    reconstructed = l_gen.item() + 0.3 * l_concept.item()
    assert model.cfg.concept_weight == 0.3
    assert joint.item() == pytest.approx(reconstructed, abs=1e-12)


def test_invalid_expert_raises():
    model, contexts = tiny_model()
    with pytest.raises(ValueError):
        joint_loss(contexts[0], 0, 5, model)


# --- E-step ------------------------------------------------------------------

def test_e_step_picks_argmin():
    model, contexts = tiny_model(tiny_config(n_experts=3))
    r = e_step(contexts[0], 1, model)
    assert r.losses == [joint_loss(contexts[0], 1, z, model)[0].item() for z in range(3)]
    assert r.expert == min(range(3), key=lambda z: (r.losses[z], z))


def test_e_step_tie_goes_to_lowest_id():
    losses = [1.5, 1.5, 2.0]
    assert min(range(3), key=lambda z: (losses[z], z)) == 0


def test_e_step_single_expert_always_zero():
    model, contexts = tiny_model(tiny_config(n_experts=1))
    resp = e_step(contexts[0], 0, model)
    assert resp.expert == 0 and len(resp.losses) == 1


def test_e_step_identical_experts_tie_to_zero():
    model, contexts = tiny_model()
    # collapse expert conditioning: identical expert vectors and prefix rows
    model.params["sel.expert_embed"].data[1] = model.params["sel.expert_embed"].data[0]
    tok0 = model.vocab.expert_token(0)
    tok1 = model.vocab.expert_token(1)
    model.params["gen.tok_embed"].data[tok1] = model.params["gen.tok_embed"].data[tok0]
    model.params["gen.expert_embed"].data[1] = model.params["gen.expert_embed"].data[0]
    resp = e_step(contexts[0], 0, model)
    assert resp.losses[0] == pytest.approx(resp.losses[1], abs=1e-12)
    assert resp.expert == 0


def test_e_step_losses_match_joint_loss():
    model, contexts = tiny_model()
    resp = e_step(contexts[0], 1, model)
    for z in range(model.cfg.n_experts):
        direct, _, _ = joint_loss(contexts[0], 1, z, model)
        assert resp.losses[z] == pytest.approx(direct.item(), abs=1e-12)


def test_e_step_invariant_under_loss_scaling():
    # argmin is preserved under any positive rescaling of all losses
    losses = [0.9, 0.4, 1.3]
    pick = min(range(3), key=lambda z: (losses[z], z))
    scaled = [7.5 * v for v in losses]
    assert min(range(3), key=lambda z: (scaled[z], z)) == pick


def test_e_step_on_empty_subgraph_matches_joint_loss():
    model, _ = tiny_model()
    ctx = prepare_example(Example("z", "nothing grounds here", ["none at all"]),
                          model.kg, model.vocab, model.cfg)
    assert ctx.node_ids == []
    resp = e_step(ctx, 0, model)
    with T.no_grad():
        assert resp.losses == [joint_loss(ctx, 0, z, model)[0].item() for z in range(2)]


# --- M-step ------------------------------------------------------------------

def test_m_step_zero_lr_is_noop():
    model, contexts = tiny_model()
    opt = T.Adam(model.params, lr=1.0)
    before = {k: v.data.copy() for k, v in model.params.items()}
    m_step([(contexts[0], 0, 0)], model, opt, lr=0.0)
    for k in before:
        assert np.array_equal(model.params[k].data, before[k])


def test_m_step_reduces_loss_over_steps():
    model, contexts = tiny_model()
    opt = T.Adam(model.params, lr=3e-3)
    batch = [(contexts[0], 0, 0), (contexts[1], 0, 1)]
    first = m_step(batch, model, opt, lr=3e-3)["mean_loss"]
    last = first
    for _ in range(10):
        last = m_step(batch, model, opt, lr=3e-3)["mean_loss"]
    assert last < first


def test_m_step_leaves_other_expert_conditioning_untouched():
    model, contexts = tiny_model(tiny_config(expert_mode="embed"))
    opt = T.Adam(model.params, lr=1e-2)
    other_sel = model.params["sel.expert_embed"].data[1].copy()
    other_gen = model.params["gen.expert_embed"].data[1].copy()
    m_step([(contexts[0], 0, 0)], model, opt, lr=1e-2)
    assert np.array_equal(model.params["sel.expert_embed"].data[1], other_sel)
    assert np.array_equal(model.params["gen.expert_embed"].data[1], other_gen)


def test_m_step_unchosen_expert_rows_have_zero_grad():
    model, contexts = tiny_model(tiny_config(expert_mode="prompt"))
    opt = T.Adam(model.params, lr=0.0)
    m_step([(contexts[0], 0, 0)], model, opt, lr=0.0)
    tok1 = model.vocab.expert_token(1)
    grad = model.params["gen.tok_embed"].grad
    assert grad is not None
    assert not grad[tok1].any()
    assert not model.params["sel.expert_embed"].grad[1].any()


def test_m_step_mean_matches_hand_average():
    model, contexts = tiny_model()
    with T.no_grad():
        a, _, _ = joint_loss(contexts[0], 0, 0, model)
        b, _, _ = joint_loss(contexts[1], 0, 1, model)
    opt = T.Adam(model.params, lr=0.0)
    value = m_step([(contexts[0], 0, 0), (contexts[1], 0, 1)], model, opt, lr=0.0)["mean_loss"]
    assert value == pytest.approx((a.item() + b.item()) / 2, abs=1e-12)


def test_m_step_logs_batch_means_of_generation_and_concept_losses():
    model, contexts = tiny_model()
    batch = [(contexts[0], 0, 0), (contexts[0], 1, 1), (contexts[1], 0, 1)]
    with T.no_grad():
        parts = [joint_loss(ctx, ri, z, model) for ctx, ri, z in batch]
    entry = m_step(batch, model, T.Adam(model.params, lr=0.0), lr=0.0)
    assert entry["gen_loss"] == sum(p[1].item() for p in parts) / 3
    assert entry["concept_loss"] == sum(p[2].item() for p in parts) / 3
    assert entry["mean_loss"] == pytest.approx(
        entry["gen_loss"] + model.cfg.concept_weight * entry["concept_loss"], abs=1e-12)


def test_train_log_entries_carry_the_loss_split():
    cfg = tiny_config(epochs=1)
    _, log = train(tiny_dataset(), tiny_kg(), cfg)
    for entry in log:
        assert list(entry) == ["epoch", "step", "expert_histogram", "mean_loss", "gen_loss",
                               "concept_loss"]
        assert entry["gen_loss"] > 0 and entry["concept_loss"] > 0
        assert entry["mean_loss"] == pytest.approx(
            entry["gen_loss"] + cfg.concept_weight * entry["concept_loss"], abs=1e-12)


# --- schedule and ordering ---------------------------------------------------

def test_learning_rate_warmup_then_decay():
    cfg = tiny_config(learning_rate=1.0, warmup_steps=10)
    assert learning_rate_at(0, 100, cfg) == pytest.approx(0.1)
    assert learning_rate_at(9, 100, cfg) == pytest.approx(1.0)
    assert learning_rate_at(55, 100, cfg) == pytest.approx(0.5)
    assert learning_rate_at(99, 100, cfg) > 0


def test_epoch_unit_order_is_permutation_and_seeded():
    a = epoch_unit_order(10, epoch=3, seed=7)
    b = epoch_unit_order(10, epoch=3, seed=7)
    c = epoch_unit_order(10, epoch=4, seed=7)
    assert sorted(a) == list(range(10))
    assert a == b
    assert a != c


def test_sub_seed_is_stable_and_name_sensitive():
    assert sub_seed(0, "init") == sub_seed(0, "init")
    assert sub_seed(0, "init") != sub_seed(0, "shuffle-epoch0")
    assert sub_seed(0, "init") != sub_seed(1, "init")


# --- full training loop ------------------------------------------------------

def test_config_rejects_negative_subgraph_parameters():
    with pytest.raises(ValueError, match="subgraph_hops"):
        tiny_config(subgraph_hops=-1)
    with pytest.raises(ValueError, match="max_subgraph_nodes"):
        tiny_config(max_subgraph_nodes=-2)


@pytest.mark.parametrize("field", dataclasses.fields(TrainConfig), ids=lambda f: f.name)
def test_every_config_field_rejects_wrong_type_naming_it(field):
    wrong = [1] if field.type == "str" else ["3"]
    if field.type.startswith("int"):
        wrong.append(True)
    for value in wrong:
        with pytest.raises(ValueError, match=rf"\b{field.name} must be"):
            TrainConfig(**{field.name: value})


def test_train_empty_dataset_raises():
    with pytest.raises(ValueError):
        train([], tiny_kg(), tiny_config())


def test_train_runs_and_logs():
    model, log = train(tiny_dataset(), tiny_kg(), tiny_config())
    assert isinstance(model, Model)
    assert log and all({"epoch", "step", "expert_histogram", "mean_loss"} <= set(e) for e in log)
    # 3 EM units, batch 4 -> one step per epoch, two epochs
    assert len(log) == 2
    assert sum(log[0]["expert_histogram"]) == 3


def test_train_is_bit_identical_across_runs():
    cfg = tiny_config()
    m1, log1 = train(tiny_dataset(), tiny_kg(), cfg)
    m2, log2 = train(tiny_dataset(), tiny_kg(), cfg)
    for k in m1.params:
        assert np.array_equal(m1.params[k].data, m2.params[k].data)
    assert log1 == log2


def test_single_expert_training_equals_plain_loop():
    cfg = tiny_config(n_experts=1, epochs=3, batch_size=2)
    kg, dataset = tiny_kg(), tiny_dataset()
    moe_model, _ = train(dataset, kg, cfg)

    # hand-rolled loop: same init, same unit order, no E-step needed at K=1
    texts = [ex.input for ex in dataset]
    for ex in dataset:
        texts.extend(ex.references)
    vocab = Vocab.build(texts, cfg.n_experts)
    model = build_model(kg, vocab, cfg)
    contexts = [prepare_example(ex, kg, vocab, cfg) for ex in dataset]
    units = [(ei, ri) for ei, ctx in enumerate(contexts) for ri in range(len(ctx.y_ids))]
    steps_per_epoch = max(1, (len(units) + cfg.batch_size - 1) // cfg.batch_size)
    total = steps_per_epoch * cfg.epochs
    opt = T.Adam(model.params, lr=cfg.learning_rate)
    step = 0
    for epoch in range(cfg.epochs):
        order = epoch_unit_order(len(units), epoch, cfg.seed)
        for start in range(0, len(units), cfg.batch_size):
            batch = [(contexts[units[i][0]], units[i][1], 0)
                     for i in order[start : start + cfg.batch_size]]
            m_step(batch, model, opt, lr=learning_rate_at(step, total, cfg))
            step += 1

    for k in moe_model.params:
        assert np.array_equal(moe_model.params[k].data, model.params[k].data), k


def test_select_concepts_disjoint_accumulation():
    model, contexts = tiny_model(tiny_config(top_concepts=2, disjoint_rule=True))
    picks = [set(chosen) for chosen in select_concepts(contexts[0], model, model.cfg.n_experts)]
    assert not picks[0] & picks[1]


def per_expert_selections(ctx, model, n_experts):
    """Oracle: each expert encodes the subgraph on its own, scores it and
    takes its top-N, skipping what earlier experts took under the disjoint rule."""
    selections, taken = [], set()
    for z in range(n_experts):
        with T.no_grad():
            states = encode(ctx.subgraph, model.params, model.kg, model.cfg.rgcn_layers)
            p = score_concepts(states, model.params, z).data
        chosen = top_n(ctx.node_ids, p, model.cfg.top_concepts,
                       taken if model.cfg.disjoint_rule else None)
        taken |= set(chosen)
        selections.append(chosen)
    return selections


@pytest.mark.parametrize("disjoint", [False, True])
def test_select_concepts_equals_per_expert_oracle(monkeypatch, disjoint):
    model, contexts = tiny_model(tiny_config(n_experts=3, top_concepts=2, disjoint_rule=disjoint))
    for ctx in contexts:
        expected = per_expert_selections(ctx, model, 3)
        encodes = []
        monkeypatch.setattr(moe, "encode", lambda *a: encodes.append(1) or encode(*a))
        assert select_concepts(ctx, model, 3) == expected
        assert select_concepts(ctx, model, 2) == expected[:2]
        assert select_concepts(ctx, model) == expected[:1]
        assert encodes == [1, 1, 1]
        monkeypatch.undo()
    assert select_concepts(contexts[0], model, 0) == []
    with pytest.raises(ValueError):
        select_concepts(contexts[0], model, 4)


# --- example preparation and generator input ---------------------------------

def test_prepare_example_encodes_only_input_and_references(monkeypatch):
    model, _ = tiny_model()
    example = tiny_dataset()[0]
    texts = []
    encode = Vocab.encode
    monkeypatch.setattr(Vocab, "encode", lambda self, text: texts.append(text) or encode(self, text))
    ctx = prepare_example(example, model.kg, model.vocab, model.cfg)
    assert len(ctx.node_ids) > 1
    assert texts == [example.input] + example.references


def test_generator_input_reads_underscore_as_space_and_empty_surface_as_unk():
    kg = KnowledgeGraph.from_triples([("ice_cream", "r", "_")])
    vocab = Vocab.build(["ice cream"], 2)
    model = build_model(kg, vocab, tiny_config())
    ctx = prepare_example(Example("e", "ice cream", ["cream"]), kg, vocab, model.cfg)
    inp = generator_input(ctx, model, [kg.concept_ids["ice_cream"], kg.concept_ids["_"]], 1)
    ice_cream = vocab.encode("ice cream")
    assert UNK not in ice_cream and len(ice_cream) == 2
    assert inp.concept_token_ids == [ice_cream, [UNK]]
    assert inp.x_ids == ctx.x_ids and inp.expert == 1


@pytest.mark.parametrize("expert_mode", ["embed", "prompt"])
def test_shape_only_build_has_the_names_and_shapes_of_a_drawn_one(expert_mode):
    cfg = tiny_config(expert_mode=expert_mode, rgcn_layers=2, n_encoder_layers=2)
    drawn, _ = tiny_model(cfg)
    shapes = build_model(drawn.kg, drawn.vocab, cfg, rng=T.ShapeOnly())
    assert {n: p.shape for n, p in shapes.params.items()} == \
        {n: p.shape for n, p in drawn.params.items()}
