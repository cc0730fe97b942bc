"""Acceptance suite: twelve end-to-end criteria, one pass/fail line each.

Criteria 5, 8, 9 and 12 share one trained expert-mixture model and one
identically trained single-expert model on the synthetic one-to-many task.
"""

import math

import numpy as np
import pytest

from kgmoe import metrics as M
from kgmoe import tensor as T
from kgmoe.decoding import decode_beam, decode_moe, decode_nucleus, decode_truncated
from kgmoe.generator import GeneratorInput, Vocab, generation_loss
from kgmoe.kg import KnowledgeGraph, extract_subgraph, ground_concepts
from kgmoe.moe import (TrainConfig, build_model, e_step, epoch_unit_order,
                       generator_input, joint_loss, learning_rate_at, m_step,
                       prepare_example, train)
from kgmoe.pipeline import (Example, RunConfig, make_synthetic_task, run_evaluate,
                            run_generate, run_train, save_dataset, save_kg_tsv,
                            synthetic_kg)

from test_kg import brute_force_subgraph, random_kg
from test_metrics import (naive_distinct, naive_entropy, naive_rouge_l,
                          naive_self_bleu, naive_sentence_bleu, random_corpus)
from util import check_gradients


def report(number: int, name: str, ok: bool):
    print(f"acceptance criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


# ---------------------------------------------------------------------------
# shared synthetic-task training runs (criteria 5, 8, 9, 12)

SPECIALIZE_BASE = dict(d_model=48, n_heads=4, n_encoder_layers=1,
                       n_decoder_layers=1, d_ff=96, max_len=32, rgcn_layers=1,
                       top_concepts=5, learning_rate=3e-3, batch_size=8,
                       epochs=15, seed=0, expert_mode="prompt")


@pytest.fixture(scope="module")
def specialization_runs():
    examples, triples = make_synthetic_task(seed=0, n_inputs=30, k_modes=3)
    kg = synthetic_kg(triples)
    moe_model, moe_log = train(examples, kg, TrainConfig(n_experts=3, **SPECIALIZE_BASE))
    k1_model, k1_log = train(examples, kg, TrainConfig(n_experts=1, **SPECIALIZE_BASE))
    return examples, kg, moe_model, moe_log, k1_model, k1_log


def tiny_training_setup(**overrides):
    examples, triples = make_synthetic_task(seed=0, n_inputs=4, k_modes=2)
    kg = synthetic_kg(triples)
    base = dict(n_experts=2, d_model=8, n_heads=2, n_encoder_layers=1,
                n_decoder_layers=1, d_ff=16, max_len=32, rgcn_layers=1,
                top_concepts=3, learning_rate=1e-3, batch_size=4, epochs=2, seed=0)
    base.update(overrides)
    cfg = TrainConfig(**base)
    texts = [ex.input for ex in examples]
    for ex in examples:
        texts.extend(ex.references)
    vocab = Vocab.build(texts, cfg.n_experts)
    model = build_model(kg, vocab, cfg)
    contexts = [prepare_example(ex, kg, vocab, cfg) for ex in examples]
    return examples, kg, cfg, model, contexts


# ---------------------------------------------------------------------------
# 1. gradient integrity

def test_criterion_1_gradient_integrity():
    _, _, _, model, contexts = tiny_training_setup(expert_mode="embed")
    ctx = contexts[0]

    def forward():
        loss, _, _ = joint_loss(ctx, 0, 1, model)
        return loss

    loss = forward()
    loss.backward()
    groups = {
        "graph encoder": [n for n in model.params if n.startswith("rgcn.")],
        "selector MLP": ["sel.w1", "sel.b1", "sel.w2", "sel.b2"],
        "transformer": [n for n in model.params
                        if n.startswith("gen.") and "expert_embed" not in n],
        "expert embeddings": ["sel.expert_embed", "gen.expert_embed"],
    }
    ok = True
    for names in groups.values():
        worst = check_gradients(lambda: forward().item(), model.params,
                                np.random.default_rng(1), n_checks=20,
                                rel_tol=1e-4, names=names)
        ok = ok and worst < 1e-4
    report(1, "gradient integrity", ok)


# ---------------------------------------------------------------------------
# 2. metric oracle equivalence

def test_criterion_2_metric_oracles():
    ok = True
    rng = np.random.default_rng(21)
    for _ in range(20):
        hyps = random_corpus(rng)
        refs = random_corpus(rng, n_sent=2)
        for n in (3, 4):
            ok &= abs(M.sentence_bleu(hyps[0], refs, max_n=n)
                      - naive_sentence_bleu(hyps[0], refs, n)) < 1e-9
            ok &= abs(M.self_bleu(hyps, n) - naive_self_bleu(hyps, n)) < 1e-9
        ok &= abs(M.rouge_l(hyps[0], refs[0]) - naive_rouge_l(hyps[0], refs[0])) < 1e-9
        ok &= abs(M.distinct_k(hyps, 2) - naive_distinct(hyps, 2)) < 1e-9
        ok &= abs(M.entropy_k(hyps, 4) - naive_entropy(hyps, 4)) < 1e-9
    # frozen hand-computed values
    ok &= M.sentence_bleu("the cat sat", ["the cat sat down"], max_n=3) == pytest.approx(
        100 * math.exp(1 - 4 / 3), abs=1e-9)
    ok &= M.rouge_l("a b c d", "a c d") == pytest.approx(600 / 7, abs=1e-9)
    ok &= M.entropy_k(["a b c d", "a b c d", "e f g h", "i j k l"], 4) == pytest.approx(
        -0.5 * math.log(0.5) - 0.5 * math.log(0.25), abs=1e-12)
    ok &= M.jaccard(set(), set()) == 1.0
    unic, jac = M.concept_diversity([[{"a", "b"}, {"b", "c"}, {"a", "b", "c"}]])
    ok &= unic == 3 and jac == pytest.approx(5 / 9, abs=1e-12)
    report(2, "metric oracle equivalence", ok)


# ---------------------------------------------------------------------------
# 3. subgraph correctness

def test_criterion_3_subgraph_correctness():
    ok = True
    rng = np.random.default_rng(31)
    for _ in range(100):
        n_nodes = int(rng.integers(2, 50))
        kg = random_kg(rng, n_nodes, int(rng.integers(1, 80)))
        k = int(rng.integers(1, min(4, kg.num_concepts + 1)))
        seeds = set(rng.choice(kg.num_concepts, size=k, replace=False).tolist())
        sub = extract_subgraph(seeds, kg, hops=2, max_nodes=None)
        nodes, edges = brute_force_subgraph(seeds, kg, hops=2)
        ok &= sub.nodes == nodes and set(sub.edges) == set(edges)
    kg = KnowledgeGraph.from_triples([("piano", "relatedto", "music"),
                                      ("sport", "relatedto", "run"),
                                      ("kind", "relatedto", "type")])
    grounded = {kg.concepts[c] for c in ground_concepts("piano is a kind of sport", kg)}
    ok &= grounded == {"piano", "sport", "kind"}
    report(3, "subgraph correctness", ok)


# ---------------------------------------------------------------------------
# 4. overfit sanity

def test_criterion_4_overfit_sanity():
    examples, triples = make_synthetic_task(seed=0, n_inputs=20, k_modes=3)
    kg = synthetic_kg(triples)
    # one reference per input: a single expert cannot drive the joint loss
    # under the mixture entropy on conflicting references
    sliced = [Example(ex.id, ex.input, [ex.references[0]]) for ex in examples]
    cfg = TrainConfig(n_experts=1, d_model=32, n_heads=4, n_encoder_layers=1,
                      n_decoder_layers=1, d_ff=64, max_len=32, rgcn_layers=1,
                      top_concepts=5, learning_rate=3e-3, batch_size=4,
                      epochs=100, seed=0)
    model, log = train(sliced, kg, cfg)   # 5 steps/epoch * 100 epochs = 500 steps
    ok = len(log) == 500 and log[-1]["mean_loss"] < 0.1
    hits = 0
    for ex in sliced:
        ctx = prepare_example(ex, kg, model.vocab, cfg)
        if decode_moe(ctx, model).entries[0].output == ex.references[0].lower():
            hits += 1
    ok = ok and hits >= 18   # >= 90% of 20
    report(4, "overfit sanity", ok)


# ---------------------------------------------------------------------------
# 5. expert specialization vs beam search

def test_criterion_5_specialization_beats_beam(specialization_runs):
    examples, kg, moe_model, _, k1_model, _ = specialization_runs
    moe_sets, beam_sets = [], []
    for ex in examples:
        ctx = prepare_example(ex, kg, moe_model.vocab, moe_model.cfg)
        moe_sets.append([e.output for e in decode_moe(ctx, moe_model).entries])
        ctx1 = prepare_example(ex, kg, k1_model.vocab, k1_model.cfg)
        beam_sets.append([e.output for e in decode_beam(ctx1, k1_model, beam=3).entries])
    moe_sb4 = M.corpus_self_bleu(moe_sets, 4)
    beam_sb4 = M.corpus_self_bleu(beam_sets, 4)
    moe_d2 = M.distinct_k([h for hs in moe_sets for h in hs], 2)
    beam_d2 = M.distinct_k([h for hs in beam_sets for h in hs], 2)
    ok = (beam_sb4 - moe_sb4 >= 20.0) and (moe_d2 > beam_d2)
    report(5, "expert specialization vs beam", ok)


# ---------------------------------------------------------------------------
# 6. concept-permutation invariance

def test_criterion_6_concept_permutation_invariance():
    _, _, cfg, model, contexts = tiny_training_setup()
    ctx = contexts[0]
    concepts = generator_input(ctx, model, ctx.node_ids[:4], 0).concept_token_ids
    y = ctx.y_ids[0]
    base = generation_loss([GeneratorInput(ctx.x_ids, concepts, 0)], y, model.params,
                           model.vocab, cfg).item()
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(50):
        perm = rng.permutation(len(concepts)).tolist()
        got = generation_loss([GeneratorInput(ctx.x_ids, [concepts[i] for i in perm], 0)],
                              y, model.params, model.vocab, cfg).item()
        worst = max(worst, abs(got - base))
    report(6, "concept permutation invariance", worst < 1e-9)


# ---------------------------------------------------------------------------
# 7. concept-loss weighting contract

def test_criterion_7_loss_weight_contract():
    _, _, cfg, model, contexts = tiny_training_setup()
    ctx = contexts[0]
    assert model.cfg.concept_weight == 0.3
    with T.no_grad():
        weighted, _, l_concept = joint_loss(ctx, 0, 1, model)
        model.cfg.concept_weight = 0.0
        unweighted, _, _ = joint_loss(ctx, 0, 1, model)
        model.cfg.concept_weight = 0.3
    drift = abs((weighted.item() - unweighted.item()) - 0.3 * l_concept.item())
    report(7, "loss weighting contract", drift < 1e-12)


# ---------------------------------------------------------------------------
# 8. hard-EM contract

def test_criterion_8_hard_em_contract(specialization_runs):
    ok = True
    # (a) one-hot responsibilities on every logged step: each unit counted once
    _, _, _, moe_log, _, k1_log = specialization_runs
    units_per_epoch = 30 * 3
    for epoch in range(SPECIALIZE_BASE["epochs"]):
        epoch_steps = [e for e in moe_log if e["epoch"] == epoch]
        ok &= sum(sum(e["expert_histogram"]) for e in epoch_steps) == units_per_epoch
        ok &= all(min(e["expert_histogram"]) >= 0 for e in epoch_steps)
    # a responsibility names exactly one of the K experts
    _, _, _, model, contexts = tiny_training_setup()
    resp = e_step(contexts[0], 0, model)
    ok &= len(resp.losses) == 2 and resp.expert in (0, 1)

    # (b) all-equal expert losses tie to expert 0
    model.params["sel.expert_embed"].data[1] = model.params["sel.expert_embed"].data[0]
    tok0, tok1 = model.vocab.expert_token(0), model.vocab.expert_token(1)
    model.params["gen.tok_embed"].data[tok1] = model.params["gen.tok_embed"].data[tok0]
    model.params["gen.expert_embed"].data[1] = model.params["gen.expert_embed"].data[0]
    tied = e_step(contexts[0], 0, model)
    ok &= tied.losses[0] == pytest.approx(tied.losses[1], abs=1e-12)
    ok &= tied.expert == 0

    # (c) K=1 training matches a plain no-mixture loop loss-for-loss
    examples, kg, cfg, _, _ = tiny_training_setup(n_experts=1, epochs=3)
    _, k1_small_log = train(examples, kg, cfg)
    texts = [ex.input for ex in examples]
    for ex in examples:
        texts.extend(ex.references)
    vocab = Vocab.build(texts, cfg.n_experts)
    plain = build_model(kg, vocab, cfg)
    plain_ctxs = [prepare_example(ex, kg, vocab, cfg) for ex in examples]
    units = [(ei, ri) for ei, c in enumerate(plain_ctxs) for ri in range(len(c.y_ids))]
    steps_per_epoch = max(1, (len(units) + cfg.batch_size - 1) // cfg.batch_size)
    total = steps_per_epoch * cfg.epochs
    opt = T.Adam(plain.params, lr=cfg.learning_rate)
    plain_losses, step = [], 0
    for epoch in range(cfg.epochs):
        order = epoch_unit_order(len(units), epoch, cfg.seed)
        for start in range(0, len(units), cfg.batch_size):
            batch = [(plain_ctxs[units[i][0]], units[i][1], 0)
                     for i in order[start : start + cfg.batch_size]]
            plain_losses.append(m_step(batch, plain, opt,
                                       lr=learning_rate_at(step, total, cfg))["mean_loss"])
            step += 1
    ok &= [e["mean_loss"] for e in k1_small_log] == plain_losses
    report(8, "hard-EM contract", ok)


# ---------------------------------------------------------------------------
# 9. disjoint concept rule

def test_criterion_9_disjoint_rule(specialization_runs):
    examples, kg, moe_model, _, _, _ = specialization_runs

    def mean_pairwise_jaccard(disjoint: bool) -> float:
        moe_model.cfg.disjoint_rule = disjoint
        values = []
        for ex in examples:
            ctx = prepare_example(ex, kg, moe_model.vocab, moe_model.cfg)
            sets = [set(e.concepts) for e in decode_moe(ctx, moe_model).entries]
            if disjoint:
                for i in range(len(sets)):
                    for j in range(i + 1, len(sets)):
                        assert not sets[i] & sets[j], "disjoint rule violated"
            values.extend(M.jaccard(sets[i], sets[j])
                          for i in range(len(sets)) for j in range(i + 1, len(sets)))
        return sum(values) / len(values)

    try:
        jac_off = mean_pairwise_jaccard(False)
        jac_on = mean_pairwise_jaccard(True)
    finally:
        moe_model.cfg.disjoint_rule = False
    report(9, "disjoint concept rule", jac_on < jac_off)


# ---------------------------------------------------------------------------
# 10. variable expert count

def test_criterion_10_variable_expert_count(tmp_path):
    ok = True
    for k in (4, 5):
        examples, triples = make_synthetic_task(seed=0, n_inputs=3, k_modes=k)
        kg = synthetic_kg(triples)
        cfg = TrainConfig(n_experts=k, d_model=8, n_heads=2, n_encoder_layers=1,
                          n_decoder_layers=1, d_ff=16, max_len=32, rgcn_layers=1,
                          top_concepts=3, epochs=1, batch_size=8, seed=0)
        model, _ = train(examples, kg, cfg)
        sets = []
        for ex in examples:
            ctx = prepare_example(ex, kg, model.vocab, cfg)
            bundle = decode_moe(ctx, model)
            ok &= len(bundle.entries) == k
            sets.append([e.output for e in bundle.entries])
        rep = M.evaluate_hypothesis_sets(sets, [ex.references for ex in examples],
                                         [[set() for _ in hs] for hs in sets],
                                         config={"K": k})
        ok &= rep.self_bleu4 >= 0.0 and rep.config["K"] == k
    report(10, "variable expert count", ok)


# ---------------------------------------------------------------------------
# 11. determinism

def test_criterion_11_pipeline_determinism(tmp_path):
    examples, triples = make_synthetic_task(seed=0, n_inputs=4, k_modes=2)
    reports = []
    for run in ("a", "b"):
        d = tmp_path / run
        d.mkdir()
        save_dataset(d / "dataset.jsonl", examples)
        save_kg_tsv(d / "kg.tsv", triples)
        cfg = RunConfig(
            train=TrainConfig(n_experts=2, d_model=8, n_heads=2,
                              n_encoder_layers=1, n_decoder_layers=1, d_ff=16,
                              max_len=32, rgcn_layers=1, top_concepts=3,
                              epochs=2, batch_size=4, seed=0),
            dataset_path=str(d / "dataset.jsonl"), kg_path=str(d / "kg.tsv"),
            vocab_path=str(d / "vocab.txt"),
            checkpoint_path=str(d / "checkpoint.json"),
            generations_path=str(d / "generations.jsonl"),
            metrics_path=str(d / "metrics.json"),
            train_log_path=str(d / "train_log.jsonl"))
        run_train(cfg)
        run_generate(cfg)
        run_evaluate(cfg)
        reports.append((d / "metrics.json").read_bytes())
    report(11, "pipeline determinism", reports[0] == reports[1])


# ---------------------------------------------------------------------------
# 12. the paper's claim: the mixture beats sampling on quality and diversity

def test_criterion_12_moe_beats_sampling(specialization_runs):
    """In both expert modes the K = 3 mixture beats top-k and nucleus sampling
    of the K = 1 model (3 samples each, `generate`'s default k, p and seed) on
    best-of-K BLEU-4 and ROUGE-L, self-BLEU-4 and Uni.C (distinct KG concepts
    grounded in an input's outputs).  Sampling wins distinct-2 and entropy-4
    on this task, so those are not asserted.  The margins hold for sampling
    seeds 0-2, whose closest gaps were 17.1, 9.4, 11.4 and 0.17."""
    examples, kg, prompt_model, _, k1_model, _ = specialization_runs
    embed_model, _ = train(examples, kg, TrainConfig(n_experts=3, **dict(
        SPECIALIZE_BASE, expert_mode="embed")))
    k, p, seed = RunConfig.sample_k, RunConfig.sample_p, k1_model.cfg.seed

    def scores(model, decode):
        sets = []
        for ex in examples:
            ctx = prepare_example(ex, kg, model.vocab, model.cfg)
            sets.append([e.output for e in decode(ctx, model).entries])
        rep = M.evaluate_hypothesis_sets(sets, [ex.references for ex in examples],
                                         [[ground_concepts(h, kg) for h in hs] for hs in sets])
        return rep.bleu4, rep.rouge_l, rep.self_bleu4, rep.unique_concepts

    samplers = [scores(k1_model, lambda c, m: decode_truncated(c, m, k, seed, n_samples=3)),
                scores(k1_model, lambda c, m: decode_nucleus(c, m, p, seed, n_samples=3))]
    ok = True
    for model in (prompt_model, embed_model):
        b4, rl, sb4, unic = scores(model, decode_moe)
        for s_b4, s_rl, s_sb4, s_unic in samplers:
            ok &= (b4 - s_b4 >= 10.0 and rl - s_rl >= 5.0 and s_sb4 - sb4 >= 10.0
                   and unic > s_unic)
    report(12, "mixture beats sampling", ok)
