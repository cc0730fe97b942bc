"""Decoders: greedy/beam agreement, exact beam-search oracle on a hand LM,
sampling pick rules and cross-run reproducibility."""

import math

import numpy as np
import pytest

from kgmoe import decoding as D
from kgmoe import moe
from kgmoe.generator import EOS
from kgmoe.kg import KnowledgeGraph
from kgmoe.generator import Vocab
from kgmoe.moe import TrainConfig, build_model, prepare_example, sub_seed
from kgmoe.pipeline import Example


def tiny_setup(**cfg_kw):
    kg = KnowledgeGraph.from_triples([("piano", "relatedto", "music"),
                                      ("music", "relatedto", "song")])
    base = dict(n_experts=2, d_model=8, n_heads=2, n_encoder_layers=1,
                n_decoder_layers=1, d_ff=16, max_len=16, rgcn_layers=1,
                top_concepts=2, seed=0)
    base.update(cfg_kw)
    cfg = TrainConfig(**base)
    example = Example(id="x0", input="tell me about piano",
                      references=["piano makes music", "a song for piano"])
    texts = [example.input] + example.references
    vocab = Vocab.build(texts, cfg.n_experts)
    model = build_model(kg, vocab, cfg)
    ctx = prepare_example(example, kg, vocab, cfg)
    return model, ctx


class FixedLM:
    """Hand-built next-token model: distribution depends only on prefix length."""

    def __init__(self, vocab_size, step_dists, forced_eos_at):
        self.vocab_size = vocab_size
        self.step_dists = step_dists          # list of {token_id: prob}
        self.forced_eos_at = forced_eos_at

    def __call__(self, memory, prefixes, params, cfg, positions):
        return np.stack([self.row(prefix) for prefix in prefixes])

    def row(self, prefix_ids):
        """The next-token distribution of one prefix."""
        dist = np.zeros(self.vocab_size)
        if len(prefix_ids) >= self.forced_eos_at:
            dist[EOS] = 1.0
        else:
            for tok, prob in self.step_dists[len(prefix_ids)].items():
                dist[tok] = prob
        return dist

    def enumerate_finished(self):
        """All EOS-terminated sequences with their total log-probability."""
        results = []

        def walk(prefix, logp):
            dist = self.row(prefix)
            for tok in np.nonzero(dist)[0]:
                step = logp + math.log(dist[tok])
                seq = prefix + [int(tok)]
                if tok == EOS:
                    results.append((seq, step))
                else:
                    walk(seq, step)

        walk([], 0.0)
        return results


def patched_lm(monkeypatch, model, step_dists, forced_eos_at):
    lm = FixedLM(len(model.vocab), step_dists, forced_eos_at)
    monkeypatch.setattr(D, "memory_next_dist", lm)
    return lm


def beam_oracle(lm, beam, length_normalize):
    key = (lambda s: s[1] / len(s[0])) if length_normalize else (lambda s: s[1])
    ranked = sorted(lm.enumerate_finished(), key=lambda s: (-key(s), s[0]))
    return [seq for seq, _ in ranked[:beam]]


# --- greedy / beam on the real model -----------------------------------------

def test_moe_decode_one_entry_per_expert():
    model, ctx = tiny_setup()
    bundle = D.decode_moe(ctx, model)
    assert [e.expert for e in bundle.entries] == [0, 1]
    assert all(len(e.concepts) <= model.cfg.top_concepts for e in bundle.entries)


def test_beam_one_equals_greedy_single_expert():
    model, ctx = tiny_setup(n_experts=1)
    greedy = D.decode_moe(ctx, model).entries[0].output
    beam = D.decode_beam(ctx, model, beam=1).entries[0].output
    assert beam == greedy


def test_beam_rejects_bad_width():
    model, ctx = tiny_setup()
    with pytest.raises(ValueError):
        D.decode_beam(ctx, model, beam=0)


def test_disjoint_rule_forces_disjoint_concepts():
    model, ctx = tiny_setup(disjoint_rule=True, top_concepts=1)
    bundle = D.decode_moe(ctx, model)
    sets = [set(e.concepts) for e in bundle.entries]
    assert not sets[0] & sets[1]


# --- hand-built LM: exact beam search oracle ---------------------------------

def hand_tokens(model):
    # two arbitrary non-special real tokens
    reals = [i for i, t in enumerate(model.vocab.tokens) if not t.startswith("<")]
    return reals[0], reals[1]


def test_beam_matches_exhaustive_oracle_length_normalized(monkeypatch):
    model, ctx = tiny_setup()
    a, b = hand_tokens(model)
    step = {EOS: 0.3, a: 0.5, b: 0.2}
    lm = patched_lm(monkeypatch, model, [step, step], forced_eos_at=2)
    bundle = D.decode_beam(ctx, model, beam=4, length_normalize=True)
    expected = beam_oracle(lm, 4, length_normalize=True)
    got = [e.output for e in bundle.entries]
    assert got == [model.vocab.decode(seq) for seq in expected]
    # with these probabilities normalization prefers the longest sequence
    assert got[0] == model.vocab.decode([a, a, EOS])


def test_beam_matches_exhaustive_oracle_unnormalized(monkeypatch):
    model, ctx = tiny_setup()
    a, b = hand_tokens(model)
    step = {EOS: 0.3, a: 0.5, b: 0.2}
    lm = patched_lm(monkeypatch, model, [step, step], forced_eos_at=2)
    bundle = D.decode_beam(ctx, model, beam=4, length_normalize=False)
    expected = beam_oracle(lm, 4, length_normalize=False)
    got = [e.output for e in bundle.entries]
    assert got == [model.vocab.decode(seq) for seq in expected]
    # raw log-probability prefers stopping immediately
    assert got[0] == ""


def test_greedy_on_hand_lm_takes_argmax_path(monkeypatch):
    model, ctx = tiny_setup(n_experts=1)
    a, b = hand_tokens(model)
    patched_lm(monkeypatch, model, [{a: 0.6, EOS: 0.4}, {EOS: 0.9, b: 0.1}],
               forced_eos_at=2)
    out = D.decode_moe(ctx, model).entries[0].output
    assert out == model.vocab.decode([a, EOS])


# --- lockstep search ----------------------------------------------------------

class MemoryLM:
    """Hand-built next-token model whose distribution depends on the memory row
    (its first entry, v), the prefix length and the last token; EOS is forced
    once the prefix holds 2v tokens, so searches finish at different steps."""

    def __init__(self, vocab_size, tokens):
        self.vocab_size = vocab_size
        self.tokens = tokens
        self.calls = 0

    def __call__(self, memory, prefixes, params, cfg, positions):
        assert len({len(p) for p in prefixes}) == 1
        keys = memory.data[..., 0, 0]
        if memory.data.ndim == 3:
            assert len(keys) == len(prefixes)
        self.calls += 1
        return np.stack([self.row(int(v), prefix)
                         for v, prefix in zip(np.broadcast_to(keys, len(prefixes)), prefixes)])

    def row(self, v, prefix):
        dist = np.zeros(self.vocab_size)
        if len(prefix) >= 2 * v:
            dist[EOS] = 1.0
        else:
            last = prefix[-1] if prefix else 0
            dist[[EOS] + self.tokens] = np.random.default_rng([v, len(prefix), last]).dirichlet(
                np.ones(1 + len(self.tokens)))
        return dist


def top3(dist):
    logs = np.log(np.maximum(dist, 1e-300))
    return [(int(tok), float(logs[tok])) for tok in np.argsort(-logs, kind="stable")[:3]]


@pytest.mark.parametrize("width, rule", [(1, "argmax"), (1, "sample"), (3, "top3")])
def test_lockstep_search_equals_each_search_alone(monkeypatch, width, rule):
    model, _ = tiny_setup()
    lm = MemoryLM(len(model.vocab), list(hand_tokens(model)) + [6])
    monkeypatch.setattr(D, "memory_next_dist", lm)
    # keys 1..4 finish at different steps; memory lengths 2 and 3 form two groups
    memories = [D.T.constant(np.full((2 + (v > 2), 4), float(v))) for v in (3, 1, 4, 2)]

    groups = [([0, 2], D.T.constant(np.stack([memories[0].data, memories[2].data]))),
              ([1, 3], D.T.constant(np.stack([memories[1].data, memories[3].data])))]

    def expands():
        """Fresh rules, so that a sampling search replays its seed."""
        pick, out = D.truncated_pick(3), []
        for j in range(len(memories)):
            rng = np.random.default_rng(j)
            out.append({"argmax": D._argmax, "top3": top3,
                        "sample": lambda dist, rng=rng: [(pick(dist, rng), 0.0)]}[rule])
        return out

    together = D._search(groups, expands(), model, width)
    calls = lm.calls
    alone = [D._search([([0], memory)], [expand], model, width)[0]
             for memory, expand in zip(memories, expands())]
    assert together == alone
    assert len({len(ids) for hyps in together for ids in hyps}) > 1
    assert calls < lm.calls - calls


def greedy_per_expert(ctx, model):
    """Decode each expert alone: its own select, its own encode and one
    one-prefix `memory_next_dist` call per token."""
    outputs = []
    for z, concepts in enumerate(D.select_concepts(ctx, model, model.cfg.n_experts)):
        memory = D.T.constant(D.generator.encode_inputs(
            [D.generator_input(ctx, model, concepts, z)], model.params, model.vocab, model.cfg,
            model.positions).data[0])
        ids = []
        while len(ids) < max_decode_len(model) and EOS not in ids:
            [dist] = D.memory_next_dist(memory, [ids], model.params, model.cfg, model.positions)
            ids.append(int(np.argmax(dist)))
        outputs.append((model.vocab.decode(ids), len(concepts)))
    return outputs


def count_encodes(monkeypatch):
    """The request count of every `encode_inputs` call, in call order."""
    encodes = []
    encode = D.generator.encode_inputs
    monkeypatch.setattr(D.generator, "encode_inputs",
                        lambda inps, *a: encodes.append(len(inps)) or encode(inps, *a))
    return encodes


@pytest.mark.parametrize("top_concepts", [2, 3])
def test_disjoint_moe_with_memories_of_different_lengths_equals_per_expert_greedy(
        monkeypatch, top_concepts):
    model, ctx = tiny_setup(n_experts=3, disjoint_rule=True, top_concepts=top_concepts)
    expected = greedy_per_expert(ctx, model)
    # later experts find fewer concepts: 2, 1, 0 or 3, 0, 0
    counts = [n for _, n in expected]
    assert len(set(counts)) > 1 and counts == sorted(counts, reverse=True)
    encodes = count_encodes(monkeypatch)
    bundle = D.decode_moe(ctx, model)
    assert [(e.output, len(e.concepts)) for e in bundle.entries] == expected
    # one encode per distinct concept count
    assert sorted(encodes) == sorted(counts.count(n) for n in set(counts))


def test_moe_encodes_all_experts_in_one_call(monkeypatch):
    model, ctx = tiny_setup(n_experts=3)
    encodes = count_encodes(monkeypatch)
    assert len(D.decode_moe(ctx, model).entries) == 3
    assert encodes == [3]


def count_calls(monkeypatch, owner, name):
    """A list that grows by one entry per call of owner.name."""
    calls = []
    fn = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a: calls.append(1) or fn(*a))
    return calls


@pytest.mark.parametrize("disjoint", [False, True])
def test_moe_makes_one_rgcn_encode_per_bundle(monkeypatch, disjoint):
    model, ctx = tiny_setup(n_experts=3, disjoint_rule=disjoint)
    encodes = count_calls(monkeypatch, moe, "encode")
    assert len(D.decode_moe(ctx, model).entries) == 3
    assert len(encodes) == 1


@pytest.mark.parametrize("fn, kw", [(D.decode_truncated, {"k": 3}), (D.decode_nucleus, {"p": 0.9})])
def test_sampler_encodes_its_samples_in_one_call(monkeypatch, fn, kw):
    model, ctx = tiny_setup()
    encodes = count_encodes(monkeypatch)
    selects = count_calls(monkeypatch, D, "select_concepts")
    assert len(fn(ctx, model, seed=4, n_samples=5, **kw).entries) == 5
    assert encodes == [5]
    assert len(selects) == 5 + 1


@pytest.mark.parametrize("fn, kw", [(D.decode_truncated, {"k": 3}), (D.decode_nucleus, {"p": 0.9})])
@pytest.mark.parametrize("n_samples", [0, -2])
def test_samplers_reject_bad_sample_count(fn, kw, n_samples):
    model, ctx = tiny_setup()
    with pytest.raises(ValueError, match="n_samples"):
        fn(ctx, model, seed=0, n_samples=n_samples, **kw)


# --- sampling pick rules ------------------------------------------------------

class CaptureRng:
    """Records the support and probabilities handed to rng.choice."""

    def __init__(self):
        self.support = None
        self.probs = None

    def choice(self, support, p):
        self.support = np.asarray(support)
        self.probs = np.asarray(p)
        return int(self.support[0])


def test_truncated_pick_renormalizes_top_k():
    pick = D.truncated_pick(2)
    rng = CaptureRng()
    pick(np.array([0.5, 0.3, 0.2]), rng)
    assert rng.support.tolist() == [0, 1]
    assert np.allclose(rng.probs, [0.625, 0.375])


def test_truncated_pick_k1_is_greedy():
    pick = D.truncated_pick(1)
    assert pick(np.array([0.2, 0.7, 0.1]), np.random.default_rng(0)) == 1


def test_truncated_pick_rejects_bad_k():
    with pytest.raises(ValueError):
        D.truncated_pick(0)


def test_nucleus_pick_hand_case():
    # {0.5, 0.3, 0.2} at p=0.75 keeps {0, 1} renormalized to [0.625, 0.375]
    pick = D.nucleus_pick(0.75)
    rng = CaptureRng()
    pick(np.array([0.5, 0.3, 0.2]), rng)
    assert rng.support.tolist() == [0, 1]
    assert np.allclose(rng.probs, [0.625, 0.375])


def test_nucleus_minimal_prefix_property():
    # cutoff is the smallest prefix whose mass reaches p
    pick = D.nucleus_pick(0.5)
    rng = CaptureRng()
    pick(np.array([0.5, 0.3, 0.2]), rng)
    assert rng.support.tolist() == [0]
    assert np.allclose(rng.probs, [1.0])


def test_nucleus_p_below_max_is_greedy():
    pick = D.nucleus_pick(0.1)
    assert pick(np.array([0.2, 0.7, 0.1]), np.random.default_rng(0)) == 1


def test_nucleus_p_one_keeps_everything():
    pick = D.nucleus_pick(1.0)
    rng = CaptureRng()
    pick(np.array([0.5, 0.3, 0.2]), rng)
    assert rng.support.tolist() == [0, 1, 2]


def test_nucleus_rejects_bad_p():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            D.nucleus_pick(bad)


# --- end-to-end sampling reproducibility --------------------------------------

def test_sampling_decoders_are_seed_reproducible():
    model, ctx = tiny_setup()
    for fn, kw in ((D.decode_truncated, {"k": 3}), (D.decode_nucleus, {"p": 0.9})):
        a = fn(ctx, model, seed=11, n_samples=3, **kw)
        b = fn(ctx, model, seed=11, n_samples=3, **kw)
        c = fn(ctx, model, seed=12, n_samples=3, **kw)
        assert [e.output for e in a.entries] == [e.output for e in b.entries]
        assert len(c.entries) == 3


def test_samples_within_bundle_are_independent_draws():
    model, ctx = tiny_setup()
    bundle = D.decode_truncated(ctx, model, k=5, seed=3, n_samples=6)
    assert len(bundle.entries) == 6
    assert [e.expert for e in bundle.entries] == list(range(6))


# --- hand-built LM: sampling seeds and the length stop ------------------------

def max_decode_len(model):
    return min(D.MAX_DECODE_LEN, model.cfg.max_len - 1)


def stepwise_samples(lm, model, strategy, pick, seed, example_id, n_samples):
    """Draw each sample token by token from its own named sub-seed."""
    outputs = []
    for i in range(n_samples):
        rng = np.random.default_rng(sub_seed(seed, f"{strategy}:{example_id}:{i}"))
        ids = []
        while len(ids) < max_decode_len(model) and EOS not in ids:
            ids.append(pick(lm.row(ids), rng))
        outputs.append(model.vocab.decode(ids))
    return outputs


@pytest.mark.parametrize("strategy, fn, pick, kw", [
    ("truncated", D.decode_truncated, D.truncated_pick(2), {"k": 2}),
    ("nucleus", D.decode_nucleus, D.nucleus_pick(0.75), {"p": 0.75})])
def test_sampling_matches_stepwise_reference(monkeypatch, strategy, fn, pick, kw):
    model, ctx = tiny_setup()
    a, b = hand_tokens(model)
    step = {EOS: 0.3, a: 0.4, b: 0.3}
    lm = patched_lm(monkeypatch, model, [step] * 3, forced_eos_at=3)
    bundle = fn(ctx, model, seed=5, n_samples=8, **kw)
    expected = stepwise_samples(lm, model, strategy, pick, 5, ctx.example_id, 8)
    assert bundle.strategy == strategy
    assert [e.output for e in bundle.entries] == expected
    assert len(set(expected)) > 1


def test_decoders_stop_at_max_length_without_eos(monkeypatch):
    model, ctx = tiny_setup()
    a, b = hand_tokens(model)
    n = max_decode_len(model)
    # one more step than the cap would index past the list and raise
    patched_lm(monkeypatch, model, [{a: 0.6, b: 0.4}] * n, forced_eos_at=n + 1)
    bundles = [D.decode_moe(ctx, model), D.decode_beam(ctx, model, beam=2),
               D.decode_truncated(ctx, model, k=2, seed=1, n_samples=3),
               D.decode_nucleus(ctx, model, p=0.9, seed=1, n_samples=3)]
    for bundle in bundles:
        assert [len(e.output.split()) for e in bundle.entries] == [n] * len(bundle.entries)
    assert bundles[0].entries[0].output == model.vocab.decode([a] * n)
