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

    def __call__(self, memory, prefixes, params, cfg, cache=None):
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


def beam_oracle(lm, beam):
    """The `beam` finished sequences of highest log-probability per token."""
    ranked = sorted(lm.enumerate_finished(), key=lambda s: (-(s[1] / len(s[0])), s[0]))
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
    bundle = D.decode_beam(ctx, model, beam=4)
    expected = beam_oracle(lm, 4)
    got = [e.output for e in bundle.entries]
    assert got == [model.vocab.decode(seq) for seq in expected]
    # with these probabilities normalization prefers the longest sequence
    assert got[0] == model.vocab.decode([a, a, EOS])


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
    once the prefix holds 2v tokens, so searches finish at different steps.

    Like the decoder, it reads the memory only while the cache holds no rows;
    then it keeps each hypothesis's v in the cache, where `take` reorders it
    with the hypotheses, and later steps read v from there."""

    def __init__(self, vocab_size, tokens):
        self.vocab_size = vocab_size
        self.tokens = tokens
        self.calls = 0

    def __call__(self, memory, prefixes, params, cfg, cache=None):
        assert len({len(p) for p in prefixes}) == 1
        if cache is None or cache.rows is None:
            keys = memory.data[..., 0, 0]
            if memory.data.ndim == 3:
                assert len(keys) == len(prefixes)
            keys = np.broadcast_to(keys, len(prefixes)).reshape(-1, 1, 1)
        else:
            [keys] = cache.kv["memory-row"]
            assert len(keys) == len(prefixes)
        if cache is not None:
            cache.kv["memory-row"] = (keys,)
            cache.rows, cache.length = len(prefixes), len(prefixes[0]) + 1
        self.calls += 1
        return np.stack([self.row(int(v), prefix)
                         for v, prefix in zip(keys[:, 0, 0], prefixes)])

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
    # keys 1..4 finish at different steps; memory lengths 3 and 2 give two stacks
    memories = [D.T.constant(np.full((2 + (v > 2), 4), float(v))) for v in (3, 1, 4, 2)]
    stacks = [[0, 2], [1, 3]]

    def expands():
        """Fresh rules, so that a sampling search replays its seed."""
        pick, out = D.truncated_pick(3), []
        for j in range(len(memories)):
            rng = np.random.default_rng(j)
            out.append({"argmax": D._argmax, "top3": top3,
                        "sample": lambda dist, rng=rng: [(pick(dist, rng), 0.0)]}[rule])
        return out

    together = {}
    for js in stacks:
        stack = D.T.constant(np.stack([memories[j].data for j in js]))
        rules = expands()
        together.update(zip(js, D._search(stack, [rules[j] for j in js], model, width)))
    together = [together[j] for j in range(len(memories))]
    calls = lm.calls
    alone = [D._search(memory, [expand], model, width)[0]
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
            [D.generator_input(ctx, model, concepts, z)], model.params, model.vocab,
            model.cfg).data[0])
        ids = []
        while len(ids) < max_decode_len(model) and EOS not in ids:
            [dist] = D.memory_next_dist(memory, [ids], model.params, model.cfg)
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


# --- decoder cache ------------------------------------------------------------

CACHED_DECODERS = {
    "moe": lambda ctx, model: D.decode_moe(ctx, model),
    "beam": lambda ctx, model: D.decode_beam(ctx, model, beam=3),
    "topk": lambda ctx, model: D.decode_truncated(ctx, model, k=3, seed=2, n_samples=3),
    "nucleus": lambda ctx, model: D.decode_nucleus(ctx, model, p=0.9, seed=2, n_samples=3),
}


def uncached(monkeypatch):
    """Make decoding call `memory_next_dist` without a cache, so every step
    runs the decoder over the full prefixes.  `_search` hands over its whole
    stacked memory at every step, so the rows of the live hypotheses ride in
    the cache they would have used, where `take` selects them as it does the
    keys and values."""
    full = D.memory_next_dist

    def step(memory, prefixes, params, cfg, cache):
        if memory.data.ndim == 3:
            if cache.rows is not None:
                memory = D.T.constant(cache.kv["memory"][0])
            cache.kv["memory"], cache.rows = (memory.data,), len(prefixes)
        return full(memory, prefixes, params, cfg)
    monkeypatch.setattr(D, "memory_next_dist", step)


@pytest.mark.parametrize("setup", [dict(), dict(n_experts=3, disjoint_rule=True, top_concepts=2),
                                   dict(n_experts=3, disjoint_rule=True, top_concepts=3),
                                   dict(n_experts=3, expert_mode="embed", n_decoder_layers=2)])
def test_cached_decoding_equals_full_prefix_decoding(monkeypatch, setup):
    model, ctx = tiny_setup(**setup)
    reorders = []
    take = D.generator.DecoderCache.take
    monkeypatch.setattr(D.generator.DecoderCache, "take", lambda cache, rows: reorders.append(
        rows != list(range(cache.rows))) or take(cache, rows))
    cached = [fn(ctx, model) for fn in CACHED_DECODERS.values()]
    # a beam's kept hypotheses moved or dropped cache rows
    assert any(reorders)
    monkeypatch.undo()
    uncached(monkeypatch)
    assert cached == [fn(ctx, model) for fn in CACHED_DECODERS.values()]


@pytest.mark.parametrize("name", CACHED_DECODERS)
def test_decoding_reads_one_position_per_next_token_distribution(monkeypatch, name):
    model, ctx = tiny_setup(n_experts=3, disjoint_rule=True, top_concepts=2)
    positions, dists = [], []
    decoder, next_dist = D.generator.decoder_logits, D.memory_next_dist

    def counted_decoder(memory, dec_ids, *rest):
        positions.append(np.asarray(dec_ids).size)      # H x t
        return decoder(memory, dec_ids, *rest)

    def counted_next_dist(memory, prefixes, *rest):
        dists.append(len(prefixes))
        return next_dist(memory, prefixes, *rest)
    monkeypatch.setattr(D.generator, "decoder_logits", counted_decoder)
    monkeypatch.setattr(D, "memory_next_dist", counted_next_dist)
    CACHED_DECODERS[name](ctx, model)
    assert len(positions) == len(dists) > 1
    assert sum(positions) == sum(dists)


@pytest.mark.parametrize("fn, kw", [(D.decode_truncated, {"k": 3}), (D.decode_nucleus, {"p": 0.9})])
def test_sampler_encodes_its_samples_in_one_call(monkeypatch, fn, kw):
    model, ctx = tiny_setup()
    encodes = count_encodes(monkeypatch)
    selects = count_calls(monkeypatch, D, "select_concepts")
    assert len(fn(ctx, model, seed=4, n_samples=5, **kw).entries) == 5
    assert encodes == [1]
    assert len(selects) == 5 + 1


@pytest.mark.parametrize("fn, kw", [(D.decode_truncated, {"k": 3}), (D.decode_nucleus, {"p": 0.9})])
@pytest.mark.parametrize("n_samples", [0, -2])
def test_samplers_reject_bad_sample_count(fn, kw, n_samples):
    model, ctx = tiny_setup()
    with pytest.raises(ValueError, match="n_samples"):
        fn(ctx, model, seed=0, n_samples=n_samples, **kw)


# --- sampling pick rules ------------------------------------------------------

class FixedRng:
    """Hands the pick a set uniform `u` and counts the draws it asks for."""

    def __init__(self, u):
        self.u = u
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.u


def below(x):
    return float(np.nextafter(x, 0.0))


def assert_picks(pick, dist, cases):
    """Each (u, token): the pick returns token for that uniform, drawing once."""
    for u, token in cases:
        rng = FixedRng(u)
        assert pick(np.array(dist), rng) == token, u
        assert rng.calls == 1


def test_truncated_pick_renormalizes_top_k():
    # top-2 of {0.5, 0.3, 0.2} renormalizes to [0.625, 0.375]: 0.625 separates 0 and 1
    assert_picks(D.truncated_pick(2), [0.5, 0.3, 0.2],
                 [(0.0, 0), (below(0.625), 0), (0.625, 1), (below(1.0), 1)])


def test_truncated_pick_k1_is_greedy():
    pick = D.truncated_pick(1)
    assert pick(np.array([0.2, 0.7, 0.1]), np.random.default_rng(0)) == 1


def test_truncated_pick_rejects_bad_k():
    with pytest.raises(ValueError):
        D.truncated_pick(0)


def test_nucleus_pick_hand_case():
    # {0.5, 0.3, 0.2} at p=0.75 keeps {0, 1} renormalized to [0.625, 0.375]
    assert_picks(D.nucleus_pick(0.75), [0.5, 0.3, 0.2],
                 [(0.0, 0), (below(0.625), 0), (0.625, 1), (below(1.0), 1)])


def test_nucleus_minimal_prefix_property():
    # cutoff is the smallest prefix whose mass reaches p: at p=0.5 only token 0
    assert_picks(D.nucleus_pick(0.5), [0.5, 0.3, 0.2], [(0.0, 0), (below(1.0), 0)])


def test_nucleus_p_below_max_is_greedy():
    pick = D.nucleus_pick(0.1)
    assert pick(np.array([0.2, 0.7, 0.1]), np.random.default_rng(0)) == 1


def test_nucleus_p_one_keeps_everything():
    # the CDF [0.5, 0.8, 1.0] runs over tokens in probability order
    assert_picks(D.nucleus_pick(1.0), [0.5, 0.3, 0.2],
                 [(below(0.5), 0), (0.5, 1), (below(0.8), 1), (0.8, 2), (below(1.0), 2)])
    assert_picks(D.nucleus_pick(1.0), [0.2, 0.5, 0.3],
                 [(below(0.5), 1), (0.5, 2), (below(0.8), 2), (0.8, 0), (below(1.0), 0)])


def test_picks_end_the_cdf_at_exactly_one():
    # the running sum of ten renormalized 0.1s ends at 1 - 2**-53, below the largest
    # uniform: only the CDF divided by its last entry, as `choice` divides, keeps it
    dist = np.full(10, 0.1)
    for pick in (D.truncated_pick(10), D.nucleus_pick(1.0)):
        assert_picks(pick, dist, [(below(0.1), 0), (below(1.0), 9)])


def choice_truncated(k):
    """The earlier top-k pick, drawing with `Generator.choice`: the oracle."""
    def pick(dist, rng):
        top = np.argsort(-dist, kind="stable")[: min(k, dist.size)]
        return int(rng.choice(top, p=dist[top] / dist[top].sum()))
    return pick


def choice_nucleus(p):
    """The earlier nucleus pick, drawing with `Generator.choice`: the oracle."""
    def pick(dist, rng):
        order = np.argsort(-dist, kind="stable")
        nucleus = order[: int(np.searchsorted(np.cumsum(dist[order]), p - 1e-12)) + 1]
        return int(rng.choice(nucleus, p=dist[nucleus] / dist[nucleus].sum()))
    return pick


def oracle_case(g, i):
    """A softmax row of 1-40 tokens, k and p, by kind: spread, tied (logits
    rounded), uniform, very peaked, or k >= V with p = 1.0."""
    V = int(g.integers(1, 41))
    logits = g.normal(size=V) * (0.3, 3.0, 0.0, 40.0, 1.0)[i % 5]
    if i % 5 == 1:
        logits = np.round(logits)
    dist = np.exp(logits - logits.max())
    dist /= dist.sum()
    if i % 5 == 4:
        return dist, V + int(g.integers(0, 3)), 1.0
    return dist, int(g.integers(1, V + 1)), float(g.uniform(1e-3, 1.0))


def test_picks_match_generator_choice_oracle():
    g = np.random.default_rng(20260)
    kinds = {"tie": 0, "k>=V": 0, "p=1": 0, "one-token nucleus": 0}
    for i in range(5000):
        dist, k, p = oracle_case(g, i)
        seed = int(g.integers(2**32))
        for new, old in ((D.truncated_pick(k), choice_truncated(k)),
                         (D.nucleus_pick(p), choice_nucleus(p))):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert [new(dist, a) for _ in range(3)] == [old(dist, b) for _ in range(3)], i
            assert a.random() == b.random()     # the same number of draws
        kinds["tie"] += len(np.unique(dist)) < dist.size
        kinds["k>=V"] += k >= dist.size
        kinds["p=1"] += p == 1.0
        kinds["one-token nucleus"] += dist.max() >= p - 1e-12
    assert min(kinds.values()) >= 200, kinds


def test_picks_reject_an_all_nan_row():
    dist = np.full(4, np.nan)
    for pick in (D.truncated_pick(2), D.nucleus_pick(0.9),
                 choice_truncated(2), choice_nucleus(0.9)):
        with pytest.raises(ValueError):
            pick(dist, np.random.default_rng(0))


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
