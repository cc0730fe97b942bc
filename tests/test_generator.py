"""Transformer generator: memory layout, concept permutation invariance,
causal masking, loss semantics, trainability and vocabulary determinism."""

import codecs
import dataclasses
import math

import numpy as np
import pytest

from kgmoe import tensor as T
from kgmoe.generator import (BOS, EOS, PAD, UNK, DecoderCache, GeneratorInput, Vocab,
                             decoder_logits, encode_inputs, generation_loss,
                             init_generator_params, memory_next_dist,
                             sinusoidal_positions)
from kgmoe.moe import TrainConfig

from util import check_gradients


def small_setup(n_experts=2, seed=0, d_model=8, n_heads=2, layers=1, texts=None,
                expert_mode="prompt"):
    texts = texts or ["the cat sat on the mat", "a dog ran fast"]
    vocab = Vocab.build(texts, n_experts)
    cfg = TrainConfig(n_experts=n_experts, d_model=d_model, n_heads=n_heads,
                      n_encoder_layers=layers, n_decoder_layers=layers,
                      d_ff=16, max_len=16, expert_mode=expert_mode)
    rng = np.random.default_rng(seed)
    params = init_generator_params(rng, len(vocab), cfg)
    return vocab, cfg, params


def single_memory(inp, params, vocab, cfg):
    """The encoder memory [s, d] of one request, as decoding holds it."""
    return T.constant(encode_inputs([inp], params, vocab, cfg).data[0])


# --- vocabulary -------------------------------------------------------------

def test_vocab_layout_specials_then_experts():
    vocab = Vocab.build(["b a a"], 2)
    assert vocab.tokens[:4] == ["<pad>", "<bos>", "<eos>", "<unk>"]
    assert vocab.tokens[4:6] == ["<expert0>", "<expert1>"]
    assert vocab.tokens[6:] == ["a", "b"]   # frequency desc, then lexicographic


def test_vocab_frequency_then_lexicographic():
    vocab = Vocab.build(["z z q m m"], 1)
    assert vocab.tokens[5:] == ["m", "z", "q"]


def test_vocab_deterministic_across_builds():
    texts = ["some words appear here", "words appear twice here here"]
    a = Vocab.build(texts, 3)
    b = Vocab.build(texts, 3)
    assert a.tokens == b.tokens and a.content_hash() == b.content_hash()


def test_vocab_unknown_token_maps_to_unk():
    vocab = Vocab.build(["a b"], 1)
    assert vocab.encode("a zzz") == [vocab.ids["a"], UNK]


def test_vocab_decode_strips_control_tokens():
    vocab = Vocab.build(["hi there"], 1)
    ids = [BOS] + vocab.encode("hi there") + [EOS, PAD]
    assert vocab.decode(ids) == "hi there"


def test_vocab_expert_token_bounds():
    vocab = Vocab.build(["a"], 2)
    assert vocab.expert_token(0) == 4 and vocab.expert_token(1) == 5
    with pytest.raises(ValueError):
        vocab.expert_token(2)


def test_vocab_save_load_round_trip(tmp_path):
    vocab = Vocab.build(["alpha beta beta gamma"], 2)
    p = tmp_path / "vocab.txt"
    vocab.save(p)
    loaded = Vocab.load(p, 2)
    assert loaded.tokens == vocab.tokens
    assert loaded.content_hash() == vocab.content_hash()


def test_vocab_load_without_specials_names_file(tmp_path):
    p = tmp_path / "vocab.txt"
    p.write_text("alpha\nbeta\n")
    with pytest.raises(ValueError, match=r"vocab\.txt: vocabulary must start with the special"):
        Vocab.load(p, 1)


def test_vocab_load_undecodable_byte_names_file_and_line(tmp_path):
    p = tmp_path / "vocab.txt"
    p.write_bytes(b"<pad>\n<bos>\n<eos>\n<unk>\n<expert0>\ncaf\xe9\n")
    with pytest.raises(ValueError, match=r"vocab\.txt: undecodable line 6"):
        Vocab.load(p, 1)


def test_vocab_load_drops_leading_bom(tmp_path):
    body = "<pad>\n<bos>\n<eos>\n<unk>\n<expert0>\ncafé\n".encode()
    (tmp_path / "plain.txt").write_bytes(body)
    (tmp_path / "bom.txt").write_bytes(codecs.BOM_UTF8 + body)
    loaded = Vocab.load(tmp_path / "bom.txt", 1)
    assert loaded.tokens[0] == "<pad>"
    assert loaded.tokens == Vocab.load(tmp_path / "plain.txt", 1).tokens


def test_vocab_load_rejects_a_repeated_token_naming_both_lines(tmp_path):
    p = tmp_path / "vocab.txt"
    p.write_text("<pad>\n<bos>\n<eos>\n<unk>\n<expert0>\nfoo\nbar\nfoo\n")
    with pytest.raises(ValueError, match=r"vocab\.txt: line 8: 'foo' repeats line 6"):
        Vocab.load(p, 1)


@pytest.mark.parametrize("text, message", [
    # the file ends before <expert2>
    ("<pad>\n<bos>\n<eos>\n<unk>\n<expert0>\n", r"line 6: expected '<expert1>', got the end"),
    ("<pad>\n<bos>\n<eos>\n<unk>\n<expert0>\n<expert1>\n", r"line 7: expected '<expert2>'"),
    # a corpus token where an expert prefix belongs
    ("<pad>\n<bos>\n<eos>\n<unk>\n<expert0>\nfoo\nbar\nbaz\n",
     r"line 6: expected '<expert1>', got 'foo'"),
    ("<pad>\n<bos>\n<eos>\n<unk>\n<expert1>\n<expert0>\n<expert2>\n",
     r"line 5: expected '<expert0>', got '<expert1>'"),
    # blank lines are skipped but still counted
    ("<pad>\n<bos>\n<eos>\n<unk>\n\n<expert0>\n\nfoo\n", r"line 8: expected '<expert1>'")],
    ids=["ends-after-expert0", "ends-after-expert1", "corpus-token", "out-of-order", "blank-lines"])
def test_vocab_load_rejects_missing_expert_tokens_naming_the_line(tmp_path, text, message):
    p = tmp_path / "vocab.txt"
    p.write_text(text)
    with pytest.raises(ValueError, match=r"vocab\.txt: " + message):
        Vocab.load(p, 3)


def test_vocab_load_skips_blank_lines(tmp_path):
    p = tmp_path / "vocab.txt"
    p.write_text("<pad>\n<bos>\n\n<eos>\n<unk>\n<expert0>\n\nfoo\n")
    assert Vocab.load(p, 1).tokens == ["<pad>", "<bos>", "<eos>", "<unk>", "<expert0>", "foo"]


def test_config_rejects_bad_head_split():
    with pytest.raises(ValueError, match="n_heads"):
        TrainConfig(d_model=10, n_heads=4)


# --- encoder memory ---------------------------------------------------------

def test_prompt_memory_length_is_prefix_plus_inputs_plus_concepts():
    vocab, cfg, params = small_setup()
    x = vocab.encode("the cat sat")
    concepts = [[vocab.ids["dog"]], [vocab.ids["mat"], vocab.ids["cat"]]]
    inp = GeneratorInput(x, concepts, expert=1)
    memory = encode_inputs([inp], params, vocab, cfg)
    assert memory.shape == (1, 1 + len(x) + len(concepts), cfg.d_model)


def test_embed_memory_length_has_no_prefix():
    vocab, cfg, params = small_setup(expert_mode="embed")
    x = vocab.encode("a dog ran")
    inp = GeneratorInput(x, [[vocab.ids["cat"]]], expert=0)
    memory = encode_inputs([inp], params, vocab, cfg)
    assert memory.shape == (1, len(x) + 1, cfg.d_model)


def test_zero_concepts_reduces_to_plain_seq2seq_memory():
    vocab, cfg, params = small_setup()
    x = vocab.encode("the mat")
    inp = GeneratorInput(x, [], expert=0)
    memory = encode_inputs([inp], params, vocab, cfg)
    assert memory.shape == (1, 1 + len(x), cfg.d_model)


def test_concept_permutation_invariance_of_loss():
    vocab, cfg, params = small_setup(layers=2)
    x = vocab.encode("the cat")
    y = vocab.encode("a dog ran fast") + [EOS]
    concepts = [[vocab.ids["dog"]], [vocab.ids["mat"]], [vocab.ids["sat"], vocab.ids["on"]]]
    base = generation_loss([GeneratorInput(x, concepts, 0)], y, params, vocab, cfg).item()
    for perm in ([1, 0, 2], [2, 1, 0], [2, 0, 1]):
        permuted = [concepts[i] for i in perm]
        got = generation_loss([GeneratorInput(x, permuted, 0)], y, params, vocab, cfg).item()
        assert got == pytest.approx(base, abs=1e-9)


def test_expert_conditioning_changes_distribution_both_modes():
    vocab, cfg, params = small_setup()
    x = vocab.encode("the cat sat")

    def first_dist(expert, mode):
        mode_cfg = dataclasses.replace(cfg, expert_mode=mode)
        memory = single_memory(GeneratorInput(x, [], expert), params, vocab, mode_cfg)
        return memory_next_dist(memory, [[]], params, mode_cfg)[0]
    for mode in ("prompt", "embed"):
        assert np.abs(first_dist(0, mode) - first_dist(1, mode)).max() > 1e-9


def test_multiword_concept_uses_mean_of_token_rows():
    vocab, cfg, params = small_setup()
    a, b = vocab.ids["cat"], vocab.ids["dog"]
    x = vocab.encode("the mat")
    pair = GeneratorInput(x, [[a, b]], 0)
    # a synthetic token row equal to the mean must give the same memory
    mean_row = (params["gen.tok_embed"].data[a] + params["gen.tok_embed"].data[b]) / 2
    params["gen.tok_embed"].data[UNK] = mean_row
    single = GeneratorInput(x, [[UNK]], 0)
    m_pair = encode_inputs([pair], params, vocab, cfg)
    m_single = encode_inputs([single], params, vocab, cfg)
    assert np.allclose(m_pair.data, m_single.data, atol=1e-12)


def test_input_too_long_raises():
    vocab, cfg, params = small_setup()
    with pytest.raises(ValueError, match="max_len"):
        encode_inputs([GeneratorInput([UNK] * (cfg.max_len + 1), [], 0)],
                      params, vocab, cfg)


def test_unknown_mode_raises():
    with pytest.raises(ValueError, match="expert_mode"):
        TrainConfig(expert_mode="magic")


@pytest.mark.parametrize("expert_mode", ["prompt", "embed"])
@pytest.mark.parametrize("expert", [-1, 2])
def test_expert_out_of_range_raises(expert_mode, expert):
    vocab, cfg, params = small_setup(expert_mode=expert_mode)
    with pytest.raises(ValueError, match=f"invalid expert id {expert} for 2 experts"):
        encode_inputs([GeneratorInput([UNK], [], expert)], params, vocab, cfg)


def test_empty_concept_token_list_raises():
    vocab, cfg, params = small_setup()
    with pytest.raises(ValueError):
        encode_inputs([GeneratorInput([UNK], [[]], 0)], params, vocab, cfg)


@pytest.mark.parametrize("expert_mode", ["prompt", "embed"])
@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("n_concepts", [0, 3])
def test_batched_generation_loss_equals_single_calls_bit_for_bit(expert_mode, layers,
                                                                 n_concepts):
    vocab, cfg, params = small_setup(n_experts=3, expert_mode=expert_mode, layers=layers)
    x = vocab.encode("the cat sat")
    y = vocab.encode("a dog ran fast") + [EOS]
    words = ["dog", "mat", "cat", "ran", "on", "fast", "the", "sat", "a"]
    inps = []
    for z in range(3):
        # multi-token surfaces of different lengths per expert
        surfaces = [[vocab.ids[w] for w in words[z + i : z + i + 1 + (i + z) % 3]]
                    for i in range(n_concepts)]
        inps.append(GeneratorInput(x, surfaces, z))
    with T.no_grad():
        batched = generation_loss(inps, y, params, vocab, cfg)
        memory = encode_inputs(inps, params, vocab, cfg)
        assert batched.shape == (3,)
        assert memory.shape == (3, len(x) + n_concepts + (expert_mode == "prompt"), cfg.d_model)
        for z, inp in enumerate(inps):
            single = generation_loss([inp], y, params, vocab, cfg)
            assert batched.data[z] == single.item()
            assert np.array_equal(memory.data[z], encode_inputs([inp], params, vocab, cfg).data[0])


def test_batched_requests_must_share_input_and_concept_count():
    vocab, cfg, params = small_setup()
    x = vocab.encode("the cat")
    with pytest.raises(ValueError, match="share x_ids and the concept count"):
        encode_inputs([GeneratorInput(x, [], 0), GeneratorInput(x, [[UNK]], 1)],
                      params, vocab, cfg)
    with pytest.raises(ValueError, match="share x_ids and the concept count"):
        encode_inputs([GeneratorInput(x, [], 0), GeneratorInput(x[:1], [], 1)],
                      params, vocab, cfg)


# --- decoder ----------------------------------------------------------------

def test_causal_mask_blocks_future_tokens():
    vocab, cfg, params = small_setup(layers=2)
    x = vocab.encode("the cat")
    memory = single_memory(GeneratorInput(x, [], 0), params, vocab, cfg)
    with T.no_grad():
        short = decoder_logits(memory, [BOS, 5, 6], params, cfg).data
        long = decoder_logits(memory, [BOS, 5, 6, 7, 8], params, cfg).data
    # logits at early positions must not depend on appended future tokens
    assert np.allclose(short, long[:3], atol=1e-12)


def test_positional_table_is_shared_and_read_only():
    table = sinusoidal_positions(16, 8)
    assert sinusoidal_positions(16, 8) is table
    assert table.shape == (16, 8) and not np.array_equal(table[1], table[2])
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1.0
    assert sinusoidal_positions(16, 6) is not table


def test_loss_matches_stepwise_next_token_dists():
    vocab, cfg, params = small_setup(layers=2)
    x = vocab.encode("a dog")
    y = vocab.encode("the cat sat") + [EOS]
    inp = GeneratorInput(x, [[vocab.ids["mat"]]], 1)
    loss = generation_loss([inp], y, params, vocab, cfg).item()
    memory = single_memory(inp, params, vocab, cfg)
    nll = 0.0
    prefix = []
    for tok in y:
        [dist] = memory_next_dist(memory, [prefix], params, cfg)
        nll -= math.log(dist[tok])
        prefix.append(tok)
    assert loss == pytest.approx(nll / len(y), abs=1e-9)


def test_loss_requires_eos_and_nonempty_target():
    vocab, cfg, params = small_setup()
    inp = GeneratorInput(vocab.encode("the cat"), [], 0)
    with pytest.raises(ValueError):
        generation_loss([inp], [], params, vocab, cfg)
    with pytest.raises(ValueError):
        generation_loss([inp], vocab.encode("a dog"), params, vocab, cfg)


def test_next_token_dist_is_normalized():
    vocab, cfg, params = small_setup()
    memory = single_memory(GeneratorInput(vocab.encode("the"), [], 0), params, vocab, cfg)
    [d] = memory_next_dist(memory, [[5]], params, cfg)
    assert d.shape == (len(vocab),)
    assert d.sum() == pytest.approx(1.0, abs=1e-12)
    assert (d > 0).all()


def one_prefix_dist(memory, prefix, params, cfg):
    """The next-token distribution of one prefix over one memory [s, d], from the
    1-D decoder path that training takes."""
    with T.no_grad():
        logits = decoder_logits(memory, [BOS] + prefix, params, cfg).data[-1]
    e = np.exp(logits - logits.max())
    return e / e.sum()


@pytest.mark.parametrize("expert_mode", ["prompt", "embed"])
@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("d_model, n_heads", [(8, 2), (18, 3)])
@pytest.mark.parametrize("stacked", [False, True])
def test_batched_next_dist_rows_equal_one_prefix_calls_bit_for_bit(expert_mode, layers,
                                                                   d_model, n_heads, stacked):
    vocab, cfg, params = small_setup(n_experts=4, d_model=d_model, n_heads=n_heads,
                                          layers=layers, expert_mode=expert_mode)
    x = vocab.encode("the cat sat")
    words = ["dog", "mat", "cat", "ran", "on"]
    inps = [GeneratorInput(x, [[vocab.ids[w]] for w in words[z : z + 2]], z) for z in range(4)]
    with T.no_grad():
        stack = encode_inputs(inps, params, vocab, cfg)
    rng = np.random.default_rng(layers)
    for h in range(1, 5):
        for t in (0, 1, 4):
            prefixes = [rng.integers(4, len(vocab), t).tolist() for _ in range(h)]
            memory = T.constant(stack.data[:h]) if stacked else T.constant(stack.data[0])
            rows = memory_next_dist(memory, prefixes, params, cfg)
            assert rows.shape == (h, len(vocab))
            for i, prefix in enumerate(prefixes):
                own = T.constant(stack.data[i if stacked else 0])
                assert np.array_equal(rows[i], memory_next_dist(own, [prefix], params, cfg)[0])
                assert np.array_equal(rows[i], one_prefix_dist(own, prefix, params, cfg))


def test_batched_next_dist_rejects_ragged_prefixes_and_mismatched_memory():
    vocab, cfg, params = small_setup()
    x = vocab.encode("the cat")
    with T.no_grad():
        stack = encode_inputs([GeneratorInput(x, [], z) for z in (0, 1)], params, vocab, cfg)
    with pytest.raises(ValueError, match=r"one length, got lengths \[1, 2\]"):
        memory_next_dist(T.constant(stack.data[0]), [[5], [5, 6]], params, cfg)
    with pytest.raises(ValueError, match="2 rows for 3 prefixes"):
        memory_next_dist(stack, [[5], [6], [7]], params, cfg)


def cache_setup(expert_mode="prompt", layers=1, d_model=8, n_heads=2, stacked=False, h=3):
    """(cfg, params, memory [s, d] or [h, s, d], h token rows [BOS, ..] of 9 ids)."""
    vocab, cfg, params = small_setup(n_experts=h, d_model=d_model, n_heads=n_heads,
                                          layers=layers, expert_mode=expert_mode)
    x = vocab.encode("the cat sat")
    words = ["dog", "mat", "cat", "ran", "on"]
    inps = [GeneratorInput(x, [[vocab.ids[w]] for w in words[z : z + 2]], z) for z in range(h)]
    with T.no_grad():
        stack = encode_inputs(inps, params, vocab, cfg)
    memory = stack if stacked else T.constant(stack.data[0])
    ids = np.random.default_rng(layers).integers(4, len(vocab), (h, 8))
    return cfg, params, memory, np.hstack([np.full((h, 1), BOS), ids])


def cached_steps(memory, ids, params, cfg, cache=None):
    """The logits [H, V] of each position of ids [H, t], fed one position per call."""
    cache = cache or DecoderCache()
    with T.no_grad():
        return [decoder_logits(memory, ids[:, i : i + 1], params, cfg, cache).data[:, 0]
                for i in range(ids.shape[1])]


@pytest.mark.parametrize("expert_mode", ["prompt", "embed"])
@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("d_model, n_heads", [(8, 2), (18, 3)])
@pytest.mark.parametrize("stacked", [False, True])
def test_cached_steps_equal_teacher_forced_rows(expert_mode, layers, d_model, n_heads,
                                                stacked):
    cfg, params, memory, ids = cache_setup(expert_mode, layers, d_model, n_heads, stacked)
    with T.no_grad():
        full = decoder_logits(memory, ids, params, cfg).data
    steps = cached_steps(memory, ids, params, cfg)
    assert len(steps) == ids.shape[1]
    for i, step in enumerate(steps):
        assert np.allclose(step, full[:, i], rtol=0, atol=1e-12)
    # memory_next_dist with a cache feeds only the newest token of each prefix
    cache = DecoderCache()
    for i in range(ids.shape[1]):
        prefixes = ids[:, 1 : i + 1].tolist()
        cached = memory_next_dist(memory, prefixes, params, cfg, cache)
        assert cache.length == i + 1
        assert np.allclose(cached, memory_next_dist(memory, prefixes, params, cfg),
                           rtol=0, atol=1e-12)


@pytest.mark.parametrize("expert_mode", ["prompt", "embed"])
@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("d_model, n_heads", [(8, 2), (18, 3)])
@pytest.mark.parametrize("stacked", [False, True])
def test_cached_step_rows_equal_one_hypothesis_steps_bit_for_bit(expert_mode, layers,
                                                                  d_model, n_heads, stacked):
    cfg, params, memory, ids = cache_setup(expert_mode, layers, d_model, n_heads, stacked)
    # after 4 positions, row r continues from row parents[r]'s cache (a beam reorder)
    parents = [2, 0, 0]
    cache = DecoderCache()
    head = cached_steps(memory, ids[:, :4], params, cfg, cache)
    cache.take(parents)
    assert cache.rows == 3
    tail = cached_steps(memory if not stacked else T.constant(memory.data[parents]),
                        ids[:, 4:], params, cfg, cache)
    for r, parent in enumerate(parents):
        own = memory if not stacked else T.constant(memory.data[parent])
        alone = DecoderCache()
        one_head = cached_steps(own, ids[parent : parent + 1, :4], params, cfg, alone)
        one_tail = cached_steps(own, ids[r : r + 1, 4:], params, cfg, alone)
        assert all(np.array_equal(a[parent], b[0]) for a, b in zip(head, one_head))
        assert all(np.array_equal(a[r], b[0]) for a, b in zip(tail, one_tail))


def test_cached_step_past_max_len_raises_as_teacher_forcing_does():
    cfg, params, memory, _ = cache_setup()
    ids = np.full((3, cfg.max_len + 1), 7)
    with pytest.raises(ValueError) as forced:
        decoder_logits(memory, ids, params, cfg)
    cache = DecoderCache()
    cached_steps(memory, ids[:, : cfg.max_len], params, cfg, cache)
    with pytest.raises(ValueError) as cached:
        cached_steps(memory, ids[:, cfg.max_len :], params, cfg, cache)
    # a prefix of max_len tokens plus BOS
    with pytest.raises(ValueError) as next_dist:
        memory_next_dist(memory, [[7] * cfg.max_len], params, cfg)
    assert str(cached.value) == str(forced.value) == str(next_dist.value) == (
        f"decoder length {cfg.max_len + 1} exceeds max_len {cfg.max_len}")


def test_cache_rejects_rows_or_positions_that_do_not_match_the_tokens():
    cfg, params, memory, ids = cache_setup()
    cache = DecoderCache()
    cached_steps(memory, ids[:, :2], params, cfg, cache)
    with pytest.raises(ValueError, match="cache holds 3 rows for 2 hypotheses"):
        cached_steps(memory, ids[:2, 2:3], params, cfg, cache)
    cache.take([1])
    with pytest.raises(ValueError, match="cache holds 1 rows for 3 hypotheses"):
        cached_steps(memory, ids[:, 2:3], params, cfg, cache)
    # prefixes must extend the positions the cache holds
    with pytest.raises(ValueError, match="cache holds 2 positions for prefixes of length 1"):
        memory_next_dist(memory, ids[1:2, 1:2].tolist(), params, cfg, cache)


# --- gradients and trainability ---------------------------------------------

def test_generation_loss_gradients_match_finite_differences():
    vocab, cfg, params = small_setup(layers=1, expert_mode="embed")
    x = vocab.encode("the cat")
    y = vocab.encode("a dog ran") + [EOS]
    inp = GeneratorInput(x, [[vocab.ids["mat"]]], 1)

    def forward():
        return generation_loss([inp], y, params, vocab, cfg)

    loss = forward()
    loss.backward()
    check_gradients(lambda: forward().item(), params,
                    np.random.default_rng(9), n_checks=40, rel_tol=1e-5)


def test_overfits_single_pair():
    vocab, cfg, params = small_setup(layers=1, d_model=16, seed=3)
    x = vocab.encode("the cat sat")
    y = vocab.encode("a dog ran fast") + [EOS]
    inp = GeneratorInput(x, [[vocab.ids["mat"]]], 0)
    opt = T.Adam(params, lr=1e-2)
    loss_val = None
    for _ in range(300):
        opt.zero_grad()
        loss = generation_loss([inp], y, params, vocab, cfg)
        loss_val = loss.item()
        if loss_val < 0.01:
            break
        loss.backward()
        opt.step()
    assert loss_val < 0.01

    # greedy decoding reproduces the memorized target
    memory = single_memory(inp, params, vocab, cfg)
    out, prefix = [], []
    for _ in range(cfg.max_len - 1):
        tok = int(memory_next_dist(memory, [prefix], params, cfg)[0].argmax())
        prefix.append(tok)
        if tok == EOS:
            break
        out.append(tok)
    assert vocab.decode(out) == "a dog ran fast"
