"""Small transformer encoder-decoder conditioned on selected concepts.

The encoder memory is [expert prefix token?] + input tokens + concept tokens.
Positional encodings are applied to the input sequence only, so the concept
block is order-free and cross-attention over it is permutation invariant.  They
are fixed sinusoids (Vaswani et al. 2017), read from one cached read-only
table per `(cfg.max_len, cfg.d_model)`; no caller passes them.
Expert conditioning is either an added per-expert embedding ("embed" mode) or a
reserved prefix token ("prompt" mode).  The shape, the expert count and the
expert mode are read from the model's `TrainConfig`, passed as `cfg`.

`encode_inputs` stacks K requests that share an input on a leading batch axis
that `decoder_logits` and `generation_loss` carry through; slice z equals a
one-request call bit for bit.  `memory_next_dist` likewise runs H decoder
prefixes of one length in one `decoder_logits` call.

The decoder has one path, through a `DecoderCache` (KV caching, Pope et al.
2022): it holds each layer's cross-attention K/V, projected from the memory
once, and the self-attention K/V of every position fed so far, one row per
hypothesis.  Teacher forcing is a call on an empty cache that feeds every
position; a decode step feeds `[H, 1]` new tokens, and `DecoderCache.take`
reorders the rows.  Stepped logits equal the teacher-forced rows within
1e-12, not bit for bit: a one-row matmul rounds differently from row t of a
`[t, d]` one.  The stream stays `[H, 1, d]`, where numpy runs one product per
row, so row h equals a one-hypothesis step bit for bit.
"""

from __future__ import annotations

import functools
import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .kg import text_lines

if TYPE_CHECKING:
    from .moe import TrainConfig

PAD, BOS, EOS, UNK = 0, 1, 2, 3
_SPECIALS = ["<pad>", "<bos>", "<eos>", "<unk>"]


class Vocab:
    """Deterministic token table: specials, expert prefix tokens, then corpus
    tokens ordered by descending frequency with lexicographic tie-break."""

    def __init__(self, tokens: list[str], n_experts: int):
        self.tokens = list(tokens)
        self.n_experts = n_experts
        self.ids = {t: i for i, t in enumerate(self.tokens)}
        if self.tokens[:4] != _SPECIALS:
            raise ValueError("vocabulary must start with the special tokens")

    @classmethod
    def build(cls, texts, n_experts: int) -> "Vocab":
        counts = Counter()
        for text in texts:
            counts.update(text.lower().split())
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        tokens = list(_SPECIALS)
        tokens += [f"<expert{z}>" for z in range(n_experts)]
        tokens += [tok for tok, _ in ordered if tok not in set(tokens)]
        return cls(tokens, n_experts)

    def __len__(self):
        return len(self.tokens)

    def expert_token(self, z: int) -> int:
        if not 0 <= z < self.n_experts:
            raise ValueError(f"invalid expert id {z} for {self.n_experts} experts")
        return 4 + z

    def encode(self, text: str) -> list[int]:
        return [self.ids.get(tok, UNK) for tok in text.lower().split()]

    def decode(self, ids) -> str:
        return " ".join(self.tokens[i] for i in ids if i not in (PAD, BOS, EOS))

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for tok in self.tokens:
                f.write(tok + "\n")

    @classmethod
    def load(cls, path, n_experts: int) -> "Vocab":
        """Read a `save`d table, skipping blank lines.  After the special tokens
        the file must hold `<expert0>`, `<expert1>`, .. in order, and no token twice."""
        numbered = [(n, tok) for n, line in text_lines(path) if (tok := line.rstrip("\n"))]
        try:
            vocab = cls([tok for _, tok in numbered], n_experts)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
        first: dict[str, int] = {}
        for i, (n, tok) in enumerate(numbered):
            want = f"<expert{i - 4}>" if 4 <= i < 4 + n_experts else tok
            if tok != want:
                raise ValueError(f"{path}: line {n}: expected {want!r}, got {tok!r}")
            if first.setdefault(tok, n) != n:
                raise ValueError(f"{path}: line {n}: {tok!r} repeats line {first[tok]}")
        if len(numbered) < 4 + n_experts:
            raise ValueError(f"{path}: line {numbered[-1][0] + 1}: expected "
                             f"'<expert{len(numbered) - 4}>', got the end of the file")
        return vocab

    def content_hash(self) -> str:
        digest = hashlib.sha256("\n".join(self.tokens).encode("utf-8"))
        return digest.hexdigest()[:16]


@dataclass
class GeneratorInput:
    """One encoding request: input token ids, concept token-id lists, expert id."""

    x_ids: list[int]
    concept_token_ids: list[list[int]]   # surface tokens per selected concept
    expert: int


@functools.lru_cache(maxsize=None)
def sinusoidal_positions(max_len: int, d: int) -> np.ndarray:
    """Shared read-only sinusoidal encodings [max_len, d] (Vaswani et al. 2017)."""
    pos = np.arange(max_len)[:, None]
    i = np.arange(d)[None, :]
    angles = pos / np.power(10000.0, (2 * (i // 2)) / d)
    enc = np.zeros((max_len, d))
    enc[:, 0::2] = np.sin(angles[:, 0::2])
    enc[:, 1::2] = np.cos(angles[:, 1::2])
    enc.flags.writeable = False
    return enc


def init_generator_params(rng: np.random.Generator, vocab_size: int,
                          cfg: TrainConfig) -> dict[str, T.Tensor]:
    d, ff = cfg.d_model, cfg.d_ff
    params = {
        "gen.tok_embed": T.uniform_init(rng, (vocab_size, d)),
        "gen.expert_embed": T.uniform_init(rng, (cfg.n_experts, d)),
        "gen.out_w": T.glorot_init(rng, (d, vocab_size)),
        "gen.out_b": T.zeros_init((vocab_size,)),
    }

    def block(prefix, cross: bool):
        names = ["self"] + (["cross"] if cross else [])
        for attn in names:
            for mat in ("wq", "wk", "wv", "wo"):
                params[f"{prefix}.{attn}.{mat}"] = T.glorot_init(rng, (d, d))
            params[f"{prefix}.{attn}.ln_g"] = T.Tensor(np.ones(d), requires_grad=True)
            params[f"{prefix}.{attn}.ln_b"] = T.zeros_init((d,))
        params[f"{prefix}.ff.w1"] = T.glorot_init(rng, (d, ff))
        params[f"{prefix}.ff.b1"] = T.zeros_init((ff,))
        params[f"{prefix}.ff.w2"] = T.glorot_init(rng, (ff, d))
        params[f"{prefix}.ff.b2"] = T.zeros_init((d,))
        params[f"{prefix}.ff.ln_g"] = T.Tensor(np.ones(d), requires_grad=True)
        params[f"{prefix}.ff.ln_b"] = T.zeros_init((d,))

    for layer in range(cfg.n_encoder_layers):
        block(f"gen.enc{layer}", cross=False)
    for layer in range(cfg.n_decoder_layers):
        block(f"gen.dec{layer}", cross=True)
    params["gen.enc_ln_g"] = T.Tensor(np.ones(d), requires_grad=True)
    params["gen.enc_ln_b"] = T.zeros_init((d,))
    params["gen.dec_ln_g"] = T.Tensor(np.ones(d), requires_grad=True)
    params["gen.dec_ln_b"] = T.zeros_init((d,))
    return params


class DecoderCache:
    """Attention keys and values of a decoder fed a few positions per call, one
    row per hypothesis, for `decoder_logits(..., cache)`.  The first call fixes
    the row count and projects each layer's cross-attention K/V from the memory;
    every call appends its positions' self-attention K/V."""

    def __init__(self):
        self.memory_kv: dict[str, tuple[T.Tensor, T.Tensor]] = {}  # cross-attention prefix -> (k, v)
        self.kv: dict[str, tuple[np.ndarray, ...]] = {}            # self-attention prefix -> (k, v)
        self.length = 0                                            # positions fed so far
        self.rows: int | None = None

    def grow(self, prefix: str):
        """The `attention_sublayer` hook of self-attention `prefix`: it appends a
        call's new keys and values to those held and returns all of them."""
        def extend(k: np.ndarray, v: np.ndarray):
            held = self.kv.get(prefix)
            if held is not None:
                k, v = (np.concatenate(pair, axis=-2) for pair in zip(held, (k, v)))
            self.kv[prefix] = (k, v)
            return k, v
        return extend

    def take(self, rows: list[int]) -> None:
        """Keep the hypothesis rows `rows` (each new row's parent), in that
        order; a memory K/V shared by every row stays as it is."""
        if rows == list(range(self.rows or 0)):
            return
        rows = np.asarray(rows, dtype=np.int64)
        self.kv = {name: tuple(x[rows] for x in kv) for name, kv in self.kv.items()}
        self.memory_kv = {name: tuple(T.constant(x.data[rows]) if x.data.ndim == 3 else x
                                      for x in kv) for name, kv in self.memory_kv.items()}
        self.rows = len(rows)


_SELF_ATTENTION = ("ln_g", "ln_b", "wq", "wk", "wv", "wo")
_FEED_FORWARD = ("ln_g", "ln_b", "w1", "b1", "w2", "b2")


def _weights(params, prefix: str, names) -> list[T.Tensor]:
    return [params[f"{prefix}.{name}"] for name in names]


def _concept_embeddings(inps: list[GeneratorInput], n_concepts: int, params) -> T.Tensor:
    """Mean-pooled token embeddings [K, n_concepts, d] of every request's
    concepts, from one gather; no positional encoding."""
    flat, seg = [], []
    for i, toks in enumerate(c for inp in inps for c in inp.concept_token_ids):
        if not toks:
            raise ValueError("concept with no surface tokens")
        flat.extend(toks)
        seg.extend([i] * len(toks))
    rows = T.embedding(params["gen.tok_embed"], flat)
    pooled = T.segment_mean(rows, seg, len(inps) * n_concepts)
    return T.reshape(pooled, (len(inps), n_concepts, pooled.shape[-1]))


def encode_inputs(inps: list[GeneratorInput], params: dict[str, T.Tensor], vocab: Vocab,
                  cfg: TrainConfig) -> T.Tensor:
    """Encoder memory [K, s, d] of K requests, each over [prefix?] + x + concepts
    with positions only on x.  The requests share x_ids and the concept count;
    the input embedding is computed once and every concept surface goes
    through one gather."""
    x_ids, n_concepts = inps[0].x_ids, len(inps[0].concept_token_ids)
    if any(inp.x_ids != x_ids or len(inp.concept_token_ids) != n_concepts for inp in inps):
        raise ValueError("batched requests must share x_ids and the concept count")
    if len(x_ids) > cfg.max_len:
        raise ValueError(f"input length {len(x_ids)} exceeds max_len {cfg.max_len}")
    experts = [inp.expert for inp in inps]
    for z in experts:
        if not 0 <= z < cfg.n_experts:
            raise ValueError(f"invalid expert id {z} for {cfg.n_experts} experts")

    x_emb = T.add(T.embedding(params["gen.tok_embed"], x_ids),
                  T.constant(sinusoidal_positions(cfg.max_len, cfg.d_model)[: len(x_ids)]))
    parts = [T.broadcast_to(x_emb, (len(inps),) + x_emb.shape)]
    if n_concepts:
        parts.append(_concept_embeddings(inps, n_concepts, params))
    if cfg.expert_mode == "prompt":
        parts.insert(0, T.embedding(params["gen.tok_embed"],
                                    [[vocab.expert_token(z)] for z in experts]))
    stream = T.concat(parts, axis=1)
    if cfg.expert_mode == "embed":
        stream = T.add(stream, T.embedding(params["gen.expert_embed"], [[z] for z in experts]))

    for layer in range(cfg.n_encoder_layers):
        p = f"gen.enc{layer}"
        stream = T.attention_sublayer(stream, *_weights(params, f"{p}.self", _SELF_ATTENTION),
                                      cfg.n_heads)
        stream = T.feed_forward_sublayer(stream, *_weights(params, f"{p}.ff", _FEED_FORWARD))
    return T.layer_norm(stream, params["gen.enc_ln_g"], params["gen.enc_ln_b"])


@functools.lru_cache(maxsize=None)
def _causal_mask(max_len: int) -> np.ndarray:
    """Shared read-only additive mask hiding future positions; length t uses [:t, :t]."""
    mask = np.triu(np.full((max_len, max_len), -1e9), k=1)
    mask.flags.writeable = False
    return mask


def decoder_logits(memory: T.Tensor, dec_ids, params, cfg: TrainConfig,
                   cache: DecoderCache | None = None) -> T.Tensor:
    """Logits [..., t, vocab] for the next token at each position of dec_ids
    [t] or [H, t], over a memory [..., s, d].  A 1-D dec_ids keeps the stream
    [t, d] until the first cross-attention, so layer 0's self-attention runs
    once however many memories share it.

    dec_ids continues the sequences the cache holds from position
    `cache.length` on; without a cache, an empty one starts them at position
    0.  Earlier positions' self-attention K/V and the memory's cross-attention
    K/V come from the cache, which takes the new positions' K/V."""
    cache = DecoderCache() if cache is None else cache
    dec_ids = np.asarray(dec_ids, dtype=np.int64)
    start, t = cache.length, dec_ids.shape[-1]
    if cache.rows not in (None, len(dec_ids)):
        raise ValueError(f"decoder cache holds {cache.rows} rows "
                         f"for {len(dec_ids)} hypotheses")
    if start + t > cfg.max_len:
        raise ValueError(f"decoder length {start + t} exceeds max_len {cfg.max_len}")
    stream = T.add(T.embedding(params["gen.tok_embed"], dec_ids),
                   T.constant(sinusoidal_positions(cfg.max_len, cfg.d_model)[start:start + t]))
    mask = _causal_mask(cfg.max_len)[start:start + t, :start + t]
    for layer in range(cfg.n_decoder_layers):
        p = f"gen.dec{layer}"
        stream = T.attention_sublayer(stream, *_weights(params, f"{p}.self", _SELF_ATTENTION),
                                      cfg.n_heads, mask, grow=cache.grow(f"{p}.self"))
        kv = cache.memory_kv.get(f"{p}.cross")
        if kv is None:
            kv = cache.memory_kv[f"{p}.cross"] = (T.matmul(memory, params[f"{p}.cross.wk"]),
                                                 T.matmul(memory, params[f"{p}.cross.wv"]))
        gain, bias, wq, wo = _weights(params, f"{p}.cross", ("ln_g", "ln_b", "wq", "wo"))
        stream = T.attention_sublayer(stream, gain, bias, wq, *kv, wo, cfg.n_heads,
                                      project=False)
        stream = T.feed_forward_sublayer(stream, *_weights(params, f"{p}.ff", _FEED_FORWARD))
    cache.length, cache.rows = start + t, len(dec_ids)
    stream = T.layer_norm(stream, params["gen.dec_ln_g"], params["gen.dec_ln_b"])
    return T.add(T.matmul(stream, params["gen.out_w"]), params["gen.out_b"])


def generation_loss(inps: list[GeneratorInput], y_ids: list[int], params, vocab: Vocab,
                    cfg: TrainConfig) -> T.Tensor:
    """Teacher-forced mean token NLL of y (which must end with EOS) under each
    of K requests that share x_ids and the concept count: a [K] tensor from one
    encoder pass and one decoder pass."""
    if not y_ids or y_ids[-1] != EOS:
        raise ValueError("target sequence must end with EOS")
    memory = encode_inputs(inps, params, vocab, cfg)
    dec_in = [BOS] + list(y_ids[:-1])
    logits = decoder_logits(memory, dec_in, params, cfg)
    return T.softmax_cross_entropy(logits, y_ids)


def memory_next_dist(memory: T.Tensor, prefixes: list[list[int]], params,
                     cfg: TrainConfig, cache: DecoderCache | None = None) -> np.ndarray:
    """Next-token distributions [H, vocab] of H prefixes of one length, from one
    decoder call over an encoder memory [s, d] shared by every prefix or
    [H, s, d], one per prefix.  Row h equals a one-prefix call bit for bit.

    The call feeds only the positions the cache does not hold (row h for
    prefix h): without a cache, all of them; in decoding, each prefix's newest
    token.  Once the cache holds rows, the memory's keys and values come from
    it and the memory is not read, so a stacked memory need not match the
    prefixes any more."""
    cache = DecoderCache() if cache is None else cache
    lengths = sorted({len(p) for p in prefixes})
    if len(lengths) != 1:
        raise ValueError(f"prefixes must share one length, got lengths {lengths}")
    if memory.data.ndim == 3 and memory.shape[0] != len(prefixes) and cache.rows is None:
        raise ValueError(f"stacked memory holds {memory.shape[0]} rows "
                         f"for {len(prefixes)} prefixes")
    if cache.length > lengths[0]:
        raise ValueError(f"decoder cache holds {cache.length} positions "
                         f"for prefixes of length {lengths[0]}")
    dec_ids = [[BOS, *p][cache.length:] for p in prefixes]
    with T.no_grad():
        logits = decoder_logits(memory, dec_ids, params, cfg, cache).data[:, -1]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)
