"""Small transformer encoder-decoder conditioned on selected concepts.

The encoder memory is [expert prefix token?] + input tokens + concept tokens.
Positional encodings are applied to the input sequence only, so the concept
block is order-free and cross-attention over it is permutation invariant.
Expert conditioning is either an added per-expert embedding ("embed" mode) or a
reserved prefix token ("prompt" mode).  The shape, the expert count and the
expert mode are read from the model's `TrainConfig`, passed as `cfg`.

`encode_inputs` stacks K requests that share an input on a leading batch axis
that `decoder_logits` and `generation_loss` carry through; slice z equals a
one-request call bit for bit.  `memory_next_dist` likewise runs H decoder
prefixes of one length in one `decoder_logits` call.
"""

from __future__ import annotations

import functools
import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T

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
        with open(path, encoding="utf-8") as f:
            numbered = [(n, tok) for n, line in enumerate(f, 1) if (tok := line.rstrip("\n"))]
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


def sinusoidal_positions(max_len: int, d: int) -> np.ndarray:
    pos = np.arange(max_len)[:, None]
    i = np.arange(d)[None, :]
    angles = pos / np.power(10000.0, (2 * (i // 2)) / d)
    enc = np.zeros((max_len, d))
    enc[:, 0::2] = np.sin(angles[:, 0::2])
    enc[:, 1::2] = np.cos(angles[:, 1::2])
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


def _attention(q_in: T.Tensor, kv_in: T.Tensor, params, prefix: str, cfg: TrainConfig,
               mask: np.ndarray | None = None) -> T.Tensor:
    q = T.matmul(q_in, params[f"{prefix}.wq"])
    k = T.matmul(kv_in, params[f"{prefix}.wk"])
    v = T.matmul(kv_in, params[f"{prefix}.wv"])
    return T.matmul(T.attention(q, k, v, cfg.n_heads, mask), params[f"{prefix}.wo"])


def _sublayer(x: T.Tensor, params, prefix: str, fn) -> T.Tensor:
    # pre-LN residual block
    normed = T.layer_norm(x, params[f"{prefix}.ln_g"], params[f"{prefix}.ln_b"])
    return T.add(x, fn(normed))


def _feed_forward(x: T.Tensor, params, prefix: str) -> T.Tensor:
    hidden = T.relu(T.add(T.matmul(x, params[f"{prefix}.w1"]), params[f"{prefix}.b1"]))
    return T.add(T.matmul(hidden, params[f"{prefix}.w2"]), params[f"{prefix}.b2"])


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
                  cfg: TrainConfig, positions: np.ndarray) -> T.Tensor:
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
                  T.constant(positions[: len(x_ids)]))
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
        prefix_name = f"gen.enc{layer}"
        stream = _sublayer(stream, params, f"{prefix_name}.self",
                           lambda s, p=prefix_name: _attention(s, s, params, f"{p}.self", cfg))
        stream = _sublayer(stream, params, f"{prefix_name}.ff",
                           lambda s, p=prefix_name: _feed_forward(s, params, f"{p}.ff"))
    return T.layer_norm(stream, params["gen.enc_ln_g"], params["gen.enc_ln_b"])


@functools.lru_cache(maxsize=None)
def _causal_mask(max_len: int) -> np.ndarray:
    """Shared read-only additive mask hiding future positions; length t uses [:t, :t]."""
    mask = np.triu(np.full((max_len, max_len), -1e9), k=1)
    mask.flags.writeable = False
    return mask


def decoder_logits(memory: T.Tensor, dec_ids, params, cfg: TrainConfig,
                   positions: np.ndarray) -> T.Tensor:
    """Logits [..., t, vocab] for the next token at each position of dec_ids
    [t] or [H, t], over a memory [..., s, d].  A 1-D dec_ids keeps the stream
    [t, d] until the first cross-attention, so layer 0's self-attention runs
    once however many memories share it."""
    dec_ids = np.asarray(dec_ids, dtype=np.int64)
    t = dec_ids.shape[-1]
    if t > cfg.max_len:
        raise ValueError(f"decoder length {t} exceeds max_len {cfg.max_len}")
    stream = T.add(T.embedding(params["gen.tok_embed"], dec_ids), T.constant(positions[:t]))
    mask = _causal_mask(cfg.max_len)[:t, :t]
    for layer in range(cfg.n_decoder_layers):
        p = f"gen.dec{layer}"
        stream = _sublayer(stream, params, f"{p}.self",
                           lambda s, p=p: _attention(s, s, params, f"{p}.self", cfg, mask=mask))
        stream = _sublayer(stream, params, f"{p}.cross",
                           lambda s, p=p: _attention(s, memory, params, f"{p}.cross", cfg))
        stream = _sublayer(stream, params, f"{p}.ff",
                           lambda s, p=p: _feed_forward(s, params, f"{p}.ff"))
    stream = T.layer_norm(stream, params["gen.dec_ln_g"], params["gen.dec_ln_b"])
    return T.add(T.matmul(stream, params["gen.out_w"]), params["gen.out_b"])


def generation_loss(inps: list[GeneratorInput], y_ids: list[int], params, vocab: Vocab,
                    cfg: TrainConfig, positions: np.ndarray) -> T.Tensor:
    """Teacher-forced mean token NLL of y (which must end with EOS) under each
    of K requests that share x_ids and the concept count: a [K] tensor from one
    encoder pass and one decoder pass."""
    if not y_ids or y_ids[-1] != EOS:
        raise ValueError("target sequence must end with EOS")
    memory = encode_inputs(inps, params, vocab, cfg, positions)
    dec_in = [BOS] + list(y_ids[:-1])
    logits = decoder_logits(memory, dec_in, params, cfg, positions)
    return T.softmax_cross_entropy(logits, y_ids)


def memory_next_dist(memory: T.Tensor, prefixes: list[list[int]], params,
                     cfg: TrainConfig, positions: np.ndarray) -> np.ndarray:
    """Next-token distributions [H, vocab] of H prefixes of one length, from one
    decoder call over an encoder memory [s, d] shared by every prefix or
    [H, s, d], one per prefix.  Row h equals a one-prefix call bit for bit."""
    lengths = sorted({len(p) for p in prefixes})
    if len(lengths) != 1:
        raise ValueError(f"prefixes must share one length, got lengths {lengths}")
    if memory.data.ndim == 3 and memory.shape[0] != len(prefixes):
        raise ValueError(f"stacked memory holds {memory.shape[0]} rows "
                         f"for {len(prefixes)} prefixes")
    if lengths[0] + 1 > cfg.max_len:
        raise ValueError(f"prefix length {lengths[0]} exceeds max_len {cfg.max_len}")
    with T.no_grad():
        logits = decoder_logits(memory, [[BOS, *p] for p in prefixes], params, cfg,
                                positions).data[:, -1]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)
