"""Small transformer encoder-decoder conditioned on selected concepts.

The encoder memory is [expert prefix token?] + input tokens + concept tokens.
Positional encodings are applied to the input sequence only, so the concept
block is order-free and cross-attention over it is permutation invariant.
Expert conditioning is either an added per-expert embedding ("embed" mode) or a
reserved prefix token ("prompt" mode).  The shape, the expert count and the
expert mode are read from the model's `TrainConfig`, passed as `cfg`.
"""

from __future__ import annotations

import hashlib
import math
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
        with open(path, encoding="utf-8") as f:
            tokens = [line.rstrip("\n") for line in f if line.rstrip("\n")]
        try:
            return cls(tokens, n_experts)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None

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
    d, h = cfg.d_model, cfg.n_heads
    dh = d // h
    tq, tk = q_in.shape[0], kv_in.shape[0]

    def split_heads(x, t):
        return T.transpose(T.reshape(x, (t, h, dh)), (1, 0, 2))

    q = split_heads(T.matmul(q_in, params[f"{prefix}.wq"]), tq)
    k = split_heads(T.matmul(kv_in, params[f"{prefix}.wk"]), tk)
    v = split_heads(T.matmul(kv_in, params[f"{prefix}.wv"]), tk)
    scores = T.scale(T.matmul(q, T.transpose(k, (0, 2, 1))), 1.0 / math.sqrt(dh))
    if mask is not None:
        scores = T.add(scores, T.constant(mask[None, :, :]))
    attn = T.softmax(scores, axis=-1)
    ctx = T.reshape(T.transpose(T.matmul(attn, v), (1, 0, 2)), (tq, d))
    return T.matmul(ctx, params[f"{prefix}.wo"])


def _sublayer(x: T.Tensor, params, prefix: str, fn) -> T.Tensor:
    # pre-LN residual block
    normed = T.layer_norm(x, params[f"{prefix}.ln_g"], params[f"{prefix}.ln_b"])
    return T.add(x, fn(normed))


def _feed_forward(x: T.Tensor, params, prefix: str) -> T.Tensor:
    hidden = T.relu(T.add(T.matmul(x, params[f"{prefix}.w1"]), params[f"{prefix}.b1"]))
    return T.add(T.matmul(hidden, params[f"{prefix}.w2"]), params[f"{prefix}.b2"])


def _concept_embeddings(concept_token_ids: list[list[int]], params) -> T.Tensor | None:
    """Mean-pooled token embeddings per concept; no positional encoding."""
    if not concept_token_ids:
        return None
    flat, seg = [], []
    for i, toks in enumerate(concept_token_ids):
        if not toks:
            raise ValueError("concept with no surface tokens")
        flat.extend(toks)
        seg.extend([i] * len(toks))
    rows = T.embedding(params["gen.tok_embed"], flat)
    return T.segment_mean(rows, seg, len(concept_token_ids))


def encode_inputs(inp: GeneratorInput, params: dict[str, T.Tensor], vocab: Vocab,
                  cfg: TrainConfig, positions: np.ndarray) -> T.Tensor:
    """Encoder memory over [prefix?] + x + concepts; positions only on x."""
    if len(inp.x_ids) > cfg.max_len:
        raise ValueError(f"input length {len(inp.x_ids)} exceeds max_len {cfg.max_len}")
    if not 0 <= inp.expert < cfg.n_experts:
        raise ValueError(f"invalid expert id {inp.expert} for {cfg.n_experts} experts")

    x_emb = T.add(T.embedding(params["gen.tok_embed"], inp.x_ids),
                  T.constant(positions[: len(inp.x_ids)]))
    parts = [x_emb]
    concept_emb = _concept_embeddings(inp.concept_token_ids, params)
    if concept_emb is not None:
        parts.append(concept_emb)
    if cfg.expert_mode == "prompt":
        parts.insert(0, T.embedding(params["gen.tok_embed"], [vocab.expert_token(inp.expert)]))
    stream = T.concat(parts, axis=0)
    if cfg.expert_mode == "embed":
        stream = T.add(stream, T.embedding(params["gen.expert_embed"], [inp.expert]))

    for layer in range(cfg.n_encoder_layers):
        prefix_name = f"gen.enc{layer}"
        stream = _sublayer(stream, params, f"{prefix_name}.self",
                           lambda s, p=prefix_name: _attention(s, s, params, f"{p}.self", cfg))
        stream = _sublayer(stream, params, f"{prefix_name}.ff",
                           lambda s, p=prefix_name: _feed_forward(s, params, f"{p}.ff"))
    return T.layer_norm(stream, params["gen.enc_ln_g"], params["gen.enc_ln_b"])


def _causal_mask(t: int) -> np.ndarray:
    return np.triu(np.full((t, t), -1e9), k=1)


def decoder_logits(memory: T.Tensor, dec_ids: list[int], params, cfg: TrainConfig,
                   positions: np.ndarray) -> T.Tensor:
    """Logits [len(dec_ids), vocab] for the next token at each decoder position."""
    t = len(dec_ids)
    if t > cfg.max_len:
        raise ValueError(f"decoder length {t} exceeds max_len {cfg.max_len}")
    stream = T.add(T.embedding(params["gen.tok_embed"], dec_ids), T.constant(positions[:t]))
    mask = _causal_mask(t)
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


def generation_loss(inp: GeneratorInput, y_ids: list[int], params, vocab: Vocab,
                    cfg: TrainConfig, positions: np.ndarray) -> T.Tensor:
    """Teacher-forced mean token NLL of y (which must end with EOS)."""
    if not y_ids or y_ids[-1] != EOS:
        raise ValueError("target sequence must end with EOS")
    memory = encode_inputs(inp, params, vocab, cfg, positions)
    dec_in = [BOS] + list(y_ids[:-1])
    logits = decoder_logits(memory, dec_in, params, cfg, positions)
    return T.softmax_cross_entropy(logits, y_ids)


def memory_next_dist(memory: T.Tensor, prefix_ids: list[int], params,
                     cfg: TrainConfig, positions: np.ndarray) -> np.ndarray:
    """Next-token distribution given a precomputed encoder memory."""
    dec_in = [BOS] + list(prefix_ids)
    if len(dec_in) > cfg.max_len:
        raise ValueError(f"prefix length {len(prefix_ids)} exceeds max_len {cfg.max_len}")
    with T.no_grad():
        logits = decoder_logits(memory, dec_in, params, cfg, positions).data[-1]
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()
