"""Inference-time decoders: per-expert greedy enumeration plus beam search,
truncated (top-k) sampling and nucleus (top-p) sampling baselines.

All decoders stop at EOS or at the maximum decode length, and break argmax
ties by the lowest token id (numpy argmax already does).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .generator import BOS, EOS, GeneratorInput, memory_next_dist
from .moe import ExampleContext, Model, select_concepts, sub_seed

MAX_DECODE_LEN = 64


@dataclass
class GenerationEntry:
    expert: int                  # expert id, or sample/beam index for baselines
    output: str
    concepts: list[str]


@dataclass
class GenerationBundle:
    """K outputs for one input."""

    example_id: str
    strategy: str
    entries: list[GenerationEntry]


def _encoder_memory(ctx: ExampleContext, model: Model, expert: int,
                    concepts: list[int]):
    inp = GeneratorInput(ctx.x_ids, [ctx.concept_tokens[c] for c in concepts],
                         expert, model.cfg.expert_mode)
    from .generator import encode_inputs
    with T.no_grad():
        return encode_inputs(inp, model.params, model.vocab,
                             model.cfg.generator_config(), model.positions)


def _max_len(model: Model) -> int:
    return min(MAX_DECODE_LEN, model.cfg.max_len - 1)


def _greedy_from_memory(memory, model: Model) -> list[int]:
    cfg = model.cfg.generator_config()
    out: list[int] = []
    for _ in range(_max_len(model)):
        dist = memory_next_dist(memory, out, model.params, cfg, model.positions)
        nxt = int(np.argmax(dist))
        out.append(nxt)
        if nxt == EOS:
            break
    return out


def decode_moe(ctx: ExampleContext, model: Model) -> GenerationBundle:
    """Enumerate experts; each selects its own concepts and decodes greedily.

    With the disjoint rule on, experts are processed in id order and may not
    reuse concepts selected by earlier experts.
    """
    entries = []
    forbidden: set[int] = set()
    for z in range(model.cfg.n_experts):
        concepts = select_concepts(ctx, model, z,
                                   forbidden if model.cfg.disjoint_rule else None)
        if model.cfg.disjoint_rule:
            forbidden.update(concepts)
        memory = _encoder_memory(ctx, model, z, concepts)
        ids = _greedy_from_memory(memory, model)
        entries.append(GenerationEntry(z, model.vocab.decode(ids),
                                       [model.kg.concepts[c] for c in concepts]))
    return GenerationBundle(ctx.example_id, "moe", entries)


def decode_beam(ctx: ExampleContext, model: Model, beam: int,
                length_normalize: bool = True) -> GenerationBundle:
    """Length-normalized beam search on expert 0; returns the top `beam` finished
    hypotheses (used as the no-MoE ablation decoder)."""
    if beam < 1:
        raise ValueError("beam must be >= 1")
    concepts = select_concepts(ctx, model, 0)
    memory = _encoder_memory(ctx, model, 0, concepts)
    cfg = model.cfg.generator_config()
    max_len = _max_len(model)

    def score(logp: float, length: int) -> float:
        return logp / length if length_normalize else logp

    live = [([], 0.0)]
    finished: list[tuple[list[int], float]] = []
    for _ in range(max_len):
        candidates = []
        for ids, logp in live:
            dist = memory_next_dist(memory, ids, model.params, cfg, model.positions)
            logs = np.log(np.maximum(dist, 1e-300))
            top = np.argsort(-logs, kind="stable")[: beam]
            for tok in top:
                candidates.append((ids + [int(tok)], logp + float(logs[tok])))
        candidates.sort(key=lambda c: (-score(c[1], len(c[0])), c[0]))
        live = []
        for ids, logp in candidates:
            if ids[-1] == EOS:
                finished.append((ids, logp))
            else:
                live.append((ids, logp))
            if len(live) >= beam:
                break
        if len(finished) >= beam or not live:
            break
    for ids, logp in live:
        finished.append((ids, logp))
    finished.sort(key=lambda c: (-score(c[1], len(c[0])), c[0]))
    surfaces = [model.kg.concepts[c] for c in concepts]
    entries = [GenerationEntry(i, model.vocab.decode(ids), surfaces)
               for i, (ids, _) in enumerate(finished[: beam])]
    return GenerationBundle(ctx.example_id, "beam", entries)


def _sample_decode(ctx: ExampleContext, model: Model, pick, rng) -> list[int]:
    concepts = select_concepts(ctx, model, 0)
    memory = _encoder_memory(ctx, model, 0, concepts)
    cfg = model.cfg.generator_config()
    out: list[int] = []
    for _ in range(_max_len(model)):
        dist = memory_next_dist(memory, out, model.params, cfg, model.positions)
        nxt = pick(dist, rng)
        out.append(nxt)
        if nxt == EOS:
            break
    return out


def truncated_pick(k: int):
    """Sample from the renormalized top-k of the distribution."""
    if k < 1:
        raise ValueError("k must be >= 1")

    def pick(dist: np.ndarray, rng: np.random.Generator) -> int:
        top = np.argsort(-dist, kind="stable")[: min(k, dist.size)]
        probs = dist[top] / dist[top].sum()
        return int(rng.choice(top, p=probs))
    return pick


def nucleus_pick(p: float):
    """Sample from the smallest probability-mass prefix covering at least p."""
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")

    def pick(dist: np.ndarray, rng: np.random.Generator) -> int:
        order = np.argsort(-dist, kind="stable")
        cum = np.cumsum(dist[order])
        cutoff = int(np.searchsorted(cum, p - 1e-12)) + 1
        nucleus = order[:cutoff]
        probs = dist[nucleus] / dist[nucleus].sum()
        return int(rng.choice(nucleus, p=probs))
    return pick


def decode_truncated(ctx: ExampleContext, model: Model, k: int, seed: int,
                     n_samples: int = 1) -> GenerationBundle:
    """n independent seeded top-k sampling draws."""
    pick = truncated_pick(k)
    entries = []
    concepts = [model.kg.concepts[c] for c in select_concepts(ctx, model, 0)]
    for i in range(n_samples):
        rng = np.random.default_rng(sub_seed(seed, f"truncated:{ctx.example_id}:{i}"))
        ids = _sample_decode(ctx, model, pick, rng)
        entries.append(GenerationEntry(i, model.vocab.decode(ids), concepts))
    return GenerationBundle(ctx.example_id, "truncated", entries)


def decode_nucleus(ctx: ExampleContext, model: Model, p: float, seed: int,
                   n_samples: int = 1) -> GenerationBundle:
    """n independent seeded nucleus sampling draws."""
    pick = nucleus_pick(p)
    entries = []
    concepts = [model.kg.concepts[c] for c in select_concepts(ctx, model, 0)]
    for i in range(n_samples):
        rng = np.random.default_rng(sub_seed(seed, f"nucleus:{ctx.example_id}:{i}"))
        ids = _sample_decode(ctx, model, pick, rng)
        entries.append(GenerationEntry(i, model.vocab.decode(ids), concepts))
    return GenerationBundle(ctx.example_id, "nucleus", entries)
