"""Inference-time decoders: per-expert greedy enumeration plus beam search,
truncated (top-k) sampling and nucleus (top-p) sampling baselines.

All four run one token loop, `_search`, and differ only in its width and in
the rule that expands a next-token distribution into continuations.  Every
decoder stops at EOS or at the maximum decode length, and breaks argmax ties
by the lowest token id (numpy argmax already does).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import generator
from . import tensor as T
from .generator import EOS, GeneratorInput, memory_next_dist
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


def _expert_memory(ctx: ExampleContext, model: Model, expert: int,
                   forbidden: set[int] | None):
    """The expert's selected concept ids and the encoder memory they give."""
    concepts = select_concepts(ctx, model, expert, forbidden)
    inp = GeneratorInput(ctx.x_ids, [ctx.concept_tokens[c] for c in concepts], expert)
    with T.no_grad():
        memory = generator.encode_inputs(inp, model.params, model.vocab, model.cfg,
                                         model.positions)
    return concepts, memory


def _search(memory, model: Model, width: int, expand,
            length_normalize: bool = False) -> list[list[int]]:
    """Token ids of the best `width` hypotheses, best first.

    Each step asks for the next-token distribution of every live hypothesis
    and extends it by the (token, log-probability) pairs of `expand(dist)`;
    a rule with one continuation may score it 0.  Candidates are ranked by
    score (summed log-probability, per token if `length_normalize`), then by
    token ids; one that ends in EOS is finished.
    The search stops once `width` hypotheses are finished, none is live, or
    the maximum decode length is reached.
    """
    def rank(hyp):
        ids, logp = hyp
        return -(logp / len(ids) if length_normalize else logp), ids

    live: list[tuple[list[int], float]] = [([], 0.0)]
    finished: list[tuple[list[int], float]] = []
    for _ in range(min(MAX_DECODE_LEN, model.cfg.max_len - 1)):
        candidates = []
        for ids, logp in live:
            dist = memory_next_dist(memory, ids, model.params, model.cfg, model.positions)
            candidates += [(ids + [tok], logp + step) for tok, step in expand(dist)]
        candidates.sort(key=rank)
        live = []
        for hyp in candidates:
            (finished if hyp[0][-1] == EOS else live).append(hyp)
            if len(live) >= width:
                break
        if len(finished) >= width or not live:
            break
    return [ids for ids, _ in sorted(finished + live, key=rank)[:width]]


def _argmax(dist: np.ndarray) -> list[tuple[int, float]]:
    return [(int(np.argmax(dist)), 0.0)]


def decode_moe(ctx: ExampleContext, model: Model) -> GenerationBundle:
    """Enumerate experts; each selects its own concepts and decodes greedily.

    With the disjoint rule on, experts are processed in id order and may not
    reuse concepts selected by earlier experts.
    """
    entries = []
    forbidden: set[int] = set()
    for z in range(model.cfg.n_experts):
        concepts, memory = _expert_memory(ctx, model, z,
                                          forbidden if model.cfg.disjoint_rule else None)
        if model.cfg.disjoint_rule:
            forbidden.update(concepts)
        [ids] = _search(memory, model, 1, _argmax)
        entries.append(GenerationEntry(z, model.vocab.decode(ids),
                                       [model.kg.concepts[c] for c in concepts]))
    return GenerationBundle(ctx.example_id, "moe", entries)


def decode_beam(ctx: ExampleContext, model: Model, beam: int,
                length_normalize: bool = True) -> GenerationBundle:
    """Length-normalized beam search on expert 0; returns the top `beam` finished
    hypotheses (used as the no-MoE ablation decoder)."""
    if beam < 1:
        raise ValueError("beam must be >= 1")
    concepts, memory = _expert_memory(ctx, model, 0, None)

    def top(dist: np.ndarray) -> list[tuple[int, float]]:
        logs = np.log(np.maximum(dist, 1e-300))
        return [(int(tok), float(logs[tok])) for tok in np.argsort(-logs, kind="stable")[:beam]]

    surfaces = [model.kg.concepts[c] for c in concepts]
    entries = [GenerationEntry(i, model.vocab.decode(ids), surfaces)
               for i, ids in enumerate(_search(memory, model, beam, top, length_normalize))]
    return GenerationBundle(ctx.example_id, "beam", entries)


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


def _decode_samples(ctx: ExampleContext, model: Model, strategy: str, pick,
                    seed: int, n_samples: int) -> GenerationBundle:
    """n independent draws on expert 0, each from its own seeded generator."""
    concepts = [model.kg.concepts[c] for c in select_concepts(ctx, model, 0)]
    entries = []
    for i in range(n_samples):
        rng = np.random.default_rng(sub_seed(seed, f"{strategy}:{ctx.example_id}:{i}"))
        _, memory = _expert_memory(ctx, model, 0, None)
        [ids] = _search(memory, model, 1, lambda dist: [(pick(dist, rng), 0.0)])
        entries.append(GenerationEntry(i, model.vocab.decode(ids), concepts))
    return GenerationBundle(ctx.example_id, strategy, entries)


def decode_truncated(ctx: ExampleContext, model: Model, k: int, seed: int,
                     n_samples: int = 1) -> GenerationBundle:
    """n independent seeded top-k sampling draws."""
    return _decode_samples(ctx, model, "truncated", truncated_pick(k), seed, n_samples)


def decode_nucleus(ctx: ExampleContext, model: Model, p: float, seed: int,
                   n_samples: int = 1) -> GenerationBundle:
    """n independent seeded nucleus sampling draws."""
    return _decode_samples(ctx, model, "nucleus", nucleus_pick(p), seed, n_samples)
