"""Inference-time decoders: per-expert greedy enumeration plus beam search,
truncated (top-k) sampling and nucleus (top-p) sampling baselines.

All four run one token loop, `_search`, and differ only in the encoder memory
they hand it, its width and the rules that expand a next-token distribution
into continuations.  `_search` steps several searches over one memory in
lockstep, so every live hypothesis goes through one decoder call per step.
Every decoder stops at EOS or at the maximum decode length, and breaks argmax
ties by the lowest token id (numpy argmax already does).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import generator
from . import tensor as T
from .generator import EOS, memory_next_dist
from .moe import ExampleContext, Model, generator_input, select_concepts, sub_seed

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


def _memory(ctx: ExampleContext, model: Model,
            selections: list[tuple[int, list[int]]]) -> T.Tensor:
    """The encoder memory of (expert, concept ids) selections that share a
    concept count, from one `encode_inputs` call: [s, d] for a lone selection,
    [J, s, d] for J."""
    inps = [generator_input(ctx, model, concepts, z) for z, concepts in selections]
    with T.no_grad():
        memory = generator.encode_inputs(inps, model.params, model.vocab, model.cfg)
    return memory if len(inps) > 1 else T.constant(memory.data[0])


def _search(memory: T.Tensor, expands, model: Model, width: int) -> list[list[list[int]]]:
    """For each search j, the token ids of its best `width` hypotheses, best
    first, over a memory [s, d] shared by every search or [J, s, d], one each.

    The searches advance in lockstep: each step asks for the next-token
    distributions of every live hypothesis in one `memory_next_dist` call,
    and extends each hypothesis by the (token, log-probability) pairs of
    `expands[j](dist)`; a rule with one continuation may score it 0.
    Candidates are ranked by score per token (summed log-probability over the
    length), then by token ids; one that ends in EOS is finished.
    A search stops once `width` of its hypotheses are finished or none is
    live; all stop at the maximum decode length.  At step i every live
    hypothesis holds i tokens, so no prefix needs padding.  The decoder cache
    lets a step feed one token per hypothesis; a hypothesis carries the cache
    row of its parent, and the kept ones select their rows with one gather.
    The memory is read only at the first step, before any search stops, so
    it is never regathered.
    """
    def rank(hyp):
        ids, logp, _ = hyp
        return -(logp / len(ids)), ids

    live = [[([], 0.0, 0)] for _ in expands]
    finished: list[list[tuple[list[int], float, int]]] = [[] for _ in expands]
    active = list(range(len(expands)))
    cache = generator.DecoderCache()
    for _ in range(min(MAX_DECODE_LEN, model.cfg.max_len - 1)):
        rows = enumerate(memory_next_dist(
            memory, [ids for j in active for ids, _, _ in live[j]],
            model.params, model.cfg, cache))
        for j in active:
            # zip reads live[j] first, so it takes exactly one row per hypothesis
            candidates = [(ids + [tok], logp + step, row)
                          for (ids, logp, _), (row, dist) in zip(live[j], rows)
                          for tok, step in expands[j](dist)]
            candidates.sort(key=rank)
            live[j] = []
            for hyp in candidates:
                (finished[j] if hyp[0][-1] == EOS else live[j]).append(hyp)
                if len(live[j]) >= width:
                    break
        active = [j for j in active if len(finished[j]) < width and live[j]]
        if not active:
            break
        cache.take([row for j in active for _, _, row in live[j]])
    return [[ids for ids, _, _ in sorted(f + l, key=rank)[:width]]
            for f, l in zip(finished, live)]


def _argmax(dist: np.ndarray) -> list[tuple[int, float]]:
    return [(int(np.argmax(dist)), 0.0)]


def decode_moe(ctx: ExampleContext, model: Model) -> GenerationBundle:
    """Enumerate experts; each selects its own concepts (under the disjoint
    rule if it is on, see `select_concepts`) and decodes greedily.  Experts
    with one concept count (all, unless that rule is on) share a search."""
    selections = list(enumerate(select_concepts(ctx, model, model.cfg.n_experts)))
    entries = []
    for n in dict.fromkeys(len(concepts) for _, concepts in selections):
        group = [(z, concepts) for z, concepts in selections if len(concepts) == n]
        outputs = _search(_memory(ctx, model, group), [_argmax] * len(group), model, 1)
        entries += [GenerationEntry(z, model.vocab.decode(ids),
                                    [model.kg.concepts[c] for c in concepts])
                    for (z, concepts), [ids] in zip(group, outputs)]
    return GenerationBundle(ctx.example_id, "moe", sorted(entries, key=lambda e: e.expert))


def decode_beam(ctx: ExampleContext, model: Model, beam: int) -> GenerationBundle:
    """Length-normalized beam search on expert 0; returns the top `beam` finished
    hypotheses (used as the no-MoE ablation decoder)."""
    if beam < 1:
        raise ValueError("beam must be >= 1")
    [concepts] = select_concepts(ctx, model)

    def top(dist: np.ndarray) -> list[tuple[int, float]]:
        logs = np.log(np.maximum(dist, 1e-300))
        return [(int(tok), float(logs[tok])) for tok in np.argsort(-logs, kind="stable")[:beam]]

    surfaces = [model.kg.concepts[c] for c in concepts]
    [hyps] = _search(_memory(ctx, model, [(0, concepts)]), [top], model, beam)
    entries = [GenerationEntry(i, model.vocab.decode(ids), surfaces)
               for i, ids in enumerate(hyps)]
    return GenerationBundle(ctx.example_id, "beam", entries)


def _draw(dist: np.ndarray, rng: np.random.Generator, keep) -> int:
    """Sample from the prefix `keep(ranked)` of `dist` ranked by probability (ties by
    token id), renormalized: one `rng.random()`, and the token `rng.choice` would pick."""
    order = np.argsort(-dist, kind="stable")
    kept = keep(dist[order])
    probs = kept / kept.sum()
    if not (probs >= 0).all():          # NaN fails this too, as in `choice`
        raise ValueError("probabilities are not non-negative")
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return int(order[cdf.searchsorted(rng.random(), "right")])


def truncated_pick(k: int):
    """Sample from the renormalized top-k of the distribution."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return lambda dist, rng: _draw(dist, rng, lambda ranked: ranked[:k])


def nucleus_pick(p: float):
    """Sample from the smallest probability-mass prefix covering at least p."""
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")
    return lambda dist, rng: _draw(dist, rng, lambda r: r[: r.cumsum().searchsorted(p - 1e-12) + 1])


def _decode_samples(ctx: ExampleContext, model: Model, strategy: str, pick,
                    seed: int, n_samples: int) -> GenerationBundle:
    """n independent draws on expert 0, each from its own seeded generator;
    the draws share one encoder memory."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    [concepts] = select_concepts(ctx, model)
    # one select per sample as well: perfbench pins selects_per_output at (n + 1) / n
    for _ in range(n_samples):
        select_concepts(ctx, model)
    rngs = [np.random.default_rng(sub_seed(seed, f"{strategy}:{ctx.example_id}:{i}"))
            for i in range(n_samples)]
    expands = [lambda dist, rng=rng: [(pick(dist, rng), 0.0)] for rng in rngs]
    surfaces = [model.kg.concepts[c] for c in concepts]
    entries = [GenerationEntry(i, model.vocab.decode(ids), surfaces) for i, [ids]
               in enumerate(_search(_memory(ctx, model, [(0, concepts)]), expands, model, 1))]
    return GenerationBundle(ctx.example_id, strategy, entries)


def decode_truncated(ctx: ExampleContext, model: Model, k: int, seed: int,
                     n_samples: int = 1) -> GenerationBundle:
    """n independent seeded top-k sampling draws."""
    return _decode_samples(ctx, model, "truncated", truncated_pick(k), seed, n_samples)


def decode_nucleus(ctx: ExampleContext, model: Model, p: float, seed: int,
                   n_samples: int = 1) -> GenerationBundle:
    """n independent seeded nucleus sampling draws."""
    return _decode_samples(ctx, model, "nucleus", nucleus_pick(p), seed, n_samples)
