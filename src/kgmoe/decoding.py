"""Inference-time decoders: per-expert greedy enumeration plus beam search,
truncated (top-k) sampling and nucleus (top-p) sampling baselines.

All four run one token loop, `_search`, and differ only in the encoder
memories they hand it, its width and the rules that expand a next-token
distribution into continuations.  `_search` advances several searches in
lockstep, so every live hypothesis of a bundle goes through one decoder call
per step.  Every decoder stops at EOS or at the maximum decode length, and
breaks argmax ties by the lowest token id (numpy argmax already does).
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


def _memories(ctx: ExampleContext, model: Model,
              selections: list[tuple[int, list[int]]]) -> list[T.Tensor]:
    """The encoder memory [s, d] of each (expert, concept ids) selection, from
    one `encode_inputs` call per distinct concept count."""
    by_count: dict[int, list[int]] = {}
    for i, (_, concepts) in enumerate(selections):
        by_count.setdefault(len(concepts), []).append(i)
    memories: list[T.Tensor] = [None] * len(selections)
    for rows in by_count.values():
        inps = [generator_input(ctx, model, selections[i][1], selections[i][0]) for i in rows]
        with T.no_grad():
            stack = generator.encode_inputs(inps, model.params, model.vocab, model.cfg,
                                            model.positions).data
        for row, i in enumerate(rows):
            memories[i] = T.constant(stack[row])
    return memories


def _search(searches, model: Model, width: int,
            length_normalize: bool = False) -> list[list[list[int]]]:
    """For each (memory [s, d], expand) search, the token ids of its best
    `width` hypotheses, best first.

    The searches advance in lockstep: each step asks for the next-token
    distributions of every live hypothesis of every search in one
    `memory_next_dist` call per distinct memory length, and extends each
    hypothesis by the (token, log-probability) pairs of its search's
    `expand(dist)`; a rule with one continuation may score it 0.  Candidates
    are ranked by score (summed log-probability, per token if
    `length_normalize`), then by token ids; one that ends in EOS is finished.
    A search stops once `width` of its hypotheses are finished or none is
    live; all stop at the maximum decode length.  At step i every live
    hypothesis holds i tokens, so no prefix needs padding.
    """
    def rank(hyp):
        ids, logp = hyp
        return -(logp / len(ids) if length_normalize else logp), ids

    by_length: dict[int, list[int]] = {}
    for j, (memory, _) in enumerate(searches):
        by_length.setdefault(memory.shape[0], []).append(j)
    # a lone search's hypotheses share its memory; several searches' are stacked once
    groups = [(js, None if len(js) == 1 else np.stack([searches[j][0].data for j in js]))
              for js in by_length.values()]
    live = [[([], 0.0)] for _ in searches]
    finished: list[list[tuple[list[int], float]]] = [[] for _ in searches]
    active = list(range(len(searches)))
    for _ in range(min(MAX_DECODE_LEN, model.cfg.max_len - 1)):
        dists = {}
        for js, stack in groups:
            stepping = [(row, j) for row, j in enumerate(js) if j in active]
            if not stepping:
                continue
            memory = (searches[js[0]][0] if stack is None else
                      T.constant(stack[[row for row, j in stepping for _ in live[j]]]))
            rows = iter(memory_next_dist(memory, [ids for _, j in stepping for ids, _ in live[j]],
                                         model.params, model.cfg, model.positions))
            for _, j in stepping:
                dists[j] = [next(rows) for _ in live[j]]
        for j in active:
            candidates = [(ids + [tok], logp + step)
                          for (ids, logp), dist in zip(live[j], dists[j])
                          for tok, step in searches[j][1](dist)]
            candidates.sort(key=rank)
            live[j] = []
            for hyp in candidates:
                (finished[j] if hyp[0][-1] == EOS else live[j]).append(hyp)
                if len(live[j]) >= width:
                    break
        active = [j for j in active if len(finished[j]) < width and live[j]]
        if not active:
            break
    return [[ids for ids, _ in sorted(f + l, key=rank)[:width]]
            for f, l in zip(finished, live)]


def _argmax(dist: np.ndarray) -> list[tuple[int, float]]:
    return [(int(np.argmax(dist)), 0.0)]


def decode_moe(ctx: ExampleContext, model: Model) -> GenerationBundle:
    """Enumerate experts; each selects its own concepts and decodes greedily.

    With the disjoint rule on, experts select in id order and may not reuse
    concepts selected by earlier experts.
    """
    selections = []
    forbidden: set[int] = set()
    for z in range(model.cfg.n_experts):
        concepts = select_concepts(ctx, model, z,
                                   forbidden if model.cfg.disjoint_rule else None)
        if model.cfg.disjoint_rule:
            forbidden.update(concepts)
        selections.append((z, concepts))
    memories = _memories(ctx, model, selections)
    outputs = _search([(memory, _argmax) for memory in memories], model, 1)
    entries = [GenerationEntry(z, model.vocab.decode(ids),
                               [model.kg.concepts[c] for c in concepts])
               for (z, concepts), [ids] in zip(selections, outputs)]
    return GenerationBundle(ctx.example_id, "moe", entries)


def decode_beam(ctx: ExampleContext, model: Model, beam: int,
                length_normalize: bool = True) -> GenerationBundle:
    """Length-normalized beam search on expert 0; returns the top `beam` finished
    hypotheses (used as the no-MoE ablation decoder)."""
    if beam < 1:
        raise ValueError("beam must be >= 1")
    concepts = select_concepts(ctx, model, 0)
    [memory] = _memories(ctx, model, [(0, concepts)])

    def top(dist: np.ndarray) -> list[tuple[int, float]]:
        logs = np.log(np.maximum(dist, 1e-300))
        return [(int(tok), float(logs[tok])) for tok in np.argsort(-logs, kind="stable")[:beam]]

    surfaces = [model.kg.concepts[c] for c in concepts]
    [hyps] = _search([(memory, top)], model, beam, length_normalize)
    entries = [GenerationEntry(i, model.vocab.decode(ids), surfaces)
               for i, ids in enumerate(hyps)]
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
    searches = []
    for i in range(n_samples):
        rng = np.random.default_rng(sub_seed(seed, f"{strategy}:{ctx.example_id}:{i}"))
        [memory] = _memories(ctx, model, [(0, select_concepts(ctx, model, 0))])
        searches.append((memory, lambda dist, rng=rng: [(pick(dist, rng), 0.0)]))
    entries = [GenerationEntry(i, model.vocab.decode(ids), concepts)
               for i, [ids] in enumerate(_search(searches, model, 1))]
    return GenerationBundle(ctx.example_id, strategy, entries)


def decode_truncated(ctx: ExampleContext, model: Model, k: int, seed: int,
                     n_samples: int = 1) -> GenerationBundle:
    """n independent seeded top-k sampling draws."""
    return _decode_samples(ctx, model, "truncated", truncated_pick(k), seed, n_samples)


def decode_nucleus(ctx: ExampleContext, model: Model, p: float, seed: int,
                   n_samples: int = 1) -> GenerationBundle:
    """n independent seeded nucleus sampling draws."""
    return _decode_samples(ctx, model, "nucleus", nucleus_pick(p), seed, n_samples)
