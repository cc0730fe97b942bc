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
              selections: list[tuple[int, list[int]]]) -> list[tuple[list[int], T.Tensor]]:
    """The (selection indices, encoder memory) groups of the (expert, concept
    ids) selections, from one `encode_inputs` call per distinct concept count.
    A group's memory is [s, d] for a lone selection and [J, s, d] for J."""
    by_count: dict[int, list[int]] = {}
    for i, (_, concepts) in enumerate(selections):
        by_count.setdefault(len(concepts), []).append(i)
    groups = []
    for rows in by_count.values():
        inps = [generator_input(ctx, model, selections[i][1], selections[i][0]) for i in rows]
        with T.no_grad():
            memory = generator.encode_inputs(inps, model.params, model.vocab, model.cfg,
                                             model.positions)
        groups.append((rows, memory if len(rows) > 1 else T.constant(memory.data[0])))
    return groups


def _search(groups, expands, model: Model, width: int,
            length_normalize: bool = False) -> list[list[list[int]]]:
    """For each search j, the token ids of its best `width` hypotheses, best
    first; `groups` holds the (search indices, memory) pairs of `_memories`.

    The searches advance in lockstep: each step asks for the next-token
    distributions of every live hypothesis of every search in one
    `memory_next_dist` call per group, and extends each hypothesis by the
    (token, log-probability) pairs of `expands[j](dist)`; a rule with one
    continuation may score it 0.  Candidates are ranked by score (summed
    log-probability, per token if `length_normalize`), then by token ids; one
    that ends in EOS is finished.  A search stops once `width` of its
    hypotheses are finished or none is live; all stop at the maximum decode
    length.  At step i every live hypothesis holds i tokens, so no prefix needs
    padding.
    """
    def rank(hyp):
        ids, logp = hyp
        return -(logp / len(ids) if length_normalize else logp), ids

    live = [[([], 0.0)] for _ in expands]
    finished: list[list[tuple[list[int], float]]] = [[] for _ in expands]
    active = list(range(len(expands)))
    for _ in range(min(MAX_DECODE_LEN, model.cfg.max_len - 1)):
        dists = {}
        for js, memory in groups:
            stepping = [(row, j) for row, j in enumerate(js) if j in active]
            if not stepping:
                continue
            if len(js) > 1:
                memory = T.constant(memory.data[[row for row, j in stepping for _ in live[j]]])
            rows = iter(memory_next_dist(memory, [ids for _, j in stepping for ids, _ in live[j]],
                                         model.params, model.cfg, model.positions))
            for _, j in stepping:
                dists[j] = [next(rows) for _ in live[j]]
        for j in active:
            candidates = [(ids + [tok], logp + step)
                          for (ids, logp), dist in zip(live[j], dists[j])
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
    return [[ids for ids, _ in sorted(f + l, key=rank)[:width]]
            for f, l in zip(finished, live)]


def _argmax(dist: np.ndarray) -> list[tuple[int, float]]:
    return [(int(np.argmax(dist)), 0.0)]


def decode_moe(ctx: ExampleContext, model: Model) -> GenerationBundle:
    """Enumerate experts; each selects its own concepts (under the disjoint
    rule if it is on, see `select_concepts`) and decodes greedily."""
    selections = list(enumerate(select_concepts(ctx, model, model.cfg.n_experts)))
    outputs = _search(_memories(ctx, model, selections), [_argmax] * len(selections), model, 1)
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
    [concepts] = select_concepts(ctx, model)

    def top(dist: np.ndarray) -> list[tuple[int, float]]:
        logs = np.log(np.maximum(dist, 1e-300))
        return [(int(tok), float(logs[tok])) for tok in np.argsort(-logs, kind="stable")[:beam]]

    surfaces = [model.kg.concepts[c] for c in concepts]
    [hyps] = _search(_memories(ctx, model, [(0, concepts)]), [top], model, beam,
                     length_normalize)
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
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    concepts = [model.kg.concepts[c] for c in select_concepts(ctx, model)[0]]
    # one select per sample as well: perfbench pins selects_per_output at (n + 1) / n
    selections = [(0, select_concepts(ctx, model)[0]) for _ in range(n_samples)]
    rngs = [np.random.default_rng(sub_seed(seed, f"{strategy}:{ctx.example_id}:{i}"))
            for i in range(n_samples)]
    expands = [lambda dist, rng=rng: [(pick(dist, rng), 0.0)] for rng in rngs]
    entries = [GenerationEntry(i, model.vocab.decode(ids), concepts) for i, [ids]
               in enumerate(_search(_memories(ctx, model, selections), expands, model, 1))]
    return GenerationBundle(ctx.example_id, strategy, entries)


def decode_truncated(ctx: ExampleContext, model: Model, k: int, seed: int,
                     n_samples: int = 1) -> GenerationBundle:
    """n independent seeded top-k sampling draws."""
    return _decode_samples(ctx, model, "truncated", truncated_pick(k), seed, n_samples)


def decode_nucleus(ctx: ExampleContext, model: Model, p: float, seed: int,
                   n_samples: int = 1) -> GenerationBundle:
    """n independent seeded nucleus sampling draws."""
    return _decode_samples(ctx, model, "nucleus", nucleus_pick(p), seed, n_samples)
