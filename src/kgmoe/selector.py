"""Concept scoring, selection supervision and top-N picking.

A 2-layer MLP over the final graph states gives each subgraph node a selection
probability.  Expert conditioning adds a per-expert vector to the node state
before the MLP, so different experts can rank concepts differently.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .kg import KnowledgeGraph, Subgraph, ground_concepts

PROB_CLIP = 1e-7


def init_selector_params(rng: np.random.Generator, d: int, n_experts: int) -> dict[str, T.Tensor]:
    return {
        "sel.w1": T.glorot_init(rng, (d, d)),
        "sel.b1": T.zeros_init((d,)),
        "sel.w2": T.glorot_init(rng, (d, 1)),
        "sel.b2": T.zeros_init((1,)),
        "sel.expert_embed": T.uniform_init(rng, (max(n_experts, 1), d)),
    }


def score_concepts(h: T.Tensor, params: dict[str, T.Tensor], expert: int) -> T.Tensor:
    """Selection probability of each subgraph node under `expert`, as an [n_nodes]
    tensor in (0,1), from node states h [n_nodes, d] in sorted-node order."""
    return T.sigmoid_mlp(h, params["sel.w1"], params["sel.b1"], params["sel.w2"],
                         params["sel.b2"], (params["sel.expert_embed"], expert))


def build_labels(subgraph: Subgraph, reference: str, kg: KnowledgeGraph) -> np.ndarray:
    """Binary supervision over sorted subgraph nodes: positive iff grounded in y."""
    positives = ground_concepts(reference, kg) & subgraph.nodes
    labels = np.zeros(len(subgraph.node_array))
    found = np.fromiter(positives, np.int64, len(positives))
    labels[subgraph.node_array.searchsorted(found)] = 1.0
    return labels


def concept_loss(p: T.Tensor, labels: np.ndarray) -> T.Tensor:
    """Binary cross-entropy, mean over nodes, probabilities clipped away from 0/1."""
    if labels.size == 0:
        return T.constant(0.0)
    return T.binary_cross_entropy(p, labels, PROB_CLIP)


def top_n(ids, p, n: int, forbidden: set[int] | None = None) -> list[int]:
    """The n concept ids of highest probability p[i] for ids[i], ties broken
    by ascending id; ids in forbidden are never picked."""
    ids = np.asarray(ids, dtype=np.int64)
    p = np.asarray(p, dtype=np.float64)
    if forbidden:
        keep = ~np.isin(ids, list(forbidden))
        ids, p = ids[keep], p[keep]
    return ids[np.lexsort((ids, -p))[: max(n, 0)]].tolist()
