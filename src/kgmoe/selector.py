"""Concept scoring, selection supervision and top-N picking.

A 2-layer MLP over the final graph states gives each subgraph node a selection
probability.  Expert conditioning adds a per-expert vector to the node state
before the MLP, so different experts can rank concepts differently.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .kg import KnowledgeGraph, Subgraph, ground_concepts
from .rgcn import NodeStates

PROB_CLIP = 1e-7


def init_selector_params(rng: np.random.Generator, d: int, n_experts: int) -> dict[str, T.Tensor]:
    return {
        "sel.w1": T.glorot_init(rng, (d, d)),
        "sel.b1": T.zeros_init((d,)),
        "sel.w2": T.glorot_init(rng, (d, 1)),
        "sel.b2": T.zeros_init((1,)),
        "sel.expert_embed": T.uniform_init(rng, (max(n_experts, 1), d)),
    }


def score_concepts(states: NodeStates, params: dict[str, T.Tensor],
                   expert: int | None = None) -> T.Tensor:
    """Selection probability per subgraph node, as a [n_nodes] tensor in (0,1)."""
    h = states.states
    if expert is not None:
        h = T.add(h, T.embedding(params["sel.expert_embed"], [expert]))
    hidden = T.relu(T.add(T.matmul(h, params["sel.w1"]), params["sel.b1"]))
    logits = T.add(T.matmul(hidden, params["sel.w2"]), params["sel.b2"])
    return T.reshape(T.sigmoid(logits), (len(states.node_ids),))


def build_labels(subgraph: Subgraph, reference: str, kg: KnowledgeGraph) -> np.ndarray:
    """Binary supervision over sorted subgraph nodes: positive iff grounded in y."""
    positives = ground_concepts(reference, kg) & subgraph.nodes
    return np.array([1.0 if cid in positives else 0.0 for cid in subgraph.sorted_nodes()])


def concept_loss(p: T.Tensor, labels: np.ndarray) -> T.Tensor:
    """Binary cross-entropy, mean over nodes, probabilities clipped away from 0/1."""
    if labels.size == 0:
        return T.constant(0.0)
    pc = T.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)
    y = T.constant(labels)
    pos = T.mul(y, T.log(pc))
    neg = T.mul(T.constant(1.0 - labels), T.log(T.sub(T.constant(np.ones_like(labels)), pc)))
    return T.scale(T.mean_all(T.add(pos, neg)), -1.0)


def top_n(p: dict[int, float], n: int, forbidden: set[int] | None = None) -> list[int]:
    """N highest-probability concepts, ties broken by ascending id."""
    forbidden = forbidden or set()
    candidates = [(cid, prob) for cid, prob in p.items() if cid not in forbidden]
    candidates.sort(key=lambda item: (-item[1], item[0]))
    return [cid for cid, _ in candidates[: max(n, 0)]]
