"""Relational graph convolution over an extracted subgraph.

Message for a stored triple (u, r, v) is W_N * (h_u - h_r) sent to v; a reverse
message v -> u uses a distinct learned inverse-relation embedding.  Node update:
h_v' = ReLU(mean of incoming messages + W_S h_v); relations: h_r' = W_R h_r.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .kg import KnowledgeGraph, Subgraph


def init_rgcn_params(rng: np.random.Generator, n_concepts: int, n_relations: int,
                     d: int, layers: int) -> dict[str, T.Tensor]:
    params = {
        "rgcn.node_embed": T.uniform_init(rng, (max(n_concepts, 1), d)),
        "rgcn.rel_embed": T.uniform_init(rng, (max(2 * n_relations, 1), d)),
    }
    for layer in range(layers):
        params[f"rgcn.l{layer}.w_neighbor"] = T.glorot_init(rng, (d, d))
        params[f"rgcn.l{layer}.w_self"] = T.glorot_init(rng, (d, d))
        params[f"rgcn.l{layer}.w_rel"] = T.glorot_init(rng, (d, d))
    return params


def compose(h_u: T.Tensor, h_r: T.Tensor) -> T.Tensor:
    """Non-parametric composition of neighbor and relation states (difference)."""
    if h_u.shape != h_r.shape:
        raise ValueError(f"compose dimension mismatch: {h_u.shape} vs {h_r.shape}")
    return T.sub(h_u, h_r)


def rgcn_layer(h: T.Tensor, h_rel: T.Tensor, subgraph: Subgraph, w_neighbor: T.Tensor,
               w_self: T.Tensor, w_rel: T.Tensor, n_relations: int) -> tuple[T.Tensor, T.Tensor]:
    """One relational convolution layer; nodes without incoming edges aggregate zero.

    h holds one row per node in `subgraph.sorted_nodes()` order and h_rel one
    row per relation, inverses in the second half; returns the next (h, h_rel).
    """
    n = len(subgraph.nodes)
    if h.shape[0] != n:
        raise ValueError(f"node states have {h.shape[0]} rows for a subgraph of {n} nodes")
    src, dst, rel = subgraph.message_arrays(n_relations)
    self_term = T.matmul(h, w_self)
    if len(src):
        h_u = T.embedding(h, src)
        h_r = T.embedding(h_rel, rel)
        messages = T.matmul(compose(h_u, h_r), w_neighbor)
        agg = T.segment_mean(messages, dst, n)
        updated = T.relu(T.add(agg, self_term))
    else:
        updated = T.relu(self_term)
    return updated, T.matmul(h_rel, w_rel)


def encode(subgraph: Subgraph, params: dict[str, T.Tensor], kg: KnowledgeGraph,
           layers: int) -> T.Tensor:
    """Node states [n_nodes, d] after `layers` convolutions from the embedding
    tables, one row per node in `subgraph.sorted_nodes()` order."""
    h = T.embedding(params["rgcn.node_embed"], subgraph.sorted_nodes())
    h_rel = params["rgcn.rel_embed"]
    for layer in range(layers):
        h, h_rel = rgcn_layer(
            h, h_rel, subgraph,
            params[f"rgcn.l{layer}.w_neighbor"],
            params[f"rgcn.l{layer}.w_self"],
            params[f"rgcn.l{layer}.w_rel"],
            kg.num_relations,
        )
    return h
