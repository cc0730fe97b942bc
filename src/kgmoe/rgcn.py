"""Relational graph convolution over an extracted subgraph.

Message for a stored triple (u, r, v) is W_N * (h_u - h_r) sent to v; a reverse
message v -> u uses a distinct learned inverse-relation embedding.  Node update:
h_v' = ReLU(mean of incoming messages + W_S h_v); relations: h_r' = W_R h_r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .kg import KnowledgeGraph, Subgraph


@dataclass
class NodeStates:
    """Hidden states for one subgraph at one layer."""

    node_ids: list[int]              # subgraph concept ids, sorted
    states: T.Tensor                 # [n_nodes, d]
    rel_states: T.Tensor             # [2 * n_relations, d]; second half = inverses


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


def rgcn_layer(states: NodeStates, subgraph: Subgraph, w_neighbor: T.Tensor,
               w_self: T.Tensor, w_rel: T.Tensor, n_relations: int) -> NodeStates:
    """One relational convolution layer; nodes without incoming edges aggregate zero."""
    n = len(states.node_ids)
    if states.node_ids != subgraph.sorted_nodes():
        raise ValueError("node states must follow the subgraph's sorted node order")
    src, dst, rel = subgraph.message_arrays(n_relations)
    self_term = T.matmul(states.states, w_self)
    if len(src):
        h_u = T.embedding(states.states, src)
        h_r = T.embedding(states.rel_states, rel)
        messages = T.matmul(compose(h_u, h_r), w_neighbor)
        agg = T.segment_mean(messages, dst, n)
        updated = T.relu(T.add(agg, self_term))
    else:
        updated = T.relu(self_term)
    return NodeStates(states.node_ids, updated, T.matmul(states.rel_states, w_rel))


def encode(subgraph: Subgraph, params: dict[str, T.Tensor], kg: KnowledgeGraph,
           layers: int) -> NodeStates:
    """Run `layers` convolutions starting from the embedding tables."""
    node_ids = subgraph.sorted_nodes()
    states = NodeStates(
        node_ids,
        T.embedding(params["rgcn.node_embed"], node_ids),
        params["rgcn.rel_embed"],
    )
    for layer in range(layers):
        states = rgcn_layer(
            states, subgraph,
            params[f"rgcn.l{layer}.w_neighbor"],
            params[f"rgcn.l{layer}.w_self"],
            params[f"rgcn.l{layer}.w_rel"],
            kg.num_relations,
        )
    return states
