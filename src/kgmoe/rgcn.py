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
        "rgcn.node_embed": T.uniform_table(rng, (max(n_concepts, 1), d)),
        "rgcn.rel_embed": T.uniform_init(rng, (max(2 * n_relations, 1), d)),
    }
    for layer in range(layers):
        params[f"rgcn.l{layer}.w_neighbor"] = T.glorot_init(rng, (d, d))
        params[f"rgcn.l{layer}.w_self"] = T.glorot_init(rng, (d, d))
        params[f"rgcn.l{layer}.w_rel"] = T.glorot_init(rng, (d, d))
    return params


def rgcn_layer(h: T.Tensor, h_rel: T.Tensor, subgraph: Subgraph, w_neighbor: T.Tensor,
               w_self: T.Tensor, w_rel: T.Tensor | None,
               n_relations: int) -> tuple[T.Tensor, T.Tensor | None]:
    """One relational convolution layer; nodes without incoming edges aggregate zero.

    h holds one row per node in `subgraph.node_array` order and h_rel one
    row per relation, inverses in the second half; returns the next (h, h_rel).
    With w_rel None (a last layer, whose relation states nothing reads) the
    next h_rel is None.
    """
    n = len(subgraph.nodes)
    if h.shape[0] != n:
        raise ValueError(f"node states have {h.shape[0]} rows for a subgraph of {n} nodes")
    updated = T.rgcn_conv(h_rel, h, w_neighbor, w_self, subgraph.message_arrays(n_relations))
    return updated, None if w_rel is None else T.matmul(h_rel, w_rel)


def encode(subgraph: Subgraph, params: dict[str, T.Tensor], kg: KnowledgeGraph,
           layers: int) -> T.Tensor:
    """Node states [n_nodes, d] after `layers` convolutions from the embedding
    tables, one row per node in `subgraph.node_array` order."""
    h = T.embedding(params["rgcn.node_embed"], subgraph.node_array)
    h_rel = params["rgcn.rel_embed"]
    for layer in range(layers):
        h, h_rel = rgcn_layer(
            h, h_rel, subgraph,
            params[f"rgcn.l{layer}.w_neighbor"],
            params[f"rgcn.l{layer}.w_self"],
            params[f"rgcn.l{layer}.w_rel"] if layer + 1 < layers else None,
            kg.num_relations,
        )
    return h
