"""Relational graph encoder: layer semantics, locality, equivariance, gradients."""

import numpy as np
import pytest

from kgmoe import tensor as T
from kgmoe.kg import KnowledgeGraph, Subgraph, extract_subgraph
from kgmoe.rgcn import encode, init_rgcn_params, rgcn_layer

from util import check_gradients, compose, mean_all, mul


def build_kg(triples):
    return KnowledgeGraph.from_triples(triples)


def triple_tuples(kg):
    return [tuple(tr) for tr in kg.triples.tolist()]


def full_subgraph(kg):
    return extract_subgraph(set(range(kg.num_concepts)), kg, hops=0, max_nodes=None)


def identity_layer_params(d):
    eye = lambda: T.Tensor(np.eye(d), requires_grad=True)
    return eye(), eye(), eye()


def make_states(node_vectors, rel_vectors):
    """(h, h_rel) with node rows in ascending id order."""
    return (T.Tensor(np.array([node_vectors[i] for i in sorted(node_vectors)])),
            T.Tensor(np.array(rel_vectors)))


def test_compose_zero_relation():
    out = compose(T.Tensor([[1.0, 2.0]]), T.Tensor([[0.0, 0.0]]))
    assert out.data.tolist() == [[1.0, 2.0]]


def test_compose_equal_inputs_zero():
    v = T.Tensor([[3.0, -1.0]])
    assert not compose(v, v).data.any()


def test_compose_arithmetic():
    out = compose(T.Tensor([[3.0, 1.0]]), T.Tensor([[1.0, 4.0]]))
    assert out.data.tolist() == [[2.0, -3.0]]


def test_compose_dim_mismatch():
    with pytest.raises(ValueError):
        compose(T.Tensor([[1.0]]), T.Tensor([[1.0, 2.0]]))


def test_isolated_node_identity_self():
    kg = build_kg([("x", "r", "y"), ("lone", "r", "lone")])
    sub = Subgraph(nodes={kg.concept_ids["lone"]}, edges=[], seeds=set())
    d = 2
    states = make_states({kg.concept_ids["lone"]: [-1.0, 2.5]},
                         np.zeros((2 * kg.num_relations, d)))
    wn, ws, wr = identity_layer_params(d)
    h, _ = rgcn_layer(*states, sub, wn, ws, wr, kg.num_relations)
    assert h.data.tolist() == [[0.0, 2.5]]   # ReLU of the self term


def test_single_neighbor_identity_weights_zero_relation():
    kg = build_kg([("u", "r", "v")])
    u, v = kg.concept_ids["u"], kg.concept_ids["v"]
    sub = Subgraph(nodes={u, v}, edges=triple_tuples(kg), seeds=set())
    d = 2
    states = make_states({u: [1.0, -2.0], v: [0.5, 0.25]}, np.zeros((2, d)))
    wn, ws, wr = identity_layer_params(d)
    h, _ = rgcn_layer(*states, sub, wn, ws, wr, kg.num_relations)
    # v aggregates exactly h_u (one incoming message), then ReLU(h_u + h_v)
    got_v = h.data[sub.node_array.tolist().index(v)]
    assert np.allclose(got_v, np.maximum(np.array([1.0, -2.0]) + np.array([0.5, 0.25]), 0))


def test_mean_of_equal_neighbors():
    kg = build_kg([("a", "r", "v"), ("b", "r", "v")])
    a, b, v = (kg.concept_ids[k] for k in ("a", "b", "v"))
    sub = Subgraph(nodes={a, b, v}, edges=triple_tuples(kg), seeds=set())
    d = 2
    h = [2.0, 3.0]
    states = make_states({a: h, b: h, v: [0.5, 0.5]}, np.zeros((2, d)))
    wn, ws, wr = identity_layer_params(d)
    out, _ = rgcn_layer(*states, sub, wn, ws, wr, kg.num_relations)
    got_v = out.data[sub.node_array.tolist().index(v)]
    assert np.allclose(got_v, np.array(h) + np.array([0.5, 0.5]))


def test_message_arrays_interleave_forward_and_reverse_in_edge_order():
    # segment_mean sums messages in this order, so it fixes the float results.
    sub = Subgraph(nodes={5, 2, 9}, edges=[(9, 0, 2), (2, 1, 5)], seeds=set())
    src, dst, rel, divisor = sub.message_arrays(2)
    assert src.tolist() == [2, 0, 0, 1]
    assert dst.tolist() == [0, 2, 1, 0]
    assert rel.tolist() == [0, 2, 1, 3]
    assert divisor.tolist() == [2.0, 1.0, 1.0]     # in-degrees, built with the arrays
    assert all(a is b for a, b in zip(sub.message_arrays(2), (src, dst, rel, divisor)))


def test_layer_rejects_states_out_of_subgraph_order():
    kg = build_kg([("u", "r", "v")])
    u, v = kg.concept_ids["u"], kg.concept_ids["v"]
    sub = Subgraph(nodes={u, v}, edges=triple_tuples(kg), seeds=set())
    # no ids travel with the states, so the layer can only check the row count
    h, h_rel = T.Tensor(np.eye(3)), T.Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="3 rows for a subgraph of 2 nodes"):
        rgcn_layer(h, h_rel, sub, *identity_layer_params(3), kg.num_relations)


def test_encode_zero_layers_returns_embedding_rows():
    kg = build_kg([("a", "r", "b")])
    sub = extract_subgraph({0}, kg, hops=1)
    rng = np.random.default_rng(0)
    params = init_rgcn_params(rng, kg.num_concepts, kg.num_relations, 4, 0)
    out = encode(sub, params, kg, 0)
    assert np.array_equal(out.data, params["rgcn.node_embed"].data[sub.node_array])


def test_encode_zero_embeddings_zero_output():
    kg = build_kg([("a", "r", "b"), ("b", "r", "c")])
    sub = extract_subgraph({0}, kg, hops=2)
    rng = np.random.default_rng(0)
    params = init_rgcn_params(rng, kg.num_concepts, kg.num_relations, 4, 2)
    params["rgcn.node_embed"].data[:] = 0.0
    params["rgcn.rel_embed"].data[:] = 0.0
    out = encode(sub, params, kg, 2)
    assert not out.data.any()


def test_encode_composes_single_layers():
    rng = np.random.default_rng(1)
    kg = build_kg([("a", "r1", "b"), ("b", "r2", "c"), ("c", "r1", "d"), ("a", "r2", "e")])
    sub = extract_subgraph({0}, kg, hops=2, max_nodes=None)
    params = init_rgcn_params(rng, kg.num_concepts, kg.num_relations, 4, 2)
    full = encode(sub, params, kg, 2)

    h = T.embedding(params["rgcn.node_embed"], sub.node_array)
    h_rel = params["rgcn.rel_embed"]
    for layer in range(2):
        h, h_rel = rgcn_layer(h, h_rel, sub,
                              params[f"rgcn.l{layer}.w_neighbor"],
                              params[f"rgcn.l{layer}.w_self"],
                              params[f"rgcn.l{layer}.w_rel"], kg.num_relations)
    assert np.allclose(full.data, h.data, atol=1e-12)


def test_locality_edge_not_incident_does_not_change_node():
    rng = np.random.default_rng(2)
    kg = build_kg([("a", "r", "b"), ("c", "r", "d")])
    params = init_rgcn_params(rng, kg.num_concepts, kg.num_relations, 4, 1)
    a, b, c, d = range(4)
    sub_small = Subgraph(nodes={a, b}, edges=[(a, 0, b)], seeds=set())
    sub_big = Subgraph(nodes={a, b, c, d}, edges=[(a, 0, b), (c, 0, d)], seeds=set())
    out_small = encode(sub_small, params, kg, 1)
    out_big = encode(sub_big, params, kg, 1)
    for cid in (a, b):
        assert np.allclose(out_small.data[sub_small.node_array.tolist().index(cid)],
                           out_big.data[sub_big.node_array.tolist().index(cid)])


def test_relabeling_equivariance():
    rng = np.random.default_rng(3)
    # same structure, nodes registered in two different orders
    kg1 = build_kg([("n0", "r", "n1"), ("n1", "r", "n2")])
    kg2 = build_kg([("n2", "r", "n1"), ("n1", "r", "n0")])
    # hand-build kg2's triples to mirror kg1 under the relabeling n0<->n2
    d = 4
    params1 = init_rgcn_params(rng, 3, 1, d, 1)
    params2 = {k: T.Tensor(v.data.copy(), requires_grad=True) for k, v in params1.items()}
    # permute embedding rows with the relabeling pi: 0->2, 1->1, 2->0
    pi = [2, 1, 0]
    params2["rgcn.node_embed"].data = params1["rgcn.node_embed"].data[pi]
    sub1 = Subgraph(nodes={0, 1, 2}, edges=[(0, 0, 1), (1, 0, 2)], seeds=set())
    sub2 = Subgraph(nodes={0, 1, 2}, edges=[(2, 0, 1), (1, 0, 0)], seeds=set())
    out1 = encode(sub1, params1, kg1, 1)
    out2 = encode(sub2, params2, kg2, 1)
    for cid in range(3):
        assert np.allclose(out1.data[cid], out2.data[pi[cid]], atol=1e-12)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    kg = build_kg([("a", "r1", "b"), ("b", "r2", "c"), ("c", "r1", "a"), ("a", "r2", "d")])
    sub = extract_subgraph({0}, kg, hops=2, max_nodes=None)
    params = init_rgcn_params(rng, kg.num_concepts, kg.num_relations, 3, 2)
    target = T.constant(np.asarray(rng.normal(size=(len(sub.nodes), 3))))

    def forward():
        out = encode(sub, params, kg, 2)
        diff = compose(out, target)
        return mean_all(mul(diff, diff))

    loss = forward()
    loss.backward()
    check_gradients(lambda: forward().item(), params,
                    np.random.default_rng(5), n_checks=40, rel_tol=1e-5)
