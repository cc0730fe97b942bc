"""Concept selector: MLP scoring, BCE supervision, top-N picking rules."""

import math

import numpy as np
import pytest

from kgmoe import tensor as T
from kgmoe.kg import KnowledgeGraph, Subgraph, extract_subgraph
from kgmoe.rgcn import NodeStates
from kgmoe.selector import (PROB_CLIP, build_labels, concept_loss,
                            init_selector_params, score_concepts, top_n)

from util import check_gradients


def zeroed_selector(d, n_experts=1):
    params = init_selector_params(np.random.default_rng(0), d, n_experts)
    for t in params.values():
        t.data[:] = 0.0
    return params


def states_of(matrix, node_ids=None):
    arr = np.asarray(matrix, dtype=float)
    ids = list(range(arr.shape[0])) if node_ids is None else node_ids
    return NodeStates(ids, T.Tensor(arr), T.Tensor(np.zeros((2, arr.shape[1]))))


def test_zero_weights_give_half_probability():
    params = zeroed_selector(3)
    p = score_concepts(states_of([[1.0, -2.0, 0.5], [0.0, 0.0, 0.0]]), params)
    assert np.allclose(p.data, 0.5)


def test_hand_built_mlp_evaluation():
    # d=1: hidden = relu(2x), logit = 3*hidden + 1 -> sigmoid
    params = zeroed_selector(1)
    params["sel.w1"].data[:] = 2.0
    params["sel.w2"].data[:] = 3.0
    params["sel.b2"].data[:] = 1.0
    p = score_concepts(states_of([[1.0], [-1.0]]), params)
    expected = [1 / (1 + math.exp(-7.0)), 1 / (1 + math.exp(-1.0))]
    assert np.allclose(p.data, expected, atol=1e-12)


def test_expert_shift_changes_scores():
    rng = np.random.default_rng(1)
    params = init_selector_params(rng, 4, 3)
    st = states_of(rng.normal(size=(5, 4)))
    p0 = score_concepts(st, params, expert=0).data
    p1 = score_concepts(st, params, expert=1).data
    assert np.abs(p0 - p1).max() > 1e-9


def test_expert_none_matches_zero_expert_vector():
    rng = np.random.default_rng(2)
    params = init_selector_params(rng, 4, 2)
    params["sel.expert_embed"].data[1] = 0.0
    st = states_of(rng.normal(size=(3, 4)))
    assert np.array_equal(score_concepts(st, params, expert=None).data,
                          score_concepts(st, params, expert=1).data)


def test_build_labels_marks_grounded_reference_concepts():
    kg = KnowledgeGraph()
    for h, r, t in [("piano", "r", "music"), ("music", "r", "song")]:
        kg.add_triple(h, r, t)
    sub = extract_subgraph({kg.concept_ids["piano"]}, kg, hops=2)
    labels = build_labels(sub, "a song about music", kg)
    by_name = dict(zip([kg.concepts[c] for c in sub.sorted_nodes()], labels))
    assert by_name == {"piano": 0.0, "music": 1.0, "song": 1.0}


def test_build_labels_ignores_concepts_outside_subgraph():
    kg = KnowledgeGraph()
    kg.add_triple("piano", "r", "music")
    kg.add_triple("sport", "r", "run")
    sub = Subgraph(nodes={kg.concept_ids["piano"]}, edges=[], seeds=set())
    labels = build_labels(sub, "piano and sport", kg)
    assert labels.tolist() == [1.0]


def test_bce_hand_value_mixed():
    # -(ln 0.9 + ln 0.8)/2 = 0.164252...
    p = T.Tensor([0.9, 0.2])
    loss = concept_loss(p, np.array([1.0, 0.0]))
    assert loss.item() == pytest.approx(-(math.log(0.9) + math.log(0.8)) / 2, abs=1e-12)
    assert loss.item() == pytest.approx(0.16425, abs=1e-5)


def test_bce_half_probability_is_ln2():
    loss = concept_loss(T.Tensor([0.5, 0.5, 0.5]), np.array([1.0, 0.0, 1.0]))
    assert loss.item() == pytest.approx(math.log(2), abs=1e-12)


def test_bce_confident_correct_near_zero():
    loss = concept_loss(T.Tensor([1.0 - 1e-9, 1e-9]), np.array([1.0, 0.0]))
    assert loss.item() == pytest.approx(-math.log(1.0 - PROB_CLIP), abs=1e-12)


def test_bce_empty_labels_is_zero_constant():
    loss = concept_loss(T.Tensor(np.zeros((0,))), np.zeros(0))
    assert loss.item() == 0.0


def test_bce_clip_keeps_loss_finite():
    loss = concept_loss(T.Tensor([0.0, 1.0]), np.array([1.0, 0.0]))
    assert math.isfinite(loss.item())
    assert loss.item() == pytest.approx(-math.log(PROB_CLIP), abs=1e-6)


def test_top_n_orders_by_probability():
    p = {0: 0.1, 1: 0.9, 2: 0.5}
    assert top_n(p, 2) == [1, 2]


def test_top_n_ties_break_by_ascending_id():
    p = {5: 0.4, 2: 0.4, 9: 0.4}
    assert top_n(p, 2) == [2, 5]


def test_top_n_respects_forbidden():
    p = {0: 0.9, 1: 0.8, 2: 0.7}
    assert top_n(p, 2, forbidden={0}) == [1, 2]


def test_top_n_more_than_available():
    assert top_n({3: 0.2, 1: 0.8}, 10) == [1, 3]


def test_top_n_disjoint_accumulation():
    p = {0: 0.9, 1: 0.8, 2: 0.7, 3: 0.6}
    taken = set()
    picks = []
    for _ in range(2):
        chosen = top_n(p, 2, forbidden=taken)
        picks.append(chosen)
        taken |= set(chosen)
    assert picks == [[0, 1], [2, 3]]
    assert not set(picks[0]) & set(picks[1])


def test_selector_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    params = init_selector_params(rng, 4, 2)
    st = states_of(rng.normal(size=(6, 4)))
    labels = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0])

    def forward():
        return concept_loss(score_concepts(st, params, expert=1), labels)

    loss = forward()
    loss.backward()
    check_gradients(lambda: forward().item(), params,
                    np.random.default_rng(4), n_checks=30, rel_tol=1e-6)
