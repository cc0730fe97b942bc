"""Triple store, grounding and subgraph extraction against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgmoe.kg import (KnowledgeGraph, Subgraph, extract_subgraph, ground_concepts,
                      load_kg, norm_tokens, stem)


def build_kg(triples):
    kg = KnowledgeGraph()
    for h, r, t in triples:
        kg.add_triple(h, r, t)
    return kg


def brute_force_subgraph(seed_ids, kg, hops=2, max_nodes=None):
    """Naive level-by-level expansion over the raw edge list, capped by discovery order.

    Within a level, frontier nodes are expanded in ascending id and each one's
    neighbours are met in KG order; the cap keeps the first `max_nodes`
    discovered nodes plus every seed.  Edges come from a full scan of the KG.
    """
    discovery = sorted(seed_ids)
    frontier = list(discovery)
    for _ in range(hops):
        level = []
        for v in sorted(frontier):
            for h, _r, t in kg.triples:
                u = t if h == v else h if t == v else None
                if u is not None and u not in discovery:
                    discovery.append(u)
                    level.append(u)
        frontier = level
    kept = discovery if max_nodes is None else discovery[:max_nodes]
    nodes = set(kept) | set(seed_ids)
    edges = [tr for tr in kg.triples if tr[0] in nodes and tr[2] in nodes]
    return nodes, edges


def expanded_nodes(seed_ids, kg, hops):
    """Uncapped node set by repeated one-round neighbour expansion."""
    nodes = set(seed_ids)
    for _ in range(hops):
        grown = set(nodes)
        for h, _r, t in kg.triples:
            if h in nodes:
                grown.add(t)
            if t in nodes:
                grown.add(h)
        nodes = grown
    return nodes


# --- loading ---------------------------------------------------------------

def test_load_simple_tsv(tmp_path):
    p = tmp_path / "kg.tsv"
    p.write_text("a\tr1\tb\n")
    kg = load_kg(p)
    assert kg.num_concepts == 2 and kg.num_relations == 1 and len(kg.triples) == 1


def test_load_dedupes(tmp_path):
    p = tmp_path / "kg.tsv"
    p.write_text("a\tr1\tb\na\tr1\tb\n")
    assert len(load_kg(p).triples) == 1


def test_load_malformed_line_cites_line_number(tmp_path):
    p = tmp_path / "kg.tsv"
    p.write_text("a\tr1\n")
    with pytest.raises(ValueError, match="line 1"):
        load_kg(p)


def test_load_empty_file_is_valid_empty_graph(tmp_path):
    p = tmp_path / "kg.tsv"
    p.write_text("")
    kg = load_kg(p)
    assert kg.num_concepts == 0 and not kg.triples


def test_ids_assigned_first_seen_order(tmp_path):
    p = tmp_path / "kg.tsv"
    p.write_text("b\tr\ta\nc\tr\tb\n")
    kg = load_kg(p)
    assert kg.concepts == ["b", "a", "c"]


# --- stemming and grounding ------------------------------------------------

def test_stemmer_rules():
    assert stem("pianos") == "piano"
    assert stem("playing") == "play"
    assert stem("boxes") == "box"
    assert stem("walked") == "walk"
    assert stem("is") == "is"        # stem would drop below 3 chars
    assert stem("kind") == "kind"


def test_ground_multiconcept_sentence():
    kg = build_kg([("piano", "relatedto", "music"), ("sport", "relatedto", "run"),
                   ("kind", "relatedto", "type")])
    found = ground_concepts("piano is a kind of sport", kg)
    assert {kg.concepts[c] for c in found} == {"piano", "sport", "kind"}


def test_ground_empty_text():
    kg = build_kg([("a", "r", "b")])
    assert ground_concepts("", kg) == set()


def test_ground_uses_stemmer():
    kg = build_kg([("piano", "r", "play")])
    found = ground_concepts("playing pianos", kg)
    assert {kg.concepts[c] for c in found} == {"piano", "play"}


def test_ground_multiword_longest_first():
    kg = build_kg([("ice cream", "r", "dessert"), ("ice", "r", "cold")])
    found = ground_concepts("i like ice cream", kg)
    assert {kg.concepts[c] for c in found} == {"ice cream"}


def test_ground_case_insensitive():
    kg = build_kg([("piano", "r", "music")])
    assert ground_concepts("PIANO Music", kg) == ground_concepts("piano music", kg)


def test_ground_idempotent_on_grounded_surfaces():
    kg = build_kg([("piano", "r", "music")])
    found = ground_concepts("piano music", kg)
    rejoined = " ".join(kg.concepts[c] for c in sorted(found))
    assert ground_concepts(rejoined, kg) == found


# --- subgraph extraction ---------------------------------------------------

def chain_kg():
    return build_kg([("a", "r", "b"), ("b", "r", "c"), ("c", "r", "d")])


def test_chain_two_hops_from_one_seed():
    kg = chain_kg()
    sub = extract_subgraph({kg.concept_ids["a"]}, kg, hops=2)
    assert {kg.concepts[c] for c in sub.nodes} == {"a", "b", "c"}
    assert len(sub.edges) == 2


def test_empty_seeds_empty_subgraph():
    sub = extract_subgraph(set(), chain_kg(), hops=2)
    assert sub.nodes == set() and sub.edges == []


def test_chain_two_seeds_cover_everything():
    kg = chain_kg()
    seeds = {kg.concept_ids["a"], kg.concept_ids["d"]}
    sub = extract_subgraph(seeds, kg, hops=2)
    assert {kg.concepts[c] for c in sub.nodes} == {"a", "b", "c", "d"}
    assert len(sub.edges) == 3


def test_unknown_seed_raises():
    with pytest.raises(KeyError):
        extract_subgraph({99}, chain_kg())


def test_max_nodes_cap_keeps_seeds():
    kg = build_kg([("hub", "r", f"n{i}") for i in range(10)])
    seed = {kg.concept_ids["hub"]}
    sub = extract_subgraph(seed, kg, hops=1, max_nodes=4)
    assert kg.concept_ids["hub"] in sub.nodes
    assert len(sub.nodes) == 4


def random_kg(rng, n_nodes, n_edges):
    kg = KnowledgeGraph()
    for _ in range(n_edges):
        h = f"n{rng.integers(0, n_nodes)}"
        t = f"n{rng.integers(0, n_nodes)}"
        kg.add_triple(h, f"r{rng.integers(0, 3)}", t)
    return kg


def random_case(rng):
    """A random KG (self-loops likely on few nodes) and 1-5 distinct seeds."""
    kg = random_kg(rng, int(rng.integers(2, 50)), int(rng.integers(1, 80)))
    k = int(rng.integers(1, min(5, kg.num_concepts) + 1))
    seeds = set(rng.choice(kg.num_concepts, size=k, replace=False).tolist())
    return kg, seeds


def test_matches_brute_force_on_100_random_graphs():
    rng = np.random.default_rng(7)
    self_loops = seeds_over_cap = truncated = 0
    for _ in range(100):
        kg, seeds = random_case(rng)
        self_loops += any(h == t for h, _r, t in kg.triples)
        for hops in range(4):
            reachable = expanded_nodes(seeds, kg, hops)
            for cap in (None, 0, 1, 3, 8):
                sub = extract_subgraph(seeds, kg, hops=hops, max_nodes=cap)
                nodes, edges = brute_force_subgraph(seeds, kg, hops=hops, max_nodes=cap)
                assert sub.nodes == nodes
                assert sub.edges == edges
                assert sub.seeds == seeds
                if cap is None:
                    assert nodes == reachable
                else:
                    seeds_over_cap += len(seeds) > cap
                    truncated += len(nodes) < len(reachable)
    assert self_loops and seeds_over_cap and truncated


class ScanGuard(list):
    """Triple list that allows indexing but refuses a full iteration."""

    def __init__(self, triples):
        super().__init__(triples)
        self.reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)

    def __iter__(self):
        raise AssertionError("full scan of kg.triples")


def test_extraction_reads_only_the_triples_it_returns():
    rng = np.random.default_rng(11)
    for _ in range(30):
        kg, seeds = random_case(rng)
        for hops, cap in ((2, None), (2, 3), (1, 0), (3, 8)):
            nodes, edges = brute_force_subgraph(seeds, kg, hops=hops, max_nodes=cap)
            triples = kg.triples
            kg.triples = guard = ScanGuard(triples)
            try:
                sub = extract_subgraph(seeds, kg, hops=hops, max_nodes=cap)
            finally:
                kg.triples = triples
            assert sub.nodes == nodes and sub.edges == edges
            assert guard.reads == len(edges)


def test_negative_subgraph_parameters_raise():
    kg = build_kg([("hub", "r", f"n{i}") for i in range(6)])
    seed = {kg.concept_ids["hub"]}
    with pytest.raises(ValueError, match="max_nodes"):
        extract_subgraph(seed, kg, hops=1, max_nodes=-2)
    with pytest.raises(ValueError, match="hops"):
        extract_subgraph(seed, kg, hops=-1)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_monotonicity_in_seeds(seed):
    rng = np.random.default_rng(seed)
    kg = random_kg(rng, int(rng.integers(3, 20)), int(rng.integers(2, 30)))
    ids = list(range(kg.num_concepts))
    small = set(rng.choice(ids, size=1).tolist())
    big = small | set(rng.choice(ids, size=2).tolist())
    sub_small = extract_subgraph(small, kg, hops=2, max_nodes=None)
    sub_big = extract_subgraph(big, kg, hops=2, max_nodes=None)
    assert sub_small.nodes <= sub_big.nodes


def test_edges_preserve_direction():
    kg = build_kg([("a", "r", "b")])
    sub = extract_subgraph({kg.concept_ids["b"]}, kg, hops=1)
    assert sub.edges == [(kg.concept_ids["a"], 0, kg.concept_ids["b"])]
