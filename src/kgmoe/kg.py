"""ConceptNet-style triple store, concept grounding and 2-hop subgraph extraction."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Suffixes tried longest-first; a rule only applies if the stem keeps >= 3 chars.
_SUFFIXES = ("ing", "es", "ed", "s")
_MIN_STEM = 3


def stem(token: str) -> str:
    """Tiny rule stemmer: lowercase and strip a plural/verbal suffix."""
    token = token.lower()
    for suf in _SUFFIXES:
        if token.endswith(suf) and len(token) - len(suf) >= _MIN_STEM:
            return token[: -len(suf)]
    return token


def norm_tokens(text: str) -> list[str]:
    """Whitespace tokenization, lowercasing, rule stemming."""
    return [stem(t) for t in text.split()]


def _surface_key(surface: str) -> tuple[str, ...]:
    # ConceptNet multiword surfaces may use underscores; treat them as spaces.
    return tuple(stem(t) for t in surface.replace("_", " ").split())


@dataclass
class Subgraph:
    """Per-example concept neighborhood: nodes, the triples among them, seeds."""

    nodes: set[int]
    edges: list[tuple[int, int, int]]
    seeds: set[int]
    # Built on first use; a subgraph is not mutated after it is made.
    _sorted_nodes: list[int] | None = field(default=None, init=False, repr=False, compare=False)
    _messages: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def sorted_nodes(self) -> list[int]:
        """Node ids in ascending order, the row order of every per-node array.

        The same list is returned on every call; callers must not mutate it.
        """
        if self._sorted_nodes is None:
            self._sorted_nodes = sorted(self.nodes)
        return self._sorted_nodes

    def message_arrays(self, n_relations: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Local (src, dst, rel) index arrays of the messages along the edges.

        Indices are rows of `sorted_nodes()`.  Edge by edge, a triple (h, r, t)
        sends h -> t under r, then t -> h under the inverse relation
        r + n_relations.  Built once per `n_relations` and kept.
        """
        arrays = self._messages.get(n_relations)
        if arrays is None:
            row = {cid: i for i, cid in enumerate(self.sorted_nodes())}
            hrt = np.array([(row[h], r, row[t]) for h, r, t in self.edges],
                           dtype=np.int64).reshape(-1, 3)
            h, r, t = hrt.T
            arrays = (np.column_stack([h, t]).ravel(), np.column_stack([t, h]).ravel(),
                      np.column_stack([r, r + n_relations]).ravel())
            self._messages[n_relations] = arrays
        return arrays


class KnowledgeGraph:
    """Immutable-after-load triple store with id<->surface tables and adjacency."""

    def __init__(self):
        self.concepts: list[str] = []
        self.concept_ids: dict[str, int] = {}
        self.relations: list[str] = []
        self.relation_ids: dict[str, int] = {}
        self.triples: list[tuple[int, int, int]] = []
        self._triple_set: set[tuple[int, int, int]] = set()
        # concept id -> list of (neighbor id, triple index), both directions
        self.adjacency: dict[int, list[tuple[int, int]]] = {}
        self._surface_index: dict[tuple[str, ...], int] = {}
        self._max_surface_len = 0

    @property
    def num_concepts(self) -> int:
        return len(self.concepts)

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    def concept_id(self, surface: str) -> int:
        if surface not in self.concept_ids:
            cid = len(self.concepts)
            self.concept_ids[surface] = cid
            self.concepts.append(surface)
            self.adjacency[cid] = []
            key = _surface_key(surface)
            self._surface_index.setdefault(key, cid)
            self._max_surface_len = max(self._max_surface_len, len(key))
        return self.concept_ids[surface]

    def relation_id(self, name: str) -> int:
        if name not in self.relation_ids:
            self.relation_ids[name] = len(self.relations)
            self.relations.append(name)
        return self.relation_ids[name]

    def add_triple(self, head: str, relation: str, tail: str) -> bool:
        """Insert one triple; returns False for duplicates."""
        h, r, t = self.concept_id(head), self.relation_id(relation), self.concept_id(tail)
        triple = (h, r, t)
        if triple in self._triple_set:
            return False
        idx = len(self.triples)
        self._triple_set.add(triple)
        self.triples.append(triple)
        self.adjacency[h].append((t, idx))
        if t != h:
            self.adjacency[t].append((h, idx))
        return True


def load_kg(path) -> KnowledgeGraph:
    """Load a TSV of head<TAB>relation<TAB>tail lines, deduplicated.

    Ids are assigned in first-seen order; a malformed line raises with its number.
    """
    kg = KnowledgeGraph()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3 or not all(p.strip() for p in parts):
                raise ValueError(f"{path}: malformed KG line {lineno}: {line!r}")
            kg.add_triple(parts[0].strip(), parts[1].strip(), parts[2].strip())
    return kg


def ground_concepts(text: str, kg: KnowledgeGraph) -> set[int]:
    """Match normalized token spans of the text against KG surface forms.

    Greedy left-to-right scan, longest span first; matched spans are consumed.
    """
    tokens = norm_tokens(text)
    found: set[int] = set()
    i = 0
    while i < len(tokens):
        matched = False
        max_len = min(kg._max_surface_len, len(tokens) - i)
        for span in range(max_len, 0, -1):
            cid = kg._surface_index.get(tuple(tokens[i : i + span]))
            if cid is not None:
                found.add(cid)
                i += span
                matched = True
                break
        if not matched:
            i += 1
    return found


def _discover(seeds: set[int], kg: KnowledgeGraph, hops: int, limit: float) -> list[int]:
    """Undirected BFS discovery order from the sorted seeds, stopped at `limit` nodes."""
    discovery = sorted(seeds)
    found = set(discovery)
    frontier = discovery
    for _ in range(hops):
        next_frontier: list[int] = []
        for v in sorted(frontier):
            for u, _idx in kg.adjacency[v]:
                if u not in found:
                    if len(discovery) >= limit:
                        return discovery
                    found.add(u)
                    discovery.append(u)
                    next_frontier.append(u)
        if not next_frontier:
            break
        frontier = next_frontier
    return discovery


def extract_subgraph(seed_ids, kg: KnowledgeGraph, hops: int = 2,
                     max_nodes: int | None = 300) -> Subgraph:
    """Undirected BFS expansion of the seeds up to `hops`.

    Nodes are the union of BFS frontiers; edges are every KG triple with both
    endpoints inside the node set, in KG order (original direction preserved).
    The optional cap truncates by discovery order with seeds always kept.

    Cost: the BFS stops once `max_nodes` nodes are discovered, and the edges
    are read from the adjacency lists of the kept nodes, so the work follows
    the discovered nodes up to the cap plus the adjacency of the kept nodes,
    not the number of triples in the KG.
    """
    if hops < 0:
        raise ValueError(f"hops must be >= 0, got {hops}")
    if max_nodes is not None and max_nodes < 0:
        raise ValueError(f"max_nodes must be >= 0 or None, got {max_nodes}")
    seeds = set(seed_ids)
    for cid in seeds:
        if cid < 0 or cid >= kg.num_concepts:
            raise KeyError(f"unknown concept id {cid}")

    discovery = _discover(seeds, kg, hops, math.inf if max_nodes is None else max_nodes)
    nodes = set(discovery[:max_nodes]) | seeds
    # Each triple sits in the adjacency of both endpoints (a self-loop once), so
    # taking it from the endpoint with the smaller id counts it exactly once.
    kept = sorted(idx for v in nodes for u, idx in kg.adjacency[v] if u >= v and u in nodes)
    edges = [kg.triples[idx] for idx in kept]
    return Subgraph(nodes=nodes, edges=edges, seeds=seeds)
