"""Triple store, grounding and subgraph extraction against brute-force oracles."""

import gc
import hashlib
import json
import os
import pickle
import subprocess
import sys
import tracemalloc
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgmoe import kg as kgmod
from kgmoe.generator import Vocab
from kgmoe.kg import (KnowledgeGraph, Subgraph, extract_subgraph, ground_concepts, load_kg,
                      norm_tokens, stem)
from kgmoe.moe import ExampleContext, TrainConfig, prepare_example
from kgmoe.pipeline import Example, make_synthetic_task, save_kg_tsv
from kgmoe.selector import build_labels

SRC = Path(__file__).resolve().parents[1] / "src"


def build_kg(triples):
    return KnowledgeGraph.from_triples(triples)


def triple_tuples(kg):
    """The KG's (head, relation, tail) id rows as Python tuples, in KG order."""
    return [tuple(tr) for tr in kg.triples.tolist()]


def brute_force_subgraph(seed_ids, kg, hops=2, max_nodes=None):
    """Naive level-by-level expansion over the raw edge list, capped by discovery order.

    Within a level, frontier nodes are expanded in ascending id and each one's
    neighbours are met in KG order; the cap keeps the first `max_nodes`
    discovered nodes plus every seed.  Edges come from a full scan of the KG.
    """
    triples = triple_tuples(kg)
    discovery = sorted(seed_ids)
    frontier = list(discovery)
    for _ in range(hops):
        level = []
        for v in sorted(frontier):
            for h, _r, t in triples:
                u = t if h == v else h if t == v else None
                if u is not None and u not in discovery:
                    discovery.append(u)
                    level.append(u)
        frontier = level
    kept = discovery if max_nodes is None else discovery[:max_nodes]
    nodes = set(kept) | set(seed_ids)
    edges = [tr for tr in triples if tr[0] in nodes and tr[2] in nodes]
    return nodes, edges


def expanded_nodes(seed_ids, kg, hops):
    """Uncapped node set by repeated one-round neighbour expansion."""
    nodes = set(seed_ids)
    for _ in range(hops):
        grown = set(nodes)
        for h, _r, t in triple_tuples(kg):
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
    p.write_text("a\tr1\tb\na\tr1\n")
    with pytest.raises(ValueError, match="line 2"):
        load_kg(p)
    assert not sidecar(p).exists()


def test_load_empty_file_is_valid_empty_graph(tmp_path):
    p = tmp_path / "kg.tsv"
    p.write_text("")
    kg = load_kg(p)
    assert kg.num_concepts == 0 and len(kg.triples) == 0


def test_pickled_copy_extracts_the_same_subgraphs():
    rng = np.random.default_rng(3)
    kg, seeds = random_case(rng)
    copy = pickle.loads(pickle.dumps(kg))
    assert copy.concepts == kg.concepts and triple_tuples(copy) == triple_tuples(kg)
    assert extract_subgraph(seeds, copy) == extract_subgraph(seeds, kg)


def test_ids_assigned_first_seen_order(tmp_path):
    p = tmp_path / "kg.tsv"
    p.write_text("b\tr\ta\nc\tr\tb\n")
    kg = load_kg(p)
    assert kg.concepts == ["b", "a", "c"]


def naive_load(path):
    """Reference loader: text-mode lines, one dict per id table, a set of seen triples."""
    concepts, relations, triples, seen = {}, {}, [], set()
    adjacency = {}
    with open(path, encoding="utf-8-sig") as f:
        for line in f:
            line = line.rstrip("\n")
            if not line:
                continue
            h, r, t = (part.strip() for part in line.split("\t"))
            for c in (h, t):
                if c not in concepts:
                    concepts[c] = len(concepts)
                    adjacency[concepts[c]] = []
            relations.setdefault(r, len(relations))
            triple = (concepts[h], relations[r], concepts[t])
            if triple not in seen:
                seen.add(triple)
                adjacency[triple[0]].append((triple[2], len(triples)))
                if triple[2] != triple[0]:
                    adjacency[triple[2]].append((triple[0], len(triples)))
                triples.append(triple)
    return list(concepts), list(relations), triples, adjacency


def random_tsv(rng):
    """Bytes of a TSV with duplicates, self-loops, CRLF and lone-CR line ends,
    blank lines and padded fields."""
    names = [f"n{i}" for i in range(int(rng.integers(1, 12)))] + ["ice cream", "Ünï"]
    lines = []
    for _ in range(int(rng.integers(0, 40))):
        if rng.random() < 0.1:
            lines.append("")
            continue
        h, t = rng.choice(names, size=2)
        if rng.random() < 0.15:
            t = h
        fields = [h, f"r{rng.integers(0, 3)}", t]
        lines.append("\t".join(" " * int(rng.integers(0, 2)) + f + " " * int(rng.integers(0, 2))
                               for f in fields))
    ends = rng.choice(["\n", "\r\n", "\r"], size=len(lines))
    return "".join(line + end for line, end in zip(lines, ends)).encode("utf-8")


def sidecar(path):
    return path.with_name(path.name + ".kgcache")


def count_parses(monkeypatch) -> list:
    """A list that gains an entry each time `load_kg` parses a TSV."""
    calls, parse = [], kgmod._parse_kg
    monkeypatch.setattr(kgmod, "_parse_kg", lambda *args: calls.append(args) or parse(*args))
    return calls


def assert_same_kg(got, want):
    """Every field a load builds: surfaces, triples, CSR, loop table, surface index."""
    assert got.concepts == want.concepts and got.relations == want.relations
    assert got.relation_ids == want.relation_ids and got.concept_ids == want.concept_ids
    for name in ("triples", "indptr", "neighbours", "triple_index"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name
    assert got._loops == want._loops and got._max_surface_len == want._max_surface_len
    assert list(got._surface_index.items()) == list(want._surface_index.items())


def test_load_matches_naive_reference_on_random_tsvs(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    p = tmp_path / "kg.tsv"
    parses = count_parses(monkeypatch)
    seen_dup = seen_loop = 0
    for _ in range(200):
        p.write_bytes(random_tsv(rng))
        sidecar(p).unlink(missing_ok=True)
        concepts, relations, triples, adjacency = naive_load(p)
        for warm in (False, True):     # the first load parses and writes the sidecar
            before = len(parses)
            kg = load_kg(p)
            assert len(parses) == before + (not warm) and sidecar(p).is_file()
            assert kg.concepts == concepts and kg.relations == relations
            assert kg.concept_ids == {c: i for i, c in enumerate(concepts)}
            assert triple_tuples(kg) == triples
            assert kg.triples.dtype == np.int32 and kg.triples.shape == (len(triples), 3)
            for v, row in adjacency.items():
                a, b = kg.indptr[v], kg.indptr[v + 1]
                assert list(zip(kg.neighbours[a:b].tolist(),
                                kg.triple_index[a:b].tolist())) == row
            assert kg.indptr[-1] == len(kg.neighbours) == len(kg.triple_index)
            assert_same_kg(kg, KnowledgeGraph.from_triples(
                [(concepts[h], relations[r], concepts[t]) for h, r, t in triples]))
        seen_dup += len(triples) < sum(1 for line in p.read_text().splitlines() if line.strip())
        seen_loop += any(h == t for h, _r, t in triples)
    assert seen_dup and seen_loop


def test_sidecar_layout(tmp_path):
    p = tmp_path / "kg.tsv"
    p.write_text("Pianos\tr\tice_cream\nb\tr\tb\n")
    load_kg(p)
    data = sidecar(p).read_bytes()
    end = data.index(b"\n") + 1
    header = json.loads(data[:end])
    assert end % 8 == 0 and data[:end].isascii()
    assert header["version"] == 1 and header["code_sha256"] == kgmod._code_sha256()
    assert header["tsv_sha256"] == hashlib.sha256(p.read_bytes()).hexdigest()
    assert [name for name, _, _ in header["arrays"]] == [
        "triples", "indptr", "neighbours", "triple_index", "concepts", "relations",
        "key_rows", "keys", "max_surface_len"]
    shapes = {name: shape for name, _, shape in header["arrays"]}
    assert shapes["triples"] == [2, 3] and shapes["key_rows"] == [2]
    offset = end + sum(-(-np.dtype(dtype).itemsize * int(np.prod(shape)) // 8) * 8
                       for _, dtype, shape in header["arrays"][:7])
    assert data[offset:offset + 16] == b"piano\nice cream\n"
    assert np.frombuffer(data[-8:], "<i8").tolist() == [2]     # the longest key, in words


def test_edited_tsv_is_parsed_again_and_its_sidecar_rewritten(tmp_path, monkeypatch):
    p = tmp_path / "kg.tsv"
    p.write_text("a\tr\tb\n")
    parses = count_parses(monkeypatch)
    assert load_kg(p).concepts == ["a", "b"]
    stat = p.stat()
    p.write_text("a\tr\tc\n")                          # same size, same times
    os.utime(p, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert load_kg(p).concepts == ["a", "c"] and len(parses) == 2
    assert load_kg(p).concepts == ["a", "c"] and len(parses) == 2


def test_tsv_edited_during_a_cold_load_keys_the_sidecar_to_the_bytes_parsed(tmp_path,
                                                                            monkeypatch):
    # a load takes the TSV's digest before it looks for a sidecar; an edit
    # landing after that must not leave the old digest on the new columns
    p = tmp_path / "kg.tsv"
    p.write_text("a\tr\tb\n")
    read_cache = kgmod._read_cache

    def edit_then_read(cache, header):
        p.write_text("a\tr\tc\n")
        return read_cache(cache, header)

    monkeypatch.setattr(kgmod, "_read_cache", edit_then_read)
    assert load_kg(p).concepts == ["a", "c"]
    monkeypatch.undo()
    p.write_text("a\tr\tb\n")
    assert load_kg(p).concepts == ["a", "b"]
    assert load_kg(p).concepts == ["a", "b"]


def rewrite_header(path, **changes):
    """Change header fields of a sidecar, keeping its length and its payload."""
    data = path.read_bytes()
    end = data.index(b"\n")
    line = json.dumps({**json.loads(data[:end]), **changes}).encode()
    assert len(line) <= end
    path.write_bytes(line + b" " * (end - len(line)) + data[end:])


def reshape_triples(path):
    """Give the triples a shape of the same size but not [n, 3]."""
    data = path.read_bytes()
    arrays = json.loads(data[:data.index(b"\n")])["arrays"]
    arrays[0][2] = [1, arrays[0][2][0] * 3]
    rewrite_header(path, arrays=arrays)


def flip_last_payload_byte(path):
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x01
    path.write_bytes(bytes(data))


def foreign_sidecar(path):
    """Put another TSV's sidecar at `path`."""
    other = path.with_name("other.tsv")
    other.write_text("x\tr\ty\n")
    load_kg(other)
    sidecar(other).replace(path)


BAD_SIDECARS = {
    "truncated": lambda p: p.write_bytes(p.read_bytes()[:-9]),
    "header-only": lambda p: p.write_bytes(p.read_bytes().split(b"\n")[0] + b"\n"),
    "payload-byte-flipped": flip_last_payload_byte,
    "wrong-version": lambda p: rewrite_header(p, version=2),
    "garbage-header": lambda p: p.write_bytes(b"\x00\xff{[" * 16 + p.read_bytes()),
    "deep-json-header": lambda p: p.write_bytes(b"[" * 100_000 + b"\n"),
    "json-list-header": lambda p: p.write_bytes(b"[1, 2, 3]\n"),
    "bad-array-entry": lambda p: rewrite_header(p, arrays=[["triples", "<i4", [-1]]]),
    "triples-reshaped": reshape_triples,
    "empty": lambda p: p.write_bytes(b""),
}


@pytest.mark.parametrize("spoil", [*BAD_SIDECARS.values(), foreign_sidecar, "other-code"],
                         ids=[*BAD_SIDECARS, "foreign", "other-code"])
def test_bad_sidecar_is_a_miss(tmp_path, monkeypatch, spoil):
    p = tmp_path / "kg.tsv"
    p.write_text("a\tr\tb\nb\tq\tc\nc\tr\tc\n")
    want = load_kg(p)
    if spoil == "other-code":       # as if kg.py changed since the sidecar was written
        monkeypatch.setattr(kgmod, "_code_sha256", lambda: "0" * 64)
    else:
        spoil(sidecar(p))
    parses = count_parses(monkeypatch)
    assert_same_kg(load_kg(p), want)
    assert len(parses) == 1                         # parsed again, and the sidecar rewritten
    assert_same_kg(load_kg(p), want)
    assert len(parses) == 1


def test_directory_at_the_sidecar_path_still_loads(tmp_path, monkeypatch):
    p = tmp_path / "kg.tsv"
    p.write_text("a\tr\tb\n")
    sidecar(p).mkdir()
    parses = count_parses(monkeypatch)
    for _ in range(2):
        assert load_kg(p).concepts == ["a", "b"]
    assert len(parses) == 2
    assert sorted(q.name for q in tmp_path.iterdir()) == ["kg.tsv", "kg.tsv.kgcache"]


def test_two_processes_cold_loading_one_tsv_leave_a_valid_sidecar(tmp_path, monkeypatch):
    _, triples = make_synthetic_task(seed=0, n_inputs=30, k_modes=3, kg_size=20_000)
    p = tmp_path / "kg.tsv"
    save_kg_tsv(p, triples)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys; from kgmoe.kg import load_kg; load_kg(sys.argv[1])"
    procs = [subprocess.Popen([sys.executable, "-c", code, str(p)], env=env) for _ in range(2)]
    assert [proc.wait(timeout=120) for proc in procs] == [0, 0]
    parses = count_parses(monkeypatch)
    assert_same_kg(load_kg(p), KnowledgeGraph.from_triples(triples))
    assert not parses
    assert sorted(q.name for q in tmp_path.iterdir()) == ["kg.tsv", "kg.tsv.kgcache"]

def test_load_undecodable_byte_names_file_and_line(tmp_path):
    p = tmp_path / "kg.tsv"
    p.write_bytes(b"a\tr\tb\r\nc\tr\td\xff\n")
    with pytest.raises(ValueError, match=r"kg\.tsv: undecodable KG line 2"):
        load_kg(p)
    assert not sidecar(p).exists()


@pytest.mark.parametrize("good_lines", [10, 5000])
def test_load_names_the_earliest_bad_line_whatever_lies_between(tmp_path, good_lines):
    # a malformed line 1 and an undecodable last line: line 1 is named whether
    # the two fall in one decode chunk or in different ones
    p = tmp_path / "kg.tsv"
    p.write_bytes(b"\xef\xbb\xbfa\tr\n" + b"a\tr\tb\r\n" * good_lines + b"c\tr\td\xff\n")
    with pytest.raises(ValueError, match=r"kg\.tsv: malformed KG line 1: 'a\\tr'$"):
        load_kg(p)
    p.write_bytes(b"a\tr\tb\n" * good_lines + b"a\tr\n" + b"c\tr\td\xff\n")
    with pytest.raises(ValueError, match=rf"malformed KG line {good_lines + 1}: "):
        load_kg(p)
    p.write_bytes(b"a\tr\tb\r" * good_lines + b"c\tr\td\xff\na\tr\n")
    with pytest.raises(ValueError, match=rf"undecodable KG line {good_lines + 1}: "):
        load_kg(p)
    assert not sidecar(p).exists()


def collector_visits(kg) -> dict[str, int]:
    """Per attribute of kg, the references that the cyclic collector
    traverses in the objects it tracks that the attribute reaches (classes
    left out: they are shared, not part of the graph)."""
    visits = {}
    for name, value in vars(kg).items():
        seen, stack, count = set(), [value], 0
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, type) or not gc.is_tracked(obj):
                continue
            seen.add(id(obj))
            referents = gc.get_referents(obj)
            count += len(referents)
            stack.extend(referents)
        visits[name] = count
    return visits


def test_collector_walks_no_per_concept_entries_of_a_loaded_kg(tmp_path):
    # a young container with an entry per concept makes every young collection
    # after a load walk the KG; its attributes must cost the same at any size
    found = []
    for n in (50, 5000):
        p = tmp_path / f"chain{n}.tsv"
        p.write_text("".join(f"c{i}\tr{i % 3}\tc{i + 1}\n" for i in range(n - 1)))
        cold, warm = load_kg(p), load_kg(p)
        assert sidecar(p).exists() and warm.num_concepts == n
        found += [collector_visits(cold), collector_visits(warm)]
    grown = {name: (found[0].get(name), count) for visits in found[1:]
             for name, count in visits.items() if count != found[0].get(name)}
    assert not grown, grown


def test_surfaces_holding_line_breaks_read_back_as_themselves():
    surfaces = ["a\nb", "c", "\n", "é\r\n", "", "\ud800x"]
    kg = build_kg([("a\nb", "r", "c"), ("c", "r", "\n"), ("é\r\n", "r", "a\nb"),
                   ("", "r", "\ud800x")])
    assert [kg.concepts[i] for i in range(kg.num_concepts)] == surfaces
    assert list(kg.concepts) == surfaces and len(kg.concepts) == len(surfaces)
    assert kg.concepts[-1] == "\ud800x" and kg.concepts[-6] == "a\nb"
    assert kg.concept_ids == {c: i for i, c in enumerate(surfaces)}
    for i in (6, -7):
        with pytest.raises(IndexError):
            kg.concepts[i]
    # compared and sliced as the list of surfaces would be
    assert kg.concepts == surfaces and surfaces == kg.concepts and kg.concepts == kg.concepts
    assert kg.concepts != surfaces[:-1] and kg.concepts != [*surfaces[:-1], "x"]
    assert kg.concepts != tuple(surfaces) and kg.concepts != "a\nb"
    assert kg.concepts[1:5:2] == surfaces[1:5:2] and kg.concepts[::-1] == surfaces[::-1]
    with pytest.raises(TypeError):
        kg.concepts["0"]


def test_load_drops_leading_bom(tmp_path):
    p = tmp_path / "kg.tsv"
    p.write_bytes("\ufeffa\tr\tb\n".encode("utf-8"))
    kg = load_kg(p)
    assert kg.concepts == ["a", "b"]
    assert ground_concepts("a", kg) == {0}


def test_loaded_kg_holds_at_most_400_bytes_per_triple(tmp_path, monkeypatch):
    _, triples = make_synthetic_task(seed=0, n_inputs=30, k_modes=3, kg_size=20_000)
    p = tmp_path / "kg.tsv"
    save_kg_tsv(p, triples)
    parses = count_parses(monkeypatch)
    held = []
    for _ in range(2):                  # cold: parse and write the sidecar; warm: read it
        tracemalloc.start()
        try:
            kg = load_kg(p)
            held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        del kg
    assert len(parses) == 1
    assert len(load_kg(p).triples) >= 20_000
    assert max(held) / 20_000 <= 400
    assert held[1] <= held[0]


# --- stemming and grounding ------------------------------------------------

def test_stemmer_rules():
    assert stem("pianos") == "piano"
    assert stem("playing") == "play"
    assert stem("boxes") == "box"
    assert stem("walked") == "walk"
    assert stem("is") == "is"        # stem would drop below 3 chars
    assert stem("kind") == "kind"


def loop_stem(token):
    """The stemming rule token by token: lowercase, then the first suffix that keeps 3 chars."""
    token = token.lower()
    for suf in ("ing", "es", "ed", "s"):
        if token.endswith(suf) and len(token) - len(suf) >= 3:
            return token[: -len(suf)]
    return token


TEXT_CHARS = "abeginsdSGÉΣσİ_ \t  \x1c\n"


@given(st.lists(st.text(alphabet=TEXT_CHARS, max_size=12), max_size=6))
@settings(max_examples=300, deadline=None)
def test_whole_text_stemming_matches_the_token_rule(surfaces):
    for text in surfaces:
        assert norm_tokens(text) == [loop_stem(t) for t in text.split()]
    expected = [" ".join(loop_stem(t) for t in s.replace("_", " ").split()) for s in surfaces]
    assert kgmod._surface_keys(surfaces) == expected


def token_stem(text):
    """`stem` by hand: each run of non-space chars through `loop_stem`, spaces kept."""
    runs = ("".join(run) for _, run in groupby(text, str.isspace))
    return "".join(r if r.isspace() else loop_stem(r) for r in runs)


@given(st.text(alphabet=TEXT_CHARS, max_size=40))
@settings(max_examples=500, deadline=None)
def test_stem_matches_a_plain_per_token_rule(text):
    assert stem(text) == token_stem(text)


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
    triples = []
    for _ in range(n_edges):
        h = f"n{rng.integers(0, n_nodes)}"
        t = f"n{rng.integers(0, n_nodes)}"
        triples.append((h, f"r{rng.integers(0, 3)}", t))
    return KnowledgeGraph.from_triples(triples)


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
        self_loops += any(h == t for h, _r, t in triple_tuples(kg))
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


class ScanGuard:
    """Stand-in for `kg.triples` that serves rows by `take` and refuses any other read."""

    def __init__(self, triples):
        self._triples = triples
        self.reads = 0

    def take(self, rows, axis):
        assert axis == 0
        out = self._triples.take(rows, axis=0)
        self.reads += len(out)
        return out

    def _refuse(self, *args, **kwargs):
        raise AssertionError("read of kg.triples other than a row gather")

    __iter__ = __len__ = __getitem__ = __array__ = _refuse


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


@pytest.mark.parametrize("gather_min", [0, 10**9])
def test_both_edge_readers_match_brute_force(monkeypatch, gather_min):
    """The loop for small node sets and the numpy gather for large ones, each on every case."""
    monkeypatch.setattr(kgmod, "_GATHER_MIN_NODES", gather_min)
    rng = np.random.default_rng(13)
    for _ in range(60):
        kg, seeds = random_case(rng)
        for hops in range(4):
            for cap in (None, 0, 1, 3, 8):
                nodes, edges = brute_force_subgraph(seeds, kg, hops=hops, max_nodes=cap)
                triples = kg.triples
                kg.triples = guard = ScanGuard(triples)
                try:
                    sub = extract_subgraph(seeds, kg, hops=hops, max_nodes=cap)
                finally:
                    kg.triples = triples
                assert sub.nodes == nodes and sub.edges == edges
                assert guard.reads == len(edges)
                # Python ints: the benchmark digest and JSON output encode them.
                assert {type(x) for x in sub.nodes.union(*sub.edges)} <= {int}


def oracle_message_arrays(nodes, edges, n_relations):
    """Message arrays built directly from a row dict and a tuple list."""
    row = {cid: i for i, cid in enumerate(sorted(nodes))}
    hrt = np.array([(row[h], r, row[t]) for h, r, t in edges], dtype=np.int64).reshape(-1, 3)
    h, r, t = hrt.T
    dst = np.column_stack([t, h]).ravel()
    divisor = np.maximum(np.bincount(dst, minlength=len(row)).astype(np.float64), 1.0)
    return (np.column_stack([h, t]).ravel(), dst,
            np.column_stack([r, r + n_relations]).ravel(), divisor)


def oracle_labels(nodes, reference, kg):
    positives = ground_concepts(reference, kg) & nodes
    return np.array([1.0 if cid in positives else 0.0 for cid in sorted(nodes)])


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("gather_min", [0, 10**9])
def test_subgraph_arrays_match_a_set_and_dict_oracle(monkeypatch, gather_min):
    """Extracted and hand-built subgraphs give the node order, message arrays
    and labels of a set/dict construction, and the JSON views hold Python ints."""
    monkeypatch.setattr(kgmod, "_GATHER_MIN_NODES", gather_min)
    rng = np.random.default_rng(17)
    for _ in range(40):
        kg, seeds = random_case(rng)
        reference = " ".join(kg.concepts[c] for c in rng.choice(kg.num_concepts, 4))
        for hops, cap in ((0, None), (1, 3), (2, None), (3, 8)):
            nodes, edges = brute_force_subgraph(seeds, kg, hops=hops, max_nodes=cap)
            extracted = extract_subgraph(seeds, kg, hops=hops, max_nodes=cap)
            hand = Subgraph(nodes=set(nodes), edges=list(edges), seeds=set(seeds))
            for sub in (extracted, hand):
                for n_relations in (kg.num_relations, 7):
                    assert_same_arrays(sub.message_arrays(n_relations),
                                       oracle_message_arrays(nodes, edges, n_relations))
                assert_same_arrays([build_labels(sub, reference, kg), sub.node_array],
                                   [oracle_labels(nodes, reference, kg),
                                    np.array(sorted(nodes), dtype=np.int64)])
                assert sub.node_array.tolist() == sorted(nodes) and sub.edges == edges
            assert np.array_equal(extracted.edge_array, hand.edge_array)

        cfg = TrainConfig(n_experts=2, d_model=8, n_heads=2, max_len=16,
                          subgraph_hops=2, max_subgraph_nodes=8)
        text = " ".join(kg.concepts[c] for c in sorted(seeds))
        ctx = prepare_example(Example("e", text, [reference]),
                              kg, Vocab.build([text, reference], 2), cfg)
        nodes, edges = brute_force_subgraph(ground_concepts(text, kg), kg, 2, 8)
        # JSON has no encoder for numpy integers: the views must hold Python ints.
        dumped = json.dumps([ctx.node_ids, ctx.subgraph.edges])
        assert json.loads(dumped) == [sorted(nodes), [list(e) for e in edges]]
        assert ctx.labels[0].tobytes() == oracle_labels(nodes, reference, kg).tobytes()


def test_hand_built_edge_outside_the_nodes_raises():
    sub = Subgraph(nodes={1, 2}, edges=[(1, 0, 3)], seeds=set())
    with pytest.raises(KeyError, match="not a node"):
        sub.message_arrays(1)


@pytest.mark.parametrize("rows", [[(4, 0, 1), (1, 2, 9), (9, 1, 4)], []],
                         ids=["edges", "no-edges"])
def test_tuples_and_int_arrays_build_the_same_subgraph(rows):
    """The one constructor takes tuples or an [m, 3] int array alike; `edges`
    and `node_ids` are new lists on every read."""
    built = [Subgraph(nodes={1, 4, 9}, edges=edges, seeds={4}) for edges in (
        list(rows), np.array(rows, dtype=np.int32).reshape(-1, 3),
        np.asfortranarray(np.array(rows, dtype=np.int64).reshape(-1, 3)))]
    for sub in built:
        assert sub == built[0]
        assert sub.edge_array.dtype == np.int32 and sub.edge_array.flags.c_contiguous
        assert sub.edge_array.shape == (len(rows), 3)
        assert sub.edge_array.tobytes() == built[0].edge_array.tobytes()
        assert_same_arrays(sub.message_arrays(3), built[0].message_arrays(3))

        read = sub.edges
        read.append((0, 0, 0))
        assert sub.edges == rows and sub.edges is not sub.edges
        ctx = ExampleContext("e", [], sub, [], [])
        ids = ctx.node_ids
        ids.append(0)
        assert ctx.node_ids == [1, 4, 9]


class RowGuard:
    """Stand-in for an adjacency column that counts the entries extraction reads."""

    def __init__(self, column):
        self._column = column
        self.reads = 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self._counted(self._column[key])
        self.reads += len(key) if isinstance(key, np.ndarray) else 1
        return self._column[key]

    def _counted(self, entries):
        for u in entries:
            self.reads += 1
            yield u


@pytest.mark.parametrize("leaves", [200, 5000])
@pytest.mark.parametrize("cap", [10, 100])   # below and above _GATHER_MIN_NODES
def test_hub_row_is_read_only_up_to_the_cap(leaves, cap):
    kg = build_kg([("hub", "r", f"n{i}") for i in range(leaves)])
    hub = kg.concept_ids["hub"]
    kg._nbr = loop = RowGuard(kg._nbr)
    kg.neighbours = gather = RowGuard(kg.neighbours)
    sub = extract_subgraph({hub}, kg, hops=2, max_nodes=cap)
    assert len(sub.nodes) == cap and len(sub.edges) == cap - 1
    # The BFS reads the hub's row up to the entry that hits the cap; the edges
    # take one entry from each kept leaf and none from the hub.
    assert loop.reads + gather.reads == cap + (cap - 1)


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
