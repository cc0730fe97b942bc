"""ConceptNet-style triple store, concept grounding and 2-hop subgraph extraction."""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import operator
import os
import re
import struct
from array import array
from collections.abc import Sequence
from itertools import repeat

import numpy as np

from .tensor import replace_file

# Suffixes tried longest-first; a rule only applies if the stem keeps >= 3 chars.
_SUFFIXES = ("ing", "es", "ed", "s")
_MIN_STEM = 3
# The rule for every whitespace-separated token of a text in one pass: a suffix
# that ends a token after _MIN_STEM non-space chars; the leftmost is the longest.
# Each suffix checks its look-behind after matching, so the scan skips ahead to
# a suffix's first letter instead of testing the look-behind at every position.
_STEM = re.compile("(?:" + "|".join(rf"{s}(?<=\S{{{len(s) + _MIN_STEM}}})" for s in _SUFFIXES)
                   + r")(?!\S)")


def stem(text: str) -> str:
    """Tiny rule stemmer: lowercase, then strip a plural/verbal suffix from
    every whitespace-separated token."""
    # Lowercasing the whole text equals lowercasing each token: no character
    # becomes or stops being whitespace, and a final sigma's context ends there.
    return _STEM.sub("", text.lower())


def norm_tokens(text: str) -> list[str]:
    """Whitespace tokenization, lowercasing, rule stemming."""
    return stem(text).split()


def _surface_keys(surfaces: list[str]) -> list[str]:
    """The grounding key of each surface: its normalized tokens joined by spaces.

    ConceptNet multiword surfaces may use underscores; they count as spaces.
    """
    lines = stem("\n".join(surfaces).replace("_", " ")).split("\n")
    if len(lines) != len(surfaces):   # some surface holds a line break
        lines = [stem(s.replace("_", " ")) for s in surfaces]
    return list(map(" ".join, map(str.split, lines)))


_TRIPLE = struct.Struct("=3i")   # one row of `KnowledgeGraph.triples`


def _sorted_ids(ids: set[int]) -> np.ndarray:
    """The ids ascending, as an int64 array."""
    out = np.fromiter(ids, np.int64, len(ids))
    out.sort()
    return out


class Subgraph:
    """Per-example concept neighborhood: nodes, the triples among them, seeds.

    Held as `node_array`, the node ids ascending (int64; the row order of
    every per-node array), and `edge_array`, the [m, 3] int32 triple rows
    among them in KG order.  `edges` is any [m, 3] int array-like: extraction
    passes KG rows, a hand-built subgraph (h, r, t) tuples.  A subgraph is not
    mutated after it is made.
    """

    def __init__(self, nodes: set[int], edges, seeds: set[int],
                 node_array: np.ndarray | None = None):
        self.nodes, self.seeds = nodes, seeds
        self.node_array = _sorted_ids(nodes) if node_array is None else node_array
        self.edge_array = np.ascontiguousarray(edges, dtype=np.int32).reshape(-1, 3)
        self._messages: dict = {}

    def __eq__(self, other):
        return isinstance(other, Subgraph) and (
            (self.nodes, self.edges, self.seeds) == (other.nodes, other.edges, other.seeds))

    @property
    def edges(self) -> list[tuple[int, int, int]]:
        """The rows of `edge_array` as int tuples, in a new list on every read."""
        return list(_TRIPLE.iter_unpack(self.edge_array))

    def message_arrays(self, n_relations: int
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Local (src, dst, rel) int64 index arrays of the messages along the
        edges, and each node's in-degree as a float divisor, at least 1.

        Indices are rows of `node_array`.  Edge by edge, a triple (h, r, t)
        sends h -> t under r, then t -> h under the inverse relation
        r + n_relations.  Built once per `n_relations` and kept.
        """
        arrays = self._messages.get(n_relations)
        if arrays is None:
            ends = self.edge_array[:, ::2]
            local = self.node_array.searchsorted(ends)
            if not np.array_equal(self.node_array.take(local, mode="clip"), ends):
                raise KeyError("an edge endpoint is not a node of the subgraph")
            dst = local[:, ::-1].ravel()
            divisor = np.maximum(np.bincount(dst, minlength=len(self.node_array))
                                 .astype(np.float64), 1.0)
            rel = self.edge_array[:, 1:2].astype(np.int64) + [0, n_relations]
            arrays = (local.ravel(), dst, rel.ravel(), divisor)
            self._messages[n_relations] = arrays
        return arrays


class Surfaces(Sequence):
    """A read-only sequence of n strings held as one UTF-8 text, `text`, in
    which each string is followed by a newline, and n + 1 byte offsets:
    string i runs from offset i up to the newline before offset i + 1.

    The collector walks no entry of it, whereas a young list of n strings
    costs every young collection n visits until it is old.
    """

    __slots__ = ("text", "_starts")

    def __init__(self, text: np.ndarray, starts: np.ndarray):
        self.text = memoryview(text)
        self._starts = memoryview(starts)   # indexes to Python ints

    @classmethod
    def of(cls, strings: list[str]) -> Surfaces:
        """The surfaces of `strings`, any of which may hold a newline."""
        text = _text(strings)
        starts = _line_starts(text)
        if len(starts) != len(strings) + 1:     # some string holds a newline
            starts = np.cumsum([0, *(len(s.encode("utf-8", "surrogatepass")) + 1
                                     for s in strings)])
        return cls(text, starts)

    def __len__(self) -> int:
        return len(self._starts) - 1

    def __getitem__(self, i):
        """Surface i, or a list of the surfaces a slice i names."""
        n = len(self._starts) - 1
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(n))]
        i = operator.index(i)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("surface index out of range")
        return str(self.text[self._starts[i]:self._starts[i + 1] - 1], "utf-8",
                   "surrogatepass")

    def __eq__(self, other) -> bool:
        """Equal, as a list of the surfaces would be, to a list or `Surfaces`
        of the same strings in the same order."""
        if not isinstance(other, (list, Surfaces)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None


def _line_starts(text: np.ndarray) -> np.ndarray:
    """0 and the offset after each newline of a UTF-8 byte array."""
    ends = np.flatnonzero(text == ord("\n"))
    starts = np.zeros(len(ends) + 1, np.int64)
    np.add(ends, 1, out=starts[1:])
    return starts


class KnowledgeGraph:
    """Immutable columnar triple store with id<->surface tables and CSR adjacency.

    `triples` is an int32 [n, 3] array of (head, relation, tail) ids.  The
    adjacency covers both directions in CSR form: the entries of concept v are
    positions `indptr[v]:indptr[v + 1]` of `neighbours` (the other endpoint)
    and `triple_index` (the row of `triples`), in triple order.  A self-loop
    is stored once.  `concepts` holds the concept surfaces, in id order.
    Build one with `from_triples` or `load_kg`.
    """

    def __init__(self, concepts: Surfaces, relations: list[str], triples: np.ndarray,
                 indptr: np.ndarray, neighbours: np.ndarray, triple_index: np.ndarray,
                 keys: list[str], max_surface_len: int):
        """Take the columns that `_columns` computes, as they are; `keys` holds
        each concept's grounding key."""
        self.concepts = concepts
        self.relations = relations
        self.relation_ids = {r: i for i, r in enumerate(relations)}
        self.triples, self.indptr = triples, indptr
        self.neighbours, self.triple_index = neighbours, triple_index
        for a in (triples, neighbours, triple_index, indptr):
            a.flags.writeable = False
        self._degree = np.diff(indptr)
        # Small extractions read through memoryviews, which index to Python ints.
        self._ptr, self._nbr, self._tix, self._deg = map(memoryview, (
            indptr, neighbours, triple_index, self._degree))
        self._loops: dict[int, list[int]] = {}
        h = triples[:, 0]
        for i in np.flatnonzero(h == triples[:, 2]).tolist():
            self._loops.setdefault(int(h[i]), []).append(i)
        # The first concept with a key owns it.
        self._surface_index = dict(zip(reversed(keys), reversed(range(len(keys)))))
        self._max_surface_len = max_surface_len

    @classmethod
    def from_triples(cls, surface_triples) -> KnowledgeGraph:
        """Build the graph of (head, relation, tail) surface triples, taken in order.

        Ids are assigned in first-seen order: head, then relation, then tail.
        A repeated triple is dropped, keeping its first occurrence.
        """
        return cls(*_columns(*_ids(surface_triples)))

    @functools.cached_property
    def concept_ids(self) -> dict[str, int]:
        return {c: i for i, c in enumerate(self.concepts)}

    def __reduce__(self):
        # Memoryviews do not pickle; a copy is rebuilt from the id triples.
        return _from_ids, (self.concept_ids, self.relation_ids, self.triples)

    @property
    def num_concepts(self) -> int:
        return len(self.concepts)

    @property
    def num_relations(self) -> int:
        return len(self.relations)


def _ids(surface_triples) -> tuple[dict[str, int], dict[str, int], np.ndarray]:
    """The concept and relation id maps, in first-seen order, and the [n, 3]
    int32 id triples of the surface triples."""
    concept_ids: dict[str, int] = {}
    relation_ids: dict[str, int] = {}
    ids = array("i")
    for h, r, t in surface_triples:
        ids.extend((concept_ids.setdefault(h, len(concept_ids)),
                    relation_ids.setdefault(r, len(relation_ids)),
                    concept_ids.setdefault(t, len(concept_ids))))
    return concept_ids, relation_ids, np.frombuffer(ids, dtype=np.int32).reshape(-1, 3)


def _columns(concept_ids: dict[str, int], relation_ids: dict[str, int], triples: np.ndarray):
    """The `KnowledgeGraph` arguments for id triples whose ids follow the
    insertion order of the two maps, a repeated triple dropped."""
    surfaces, relations = list(concept_ids), list(relation_ids)
    n_c = len(surfaces)
    key = (triples[:, 0].astype(np.int64) * len(relations) + triples[:, 1]) * n_c
    _, first = np.unique(key + triples[:, 2], return_index=True)
    if len(first) < len(triples):
        triples = triples[np.sort(first)]
    # Entry 2i is triple i seen from its head, 2i + 1 from its tail; a stable
    # sort by row then leaves every row in triple order.
    h, t = triples[:, 0], triples[:, 2]
    rows = np.column_stack([h, t]).ravel()
    once = np.ones(len(rows), dtype=bool)
    once[1::2] = h != t
    rows = rows[once]
    order = np.argsort(rows, kind="stable")
    neighbours = np.column_stack([t, h]).ravel()[once][order]
    triple_index = np.arange(len(triples), dtype=np.int32).repeat(2)[once][order]
    indptr = np.zeros(n_c + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_c), out=indptr[1:])
    keys = _surface_keys(surfaces)
    max_surface_len = max(map(str.count, keys, repeat(" ")), default=-1) + 1
    return (Surfaces.of(surfaces), relations, triples, indptr, neighbours, triple_index, keys,
            max_surface_len)


def _from_ids(concept_ids, relation_ids, triples) -> KnowledgeGraph:
    return KnowledgeGraph(*_columns(concept_ids, relation_ids, triples))


def _parse_kg(path, numbered):
    for lineno, line in numbered:
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) == 3:
            h, r, t = parts[0].strip(), parts[1].strip(), parts[2].strip()
            if h and r and t:
                yield h, r, t
                continue
        raise ValueError(f"{path}: malformed KG line {lineno}: {line!r}")


def load_kg(path) -> KnowledgeGraph:
    """Load a UTF-8 TSV of head<TAB>relation<TAB>tail lines, deduplicated.

    Fields are stripped and blank lines skipped.  Ids are assigned in
    first-seen order and a leading byte-order mark is dropped; a malformed or
    undecodable line raises with the file and the line number.

    The columns are kept in a sidecar, ``<path>.kgcache``, that a later load
    reads instead of parsing when its header matches the TSV's bytes and this
    module's source (see `_read_cache`).  Any other sidecar is a miss: the TSV
    is parsed and the sidecar rewritten if it can be.  Deleting it is safe.
    """
    # A hit needs only the TSV's digest: hashing it in 64 KB chunks spares a
    # warm load a buffer of the whole file (hashlib.file_digest's 256 KB one
    # costs a small KG's load more than its read).  A miss keys the sidecar
    # to the bytes it parses, in case the file changed in between.
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 16):
            digest.update(chunk)
    cache = f"{os.fspath(path)}.kgcache"
    header = {"version": _CACHE_VERSION, "tsv_sha256": digest.hexdigest(),
              "code_sha256": _code_sha256()}
    columns = _read_cache(cache, header)
    if columns is None:
        with open(path, "rb") as f:
            data = f.read()
        header["tsv_sha256"] = hashlib.sha256(data).hexdigest()
        columns = _columns(*_ids(_parse_kg(path, text_lines(path, "KG line", data))))
        with contextlib.suppress(OSError):
            _write_cache(cache, header, columns)
    return KnowledgeGraph(*columns)


# The sidecar: one line of strict JSON, padded with spaces so that the payload
# after its newline starts at a multiple of 8 bytes, then these arrays' raw
# little-endian bytes in this order, each padded with zeros to a multiple of 8.
# A text is its strings' UTF-8, each ended by a newline (no concept, relation
# or grounding key holds one); `keys` are the grounding keys that differ from
# their concept's surface, at rows `key_rows`.
_CACHE_VERSION = 1
_CACHE_ARRAYS = (("triples", "<i4", 2), ("indptr", "<i8", 1), ("neighbours", "<i4", 1),
                 ("triple_index", "<i4", 1), ("concepts", "|u1", 1), ("relations", "|u1", 1),
                 ("key_rows", "<i4", 1), ("keys", "|u1", 1), ("max_surface_len", "<i8", 0))


@functools.cache
def _code_sha256() -> str:
    """The sha256 of this module's source, from which the sidecar's columns derive."""
    with open(__file__, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _text(strings: list[str]) -> np.ndarray:
    """The strings' UTF-8, each ended by a newline, as a byte array."""
    return np.frombuffer("\n".join([*strings, ""]).encode("utf-8", "surrogatepass"), np.uint8)


def _lines(text) -> list[str]:
    """The newline-ended strings of UTF-8 bytes, in a new list."""
    lines = str(text, "utf-8").split("\n")
    lines.pop()     # what follows the last newline; cheaper than a [:-1] copy
    return lines


def _write_cache(cache: str, header: dict, columns):
    """Write the sidecar of `columns`, whose TSV and code `header` names."""
    concepts, relations, triples, indptr, neighbours, triple_index, keys, longest = columns
    surfaces = _lines(concepts.text)     # no surface read from a TSV holds a newline
    key_rows = np.flatnonzero(np.fromiter(map(operator.ne, keys, surfaces), bool, len(keys)))
    arrays = (triples, indptr, neighbours, triple_index, concepts.text, _text(relations),
              key_rows, _text([keys[i] for i in key_rows.tolist()]), np.array(longest))
    chunks, payload = [], hashlib.sha256()
    for a, (_, dtype, _) in zip(arrays, _CACHE_ARRAYS):
        raw = np.ascontiguousarray(a, dtype)
        for chunk in (raw, bytes(-raw.nbytes % 8)):
            payload.update(chunk)
            chunks.append(chunk)
    line = json.dumps({**header, "payload_sha256": payload.hexdigest(),
                       "arrays": [[name, dtype, list(a.shape)]
                                  for a, (name, dtype, _) in zip(arrays, _CACHE_ARRAYS)]})
    line += " " * (-(len(line) + 1) % 8) + "\n"     # ASCII: json.dumps escapes the rest
    replace_file(cache, [line.encode("ascii"), *chunks], fsync=False)


def _read_cache(cache: str, header: dict):
    """The columns stored in the sidecar, or None if it is missing or
    unreadable, or if its header differs from `header` (another TSV, another
    version of this module) or from its payload (a truncated or corrupt file;
    a torn write is one, so writes need no fsync)."""
    try:
        with open(cache, "rb") as f:
            data = f.read()
        end = data.index(b"\n") + 1
        stored = json.loads(data[:end])
        if (end % 8 or {k: stored[k] for k in header} != header or stored["payload_sha256"]
                != hashlib.sha256(memoryview(data)[end:]).hexdigest()):
            return None
        arrays, offset = [], end
        for (name, dtype, shape), want in zip(stored["arrays"], _CACHE_ARRAYS, strict=True):
            if ((name, dtype, len(shape)) != want
                    or not all(type(n) is int and n >= 0 for n in shape)):
                return None
            count = math.prod(shape)
            arrays.append(np.frombuffer(data, dtype, count, offset).reshape(shape))
            offset += -(-count * np.dtype(dtype).itemsize // 8) * 8
        triples, indptr, neighbours, triple_index, text, relations, key_rows, keys, longest \
            = arrays
        surface_keys, relations, keys = map(_lines, (text, relations, keys))
        key_rows = key_rows.tolist()
    except (OSError, ValueError, TypeError, KeyError, RecursionError):
        return None
    n = len(surface_keys)
    if (offset != len(data) or triples.shape[1] != 3 or n + 1 != len(indptr)
            or len(key_rows) != len(keys) or not all(0 <= i < n for i in key_rows)):
        return None
    for i, key in zip(key_rows, keys):
        surface_keys[i] = key
    # the split is transient: the graph keeps the surfaces as the sidecar's text
    return (Surfaces(text, _line_starts(text)), relations, triples, indptr, neighbours,
            triple_index, surface_keys, int(longest))


def text_lines(path, what: str = "line", data: bytes | None = None):
    """(line number from 1, line) for each line of a UTF-8 text file, read
    lazily in text mode (lines end at \\n, \\r or \\r\\n) with a leading
    byte-order mark dropped.  An undecodable byte raises a ValueError naming
    the file and its line, which the message calls `what`, after every line
    before that one is yielded, so a caller that rejects an earlier line names
    it first.  Given `data`, the file's bytes already read, the lines are
    those of `data`."""
    count = 0
    try:
        with (open(path, encoding="utf-8-sig") if data is None
              else io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig")) as f:
            for count, line in enumerate(f, start=1):
                yield count, line
        return
    except UnicodeDecodeError as err:
        error, before = _undecodable(path, err, what, data)
    # the lines that the failed decode chunk held before the undecodable one
    yield from enumerate(before[count:], start=count + 1)
    raise error


def _undecodable(path, err: UnicodeDecodeError, what: str, data: bytes | None):
    """The ValueError for a text file that `err` says is not UTF-8, and the
    lines before its first undecodable line, as text mode reads them.

    The error names the file, that line (lines end at \\n, \\r or \\r\\n, as
    in text mode) and its byte.  `data` is the file's bytes, or None to read
    them.
    """
    if data is None:
        with open(path, "rb") as f:
            data = f.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        before = data[: e.start].decode("utf-8").removeprefix("\ufeff")
        lines = before.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        return (ValueError(f"{path}: undecodable {what} {len(lines)}: {e.reason} "
                           f"(byte {data[e.start]:#04x})"),
                [line + "\n" for line in lines[:-1]])
    return ValueError(f"{path}: {err}"), []     # the file changed since it was read


def ground_concepts(text: str, kg: KnowledgeGraph) -> set[int]:
    """Match normalized token spans of the text against KG surface forms.

    Greedy left-to-right scan, longest span first; matched spans are consumed.
    """
    tokens = norm_tokens(text)
    index, longest = kg._surface_index, kg._max_surface_len
    found: set[int] = set()
    i = 0
    while i < len(tokens):
        for span in range(min(longest, len(tokens) - i), 0, -1):
            cid = index.get(" ".join(tokens[i : i + span]))
            if cid is not None:
                found.add(cid)
                break
        else:
            span = 1
        i += span
    return found


def _discover(seeds: set[int], kg: KnowledgeGraph, hops: int, limit: float) -> list[int]:
    """Undirected BFS discovery order from the sorted seeds, stopped at `limit` nodes."""
    ptr, nbr = kg._ptr, kg._nbr
    discovery = sorted(seeds)
    found = set(discovery)
    start = 0   # the frontier is discovery[start:end]
    for _ in range(hops):
        end = len(discovery)
        for v in sorted(discovery[start:end]):
            for u in nbr[ptr[v]:ptr[v + 1]]:
                if u not in found:
                    if len(discovery) >= limit:
                        return discovery
                    found.add(u)
                    discovery.append(u)
        if len(discovery) == end:
            break
        start = end
    return discovery


# Below this many kept nodes a Python loop over their rows beats the fixed cost
# of one numpy gather over all of them (edge phase on a 2-core VM: 12 nodes,
# 13 vs 19 us; 70 nodes, 66 vs 31 us).
_GATHER_MIN_NODES = 32


def _edge_rows(nodes: set[int], owner: np.ndarray, kg: KnowledgeGraph) -> list[int] | np.ndarray:
    """Sorted row indices of the triples with both endpoints in `nodes`, whose
    ids ascending are `owner`.

    Each such triple is read from the adjacency row of one endpoint: the lower
    id, unless the other endpoint is `top`, the node of highest degree
    (typically a hub seed), whose row is not read at all.  Self-loops come
    from the loop table.
    """
    loops = [i for v in kg._loops.keys() & nodes for i in kg._loops[v]]
    if len(nodes) < _GATHER_MIN_NODES:
        ptr, nbr, tix = kg._ptr, kg._nbr, kg._tix
        top = max(nodes, key=kg._deg.__getitem__, default=None)
        kept = [tix[p] for v in nodes if v != top for p in range(ptr[v], ptr[v + 1])
                if (u := nbr[p]) in nodes and (u > v or u == top)]
        return sorted(kept + loops)
    start, deg = kg.indptr[owner], kg._degree[owner]
    t = deg.argmax()
    top, deg[t] = owner[t], 0
    ends = deg.cumsum()
    pos = np.arange(ends[-1]) + (start - ends + deg).repeat(deg)
    u = kg.neighbours[pos]
    inside = owner.take(owner.searchsorted(u), mode="clip") == u
    kept = kg.triple_index[pos[inside & ((u > owner.repeat(deg)) | (u == top))]]
    return np.sort(np.concatenate([kept, np.array(loops, dtype=np.int32)]))


def extract_subgraph(seed_ids, kg: KnowledgeGraph, hops: int = 2,
                     max_nodes: int | None = 300) -> Subgraph:
    """Undirected BFS expansion of the seeds up to `hops`.

    Nodes are the union of BFS frontiers; edges are every KG triple with both
    endpoints inside the node set, in KG order (original direction preserved).
    The optional cap truncates by discovery order with seeds always kept.

    Cost: the BFS stops reading once `max_nodes` nodes are discovered, and the
    edges are read from the rows of the kept nodes except the one of highest
    degree (typically a hub seed).  The work follows the subgraph, not the KG
    size or a hub's degree.
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
    owner = _sorted_ids(nodes)
    rows = kg.triples.take(_edge_rows(nodes, owner, kg), axis=0)
    return Subgraph(nodes, rows, seeds, owner)
