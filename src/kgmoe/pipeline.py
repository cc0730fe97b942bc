"""End-to-end orchestration: dataset and KG files, the synthetic one-to-many
task generator, and the train / generate / evaluate entry points.

File formats:
  dataset   JSONL, one {"id", "input", "references": [...]} object per line
  kg        TSV head<TAB>relation<TAB>tail
  vocab     one token per line in id order
  checkpoint version 3: a strict-JSON header line (version, meta, parameter
            shapes), then the raw little-endian float64 bytes (tensor.py)
  generations JSONL, one {"id", "strategy", "expert", "output", "concepts"} per output
  metrics   JSON MetricReport
  training log JSONL, one {"epoch", "step", "expert_histogram", "mean_loss",
            "gen_loss", "concept_loss"} per step
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .decoding import (GenerationBundle, decode_beam, decode_moe, decode_nucleus,
                       decode_truncated)
from .generator import Vocab
from .kg import KnowledgeGraph, extract_subgraph, ground_concepts, load_kg, text_lines
from .metrics import MetricReport, evaluate_hypothesis_sets
from .moe import (Model, TrainConfig, build_model, check_fields, field_kind, prepare_example,
                  sub_seed, train)


@dataclass
class Example:
    """One dataset item: an input string and at least one reference output."""

    id: str
    input: str
    references: list[str]


_KINDS = {str: "a string", list: "a list of strings", "id": "a string or an integer"}


def _jsonl_objects(path, fields):
    """(line number, object) for each line of a JSONL file read by
    `kg.text_lines`, blank lines skipped.

    `fields` maps each required key to its kind: str, list (of strings) or "id"
    (a string, or an int read as its string form).  A line that is not UTF-8 or
    not a JSON object, lacks a key or holds a value of another kind raises a
    ValueError naming the file, the line and the key.
    """
    for lineno, line in text_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: malformed JSON on line {lineno}: {err}") from None
        if not isinstance(obj, dict):
            raise ValueError(f"{path}: line {lineno} is not a JSON object")
        for key, kind in fields.items():
            if key not in obj:
                raise ValueError(f"{path}: line {lineno} missing {key!r}")
            value = obj[key]
            if kind == "id" and type(value) is int:     # a bool is no id
                value = obj[key] = str(value)
            if not (isinstance(value, list if kind is list else str) and
                    (kind is not list or all(isinstance(v, str) for v in value))):
                raise ValueError(f"{path}: line {lineno}: {key!r} must be "
                                 f"{_KINDS[kind]}, got {value!r}")
        yield lineno, obj


def load_dataset(path) -> list[Example]:
    examples, first_line = [], {}
    for lineno, obj in _jsonl_objects(path, {"id": "id", "input": str, "references": list}):
        if not obj["input"].split():
            # an empty memory would fail deep inside attention in embed mode
            raise ValueError(f"{path}: line {lineno}: 'input' has no tokens")
        if not obj["references"]:
            raise ValueError(f"{path}: line {lineno}: example {obj['id']!r} has no references")
        first = first_line.setdefault(obj["id"], lineno)
        if first != lineno:
            raise ValueError(f"{path}: line {lineno}: duplicate id {obj['id']!r}, "
                             f"first on line {first}")
        examples.append(Example(obj["id"], obj["input"], obj["references"]))
    return examples


def save_dataset(path, examples: list[Example]):
    with open(path, "w", encoding="utf-8") as f:
        for ex in examples:
            f.write(json.dumps({"id": ex.id, "input": ex.input,
                                "references": ex.references}) + "\n")


def save_kg_tsv(path, triples: list[tuple[str, str, str]]):
    """Write the triples as a TSV that `load_kg` reads back as these triples.

    A field that would not read back as itself (empty, holding a tab, a line
    break or surrounding whitespace, or a byte-order mark that opens the file)
    is refused with a ValueError naming the triple's index and the field,
    before anything is written.
    """
    for i, triple in enumerate(triples):
        for name, text in zip(("head", "relation", "tail"), triple):
            if (not text or text != text.strip() or "\t" in text or "\n" in text
                    or "\r" in text or (i == 0 and name == "head" and text[0] == "\ufeff")):
                raise ValueError(f"{path}: triple {i}: the {name} {text!r} would not load "
                                 "back as itself")
    with open(path, "w", encoding="utf-8") as f:
        for h, r, t in triples:
            f.write(f"{h}\t{r}\t{t}\n")


# ---------------------------------------------------------------------------
# synthetic one-to-many task

# Mode templates all surround the concept slots with the same function words
# ("with {a} and {b} of {m}") but differ everywhere else.  Outputs from
# different modes then share almost no 4-grams, while any decode that splices a
# concept from one mode into another mode's template produces only bigrams that
# legitimate outputs already contain.
_MODE_TEMPLATES = [
    "so the story goes with {a} and {b} of {m} all along the way as they say",
    "folks gather with {a} and {b} of {m} quite happily",
    "nobody links with {a} and {b} of {m} anymore",
    "children sing with {a} and {b} of {m} at dusk",
    "few recall with {a} and {b} of {m} these days",
]


def make_synthetic_task(seed: int, n_inputs: int, k_modes: int,
                        kg_size: int | None = None) -> tuple[list[Example], list[tuple[str, str, str]]]:
    """Build a one-to-many dataset plus KG triples.

    Each input grounds one seed concept; each of its k_modes references is
    built from a distinct concept cluster reachable within two hops, so the
    per-reference grounded concept sets are pairwise disjoint by construction.
    Returns (examples, kg_triples); both are deterministic in the seed.
    """
    if k_modes < 2:
        raise ValueError("k_modes must be >= 2")
    if n_inputs < 1:
        raise ValueError("n_inputs must be >= 1")
    minimum = k_modes + n_inputs * (1 + 2 * k_modes + 2)
    if kg_size is None:
        kg_size = minimum
    if kg_size < minimum:
        raise ValueError(
            f"kg_size {kg_size} too small for {k_modes} disjoint clusters over "
            f"{n_inputs} inputs (need >= {minimum})")
    rng = np.random.default_rng(sub_seed(seed, "synthetic"))

    triples: list[tuple[str, str, str]] = []
    examples: list[Example] = []
    markers = [f"flavor{j}" for j in range(k_modes)]
    for i in range(n_inputs):
        src = f"topic{i}"
        refs = []
        for j in range(k_modes):
            a, b = f"item{i}x{j}", f"thing{i}x{j}"
            triples.append((src, "linksto", a))
            triples.append((a, "pairswith", b))
            triples.append((a, "marks", markers[j]))
            template = _MODE_TEMPLATES[j % len(_MODE_TEMPLATES)]
            refs.append(template.format(src=src, a=a, b=b, m=markers[j]))
        for suffix in ("p", "q"):
            triples.append((src, "hasextra", f"extra{i}{suffix}"))
        examples.append(Example(f"ex{i:04d}", f"tell me about {src}", refs))

    # spend any remaining concept budget on extra distractors
    extra_budget = kg_size - minimum
    for e in range(extra_budget):
        target = f"topic{int(rng.integers(0, n_inputs))}"
        triples.append((target, "hasextra", f"bonus{e}"))
    return examples, triples


def synthetic_kg(triples: list[tuple[str, str, str]]) -> KnowledgeGraph:
    return KnowledgeGraph.from_triples(triples)


# ---------------------------------------------------------------------------
# run configuration and subcommand bodies

STRATEGIES = ("moe", "beam", "truncated", "nucleus")


@dataclass
class RunConfig:
    """TrainConfig plus file locations and the decode strategy."""

    train: TrainConfig = field(default_factory=TrainConfig)
    dataset_path: str = "dataset.jsonl"
    kg_path: str = "kg.tsv"
    vocab_path: str = "vocab.txt"
    checkpoint_path: str = "checkpoint.json"
    generations_path: str = "generations.jsonl"
    metrics_path: str = "metrics.json"
    train_log_path: str = "train_log.jsonl"
    strategy: str = "moe"                # one of STRATEGIES
    sample_k: int = 5                    # truncated sampling cutoff
    sample_p: float = 0.9                # nucleus mass
    n_outputs: int | None = None         # defaults to n_experts

    def __post_init__(self):
        check_fields(self, {"sample_k": 1, "n_outputs": 1}, {"strategy": STRATEGIES})
        if not 0 < self.sample_p <= 1:
            raise ValueError(f"sample_p must be in (0, 1], got {self.sample_p!r}")


_TRAIN_TYPES = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
_RUN_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig) if f.name != "train"}
_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _coerce(key: str, kind: str, raw: str):
    """Parse a config value from its string form by the field's annotation."""
    raw = raw.strip()
    base, optional = field_kind(kind)
    if optional and raw.lower() == "none":
        return None
    try:
        if base == "int":
            return int(raw)
        if base == "float":
            return float(raw)
    except ValueError:
        raise ValueError(f"config key {key!r} expects {base}, got {raw!r}") from None
    if base == "bool":
        if raw.lower() not in _TRUE + _FALSE:
            raise ValueError(f"config key {key!r} expects a boolean, got {raw!r}")
        return raw.lower() in _TRUE
    return raw


def apply_overrides(cfg: RunConfig, settings) -> RunConfig:
    """Return cfg with ("key=value", source) settings applied in order.

    Each value is coerced by its field's type as it is read, but the finished
    config is validated once, so keys that are checked together may come in
    any order (d_model=30 then n_heads=3, or the reverse).  A malformed item,
    unknown key or bad value raises a ValueError that names the key and the
    source (a file line, a --set item) that set it.
    """
    train, run, source_of = {}, {}, {}
    for item, source in settings:
        key, eq, raw = (part.strip() for part in item.partition("="))
        if not eq:
            raise ValueError(f"{source}: expected key=value, got {item!r}")
        if key not in _TRAIN_TYPES and key not in _RUN_TYPES:
            raise ValueError(f"{source}: unknown config key {key!r}")
        try:
            value = _coerce(key, _TRAIN_TYPES.get(key) or _RUN_TYPES[key], raw)
        except ValueError as err:
            raise ValueError(f"{source}: {err}") from None
        (train if key in _TRAIN_TYPES else run)[key] = value
        source_of[key] = source
    try:
        return dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, **train), **run)
    except ValueError as err:
        # each check's message names its field: blame the first one set here
        key = next((w for w in re.findall(r"\w+", str(err)) if w in source_of), None)
        raise ValueError(f"{source_of.get(key, 'config')}: {err}") from None


def load_run_config(path=None, overrides=()) -> RunConfig:
    """RunConfig from a flat key=value file, if given, then KEY=VALUE overrides
    (the CLI's --set items), validated once as a whole by `apply_overrides`."""
    settings = []
    if path is not None:
        for lineno, line in text_lines(path):
            line = line.strip()
            if line and not line.startswith("#"):
                settings.append((line, f"{path}: line {lineno}"))
    settings += [(item, f"--set {item}") for item in overrides]
    return apply_overrides(RunConfig(), settings)


def run_train(cfg: RunConfig) -> Model:
    """Train and persist checkpoint, vocabulary and the training log."""
    dataset = load_dataset(cfg.dataset_path)
    kg = load_kg(cfg.kg_path)
    model, log = train(dataset, kg, cfg.train)
    model.vocab.save(cfg.vocab_path)
    meta = {
        "vocab_hash": model.vocab.content_hash(),
        "train_config": dataclasses.asdict(cfg.train),
    }
    T.save_checkpoint(cfg.checkpoint_path, model.params, meta)
    with open(cfg.train_log_path, "w", encoding="utf-8") as f:
        for entry in log:
            f.write(json.dumps(entry) + "\n")
    return model


def load_model(cfg: RunConfig) -> Model:
    kg = load_kg(cfg.kg_path)
    path = cfg.checkpoint_path
    params, meta = T.load_checkpoint(path)
    saved = meta.get("train_config", {})
    try:
        train_cfg = TrainConfig(**saved) if saved else cfg.train
    except (TypeError, ValueError) as err:
        raise ValueError(f"{path}: bad train_config: {err}") from None
    vocab = Vocab.load(cfg.vocab_path, train_cfg.n_experts)
    if meta.get("vocab_hash") and meta["vocab_hash"] != vocab.content_hash():
        raise ValueError(f"{path}: vocab hash {meta['vocab_hash']} differs from "
                         f"{vocab.content_hash()} of {cfg.vocab_path}")
    # Only the names and shapes are read: every parameter is replaced below.
    model = build_model(kg, vocab, train_cfg, rng=T.ShapeOnly())
    extra = sorted(set(params) - set(model.params))
    if extra:
        raise ValueError(f"{path}: unexpected parameter {extra[0]!r}")
    for name, built in model.params.items():
        if name not in params:
            raise ValueError(f"{path}: checkpoint missing parameter {name!r}")
        if params[name].shape != built.shape:
            raise ValueError(f"{path}: parameter {name!r} has shape {params[name].shape}, "
                             f"expected {built.shape}")
        model.params[name] = params[name]
    return model


def generate_bundles(model: Model, dataset: list[Example], cfg: RunConfig) -> list[GenerationBundle]:
    bundles = []
    n_out = model.cfg.n_experts if cfg.n_outputs is None else cfg.n_outputs
    if cfg.strategy == "moe" and n_out != model.cfg.n_experts:
        raise ValueError(f"strategy 'moe' writes one output per expert: n_outputs must be "
                         f"the expert count {model.cfg.n_experts}, got {n_out}")
    for ex in dataset:
        ctx = prepare_example(ex, model.kg, model.vocab, model.cfg)
        if cfg.strategy == "moe":
            bundles.append(decode_moe(ctx, model))
        elif cfg.strategy == "beam":
            bundles.append(decode_beam(ctx, model, beam=n_out))
        elif cfg.strategy == "truncated":
            bundles.append(decode_truncated(ctx, model, cfg.sample_k,
                                            model.cfg.seed, n_samples=n_out))
        elif cfg.strategy == "nucleus":
            bundles.append(decode_nucleus(ctx, model, cfg.sample_p,
                                          model.cfg.seed, n_samples=n_out))
        else:
            raise ValueError(f"unknown decode strategy {cfg.strategy!r}")
    return bundles


def run_generate(cfg: RunConfig) -> list[GenerationBundle]:
    model = load_model(cfg)
    dataset = load_dataset(cfg.dataset_path)
    bundles = generate_bundles(model, dataset, cfg)
    with open(cfg.generations_path, "w", encoding="utf-8") as f:
        for bundle in bundles:
            for entry in bundle.entries:
                f.write(json.dumps({
                    "id": bundle.example_id,
                    "strategy": bundle.strategy,
                    "expert": entry.expert,
                    "output": entry.output,
                    "concepts": entry.concepts,
                }) + "\n")
    return bundles


def load_generations(path, ids) -> dict[str, dict]:
    """Group a generations JSONL by example id, preserving file order.  The file
    holds one strategy: a line with another than the first line's is refused,
    and so is a line whose id is not in ids (the dataset's)."""
    grouped: dict[str, dict] = {}
    fields = {"id": "id", "strategy": str, "output": str, "concepts": list}
    first = None                    # (line, strategy) of the first line
    for lineno, obj in _jsonl_objects(path, fields):
        if obj["id"] not in ids:
            raise ValueError(f"{path}: line {lineno}: id {obj['id']!r} is not in the dataset")
        if first is None:
            first = lineno, obj["strategy"]
        elif obj["strategy"] != first[1]:
            raise ValueError(f"{path}: line {lineno} has strategy {obj['strategy']!r}, "
                             f"but line {first[0]} has {first[1]!r}; a generations file "
                             "holds one strategy")
        entry = grouped.setdefault(obj["id"], {"strategy": obj["strategy"],
                                               "outputs": [], "concepts": []})
        entry["outputs"].append(obj["output"])
        entry["concepts"].append(obj["concepts"])
    return grouped


def run_evaluate(cfg: RunConfig) -> MetricReport:
    """Score a generations file against the dataset; no model weights needed."""
    dataset = load_dataset(cfg.dataset_path)
    kg = load_kg(cfg.kg_path)
    grouped = load_generations(cfg.generations_path, {ex.id for ex in dataset})

    hypothesis_sets, references, concept_sets = [], [], []
    strategy = None
    for ex in dataset:
        if ex.id not in grouped:
            continue
        entry = grouped[ex.id]
        strategy = entry["strategy"]
        if hypothesis_sets and len(entry["outputs"]) != len(hypothesis_sets[0]):
            raise ValueError(f"{cfg.generations_path}: example {ex.id!r} has "
                             f"{len(entry['outputs'])} outputs, expected "
                             f"{len(hypothesis_sets[0])} like the first example")
        if len(entry["outputs"]) < 2:       # self-BLEU compares pairs of outputs
            raise ValueError(f"{cfg.generations_path}: example {ex.id!r} has 1 output; "
                             "evaluate needs at least 2 per example")
        hypothesis_sets.append(entry["outputs"])
        references.append(ex.references)
        concept_sets.append([ground_concepts(out, kg) for out in entry["outputs"]])
    if not hypothesis_sets:
        raise ValueError("no generations matched the dataset")

    k = len(hypothesis_sets[0])
    report = evaluate_hypothesis_sets(hypothesis_sets, references, concept_sets,
                                      config={"K": k, "strategy": strategy})
    with open(cfg.metrics_path, "w", encoding="utf-8") as f:
        f.write(report.to_json() + "\n")
    return report


def subgraph_json(kg: KnowledgeGraph, text: str, hops: int = TrainConfig.subgraph_hops,
                  max_nodes: int = TrainConfig.max_subgraph_nodes) -> str:
    """Debug view of the grounded subgraph for a piece of text."""
    seeds = ground_concepts(text, kg)
    sub = extract_subgraph(seeds, kg, hops=hops, max_nodes=max_nodes)
    return json.dumps({
        "nodes": [kg.concepts[c] for c in sub.node_array.tolist()],
        "edges": [[kg.concepts[h], kg.relations[r], kg.concepts[t]]
                  for h, r, t in sub.edges],
        "seeds": [kg.concepts[c] for c in sorted(sub.seeds)],
    }, indent=2)
