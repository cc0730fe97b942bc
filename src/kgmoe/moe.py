"""Hard-EM training over K experts with the joint generation + selection loss.

Each (example, reference) pair is one EM unit.  The E-step assigns the unit to
the expert with the lowest joint loss (ties go to the lowest id, realizing the
argmax of the joint probability under a uniform expert prior); the M-step takes
one Adam step on the mean joint loss of the chosen experts only.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .generator import (EOS, UNK, GeneratorInput, Vocab, generation_loss,
                        init_generator_params)
from .kg import KnowledgeGraph, Subgraph, extract_subgraph, ground_concepts
from .rgcn import encode, init_rgcn_params
from .selector import (build_labels, concept_loss, init_selector_params,
                       score_concepts, top_n)


EXPERT_MODES = ("embed", "prompt")
# Lower bound per numeric field (0 if unlisted; the seed has none).  The decode
# length is max_len - 1, so max_len >= 2.
_LOWER_BOUNDS = {"n_experts": 1, "batch_size": 1, "d_model": 1, "n_heads": 1,
                 "d_ff": 1, "max_len": 2, "seed": None}
_KINDS = {"int": "an int", "float": "a finite number", "bool": "a boolean", "str": "a string"}


def field_kind(annotation: str) -> tuple[str, bool]:
    """Base type and optionality of a config field's annotation string, the
    one convention for config fields: "int | None" -> ("int", True)."""
    base, _, none = annotation.partition("|")
    return base.strip(), bool(none.strip())


def _fits(kind: str, value) -> bool:
    """Whether value has the annotated type; a bool is no int, a float is finite."""
    if isinstance(value, bool) or kind == "bool":
        return kind == "bool" and isinstance(value, bool)
    if kind == "float":
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, {"int": int, "str": str}[kind])


def check_fields(cfg, lower_bounds: dict[str, int | None], choices: dict[str, tuple]) -> None:
    """Check every field of a config dataclass by its annotation (`field_kind`),
    a numeric one by its lower bound (lower_bounds[name], 0 if unlisted, none
    if None) and one listed in choices by membership.  A field of another type
    (a nested config) checks itself.  A failure raises a ValueError whose
    message starts with the field name."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        kind, optional = field_kind(f.type)
        if kind not in _KINDS or optional and value is None:
            continue
        if not _fits(kind, value):
            raise ValueError(f"{f.name} must be {_KINDS[kind]}"
                             f"{' or None' if optional else ''}, got {value!r}")
        low = lower_bounds.get(f.name, 0)
        if kind in ("int", "float") and low is not None and value < low:
            raise ValueError(f"{f.name} must be >= {low}, got {value!r}")
        if f.name in choices and value not in choices[f.name]:
            raise ValueError(f"{f.name} must be one of {', '.join(choices[f.name])}, "
                             f"got {value!r}")


@dataclass
class TrainConfig:
    """Training and model hyperparameters; one seed drives all randomness.
    Every field is type- and range-checked whenever a config is built."""

    n_experts: int = 3
    concept_weight: float = 0.3          # weight of the selection loss in the joint
    top_concepts: int = 10
    learning_rate: float = 3e-3
    batch_size: int = 8
    epochs: int = 30
    seed: int = 0
    warmup_steps: int | None = None      # default: min(1000, total // 10)
    expert_mode: str = "prompt"          # one of EXPERT_MODES
    disjoint_rule: bool = False
    weight_decay: float = 0.0
    # model dimensions
    d_model: int = 64
    n_heads: int = 4
    n_encoder_layers: int = 2
    n_decoder_layers: int = 2
    d_ff: int = 256
    max_len: int = 64
    rgcn_layers: int = 2
    subgraph_hops: int = 2
    max_subgraph_nodes: int = 300

    def __post_init__(self):
        check_fields(self, _LOWER_BOUNDS, {"expert_mode": EXPERT_MODES})
        if self.d_model % self.n_heads:
            raise ValueError(f"n_heads ({self.n_heads}) must divide d_model ({self.d_model})")


def sub_seed(base_seed: int, name: str) -> int:
    """Named deterministic sub-seed derived from one base seed."""
    digest = hashlib.sha256(f"{base_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class Model:
    """All trainable parameters plus the static pieces needed to run them."""

    params: dict[str, T.Tensor]
    vocab: Vocab
    kg: KnowledgeGraph
    cfg: TrainConfig


def build_model(kg: KnowledgeGraph, vocab: Vocab, cfg: TrainConfig, rng=None) -> Model:
    """The model of cfg, its parameters drawn from the generator seeded by
    cfg.seed, or from `rng` if one is given."""
    rng = np.random.default_rng(sub_seed(cfg.seed, "init")) if rng is None else rng
    params = {}
    params.update(init_rgcn_params(rng, kg.num_concepts, kg.num_relations,
                                   cfg.d_model, cfg.rgcn_layers))
    params.update(init_selector_params(rng, cfg.d_model, cfg.n_experts))
    params.update(init_generator_params(rng, len(vocab), cfg))
    return Model(params, vocab, kg, cfg)


@dataclass
class ExampleContext:
    """Preprocessed, parameter-independent view of one dataset example."""

    example_id: str
    x_ids: list[int]
    subgraph: Subgraph
    y_ids: list[list[int]]                   # per reference, EOS-terminated
    labels: list[np.ndarray]                 # per reference, over sorted nodes

    @property
    def node_ids(self) -> list[int]:
        """`subgraph.node_array` as a new list of int."""
        return self.subgraph.node_array.tolist()


def prepare_example(example, kg: KnowledgeGraph, vocab: Vocab, cfg: TrainConfig) -> ExampleContext:
    seeds = ground_concepts(example.input, kg)
    subgraph = extract_subgraph(seeds, kg, hops=cfg.subgraph_hops,
                                max_nodes=cfg.max_subgraph_nodes)
    x_ids = vocab.encode(example.input)[: cfg.max_len]
    y_ids, labels = [], []
    for ref in example.references:
        ids = vocab.encode(ref)[: cfg.max_len - 1] + [EOS]
        y_ids.append(ids)
        labels.append(build_labels(subgraph, ref, kg))
    return ExampleContext(example.id, x_ids, subgraph, y_ids, labels)


@dataclass
class Responsibility:
    """Hard one-hot expert assignment for one (example, reference) unit."""

    expert: int
    losses: list[float]


def generator_input(ctx: ExampleContext, model: Model, concepts: list[int],
                    expert: int) -> GeneratorInput:
    """The generator's request for the chosen concept ids: each surface is
    tokenised with `_` read as a space, and one with no tokens becomes [UNK]."""
    tokens = [model.vocab.encode(model.kg.concepts[c].replace("_", " ")) or [UNK]
              for c in concepts]
    return GeneratorInput(ctx.x_ids, tokens, expert)


def select_concepts(ctx: ExampleContext, model: Model, n_experts: int = 1) -> list[list[int]]:
    """The top-N concept ids of experts 0..n_experts-1, scored on one R-GCN
    encode.  With the disjoint rule on, experts select in id order and none
    reuses a concept an earlier one selected."""
    cfg = model.cfg
    if not 0 <= n_experts <= cfg.n_experts:
        raise ValueError(f"cannot select for {n_experts} of {cfg.n_experts} experts")
    selections: list[list[int]] = []
    forbidden: set[int] = set()
    with T.no_grad():
        states = encode(ctx.subgraph, model.params, model.kg, cfg.rgcn_layers)
        for z in range(n_experts):
            chosen = top_n(ctx.subgraph.node_array, score_concepts(states, model.params, z).data,
                           cfg.top_concepts, forbidden)
            if cfg.disjoint_rule:
                forbidden.update(chosen)
            selections.append(chosen)
    return selections


def joint_losses(ctx: ExampleContext, ref_idx: int, experts, model: Model
                 ) -> tuple[T.Tensor, T.Tensor, T.Tensor]:
    """The unit's [E] (joint, generation, concept) losses under each of the E
    listed experts.  Each expert selects its top-N concepts from its own
    scores; the E generation losses come from one batched generator pass."""
    cfg = model.cfg
    concept_losses, requests = [], []
    for z in experts:
        if not 0 <= z < cfg.n_experts:
            raise ValueError(f"invalid expert id {z}")
        # one encode per expert: perfbench pins rgcn.encodes_per_unit at K + 1
        states = encode(ctx.subgraph, model.params, model.kg, cfg.rgcn_layers)
        p = score_concepts(states, model.params, z)
        concept_losses.append(T.reshape(concept_loss(p, ctx.labels[ref_idx]), (1,)))
        chosen = top_n(ctx.subgraph.node_array, p.data, cfg.top_concepts)
        requests.append(generator_input(ctx, model, chosen, z))
    l_gen = generation_loss(requests, ctx.y_ids[ref_idx], model.params, model.vocab, cfg)
    l_concept = T.concat(concept_losses)
    return T.add(l_gen, T.scale(l_concept, cfg.concept_weight)), l_gen, l_concept


def joint_loss(ctx: ExampleContext, ref_idx: int, expert: int,
               model: Model) -> tuple[T.Tensor, T.Tensor, T.Tensor]:
    """Returns the scalar (joint, generation, concept) losses for one unit and expert."""
    return tuple(T.reshape(loss, ()) for loss in joint_losses(ctx, ref_idx, [expert], model))


def e_step(ctx: ExampleContext, ref_idx: int, model: Model) -> Responsibility:
    """Assign the unit to the expert with the smallest joint loss."""
    with T.no_grad():
        losses = joint_losses(ctx, ref_idx, range(model.cfg.n_experts), model)[0].data.tolist()
    best = min(range(len(losses)), key=lambda z: (losses[z], z))
    return Responsibility(best, losses)


def m_step(batch: list[tuple[ExampleContext, int, int]], model: Model,
           optimizer: T.Adam, lr: float) -> dict[str, float]:
    """One optimizer step on the mean joint loss of the chosen experts.

    Returns the step's log fields: `mean_loss` (the optimised mean) and the
    batch means of its two parts, `gen_loss` and `concept_loss`."""
    losses, gen, concept = [], [], []
    for ctx, ref_idx, expert in batch:
        loss, l_gen, l_concept = joint_loss(ctx, ref_idx, expert, model)
        losses.append(loss)
        gen.append(l_gen.item())
        concept.append(l_concept.item())
    mean = T.scale(functools.reduce(T.add, losses), 1.0 / len(losses))
    value = mean.item()
    if not np.isfinite(value):
        raise RuntimeError(f"non-finite training loss {value}; aborting")
    optimizer.zero_grad()
    mean.backward()
    optimizer.step(lr=lr)
    return {"mean_loss": value, "gen_loss": sum(gen) / len(gen),
            "concept_loss": sum(concept) / len(concept)}


def epoch_unit_order(n_units: int, epoch: int, seed: int) -> list[int]:
    """Deterministic shuffle of EM units for one epoch."""
    rng = np.random.default_rng(sub_seed(seed, f"shuffle-epoch{epoch}"))
    return rng.permutation(n_units).tolist()


def learning_rate_at(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Linear warmup then linear decay; step is 0-based."""
    warmup = cfg.warmup_steps if cfg.warmup_steps is not None else min(1000, max(total_steps // 10, 1))
    warmup = max(warmup, 1)
    if step < warmup:
        return cfg.learning_rate * (step + 1) / warmup
    if total_steps <= warmup:
        return cfg.learning_rate
    frac = (total_steps - step) / (total_steps - warmup)
    return cfg.learning_rate * max(frac, 0.0)


def train(dataset, kg: KnowledgeGraph, cfg: TrainConfig,
          vocab: Vocab | None = None) -> tuple[Model, list[dict]]:
    """Seeded hard-EM epoch loop; returns the model and a per-step log whose
    entries hold epoch, step, expert_histogram and `m_step`'s loss fields."""
    if not dataset:
        raise ValueError("empty dataset")
    if vocab is None:
        texts = [ex.input for ex in dataset]
        for ex in dataset:
            texts.extend(ex.references)
        vocab = Vocab.build(texts, cfg.n_experts)
    model = build_model(kg, vocab, cfg)
    contexts = [prepare_example(ex, kg, vocab, cfg) for ex in dataset]

    units = [(ei, ri) for ei, ctx in enumerate(contexts) for ri in range(len(ctx.y_ids))]
    steps_per_epoch = max(1, (len(units) + cfg.batch_size - 1) // cfg.batch_size)
    total_steps = steps_per_epoch * cfg.epochs
    optimizer = T.Adam(model.params, lr=cfg.learning_rate,
                       weight_decay=cfg.weight_decay)

    log: list[dict] = []
    step = 0
    for epoch in range(cfg.epochs):
        order = epoch_unit_order(len(units), epoch, cfg.seed)
        for start in range(0, len(units), cfg.batch_size):
            chosen_batch = []
            histogram = [0] * cfg.n_experts
            for idx in order[start : start + cfg.batch_size]:
                ei, ri = units[idx]
                resp = e_step(contexts[ei], ri, model)
                histogram[resp.expert] += 1
                chosen_batch.append((contexts[ei], ri, resp.expert))
            lr = learning_rate_at(step, total_steps, cfg)
            log.append({"epoch": epoch, "step": step, "expert_histogram": histogram,
                        **m_step(chosen_batch, model, optimizer, lr)})
            step += 1
    return model, log
