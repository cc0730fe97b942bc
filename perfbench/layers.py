"""Per-layer tracing of kgmoe from outside the program.

``Tracer.install`` replaces each public function at the name its caller looks
it up by (``moe.encode``, ``decoding.memory_next_dist``, ``rgcn.rgcn_layer``,
``Tensor.backward`` ...) with a wrapper that records a span: call count,
inclusive time and self time (inclusive time minus the time of spans nested
inside it).  Counts are also kept per benchmark phase, so ratios such as R-GCN
encodes per EM unit only count the phase they describe.

A wrapped name that no longer exists raises at install time, and a span that
records no calls on a workload that is known to call it fails the run: a stale
wrapper must never report a silent zero.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from kgmoe import decoding, generator, metrics, moe, pipeline, rgcn, selector
from kgmoe import kg as kgmod
from kgmoe import tensor as T

ALL = ("diverse-decode", "large-kg")


@dataclass
class Span:
    """One traced layer boundary: the names it wraps and the workloads that call it."""

    name: str
    targets: list                      # (owner, attribute) pairs sharing this span
    expected: tuple = ALL
    before: object = None              # hook(tracer, args, kwargs) before the call
    after: object = None               # hook(tracer, args, kwargs, result) after it


def _count_decoder_positions(tr, args, kwargs):
    tr.add("generator.decoder_positions", len(args[1]))


def _count_subgraph(tr, args, kwargs, sub):
    tr.add("kg.subgraph_nodes", len(sub.nodes))
    tr.add("kg.subgraph_edges", len(sub.edges))


def _count_adam(tr, args, kwargs):
    opt = args[0]
    for p in opt.params.values():
        if p.grad is not None:
            tr.add("tensor.adam_elements", p.grad.size)
            tr.add("tensor.adam_useful", int(np.count_nonzero(p.grad)))


def _count_outputs(tr, args, kwargs, bundle):
    tr.add("decoding.outputs", len(bundle.entries))


SPANS = [
    Span("kg.load", [(pipeline, "load_kg")]),
    Span("kg.ground", [(moe, "ground_concepts"), (selector, "ground_concepts"),
                       (kgmod, "ground_concepts")]),
    Span("kg.subgraph", [(moe, "extract_subgraph")], after=_count_subgraph),
    Span("rgcn.encode", [(moe, "encode")]),
    Span("rgcn.layer", [(rgcn, "rgcn_layer")]),
    Span("selector.score", [(moe, "score_concepts")]),
    Span("selector.loss", [(moe, "concept_loss")]),
    Span("generator.encode", [(generator, "encode_inputs")]),
    Span("generator.decoder", [(generator, "decoder_logits")], before=_count_decoder_positions),
    Span("generator.loss", [(moe, "generation_loss")]),
    Span("tensor.backward", [(T.Tensor, "backward")]),
    Span("tensor.adam", [(T.Adam, "step")], before=_count_adam),
    Span("moe.prepare", [(moe, "prepare_example")]),
    Span("moe.estep", [(moe, "e_step")]),
    Span("moe.mstep", [(moe, "m_step")]),
    Span("moe.joint_loss", [(moe, "joint_loss")]),
    Span("moe.select", [(decoding, "select_concepts")]),
    Span("decoding.moe", [(decoding, "decode_moe")], after=_count_outputs),
    Span("decoding.beam", [(decoding, "decode_beam")], after=_count_outputs),
    Span("decoding.topk", [(decoding, "decode_truncated")], after=_count_outputs),
    Span("decoding.nucleus", [(decoding, "decode_nucleus")], after=_count_outputs),
    Span("decoding.next_dist", [(decoding, "memory_next_dist")]),
    Span("metrics.evaluate", [(metrics, "evaluate_hypothesis_sets")]),
    Span("metrics.self_bleu", [(metrics, "corpus_self_bleu")]),
    Span("pipeline.load_model", [(pipeline, "load_model")], expected=("diverse-decode",)),
    Span("pipeline.load_dataset", [(pipeline, "load_dataset")]),
]


class StaleWrapper(RuntimeError):
    """A traced name is gone, or a span that should fire recorded no calls."""


@dataclass
class Tracer:
    """Span statistics for one traced pass; ``phase`` is set by the benchmark."""

    phase: str = ""
    calls: Counter = field(default_factory=Counter)
    self_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    phase_calls: Counter = field(default_factory=Counter)      # (phase, span) -> calls
    counts: Counter = field(default_factory=Counter)           # (phase, counter) -> amount
    tensors_created: int = 0
    _stack: list = field(default_factory=list)
    _restore: list = field(default_factory=list)

    def add(self, counter: str, amount):
        self.counts[(self.phase, counter)] += amount

    def total(self, counter: str, phases=None) -> float:
        return sum(v for (ph, c), v in self.counts.items()
                   if c == counter and (phases is None or ph in phases))

    def calls_in(self, span: str, phases) -> int:
        return sum(v for (ph, s), v in self.phase_calls.items() if s == span and ph in phases)

    def _wrap(self, span: Span, fn):
        def traced(*args, **kwargs):
            if span.before is not None:
                span.before(self, args, kwargs)
            frame = [0.0]                      # time covered by nested spans
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                self.calls[span.name] += 1
                self.phase_calls[(self.phase, span.name)] += 1
                self.self_s[span.name] += elapsed - frame[0]
            if span.after is not None:
                span.after(self, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every span target; raises StaleWrapper if a name is missing."""
        for span in SPANS:
            for owner, attr in span.targets:
                if attr not in vars(owner):
                    raise StaleWrapper(f"{owner.__name__} has no attribute {attr!r} "
                                       f"to trace as {span.name}")
        for span in SPANS:
            for owner, attr in span.targets:
                original = vars(owner)[attr]
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(span, original))
        original_init = T.Tensor.__init__

        def counting_init(tensor, *args, **kwargs):
            self.tensors_created += 1
            original_init(tensor, *args, **kwargs)
        self._restore.append((T.Tensor, "__init__", original_init))
        T.Tensor.__init__ = counting_init

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def check_calls(self, workload: str):
        """Fail loudly if a span expected on this workload never fired."""
        silent = [s.name for s in SPANS if workload in s.expected and not self.calls[s.name]]
        if silent:
            raise StaleWrapper(f"spans with zero calls on {workload}: {', '.join(silent)}")


def _entropy(histogram) -> float:
    total = sum(histogram)
    return -sum(c / total * math.log(c / total) for c in histogram if c)


def layer_metrics(tr: Tracer, units_trained: int, last_epoch_histogram,
                  overhead: float) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit) from one traced pass."""
    s, c = tr.self_s, tr.calls
    sampling = ("decode.topk", "decode.nucleus")
    next_dist_decode = tr.calls_in("decoding.next_dist", {p for (p, _) in tr.phase_calls
                                                          if p.startswith("decode.")})
    decode_positions = tr.total("generator.decoder_positions",
                                {p for (p, _) in tr.counts if p.startswith("decode.")})
    adam_elements = tr.total("tensor.adam_elements")
    subgraphs = c["kg.subgraph"]
    sampled_outputs = tr.total("decoding.outputs", sampling)
    return {
        "kg.load_s": (s["kg.load"], "s"),
        "kg.ground_s": (s["kg.ground"], "s"),
        "kg.ground_calls": (c["kg.ground"], "count"),
        "kg.subgraph_s": (s["kg.subgraph"], "s"),
        "kg.subgraph_calls": (subgraphs, "count"),
        "kg.subgraph_nodes_mean": (tr.total("kg.subgraph_nodes") / max(subgraphs, 1), "count"),
        "kg.subgraph_edges_mean": (tr.total("kg.subgraph_edges") / max(subgraphs, 1), "count"),
        "rgcn.encode_s": (s["rgcn.encode"], "s"),
        "rgcn.encode_calls": (c["rgcn.encode"], "count"),
        "rgcn.layer_s": (s["rgcn.layer"], "s"),
        "rgcn.encodes_per_unit": (tr.calls_in("rgcn.encode", {"train"}) / units_trained, "ratio"),
        "selector.score_s": (s["selector.score"], "s"),
        "selector.score_calls": (c["selector.score"], "count"),
        "selector.loss_s": (s["selector.loss"], "s"),
        "generator.encode_s": (s["generator.encode"], "s"),
        "generator.encode_calls": (c["generator.encode"], "count"),
        "generator.decoder_s": (s["generator.decoder"], "s"),
        "generator.decoder_calls": (c["generator.decoder"], "count"),
        "generator.decoder_positions": (tr.total("generator.decoder_positions"), "count"),
        "generator.loss_s": (s["generator.loss"], "s"),
        "tensor.backward_s": (s["tensor.backward"], "s"),
        "tensor.backward_calls": (c["tensor.backward"], "count"),
        "tensor.adam_s": (s["tensor.adam"], "s"),
        "tensor.adam_elements": (adam_elements, "count"),
        "tensor.adam_useful_share": (tr.total("tensor.adam_useful") / adam_elements, "ratio"),
        "tensor.tensors_created": (tr.tensors_created, "count"),
        "moe.prepare_s": (s["moe.prepare"], "s"),
        "moe.estep_s": (s["moe.estep"], "s"),
        "moe.estep_calls": (c["moe.estep"], "count"),
        "moe.mstep_s": (s["moe.mstep"], "s"),
        "moe.mstep_calls": (c["moe.mstep"], "count"),
        "moe.joint_loss_calls": (c["moe.joint_loss"], "count"),
        "moe.select_s": (s["moe.select"], "s"),
        "moe.select_calls": (c["moe.select"], "count"),
        "moe.expert_entropy": (_entropy(last_epoch_histogram), "nats"),
        "decoding.moe_s": (s["decoding.moe"], "s"),
        "decoding.beam_s": (s["decoding.beam"], "s"),
        "decoding.topk_s": (s["decoding.topk"], "s"),
        "decoding.nucleus_s": (s["decoding.nucleus"], "s"),
        "decoding.next_dist_s": (s["decoding.next_dist"], "s"),
        "decoding.next_dist_calls": (c["decoding.next_dist"], "count"),
        "decoding.positions_per_token": (decode_positions / next_dist_decode, "ratio"),
        "decoding.selects_per_output": (tr.calls_in("moe.select", sampling) / sampled_outputs,
                                        "ratio"),
        "metrics.evaluate_s": (s["metrics.evaluate"], "s"),
        "metrics.self_bleu_s": (s["metrics.self_bleu"], "s"),
        "pipeline.load_model_s": (s["pipeline.load_model"], "s"),
        "pipeline.load_dataset_s": (s["pipeline.load_dataset"], "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
