"""Golden outputs: a fixed small training run and every decoder, byte for byte.

A `make_synthetic_task` model is trained for 2 epochs in prompt and in embed
mode, then each mode decodes 4 inputs with moe, beam-3, top-k x3 and
nucleus x3, at three shapes.  The tests compare the generations and the training
logs (every step's expert histogram and mean loss) with the
committed fixtures, so a change meant to be exact (a faster op, a refactor) must
leave every output byte, every E-step assignment and every loss bit unchanged.
The third shape stacks two layers of each kind, and its last log line per
mode also holds the sha256 of the trained parameters, so an accumulation
order that changes across layers shows even where no output moves.
Regenerate the fixtures only for an intended behaviour change:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import functools
import hashlib
import json
from pathlib import Path

from kgmoe.moe import TrainConfig, train
from kgmoe.pipeline import RunConfig, generate_bundles, make_synthetic_task, synthetic_kg

FIXTURE = Path(__file__).resolve().parent / "data" / "golden_generations.jsonl"
LOG_FIXTURE = FIXTURE.with_name("golden_train_log.jsonl")
DEEP_FIXTURE = FIXTURE.with_name("golden_deep.jsonl")
LOG_KEYS = ("epoch", "step", "expert_histogram", "mean_loss")
SHAPE = dict(n_experts=3, d_model=16, n_heads=4, n_encoder_layers=1, n_decoder_layers=1,
             d_ff=32, max_len=24, rgcn_layers=1, top_concepts=3, batch_size=4, epochs=2,
             seed=0)
MODES = {"prompt": dict(expert_mode="prompt"),
         "embed": dict(expert_mode="embed", disjoint_rule=True)}
# At SHAPE every attention and layer-norm scale is a power of two, so
# reordering a scaling there is exact; ODD_SHAPE is a shape where it is not.
ODD_SHAPE = dict(SHAPE, d_model=18, n_heads=3, d_ff=30)
# Two layers of each kind: gradients then sum across layers.
DEEP_SHAPE = dict(ODD_SHAPE, n_encoder_layers=2, n_decoder_layers=2, rgcn_layers=2)
STRATEGIES = [dict(strategy="moe"), dict(strategy="beam", n_outputs=3),
              dict(strategy="truncated", n_outputs=3, sample_k=3),
              dict(strategy="nucleus", n_outputs=3, sample_p=0.8)]


def params_sha256(model) -> str:
    digest = hashlib.sha256()
    for name, p in sorted(model.params.items()):
        digest.update(name.encode())
        digest.update(p.data.tobytes())
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def golden_runs() -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """(one JSON line per generated output, one JSON line per training-log
    entry) over both modes, all strategies and the first two shapes, then
    DEEP_SHAPE's generation and training-log lines."""
    examples, triples = make_synthetic_task(seed=5, n_inputs=4, k_modes=3)
    kg = synthetic_kg(triples)
    lines, odd_lines, log_lines, deep_lines = [], [], [], []

    def generations(model, mode):
        return [json.dumps({"mode": mode, "id": bundle.example_id, "strategy": bundle.strategy,
                            "expert": entry.expert, "output": entry.output,
                            "concepts": entry.concepts})
                for settings in STRATEGIES
                for bundle in generate_bundles(model, examples, RunConfig(**settings))
                for entry in bundle.entries]

    for mode, extra in MODES.items():
        odd_model, log = train(examples, kg, TrainConfig(**ODD_SHAPE, **extra))
        log_lines += [json.dumps({"mode": f"{mode}-d18", **{k: entry[k] for k in LOG_KEYS}})
                      for entry in log]
        odd_lines += generations(odd_model, f"{mode}-d18")
        model, log = train(examples, kg, TrainConfig(**SHAPE, **extra))
        log_lines += [json.dumps({"mode": mode, **{k: entry[k] for k in LOG_KEYS}})
                      for entry in log]
        lines += generations(model, mode)
        deep_model, log = train(examples, kg, TrainConfig(**DEEP_SHAPE, **extra))
        deep_lines += generations(deep_model, f"{mode}-deep")
        log[-1] = dict(log[-1], params_sha256=params_sha256(deep_model))
        deep_lines += [json.dumps({"mode": f"{mode}-deep",
                                   **{k: entry[k] for k in LOG_KEYS + ("params_sha256",)
                                      if k in entry}})
                       for entry in log]
    # the ODD_SHAPE generations follow every SHAPE line
    return tuple(lines + odd_lines), tuple(log_lines), tuple(deep_lines)


def _assert_lines_match(fixture: Path, got):
    expected = fixture.read_text(encoding="utf-8").splitlines()
    assert len(got) == len(expected)
    for i, (a, b) in enumerate(zip(got, expected), start=1):
        assert a == b, f"{fixture.name} line {i} differs"


def test_generations_match_golden_fixture():
    _assert_lines_match(FIXTURE, golden_runs()[0])


def test_training_log_matches_golden_fixture():
    # json.dumps writes a float's shortest round-trip repr, so equal text means equal bits
    _assert_lines_match(LOG_FIXTURE, golden_runs()[1])


def test_deep_shape_matches_golden_fixture():
    _assert_lines_match(DEEP_FIXTURE, golden_runs()[2])


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    for fixture, lines in zip((FIXTURE, LOG_FIXTURE, DEEP_FIXTURE), golden_runs()):
        fixture.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
