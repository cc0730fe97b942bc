"""Golden outputs: a fixed small training run and every decoder, byte for byte.

A `make_synthetic_task` model is trained for 2 epochs in prompt and in embed
mode, then each mode decodes 4 inputs with moe, beam-3, top-k x3 and
nucleus x3.  The test compares the generations with the committed fixture, so
a change meant to be exact (a faster op, a refactor) must leave every output
byte unchanged.  Regenerate the fixture only for an intended behaviour change:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import json
from pathlib import Path

from kgmoe.moe import TrainConfig, train
from kgmoe.pipeline import RunConfig, generate_bundles, make_synthetic_task, synthetic_kg

FIXTURE = Path(__file__).resolve().parent / "data" / "golden_generations.jsonl"
SHAPE = dict(n_experts=3, d_model=16, n_heads=4, n_encoder_layers=1, n_decoder_layers=1,
             d_ff=32, max_len=24, rgcn_layers=1, top_concepts=3, batch_size=4, epochs=2,
             seed=0)
MODES = {"prompt": dict(expert_mode="prompt"),
         "embed": dict(expert_mode="embed", disjoint_rule=True)}
STRATEGIES = [dict(strategy="moe"), dict(strategy="beam", n_outputs=3),
              dict(strategy="truncated", n_outputs=3, sample_k=3),
              dict(strategy="nucleus", n_outputs=3, sample_p=0.8)]


def golden_lines() -> list[str]:
    """One JSON line per generated output, over both modes and all strategies."""
    examples, triples = make_synthetic_task(seed=5, n_inputs=4, k_modes=3)
    kg = synthetic_kg(triples)
    lines = []
    for mode, extra in MODES.items():
        model, _ = train(examples, kg, TrainConfig(**SHAPE, **extra))
        for settings in STRATEGIES:
            for bundle in generate_bundles(model, examples, RunConfig(**settings)):
                for entry in bundle.entries:
                    lines.append(json.dumps({
                        "mode": mode, "id": bundle.example_id, "strategy": bundle.strategy,
                        "expert": entry.expert, "output": entry.output,
                        "concepts": entry.concepts}))
    return lines


def test_generations_match_golden_fixture():
    expected = FIXTURE.read_text(encoding="utf-8").splitlines()
    got = golden_lines()
    assert len(got) == len(expected)
    for i, (a, b) in enumerate(zip(got, expected), start=1):
        assert a == b, f"{FIXTURE.name} line {i} differs"


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("".join(line + "\n" for line in golden_lines()), encoding="utf-8")
