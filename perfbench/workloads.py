"""Workload definitions and input generation for the kgmoe benchmark.

Every workload is built from ``make_synthetic_task(seed, n_inputs, k_modes,
kg_size)`` and trained with the model shape of acceptance criterion 5.  The
workload seed only reaches the task generator and the top-k / nucleus sampling
draws; the model seed stays fixed, so the quality metric compares one training
trajectory across commits instead of the spread between initialisations.

Run as a script, this module writes one workload's inputs into a directory:

    python3 perfbench/workloads.py OUT_DIR WORKLOAD_JSON SEED [CACHE_DIR]

It runs in its own process so that the peak RSS of the measuring process
covers only the measured work.  A checkpoint trained for a workload is kept in
CACHE_DIR under a hash of the kgmoe sources, the training config and the
generated dataset and KG, so a later run on the same inputs and the same code
loads it instead of training it again.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# Fixed model seed: see the module docstring.
MODEL_SEED = 0
K = 3

# Acceptance criterion 5 model shape.
MODEL_SHAPE = dict(d_model=48, n_heads=4, n_encoder_layers=1, n_decoder_layers=1,
                   d_ff=96, max_len=32, rgcn_layers=1, top_concepts=5,
                   learning_rate=3e-3, batch_size=8, expert_mode="prompt")

# Epochs after which criterion 5 finds the experts specialised.
SPECIALISED_EPOCHS = 15

TOPK_K = 5
NUCLEUS_P = 0.9
N_SAMPLES = 3
BEAM = 3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its generating parameters and the work in one round.

    Every workload runs the same round (set-up, prepare every example, one
    hard-EM epoch from scratch, decode inputs with all four strategies),
    because every end-to-end metric is reported on every workload; the sizes
    decide which layers dominate.  The first, untimed round decodes the first
    ``decode_inputs`` inputs, which are scored; the timed rounds that follow
    decode the first ``timed_inputs``.  ``large-kg`` trains on
    ``train_inputs`` of its examples per round, so that a run holds several
    rounds of its 200k-row Adam steps.
    """

    name: str
    why: str
    n_inputs: int = 30
    k_modes: int = 3
    kg_size: int | None = None
    pretrain_epochs: int = 0      # >0: decode a checkpoint trained while making inputs
    train_inputs: int | None = None   # examples in each round's epoch; None: all
    decode_inputs: int = 30       # inputs decoded and scored, in the untimed first round
    timed_inputs: int = 4         # inputs decoded in every timed round

    def tiny(self) -> "Workload":
        """A seconds-long version of the workload for the smoke tests."""
        return dataclasses.replace(
            self, n_inputs=3, kg_size=None if self.kg_size is None else 2000,
            pretrain_epochs=min(self.pretrain_epochs, 1), train_inputs=None,
            decode_inputs=2, timed_inputs=1)

    def decodes_specialised(self) -> bool:
        """Whether the decoded model trained long enough for its experts to specialise."""
        return self.pretrain_epochs >= SPECIALISED_EPOCHS

    def train_config(self, epochs: int):
        from kgmoe.moe import TrainConfig
        return TrainConfig(n_experts=K, epochs=epochs, seed=MODEL_SEED, **MODEL_SHAPE)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="diverse-decode",
            why="small task (K=3, criterion 5 shape): one hard-EM epoch from scratch, then moe, "
                "beam, top-k and nucleus decoding of a specialised 15-epoch checkpoint",
            pretrain_epochs=SPECIALISED_EPOCHS, timed_inputs=6),
        Workload(
            name="large-kg",
            why="the same task with a 200k-triple KG: KG load, subgraph extraction, 300-node "
                "R-GCN graphs and dense Adam over a 200k-row table dominate",
            kg_size=200_000, train_inputs=4, decode_inputs=16, timed_inputs=16),
    )
}


def input_paths(out_dir: Path) -> dict[str, Path]:
    return {name: out_dir / f"{name}{ext}" for name, ext in (
        ("dataset", ".jsonl"), ("kg", ".tsv"), ("vocab", ".txt"), ("checkpoint", ".json"),
        ("pretrain", ".info.json"))}


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "kgmoe").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _checkpoint_key(cfg, paths: dict) -> str:
    digest = hashlib.sha256(source_sha256().encode())
    digest.update(json.dumps(dataclasses.asdict(cfg), sort_keys=True).encode())
    for name in ("dataset", "kg"):
        digest.update(paths[name].read_bytes())
    return digest.hexdigest()


def make_inputs(workload: Workload, seed: int, out_dir: Path,
                cache_dir: Path | None = None) -> dict:
    """Write dataset and KG (and a trained checkpoint if the workload decodes one)."""
    from kgmoe import tensor as T
    from kgmoe.moe import train
    from kgmoe.pipeline import make_synthetic_task, save_dataset, save_kg_tsv, synthetic_kg

    paths = input_paths(out_dir)
    examples, triples = make_synthetic_task(seed, workload.n_inputs, workload.k_modes,
                                            workload.kg_size)
    save_dataset(paths["dataset"], examples)
    save_kg_tsv(paths["kg"], triples)
    info = {"n_examples": len(examples), "n_triples": len(triples)}
    if not workload.pretrain_epochs:
        return info
    cfg = workload.train_config(workload.pretrain_epochs)
    cached = None if cache_dir is None else cache_dir / _checkpoint_key(cfg, paths)
    if cached is None or not cached.is_dir():
        model, log = train(examples, synthetic_kg(triples), cfg)
        model.vocab.save(paths["vocab"])
        T.save_checkpoint(paths["checkpoint"], model.params, {
            "vocab_hash": model.vocab.content_hash(),
            "train_config": dataclasses.asdict(cfg)})
        paths["pretrain"].write_text(json.dumps({"pretrain_final_loss": log[-1]["mean_loss"]}))
        if cached is not None:
            cache_dir.mkdir(parents=True, exist_ok=True)
            staging = Path(tempfile.mkdtemp(dir=cache_dir))
            for name in ("vocab", "checkpoint", "pretrain"):
                shutil.copy(paths[name], staging / paths[name].name)
            staging.rename(cached)
    else:
        for name in ("vocab", "checkpoint", "pretrain"):
            shutil.copy(cached / paths[name].name, paths[name])
    info.update(json.loads(paths["pretrain"].read_text()))
    return info


if __name__ == "__main__":
    out, spec, seed_arg = sys.argv[1:4]
    cache = Path(sys.argv[4]) if len(sys.argv) > 4 else None
    result = make_inputs(Workload(**json.loads(spec)), int(seed_arg), Path(out), cache)
    print(json.dumps(result))
