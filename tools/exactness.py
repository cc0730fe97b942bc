"""Exactness evidence in one command: sha256 digests of what training and
decoding produce on fixed synthetic tasks.

    python3 tools/exactness.py                  # print one JSON object of digests
    python3 tools/exactness.py --compare TREE   # ...and list the keys where TREE differs
    python3 tools/exactness.py --tiny           # a seconds-long configuration

Each task is ``make_synthetic_task(3, 30, 3, kg_size)`` trained by ``moe.train``
at acceptance criterion 5's model shape (model seed 0), once in prompt mode and
once in embed mode with the disjoint rule at ``top_concepts`` 9:

- ``diverse-decode``: the 30-input task, 15 epochs, all 30 inputs decoded;
- ``large-kg``: the same task grown to a 200,000-triple KG, its first 4 inputs
  trained for 3 epochs, the first 16 inputs decoded;
- ``diverse-decode-deep``: the ``diverse-decode`` run at 2 encoder, 2 decoder
  and 2 R-GCN layers, which adds the relation projection ``w_rel``, the dense
  ``rgcn.rel_embed`` gradient and stacked generator blocks.

For each task and mode the digests are ``params`` (names, shapes and float64
bytes), ``log`` (the training log) and one key per decoder (``moe``, ``beam``
at width 3, ``truncated`` at k 5 and ``nucleus`` at p 0.9, each sampler
drawing 3 outputs at seed 3), named ``task/mode/what``.  Each task also has
``task/kg``, the digest of its KG as ``load_kg`` reads it from a TSV that
``save_kg_tsv`` wrote: surfaces, triples, CSR adjacency, loop table, surface
index and longest surface.  The KG is loaded twice, so a second load that a
cache serves must give the first load's digest, or the run fails.  39 keys.

The digests are computed in a child process whose BLAS pools are fixed at one
thread, since a matrix product may round differently on more threads.
``--compare TREE`` runs the same child on the sources under ``TREE/src`` (a
checkout of another commit, say), prints ``{"keys": n, "differ": [...]}`` and
exits with status 1 if any key differs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Acceptance criterion 5's model shape; embed mode swaps in EMBED.
SHAPE = dict(n_experts=3, d_model=48, n_heads=4, n_encoder_layers=1, n_decoder_layers=1,
             d_ff=96, max_len=32, rgcn_layers=1, top_concepts=5, learning_rate=3e-3,
             batch_size=8, expert_mode="prompt", seed=0)
EMBED = dict(expert_mode="embed", disjoint_rule=True, top_concepts=9)
TASK_SEED = 3
DECODE_SEED = 3

DEEP = dict(n_encoder_layers=2, n_decoder_layers=2, rgcn_layers=2)

# task -> (KG size, training inputs, epochs, decoded inputs, shape changes);
# None: the smallest KG
TASKS = {"diverse-decode": (None, 30, 15, 30, {}), "large-kg": (200_000, 4, 3, 16, {}),
         "diverse-decode-deep": (None, 30, 15, 30, DEEP)}
TINY = {"diverse-decode": (None, 3, 1, 2, {}), "large-kg": (10_000, 2, 1, 2, {}),
        "diverse-decode-deep": (None, 3, 1, 2, DEEP)}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _kg_digest(kg) -> str:
    """The digest of every field of a loaded KG that extraction and grounding read."""
    import numpy as np

    digest = hashlib.sha256(json.dumps(
        [list(kg.concepts), kg.relations, sorted(kg._loops.items()),
         sorted(kg._surface_index.items()), kg._max_surface_len]).encode())
    for name in ("triples", "indptr", "neighbours", "triple_index"):
        a = getattr(kg, name)
        digest.update(f"{name}{a.dtype.str}{list(a.shape)}".encode())
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def _loaded_kg_digest(triples) -> str:
    """The digest of the KG that ``load_kg`` reads from the saved triples,
    loaded twice; the two loads must agree."""
    from kgmoe.kg import load_kg
    from kgmoe.pipeline import save_kg_tsv

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "kg.tsv"
        save_kg_tsv(path, triples)
        first, second = (_kg_digest(load_kg(path)) for _ in range(2))
    if first != second:
        raise RuntimeError("a second load of the KG differs from the first")
    return first


def _digests(tiny: bool) -> dict[str, str]:
    """Every key's digest, computed with the kgmoe on sys.path."""
    import numpy as np

    from kgmoe import decoding
    from kgmoe.generator import Vocab
    from kgmoe.moe import TrainConfig, prepare_example, train
    from kgmoe.pipeline import make_synthetic_task, synthetic_kg

    decoders = {
        "moe": decoding.decode_moe,
        "beam": lambda c, m: decoding.decode_beam(c, m, 3),
        "truncated": lambda c, m: decoding.decode_truncated(c, m, 5, DECODE_SEED, 3),
        "nucleus": lambda c, m: decoding.decode_nucleus(c, m, 0.9, DECODE_SEED, 3),
    }
    out = {}
    for task, (kg_size, n_train, epochs, n_decode, shape) in (TINY if tiny else TASKS).items():
        examples, triples = make_synthetic_task(TASK_SEED, 30, 3, kg_size)
        kg = synthetic_kg(triples)
        out[f"{task}/kg"] = _loaded_kg_digest(triples)
        vocab = Vocab.build([t for ex in examples for t in (ex.input, *ex.references)], 3)
        for mode, extra in (("prompt", {}), ("embed", EMBED)):
            cfg = TrainConfig(**{**SHAPE, **shape, **extra, "epochs": epochs})
            model, log = train(examples[:n_train], kg, cfg, vocab)
            params = hashlib.sha256()
            for name, p in sorted(model.params.items()):
                params.update(f"{name}{list(p.shape)}".encode())
                params.update(np.ascontiguousarray(p.data, "<f8").tobytes())
            key = f"{task}/{mode}"
            out[f"{key}/params"] = params.hexdigest()
            out[f"{key}/log"] = _sha(json.dumps(log, sort_keys=True).encode())
            contexts = [prepare_example(ex, kg, vocab, cfg) for ex in examples[:n_decode]]
            for name, decode in decoders.items():
                bundles = [decode(c, model) for c in contexts]
                record = [[b.example_id, [dataclasses.asdict(e) for e in b.entries]]
                          for b in bundles]
                out[f"{key}/{name}"] = _sha(json.dumps(record, sort_keys=True).encode())
    return out


def digests(tree: Path, tiny: bool) -> dict[str, str]:
    """The digests of the sources under tree/src, from a one-thread child process."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    args = [sys.executable, str(Path(__file__).resolve()), "--child"] + ["--tiny"] * tiny
    done = subprocess.run(args, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"exactness run on {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compare", metavar="TREE", type=Path,
                        help="also run on TREE/src and list the keys that differ")
    parser.add_argument("--tiny", action="store_true", help="a seconds-long configuration")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_digests(args.tiny), sort_keys=True))
        return 0
    ours = digests(ROOT, args.tiny)
    print(json.dumps(ours, sort_keys=True))
    if args.compare is None:
        return 0
    theirs = digests(args.compare.resolve(), args.tiny)
    differ = sorted(k for k in ours.keys() | theirs.keys() if ours.get(k) != theirs.get(k))
    print(json.dumps({"keys": len(ours.keys() | theirs.keys()), "differ": differ}))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
