"""kgmoe benchmark: one command, two workloads, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload diverse-decode --seed 1 --seconds 50 --trace 0

Run from the repository root; kgmoe is imported from ``src/``.  Inputs are made
from ``--seed`` in a child process, then one closed-loop client (this process,
one thread, a single-threaded BLAS pool) runs rounds of the workload: set-up,
prepare, one hard-EM epoch, decoding inputs with four strategies.  A first,
untimed round decodes every scored input; timed rounds follow for about
``--seconds``.  Times are medians over rounds, scaled to nominal seconds by a
reference chunk timed between the phases (see reference.py).  Every output is
checked; failures count in ``failed``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one untraced
and one traced pass, checks that both give byte-identical outputs and losses,
and reports the per-layer metrics of the traced pass (see README.md).

The second-to-last stdout line records the environment and the workload; the
last line is the result object.
"""

from __future__ import annotations

import os

# Fix the BLAS pool before numpy loads; the value is recorded with every result.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import dataclasses
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "kgmoe").is_dir():
    sys.exit(f"kgmoe sources not found under {ROOT / 'src'}")
sys.path.insert(0, str(HERE))

from workloads import (BEAM, K, N_SAMPLES, NUCLEUS_P, TOPK_K, WORKLOADS,  # noqa: E402
                       Workload, input_paths, source_sha256)

import numpy as np  # noqa: E402

from kgmoe import decoding, metrics, moe, pipeline  # noqa: E402
from kgmoe import kg as kgmod  # noqa: E402
from kgmoe.generator import Vocab  # noqa: E402

import layers  # noqa: E402
from reference import Reference  # noqa: E402

STRATEGIES = ("moe", "beam", "topk", "nucleus")
TRAIN_EPOCHS = 1             # per round: hard-EM from scratch, as ``kgmoe train`` starts
MIN_ROUNDS = 3               # timed rounds, however short ``--seconds`` is
MIN_SETUPS = 3               # timed set-ups; more while they take less than...
SETUP_SHARE = 0.1            # ...this share of ``--seconds``
EXPECTED_ENTRIES = {"moe": K, "beam": BEAM, "topk": N_SAMPLES, "nucleus": N_SAMPLES}


class Session:
    """One pass over a workload's phases, with the checks on every output."""

    def __init__(self, workload: Workload, paths: dict, seed: int, tracer=None):
        self.w = workload
        self.paths = paths
        self.seed = seed
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.quality: dict = {}
        self.reference: dict = {}

    def _phase(self, name: str):
        if self.tracer is not None:
            self.tracer.phase = name

    def _fail(self, message: str):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    # -- phases -----------------------------------------------------------

    def setup(self):
        """Load the dataset and KG, plus the checkpoint when the workload decodes one."""
        self._phase("setup")
        start = time.perf_counter()
        dataset = pipeline.load_dataset(self.paths["dataset"])
        if self.w.pretrain_epochs:
            model = pipeline.load_model(pipeline.RunConfig(
                kg_path=str(self.paths["kg"]), vocab_path=str(self.paths["vocab"]),
                checkpoint_path=str(self.paths["checkpoint"])))
            kg = model.kg
        else:
            model = None
            kg = pipeline.load_kg(self.paths["kg"])
        return time.perf_counter() - start, (dataset, kg, model)

    def prepare(self, dataset, kg, vocab, cfg):
        """(seconds per example, contexts)."""
        self._phase("prepare")
        times, contexts = [], []
        for ex in dataset:
            start = time.perf_counter()
            contexts.append(moe.prepare_example(ex, kg, vocab, cfg))
            times.append(time.perf_counter() - start)
        self.attempted += len(contexts)
        return times, contexts

    def train(self, dataset, kg, vocab):
        """(seconds, model, log, EM units) of hard-EM on the workload's training inputs."""
        self._phase("train")
        cfg = self.w.train_config(TRAIN_EPOCHS)
        examples = dataset[: self.w.train_inputs]
        units = sum(len(ex.references) for ex in examples) * TRAIN_EPOCHS
        start = time.perf_counter()
        model, log = moe.train(examples, kg, cfg, vocab=vocab)
        elapsed = time.perf_counter() - start
        self._check_log(log, units // TRAIN_EPOCHS, cfg.batch_size)
        return elapsed, model, log, units

    def decode(self, contexts, model, between=lambda: None):
        """strategy -> (seconds per input, bundles); ``between`` runs after each input."""
        calls = {
            "moe": lambda c: decoding.decode_moe(c, model),
            "beam": lambda c: decoding.decode_beam(c, model, beam=BEAM),
            "topk": lambda c: decoding.decode_truncated(c, model, TOPK_K, self.seed,
                                                        n_samples=N_SAMPLES),
            "nucleus": lambda c: decoding.decode_nucleus(c, model, NUCLEUS_P, self.seed,
                                                         n_samples=N_SAMPLES),
        }
        out = {name: ([], []) for name in STRATEGIES}
        # Strategies alternate per input, so each one's time is spread over the
        # whole pass and slow spells of a shared machine hit all four alike.
        for ctx in contexts:
            for name in STRATEGIES:
                self._phase(f"decode.{name}")
                start = time.perf_counter()
                bundle = calls[name](ctx)
                out[name][0].append(time.perf_counter() - start)
                out[name][1].append(bundle)
                self._check_bundle(name, bundle)
            between()
        return out

    def score(self, dataset, kg, decoded):
        """MetricReport of the moe outputs, scored as ``kgmoe evaluate`` does.

        A specialised model must also keep the paper's claim: its K outputs are
        more diverse (lower Self-BLEU-4) than beam search's.
        """
        self._phase("score")
        refs = {ex.id: ex.references for ex in dataset}
        bundles = decoded["moe"][1]
        hyps = [[e.output for e in b.entries] for b in bundles]
        concepts = [[kgmod.ground_concepts(h, kg) for h in hs] for hs in hyps]
        report = metrics.evaluate_hypothesis_sets(
            hyps, [refs[b.example_id] for b in bundles], concepts,
            config={"K": K, "strategy": "moe"})
        beam_self_bleu4 = metrics.corpus_self_bleu(
            [[e.output for e in b.entries] for b in decoded["beam"][1]], 4)
        self.quality = {"moe_bleu4": report.bleu4, "moe_rouge_l": report.rouge_l,
                        "moe_self_bleu4": report.self_bleu4,
                        "beam_self_bleu4": beam_self_bleu4}
        if self.w.decodes_specialised() and not report.self_bleu4 < beam_self_bleu4:
            self._fail(f"moe Self-BLEU-4 {report.self_bleu4:.2f} is not below "
                       f"beam's {beam_self_bleu4:.2f}")
        return report

    # -- checks -----------------------------------------------------------

    def _check_log(self, log, n_units, batch_size):
        per_epoch = [min(batch_size, n_units - s) for s in range(0, n_units, batch_size)]
        for entry in log:
            self.attempted += 1
            expected = per_epoch[entry["step"] % len(per_epoch)]
            if not math.isfinite(entry["mean_loss"]):
                self._fail(f"step {entry['step']}: non-finite loss {entry['mean_loss']}")
            elif sum(entry["expert_histogram"]) != expected:
                self._fail(f"step {entry['step']}: histogram {entry['expert_histogram']} "
                           f"does not sum to batch size {expected}")

    def _check_bundle(self, strategy, bundle):
        self.attempted += 1
        entries = bundle.entries
        if len(entries) != EXPECTED_ENTRIES[strategy]:
            self._fail(f"{strategy} {bundle.example_id}: {len(entries)} entries, "
                       f"expected {EXPECTED_ENTRIES[strategy]}")
        elif strategy == "moe" and [e.expert for e in entries] != list(range(K)):
            self._fail(f"moe {bundle.example_id}: expert ids {[e.expert for e in entries]}")

    # -- helpers ----------------------------------------------------------

    def vocab_and_config(self, dataset, model):
        if model is not None:
            return model.vocab, model.cfg
        texts = [ex.input for ex in dataset] + [r for ex in dataset for r in ex.references]
        cfg = self.w.train_config(TRAIN_EPOCHS)
        return Vocab.build(texts, cfg.n_experts), cfg

    def decode_model(self, loaded_model, trained_model, vocab):
        model = loaded_model if loaded_model is not None else trained_model
        if model.vocab.content_hash() != vocab.content_hash():
            raise RuntimeError("decode model vocabulary differs from the prepared contexts")
        return model


def _tokens(bundles) -> int:
    """Output tokens returned: words plus one EOS, capped at the decode length."""
    cap = decoding.MAX_DECODE_LEN
    return sum(min(len(e.output.split()) + 1, cap) for b in bundles for e in b.entries)


def _median_total(times_per_key: dict) -> float:
    """Sum over keys of each key's median time across rounds.

    Every key is the same piece of work in every round, so taking its median
    before summing drops the rounds that a burst of load from outside the
    process slowed.
    """
    return sum(statistics.median(times) for times in times_per_key.values())


def _round(s: Session, decode_ids, state=None, between=lambda: None):
    """Set up (unless ``state`` is given), prepare every example, train one
    epoch and decode ``decode_ids``, calling ``between`` after each phase;
    returns the phase times and outputs."""
    setup_time = None
    if state is None:
        setup_time, state = s.setup()
        between()
    dataset, kg, loaded = state
    vocab, cfg = s.vocab_and_config(dataset, loaded)
    prepare_times, contexts = s.prepare(dataset, kg, vocab, cfg)
    between()
    train_time, trained, log, units = s.train(dataset, kg, vocab)
    between()
    model = s.decode_model(loaded, trained, vocab)
    decoded = s.decode([contexts[i] for i in decode_ids], model, between)
    return {"setup": setup_time, "prepare": prepare_times, "train": train_time,
            "units": units, "log": log, "decoded": decoded, "state": state}


def measure(workload: Workload, paths: dict, seed: int, seconds: float):
    """End-to-end metrics: name -> (value, unit), plus the session that ran them.

    A first, untimed round decodes every scored input (the checks and the
    quality metric read its outputs) and warms up the process.  Timed rounds
    then repeat the same work, decoding the workload's first ``timed_inputs``
    inputs, until ``seconds`` have passed.  Training is deterministic, so every
    round's model and outputs are those of the first.  A round sets up afresh
    while set-up has taken less than ``SETUP_SHARE`` of the run, and at least
    ``MIN_SETUPS`` times; later rounds reuse the last set-up, so that a slow
    set-up (the 200k-triple KG) leaves time for more rounds of the rest.

    Every time is scaled to nominal seconds by the reference chunk timed
    between the phases (see reference.py), so the numbers do not follow the
    drifting speed of a shared machine.
    """
    s = Session(workload, paths, seed)
    first = _round(s, range(workload.decode_inputs))
    report = s.score(*first["state"][:2], first["decoded"])
    log, units = first["log"], first["units"]
    del first

    timed_ids = range(workload.timed_inputs)
    setup_times, train_times = [], []
    prepare_times = defaultdict(list)
    decode_times = {name: defaultdict(list) for name in STRATEGIES}
    tokens = {}
    ref = Reference()
    start = time.perf_counter()
    state = None
    while time.perf_counter() - start < seconds or len(train_times) < MIN_ROUNDS:
        if len(setup_times) < MIN_SETUPS or sum(setup_times) < SETUP_SHARE * seconds:
            state = None                 # drop the previous KG before loading the next
        r = _round(s, timed_ids, state, ref.sample)
        state = r["state"]
        if r["setup"] is not None:
            setup_times.append(r["setup"])
        train_times.append(r["train"])
        for i, t in enumerate(r["prepare"]):
            prepare_times[i].append(t)
        for name, (times, bundles) in r["decoded"].items():
            for i, t in zip(timed_ids, times):
                decode_times[name][i].append(t)
            tokens[name] = _tokens(bundles)
        del r

    scale = ref.scale()
    s.reference = ref.summary()
    result = {
        "setup_s": (statistics.median(setup_times) * scale, "s"),
        "prepare_examples_per_s": (
            len(prepare_times) / (_median_total(prepare_times) * scale), "1/s"),
        "train_units_per_s": (units / (statistics.median(train_times) * scale), "1/s"),
        "final_loss": (log[-1]["mean_loss"], "nats"),
    }
    for name in STRATEGIES:
        result[f"{name}_tokens_per_s"] = (
            tokens[name] / (_median_total(decode_times[name]) * scale), "1/s")
    result["moe_rouge_l"] = (report.rouge_l, "score")
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return result, s


def single_pass(s: Session):
    """Every phase once; returns (wall seconds, digest of outputs and losses, log, units)."""
    start = time.perf_counter()
    _, (dataset, kg, loaded) = s.setup()
    vocab, cfg = s.vocab_and_config(dataset, loaded)
    _, contexts = s.prepare(dataset, kg, vocab, cfg)
    _, trained_model, log, units = s.train(dataset, kg, vocab)
    model = s.decode_model(loaded, trained_model, vocab)
    decoded = s.decode(contexts[: s.w.decode_inputs], model)
    report = s.score(dataset, kg, decoded)
    wall = time.perf_counter() - start
    record = {
        "log": log,
        "outputs": {name: [[b.example_id, [dataclasses.asdict(e) for e in b.entries]]
                           for b in bundles] for name, (_, bundles) in decoded.items()},
        "report": dataclasses.asdict(report),
        "prepared": [[c.example_id, c.node_ids, c.subgraph.edges, c.y_ids]
                     for c in contexts],
    }
    digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
    return wall, digest, log, units


def measure_layers(workload: Workload, paths: dict, seed: int):
    """Per-layer metrics from a traced pass, checked against an untraced one."""
    plain = Session(workload, paths, seed)
    plain_wall, plain_digest, _, _ = single_pass(plain)

    tracer = layers.Tracer()
    traced = Session(workload, paths, seed, tracer)
    tracer.install()
    try:
        traced_wall, traced_digest, log, units = single_pass(traced)
    finally:
        tracer.uninstall()
    tracer.check_calls(workload.name)
    if traced_digest != plain_digest:
        traced._fail("traced pass changed outputs or losses")
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.problems += plain.problems

    last_epoch = log[-1]["epoch"]
    histogram = np.sum([e["expert_histogram"] for e in log if e["epoch"] == last_epoch], axis=0)
    result = layers.layer_metrics(tracer, units, histogram.tolist(),
                                  traced_wall / plain_wall)
    return result, traced


# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(workload: Workload, seed: int, inputs: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": source_sha256(),
        "seed": seed,
        "workload": dataclasses.asdict(workload),
        "inputs": inputs,
        "client": "closed loop, 1 process, 1 client",
    }


def make_inputs(workload: Workload, seed: int, out_dir: Path, cache_dir: Path | None) -> dict:
    """Generate the workload's inputs in a child process and wait for it."""
    out_dir.mkdir(parents=True)
    cache = [] if cache_dir is None else [str(cache_dir)]
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), str(out_dir),
         json.dumps(dataclasses.asdict(workload)), str(seed), *cache],
        capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"input generation failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: Workload, seed: int, seconds: float, trace: bool, work_root: Path,
        cache_dir: Path | None = None):
    """Make inputs, measure, and return (environment, result object)."""
    out_dir = work_root / f"{workload.name}-{seed}-{os.getpid()}"
    try:
        inputs = make_inputs(workload, seed, out_dir, cache_dir)
        paths = input_paths(out_dir)
        if trace:
            values, session = measure_layers(workload, paths, seed)
        else:
            values, session = measure(workload, paths, seed, seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()},
    }
    env = environment(workload, seed, inputs)
    env["quality"] = session.quality
    env["reference"] = session.reference
    env["problems"] = session.problems
    return env, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    env, result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                      Path.cwd() / ".perfbench_work", Path.cwd() / ".perfbench_cache")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
