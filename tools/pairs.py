"""Alternating benchmark pairs of two checkouts, summarised against the bounds
of ``BENCHMARK.json``.

    python3 tools/pairs.py --base TREE --change TREE --workload large-kg \\
        --pairs 10 --seconds 50 --first-seed 1001 [--out runs.json]

Pair i runs ``perfbench/run.py --workload W --seed S --seconds T`` once in
each checkout, one after the other, at seed ``first_seed + i``; the side that
runs first alternates from pair to pair, so a slow spell of a shared machine
falls on both.  ``--workload`` may repeat.  Each run's last stdout line is its
result object; ``--out`` writes every run (side, workload, seed, order and
result) as JSON.  The bounds and the better direction of each end-to-end
metric are read from the base checkout's ``BENCHMARK.json``, which is never
written.

For each workload and metric the summary line gives each side's median and
quartiles, the ratio of the medians (change / base), the pairs that the change
won (strictly better, in the metric's direction), whether a gain claim would
hold (it wins at least 9 pairs in 10 and its median beats the base median by
more than the base's interquartile range) and whether the change is worse
than the base by more than the bound (relative to the base median).  A
``failed_share`` line compares the share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

CLAIM_WIN_SHARE = 0.9


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object of one benchmark run in the checkout at tree."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} seed {seed} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict], metrics: list[dict]) -> list[dict]:
    """One row per workload and metric of `runs`, the records that `main`
    writes: ``{"side": "base" | "change", "workload", "seed", "result"}``,
    where a pair is the base and change runs of one workload and seed.
    `metrics` are ``BENCHMARK.json``'s end-to-end entries."""
    rows = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]
        pairs = {seed: p for seed, p in pairs.items() if len(p) == 2}
        for m in metrics:
            name, higher = m["name"], m["better"] == "higher"
            sides = {side: [p[side]["metrics"][name]["value"] for p in pairs.values()]
                     for side in ("base", "change")}
            sign = 1 if higher else -1
            wins = sum(sign * (c - b) > 0 for b, c in zip(sides["base"], sides["change"]))
            rows.append(_row(workload, name, sides, wins, sign, m["bound"]))
        shares = {side: [p[side]["failed"] / max(p[side]["attempted"], 1)
                         for p in pairs.values()] for side in ("base", "change")}
        wins = sum(c < b for b, c in zip(shares["base"], shares["change"]))
        rows.append(_row(workload, "failed_share", shares, wins, -1, 0.0))
    return rows


def _row(workload: str, name: str, sides: dict, wins: int, sign: int, bound: float) -> dict:
    """The summary of one metric; sign is 1 where higher is better, else -1."""
    (b1, b2, b3), (c1, c2, c3) = quartiles(sides["base"]), quartiles(sides["change"])
    n = len(sides["base"])
    gap = sign * (c2 - b2)
    return {"workload": workload, "metric": name, "pairs": n,
            "base": {"q1": b1, "median": b2, "q3": b3},
            "change": {"q1": c1, "median": c2, "q3": c3},
            "ratio": c2 / b2 if b2 else math.nan, "wins": wins,
            "claim_holds": n > 0 and wins >= CLAIM_WIN_SHARE * n and gap > b3 - b1,
            "bound_crossed": -gap > bound * abs(b2)}


def _format(row: dict) -> str:
    b, c = row["base"], row["change"]
    return (f"{row['workload']:15s} {row['metric']:24s} "
            f"base {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}]  "
            f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  "
            f"ratio {row['ratio']:.4f}  won {row['wins']}/{row['pairs']}  "
            f"claim {'holds' if row['claim_holds'] else 'no'}  "
            f"bound {'CROSSED' if row['bound_crossed'] else 'kept'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="the checkout compared against")
    parser.add_argument("--change", type=Path, required=True, help="the checkout measured")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--out", type=Path, help="write every run here as JSON")
    args = parser.parse_args(argv)
    metrics = json.loads((args.base / "BENCHMARK.json").read_text())["end_to_end"]
    runs = []
    for workload in args.workload:
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                tree = args.base if side == "base" else args.change
                runs.append({"side": side, "workload": workload, "seed": seed,
                             "first": order[0], "result": run_once(tree, workload, seed,
                                                                   args.seconds)})
                if args.out:
                    args.out.write_text(json.dumps(runs, indent=1) + "\n")
    rows = summarize(runs, metrics)
    for row in rows:
        print(_format(row))
    return 1 if any(r["bound_crossed"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
