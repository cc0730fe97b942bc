"""Command line entry point: train / generate / evaluate / subgraph / synth."""

from __future__ import annotations

import argparse
import sys

from .kg import load_kg
from .pipeline import (RunConfig, load_run_config, make_synthetic_task, run_evaluate,
                       run_generate, run_train, save_dataset, save_kg_tsv, subgraph_json)


def _add_override_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key (repeatable)")


def _build_run_config(args) -> RunConfig:
    try:
        return load_run_config(args.config, args.set)
    except ValueError as err:
        raise SystemExit(str(err)) from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kgmoe",
        description="KG-grounded mixture-of-experts diverse text generation")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, doc in (("train", "train a model and write a checkpoint"),
                      ("generate", "decode K outputs per input to JSONL"),
                      ("evaluate", "score a generations file")):
        p = sub.add_parser(name, help=doc)
        _add_override_flags(p)

    p = sub.add_parser("subgraph", help="emit the grounded subgraph of a text as JSON")
    p.add_argument("--kg", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--hops", type=int, default=2)
    p.add_argument("--max-nodes", type=int, default=300)

    p = sub.add_parser("synth", help="write a synthetic one-to-many dataset and KG")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-inputs", type=int, default=50)
    p.add_argument("--k-modes", type=int, default=3)
    p.add_argument("--kg-size", type=int, default=None)
    p.add_argument("--dataset-out", default="dataset.jsonl")
    p.add_argument("--kg-out", default="kg.tsv")

    args = parser.parse_args(argv)

    if args.command == "train":
        run_train(_build_run_config(args))
    elif args.command == "generate":
        run_generate(_build_run_config(args))
    elif args.command == "evaluate":
        report = run_evaluate(_build_run_config(args))
        print(report.to_json())
    elif args.command == "subgraph":
        kg = load_kg(args.kg)
        print(subgraph_json(kg, args.text, hops=args.hops, max_nodes=args.max_nodes))
    elif args.command == "synth":
        examples, triples = make_synthetic_task(args.seed, args.n_inputs,
                                                args.k_modes, args.kg_size)
        save_dataset(args.dataset_out, examples)
        save_kg_tsv(args.kg_out, triples)
        print(f"wrote {len(examples)} examples and {len(triples)} triples")
    return 0


if __name__ == "__main__":
    sys.exit(main())
