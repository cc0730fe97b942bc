"""File formats, synthetic task contracts, config parsing, end-to-end
train -> generate -> evaluate round trip, and CLI subcommands."""

import dataclasses
import json

import numpy as np
import pytest

from kgmoe.cli import main as cli_main
from kgmoe.kg import extract_subgraph, ground_concepts
from kgmoe.moe import TrainConfig
from kgmoe.pipeline import (Example, RunConfig, apply_overrides, load_dataset,
                            load_generations, load_model, load_run_config,
                            make_synthetic_task, run_evaluate, run_generate, run_train,
                            save_dataset, save_kg_tsv, subgraph_json, synthetic_kg)


SMALL_TRAIN = dict(n_experts=2, d_model=8, n_heads=2, n_encoder_layers=1,
                   n_decoder_layers=1, d_ff=16, max_len=32, rgcn_layers=1,
                   top_concepts=3, epochs=1, batch_size=4, seed=0)


# --- dataset files -----------------------------------------------------------

def test_load_dataset_round_trip(tmp_path):
    examples = [Example("a", "in one", ["out one", "out two"]),
                Example("b", "in two", ["out three"])]
    p = tmp_path / "d.jsonl"
    save_dataset(p, examples)
    assert load_dataset(p) == examples


def test_load_dataset_handles_crlf_and_blank_lines(tmp_path):
    p = tmp_path / "d.jsonl"
    body = json.dumps({"id": "a", "input": "x", "references": ["y"]})
    p.write_bytes((body + "\r\n\r\n").encode())
    assert load_dataset(p) == [Example("a", "x", ["y"])]


def test_load_dataset_malformed_json_cites_line(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text('{"id": "a", "input": "x", "references": ["y"]}\n{oops\n')
    with pytest.raises(ValueError, match="line 2"):
        load_dataset(p)


def test_load_dataset_missing_key(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text('{"id": "a", "input": "x"}\n')
    with pytest.raises(ValueError, match="references"):
        load_dataset(p)


def test_load_dataset_empty_references(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text('{"id": "a", "input": "x", "references": []}\n')
    with pytest.raises(ValueError, match="no references"):
        load_dataset(p)


# --- synthetic one-to-many task ---------------------------------------------

def test_synthetic_reference_concept_sets_are_pairwise_disjoint():
    examples, triples = make_synthetic_task(seed=0, n_inputs=4, k_modes=3)
    kg = synthetic_kg(triples)
    for ex in examples:
        assert len(ex.references) == 3
        sets = [ground_concepts(ref, kg) for ref in ex.references]
        assert all(s for s in sets)
        for i in range(3):
            for j in range(i + 1, 3):
                assert not sets[i] & sets[j]


def test_synthetic_reference_concepts_reachable_in_two_hops():
    examples, triples = make_synthetic_task(seed=1, n_inputs=3, k_modes=2)
    kg = synthetic_kg(triples)
    for ex in examples:
        seeds = ground_concepts(ex.input, kg)
        assert seeds
        sub = extract_subgraph(seeds, kg, hops=2, max_nodes=None)
        for ref in ex.references:
            assert ground_concepts(ref, kg) <= sub.nodes


def test_synthetic_same_seed_byte_identical():
    a = make_synthetic_task(seed=5, n_inputs=4, k_modes=3, kg_size=80)
    b = make_synthetic_task(seed=5, n_inputs=4, k_modes=3, kg_size=80)
    assert a == b
    # the seed only steers the random distractor placement
    c = make_synthetic_task(seed=6, n_inputs=4, k_modes=3, kg_size=80)
    assert a != c


def test_synthetic_kg_size_too_small_raises():
    with pytest.raises(ValueError, match="too small"):
        make_synthetic_task(seed=0, n_inputs=4, k_modes=3, kg_size=5)


def test_synthetic_extra_budget_adds_distractors():
    _, base = make_synthetic_task(seed=0, n_inputs=2, k_modes=2)
    _, grown = make_synthetic_task(seed=0, n_inputs=2, k_modes=2, kg_size=40)
    assert not any(t[2].startswith("bonus") for t in base)
    assert any(t[2].startswith("bonus") for t in grown)


def test_synthetic_needs_two_modes():
    with pytest.raises(ValueError):
        make_synthetic_task(seed=0, n_inputs=2, k_modes=1)


# --- run configuration -------------------------------------------------------

def test_load_run_config_parses_types(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# comment\n"
                 "n_experts = 4\n"
                 "learning_rate = 0.001\n"
                 "disjoint_rule = true\n"
                 "warmup_steps = none\n"
                 "strategy = beam\n"
                 "sample_p = 0.8\n"
                 "dataset_path = data/my.jsonl\n")
    cfg = load_run_config(p)
    assert cfg.train.n_experts == 4
    assert cfg.train.learning_rate == 0.001
    assert cfg.train.disjoint_rule is True
    assert cfg.train.warmup_steps is None
    assert cfg.strategy == "beam"
    assert cfg.sample_p == 0.8
    assert cfg.dataset_path == "data/my.jsonl"


def test_load_run_config_unknown_key(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("mystery = 1\n")
    with pytest.raises(ValueError, match="mystery"):
        load_run_config(p)


def test_load_run_config_not_key_value(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("just some words\n")
    with pytest.raises(ValueError, match="key=value"):
        load_run_config(p)


def test_load_run_config_validates_values(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("n_experts = 0\n")
    with pytest.raises(ValueError):
        load_run_config(p)



@pytest.mark.parametrize("item, key", [("n_experts=0", "n_experts"),
                                       ("concept_weight=-1", "concept_weight"),
                                       ("subgraph_hops=-1", "subgraph_hops"),
                                       ("max_subgraph_nodes=-5", "max_subgraph_nodes"),
                                       ("epochs=many", "epochs"),
                                       ("disjoint_rule=maybe", "disjoint_rule"),
                                       ("sample_p=high", "sample_p"),
                                       ("strategy=magic", "strategy"),
                                       ("sample_k=0", "sample_k"),
                                       ("sample_p=1.5", "sample_p"),
                                       ("n_outputs=0", "n_outputs"),
                                       ("n_outputs=-2", "n_outputs"),
                                       ("n_heads=0", "n_heads"),
                                       ("n_heads=5", "n_heads"),
                                       ("batch_size=0", "batch_size"),
                                       ("expert_mode=magic", "expert_mode"),
                                       ("epochs=-1", "epochs"),
                                       ("concept_weight=nan", "concept_weight"),
                                       ("learning_rate=inf", "learning_rate"),
                                       ("weight_decay=-0.5", "weight_decay"),
                                       ("d_ff=0", "d_ff"),
                                       ("max_len=1", "max_len")])
def test_cli_set_rejects_bad_value_naming_key(item, key):
    with pytest.raises(SystemExit, match=key):
        cli_main(["train", "--set", item])


def test_load_run_config_bad_value_names_line_and_key(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("n_experts = 2\nconcept_weight = -1\n")
    with pytest.raises(ValueError, match=r"line 2: .*concept_weight"):
        load_run_config(p)


def test_load_run_config_bad_run_key_names_line_and_key(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("strategy = nucleus\nsample_p = 1.5\n")
    with pytest.raises(ValueError, match=r"line 2: .*sample_p"):
        load_run_config(p)


def test_apply_override_coerces_by_field_type():
    cfg = apply_overrides(RunConfig(), [("n_outputs=4", "a"), ("warmup_steps = none", "b"),
                                        ("disjoint_rule=off", "c"), ("n_experts=5", "d")])
    assert cfg.n_outputs == 4
    assert cfg.train.warmup_steps is None
    assert cfg.train.disjoint_rule is False
    assert cfg.train.n_experts == 5
    with pytest.raises(ValueError, match="src: unknown config key 'mystery'"):
        apply_overrides(cfg, [("mystery=1", "src")])
    with pytest.raises(ValueError, match="src: expected key=value, got 'n_experts'"):
        apply_overrides(cfg, [("n_experts", "src")])


@pytest.mark.parametrize("items", [["d_model=30", "n_heads=3"], ["n_heads=3", "d_model=30"]])
def test_overrides_are_checked_together_in_any_order(items, tmp_path):
    cfg = load_run_config(None, items)
    assert (cfg.train.d_model, cfg.train.n_heads) == (30, 3)
    p = tmp_path / "run.cfg"
    p.write_text(items[0] + "\n")
    cfg = load_run_config(p, items[1:])
    assert (cfg.train.d_model, cfg.train.n_heads) == (30, 3)


def test_override_error_names_source_of_a_key_it_names(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("strategy = beam\nd_model = 30\n")
    with pytest.raises(ValueError, match=r"line 2: n_heads \(4\) must divide d_model \(30\)"):
        load_run_config(p)
    with pytest.raises(ValueError, match=r"^--set n_heads=0: n_heads must be >= 1, got 0$"):
        load_run_config(p, ["n_heads=0"])


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(RunConfig)
                                  if f.name != "train"])
def test_run_config_rejects_wrong_type_naming_it(name):
    for wrong in [1] if isinstance(getattr(RunConfig(), name), str) else ["3", True, 2.5]:
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            RunConfig(**{name: wrong})


# --- end-to-end round trip ---------------------------------------------------

def run_config_in(tmp_path, **overrides) -> RunConfig:
    cfg = RunConfig(
        train=TrainConfig(**SMALL_TRAIN),
        dataset_path=str(tmp_path / "dataset.jsonl"),
        kg_path=str(tmp_path / "kg.tsv"),
        vocab_path=str(tmp_path / "vocab.txt"),
        checkpoint_path=str(tmp_path / "checkpoint.json"),
        generations_path=str(tmp_path / "generations.jsonl"),
        metrics_path=str(tmp_path / "metrics.json"),
        train_log_path=str(tmp_path / "train_log.jsonl"),
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


@pytest.fixture()
def trained_run(tmp_path):
    examples, triples = make_synthetic_task(seed=0, n_inputs=3, k_modes=2)
    save_dataset(tmp_path / "dataset.jsonl", examples)
    save_kg_tsv(tmp_path / "kg.tsv", triples)
    cfg = run_config_in(tmp_path)
    run_train(cfg)
    return cfg


def test_train_writes_all_artifacts(trained_run, tmp_path):
    for name in ("checkpoint.json", "vocab.txt", "train_log.jsonl"):
        assert (tmp_path / name).exists()
    log_lines = [json.loads(l) for l in (tmp_path / "train_log.jsonl").read_text().splitlines()]
    assert log_lines and {"epoch", "step", "expert_histogram", "mean_loss"} <= set(log_lines[0])


def test_generate_then_evaluate_round_trip(trained_run, tmp_path):
    bundles = run_generate(trained_run)
    assert len(bundles) == 3
    lines = [json.loads(l) for l in (tmp_path / "generations.jsonl").read_text().splitlines()]
    assert len(lines) == 3 * 2   # K=2 experts per input
    assert {"id", "strategy", "expert", "output", "concepts"} <= set(lines[0])

    report = run_evaluate(trained_run)
    saved = json.loads((tmp_path / "metrics.json").read_text())
    for key in ("bleu4", "rouge_l", "self_bleu3", "self_bleu4", "distinct2",
                "entropy4", "unique_concepts", "concept_jaccard"):
        assert key in saved
    assert saved["config"]["K"] == 2
    assert saved["config"]["strategy"] == "moe"
    assert report.self_bleu4 == saved["self_bleu4"]


def test_all_decode_strategies_produce_outputs(trained_run):
    for strategy in ("moe", "beam", "truncated", "nucleus"):
        trained_run.strategy = strategy
        bundles = run_generate(trained_run)
        assert all(b.strategy == strategy for b in bundles)
        assert all(len(b.entries) == 2 for b in bundles)


def test_unknown_strategy_raises(trained_run):
    trained_run.strategy = "magic"
    with pytest.raises(ValueError, match="strategy"):
        run_generate(trained_run)


def test_evaluate_is_decoupled_from_weights(trained_run, tmp_path):
    run_generate(trained_run)
    (tmp_path / "checkpoint.json").unlink()
    report = run_evaluate(trained_run)   # only dataset + kg + generations needed
    assert 0.0 <= report.distinct2 <= 1.0


def test_evaluate_rejects_unmatched_generations(trained_run, tmp_path):
    (tmp_path / "generations.jsonl").write_text(
        '{"id": "nope", "strategy": "moe", "expert": 0, "output": "x", "concepts": []}\n')
    with pytest.raises(ValueError, match="no generations matched"):
        run_evaluate(trained_run)


def test_vocab_hash_mismatch_detected(trained_run, tmp_path):
    (tmp_path / "vocab.txt").write_text("<pad>\n<bos>\n<eos>\n<unk>\n<expert0>\n<expert1>\nzzz\n")
    with pytest.raises(ValueError, match="vocab hash") as err:
        run_generate(trained_run)
    assert str(tmp_path / "checkpoint.json") in str(err.value)
    assert str(tmp_path / "vocab.txt") in str(err.value)



def _rewrite_checkpoint(path, edit):
    payload = json.loads(path.read_text())
    edit(payload["params"])
    path.write_text(json.dumps(payload))


def test_load_model_rejects_wrong_shape(trained_run, tmp_path):
    path = tmp_path / "checkpoint.json"
    name = "sel.expert_embed"
    expected = tuple(json.loads(path.read_text())["params"][name]["shape"])

    def shrink(params):
        params[name] = {"shape": [1, expected[1]], "data": [0.0] * expected[1]}
    _rewrite_checkpoint(path, shrink)
    found = (1, expected[1])
    with pytest.raises(ValueError) as err:
        load_model(trained_run)
    message = str(err.value)
    for part in (str(path), repr(name), str(found), str(expected)):
        assert part in message


def test_load_model_rejects_unexpected_parameter(trained_run, tmp_path):
    path = tmp_path / "checkpoint.json"
    _rewrite_checkpoint(path, lambda params: params.update(
        {"bogus.weight": {"shape": [1], "data": [0.0]}}))
    with pytest.raises(ValueError, match=r"checkpoint\.json: unexpected parameter 'bogus\.weight'"):
        load_model(trained_run)


@pytest.mark.parametrize("edit, key", [({"bogus": 1}, "bogus"), ({"n_experts": 0}, "n_experts"),
                                       ({"epochs": 2.5}, "epochs"),
                                       ({"n_experts": "3"}, "n_experts")])
def test_load_model_rejects_bad_saved_train_config(trained_run, tmp_path, edit, key):
    path = tmp_path / "checkpoint.json"
    payload = json.loads(path.read_text())
    payload["meta"]["train_config"].update(edit)
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as err:
        load_model(trained_run)
    assert str(path) in str(err.value) and key in str(err.value)


@pytest.mark.parametrize("missing", ["id", "strategy", "output", "concepts"])
def test_load_generations_missing_field_names_line_and_key(tmp_path, missing):
    p = tmp_path / "g.jsonl"
    rows = [{"id": "a", "strategy": "moe", "expert": z, "output": f"o{z}", "concepts": []}
            for z in range(2)]
    del rows[1][missing]
    p.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(ValueError, match=rf"g\.jsonl: line 2 missing '{missing}'"):
        load_generations(p)


def test_evaluate_rejects_uneven_output_counts(tmp_path):
    examples, triples = make_synthetic_task(seed=0, n_inputs=3, k_modes=2)
    save_dataset(tmp_path / "dataset.jsonl", examples)
    save_kg_tsv(tmp_path / "kg.tsv", triples)
    counts = {examples[0].id: 2, examples[1].id: 2, examples[2].id: 1}
    rows = [{"id": ex_id, "strategy": "moe", "expert": z, "output": "x y", "concepts": []}
            for ex_id, n in counts.items() for z in range(n)]
    (tmp_path / "generations.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(ValueError, match=rf"example '{examples[2].id}' has 1 outputs, expected 2"):
        run_evaluate(run_config_in(tmp_path))


def test_load_generations_groups_by_id(tmp_path):
    p = tmp_path / "g.jsonl"
    rows = [{"id": "a", "strategy": "moe", "expert": z, "output": f"o{z}", "concepts": []}
            for z in range(2)]
    p.write_text("".join(json.dumps(r) + "\n" for r in rows))
    grouped = load_generations(p)
    assert grouped["a"]["outputs"] == ["o0", "o1"]


# --- CLI ---------------------------------------------------------------------

def test_cli_synth_writes_files(tmp_path, capsys):
    rc = cli_main(["synth", "--seed", "3", "--n-inputs", "2", "--k-modes", "2",
                   "--dataset-out", str(tmp_path / "d.jsonl"),
                   "--kg-out", str(tmp_path / "k.tsv")])
    assert rc == 0
    assert len(load_dataset(tmp_path / "d.jsonl")) == 2
    assert "wrote 2 examples" in capsys.readouterr().out


def test_cli_subgraph_emits_json(tmp_path, capsys):
    save_kg_tsv(tmp_path / "k.tsv", [("piano", "relatedto", "music"),
                                     ("music", "relatedto", "song")])
    rc = cli_main(["subgraph", "--kg", str(tmp_path / "k.tsv"),
                   "--text", "a piano", "--hops", "2"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["seeds"] == ["piano"]
    assert set(obj["nodes"]) == {"piano", "music", "song"}
    assert ["piano", "relatedto", "music"] in obj["edges"]


def test_cli_subgraph_rejects_negative_max_nodes(tmp_path):
    save_kg_tsv(tmp_path / "k.tsv", [("piano", "relatedto", "music")])
    with pytest.raises(ValueError, match="max_nodes"):
        cli_main(["subgraph", "--kg", str(tmp_path / "k.tsv"), "--text", "a piano",
                  "--max-nodes", "-2"])


def test_cli_full_pipeline(tmp_path, capsys):
    d, k = str(tmp_path / "d.jsonl"), str(tmp_path / "k.tsv")
    cli_main(["synth", "--n-inputs", "2", "--k-modes", "2",
              "--dataset-out", d, "--kg-out", k])
    overrides = [f"dataset_path={d}", f"kg_path={k}",
                 f"vocab_path={tmp_path / 'v.txt'}",
                 f"checkpoint_path={tmp_path / 'c.json'}",
                 f"generations_path={tmp_path / 'g.jsonl'}",
                 f"metrics_path={tmp_path / 'm.json'}",
                 f"train_log_path={tmp_path / 'l.jsonl'}",
                 "n_experts=2", "d_model=8", "n_heads=2", "n_encoder_layers=1",
                 "n_decoder_layers=1", "d_ff=16", "rgcn_layers=1", "epochs=1",
                 "top_concepts=3"]
    flags = []
    for o in overrides:
        flags += ["--set", o]
    assert cli_main(["train", *flags]) == 0
    assert cli_main(["generate", *flags]) == 0
    assert cli_main(["evaluate", *flags]) == 0
    printed = capsys.readouterr().out
    assert "self_bleu4" in printed
    assert json.loads((tmp_path / "m.json").read_text())["config"]["K"] == 2


def test_cli_rejects_bad_set_flag():
    with pytest.raises(SystemExit):
        cli_main(["train", "--set", "notakeyvalue"])


def test_cli_rejects_unknown_key():
    with pytest.raises(SystemExit):
        cli_main(["train", "--set", "mystery=1"])


def test_subgraph_json_caps_nodes(tmp_path):
    kg = synthetic_kg([("hub", "r", f"n{i}") for i in range(10)])
    obj = json.loads(subgraph_json(kg, "the hub", hops=1, max_nodes=3))
    assert "hub" in obj["nodes"] and len(obj["nodes"]) == 3
