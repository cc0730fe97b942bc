"""File formats, synthetic task contracts, config parsing, end-to-end
train -> generate -> evaluate round trip, and CLI subcommands."""

import codecs
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgmoe.cli import main as cli_main
from kgmoe.kg import KnowledgeGraph, extract_subgraph, ground_concepts, load_kg
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


def test_load_dataset_undecodable_byte_names_file_and_line(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_bytes(b'{"id": "a", "input": "x", "references": ["y"]}\r\n'
                  b'{"id": "b", "input": "x\xff", "references": ["y"]}\n')
    with pytest.raises(ValueError, match=r"d\.jsonl: undecodable line 2: invalid start byte "
                                         r"\(byte 0xff\)"):
        load_dataset(p)


def test_load_dataset_drops_leading_bom(tmp_path):
    body = b'{"id": "a", "input": "x", "references": ["y"]}\n'
    (tmp_path / "plain.jsonl").write_bytes(body)
    (tmp_path / "bom.jsonl").write_bytes(codecs.BOM_UTF8 + body)
    assert load_dataset(tmp_path / "bom.jsonl") == load_dataset(tmp_path / "plain.jsonl")


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


@pytest.mark.parametrize("text", ["", "   ", "\t\n"], ids=["empty", "spaces", "whitespace"])
def test_load_dataset_rejects_input_without_tokens(tmp_path, text):
    p = tmp_path / "d.jsonl"
    rows = [{"id": "a", "input": "x", "references": ["y"]},
            {"id": "b", "input": text, "references": ["y"]}]
    p.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(ValueError, match=r"d\.jsonl: line 2: 'input' has no tokens"):
        load_dataset(p)


@pytest.mark.parametrize("edit, key", [
    ({"references": "a sentence here"}, "'references' must be a list of strings"),
    ({"references": [1, None]}, "'references' must be a list of strings"),
    ({"input": ["x"]}, "'input' must be a string"),
    ({"input": None}, "'input' must be a string"),
], ids=["references-string", "references-non-strings", "input-list", "input-null"])
def test_load_dataset_rejects_mistyped_field_naming_file_line_and_key(tmp_path, edit, key):
    p = tmp_path / "d.jsonl"
    rows = [{"id": i, "input": "x", "references": ["y"]} for i in ("a", "b")]
    rows[1].update(edit)
    p.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(ValueError, match=rf"d\.jsonl: line 2: {key}"):
        load_dataset(p)


@pytest.mark.parametrize("line", ['["a", "x", ["y"]]', "5"], ids=["list", "number"])
def test_load_dataset_rejects_line_that_is_not_an_object(tmp_path, line):
    p = tmp_path / "d.jsonl"
    p.write_text(line + "\n")
    with pytest.raises(ValueError, match=r"d\.jsonl: line 1 is not a JSON object"):
        load_dataset(p)


def test_load_dataset_rejects_duplicate_id_naming_both_lines(tmp_path):
    p = tmp_path / "d.jsonl"
    rows = [{"id": i, "input": "x", "references": ["y"]} for i in ("a", "b", "a")]
    p.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(ValueError, match=r"d\.jsonl: line 3: duplicate id 'a', first on line 1"):
        load_dataset(p)


def test_load_dataset_reads_int_id_as_its_string_form(tmp_path):
    p = tmp_path / "d.jsonl"
    rows = [{"id": i, "input": "x", "references": ["y"]} for i in (7, "7")]
    p.write_text(json.dumps(rows[0]) + "\n")
    assert load_dataset(p) == [Example("7", "x", ["y"])]
    p.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(ValueError, match="line 2: duplicate id '7', first on line 1"):
        load_dataset(p)


ID_KINDS = [True, None, [7], 7.0]
ID_KIND_NAMES = ["bool", "null", "list", "float"]


@pytest.mark.parametrize("bad_id", ID_KINDS, ids=ID_KIND_NAMES)
def test_load_dataset_rejects_id_that_is_not_string_or_int(tmp_path, bad_id):
    p = tmp_path / "d.jsonl"
    rows = [{"id": i, "input": "x", "references": ["y"]} for i in ("a", bad_id)]
    p.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(ValueError, match=r"d\.jsonl: line 2: 'id' must be a string or an integer"):
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


@pytest.mark.parametrize("triple, index, field", [
    (("a", "r", "c\nd\te\tf"), 1, "tail"),      # loaded as two triples, with a relation e
    ((" a", "r", "c"), 1, "head"),                # loaded stripped to a
    (("a\tb", "r", "c"), 1, "head"),              # loaded as a malformed line
    (("a", "", "c"), 1, "relation"),
    (("a", "r", "c\r"), 1, "tail"),
    (("a", "r\u2028 ", "c"), 1, "relation"),
    (("\ufeffa", "r", "c"), 0, "head"),           # the first head would lose its mark
], ids=["line-break", "padded", "tab", "empty", "cr", "padded-unicode", "bom"])
def test_save_kg_tsv_refuses_a_field_that_would_not_load_back(tmp_path, triple, index, field):
    triples = [("x", "r", "y"), triple][1 - index:] + [("y", "r", "z")]
    with pytest.raises(ValueError, match=rf"k\.tsv: triple {index}: the {field} "):
        save_kg_tsv(tmp_path / "k.tsv", triples)
    assert not (tmp_path / "k.tsv").exists()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.one_of(st.text("ab_Ü", min_size=1, max_size=3),
                                      st.text("ab \t\n\r\x0b\x85\u2028\ufeff", max_size=3))] * 3),
                max_size=4))
def test_save_kg_tsv_writes_what_load_kg_reads_back(tmp_path_factory, triples):
    path = tmp_path_factory.mktemp("kg") / "kg.tsv"
    try:
        save_kg_tsv(path, triples)
    except ValueError:
        assert not path.exists()
        return
    kg, want = load_kg(path), KnowledgeGraph.from_triples(triples)
    assert kg.concepts == want.concepts and kg.relations == want.relations
    assert np.array_equal(kg.triples, want.triples)


def test_synthetic_needs_two_modes():
    with pytest.raises(ValueError):
        make_synthetic_task(seed=0, n_inputs=2, k_modes=1)


@pytest.mark.parametrize("n_inputs, kg_size", [(0, None), (-3, None), (0, 10)])
def test_synthetic_needs_an_input(n_inputs, kg_size):
    with pytest.raises(ValueError, match="n_inputs must be >= 1"):
        make_synthetic_task(seed=0, n_inputs=n_inputs, k_modes=2, kg_size=kg_size)


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


def test_load_run_config_undecodable_byte_names_file_and_line(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_bytes(b"seed = 7\r\nstrategy = beam\xff\n")
    with pytest.raises(ValueError, match=r"run\.cfg: undecodable line 2: invalid start byte "
                                         r"\(byte 0xff\)"):
        load_run_config(p)


def test_load_run_config_drops_leading_bom(tmp_path):
    body = b"seed = 7\nstrategy = beam\n"
    (tmp_path / "plain.cfg").write_bytes(body)
    (tmp_path / "bom.cfg").write_bytes(codecs.BOM_UTF8 + body)
    cfg = load_run_config(tmp_path / "bom.cfg")
    assert cfg == load_run_config(tmp_path / "plain.cfg") and cfg.train.seed == 7


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
    with pytest.raises(ValueError,
                       match=r"generations\.jsonl: line 1: id 'nope' is not in the dataset"):
        run_evaluate(trained_run)


def test_vocab_hash_mismatch_detected(trained_run, tmp_path):
    (tmp_path / "vocab.txt").write_text("<pad>\n<bos>\n<eos>\n<unk>\n<expert0>\n<expert1>\nzzz\n")
    with pytest.raises(ValueError, match="vocab hash") as err:
        run_generate(trained_run)
    assert str(tmp_path / "checkpoint.json") in str(err.value)
    assert str(tmp_path / "vocab.txt") in str(err.value)



def _read_checkpoint(path):
    """(header, name -> array) of a version-3 checkpoint: a JSON header line,
    then each parameter's little-endian float64 bytes in name order."""
    raw = path.read_bytes()
    line, payload = raw.split(b"\n", 1)
    header, arrays, offset = json.loads(line), {}, 0
    for name, entry in header["params"].items():
        n = int(np.prod(entry["shape"]))
        arrays[name] = np.frombuffer(payload, "<f8", n, offset).reshape(entry["shape"])
        offset += 8 * n
    return header, arrays


def _write_checkpoint(path, header, arrays):
    """Write a version-3 checkpoint by hand, with the header's shapes taken from `arrays`."""
    header = dict(header, params={name: {"shape": list(a.shape)}
                                  for name, a in sorted(arrays.items())})
    line = json.dumps(header)
    line += " " * (-(len(line) + 1) % 8) + "\n"
    path.write_bytes(line.encode() + b"".join(np.asarray(arrays[name], "<f8").tobytes()
                                              for name in header["params"]))


def _rewrite_checkpoint(path, edit):
    header, arrays = _read_checkpoint(path)
    edit(arrays)
    _write_checkpoint(path, header, arrays)


def test_load_model_rejects_wrong_shape(trained_run, tmp_path):
    path = tmp_path / "checkpoint.json"
    name = "sel.expert_embed"
    expected = tuple(_read_checkpoint(path)[0]["params"][name]["shape"])

    def shrink(params):
        params[name] = np.zeros([1, expected[1]])
    _rewrite_checkpoint(path, shrink)
    found = (1, expected[1])
    with pytest.raises(ValueError) as err:
        load_model(trained_run)
    message = str(err.value)
    for part in (str(path), repr(name), str(found), str(expected)):
        assert part in message


def test_load_model_draws_no_parameters(trained_run, monkeypatch):
    saved = _read_checkpoint(Path(trained_run.checkpoint_path))[1]

    def refuse(*args, **kwargs):
        raise AssertionError("load_model drew parameters that it then replaced")
    monkeypatch.setattr(np.random, "default_rng", refuse)
    model = load_model(trained_run)
    assert sorted(model.params) == sorted(saved)
    for name, array in saved.items():
        assert model.params[name].data.tobytes() == array.tobytes()


def test_load_model_rejects_unexpected_parameter(trained_run, tmp_path):
    path = tmp_path / "checkpoint.json"
    _rewrite_checkpoint(path, lambda params: params.update(
        {"bogus.weight": np.zeros(1)}))
    with pytest.raises(ValueError, match=r"checkpoint\.json: unexpected parameter 'bogus\.weight'"):
        load_model(trained_run)


def test_load_model_rejects_a_list_meta(trained_run, tmp_path):
    path = tmp_path / "checkpoint.json"
    header, arrays = _read_checkpoint(path)
    header["meta"] = [header["meta"]]
    _write_checkpoint(path, header, arrays)
    with pytest.raises(ValueError, match=r"checkpoint\.json: 'meta' must be an object, got list"):
        load_model(trained_run)


@pytest.mark.parametrize("edit, key", [({"bogus": 1}, "bogus"), ({"n_experts": 0}, "n_experts"),
                                       ({"epochs": 2.5}, "epochs"),
                                       ({"n_experts": "3"}, "n_experts")])
def test_load_model_rejects_bad_saved_train_config(trained_run, tmp_path, edit, key):
    path = tmp_path / "checkpoint.json"
    header, arrays = _read_checkpoint(path)
    header["meta"]["train_config"].update(edit)
    _write_checkpoint(path, header, arrays)
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
        load_generations(p, {"a"})


@pytest.mark.parametrize("edit, key", [
    ({"output": 5}, "'output' must be a string"),
    ({"strategy": None}, "'strategy' must be a string"),
    ({"concepts": "ice_cream"}, "'concepts' must be a list of strings"),
    ({"concepts": [3]}, "'concepts' must be a list of strings"),
], ids=["output-int", "strategy-null", "concepts-string", "concepts-non-strings"])
def test_load_generations_rejects_mistyped_field_naming_file_line_and_key(tmp_path, edit, key):
    p = tmp_path / "g.jsonl"
    rows = [{"id": "a", "strategy": "moe", "expert": z, "output": f"o{z}", "concepts": []}
            for z in range(2)]
    rows[1].update(edit)
    p.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(ValueError, match=rf"g\.jsonl: line 2: {key}"):
        load_generations(p, {"a"})


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


@pytest.mark.parametrize("bad_id", ID_KINDS, ids=ID_KIND_NAMES)
def test_load_generations_rejects_id_that_is_not_string_or_int(tmp_path, bad_id):
    p = tmp_path / "g.jsonl"
    rows = [{"id": i, "strategy": "moe", "expert": 0, "output": "o", "concepts": []}
            for i in ("a", bad_id)]
    p.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(ValueError, match=r"g\.jsonl: line 2: 'id' must be a string or an integer"):
        load_generations(p, {"a"})


def test_evaluate_matches_int_generation_ids_to_dataset_ids(tmp_path):
    examples, triples = make_synthetic_task(seed=0, n_inputs=2, k_modes=2)
    for i, ex in enumerate(examples):
        ex.id = str(i + 7)
    save_dataset(tmp_path / "dataset.jsonl", examples)
    save_kg_tsv(tmp_path / "kg.tsv", triples)
    rows = [{"id": i + 7, "strategy": "moe", "expert": z, "output": ex.references[z],
             "concepts": []} for i, ex in enumerate(examples) for z in range(2)]
    (tmp_path / "generations.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    report = run_evaluate(run_config_in(tmp_path))
    assert report.config == {"K": 2, "strategy": "moe"}
    assert set(load_generations(tmp_path / "generations.jsonl", {"7", "8"})) == {"7", "8"}


def test_generations_file_of_two_strategies_is_refused(tmp_path):
    # moe then beam outputs for the same two ids once evaluated as {"K": 6, "strategy": "moe"}
    examples, triples = make_synthetic_task(0, 2, 3)
    save_dataset(tmp_path / "dataset.jsonl", examples)
    save_kg_tsv(tmp_path / "kg.tsv", triples)
    rows = [{"id": ex.id, "strategy": strategy, "expert": z, "output": ex.references[z],
             "concepts": []} for strategy in ("moe", "beam") for ex in examples for z in range(3)]
    (tmp_path / "generations.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(ValueError, match=r"generations\.jsonl: line 7 has strategy 'beam', "
                                         r"but line 1 has 'moe'"):
        run_evaluate(run_config_in(tmp_path))


def test_load_generations_undecodable_byte_names_file_and_line(tmp_path):
    p = tmp_path / "g.jsonl"
    row = '{"id": "a", "strategy": "moe", "expert": 0, "output": "o", "concepts": []}\n'
    p.write_bytes(row.encode() * 3 + b'{"id": "\xc3(", "strategy": "moe"}\n')
    with pytest.raises(ValueError, match=r"g\.jsonl: undecodable line 4"):
        load_generations(p, {"a"})


def test_load_generations_groups_by_id(tmp_path):
    p = tmp_path / "g.jsonl"
    rows = [{"id": "a", "strategy": "moe", "expert": z, "output": f"o{z}", "concepts": []}
            for z in range(2)]
    p.write_text("".join(json.dumps(r) + "\n" for r in rows))
    grouped = load_generations(p, {"a"})
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
    with pytest.raises(SystemExit, match="max_nodes"):
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


@pytest.mark.parametrize("case", ["synth-negative-inputs", "dataset-line-without-input",
                                  "corrupt-v3-checkpoint", "undecodable-config", "missing-kg",
                                  "missing-dataset", "evaluate-one-output",
                                  "evaluate-unknown-id"])
def test_cli_input_errors_exit_with_one_line(tmp_path, case):
    save_kg_tsv(tmp_path / "kg.tsv", [("piano", "relatedto", "music")])
    (tmp_path / "bad.jsonl").write_text('{"id": "a", "references": ["x"]}\n')
    # as `generate --set strategy=beam --set n_outputs=1` writes: one output per example
    (tmp_path / "one.jsonl").write_text(
        '{"id": "ex0000", "input": "a piano", "references": ["piano music"]}\n')
    (tmp_path / "beam1.jsonl").write_text('{"id": "ex0000", "strategy": "beam", "expert": 0, '
                                          '"output": "piano music", "concepts": ["piano"]}\n')
    # two outputs each for ex0000 and an id the dataset does not hold
    (tmp_path / "zzz.jsonl").write_text("".join(
        f'{{"id": "{i}", "strategy": "beam", "expert": 0, "output": "piano", "concepts": []}}\n'
        for i in ("ex0000", "ex0000", "zzz", "zzz")))
    # a 48-byte header line needing 16 payload bytes, followed by 8
    (tmp_path / "ckpt.json").write_bytes(
        b'{"version": 3, "params": {"w": {"shape": [2]}}}\n' + bytes(8))
    (tmp_path / "bad.cfg").write_bytes(b"seed = 1\nstrategy = beam\xff\n")
    argv, named = {
        "synth-negative-inputs": (["synth", "--n-inputs", "-3"], "n_inputs"),
        "dataset-line-without-input": (["evaluate", "--set", "dataset_path=bad.jsonl"],
                                       "bad.jsonl: line 1 missing 'input'"),
        "corrupt-v3-checkpoint": (["generate", "--set", "checkpoint_path=ckpt.json"],
                                  "ckpt.json: parameter 'w': the payload holds 8 of its 16 bytes"),
        "undecodable-config": (["generate", "--config", "bad.cfg"],
                               "bad.cfg: undecodable line 2"),
        "missing-kg": (["subgraph", "--kg", "missing.tsv", "--text", "a piano"],
                       "No such file or directory: 'missing.tsv'"),
        "missing-dataset": (["evaluate", "--set", "dataset_path=missing.jsonl"],
                            "No such file or directory: 'missing.jsonl'"),
        "evaluate-one-output": (["evaluate", "--set", "dataset_path=one.jsonl",
                                 "--set", "generations_path=beam1.jsonl"],
                                "beam1.jsonl: example 'ex0000' has 1 output; "
                                "evaluate needs at least 2 per example"),
        "evaluate-unknown-id": (["evaluate", "--set", "dataset_path=one.jsonl",
                                 "--set", "generations_path=zzz.jsonl"],
                                "zzz.jsonl: line 3: id 'zzz' is not in the dataset"),
    }[case]
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-m", "kgmoe.cli", *argv], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stderr.count("\n") == 1 and named in done.stderr, done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("n_outputs", [1, 5])
def test_cli_moe_with_other_output_count_exits_with_one_line(trained_run, tmp_path, n_outputs):
    # moe writes one output per expert; the fixture's model has 2 experts
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-m", "kgmoe.cli", "generate",
                           "--set", "strategy=moe", "--set", f"n_outputs={n_outputs}"],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stderr.count("\n") == 1, done.stderr
    assert f"n_outputs must be the expert count 2, got {n_outputs}" in done.stderr
    assert not (tmp_path / "generations.jsonl").exists()


def test_subgraph_json_caps_nodes(tmp_path):
    kg = synthetic_kg([("hub", "r", f"n{i}") for i in range(10)])
    obj = json.loads(subgraph_json(kg, "the hub", hops=1, max_nodes=3))
    assert "hub" in obj["nodes"] and len(obj["nodes"]) == 3


def test_subgraph_defaults_are_the_train_config_defaults(tmp_path, capsys):
    # a chain three hops long and more leaves than the node cap, so both defaults matter
    triples = [("hub", "r", f"n{i}") for i in range(320)] + [("a", "r", "b"), ("b", "r", "c"),
                                                            ("c", "r", "d")]
    save_kg_tsv(tmp_path / "k.tsv", triples)
    kg = synthetic_kg(triples)
    cfg = TrainConfig()
    expected = subgraph_json(kg, "the hub and a", hops=cfg.subgraph_hops,
                             max_nodes=cfg.max_subgraph_nodes)
    assert subgraph_json(kg, "the hub and a") == expected
    assert cli_main(["subgraph", "--kg", str(tmp_path / "k.tsv"),
                     "--text", "the hub and a"]) == 0
    assert capsys.readouterr().out == expected + "\n"
