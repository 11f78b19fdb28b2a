import argparse
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from graftkit import cli as cli_mod, partworker, templates as T, vqa as vqa_mod
from graftkit.cli import checkpoint_roundtrip, main
from graftkit.clip_stage import DEFAULT_PROMPT_SETS, ClipConfig, ClipModel
from graftkit.corpus import CorpusSpec, build_vocab, generate_corpus, load_corpus, save_corpus
from graftkit.nn import DecoderLM, ImageEncoder, ImageEncoderConfig, LmConfig, save_lm
from graftkit.params import ParamRegistry, save_checkpoint
from graftkit.qa import build_qa_cases
from graftkit.qformer import Phase2Bridge, QFormerConfig, QFormerModel, save_phase2
from graftkit.stats import permutation_test


def run_cli(args, **kw):
    return main(list(args))


def tiny_clip(vocab) -> ClipModel:
    return ClipModel(len(vocab), ClipConfig(image=ImageEncoderConfig(patch=32, dim=16, blocks=1,
                                                                     heads=2),
                                            text_dim=16, text_blocks=1, text_heads=2), seed=0)


def tiny_qformer(vocab) -> QFormerModel:
    return QFormerModel(QFormerConfig(n_queries=2, dim=16, blocks=1, heads=2, grid_dim=16,
                                      vocab_size=len(vocab)), seed=0)


def tiny_lm(vocab, max_len=448) -> DecoderLM:
    lm = DecoderLM(ParamRegistry(), LmConfig(vocab_size=len(vocab), dim=16, blocks=1, heads=2,
                                             max_len=max_len, pad_id=vocab.id("[PAD]"),
                                             eos_id=vocab.id("[EOS]"), img_id=vocab.id("[IMG]")),
                   np.random.default_rng(0))
    lm.freeze()
    return lm


_COMMON = [("seed", 0, False, None, "int", None),
           ("out", None, False, None, None, "output dir (or $GRAFTKIT_OUT)"),
           ("verbose", False, False, None, None, None)]
_ENCODERS = [("corpus", None, True, None, None, None), ("clip", None, True, None, None, None),
             ("variant", "C", False, ("C", "B"), None, None), ("b1", None, False, None, None, None)]
_BUNDLE = [("corpus", None, True, None, None, None), ("clip", None, True, None, None, None),
           ("b1", None, True, None, None, None), ("b2", None, True, None, None, None),
           ("bridge", None, True, None, None, None), ("lm", None, True, None, None, None)]
# command -> (its help, then (dest, default, required, choices, type name, help) per flag)
CLI_SURFACE = {
    "synth": ("generate a synthetic corpus", [
        ("spec", None, False, None, None, "corpus spec JSON"),
        ("n", None, False, None, "integer", None)]),
    "train-c": ("stage-1 contrastive training", [
        ("corpus", None, True, None, None, None), ("steps", None, False, None, "integer", None)]),
    "train-b1": ("adapter phase-1 training", [
        ("corpus", None, True, None, None, None), ("clip", None, True, None, None, None),
        ("steps", None, False, None, "integer", None)]),
    "train-b2": ("adapter phase-2 soft-prompt training", [
        ("corpus", None, True, None, None, None), ("clip", None, True, None, None, None),
        ("b1", None, True, None, None, "phase-1 generation checkpoint"),
        ("lm", None, False, None, None, "frozen LM checkpoint (pretrained here if absent)"),
        ("steps", None, False, None, "integer", None)]),
    "zeroshot": ("prompt-based zero-shot classification", [
        *_ENCODERS, ("prompts", None, False, None, None, "prompt-set JSON file"),
        ("finding", None, False, None, None, None)]),
    "probe": ("data-efficient classification ladder", [
        *_ENCODERS, ("finding", "effusion", False, None, None, None),
        ("sizes", "16,64,256", False, None, "_counts", None),
        ("repeats", 10, False, None, "integer", None)]),
    "search": ("semantic search over a corpus", [
        *_ENCODERS, ("query", None, True, None, None, None),
        ("k", 5, False, None, "integer", None), ("stage1", 128, False, None, "integer", None)]),
    "vqa": ("visual question answering on one study", [
        *_BUNDLE, ("study", None, True, None, "integer", None),
        ("question", None, True, None, None, None)]),
    "qa": ("report quality-assurance pipeline", [
        *_BUNDLE, ("cases", None, False, None, "integer", None)]),
    "eval": ("evaluation metrics on explicit inputs", [
        ("metric", None, True,
         ("ndcg", "precision", "auc", "bootstrap-mean", "permutation", "checkpoint"), None, None),
        ("rel", None, False, None, None, "comma-separated relevance grades"),
        ("scores", None, False, None, None, None), ("labels", None, False, None, None, None),
        ("n", 1000, False, None, "integer", None), ("ckpt", None, False, None, None, None)]),
}


def test_cli_surface_is_pinned():
    """Every subcommand keeps its help and, in order, each flag's dest,
    default, required, choices, type and help."""
    sub = next(a for a in cli_mod.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert {c.dest: c.help for c in sub._choices_actions} == {
        name: help for name, (help, _) in CLI_SURFACE.items()}
    assert list(sub.choices) == list(CLI_SURFACE)
    for name, parser in sub.choices.items():
        flags = [(a.dest, a.default, a.required, a.choices, getattr(a.type, "__name__", None),
                  a.help) for a in parser._actions if a.dest != "help"]
        assert flags == _COMMON + CLI_SURFACE[name][1], name


def test_unknown_command_exits_2(capsys):
    assert run_cli(["frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_no_command_exits_2(capsys):
    assert run_cli([]) == 2


def test_unknown_flag_exits_2(capsys):
    assert run_cli(["eval", "--metric", "ndcg", "--rel", "2,2", "--bogus"]) == 2


def test_synth_deterministic_digest(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["synth", "--seed", "7", "--n", "6", "--out", str(out1)]) == 0
    assert run_cli(["synth", "--seed", "7", "--n", "6", "--out", str(out2)]) == 0
    d1 = json.loads((out1 / "synth.json").read_text())
    d2 = json.loads((out2 / "synth.json").read_text())
    assert d1["result"]["digest"] == d2["result"]["digest"]
    assert d1["version"].startswith("graftkit-")
    assert d1["config"]["seed"] == 7
    # defaults dumped for discoverability on specless runs
    assert (out1 / "spec.json").exists()


def test_synth_with_spec_file(tmp_path):
    spec_path = tmp_path / "s.json"
    spec_path.write_text(json.dumps(asdict(CorpusSpec(n_studies=4))))
    assert run_cli(["synth", "--seed", "1", "--spec", str(spec_path),
                    "--out", str(tmp_path / "o")]) == 0
    doc = json.loads((tmp_path / "o" / "synth.json").read_text())
    assert doc["result"]["n_studies"] == 4


def test_synth_spec_dump_reproduces_the_corpus(tmp_path):
    """The spec.json a specless run writes records --n, so re-running with it
    as --spec builds the same corpus."""
    assert run_cli(["synth", "--n", "4", "--out", str(tmp_path / "a")]) == 0
    assert json.loads((tmp_path / "a" / "spec.json").read_text())["n_studies"] == 4
    assert run_cli(["synth", "--spec", str(tmp_path / "a" / "spec.json"),
                    "--out", str(tmp_path / "b")]) == 0
    a, b = (json.loads((tmp_path / d / "synth.json").read_text())["result"] for d in "ab")
    assert a["digest"] == b["digest"] and b["n_studies"] == 4


def test_synth_rejects_bad_spec(tmp_path, capsys):
    """Each bad field exits 1 with the field named and no corpus written."""
    spec_path = tmp_path / "bad.json"
    for spec, field in [({"prevalence": {"effusion": 2.0}}, "prevalence"),
                        ({"n_studies": 0}, "n_studies"), ({"separable": ["bogus"]}, "separable")]:
        spec_path.write_text(json.dumps(spec))
        assert run_cli(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "o" / "corpus").exists()


def test_eval_ndcg_value(tmp_path, capsys):
    assert run_cli(["eval", "--metric", "ndcg", "--rel", "2,2,2,1,2",
                    "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "eval.json").read_text())
    assert abs(doc["result"]["value"] - 0.9269) < 1e-4
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert abs(printed["value"] - 0.9269) < 1e-4


def test_eval_precision_and_auc(tmp_path):
    assert run_cli(["eval", "--metric", "precision", "--rel", "2,2,1,0,0",
                    "--out", str(tmp_path / "p")]) == 0
    doc = json.loads((tmp_path / "p" / "eval.json").read_text())
    assert doc["result"]["value"] == {"score=2": 0.4, "score>=1": 0.6}
    assert run_cli(["eval", "--metric", "auc", "--scores", "0.8,0.4,0.6,0.2",
                    "--labels", "1,1,0,0", "--out", str(tmp_path / "a")]) == 0
    doc = json.loads((tmp_path / "a" / "eval.json").read_text())
    assert doc["result"]["value"] == 0.75


def test_eval_permutation_compares_the_scores_split_by_label(tmp_path):
    assert run_cli(["eval", "--metric", "permutation", "--scores", "0.2,0.9,0.1,0.8",
                    "--labels", "0,1,0,1", "--n", "200", "--seed", "3",
                    "--out", str(tmp_path / "p")]) == 0
    doc = json.loads((tmp_path / "p" / "eval.json").read_text())
    assert doc["result"]["value"] == permutation_test([0.2, 0.1], [0.9, 0.8], n=200, seed=3)


@pytest.mark.parametrize("metric", ["auc", "permutation"])
@pytest.mark.parametrize("labels,message", [
    ("0,1,2,1", "labels must be 0 or 1, got 2"),
    ("0,1,0", "scores and labels must be 1-d and the same length"),
], ids=["not-binary", "length-mismatch"])
def test_eval_refuses_labels_that_do_not_label_the_scores(tmp_path, capsys, metric, labels,
                                                          message):
    assert run_cli(["eval", "--metric", metric, "--scores", "0.2,0.9,0.1,0.8",
                    "--labels", labels, "--out", str(tmp_path / "p")]) == 1
    assert message in capsys.readouterr().err


def test_eval_bootstrap_deterministic(tmp_path):
    argv = ["eval", "--metric", "bootstrap-mean", "--scores", "1,2,3,4,5",
            "--n", "200", "--seed", "3"]
    assert run_cli(argv + ["--out", str(tmp_path / "x")]) == 0
    assert run_cli(argv + ["--out", str(tmp_path / "y")]) == 0
    dx = json.loads((tmp_path / "x" / "eval.json").read_text())
    dy = json.loads((tmp_path / "y" / "eval.json").read_text())
    assert dx["result"]["value"] == dy["result"]["value"]


def test_checkpoint_roundtrip_and_tamper(tmp_path):
    import numpy as np

    reg = ParamRegistry()
    reg.param("a.w", np.arange(6.0).reshape(2, 3))
    reg.param("b.w", np.ones(4), frozen=True)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(reg, ckpt, meta={"kind": "test"})
    res = checkpoint_roundtrip(ckpt)
    assert res["verified"]

    blob = ckpt.with_suffix(".ckpt.bin")
    raw = bytearray(blob.read_bytes())
    raw[0] ^= 0xFF
    blob.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="digest mismatch"):
        checkpoint_roundtrip(ckpt)


def test_eval_checkpoint_command(tmp_path):
    import numpy as np

    reg = ParamRegistry()
    reg.param("w", np.ones(3))
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(reg, ckpt)
    assert run_cli(["eval", "--metric", "checkpoint", "--ckpt", str(ckpt),
                    "--out", str(tmp_path / "o")]) == 0
    doc = json.loads((tmp_path / "o" / "eval.json").read_text())
    assert doc["result"]["value"]["verified"]


def test_eval_checkpoint_names_a_missing_manifest_field(tmp_path, capsys):
    reg = ParamRegistry()
    reg.param("w", np.ones(3))
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(reg, ckpt)
    manifest = json.loads(ckpt.read_text())
    del manifest["blob_sha256"]
    ckpt.write_text(json.dumps(manifest))
    assert run_cli(["eval", "--metric", "checkpoint", "--ckpt", str(ckpt),
                    "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {ckpt}: the manifest has no field 'blob_sha256'\n"
    assert not (tmp_path / "o" / "eval.json").exists()


ZEROSHOT = ["zeroshot", "--corpus", "C", "--clip", "M"]


@pytest.mark.parametrize("command, flag, content, message", [
    (["synth"], "--spec", {"n_studies": 2.7}, "the spec field 'n_studies' is not of type int"),
    (["synth"], "--spec", {"separable": "effusion"},
     "the spec field 'separable' is not of type list"),
    (["synth"], "--spec", {"prevalence": []}, "the spec field 'prevalence' is not of type dict"),
    (["synth"], "--spec", {"n_studies": 4, "seeds": 2}, "the spec has an unknown field 'seeds'"),
    (["synth"], "--spec", [], "the spec is not of type dict"),
    (["synth"], "--spec", '{"n_studies": 4', "Expecting"),
    (ZEROSHOT, "--prompts", [{"finding": "effusion", "positive": "left pleural effusion",
                              "negative": ["no pleural effusion"]}],
     "the prompt-set list item 0 field 'positive' is not of type list"),
    (ZEROSHOT, "--prompts", {"finding": "effusion"}, "the prompt-set list is not of type list"),
    (ZEROSHOT, "--prompts", "[{", "Expecting"),
    (["eval", "--metric", "checkpoint"], "--ckpt", '{"version": 1,', "Expecting property name"),
], ids=["spec-n-float", "spec-separable-str", "spec-prevalence-list", "spec-extra", "spec-list",
        "spec-truncated", "prompts-positive-str", "prompts-object", "prompts-truncated",
        "ckpt-truncated"])
def test_a_bad_json_input_exits_1_naming_the_file_and_field(tmp_path, capsys, command, flag,
                                                           content, message):
    path = tmp_path / "input.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    out = tmp_path / "o"
    assert run_cli([*command, flag, str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
    assert list(out.iterdir()) == []


def test_synth_spec_may_hold_the_retired_max_text_len(tmp_path):
    spec_path = tmp_path / "s.json"
    spec_path.write_text(json.dumps({"n_studies": 4, "max_text_len": 128}))
    assert run_cli(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 0
    doc = json.loads((tmp_path / "o" / "synth.json").read_text())
    assert doc["result"]["n_studies"] == 4 and "max_text_len" not in doc["config"]["spec"]


def test_eval_checkpoint_requires_ckpt(capsys, tmp_path):
    assert run_cli(["eval", "--metric", "checkpoint", "--out", str(tmp_path)]) == 2
    assert "usage" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("args, code, message", [
    (["synth", "--n", "0"], 2, "--n: must be at least 1"),
    (["synth", "--n", "-3"], 2, "--n: must be at least 1"),
    (["train-c", "--corpus", "C", "--steps", "-1"], 2, "--steps: must be at least 1"),
    (["train-b1", "--corpus", "C", "--clip", "M", "--steps", "0"], 2, "--steps"),
    (["search", "--corpus", "C", "--clip", "M", "--query", "q", "--k", "0"], 2, "--k"),
    (["search", "--corpus", "C", "--clip", "M", "--query", "q", "--stage1", "0"], 2, "--stage1"),
    (["probe", "--corpus", "C", "--clip", "M", "--repeats", "0"], 2, "--repeats"),
    (["probe", "--corpus", "C", "--clip", "M", "--sizes", "2,x"], 2, "--sizes"),
    (["probe", "--corpus", "C", "--clip", "M", "--sizes", "16,0"], 2, "--sizes"),
    (["qa", "--corpus", "C", "--clip", "M", "--b1", "B", "--b2", "B", "--bridge", "B",
      "--lm", "L", "--cases", "0"], 2, "--cases"),
    (["eval", "--metric", "bootstrap-mean", "--scores", "1,2", "--n", "0"], 2, "--n"),
    (["eval", "--metric", "ndcg"], 2, "--rel required"),
    (["eval", "--metric", "auc", "--scores", "0.1,0.9"], 2, "--labels required"),
    (["vqa", "--corpus", "{corpus}", "--clip", "M", "--b1", "B", "--b2", "B", "--bridge", "B",
      "--lm", "L", "--study", "-1", "--question", "q"], 2, "--study: must be at least 0"),
    (["vqa", "--corpus", "{corpus}", "--clip", "M", "--b1", "B", "--b2", "B", "--bridge", "B",
      "--lm", "L", "--study", "99", "--question", "q"], 1, r"studies 0\.\.3"),
])
def test_bad_counts_and_indices_rejected(tmp_path, capsys, args, code, message):
    save_corpus(generate_corpus(0, CorpusSpec(n_studies=4)), tmp_path / "corpus")
    out = tmp_path / "o"
    args = [a.format(corpus=tmp_path / "corpus") for a in args]
    assert run_cli([*args, "--out", str(out)]) == code
    assert re.search(message, capsys.readouterr().err)
    assert list(out.glob("*.json")) == []


def test_runtime_error_exits_1(tmp_path, capsys):
    assert run_cli(["train-c", "--corpus", str(tmp_path / "missing"),
                    "--out", str(tmp_path / "o")]) == 1
    assert "error" in capsys.readouterr().err.lower()


def test_env_var_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("GRAFTKIT_OUT", str(tmp_path / "envout"))
    assert run_cli(["eval", "--metric", "ndcg", "--rel", "2,2,2,2,2"]) == 0
    assert (tmp_path / "envout" / "eval.json").exists()


def test_console_entry_point():
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-m", "graftkit.cli", "frobnicate"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2


def test_tiny_train_c_via_cli(tmp_path):
    corpus = generate_corpus(3, CorpusSpec(n_studies=6))
    save_corpus(corpus, tmp_path / "corpus")
    assert run_cli(["train-c", "--corpus", str(tmp_path / "corpus"), "--steps", "2",
                    "--seed", "1", "--out", str(tmp_path / "o")]) == 0
    doc = json.loads((tmp_path / "o" / "train_c.json").read_text())
    assert Path(doc["result"]["checkpoint"]).exists()
    res = checkpoint_roundtrip(doc["result"]["checkpoint"])
    assert res["verified"]


@pytest.mark.parametrize("perplexity_ok", [False, True])
def test_train_b2_stops_when_lm_misses_perplexity_gate(tmp_path, monkeypatch, capsys,
                                                       perplexity_ok):
    corpus = generate_corpus(3, CorpusSpec(n_studies=36))  # phase 2 holds out 32
    save_corpus(corpus, tmp_path / "corpus")
    vocab = corpus.vocab
    tiny_clip(vocab).save(tmp_path / "clip.ckpt")
    tiny_qformer(vocab).save(tmp_path / "b1.ckpt")
    ppl = 2.5 if perplexity_ok else 4.25

    def fake_pretrain(corpus, seed=0, train_cfg=None, log=None):
        lm = tiny_lm(vocab)
        return lm.reg, lm, {"holdout_perplexity": ppl, "perplexity_ok": perplexity_ok}

    monkeypatch.setattr("graftkit.cli.pretrain_frozen_lm", fake_pretrain)
    out = tmp_path / "o"
    code = run_cli(["train-b2", "--corpus", str(tmp_path / "corpus"),
                    "--clip", str(tmp_path / "clip.ckpt"), "--b1", str(tmp_path / "b1.ckpt"),
                    "--steps", "1", "--out", str(out)])
    written = {"lm.ckpt", "b2_qformer.ckpt", "b2_bridge.ckpt", "train_b2.json"}
    if perplexity_ok:
        assert code == 0
        assert written <= {p.name for p in out.iterdir()}
    else:
        assert code == 1
        err = capsys.readouterr().err
        assert "perplexity 4.250" in err and "target 3.0" in err
        assert not written & {p.name for p in out.iterdir()}


@pytest.mark.parametrize("command, n_studies, held_out", [("train-b1", 40, 64),
                                                        ("train-b2", 30, 32),
                                                        ("train-b1", 65, 64)])
def test_training_without_a_training_study_exits_1_before_loading(tmp_path, monkeypatch, capsys,
                                                                  command, n_studies, held_out):
    """Each phase holds out the corpus's last studies; when that leaves none
    to train on, or for phase 1 one (its ITM pairs each image with another
    study's text), the command stops before it loads a checkpoint or
    pretrains an LM, and writes nothing."""
    corpus = generate_corpus(3, CorpusSpec(n_studies=n_studies))
    save_corpus(corpus, tmp_path / "corpus")
    tiny_clip(corpus.vocab).save(tmp_path / "clip.ckpt")
    tiny_qformer(corpus.vocab).save(tmp_path / "b1.ckpt")
    calls = []
    load = cli_mod._load
    monkeypatch.setattr(cli_mod, "_load", lambda flag, *a: (calls.append(flag), load(flag, *a))[1])

    def fake_pretrain(corpus, seed=0, train_cfg=None, log=None):
        calls.append("pretrain")
        lm = tiny_lm(corpus.vocab)
        return lm.reg, lm, {"holdout_perplexity": 2.5, "perplexity_ok": True}

    monkeypatch.setattr(cli_mod, "pretrain_frozen_lm", fake_pretrain)
    out = tmp_path / "o"
    args = [command, "--corpus", str(tmp_path / "corpus"), "--clip", str(tmp_path / "clip.ckpt"),
            "--steps", "1", "--out", str(out)]
    if command == "train-b2":
        args += ["--b1", str(tmp_path / "b1.ckpt")]
    assert run_cli(args) == 1
    left = n_studies - held_out
    if left < 1:
        error = (f"error: holding out {held_out} studies for evaluation leaves no training study "
                 f"in a corpus of {n_studies}")
    else:
        error = ("error: phase 1 needs at least 2 training studies, as ITM pairs each image with "
                 f"another study's text; holding out {held_out} of a corpus of {n_studies} "
                 f"leaves {left} for training")
    assert error in capsys.readouterr().err
    assert calls == []
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["zeroshot", "probe", "search"])
def test_variant_b_without_b1_is_a_usage_error_before_loading(tmp_path, capsys, command):
    args = [command, "--corpus", str(tmp_path / "missing"), "--clip", str(tmp_path / "missing"),
            "--variant", "B", "--out", str(tmp_path / "o")]
    if command == "search":
        args += ["--query", "left pleural effusion"]
    assert run_cli(args) == 2
    assert "usage error: variant B requires --b1" in capsys.readouterr().err


@pytest.mark.parametrize("variant", ["C", "B"])
def test_search_with_a_wordless_query_is_a_usage_error_before_loading(tmp_path, capsys, variant):
    save_corpus(generate_corpus(0, CorpusSpec(n_studies=4)), tmp_path / "corpus")
    assert run_cli(["search", "--corpus", str(tmp_path / "corpus"),
                    "--clip", str(tmp_path / "missing"), "--b1", str(tmp_path / "missing"),
                    "--variant", variant, "--query", "", "--out", str(tmp_path / "o")]) == 2
    assert "usage error: --query '' has no words" in capsys.readouterr().err
    assert list((tmp_path / "o").glob("*.json")) == []


@pytest.mark.parametrize("command, known", [
    ("zeroshot", sorted(DEFAULT_PROMPT_SETS)),  # the prompt sets' findings
    ("probe", sorted(T.LABEL_KINDS)),           # the corpus label keys
])
def test_unknown_finding_is_a_usage_error_before_loading(tmp_path, capsys, command, known):
    save_corpus(generate_corpus(0, CorpusSpec(n_studies=4)), tmp_path / "corpus")
    assert run_cli([command, "--corpus", str(tmp_path / "corpus"),
                    "--clip", str(tmp_path / "missing"), "--finding", "bogus",
                    "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"usage error: unknown --finding 'bogus'; known findings: {', '.join(known)}" in err
    assert list((tmp_path / "o").glob("*.json")) == []


def test_probe_with_an_empty_finding_is_a_usage_error_before_loading(tmp_path, capsys):
    save_corpus(generate_corpus(0, CorpusSpec(n_studies=4)), tmp_path / "corpus")
    assert run_cli(["probe", "--corpus", str(tmp_path / "corpus"),
                    "--clip", str(tmp_path / "missing"), "--finding", "",
                    "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"usage error: unknown --finding ''; known findings: {', '.join(sorted(T.LABEL_KINDS))}" in err


@pytest.mark.parametrize("finding", ["", "atelectasis"])
def test_zeroshot_prompt_sets_without_a_corpus_label_are_a_usage_error(tmp_path, capsys, finding):
    """A prompt file's finding the corpus does not label is refused before any
    checkpoint loads, whether it is picked by --finding or scored by default
    (an empty --finding: every prompt set)."""
    save_corpus(generate_corpus(0, CorpusSpec(n_studies=4)), tmp_path / "corpus")
    sets = [{"finding": f, "positive": [f"{f} present"], "negative": ["no acute process"]}
            for f in ("effusion", "atelectasis")]
    (tmp_path / "prompts.json").write_text(json.dumps(sets))
    assert run_cli(["zeroshot", "--corpus", str(tmp_path / "corpus"),
                    "--clip", str(tmp_path / "missing"), "--prompts", str(tmp_path / "prompts.json"),
                    "--finding", finding, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert (f"usage error: no corpus label for the prompt sets of atelectasis; corpus label keys: "
            f"{', '.join(sorted(T.LABEL_KINDS))}") in err
    assert list((tmp_path / "o").glob("*.json")) == []


def test_zeroshot_c_encodes_the_images_once(tmp_path, monkeypatch):
    corpus = generate_corpus(3, CorpusSpec(n_studies=12))
    save_corpus(corpus, tmp_path / "corpus")
    tiny_clip(corpus.vocab).save(tmp_path / "clip.ckpt")
    rows = tmp_path / "rows"  # one line per encoder pass, from either process
    original = ImageEncoder.forward

    def counting(self, images):
        with open(rows, "a") as f:
            f.write(f"{len(images)}\n")
        return original(self, images)

    monkeypatch.setattr(ImageEncoder, "forward", counting)
    stale = partworker._workers.pop("clip", None)
    if stale is not None:
        stale.close()  # the next worker is forked counting too
    try:
        assert run_cli(["zeroshot", "--corpus", str(tmp_path / "corpus"),
                        "--clip", str(tmp_path / "clip.ckpt"), "--out", str(tmp_path / "o")]) == 0
    finally:
        worker = partworker._workers.pop("clip", None)
        if worker is not None:
            worker.close()
    doc = json.loads((tmp_path / "o" / "zeroshot.json").read_text())
    assert sorted(doc["result"]) == sorted(DEFAULT_PROMPT_SETS) and len(doc["result"]) == 7
    halves = [6, 6] if partworker.cores() >= 2 else [12]  # one pass per half
    assert sorted(int(n) for n in rows.read_text().split()) == halves


def test_cli_chain_end_to_end(tmp_path):
    """synth -> train-c -> train-b1 -> train-b2 (on a saved frozen LM) ->
    zeroshot / probe / search on the adapter -> vqa -> qa -> eval; each step
    exits 0 and writes its result file, named after the command."""
    out = tmp_path / "o"
    save_lm(tiny_lm(build_vocab(), max_len=1400), tmp_path / "lm.ckpt")
    corpus, clip = ["--corpus", str(out / "corpus")], ["--clip", str(out / "elixr_c.ckpt")]
    b1 = ["--b1", str(out / "b1_scoring.ckpt"), "--variant", "B"]
    bundle = [*corpus, *clip, "--b1", str(out / "b1_itg.ckpt"),
              "--b2", str(out / "b2_qformer.ckpt"), "--bridge", str(out / "b2_bridge.ckpt"),
              "--lm", str(tmp_path / "lm.ckpt")]
    steps = [
        ["synth", "--n", "100"],
        ["train-c", *corpus, "--steps", "2"],
        ["train-b1", *corpus, *clip, "--steps", "2"],
        ["train-b2", *corpus, *clip, "--b1", str(out / "b1_itg.ckpt"),
         "--lm", str(tmp_path / "lm.ckpt"), "--steps", "1"],
        ["zeroshot", *corpus, *clip, *b1],
        ["probe", *corpus, *clip, *b1, "--sizes", "16", "--repeats", "1"],
        ["search", *corpus, *clip, *b1, "--query", "left pleural effusion"],
        ["vqa", *bundle, "--study", "0", "--question", "Is a pneumothorax present?"],
        ["qa", *bundle, "--cases", "1"],
        ["eval", "--metric", "checkpoint", "--ckpt", str(out / "elixr_c.ckpt")],
    ]
    assert [args[0] for args in steps] == list(CLI_SURFACE)
    for args in steps:
        assert run_cli([*args, "--out", str(out)]) == 0, args[0]
        result = out / f"{args[0].replace('-', '_')}.json"
        assert json.loads(result.read_text())["result"], args[0]


def _vqa_checkpoints(tmp_path, lm_seed=0, n_studies=4, lm_max_len=448, aligned=None):
    """A saved corpus, CLIP, phase-1 Q-Former and phase-2 pair trained (by
    manifest) against ``tiny_lm``, and an LM made from ``lm_seed``; returns
    the ``graftkit vqa`` arguments.  ``aligned`` changes the config of the
    phase-2 Q-Former."""
    corpus = generate_corpus(3, CorpusSpec(n_studies=n_studies))
    save_corpus(corpus, tmp_path / "corpus")
    vocab = corpus.vocab
    tiny_clip(vocab).save(tmp_path / "clip.ckpt")
    qf = tiny_qformer(vocab)
    qf.save(tmp_path / "b1.ckpt")
    bridge_reg = ParamRegistry()
    bridge = Phase2Bridge(bridge_reg, 16, 16, 16, np.random.default_rng(1))
    qf_aligned = QFormerModel(replace(qf.cfg, **aligned), seed=0) if aligned else qf
    save_phase2(qf_aligned, bridge, bridge_reg, tmp_path / "b2.ckpt", tmp_path / "bridge.ckpt",
                lm_digest=tiny_lm(vocab).digest())
    lm = tiny_lm(vocab, lm_max_len)
    if lm_seed:
        lm = DecoderLM(ParamRegistry(), lm.cfg, np.random.default_rng(lm_seed))
        lm.freeze()
    save_lm(lm, tmp_path / "lm.ckpt")
    return ["vqa", "--corpus", str(tmp_path / "corpus"), "--clip", str(tmp_path / "clip.ckpt"),
            "--b1", str(tmp_path / "b1.ckpt"), "--b2", str(tmp_path / "b2.ckpt"),
            "--bridge", str(tmp_path / "bridge.ckpt"), "--lm", str(tmp_path / "lm.ckpt"),
            "--study", "1", "--question", "Is a pneumothorax present?",
            "--out", str(tmp_path / "o")]


def test_vqa_decodes_the_impression_once(tmp_path, monkeypatch):
    args = _vqa_checkpoints(tmp_path)
    impressions = []
    original = vqa_mod.generate_impression

    def counting(*a, **k):
        impressions.append(original(*a, **k))
        return impressions[-1]

    monkeypatch.setattr(vqa_mod, "generate_impression", counting)
    assert run_cli(args) == 0
    doc = json.loads((tmp_path / "o" / "vqa.json").read_text())
    assert len(impressions) == 1 and doc["result"]["impression"] == impressions[0]


def test_vqa_rejects_a_phase2_pair_trained_against_another_lm(tmp_path, capsys):
    args = _vqa_checkpoints(tmp_path, lm_seed=5)
    want = tiny_lm(build_vocab()).digest()
    assert run_cli(args) == 1
    err = capsys.readouterr().err
    assert f"--b2 checkpoint was trained against LM digest {want}, but --lm has digest" in err
    assert not (tmp_path / "o" / "vqa.json").exists()


@pytest.mark.parametrize("command", ["vqa", "qa"])
@pytest.mark.parametrize("aligned, message", [
    ({"pooled_hw": 1}, "the impression adapter pools grids to 2x2, the aligned adapter to 1x1"),
    ({"grid_dim": 8}, "qformer grid_dim must match the image encoder dim")],
    ids=["pooled_hw", "grid_dim"])
def test_text_tasks_refuse_an_aligned_adapter_that_does_not_fit_the_grids(tmp_path, capsys,
                                                                          command, aligned,
                                                                          message):
    # qa builds its 48 cases, which 4 studies do not hold, before reading checkpoints
    args = _vqa_checkpoints(tmp_path, n_studies=60 if command == "qa" else 4, aligned=aligned)
    if command == "qa":
        args = ["qa", *args[1:-6], "--out", str(tmp_path / "o")]
    assert run_cli(args) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert list((tmp_path / "o").glob("*.json")) == []


def test_qa_over_several_cases_writes_the_rows_of_one_case_runs(tmp_path, monkeypatch):
    """Cases that share a bundle (and so the reviewer's last prompt state)
    give the rows that each case gives alone."""
    # the checkpoint flags only; the LM has room for the reviewer prompt after
    # 12 answers of up to 64 tokens
    args = _vqa_checkpoints(tmp_path, n_studies=60, lm_max_len=1400)[1:-6]
    out = tmp_path / "o"
    assert run_cli(["qa", *args, "--cases", "3", "--out", str(out)]) == 0
    rows = json.loads((out / "qa.json").read_text())["result"]["cases"]
    cases = build_qa_cases(load_corpus(tmp_path / "corpus"), seed=0)[:3]
    assert [(r["study_id"], r["alteration"]) for r in rows] == [
        (c.study_id, c.alteration) for c in cases]
    for case, row in zip(cases, rows):
        monkeypatch.setattr(cli_mod, "build_qa_cases", lambda corpus, seed: [case])
        assert run_cli(["qa", *args, "--out", str(tmp_path / "one")]) == 0
        assert json.loads((tmp_path / "one" / "qa.json").read_text())["result"]["cases"] == [row]


@pytest.mark.parametrize("sizes, size", [("1", 1), ("7", 7), ("2,7", 7)])
def test_probe_sizes_outside_the_training_split_are_refused_before_loading(tmp_path, capsys,
                                                                           sizes, size):
    save_corpus(generate_corpus(0, CorpusSpec(n_studies=8)), tmp_path / "corpus")
    out = tmp_path / "o"
    assert run_cli(["probe", "--corpus", str(tmp_path / "corpus"),
                    "--clip", str(tmp_path / "missing.ckpt"), "--sizes", sizes,
                    "--out", str(out)]) == 2
    assert (f"--sizes {size} is outside 2..6, the training split of the corpus's 8 studies"
            in capsys.readouterr().err)
    assert list(out.glob("*.json")) == []


@pytest.mark.parametrize("positives, missing, split", [
    ((), "positive", "training"),       # the test split lacks one too: training is named first
    ((0,), "positive", "test"),         # studies 0-5 train, 6-7 test
    ((0, 6, 7), "negative", "test"),
])
def test_probe_on_a_split_of_one_class_is_a_usage_error_before_loading(tmp_path, capsys,
                                                                       positives, missing, split):
    corpus = generate_corpus(0, CorpusSpec(n_studies=8))
    for i, study in enumerate(corpus.studies):
        study.labels["effusion"] = int(i in positives)
    save_corpus(corpus, tmp_path / "corpus")
    out = tmp_path / "o"
    assert run_cli(["probe", "--corpus", str(tmp_path / "corpus"),
                    "--clip", str(tmp_path / "missing.ckpt"), "--finding", "effusion",
                    "--sizes", "2", "--out", str(out)]) == 2
    assert (f"--finding effusion has no {missing} study in the {split} split of the corpus's 8 "
            "studies" in capsys.readouterr().err)
    assert list(out.glob("*.json")) == []


def _qa_without_checkpoints(tmp_path, n_studies):
    """``graftkit qa`` arguments on a saved corpus, every checkpoint missing."""
    save_corpus(generate_corpus(3, CorpusSpec(n_studies=n_studies)), tmp_path / "corpus")
    missing = str(tmp_path / "missing.ckpt")
    return ["qa", "--corpus", str(tmp_path / "corpus"),
            *(x for flag in ("--clip", "--b1", "--b2", "--bridge", "--lm")
              for x in (flag, missing)),
            "--out", str(tmp_path / "o")]


def test_qa_cases_beyond_the_mix_are_a_usage_error(tmp_path, capsys):
    assert run_cli([*_qa_without_checkpoints(tmp_path, 60), "--cases", "49"]) == 2
    assert "--cases 49 is more than the 48 cases of the QA mix" in capsys.readouterr().err
    assert list((tmp_path / "o").glob("*.json")) == []


def test_qa_builds_its_cases_before_reading_a_checkpoint(tmp_path, capsys):
    assert run_cli(_qa_without_checkpoints(tmp_path, 4)) == 1
    assert "not enough eligible studies" in capsys.readouterr().err


def _save_other_vocab(flag, path, size=20):
    """A tiny checkpoint of ``--flag``'s kind with a ``size``-token vocabulary."""
    if flag == "clip":
        tiny_clip(range(size)).save(path)
    elif flag == "lm":
        lm = DecoderLM(ParamRegistry(), LmConfig(vocab_size=size, dim=16, blocks=1, heads=2,
                                                 max_len=448, pad_id=0, eos_id=1, img_id=2),
                       np.random.default_rng(0))
        lm.freeze()
        save_lm(lm, path)
    else:
        tiny_qformer(range(size)).save(path)


def _refused_before_any_image(args, flag, tmp_path, monkeypatch, capsys):
    encoded = []
    monkeypatch.setattr(ImageEncoder, "patch_grid", lambda self, images: encoded.append(images))
    out = tmp_path / "o"
    assert run_cli([*args, "--out", str(out)]) == 1
    n_vocab = len(load_corpus(tmp_path / "corpus").vocab)
    assert (f"error: --{flag} checkpoint has a vocabulary of 20 tokens, but the corpus has "
            f"{n_vocab}") in capsys.readouterr().err
    assert encoded == []
    assert list(out.glob("*.json")) == []


@pytest.mark.parametrize("command", ["zeroshot", "probe", "search"])
@pytest.mark.parametrize("flag", ["clip", "b1"])
def test_image_tasks_refuse_a_checkpoint_of_another_vocabulary(tmp_path, monkeypatch, capsys,
                                                               command, flag):
    corpus = generate_corpus(3, CorpusSpec(n_studies=8))
    save_corpus(corpus, tmp_path / "corpus")
    tiny_clip(corpus.vocab).save(tmp_path / "clip.ckpt")
    tiny_qformer(corpus.vocab).save(tmp_path / "b1.ckpt")
    _save_other_vocab(flag, tmp_path / f"{flag}.ckpt")
    args = [command, "--corpus", str(tmp_path / "corpus"), "--clip", str(tmp_path / "clip.ckpt"),
            "--b1", str(tmp_path / "b1.ckpt"), "--variant", "B"]
    if command == "search":
        args += ["--query", "left pleural effusion"]
    if command == "probe":  # the default sizes do not fit 8 studies, none of them has effusion
        args += ["--sizes", "2", "--finding", "pneumothorax"]
    _refused_before_any_image(args, flag, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("command", ["vqa", "qa"])
@pytest.mark.parametrize("flag", ["clip", "b1", "b2", "lm"])
def test_text_tasks_refuse_a_checkpoint_of_another_vocabulary(tmp_path, monkeypatch, capsys,
                                                              command, flag):
    # qa builds its 48 cases, which 4 studies do not hold, before reading checkpoints
    args = _vqa_checkpoints(tmp_path, n_studies=60 if command == "qa" else 4)[:-2]
    if command == "qa":
        args = ["qa", *args[1:-4]]
    _save_other_vocab(flag, Path(args[args.index(f"--{flag}") + 1]))
    _refused_before_any_image(args, flag, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("command, flag", [
    ("train-b1", "clip"), ("train-b2", "clip"), ("train-b2", "b1"), ("train-b2", "lm")])
def test_training_refuses_a_checkpoint_of_another_vocabulary(tmp_path, monkeypatch, capsys,
                                                             command, flag):
    corpus = generate_corpus(3, CorpusSpec(n_studies=72))  # train-b1 holds out 64
    save_corpus(corpus, tmp_path / "corpus")
    tiny_clip(corpus.vocab).save(tmp_path / "clip.ckpt")
    tiny_qformer(corpus.vocab).save(tmp_path / "b1.ckpt")
    save_lm(tiny_lm(corpus.vocab), tmp_path / "lm.ckpt")
    _save_other_vocab(flag, tmp_path / f"{flag}.ckpt")
    args = [command, "--corpus", str(tmp_path / "corpus"), "--clip", str(tmp_path / "clip.ckpt"),
            "--steps", "1"]
    if command == "train-b2":
        args += ["--b1", str(tmp_path / "b1.ckpt"), "--lm", str(tmp_path / "lm.ckpt")]
    _refused_before_any_image(args, flag, tmp_path, monkeypatch, capsys)
