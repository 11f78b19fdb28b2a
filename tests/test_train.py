"""The training stages' shared loop (``train.run``): each stage's parameters,
history and selections pinned bit for bit after 3 steps at a fixed seed, and
the loop's finite-loss check, frozen contracts, evals and log."""

import hashlib
import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from graftkit import nn, partworker, probe, qformer, train
from graftkit.clip_stage import ClipConfig, ClipModel, train_elixr_c
from graftkit.corpus import CorpusSpec, generate_corpus
from graftkit.nn import DecoderLM, ImageEncoderConfig, LmConfig, LmTrainConfig, pretrain_lm
from graftkit.optim import SgdMomentum
from graftkit.params import ParamRegistry
from graftkit.qformer import (Phase1Config, Phase2Config, QFormerConfig, QFormerModel,
                              phase1_train, phase2_train)


def fingerprint(value) -> str:
    """A digest of a JSON value; floats print as their shortest round-trip
    form, so two values share it only when every bit does."""
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


CLIP_CFG = ClipConfig(steps=3, batch_size=4,
                      image=ImageEncoderConfig(patch=32, dim=16, blocks=1, heads=2),
                      text_dim=16, text_blocks=1, text_heads=2, proj_dim=8)
QF_CFG = QFormerConfig(n_queries=3, dim=16, blocks=1, heads=2, proj_dim=8, grid_dim=16,
                       text_max_len=32)


def corpus():
    return generate_corpus(3, CorpusSpec(n_studies=12))


def clip_of(c):
    return ClipModel(len(c.vocab), CLIP_CFG, seed=0)


def lm_of(vocab_size):
    return DecoderLM(ParamRegistry(), LmConfig(vocab_size=vocab_size, dim=16, blocks=1, heads=2,
                                               max_len=64), np.random.default_rng(9))


def run_clip():
    model, history = train_elixr_c(corpus(), CLIP_CFG, seed=4)
    return model.registry.combined_digest()[:16], fingerprint(history)


def run_lm():
    rng = np.random.default_rng(1)
    data = []
    for _ in range(12):
        length = int(rng.integers(4, 30))
        data.append(([int(t) for t in rng.integers(1, 29, length)],
                     int(rng.integers(0, length - 1))))
    lm = lm_of(30)
    stats = pretrain_lm(lm, data, LmTrainConfig(steps=3, lr=1e-3), seed=3, holdout=data[:4])
    del stats["parts"]  # which process computed each part: not a training output
    return lm.digest()[:16], fingerprint(stats)


def run_phase1():
    c = corpus()
    cfg = Phase1Config(steps=3, eval_every=1, qformer=QF_CFG)
    models, history, meta = phase1_train(c, clip_of(c), cfg, seed=5, eval_ids=[8, 9, 10, 11])
    return ({k: m.registry.combined_digest()[:16] for k, m in models.items()},
            fingerprint(history), fingerprint(meta))


def run_phase2():
    c = corpus()
    lm = lm_of(len(c.vocab))
    lm.freeze()
    itg = QFormerModel(replace(QF_CFG, vocab_size=len(c.vocab)), seed=0)
    model, _, bridge_reg, history, eval_stats = phase2_train(
        c, clip_of(c), itg, lm, Phase2Config(steps=3), seed=1, eval_ids=[10, 11])
    return (model.registry.combined_digest()[:16], bridge_reg.combined_digest()[:16],
            fingerprint(history), fingerprint(eval_stats))


def run_probe(monkeypatch):
    monkeypatch.setattr(probe, "EPOCHS", 3)  # 40 rows are one batch: 3 steps
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, 40)
    feats = rng.normal(0, 1, (40, 6))
    feats[:, 0] += labels
    return probe.train_probe(feats, labels, seed=2).registry.combined_digest()[:16]


# (parameter digests, fingerprints of the history and the other returns);
# phase 1 evaluates every step and selects its scoring checkpoint at step 1
PINS = {
    "clip": ("6666d151804117b8", "558fdbbc9736411d"),
    "lm": ("77f513249b6b74db", "a0937e21c8edff79"),
    "phase1": ({"final": "91b6e1f1bc0f4cbe", "scoring": "67b3fb5c1d879403",
                "itg": "91b6e1f1bc0f4cbe"}, "be6362d68ee9c03b", "695ee8847be524e6"),
    "phase2": ("b46aa938fd8c3fd8", "6be4305397fcb54e", "f8730639f6608023", "e9feae1889052045"),
    "probe": "371409cce7737a41",
}


@pytest.mark.parametrize("stage", sorted(PINS))
def test_each_stage_after_three_steps_is_pinned_bitwise(stage, monkeypatch):
    runs = {"clip": run_clip, "lm": run_lm, "phase1": run_phase1, "phase2": run_phase2,
            "probe": lambda: run_probe(monkeypatch)}
    assert runs[stage]() == PINS[stage]


# ---------------------------------------------------------------------------
# the loop's checks, evals and log


def toy():
    """(registry, optimizer) of one trainable vector, and a second registry
    standing for a frozen model."""
    reg = ParamRegistry()
    reg.param("w", np.ones(3))
    other = ParamRegistry()
    other.param("v", np.zeros(2))
    return reg, SgdMomentum(list(reg), lr=0.5), other


def test_a_non_finite_loss_term_stops_the_stage_before_it_writes_a_parameter():
    reg, opt, _ = toy()
    losses = iter([1.0, np.inf])

    def step(batch):
        return {"itc": 0.5, "itm": next(losses)}, {"w": np.full(3, batch)}

    with pytest.raises(FloatingPointError,
                       match=r"toy step 1: non-finite loss terms \{'itc': 0.5, 'itm': inf\}"):
        train.run("toy", opt, itertools.count(), step, 3, None)
    assert reg.versions() == (1,)  # step 0's write, not step 1's


def _nan_phase1(monkeypatch):
    run_parts = partworker.run_parts

    def nan_itg(kind, *args):
        losses, grads, split = run_parts(kind, *args)
        return ([losses[0], np.nan, losses[2]] if kind is qformer._PHASE1_PARTS else losses,
                grads, split)

    monkeypatch.setattr(partworker, "run_parts", nan_itg)
    c = corpus()
    phase1_train(c, clip_of(c), Phase1Config(steps=2, eval_every=1, qformer=QF_CFG),
                 eval_ids=[10, 11])


def _nan_phase2(monkeypatch):
    monkeypatch.setattr(qformer, "phase2_step",
                        lambda *a: (dict.fromkeys(["bridge.fc1.b"], 0.0), np.nan))
    c = corpus()
    lm = lm_of(len(c.vocab))
    lm.freeze()
    itg = QFormerModel(replace(QF_CFG, vocab_size=len(c.vocab)), seed=0)
    phase2_train(c, clip_of(c), itg, lm, Phase2Config(steps=2), eval_ids=[10, 11])


@pytest.mark.parametrize("stage, fail, match", [
    ("phase1", _nan_phase1, "phase1 step 0: non-finite loss terms .*itg.: nan"),
    ("phase2", _nan_phase2, "phase2 step 0: non-finite loss terms .*lm_loss.: nan"),
])
def test_every_stage_refuses_a_non_finite_loss_term(monkeypatch, stage, fail, match):
    with pytest.raises(FloatingPointError, match=match):
        fail(monkeypatch)


def test_the_lm_refuses_a_non_finite_loss_before_it_writes_a_parameter(monkeypatch):
    batch_grads = nn._batch_grads
    monkeypatch.setattr(nn, "_batch_grads",
                        lambda *a: (np.nan, *batch_grads(*a)[1:]))
    lm = lm_of(30)
    versions = lm.versions()
    with pytest.raises(FloatingPointError, match="lm step 0: non-finite loss terms .*loss.: nan"):
        pretrain_lm(lm, [([1, 2, 3, 4], 0)] * 4, LmTrainConfig(steps=2))
    assert lm.versions() == versions


def test_a_frozen_digest_that_moves_names_what_changed_and_the_stage():
    _, opt, other = toy()

    def step(_):
        if opt.t == 1:  # a leak into the frozen model, at the second step
            other["v"].write(np.ones(2))
        return {"loss": 1.0}, {"w": np.ones(3)}

    frozen = [("the towers", lambda: "same"), ("the other model", other.combined_digest)]
    with pytest.raises(RuntimeError, match="the other model changed during toy"):
        train.run("toy", opt, itertools.count(), step, 3, None, frozen=frozen)


def test_phase1_checks_the_stage_1_towers(monkeypatch):
    c = corpus()
    clip = clip_of(c)
    run_parts = partworker.run_parts

    def leaky(kind, *args):
        clip.registry["img_proj.b"].write(1.0, np.add)  # at every call: grids and steps
        return run_parts(kind, *args)

    monkeypatch.setattr(partworker, "run_parts", leaky)
    with pytest.raises(RuntimeError, match="stage-1 towers changed during phase1"):
        phase1_train(c, clip, Phase1Config(steps=1, eval_every=1, qformer=QF_CFG),
                     eval_ids=[10, 11])


def test_the_log_has_every_200th_step_each_eval_and_the_last_and_selection_is_earliest():
    reg, opt, _ = toy()
    lines = []
    keys = iter([3.0, 1.0, 2.0, 1.0, 4.0])  # the eval after step 199 is selected, not 399's tie
    history, selected = train.run(
        "toy", opt, itertools.count(), lambda i: ({"loss": float(i)}, {"w": np.ones(3)}), 450,
        lines.append, evaluate=lambda: {"key": next(keys)}, eval_every=100,
        select={"best": lambda m: m["key"]})
    assert [int(line.split()[2]) for line in lines] == [0, 99, 199, 200, 299, 399, 400, 449]
    assert lines[1] == "toy step 99 loss 99.0000 eval key 3.0000"
    assert history[7] == {"step": 7, "loss": 7.0}
    (metrics, values), = selected.values()
    assert metrics == {"key": 1.0, "step": 199}
    assert values["w"].tolist() == [1 - 0.5 * 200] * 3  # momentum 0: 200 steps of 0.5
