"""Zero-shot prompt sets are encoded once per parameter state of the model:
a later call reuses the encoding until a parameter is written, and a score
after any write is the score of a fresh model holding the same values."""

from collections import Counter

import numpy as np
import pytest

from graftkit.clip_stage import (DEFAULT_PROMPT_SETS, ClipConfig, ClipModel, zero_shot_score_c,
                                 zero_shot_scores_c)
from graftkit.corpus import MAX_TEXT_LEN, CorpusSpec, generate_corpus, tokenize
from graftkit.nn import ImageEncoderConfig, TextEncoder
from graftkit.optim import Adam, Lars, SgdMomentum
from graftkit.qformer import QFormerConfig, QFormerModel, zero_shot_score_b, zero_shot_scores_b

OPTIMIZERS = {"sgd": lambda ps: SgdMomentum(ps, lr=0.05, momentum=0.9),
              "adam": lambda ps: Adam(ps, lr=0.01),
              "lars": lambda ps: Lars(ps, lr=10.0)}
PS, OTHER_PS = DEFAULT_PROMPT_SETS["effusion"], DEFAULT_PROMPT_SETS["cardiomegaly"]


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(7, CorpusSpec(n_studies=16))


def make_clip(corpus, seed=0):
    cfg = ClipConfig(image=ImageEncoderConfig(patch=32, dim=16, blocks=1, heads=2),
                     text_dim=16, text_blocks=1, text_heads=2, proj_dim=8)
    return ClipModel(len(corpus.vocab), cfg, seed=seed)


def make_qformer(corpus, seed=0):
    return QFormerModel(QFormerConfig(n_queries=3, dim=16, blocks=1, heads=2, proj_dim=8,
                                      grid_dim=16, text_max_len=32,
                                      vocab_size=len(corpus.vocab)), seed=seed)


def unit_rows(shape, seed):
    x = np.random.default_rng(seed).normal(0, 1, shape)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


# (model factory, batched scorer, fixed image-side input)
KINDS = {"c": (make_clip, zero_shot_scores_c, unit_rows((6, 8), 1)),
         "b": (make_qformer, zero_shot_scores_b, unit_rows((6, 3, 8), 2))}


def fresh_copy(kind, corpus, model):
    fresh = KINDS[kind][0](corpus, seed=9)
    fresh.registry.load_values(model.registry.snapshot())
    return fresh


def random_step(model, make_opt, seed):
    rng = np.random.default_rng(seed)
    make_opt(list(model.registry)).step(
        {p.name: rng.normal(0, 1, p.data.shape) for p in model.registry})


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("opt", OPTIMIZERS)
def test_a_score_after_an_optimizer_step_is_a_fresh_models(corpus, kind, opt):
    make, scores, image_side = KINDS[kind]
    model = make(corpus)
    before = scores(image_side, PS, model, corpus.vocab)
    random_step(model, OPTIMIZERS[opt], seed=4)
    after = scores(image_side, PS, model, corpus.vocab)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, scores(image_side, PS, fresh_copy(kind, corpus, model),
                                        corpus.vocab))


@pytest.mark.parametrize("kind", KINDS)
def test_a_score_after_load_values_is_a_fresh_models(corpus, kind):
    make, scores, image_side = KINDS[kind]
    model, other = make(corpus), make(corpus, seed=5)
    before = scores(image_side, PS, model, corpus.vocab)
    model.registry.load_values(other.registry.snapshot())
    after = scores(image_side, PS, model, corpus.vocab)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, scores(image_side, PS, make(corpus, seed=5), corpus.vocab))


@pytest.mark.parametrize("kind", KINDS)
def test_a_memo_hit_is_the_read_only_batch_forward(corpus, kind):
    make, scores, image_side = KINDS[kind]
    model = make(corpus)
    name = "embed_texts" if kind == "c" else "text_cls_projs"
    forward, held = getattr(model, name), []

    def spy(seqs):
        held.append(forward(seqs))
        return held[-1]

    setattr(model, name, spy)
    first = scores(image_side, PS, model, corpus.vocab)
    assert np.array_equal(scores(image_side, PS, model, corpus.vocab), first)
    assert len(held) == 1 and not held[0].flags.writeable
    max_len = MAX_TEXT_LEN if kind == "c" else model.cfg.text_max_len
    seqs = [tokenize(p, corpus.vocab, max_len) for p in PS.positive + PS.negative]
    assert held[0].tobytes() == forward(seqs).tobytes()


def test_a_prompt_set_is_encoded_once_per_parameter_state(corpus, monkeypatch):
    clip, qf = make_clip(corpus), make_qformer(corpus)
    grids = np.random.default_rng(3).normal(0, 1, (16, 4, 16))
    counts = Counter()
    text_forward, qf_forward = TextEncoder.forward, QFormerModel.forward

    def counting_text(self, *args, **kwargs):
        counts["text encoder"] += 1
        return text_forward(self, *args, **kwargs)

    def counting_qformer(self, grids_in, tokens, lengths=None, mode="itc"):
        counts["text-only qformer"] += grids_in is None
        return qf_forward(self, grids_in, tokens, lengths, mode=mode)

    monkeypatch.setattr(TextEncoder, "forward", counting_text)
    monkeypatch.setattr(QFormerModel, "forward", counting_qformer)

    def score_16(ps):
        for study, grid in zip(corpus.studies, grids):
            zero_shot_score_c(study.image, ps, clip, corpus.vocab)
            zero_shot_score_b(grid, ps, qf, corpus.vocab)

    score_16(PS)
    assert counts == {"text encoder": 1, "text-only qformer": 1}
    score_16(OTHER_PS)
    score_16(PS)
    assert counts == {"text encoder": 2, "text-only qformer": 2}
    random_step(clip, OPTIMIZERS["sgd"], seed=6)
    random_step(qf, OPTIMIZERS["adam"], seed=7)
    score_16(PS)
    assert counts == {"text encoder": 3, "text-only qformer": 3}
