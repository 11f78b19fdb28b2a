import numpy as np
import pytest

import graftkit.autograd as ag
from graftkit.autograd import Tape, Tensor
from graftkit.clip_stage import (
    ClipConfig, ClipModel, DEFAULT_PROMPT_SETS, PromptSet, clip_loss, load_clip,
    load_prompt_sets, save_prompt_sets, softmax_pair, train_elixr_c, zero_shot_score_c,
)
from graftkit.corpus import CorpusSpec, TWO_FINDING_PREVALENCE, generate_corpus
from graftkit.nn import ImageEncoderConfig


def unit_rows(arr):
    arr = np.asarray(arr, dtype=float)
    return arr / np.linalg.norm(arr, axis=-1, keepdims=True)


def test_clip_loss_single_pair_is_zero():
    e = Tensor(unit_rows([[1.0, 0.0]]))
    assert float(clip_loss(e, e).data) == 0.0


def test_clip_loss_identical_embeddings_ln2():
    e = Tensor(unit_rows([[1.0, 0.0], [1.0, 0.0]]))
    assert float(clip_loss(e, e, temperature=0.07).data) == pytest.approx(np.log(2), abs=1e-12)


def test_clip_loss_permutation_invariant():
    rng = np.random.default_rng(0)
    img = Tensor(unit_rows(rng.normal(0, 1, (5, 8))))
    txt = Tensor(unit_rows(rng.normal(0, 1, (5, 8))))
    base = float(clip_loss(img, txt).data)
    perm = rng.permutation(5)
    img_p = Tensor(img.data[perm])
    txt_p = Tensor(txt.data[perm])
    assert float(clip_loss(img_p, txt_p).data) == pytest.approx(base, abs=1e-12)


def test_clip_loss_rejects_unnormalized():
    bad = Tensor(np.full((2, 4), 2.0))
    with pytest.raises(ValueError, match="unit-norm"):
        clip_loss(bad, bad)


def test_clip_loss_gradient_through_model():
    corpus = generate_corpus(1, CorpusSpec(n_studies=4))
    cfg = ClipConfig(image=ImageEncoderConfig(patch=32, dim=16, blocks=1, heads=2),
                     text_dim=16, text_blocks=1, text_heads=2, proj_dim=8)
    model = ClipModel(len(corpus.vocab), cfg, seed=0)
    images = np.stack([corpus.studies[i].image for i in range(2)])
    tokens = np.array([[1, 8, 9], [1, 10, 11]])

    def f():
        img = model.image_embeddings(images)
        txt = model.text_embeddings(tokens, [3, 3])
        return clip_loss(img, txt, cfg.temperature)

    params = [model.registry["img_proj.w"], model.registry["txt_proj.w"],
              model.registry["img_enc.embed1.w"], model.registry["txt_enc.tok"]]
    worst = ag.finite_diff_check(f, params, max_coords=6, seed=1)
    assert worst < 1e-4


class _StubClip:
    """Engineered embedding space: image at e1, prompts at chosen cosines."""

    def __init__(self, cosines):
        self.cosines = cosines
        self.cfg = ClipConfig()

    def embed_image(self, image):
        return np.array([1.0, 0.0])

    def embed_text(self, ids):
        c = self.cosines[tuple(ids)]
        return np.array([c, np.sqrt(1.0 - c * c)])

    def embed_texts(self, seqs):
        return np.stack([self.embed_text(ids) for ids in seqs])


class _VocabStub:
    def id(self, tok):
        return tok


def stub_for(pos, neg):
    prompts_pos = [f"p{i}" for i in range(len(pos))]
    prompts_neg = [f"n{i}" for i in range(len(neg))]
    cos_map = {("[CLS]", name): c for name, c in
               zip(prompts_pos + prompts_neg, list(pos) + list(neg))}
    return _StubClip(cos_map), PromptSet("f", prompts_pos, prompts_neg), _VocabStub()


def test_zero_shot_equal_means_half():
    stub, ps, vocab = stub_for([0.3], [0.3])
    assert zero_shot_score_c(None, ps, stub, vocab) == pytest.approx(0.5, abs=1e-15)


def test_zero_shot_hand_values():
    stub, ps, vocab = stub_for([1.0], [-1.0])
    assert zero_shot_score_c(None, ps, stub, vocab) == pytest.approx(0.8808, abs=1e-4)
    stub, ps, vocab = stub_for([0.2, 0.4], [0.1])
    assert zero_shot_score_c(None, ps, stub, vocab) == pytest.approx(0.5498, abs=1e-4)


def test_zero_shot_prompt_order_invariance_and_antisymmetry():
    stub, ps, vocab = stub_for([0.2, 0.4, -0.1], [0.1, 0.05])
    s1 = zero_shot_score_c(None, ps, stub, vocab)
    ps_rev = PromptSet("f", list(reversed(ps.positive)), list(reversed(ps.negative)))
    assert zero_shot_score_c(None, ps_rev, stub, vocab) == pytest.approx(s1, abs=1e-15)
    ps_swap = PromptSet("f", ps.negative, ps.positive)
    assert zero_shot_score_c(None, ps_swap, stub, vocab) == pytest.approx(1.0 - s1, abs=1e-12)


def test_zero_shot_monotone_in_positive_cosine():
    prev = 0.0
    for c in (0.0, 0.2, 0.4, 0.6):
        stub, ps, vocab = stub_for([c], [0.1])
        s = zero_shot_score_c(None, ps, stub, vocab)
        assert s > prev or c == 0.0
        prev = s


def test_zero_shot_empty_prompts_rejected():
    with pytest.raises(ValueError):
        PromptSet("f", [], ["x"]).validate()


def test_softmax_pair_values():
    assert softmax_pair(1.0, -1.0) == pytest.approx(np.e / (np.e + np.exp(-1)), abs=1e-12)
    assert softmax_pair(0.3, 0.1) == pytest.approx(0.549834, abs=1e-6)
    assert softmax_pair(0.9, 0.1) == pytest.approx(0.689974, abs=1e-6)


def test_prompt_sets_roundtrip(tmp_path):
    path = tmp_path / "prompts.json"
    save_prompt_sets(DEFAULT_PROMPT_SETS, path)
    loaded = load_prompt_sets(path)
    assert set(loaded) == set(DEFAULT_PROMPT_SETS)
    assert loaded["effusion"].positive == DEFAULT_PROMPT_SETS["effusion"].positive


def test_train_zero_steps_equals_init(tmp_path):
    corpus = generate_corpus(5, CorpusSpec(n_studies=8, prevalence=dict(TWO_FINDING_PREVALENCE)))
    cfg = ClipConfig(steps=0, image=ImageEncoderConfig(patch=32, dim=16, blocks=1, heads=2),
                     text_dim=16, text_blocks=1, text_heads=2, proj_dim=8)
    model, history = train_elixr_c(corpus, cfg, seed=3)
    init = ClipModel(len(corpus.vocab), cfg, seed=3)
    assert model.registry.combined_digest() == init.registry.combined_digest()
    assert history == []


def test_train_deterministic_checkpoint(tmp_path):
    corpus = generate_corpus(5, CorpusSpec(n_studies=12, prevalence=dict(TWO_FINDING_PREVALENCE)))
    cfg = ClipConfig(steps=5, batch_size=4,
                     image=ImageEncoderConfig(patch=32, dim=16, blocks=1, heads=2),
                     text_dim=16, text_blocks=1, text_heads=2, proj_dim=8)
    m1, _ = train_elixr_c(corpus, cfg, seed=4)
    m2, _ = train_elixr_c(corpus, cfg, seed=4)
    assert m1.registry.combined_digest() == m2.registry.combined_digest()
    p = tmp_path / "c.ckpt"
    m1.save(p)
    loaded = load_clip(p)
    assert loaded.registry.combined_digest() == m1.registry.combined_digest()
    assert loaded.cfg.temperature == cfg.temperature


def test_embed_texts_match_per_sequence_calls():
    cfg = ClipConfig(image=ImageEncoderConfig(patch=32, dim=16, blocks=1, heads=2),
                     text_dim=16, text_blocks=1, text_heads=2, proj_dim=8)
    model = ClipModel(40, cfg, seed=0)
    seqs = [[1, 8, 9, 10, 11, 12], [1, 30], [1, 12, 13, 14]]
    batched = model.embed_texts(seqs)
    assert batched.shape == (3, 8)
    for row, ids in zip(batched, seqs):
        assert np.abs(row - model.embed_text(ids)).max() <= 1e-12
    with pytest.raises(ValueError):
        model.embed_texts([[1, 2], []])
