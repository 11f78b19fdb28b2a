import os
from dataclasses import asdict, replace

import numpy as np
import pytest

import graftkit.autograd as ag
from graftkit import partworker, qformer
from graftkit.autograd import Tape, Tensor
from graftkit.clip_stage import (DEFAULT_PROMPT_SETS, ClipConfig, ClipModel, PromptSet,
                                 train_elixr_c)
from graftkit.corpus import CorpusSpec, build_vocab, detokenize, generate_corpus, tokenize
from graftkit.nn import DecoderLM, ImageEncoderConfig, LmConfig, LmTrainConfig, pretrain_lm
from graftkit.params import ParamRegistry
from graftkit.qformer import (
    Phase1Config, Phase2Bridge, Phase2Config, QFormerConfig, QFormerModel, _self_mask, generate_impression,
    itc_loss, itg_decoder, itg_loss, itm_loss, load_qformer, pairwise_similarity, phase1_eval, phase1_train,
    phase2_eval, phase2_step, phase2_train, soft_prompts_for_grid, zero_shot_score_b,
)
from graftkit.stats import auc
from helpers import finite_diff_check, phase1_step_oracle, reduce_sum


def tiny_cfg(vocab=40, **kw):
    base = dict(n_queries=3, dim=16, blocks=2, heads=2, proj_dim=8,
                grid_dim=16, text_max_len=24, vocab_size=vocab)
    base.update(kw)
    return QFormerConfig(**base)


@pytest.fixture()
def model():
    return QFormerModel(tiny_cfg(), seed=0)


def rand_grids(n, cfg, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(0, 1, (n, 4, cfg.grid_dim))


def test_forward_requires_consistent_inputs(model):
    grids = rand_grids(1, model.cfg)
    with pytest.raises(ValueError):
        model.forward(grids, None, mode="itg")
    with pytest.raises(ValueError):
        model.forward(grids, None, mode="itm")
    with pytest.raises(ValueError):
        model.forward(None, None, mode="itc")
    with pytest.raises(ValueError):
        model.forward(grids, None, mode="bogus")
    with pytest.raises(ValueError, match="mode itm requires grids"):
        model.forward(None, np.array([[1, 8]]), mode="itm")
    with pytest.raises(ValueError, match="2 texts for 3 grids"):
        model.forward(rand_grids(3, model.cfg), np.array([[1, 8], [1, 9]]), mode="itm")


_TOO_LONG = list(range(5, 30))  # 25 ids: one more than tiny_cfg's text_max_len


@pytest.mark.parametrize("call", [
    lambda m, grids: m.itm_probabilities(grids, _TOO_LONG),
    lambda m, grids: m.text_cls_projs([[1, 8], _TOO_LONG]),
    lambda m, grids: m.text_cls_projs([[]]),
    lambda m, grids: m.text_cls_projs([[1, 8], []]),
    lambda m, grids: m.itm_probabilities(grids, []),
], ids=["itm-too-long", "cls-too-long", "cls-empty", "cls-one-empty", "itm-empty"])
def test_forward_rejects_text_it_cannot_embed(model, call):
    assert model.cfg.text_max_len == len(_TOO_LONG) - 1
    with pytest.raises(ValueError, match="1 to text_max_len = 24 tokens"):
        call(model, rand_grids(3, model.cfg))


@pytest.mark.parametrize("lengths,match", [
    ([3], "one length of at most 5 per text row"),
    ([3, 3, 3], "one length of at most 5 per text row"),
    ([3, 6], "one length of at most 5 per text row"),
    ([0, 3], "1 to text_max_len"),
], ids=["one-for-all", "one-too-many", "past-L", "empty"])
@pytest.mark.parametrize("mode", ["itc", "itm"])
def test_forward_refuses_lengths_not_one_per_row_in_1_to_L(model, mode, lengths, match):
    # a single length would broadcast to every row, and one past L read as unpadded
    with pytest.raises(ValueError, match=match):
        model.forward(rand_grids(2, model.cfg), np.full((2, 5), 4), lengths, mode=mode)


def test_itc_mode_queries_blind_to_text(model):
    grids = rand_grids(1, model.cfg)
    tok_a = np.array([[1, 8, 9, 10]])
    tok_b = np.array([[1, 30, 31, 32]])
    qa, _ = model.forward(grids, tok_a, [4], mode="itc")
    qb, _ = model.forward(grids, tok_b, [4], mode="itc")
    assert np.allclose(qa.data, qb.data, atol=1e-12)


def test_itc_mode_text_blind_to_queries(model):
    tok = np.array([[1, 8, 9, 10]])
    _, t_only = model.forward(None, tok, [4], mode="itc")
    grids = rand_grids(1, model.cfg)
    _, t_with = model.forward(grids, tok, [4], mode="itc")
    assert np.allclose(t_only.data, t_with.data, atol=1e-12)


def test_itg_mode_causal_probe(model):
    grids = rand_grids(1, model.cfg)
    tok_a = np.array([[2, 8, 9, 10, 11]])
    tok_b = tok_a.copy()
    tok_b[0, 4] = 33  # future token only
    _, ta = model.forward(grids, tok_a, [5], mode="itg")
    _, tb = model.forward(grids, tok_b, [5], mode="itg")
    # positions 0..3 unchanged, position 4 changed
    assert np.allclose(ta.data[0, :4], tb.data[0, :4], atol=1e-12)
    assert not np.allclose(ta.data[0, 4], tb.data[0, 4], atol=1e-9)


def test_itg_mode_queries_blind_to_text(model):
    grids = rand_grids(1, model.cfg)
    tok_a = np.array([[2, 8, 9]])
    tok_b = np.array([[2, 30, 31]])
    qa, _ = model.forward(grids, tok_a, [3], mode="itg")
    qb, _ = model.forward(grids, tok_b, [3], mode="itg")
    assert np.allclose(qa.data, qb.data, atol=1e-12)


def test_itg_text_attends_queries(model):
    tok = np.array([[2, 8, 9]])
    grids_a = rand_grids(1, model.cfg, seed=1)
    grids_b = rand_grids(1, model.cfg, seed=2)
    _, ta = model.forward(grids_a, tok, [3], mode="itg")
    _, tb = model.forward(grids_b, tok, [3], mode="itg")
    assert not np.allclose(ta.data, tb.data, atol=1e-9)


def test_itm_mode_bidirectional(model):
    grids = rand_grids(1, model.cfg)
    tok_a = np.array([[1, 8, 9]])
    tok_b = np.array([[1, 30, 31]])
    qa, _ = model.forward(grids, tok_a, [3], mode="itm")
    qb, _ = model.forward(grids, tok_b, [3], mode="itm")
    assert not np.allclose(qa.data, qb.data, atol=1e-9)


def test_pad_positions_inert(model):
    grids = rand_grids(2, model.cfg)
    tok_a = np.array([[1, 8, 9, 0, 0], [1, 5, 6, 7, 0]])
    tok_b = np.array([[1, 8, 9, 22, 23], [1, 5, 6, 7, 24]])
    for mode in ("itc", "itg", "itm"):
        qa, ta = model.forward(grids, tok_a, [3, 4], mode=mode)
        qb, tb = model.forward(grids, tok_b, [3, 4], mode=mode)
        assert np.allclose(qa.data, qb.data, atol=1e-12), mode
        if mode == "itm":  # the matching pass outputs no text rows
            assert ta is None and tb is None
            continue
        assert np.allclose(ta.data[0, :3], tb.data[0, :3], atol=1e-12), mode
        assert np.allclose(ta.data[1, :4], tb.data[1, :4], atol=1e-12), mode


def _eye_forward(model, grids, tokens, lengths, mode):
    """The adapter forward written with one-hot and identity-matrix products."""
    cfg = model.cfg
    n_q = cfg.n_queries if grids is not None else 0
    b = grids.shape[0] if grids is not None else tokens.shape[0]
    parts, grid_t, l_text = [], None, 0
    if grids is not None:
        grid_t = Tensor(grids)
        if model.grid_proj is not None:
            grid_t = model.grid_proj(grid_t)
        q = ag.reshape(model.queries, (1, n_q, cfg.dim))
        parts.append(ag.mul(q, Tensor(np.ones((b, 1, 1)))))
    if tokens is not None:
        l_text = tokens.shape[1]
        onehot = np.zeros(tokens.shape + (cfg.vocab_size,))
        np.put_along_axis(onehot, tokens[..., None], 1.0, axis=-1)
        parts.append(ag.add(ag.matmul(Tensor(onehot), model.tok), Tensor(model.pos[:l_text])))
    x = ag.concat(parts, axis=1) if len(parts) > 1 else parts[0]
    m = n_q + l_text
    mask = _self_mask(mode, n_q, lengths if tokens is not None else None, l_text)
    for blk in model.blocks:
        h = blk.ln1(x)
        x = ag.add(x, blk.self_attn(h, h, mask)[0])
        if grid_t is not None:
            q_rows = ag.matmul(Tensor(np.eye(n_q, m)), x)
            cross = blk.cross_attn(blk.ln_x(q_rows), grid_t)[0]
            if m > n_q:
                cross = ag.concat([cross, Tensor(np.zeros((b, m - n_q, cfg.dim)))], axis=1)
            x = ag.add(x, cross)
        x = ag.add(x, blk.mlp(blk.ln2(x)))
    x = model.ln_out(x)
    t_sel = np.zeros((l_text, m))
    t_sel[:, n_q:] = np.eye(l_text)
    return (ag.matmul(Tensor(np.eye(n_q, m)), x) if n_q else None,
            ag.matmul(Tensor(t_sel), x) if l_text else None)


@pytest.mark.parametrize("mode,with_grids,with_text", [
    ("itc", True, False), ("itc", False, True), ("itc", True, True),
    ("itg", True, True), ("itm", True, True),
])
def test_forward_equals_identity_selection_reference(model, mode, with_grids, with_text):
    grids = rand_grids(2, model.cfg, seed=3) if with_grids else None
    tokens = np.array([[1, 8, 9, 0], [1, 5, 6, 7]]) if with_text else None
    lengths = [3, 4] if with_text else None
    got = model.forward(grids, tokens, lengths, mode=mode)
    want = _eye_forward(model, grids, tokens, lengths, mode)
    if mode == "itm":  # the final block runs the query rows alone
        want = (want[0], None)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if g is not None:
            assert np.array_equal(g.data, w.data)
    if got[1] is not None:
        cls = model.cls_projection(got[1]).data
        sel = np.zeros((1, tokens.shape[1]))
        sel[0, 0] = 1.0
        ref = model.itc_txt_proj(Tensor((sel @ want[1].data)[:, 0]))
        assert np.array_equal(cls, ag.l2_normalize(ref).data)


def test_same_inputs_same_outputs(model):
    grids = rand_grids(2, model.cfg)
    tok = np.array([[1, 8, 9], [1, 5, 6]])
    a = model.forward(grids, tok, [3, 3], mode="itm")
    b = model.forward(grids, tok, [3, 3], mode="itm")
    assert a[0].data.tobytes() == b[0].data.tobytes()
    assert a[1] is None and b[1] is None


def test_pairwise_similarity_is_max_over_queries(model):
    grids = rand_grids(3, model.cfg)
    tok = np.array([[1, 8, 9], [1, 5, 6], [1, 20, 21]])
    sim = pairwise_similarity(model, model.query_projections(grids), tok, [3, 3, 3]).data
    # independent path: per-image query projections vs per-text cls projection
    for i in range(3):
        qp = model.query_projections(grids[i][None]).data[0]
        for j in range(3):
            tp = model.text_cls_proj(tok[j])
            assert sim[i, j] == pytest.approx(float(np.max(qp @ tp)), abs=1e-12)


def test_itc_single_pair_zero(model):
    grids = rand_grids(1, model.cfg)
    tok = np.array([[1, 8, 9]])
    assert float(itc_loss(model, model.query_projections(grids), tok, [3]).data) == 0.0


def test_itc_gradient(model):
    grids = rand_grids(2, model.cfg)
    tok = np.array([[1, 8, 9], [1, 5, 6]])

    def f():
        return itc_loss(model, model.query_projections(grids), tok, [3, 3])

    params = [model.registry["qf.queries"], model.registry["qf.itc_img_proj.w"],
              model.registry["qf.tok"], model.registry["qf.blk0.self.q.w"]]
    assert finite_diff_check(f, params, max_coords=6, seed=0) < 1e-4


def test_itg_untrained_near_log_vocab(model):
    grids = rand_grids(2, model.cfg)
    tok = np.array([[2, 8, 9, 10], [2, 5, 6, 7]])
    loss = float(itg_loss(model, grids, tok, [4, 4]).data)
    assert abs(loss - np.log(model.cfg.vocab_size)) < 0.2


def test_itg_rejects_empty_text(model):
    grids = rand_grids(1, model.cfg)
    with pytest.raises(ValueError):
        itg_loss(model, grids, np.array([[2]]), [1])


def test_itg_gradient(model):
    grids = rand_grids(2, model.cfg)
    tok = np.array([[2, 8, 9, 10], [2, 5, 6, 7]])

    def f():
        return itg_loss(model, grids, tok, [4, 4])

    params = [model.registry["qf.itg_head.w"], model.registry["qf.queries"],
              model.registry["qf.blk1.cross.q.w"]]
    assert finite_diff_check(f, params, max_coords=6, seed=1) < 1e-4


def test_itm_saturated_and_uniform(model):
    grids = rand_grids(1, model.cfg)
    tok = np.array([[1, 8, 9]])
    model.itm_head.w.data[...] = 0.0
    model.itm_head.b.data[...] = [10.0, -10.0]  # forced logits (+10, -10)
    assert float(itm_loss(model, grids, tok, [3], [True]).data) < 1e-8
    # swapping the target flips which logit lowers the loss
    assert float(itm_loss(model, grids, tok, [3], [False]).data) > 10.0
    model.itm_head.b.data[...] = [0.0, 0.0]
    assert float(itm_loss(model, grids, tok, [3], [True]).data) == pytest.approx(np.log(2), abs=1e-12)


def test_itm_gradient(model):
    grids = rand_grids(2, model.cfg)
    tok = np.array([[1, 8, 9], [1, 5, 6]])

    def f():
        return itm_loss(model, grids, tok, [3, 3], [True, False])

    params = [model.registry["qf.itm_head.w"], model.registry["qf.queries"],
              model.registry["qf.blk0.cross.k.w"]]
    assert finite_diff_check(f, params, max_coords=6, seed=2) < 1e-4


def test_phase2_end_to_end_gradient(model):
    lm_reg = ParamRegistry()
    lm = DecoderLM(lm_reg, LmConfig(vocab_size=30, dim=16, blocks=1, heads=2, max_len=32),
                   np.random.default_rng(9))
    lm.freeze()
    bridge_reg = ParamRegistry()
    bridge = Phase2Bridge(bridge_reg, model.cfg.dim, 16, 16, np.random.default_rng(3))
    grid = rand_grids(1, model.cfg)[0]
    target = [5, 6, 7]

    def soft_np():
        q_out, _ = model.forward(grid[None], None, mode="itc")
        return bridge(q_out).data[0]

    # the training step: the LM's soft-prompt gradient seeds the local backward
    grads, _ = phase2_step(model, bridge, lm, grid[None], [target])

    rng = np.random.default_rng(4)
    h = 1e-5
    for pname, reg in (("qf.queries", model.registry), ("bridge.fc1.w", bridge_reg)):
        p = reg[pname]
        g_ad = grads[pname]
        flat = p.data.reshape(-1)
        for c in rng.choice(flat.size, size=6, replace=False):
            orig = flat[c]
            flat[c] = orig + h
            plus = lm.lm_loss_and_grad(soft_np(), [], target)[0]
            flat[c] = orig - h
            minus = lm.lm_loss_and_grad(soft_np(), [], target)[0]
            flat[c] = orig
            fd = (plus - minus) / (2 * h)
            assert abs(g_ad.reshape(-1)[c] - fd) / max(1.0, abs(fd)) < 1e-4, pname


class _StubQFormer:
    def __init__(self, q_cosines):
        # q_cosines: prompt name -> list of per-query cosines
        self.q_cosines = q_cosines
        self.cfg = tiny_cfg()
        self.registry = ParamRegistry()

    def query_projections(self, grids):
        return Tensor(np.eye(3)[None])

    def text_cls_proj(self, ids):
        name = ids[1]
        c = np.asarray(self.q_cosines[name], dtype=float)
        # vector whose dot with each basis query row is the requested cosine
        return c

    def text_cls_projs(self, seqs):
        return np.stack([self.text_cls_proj(ids) for ids in seqs])


class _VocabStub:
    def id(self, tok):
        return tok


def test_zero_shot_b_max_semantics_hand_value():
    stub = _StubQFormer({"p0": [0.1, 0.9, 0.3], "n0": [0.1, 0.05, 0.02]})
    ps = PromptSet("f", ["p0"], ["n0"])
    score = zero_shot_score_b(np.zeros((4, 16)), ps, stub, _VocabStub())
    assert score == pytest.approx(1 / (1 + np.exp(-(0.9 - 0.1))), abs=1e-12)
    assert score == pytest.approx(0.6900, abs=1e-4)


def test_zero_shot_b_dominated_prompt_no_change():
    stub = _StubQFormer({"p0": [0.9, 0.2, 0.1], "p1": [0.5, 0.1, 0.0],
                         "n0": [0.1, 0.0, 0.0]})
    s1 = zero_shot_score_b(np.zeros((4, 16)), PromptSet("f", ["p0"], ["n0"]), stub, _VocabStub())
    s2 = zero_shot_score_b(np.zeros((4, 16)), PromptSet("f", ["p0", "p1"], ["n0"]), stub, _VocabStub())
    assert s1 == s2


def test_zero_shot_b_antisymmetry_and_order_invariance():
    stub = _StubQFormer({"p0": [0.4, 0.2, 0.0], "p1": [0.1, 0.3, 0.2],
                         "n0": [0.2, 0.1, 0.0], "n1": [0.0, 0.1, 0.15]})
    ps = PromptSet("f", ["p0", "p1"], ["n0", "n1"])
    s = zero_shot_score_b(np.zeros((4, 16)), ps, stub, _VocabStub())
    rev = PromptSet("f", ["p1", "p0"], ["n1", "n0"])
    assert zero_shot_score_b(np.zeros((4, 16)), rev, stub, _VocabStub()) == s
    swapped = PromptSet("f", ps.negative, ps.positive)
    assert zero_shot_score_b(np.zeros((4, 16)), swapped, stub, _VocabStub()) == pytest.approx(1 - s, abs=1e-12)


def test_generate_impression_deterministic_and_bounded():
    vocab = build_vocab()
    model = QFormerModel(tiny_cfg(vocab=len(vocab)), seed=1)
    grid = rand_grids(1, model.cfg, seed=5)[0]
    a = generate_impression(grid, model, vocab)
    b = generate_impression(grid, model, vocab)
    assert a == b
    assert len(a.split()) <= 64


def _reference_impression(grid, model, vocab):
    """Greedy grounded decoding that reruns queries and text every step."""
    ids = [vocab.id("[BOS]")]
    for _ in range(64):
        arr = np.asarray(ids)[None]
        _, t_out = model.forward(grid[None], arr, [arr.shape[1]], mode="itg")
        nxt = int(np.argmax(model.itg_head(t_out).data[0, -1]))
        if nxt == vocab.id("[EOS]"):
            break
        ids.append(nxt)
        if len(ids) >= model.cfg.text_max_len:
            break
    return detokenize(ids[1:], vocab)


@pytest.mark.parametrize("grid_dim", [16, 12])
def test_itg_decoder_logits_match_the_itg_forward(grid_dim):
    model = QFormerModel(tiny_cfg(grid_dim=grid_dim), seed=2)
    rng = np.random.default_rng(9)
    for n in (1, 5, model.cfg.text_max_len):
        grid = rng.normal(0, 1, (4, grid_dim))
        tokens = rng.integers(0, 40, n)
        _, t_out = model.forward(grid[None], tokens[None], [n], mode="itg")
        full = model.itg_head(t_out).data[0]
        step = itg_decoder(grid, model)
        cached = np.stack([step(int(t)) for t in tokens])
        assert np.max(np.abs(cached - full)) < 1e-9


def test_generate_impression_equals_full_recompute_reference():
    vocab = build_vocab()
    for seed, text_max_len in ((1, 24), (3, 24), (4, 6)):
        model = QFormerModel(tiny_cfg(vocab=len(vocab), text_max_len=text_max_len), seed=seed)
        for g in range(3):
            grid = rand_grids(1, model.cfg, seed=10 * seed + g)[0] * 3.0
            assert (generate_impression(grid, model, vocab)
                    == _reference_impression(grid, model, vocab))


def test_qformer_checkpoint_roundtrip(tmp_path, model):
    p = tmp_path / "qf.ckpt"
    model.save(p, extra_meta={"phase": 1})
    loaded = load_qformer(p)
    assert loaded.registry.combined_digest() == model.registry.combined_digest()
    assert asdict(loaded.cfg) == asdict(model.cfg)


def test_phase2_step_matches_per_example_surrogate(model):
    lm = DecoderLM(ParamRegistry(), LmConfig(vocab_size=30, dim=16, blocks=1, heads=2,
                                             max_len=32), np.random.default_rng(9))
    lm.freeze()
    bridge = Phase2Bridge(ParamRegistry(), model.cfg.dim, 16, 16, np.random.default_rng(3))
    grids = rand_grids(3, model.cfg, seed=6)
    targets = [[5, 6, 7], [8], [9, 10]]
    grads, loss = phase2_step(model, bridge, lm, grids, targets)

    # reference: LM responses at per-example soft prompts, then a taped
    # surrogate sum of <soft, LM gradient / batch> over the examples
    responses = [lm.lm_loss_and_grad(soft_prompts_for_grid(model, bridge, grid), [], target)
                 for grid, target in zip(grids, targets)]
    surrogate = None
    with Tape() as tape:
        for grid, (_, g) in zip(grids, responses):
            q_out, _ = model.forward(grid[None], None, mode="itc")
            term = reduce_sum(ag.mul(bridge(q_out), Tensor(g[None] / len(targets))))
            surrogate = term if surrogate is None else ag.add(surrogate, term)
    ref = tape.gradients(surrogate)
    mean_loss = np.mean([loss for loss, _ in responses])
    assert abs(loss - mean_loss) <= 1e-12 * abs(mean_loss)
    assert set(grads) == set(ref)
    # relative to the largest gradient entry: some entries (key biases) are
    # zero up to rounding, so a per-entry relative error is meaningless there
    scale = max(np.abs(r).max() for r in ref.values())
    for name, g in grads.items():
        assert np.abs(g - ref[name]).max() <= 1e-12 * scale, name


def _phase2_step_world(model, frozen=True):
    lm = DecoderLM(ParamRegistry(), LmConfig(vocab_size=30, dim=16, blocks=1, heads=2,
                                             max_len=32), np.random.default_rng(9))
    if frozen:
        lm.freeze()
    bridge = Phase2Bridge(ParamRegistry(), model.cfg.dim, 16, 16, np.random.default_rng(3))
    return lm, bridge, rand_grids(4, model.cfg, seed=6), [[5, 6, 7], [8], [9, 10], [11, 3]]


def test_phase2_step_is_one_graph_and_one_backward(model, monkeypatch):
    lm, bridge, grids, targets = _phase2_step_world(model)
    calls = {"gradients": 0, "lm_loss_and_grad": 0, "soft_prompt_loss": 0}
    for owner, name in ((Tape, "gradients"), (DecoderLM, "lm_loss_and_grad"),
                        (DecoderLM, "soft_prompt_loss")):
        def counting(self, *args, _name=name, _original=getattr(owner, name)):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(owner, name, counting)
    grads, loss = phase2_step(model, bridge, lm, grids, targets)
    assert calls == {"gradients": 1, "lm_loss_and_grad": 0, "soft_prompt_loss": 1}
    assert np.isfinite(loss) and grads and not any(n.startswith("lm.") for n in grads)


def test_phase2_step_refuses_an_unfrozen_lm(model):
    lm, bridge, grids, targets = _phase2_step_world(model, frozen=False)
    with pytest.raises(RuntimeError, match="gradient leaked into frozen LM"):
        phase2_step(model, bridge, lm, grids, targets)


def tiny_clip(corpus):
    return ClipModel(len(corpus.vocab),
                     ClipConfig(image=ImageEncoderConfig(patch=32, dim=16, blocks=1, heads=2),
                                text_dim=16, text_blocks=1, text_heads=2, proj_dim=8), seed=0)


def test_phase1_train_leaves_caller_config_unchanged():
    corpus = generate_corpus(3, CorpusSpec(n_studies=6))
    clip = tiny_clip(corpus)
    cfg = Phase1Config(steps=1, eval_every=1,
                       qformer=tiny_cfg(vocab=0, blocks=1, text_max_len=32))
    models, _, _ = phase1_train(corpus, clip, cfg, eval_ids=[4, 5])
    assert cfg.qformer.vocab_size == 0
    assert models["final"].cfg.vocab_size == len(corpus.vocab)


def test_text_cls_projs_match_per_sequence_calls(model):
    seqs = [[1, 8, 9, 10, 11], [1, 30], [1, 12, 13]]
    batched = model.text_cls_projs(seqs)
    assert batched.shape == (3, model.cfg.proj_dim)
    for row, ids in zip(batched, seqs):
        assert np.abs(row - model.text_cls_proj(ids)).max() <= 1e-12


def _phase2_eval_world(model):
    lm = DecoderLM(ParamRegistry(), LmConfig(vocab_size=30, dim=16, blocks=1, heads=2,
                                             max_len=32), np.random.default_rng(9))
    lm.freeze()
    bridge = Phase2Bridge(ParamRegistry(), model.cfg.dim, 16, 16, np.random.default_rng(3))
    grids = rand_grids(5, model.cfg, seed=8)
    targets = [[5, 6, 7], [8], [9, 10], [11, 12, 13, 14], [15, 3]]
    return lm, bridge, grids, targets


def test_phase2_eval_matches_per_example_losses_bitwise(model):
    lm, bridge, grids, targets = _phase2_eval_world(model)
    eval_ids = [4, 1, 2]
    stats = phase2_eval(model, bridge, lm, grids, targets, eval_ids)
    soft = [soft_prompts_for_grid(model, bridge, grids[i]) for i in eval_ids]
    losses = [lm.lm_loss_and_grad(s, [], targets[i])[0] for s, i in zip(soft, eval_ids)]
    base = [lm.lm_loss_and_grad(np.zeros_like(s), [], targets[i])[0]
            for s, i in zip(soft, eval_ids)]
    assert stats == {"heldout_loss": float(np.mean(losses)),
                     "zero_prompt_baseline": float(np.mean(base))}


def test_phase2_eval_runs_no_backward_pass(model, monkeypatch):
    lm, bridge, grids, targets = _phase2_eval_world(model)
    calls = []
    original = Tape.gradients

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Tape, "gradients", counting)
    phase2_eval(model, bridge, lm, grids, targets, [0, 1, 2, 3])
    assert calls == []
    lm.lm_loss_and_grad(np.zeros((3, 16)), [], [5])  # the counter does see backward passes
    assert calls == [1]


def test_phase2_train_tokenizes_only_the_studies_it_reads_once_each(monkeypatch):
    corpus = generate_corpus(3, CorpusSpec(n_studies=10))
    lm = DecoderLM(ParamRegistry(), LmConfig(vocab_size=len(corpus.vocab), dim=16, blocks=1,
                                             heads=2, max_len=64), np.random.default_rng(9))
    lm.freeze()
    itg = QFormerModel(tiny_cfg(len(corpus.vocab)), seed=0)
    read = []
    tokenize_ids = qformer.impression_targets
    monkeypatch.setattr(qformer, "impression_targets",
                        lambda c, ids: (read.extend(ids), tokenize_ids(c, ids))[1])
    # 3 steps of 4 of the 8 training studies, then the 2 eval studies
    phase2_train(corpus, tiny_clip(corpus), itg, lm, Phase2Config(steps=3), eval_ids=[8, 9])
    assert len(read) == len(set(read)) and {8, 9} < set(read) < set(range(10))


def test_phase1_eval_encodes_each_image_and_prompt_set_once(monkeypatch):
    corpus = generate_corpus(3, CorpusSpec(n_studies=24))
    vocab = corpus.vocab
    model = QFormerModel(tiny_cfg(len(vocab)), seed=0)
    grids = rand_grids(24, model.cfg, seed=1)
    eval_ids = list(range(8, 24))
    scored = [ps for ps in DEFAULT_PROMPT_SETS.values()
              if len({corpus.studies[i].labels[ps.finding] for i in eval_ids}) == 2]
    assert len(scored) >= 2
    same = QFormerModel(tiny_cfg(len(vocab)), seed=0)  # its own prompt memo: model's stays cold
    per_image = np.mean([auc([zero_shot_score_b(grids[i], ps, same, vocab) for i in eval_ids],
                             [corpus.studies[i].labels[ps.finding] for i in eval_ids])
                         for ps in scored])
    calls, original = [], QFormerModel.text_cls_projs

    def counting(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(QFormerModel, "text_cls_projs", counting)
    metrics = phase1_eval(model, corpus, grids, eval_ids, DEFAULT_PROMPT_SETS, vocab,
                          np.random.default_rng(0))
    assert len(calls) == len(scored)
    assert metrics["auc"] == per_image


def test_phase1_eval_runs_the_itc_query_forward_once(monkeypatch):
    corpus = generate_corpus(3, CorpusSpec(n_studies=24))
    model = QFormerModel(tiny_cfg(len(corpus.vocab)), seed=0)
    grids = rand_grids(24, model.cfg, seed=1)
    eval_ids = list(range(8, 24))
    query_forwards = []
    original = QFormerModel.forward

    def spying(self, grids_in, tokens, lengths=None, mode="itc"):
        if grids_in is not None and mode == "itc":
            query_forwards.append(np.array_equal(grids_in, grids[eval_ids]))
        return original(self, grids_in, tokens, lengths, mode=mode)

    monkeypatch.setattr(QFormerModel, "forward", spying)
    phase1_eval(model, corpus, grids, eval_ids, DEFAULT_PROMPT_SETS, corpus.vocab,
                np.random.default_rng(0))
    assert query_forwards == [True]


# ---------------------------------------------------------------------------
# phase 1's step in three parts (ITC, ITG, ITM), in one or two processes


def phase1_batch(cfg, n=4, seed=0):
    """A phase-1 step's batch: grids, [CLS] and ITG texts, one mismatch each."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(2, 9, n)
    tokens = rng.integers(1, cfg.vocab_size, (n, int(lengths.max())))
    return (rand_grids(n, cfg, seed), (tokens, lengths), (tokens, lengths),
            qformer._mismatch(rng, n))


def test_split_phase1_step_matches_the_one_tape_step(model):
    batch = phase1_batch(model.cfg)
    losses, grads, split = partworker.run_parts(qformer._PHASE1_PARTS, model, batch, 3)
    ref_loss, ref = phase1_step_oracle(model, batch)
    assert sum(losses) == ref_loss  # the same association: (ITC + ITG) + ITM
    assert sum(split.values()) == 3
    assert grads.keys() == ref.keys()
    # the three gradients are added in another order than the one tape adds
    # them, so low bits differ; some entries (key biases) are zero up to
    # rounding, hence the scale of the largest entry
    scale = max(np.abs(r).max() for r in ref.values())
    for name, g in grads.items():
        assert np.abs(g - ref[name]).max() <= 1e-12 * scale, name


def phase1_run():
    corpus = generate_corpus(3, CorpusSpec(n_studies=12))
    cfg = Phase1Config(steps=4, eval_every=2, qformer=tiny_cfg(vocab=0, blocks=1,
                                                                 text_max_len=32))
    models, history, meta = phase1_train(corpus, tiny_clip(corpus), cfg, seed=5,
                                         eval_ids=[10, 11])
    return history, meta, {k: m.registry.combined_digest() for k, m in models.items()}


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="the worker runs only with two cores")
def test_phase1_worker_and_inline_runs_are_bitwise_equal(monkeypatch):
    submitted = []
    submit = partworker._PartWorker.submit
    monkeypatch.setattr(partworker._PartWorker, "submit",
                        lambda self, *a: (submitted.append(self.kind.name), submit(self, *a))[1])
    with_worker = phase1_run()
    assert submitted == ["clip"] + ["phase-1"] * 4  # the grids of the 12 images, then the steps
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert phase1_run() == with_worker
    assert len(submitted) == 5


def test_two_phase1_runs_are_bitwise_equal():
    assert phase1_run() == phase1_run()


def test_phase1_logs_the_one_tape_association_of_the_total(monkeypatch):
    run_parts = partworker.run_parts

    def tiny_tail(kind, *args):
        losses, grads, split = run_parts(kind, *args)
        if kind is qformer._PHASE1_PARTS:  # not the grids' image-encoder pass
            losses = [1.0, 2.0 ** -53, 2.0 ** -53]
        return losses, grads, split

    monkeypatch.setattr(partworker, "run_parts", tiny_tail)
    # (1 + u) + u rounds to 1 twice; 1 + (u + u) is the next float above 1
    assert all(h["total"] == 1.0 for h in phase1_run()[0])


def test_phase1_selects_each_checkpoint_by_its_rule_and_keeps_the_earlier_on_a_tie(monkeypatch):
    scripted = [  # (auc, itm, itc, itg) at the eval of each step
        (0.6, 0.70, 2.0, 5.0),
        (0.7, 0.69, 2.0, 4.0),  # the ITG checkpoint
        (0.7, 0.65, 1.9, 4.5),  # ties step 1's AUC; a lower ITM wins
        (0.7, 0.65, 1.8, 4.0),  # ties AUC and ITM; a lower ITC wins: the scoring checkpoint
        (0.7, 0.65, 1.8, 4.2),  # the scoring key of step 3: the earlier is kept
        (0.65, 0.1, 0.1, 4.1),  # a lower AUC loses whatever its losses
    ]
    digests = []

    def scripted_eval(model, *_):
        auc_, itm, itc, itg = scripted[len(digests)]
        digests.append(model.registry.combined_digest())
        return {"auc": auc_, "itc": itc, "itg": itg, "itm": itm}

    monkeypatch.setattr(qformer, "phase1_eval", scripted_eval)
    corpus = generate_corpus(3, CorpusSpec(n_studies=12))
    cfg = Phase1Config(steps=6, eval_every=1, qformer=tiny_cfg(vocab=0, blocks=1,
                                                                 text_max_len=32))
    models, _, meta = phase1_train(corpus, tiny_clip(corpus), cfg, seed=5, eval_ids=[10, 11])
    assert meta == {"scoring_metrics": {"auc": 0.7, "itc": 1.8, "itg": 4.0, "itm": 0.65, "step": 3},
                    "itg_metrics": {"auc": 0.7, "itc": 2.0, "itg": 4.0, "itm": 0.69, "step": 1}}
    assert len(set(digests)) == len(scripted)  # every step's weights differ
    assert {k: m.registry.combined_digest() for k, m in models.items()} == {
        "final": digests[5], "scoring": digests[3], "itg": digests[1]}


def _stage_call(stage, value):
    """A call of training ``stage`` with its config's field (or, for phase 1,
    ``eval_ids``) set to ``value``."""
    corpus = generate_corpus(3, CorpusSpec(n_studies=6))
    clip = tiny_clip(corpus)
    if stage == "clip":
        cfg = replace(clip.cfg, steps=value)
        return lambda: train_elixr_c(corpus, cfg)
    if stage in ("lm", "phase2"):
        lm = DecoderLM(ParamRegistry(), LmConfig(vocab_size=len(corpus.vocab), dim=16, blocks=1,
                                                 heads=2, max_len=32), np.random.default_rng(9))
        if stage == "lm":
            return lambda: pretrain_lm(lm, [([1, 2, 3], 0)], LmTrainConfig(steps=value))
        lm.freeze()
        itg = QFormerModel(tiny_cfg(len(corpus.vocab)), seed=0)
        return lambda: phase2_train(corpus, clip, itg, lm, Phase2Config(steps=value))
    settings = {"steps": 2, "eval_every": 1, "eval_ids": [4, 5], stage.split(".")[1]: value}
    eval_ids = settings.pop("eval_ids")
    cfg = Phase1Config(**settings, qformer=tiny_cfg(vocab=0, blocks=1, text_max_len=32))
    return lambda: phase1_train(corpus, clip, cfg, eval_ids=eval_ids)


@pytest.mark.parametrize("stage, value, match", [
    ("phase1.steps", 0, "Phase1Config.steps"),
    ("phase1.steps", -1, "Phase1Config.steps"),
    ("phase1.eval_every", 0, "Phase1Config.eval_every"),
    ("phase1.eval_every", -2, "Phase1Config.eval_every"),
    ("phase1.eval_ids", [5], "at least 2 eval studies"),  # ITM pairs each image with another
    ("phase1.eval_ids", [0, 1, 2, 3, 4], "at least 2 training studies"),  # study's text
    ("clip", -1, "ClipConfig.steps"),
    ("lm", -1, "LmTrainConfig.steps"),
    ("phase2", -1, "Phase2Config.steps"),
])
def test_bad_stage_config_is_rejected_before_any_model_is_built(monkeypatch, stage, value, match):
    call = _stage_call(stage, value)

    def no_model(*_):
        raise AssertionError("a model was built")

    monkeypatch.setattr(ParamRegistry, "param", no_model)
    with pytest.raises(ValueError, match=match):
        call()
