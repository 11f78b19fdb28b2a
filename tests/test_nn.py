import hashlib

import numpy as np
import pytest

import graftkit.autograd as ag
from graftkit.autograd import Parameter, Tape, Tensor
from graftkit.nn import (
    DecoderLM, ImageEncoder, ImageEncoderConfig, LmConfig, TextEncoder, TextEncoderConfig,
    causal_mask, key_padding_mask, pad_batch, pool_grid, sinusoid_table,
)
from graftkit.params import ParamRegistry


def make_image_encoder(seed=0):
    reg = ParamRegistry()
    enc = ImageEncoder(reg, ImageEncoderConfig(), np.random.default_rng(seed))
    return reg, enc


def make_text_encoder(seed=0, vocab=40):
    reg = ParamRegistry()
    enc = TextEncoder(reg, TextEncoderConfig(vocab_size=vocab), np.random.default_rng(seed))
    return reg, enc


def make_lm(seed=0, vocab=30, dim=32, blocks=2, heads=2, max_len=64, frozen=True):
    reg = ParamRegistry()
    lm = DecoderLM(reg, LmConfig(vocab_size=vocab, dim=dim, blocks=blocks, heads=heads,
                                 max_len=max_len), np.random.default_rng(seed))
    if frozen:
        lm.freeze()
    return reg, lm


def test_masks_shapes():
    assert causal_mask(5).shape == (1, 1, 5, 5)
    assert causal_mask(3)[0, 0, 0, 2] < -1e8
    assert causal_mask(3)[0, 0, 2, 0] == 0.0
    kp = key_padding_mask([2, 3], 4)
    assert kp.shape == (2, 1, 1, 4)
    assert kp[0, 0, 0, 1] == 0.0 and kp[0, 0, 0, 2] < -1e8


def test_sinusoid_table_range():
    t = sinusoid_table(16, 8)
    assert t.shape == (16, 8)
    assert np.all(np.abs(t) <= 1.0)


def test_pool_grid_average():
    grid = np.arange(4 * 4 * 2, dtype=float).reshape(4, 4, 2)
    pooled = pool_grid(grid, 2)
    assert pooled.shape == (2, 2, 2)
    assert np.allclose(pooled[0, 0], grid[:2, :2].mean(axis=(0, 1)))
    with pytest.raises(ValueError):
        pool_grid(np.zeros((3, 3, 2)), 2)


def test_pool_grid_leading_axes_equal_3d_form_bitwise():
    grids = np.random.default_rng(4).normal(0, 1, (5, 4, 4, 3))
    batched = pool_grid(grids, 2)
    assert batched.shape == (5, 2, 2, 3)
    assert np.array_equal(batched, np.stack([pool_grid(g, 2) for g in grids]))
    assert np.array_equal(pool_grid(grids[None], 1)[0], np.stack([pool_grid(g, 1) for g in grids]))


def test_encode_image_deterministic_and_golden():
    _, enc = make_image_encoder(seed=0)
    grid1 = enc.encode_image(np.zeros((64, 64)))
    grid2 = enc.encode_image(np.zeros((64, 64)))
    assert grid1.shape == (4, 4, 64)
    assert grid1.tobytes() == grid2.tobytes()
    digest = hashlib.sha256(np.ascontiguousarray(grid1, dtype="<f8").tobytes()).hexdigest()
    # recorded from the seed-0 encoder; the all-zero image exercises the
    # bias-only forward pass
    assert digest == GOLDEN_ZERO_IMAGE_DIGEST


def test_encode_image_rejects_wrong_size():
    _, enc = make_image_encoder()
    with pytest.raises(ValueError):
        enc.encode_image(np.zeros((32, 32)))


def test_patch_grid_locality():
    _, enc = make_image_encoder()
    rng = np.random.default_rng(1)
    img = rng.uniform(0, 1, (64, 64))
    feats = enc.patch_features(img[None]).data[0]
    img2 = img.copy()
    img2[20, 5] += 0.5  # inside patch (row 1, col 0) -> patch index 4
    feats2 = enc.patch_features(img2[None]).data[0]
    changed = np.where(np.any(np.abs(feats2 - feats) > 1e-12, axis=1))[0]
    assert list(changed) == [4]


def test_patch_embed_flip_equivariance_under_symmetrized_weights():
    reg, enc = make_image_encoder(seed=3)
    p, g = enc.cfg.patch, enc.cfg.grid
    # make the first embed layer invariant to within-patch column flips
    w = enc.embed1.w.data.reshape(p, p, -1)
    enc.embed1.w.data[...] = ((w + w[:, ::-1]) / 2.0).reshape(p * p, -1)
    rng = np.random.default_rng(2)
    img = rng.uniform(0, 1, (64, 64))
    f = enc.patch_features(img[None]).data[0].reshape(g, g, -1)
    f_flip = enc.patch_features(img[:, ::-1][None].copy()).data[0].reshape(g, g, -1)
    assert np.allclose(f_flip, f[:, ::-1], atol=1e-10)


def test_left_half_influences_left_grid_columns():
    _, enc = make_image_encoder()
    rng = np.random.default_rng(4)
    img = rng.uniform(0, 1, (64, 64))
    grid = enc.encode_image(img)
    img2 = img.copy()
    img2[:, :32] += 0.3
    grid2 = enc.encode_image(img2)
    delta = np.abs(grid2 - grid).mean(axis=(0, 2))  # per grid column
    assert delta[:2].mean() > delta[2:].mean()


def test_encode_text_pooled_unit_norm():
    _, enc = make_text_encoder()
    per_tok, pooled = enc.encode_text([3, 5, 7, 2])
    assert per_tok.shape == (4, 64)
    assert abs(np.linalg.norm(pooled) - 1.0) < 1e-9


def test_encode_text_single_token_is_normalized_embedding():
    _, enc = make_text_encoder()
    per_tok, pooled = enc.encode_text([9])
    assert np.allclose(pooled, per_tok[0] / np.linalg.norm(per_tok[0]), atol=1e-12)


def test_encode_text_empty_errors():
    _, enc = make_text_encoder()
    with pytest.raises(ValueError):
        enc.encode_text([])


def test_pad_positions_do_not_affect_pooled():
    _, enc = make_text_encoder()
    base = np.array([[4, 6, 8, 0, 0]])
    alt = np.array([[4, 6, 8, 13, 21]])  # different garbage under the pad mask
    _, p1 = enc.forward(base, [3])
    _, p2 = enc.forward(alt, [3])
    assert np.allclose(p1.data, p2.data, atol=1e-12)


def test_lm_untrained_loss_near_log_vocab():
    _, lm = make_lm(vocab=30, frozen=False)
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, 30, (4, 12))
    loss = lm.batch_loss(tokens, [12] * 4, [1] * 4)
    assert abs(float(loss.data) - np.log(30)) < 0.2


def test_lm_loss_and_grad_matches_finite_differences():
    _, lm = make_lm(vocab=20, dim=16, blocks=1, heads=2)
    rng = np.random.default_rng(5)
    soft = rng.normal(0, 0.1, (3, 16))
    prompt = [4, 5]
    target = [6, 7, 8]
    loss, grad = lm.lm_loss_and_grad(soft, prompt, target)
    assert grad.shape == soft.shape
    h = 1e-5
    worst = 0.0
    for c in rng.choice(soft.size, size=20, replace=False):
        i, j = divmod(int(c), 16)
        pert = soft.copy()
        pert[i, j] += h
        plus = lm.lm_loss_and_grad(pert, prompt, target)[0]
        pert[i, j] -= 2 * h
        minus = lm.lm_loss_and_grad(pert, prompt, target)[0]
        fd = (plus - minus) / (2 * h)
        worst = max(worst, abs(grad[i, j] - fd) / max(1.0, abs(fd)))
    assert worst < 1e-4


def test_lm_loss_and_grad_zero_length_prompt_ok():
    _, lm = make_lm()
    soft = np.random.default_rng(1).normal(0, 0.1, (2, 32))
    loss, grad = lm.lm_loss_and_grad(soft, [], [5, 6])
    assert np.isfinite(loss)
    assert grad.shape == (2, 32)


def test_lm_loss_and_grad_validates_inputs():
    _, lm = make_lm()
    soft = np.zeros((2, 32))
    with pytest.raises(ValueError):
        lm.lm_loss_and_grad(np.zeros((2, 16)), [], [5])  # dim mismatch
    with pytest.raises(ValueError):
        lm.lm_loss_and_grad(soft, [1], [])  # empty target
    _, lm2 = make_lm(frozen=False)
    with pytest.raises(RuntimeError):
        lm2.lm_loss_and_grad(soft, [], [5])


def test_lm_loss_and_grad_keeps_lm_frozen():
    reg, lm = make_lm()
    before = lm.digest()
    soft = np.random.default_rng(2).normal(0, 0.1, (2, 32))
    lm.lm_loss_and_grad(soft, [4], [5, 6])
    assert lm.digest() == before


def test_lm_loss_and_grad_bit_deterministic():
    _, lm = make_lm()
    soft = np.random.default_rng(3).normal(0, 0.1, (2, 32))
    a = lm.lm_loss_and_grad(soft, [4], [5, 6])
    b = lm.lm_loss_and_grad(soft, [4], [5, 6])
    assert a[0] == b[0]
    assert a[1].tobytes() == b[1].tobytes()


def test_lm_generate_terminates_and_deterministic():
    _, lm = make_lm()
    out1 = lm.generate(None, [4, 5, 6], max_new=10)
    out2 = lm.generate(None, [4, 5, 6], max_new=10)
    assert out1 == out2
    assert len(out1) <= 10
    soft = np.random.default_rng(0).normal(0, 0.1, (2, 32))
    out3 = lm.generate(soft, [4, 5], max_new=64)
    assert len(out3) <= 64


def test_embeddings_equal_onehot_products_bitwise():
    # the one-hot @ table products the gather replaced are the reference
    tokens = np.array([[3, 5, 5, 0], [29, 1, 3, 3]])
    onehot = np.zeros(tokens.shape + (30,))
    np.put_along_axis(onehot, tokens[..., None], 1.0, axis=-1)
    _, lm = make_lm(vocab=30)
    assert np.array_equal(lm.embed_tokens(tokens).data, onehot @ lm.tok.data)
    _, enc = make_text_encoder(vocab=30)
    assert np.array_equal(enc.embed(tokens).data, onehot @ enc.tok.data + enc.pos[:4])


def test_pad_batch():
    tokens, lengths = pad_batch([[4, 5, 6], [7], np.array([8, 9])], pad_id=0)
    assert tokens.tolist() == [[4, 5, 6], [7, 0, 0], [8, 9, 0]]
    assert lengths.tolist() == [3, 1, 2]


GOLDEN_ZERO_IMAGE_DIGEST = "78e2ed1267d9c1ac5d9b67cdce134eaae43792a61ca63b1fa3eebad5dc31a5cb"
