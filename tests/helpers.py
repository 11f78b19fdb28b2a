"""Shared test helpers: the finite-difference gradient oracle, a summing
tape op, the one-tape phase-1 step, a corpus prevalence fixture, the padded
text-encoder forward that packing replaced, and the additive-mask attention
that ``ag.Visible`` replaced, both kept as the references they must match."""

import numpy as np

from graftkit import autograd as ag
from graftkit import templates as T
from graftkit.autograd import NEG_INF, Parameter, Tape, Tensor
from graftkit.nn import token_embedding
from graftkit.qformer import MODES, _phase1_objective

# a corpus with two findings only, each near half the studies
TWO_FINDING_PREVALENCE = {k: 0.0 for k in T.KINDS} | {"effusion": 0.55, "cardiomegaly": 0.45}


def finite_diff_check(f, params, step: float = 1e-5, max_coords: int = 40, seed: int = 0) -> float:
    """Compare ``Tape.gradients`` against central differences on sampled coordinates.

    ``f`` maps the live values of ``params`` to a scalar Tensor.  Frozen
    parameters receive no AD gradient and are excluded from the comparison.
    Returns max over sampled coordinates of |g_ad - g_fd| / max(1, |g_fd|).
    """
    params = list(params)
    with Tape() as tape:
        loss = f()
    grads = tape.gradients(loss)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for p in params:
        if not isinstance(p, Parameter) or p.frozen:
            continue
        g_ad = grads.get(p.name)
        if g_ad is None:
            g_ad = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        n = flat.size
        coords = np.arange(n) if n <= max_coords else rng.choice(n, size=max_coords, replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + step
            plus = float(f().data)
            flat[c] = orig - step
            minus = float(f().data)
            flat[c] = orig
            g_fd = (plus - minus) / (2.0 * step)
            err = abs(g_ad.reshape(-1)[c] - g_fd) / max(1.0, abs(g_fd))
            worst = max(worst, err)
    return worst


def reduce_sum(x: Tensor, axis=None) -> Tensor:
    """The sum of ``x`` over ``axis`` (every axis when None) as a tape op,
    whose VJP broadcasts the output gradient back to ``x``'s shape: the
    scalar a gradient test differentiates."""
    out = Tensor(np.asarray(np.add.reduce(x.data, axis=axis)))

    def vjp(g):
        ge = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(ge, x.shape).astype(np.float64),)

    return ag._record(out, (x,), vjp)


def padded_text_forward(enc, tokens, lengths) -> tuple[Tensor, Tensor]:
    """``TextEncoder.forward`` as it ran before it packed its texts: each
    text in its own row of the (B, L) padded batch, over its own real keys,
    then mean-pooled over its real positions.  Returns ((B, L, d) per-token
    outputs, (B, d) pooled unit-norm embeddings)."""
    tokens = np.asarray(tokens, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    visible = ag.Visible((lengths - 1)[:, None, None])
    x = token_embedding(enc.tok, enc.pos, tokens)
    for blk in enc.blocks:
        x, _ = blk(x, visible)
    x = enc.ln_out(x)
    weights = np.where(np.arange(tokens.shape[1])[None, :] < lengths[:, None],
                       1.0 / lengths[:, None], 0.0)
    pooled = reduce_sum(ag.mul(x, Tensor(weights[..., None])), axis=1)
    return x, ag.l2_normalize(pooled)


def phase1_step_oracle(model, batch) -> tuple[float, dict[str, np.ndarray]]:
    """The phase-1 step as one graph: (ITC + ITG) + ITM on one tape over a
    batch ``(grids, cls batch, itg batch, mismatch)``, and its gradients."""
    with Tape() as tape:
        l_itc, l_itg, l_itm = (_phase1_objective(model, batch, i) for i in range(3))
        total = ag.add(ag.add(l_itc, l_itg), l_itm)
    return float(total.data), tape.gradients(total)


# ---------------------------------------------------------------------------
# additive masks and the attention under them, as the models used them
# before ``ag.sdpa`` took an ``ag.Visible`` description only


def key_padding_mask(lengths, max_len: int) -> np.ndarray:
    """(B, 1, 1, L) additive mask hiding padded key positions."""
    lengths = np.asarray(lengths)
    cols = np.arange(max_len)[None, :]
    return np.where(cols < lengths[:, None], 0.0, NEG_INF)[:, None, None, :]


def lm_mask(m: int, n: int = 0, lengths=None) -> np.ndarray:
    """The LM's causal triangle of ``m`` rows after ``n`` cached keys and,
    given ``lengths``, the key-padding mask added to it."""
    mask = np.triu(np.full((m, n + m), NEG_INF), k=n + 1)
    return mask if lengths is None else mask + key_padding_mask(lengths, n + m)


def packed_text_reference(lengths, width: int) -> tuple[list[int], np.ndarray]:
    """Texts of ``lengths`` packed first-fit decreasing (ties by index) into
    rows of ``width``, by brute force: (each text's first flat slot, the
    (rows, 1, width, width) additive block-diagonal mask under which a slot
    sees the slots of its own text only, and a row's unused tail its tail)."""
    order = sorted(range(len(lengths)), key=lambda i: (-lengths[i], i))
    used, starts = [], [0] * len(lengths)
    for i in order:
        row = next((r for r, u in enumerate(used) if u + lengths[i] <= width), len(used))
        if row == len(used):
            used.append(0)
        starts[i] = row * width + used[row]
        used[row] += lengths[i]
    segment = np.full((len(used), width), -1)  # a tail is segment -1 - row
    for row, u in enumerate(used):
        segment[row, u:] = -1 - row
    for i, n in enumerate(lengths):
        segment.reshape(-1)[starts[i]:starts[i] + n] = i
    mask = np.where(segment[:, :, None] == segment[:, None, :], 0.0, NEG_INF)
    return starts, mask[:, None]


def mode_mask(mode: str, n_q: int, lengths, l_text: int) -> np.ndarray:
    """The Q-Former's additive (B, 1, M, M) mode table over [queries || text]:
    queries never see text; in "itc" text never sees queries; in "itg" text
    is causal over itself; then the text's key padding."""
    assert mode in MODES
    m = n_q + l_text
    base = np.zeros((m, m))
    q, t = slice(0, n_q), slice(n_q, m)
    if mode == "itc":
        base[q, t] = NEG_INF
        base[t, q] = NEG_INF
    elif mode == "itg":
        base[q, t] = NEG_INF
        base[t, t] = lm_mask(l_text)
    mask = base[None, None]
    if lengths is not None and l_text:
        mask = mask + np.pad(key_padding_mask(lengths, l_text), [(0, 0)] * 3 + [(n_q, 0)])
    return mask


def _ref_weights(q, k, mask):
    """(attention weights, scale) of the arrays ``q``, ``k`` under the
    additive ``mask`` (or None)."""
    sc = 1.0 / np.sqrt(q.shape[-1])
    att = np.matmul(q, np.swapaxes(k, -1, -2))
    att *= sc
    if mask is not None:
        att += mask
    att -= att.max(axis=-1, keepdims=True)
    np.exp(att, out=att)
    att /= att.sum(axis=-1, keepdims=True)
    return att, sc


def ref_sdpa_vjp(q, k, v, mask, g):
    """(output, (gq, gk, gv)) of attention over the arrays ``q``, ``k``,
    ``v`` under the additive ``mask`` (or None), for the output gradient
    ``g``; the gradients keep the broadcast batch."""
    att, sc = _ref_weights(q, k, mask)
    out = np.matmul(att, v)
    gv = np.matmul(np.swapaxes(att, -1, -2), g)
    g_logits = np.matmul(g, np.swapaxes(v, -1, -2))
    g_logits -= (g * out).sum(axis=-1, keepdims=True)
    g_logits *= att
    g_logits *= sc
    return out, (np.matmul(g_logits, k), np.matmul(np.swapaxes(g_logits, -1, -2), q), gv)


def ref_sdpa(q: Tensor, k: Tensor, v: Tensor, mask=None) -> Tensor:
    """``ref_sdpa_vjp`` as a tape op: attention under an additive mask, each
    gradient summed back to its input's shape."""
    out = Tensor(np.matmul(_ref_weights(q.data, k.data, mask)[0], v.data))

    def vjp(g):
        grads = ref_sdpa_vjp(q.data, k.data, v.data, mask, g)[1]
        return tuple(ag._unbroadcast(gr, t.shape) for gr, t in zip(grads, (q, k, v)))

    return ag._record(out, (q, k, v), vjp)
