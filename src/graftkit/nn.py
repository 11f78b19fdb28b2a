"""Neural building blocks: patch image encoder, transformer text encoder, and
the small decoder LM that is pretrained once and then served frozen.

All modules register their weights in a ParamRegistry under a name prefix, so
frozen-graft contracts can be checked by content digest per prefix.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import autograd as ag
from . import partworker, train
from .autograd import Parameter, Tape, Tensor
from .params import ParamRegistry, decode_field, load_checkpoint, save_checkpoint


def sinusoid_table(max_len: int, dim: int) -> np.ndarray:
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    i = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(i / 2.0) / dim)
    return np.where(i % 2 == 0, np.sin(angle), np.cos(angle))


def token_embedding(table: Tensor, pos: np.ndarray, tokens, start: int = 0) -> Tensor:
    """Embeddings of (..., L) ids: ``table`` rows plus ``pos[start:start + L]``."""
    tokens = np.asarray(tokens, dtype=np.int64)
    return ag.add(ag.take(table, tokens), Tensor(pos[start:start + tokens.shape[-1]]))


def next_token_targets(tokens, lengths, loss_starts) -> tuple[np.ndarray, np.ndarray]:
    """Shifted targets for (B, L) padded ids: position i predicts token i+1.

    Returns ((B, L) targets, (B, L) bool selection); a position is selected
    when the token it predicts is real and at or past its row's loss start.
    The final position has no next token and is never selected.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    b, l = tokens.shape
    targets = np.zeros((b, l), dtype=np.int64)
    targets[:, :-1] = tokens[:, 1:]
    tpos = np.arange(1, l + 1)[None, :]  # index of the predicted token
    selected = (tpos < np.asarray(lengths)[:, None]) & (tpos >= np.asarray(loss_starts)[:, None])
    selected &= tpos <= l - 1
    return targets, selected


def target_columns(selected) -> np.ndarray:
    """The columns of a (B, L) selection from the first one selected in any
    row to the last one, the only ones whose logits a loss reads."""
    cols = np.flatnonzero(np.any(selected, axis=0))
    if not cols.size:
        raise ValueError("cross_entropy mask selects no positions")
    return np.arange(cols[0], cols[-1] + 1)


def symmetric_cross_entropy(logits: Tensor) -> Tensor:
    """Symmetric InfoNCE over an (N, N) logit matrix whose diagonal holds the
    matched pairs: the mean of the row-wise and column-wise cross-entropies."""
    targets = np.arange(logits.shape[0])
    return ag.mul(ag.add(ag.cross_entropy(logits, targets),
                         ag.cross_entropy(ag.transpose(logits), targets)), Tensor(0.5))


class Linear:
    def __init__(self, reg: ParamRegistry, name: str, d_in: int, d_out: int, rng, scale=None):
        s = scale if scale is not None else 1.0 / np.sqrt(d_in)
        self.w = reg.param(f"{name}.w", rng.normal(0.0, s, (d_in, d_out)))
        self.b = reg.param(f"{name}.b", np.zeros(d_out))

    def __call__(self, x: Tensor) -> Tensor:
        return ag.linear(x, self.w, self.b)


class LayerNorm:
    def __init__(self, reg: ParamRegistry, name: str, dim: int):
        self.g = reg.param(f"{name}.g", np.ones(dim))
        self.b = reg.param(f"{name}.b", np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        return ag.layer_norm(x, self.g, self.b)


class MultiHeadAttention:
    """Multi-head attention with q/k/v/o projections.  The head split of each
    projection (``ag.split_heads``) and the merge of the heads before the
    output projection (``ag.merge_heads``) are one tape op each: a reshape
    and a transpose fused, with the inverse data movement as the VJP."""

    def __init__(self, reg, name, dim, n_heads, rng):
        if dim % n_heads:
            raise ValueError("heads must divide dim")
        self.dim, self.n_heads, self.dh = dim, n_heads, dim // n_heads
        self.q = Linear(reg, f"{name}.q", dim, dim, rng)
        self.k = Linear(reg, f"{name}.k", dim, dim, rng)
        self.v = Linear(reg, f"{name}.v", dim, dim, rng)
        self.o = Linear(reg, f"{name}.o", dim, dim, rng)

    def __call__(self, x_q: Tensor, x_kv: Tensor, mask=None, past=None) -> tuple[Tensor, tuple]:
        """Attention of the rows ``x_q`` (B, m, dim) over the keys of
        ``x_kv`` (B, l, dim), after the cached (keys, values) ``past`` (each
        (B, heads, n, dh)) when given, each row over the keys the
        ``ag.Visible`` ``mask`` says it sees (every key when None).  Either
        batch may be 1 and broadcast against the other.  Returns (output
        rows, (keys, values) of all n + l keys).
        Cached keys are plain arrays, so a call with ``past`` is inference
        only; ``past`` itself is kept."""
        q = ag.split_heads(self.q(x_q), self.n_heads)
        k = ag.split_heads(self.k(x_kv), self.n_heads)
        v = ag.split_heads(self.v(x_kv), self.n_heads)
        if past is not None:
            k = Tensor(np.concatenate([past[0], k.data], axis=2))
            v = Tensor(np.concatenate([past[1], v.data], axis=2))
        a = ag.sdpa(q, k, v, mask=mask)
        return self.o(ag.merge_heads(a)), (k.data, v.data)


class Mlp:
    def __init__(self, reg, name, dim, rng):
        self.fc1 = Linear(reg, f"{name}.fc1", dim, dim * 4, rng)
        self.fc2 = Linear(reg, f"{name}.fc2", dim * 4, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(ag.gelu(self.fc1(x)))


def self_attention_residual(ln: LayerNorm, attn: MultiHeadAttention, x: Tensor, mask, past,
                            rows) -> tuple[Tensor, tuple]:
    """(rows + their pre-LN self-attention, (keys, values)) of the rows ``x``
    after the cached ``past`` under ``mask`` (``MultiHeadAttention.__call__``).

    Given ``rows``, only the rows ``x[:, rows]`` are output: they alone go
    through the query path and the residual, while the keys and values still
    come from every row, and the description ``mask`` is narrowed to
    ``rows`` (``ag.Visible.rows``)."""
    h = ln(x)
    if rows is None:
        a, kv = attn(h, h, mask, past)
    else:
        mask = None if mask is None else mask.rows(rows)
        a, kv = attn(ag.take(h, rows, 1), h, mask, past)
        x = ag.take(x, rows, 1)
    return ag.add(x, a), kv


def mlp_residual(ln: LayerNorm, mlp: Mlp, x: Tensor) -> Tensor:
    """The rows ``x`` plus their pre-LN feed-forward."""
    return ag.add(x, mlp(ln(x)))


class TransformerBlock:
    """Pre-LN self-attention block."""

    def __init__(self, reg, name, dim, n_heads, rng):
        self.ln1 = LayerNorm(reg, f"{name}.ln1", dim)
        self.attn = MultiHeadAttention(reg, f"{name}.attn", dim, n_heads, rng)
        self.ln2 = LayerNorm(reg, f"{name}.ln2", dim)
        self.mlp = Mlp(reg, f"{name}.mlp", dim, rng)

    def __call__(self, x: Tensor, mask=None, past=None, rows=None) -> tuple[Tensor, tuple]:
        """(output rows, self-attention (keys, values)) of the rows ``x``
        after the cached ``past``; given ``rows``, of the rows ``x[:, rows]``
        alone (``self_attention_residual``)."""
        x, kv = self_attention_residual(self.ln1, self.attn, x, mask, past, rows)
        return mlp_residual(self.ln2, self.mlp, x), kv


# ---------------------------------------------------------------------------
# image encoder (patch embed + transformer; SupCon-encoder stand-in)


@dataclass
class ImageEncoderConfig:
    image_size: int = 64
    patch: int = 16
    dim: int = 64
    blocks: int = 2
    heads: int = 4

    @property
    def grid(self) -> int:
        return self.image_size // self.patch


class ImageEncoder:
    def __init__(self, reg: ParamRegistry, cfg: ImageEncoderConfig, rng):
        self.cfg = cfg
        flat = cfg.patch * cfg.patch
        self.embed1 = Linear(reg, "img_enc.embed1", flat, cfg.dim, rng)
        self.embed2 = Linear(reg, "img_enc.embed2", cfg.dim, cfg.dim, rng)
        self.blocks = [TransformerBlock(reg, f"img_enc.blk{i}", cfg.dim, cfg.heads, rng)
                       for i in range(cfg.blocks)]
        self.ln_out = LayerNorm(reg, "img_enc.ln_out", cfg.dim)
        self.pos = sinusoid_table(cfg.grid * cfg.grid, cfg.dim) * 0.1

    def patch_grid(self, images: np.ndarray) -> np.ndarray:
        """(B, H, W) -> (B, n_patches, patch*patch), row-major patch order."""
        b = images.shape[0]
        g, p = self.cfg.grid, self.cfg.patch
        if images.shape[1:] != (self.cfg.image_size, self.cfg.image_size):
            raise ValueError(f"expected {self.cfg.image_size}x{self.cfg.image_size} images")
        x = images.reshape(b, g, p, g, p).transpose(0, 1, 3, 2, 4)
        return np.ascontiguousarray(x.reshape(b, g * g, p * p))

    def patch_features(self, images: np.ndarray) -> Tensor:
        """Per-patch embeddings before positions and mixing (locality stage)."""
        patches = Tensor(self.patch_grid(images))
        return self.embed2(ag.gelu(self.embed1(patches)))

    def forward(self, images: np.ndarray) -> Tensor:
        x = ag.add(self.patch_features(images), Tensor(self.pos))
        for blk in self.blocks:
            x, _ = blk(x)
        return self.ln_out(x)

    def grid_tokens(self, images: np.ndarray, pooled_hw: int) -> np.ndarray:
        """(B, H, W) images -> (B, pooled_hw**2, dim) average-pooled grid
        tokens from one forward pass; inference only."""
        images = np.asarray(images, dtype=np.float64)
        g, b = self.cfg.grid, images.shape[0]
        grids = self.forward(images).data.reshape(b, g, g, self.cfg.dim)
        return pool_grid(grids, pooled_hw).reshape(b, -1, self.cfg.dim)


def pool_grid(grid: np.ndarray, out_hw: int = 2) -> np.ndarray:
    """Average-pool an (..., H, W, D) grid to (..., out_hw, out_hw, D) over
    equal windows; leading axes are batch axes."""
    *lead, h, w, d = grid.shape
    if h % out_hw or w % out_hw:
        raise ValueError("grid not divisible by pooled size")
    fh, fw = h // out_hw, w // out_hw
    return grid.reshape(*lead, out_hw, fh, out_hw, fw, d).mean(axis=(-4, -2))


# ---------------------------------------------------------------------------
# text encoder


@dataclass
class TextEncoderConfig:
    vocab_size: int = 0
    dim: int = 64
    blocks: int = 2
    heads: int = 4

    max_len = 128  # positional-table rows; CLIP cuts its texts to ClipConfig.text_max_len


class TextEncoder:
    def __init__(self, reg: ParamRegistry, cfg: TextEncoderConfig, rng):
        self.cfg = cfg
        self.tok = reg.param("txt_enc.tok", rng.normal(0.0, 0.02, (cfg.vocab_size, cfg.dim)))
        self.blocks = [TransformerBlock(reg, f"txt_enc.blk{i}", cfg.dim, cfg.heads, rng)
                       for i in range(cfg.blocks)]
        self.ln_out = LayerNorm(reg, "txt_enc.ln_out", cfg.dim)
        self.pos = sinusoid_table(cfg.max_len, cfg.dim) * 0.02

    def forward(self, tokens: np.ndarray, lengths) -> Tensor:
        """(B, d) unit-norm mean-pooled embeddings of the B texts of the (B, L)
        padded ids ``tokens`` and their ``lengths`` (``check_lengths``), each
        1 to ``max_len`` tokens.

        The texts run packed (``pack_texts``) into rows as wide as the
        longest, each token over its own text only, so few padded positions
        run (11% against 48% padded, on CLIP's 16-report batches; rows twice
        as wide ran no faster).  Each text is then pooled by one product
        with its mean weights over the packed positions."""
        tokens = np.asarray(tokens, dtype=np.int64)
        lengths = check_lengths(lengths, tokens.shape)
        if np.any(lengths < 1):
            raise ValueError("empty token sequence")
        if np.any(lengths > self.cfg.max_len):
            raise ValueError(f"every text needs 1 to max_len = {self.cfg.max_len} tokens; got "
                             f"one of {int(lengths.max())}")
        slot, positions, visible = pack_texts(lengths, int(lengths.max()))
        ids = np.zeros(positions.size, dtype=np.int64)  # a row's tail: any id will do
        ids[slot] = tokens[np.arange(tokens.shape[1]) < lengths[:, None]]
        x = ag.add(ag.take(self.tok, ids.reshape(positions.shape)), Tensor(self.pos[positions]))
        for blk in self.blocks:
            x, _ = blk(x, visible)
        x = self.ln_out(x)
        weights = np.zeros((len(lengths), positions.size))
        text = np.repeat(np.arange(len(lengths)), lengths)
        weights[text, slot] = 1.0 / lengths[text]
        pooled = ag.matmul(Tensor(weights), ag.reshape(x, (positions.size, x.shape[-1])))
        return ag.l2_normalize(pooled)


def pack_texts(lengths, width: int) -> tuple[np.ndarray, np.ndarray, ag.Visible]:
    """Texts of ``lengths`` (each at most ``width``) packed first-fit
    decreasing (ties by text index) into rows of ``width`` slots: each text
    one contiguous span of one row, its positions restarting at 0.

    Returns (slot, positions, visible): the flat slot of each token of each
    text in turn, (sum of lengths,); each slot's position, (rows, width), 0
    in a row's unused tail; and the ``ag.Visible`` of a pass over the rows,
    cols and gap (rows, 1, width), under which a token of the span [a, b)
    sees [a, b) only (cols b - 1, gap [0, a)).  A row's tail is one more
    such span."""
    lengths = np.asarray(lengths, dtype=np.int64)
    free = np.full(len(lengths), width)  # no more rows than texts
    start = np.empty_like(lengths)  # each text's first slot
    for i in np.argsort(-lengths, kind="stable"):
        r = int(np.argmax(free >= lengths[i]))  # rows open in order: the first with room
        start[i] = r * width + width - free[r]
        free[r] -= lengths[i]
    n_rows = int(np.count_nonzero(free < width))
    first = np.repeat(start, lengths)
    pos = np.arange(first.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    slot = first + pos
    # each slot's span [a, b) in its row: its text's, else its row's tail
    a = np.repeat(width - free[:n_rows], width)
    b = np.full(n_rows * width, width)
    a[slot] = first % width
    b[slot] = a[slot] + np.repeat(lengths, lengths)
    positions = np.zeros(n_rows * width, dtype=np.int64)
    positions[slot] = pos
    shape = (n_rows, 1, width)
    return (slot, positions.reshape(n_rows, width),
            ag.Visible((b - 1).reshape(shape), (0, a.reshape(shape))))


# ---------------------------------------------------------------------------
# decoder LM (frozen-LLM stand-in)


@dataclass
class LmConfig:
    vocab_size: int = 0
    dim: int = 96
    blocks: int = 4
    heads: int = 2
    max_len: int = 448
    soft_slots: int = 8  # [IMG] placeholder count matching the adapter's query count
    pad_id: int = 0
    eos_id: int = 3
    img_id: int = 6


class DecoderLM:
    def __init__(self, reg: ParamRegistry, cfg: LmConfig, rng):
        self.reg = reg
        self.cfg = cfg
        self.tok = reg.param("lm.tok", rng.normal(0.0, 0.02, (cfg.vocab_size, cfg.dim)))
        self.blocks = [TransformerBlock(reg, f"lm.blk{i}", cfg.dim, cfg.heads, rng)
                       for i in range(cfg.blocks)]
        self.ln_out = LayerNorm(reg, "lm.ln_out", cfg.dim)
        self.head = Linear(reg, "lm.head", cfg.dim, cfg.vocab_size, rng, scale=0.02)
        self.pos = sinusoid_table(cfg.max_len, cfg.dim) * 0.02

    # -- plumbing

    def params(self) -> list[Parameter]:
        return self.reg.select("lm.")

    @property
    def frozen(self) -> bool:
        return all(p.frozen for p in self.params())

    def freeze(self) -> None:
        self.reg.freeze("lm.")

    def digest(self) -> str:
        return self.reg.combined_digest("lm.")

    def versions(self) -> tuple[int, ...]:
        """The LM parameters' ``version``s: a decoding state is valid only at
        the versions it was built at (``LmState.versions``)."""
        return self.reg.versions("lm.")

    def check_current(self, state: LmState) -> None:
        """Refuse a decoding state built at other parameter versions."""
        if state.versions != self.versions():
            raise ValueError("decoding state was built at other LM parameter versions: the "
                             "LM's values were written since")

    def embed_tokens(self, tokens: np.ndarray) -> Tensor:
        return ag.take(self.tok, tokens)

    def _embed(self, soft: Tensor | None, tokens) -> Tensor:
        """(B, S + L, dim) embeddings of [soft prompts (B, S, dim) || tokens (B, L)]."""
        tokens = np.asarray(tokens, dtype=np.int64)
        parts = [] if soft is None else [soft]
        if tokens.shape[1]:
            parts.append(self.embed_tokens(tokens))
        return ag.concat(parts, axis=1) if len(parts) > 1 else parts[0]

    def _forward(self, emb: Tensor, positions, gap=None, past=None,
                 last=None) -> tuple[Tensor, list]:
        """The LM over embedded rows ``emb`` (B, m, dim) at ``positions``
        ((m,) or (B, m)), after the cached per-block (keys, values) ``past``
        (None, or None per block: nothing cached).  Row i sees keys 0..n + i
        except the span ``gap`` (``ag.Visible``): the blocks share one
        description, so long rows without a gap attend over the key tiles
        they can see only, and the others share one dense mask.  Returns
        (logits, per-block (keys, values) of all n + m rows); the logits are
        (B, m, vocab), or (B, len(last), vocab) of the columns ``last`` alone:
        the final block then runs its query path, residual and MLP on those
        columns only (``TransformerBlock.__call__``'s ``rows``).  Training is
        the taped call without ``past``."""
        top = int(np.max(positions)) + 1
        if top > self.cfg.max_len:
            raise ValueError(f"sequence length {top} exceeds LM max_len {self.cfg.max_len}")
        past = (None,) * len(self.blocks) if past is None else past
        n = 0 if past[0] is None else past[0][0].shape[2]
        causal = ag.Visible(np.arange(n, n + emb.shape[1]), gap)
        x = ag.add(emb, Tensor(self.pos[positions]))
        kv = []
        for blk, blk_past in zip(self.blocks, past):
            x, blk_kv = blk(x, causal, blk_past, last if blk is self.blocks[-1] else None)
            kv.append(blk_kv)
        return self.head(self.ln_out(x)), kv

    def batch_loss(self, tokens: np.ndarray, lengths, loss_starts) -> Tensor:
        """Mean next-token cross-entropy over token positions >= loss_start,
        pads excluded.  Position i predicts token i+1.  Logits are computed
        for the columns from the first selected position of any row to the
        last one (``target_columns``); unselected positions among them are
        masked out.  No key is masked: a selected position precedes its
        row's padding, which the causal rule already hides from it."""
        tokens = np.asarray(tokens, dtype=np.int64)
        b, l = tokens.shape
        targets, sel = next_token_targets(tokens, lengths, loss_starts)
        cols = target_columns(sel)
        logits, _ = self._forward(self.embed_tokens(tokens), np.arange(l), last=cols)
        return ag.cross_entropy(ag.reshape(logits, (b * len(cols), self.cfg.vocab_size)),
                                targets[:, cols].reshape(-1),
                                mask=sel[:, cols].reshape(-1).astype(np.float64))

    # -- the gradient-server contract

    def soft_prompt_loss(self, soft: Tensor, prompts, targets) -> Tensor:
        """Mean over rows of each row's mean target cross-entropy, for the rows
        [soft prompts (S, dim) || prompt || target] of a (B, S, dim) batch.

        A row's targets each weigh 1 / its target count, scaled so the rows
        with the most weigh 1: a single row is the plain target mean, bitwise.
        """
        if soft.ndim != 3 or soft.shape[1] < 1 or soft.shape[2] != self.cfg.dim:
            raise ValueError(f"soft prompts must be (B, S >= 1, {self.cfg.dim})")
        b, s = soft.shape[:2]
        if len(prompts) != b or len(targets) != b or not all(len(t) for t in targets):
            raise ValueError("need one prompt and one non-empty target per soft-prompt row")
        hard, lengths = pad_batch([[*p, *t] for p, t in zip(prompts, targets)], self.cfg.pad_id)
        # the soft slots get pad placeholders; they are never predicted
        tokens = np.concatenate([np.full((b, s), self.cfg.pad_id), hard], axis=1)
        tgt, sel = next_token_targets(tokens, s + lengths, [s + len(p) for p in prompts])
        n = sel.sum(axis=1)
        l = tokens.shape[1]
        cols = target_columns(sel)
        logits, _ = self._forward(self._embed(soft, hard), np.arange(l), last=cols)
        weights = sel[:, cols] * (n.max() / n)[:, None]
        return ag.cross_entropy(ag.reshape(logits, (weights.size, self.cfg.vocab_size)),
                                tgt[:, cols].reshape(-1), mask=weights.reshape(-1))

    def lm_loss_and_grad(self, soft_prompts: np.ndarray, prompt_ids, target_ids):
        """(loss, d loss / d soft_prompts) for one (S, dim) soft prompt; the
        LM itself receives no gradient.

        Loss is the mean cross-entropy over the target positions only.
        """
        if not self.frozen:
            raise RuntimeError("LM must be frozen before serving gradients")
        leaf = Parameter("_soft_prompt", np.asarray(soft_prompts, dtype=np.float64)[None])
        with Tape() as tape:
            loss = self.soft_prompt_loss(leaf, [prompt_ids], [target_ids])
        return float(loss.data), tape.gradients(loss)["_soft_prompt"][0]

    # -- incremental decoding (no tape)

    def prefill(self, soft_prompts, prompts, prefix: LmState | None = None) -> LmState:
        """The decoding state of the rows [soft prompts (S, dim) || ids], one
        per id sequence in ``prompts``.

        Given ``prefix``, a one-row state built from the same soft prompts,
        its rows up to the longest prefix that every prompt shares with it are
        reused, keeping at least one token of each prompt to run
        (``LmState.cut``); a prefix that holds the prompt itself and its
        logits is the state, and nothing runs.  A prefix built at other
        parameter versions of the LM is refused.  The rest of all prompts runs
        as one packed sequence: each prompt sees the reused rows and its own
        earlier tokens, at its own positions, the prompts packed before it
        being its gap.
        """
        soft = None if soft_prompts is None else np.asarray(soft_prompts, dtype=np.float64)
        if soft is not None and (soft.ndim != 2 or soft.shape[0] < 1
                                 or soft.shape[1] != self.cfg.dim):
            raise ValueError(f"soft prompts must be (S >= 1, {self.cfg.dim}), "
                             f"got shape {soft.shape}")
        prompts = tuple(tuple(int(i) for i in p) for p in prompts)
        if not prompts:
            raise ValueError("prefill needs at least one prompt")
        if soft is None and not all(prompts):
            raise ValueError("nothing to decode from: no soft prompts (shape None) and 0 "
                             "prompt ids")
        if prefix is not None and ((prefix.soft is None) != (soft is None) or (
                soft is not None and not np.array_equal(prefix.soft, soft))):
            raise ValueError("prefix state was built from other soft prompts")
        if prefix is not None:
            self.check_current(prefix)
        versions = self.versions()
        if prefix is not None and prefix.logits is not None and prefix.ids == prompts:
            return prefix
        if prefix is not None and all(prompts):
            n = min(min(_common_prefix(prefix.ids[0], p), len(p) - 1) for p in prompts)
            base = prefix.cut(n)
            parts = [self.embed_tokens(np.asarray(p[n:], dtype=np.int64)[None])
                     for p in prompts]
        else:
            base = LmState(soft, ((),), (None,) * len(self.blocks), None, None, versions)
            soft_t = None if soft is None else Tensor(soft[None])
            parts = [self._embed(soft_t, [p]) for p in prompts]
        n0, sizes = base.length, np.array([e.shape[1] for e in parts])
        starts = np.cumsum(sizes) - sizes  # where each sequence starts in the packed one
        seg = np.repeat(np.arange(len(sizes)), sizes)
        gap = None if len(parts) == 1 else (n0, n0 + starts[seg])
        logits, kv = self._forward(parts[0] if len(parts) == 1 else ag.concat(parts, 1),
                                   (n0 + np.arange(len(seg)) - starts[seg])[None], gap,
                                   past=base.kv, last=starts + sizes - 1)
        logits = logits.data.reshape(-1, self.cfg.vocab_size)
        if len(parts) > 1:  # unpack the sequences into right-padded rows, their padding a gap
            width = sizes.max()
            cols = np.minimum(np.arange(width), sizes[:, None] - 1) + starts[:, None]
            cols = np.concatenate([np.tile(np.arange(n0), (len(sizes), 1)), n0 + cols], axis=1)
            kv = [(k[0][:, cols].transpose(1, 0, 2, 3), v[0][:, cols].transpose(1, 0, 2, 3))
                  for k, v in kv]
            gap = (n0 + sizes[:, None, None], n0 + width)
        return LmState(soft, prompts, tuple(kv), logits, gap, versions)

    def extend(self, state: LmState, tokens) -> tuple[LmState, np.ndarray]:
        """(state after each row's ``tokens`` (B, m), the next-token logits
        (B, vocab) after each row); ``state`` itself is kept, so one state can
        fork into many.  A state built at other parameter versions of the LM
        is refused."""
        self.check_current(state)
        tokens = np.asarray(tokens, dtype=np.int64)
        m = tokens.shape[1]
        if m < 1:
            raise ValueError("extend needs at least one token")
        logits, kv = self._forward(self.embed_tokens(tokens),
                                   state.lengths[:, None] + np.arange(m), state.gap,
                                   past=state.kv, last=[m - 1])
        logits = logits.data.reshape(-1, self.cfg.vocab_size)
        ids = tuple(r + tuple(t) for r, t in zip(state.ids, tokens.tolist()))
        return LmState(state.soft, ids, tuple(kv), logits, state.gap, state.versions), logits

    def decode(self, state: LmState, max_new: int = 64) -> list[list[int]]:
        """Greedy tokens for every row of ``state`` (``prefill``), decoded in
        lockstep on the K/V cache; each row stops on its own at [EOS], after
        ``max_new`` tokens or when its context is full.  A state built at
        other parameter versions of the LM is refused."""
        self.check_current(state)

        def step(keep: list[bool], tokens: list[int]) -> np.ndarray:
            nonlocal state
            if not all(keep):
                state = state.rows(np.array(keep))
            state, logits = self.extend(state, [[t] for t in tokens])
            return logits

        return greedy_decode(state.logits, step, self.cfg.eos_id, max_new,
                             self.cfg.max_len - state.lengths)

    def generate(self, soft_prompts, prompt_ids, max_new: int = 64,
                 prefix: LmState | None = None) -> list[int]:
        """Greedy decode of one prompt: ``decode`` of a one-row ``prefill``
        (forked from ``prefix`` when given)."""
        return self.decode(self.prefill(soft_prompts, [prompt_ids], prefix), max_new)[0]


def _common_prefix(a, b) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


@dataclass(frozen=True, eq=False)
class LmState:
    """B decoding rows over one set of soft prompts: per-block (keys, values),
    each (B, heads, n, dh), where row b holds [soft prompts || ids[b]]
    right-padded to n, and the next-token logits (B, vocab) after each row
    (None once cut), built at the LM parameters' ``versions``
    (``DecoderLM.versions``).  Row b's padding is the key span [lo[b], hi)
    of ``gap = (lo (B, 1, 1), hi)``, hidden from every later token of the
    row (``ag.Visible``); it is fixed as the rows grow, and None for one
    unpacked row.  States are never mutated."""

    soft: np.ndarray | None
    ids: tuple[tuple[int, ...], ...]
    kv: tuple
    logits: np.ndarray | None
    gap: tuple | None
    versions: tuple[int, ...]

    @property
    def length(self) -> int:
        """Cached columns per row, padding included."""
        return 0 if self.kv[0] is None else self.kv[0][0].shape[2]

    @property
    def lengths(self) -> np.ndarray:
        """Each row's sequence length, the position of its next token."""
        s = 0 if self.soft is None else len(self.soft)
        return np.array([s + len(r) for r in self.ids])

    def cut(self, n_ids: int) -> LmState:
        """The one-row state of [soft prompts || ids[:n_ids]], exact because
        no row attends to a later one under the causal mask."""
        if len(self.ids) != 1:
            raise ValueError(f"only a one-row state can be cut, not one of {len(self.ids)} rows")
        n = self.length - len(self.ids[0]) + n_ids
        return LmState(self.soft, (self.ids[0][:n_ids],),
                       tuple((k[:, :, :n], v[:, :, :n]) for k, v in self.kv), None, None,
                       self.versions)

    def rows(self, keep: np.ndarray) -> LmState:
        """The rows where the boolean ``keep`` is set."""
        return LmState(self.soft, tuple(r for r, k in zip(self.ids, keep) if k),
                       tuple((k[keep], v[keep]) for k, v in self.kv), self.logits[keep],
                       None if self.gap is None else (self.gap[0][keep], self.gap[1]),
                       self.versions)


def greedy_decode(logits: np.ndarray, step: Callable[[list, list], np.ndarray],
                  eos_id: int, max_new: int, room) -> list[list[int]]:
    """Greedy tokens for each row of the (B, vocab) next-token ``logits``, in
    lockstep.  ``step(keep, tokens)`` drops the rows last stepped (all B at
    first) whose entry in the list of booleans ``keep`` is False, runs the
    chosen ``tokens``, one per kept row, and returns their (kept rows, vocab)
    logits.  Row b stops at ``eos_id``, after ``max_new`` tokens, or once
    ``room[b]`` tokens fill its context (its first token is kept even when
    there is no room)."""
    room = np.broadcast_to(room, len(logits)).tolist()
    out: list[list[int]] = [[] for _ in range(len(logits))]
    live = list(range(len(logits)))
    while max_new > 0 and live:
        keep, tokens = [], []
        for b, nxt in zip(live, logits.argmax(axis=-1).tolist()):
            if nxt != eos_id:
                out[b].append(nxt)
            keep.append(nxt != eos_id and len(out[b]) < max_new and len(out[b]) < room[b])
            if keep[-1]:
                tokens.append(nxt)
        live = [b for b, k in zip(live, keep) if k]
        if live:
            logits = step(keep, tokens)
    return out


def save_lm(lm: DecoderLM, path) -> dict:
    return save_checkpoint(lm.reg, path, meta={"kind": "lm", "config": asdict(lm.cfg)})


def load_lm(path) -> DecoderLM:
    """The LM checkpoint at ``path``; ``load_checkpoint``'s refusals, and its
    meta must hold an LmConfig ``config``."""
    meta, values, frozen = load_checkpoint(path, "lm")
    reg = ParamRegistry()
    lm = DecoderLM(reg, decode_field(path, "meta", meta, "config", LmConfig),
                   np.random.default_rng(0))
    reg.load_values(values, frozen)
    return lm


# ---------------------------------------------------------------------------
# LM pretraining


@dataclass
class LmTrainConfig:
    steps: int = 3000
    lr: float = 3e-4

    batch_size = 8
    long_batch_size = 4     # used for sequences past this length...
    long_threshold = 200    # ...whose attention still grows as length^2 (query tiles: ag.sdpa)
    beta1 = 0.9             # Adam's other settings are its defaults
    target_perplexity = 3.0


def _make_batches(dataset, cfg: LmTrainConfig, rng):
    """Length-sorted batches, order shuffled; yields index arrays forever."""
    order = np.argsort([len(seq) for seq, _ in dataset], kind="stable")
    batches = []
    i = 0
    while i < len(order):
        seq_len = len(dataset[order[i]][0])
        bs = cfg.long_batch_size if seq_len > cfg.long_threshold else cfg.batch_size
        batches.append(order[i : i + bs])
        i += bs
    while True:
        for j in rng.permutation(len(batches)):
            yield batches[j]


def pad_batch(seqs, pad_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Token sequences -> ((B, max len) ids right-padded with ``pad_id``, lengths)."""
    lengths = np.asarray([len(s) for s in seqs])
    tokens = np.full((len(seqs), lengths.max()), pad_id, dtype=np.int64)
    tokens[np.arange(tokens.shape[1]) < lengths[:, None]] = np.concatenate(seqs)
    return tokens, lengths


def check_lengths(lengths, shape) -> np.ndarray:
    """``lengths`` as an int array, refused unless it holds one length of at
    most L per row of a (B, L) batch of padded ids of ``shape``: a single
    length or one past L would otherwise broadcast, or read as unpadded."""
    lengths = np.asarray(lengths, dtype=np.int64)
    b, l = shape
    if lengths.shape != (b,) or np.any(lengths > l):
        raise ValueError(f"need one length of at most {l} per text row ({b}); got "
                         f"{lengths.tolist()}")
    return lengths


def _pad_batch(dataset, idx, pad_id):
    tokens, lengths = pad_batch([dataset[i][0] for i in idx], pad_id)
    return tokens, lengths, np.asarray([dataset[i][1] for i in idx])


def eval_lm_loss(lm: DecoderLM, dataset) -> float:
    """Mean per-token loss over a non-empty dataset, in batches of 8 (no tape)."""
    if not len(dataset):
        raise ValueError("eval_lm_loss: the dataset is empty")
    total, count = 0.0, 0
    for i in range(0, len(dataset), 8):
        idx = list(range(i, min(i + 8, len(dataset))))
        tokens, lengths, starts = _pad_batch(dataset, idx, lm.cfg.pad_id)
        loss = lm.batch_loss(tokens, lengths, starts)
        n = int(next_token_targets(tokens, lengths, starts)[1].sum())
        total += float(loss.data) * n
        count += n
    return total / count


def _check_lm_training(dataset, cfg: LmTrainConfig, max_len: int, holdout=None) -> None:
    """Reject input on which ``pretrain_lm`` would spin forever or fail
    mid-run, rows longer than the LM's ``max_len`` included."""
    train.check_steps(cfg, "steps", least=0)
    if not len(dataset):
        raise ValueError("LM training dataset is empty")
    for name, rows in (("dataset", dataset), ("holdout", holdout or [])):
        for i, (seq, start) in enumerate(rows):
            if len(seq) <= max(start, 1):  # targets are tokens 1.. len-1 at or past loss_start
                raise ValueError(f"{name}[{i}]: loss_start {start} selects no target "
                                 f"in a sequence of {len(seq)} tokens")
            if len(seq) > max_len:
                raise ValueError(f"{name}[{i}]: sequence length {len(seq)} exceeds LM "
                                 f"max_len {max_len}")


def _part_grads(lm: DecoderLM, part, total: int) -> tuple[float, dict[str, np.ndarray]]:
    """(loss share, gradients) of one part ``(tokens, lengths, starts)`` of a
    batch: the part's token-loss sum over ``total``, the whole batch's target
    count, and its gradient.  A part that selects no target adds nothing."""
    tokens, lengths, starts = part
    n = int(next_token_targets(tokens, lengths, starts)[1].sum())
    if n == 0:
        return 0.0, {}
    with Tape() as tape:
        loss = ag.mul(lm.batch_loss(tokens, lengths, starts), Tensor(n / total))
    return float(loss.data), tape.gradients(loss)


def _lm_part(lm: DecoderLM, batch, i: int) -> tuple[float, dict[str, np.ndarray]]:
    """Part i of a batch ``(parts, total)`` (``_part_grads``)."""
    parts, total = batch
    return _part_grads(lm, parts[i], total)


_LM_PARTS = partworker.PartKind("LM", _lm_part)


def _batch_grads(lm: DecoderLM, dataset, idx) -> tuple[float, dict[str, np.ndarray], dict]:
    """Mean target loss of the batch ``idx``, its gradient, and how many of
    its parts each process computed: ``{"parent": n, "worker": m}``.

    The batch is computed as parts of ``ceil(B / partworker.MAX_PARTS)``
    consecutive rows, each padded on its own, shared with the LM's worker
    process and added in part order (``partworker.run_parts``).
    """
    size = -(-len(idx) // partworker.MAX_PARTS)
    parts = [_pad_batch(dataset, idx[i:i + size], lm.cfg.pad_id)
             for i in range(0, len(idx), size)]
    total = sum(int(next_token_targets(*part)[1].sum()) for part in parts)
    if total == 0:
        raise ValueError("LM batch selects no target positions")
    losses, grads, split = partworker.run_parts(_LM_PARTS, lm, (parts, total), len(parts))
    return sum(losses), grads, split


def pretrain_lm(lm: DecoderLM, dataset, cfg: LmTrainConfig, seed: int = 0,
                holdout=None, log=None) -> dict:
    """Train the decoder LM, verify held-out perplexity, then freeze it.

    ``dataset`` is a list of (token ids, loss_start); ``holdout`` a separate
    list evaluated for the perplexity gate (report sequences).  Input on
    which training cannot make progress, a held-out row without a target, or
    a row of either longer than the LM's ``max_len``, raises ``ValueError``
    before any step.

    Each step's loss is the mean over the target tokens of a length-sorted
    batch of B rows, computed as fixed parts of ``ceil(B / 8)`` consecutive
    rows (so at most eight).  Each part's gradient is that of its token-loss
    sum divided by the whole batch's target count; the parts are added in
    row order and one Adam step is taken.  A one-row batch is one part, and
    its factor is exactly 1.0.  Adam, the batches and that step go to
    ``train.run``, which runs the loop.

    When at least two cores are available, the LM's worker process shares
    each step's parts with this one (``partworker``); the trained bits
    depend neither on which process computed which part nor on the core
    count.

    The stats hold ``parts``: how many parts this process and the worker
    computed, summed over the steps.
    """
    from .optim import Adam

    _check_lm_training(dataset, cfg, lm.cfg.max_len, holdout)
    split = {"parent": 0, "worker": 0}

    def step(idx):
        loss, grads, step_split = _batch_grads(lm, dataset, idx)
        for side, n in step_split.items():
            split[side] += n
        return {"loss": loss}, grads

    opt = Adam(lm.params(), lr=cfg.lr, beta1=cfg.beta1)
    batches = _make_batches(dataset, cfg, np.random.default_rng(seed))
    history = [h["loss"] for h in train.run("lm", opt, batches, step, cfg.steps, log)[0]]
    stats = {"final_train_loss": history[-1] if history else float("nan"),
             "history_head": history[:5], "parts": split}
    if holdout:
        held = eval_lm_loss(lm, holdout)
        stats["holdout_loss"] = held
        stats["holdout_perplexity"] = float(np.exp(held))
    lm.freeze()
    return stats
