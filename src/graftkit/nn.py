"""Neural building blocks: patch image encoder, transformer text encoder, and
the small decoder LM that is pretrained once and then served frozen.

All modules register their weights in a ParamRegistry under a name prefix, so
frozen-graft contracts can be checked by content digest per prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Parameter, Tape, Tensor
from .params import ParamRegistry

NEG_INF = -1e9


def sinusoid_table(max_len: int, dim: int) -> np.ndarray:
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    i = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(i / 2.0) / dim)
    return np.where(i % 2 == 0, np.sin(angle), np.cos(angle))


def causal_mask(n: int) -> np.ndarray:
    return np.triu(np.full((n, n), NEG_INF), k=1)[None, None]


def key_padding_mask(lengths, max_len: int) -> np.ndarray:
    """(B, 1, 1, L) additive mask hiding padded key positions."""
    lengths = np.asarray(lengths)
    cols = np.arange(max_len)[None, :]
    return np.where(cols < lengths[:, None], 0.0, NEG_INF)[:, None, None, :]


class Linear:
    def __init__(self, reg: ParamRegistry, name: str, d_in: int, d_out: int, rng, scale=None):
        s = scale if scale is not None else 1.0 / np.sqrt(d_in)
        self.w = reg.param(f"{name}.w", rng.normal(0.0, s, (d_in, d_out)))
        self.b = reg.param(f"{name}.b", np.zeros(d_out))

    def __call__(self, x: Tensor) -> Tensor:
        return ag.add(ag.matmul(x, self.w), self.b)


class LayerNorm:
    def __init__(self, reg: ParamRegistry, name: str, dim: int):
        self.g = reg.param(f"{name}.g", np.ones(dim))
        self.b = reg.param(f"{name}.b", np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        return ag.layer_norm(x, self.g, self.b)


class MultiHeadAttention:
    def __init__(self, reg, name, dim, n_heads, rng):
        if dim % n_heads:
            raise ValueError("heads must divide dim")
        self.dim, self.n_heads, self.dh = dim, n_heads, dim // n_heads
        self.q = Linear(reg, f"{name}.q", dim, dim, rng)
        self.k = Linear(reg, f"{name}.k", dim, dim, rng)
        self.v = Linear(reg, f"{name}.v", dim, dim, rng)
        self.o = Linear(reg, f"{name}.o", dim, dim, rng)

    def _split(self, x: Tensor, b: int, l: int) -> Tensor:
        return ag.transpose(ag.reshape(x, (b, l, self.n_heads, self.dh)), (0, 2, 1, 3))

    def __call__(self, x_q: Tensor, x_kv: Tensor, mask=None) -> Tensor:
        b, lq, _ = x_q.shape
        lk = x_kv.shape[1]
        q = self._split(self.q(x_q), b, lq)
        k = self._split(self.k(x_kv), b, lk)
        v = self._split(self.v(x_kv), b, lk)
        att = ag.sdpa(q, k, v, mask=mask)
        merged = ag.reshape(ag.transpose(att, (0, 2, 1, 3)), (b, lq, self.dim))
        return self.o(merged)


class Mlp:
    def __init__(self, reg, name, dim, ratio, rng):
        self.fc1 = Linear(reg, f"{name}.fc1", dim, dim * ratio, rng)
        self.fc2 = Linear(reg, f"{name}.fc2", dim * ratio, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(ag.gelu(self.fc1(x)))


class TransformerBlock:
    """Pre-LN self-attention block."""

    def __init__(self, reg, name, dim, n_heads, rng, mlp_ratio=4):
        self.ln1 = LayerNorm(reg, f"{name}.ln1", dim)
        self.attn = MultiHeadAttention(reg, f"{name}.attn", dim, n_heads, rng)
        self.ln2 = LayerNorm(reg, f"{name}.ln2", dim)
        self.mlp = Mlp(reg, f"{name}.mlp", dim, mlp_ratio, rng)

    def __call__(self, x: Tensor, mask=None) -> Tensor:
        h = self.ln1(x)
        x = ag.add(x, self.attn(h, h, mask))
        return ag.add(x, self.mlp(self.ln2(x)))


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
    def __init__(self, reg: ParamRegistry, cfg: ImageEncoderConfig, rng, prefix="img_enc"):
        self.cfg = cfg
        flat = cfg.patch * cfg.patch
        self.embed1 = Linear(reg, f"{prefix}.embed1", flat, cfg.dim, rng)
        self.embed2 = Linear(reg, f"{prefix}.embed2", cfg.dim, cfg.dim, rng)
        self.blocks = [TransformerBlock(reg, f"{prefix}.blk{i}", cfg.dim, cfg.heads, rng)
                       for i in range(cfg.blocks)]
        self.ln_out = LayerNorm(reg, f"{prefix}.ln_out", cfg.dim)
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
            x = blk(x)
        return self.ln_out(x)

    def encode_image(self, image: np.ndarray) -> np.ndarray:
        """Unpooled spatial embedding grid (g, g, dim); inference only."""
        out = self.forward(np.asarray(image, dtype=np.float64)[None])
        g = self.cfg.grid
        return out.data[0].reshape(g, g, self.cfg.dim)

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
    max_len: int = 128


class TextEncoder:
    def __init__(self, reg: ParamRegistry, cfg: TextEncoderConfig, rng, prefix="txt_enc"):
        self.cfg = cfg
        self.tok = reg.param(f"{prefix}.tok", rng.normal(0.0, 0.02, (cfg.vocab_size, cfg.dim)))
        self.blocks = [TransformerBlock(reg, f"{prefix}.blk{i}", cfg.dim, cfg.heads, rng)
                       for i in range(cfg.blocks)]
        self.ln_out = LayerNorm(reg, f"{prefix}.ln_out", cfg.dim)
        self.pos = sinusoid_table(cfg.max_len, cfg.dim) * 0.02

    def embed(self, tokens: np.ndarray) -> Tensor:
        return ag.add(ag.take(self.tok, tokens), Tensor(self.pos[: tokens.shape[-1]]))

    def forward(self, tokens: np.ndarray, lengths) -> tuple[Tensor, Tensor]:
        """(B, L) padded ids -> ((B, L, d) per-token, (B, d) pooled unit-norm)."""
        tokens = np.asarray(tokens, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if np.any(lengths < 1):
            raise ValueError("empty token sequence")
        mask = key_padding_mask(lengths, tokens.shape[1])
        x = self.embed(tokens)
        for blk in self.blocks:
            x = blk(x, mask)
        x = self.ln_out(x)
        # mean over real positions only, then normalize
        weights = np.where(np.arange(tokens.shape[1])[None, :] < lengths[:, None],
                           1.0 / lengths[:, None], 0.0)
        pooled = ag.reduce_sum(ag.mul(x, Tensor(weights[..., None])), axis=1)
        return x, ag.l2_normalize(pooled)

    def encode_text(self, token_ids) -> tuple[np.ndarray, np.ndarray]:
        ids = np.asarray(token_ids, dtype=np.int64)
        if ids.size == 0:
            raise ValueError("empty token sequence")
        per_tok, pooled = self.forward(ids[None], [ids.size])
        return per_tok.data[0], pooled.data[0]


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

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in
                ("vocab_size", "dim", "blocks", "heads", "max_len", "soft_slots",
                 "pad_id", "eos_id", "img_id")}

    @staticmethod
    def from_json(d: dict) -> "LmConfig":
        return LmConfig(**{k: int(v) for k, v in d.items()})


class DecoderLM:
    def __init__(self, reg: ParamRegistry, cfg: LmConfig, rng, prefix="lm"):
        self.reg = reg
        self.cfg = cfg
        self.prefix = prefix
        self.tok = reg.param(f"{prefix}.tok", rng.normal(0.0, 0.02, (cfg.vocab_size, cfg.dim)))
        self.blocks = [TransformerBlock(reg, f"{prefix}.blk{i}", cfg.dim, cfg.heads, rng)
                       for i in range(cfg.blocks)]
        self.ln_out = LayerNorm(reg, f"{prefix}.ln_out", cfg.dim)
        self.head = Linear(reg, f"{prefix}.head", cfg.dim, cfg.vocab_size, rng, scale=0.02)
        self.pos = sinusoid_table(cfg.max_len, cfg.dim) * 0.02

    # -- plumbing

    def params(self) -> list[Parameter]:
        return self.reg.select(self.prefix + ".")

    @property
    def frozen(self) -> bool:
        return all(p.frozen for p in self.params())

    def freeze(self) -> None:
        self.reg.freeze(self.prefix + ".")

    def digest(self) -> str:
        return self.reg.combined_digest(self.prefix + ".")

    def embed_tokens(self, tokens: np.ndarray) -> Tensor:
        return ag.take(self.tok, tokens)

    def _run(self, emb: Tensor, lengths) -> Tensor:
        b, l, _ = emb.shape
        if l > self.cfg.max_len:
            raise ValueError(f"sequence length {l} exceeds LM max_len {self.cfg.max_len}")
        mask = causal_mask(l) + key_padding_mask(lengths, l)
        x = ag.add(emb, Tensor(self.pos[:l]))
        for blk in self.blocks:
            x = blk(x, mask)
        return self.head(self.ln_out(x))

    def logits(self, tokens: np.ndarray, lengths) -> Tensor:
        return self._run(self.embed_tokens(np.asarray(tokens, dtype=np.int64)), lengths)

    def batch_loss(self, tokens: np.ndarray, lengths, loss_starts) -> Tensor:
        """Mean next-token cross-entropy over token positions >= loss_start,
        pads excluded.  Position i predicts token i+1; the final position and
        padded targets are masked out rather than sliced away."""
        tokens = np.asarray(tokens, dtype=np.int64)
        b, l = tokens.shape
        logits = self.logits(tokens, lengths)
        targets = np.zeros((b, l), dtype=np.int64)
        targets[:, :-1] = tokens[:, 1:]
        tpos = np.arange(1, l + 1)[None, :]  # index of the predicted token
        sel = (tpos < np.asarray(lengths)[:, None]) & (tpos >= np.asarray(loss_starts)[:, None])
        sel &= tpos <= l - 1
        return ag.cross_entropy(ag.reshape(logits, (b * l, self.cfg.vocab_size)),
                                targets.reshape(-1), mask=sel.reshape(-1).astype(np.float64))

    # -- the gradient-server contract

    def soft_prompt_loss(self, soft: Tensor, prompt_ids, target_ids) -> Tensor:
        """Mean cross-entropy over the target positions of [soft prompts (S, dim)
        || prompt || target]; the graph ``lm_loss_and_grad`` differentiates."""
        if soft.ndim != 2 or soft.shape[1] != self.cfg.dim:
            raise ValueError(f"soft prompts must be (S, {self.cfg.dim})")
        if soft.shape[0] < 1:
            raise ValueError("need at least one soft prompt slot")
        if len(target_ids) == 0:
            raise ValueError("empty target")
        s, p, t = soft.shape[0], len(prompt_ids), len(target_ids)
        hard = np.asarray(list(prompt_ids) + list(target_ids), dtype=np.int64)
        l = s + p + t
        targets = np.zeros(l, dtype=np.int64)
        mask = np.zeros(l)
        for j, tok_id in enumerate(target_ids):
            targets[s + p - 1 + j] = tok_id  # position s+p-1+j predicts target j
            mask[s + p - 1 + j] = 1.0
        parts = [ag.reshape(soft, (1, s, self.cfg.dim))]
        if hard.size:
            parts.append(self.embed_tokens(hard[None]))
        emb = ag.concat(parts, axis=1) if len(parts) > 1 else parts[0]
        logits = self._run(emb, [l])
        return ag.cross_entropy(ag.reshape(logits, (l, self.cfg.vocab_size)), targets, mask=mask)

    def lm_loss_and_grad(self, soft_prompts: np.ndarray, prompt_ids, target_ids):
        """(loss, d loss / d soft_prompts); the LM itself receives no gradient.

        Loss is the mean cross-entropy over the target positions only.
        """
        if not self.frozen:
            raise RuntimeError("LM must be frozen before serving gradients")
        leaf = Parameter("_soft_prompt", np.asarray(soft_prompts, dtype=np.float64))
        with Tape() as tape:
            loss = self.soft_prompt_loss(leaf, prompt_ids, target_ids)
        grads = tape.gradients(loss)
        assert set(grads) <= {"_soft_prompt"}, "gradient leaked into frozen LM"
        return float(loss.data), grads["_soft_prompt"].reshape(leaf.shape)

    def generate(self, soft_prompts, prompt_ids, max_new: int = 64) -> list[int]:
        """Greedy decode; stops at [EOS] or after max_new tokens."""
        ids = list(prompt_ids)
        soft = None if soft_prompts is None else np.asarray(soft_prompts, dtype=np.float64)
        s = 0 if soft is None else soft.shape[0]
        out: list[int] = []
        for _ in range(max_new):
            hard = np.asarray(ids, dtype=np.int64)
            parts = []
            if soft is not None:
                parts.append(Tensor(soft[None]))
            if hard.size:
                parts.append(self.embed_tokens(hard[None]))
            emb = ag.concat(parts, axis=1) if len(parts) > 1 else parts[0]
            logits = self._run(emb, [s + hard.size])
            nxt = int(np.argmax(logits.data[0, -1]))
            if nxt == self.cfg.eos_id:
                break
            out.append(nxt)
            ids.append(nxt)
            if s + len(ids) >= self.cfg.max_len:
                break
        return out


def save_lm(lm: DecoderLM, path) -> dict:
    from .params import save_checkpoint

    return save_checkpoint(lm.reg, path, meta={"kind": "lm", "config": lm.cfg.to_json()})


def load_lm(path) -> DecoderLM:
    from .params import load_checkpoint

    meta, values, frozen = load_checkpoint(path, "lm")
    reg = ParamRegistry()
    lm = DecoderLM(reg, LmConfig.from_json(meta["config"]), np.random.default_rng(0))
    reg.load_values(values, frozen)
    return lm


# ---------------------------------------------------------------------------
# LM pretraining


@dataclass
class LmTrainConfig:
    steps: int = 3000
    batch_size: int = 8
    long_batch_size: int = 4     # used for sequences past this length...
    long_threshold: int = 200    # ...to keep attention matrices affordable
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    holdout_fraction: float = 0.1
    target_perplexity: float = 3.0
    log_every: int = 200


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


def _pad_batch(dataset, idx, pad_id):
    tokens, lengths = pad_batch([dataset[i][0] for i in idx], pad_id)
    return tokens, lengths, np.asarray([dataset[i][1] for i in idx])


def eval_lm_loss(lm: DecoderLM, dataset, batch_size: int = 8) -> float:
    """Mean per-token loss over a dataset (no tape)."""
    total, count = 0.0, 0
    for i in range(0, len(dataset), batch_size):
        idx = list(range(i, min(i + batch_size, len(dataset))))
        tokens, lengths, starts = _pad_batch(dataset, idx, lm.cfg.pad_id)
        loss = lm.batch_loss(tokens, lengths, starts)
        n = int(np.sum(np.maximum(lengths - starts, 0)))
        total += float(loss.data) * n
        count += n
    return total / max(count, 1)


def pretrain_lm(lm: DecoderLM, dataset, cfg: LmTrainConfig, seed: int = 0,
                holdout=None, log=None) -> dict:
    """Train the decoder LM, verify held-out perplexity, then freeze it.

    ``dataset`` is a list of (token ids, loss_start); ``holdout`` a separate
    list evaluated for the perplexity gate (report sequences).
    """
    from .optim import Adam

    rng = np.random.default_rng(seed)
    opt = Adam(lm.params(), lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2)
    batches = _make_batches(dataset, cfg, rng)
    history = []
    for step in range(cfg.steps):
        idx = next(batches)
        tokens, lengths, starts = _pad_batch(dataset, idx, lm.cfg.pad_id)
        with Tape() as tape:
            loss = lm.batch_loss(tokens, lengths, starts)
        if not np.isfinite(loss.data):
            raise FloatingPointError("LM pretraining diverged (non-finite loss)")
        grads = tape.gradients(loss)
        opt.step(grads)
        history.append(float(loss.data))
        if log and (step % cfg.log_every == 0 or step == cfg.steps - 1):
            log(f"lm step {step} loss {loss.data:.4f}")
    stats = {"final_train_loss": history[-1] if history else float("nan"),
             "history_head": history[:5]}
    if holdout:
        held = eval_lm_loss(lm, holdout)
        stats["holdout_loss"] = held
        stats["holdout_perplexity"] = float(np.exp(held))
    lm.freeze()
    return stats
