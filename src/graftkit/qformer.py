"""Query-transformer adapter: phase-1 joint training (contrastive, grounded
generation, matching) on frozen embedding grids, phase-2 soft-prompt bridging
into the frozen decoder LM, zero-shot scoring, and impression generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import autograd as ag
from .autograd import Tape, Tensor
from .corpus import Corpus, detokenize, select_report_text, tokenize
from .nn import (DecoderLM, LayerNorm, Linear, MultiHeadAttention, Mlp, NEG_INF, pad_batch,
                 sinusoid_table)
from .optim import Adam
from .params import ParamRegistry, load_checkpoint, save_checkpoint
from .seeding import substream

MODES = ("itc", "itg", "itm")


@dataclass
class QFormerConfig:
    n_queries: int = 8
    dim: int = 64
    blocks: int = 2
    heads: int = 4
    proj_dim: int = 32
    pooled_hw: int = 2          # grid pooled to pooled_hw x pooled_hw tokens
    grid_dim: int = 64
    text_max_len: int = 64
    itc_temperature: float = 0.07
    vocab_size: int = 0

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in
                ("n_queries", "dim", "blocks", "heads", "proj_dim", "pooled_hw",
                 "grid_dim", "text_max_len", "itc_temperature", "vocab_size")}

    @staticmethod
    def from_json(d: dict) -> "QFormerConfig":
        d = dict(d)
        temp = d.pop("itc_temperature")
        cfg = QFormerConfig(**{k: int(v) for k, v in d.items()})
        cfg.itc_temperature = float(temp)
        return cfg


class _QFormerBlock:
    """Self-attention over [queries || text], cross-attention from the query
    positions to the grid tokens, then a feed-forward."""

    def __init__(self, reg, name, cfg: QFormerConfig, rng):
        self.ln1 = LayerNorm(reg, f"{name}.ln1", cfg.dim)
        self.self_attn = MultiHeadAttention(reg, f"{name}.self", cfg.dim, cfg.heads, rng)
        self.ln_x = LayerNorm(reg, f"{name}.ln_x", cfg.dim)
        self.cross_attn = MultiHeadAttention(reg, f"{name}.cross", cfg.dim, cfg.heads, rng)
        self.ln2 = LayerNorm(reg, f"{name}.ln2", cfg.dim)
        self.mlp = Mlp(reg, f"{name}.mlp", cfg.dim, 4, rng)

    def __call__(self, x: Tensor, n_queries: int, grid: Tensor | None, self_mask) -> Tensor:
        h = self.ln1(x)
        x = ag.add(x, self.self_attn(h, h, self_mask))
        if grid is not None and n_queries:
            m = x.shape[1]
            q_rows = ag.take(x, np.arange(n_queries), axis=1)
            x_q = ag.add(q_rows, self.cross_attn(self.ln_x(q_rows), grid))
            if m > n_queries:  # text rows pass through unchanged
                x_q = ag.concat([x_q, ag.take(x, np.arange(n_queries, m), axis=1)], axis=1)
            x = x_q
        return ag.add(x, self.mlp(self.ln2(x)))


def _self_mask(mode: str, n_q: int, lengths, l_text: int) -> np.ndarray:
    """Additive (B, 1, M, M) mask implementing the per-objective attention rules."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    m = n_q + l_text
    base = np.zeros((m, m))
    q = slice(0, n_q)
    t = slice(n_q, m)
    if mode == "itc":
        base[q, t] = NEG_INF  # queries never see text
        base[t, q] = NEG_INF  # text never sees queries (unimodal)
    elif mode == "itg":
        base[q, t] = NEG_INF  # queries never see text
        if l_text:
            causal = np.triu(np.full((l_text, l_text), NEG_INF), k=1)
            base[t, t] = causal  # text attends causally to itself, freely to queries
    mask = base[None, None]
    if lengths is not None and l_text:
        lengths = np.asarray(lengths)
        cols = np.arange(l_text)[None, :]
        pad = np.where(cols < lengths[:, None], 0.0, NEG_INF)  # (B, L)
        full = np.zeros((lengths.size, 1, 1, m))
        full[:, 0, 0, n_q:] = pad
        mask = mask + full
    return mask


class QFormerModel:
    def __init__(self, cfg: QFormerConfig, seed: int):
        if cfg.vocab_size <= 0:
            raise ValueError("vocab_size must be set")
        self.cfg = cfg
        self.seed = seed
        self.registry = ParamRegistry()
        reg = self.registry
        rng = substream(seed, "init.qformer")
        self.queries = reg.param("qf.queries", rng.normal(0.0, 0.02, (cfg.n_queries, cfg.dim)))
        self.tok = reg.param("qf.tok", rng.normal(0.0, 0.02, (cfg.vocab_size, cfg.dim)))
        if cfg.grid_dim != cfg.dim:
            self.grid_proj = Linear(reg, "qf.grid_proj", cfg.grid_dim, cfg.dim, rng)
        else:
            self.grid_proj = None
        self.blocks = [_QFormerBlock(reg, f"qf.blk{i}", cfg, rng) for i in range(cfg.blocks)]
        self.ln_out = LayerNorm(reg, "qf.ln_out", cfg.dim)
        self.itc_img_proj = Linear(reg, "qf.itc_img_proj", cfg.dim, cfg.proj_dim, rng)
        self.itc_txt_proj = Linear(reg, "qf.itc_txt_proj", cfg.dim, cfg.proj_dim, rng)
        self.itm_head = Linear(reg, "qf.itm_head", cfg.dim, 2, rng)  # [matched, unmatched]
        self.itg_head = Linear(reg, "qf.itg_head", cfg.dim, cfg.vocab_size, rng, scale=0.02)
        self.pos = sinusoid_table(cfg.text_max_len, cfg.dim) * 0.02

    # -- forward

    def _embed_text(self, tokens: np.ndarray) -> Tensor:
        return ag.add(ag.take(self.tok, tokens), Tensor(self.pos[: tokens.shape[-1]]))

    def forward(self, grids: np.ndarray | None, tokens: np.ndarray | None,
                lengths=None, mode: str = "itc") -> tuple[Tensor | None, Tensor | None]:
        """Run queries and/or text through the adapter under a mode mask.

        ``grids`` is (B, G, grid_dim) frozen image tokens or None; ``tokens``
        is (B, L) padded ids or None.  Returns (query outputs, text outputs).
        """
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if tokens is None and mode in ("itg", "itm"):
            raise ValueError(f"mode {mode} requires text")
        if grids is None and tokens is None:
            raise ValueError("nothing to run")
        n_q = self.cfg.n_queries if grids is not None else 0
        b = grids.shape[0] if grids is not None else tokens.shape[0]

        parts = []
        grid_t = None
        if grids is not None:
            grid_t = Tensor(np.asarray(grids, dtype=np.float64))
            if self.grid_proj is not None:
                grid_t = self.grid_proj(grid_t)
            parts.append(ag.take(self.queries, np.broadcast_to(np.arange(n_q), (b, n_q))))
        l_text = 0
        if tokens is not None:
            tokens = np.asarray(tokens, dtype=np.int64)
            l_text = tokens.shape[1]
            parts.append(self._embed_text(tokens))
        x = ag.concat(parts, axis=1) if len(parts) > 1 else parts[0]
        mask = _self_mask(mode, n_q, lengths if tokens is not None else None, l_text)
        for blk in self.blocks:
            x = blk(x, n_q, grid_t, mask)
        x = self.ln_out(x)

        q_out = ag.take(x, np.arange(n_q), axis=1) if n_q else None
        t_out = ag.take(x, np.arange(n_q, n_q + l_text), axis=1) if l_text else None
        return q_out, t_out

    # -- projections

    def query_projections(self, q_out: Tensor) -> Tensor:
        return ag.l2_normalize(self.itc_img_proj(q_out))

    def cls_projection(self, t_out: Tensor) -> Tensor:
        return ag.l2_normalize(self.itc_txt_proj(ag.take(t_out, 0, axis=1)))

    # -- inference conveniences

    def image_query_proj(self, grid_tokens: np.ndarray) -> np.ndarray:
        q_out, _ = self.forward(grid_tokens[None], None, mode="itc")
        return self.query_projections(q_out).data[0]

    def text_cls_projs(self, seqs) -> np.ndarray:
        """(N, proj_dim) [CLS] projections of N token sequences, one padded forward."""
        tokens, lengths = pad_batch(seqs, 0)  # pad keys are masked: any id will do
        _, t_out = self.forward(None, tokens, lengths, mode="itc")
        return self.cls_projection(t_out).data

    def text_cls_proj(self, token_ids) -> np.ndarray:
        return self.text_cls_projs([token_ids])[0]

    def itm_probabilities(self, grids: np.ndarray, token_ids) -> np.ndarray:
        """Matched-class probability of one text against each of (N, G, grid_dim)
        grids, from one matching-head forward (the rows need no padding)."""
        ids = np.asarray(token_ids, dtype=np.int64)
        n = grids.shape[0]
        z = self.itm_logits(grids, np.broadcast_to(ids, (n, ids.size)), [ids.size] * n).data
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e[:, 0] / e.sum(axis=1)

    def itm_matched_probability(self, grid_tokens: np.ndarray, token_ids) -> float:
        return float(self.itm_probabilities(grid_tokens[None], token_ids)[0])

    def itm_logits(self, grids, tokens, lengths) -> Tensor:
        q_out, _ = self.forward(grids, tokens, lengths, mode="itm")
        per_query = self.itm_head(q_out)
        return ag.reduce_mean(per_query, axis=1)

    def save(self, path, extra_meta: dict | None = None) -> dict:
        meta = {"kind": "qformer", "seed": self.seed, "config": self.cfg.to_json()}
        meta.update(extra_meta or {})
        return save_checkpoint(self.registry, path, meta=meta)


def load_qformer(path) -> "QFormerModel":
    meta, values, frozen = load_checkpoint(path, "qformer")
    model = QFormerModel(QFormerConfig.from_json(meta["config"]), int(meta["seed"]))
    model.registry.load_values(values, frozen)
    return model


# ---------------------------------------------------------------------------
# losses


def pairwise_similarity(model: QFormerModel, grids, tokens, lengths) -> Tensor:
    """(B_img, B_txt) similarity: max over query-token cosines vs text [CLS]."""
    q_out, _ = model.forward(grids, None, mode="itc")
    _, t_out = model.forward(None, tokens, lengths, mode="itc")
    q_proj = model.query_projections(q_out)          # (B, Q, p)
    t_proj = model.cls_projection(t_out)             # (B, p)
    sims = ag.matmul(q_proj, ag.transpose(t_proj))   # (B, Q, B)
    return ag.reduce_max(sims, axis=1)


def itc_loss(model: QFormerModel, grids, tokens, lengths) -> Tensor:
    n = grids.shape[0]
    if n == 1:
        sim = pairwise_similarity(model, grids, tokens, lengths)
        return ag.mul(ag.reduce_sum(sim), Tensor(0.0))  # single pair: loss 0 by definition
    logits = ag.mul(pairwise_similarity(model, grids, tokens, lengths),
                    Tensor(1.0 / model.cfg.itc_temperature))
    targets = np.arange(n)
    return ag.mul(ag.add(ag.cross_entropy(logits, targets),
                         ag.cross_entropy(ag.transpose(logits), targets)),
                  Tensor(0.5))


def itg_loss(model: QFormerModel, grids, tokens, lengths) -> Tensor:
    """Mean next-token cross-entropy of text conditioned on the queries."""
    tokens = np.asarray(tokens, dtype=np.int64)
    lengths = np.asarray(lengths)
    if tokens.shape[1] < 2 or np.any(lengths < 2):
        raise ValueError("grounded generation needs at least two text tokens")
    _, t_out = model.forward(grids, tokens, lengths, mode="itg")
    logits = model.itg_head(t_out)  # (B, L, V)
    b, l = tokens.shape
    targets = np.zeros((b, l), dtype=np.int64)
    targets[:, :-1] = tokens[:, 1:]
    tpos = np.arange(1, l + 1)[None, :]
    sel = (tpos < lengths[:, None]) & (tpos <= l - 1)
    return ag.cross_entropy(ag.reshape(logits, (b * l, model.cfg.vocab_size)),
                            targets.reshape(-1), mask=sel.reshape(-1).astype(np.float64))


def itm_loss(model: QFormerModel, grids, tokens, lengths, matched) -> Tensor:
    """2-way cross-entropy on the matching head; class 0 is "matched"."""
    logits = model.itm_logits(grids, tokens, lengths)
    targets = np.where(np.asarray(matched, dtype=bool), 0, 1)
    return ag.cross_entropy(logits, targets)


# ---------------------------------------------------------------------------
# zero-shot scoring (ELIXR-B variant) and generation


def zero_shot_score_b(grid_tokens: np.ndarray, prompt_set, model: QFormerModel, vocab) -> float:
    """Max query-token cosine per prompt; max over each list; 2-way softmax.

    All of the set's prompts are encoded in one padded text forward
    (``QFormerModel.text_cls_projs``).
    """
    from .clip_stage import softmax_pair

    prompt_set.validate()
    prompts = prompt_set.positive + prompt_set.negative
    t_proj = model.text_cls_projs([tokenize(p, vocab, model.cfg.text_max_len) for p in prompts])
    best = (model.image_query_proj(grid_tokens) @ t_proj.T).max(axis=0)  # (Q, P) -> (P,)
    n_pos = len(prompt_set.positive)
    return softmax_pair(float(best[:n_pos].max()), float(best[n_pos:].max()))


def generate_impression(grid_tokens: np.ndarray, model: QFormerModel, vocab,
                        max_len: int = 64) -> str:
    """Greedy grounded decoding from [BOS] until [EOS] (deterministic)."""
    bos, eos = vocab.id("[BOS]"), vocab.id("[EOS]")
    ids = [bos]
    for _ in range(max_len):
        arr = np.asarray(ids, dtype=np.int64)[None]
        _, t_out = model.forward(grid_tokens[None], arr, [arr.shape[1]], mode="itg")
        logits = model.itg_head(t_out).data[0, -1]
        nxt = int(np.argmax(logits))
        if nxt == eos:
            break
        ids.append(nxt)
        if len(ids) >= model.cfg.text_max_len:
            break
    return detokenize(ids[1:], vocab)


# ---------------------------------------------------------------------------
# phase 1: joint ITC + ITG + ITM training on precomputed grids


@dataclass
class Phase1Config:
    steps: int = 2000
    batch_size: int = 8
    # paper: Adam(0.98, 0.999, 1e-8) at constant 1e-5; desk-scale lr raised
    lr: float = 1e-3
    beta1: float = 0.98
    beta2: float = 0.999
    eps: float = 1e-8
    eval_every: int = 250
    loss_weights: tuple = (1.0, 1.0, 1.0)  # itc, itg, itm
    qformer: QFormerConfig = field(default_factory=QFormerConfig)


def precompute_grids(clip_model, studies, pooled_hw: int = 2) -> np.ndarray:
    """Frozen image-encoder grids, average pooled, flattened to token lists."""
    return clip_model.image_encoder.grid_tokens(np.stack([s.image for s in studies]), pooled_hw)


def _phase1_batch(corpus, grids, ids, vocab, cfg):
    texts = [select_report_text(corpus.studies[i].report) for i in ids]
    cls_seqs = [tokenize(t, vocab, cfg.text_max_len) for t in texts]
    bos, eos = vocab.id("[BOS]"), vocab.id("[EOS]")
    itg_seqs = [[bos] + tokenize(t, vocab, cfg.text_max_len - 2, lead=None) + [eos] for t in texts]
    pad = vocab.id("[PAD]")
    return grids[ids], pad_batch(cls_seqs, pad), pad_batch(itg_seqs, pad)


def phase1_losses(model, batch_grids, cls_batch, itg_batch, mismatch_idx):
    """The three objectives on one batch; ITM sees matched pairs plus one
    uniformly drawn in-batch mismatched text per image."""
    cls_tokens, cls_lengths = cls_batch
    itg_tokens, itg_lengths = itg_batch
    l_itc = itc_loss(model, batch_grids, cls_tokens, cls_lengths)
    l_itg = itg_loss(model, batch_grids, itg_tokens, itg_lengths)
    n = batch_grids.shape[0]
    itm_grids = np.concatenate([batch_grids, batch_grids])
    itm_tokens = np.concatenate([cls_tokens, cls_tokens[mismatch_idx]])
    itm_lengths = np.concatenate([cls_lengths, cls_lengths[mismatch_idx]])
    matched = np.concatenate([np.ones(n, bool), np.zeros(n, bool)])
    l_itm = itm_loss(model, itm_grids, itm_tokens, itm_lengths, matched)
    return l_itc, l_itg, l_itm


def _mismatch(rng, n: int) -> np.ndarray:
    """One uniformly drawn in-batch index != i per position."""
    if n < 2:
        return np.zeros(n, dtype=np.int64)
    off = rng.integers(1, n, size=n)
    return (np.arange(n) + off) % n


def phase1_eval(model, corpus, grids, eval_ids, prompt_sets, vocab, rng):
    from .stats import auc

    aucs = []
    for ps in prompt_sets.values():
        labels = [corpus.studies[i].labels[ps.finding] for i in eval_ids]
        if len(set(labels)) < 2:
            continue
        scores = [zero_shot_score_b(grids[i], ps, model, vocab) for i in eval_ids]
        aucs.append(auc(scores, labels))
    batch_grids, cls_batch, itg_batch = _phase1_batch(corpus, grids, list(eval_ids), vocab, model.cfg)
    l_itc, l_itg, l_itm = phase1_losses(model, batch_grids, cls_batch, itg_batch,
                                        _mismatch(rng, len(eval_ids)))
    return {"auc": float(np.mean(aucs)) if aucs else 0.5,
            "itc": float(l_itc.data), "itg": float(l_itg.data), "itm": float(l_itm.data)}


def phase1_train(corpus: Corpus, clip_model, cfg: Phase1Config, seed: int = 0,
                 prompt_sets=None, eval_ids=None, grids=None, log=None):
    """Joint training; returns (model, history, selection) where selection
    holds deep-copied best checkpoints: lexicographic (zero-shot AUC, ITM
    loss, ITC loss) for scoring and search, best ITG loss for phase 2."""
    from .clip_stage import DEFAULT_PROMPT_SETS

    qcfg = cfg.qformer
    if qcfg.vocab_size <= 0:
        qcfg = replace(qcfg, vocab_size=len(corpus.vocab))
    if qcfg.grid_dim != clip_model.cfg.image.dim:
        raise ValueError("qformer grid_dim must match the image encoder dim")
    if grids is None:
        grids = precompute_grids(clip_model, corpus.studies, qcfg.pooled_hw)
    clip_digest_before = clip_model.tower_digests()

    model = QFormerModel(qcfg, seed)
    opt = Adam(list(model.registry), lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    order_rng = substream(seed, "batch-order.phase1")
    neg_rng = substream(seed, "itm-negatives")
    eval_rng = substream(seed, "phase1-eval")
    if prompt_sets is None:
        separable = set(corpus.spec.separable)
        prompt_sets = {k: v for k, v in DEFAULT_PROMPT_SETS.items() if k in separable}
    if eval_ids is None:
        eval_ids = list(range(max(0, len(corpus) - 64), len(corpus)))
    train_ids = [i for i in range(len(corpus)) if i not in set(eval_ids)]

    history = []
    best_score_key = None
    best_itg = np.inf
    selection = {}
    vocab = corpus.vocab

    def evaluate(step):
        nonlocal best_score_key, best_itg
        metrics = phase1_eval(model, corpus, grids, eval_ids, prompt_sets, vocab, eval_rng)
        key = (-metrics["auc"], metrics["itm"], metrics["itc"])
        if best_score_key is None or key < best_score_key:
            best_score_key = key
            selection["scoring"] = model.registry.snapshot()
            selection["scoring_metrics"] = dict(metrics, step=step)
        if metrics["itg"] < best_itg:
            best_itg = metrics["itg"]
            selection["itg"] = model.registry.snapshot()
            selection["itg_metrics"] = dict(metrics, step=step)
        if log:
            log(f"phase1 eval step {step}: " +
                " ".join(f"{k} {v:.4f}" for k, v in metrics.items()))
        return metrics

    for step in range(cfg.steps):
        ids = order_rng.choice(len(train_ids), size=min(cfg.batch_size, len(train_ids)),
                               replace=False)
        ids = np.asarray([train_ids[int(i)] for i in ids])
        batch_grids, cls_batch, itg_batch = _phase1_batch(corpus, grids, ids, vocab, qcfg)
        mismatch = _mismatch(neg_rng, len(ids))
        with Tape() as tape:
            l_itc, l_itg, l_itm = phase1_losses(model, batch_grids, cls_batch, itg_batch, mismatch)
            w = cfg.loss_weights
            total = ag.add(ag.add(ag.mul(l_itc, Tensor(w[0])), ag.mul(l_itg, Tensor(w[1]))),
                           ag.mul(l_itm, Tensor(w[2])))
        grads = tape.gradients(total)
        opt.step(grads)
        history.append({"step": step, "itc": float(l_itc.data), "itg": float(l_itg.data),
                        "itm": float(l_itm.data), "total": float(total.data)})
        if log and step % 200 == 0:
            log(f"phase1 step {step} total {total.data:.4f}")
        if (step + 1) % cfg.eval_every == 0 or step == cfg.steps - 1:
            evaluate(step)

    if clip_model.tower_digests() != clip_digest_before:
        raise RuntimeError("frozen contract violated: stage-1 towers changed during phase 1")

    def restore(snap):
        m = QFormerModel(qcfg, seed)
        m.registry.load_values(snap)
        return m

    models = {"final": model,
              "scoring": restore(selection["scoring"]),
              "itg": restore(selection["itg"])}
    meta = {"scoring_metrics": selection["scoring_metrics"],
            "itg_metrics": selection["itg_metrics"]}
    return models, history, meta


def loss_log_to_csv(history) -> str:
    lines = ["step,itc,itg,itm,total"]
    for h in history:
        lines.append(f"{h['step']},{h['itc']:.6f},{h['itg']:.6f},{h['itm']:.6f},{h['total']:.6f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# phase 2: soft-prompt bridge into the frozen LM


@dataclass
class Phase2Config:
    steps: int = 400
    batch_size: int = 4
    lr: float = 5e-4  # paper's phase-2 constant rate
    beta1: float = 0.98
    beta2: float = 0.999
    eps: float = 1e-8
    bridge_hidden: int = 96


class Phase2Bridge:
    """MLP from Q-Former query outputs into the LM embedding space."""

    def __init__(self, reg: ParamRegistry, q_dim: int, lm_dim: int, hidden: int, rng,
                 init_bias: np.ndarray | None = None):
        self.fc1 = Linear(reg, "bridge.fc1", q_dim, hidden, rng)
        self.fc2 = Linear(reg, "bridge.fc2", hidden, lm_dim, rng)
        if init_bias is not None:
            self.fc2.b.data[...] = init_bias

    def __call__(self, q_out: Tensor) -> Tensor:
        return self.fc2(ag.gelu(self.fc1(q_out)))


def soft_prompts_for_grid(model: QFormerModel, bridge: Phase2Bridge,
                          grid_tokens: np.ndarray) -> np.ndarray:
    q_out, _ = model.forward(grid_tokens[None], None, mode="itc")
    return bridge(q_out).data[0]


def impression_targets(corpus: Corpus, ids) -> list[list[int]]:
    vocab = corpus.vocab
    eos = vocab.id("[EOS]")
    out = []
    for i in ids:
        ids_t = tokenize(corpus.studies[i].report_impression, vocab, lead=None)
        out.append(ids_t + [eos])
    return out


def phase2_step(model: QFormerModel, bridge: Phase2Bridge, lm: DecoderLM, grids: np.ndarray,
                targets) -> tuple[dict[str, np.ndarray], list[float]]:
    """Gradients of the batch-mean LM loss for the adapter and bridge, plus
    the per-example LM losses.

    One taped forward makes every soft prompt; the frozen LM returns
    d loss / d soft prompt per example, and the stacked (mean-scaled) LM
    gradients seed the backward pass at the soft prompts.
    """
    with Tape() as tape:
        q_out, _ = model.forward(grids, None, mode="itc")
        soft = bridge(q_out)
    responses = [lm.lm_loss_and_grad(soft.data[j], [], t) for j, t in enumerate(targets)]
    grads = tape.gradients(soft, seed_grad=np.stack([g for _, g in responses]) / len(targets))
    return grads, [loss for loss, _ in responses]


def phase2_train(corpus: Corpus, clip_model, qformer_itg: QFormerModel, lm: DecoderLM,
                 cfg: Phase2Config, seed: int = 0, grids=None, eval_ids=None, log=None):
    """Train bridge + Q-Former to generate impressions through the frozen LM.

    Each step is one taped, batched adapter pass (``phase2_step``); the
    frozen LM serves only the gradients for its soft prompts.
    """
    if not lm.frozen:
        raise RuntimeError("phase 2 requires a frozen LM")
    if grids is None:
        grids = precompute_grids(clip_model, corpus.studies, qformer_itg.cfg.pooled_hw)
    lm_digest_before = lm.digest()
    clip_digest_before = clip_model.tower_digests()

    model = QFormerModel(qformer_itg.cfg, qformer_itg.seed)
    model.registry.load_values(qformer_itg.registry.snapshot())
    bridge_reg = ParamRegistry()
    bridge = Phase2Bridge(bridge_reg, model.cfg.dim, lm.cfg.dim, cfg.bridge_hidden,
                          substream(seed, "init.bridge"), init_bias=lm.tok.data[lm.cfg.img_id])
    params = list(model.registry) + list(bridge_reg)
    opt = Adam(params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.eps)
    order_rng = substream(seed, "batch-order.phase2")
    if eval_ids is None:
        eval_ids = list(range(max(0, len(corpus) - 32), len(corpus)))
    train_ids = [i for i in range(len(corpus)) if i not in set(eval_ids)]
    targets_all = impression_targets(corpus, range(len(corpus)))

    history = []
    for step in range(cfg.steps):
        ids = order_rng.choice(len(train_ids), size=min(cfg.batch_size, len(train_ids)),
                               replace=False)
        ids = [train_ids[int(i)] for i in ids]
        grads, losses = phase2_step(model, bridge, lm, grids[ids], [targets_all[i] for i in ids])
        opt.step(grads)
        mean_loss = float(np.mean(losses))
        history.append({"step": step, "lm_loss": mean_loss})
        if log and step % 50 == 0:
            log(f"phase2 step {step} lm loss {mean_loss:.4f}")

    if lm.digest() != lm_digest_before:
        raise RuntimeError("frozen contract violated: LM changed during phase 2")
    if clip_model.tower_digests() != clip_digest_before:
        raise RuntimeError("frozen contract violated: stage-1 towers changed during phase 2")

    eval_stats = phase2_eval(model, bridge, lm, grids, targets_all, eval_ids)
    return model, bridge, bridge_reg, history, eval_stats


def phase2_eval(model, bridge, lm, grids, targets_all, eval_ids) -> dict:
    """Held-out impression loss vs the no-image (all-zero soft prompt) baseline.

    Forward passes only: one batched adapter pass makes every soft prompt,
    and the LM's soft-prompt loss runs without a tape.
    """
    eval_ids = list(eval_ids)
    q_out, _ = model.forward(grids[eval_ids], None, mode="itc")
    losses, base = [], []
    for soft, i in zip(bridge(q_out).data, eval_ids):
        losses.append(float(lm.soft_prompt_loss(Tensor(soft), [], targets_all[i]).data))
        base.append(float(lm.soft_prompt_loss(Tensor(np.zeros_like(soft)), [],
                                              targets_all[i]).data))
    return {"heldout_loss": float(np.mean(losses)),
            "zero_prompt_baseline": float(np.mean(base))}


def save_phase2(model: QFormerModel, bridge: Phase2Bridge, bridge_reg: ParamRegistry,
                path_qf, path_bridge, lm_digest: str) -> None:
    model.save(path_qf, extra_meta={"phase": 2, "lm_digest": lm_digest})
    q_dim = bridge.fc1.w.data.shape[0]
    hidden = bridge.fc1.w.data.shape[1]
    lm_dim = bridge.fc2.w.data.shape[1]
    save_checkpoint(bridge_reg, path_bridge,
                    meta={"kind": "bridge", "lm_digest": lm_digest,
                          "q_dim": q_dim, "hidden": hidden, "lm_dim": lm_dim})


def load_bridge(path) -> tuple[ParamRegistry, Phase2Bridge, dict]:
    meta, values, frozen = load_checkpoint(path, "bridge")
    reg = ParamRegistry()
    bridge = Phase2Bridge(reg, int(meta["q_dim"]), int(meta["lm_dim"]),
                          int(meta["hidden"]), np.random.default_rng(0))
    reg.load_values(values, frozen)
    return reg, bridge, meta
