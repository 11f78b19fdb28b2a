"""Query-transformer adapter: phase-1 joint training (contrastive, grounded
generation, matching) on frozen embedding grids, phase-2 soft-prompt bridging
into the frozen decoder LM, zero-shot scoring, and impression generation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autograd as ag
from . import partworker
from .autograd import Tape, Tensor
from .clip_stage import DEFAULT_PROMPT_SETS, softmax_pair
from .corpus import Corpus, detokenize, select_report_text, tokenize
from .nn import (DecoderLM, LayerNorm, Linear, MultiHeadAttention, Mlp, NEG_INF, causal_mask,
                 greedy_decode, key_padding_mask, mlp_residual, next_token_targets, pad_batch,
                 self_attention_residual, sinusoid_table, symmetric_cross_entropy,
                 token_embedding)
from .optim import Adam
from .params import ParamRegistry, decode_field, load_checkpoint, save_checkpoint
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


class _QFormerBlock:
    """Self-attention over [queries || text], cross-attention from the query
    positions to the grid tokens, then a feed-forward.  Cached decoding runs
    text rows alone after the cached self-attention ``past``, with
    ``n_queries`` 0."""

    def __init__(self, reg, name, cfg: QFormerConfig, rng):
        self.ln1 = LayerNorm(reg, f"{name}.ln1", cfg.dim)
        self.self_attn = MultiHeadAttention(reg, f"{name}.self", cfg.dim, cfg.heads, rng)
        self.ln_x = LayerNorm(reg, f"{name}.ln_x", cfg.dim)
        self.cross_attn = MultiHeadAttention(reg, f"{name}.cross", cfg.dim, cfg.heads, rng)
        self.ln2 = LayerNorm(reg, f"{name}.ln2", cfg.dim)
        self.mlp = Mlp(reg, f"{name}.mlp", cfg.dim, rng)

    def __call__(self, x: Tensor, n_queries: int, grid: Tensor | None, self_mask,
                 past=None, rows=None) -> tuple[Tensor, tuple]:
        """(output rows, self-attention (keys, values)) of the rows ``x``,
        the first ``n_queries`` of them queries.

        Rows ``x`` of batch 1 against B grids are shared by every grid: their
        self-attention runs once, the query rows take batch B at the
        cross-attention, and the text rows run their MLP once before they
        are broadcast to B.  Given ``rows`` (the query rows first), only the
        rows ``x[:, rows]`` are output (``self_attention_residual``): the keys
        and values still come from every row."""
        x, kv = self_attention_residual(self.ln1, self.self_attn, x, self_mask, past, rows)
        if grid is None or not n_queries:
            return mlp_residual(self.ln2, self.mlp, x), kv
        m = x.shape[1]
        q = x if m == n_queries else ag.take(x, np.arange(n_queries), axis=1)
        q = ag.add(q, self.cross_attn(self.ln_x(q), grid)[0])
        if m == n_queries:
            return mlp_residual(self.ln2, self.mlp, q), kv
        t = ag.take(x, np.arange(n_queries, m), axis=1)  # text rows skip the cross-attention
        if t.shape[0] == q.shape[0]:
            return mlp_residual(self.ln2, self.mlp, ag.concat([q, t], axis=1)), kv
        # one text for every grid: its MLP runs once, then it is broadcast
        t = ag.take(mlp_residual(self.ln2, self.mlp, t), np.zeros(q.shape[0], dtype=np.int64))
        return ag.concat([mlp_residual(self.ln2, self.mlp, q), t], axis=1), kv


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
        if l_text:  # text attends causally to itself, freely to queries
            base[t, t] = causal_mask(l_text)
    mask = base[None, None]
    if lengths is not None and l_text:
        mask = mask + np.pad(key_padding_mask(lengths, l_text), [(0, 0)] * 3 + [(n_q, 0)])
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

    def params(self) -> list:
        return list(self.registry)

    # -- forward

    def forward(self, grids: np.ndarray | None, tokens: np.ndarray | None,
                lengths=None, mode: str = "itc") -> tuple[Tensor | None, Tensor | None]:
        """Run queries and/or text through the adapter under a mode mask.

        ``grids`` is (B, G, grid_dim) frozen image tokens or None; ``tokens``
        is (B, L) padded ids or None, each row 1 to ``text_max_len`` tokens
        long.  A text batch of 1 is shared by all B grids: its embeddings,
        block 0's self-attention and the text rows' block-0 MLP run once,
        and the text rows are broadcast to B only as the next block's keys
        and values.  Returns (query outputs, text outputs).  In "itm" mode
        the final block runs only the query rows, which are all the matching
        head reads, and the text outputs are None.
        """
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if tokens is None and mode in ("itg", "itm"):
            raise ValueError(f"mode {mode} requires text")
        if grids is None and mode == "itm":
            raise ValueError("mode itm requires grids")
        if grids is None and tokens is None:
            raise ValueError("nothing to run")
        n_q = self.cfg.n_queries if grids is not None else 0
        if tokens is None:
            b_text, l_text = grids.shape[0], 0
        else:
            tokens = np.asarray(tokens, dtype=np.int64)
            b_text, l_text = tokens.shape
            shortest = l_text if lengths is None else int(np.min(lengths))
            if shortest < 1 or l_text > self.cfg.text_max_len:
                raise ValueError(f"every text needs 1 to text_max_len = {self.cfg.text_max_len} "
                                 f"tokens; got one of {l_text if shortest else 0}")
        if grids is not None and b_text not in (1, grids.shape[0]):
            raise ValueError(f"{b_text} texts for {grids.shape[0]} grids: give one text per "
                             "grid, or one for all")

        parts = []
        grid_t = None
        if grids is not None:
            grid_t = Tensor(np.asarray(grids, dtype=np.float64))
            if self.grid_proj is not None:
                grid_t = self.grid_proj(grid_t)
            parts.append(ag.take(self.queries, np.broadcast_to(np.arange(n_q), (b_text, n_q))))
        if tokens is not None:
            parts.append(token_embedding(self.tok, self.pos, tokens))
        x = ag.concat(parts, axis=1) if len(parts) > 1 else parts[0]
        mask = _self_mask(mode, n_q, lengths if tokens is not None else None, l_text)
        last = len(self.blocks) - 1
        for i, blk in enumerate(self.blocks):
            rows = np.arange(n_q) if mode == "itm" and i == last else None
            x, _ = blk(x, n_q, grid_t, mask, rows=rows)
        x = self.ln_out(x)
        if mode == "itm":
            return x, None

        q_out = ag.take(x, np.arange(n_q), axis=1) if n_q else None
        t_out = ag.take(x, np.arange(n_q, n_q + l_text), axis=1) if l_text else None
        return q_out, t_out

    # -- projections

    def query_projections(self, grids: np.ndarray) -> Tensor:
        """(B, Q, proj_dim) unit-norm query projections of (B, G, grid_dim) grids."""
        q_out, _ = self.forward(grids, None, mode="itc")
        return ag.l2_normalize(self.itc_img_proj(q_out))

    def cls_projection(self, t_out: Tensor) -> Tensor:
        return ag.l2_normalize(self.itc_txt_proj(ag.take(t_out, 0, axis=1)))

    # -- inference conveniences

    def text_cls_projs(self, seqs) -> np.ndarray:
        """(N, proj_dim) [CLS] projections of N token sequences, one padded forward."""
        tokens, lengths = pad_batch(seqs, 0)  # pad keys are masked: any id will do
        _, t_out = self.forward(None, tokens, lengths, mode="itc")
        return self.cls_projection(t_out).data

    def text_cls_proj(self, token_ids) -> np.ndarray:
        return self.text_cls_projs([token_ids])[0]

    def itm_probabilities(self, grids: np.ndarray, token_ids) -> np.ndarray:
        """Matched-class probability of one text against each of (N, G, grid_dim)
        grids, from one matching-head forward.  The text goes in as a batch
        of 1 that every grid shares (``forward``), so its embeddings and its
        block-0 work run once, not N times, and the final block runs only the
        N grids' query rows."""
        ids = np.asarray(token_ids, dtype=np.int64)
        z = self.itm_logits(grids, ids[None], None).data
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e[:, 0] / e.sum(axis=1)

    def itm_matched_probability(self, grid_tokens: np.ndarray, token_ids) -> float:
        return float(self.itm_probabilities(grid_tokens[None], token_ids)[0])

    def itm_logits(self, grids, tokens, lengths) -> Tensor:
        q_out, _ = self.forward(grids, tokens, lengths, mode="itm")
        per_query = self.itm_head(q_out)
        return ag.reduce_mean(per_query, axis=1)

    def save(self, path, extra_meta: dict | None = None) -> dict:
        meta = {"kind": "qformer", "seed": self.seed, "config": asdict(self.cfg)}
        meta.update(extra_meta or {})
        return save_checkpoint(self.registry, path, meta=meta)


def load_qformer(path) -> "QFormerModel":
    """The Q-Former checkpoint at ``path``; ``load_checkpoint``'s refusals, and
    its meta must hold the int ``seed`` and a QFormerConfig ``config``."""
    meta, values, frozen = load_checkpoint(path, "qformer")
    model = QFormerModel(decode_field(path, "meta", meta, "config", QFormerConfig),
                         decode_field(path, "meta", meta, "seed", int))
    model.registry.load_values(values, frozen)
    return model


# ---------------------------------------------------------------------------
# losses


def pairwise_similarity(model: QFormerModel, q_proj: Tensor, tokens, lengths) -> Tensor:
    """(B_img, B_txt) similarity of (B_img, Q, p) query projections
    (``QFormerModel.query_projections``): max over query-token cosines vs
    text [CLS]."""
    _, t_out = model.forward(None, tokens, lengths, mode="itc")
    t_proj = model.cls_projection(t_out)             # (B, p)
    sims = ag.matmul(q_proj, ag.transpose(t_proj))   # (B, Q, B)
    return ag.reduce_max(sims, axis=1)


def itc_loss(model: QFormerModel, q_proj: Tensor, tokens, lengths) -> Tensor:
    """Symmetric InfoNCE over the temperature-scaled pairwise similarities (a
    single pair is one class: loss and gradient exactly 0)."""
    return symmetric_cross_entropy(ag.mul(pairwise_similarity(model, q_proj, tokens, lengths),
                                          Tensor(1.0 / model.cfg.itc_temperature)))


def itg_loss(model: QFormerModel, grids, tokens, lengths) -> Tensor:
    """Mean next-token cross-entropy of text conditioned on the queries."""
    tokens = np.asarray(tokens, dtype=np.int64)
    lengths = np.asarray(lengths)
    if tokens.shape[1] < 2 or np.any(lengths < 2):
        raise ValueError("grounded generation needs at least two text tokens")
    _, t_out = model.forward(grids, tokens, lengths, mode="itg")
    logits = model.itg_head(t_out)  # (B, L, V)
    b, l = tokens.shape
    targets, sel = next_token_targets(tokens, lengths, np.zeros(b, dtype=np.int64))
    return ag.cross_entropy(ag.reshape(logits, (b * l, model.cfg.vocab_size)),
                            targets.reshape(-1), mask=sel.reshape(-1).astype(np.float64))


def itm_loss(model: QFormerModel, grids, tokens, lengths, matched) -> Tensor:
    """2-way cross-entropy on the matching head; class 0 is "matched"."""
    logits = model.itm_logits(grids, tokens, lengths)
    targets = np.where(np.asarray(matched, dtype=bool), 0, 1)
    return ag.cross_entropy(logits, targets)


# ---------------------------------------------------------------------------
# zero-shot scoring (ELIXR-B variant) and generation


def zero_shot_scores_b(query_proj: np.ndarray, prompt_set, model: QFormerModel,
                       vocab) -> np.ndarray:
    """(N,) P(positive) for (N, Q, proj_dim) query projections: max
    query-token cosine per prompt; max over each list; 2-way softmax.

    The set's prompts are encoded once per parameter state of the model, in
    one padded text forward (``QFormerModel.text_cls_projs``) that the
    model's ``registry.memo`` keeps until a parameter is written; later
    calls, one per image say, reuse it.
    """
    prompt_set.validate()
    seqs = tuple(tuple(tokenize(p, vocab, model.cfg.text_max_len))
                 for p in prompt_set.positive + prompt_set.negative)
    t_proj = model.registry.memo(("text_cls_projs", seqs), lambda: model.text_cls_projs(seqs))
    best = (query_proj @ t_proj.T).max(axis=1)  # (N, Q, P) -> (N, P)
    n_pos = len(prompt_set.positive)
    return softmax_pair(best[:, :n_pos].max(axis=1), best[:, n_pos:].max(axis=1))


def zero_shot_score_b(grid_tokens: np.ndarray, prompt_set, model: QFormerModel, vocab) -> float:
    """``zero_shot_scores_b`` for one (G, grid_dim) grid."""
    return float(zero_shot_scores_b(model.query_projections(grid_tokens[None]).data, prompt_set,
                                    model, vocab)[0])


def itg_decoder(grid_tokens: np.ndarray, model: QFormerModel):
    """Step function of grounded decoding on one (G, grid_dim) grid:
    ``step(token)`` runs the next text token and returns the ITG logits after
    it.

    Under the ITG mask the queries never attend to text, so the query stream
    and its per-block self-attention keys and values are computed once here;
    each step then runs only the new text row over them.
    """
    grid = Tensor(np.asarray(grid_tokens, dtype=np.float64)[None])
    if model.grid_proj is not None:
        grid = model.grid_proj(grid)
    n_q = model.cfg.n_queries
    x = ag.take(model.queries, np.arange(n_q)[None])
    kv = []
    for blk in model.blocks:
        x, blk_kv = blk(x, n_q, grid, None)
        kv.append(blk_kv)
    n_text = 0

    def step(token: int) -> np.ndarray:
        nonlocal n_text
        t = token_embedding(model.tok, model.pos, [[token]], n_text)
        n_text += 1
        for i, blk in enumerate(model.blocks):
            t, kv[i] = blk(t, 0, None, None, kv[i])
        return model.itg_head(model.ln_out(t)).data[0, 0]

    return step


def generate_impression(grid_tokens: np.ndarray, model: QFormerModel, vocab) -> str:
    """Greedy grounded decoding from [BOS] until [EOS], 64 tokens or a full
    text context (deterministic), on ``itg_decoder``."""
    step = itg_decoder(grid_tokens, model)
    out = greedy_decode(step(vocab.id("[BOS]"))[None], lambda _, tokens: step(tokens[0])[None],
                        vocab.id("[EOS]"), 64, model.cfg.text_max_len - 1)[0]
    return detokenize(out, vocab)


# ---------------------------------------------------------------------------
# phase 1: joint ITC + ITG + ITM training on precomputed grids


@dataclass
class Phase1Config:
    steps: int = 2000
    eval_every: int = 250
    qformer: QFormerConfig = field(default_factory=QFormerConfig)

    batch_size = 8
    lr = 1e-3  # paper: constant 1e-5; desk-scale lr raised


# The studies each phase holds out for evaluation by default: the corpus's last ones.
PHASE1_HELD_OUT, PHASE2_HELD_OUT = 64, 32


def split_studies(n_studies: int, held_out: int, eval_ids=None) -> tuple[list[int], list]:
    """(training ids, eval ids) of a corpus of ``n_studies``: the eval ids are
    ``eval_ids``, by default the last ``held_out`` studies, and the training
    ids are the others, refused when none is left."""
    if eval_ids is None:
        eval_ids = list(range(max(0, n_studies - held_out), n_studies))
    else:
        held_out = len(set(eval_ids))
    held = set(eval_ids)
    train_ids = [i for i in range(n_studies) if i not in held]
    if not train_ids:
        raise ValueError(f"holding out {held_out} studies for evaluation leaves no training "
                         f"study in a corpus of {n_studies}")
    return train_ids, eval_ids


def precompute_grids(clip_model, studies, pooled_hw: int) -> np.ndarray:
    """Frozen image-encoder grids, average pooled, flattened to token lists."""
    return clip_model.image_encoder.grid_tokens(np.stack([s.image for s in studies]), pooled_hw)


def _phase1_batch(corpus, grids, ids, vocab, cfg):
    texts = [select_report_text(corpus.studies[i].report) for i in ids]
    cls_seqs = [tokenize(t, vocab, cfg.text_max_len) for t in texts]
    bos, eos = vocab.id("[BOS]"), vocab.id("[EOS]")
    itg_seqs = [[bos] + tokenize(t, vocab, cfg.text_max_len - 2, lead=None) + [eos] for t in texts]
    pad = vocab.id("[PAD]")
    return grids[ids], pad_batch(cls_seqs, pad), pad_batch(itg_seqs, pad)


def _phase1_itm_loss(model, batch_grids, cls_batch, mismatch_idx) -> Tensor:
    """ITM on matched pairs plus, per image, the in-batch text ``mismatch_idx``
    picks."""
    cls_tokens, cls_lengths = cls_batch
    n = batch_grids.shape[0]
    return itm_loss(model, np.concatenate([batch_grids, batch_grids]),
                    np.concatenate([cls_tokens, cls_tokens[mismatch_idx]]),
                    np.concatenate([cls_lengths, cls_lengths[mismatch_idx]]),
                    np.concatenate([np.ones(n, bool), np.zeros(n, bool)]))


def phase1_losses(model, batch_grids, q_proj, cls_batch, itg_batch, mismatch_idx):
    """The three objectives on one batch of grids and their query projections;
    ITM sees matched pairs plus one uniformly drawn in-batch mismatched text
    per image."""
    return (itc_loss(model, q_proj, *cls_batch), itg_loss(model, batch_grids, *itg_batch),
            _phase1_itm_loss(model, batch_grids, cls_batch, mismatch_idx))


def _phase1_part(model, batch, i: int) -> tuple[float, dict[str, np.ndarray]]:
    """(loss, gradients) of objective i of a phase-1 step ``(grids, cls
    batch, itg batch, mismatch)``: ITC (0), ITG (1) or ITM (2), each on a
    tape of its own.  ``query_projections`` feeds ITC only, so the three
    share no activation."""
    grids, cls_batch, itg_batch, mismatch = batch
    with Tape() as tape:
        if i == 0:
            loss = itc_loss(model, model.query_projections(grids), *cls_batch)
        elif i == 1:
            loss = itg_loss(model, grids, *itg_batch)
        else:
            loss = _phase1_itm_loss(model, grids, cls_batch, mismatch)
    return float(loss.data), tape.gradients(loss)


_PHASE1_PARTS = partworker.PartKind("phase-1", QFormerModel, _phase1_part, 3)


def _mismatch(rng, n: int) -> np.ndarray:
    """One uniformly drawn in-batch index != i per position."""
    if n < 2:
        return np.zeros(n, dtype=np.int64)
    off = rng.integers(1, n, size=n)
    return (np.arange(n) + off) % n


def phase1_eval(model, corpus, grids, eval_ids, prompt_sets, vocab, rng):
    from .stats import auc

    eval_ids = list(eval_ids)
    batch_grids, cls_batch, itg_batch = _phase1_batch(corpus, grids, eval_ids, vocab, model.cfg)
    q_proj = model.query_projections(batch_grids)
    aucs = []
    for ps in prompt_sets.values():
        labels = [corpus.studies[i].labels[ps.finding] for i in eval_ids]
        if len(set(labels)) < 2:
            continue
        aucs.append(auc(zero_shot_scores_b(q_proj.data, ps, model, vocab), labels))
    l_itc, l_itg, l_itm = phase1_losses(model, batch_grids, q_proj, cls_batch, itg_batch,
                                        _mismatch(rng, len(eval_ids)))
    return {"auc": float(np.mean(aucs)) if aucs else 0.5,
            "itc": float(l_itc.data), "itg": float(l_itg.data), "itm": float(l_itm.data)}


def phase1_train(corpus: Corpus, clip_model, cfg: Phase1Config, seed: int = 0,
                 eval_ids=None, grids=None, log=None):
    """Joint training; returns (models, history, metrics).  ``models`` maps
    "final" to the trained model and "scoring" / "itg" to models restored
    from the best checkpoints: lexicographic (zero-shot AUC, ITM loss, ITC
    loss) for scoring and search, best ITG loss for phase 2.  The AUC is the
    mean over the ``DEFAULT_PROMPT_SETS`` of the corpus's separable findings.
    ``metrics`` holds each selected checkpoint's eval metrics and step as
    "scoring_metrics" / "itg_metrics".  ``steps`` or ``eval_every`` below 1
    raises ``ValueError`` before any work.

    Each step is three parts in a fixed order, ITC, ITG and ITM, each the
    gradient of one objective on a tape of its own (``_phase1_part``); they
    share no activation.  When at least two cores are available, the
    phase-1 worker process (``partworker``) takes parts from the back while
    this process takes them from the front; the worker is forked on first
    use and reused across calls (forked again for another ``QFormerConfig``).
    The gradients are added in part order and the logged total is (ITC +
    ITG) + ITM, so the bits depend neither on which process computed which
    part nor on the core count.  Evaluation runs in this process."""
    for name in ("steps", "eval_every"):
        if getattr(cfg, name) < 1:
            raise ValueError(f"Phase1Config.{name} must be >= 1, got {getattr(cfg, name)}")
    train_ids, eval_ids = split_studies(len(corpus), PHASE1_HELD_OUT, eval_ids)
    qcfg = cfg.qformer
    if qcfg.vocab_size <= 0:
        qcfg = replace(qcfg, vocab_size=len(corpus.vocab))
    if qcfg.grid_dim != clip_model.cfg.image.dim:
        raise ValueError("qformer grid_dim must match the image encoder dim")
    if grids is None:
        grids = precompute_grids(clip_model, corpus.studies, qcfg.pooled_hw)
    clip_digest_before = clip_model.tower_digests()

    model = QFormerModel(qcfg, seed)
    opt = Adam(model.params(), lr=cfg.lr)
    order_rng = substream(seed, "batch-order.phase1")
    neg_rng = substream(seed, "itm-negatives")
    eval_rng = substream(seed, "phase1-eval")
    prompt_sets = {k: v for k, v in DEFAULT_PROMPT_SETS.items() if k in corpus.spec.separable}

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
        batch = (*_phase1_batch(corpus, grids, ids, vocab, qcfg), _mismatch(neg_rng, len(ids)))
        # the worker's model takes this one's weights each step: its seed is moot
        (l_itc, l_itg, l_itm), grads, _ = partworker.run_parts(_PHASE1_PARTS, (qcfg, 0), model,
                                                               batch, 3)
        opt.step(grads)
        total = l_itc + l_itg + l_itm
        history.append({"step": step, "itc": l_itc, "itg": l_itg, "itm": l_itm, "total": total})
        if log and step % 200 == 0:
            log(f"phase1 step {step} total {total:.4f}")
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

    batch_size = 4
    lr = 5e-4  # paper's phase-2 constant rate
    bridge_hidden = 96


class Phase2Bridge:
    """MLP from Q-Former query outputs into the LM embedding space."""

    def __init__(self, reg: ParamRegistry, q_dim: int, lm_dim: int, hidden: int, rng,
                 init_bias: np.ndarray | None = None):
        self.fc1 = Linear(reg, "bridge.fc1", q_dim, hidden, rng)
        self.fc2 = Linear(reg, "bridge.fc2", hidden, lm_dim, rng)
        if init_bias is not None:
            self.fc2.b.write(init_bias)

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
                targets) -> tuple[dict[str, np.ndarray], float]:
    """Adapter and bridge gradients of the batch-mean LM loss, and that loss,
    from one taped graph: adapter -> bridge -> frozen LM over the padded batch."""
    with Tape() as tape:
        q_out, _ = model.forward(grids, None, mode="itc")
        loss = lm.soft_prompt_loss(bridge(q_out), [[]] * len(targets), targets)
    grads = tape.gradients(loss)
    if any(name.startswith("lm.") for name in grads):
        raise RuntimeError("gradient leaked into frozen LM")
    return grads, float(loss.data)


def phase2_train(corpus: Corpus, clip_model, qformer_itg: QFormerModel, lm: DecoderLM,
                 cfg: Phase2Config, seed: int = 0, grids=None, eval_ids=None, log=None):
    """Train bridge + Q-Former to generate impressions through the frozen LM.

    Each step is one taped graph through the adapter, the bridge and the
    frozen LM (``phase2_step``); the LM passes gradient only to its soft
    prompts.
    """
    if cfg.steps < 0:
        raise ValueError(f"Phase2Config.steps must be >= 0, got {cfg.steps}")
    if not lm.frozen:
        raise RuntimeError("phase 2 requires a frozen LM")
    train_ids, eval_ids = split_studies(len(corpus), PHASE2_HELD_OUT, eval_ids)
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
    opt = Adam(params, lr=cfg.lr)
    order_rng = substream(seed, "batch-order.phase2")
    targets_all = impression_targets(corpus, range(len(corpus)))

    history = []
    for step in range(cfg.steps):
        ids = order_rng.choice(len(train_ids), size=min(cfg.batch_size, len(train_ids)),
                               replace=False)
        ids = [train_ids[int(i)] for i in ids]
        grads, loss = phase2_step(model, bridge, lm, grids[ids], [targets_all[i] for i in ids])
        opt.step(grads)
        history.append({"step": step, "lm_loss": loss})
        if log and step % 50 == 0:
            log(f"phase2 step {step} lm loss {loss:.4f}")

    if lm.digest() != lm_digest_before:
        raise RuntimeError("frozen contract violated: LM changed during phase 2")
    if clip_model.tower_digests() != clip_digest_before:
        raise RuntimeError("frozen contract violated: stage-1 towers changed during phase 2")

    eval_stats = phase2_eval(model, bridge, lm, grids, targets_all, eval_ids)
    return model, bridge, bridge_reg, history, eval_stats


def phase2_eval(model, bridge, lm, grids, targets_all, eval_ids) -> dict:
    """Held-out impression loss vs the no-image (all-zero soft prompt) baseline.

    Forward passes only: one batched adapter pass makes every soft prompt,
    and one batched LM pass scores each prompt set, without a tape.
    """
    eval_ids = list(eval_ids)
    q_out, _ = model.forward(grids[eval_ids], None, mode="itc")
    soft = bridge(q_out)
    prompts, targets = [[]] * len(eval_ids), [targets_all[i] for i in eval_ids]
    return {name: float(lm.soft_prompt_loss(x, prompts, targets).data) for name, x in
            (("heldout_loss", soft), ("zero_prompt_baseline", Tensor(np.zeros_like(soft.data))))}


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
    """The bridge checkpoint at ``path``; ``load_checkpoint``'s refusals, and its
    meta must hold the ints ``q_dim``, ``lm_dim`` and ``hidden``."""
    meta, values, frozen = load_checkpoint(path, "bridge")
    reg = ParamRegistry()
    q_dim, lm_dim, hidden = (decode_field(path, "meta", meta, name, int)
                             for name in ("q_dim", "lm_dim", "hidden"))
    bridge = Phase2Bridge(reg, q_dim, lm_dim, hidden, np.random.default_rng(0))
    reg.load_values(values, frozen)
    return reg, bridge, meta
