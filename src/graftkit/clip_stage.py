"""Stage 1: contrastive alignment of the image and text encoders behind
projection heads, plus the prompt-based zero-shot classification score.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autograd as ag
from .autograd import Tape, Tensor
from .corpus import Corpus, augment, select_report_text, tokenize
from .nn import (ImageEncoder, ImageEncoderConfig, Linear, TextEncoder, TextEncoderConfig,
                 pad_batch)
from .optim import SgdMomentum
from .params import ParamRegistry, load_checkpoint, save_checkpoint
from .seeding import substream


@dataclass
class ClipConfig:
    proj_dim: int = 32
    temperature: float = 0.07  # fixed, stored in the checkpoint, never learned
    steps: int = 2500
    batch_size: int = 16
    # paper trains with SGD momentum 0.98 at lr 1e-4; the desk-scale model
    # uses lr scaled up x10 (see config defaults note in README)
    lr: float = 1e-3
    momentum: float = 0.98
    text_max_len: int = 64
    augment: bool = True
    swap_text_on_flip: bool = True
    image: ImageEncoderConfig = field(default_factory=ImageEncoderConfig)
    text_dim: int = 64
    text_blocks: int = 2
    text_heads: int = 4

    def to_json(self) -> dict:
        d = {k: getattr(self, k) for k in
             ("proj_dim", "temperature", "steps", "batch_size", "lr", "momentum",
              "text_max_len", "augment", "swap_text_on_flip", "text_dim",
              "text_blocks", "text_heads")}
        d["image"] = vars(self.image).copy()
        return d

    @staticmethod
    def from_json(d: dict) -> "ClipConfig":
        d = dict(d)
        img = d.pop("image", {})
        cfg = ClipConfig(**d)
        cfg.image = ImageEncoderConfig(**img)
        return cfg


@dataclass
class PromptSet:
    finding: str
    positive: list[str]
    negative: list[str]

    def validate(self) -> None:
        if not self.positive or not self.negative:
            raise ValueError(f"prompt set for {self.finding!r} needs both lists non-empty")


def load_prompt_sets(path) -> dict[str, PromptSet]:
    data = json.loads(Path(path).read_text())
    out = {}
    for entry in data:
        ps = PromptSet(entry["finding"], list(entry["positive"]), list(entry["negative"]))
        ps.validate()
        out[ps.finding] = ps
    return out


def save_prompt_sets(prompt_sets, path) -> None:
    data = [{"finding": ps.finding, "positive": ps.positive, "negative": ps.negative}
            for ps in prompt_sets.values()]
    Path(path).write_text(json.dumps(data, indent=1))


DEFAULT_PROMPT_SETS = {
    "effusion": PromptSet("effusion",
                          ["left pleural effusion", "right pleural effusion",
                           "bilateral pleural effusion"],
                          ["no pleural effusion", "no acute cardiopulmonary process"]),
    "cardiomegaly": PromptSet("cardiomegaly",
                              ["mild cardiomegaly", "moderate cardiomegaly", "severe cardiomegaly"],
                              ["the heart size is normal", "no acute cardiopulmonary process"]),
    "opacity": PromptSet("opacity",
                         ["left airspace opacity", "right airspace opacity",
                          "bilateral airspace opacity"],
                         ["lungs are clear", "no acute cardiopulmonary process"]),
    "edema": PromptSet("edema",
                       ["mild bilateral pulmonary edema", "moderate bilateral pulmonary edema",
                        "severe bilateral pulmonary edema"],
                       ["no pulmonary edema", "no acute cardiopulmonary process"]),
    "pneumothorax": PromptSet("pneumothorax",
                              ["left pneumothorax", "right pneumothorax"],
                              ["no pneumothorax"]),
    "nodule": PromptSet("nodule",
                        ["left lung nodule", "right lung nodule"],
                        ["no acute cardiopulmonary process", "lungs are clear"]),
    "device-line": PromptSet("device-line",
                             ["endotracheal tube in place"],
                             ["no acute cardiopulmonary process"]),
}


class ClipModel:
    """Both towers plus projection heads; embeds live in a shared unit sphere."""

    def __init__(self, vocab_size: int, cfg: ClipConfig, seed: int):
        self.cfg = cfg
        self.seed = seed
        self.registry = ParamRegistry()
        self.image_encoder = ImageEncoder(self.registry, cfg.image, substream(seed, "init.img_enc"))
        tcfg = TextEncoderConfig(vocab_size=vocab_size, dim=cfg.text_dim,
                                 blocks=cfg.text_blocks, heads=cfg.text_heads)
        self.text_encoder = TextEncoder(self.registry, tcfg, substream(seed, "init.txt_enc"))
        self.img_proj = Linear(self.registry, "img_proj", cfg.image.dim, cfg.proj_dim,
                               substream(seed, "init.img_proj"))
        self.txt_proj = Linear(self.registry, "txt_proj", cfg.text_dim, cfg.proj_dim,
                               substream(seed, "init.txt_proj"))
        self.vocab_size = vocab_size

    # -- training-path (Tensor) forwards

    def image_embeddings(self, images: np.ndarray) -> Tensor:
        tokens = self.image_encoder.forward(images)
        pooled = ag.reduce_mean(tokens, axis=1)
        return ag.l2_normalize(self.img_proj(pooled))

    def text_embeddings(self, tokens: np.ndarray, lengths) -> Tensor:
        _, pooled = self.text_encoder.forward(tokens, lengths)
        return ag.l2_normalize(self.txt_proj(pooled))

    # -- inference API

    def embed_image(self, image: np.ndarray) -> np.ndarray:
        return self.image_embeddings(np.asarray(image, dtype=np.float64)[None]).data[0]

    def embed_texts(self, seqs) -> np.ndarray:
        """(N, proj_dim) unit embeddings of N token sequences, one padded forward."""
        tokens, lengths = pad_batch(seqs, 0)  # pad keys are masked: any id will do
        return self.text_embeddings(tokens, lengths).data

    def embed_text(self, token_ids) -> np.ndarray:
        return self.embed_texts([token_ids])[0]

    def freeze(self) -> None:
        self.registry.freeze()

    def tower_digests(self) -> dict[str, str]:
        return {
            "image_encoder": self.registry.combined_digest("img_enc."),
            "text_encoder": self.registry.combined_digest("txt_enc."),
            "img_proj": self.registry.combined_digest("img_proj."),
            "txt_proj": self.registry.combined_digest("txt_proj."),
        }

    def save(self, path) -> dict:
        meta = {"kind": "elixr-c", "seed": self.seed, "vocab_size": self.vocab_size,
                "config": self.cfg.to_json()}
        return save_checkpoint(self.registry, path, meta=meta)


def load_clip(path) -> ClipModel:
    meta, values, frozen = load_checkpoint(path, "elixr-c")
    model = ClipModel(int(meta["vocab_size"]), ClipConfig.from_json(meta["config"]),
                      int(meta["seed"]))
    model.registry.load_values(values, frozen)
    return model


def clip_loss(img_emb: Tensor, txt_emb: Tensor, temperature: float = 0.07) -> Tensor:
    """Symmetric InfoNCE over the cosine/temperature logit matrix."""
    n = img_emb.shape[0]
    for emb in (img_emb, txt_emb):
        norms = np.linalg.norm(emb.data, axis=-1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            raise ValueError("clip_loss expects unit-norm embeddings")
    logits = ag.mul(ag.matmul(img_emb, ag.transpose(txt_emb)), Tensor(1.0 / temperature))
    targets = np.arange(n)
    loss_i = ag.cross_entropy(logits, targets)
    loss_t = ag.cross_entropy(ag.transpose(logits), targets)
    return ag.mul(ag.add(loss_i, loss_t), Tensor(0.5))


def train_elixr_c(corpus: Corpus, cfg: ClipConfig, seed: int = 0, log=None) -> tuple[ClipModel, list]:
    """CLIP training on (image, selected report text) pairs."""
    model = ClipModel(len(corpus.vocab), cfg, seed)
    opt = SgdMomentum(list(model.registry), lr=cfg.lr, momentum=cfg.momentum)
    order_rng = substream(seed, "batch-order")
    aug_rng = substream(seed, "augment")
    history = []
    n = len(corpus)
    for step in range(cfg.steps):
        ids = order_rng.choice(n, size=min(cfg.batch_size, n), replace=False)
        images = []
        texts = []
        for i in ids:
            s = corpus.studies[int(i)]
            image, report = s.image, s.report
            if cfg.augment:
                image, report = augment(image, report, aug_rng,
                                        swap_text_on_flip=cfg.swap_text_on_flip)
            images.append(image)
            texts.append(select_report_text(report))
        tokens, lengths = pad_batch([tokenize(t, corpus.vocab, cfg.text_max_len) for t in texts],
                                    corpus.vocab.id("[PAD]"))
        with Tape() as tape:
            img_emb = model.image_embeddings(np.stack(images))
            txt_emb = model.text_embeddings(tokens, lengths)
            loss = clip_loss(img_emb, txt_emb, cfg.temperature)
        grads = tape.gradients(loss)
        opt.step(grads)
        history.append(float(loss.data))
        if log and (step % 200 == 0 or step == cfg.steps - 1):
            log(f"elixr-c step {step} loss {loss.data:.4f}")
    return model, history


# ---------------------------------------------------------------------------
# zero-shot classification (ELIXR-C variant)


def zero_shot_score_c(image, prompt_set: PromptSet, model: ClipModel, vocab,
                      use_temperature: bool = False) -> float:
    """Mean positive/negative prompt cosine -> 2-way softmax -> P(positive).

    All of the set's prompts are encoded in one padded text forward
    (``ClipModel.embed_texts``).  Raw cosines by default; dividing by the
    stored temperature is available behind the flag for comparison (AUC
    ordering is unchanged either way).
    """
    prompt_set.validate()
    prompts = prompt_set.positive + prompt_set.negative
    cos = model.embed_texts([tokenize(p, vocab) for p in prompts]) @ model.embed_image(image)
    n_pos = len(prompt_set.positive)
    pos, neg = np.mean(cos[:n_pos]), np.mean(cos[n_pos:])
    return softmax_pair(pos, neg, 1.0 / model.cfg.temperature if use_temperature else 1.0)


def softmax_pair(pos: float, neg: float, scale: float = 1.0) -> float:
    z = scale * (pos - neg)
    return float(1.0 / (1.0 + np.exp(-z)))
