"""Stage 1: contrastive alignment of the image and text encoders behind
projection heads, plus the prompt-based zero-shot classification score.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import autograd as ag
from . import partworker, train
from .autograd import Tape, Tensor
from .corpus import Corpus, augment, select_report_text, tokenize
from .nn import (ImageEncoder, ImageEncoderConfig, Linear, TextEncoder, TextEncoderConfig,
                 pad_batch, symmetric_cross_entropy)
from .optim import SgdMomentum
from .params import (ParamRegistry, decode, decode_field, load_checkpoint, read_json,
                     save_checkpoint)
from .seeding import substream


@dataclass
class ClipConfig:
    proj_dim: int = 32
    temperature: float = 0.07  # fixed, stored in the checkpoint, never learned
    steps: int = 2500
    batch_size: int = 16
    # paper: SGD momentum 0.98 at lr 1e-4.  The desk-scale lr is 10x that and
    # stays because the benchmark's fixture checkpoints were trained with it;
    # it is not tuned (over 2500 steps on 256 studies, 1e-4 ended at a lower
    # training loss, with zero-shot AUC up for effusion, down for cardiomegaly)
    lr: float = 1e-3
    momentum: float = 0.98
    text_max_len: int = 64
    augment: bool = True
    swap_text_on_flip: bool = True
    image: ImageEncoderConfig = field(default_factory=ImageEncoderConfig)
    text_dim: int = 64
    text_blocks: int = 2
    text_heads: int = 4


@dataclass
class PromptSet:
    finding: str
    positive: list[str]
    negative: list[str]

    def validate(self) -> None:
        if not self.positive or not self.negative:
            raise ValueError(f"prompt set for {self.finding!r} needs both lists non-empty")


def load_prompt_sets(path) -> dict[str, PromptSet]:
    """The prompt sets in the JSON list at ``path``, by finding; an item that
    is not exactly a valid ``PromptSet``, or a second set for a finding, is
    refused naming the file and the field."""
    out = {}
    for i, ps in enumerate(decode(path, "the prompt-set list", read_json(path), list[PromptSet])):
        if ps.finding in out:
            raise ValueError(f"{path}: the prompt-set list item {i} field 'finding' repeats "
                             f"{ps.finding!r}")
        out[ps.finding] = ps
    return out


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
        return ag.l2_normalize(self.txt_proj(self.text_encoder.forward(tokens, lengths)))

    def params(self) -> list:
        return list(self.registry)

    # -- inference API

    def embed_images(self, images: np.ndarray) -> np.ndarray:
        """(N, proj_dim) unit embeddings of (N, H, W) images, from one
        image-encoder pass, or one per half on two cores
        (``partworker.split_rows``) with the same bits."""
        return partworker.split_rows(_IMAGE_PARTS, self, _embedding_rows, images,
                                     _IMAGE_SPLIT_ROWS)

    def grid_tokens(self, images: np.ndarray, pooled_hw: int) -> np.ndarray:
        """(N, pooled_hw**2, dim) average-pooled grid tokens of (N, H, W)
        images (``ImageEncoder.grid_tokens``), split as ``embed_images``."""
        return partworker.split_rows(_IMAGE_PARTS, self, _grid_rows, images, _IMAGE_SPLIT_ROWS,
                                     pooled_hw)

    def embed_texts(self, seqs) -> np.ndarray:
        """(N, proj_dim) unit embeddings of N token sequences, from one text
        forward that packs them (``TextEncoder.forward``)."""
        tokens, lengths = pad_batch(seqs, 0)  # the tower reads real tokens only: any id will do
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
                "config": asdict(self.cfg)}
        return save_checkpoint(self.registry, path, meta=meta)


def _embedding_rows(model: ClipModel, images: np.ndarray) -> np.ndarray:
    return model.image_embeddings(images).data


def _grid_rows(model: ClipModel, images: np.ndarray, pooled_hw: int) -> np.ndarray:
    return model.image_encoder.grid_tokens(images, pooled_hw)


# The image-side forwards of a CLIP model, and of one with an adapter
# (``qformer._ADAPTER_PARTS``), split by image.
_IMAGE_PARTS = partworker.PartKind("clip", partworker.row_part)
# The fewest images that run as two parts.  Medians per call with the
# benchmark's CLIP (64x64 images, patch 16, dim 64, 2 blocks) and scoring
# adapter on a 2-core VM at 1 BLAS thread, one part here against two:
# embeddings 0.95 against 0.86 ms at 4 images, 1.59 / 1.20 at 8, 2.90 / 1.93
# at 16; grids with query projections 1.84 / 1.65 at 4, 2.88 / 2.21 at 8,
# 4.99 / 3.28 at 16.  Two parts lost at 2 images, where each half is one
# image, whose projection numpy computes as a vector product with other low
# bits: so no split has a half of one image.
_IMAGE_SPLIT_ROWS = 4


def load_clip(path) -> ClipModel:
    """The ELIXR-C checkpoint at ``path``; ``load_checkpoint``'s refusals, and its
    meta must hold the ints ``vocab_size`` and ``seed`` and a ClipConfig ``config``."""
    meta, values, frozen = load_checkpoint(path, "elixr-c")
    model = ClipModel(decode_field(path, "meta", meta, "vocab_size", int),
                      decode_field(path, "meta", meta, "config", ClipConfig),
                      decode_field(path, "meta", meta, "seed", int))
    model.registry.load_values(values, frozen)
    return model


def clip_loss(img_emb: Tensor, txt_emb: Tensor, temperature: float = 0.07) -> Tensor:
    """Symmetric InfoNCE over the cosine/temperature logit matrix."""
    for emb in (img_emb, txt_emb):
        norms = np.linalg.norm(emb.data, axis=-1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            raise ValueError("clip_loss expects unit-norm embeddings")
    return symmetric_cross_entropy(
        ag.mul(ag.matmul(img_emb, ag.transpose(txt_emb)), Tensor(1.0 / temperature)))


def train_elixr_c(corpus: Corpus, cfg: ClipConfig, seed: int = 0, log=None) -> tuple[ClipModel, list]:
    """CLIP training on (image, selected report text) pairs; ``steps`` below 0
    raises ``ValueError`` before any work.  It hands SGD with momentum, uniform
    batches of studies and an augmenting InfoNCE step to ``train.run``."""
    train.check_steps(cfg, "steps", least=0)
    model = ClipModel(len(corpus.vocab), cfg, seed)
    opt = SgdMomentum(list(model.registry), lr=cfg.lr, momentum=cfg.momentum)
    aug_rng = substream(seed, "augment")

    def step(ids):
        images, texts = [], []
        for i in ids:
            image, report = corpus.studies[i].image, corpus.studies[i].report
            if cfg.augment:
                image, report = augment(image, report, aug_rng,
                                        swap_text_on_flip=cfg.swap_text_on_flip)
            images.append(image)
            texts.append(select_report_text(report))
        tokens, lengths = pad_batch([tokenize(t, corpus.vocab, cfg.text_max_len) for t in texts],
                                    corpus.vocab.id("[PAD]"))
        with Tape() as tape:
            loss = clip_loss(model.image_embeddings(np.stack(images)),
                             model.text_embeddings(tokens, lengths), cfg.temperature)
        return {"loss": float(loss.data)}, tape.gradients(loss)

    batches = train.sample(range(len(corpus)), cfg.batch_size, substream(seed, "batch-order"))
    history, _ = train.run("elixr-c", opt, batches, step, cfg.steps, log)
    return model, [h["loss"] for h in history]


# ---------------------------------------------------------------------------
# zero-shot classification (ELIXR-C variant)


def zero_shot_scores_c(image_emb: np.ndarray, prompt_set: PromptSet, model: ClipModel,
                       vocab) -> np.ndarray:
    """(N,) P(positive) for (N, proj_dim) unit image embeddings: mean
    positive/negative prompt cosine -> 2-way softmax.  Each prompt is cut to
    the model's ``text_max_len``, as its training texts were.

    The set's prompts are encoded once per parameter state of the model, in
    one packed text forward (``ClipModel.embed_texts``) that the model's
    ``registry.memo`` keeps until a parameter is written; later calls, one
    per image say, reuse it.  The softmax takes the raw cosines; the stored
    training temperature is not applied (it would rescale the margin but
    leave the AUC ordering unchanged).
    """
    prompt_set.validate()
    seqs = tuple(tuple(tokenize(p, vocab, model.cfg.text_max_len))
                 for p in prompt_set.positive + prompt_set.negative)
    t_emb = model.registry.memo(("embed_texts", seqs), lambda: model.embed_texts(seqs))
    cos = t_emb @ np.asarray(image_emb).T
    n_pos = len(prompt_set.positive)
    return softmax_pair(cos[:n_pos].mean(axis=0), cos[n_pos:].mean(axis=0))


def zero_shot_score_c(image, prompt_set: PromptSet, model: ClipModel, vocab) -> float:
    """``zero_shot_scores_c`` for one image."""
    image_emb = model.image_embeddings(np.asarray(image, dtype=np.float64)[None]).data
    return float(zero_shot_scores_c(image_emb, prompt_set, model, vocab)[0])


def softmax_pair(pos, neg):
    """Elementwise P(positive) of a 2-way softmax over (pos, neg)."""
    return 1.0 / (1.0 + np.exp(-(pos - neg)))
