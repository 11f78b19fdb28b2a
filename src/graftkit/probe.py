"""Data-efficient classification: a small MLP probe over frozen embeddings,
trained with the layer-wise adaptive optimizer, evaluated by AUC across
repeated subsamples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tape, Tensor
from .optim import Lars
from .params import ParamRegistry
from .seeding import indexed_rng, substream
from .stats import auc


@dataclass
class ProbeConfig:
    # paper-scale values are (512, 256) hidden, batch 512, 300 epochs; the
    # desk-scale defaults below train in milliseconds
    hidden: tuple = (64, 32)
    lr: float = 0.2
    batch_size: int = 64
    epochs: int = 30
    momentum: float = 0.9
    weight_decay: float = 0.0
    trust_coefficient: float = 0.001
    seed: int = 0


class Probe:
    """Two-hidden-layer MLP with a 2-way head."""

    def __init__(self, n_features: int, cfg: ProbeConfig):
        self.cfg = cfg
        self.registry = ParamRegistry()
        rng = substream(cfg.seed, "probe-init")
        dims = [n_features, *cfg.hidden, 2]
        self.layers = []
        for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
            w = self.registry.param(f"probe.l{i}.w", rng.normal(0, 1 / np.sqrt(a), (a, b)))
            bias = self.registry.param(f"probe.l{i}.b", np.zeros(b))
            self.layers.append((w, bias))

    def logits(self, feats: np.ndarray) -> Tensor:
        x = Tensor(np.asarray(feats, dtype=np.float64))
        for i, (w, b) in enumerate(self.layers):
            x = ag.add(ag.matmul(x, w), b)
            if i < len(self.layers) - 1:
                x = ag.gelu(x)
        return x

    def scores(self, feats: np.ndarray) -> np.ndarray:
        """P(positive class) per row."""
        z = self.logits(feats).data
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e[:, 1] / e.sum(axis=1)


def train_probe(features: np.ndarray, labels: np.ndarray, cfg: ProbeConfig) -> Probe:
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(set(labels.tolist())) < 2:
        raise ValueError("probe training needs both classes present")
    probe = Probe(features.shape[1], cfg)
    opt = Lars(list(probe.registry), lr=cfg.lr, momentum=cfg.momentum,
               weight_decay=cfg.weight_decay, trust_coefficient=cfg.trust_coefficient)
    rng = substream(cfg.seed, "probe-batches")
    n = features.shape[0]
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            with Tape() as tape:
                loss = ag.cross_entropy(probe.logits(features[idx]), labels[idx])
            opt.step(tape.gradients(loss))
    return probe


def eval_probe(probe: Probe, features: np.ndarray, labels: np.ndarray) -> float:
    labels = np.asarray(labels, dtype=np.int64)
    if len(set(labels.tolist())) < 2:
        raise ValueError("probe evaluation needs both classes present")
    return auc(probe.scores(features), labels)


def _stratified_subsample(rng, labels: np.ndarray, n_train: int) -> np.ndarray:
    """Random subsample guaranteed to contain both classes."""
    n = labels.shape[0]
    if n_train > n:
        raise ValueError("n_train exceeds available samples")
    for _ in range(200):
        idx = rng.choice(n, size=n_train, replace=False)
        if len(set(labels[idx].tolist())) == 2:
            return idx
    # all draws single-class: force one of each
    pos = np.where(labels == 1)[0]
    neg = np.where(labels == 0)[0]
    rest = rng.choice(n, size=n_train - 2, replace=False)
    return np.concatenate([[rng.choice(pos)], [rng.choice(neg)], rest])[:n_train]


def data_efficiency_curve(train_features, train_labels, test_features, test_labels,
                          sizes=(16, 64, 256, 1024), repeats: int = 10,
                          cfg: ProbeConfig | None = None, seed: int = 0) -> dict:
    """Mean AUC (plus the per-repeat list) across the sample-size ladder,
    averaged over ``repeats`` random subsamples per size."""
    cfg = cfg or ProbeConfig()
    train_labels = np.asarray(train_labels, dtype=np.int64)
    out = {}
    for n_train in sizes:
        aucs = []
        for rep in range(repeats):
            rng = indexed_rng(seed, rep * 100_003 + n_train)
            idx = _stratified_subsample(rng, train_labels, n_train)
            rep_cfg = ProbeConfig(**{**vars(cfg), "seed": seed * 1000 + rep})
            probe = train_probe(train_features[idx], train_labels[idx], rep_cfg)
            aucs.append(eval_probe(probe, test_features, test_labels))
        out[int(n_train)] = {"mean_auc": float(np.mean(aucs)),
                             "aucs": [float(a) for a in aucs]}
    return out


def curve_is_monotone(curve: dict, slack: float = 0.01, max_inversions: int = 1) -> bool:
    """Non-decreasing across sizes, allowing ``max_inversions`` dips <= slack."""
    sizes = sorted(curve)
    means = [curve[s]["mean_auc"] for s in sizes]
    inversions = 0
    for a, b in zip(means[:-1], means[1:]):
        if b < a - 1e-12:
            if a - b > slack:
                return False
            inversions += 1
    return inversions <= max_inversions


def embed_for_probe(image: np.ndarray, variant: str, clip_model, qformer=None,
                    pooled_hw: int = 2) -> np.ndarray:
    """Feature vector per the variant: pooled projection embedding (C) or
    concatenated query-token outputs (B)."""
    if variant == "C":
        return clip_model.embed_image(image)
    if variant == "B":
        if qformer is None:
            raise ValueError("variant B needs a qformer")
        tokens = clip_model.image_encoder.grid_tokens(np.asarray(image)[None], pooled_hw)
        q_out, _ = qformer.forward(tokens, None, mode="itc")
        return q_out.data[0].reshape(-1)
    raise ValueError(f"unknown variant {variant!r}")
