"""Data-efficient classification: a small MLP probe over frozen embeddings,
trained with the layer-wise adaptive optimizer, evaluated by AUC across
repeated subsamples.
"""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from . import train
from .autograd import Tape, Tensor
from .nn import Linear
from .optim import Lars
from .params import ParamRegistry
from .qformer import image_query_outputs
from .seeding import indexed_rng, substream
from .stats import auc


# Paper scale is (512, 256) hidden, batch 512, 300 epochs; these desk-scale
# values train in milliseconds.
HIDDEN = (64, 32)
LR = 0.2
BATCH_SIZE = 64
EPOCHS = 30


class Probe:
    """Two-hidden-layer MLP with a 2-way head."""

    def __init__(self, n_features: int, seed: int):
        self.registry = ParamRegistry()
        rng = substream(seed, "probe-init")
        dims = [n_features, *HIDDEN, 2]
        self.layers = [Linear(self.registry, f"probe.l{i}", a, b, rng)
                       for i, (a, b) in enumerate(zip(dims[:-1], dims[1:]))]

    def logits(self, feats: np.ndarray) -> Tensor:
        x = Tensor(np.asarray(feats, dtype=np.float64))
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = ag.gelu(x)
        return x

    def scores(self, feats: np.ndarray) -> np.ndarray:
        """P(positive class) per row."""
        z = self.logits(feats).data
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e[:, 1] / e.sum(axis=1)


def train_probe(features: np.ndarray, labels: np.ndarray, seed: int) -> Probe:
    """A probe trained by ``train.run`` on LARS, ``EPOCHS`` epochs of shuffled
    batches and a cross-entropy step; labels of one class raise ``ValueError``."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(set(labels.tolist())) < 2:
        raise ValueError("probe training needs both classes present")
    probe = Probe(features.shape[1], seed)
    opt = Lars(list(probe.registry), lr=LR)
    rng = substream(seed, "probe-batches")
    n = features.shape[0]

    def step(idx):
        with Tape() as tape:
            loss = ag.cross_entropy(probe.logits(features[idx]), labels[idx])
        return {"loss": float(loss.data)}, tape.gradients(loss)

    batches = (order[start : start + BATCH_SIZE] for order in map(rng.permutation, [n] * EPOCHS)
               for start in range(0, n, BATCH_SIZE))
    train.run("probe", opt, batches, step, EPOCHS * -(-n // BATCH_SIZE), None)
    return probe


def eval_probe(probe: Probe, features: np.ndarray, labels: np.ndarray) -> float:
    labels = np.asarray(labels, dtype=np.int64)
    if len(set(labels.tolist())) < 2:
        raise ValueError("probe evaluation needs both classes present")
    return auc(probe.scores(features), labels)


def _stratified_subsample(rng, labels: np.ndarray, n_train: int) -> np.ndarray:
    """Random subsample of distinct rows guaranteed to contain both classes."""
    n = labels.shape[0]
    if not 2 <= n_train <= n:
        raise ValueError(f"n_train {n_train} is outside 2..{n}, the available samples")
    for _ in range(200):
        idx = rng.choice(n, size=n_train, replace=False)
        if len(set(labels[idx].tolist())) == 2:
            return idx
    # all draws single-class: force one of each, and draw the rest from the other rows
    forced = np.array([rng.choice(np.where(labels == 1)[0]), rng.choice(np.where(labels == 0)[0])])
    rest = rng.choice(np.setdiff1d(np.arange(n), forced), size=n_train - 2, replace=False)
    return np.concatenate([forced, rest])


def data_efficiency_curve(train_features, train_labels, test_features, test_labels,
                          sizes=(16, 64, 256, 1024), repeats: int = 10, seed: int = 0) -> dict:
    """Mean AUC (plus the per-repeat list) across the sample-size ladder,
    averaged over ``repeats`` random subsamples per size.  Labels of one
    class only, in either split, raise ``ValueError`` before any draw."""
    train_labels = np.asarray(train_labels, dtype=np.int64)
    for split, labels in (("training", train_labels), ("test", test_labels)):
        if len(set(np.asarray(labels).tolist())) < 2:
            raise ValueError(f"the probe's {split} labels hold one class only; it needs both")
    out = {}
    for n_train in sizes:
        aucs = []
        for rep in range(repeats):
            rng = indexed_rng(seed, rep * 100_003 + n_train)
            idx = _stratified_subsample(rng, train_labels, n_train)
            probe = train_probe(train_features[idx], train_labels[idx], seed * 1000 + rep)
            aucs.append(eval_probe(probe, test_features, test_labels))
        out[int(n_train)] = {"mean_auc": float(np.mean(aucs)),
                             "aucs": [float(a) for a in aucs]}
    return out


def embed_for_probe(images: np.ndarray, variant: str, clip_model, qformer=None) -> np.ndarray:
    """(N, H, W) images -> (N, F) features from one encoder pass, or one per
    half on two cores with the same bits: pooled projection embeddings (C)
    or concatenated query-token outputs (B, on grids pooled as the adapter
    was trained)."""
    if variant == "C":
        return clip_model.embed_images(images)
    if variant == "B":
        if qformer is None:
            raise ValueError("variant B needs a qformer")
        return image_query_outputs(clip_model, qformer, images)
    raise ValueError(f"unknown variant {variant!r}")
