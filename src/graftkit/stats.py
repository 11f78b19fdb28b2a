"""Evaluation statistics: AUC, DeLong variance/comparison, NDCG@k,
precision@k, bootstrap confidence intervals, and permutation tests.

Bootstrap and permutation draws come from per-index counter generators, so
resamples are order-independent and bit-reproducible for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .seeding import indexed_rng


def _check_finite(values, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} must be finite, got {values[~np.isfinite(values)][0]}")
    return values


def _check_scored(scores, labels):
    scores = _check_finite(scores, "scores")
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be 1-d and the same length")
    binary = (labels == 0) | (labels == 1)
    if not np.all(binary):
        raise ValueError(f"labels must be 0 or 1, got {labels[~binary][0]}")
    labels = labels.astype(np.int64)
    if not (np.any(labels == 1) and np.any(labels == 0)):
        raise ValueError("the labels need both classes present")
    return scores, labels


def label_groups(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """(the scores labelled 0, those labelled 1); refused unless ``scores``
    and ``labels`` are 1-d and of one length, every label is 0 or 1, and both
    classes are present."""
    scores, labels = _check_scored(scores, labels)
    return scores[labels == 0], scores[labels == 1]


def auc(scores, labels) -> float:
    """Mann-Whitney AUC; ties count one half."""
    neg, pos = label_groups(scores, labels)
    # midrank formulation, exact under ties
    order = np.argsort(np.concatenate([pos, neg]), kind="mergesort")
    ranks = np.empty(order.size, dtype=np.float64)
    sorted_scores = np.concatenate([pos, neg])[order]
    i = 0
    while i < order.size:
        j = i
        while j < order.size and sorted_scores[j] == sorted_scores[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + j - 1) + 1
        i = j
    m = pos.size
    return float((ranks[:m].sum() - m * (m + 1) / 2) / (m * neg.size))


def _delong_components(scores, labels):
    """Structural components: V10 over positives, V01 over negatives."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    cmp_matrix = (pos[:, None] > neg[None, :]).astype(np.float64)
    cmp_matrix += 0.5 * (pos[:, None] == neg[None, :])
    v10 = cmp_matrix.mean(axis=1)
    v01 = cmp_matrix.mean(axis=0)
    return v10, v01


@dataclass
class AucResult:
    auc: float
    se: float
    ci: tuple[float, float]
    degenerate: bool = False


def delong_ci(scores, labels, alpha: float = 0.05) -> AucResult:
    scores, labels = _check_scored(scores, labels)
    v10, v01 = _delong_components(scores, labels)
    a = float(v10.mean())
    m, n = v10.size, v01.size
    var = 0.0
    if m > 1:
        var += v10.var(ddof=1) / m
    if n > 1:
        var += v01.var(ddof=1) / n
    se = float(np.sqrt(var))
    degenerate = se == 0.0
    z = norm.ppf(1 - alpha / 2)
    lo = max(0.0, a - z * se)
    hi = min(1.0, a + z * se)
    return AucResult(a, se, (float(lo), float(hi)), degenerate)


@dataclass
class DelongComparison:
    auc_a: float
    auc_b: float
    diff: float
    se: float
    ci: tuple[float, float]
    p: float
    degenerate: bool = False


def delong_compare(scores_a, scores_b, labels, alpha: float = 0.05) -> DelongComparison:
    """Paired DeLong comparison; both score sets share labels and case order."""
    sa, la = _check_scored(scores_a, labels)
    sb, lb = _check_scored(scores_b, labels)
    if not np.array_equal(la, lb):
        raise ValueError("paired comparison requires identical labels")
    v10a, v01a = _delong_components(sa, la)
    v10b, v01b = _delong_components(sb, lb)
    auc_a, auc_b = float(v10a.mean()), float(v10b.mean())
    diff = auc_a - auc_b
    m, n = v10a.size, v01a.size
    var = 0.0
    if m > 1:
        var += (v10a - v10b).var(ddof=1) / m
    if n > 1:
        var += (v01a - v01b).var(ddof=1) / n
    se = float(np.sqrt(var))
    if se == 0.0:
        # all paired components equal: flagged, never reported as p=0
        p = 1.0 if diff == 0.0 else float("nan")
        return DelongComparison(auc_a, auc_b, diff, 0.0, (diff, diff), p, degenerate=True)
    z = diff / se
    p = float(2.0 * (1.0 - norm.cdf(abs(z))))
    zq = norm.ppf(1 - alpha / 2)
    return DelongComparison(auc_a, auc_b, diff, se, (diff - zq * se, diff + zq * se), p)


def noninferiority_margin_test(scores_a, scores_b, labels, margin: float = 0.05) -> dict:
    """A noninferior to B at ``margin``: one-sided z on (diff + margin) > 0."""
    cmp_res = delong_compare(scores_a, scores_b, labels)
    if cmp_res.degenerate:
        return {"diff": cmp_res.diff, "p": float("nan"), "noninferior": cmp_res.diff > -margin,
                "margin": margin, "degenerate": True}
    z = (cmp_res.diff + margin) / cmp_res.se
    p = float(1.0 - norm.cdf(z))
    return {"diff": cmp_res.diff, "p": p, "noninferior": p < 0.05, "margin": margin,
            "degenerate": False}


# ---------------------------------------------------------------------------
# graded retrieval metrics


def _check_relevance(rel):
    rel = np.asarray(rel, dtype=np.float64)
    if rel.ndim != 1:
        raise ValueError("relevance list must be 1-d")
    if not np.all(np.isin(rel, (0, 1, 2))):
        raise ValueError("relevance grades must be in {0, 1, 2}")
    return rel


def dcg(rel, k: int) -> float:
    rel = np.asarray(rel, dtype=np.float64)[:k]
    discounts = np.log2(np.arange(2, rel.size + 2))
    return float((rel / discounts).sum())


def ndcg_at_k(rel, k: int = 5) -> float:
    """NDCG with linear gain (the form that reproduces the reference table
    values); ideal ranking is all grades 2."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rel = _check_relevance(rel)
    ideal = np.full(k, 2.0)
    return dcg(rel, k) / dcg(ideal, k)


def precision_at_k(rel, k: int = 5) -> tuple[float, float]:
    """(fraction with grade exactly 2, fraction with grade >= 1) over top-k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rel = _check_relevance(rel)[:k]
    return float((rel == 2).sum() / k), float((rel >= 1).sum() / k)


# ---------------------------------------------------------------------------
# resampling


def bootstrap_ci(samples, statistic, n: int = 1000, seed: int = 0) -> tuple[float, float]:
    """95% percentile CI from ``n`` resamples with replacement."""
    samples = _check_finite(samples, "bootstrap samples")
    if samples.size == 0:
        raise ValueError("bootstrap of empty sample")
    stats = np.empty(n)
    for i in range(n):
        idx = indexed_rng(seed, i).integers(0, samples.size, size=samples.size)
        stats[i] = statistic(samples[idx])
    lo, hi = np.percentile(stats, [2.5, 97.5])
    return float(lo), float(hi)


def mean_difference(a, b) -> float:
    return float(np.mean(a) - np.mean(b))


def permutation_test(group_a, group_b, n: int = 1000, seed: int = 0) -> float:
    """Two-sided permutation p-value of the ``mean_difference``, with add-one
    smoothing."""
    a = _check_finite(group_a, "permutation samples")
    b = _check_finite(group_b, "permutation samples")
    if a.size == 0 or b.size == 0:
        raise ValueError("permutation test needs both groups nonempty")
    t_obs = abs(mean_difference(a, b))
    pooled = np.concatenate([a, b])
    hits = 0
    for i in range(n):
        perm = indexed_rng(seed, i).permutation(pooled.size)
        pa = pooled[perm[: a.size]]
        pb = pooled[perm[a.size:]]
        if abs(mean_difference(pa, pb)) >= t_obs:
            hits += 1
    return (1 + hits) / (n + 1)
