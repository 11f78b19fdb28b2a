"""Semantic search: single-stage cosine retrieval for the contrastive model
and two-stage retrieval (cosine shortlist, matching-head rerank) for the
adapter, with deterministic id-ascending tie-breaking throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import tokenize
from .stats import ndcg_at_k, precision_at_k


@dataclass
class RankedRetrieval:
    query: str
    ranked: list  # (study_id, score), scores non-increasing, ties id-ascending
    grades: list | None = None

    def ids(self) -> list[int]:
        return [sid for sid, _ in self.ranked]

    def metrics(self, k: int = 5) -> dict:
        if self.grades is None:
            raise ValueError("no relevance grades attached")
        p2, p1 = precision_at_k(self.grades, k)
        return {"ndcg": ndcg_at_k(self.grades, k),
                "precision_at_2": p2, "precision_at_geq1": p1}


def _rank(ids, scores, k: int) -> list:
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    return [(ids[i], float(scores[i])) for i in order[:k]]


@dataclass
class ImageIndexC:
    """Precomputed contrastive image embeddings for a pool."""

    ids: list
    embeddings: np.ndarray  # (N, proj_dim), unit rows

    @staticmethod
    def build(clip_model, studies) -> "ImageIndexC":
        ids = [s.study_id for s in studies]
        emb = np.stack([clip_model.embed_image(s.image) for s in studies])
        return ImageIndexC(ids, emb)


@dataclass
class ImageIndexB:
    """Precomputed pooled grids and query projections for a pool."""

    ids: list
    grids: np.ndarray        # (N, G, grid_dim)
    query_proj: np.ndarray   # (N, Q, proj_dim)

    @staticmethod
    def build(clip_model, qformer, studies, pooled_hw: int | None = None) -> "ImageIndexB":
        hw = pooled_hw or qformer.cfg.pooled_hw
        ids, grids, projs = [], [], []
        for s in studies:
            tokens = clip_model.image_encoder.grid_tokens(s.image, hw)
            ids.append(s.study_id)
            grids.append(tokens)
            projs.append(qformer.image_query_proj(tokens))
        return ImageIndexB(ids, np.stack(grids), np.stack(projs))


def search_c(query: str, index: ImageIndexC, clip_model, vocab, k: int = 5) -> RankedRetrieval:
    """Rank the pool by cosine between the query text and image embeddings."""
    if not index.ids:
        raise ValueError("empty retrieval pool")
    q = clip_model.embed_text(tokenize(query, vocab))
    scores = index.embeddings @ q
    return RankedRetrieval(query, _rank(index.ids, scores, k))


def itm_scores(query_ids, index: ImageIndexB, qformer, subset=None) -> np.ndarray:
    rows = range(len(index.ids)) if subset is None else subset
    return np.array([qformer.itm_matched_probability(index.grids[i], query_ids)
                     for i in rows])


def search_b(query: str, index: ImageIndexB, qformer, vocab, k: int = 5,
             stage1: int = 128) -> RankedRetrieval:
    """Stage 1: shortlist by max query-token cosine; stage 2: rerank the
    shortlist by the matching head's matched-class probability."""
    if not index.ids:
        raise ValueError("empty retrieval pool")
    q_ids = tokenize(query, vocab, qformer.cfg.text_max_len)
    t_proj = qformer.text_cls_proj(q_ids)
    cosine = (index.query_proj @ t_proj).max(axis=1)
    n_short = min(stage1, len(index.ids))
    shortlist = sorted(range(len(index.ids)),
                       key=lambda i: (-cosine[i], index.ids[i]))[:n_short]
    probs = itm_scores(q_ids, index, qformer, subset=shortlist)
    ids = [index.ids[i] for i in shortlist]
    return RankedRetrieval(query, _rank(ids, probs, k))


def exhaustive_itm_ranking(query: str, index: ImageIndexB, qformer, vocab,
                           k: int = 5) -> RankedRetrieval:
    """Oracle: matching-head ranking of the entire pool (no shortlist)."""
    q_ids = tokenize(query, vocab, qformer.cfg.text_max_len)
    probs = itm_scores(q_ids, index, qformer)
    return RankedRetrieval(query, _rank(index.ids, probs, k))


# ---------------------------------------------------------------------------
# generator-ground-truth grading for synthetic queries


@dataclass
class QuerySpec:
    text: str
    kind: str
    laterality: str | None = None
    severity: str | None = None


def laterality_query(kind: str, laterality: str) -> QuerySpec:
    from .templates import PHRASES

    return QuerySpec(f"{laterality} {PHRASES[kind]}", kind, laterality)


def grade_study(spec: QuerySpec, study) -> int:
    """2 = exact match, 1 = right finding but wrong attribute, 0 = miss."""
    fmap = study.finding_map()
    if spec.kind not in fmap:
        return 0
    lat, sev = fmap[spec.kind]
    if spec.laterality is not None and lat != spec.laterality:
        return 1
    if spec.severity is not None and sev != spec.severity:
        return 1
    return 2


def grade_retrieval(result: RankedRetrieval, spec: QuerySpec, studies_by_id) -> RankedRetrieval:
    result.grades = [grade_study(spec, studies_by_id[sid]) for sid in result.ids()]
    return result
