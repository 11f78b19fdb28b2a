"""Semantic search: single-stage cosine retrieval for the contrastive model
and two-stage retrieval (cosine shortlist, matching-head rerank) for the
adapter, with deterministic id-ascending tie-breaking throughout.

Everything is batch-first: an index build runs one image-encoder pass (and,
for the adapter, one query pass) over all the studies it is given, and the
rerank scores the whole shortlist with one matching-head forward.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        emb = clip_model.image_embeddings(np.stack([s.image for s in studies])).data
        return ImageIndexC([s.study_id for s in studies], emb)


@dataclass
class ImageIndexB:
    """Precomputed pooled grids and query projections for a pool."""

    ids: list
    grids: np.ndarray        # (N, G, grid_dim)
    query_proj: np.ndarray   # (N, Q, proj_dim)

    @staticmethod
    def build(clip_model, qformer, studies, pooled_hw: int | None = None) -> "ImageIndexB":
        hw = pooled_hw or qformer.cfg.pooled_hw
        grids = clip_model.image_encoder.grid_tokens(np.stack([s.image for s in studies]), hw)
        q_out, _ = qformer.forward(grids, None, mode="itc")
        return ImageIndexB([s.study_id for s in studies], grids,
                           qformer.query_projections(q_out).data)


def search_c(query: str, index: ImageIndexC, clip_model, vocab, k: int = 5) -> RankedRetrieval:
    """Rank the pool by cosine between the query text and image embeddings."""
    if not index.ids:
        raise ValueError("empty retrieval pool")
    q = clip_model.embed_text(tokenize(query, vocab))
    scores = index.embeddings @ q
    return RankedRetrieval(query, _rank(index.ids, scores, k))


def itm_scores(query_ids, index: ImageIndexB, qformer, subset=None) -> np.ndarray:
    """Matched-class probability of the query against each ``subset`` row
    (default: the whole pool), from one matching-head forward."""
    grids = index.grids if subset is None else index.grids[list(subset)]
    return qformer.itm_probabilities(grids, query_ids)


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
