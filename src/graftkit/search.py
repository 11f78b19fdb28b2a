"""Semantic search: single-stage cosine retrieval for the contrastive model
and two-stage retrieval (cosine shortlist, matching-head rerank) for the
adapter, with deterministic id-ascending tie-breaking throughout.

Everything is batch-first, and each batch forward is split by rows across
both cores (``partworker.split_rows``) with the same bits as one pass.  An
index build runs one image-encoder pass (and, for the adapter, one query
pass) over the studies it is given, or from
``clip_stage._IMAGE_SPLIT_ROWS`` studies up with two cores one per half,
here and in a part worker (``ClipModel.embed_images``,
``qformer.image_queries``).  The rerank scores the shortlist with one
matching-head forward, or from ``qformer._ITM_SPLIT_ROWS`` candidates up
one per half (``QFormerModel.itm_probabilities``).  In each rerank forward
the query text is a batch of 1 that every shortlisted grid shares: its
embeddings, its block-0 self-attention (with the learned queries) and its
block-0 MLP run once, not once per grid, and the final block skips the text
rows, which the matching head never reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import tokenize, words
from .qformer import image_queries
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


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")


def _rank(ids, scores, k: int) -> list:
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    return [(ids[i], float(scores[i])) for i in order[:k]]


def _check_lengths(ids, **arrays) -> None:
    for name, arr in arrays.items():
        if len(arr) != len(ids):
            raise ValueError(f"index has {len(ids)} ids but {len(arr)} {name} rows")


def _images(studies) -> np.ndarray:
    if len(studies) == 0:
        raise ValueError("an index needs at least one study; got none")
    return np.stack([s.image for s in studies])


def _check_query(query: str) -> None:
    if not words(query):
        raise ValueError(f"query {query!r} has no words")


@dataclass
class ImageIndexC:
    """Precomputed contrastive image embeddings for a pool."""

    ids: list
    embeddings: np.ndarray  # (N, proj_dim), unit rows

    def __post_init__(self):
        _check_lengths(self.ids, embeddings=self.embeddings)

    @staticmethod
    def build(clip_model, studies) -> "ImageIndexC":
        return ImageIndexC([s.study_id for s in studies],
                           clip_model.embed_images(_images(studies)))


@dataclass
class ImageIndexB:
    """Precomputed pooled grids and query projections for a pool."""

    ids: list
    grids: np.ndarray        # (N, G, grid_dim)
    query_proj: np.ndarray   # (N, Q, proj_dim)

    def __post_init__(self):
        _check_lengths(self.ids, grids=self.grids, query_proj=self.query_proj)

    @staticmethod
    def build(clip_model, qformer, studies) -> "ImageIndexB":
        return ImageIndexB([s.study_id for s in studies],
                           *image_queries(clip_model, qformer, _images(studies)))


def search_c(query: str, index: ImageIndexC, clip_model, vocab, k: int = 5) -> RankedRetrieval:
    """Rank the pool by cosine between the query text, cut to the CLIP
    model's ``text_max_len`` as its training texts were, and image embeddings."""
    if not index.ids:
        raise ValueError("empty retrieval pool")
    _check_k(k)
    _check_query(query)
    q = clip_model.embed_text(tokenize(query, vocab, clip_model.cfg.text_max_len))
    scores = index.embeddings @ q
    return RankedRetrieval(query, _rank(index.ids, scores, k))


def itm_scores(query_ids, index: ImageIndexB, qformer, subset=None) -> np.ndarray:
    """Matched-class probability of the query against each ``subset`` row
    (default: the whole pool), from one matching-head forward per part
    (``QFormerModel.itm_probabilities``)."""
    grids = index.grids if subset is None else index.grids[list(subset)]
    return qformer.itm_probabilities(grids, query_ids)


def search_b(query: str, index: ImageIndexB, qformer, vocab, k: int = 5,
             stage1: int = 128) -> RankedRetrieval:
    """Stage 1: shortlist by max query-token cosine; stage 2: rerank the
    shortlist by the matching head's matched-class probability."""
    if not index.ids:
        raise ValueError("empty retrieval pool")
    _check_k(k)
    if stage1 < 1:
        raise ValueError(f"stage1 must be at least 1, got {stage1}")
    _check_query(query)
    q_ids = tokenize(query, vocab, qformer.cfg.text_max_len)
    t_proj = qformer.text_cls_proj(q_ids)
    cosine = (index.query_proj @ t_proj).max(axis=1)
    n_short = min(stage1, len(index.ids))
    shortlist = sorted(range(len(index.ids)),
                       key=lambda i: (-cosine[i], index.ids[i]))[:n_short]
    probs = itm_scores(q_ids, index, qformer, subset=shortlist)
    ids = [index.ids[i] for i in shortlist]
    return RankedRetrieval(query, _rank(ids, probs, k))


# ---------------------------------------------------------------------------
# generator-ground-truth grading for synthetic queries


@dataclass
class QuerySpec:
    text: str
    kind: str
    laterality: str | None = None


def laterality_query(kind: str, laterality: str) -> QuerySpec:
    from .templates import PHRASES

    return QuerySpec(f"{laterality} {PHRASES[kind]}", kind, laterality)


def grade_study(spec: QuerySpec, study) -> int:
    """2 = exact match, 1 = right finding but wrong laterality, 0 = miss."""
    fmap = study.finding_map()
    if spec.kind not in fmap:
        return 0
    if spec.laterality is not None and fmap[spec.kind][0] != spec.laterality:
        return 1
    return 2


def grade_retrieval(result: RankedRetrieval, spec: QuerySpec, studies_by_id) -> RankedRetrieval:
    result.grades = [grade_study(spec, studies_by_id[sid]) for sid in result.ids()]
    return result
