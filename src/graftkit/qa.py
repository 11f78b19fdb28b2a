"""Report quality assurance: impression alteration per the four rules,
the 12-question assessment pipeline, reviewer prompt assembly, mechanical
verdict grading, and grade aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import templates as T
from .corpus import SyntheticStudy, swap_laterality_words
from .vqa import ElixrBundle

@dataclass
class QaCase:
    study_id: int
    alteration: str
    primary: str                 # finding kind, or "no-finding"
    primary_laterality: str
    original_impression: str
    altered_impression: str


def can_swap_laterality(primary: str, laterality: str) -> bool:
    """Whether a swap-laterality alteration applies to a finding ``primary``
    at ``laterality``: a lateralized kind other than edema, on one side."""
    return bool(primary in T.KINDS and T.KIND_LATERALITY.get(primary)
                and primary != "edema" and laterality in ("left", "right"))


def alter_impression_text(impression: str, primary: str, laterality: str,
                          alteration: str) -> str:
    """Pure text surgery on a template impression."""
    if alteration == "control":
        return impression
    sentences = T.split_sentences(impression)
    if alteration == "swap-laterality":
        if not can_swap_laterality(primary, laterality):
            raise ValueError(f"cannot swap laterality for ({primary}, {laterality})")
        out = [swap_laterality_words(s) if T.sentence_mentions(s, primary) else s
               for s in sentences]
        return T.join_sentences(out)
    if alteration == "remove-finding":
        if primary == T.NO_FINDING:
            raise ValueError("cannot remove a finding from a normal report")
        kept = [s for s in sentences if not T.sentence_mentions(s, primary)]
        if not any(T.positive_mentions(s) for s in kept):
            return T.NORMAL_IMPRESSION
        return T.join_sentences(kept)
    if alteration == "add-finding":
        if primary not in T.ADD_FINDING_SENTENCES:
            raise ValueError(f"no add-finding rule for primary {primary!r}")
        if primary == T.NO_FINDING:
            # drop sentences indicating the report is normal/clear
            sentences = [s for s in sentences
                         if s != T.NORMAL_IMPRESSION and "clear" not in s.split()
                         and "normal" not in s.split()]
        return T.join_sentences(sentences + [T.ADD_FINDING_SENTENCES[primary]])
    raise ValueError(f"unknown alteration {alteration!r}")


def alter_impression(study: SyntheticStudy, alteration: str, primary: str) -> QaCase:
    """Build a QA case from a study about its ``primary`` finding (or
    no-finding)."""
    fmap = study.finding_map()
    if primary != T.NO_FINDING and primary not in fmap:
        raise ValueError(f"study {study.study_id} has no {primary!r} finding")
    if primary == T.NO_FINDING and study.findings:
        raise ValueError(f"study {study.study_id} is not a no-finding study")
    lat = fmap.get(primary, ("n/a", "n/a"))[0]
    altered = alter_impression_text(study.report_impression, primary, lat, alteration)
    return QaCase(study.study_id, alteration, primary, lat,
                  study.report_impression, altered)


# the paper's per-category alteration mix (8 cases per primary finding)
DEFAULT_CATEGORY_MIX = {
    T.NO_FINDING: {"control": 4, "add-finding": 4},
    "pneumothorax": {"control": 2, "swap-laterality": 2, "remove-finding": 2, "add-finding": 2},
    "effusion": {"control": 2, "swap-laterality": 2, "remove-finding": 2, "add-finding": 2},
    "edema": {"control": 3, "remove-finding": 2, "add-finding": 3},
    "opacity": {"control": 2, "swap-laterality": 2, "remove-finding": 2, "add-finding": 2},
    "nodule": {"control": 2, "swap-laterality": 2, "remove-finding": 2, "add-finding": 2},
}


def build_qa_cases(corpus, seed: int = 0) -> list[QaCase]:
    """48 synthetic cases drawn per ``DEFAULT_CATEGORY_MIX``."""
    rng = np.random.default_rng(seed)
    cases = []
    for primary, counts in DEFAULT_CATEGORY_MIX.items():
        if primary == T.NO_FINDING:
            eligible = [s for s in corpus.studies if s.labels[T.NO_FINDING] == 1]
        else:
            eligible = [s for s in corpus.studies if s.labels.get(primary) == 1]
        order = rng.permutation(len(eligible))
        cursor = 0

        def take(pred):
            nonlocal cursor
            while cursor < len(order):
                s = eligible[order[cursor]]
                cursor += 1
                if pred(s):
                    return s
            raise ValueError(f"not enough eligible studies for primary {primary!r}")

        for alteration, count in counts.items():
            for _ in range(count):
                if alteration == "swap-laterality":
                    s = take(lambda s: can_swap_laterality(primary, s.finding_map()[primary][0]))
                else:
                    s = take(lambda s: True)
                cases.append(alter_impression(s, alteration, primary=primary))
    return cases


# ---------------------------------------------------------------------------
# the twelve-question pipeline


@dataclass
class QaResult:
    case: QaCase
    answers: list[str]
    assessment: str
    prompt_missing: str
    prompt_added: str
    response_missing: str
    response_added: str


def assessment_text(answers) -> str:
    """One line per question: the question followed by the model's answer."""
    return "\n".join(f"{q} {a}" for q, a in zip(T.QA_QUESTIONS, answers))


def run_qa_pipeline(study: SyntheticStudy, altered_impression: str,
                    bundle: ElixrBundle, case: QaCase | None = None) -> QaResult:
    """Ask all 12 questions about the image, then have the reviewer diff the
    assessment against the altered impression (both prompt templates).

    The image is prepared once, and the questions are answered from its
    dialog state as two groups, with two cores one of them in the
    ``lm-answers`` part worker (``ElixrBundle.answers``).

    The reviewer is ``bundle.review``, the frozen LM, which keeps the state of
    the last prompt it saw on the bundle for the bundle's lifetime:
    consecutive cases sharing a bundle reuse each other's prompt header, and a
    bundle is not shared across threads."""
    prepared = bundle.prepare(study.image)
    answers = bundle.answers(prepared, T.QA_QUESTIONS)
    assessment = assessment_text(answers)
    prompt_missing, prompt_added = T.make_reviewer_prompts(assessment, altered_impression)
    resp_missing = bundle.review(prompt_missing)
    resp_added = bundle.review(prompt_added)
    if case is None:
        case = QaCase(study.study_id, "control", T.NO_FINDING, "n/a",
                      study.report_impression, altered_impression)
    return QaResult(case, answers, assessment, prompt_missing, prompt_added,
                    resp_missing, resp_added)


# ---------------------------------------------------------------------------
# mechanical verdict grading (the rubric rows that need no human)


def _names(resp: str, kind: str) -> bool:
    return bool(set(resp.split()) & T.KEYWORDS[kind])


def _accepts(resp: str) -> bool:
    toks = resp.split()
    return bool(toks) and toks[0] == "none"


def grade_qa_case(case: QaCase, response_missing: str, response_added: str) -> int:
    """1 when the review identifies the alteration (or accepts a control)."""
    if case.alteration == "control":
        return int(_accepts(response_missing) and _accepts(response_added))
    if case.alteration == "remove-finding":
        return int(_names(response_missing, case.primary))
    if case.alteration == "add-finding":
        return int(_names(response_added, T.ADDED_SENTENCE_KIND[case.primary]))
    if case.alteration == "swap-laterality":
        true_lat = case.primary_laterality
        wrong_lat = {"left": "right", "right": "left"}[true_lat]
        hit_missing = _names(response_missing, case.primary) and true_lat in response_missing.split()
        hit_added = _names(response_added, case.primary) and wrong_lat in response_added.split()
        return int(hit_missing or hit_added)
    raise ValueError(f"unknown alteration {case.alteration!r}")


# ---------------------------------------------------------------------------
# grade aggregation


def aggregate_grades(grades, condition_positive) -> dict:
    """Mean grade over positive / negative / all subsets; N/A excluded."""
    pairs = [(g, c) for g, c in zip(grades, condition_positive) if g is not None]
    if not pairs:
        raise ValueError("no gradable answers")
    pos = [g for g, c in pairs if c]
    neg = [g for g, c in pairs if not c]
    out = {"accuracy": float(np.mean([g for g, _ in pairs]))}
    if pos:
        out["sensitivity"] = float(np.mean(pos))
    if neg:
        out["specificity"] = float(np.mean(neg))
    return out
