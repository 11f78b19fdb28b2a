"""Pretraining corpus for the decoder LM.

The real system leans on a large pretrained LLM for dialog competence and
report reasoning; the desk-scale stand-in acquires those skills here, from
procedurally generated transcripts in the same template language the rest of
the pipeline emits: plain report sections, VQA dialog turns, and reviewer
assessment-vs-report comparisons.  Every sequence is (token ids, loss_start):
the loss covers positions from loss_start on (the answer, not the scaffold).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import templates as T
from .corpus import Corpus, Vocab, select_report_text, tokenize
from .nn import DecoderLM, LmConfig, LmTrainConfig, pretrain_lm
from .params import ParamRegistry
from .qa import alter_impression_text
from .seeding import substream
from .vqa import vqa_prompt_body


@dataclass
class LmDataConfig:
    n_dialog: int = 1400
    n_reviewer: int = 1400
    belief_noise: float = 0.08
    holdout_reports: int = 48


def _img_prefix(vocab: Vocab, slots: int) -> list[int]:
    return [vocab.id("[IMG]")] * slots


def _seq(vocab: Vocab, prefix_ids, body_text: str, answer_text: str | None = None):
    """Token sequence + loss_start; loss covers the answer (or the body when
    no answer is given) plus the closing [EOS]."""
    ids = list(prefix_ids) + tokenize(body_text, vocab, max_len=10_000, lead=None)
    loss_start = len(prefix_ids) if answer_text is None else len(ids)
    if answer_text is not None:
        ids = ids + tokenize(answer_text, vocab, max_len=10_000, lead=None)
    ids.append(vocab.id("[EOS]"))
    return ids, loss_start


def _random_findings(rng) -> list[tuple[str, str, str]]:
    out = []
    for kind in T.KINDS:
        if rng.random() < 0.30:
            lats = T.KIND_LATERALITY[kind]
            lat = lats[rng.integers(len(lats))] if lats else "n/a"
            sev = T.SEVERITIES[rng.integers(3)] if T.KIND_HAS_SEVERITY[kind] else "n/a"
            out.append((kind, lat, sev))
    return out


def _render_impression(findings, rng) -> str:
    bits = [int(b) for b in rng.integers(0, 3, size=8)]
    return T.render_report(findings, bits)[1]


_QUESTION_MENU = []
for _i, _q in enumerate(T.QA_QUESTIONS):
    _QUESTION_MENU.append(("qa", _i))
for _kind, _qs in T.PRESENCE_QUESTIONS.items():
    for _j in range(len(_qs)):
        _QUESTION_MENU.append(("presence", (_kind, _j)))
for _kind in T.LOCATION_QUESTIONS:
    _QUESTION_MENU.append(("location", _kind))
for _kind in T.SEVERITY_QUESTIONS:
    _QUESTION_MENU.append(("severity", _kind))


def _dialog_example(vocab, slots, rng):
    findings = _random_findings(rng)
    fmap = {k: (lat, sev) for k, lat, sev in findings}
    impression = _render_impression(findings, rng)
    tag, key = _QUESTION_MENU[rng.integers(len(_QUESTION_MENU))]
    if tag == "qa":
        question = T.QA_QUESTIONS[key]
        answer = T.ideal_answer(T.QA_QUESTION_KINDS[key], fmap)
    elif tag == "presence":
        kind, j = key
        question = T.PRESENCE_QUESTIONS[kind][j]
        answer = T.presence_answer(kind, fmap)
    elif tag == "location":
        question = T.LOCATION_QUESTIONS[key]
        answer = T.location_answer(key, fmap)
    else:
        question = T.SEVERITY_QUESTIONS[key]
        answer = T.severity_answer(key, fmap)
    body = vqa_prompt_body(impression, question)
    return _seq(vocab, _img_prefix(vocab, slots), body, answer)


def _perturbed_beliefs(findings, rng, noise):
    fmap = {k: (lat, sev) for k, lat, sev in findings}
    for kind in T.KINDS:
        if rng.random() >= noise:
            continue
        if kind in fmap:
            del fmap[kind]
        else:
            lats = T.KIND_LATERALITY[kind]
            lat = lats[rng.integers(len(lats))] if lats else "n/a"
            fmap[kind] = (lat, "n/a")
    return fmap


def _reviewer_examples(vocab, rng, noise):
    findings = _random_findings(rng)
    fmap = {k: (lat, sev) for k, lat, sev in findings}
    beliefs_map = _perturbed_beliefs(findings, rng, noise)
    answers = [T.ideal_answer(kind, beliefs_map) for kind in T.QA_QUESTION_KINDS]
    assessment = "\n".join(f"{q} {a}" for q, a in zip(T.QA_QUESTIONS, answers))
    impression = _render_impression(findings, rng)

    choices = ["control", "add-finding"]
    present = [k for k in T.KINDS if k in fmap]
    if present:
        primary = present[int(rng.integers(len(present)))]
        lat = fmap[primary][0]
        choices.append("remove-finding")
        if lat in ("left", "right") and primary != "edema":
            choices.append("swap-laterality")
    else:
        primary = T.NO_FINDING
        lat = "n/a"
    alteration = choices[int(rng.integers(len(choices)))]
    if alteration == "add-finding":
        addable = [k for k in T.ADD_FINDING_SENTENCES
                   if (k == T.NO_FINDING and not present) or (k != T.NO_FINDING and k in present)]
        if not addable:
            alteration = "control"
        else:
            primary = addable[int(rng.integers(len(addable)))]
            lat = fmap.get(primary, ("n/a", "n/a"))[0]
    altered = alter_impression_text(impression, primary, lat, alteration)

    beliefs = T.beliefs_from_answers(answers)
    mentions = T.positive_mentions(altered)
    resp_missing, resp_added = T.diff_responses(beliefs, mentions)
    prompt_missing, prompt_added = T.make_reviewer_prompts(assessment, altered)
    return [_seq(vocab, [], prompt_missing, resp_missing),
            _seq(vocab, [], prompt_added, resp_added)]


def build_lm_dataset(corpus: Corpus, slots: int, seed: int,
                     cfg: LmDataConfig | None = None):
    """(train sequences, held-out report sequences) for LM pretraining."""
    cfg = cfg or LmDataConfig()
    vocab = corpus.vocab
    rng = substream(seed, "lm-data")
    prefix = _img_prefix(vocab, slots)

    reports = []
    for s in corpus.studies:
        reports.append(_seq(vocab, prefix, select_report_text(s.report)))
        reports.append(_seq(vocab, prefix, s.report_findings))
    holdout = reports[-2 * cfg.holdout_reports:]
    train = reports[: len(reports) - len(holdout)]

    for _ in range(cfg.n_dialog):
        train.append(_dialog_example(vocab, slots, rng))
    for _ in range(cfg.n_reviewer // 2):
        train.extend(_reviewer_examples(vocab, rng, cfg.belief_noise))
    return train, holdout


def pretrain_frozen_lm(corpus: Corpus, seed: int = 0, lm_cfg: LmConfig | None = None,
                       train_cfg: LmTrainConfig | None = None,
                       data_cfg: LmDataConfig | None = None, log=None):
    """Build the LM, pretrain it on the mixed template corpus, freeze it.

    Returns (registry, lm, stats); stats carries the held-out report
    perplexity that gates downstream use.
    """
    lm_cfg = lm_cfg or LmConfig()
    if lm_cfg.vocab_size <= 0:
        lm_cfg.vocab_size = len(corpus.vocab)
    lm_cfg.pad_id = corpus.vocab.id("[PAD]")
    lm_cfg.eos_id = corpus.vocab.id("[EOS]")
    lm_cfg.img_id = corpus.vocab.id("[IMG]")
    train_cfg = train_cfg or LmTrainConfig()
    reg = ParamRegistry()
    lm = DecoderLM(reg, lm_cfg, substream(seed, "init.lm"))
    dataset, holdout = build_lm_dataset(corpus, lm_cfg.soft_slots, seed, data_cfg)
    stats = pretrain_lm(lm, dataset, train_cfg, seed=seed, holdout=holdout, log=log)
    if stats.get("holdout_perplexity", float("inf")) > train_cfg.target_perplexity:
        stats["perplexity_ok"] = False
    else:
        stats["perplexity_ok"] = True
    return reg, lm, stats
