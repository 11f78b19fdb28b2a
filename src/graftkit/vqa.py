"""Visual question answering: prompt assembly over phase-1 impressions and
phase-2 aligned tokens, greedy decoding, and programmatic yes/no grading.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from . import partworker
from . import templates as T
from .clip_stage import ClipModel
from .corpus import Vocab, detokenize, tokenize
from .nn import DecoderLM, LmState, _common_prefix
from .qformer import (Phase2Bridge, QFormerModel, check_grid_dim, generate_impression,
                      soft_prompts_for_grid)


@dataclass
class ElixrBundle:
    """Checkpoints needed for text-output tasks.

    ``qformer_impression`` is the phase-1 generation-best adapter (drives
    impressions); ``qformer_aligned`` plus ``bridge`` is the phase-2 pair
    that produces soft prompts for the frozen LM.

    The bundle also keeps the LM state of the last reviewer prompt
    (``review``), for as long as the bundle lives and the LM's parameters
    are not written: frozen parameters can still be overwritten
    (``ParamRegistry.load_values``), and a state built at other parameter
    versions is dropped, not forked from.  A bundle is therefore not shared
    across threads.
    """

    clip: ClipModel
    qformer_impression: QFormerModel
    qformer_aligned: QFormerModel
    bridge: Phase2Bridge
    lm: DecoderLM
    vocab: Vocab
    _review_state: LmState | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.lm.frozen:
            raise RuntimeError("bundle requires a frozen LM")
        hw = self.qformer_impression.cfg.pooled_hw, self.qformer_aligned.cfg.pooled_hw
        if hw[0] != hw[1]:  # prepare feeds one grid to both
            raise ValueError("the impression adapter pools grids to {0}x{0}, the aligned "
                             "adapter to {1}x{1}".format(*hw))
        for qf in (self.qformer_impression, self.qformer_aligned):
            check_grid_dim(qf.cfg, self.clip)

    def grid_for(self, image: np.ndarray) -> np.ndarray:
        hw = self.qformer_impression.cfg.pooled_hw
        return self.clip.image_encoder.grid_tokens(np.asarray(image)[None], hw)[0]

    def impression_for(self, image: np.ndarray) -> str:
        return generate_impression(self.grid_for(image), self.qformer_impression, self.vocab)

    def prepare(self, image: np.ndarray) -> "PreparedImage":
        """Everything the questions about one image share, computed once from
        one encoder pass, which feeds both adapters: the impression, the soft
        prompts and the LM state of the dialog up to the question."""
        grid = self.grid_for(image)
        impression = generate_impression(grid, self.qformer_impression, self.vocab)
        dialog = tokenize(vqa_prompt_body(impression, ""), self.vocab, max_len=None, lead=None)
        self._check_vqa_prompt(dialog)
        soft = soft_prompts_for_grid(self.qformer_aligned, self.bridge, grid)
        return PreparedImage(impression, soft, self.lm.prefill(soft, [dialog]))

    def _check_vqa_prompt(self, prompt_ids) -> None:
        """Reject a prompt that does not fit the LM context next to the soft
        prompts, rather than truncate it."""
        n_soft, limit = self.qformer_aligned.cfg.n_queries, self.lm.cfg.max_len
        if n_soft + len(prompt_ids) > limit:
            raise ValueError(f"VQA prompt of {len(prompt_ids)} tokens plus {n_soft} soft "
                             f"prompts exceeds the LM context of {limit} tokens")

    def answers(self, prepared: "PreparedImage", questions) -> list[str]:
        """Greedy answers of up to 64 tokens from the frozen LM, one per
        question, in question order.  Every question forks from the prepared
        dialog: a group of questions runs as one packed prefill whose rows
        then decode in lockstep (``_answer_part``).  From
        ``_ANSWER_SPLIT_QUESTIONS`` questions up they run as two groups
        (``_answer_groups``), with two cores one of them in the
        ``lm-answers`` part worker; the groups depend only on the prompts, so
        the answers have the same bits on one core and two.  An image
        prepared before the LM's values were written is refused before
        anything runs; no questions get no answers, and nothing runs."""
        prompts = [tokenize(vqa_prompt_body(prepared.impression, q), self.vocab, max_len=None,
                            lead=None) for q in questions]
        for prompt_ids in prompts:
            self._check_vqa_prompt(prompt_ids)
        self.lm.check_current(prepared.dialog)
        if not prompts:
            return []
        groups = _answer_groups(prompts, prepared.dialog.ids[0])
        values, _, _ = partworker.run_parts(_ANSWER_PARTS, self.lm,
                                            (prepared.soft, prepared.dialog, groups),
                                            len(groups))
        return [detokenize(ids, self.vocab) for group in values for ids in group]

    def answer(self, prepared: "PreparedImage", question: str) -> str:
        """``answers`` for one question."""
        return self.answers(prepared, [question])[0]

    def review(self, prompt: str) -> str:
        """The frozen LM's greedy response to a reviewer prompt (text in, text
        out).  The prompt forks from the state of the last prompt this bundle
        reviewed at their longest common prefix, so a prompt that shares the
        header and question lines with it runs only the rest; the response
        then decodes from the prompt's own state (a ``generate`` forked from
        that state runs no prompt token again).  The last prompt's state stays
        on the bundle until the LM's parameters are written, so one bundle
        serves one thread."""
        ids = tokenize(prompt, self.vocab, max_len=None, lead=None)
        limit = self.lm.cfg.max_len
        if len(ids) + 16 > limit:
            raise ValueError(f"reviewer prompt of {len(ids)} tokens plus 16 answer tokens "
                             f"exceeds the LM context of {limit} tokens")
        last = self._review_state
        if last is not None and last.versions != self.lm.versions():
            last = None  # built before the LM's values were written: start afresh
        self._review_state = self.lm.prefill(None, [ids], prefix=last)
        out = self.lm.generate(None, ids, max_new=32, prefix=self._review_state)
        return detokenize(out, self.vocab)


def _answer_part(lm: DecoderLM, batch, i: int) -> tuple[list[list[int]], dict]:
    """Part i of an answers step ``(soft prompts, dialog state, prompt
    groups)``: the greedy ids of group i's prompts, forked from the dialog in
    one packed prefill and decoded in lockstep; no gradients."""
    soft, dialog, groups = batch
    return lm.decode(lm.prefill(soft, groups[i], prefix=dialog)), {}


_ANSWER_PARTS = partworker.PartKind("lm-answers", _answer_part)
# The fewest questions that run as two groups.  Medians per call with the
# benchmark's fixtures on a 2-core VM at 1 BLAS thread, over 16 prepared
# images and the first n of the 12 QA questions, one group here against two
# (one in the worker) and against two both here: 4.42 / 3.41 / 5.86 ms at 2
# questions, 5.47 / 4.70 / 7.15 at 3, 6.69 / 4.70 / 8.49 at 4, 9.84 / 5.79 /
# 10.79 at 6, 13.48 / 6.95 / 12.70 at 8, 19.79 / 11.32 / 18.67 at 12.  Two
# groups win on two cores from 2 questions; on one core they cost up to a
# third more below 8 questions, and less from 8 on, where the packed
# sequence's attention grows faster than its rows.
_ANSWER_SPLIT_QUESTIONS = 2


def _answer_groups(prompts: list, dialog_ids) -> list[list]:
    """``prompts`` as one group, or from ``_ANSWER_SPLIT_QUESTIONS`` prompts
    up as two contiguous groups whose token counts past the dialog
    ``dialog_ids`` are as near equal as can be (the earlier cut on a tie).
    A packed prefill's low bits depend on what is packed with each prompt,
    so the groups depend on the prompts alone."""
    if len(prompts) < _ANSWER_SPLIT_QUESTIONS:
        return [prompts]
    tokens = np.cumsum([len(p) - _common_prefix(dialog_ids, p) for p in prompts])
    cut = 1 + int(np.argmin(np.abs(2 * tokens[:-1] - tokens[-1])))
    return [prompts[:cut], prompts[cut:]]


@dataclass(frozen=True)
class PreparedImage:
    """Per-image VQA inputs (``ElixrBundle.prepare``)."""

    impression: str
    soft: np.ndarray
    dialog: LmState


def vqa_prompt_body(impression: str, question: str) -> str:
    """Dialog text after the aligned-tokens marker line (which the soft
    prompts replace at embedding level)."""
    full = T.make_vqa_prompt(T.VQA_MARKER, impression, question)
    return full.split("\n", 1)[1]


def run_vqa(image: np.ndarray, question: str, bundle: ElixrBundle) -> str:
    """Impression from phase 1, aligned tokens from phase 2, answer from the
    frozen LM; deterministic given checkpoints.  A prompt that does not fit
    the LM context next to the soft prompts is rejected, not truncated."""
    return bundle.answer(bundle.prepare(image), question)


_PUNCT = re.compile(r"[^\w\s\-']")


def map_yes_no(answer: str) -> str:
    """Lowercase, strip punctuation; the leading token decides yes/no."""
    toks = _PUNCT.sub(" ", answer.lower()).split()
    if toks and toks[0] in ("yes", "no"):
        return toks[0]
    return "other"


def auto_grade_yes_no(answer: str, expected_yes: bool) -> float | None:
    """1.0 / 0.0 for programmatically mappable answers, None (N/A) otherwise."""
    mapped = map_yes_no(answer)
    if mapped == "other":
        return None
    return 1.0 if mapped == ("yes" if expected_yes else "no") else 0.0
