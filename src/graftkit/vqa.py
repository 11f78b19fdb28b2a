"""Visual question answering: prompt assembly over phase-1 impressions and
phase-2 aligned tokens, greedy decoding, and programmatic yes/no grading.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import templates as T
from .clip_stage import ClipModel
from .corpus import Vocab, detokenize, tokenize
from .nn import DecoderLM
from .qformer import Phase2Bridge, QFormerModel, generate_impression, soft_prompts_for_grid


@dataclass
class ElixrBundle:
    """Checkpoints needed for text-output tasks.

    ``qformer_impression`` is the phase-1 generation-best adapter (drives
    impressions); ``qformer_aligned`` plus ``bridge`` is the phase-2 pair
    that produces soft prompts for the frozen LM.
    """

    clip: ClipModel
    qformer_impression: QFormerModel
    qformer_aligned: QFormerModel
    bridge: Phase2Bridge
    lm: DecoderLM
    vocab: Vocab

    def __post_init__(self):
        if not self.lm.frozen:
            raise RuntimeError("bundle requires a frozen LM")

    def grid_for(self, image: np.ndarray) -> np.ndarray:
        hw = self.qformer_impression.cfg.pooled_hw
        return self.clip.image_encoder.grid_tokens(np.asarray(image)[None], hw)[0]

    def impression_for(self, image: np.ndarray) -> str:
        return generate_impression(self.grid_for(image), self.qformer_impression, self.vocab)


def vqa_prompt_body(impression: str, question: str) -> str:
    """Dialog text after the aligned-tokens marker line (which the soft
    prompts replace at embedding level)."""
    full = T.make_vqa_prompt(T.VQA_MARKER, impression, question)
    return full.split("\n", 1)[1]


def run_vqa(image: np.ndarray, question: str, bundle: ElixrBundle,
            max_new: int = 64) -> str:
    """Impression from phase 1, aligned tokens from phase 2, answer from the
    frozen LM; deterministic given checkpoints.  A prompt that does not fit
    the LM context next to the soft prompts is rejected, not truncated.
    The image is encoded once; its grid feeds both adapters."""
    grid = bundle.grid_for(image)
    impression = generate_impression(grid, bundle.qformer_impression, bundle.vocab)
    body = vqa_prompt_body(impression, question)
    prompt_ids = tokenize(body, bundle.vocab, max_len=None, lead=None)
    n_soft, limit = bundle.qformer_aligned.cfg.n_queries, bundle.lm.cfg.max_len
    if n_soft + len(prompt_ids) > limit:
        raise ValueError(f"VQA prompt of {len(prompt_ids)} tokens plus {n_soft} soft prompts "
                         f"exceeds the LM context of {limit} tokens")
    soft = soft_prompts_for_grid(bundle.qformer_aligned, bundle.bridge, grid)
    answer_ids = bundle.lm.generate(soft, prompt_ids, max_new=max_new)
    return detokenize(answer_ids, bundle.vocab)


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
