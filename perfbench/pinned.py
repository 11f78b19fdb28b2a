"""Pinned inputs of the benchmark: paths, the BLAS thread count, the fixture
training config, fixture loading, and the environment record.

Importing this module imports numpy, so ``threads.pin()`` must run first.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
DATA = BENCH_DIR / "data"
GOLDEN = DATA / "golden.json"
TRAIN_STATS = DATA / "train_stats.json"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import threads  # noqa: E402

from graftkit.clip_stage import ClipConfig, load_clip  # noqa: E402
from graftkit.corpus import CorpusSpec, build_vocab  # noqa: E402
from graftkit.nn import LmTrainConfig, load_lm  # noqa: E402
from graftkit.qformer import Phase1Config, Phase2Config, load_bridge, load_qformer  # noqa: E402
from graftkit.vqa import ElixrBundle  # noqa: E402

# Everything the fixture checkpoints depend on.  Changing any value here
# means re-running build_fixtures.py and committing its output.
FIXTURE_CORPUS_SEED = 0
FIXTURE_TRAIN_SEED = 0
FIXTURE_N_STUDIES = 512
CLIP_STEPS = 300
PHASE1_STEPS = 300
PHASE1_EVAL_EVERY = 100
LM_STEPS = 1000
LM_LR = 1e-3
PHASE2_STEPS = 60

CHECKPOINTS = ("clip", "b1_scoring", "b1_itg", "lm", "b2_qformer", "b2_bridge")


def fixture_corpus_spec() -> CorpusSpec:
    return CorpusSpec(n_studies=FIXTURE_N_STUDIES)


def fixture_configs() -> dict:
    """Fresh config objects for each training stage of the fixtures."""
    return {
        "clip": ClipConfig(steps=CLIP_STEPS),
        "phase1": Phase1Config(steps=PHASE1_STEPS, eval_every=PHASE1_EVAL_EVERY),
        "lm": LmTrainConfig(steps=LM_STEPS, lr=LM_LR),
        "phase2": Phase2Config(steps=PHASE2_STEPS),
    }


def ckpt_path(name: str) -> Path:
    return DATA / f"{name}.ckpt"


@dataclass
class Fixtures:
    """The trained checkpoints, loaded through graftkit's own loaders (which
    refuse a blob whose SHA-256 differs from its manifest)."""

    clip: object
    qf_scoring: object
    qf_itg: object
    lm: object
    qf_aligned: object
    bridge: object

    def bundle(self) -> ElixrBundle:
        return ElixrBundle(self.clip, self.qf_itg, self.qf_aligned, self.bridge, self.lm,
                           build_vocab())

    def frozen_digests(self) -> dict:
        """Digests of the frozen contracts: the stage-1 towers and the LM."""
        return {"clip": self.clip.tower_digests(), "lm": self.lm.digest()}


def load_fixtures() -> Fixtures:
    _, bridge, _ = load_bridge(ckpt_path("b2_bridge"))
    return Fixtures(
        clip=load_clip(ckpt_path("clip")),
        qf_scoring=load_qformer(ckpt_path("b1_scoring")),
        qf_itg=load_qformer(ckpt_path("b1_itg")),
        lm=load_lm(ckpt_path("lm")),
        qf_aligned=load_qformer(ckpt_path("b2_qformer")),
        bridge=bridge,
    )


def tree_digest(root: Path, pattern: str) -> str:
    """SHA-256 over (relative path, bytes) of every file matching pattern."""
    h = hashlib.sha256()
    for path in sorted(root.rglob(pattern)):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def fixture_digest() -> str:
    """Digest of the checkpoint manifests and blobs (not the golden file)."""
    h = hashlib.sha256()
    for name in CHECKPOINTS:
        for path in (ckpt_path(name), ckpt_path(name).with_suffix(".ckpt.bin")):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _openblas_version() -> str:
    try:
        cfg = np.show_config(mode="dicts")
        return str(cfg["Build Dependencies"]["blas"].get("version", "unknown"))
    except (TypeError, KeyError):
        return "unknown"


def environment() -> dict:
    return {
        "machine": platform.machine(),
        "processor": platform.processor() or "unknown",
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas_version(),
        "blas_threads": {k: os.environ.get(k) for k in threads.BLAS_ENV},
        "src_digest": tree_digest(SRC, "*.py"),
        "fixture_digest": fixture_digest(),
    }


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())
