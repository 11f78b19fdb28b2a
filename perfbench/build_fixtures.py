"""Train the benchmark's fixture checkpoints and record its golden outputs.

Run from the repository root:

    python3 perfbench/build_fixtures.py            # train, then write goldens
    python3 perfbench/build_fixtures.py golden     # goldens only

Training uses the pinned config and seeds in ``pinned.py`` and takes about
ten minutes on a 2-core x86 box.  It writes the six checkpoints (manifest
plus blob, each manifest carrying the blob's SHA-256) and ``train_stats.json``
under ``perfbench/data``; the golden step writes ``golden.json``.  Both
outputs are committed, so benchmark runs never retrain.
"""

from __future__ import annotations

import json
import sys
import time

import threads

BLAS_THREADS = threads.pin()

import pinned  # noqa: E402  (after the BLAS thread pin)
from graftkit.clip_stage import train_elixr_c  # noqa: E402
from graftkit.corpus import generate_corpus  # noqa: E402
from graftkit.lmdata import pretrain_frozen_lm  # noqa: E402
from graftkit.nn import save_lm  # noqa: E402
from graftkit.qformer import phase1_train, phase2_train, save_phase2  # noqa: E402


def train() -> dict:
    pinned.DATA.mkdir(parents=True, exist_ok=True)
    cfgs = pinned.fixture_configs()
    seed = pinned.FIXTURE_TRAIN_SEED
    corpus = generate_corpus(pinned.FIXTURE_CORPUS_SEED, pinned.fixture_corpus_spec())
    stats: dict = {"corpus_digest": corpus.digest(), "blas_threads": BLAS_THREADS,
                   "seconds": {}}

    t = time.perf_counter()
    clip, clip_hist = train_elixr_c(corpus, cfgs["clip"], seed=seed, log=print)
    clip.save(pinned.ckpt_path("clip"))
    stats["clip"] = {"steps": cfgs["clip"].steps, "first_loss": clip_hist[0],
                     "final_loss": clip_hist[-1]}
    stats["seconds"]["clip"] = time.perf_counter() - t

    t = time.perf_counter()
    p1 = cfgs["phase1"]
    p1.qformer.vocab_size = len(corpus.vocab)
    p1.qformer.grid_dim = clip.cfg.image.dim
    models, _, selection = phase1_train(corpus, clip, p1, seed=seed, log=print)
    models["scoring"].save(pinned.ckpt_path("b1_scoring"),
                           extra_meta={"phase": 1, "selected": "scoring"})
    models["itg"].save(pinned.ckpt_path("b1_itg"), extra_meta={"phase": 1, "selected": "itg"})
    stats["phase1"] = {"steps": p1.steps, "selection": selection}
    stats["seconds"]["phase1"] = time.perf_counter() - t

    t = time.perf_counter()
    _, lm, lm_stats = pretrain_frozen_lm(corpus, seed=seed, train_cfg=cfgs["lm"], log=print)
    stats["lm"] = {"steps": cfgs["lm"].steps, "lr": cfgs["lm"].lr, **lm_stats}
    stats["seconds"]["lm"] = time.perf_counter() - t
    if not lm_stats["perplexity_ok"]:
        raise SystemExit(f"fixture LM failed its perplexity gate: {lm_stats}")
    save_lm(lm, pinned.ckpt_path("lm"))

    t = time.perf_counter()
    qf2, bridge, bridge_reg, _, eval_stats = phase2_train(
        corpus, clip, models["itg"], lm, cfgs["phase2"], seed=seed, log=print)
    save_phase2(qf2, bridge, bridge_reg, pinned.ckpt_path("b2_qformer"),
                pinned.ckpt_path("b2_bridge"), lm.digest())
    stats["phase2"] = {"steps": cfgs["phase2"].steps, **eval_stats}
    stats["seconds"]["phase2"] = time.perf_counter() - t

    stats["fixture_digest"] = pinned.fixture_digest()
    pinned.TRAIN_STATS.write_text(json.dumps(stats, indent=1, sort_keys=True) + "\n")
    return stats


def golden() -> dict:
    import traffic

    fx = pinned.load_fixtures()
    doc = traffic.make_golden(fx)
    pinned.GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return doc


def main(argv) -> int:
    steps = argv[1:] or ["train", "golden"]
    for step in steps:
        if step not in ("train", "golden"):
            print(f"unknown step {step!r}; expected 'train' and/or 'golden'", file=sys.stderr)
            return 2
    if "train" in steps:
        print(json.dumps(train(), indent=1, sort_keys=True))
    if "golden" in steps:
        golden()
        print(f"wrote {pinned.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
