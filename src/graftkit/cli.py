"""Single entry point for the full pipeline: corpus synthesis, the three
training stages, every downstream task, and metric evaluation.

All results land as JSON under the output directory together with the
resolved run configuration, so any artifact can be traced to its inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .clip_stage import (ClipConfig, DEFAULT_PROMPT_SETS, load_clip, load_prompt_sets,
                         train_elixr_c, zero_shot_score_c)
from .corpus import CorpusSpec, generate_corpus, load_corpus, save_corpus
from .lmdata import pretrain_frozen_lm
from .nn import load_lm, save_lm
from .params import load_checkpoint, save_checkpoint, ParamRegistry
from .probe import ProbeConfig, data_efficiency_curve, embed_for_probe
from .qa import build_qa_cases, grade_qa_case, run_qa_pipeline
from .qformer import (Phase1Config, Phase2Config, load_bridge,
                      load_qformer, phase1_train, phase2_train, precompute_grids,
                      save_phase2, loss_log_to_csv, zero_shot_score_b)
from .search import ImageIndexB, ImageIndexC, search_b, search_c
from .stats import auc, bootstrap_ci, ndcg_at_k, permutation_test, precision_at_k
from .vqa import ElixrBundle, run_vqa

VERSION_STRING = f"graftkit-{__version__}"

USAGE_EXIT = 2
ERROR_EXIT = 1


class UsageError(Exception):
    pass


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("GRAFTKIT_OUT") or "graftkit-out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_result(out_dir: Path, name: str, payload: dict, config: dict) -> Path:
    doc = {"version": VERSION_STRING, "config": config, "result": payload}
    path = out_dir / name
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))
    return path


def _resolved_config(args, extra=None) -> dict:
    skip = {"func"}
    cfg = {k: v for k, v in vars(args).items() if k not in skip and not callable(v)}
    cfg.update(extra or {})
    return cfg


def checkpoint_roundtrip(path) -> dict:
    """load -> save must reproduce the manifest and blob byte-identically."""
    path = Path(path)
    meta, values, frozen = load_checkpoint(path)
    reg = ParamRegistry()
    for name in sorted(values):
        reg.param(name, values[name], frozen=frozen[name])
    tmp = path.with_suffix(path.suffix + ".roundtrip")
    save_checkpoint(reg, tmp, meta=meta)
    same_manifest = path.read_bytes() == tmp.read_bytes()
    same_blob = (path.with_suffix(path.suffix + ".bin").read_bytes()
                 == tmp.with_suffix(tmp.suffix + ".bin").read_bytes())
    tmp.unlink()
    tmp.with_suffix(tmp.suffix + ".bin").unlink()
    return {"verified": bool(same_manifest and same_blob),
            "manifest_identical": same_manifest, "blob_identical": same_blob}


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args):
    out = _out_dir(args)
    if args.spec:
        spec = CorpusSpec.from_json(json.loads(Path(args.spec).read_text()))
    else:
        spec = CorpusSpec()
        (out / "spec.json").write_text(json.dumps(spec.to_json(), indent=1))
    if args.n is not None:
        spec.n_studies = args.n
    corpus = generate_corpus(args.seed, spec)
    manifest = save_corpus(corpus, out / "corpus")
    payload = {"digest": manifest["digest"], "n_studies": manifest["n_studies"],
               "corpus_dir": str(out / "corpus")}
    _write_result(out, "synth.json", payload, _resolved_config(args, {"spec": spec.to_json()}))
    return 0


def cmd_train_c(args):
    out = _out_dir(args)
    corpus = load_corpus(args.corpus)
    cfg = ClipConfig()
    if args.steps is not None:
        cfg.steps = args.steps
    model, history = train_elixr_c(corpus, cfg, seed=args.seed,
                                   log=print if args.verbose else None)
    ckpt = out / "elixr_c.ckpt"
    manifest = model.save(ckpt)
    payload = {"checkpoint": str(ckpt), "blob_sha256": manifest["blob_sha256"],
               "final_loss": history[-1] if history else None,
               "first_loss": history[0] if history else None}
    _write_result(out, "train_c.json", payload, _resolved_config(args, {"clip": cfg.to_json()}))
    return 0


def cmd_train_b1(args):
    out = _out_dir(args)
    corpus = load_corpus(args.corpus)
    clip_model = load_clip(args.clip)
    cfg = Phase1Config()
    if args.steps is not None:
        cfg.steps = args.steps
    cfg.qformer.vocab_size = len(corpus.vocab)
    cfg.qformer.grid_dim = clip_model.cfg.image.dim
    models, history, meta = phase1_train(corpus, clip_model, cfg, seed=args.seed,
                                         log=print if args.verbose else None)
    p_scoring = out / "b1_scoring.ckpt"
    p_itg = out / "b1_itg.ckpt"
    models["scoring"].save(p_scoring, extra_meta={"phase": 1, "selected": "scoring"})
    models["itg"].save(p_itg, extra_meta={"phase": 1, "selected": "itg"})
    (out / "b1_loss_log.csv").write_text(loss_log_to_csv(history))
    payload = {"scoring_checkpoint": str(p_scoring), "itg_checkpoint": str(p_itg),
               "selection": meta, "loss_log": str(out / "b1_loss_log.csv")}
    _write_result(out, "train_b1.json", payload, _resolved_config(args))
    return 0


def cmd_train_b2(args):
    out = _out_dir(args)
    corpus = load_corpus(args.corpus)
    clip_model = load_clip(args.clip)
    qf_itg = load_qformer(args.b1)
    if args.lm:
        lm = load_lm(args.lm)
    else:
        _, lm, lm_stats = pretrain_frozen_lm(corpus, seed=args.seed,
                                             log=print if args.verbose else None)
        save_lm(lm, out / "lm.ckpt")
    cfg = Phase2Config()
    if args.steps is not None:
        cfg.steps = args.steps
    model, bridge, bridge_reg, history, eval_stats = phase2_train(
        corpus, clip_model, qf_itg, lm, cfg, seed=args.seed,
        log=print if args.verbose else None)
    save_phase2(model, bridge, bridge_reg, out / "b2_qformer.ckpt",
                out / "b2_bridge.ckpt", lm.digest())
    payload = {"qformer_checkpoint": str(out / "b2_qformer.ckpt"),
               "bridge_checkpoint": str(out / "b2_bridge.ckpt"),
               "eval": eval_stats,
               "final_lm_loss": history[-1]["lm_loss"] if history else None}
    if not args.lm:
        payload["lm_checkpoint"] = str(out / "lm.ckpt")
        payload["lm_stats"] = lm_stats
    _write_result(out, "train_b2.json", payload, _resolved_config(args))
    return 0


def _load_prompts(args):
    if args.prompts:
        return load_prompt_sets(args.prompts)
    return DEFAULT_PROMPT_SETS


def cmd_zeroshot(args):
    out = _out_dir(args)
    corpus = load_corpus(args.corpus)
    clip_model = load_clip(args.clip)
    prompts = _load_prompts(args)
    findings = [args.finding] if args.finding else sorted(prompts)
    scores = {}
    from .stats import auc as auc_fn

    if args.variant == "B":
        if not args.b1:
            raise UsageError("variant B requires --b1")
        qf = load_qformer(args.b1)
        grids = precompute_grids(clip_model, corpus.studies, qf.cfg.pooled_hw)
    for finding in findings:
        ps = prompts[finding]
        if args.variant == "C":
            vals = [zero_shot_score_c(s.image, ps, clip_model, corpus.vocab)
                    for s in corpus.studies]
        else:
            vals = [zero_shot_score_b(grids[i], ps, qf, corpus.vocab)
                    for i in range(len(corpus.studies))]
        labels = [s.labels[finding] for s in corpus.studies]
        entry = {"scores_head": vals[:5]}
        if len(set(labels)) == 2:
            entry["auc"] = auc_fn(vals, labels)
        scores[finding] = entry
    _write_result(out, "zeroshot.json", scores, _resolved_config(args))
    return 0


def cmd_probe(args):
    out = _out_dir(args)
    corpus = load_corpus(args.corpus)
    clip_model = load_clip(args.clip)
    qf = load_qformer(args.b1) if args.b1 else None
    feats = np.stack([embed_for_probe(s.image, args.variant, clip_model, qf)
                      for s in corpus.studies])
    labels = np.asarray([s.labels[args.finding] for s in corpus.studies])
    n_test = max(len(corpus) // 4, 2)
    tr_f, te_f = feats[:-n_test], feats[-n_test:]
    tr_l, te_l = labels[:-n_test], labels[-n_test:]
    sizes = tuple(int(x) for x in args.sizes.split(","))
    curve = data_efficiency_curve(tr_f, tr_l, te_f, te_l, sizes=sizes,
                                  repeats=args.repeats, cfg=ProbeConfig(), seed=args.seed)
    _write_result(out, "probe.json", curve, _resolved_config(args))
    return 0


def cmd_search(args):
    out = _out_dir(args)
    corpus = load_corpus(args.corpus)
    clip_model = load_clip(args.clip)
    if args.variant == "C":
        index = ImageIndexC.build(clip_model, corpus.studies)
        res = search_c(args.query, index, clip_model, corpus.vocab, k=args.k)
    else:
        if not args.b1:
            raise UsageError("variant B requires --b1")
        qf = load_qformer(args.b1)
        index = ImageIndexB.build(clip_model, qf, corpus.studies)
        res = search_b(args.query, index, qf, corpus.vocab, k=args.k, stage1=args.stage1)
    payload = {"query": res.query, "ranked": [[i, s] for i, s in res.ranked]}
    _write_result(out, "search.json", payload, _resolved_config(args))
    return 0


def _load_bundle(args, corpus) -> ElixrBundle:
    clip_model = load_clip(args.clip)
    qf_imp = load_qformer(args.b1)
    qf_aligned = load_qformer(args.b2)
    _, bridge, _ = load_bridge(args.bridge)
    lm = load_lm(args.lm)
    return ElixrBundle(clip_model, qf_imp, qf_aligned, bridge, lm, corpus.vocab)


def cmd_vqa(args):
    out = _out_dir(args)
    corpus = load_corpus(args.corpus)
    bundle = _load_bundle(args, corpus)
    study = corpus.studies[args.study]
    answer = run_vqa(study.image, args.question, bundle)
    payload = {"study_id": study.study_id, "question": args.question, "answer": answer,
               "impression": bundle.impression_for(study.image)}
    _write_result(out, "vqa.json", payload, _resolved_config(args))
    return 0


def cmd_qa(args):
    out = _out_dir(args)
    corpus = load_corpus(args.corpus)
    bundle = _load_bundle(args, corpus)
    cases = build_qa_cases(corpus, seed=args.seed)
    if args.cases is not None:
        cases = cases[: args.cases]
    by_id = {s.study_id: s for s in corpus.studies}
    rows = []
    for case in cases:
        result = run_qa_pipeline(by_id[case.study_id], case.altered_impression,
                                 bundle, case=case)
        grade = grade_qa_case(case, result.response_missing, result.response_added)
        rows.append({"study_id": case.study_id, "alteration": case.alteration,
                     "primary": case.primary, "grade": grade,
                     "response_missing": result.response_missing,
                     "response_added": result.response_added})
    overall = float(np.mean([r["grade"] for r in rows])) if rows else float("nan")
    payload = {"cases": rows, "overall": overall}
    _write_result(out, "qa.json", payload, _resolved_config(args))
    return 0


def cmd_eval(args):
    out = _out_dir(args)
    if args.metric == "ndcg":
        rel = [int(x) for x in args.rel.split(",")]
        payload = {"metric": "ndcg", "value": ndcg_at_k(rel, k=len(rel)), "n": len(rel)}
    elif args.metric == "precision":
        rel = [int(x) for x in args.rel.split(",")]
        p2, p1 = precision_at_k(rel, k=len(rel))
        payload = {"metric": "precision", "value": {"score=2": p2, "score>=1": p1},
                   "n": len(rel)}
    elif args.metric == "auc":
        scores = [float(x) for x in args.scores.split(",")]
        labels = [int(x) for x in args.labels.split(",")]
        payload = {"metric": "auc", "value": auc(scores, labels), "n": len(scores)}
    elif args.metric == "bootstrap-mean":
        samples = [float(x) for x in args.scores.split(",")]
        lo, hi = bootstrap_ci(samples, np.mean, n=args.n, seed=args.seed)
        payload = {"metric": "bootstrap-mean", "value": {"lo": lo, "hi": hi},
                   "n": args.n, "seed": args.seed}
    elif args.metric == "permutation":
        a = [float(x) for x in args.scores.split(",")]
        b = [float(x) for x in args.labels.split(",")]
        payload = {"metric": "permutation", "value": permutation_test(a, b, n=args.n,
                                                                      seed=args.seed),
                   "n": args.n, "seed": args.seed}
    elif args.metric == "checkpoint":
        if not args.ckpt:
            raise UsageError("--ckpt required for checkpoint verification")
        payload = {"metric": "checkpoint", "value": checkpoint_roundtrip(args.ckpt)}
    else:
        raise UsageError(f"unknown metric {args.metric!r}")
    _write_result(out, "eval.json", payload, _resolved_config(args))
    print(json.dumps(payload))
    return 0


# ---------------------------------------------------------------------------
# dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graftkit",
                                     description="desk-scale vision-language grafting pipeline")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output dir (or $GRAFTKIT_OUT)")
        p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    common(p)
    p.add_argument("--spec", default=None, help="corpus spec JSON")
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-c", help="stage-1 contrastive training")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(func=cmd_train_c)

    p = sub.add_parser("train-b1", help="adapter phase-1 training")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--clip", required=True)
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(func=cmd_train_b1)

    p = sub.add_parser("train-b2", help="adapter phase-2 soft-prompt training")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--clip", required=True)
    p.add_argument("--b1", required=True, help="phase-1 generation checkpoint")
    p.add_argument("--lm", default=None, help="frozen LM checkpoint (pretrained here if absent)")
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(func=cmd_train_b2)

    p = sub.add_parser("zeroshot", help="prompt-based zero-shot classification")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--clip", required=True)
    p.add_argument("--variant", choices=("C", "B"), default="C")
    p.add_argument("--b1", default=None)
    p.add_argument("--prompts", default=None, help="prompt-set JSON file")
    p.add_argument("--finding", default=None)
    p.set_defaults(func=cmd_zeroshot)

    p = sub.add_parser("probe", help="data-efficient classification ladder")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--clip", required=True)
    p.add_argument("--variant", choices=("C", "B"), default="C")
    p.add_argument("--b1", default=None)
    p.add_argument("--finding", default="effusion")
    p.add_argument("--sizes", default="16,64,256")
    p.add_argument("--repeats", type=int, default=10)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("search", help="semantic search over a corpus")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--clip", required=True)
    p.add_argument("--variant", choices=("C", "B"), default="C")
    p.add_argument("--b1", default=None)
    p.add_argument("--query", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--stage1", type=int, default=128)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("vqa", help="visual question answering on one study")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--clip", required=True)
    p.add_argument("--b1", required=True)
    p.add_argument("--b2", required=True)
    p.add_argument("--bridge", required=True)
    p.add_argument("--lm", required=True)
    p.add_argument("--study", type=int, required=True)
    p.add_argument("--question", required=True)
    p.set_defaults(func=cmd_vqa)

    p = sub.add_parser("qa", help="report quality-assurance pipeline")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--clip", required=True)
    p.add_argument("--b1", required=True)
    p.add_argument("--b2", required=True)
    p.add_argument("--bridge", required=True)
    p.add_argument("--lm", required=True)
    p.add_argument("--cases", type=int, default=None)
    p.set_defaults(func=cmd_qa)

    p = sub.add_parser("eval", help="evaluation metrics on explicit inputs")
    common(p)
    p.add_argument("--metric", required=True,
                   choices=("ndcg", "precision", "auc", "bootstrap-mean",
                            "permutation", "checkpoint"))
    p.add_argument("--rel", default=None, help="comma-separated relevance grades")
    p.add_argument("--scores", default=None)
    p.add_argument("--labels", default=None)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--ckpt", default=None)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:
            print(f"unknown arguments: {unknown}", file=sys.stderr)
            parser.print_usage(sys.stderr)
            return USAGE_EXIT
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize
        return USAGE_EXIT if exc.code not in (0, None) else 0
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    except Exception as exc:  # runtime failure -> exit 1 with message on stderr
        print(f"error: {exc}", file=sys.stderr)
        if os.environ.get("GRAFTKIT_DEBUG"):
            traceback.print_exc()
        return ERROR_EXIT


if __name__ == "__main__":
    sys.exit(main())
