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
from collections import namedtuple
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .clip_stage import (ClipConfig, DEFAULT_PROMPT_SETS, load_clip, load_prompt_sets,
                         train_elixr_c, zero_shot_scores_c)
from .corpus import CorpusSpec, generate_corpus, load_corpus, save_corpus, words
from .lmdata import pretrain_frozen_lm
from .nn import LmTrainConfig, load_lm, save_lm
from .params import (decode, load_checkpoint, read_json, read_manifest, save_checkpoint,
                     ParamRegistry)
from .probe import data_efficiency_curve, embed_for_probe
from .qa import build_qa_cases, grade_qa_case, run_qa_pipeline
from .qformer import (PHASE2_HELD_OUT, Phase1Config, Phase2Config, load_bridge, load_qformer,
                      phase1_split, phase1_train, phase2_train, save_phase2, loss_log_to_csv,
                      split_studies, zero_shot_scores_b)
from .search import ImageIndexB, ImageIndexC, search_b, search_c
from .stats import (auc, bootstrap_ci, label_groups, ndcg_at_k, permutation_test,
                    precision_at_k)
from .vqa import ElixrBundle

VERSION_STRING = f"graftkit-{__version__}"

USAGE_EXIT = 2
ERROR_EXIT = 1


class UsageError(Exception):
    pass


def _int_at_least(low: int):
    """argparse type: an integer >= ``low``; anything else exits 2."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    return integer


COUNT, INDEX = _int_at_least(1), _int_at_least(0)


def _counts(text: str) -> tuple[int, ...]:
    return tuple(COUNT(x) for x in text.split(","))


# The shared flags: flag -> add_argument keywords, which a command's entry overrides
FLAGS = {
    "seed": {"type": int, "default": 0},
    "out": {"help": "output dir (or $GRAFTKIT_OUT)"},
    "verbose": {"action": "store_true"},
    "corpus": {"required": True},
    "clip": {"required": True},
    "variant": {"choices": ("C", "B"), "default": "C"},
    "b1": {},
    "b2": {"required": True},
    "bridge": {"required": True},
    "lm": {"required": True},
    "steps": {"type": COUNT},
    "finding": {},
    "n": {"type": COUNT},
}
COMMON = ("seed", "out", "verbose")  # the flags of every command


def _out_dir(args) -> Path:
    path = Path(args.out or os.environ.get("GRAFTKIT_OUT") or "graftkit-out")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_result(out_dir: Path, name: str, payload: dict, config: dict) -> None:
    doc = {"version": VERSION_STRING, "config": config, "result": payload}
    (out_dir / name).write_text(json.dumps(doc, indent=1, sort_keys=True))


def _log(args):
    return print if args.verbose else None


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


LOADERS = {"clip": load_clip, "b1": load_qformer, "b2": load_qformer, "lm": load_lm}


def _load(flag: str, args, corpus):
    """The model in the checkpoint named by ``--flag``, refused unless its
    vocabulary is the corpus's: another vocabulary's ids index past (or
    into the wrong rows of) its token table."""
    model = LOADERS[flag](getattr(args, flag))
    size = model.vocab_size if flag == "clip" else model.cfg.vocab_size
    if size != len(corpus.vocab):
        raise ValueError(f"--{flag} checkpoint has a vocabulary of {size} tokens, "
                         f"but the corpus has {len(corpus.vocab)}")
    return model


# ---------------------------------------------------------------------------
# commands: each takes the parsed flags and the output directory and returns
# its result payload, or (payload, config entries it resolved from the flags)


def cmd_synth(args, out):
    # the fields a spec file omits keep CorpusSpec()'s values
    given = decode(args.spec, "the spec", read_json(args.spec), dict) if args.spec else {}
    spec = decode(args.spec, "the spec", {**asdict(CorpusSpec()), **given}, CorpusSpec)
    if args.n is not None:
        spec.n_studies = args.n
    if not args.spec:  # dumped for discoverability, and to re-run with --spec
        (out / "spec.json").write_text(json.dumps(asdict(spec), indent=1))
    corpus = generate_corpus(args.seed, spec)
    manifest = save_corpus(corpus, out / "corpus")
    return ({"digest": manifest["digest"], "n_studies": manifest["n_studies"],
             "corpus_dir": str(out / "corpus")}, {"spec": asdict(spec)})


def cmd_train_c(args, out):
    corpus = load_corpus(args.corpus)
    cfg = ClipConfig(steps=args.steps or ClipConfig.steps)
    model, history = train_elixr_c(corpus, cfg, seed=args.seed, log=_log(args))
    ckpt = out / "elixr_c.ckpt"
    manifest = model.save(ckpt)
    return ({"checkpoint": str(ckpt), "blob_sha256": manifest["blob_sha256"],
             "final_loss": history[-1] if history else None,
             "first_loss": history[0] if history else None}, {"clip": asdict(cfg)})


def cmd_train_b1(args, out):
    corpus = load_corpus(args.corpus)
    phase1_split(len(corpus))  # a corpus with too few studies to train on stops here
    clip_model = _load("clip", args, corpus)
    cfg = Phase1Config(steps=args.steps or Phase1Config.steps)
    cfg.qformer.vocab_size = len(corpus.vocab)
    cfg.qformer.grid_dim = clip_model.cfg.image.dim
    models, history, meta = phase1_train(corpus, clip_model, cfg, seed=args.seed, log=_log(args))
    for part in ("scoring", "itg"):
        models[part].save(out / f"b1_{part}.ckpt", extra_meta={"phase": 1, "selected": part})
    (out / "b1_loss_log.csv").write_text(loss_log_to_csv(history))
    return {"scoring_checkpoint": str(out / "b1_scoring.ckpt"),
            "itg_checkpoint": str(out / "b1_itg.ckpt"),
            "selection": meta, "loss_log": str(out / "b1_loss_log.csv")}


def cmd_train_b2(args, out):
    corpus = load_corpus(args.corpus)
    split_studies(len(corpus), PHASE2_HELD_OUT)  # as in train-b1, and before LM pretraining
    clip_model = _load("clip", args, corpus)
    qf_itg = _load("b1", args, corpus)
    if args.lm:
        lm = _load("lm", args, corpus)
    else:
        lm_cfg = LmTrainConfig()
        _, lm, lm_stats = pretrain_frozen_lm(corpus, seed=args.seed, train_cfg=lm_cfg,
                                             log=_log(args))
        if not lm_stats["perplexity_ok"]:
            ppl = lm_stats.get("holdout_perplexity", float("inf"))
            raise RuntimeError(f"LM held-out perplexity {ppl:.3f} is above the target "
                               f"{lm_cfg.target_perplexity}; phase 2 not run "
                               "(pass an LM that meets it with --lm)")
        save_lm(lm, out / "lm.ckpt")
    cfg = Phase2Config(steps=args.steps or Phase2Config.steps)
    model, bridge, bridge_reg, history, eval_stats = phase2_train(
        corpus, clip_model, qf_itg, lm, cfg, seed=args.seed, log=_log(args))
    save_phase2(model, bridge, bridge_reg, out / "b2_qformer.ckpt",
                out / "b2_bridge.ckpt", lm.digest())
    payload = {"qformer_checkpoint": str(out / "b2_qformer.ckpt"),
               "bridge_checkpoint": str(out / "b2_bridge.ckpt"),
               "eval": eval_stats,
               "final_lm_loss": history[-1]["lm_loss"] if history else None}
    if not args.lm:
        payload["lm_checkpoint"] = str(out / "lm.ckpt")
        payload["lm_stats"] = lm_stats
    return payload


def _load_encoders(args, check=None):
    """The corpus, CLIP and, for variant B, the --b1 Q-Former of an image task.
    ``check(corpus)`` raises ``UsageError`` for flags the corpus rules out; it
    runs before any checkpoint is read."""
    corpus = load_corpus(args.corpus)
    if check:
        check(corpus)
    clip_model = _load("clip", args, corpus)
    return corpus, clip_model, _load("b1", args, corpus) if args.variant == "B" else None


def _check_finding(finding: str, known) -> None:
    if finding not in known:
        raise UsageError(f"unknown --finding {finding!r}; known findings: "
                         f"{', '.join(sorted(known))}")


def cmd_zeroshot(args, out):
    prompts = load_prompt_sets(args.prompts) if args.prompts else DEFAULT_PROMPT_SETS
    findings = [args.finding] if args.finding else sorted(prompts)  # empty: every prompt set

    def check(corpus):
        if args.finding:
            _check_finding(args.finding, prompts)
        labels = corpus.studies[0].labels
        unlabeled = [f for f in findings if f not in labels]
        if unlabeled:
            raise UsageError(f"no corpus label for the prompt sets of {', '.join(unlabeled)}; "
                             f"corpus label keys: {', '.join(sorted(labels))}")

    corpus, clip_model, qf = _load_encoders(args, check)
    if qf is None:
        model, score = clip_model, zero_shot_scores_c
        feats = ImageIndexC.build(clip_model, corpus.studies).embeddings
    else:
        model, score = qf, zero_shot_scores_b
        feats = ImageIndexB.build(clip_model, qf, corpus.studies).query_proj
    scores = {}
    for finding in findings:
        vals = score(feats, prompts[finding], model, corpus.vocab).tolist()
        labels = [s.labels[finding] for s in corpus.studies]
        entry = {"scores_head": vals[:5]}
        if len(set(labels)) == 2:
            entry["auc"] = auc(vals, labels)
        scores[finding] = entry
    return scores


def _probe_test_size(n_studies: int) -> int:
    return max(n_studies // 4, 2)  # the last quarter is the test split


def cmd_probe(args, out):
    def check(corpus):
        _check_finding(args.finding, corpus.studies[0].labels)
        n_train = len(corpus) - _probe_test_size(len(corpus))
        for size in args.sizes:
            if not 2 <= size <= n_train:  # a probe trains on both classes
                raise UsageError(f"--sizes {size} is outside 2..{n_train}, the training split "
                                 f"of the corpus's {len(corpus)} studies")
        labels = [s.labels[args.finding] for s in corpus.studies]
        for split, part in (("training", labels[:n_train]), ("test", labels[n_train:])):
            for value, name in ((1, "positive"), (0, "negative")):
                if value not in part:  # a probe trains and is scored on both classes
                    raise UsageError(f"--finding {args.finding} has no {name} study in the "
                                     f"{split} split of the corpus's {len(corpus)} studies")

    corpus, clip_model, qf = _load_encoders(args, check)
    feats = embed_for_probe(np.stack([s.image for s in corpus.studies]), args.variant,
                            clip_model, qf)
    labels = np.asarray([s.labels[args.finding] for s in corpus.studies])
    n_test = _probe_test_size(len(corpus))
    return data_efficiency_curve(feats[:-n_test], labels[:-n_test], feats[-n_test:],
                                 labels[-n_test:], sizes=args.sizes, repeats=args.repeats,
                                 seed=args.seed)


def cmd_search(args, out):
    def check(corpus):
        if not words(args.query):
            raise UsageError(f"--query {args.query!r} has no words")

    corpus, clip_model, qf = _load_encoders(args, check)
    if qf is None:
        index = ImageIndexC.build(clip_model, corpus.studies)
        res = search_c(args.query, index, clip_model, corpus.vocab, k=args.k)
    else:
        index = ImageIndexB.build(clip_model, qf, corpus.studies)
        res = search_b(args.query, index, qf, corpus.vocab, k=args.k, stage1=args.stage1)
    return {"query": res.query, "ranked": [[i, s] for i, s in res.ranked]}


def _load_bundle(args, corpus) -> ElixrBundle:
    """The text-task checkpoints; the phase-2 pair must have been trained
    against the LM it is served with."""
    clip_model, qf_imp, qf_aligned, lm = (_load(flag, args, corpus)
                                          for flag in ("clip", "b1", "b2", "lm"))
    _, bridge, bridge_meta = load_bridge(args.bridge)
    digest = lm.digest()
    b2_meta = read_manifest(args.b2, "qformer").meta
    for flag, meta in (("--b2", b2_meta), ("--bridge", bridge_meta)):
        if meta.get("lm_digest") != digest:
            raise ValueError(f"{flag} checkpoint was trained against LM digest "
                             f"{meta.get('lm_digest')}, but --lm has digest {digest}")
    return ElixrBundle(clip_model, qf_imp, qf_aligned, bridge, lm, corpus.vocab)


def cmd_vqa(args, out):
    corpus = load_corpus(args.corpus)
    if args.study >= len(corpus):
        raise ValueError(f"--study {args.study} is past the corpus (studies 0..{len(corpus) - 1})")
    bundle = _load_bundle(args, corpus)
    study = corpus.studies[args.study]
    prepared = bundle.prepare(study.image)
    return {"study_id": study.study_id, "question": args.question,
            "answer": bundle.answer(prepared, args.question),
            "impression": prepared.impression}


def cmd_qa(args, out):
    corpus = load_corpus(args.corpus)
    cases = build_qa_cases(corpus, seed=args.seed)  # before any checkpoint is read
    if args.cases is not None and args.cases > len(cases):
        raise UsageError(f"--cases {args.cases} is more than the {len(cases)} cases "
                         "of the QA mix")
    bundle = _load_bundle(args, corpus)
    by_id = {s.study_id: s for s in corpus.studies}
    rows = []
    for case in cases[: args.cases]:
        result = run_qa_pipeline(by_id[case.study_id], case.altered_impression,
                                 bundle, case=case)
        grade = grade_qa_case(case, result.response_missing, result.response_added)
        rows.append({"study_id": case.study_id, "alteration": case.alteration,
                     "primary": case.primary, "grade": grade,
                     "response_missing": result.response_missing,
                     "response_added": result.response_added})
    overall = float(np.mean([r["grade"] for r in rows])) if rows else float("nan")
    return {"cases": rows, "overall": overall}


def _values(text: str, kind=float) -> list:
    return [kind(x) for x in text.split(",")]


def _ndcg(args) -> dict:
    rel = _values(args.rel, int)
    return {"value": ndcg_at_k(rel, k=len(rel)), "n": len(rel)}


def _precision(args) -> dict:
    rel = _values(args.rel, int)
    p2, p1 = precision_at_k(rel, k=len(rel))
    return {"value": {"score=2": p2, "score>=1": p1}, "n": len(rel)}


def _auc(args) -> dict:
    scores = _values(args.scores)
    return {"value": auc(scores, _values(args.labels, int)), "n": len(scores)}


def _bootstrap_mean(args) -> dict:
    lo, hi = bootstrap_ci(_values(args.scores), np.mean, n=args.n, seed=args.seed)
    return {"value": {"lo": lo, "hi": hi}, "n": args.n, "seed": args.seed}


def _permutation(args) -> dict:
    """The permutation p-value of the scores labelled 0 against those labelled 1."""
    p = permutation_test(*label_groups(_values(args.scores), _values(args.labels, int)),
                         n=args.n, seed=args.seed)
    return {"value": p, "n": args.n, "seed": args.seed}


METRICS = {  # metric -> (the flags it reads, its payload from them)
    "ndcg": (("rel",), _ndcg),
    "precision": (("rel",), _precision),
    "auc": (("scores", "labels"), _auc),
    "bootstrap-mean": (("scores",), _bootstrap_mean),
    "permutation": (("scores", "labels"), _permutation),
    "checkpoint": (("ckpt",), lambda args: {"value": checkpoint_roundtrip(args.ckpt)}),
}


def cmd_eval(args, out):
    payload = {"metric": args.metric, **METRICS[args.metric][1](args)}
    print(json.dumps(payload))
    return payload


# ---------------------------------------------------------------------------
# dispatch


# run(args, out_dir) gives the result; flags maps each flag, in --help order, to
# its add_argument keywords over its FLAGS entry
Command = namedtuple("Command", "run help flags")

REQUIRED = {"required": True}
ENCODERS = {"corpus": {}, "clip": {}, "variant": {}, "b1": {}}  # read by _load_encoders
BUNDLE = {"corpus": {}, "clip": {}, "b1": REQUIRED, "b2": {}, "bridge": {}, "lm": {}}  # vqa, qa

COMMANDS = {
    "synth": Command(cmd_synth, "generate a synthetic corpus",
                     {"spec": {"help": "corpus spec JSON"}, "n": {}}),
    "train-c": Command(cmd_train_c, "stage-1 contrastive training", {"corpus": {}, "steps": {}}),
    "train-b1": Command(cmd_train_b1, "adapter phase-1 training",
                        {"corpus": {}, "clip": {}, "steps": {}}),
    "train-b2": Command(cmd_train_b2, "adapter phase-2 soft-prompt training", {
        "corpus": {}, "clip": {}, "b1": {**REQUIRED, "help": "phase-1 generation checkpoint"},
        "lm": {"required": False, "help": "frozen LM checkpoint (pretrained here if absent)"},
        "steps": {}}),
    "zeroshot": Command(cmd_zeroshot, "prompt-based zero-shot classification", {
        **ENCODERS, "prompts": {"help": "prompt-set JSON file"}, "finding": {}}),
    "probe": Command(cmd_probe, "data-efficient classification ladder", {
        **ENCODERS, "finding": {"default": "effusion"},
        "sizes": {"type": _counts, "default": "16,64,256"},
        "repeats": {"type": COUNT, "default": 10}}),
    "search": Command(cmd_search, "semantic search over a corpus", {
        **ENCODERS, "query": REQUIRED, "k": {"type": COUNT, "default": 5},
        "stage1": {"type": COUNT, "default": 128}}),
    "vqa": Command(cmd_vqa, "visual question answering on one study", {
        **BUNDLE, "study": {"type": INDEX, **REQUIRED}, "question": REQUIRED}),
    "qa": Command(cmd_qa, "report quality-assurance pipeline",
                  {**BUNDLE, "cases": {"type": COUNT}}),
    "eval": Command(cmd_eval, "evaluation metrics on explicit inputs", {
        "metric": {**REQUIRED, "choices": tuple(METRICS)},
        "rel": {"help": "comma-separated relevance grades"}, "scores": {}, "labels": {},
        "n": {"default": 1000}, "ckpt": {}}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graftkit",
                                     description="desk-scale vision-language grafting pipeline")
    sub = parser.add_subparsers(dest="command")
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in (*COMMON, *command.flags):
            p.add_argument(f"--{flag}", **{**FLAGS.get(flag, {}), **command.flags.get(flag, {})})
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
        # usage errors seen in the flags alone come before any file is touched
        if getattr(args, "variant", None) == "B" and not args.b1:
            raise UsageError("variant B requires --b1")
        for flag in METRICS[args.metric][0] if args.command == "eval" else ():
            if not getattr(args, flag):
                raise UsageError(f"--{flag} required for metric {args.metric}")
        out = _out_dir(args)
        result = COMMANDS[args.command].run(args, out)
        payload, resolved = result if isinstance(result, tuple) else (result, {})
        _write_result(out, f"{args.command.replace('-', '_')}.json", payload,
                      {**vars(args), **resolved})
        return 0
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
