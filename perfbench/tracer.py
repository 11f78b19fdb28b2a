"""Spans around graftkit's public functions, installed from the benchmark.

``Tracer.install`` replaces each target with a wrapper that records a span
(name, start, end, parent, phase, info) and ``uninstall`` puts the originals
back.  Nothing is patched unless ``install`` is called, so untraced runs call
graftkit exactly as a user would.  Spans stay in memory until ``summarize``
turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

SPAN_ATTR = "__perfbench_span__"


def _lm_generate_info(args, kwargs, result):
    soft = args[1] if len(args) > 1 else kwargs.get("soft_prompts")
    prompt = args[2] if len(args) > 2 else kwargs.get("prompt_ids")
    return {"kind": "reviewer" if soft is None else "vqa", "prompt": len(prompt),
            "out": len(result)}


def _mode_info(args, kwargs, result):
    return {"mode": kwargs.get("mode", args[4] if len(args) > 4 else "itc")}


# (owner, attribute, span name, info(args, kwargs, result) or None).  The owner
# is a module path or "module:Class".  Names follow "<module>.<what>".
TARGETS = [
    ("graftkit.autograd:Tape", "gradients", "autograd.backward",
     lambda a, k, r: {"nodes": len(a[0].nodes)}),
    *[("graftkit.autograd", op, f"autograd.{op}", None)
      for op in ("matmul", "sdpa", "gelu", "layer_norm", "cross_entropy", "concat")],
    ("graftkit.optim:SgdMomentum", "step", "optim.step", None),
    ("graftkit.optim:Adam", "step", "optim.step", None),
    ("graftkit.nn:DecoderLM", "batch_loss", "nn.lm.batch_loss",
     lambda a, k, r: {"len": len(a[1][0])}),
    ("graftkit.nn:DecoderLM", "lm_loss_and_grad", "nn.lm.loss_and_grad", None),
    ("graftkit.nn:DecoderLM", "generate", "nn.lm.generate", _lm_generate_info),
    ("graftkit.nn:ImageEncoder", "forward", "nn.image_encoder.forward",
     lambda a, k, r: {"images": len(a[1])}),
    ("graftkit.nn:TextEncoder", "forward", "nn.text_encoder.forward", None),
    ("graftkit.nn", "pretrain_lm", "nn.pretrain_lm", None),
    ("graftkit.clip_stage:ClipModel", "embed_text", "clip_stage.embed_text", None),
    ("graftkit.clip_stage", "zero_shot_score_c", "clip_stage.zero_shot_score_c", None),
    ("graftkit.clip_stage", "train_elixr_c", "clip_stage.train_elixr_c", None),
    ("graftkit.qformer:QFormerModel", "forward", "qformer.forward", _mode_info),
    ("graftkit.qformer:QFormerModel", "text_cls_proj", "qformer.text_cls_proj", None),
    ("graftkit.qformer:QFormerModel", "itm_matched_probability", "qformer.itm", None),
    ("graftkit.qformer", "zero_shot_score_b", "qformer.zero_shot_score_b", None),
    ("graftkit.qformer", "generate_impression", "qformer.generate_impression",
     lambda a, k, r: {"tokens": len(r.split())}),
    ("graftkit.qformer", "phase1_eval", "qformer.phase1_eval", None),
    ("graftkit.qformer", "phase1_train", "qformer.phase1_train", None),
    ("graftkit.qformer", "phase2_train", "qformer.phase2_train", None),
    ("graftkit.qformer", "soft_prompts_for_grid", "qformer.soft_prompts", None),
    ("graftkit.search:ImageIndexC", "build", "search.index_c", None),
    ("graftkit.search:ImageIndexB", "build", "search.index_b", None),
    ("graftkit.search", "search_b", "search.search_b", None),
    ("graftkit.search", "itm_scores", "search.itm_scores", None),
    ("graftkit.vqa", "run_vqa", "vqa.run_vqa", None),
    ("graftkit.vqa:ElixrBundle", "grid_for", "vqa.grid_for", None),
    ("graftkit.vqa:ElixrBundle", "impression_for", "vqa.impression_for", None),
    ("graftkit.qa", "run_qa_pipeline", "qa.pipeline", None),
    ("graftkit.params", "load_checkpoint", "params.load_checkpoint", None),
    ("graftkit.corpus", "generate_corpus", "corpus.generate_corpus", None),
    ("graftkit.lmdata", "build_lm_dataset", "lmdata.build_lm_dataset", None),
]

PRIMITIVES = ("matmul", "sdpa", "gelu", "layer_norm", "cross_entropy", "concat")
MODULES = ("autograd", "optim", "nn", "clip_stage", "qformer", "search", "vqa", "qa",
           "params", "corpus", "lmdata")

# name -> unit, in report order; per_layer in BENCHMARK.json lists the same.
METRICS = {
    "autograd.backward_ms": "ms",
    "autograd.backward_calls": "count",
    "autograd.tape_nodes_per_backward": "nodes",
    **{f"autograd.{op}_ms": "ms" for op in PRIMITIVES},
    **{f"autograd.{op}.calls": "count" for op in PRIMITIVES},
    "optim.step_ms": "ms",
    "nn.lm.batch_loss_ms.short": "ms",
    "nn.lm.batch_loss_ms.long": "ms",
    "nn.lm.loss_and_grad_ms": "ms",
    "nn.lm.loss_and_grad_calls": "count",
    **{f"nn.lm.{m}.{kind}": u for kind in ("vqa", "reviewer")
       for m, u in (("generate_ms", "ms"), ("generate_calls", "count"),
                    ("prompt_tokens", "tokens"), ("out_tokens", "tokens"))},
    "nn.image_encoder.forward_ms": "ms",
    "nn.image_encoder.images": "count",
    "nn.text_encoder.forward_ms": "ms",
    "nn.text_encoder.calls": "count",
    "clip_stage.embed_text_calls_per_image": "calls/image",
    "qformer.text_cls_proj_calls_per_image": "calls/image",
    "qformer.itm_calls_per_query": "calls/query",
    **{f"qformer.forward_ms.{mode}": "ms" for mode in ("itc", "itg", "itm")},
    "qformer.generate_impression_ms": "ms",
    "qformer.generate_impression_tokens": "tokens",
    "qformer.phase1_eval_ms": "ms",
    "qformer.soft_prompts_ms": "ms",
    "search.stage1_ms": "ms",
    "search.itm_scores_ms": "ms",
    "search.index_b_ms": "ms",
    "search.index_c_ms": "ms",
    "vqa.run_vqa_ms": "ms",
    "vqa.grid_for_calls_per_case": "calls/case",
    "vqa.impression_for_calls_per_case": "calls/case",
    "qa.pipeline_ms": "ms",
    "qa.reviewer_share": "ratio",
    "params.load_checkpoint_ms": "ms",
    "corpus.generate_corpus_ms": "ms",
    "lmdata.build_lm_dataset_ms": "ms",
    **{f"{mod}.self_ms": "ms" for mod in MODULES},
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}


def _resolve(owner: str):
    mod_name, _, cls_name = owner.partition(":")
    mod = importlib.import_module(mod_name)
    return getattr(mod, cls_name) if cls_name else mod


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []   # [name, start, end, parent, phase, info]
        self.phase = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, fn, name: str, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                rec[5] = info(args, kwargs, result)
            return result

        setattr(wrapper, SPAN_ATTR, name)
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner_name, attr, name, info in self.targets:
            owner = _resolve(owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                self._patch(owner, attr, staticmethod(self._wrap(raw.__func__, name, info)))
                continue
            wrapped = self._wrap(raw, name, info)
            self._patch(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            # module function: also replace copies bound by ``from x import f``
            for mod_name, mod in list(sys.modules.items()):
                if (mod is not owner and mod is not None and mod_name.startswith("graftkit")
                        and mod.__dict__.get(attr) is raw):
                    self._patch(mod, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- summary

    def summarize(self, setup_reps: int, long_threshold: int) -> dict:
        """Per-layer metrics; setup spans count per set-up, the rest over the
        measured phase."""
        spans = self.spans
        total = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)   # time covered by direct children, per span index
        for i, (name, t0, t1, parent, phase, info) in enumerate(spans):
            if parent >= 0:
                child[parent] += t1 - t0
        self_ms = defaultdict(float)
        under = defaultdict(int)     # (name, ancestor name) -> calls
        lm_gen = defaultdict(float)
        reviewer_under_pipeline = 0.0
        backward_nodes = []
        impression_tokens = 0
        for i, (name, t0, t1, parent, phase, info) in enumerate(spans):
            if phase != "measure":
                continue
            dur = 1e3 * (t1 - t0)
            total[name] += dur
            calls[name] += 1
            self_ms[name.split(".", 1)[0]] += dur - 1e3 * child[i]
            if name == "autograd.backward":
                backward_nodes.append(info["nodes"])
            elif name == "nn.lm.batch_loss":
                total["nn.lm.batch_loss." + ("long" if info["len"] > long_threshold
                                             else "short")] += dur
            elif name == "nn.lm.generate":
                kind = info["kind"]
                lm_gen[f"generate_ms.{kind}"] += dur
                lm_gen[f"generate_calls.{kind}"] += 1
                lm_gen[f"prompt_tokens.{kind}"] += info["prompt"]
                lm_gen[f"out_tokens.{kind}"] += info["out"]
            elif name == "qformer.forward":
                total[f"qformer.forward.{info['mode']}"] += dur
            elif name == "qformer.generate_impression":
                impression_tokens += info["tokens"]
            p = parent
            while p >= 0:
                anc = spans[p][0]
                under[(name, anc)] += 1
                if name == "nn.lm.generate" and info["kind"] == "reviewer" \
                        and anc == "qa.pipeline":
                    reviewer_under_pipeline += dur
                p = spans[p][3]

        def per(num: float, den: float) -> float:
            return num / den if den else 0.0

        m = {
            "autograd.backward_ms": total["autograd.backward"],
            "autograd.backward_calls": calls["autograd.backward"],
            "autograd.tape_nodes_per_backward": per(sum(backward_nodes), len(backward_nodes)),
            "optim.step_ms": total["optim.step"],
            "nn.lm.batch_loss_ms.short": total["nn.lm.batch_loss.short"],
            "nn.lm.batch_loss_ms.long": total["nn.lm.batch_loss.long"],
            "nn.lm.loss_and_grad_ms": total["nn.lm.loss_and_grad"],
            "nn.lm.loss_and_grad_calls": calls["nn.lm.loss_and_grad"],
            "nn.image_encoder.forward_ms": total["nn.image_encoder.forward"],
            "nn.image_encoder.images": sum(s[5]["images"] for s in spans
                                           if s[0] == "nn.image_encoder.forward"
                                           and s[4] == "measure"),
            "nn.text_encoder.forward_ms": total["nn.text_encoder.forward"],
            "nn.text_encoder.calls": calls["nn.text_encoder.forward"],
            "clip_stage.embed_text_calls_per_image": per(
                under[("clip_stage.embed_text", "clip_stage.zero_shot_score_c")],
                calls["clip_stage.zero_shot_score_c"]),
            "qformer.text_cls_proj_calls_per_image": per(
                under[("qformer.text_cls_proj", "qformer.zero_shot_score_b")],
                calls["qformer.zero_shot_score_b"]),
            "qformer.itm_calls_per_query": per(under[("qformer.itm", "search.search_b")],
                                               calls["search.search_b"]),
            "qformer.generate_impression_ms": total["qformer.generate_impression"],
            "qformer.generate_impression_tokens": impression_tokens,
            "qformer.phase1_eval_ms": total["qformer.phase1_eval"],
            "qformer.soft_prompts_ms": total["qformer.soft_prompts"],
            "search.stage1_ms": total["search.search_b"] - sum(
                1e3 * (s[2] - s[1]) for s in spans
                if s[0] == "search.itm_scores" and s[3] >= 0
                and spans[s[3]][0] == "search.search_b" and s[4] == "measure"),
            "search.itm_scores_ms": total["search.itm_scores"],
            "search.index_b_ms": total["search.index_b"],
            "search.index_c_ms": total["search.index_c"],
            "vqa.run_vqa_ms": total["vqa.run_vqa"],
            "vqa.grid_for_calls_per_case": per(under[("vqa.grid_for", "qa.pipeline")],
                                               calls["qa.pipeline"]),
            "vqa.impression_for_calls_per_case": per(
                under[("vqa.impression_for", "qa.pipeline")], calls["qa.pipeline"]),
            "qa.pipeline_ms": total["qa.pipeline"],
            "qa.reviewer_share": per(reviewer_under_pipeline, total["qa.pipeline"]),
            "trace.spans": len(spans),
        }
        for op in PRIMITIVES:
            m[f"autograd.{op}_ms"] = total[f"autograd.{op}"]
            m[f"autograd.{op}.calls"] = calls[f"autograd.{op}"]
        for kind in ("vqa", "reviewer"):
            for what in ("generate_ms", "generate_calls", "prompt_tokens", "out_tokens"):
                m[f"nn.lm.{what}.{kind}"] = lm_gen[f"{what}.{kind}"]
        for mode in ("itc", "itg", "itm"):
            m[f"qformer.forward_ms.{mode}"] = total[f"qformer.forward.{mode}"]
        for mod in MODULES:
            m[f"{mod}.self_ms"] = self_ms[mod]

        setup = defaultdict(float)
        for name, t0, t1, parent, phase, info in spans:
            if phase == "setup":
                setup[name] += 1e3 * (t1 - t0)
        reps = max(setup_reps, 1)
        m["params.load_checkpoint_ms"] = setup["params.load_checkpoint"] / reps
        m["corpus.generate_corpus_ms"] = setup["corpus.generate_corpus"] / reps
        m["lmdata.build_lm_dataset_ms"] = setup["lmdata.build_lm_dataset"] / reps
        return m


def installed_wrappers() -> list[str]:
    """Names of graftkit attributes that are currently tracer wrappers."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("graftkit") or mod is None:
            continue
        for attr, val in vars(mod).items():
            objs = [val] + (list(vars(val).values()) if isinstance(val, type) else [])
            for obj in objs:
                fn = obj.__func__ if isinstance(obj, staticmethod) else obj
                if hasattr(fn, SPAN_ATTR):
                    found.append(f"{mod_name}.{attr}")
    return sorted(set(found))
