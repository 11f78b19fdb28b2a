"""graftkit benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload {train,retrieval,report_qa} \
        --seed N --seconds S --trace {0,1} [--tiny]

Run it from the root of a checkout that holds ``src/graftkit`` and
``perfbench/data`` (the committed fixture checkpoints and golden outputs).

A run (1) sets up three times (loading the fixtures through graftkit's
checkpoint loaders, generating the seed's inputs), then warms up each pass
with one untimed call of each kind, and reports the median set-up plus the
warm-up as ``setup_s``; (2) checks the workload's own class on the fixed
reference inputs against the golden outputs; (3) for ``--seconds``,
interleaves the
workload's own class on the seed's inputs with the other two classes on the
reference inputs (golden-checked as well); see ``traffic.py``.  Metrics of
the workload's own class come from its seeded pass, the others from their
reference passes.  ``--trace 1`` installs the span tracer around the set-up
of (1) and around (3), and reports the per-layer metrics instead, plus the
tracing overhead: a reference cycle run untraced, then traced.  ``--tiny`` shrinks the seeded pass to
reference size (for the benchmark's own tests).

The second-to-last stdout line is a JSON record (environment, sample counts,
errors, golden mismatches); the last line is the result object.  Exit status
is 0 when every check passed, 1 when a check failed, 2 on bad usage or a
checkout without the program or the fixtures.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

import threads

SETUP_REPS = 3
WORKLOADS = ("train", "retrieval", "report_qa")
BENCH_DIR = Path(__file__).resolve().parent

# name -> unit, in report order; end_to_end in BENCHMARK.json lists the same.
END_TO_END = {
    "setup_s": "s",
    "clip_samples_per_s": "pairs/s",
    "phase1_samples_per_s": "examples/s",
    "lm_tokens_per_s": "tokens/s",
    "phase2_samples_per_s": "examples/s",
    "lm_holdout_loss": "nats",
    "index_images_per_s": "images/s",
    "zeroshot_images_per_s": "images/s",
    "search_b_p50_ms": "ms",
    "search_b_tail_ms": "ms",
    "zeroshot_auc": "AUC",
    "search_b_ndcg5": "NDCG",
    "qa_cases_per_min": "cases/min",
    "vqa_p50_ms": "ms",
    "vqa_tail_ms": "ms",
    "qa_grade_mean": "grade",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds < 0:
        p.error("--seconds must be non-negative")
    return args


def pass_checks(cls: str, p) -> list[str]:
    """Checks that hold for any inputs: frozen contracts and finite losses in
    training, well-formed rankings, twelve answers per QA case."""
    out, bad = p.out.outputs, []
    if cls == "train":
        if not out["frozen_ok"]:
            bad.append("train: frozen-contract digest changed")
        if not out["finite"]:
            bad.append("train: non-finite loss")
    elif cls == "retrieval":
        for r in out.get("search", []):
            if len(set(r["ids"])) != len(r["ids"]) or r["scores"] != sorted(r["scores"],
                                                                             reverse=True):
                bad.append(f"retrieval: malformed ranking for {r['query']!r}")
    elif cls == "report_qa":
        for r in out.get("qa", []):
            if len(r["answers"]) != 12:
                bad.append(f"report_qa: case {r['study_id']} has {len(r['answers'])} answers")
    return bad


def bench(args) -> tuple[dict, dict]:
    import pinned
    import traffic
    from tracer import METRICS as PER_LAYER, Tracer

    named = args.workload
    sizes = (traffic.REFERENCE_SIZES if args.tiny else traffic.SEEDED_SIZES)[named]
    others = [c for c in traffic.CLASSES if c != named]
    tracer = Tracer() if args.trace else None
    record = {"workload": named, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "tail_percentile": traffic.TAIL_PCT}

    # (1) set-up of the workload's own pass, repeated; the last one is used
    speed = traffic.Speed()
    if tracer:
        tracer.install()
    setup_times = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        fx = pinned.load_fixtures()
        inp = traffic.make_inputs(named, fx, args.seed, sizes)
        setup_times.append(time.perf_counter() - t)
        speed.probe()
    if tracer:
        tracer.uninstall()
    record["setup_times_s"] = setup_times

    # (2) the fixed reference inputs; the golden file must match the fixtures
    golden = pinned.load_golden()
    mismatches = []
    if golden.get("fixture_digest") != pinned.fixture_digest():
        mismatches.append("golden: written for other fixtures (fixture_digest differs)")
    ref_inp = {c: traffic.reference_inputs(c, fx) for c in traffic.CLASSES
               if c != named or c in traffic.GOLDEN_CLASSES}
    passes = {c: traffic.PASSES[c](fx, ref_inp[c], reference=True, speed=speed)
              for c in others}
    checked = dict(passes)
    passes[named] = traffic.PASSES[named](fx, inp, speed=speed)

    # warm-up, counted in setup_s
    t = time.perf_counter()
    for p in passes.values():
        p.warm_up()
    record["warm_up_s"] = time.perf_counter() - t

    record["golden_pass_s"] = None
    if named in traffic.GOLDEN_CLASSES:
        checked["golden:" + named] = traffic.PASSES[named](fx, ref_inp[named], reference=True)
        record["golden_pass_s"] = checked["golden:" + named].run_min()

    # (3) the workload's own seeded pass, interleaved with the reference passes;
    # set-up objects move out of the collector's way so its pauses stay short
    gc.collect()
    gc.freeze()
    shares = {c: traffic.OWN_SHARE if c == named else traffic.OTHER_SHARES[c] for c in passes}
    if tracer:
        tracer.phase = "measure"
        tracer.install()
    t = time.perf_counter()
    spent = traffic.interleave(passes, shares, args.seconds, speed)
    record["measured_s"] = time.perf_counter() - t
    if tracer:
        tracer.uninstall()
    record["spent_s"] = spent

    for key, p in {**checked, named: passes[named]}.items():
        cls = key.split(":")[-1]
        if p is not passes[named] and cls in traffic.GOLDEN_CLASSES:
            mismatches += [f"{key} golden{m}"
                           for m in traffic.compare(p.out.outputs, golden.get(cls))]
        mismatches += pass_checks(cls, p)
    record["passes"] = {key: {"attempted": p.out.attempted, "failed": p.out.failed,
                              "errors": p.out.errors}
                        for key, p in {**checked, named: passes[named]}.items()}
    attempted = sum(v["attempted"] for v in record["passes"].values())
    failed = sum(v["failed"] for v in record["passes"].values())
    for key, p in passes.items():
        record["passes"][key]["timed_units"] = {k: len(v) for k, v in p.timed.items()}

    # set-up is scaled by the whole run's machine speed: probes taken right
    # after a set-up or the warm-up scaled it by 1.2-1.7 in five runs, those
    # of the measured phase its units by about 0.8
    unscaled = {"setup_s": statistics.median(setup_times) + record["warm_up_s"]}
    metrics = {"setup_s": unscaled["setup_s"] * speed.run_factor()}
    for p in passes.values():
        metrics.update(p.metrics())
        unscaled.update(p.metrics(scaled=False))
    for name in traffic.REFERENCE_ONLY:
        if name in passes[named].metrics():
            record["seeded_" + name] = metrics[name]
            metrics[name] = unscaled[name] = checked["golden:" + named].metrics()[name]
    record["unscaled_metrics"] = unscaled
    record["speed_probe_s"] = {name: {"n": len(v), "median": statistics.median(v),
                                      "min": min(v), "max": max(v),
                                      "reference": traffic.PROBES[name][2]}
                               for name, v in speed.samples.items()}
    missing = [k for k in END_TO_END if not isinstance(metrics.get(k), float)
               or metrics[k] != metrics[k]]
    if missing:
        mismatches.append(f"metrics missing or NaN: {missing}")

    if tracer:
        # tracing overhead: the named class's reference cycle, run untraced
        # and right after it traced, both warm
        cal_inp = ref_inp.get(named) or traffic.reference_inputs(named, fx)
        plain = traffic.PASSES[named](fx, cal_inp, reference=True).run_min()
        cal = Tracer()
        cal.phase = "calibrate"
        with cal:
            traced = traffic.PASSES[named](fx, cal_inp, reference=True).run_min()
        layer = tracer.summarize(SETUP_REPS, traffic.nn.LmTrainConfig().long_threshold)
        layer["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
        record["trace_calibration_s"] = {"untraced": plain, "traced": traced}
        report = {k: {"value": float(layer[k]), "unit": u} for k, u in PER_LAYER.items()}
    else:
        report = {k: {"value": metrics.get(k, float("nan")), "unit": u}
                  for k, u in END_TO_END.items()}

    record["mismatches"] = mismatches[:20]
    record["environment"] = pinned.environment()
    result = {"correct": not mismatches, "attempted": attempted, "failed": failed,
              "metrics": report}
    return result, record


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    repo = BENCH_DIR.parent
    missing = [p for p in (repo / "src" / "graftkit" / "__init__.py",
                           BENCH_DIR / "data" / "golden.json") if not p.is_file()]
    if missing:
        print(f"perfbench: not a graftkit checkout, missing {[str(p) for p in missing]}",
              file=sys.stderr)
        return 2
    threads.pin()
    result, record = bench(args)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
