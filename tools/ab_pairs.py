"""Alternating benchmark pairs of two graftkit checkouts, and their summary.

    python3 tools/ab_pairs.py PARENT CHANGE --workload W --pairs N \
        --seconds S --seed0 K

Pair i runs ``perfbench/run.py --workload W --seed K+i --seconds S --trace 0``
in each checkout, one run at a time; the parent runs first in even pairs and
the change first in odd ones.  It prints each run's ``correct``, ``failed``
and ``attempted``, then, for every end-to-end metric of the change's
``BENCHMARK.json``: each side's median and quartiles, the parent's
interquartile range, the pairs the change won (ties count for neither), and
two verdicts.  ``claim`` holds when the change won at least nine tenths of
the pairs and the medians differ by more than the parent's IQR; ``bound``
holds when the change's median is no worse than the parent's by more than
the metric's regression bound.  Exit status is 0 when every run printed
``correct: true`` with no failed operation, else 1; it is 2, before any
run, when N is below 1 or S is not positive.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object (the last stdout line) of one benchmark run in
    ``checkout``; a run that prints none is reported with ``correct`` false."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "failed": None, "attempted": None, "metrics": {},
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}


def _quartiles(values) -> tuple[float, float, float]:
    q1, med, q3 = np.percentile(np.asarray(values, dtype=np.float64), [25, 50, 75])
    return float(q1), float(med), float(q3)


def summarize(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> list[dict]:
    """One row per metric of ``end_to_end`` (``BENCHMARK.json`` entries:
    name, better, bound) over the pairs ``parent[i]``, ``change[i]`` of
    {metric: value}; a metric missing from a run is left out of that pair."""
    rows = []
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        pairs = [(p[name], c[name]) for p, c in zip(parent, change) if name in p and name in c]
        if not pairs:
            continue
        p_vals, c_vals = zip(*pairs)
        p_q1, p_med, p_q3 = _quartiles(p_vals)
        c_q1, c_med, c_q3 = _quartiles(c_vals)
        won = sum((c > p) if higher else (c < p) for p, c in pairs)
        gain = (c_med - p_med) if higher else (p_med - c_med)  # > 0: the change is better
        rows.append({
            "name": name, "better": metric["better"], "pairs": len(pairs), "won": won,
            "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
            "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
            "parent_iqr": p_q3 - p_q1,
            "change_pct": 100.0 * (c_med - p_med) / p_med if p_med else float("nan"),
            "claim": won >= 0.9 * len(pairs) and gain > p_q3 - p_q1,
            "bound": -gain <= metric["bound"] * abs(p_med),
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    head = ("| metric | parent median [q1, q3] | change median [q1, q3] | parent IQR | change | "
            "won | claim | bound |\n|---|---|---|---|---|---|---|---|")
    lines = [head]
    for r in rows:
        p, c = r["parent"], r["change"]
        lines.append(f"| {r['name']} ({r['better']}) | {p['median']:.4g} [{p['q1']:.4g}, "
                     f"{p['q3']:.4g}] | {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] | "
                     f"{r['parent_iqr']:.4g} | {r['change_pct']:+.1f}% | {r['won']}/{r['pairs']} | "
                     f"{'yes' if r['claim'] else 'no'} | {'ok' if r['bound'] else 'WORSE'} |")
    return "\n".join(lines)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True, choices=("train", "retrieval", "report_qa"))
    p.add_argument("--pairs", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--seed0", required=True, type=int)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    end_to_end = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    values = {"parent": [], "change": []}
    clean = True
    for i in range(args.pairs):
        seed = args.seed0 + i
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            result = run_bench(sides[side], args.workload, seed, args.seconds)
            values[side].append({k: m["value"] for k, m in result["metrics"].items()})
            clean &= result["correct"] is True and result["failed"] == 0
            print(f"pair {i} seed {seed} {side}: correct {result['correct']} failed "
                  f"{result['failed']} attempted {result['attempted']}"
                  + (f" ({result['error']})" if "error" in result else ""), flush=True)
    print(f"\n{args.workload}, {args.pairs} pairs of {args.seconds:g} s, seeds "
          f"{args.seed0}-{args.seed0 + args.pairs - 1}")
    print(format_rows(summarize(values["parent"], values["change"], end_to_end)))
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
