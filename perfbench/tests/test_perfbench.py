"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests

Tiny runs use ``--tiny --seconds 0``: reference-size inputs, minimum work.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
QUALITY = {"zeroshot_auc", "search_b_ndcg5", "qa_grade_mean", "lm_holdout_loss"}


def _run(root: Path, workload: str, trace: int = 0, seed: int = 3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def _result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _copy_checkout(tmp_path: Path) -> Path:
    root = tmp_path / "checkout"
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(REPO / "src", root / "src", ignore=ignore)
    shutil.copytree(BENCH, root / "perfbench", ignore=ignore)
    shutil.copy(REPO / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


def test_benchmark_json_matches_the_command():
    import run
    import tracer

    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracer.METRICS


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_end_to_end_metric(workload):
    proc = _run(REPO, workload)
    assert proc.returncode == 0, proc.stderr[-2000:] + proc.stdout[-2000:]
    res = _result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    for name, v in res["metrics"].items():
        # quality guards can be 0 on tiny inputs (e.g. no hit in a top 5)
        assert v["value"] >= 0 if name in QUALITY else v["value"] > 0, name


def test_tiny_traced_run_reports_every_per_layer_metric():
    proc = _run(REPO, "retrieval", trace=1)
    assert proc.returncode == 0, proc.stderr[-2000:]
    res = _result(proc)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    m = {k: v["value"] for k, v in res["metrics"].items()}
    for name in ("trace.spans", "search.itm_scores_ms", "search.index_b_ms",
                 "params.load_checkpoint_ms", "corpus.generate_corpus_ms",
                 "autograd.backward_calls", "nn.lm.generate_calls.reviewer"):
        assert m[name] > 0, name


def test_corrupted_golden_fails_the_run(tmp_path):
    root = _copy_checkout(tmp_path)
    path = root / "perfbench" / "data" / "golden.json"
    golden = json.loads(path.read_text())
    golden["report_qa"]["vqa"][0]["answer"] += " x"
    path.write_text(json.dumps(golden))
    proc = _run(root, "retrieval")
    assert proc.returncode == 1
    res = _result(proc)
    assert res["correct"] is False


def test_corrupted_fixture_digest_fails_the_run(tmp_path):
    root = _copy_checkout(tmp_path)
    path = root / "perfbench" / "data" / "lm.ckpt"
    manifest = json.loads(path.read_text())
    manifest["blob_sha256"] = "0" * 64
    path.write_text(json.dumps(manifest))
    proc = _run(root, "retrieval")
    assert proc.returncode != 0
    assert "digest mismatch" in proc.stderr
    assert not proc.stdout.strip()


def test_checkout_without_program_exits_without_result(tmp_path):
    root = tmp_path / "bare"
    shutil.copytree(BENCH, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(REPO / "BENCHMARK.json", root / "BENCHMARK.json")
    proc = _run(root, "train")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_untraced_run_installs_no_wrapper(monkeypatch):
    import run
    import tracer

    def refuse(self):
        raise AssertionError("tracer installed during an untraced run")

    monkeypatch.setattr(tracer.Tracer, "install", refuse)
    args = run.parse_args(["--workload", "retrieval", "--seed", "5", "--seconds", "0",
                           "--trace", "0", "--tiny"])
    result, _ = run.bench(args)
    assert result["correct"] is True
    assert tracer.installed_wrappers() == []


def test_tracer_wraps_and_restores():
    import tracer
    from graftkit import autograd, qformer, search, vqa

    original = (autograd.matmul, search.search_b, vqa.generate_impression,
                search.ImageIndexB.__dict__["build"].__func__)
    t = tracer.Tracer()
    with t:
        assert set(tracer.installed_wrappers()) >= {"graftkit.autograd.matmul",
                                                    "graftkit.vqa.generate_impression",
                                                    "graftkit.search.ImageIndexB"}
        autograd.matmul(autograd.Tensor([[1.0]]), autograd.Tensor([[2.0]]))
    assert t.spans and t.spans[0][0] == "autograd.matmul"
    assert tracer.installed_wrappers() == []
    assert (autograd.matmul, search.search_b, vqa.generate_impression,
            search.ImageIndexB.__dict__["build"].__func__) == original
    assert qformer.generate_impression is vqa.generate_impression
