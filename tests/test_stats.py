import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graftkit
from graftkit.cli import main
from graftkit.stats import (
    auc, bootstrap_ci, delong_ci, delong_compare, dcg, mean_difference,
    ndcg_at_k, noninferiority_margin_test, permutation_test, precision_at_k,
)


def brute_force_auc(scores, labels):
    """Oracle: direct concordant-pair count with half credit for ties."""
    scores = np.asarray(scores, float)
    labels = np.asarray(labels, int)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def test_auc_perfect_separation():
    assert auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0


def test_auc_all_ties():
    assert auc([0.5] * 6, [1, 1, 1, 0, 0, 0]) == 0.5


def test_auc_hand_counted():
    assert auc([0.8, 0.4, 0.6, 0.2], [1, 1, 0, 0]) == 0.75


def test_auc_single_class_errors():
    with pytest.raises(ValueError):
        auc([0.1, 0.2], [1, 1])


def test_auc_of_a_nan_score_exits_1_instead_of_spinning(tmp_path):
    # the midrank loop never got past a NaN (NaN != NaN); a subprocess with a
    # timeout makes a regression fail rather than hang the suite
    src = str(Path(graftkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-m", "graftkit.cli", "eval", "--metric", "auc",
                           "--scores", "0.1,nan", "--labels", "1,0", "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1 and "scores must be finite" in proc.stderr


@pytest.mark.parametrize("labels", [[0, 1, 2], [0, 1, 0.7]], ids=["two", "fraction"])
def test_auc_refuses_a_label_other_than_0_or_1(labels):
    # a 2 used to drop its row, and a 0.7 to be truncated to 0
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        auc([0.1, 0.9, 0.5], labels)


def test_delong_ci_refuses_a_nan_score():
    # it used to report AUC 0.5 with CI (0, 1)
    with pytest.raises(ValueError, match="scores must be finite"):
        delong_ci([0.1, np.nan, 0.3, 0.7], [1, 0, 1, 0])


def test_auc_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(4, 40))
        scores = np.round(rng.uniform(0, 1, n), 2)  # rounding forces ties
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        assert auc(scores, labels) == pytest.approx(brute_force_auc(scores, labels), abs=1e-12)


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["exp", "cube", "affine", "logit"]))
@settings(max_examples=40, deadline=None)
def test_auc_invariant_under_monotone_transforms(seed, kind):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(0.01, 0.99, 25)
    labels = rng.integers(0, 2, 25)
    if labels.sum() in (0, 25):
        labels[0] = 1 - labels[0]
    transforms = {
        "exp": np.exp,
        "cube": lambda x: x ** 3,
        "affine": lambda x: 7.0 * x + 3.0,
        "logit": lambda x: np.log(x / (1 - x)),
    }
    assert auc(scores, labels) == pytest.approx(auc(transforms[kind](scores), labels), abs=1e-12)


def test_delong_auc_equals_mann_whitney_on_random_sets():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(6, 60))
        scores = np.round(rng.normal(0, 1, n), 1)
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        assert delong_ci(scores, labels).auc == pytest.approx(auc(scores, labels), abs=1e-15)


def test_delong_ci_brackets_auc():
    rng = np.random.default_rng(2)
    scores = np.concatenate([rng.normal(1, 1, 40), rng.normal(0, 1, 60)])
    labels = np.concatenate([np.ones(40, int), np.zeros(60, int)])
    res = delong_ci(scores, labels)
    assert res.ci[0] <= res.auc <= res.ci[1]
    assert 0.0 <= res.auc <= 1.0
    assert not res.degenerate


def test_delong_variance_close_to_bootstrap_oracle():
    rng = np.random.default_rng(3)
    scores = np.concatenate([rng.normal(0.8, 0.6, 45), rng.normal(0, 1, 55)])
    labels = np.concatenate([np.ones(45, int), np.zeros(55, int)])
    res = delong_ci(scores, labels)
    boots = np.empty(10_000)
    for i in range(10_000):
        idx = rng.integers(0, 100, 100)
        ls = labels[idx]
        if ls.sum() in (0, 100):
            boots[i] = np.nan
            continue
        boots[i] = auc(scores[idx], ls)
    boot_var = np.nanvar(boots)
    assert abs(res.se ** 2 - boot_var) / boot_var < 0.20


def test_delong_compare_identity():
    rng = np.random.default_rng(4)
    scores = rng.uniform(0, 1, 30)
    labels = rng.integers(0, 2, 30)
    labels[0], labels[1] = 0, 1
    res = delong_compare(scores, scores, labels)
    assert res.diff == 0.0
    assert res.ci == (0.0, 0.0)
    assert res.p == 1.0
    assert res.degenerate


def test_delong_compare_detects_difference():
    rng = np.random.default_rng(5)
    labels = np.concatenate([np.ones(80, int), np.zeros(80, int)])
    good = np.concatenate([rng.normal(2, 1, 80), rng.normal(0, 1, 80)])
    bad = rng.uniform(0, 1, 160)
    res = delong_compare(good, bad, labels)
    assert res.p < 0.01
    assert res.diff > 0.2


def test_delong_compare_length_mismatch_rejected():
    with pytest.raises(ValueError):
        delong_compare([0.1, 0.9], [0.2, 0.8, 0.5], [0, 1])


def test_noninferiority_margin():
    rng = np.random.default_rng(6)
    labels = np.concatenate([np.ones(100, int), np.zeros(100, int)])
    strong = np.concatenate([rng.normal(2, 1, 100), rng.normal(0, 1, 100)])
    res = noninferiority_margin_test(strong, strong + rng.normal(0, 0.01, 200), labels, margin=0.05)
    assert res["noninferior"]
    assert res["margin"] == 0.05


# hand-derived frozen expectations for the linear-gain form:
#   dcg([2,2,2,1,2]) = 2/log2(2) + 2/log2(3) + 2/log2(4) + 1/log2(5) + 2/log2(6)
#   idcg            = dcg([2,2,2,2,2])
def _hand_ndcg(rel):
    num = sum(r / np.log2(i + 2) for i, r in enumerate(rel))
    den = sum(2.0 / np.log2(i + 2) for i in range(len(rel)))
    return num / den


def test_ndcg_ideal_and_zero():
    assert ndcg_at_k([2, 2, 2, 2, 2]) == 1.0
    assert ndcg_at_k([0, 0, 0, 0, 0]) == 0.0


def test_ndcg_reference_values():
    assert ndcg_at_k([2, 2, 2, 1, 2]) == pytest.approx(0.9269, abs=1e-4)
    assert ndcg_at_k([0, 0, 0, 0, 2]) == pytest.approx(0.1312, abs=1e-4)
    assert ndcg_at_k([2, 2, 2, 1, 2]) == pytest.approx(_hand_ndcg([2, 2, 2, 1, 2]), abs=1e-12)
    assert ndcg_at_k([0, 0, 0, 0, 2]) == pytest.approx(_hand_ndcg([0, 0, 0, 0, 2]), abs=1e-12)


def test_ndcg_monotone_in_grades():
    rng = np.random.default_rng(7)
    for _ in range(30):
        rel = rng.integers(0, 3, 5)
        base = ndcg_at_k(rel)
        i = int(rng.integers(0, 5))
        if rel[i] < 2:
            bumped = rel.copy()
            bumped[i] += 1
            assert ndcg_at_k(bumped) >= base
        assert 0.0 <= base <= 1.0


def test_ndcg_rejects_bad_grades():
    with pytest.raises(ValueError):
        ndcg_at_k([0, 1, 3, 0, 0])
    with pytest.raises(ValueError):
        ndcg_at_k([2, 2], k=0)


def test_precision_at_k():
    assert precision_at_k([2, 2, 1, 0, 0]) == (0.4, 0.6)
    assert precision_at_k([2, 2, 2, 2, 2]) == (1.0, 1.0)
    assert precision_at_k([1, 1, 1, 1, 1]) == (0.0, 1.0)


def test_bootstrap_constant_samples():
    lo, hi = bootstrap_ci(np.full(20, 3.5), np.mean, n=200, seed=1)
    assert lo == hi == 3.5


def test_bootstrap_deterministic_per_seed():
    rng = np.random.default_rng(8)
    x = rng.normal(0, 1, 50)
    assert bootstrap_ci(x, np.mean, n=300, seed=9) == bootstrap_ci(x, np.mean, n=300, seed=9)
    assert bootstrap_ci(x, np.mean, n=300, seed=9) != bootstrap_ci(x, np.mean, n=300, seed=10)


def test_bootstrap_empty_rejected():
    with pytest.raises(ValueError):
        bootstrap_ci([], np.mean)


def test_bootstrap_mean_of_a_nan_sample_exits_1(tmp_path, capsys):
    # it used to print {"lo": NaN, "hi": NaN} and exit 0
    assert main(["eval", "--metric", "bootstrap-mean", "--scores", "nan,1",
                 "--out", str(tmp_path)]) == 1
    assert "bootstrap samples must be finite" in capsys.readouterr().err


def test_bootstrap_coverage_of_mean():
    # CI of the mean of 500 N(0,1) draws should contain 0 in >= 93% of trials
    hits = 0
    trials = 200
    for t in range(trials):
        x = np.random.default_rng(1000 + t).normal(0, 1, 500)
        lo, hi = bootstrap_ci(x, np.mean, n=400, seed=t)
        hits += int(lo <= 0.0 <= hi)
    assert hits / trials >= 0.93


def test_permutation_identical_groups_near_one():
    x = np.arange(10.0)
    assert permutation_test(x, x, n=500, seed=0) >= 0.9


def test_permutation_extreme_groups_small_p():
    a = np.full(20, 100.0)
    b = np.zeros(20)
    assert permutation_test(a, b, n=1000, seed=0) <= 0.01


def test_permutation_p_in_unit_interval_and_deterministic():
    rng = np.random.default_rng(11)
    a, b = rng.normal(0, 1, 15), rng.normal(0.3, 1, 18)
    p1 = permutation_test(a, b, n=400, seed=3)
    p2 = permutation_test(a, b, n=400, seed=3)
    assert p1 == p2
    assert 0.0 < p1 <= 1.0


def test_permutation_empty_group_rejected():
    with pytest.raises(ValueError):
        permutation_test([], [1.0])


def test_permutation_refuses_a_nan_sample():
    # it used to return 1 / (n + 1), which reads as significant
    with pytest.raises(ValueError, match="permutation samples must be finite"):
        permutation_test([np.nan, 1.0], [0.0, 1.0], n=200)


def test_mean_difference_statistic():
    assert mean_difference([2.0, 4.0], [1.0]) == 2.0
