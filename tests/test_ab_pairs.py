import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

END_TO_END = [
    {"name": "tput", "better": "higher", "bound": 0.1},
    {"name": "lat", "better": "lower", "bound": 0.2},
    {"name": "some", "better": "higher", "bound": 0.1},
    {"name": "absent", "better": "higher", "bound": 0.1},
]


def test_summarize_reports_medians_quartiles_wins_and_verdicts():
    parent = [{"tput": 10, "lat": 5, "some": 1}, {"tput": 12, "lat": 5, "some": 2},
              {"tput": 11, "lat": 5}, {"tput": 13, "lat": 5}]
    change = [{"tput": 14, "lat": 6.5, "some": 3}, {"tput": 15, "lat": 6.5},
              {"tput": 11, "lat": 6.5, "some": 9}, {"tput": 16, "lat": 6.5}]
    rows = {r["name"]: r for r in ab_pairs.summarize(parent, change, END_TO_END)}
    assert list(rows) == ["tput", "lat", "some"]  # a metric no pair holds is left out
    tput = rows["tput"]
    assert tput["parent"] == {"q1": 10.75, "median": 11.5, "q3": 12.25}
    assert tput["change"] == {"q1": 13.25, "median": 14.5, "q3": 15.25}
    assert tput["parent_iqr"] == 1.5 and tput["change_pct"] == pytest.approx(300 / 11.5)
    # the tie of pair 2 counts for neither side: 3 of 4 is short of nine tenths
    assert (tput["won"], tput["pairs"], tput["claim"], tput["bound"]) == (3, 4, False, True)
    lat = rows["lat"]  # lower is better: 30% worse against a 20% bound
    assert (lat["won"], lat["parent_iqr"], lat["claim"], lat["bound"]) == (0, 0.0, False, False)
    assert rows["some"]["pairs"] == 1  # only pair 0 holds it on both sides


def test_a_claim_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_parent_iqr():
    metric = [{"name": "tput", "better": "higher", "bound": 0.1}]
    parent = [{"tput": 10.0} for _ in range(10)]
    (row,) = ab_pairs.summarize(parent, [{"tput": 11.0}] * 9 + [{"tput": 9.0}], metric)
    assert (row["won"], row["claim"], row["bound"]) == (9, True, True)
    (row,) = ab_pairs.summarize(parent, [{"tput": 11.0}] * 8 + [{"tput": 9.0}] * 2, metric)
    assert (row["won"], row["claim"]) == (8, False)
    spread = [{"tput": v} for v in (8.0, 9.0, 10.0, 11.0, 12.0) * 2]  # IQR 2
    (row,) = ab_pairs.summarize(spread, [{"tput": p["tput"] + 1.5} for p in spread], metric)
    assert (row["won"], row["parent_iqr"], row["claim"]) == (10, 2.0, False)


def test_format_rows_marks_a_metric_worse_than_its_bound():
    rows = ab_pairs.summarize([{"lat": 5.0}], [{"lat": 6.5}], END_TO_END)
    table = ab_pairs.format_rows(rows)
    assert table.splitlines()[-1] == ("| lat (lower) | 5 [5, 5] | 6.5 [6.5, 6.5] | 0 | +30.0% | "
                                      "0/1 | no | WORSE |")


@pytest.mark.parametrize("flag, value, message", [
    ("--pairs", "0", "--pairs must be at least 1"),
    ("--pairs", "-3", "--pairs must be at least 1"),
    ("--seconds", "0", "--seconds must be positive"),
    ("--seconds", "-30", "--seconds must be positive"),
    ("--seconds", "nan", "--seconds must be positive"),
])
def test_parse_args_refuses_a_run_of_no_pairs_or_no_time(capsys, flag, value, message):
    argv = {"--pairs": "3", "--seconds": "30", flag: value}
    with pytest.raises(SystemExit) as exit_info:
        ab_pairs.parse_args(["a", "b", "--workload", "train", "--seed0", "1",
                             *(x for kv in argv.items() for x in kv)])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


def test_parse_args_accepts_one_pair_of_a_positive_duration():
    args = ab_pairs.parse_args(["a", "b", "--workload", "train", "--pairs", "1",
                                "--seconds", "0.5", "--seed0", "7"])
    assert (args.pairs, args.seconds, args.seed0) == (1, 0.5, 7)
