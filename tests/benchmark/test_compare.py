"""Verdicts and claim mode of the ``compare`` tool."""

import json

import pytest

from benchmarks.e2e.compare import claim, cmd_compare, judge
from benchmarks.e2e.metrics import GUARDS, Rule

LOWER = Rule("ms", "lower", 0.10, "relative")


@pytest.mark.parametrize("a, b, verdict", [
    ([100, 101, 99, 100], [100, 102, 99, 101], "unchanged"),
    ([100, 101, 99, 100], [120, 121, 119, 120], "regressed"),
    ([100, 101, 99, 100], [80, 81, 79, 80], "improved"),
    # spread wider than the bound: the medians cannot be told apart
    ([100, 140, 70, 100], [105, 150, 75, 105], "unresolved"),
    # ... unless every new run beats every base run
    ([100, 140, 70, 100], [50, 60, 40, 55], "improved"),
])
def test_relative_verdicts(a, b, verdict):
    assert judge(LOWER, a, b)[0] == verdict


def test_higher_is_better():
    rule = Rule("1/s", "higher", 0.10, "relative")
    assert judge(rule, [10, 10, 10], [8, 8, 8])[0] == "regressed"
    assert judge(rule, [10, 10, 10], [12, 12, 12])[0] == "improved"


def test_guard_rules():
    assert judge(GUARDS["failed_fraction"], [0, 0], [0, 0.01])[0] == "regressed"
    assert judge(GUARDS["failed_fraction"], [0, 0], [0, 0])[0] == "unchanged"
    assert judge(GUARDS["modeled_cycles"], [5, 5], [5, 5])[0] == "unchanged"
    assert judge(GUARDS["modeled_cycles"], [5, 5], [5, 6])[0] == "regressed"
    # seed-dependent values: the same seeds in another order
    assert judge(GUARDS["modeled_p99_us"], [7, 9], [9, 7])[0] == "unchanged"
    bits = GUARDS["precision_bits"]
    assert judge(bits, [22.0, 22.1], [21.8, 21.9])[0] == "unchanged"
    assert judge(bits, [22.0, 22.1], [21.0, 21.1])[0] == "regressed"


def _result(value, started_at, workload="bfv-mult", failed=0.0):
    return {"workload": workload, "trace": False,
            "metrics": {"latency_ms.p50": {"value": value, "unit": "ms"},
                        "failed_fraction": {"value": failed,
                                            "unit": "fraction"}},
            "run": {"started_at": started_at}}


def _pairs(a_values, b_values):
    base, new = [], []
    for i, (x, y) in enumerate(zip(a_values, b_values)):
        a_first = i % 2 == 0
        base.append(_result(x, 2 * i + (0 if a_first else 1)))
        new.append(_result(y, 2 * i + (1 if a_first else 0)))
    return base, new


def test_claim_holds_on_ten_alternating_wins():
    base, new = _pairs([100 + i % 3 for i in range(10)],
                       [80 + i % 3 for i in range(10)])
    assert claim(base, new, "latency_ms.p50", LOWER)[1]


def test_claim_needs_ten_pairs_and_nine_wins():
    base, new = _pairs([100] * 9, [80] * 9)
    assert not claim(base, new, "latency_ms.p50", LOWER)[1]
    base, new = _pairs([100] * 10, [80] * 8 + [120] * 2)
    assert not claim(base, new, "latency_ms.p50", LOWER)[1]


def test_claim_needs_alternating_order():
    base = [_result(100, i) for i in range(10)]
    new = [_result(80, 100 + i) for i in range(10)]
    assert not claim(base, new, "latency_ms.p50", LOWER)[1]


def test_compare_exit_codes(tmp_path, capsys):
    a, b, worse = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    a.write_text(json.dumps([_result(100, 0), _result(101, 1)]))
    b.write_text(json.dumps([_result(100.5, 2), _result(100.7, 3)]))
    worse.write_text(json.dumps([_result(100, 2, failed=0.5),
                                 _result(100, 3)]))
    assert cmd_compare([str(a)], [str(b)]) == 0
    assert "unchanged" in capsys.readouterr().out
    assert cmd_compare([str(a)], [str(worse)]) == 1
    assert cmd_compare([str(a)], []) == 2
