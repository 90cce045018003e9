"""BENCHMARK.json agrees with what the runner emits, and obeys its limits."""

import re

from benchmarks.e2e.metrics import END_TO_END, ROOT, load_benchmark
from benchmarks.e2e.tracer import per_layer_metrics
from benchmarks.e2e.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_top_level_keys():
    doc = load_benchmark()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/e2e", "tests/benchmark"]
    assert doc["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(doc["run_seconds"], int)
    assert 1 <= doc["run_seconds"] <= 60
    assert (ROOT / doc["command"][1]).is_file()


def test_workloads_match_the_runner():
    doc = load_benchmark()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    for entry in doc["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert 0 < len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_end_to_end_names_units_and_bounds():
    doc = load_benchmark()
    listed = [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]]
    assert listed == [(m.name, m.unit, m.better) for m in END_TO_END]
    assert len(listed) <= 16
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    # set-up time carries the largest bound
    assert bounds["setup_s"] == max(bounds.values())
    assert ("setup_s", "s", "lower") in listed


def test_per_layer_names_match_the_tracer():
    doc = load_benchmark()
    listed = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    assert listed == per_layer_metrics()
    assert len(listed) <= 128
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_names_and_units_are_well_formed():
    doc = load_benchmark()
    names = [w["name"] for w in doc["workloads"]]
    for key in ("end_to_end", "per_layer"):
        for m in doc[key]:
            names.append(m["name"])
            assert UNIT.match(m["unit"]), m
            assert m["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
