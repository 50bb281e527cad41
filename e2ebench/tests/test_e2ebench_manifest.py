"""BENCHMARK.json names exactly the metrics the runs print."""

import json
import os
import re

from layers import PER_LAYER
from measure import END_TO_END, TAIL_P
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_metric_lists_match_the_code():
    data = manifest()
    assert [(m["name"], m["unit"]) for m in data["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in data["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in data["workloads"]] == list(WORKLOADS)
    assert set(TAIL_P) == set(WORKLOADS)


def test_manifest_shape():
    data = manifest()
    assert set(data) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [m["name"] for m in data["end_to_end"] + data["per_layer"]]
    names += [w["name"] for w in data["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    bounds = {m["name"]: m["bound"] for m in data["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in data["workloads"])
    assert 1 <= data["run_seconds"] <= 60
