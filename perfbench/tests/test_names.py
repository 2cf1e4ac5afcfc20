import json
import os
import re

import run

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_every_metric_name_is_well_formed_and_unique():
    names = run.end_to_end_names() + run.per_layer_names()
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64 and name[0].isalnum(), name
    units = [run.END_TO_END_UNITS[n] for n in run.end_to_end_names()]
    units += [run.per_layer_unit(n) for n in run.per_layer_names()]
    assert all(UNIT.fullmatch(u) for u in units)


def test_benchmark_json_declares_what_run_reports():
    spec = _declared()
    assert [m["name"] for m in spec["end_to_end"]] == run.end_to_end_names()
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
