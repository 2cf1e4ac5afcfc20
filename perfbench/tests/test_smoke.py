import json

import pytest

import run


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(workload, capsys):
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0.1"]) == 0
    res = _last_json(capsys)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == run.end_to_end_names()
    for name, m in res["metrics"].items():
        assert m["value"] > 0 and m["unit"] == run.END_TO_END_UNITS[name]


def test_tiny_traced_run_prints_every_per_layer_metric(capsys):
    assert run.main(["--workload", "mnist-tiny-train", "--seed", "5",
                     "--seconds", "0.1", "--trace", "1"]) == 0
    res = _last_json(capsys)
    assert res["correct"]
    assert list(res["metrics"]) == run.per_layer_names()
    values = {k: m["value"] for k, m in res["metrics"].items()}
    assert values["trace_overhead"] > 0
    assert values["network.passes.bp"] == 2.0
    assert values["tensor.conv2d.calls.bp"] == 0.0  # the tiny net has no conv
