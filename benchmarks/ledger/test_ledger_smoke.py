"""Tier-1 smoke test of the ledger: the contract of names, not speed (n = 512)."""

import json
import math
import re

import pytest

from benchmarks.ledger import run as ledger
from benchmarks.ledger import workloads

CONTRACT = ledger.CONTRACT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [w.name for w in workloads.WORKLOADS]


def smoke(capsys, workload: str, trace: int) -> dict:
    status = ledger.main(["--workload", workload, "--smoke", "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 0
    return result


def test_contract_names():
    assert [w["name"] for w in CONTRACT["workloads"]] == WORKLOADS
    metrics = CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    names = WORKLOADS + [m["name"] for m in metrics]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= CONTRACT["end_to_end"][0].items()
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in CONTRACT["workloads"])
    assert CONTRACT["paths"] == ["benchmarks/ledger"]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(capsys, workload, trace):
    result = smoke(capsys, workload, trace)
    expected = {m["name"]: m["unit"] for m in CONTRACT["per_layer" if trace else "end_to_end"]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
    if trace:
        assert result["metrics"]["ledger.probe_errors"]["value"] == 0
    else:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_counts_repeat_exactly(capsys):
    first, second = ({**smoke(capsys, "fmm_fine", 0)["metrics"], **smoke(capsys, "fmm_fine", 1)["metrics"]}
                     for _ in range(2))
    checked = [name for name in ledger.EXACT if name in first]
    assert len(checked) >= 6
    assert [first[name]["value"] for name in checked] == [second[name]["value"] for name in checked]
