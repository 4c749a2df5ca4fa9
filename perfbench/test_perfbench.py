"""The benchmark's own test, at a tiny size.

    python3 -m pytest perfbench/test_perfbench.py -q

Every workload runs untraced and traced and must print every metric that
``BENCHMARK.json`` names, with its unit; a traced run fails unless every
layer's span fired and the spans fit in the observed latency. A remote
answer one ulp off, or a live matrix off by 1e-6, must fail the run.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

from repro.core.matrix import CorrelationMatrix  # noqa: E402
from repro.core.network import ClimateNetwork  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--seed", "3", "--seconds", "1", "--stations", "12", "--points", "1200"]


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--trace", str(trace), *TINY],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    for metric in listed:
        value = result["metrics"][metric["name"]]["value"]
        assert np.isfinite(value)
        assert f"  {metric['name']} " in proc.stdout
        if not trace:
            assert value > 0, metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_an_unattributed_layer_fails_the_trace(workload: str) -> None:
    required = run.REQUIRED_SPANS[workload]
    calls = dict.fromkeys(required, 1)
    assert run.trace_problems(workload, calls, 10.0) == []
    silent = dict(calls, **{required[1]: 0})
    assert run.trace_problems(workload, silent, 10.0)
    assert run.trace_problems(workload, calls, -0.5)


def one_ulp_off(value):
    """The same answer with one reported float moved by one ulp."""
    if isinstance(value, CorrelationMatrix):
        values = value.values.copy()
        values[0, 1] = np.nextafter(values[0, 1], 2.0)
        return CorrelationMatrix(list(value.names), values)
    if isinstance(value, ClimateNetwork):
        rows, cols = np.nonzero(np.triu(value.adjacency, k=1))
        if len(rows):
            weights = value.weights.copy()
            weights[rows[0], cols[0]] = np.nextafter(weights[rows[0], cols[0]], 2.0)
            return dataclasses.replace(value, weights=weights)
    if isinstance(value, list) and value and isinstance(value[0], tuple):
        # top_k: (name, name, r) pairs; both workloads send it.
        first = value[0]
        return [(*first[:-1], float(np.nextafter(first[-1], 2.0))), *value[1:]]
    return value


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_wrong_answer_fails_the_run(workload: str, monkeypatch,
                                      capsys) -> None:
    if workload == "live":
        from repro.storage.live import PersistentRealtime

        original = PersistentRealtime.correlation_matrix

        def off(self):
            matrix = original(self)
            return CorrelationMatrix(list(matrix.names), matrix.values + 1e-6)

        monkeypatch.setattr(PersistentRealtime, "correlation_matrix", off)
    else:
        import repro.api.remote as remote

        decode = remote.value_from_payload_v2
        monkeypatch.setattr(remote, "value_from_payload_v2",
                            lambda *args: one_ulp_off(decode(*args)))
    code = run.main(["--workload", workload, "--trace", "0", *TINY])
    result = last_json(capsys.readouterr().out)
    assert code == 1
    assert result["correct"] is False
