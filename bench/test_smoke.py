"""Smoke tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest bench/test_smoke.py -q

Each workload runs once timed and once traced in ``--smoke`` mode (one
set-up sample, one traced item), which takes about a minute in all.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SPEC_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=600, cwd=BENCH.parent,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _check_result(result, names):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(names)
    for name in names:
        assert isinstance(result["metrics"][name]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_prints_every_end_to_end_metric(workload):
    lines, result = _run(workload, 0)
    names = [m["name"] for m in SPEC["end_to_end"]]
    _check_result(result, names)
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert any(line.startswith("# provenance ") and '"isolation": "none"' in line for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    _, result = _run(workload, 1)
    _check_result(result, [m["name"] for m in SPEC["per_layer"]])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.overhead"] > 0
    if workload == "cosmo-trace":
        untouched = [k for k in metrics if k.startswith(("numerics.bessel_", "propagation."))
                     and SPEC_UNITS[k] == "count"]
        assert untouched and all(metrics[k] == 0 for k in untouched)
        assert metrics["cosmology.time_integral.nodes"] > 0


def test_tracer_reports_missing_names_as_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH.parent / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    import wavekit

    original = wavekit.make_minimal
    layers = tracer.SPAN_LAYERS + (("numerics.gone", "wavekit.numerics", "_no_such_function", None),)
    monkeypatch.setattr(tracer, "SPAN_LAYERS", layers)
    tr = tracer.Tracer()
    tr.install()
    try:
        pk = wavekit.make_minimal(wavekit.DispersionRelation.non_relativistic(1.0), 1.0)
    finally:
        tr.remove()
    assert tr.absent == ["numerics.gone (wavekit.numerics._no_such_function)"]
    assert tr.counts["packet.make_minimal.calls"] == 1
    assert tr.counts["numerics.adaptive.points"] > 0
    assert wavekit.make_minimal is original and wavekit.packet.make_minimal is original
    assert pk.norm_A > 0
