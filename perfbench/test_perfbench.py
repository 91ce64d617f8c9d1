"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
from workloads import WORKLOADS, check, tail  # noqa: E402


def test_smoke_runs_every_workload_and_reports_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    results = [json.loads(line) for line in done.stdout.splitlines() if line.startswith('{"correct"')]
    summary = results.pop()
    assert summary["correct"] and summary["failed"] == 0
    assert len(results) == 2 * len(bench["workloads"])
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for result, expected in zip(results, [end_to_end, per_layer] * len(bench["workloads"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for result in results[0::2]:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for result, workload in zip(results[1::2], bench["workloads"]):
        assert result["metrics"]["trace.unmeasured"]["value"] == 0
        assert result["metrics"]["trace.coverage"]["value"] > 0.3
        series = WORKLOADS[workload["name"]].route == "bessel"
        assert (result["metrics"]["series.peak_mb"]["value"] > 0) == series


def test_missing_stage_is_unmeasured_and_self_time_excludes_children(monkeypatch):
    import fanbeam as fb

    stages = spans.STAGES + (("gone.stage", ("fanbeam.series:no_such_function",)),)
    monkeypatch.setattr(spans, "STAGES", stages)
    original = fb.linear_fan_backproject
    tracer = spans.Tracer(memory=False)
    tracer.install()
    try:
        assert set(tracer.unmeasured) == {"fanbeam.series:no_such_function"}
        sino = fb.rebin_to_linear(fb.analytic_radon(fb.shepp_logan_ellipses(), 32, 32), fb.make_fan_geometry(10.0), 32, 32)
        tracer.active = True
        fb.linear_fan_backproject(sino, 32)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert fb.linear_fan_backproject is original
    summary = spans.summarize(tracer.take())
    names = set(summary["stages"])
    assert {"series.table", "rebinning.L_tau", "series.matmul", "bst.inverse_fft", "dc.restore"} <= names
    assert not names & {"bst.detector_spectrum", "rebinning.adjoint_rebin"}
    assert abs(summary["self_total_s"] - summary["root_s"]) < 1e-9


def test_tail_is_the_maximum_until_ten_samples_lie_beyond_a_percentile_above_the_median():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    values = [float(i) for i in range(1, 101)]
    assert tail(values) == (90.0, 90.0, 100)


def test_an_op_without_a_finite_image_fails_its_gate():
    import numpy as np

    for w in WORKLOADS.values():
        for image in (None, np.full((8, 8), np.nan), np.zeros((4, 4))):
            result = check(w, 8, None, image)
            assert not result["ok"] and result["image_rel_l2"] == 1.0
