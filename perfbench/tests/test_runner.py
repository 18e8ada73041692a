"""Self-test of the benchmark runner at toy size.

    python3 -m pytest perfbench/tests -q

Runs every workload on test-suite-sized inputs, untraced and traced, and
checks the result against BENCHMARK.json: every named metric is reported,
with the unit and direction the file gives it.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, toy  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def untraced(request):
    return request.param, run.run_workload(toy(WORKLOADS[request.param]), 3, 0, trace=False)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request):
    return request.param, run.run_workload(toy(WORKLOADS[request.param]), 3, 0, trace=True)


def test_spec_names_the_runner_workloads_and_metrics():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        n: w.why for n, w in WORKLOADS.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == tracing.LAYER_METRICS
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_untraced_run_reports_every_end_to_end_metric(untraced):
    name, (metrics, tally, report) = untraced
    assert tally.failed == 0, tally.errors
    line = run.result_line(metrics, tally, trace=False)
    assert line["correct"] and line["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]) and got["value"] > 0, (name, m["name"], got)
    assert len(report["environment"]["git_commit"]) > 0
    assert report["seeds"]["run"] == 3
    assert len(report["reps"]) + len(report["extra_passes_s"]) >= run.MIN_PASSES


def test_throughput_reads_the_slowest_pass():
    passes = [{"images": 100, "detect_s": 2.0}, {"images": 100, "detect_s": 4.0}]
    assert run.slowest_pass_images_per_s(passes) == 25.0


def test_traced_run_reports_every_layer_metric(traced):
    name, (metrics, tally, report) = traced
    assert tally.failed == 0, tally.errors
    line = run.result_line(metrics, tally, trace=True)
    assert report["absent"] == []
    for m in SPEC["per_layer"]:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]), (name, m["name"], got)
    assert report["hooks_absent"] == []
    v = {k: d["value"] for k, d in line["metrics"].items()}
    assert v["forest.train_tree.calls"] > 0 and v["routing.boxes"] > 0
    aux_calls = (v["pca.fit_pca.calls"], v["pooling.roi_histogram_pool.calls"],
                 v["pooling.roi_edge_pool.calls"])
    if name == "quality_aux":
        assert all(c > 0 for c in aux_calls)
    else:
        assert aux_calls == (0, 0, 0)
    assert v["pipeline.detect_dataset_nproc.s"] > 0


def test_missing_hook_target_is_reported_absent(monkeypatch):
    hooks = [h if h[0] != "pooling.roi_max_pool" else (h[0], h[1], "roi_max_pool_gone", h[3])
             for h in tracing.HOOKS]
    monkeypatch.setattr(tracing, "HOOKS", tuple(hooks))
    metrics, tally, report = run.run_workload(toy(WORKLOADS["speed_train"]), 4, 0, trace=True)
    assert tally.failed == 0, tally.errors
    assert "pooling.roi_max_pool.s" in report["absent"]
    assert "pooling.roi_max_pool.calls" not in metrics
    assert "pooling.roi_max_pool.calls" not in run.result_line(metrics, tally, True)["metrics"]
    assert metrics["routing.boxes"] > 0


def test_timeout_fails_the_run_instead_of_hanging():
    metrics, tally, report = run.run_workload(toy(WORKLOADS["speed_train"]), 5, 0,
                                              trace=False, timeout=0.05)
    assert tally.failed == 1
    assert "timeout" in tally.errors[0]
    assert run.result_line(metrics, tally, trace=False)["correct"] is False


def test_command_line_prints_one_result_line():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "quality_aux", "--seed", "2",
         "--seconds", "0", "--trace", "0", "--toy"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(run.END_TO_END)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "speed_train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
