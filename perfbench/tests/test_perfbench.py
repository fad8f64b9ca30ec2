"""Tests of the benchmark itself, on the tiny inputs of its smoke mode.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import Tracer, check_nesting
from worker import run_passes

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _lines(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    report, summary = proc.stdout.strip().splitlines()[-2:]
    return json.loads(report), json.loads(summary)


def _check_summary(summary: dict, declared: list[dict]) -> None:
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0 and summary["attempted"] >= 1
    assert set(summary["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = summary["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload):
    report, summary = _lines(_bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                                    "--trace", "0", "--smoke"))
    _check_summary(summary, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert summary["metrics"][m["name"]]["value"] > 0
    assert report["metrics"]["fail_frac"] == {"value": 0.0, "unit": "ratio"}
    assert report["metrics"]["op_p50_ms"]["unit"] == report["metrics"]["op_tail_ms"]["unit"] == "ms"
    for key in ("nproc", "cpu_model", "python", "numpy", "seed"):
        assert report["machine"][key] is not None
    if workload == "census":
        assert report["metrics"]["pairs_per_s"]["unit"] == "1/s"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_trace_writes_well_nested_spans(workload):
    report, summary = _lines(_bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                                    "--trace", "1", "--smoke"))
    _check_summary(summary, SPEC["per_layer"])
    for name in ("permgroup.order_s", "graphs.g6_encode_s", "families.cert_s", "trace.overhead_s"):
        assert report["metrics"][name]["unit"] == "s"
    spans = json.loads((ROOT / report["spans_path"]).read_text())["spans"]
    assert report["span_count"] == len(spans) > 0
    assert check_nesting(spans) == []
    roots = [s for s in spans if s[4] == 0]
    assert roots and all(s[1] == "workload.call" for s in roots)


@pytest.mark.parametrize("workload,field,wrong", [
    ("census", "class_count", 3),
    ("analyze", "aut_order", 1297),
    ("verify", "passed", False),
])
def test_wrong_expected_value_counts_as_failure(workload, field, wrong, tmp_path):
    wl = workloads.build(workload, 3, 1, smoke=True, scratch=str(tmp_path))
    try:
        wl.passes[0][0].expect[field] = wrong
        res = run_passes(wl)
    finally:
        wl.close()
    assert res["attempted"] == len(wl.passes[0])
    assert res["failed"] == 1
    assert res["failures"][0].startswith(wl.passes[0][0].label)


def test_canon_checks_relabelling_invariance_and_distinctness():
    wl = workloads.build("canon", 3, 1, smoke=True)
    assert [c.label for c in wl.passes[0]] == ["gamma_1", "gamma_1~0", "star_6", "star_6~0"]
    assert run_passes(wl)["failed"] == 0
    # a relabelled gamma_1 held against star_6's form
    copy = wl.passes[0].pop(1)
    copy.expect = {"group": "star_6"}
    wl.passes[0].append(copy)
    res = run_passes(wl)
    assert res["failed"] == 1 and "differs" in res["failures"][0]
    # star_6's original swapped for gamma_1: its form clashes with gamma_1's
    wl = workloads.build("canon", 3, 1, smoke=True)
    wl.passes[0][2].fn = wl.passes[0][0].fn
    res = run_passes(wl)
    assert res["failures"][0].startswith("star_6: form equals")


def test_raising_call_counts_as_failure():
    wl = workloads.build("canon", 3, 1, smoke=True)
    wl.passes[0][0].fn = lambda: 1 // 0
    res = run_passes(wl)
    assert res["failed"] == 2  # the original raised, so its copy has no reference


def test_tracer_restores_library():
    import bicayley
    from bicayley import families, symmetry

    before = (symmetry.graph6_encode, families.canonical_digest, bicayley.compose,
              symmetry._Engine.refine)
    tr = Tracer()
    tr.install()
    try:
        assert symmetry.graph6_encode is not before[0]
        bicayley.canonical_form(bicayley.gamma_t(1).graph)
    finally:
        tr.uninstall()
    after = (symmetry.graph6_encode, families.canonical_digest, bicayley.compose,
             symmetry._Engine.refine)
    assert after == before
    assert tr.calls("refine") > 0 and tr.calls("graphs.g6_encode") == 1
    assert check_nesting(tr.spans) == []


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 101))
    assert run.tail(values) == (90, 90.0, 10)
    assert run.tail([5.0, 1.0, 3.0]) == (5.0, 100.0, 0)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
