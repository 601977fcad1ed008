import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_trajectory.py"
_spec = importlib.util.spec_from_file_location("bench_trajectory", _PATH)
bench_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trajectory)

ENV = {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2}


def _report(commit, seed, value, workload="cli-n256", trace=0):
    return {"workload": workload, "trace": trace,
            "environment": {**ENV, "git_commit": commit, "seed": seed},
            "result": {"metrics": {"compute_ms.p50": {"value": value, "unit": "ms"}}}}


def test_groups_by_commit_with_median_and_quartiles(tmp_path):
    paths = []
    for i, (commit, seed, value) in enumerate([
        ("parent", 1, 800.0), ("change", 1, 600.0), ("parent", 2, 820.0),
        ("change", 2, 640.0), ("parent", 3, 900.0), ("change", 3, 610.0),
    ]):
        paths.append(tmp_path / f"r{i}.json")
        paths[-1].write_text(json.dumps(_report(commit, seed, value)))
    out = tmp_path / "bench.json"
    assert bench_trajectory.main(["--out", str(out), *map(str, paths)]) == 0
    doc = json.loads(out.read_text())
    assert list(doc["commits"]) == ["parent", "change"]
    assert doc["commits"]["change"] == {"environment": ENV, "seeds": {"cli-n256": [1, 2, 3]}}
    metric = doc["workloads"]["cli-n256"]["compute_ms.p50"]
    assert metric["unit"] == "ms"
    assert metric["parent"] == {"n": 3, "median": 820.0, "q1": 810.0, "q3": 860.0,
                                "by_seed": {"1": 800.0, "2": 820.0, "3": 900.0}}
    assert metric["change"]["median"] == 610.0


def test_one_run_is_its_own_quartiles():
    doc = bench_trajectory.trajectory([_report("c", 5, 7.0)])
    stats = doc["workloads"]["cli-n256"]["compute_ms.p50"]["c"]
    assert (stats["q1"], stats["median"], stats["q3"]) == (7.0, 7.0, 7.0)


def test_folds_traced_counts_per_commit():
    traced = _report("c", 7, 2.0, workload="routes-n64", trace=1)
    traced["result"]["metrics"] = {
        "linalg.svd.calls": {"value": 1200, "unit": "count"},
        "linalg.svd.self_ms": {"value": 950.0, "unit": "ms"},
        "prescribed.diagnose.svd_per_call": {"value": 12.0, "unit": "count"},
        "prescribed.diagnose.svd.self_ms": {"value": 1.0, "unit": "ms"},
        "cli.stdout_bytes": {"value": 10, "unit": "bytes"},
    }
    doc = bench_trajectory.trajectory([_report("c", 7, 600.0), traced])
    # the counts only; the traced timings stay out of the end-to-end metrics
    assert doc["commits"]["c"]["counts"] == {"routes-n64": {
        "linalg.svd.calls": {"7": 1200}, "prescribed.diagnose.svd_per_call": {"7": 12.0}}}
    assert doc["commits"]["c"]["seeds"] == {"cli-n256": [7]}
    assert list(doc["workloads"]) == ["cli-n256"]
    with pytest.raises(ValueError, match="two traced routes-n64 reports"):
        bench_trajectory.trajectory([traced, traced])


def test_refuses_other_trace_levels_and_mixed_environments(tmp_path):
    traced = tmp_path / "t.json"
    traced.write_text(json.dumps(_report("c", 1, 1.0, trace=2)))
    with pytest.raises(SystemExit):
        bench_trajectory.main(["--out", str(tmp_path / "o.json"), str(traced)])
    other = _report("c", 2, 1.0)
    other["environment"]["numpy"] = "1.26.4"
    with pytest.raises(ValueError, match="environment"):
        bench_trajectory.trajectory([_report("c", 1, 1.0), other])
    with pytest.raises(ValueError, match="seed 1"):
        bench_trajectory.trajectory([_report("c", 1, 1.0), _report("c", 1, 2.0)])
