"""Self-tests of the benchmark: inputs, oracle, counters, metric names.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HELD_OUT_SEED = 424242  # used by no baseline or tuning run
KNOWN_ROUTE_FAILURES = {
    "failed: outer_inverse[limit]: NumericalError",
    "failed: outer_inverse[integral]: SpectrumError",
}
# the limit route's first-order error misses ROUTE_TOL in about one fuzz
# trial in 5000
KNOWN_FUZZ_FAILURE = "failed: fuzz trial: route_limit: "


@pytest.fixture(scope="module")
def pq():
    return run.import_package(run.ROOT)[1]


def _small(cls, n):
    return type(f"Small{cls.__name__}", (cls,), {"n": n})


def test_metric_names_and_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    assert len(names) == len(set(names))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == sorted(workloads.WORKLOADS)


def test_one_seed_gives_byte_identical_inputs(pq, tmp_path):
    first = workloads.CliN256(pq, 5, tmp_path / "one")
    second = workloads.CliN256(pq, 5, tmp_path / "two")
    first.setup()
    second.setup()
    for prob_a, prob_b in zip(first.problems, second.problems):
        for file_a, file_b in zip(prob_a["files"], prob_b["files"]):
            assert Path(file_a).read_bytes() == Path(file_b).read_bytes()

    routes = [workloads.RoutesN64(pq, 5, tmp_path) for _ in range(2)]
    for item in routes:
        item.setup()
    for x, y in zip(routes[0].problems, routes[1].problems):
        for key in ("w", "b_ref"):
            assert x[key].tobytes() == y[key].tobytes()
        for key in "apq":
            assert getattr(x["prob"], key).tobytes() == getattr(y["prob"], key).tobytes()

    # fuzz-d8's inputs are drawn inside verify.fuzz from the unit seed, so
    # equal residuals, to the bit, stand for equal inputs
    fuzz = workloads.FuzzD8(pq, 5, tmp_path)
    runs = [pq.verify.fuzz(fuzz._seed(1), fuzz.trials, fuzz.max_dim) for _ in range(2)]
    assert [c.residuals for c in runs[0].cases] == [c.residuals for c in runs[1].cases]


def test_oracle_rejects_a_perturbed_inverse_and_a_flipped_verdict(pq):
    inst = pq.verify.diagonalizable_instance(np.random.default_rng(3), 8, r=4)
    a, p, q, b_ref = inst["a"], inst["p"], inst["q"], inst["b_ref"]
    assert oracle.check_inverse(b_ref, b_ref) is None
    assert oracle.check_outer_residuals(a, p, q, b_ref) is None
    perturbed = b_ref + 1e-4 * np.ones_like(b_ref)
    assert oracle.check_inverse(perturbed, b_ref) is not None
    assert oracle.check_outer_residuals(a, p, q, perturbed) is not None

    report = pq.prescribed.diagnose(pq.prescribed.PqProblem(a, p, q)).to_json_dict()
    expected = oracle.diagonalizable_verdicts(8, 4)
    assert oracle.check_verdicts(report, expected) is None
    assert oracle.check_consistent(report) is None
    flipped = dict(report, strict_exists=True)
    assert oracle.check_verdicts(flipped, expected) is not None
    assert oracle.check_consistent(dict(report, equivalence_consistent=False)) is not None


def test_wrong_cli_answers_count_as_wrong(pq, tmp_path, monkeypatch):
    """A `compute` that returns a perturbed b and a `check` with a flipped
    verdict are both counted as wrong answers, not as correct ones."""
    workload = _small(workloads.CliN256, 8)(pq, 2, tmp_path)
    workload.setup()
    real_main = pq.cli.main
    _busy, outcomes = workload.unit(0)
    assert [o.status for o in outcomes] == ["ok", "ok", "ok"]

    def tamper(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = real_main(argv)
        if not buf.getvalue():
            return rc
        doc = json.loads(buf.getvalue())
        if argv[0] == "check":
            doc["l_exists"] = False
        else:
            doc["matrix"]["data"][0][0] += 1e-3
        print(json.dumps(doc))
        return rc

    monkeypatch.setattr(pq.cli, "main", tamper)
    _busy, outcomes = workload.unit(0)
    assert [o.status for o in outcomes[:2]] == ["wrong", "wrong"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_held_out_seed_runs_clean(name):
    report = run.run(name, HELD_OUT_SEED, seconds=2.0, trace=False)
    result = report["result"]
    assert result["correct"], report["failures"]
    assert set(result["metrics"]) == {metric for metric, _unit in run.END_TO_END}
    if name == "routes-n64":
        assert set(report["failures"]) <= KNOWN_ROUTE_FAILURES
        assert result["failed"] == 2 * report["units"] * 2
    elif name == "fuzz-d8":
        assert all(key.startswith(KNOWN_FUZZ_FAILURE) for key in report["failures"])
    else:
        assert result["failed"] == 0, report["failures"]


def test_untraced_operations_repeat_exactly():
    """A run is a fixed number of units, so a seed gives the same operations
    and the same failures however fast the machine runs."""
    def outcome(report):
        return report["units"], report["attempted"], report["failed"], report["failures"]

    first = run.run("fuzz-d8", 3, seconds=1.0, trace=False)
    second = run.run("fuzz-d8", 3, seconds=1.0, trace=False)
    assert outcome(first) == outcome(second)
    assert first["units"] == round(1.0 / workloads.FuzzD8.unit_seconds) == 7
    assert first["pace"]["samples"] >= first["units"]


def test_pace_scales_by_the_nearest_kernel_times():
    kernel = pace.Kernel(0.5, [])
    tracker = pace.Pace(kernel)
    tracker.times = [float(t) for t in range(10)]
    tracker.seconds = [0.5] * 5 + [1.0] * 5  # the machine halves its speed at t = 5
    assert tracker.scale(1.0) == 1.0
    assert tracker.scale(9.0) == 0.5
    assert tracker.scale(4.6) == pytest.approx(0.5 / 0.75)  # two slow and two fast neighbours


@pytest.mark.parametrize("name", ["routes-n64", "fuzz-d8"])
def test_traced_counts_repeat_exactly(name):
    def counts(report):
        return {key: value["value"] for key, value in report["result"]["metrics"].items()
                if not key.endswith("self_ms") and not key.startswith("trace.")}

    first = run.run(name, 3, seconds=1.0, trace=True)
    second = run.run(name, 3, seconds=1.0, trace=True)
    assert counts(first) == counts(second)
    names = {metric for metric, _unit, _better in tracing.per_layer_metrics()}
    assert set(first["result"]["metrics"]) == names
    if name == "routes-n64":
        metrics = counts(first)
        assert metrics["prescribed.diagnose.svd_per_call"] == 87
        assert metrics["prescribed.diagnose.lstsq_per_call"] == 6
        assert metrics["prescribed.diagnose.solve_per_call"] == 3
        assert metrics["prescribed.outer_inverse.limit.fail"] == first["units"] * 2


def test_tracer_restores_every_function(pq):
    pkg = run.import_package(run.ROOT)[0]
    before = {(m, k): v for m in (pq.prescribed, pq.verify, pq.cli, np.linalg)
              for k, v in vars(m).items() if callable(v)}
    tracer = tracing.Tracer()
    tracer.install(pkg)
    assert pq.prescribed.diagnose is not before[(pq.prescribed, "diagnose")]
    assert pq.verify.diagnose is pq.prescribed.diagnose
    tracer.restore()
    after = {(m, k): v for m in (pq.prescribed, pq.verify, pq.cli, np.linalg)
             for k, v in vars(m).items() if callable(v)}
    assert after == before


def test_summary_tail_rule():
    many = run.summarize([i / 1e3 for i in range(1, 101)])
    assert (many["n"], many["beyond"], many["tail_pct"]) == (100, 10, 90.0)
    assert many["tail"] == pytest.approx(90.0)
    large = run.summarize([i / 1e3 for i in range(1, 1001)])
    assert (large["beyond"], large["tail_pct"]) == (50, 95.0)
    assert large["tail"] == pytest.approx(950.0)
    some = run.summarize([i / 1e3 for i in range(1, 33)])
    assert (some["beyond"], some["tail_pct"]) == (10, 68.75)
    few = run.summarize([i / 1e3 for i in range(1, 8)])
    assert (few["beyond"], few["tail_pct"], few["tail"]) == (0, 100.0, pytest.approx(7.0))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz-d8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
