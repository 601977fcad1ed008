"""pqinv benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli-n256 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory and nowhere else.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  End-to-end timings are given at the reference
pace of :mod:`pace`; the report keeps them as measured too.  The line
before it carries the full report (environment, sample counts, the tail
percentile used, failures), which is also written to ``.perfbench_out/``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from pace import Pace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 5
TAIL_PCT = 95  # the tail percentile, when enough samples lie beyond it
TAIL_BEYOND = 10  # samples a tail must have beyond it

END_TO_END = (
    ("solved_per_s", "1/s"),
    ("correct_ratio", "ratio"),
    ("check_ms.p50", "ms"),
    ("check_ms.tail", "ms"),
    ("compute_ms.p50", "ms"),
    ("compute_ms.tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


class SourceMissing(RuntimeError):
    pass


def import_package(root: Path):
    """Import pqinv from ``root/src``, refusing any other copy."""
    src = root / "src"
    if not (src / "pqinv" / "__init__.py").is_file():
        raise SourceMissing(f"no pqinv sources under {src.name}/ in the checkout")
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"pqinv.{name}")
               for name in ("cli", "errors", "prescribed", "verify")}
    pkg = importlib.import_module("pqinv")
    if Path(pkg.__file__).resolve().parent != (src / "pqinv").resolve():
        raise SourceMissing("pqinv was imported from outside the checkout")
    return pkg, argparse.Namespace(**modules)


def summarize(samples: list[float]) -> dict:
    """Median and tail in ms.

    The tail is the TAIL_PCT percentile (nearest rank) when at least
    TAIL_BEYOND samples lie beyond it.  With fewer samples it is the
    highest percentile that has TAIL_BEYOND beyond it, or the maximum when
    that percentile would fall below the median.  Higher percentiles move
    by a third between runs of one seed on a shared machine."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return {"n": 0}
    rank = -(-TAIL_PCT * n // 100)
    if n - rank < TAIL_BEYOND:
        rank = n - TAIL_BEYOND if 2 * (n - TAIL_BEYOND) >= n else n
    return {
        "n": n,
        "p50": 1e3 * statistics.median(ordered),
        "tail": 1e3 * ordered[rank - 1],
        "tail_pct": 100.0 * rank / n,
        "beyond": n - rank,
    }


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path, seed: int) -> dict:
    """What the figures depend on; read only, no setting is changed."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy without the dicts mode
        blas = {"name": "unknown", "version": "unknown"}
    threads = {var: os.environ.get(var) for var in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": threads,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "git_commit": git_commit(root),
    }


def measure(workload, count: int):
    """Run ``count`` units; the oracle's time is not counted.  Returns the
    outcomes and each unit's (midpoint, program seconds, correct operations)."""
    outcomes, units = [], []
    for i in range(count):
        if workload.tracer is not None:
            workload.tracer.op_id = i  # the spans of one unit share an id
        start = time.perf_counter()
        spent, got = workload.unit(i)
        outcomes += got
        units.append((0.5 * (start + time.perf_counter()), spent, sum(o.status == "ok" for o in got)))
    return outcomes, units


def solved_per_s(units, scale=lambda at: 1.0) -> float:
    """Correct operations per second of program time, over the whole run,
    each unit's time scaled by ``scale`` at its midpoint.

    A ratio of totals, not a median of per-unit rates: on a shared machine
    whose speed alternates between two levels every few seconds, a median
    of short units jumps between the levels, while a total moves in
    proportion to the time spent at each."""
    return sum(ok for *_, ok in units) / sum(spent * scale(at) for at, spent, _ in units)


def tally(outcomes) -> dict:
    failures: dict[str, int] = {}
    for o in outcomes:
        if o.status != "ok":
            key = f"{o.status}: {o.label}: {o.detail.splitlines()[0] if o.detail else ''}"[:240]
            failures[key] = failures.get(key, 0) + 1
    return {
        "attempted": len(outcomes),
        "ok": sum(o.status == "ok" for o in outcomes),
        "failed": sum(o.status != "ok" for o in outcomes),
        "wrong": sum(o.status == "wrong" for o in outcomes),
        "failures": failures,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, root: Path = ROOT) -> dict:
    pkg, pq = import_package(root)
    workload = WORKLOADS[workload_name](pq, seed, root / ".perfbench_work" / workload_name)
    pace = None if trace else Pace(workload.kernel)
    if pace is not None:
        pace.tick()

    setup_times = []  # (midpoint, seconds)
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        workload.setup()
        end = time.perf_counter()
        setup_times.append((0.5 * (start + end), end - start))
        if pace is not None:  # so every set-up has a kernel time on each side
            pace.tick()

    report = {
        "workload": workload_name,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(root, seed),
        "inputs": workload.inputs(),
        "setup_s_samples": [spent for _, spent in setup_times],
    }

    if not trace:
        workload.pace = pace
        with workload.probes() as probe_samples:
            outcomes, units = measure(workload, workload.run_units(seconds))
        workload.pace = None
        pace.tick()  # a sample after the last unit, as there is one before the first
        counts = tally(outcomes)
        latency = {kind: [(o.at, o.seconds) for o in outcomes if o.kind == kind]
                   for kind in ("check", "compute")}
        for kind, extra in probe_samples.items():
            latency[kind] += extra
        paced, measured = {}, {}
        for scale, values in ((pace.scale, paced), (lambda at: 1.0, measured)):
            values.update({
                "solved_per_s": solved_per_s(units, scale),
                "correct_ratio": counts["ok"] / counts["attempted"],
                "setup_s": statistics.median(spent * scale(at) for at, spent in setup_times),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            })
            for kind, samples in latency.items():
                summary = summarize([spent * scale(at) for at, spent in samples])
                if summary["n"]:
                    values[f"{kind}_ms.p50"] = summary["p50"]
                    values[f"{kind}_ms.tail"] = summary["tail"]
                    report.setdefault("samples", {})[f"{kind}_ms"] = {
                        key: summary[key] for key in ("n", "tail_pct", "beyond")}
        metrics = {name: {"value": paced[name], "unit": unit}
                   for name, unit in END_TO_END if name in paced}
        report.update(units=len(units), busy_s=sum(u[1] for u in units), measured=measured,
                      pace=pace.summary(), fail_ratio=counts["failed"] / counts["attempted"])
    else:
        count = workload.trace_units(seconds)
        plain, plain_units = measure(workload, count)
        tracer = tracing.Tracer()
        tracer.install(pkg)
        workload.tracer = tracer
        try:
            outcomes, units = measure(workload, count)
        finally:
            workload.tracer = None
            tracer.restore()
        counts = tally(outcomes)
        plain_counts = tally(plain)
        values = tracer.metrics()
        values["trace.solved_per_s_ratio"] = solved_per_s(units) / solved_per_s(plain_units)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _better in tracing.per_layer_metrics()}
        report.update(units=count, busy_s=sum(u[1] for u in units),
                      untraced_busy_s=sum(u[1] for u in plain_units),
                      spans_recorded=len(tracer.spans), spans_dropped=tracer.spans_dropped,
                      untraced_failures=plain_counts["failures"])
        counts["wrong"] += plain_counts["wrong"]
        report["_spans"] = tracer.span_records()

    report.update(attempted=counts["attempted"], failed=counts["failed"],
                  wrong=counts["wrong"], failures=counts["failures"])
    result = {
        "correct": counts["wrong"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }
    report["result"] = result
    return report


def write_report(report: dict, root: Path = ROOT) -> Path:
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{report['workload']}-seed{report['environment']['seed']}-trace{report['trace']}"
    spans = report.pop("_spans", None)
    if spans is not None:
        with open(out_dir / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    path = out_dir / f"{stem}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    write_report(report)
    print(json.dumps({key: value for key, value in report.items() if key != "result"}, sort_keys=True))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
