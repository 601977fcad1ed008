"""Median and quartiles of perfbench end-to-end metrics, per commit.

Reads the report JSONs that ``perfbench/run.py`` writes to
``.perfbench_out/`` (copy each one away before the next run of the same
workload, seed and trace level overwrites it), groups them by
``environment.git_commit``, and writes one JSON file::

    {"commits": {<commit>: {"environment": {...}, "seeds": {<workload>: [...]},
                            "counts": {<workload>: {<metric>: {<seed>: ...}}}}},
     "workloads": {<workload>: {<metric>: {"unit": ...,
                                            <commit>: {"n", "median", "q1", "q3",
                                                       "by_seed"}}}}}

``--trace 0`` reports give the end-to-end metrics under ``workloads``.
``--trace 1`` reports give only their deterministic decomposition counts,
the ``linalg.*.calls`` values and ``prescribed.diagnose.*_per_call``,
under the commit's ``counts`` (present when it has a traced report);
their timings are the traced run's and are left out.  Reports at any
other trace level are refused.  ``environment`` is the report's, without
the seed and the commit; a commit whose reports disagree on it is
refused.  ``by_seed`` keeps every run's value, so pairs of runs on one
seed can be compared.  Commits keep the order in which their first
report is named.

    python3 tools/bench_trajectory.py --out BENCH.json parent/*.json change/*.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def _is_count(metric: str) -> bool:
    """Whether a traced metric is one of the deterministic decomposition counts."""
    return ((metric.startswith("linalg.") and metric.endswith(".calls"))
            or (metric.startswith("prescribed.diagnose.") and metric.endswith("_per_call")))


def trajectory(reports: list[dict]) -> dict:
    commits: dict[str, dict] = {}
    runs: dict[str, dict[str, dict[str, dict]]] = {}  # workload -> metric -> commit -> seed
    units: dict[tuple[str, str], str] = {}
    for report in reports:
        env = dict(report["environment"])
        commit, seed = env.pop("git_commit"), env.pop("seed")
        entry = commits.setdefault(commit, {"environment": env, "seeds": {}})
        if entry["environment"] != env:
            raise ValueError(f"reports of commit {commit} differ in their environment")
        workload, metrics = report["workload"], report["result"]["metrics"]
        if report["trace"] == 1:
            counts = entry.setdefault("counts", {}).setdefault(workload, {})
            if any(str(seed) in by_seed for by_seed in counts.values()):
                raise ValueError(f"two traced {workload} reports of commit {commit} at seed {seed}")
            for metric in sorted(filter(_is_count, metrics)):
                counts.setdefault(metric, {})[str(seed)] = metrics[metric]["value"]
            continue
        entry["seeds"].setdefault(workload, []).append(seed)
        for metric, value in metrics.items():
            units[workload, metric] = value["unit"]
            by_seed = runs.setdefault(workload, {}).setdefault(metric, {}).setdefault(commit, {})
            if str(seed) in by_seed:
                raise ValueError(f"two {workload} reports of commit {commit} at seed {seed}")
            by_seed[str(seed)] = value["value"]
    workloads = {
        workload: {
            metric: {"unit": units[workload, metric],
                     **{commit: {**_quartiles(list(by_seed.values())), "by_seed": by_seed}
                        for commit, by_seed in per_commit.items()}}
            for metric, per_commit in sorted(metrics.items())
        }
        for workload, metrics in sorted(runs.items())
    }
    return {"commits": commits, "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reports", nargs="+", type=Path, help="perfbench report JSON files")
    parser.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    args = parser.parse_args(argv)
    reports = []
    for path in args.reports:
        report = json.loads(path.read_text(encoding="utf-8"))
        if report.get("trace") not in (0, 1):
            parser.error(f"{path}: neither a --trace 0 nor a --trace 1 report")
        reports.append(report)
    try:
        doc = trajectory(reports)
    except ValueError as exc:
        print(f"bench_trajectory: {exc}", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
