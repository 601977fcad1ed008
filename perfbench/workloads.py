"""The three benchmark workloads.

Each is a closed loop with one caller.  ``setup`` makes the inputs from the
seed (the program sees only those inputs) and warms up; ``unit(i)`` runs the
i-th unit of work, checks every answer with :mod:`oracle`, and returns the
seconds spent inside the program together with one ``Outcome`` per
operation.  Units are whole problems (on routes-n64 a default and a wide
one; on fuzz-d8 ten trials).  A run is a fixed number of units, set by
``--seconds`` and the unit's nominal cost, so a seed gives the same
operations, and the same failures, however fast the machine runs.
Between operations a workload times its pace kernel (:mod:`pace`).
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
from pace import Kernel

# Spectra passed explicitly, so a change of the generator's defaults
# cannot change the inputs.  "wide" is the integral route's hard case.
DEFAULT_SPECTRUM = {"re_lo": 0.4, "re_hi": 2.0, "im_amp": 1.0, "cond_cap": 9.0}
WIDE_SPECTRUM = {"re_lo": 0.1, "re_hi": 10.0, "im_amp": 1.0, "cond_cap": 9.0}
WIDE_ALPHA = (0.29, 0.31)
# Warm-up problems come from a fixed seed, so set-up costs the same for every seed.
WARM_SEED = 7
ROUTES = ("group", "inner", "limit", "integral")


@dataclass(frozen=True)
class Outcome:
    kind: str  # check | compute | strict | trial
    label: str
    at: float  # perf_counter when the operation started
    seconds: float
    status: str  # ok | failed (an error was raised) | wrong (a wrong answer)
    detail: str = ""


def _judged(kind, label, at, seconds, reason) -> Outcome:
    """An answer the oracle checked: ok when ``reason`` is None, else wrong."""
    if reason is None:
        return Outcome(kind, label, at, seconds, "ok")
    return Outcome(kind, label, at, seconds, "wrong", reason)


def _mid_rank(rng, n) -> int:
    """A rank in [n/4, 3n/4]: both subspace inverses exist, no strict one does."""
    return int(rng.integers(n // 4, 3 * n // 4 + 1))


class Workload:
    name = ""
    # nominal seconds per unit on the reference machine; sets how many
    # units a run measures, so that its operations repeat exactly
    unit_seconds = 1.0
    # this workload's kind of work at the reference pace (see pace.py)
    kernel = Kernel(1.0, [])

    def __init__(self, pq, seed: int, workdir: Path):
        self.pq = pq
        self.seed = seed
        self.workdir = workdir
        self.tracer = None
        self.pace = None  # a pace.Pace while an untraced run measures

    def tick(self):
        if self.pace is not None:
            self.pace.tick()

    def setup(self):
        raise NotImplementedError

    def unit(self, i: int) -> tuple[float, list[Outcome]]:
        raise NotImplementedError

    def inputs(self) -> dict:
        raise NotImplementedError

    def run_units(self, seconds: float) -> int:
        """Units an untraced run measures: about ``seconds`` of program time."""
        return max(1, round(seconds / self.unit_seconds))

    def trace_units(self, seconds: float) -> int:
        """Units a traced run replays: about half of ``seconds``, untraced."""
        return max(1, round(seconds / 2 / self.unit_seconds))

    @contextlib.contextmanager
    def probes(self):
        """Extra latency samples by kind, as (start, seconds) pairs; none
        unless a workload adds them."""
        yield {}


class CliN256(Workload):
    """`pqinv check`, `compute --kind 2l` and `compute --kind 2` on n = 256 files."""

    name = "cli-n256"
    n = 256
    pool = 4  # problem 3 of every 4 is a random triple
    unit_seconds = 5.0
    kernel = Kernel(0.060, [128, 128])

    def _problem(self, i, n, seed=None):
        rng = np.random.default_rng([self.seed if seed is None else seed, i])
        if i % 4 == 3:
            a, p, q = self.pq.verify.random_triple(rng, n)
            return {"kind": "random_triple", "a": a, "p": p, "q": q}
        r = _mid_rank(rng, n)
        inst = self.pq.verify.diagonalizable_instance(rng, n, r=r, **DEFAULT_SPECTRUM)
        return {"kind": "diagonalizable", "r": r, "b_ref": inst["b_ref"],
                "expected": oracle.diagonalizable_verdicts(n, r),
                **{key: inst[key] for key in "apq"}}

    def _write(self, prob, stem):
        prob["files"] = []
        for key in "apq":
            path = self.workdir / f"{stem}_{key}.json"
            self.pq.cli.write_matrix(str(path), prob[key])
            prob["files"].append(str(path))

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.problems = []
        for i in range(self.pool):
            prob = self._problem(i, self.n)
            self._write(prob, f"p{i}")
            self.problems.append(prob)
        warm = self._problem(0, 8, seed=WARM_SEED)
        self._write(warm, "warm")
        self._run(warm)

    def _call(self, argv):
        self.tick()
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.pq.cli.main(argv)
        except Exception as exc:  # an escaped error is a failed operation
            rc = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.counters["cli.stdout_bytes"] += len(out.getvalue().encode())
        return start, seconds, rc, out.getvalue(), err.getvalue()

    def _judge_compute(self, kind, label, call, exists, check_b) -> Outcome:
        at, seconds, rc, out, err = call
        # ``exists`` is None when `check` gave no usable verdict: a returned
        # b is still checked by its residuals, which determine it
        if rc == 0 and exists is not False:
            return _judged(kind, label, at, seconds, check_b(oracle.matrix_from_stdout(out)))
        if rc == 3 and exists is False:
            return Outcome(kind, label, at, seconds, "ok")
        if rc == 3 and exists is None:
            return Outcome(kind, label, at, seconds, "failed", "exit 3 with no verdict to check it against")
        if rc in (0, 3):
            state = "exists" if exists else "does not exist"
            return Outcome(kind, label, at, seconds, "wrong", f"exit {rc} but the inverse {state}")
        return Outcome(kind, label, at, seconds, "failed", f"exit {rc}: {err.strip()[:200]}")

    def _run(self, prob) -> tuple[float, list[Outcome]]:
        files = prob["files"]
        a, p, q = prob["a"], prob["p"], prob["q"]
        diag = prob["kind"] == "diagonalizable"

        check = self._call(["check", *files])
        at, seconds, rc, out, err = check
        report = None
        if rc != 0:
            first = Outcome("check", "check", at, seconds, "failed", f"exit {rc}: {err.strip()[:200]}")
        else:
            report = json.loads(out)
            reason = (oracle.check_verdicts(report, prob["expected"]) if diag
                      else oracle.check_consistent(report))
            first = _judged("check", "check", at, seconds, reason)
            if reason is not None:
                report = None

        if diag:
            l_exists, strict_exists = True, False
            check_l = lambda b: oracle.check_inverse(b, prob["b_ref"])  # noqa: E731
        else:
            l_exists = None if report is None else report["l_exists"]
            strict_exists = None if report is None else report["strict_exists"]
            check_l = lambda b: oracle.check_outer_residuals(a, p, q, b)  # noqa: E731

        def check_strict(b):
            return oracle.check_strict(a, p, q, b) or check_l(b)

        outer = self._call(["compute", *files, "--kind", "2l"])
        strict = self._call(["compute", *files, "--kind", "2"])
        outcomes = [
            first,
            self._judge_compute("compute", "compute --kind 2l", outer, l_exists, check_l),
            # on most problems the strict kind exits 3 before it writes
            # anything, so it is left out of the write-heavy compute_ms
            self._judge_compute("strict", "compute --kind 2", strict, strict_exists, check_strict),
        ]
        return check[1] + outer[1] + strict[1], outcomes

    def unit(self, i):
        return self._run(self.problems[i % self.pool])

    def run_units(self, seconds):
        """Whole cycles of the pool, so that every run has the same mix."""
        return self.pool * max(1, round(super().run_units(seconds) / self.pool))

    def trace_units(self, seconds):
        """Whole cycles of the pool, so that the random triple is traced too."""
        return self.pool * max(1, round(super().trace_units(seconds) / self.pool))

    def inputs(self):
        return {
            "n": self.n,
            "problems": [{"kind": prob["kind"], **({"r": prob["r"]} if "r" in prob else {})}
                         for prob in self.problems],
            "spectrum": DEFAULT_SPECTRUM,
            "file_bytes": sum(Path(f).stat().st_size for prob in self.problems for f in prob["files"]),
        }


class RoutesN64(Workload):
    """`diagnose`, then the four routes and the two formulas, at n = 64."""

    name = "routes-n64"
    n = 64
    pool = 32  # even problems use the default spectrum, odd ones the wide one
    unit_seconds = 1.9  # a unit is one default and one wide problem
    kernel = Kernel(0.0225, [64] * 3)

    def _problem(self, i, n, seed=None):
        rng = np.random.default_rng([self.seed if seed is None else seed, i])
        r = _mid_rank(rng, n)
        if i % 2 == 0:
            inst = self.pq.verify.diagonalizable_instance(rng, n, r=r, **DEFAULT_SPECTRUM)
        else:
            inst = self._wide_in_band(rng, n, r)
        prob = self.pq.prescribed.PqProblem(inst["a"], inst["p"], inst["q"])
        return {"prob": prob, "w": inst["w"], "b_ref": inst["b_ref"], "r": r,
                "alpha": inst["alpha"], "expected": oracle.diagonalizable_verdicts(n, r)}

    def _wide_in_band(self, rng, n, r):
        """A wide-spectrum instance whose decay rate alpha lies in WIDE_ALPHA.

        The integral route's cost grows like 1/alpha, so one band of alpha
        keeps each run's mix of costs the same from seed to seed.  The
        generator draws the real parts of the spectrum first and alpha is
        their minimum, so a candidate is screened on that draw alone and
        built only when it is in band; set-up then costs one build per
        problem, whatever the seed.  The built instance is checked again.
        """
        while True:
            state = rng.bit_generator.state
            alpha = rng.uniform(WIDE_SPECTRUM["re_lo"], WIDE_SPECTRUM["re_hi"], size=r).min()
            if not WIDE_ALPHA[0] <= alpha <= WIDE_ALPHA[1]:
                continue
            rng.bit_generator.state = state
            inst = self.pq.verify.diagonalizable_instance(rng, n, r=r, **WIDE_SPECTRUM)
            if WIDE_ALPHA[0] <= inst["alpha"] <= WIDE_ALPHA[1]:
                return inst

    def setup(self):
        self.problems = [self._problem(i, self.n) for i in range(self.pool)]
        self._run(self._problem(0, 8, seed=WARM_SEED))

    def _run(self, item) -> tuple[float, list[Outcome]]:
        prescribed = self.pq.prescribed
        prob, w = item["prob"], item["w"]
        outcomes = []

        self.tick()
        start = time.perf_counter()
        try:
            report = prescribed.diagnose(prob)
        except Exception as exc:  # an escaped error is a failed operation
            seconds = time.perf_counter() - start
            outcomes.append(Outcome("check", "diagnose", start, seconds, "failed", type(exc).__name__))
        else:
            seconds = time.perf_counter() - start
            reason = oracle.check_verdicts(report.to_json_dict(), item["expected"])
            outcomes.append(_judged("check", "diagnose", start, seconds, reason))
        busy = seconds

        calls = [(f"outer_inverse[{route}]", lambda route=route: prescribed.outer_inverse(prob, route=route).b)
                 for route in ROUTES]
        calls += [("limit_formula", lambda: prescribed.limit_formula(prob.a, w)[0]),
                  ("integral_formula", lambda: prescribed.integral_formula(prob.a, w)[0])]
        for k, (label, call) in enumerate(calls):
            if k == 3:  # halfway: before the integral route and the two formulas
                self.tick()
            start = time.perf_counter()
            try:
                b = call()
            except self.pq.errors.NonexistentInverseError as exc:
                seconds = time.perf_counter() - start
                outcomes.append(Outcome("compute", label, start, seconds, "wrong",
                                        f"claims nonexistence: {exc.reason}"))
            except Exception as exc:  # an escaped error is a failed operation
                seconds = time.perf_counter() - start
                outcomes.append(Outcome("compute", label, start, seconds, "failed", type(exc).__name__))
            else:
                seconds = time.perf_counter() - start
                outcomes.append(_judged("compute", label, start, seconds,
                                        oracle.check_inverse(b, item["b_ref"])))
            busy += seconds
        return busy, outcomes

    def unit(self, i):
        busy, outcomes = 0.0, []
        for k in (2 * i, 2 * i + 1):
            spent, got = self._run(self.problems[k % self.pool])
            busy += spent
            outcomes += got
        return busy, outcomes

    def inputs(self):
        return {
            "n": self.n,
            "spectra": {"even problems": DEFAULT_SPECTRUM,
                        "odd problems": {**WIDE_SPECTRUM, "alpha_band": WIDE_ALPHA}},
            "ranks": [item["r"] for item in self.problems],
            "alpha": [item["alpha"] for item in self.problems],
        }


class FuzzD8(Workload):
    """One call of `verify.fuzz(seed_k, 10, max_dim=8)` per unit, ten trials."""

    name = "fuzz-d8"
    trials = 10  # one in ten runs the integral route, as in a long fuzz run
    max_dim = 8
    unit_seconds = 0.15
    kernel = Kernel(0.0037, list(range(1, 9)) * 3)

    def _seed(self, i) -> int:
        return self.seed * 1_000_000 + i

    def setup(self):
        self.pq.verify.fuzz(WARM_SEED, 3 * self.trials, self.max_dim)

    def unit(self, i):
        self.tick()
        start = time.perf_counter()
        report = self.pq.verify.fuzz(self._seed(i), self.trials, self.max_dim)
        busy = time.perf_counter() - start
        outcomes = []
        for case in report.cases:
            if case.status in ("pass", "fragile"):
                outcomes.append(Outcome("trial", "fuzz trial", start, case.elapsed, "ok"))
            else:
                # the battery is this workload's oracle: a trial it fails is a
                # failed operation whose defect the program itself reported
                outcomes.append(Outcome("trial", "fuzz trial", start, case.elapsed, "failed",
                                        case.detail[:200]))
        return busy, outcomes

    @contextlib.contextmanager
    def probes(self):
        """Time the battery's own diagnose and outer_inverse calls, as
        (start, seconds) pairs."""
        verify = self.pq.verify
        samples = {"check": [], "compute": []}
        originals = {"diagnose": verify.diagnose, "outer_inverse": verify.outer_inverse}

        def timed(fn, bucket):
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    bucket.append((start, time.perf_counter() - start))
            return wrapper

        verify.diagnose = timed(originals["diagnose"], samples["check"])
        verify.outer_inverse = timed(originals["outer_inverse"], samples["compute"])
        try:
            yield samples
        finally:
            verify.diagnose = originals["diagnose"]
            verify.outer_inverse = originals["outer_inverse"]

    def inputs(self):
        return {"max_dim": self.max_dim, "trials_per_call": self.trials,
                "fuzz_seeds": f"{self.seed} * 1000000 + unit index"}


WORKLOADS = {cls.name: cls for cls in (CliN256, FuzzD8, RoutesN64)}
