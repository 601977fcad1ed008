"""Fingerprints of pqinv's user-visible output, for byte-stability checks.

Prints one line per output: a label, the exit code and the sha256 of the
output.  Each command's lines are followed by its svd, solve, eigvals and qr
LAPACK calls, the four kinds ``pqinv.densela.record`` counts, so that a diff
shows decomposition-count changes next to output changes.  Covered:

* ``pqinv verify`` and ``pqinv fuzz --seed 42 --trials 500 --dim 8``,
  their JSON with every ``elapsed`` dropped, and their per-case statuses
  alone;
* the stdout of ``check`` and ``compute --kind 2l|2|12l|12`` on the
  seed-1 n = 64 ``diagonalizable_instance`` and the seed-1 n = 64
  ``random_triple``;
* the stdout of ``compute --kind mp|group|drazin`` on the ``a`` of that
  random triple, and the matrix file that ``compute --kind 2l --out``
  writes for the diagonalizable instance;
* the stdout of ``compute --kind drazin`` on the seed-0 n = 16
  ``varied_index_matrix`` with an 8-dimensional core (from this
  checkout's ``tests/matrix_generators.py``), of index 3, on which the
  Drazin inverse factors a, three blocks of each staircase and the core;
* the stdout of ``represent --method limit|integral`` on an 8 x 8
  diagonal core, a = diag(1, 2, 0.5, 1.5, 0, 0, 0, 0) with
  p = diag(1, 1, 1, 1, 0, 0, 0, 0) and q = 1 - p, and on that core of
  ``represent --method integral --horizon 200``, whose sweep skips h/8,
  and ``represent --method limit --lambda-min 1e-10``, which appends its
  shift to the default schedule;
* the stdout of ``compute --kind 2l --route inner|limit|integral`` on the
  diagonalizable instance and on that diagonal core;
* the outcome and the sha256 of the matrix that ``group_formula(a, w)``,
  ``inner_formula(a, w)``, ``limit_formula(a, w)`` and
  ``integral_formula(a, w)`` return, called in-process on the n = 64
  diagonalizable instance with its own w, each followed by its counts;
* on one line, the counts of ``diagnose`` and ``outer_inverse`` on each of
  the four routes, called in turn in-process on one ``PqProblem`` of that
  instance, so that a diff shows how often one problem factors p and q;
* the tracemalloc peak (MiB) of ``diagnose``, of the four compute
  functions, of ``matrix_with_range_kernel(p, q)``, of
  ``represent(prob, "limit")`` and of ``group_formula(a, w)``,
  ``inner_formula(a, w)`` and ``integral_formula(a, w)`` with the
  instance's own w, called in-process on the seed-1 n = 256
  ``diagonalizable_instance`` with r = 128, each on a fresh problem, with
  its outcome: ``ok`` or the exception it raised; then that of
  ``write_matrix`` on the instance's a, that of ``read_matrix`` on the
  file it wrote, and that of the report ``compute --kind 2l`` prints on
  the instance's files, from the return of ``outer_inverse`` on (the rise
  above what is held then, stdout on ``os.devnull``);
* the sha256 of the bytes of ``densela.matrix_exp(a)`` and of both blocks
  of ``densela.exp_integral(a, t)`` for t = 0 and 1, on a seeded complex
  ``a`` of each size in EXP_DIMS scaled to each 1-norm in EXP_NORMS: the
  zero matrix, and 1-norms below and above the [13/13] Pade threshold
  theta_13 = 5.37, where the squarings begin;
* for each oblique family, n in OBLIQUE_DIMS by t in OBLIQUE_T, the count of
  the OBLIQUE_SEEDS ``diagnose`` reports on ``oblique_instance(rng, n, t)``
  (from this checkout's ``tests/matrix_generators.py``, seeds 0 to 99) that
  hold a false subspace-outer verdict, although the inverse exists on every
  one;
* on one line, for each t in CERTIFICATE_T, how many of the 2 x
  OBLIQUE_SEEDS idempotents p and q of ``oblique_instance(rng, n, t)`` at
  n = CERTIFICATE_N ``densela.idempotent_bases`` accepts and how many it
  leaves to the SVD, and, where ``densela.idempotent_kernel`` exists, for
  how many Ker(m) is taken without an SVD, then the same for the seed-0
  ``straddling_idempotent`` (both from this checkout's
  ``tests/matrix_generators.py``), whose singular values straddle the
  rank cutoff; a checkout with no ``idempotent_bases`` takes every basis
  from the SVD, and its line says so;
* on one line, for each n in STRADDLING_DIMS, ``diagnose``'s ``dim_ran_p``
  and ``fragile``, and the ``near`` of a ``densela.record`` block around
  it, where p is ``straddling_idempotent(default_rng([4, n]), n, n/2)``
  (from this checkout's ``tests/matrix_generators.py``) and a and q are
  those of ``diagonalizable_instance(default_rng([4, n]), n, r=n/2)``:
  below and above ``densela._SKETCH_MIN``, so that a diff shows whether
  p's rank is read off its trace or decided by the rank cutoff;
* on one line, for each kappa in GRADED_KAPPAS, how many of GRADED_SEEDS
  ``drazin_inverse`` calls raise NumericalError on
  ``graded_core_matrix(rng, n, kappa)`` (from this checkout's
  ``tests/matrix_generators.py``, seeds 0 to 99, n in GRADED_DIMS by seed),
  a core of dimension n/2 whose eigenvalue magnitudes spread over
  [1/kappa, 1], and how many of those each gate raised: the staircases'
  disagreement on the index and rank, the core solve, or the axioms, so
  that a diff shows which gate moved;
* on one line, the verdict and the ``near`` flag of
  ``meets_trivially(S, T)`` on the seed-0 ``planted_angle_pair`` (from this
  checkout's ``tests/matrix_generators.py``) for each of its
  PLANTED_ANGLE_EXPONENTS x, whose smallest angle has the sine
  rank_rtol * 10^x, so that a diff shows where the cutoff sits;
* on one line, the outcome of ``outer_inverse(prob, route="integral")``
  on a = s diag(1, 2, 0, 0) with p = diag(1, 1, 0, 0) and q = 1 - p, for
  each of SMALL_SCALES s: ``ok`` or the exception it raised, so that a
  diff shows on which decay rates the integral route runs;
* last, one line for each of POLAR_ROUTES, the limit and the integral
  route: how many of the ROUTE_SEEDS x ROUTE_RE_LO
  ``diagonalizable_instance(default_rng([s, n]), n, r=n/2, re_lo=...)``
  problems at each n in ROUTE_DIMS ``outer_inverse(prob, route=...)``
  returns a value for, and the power of ten at or above the worst distance
  of that value from the group value over the drift gate
  conv_tol * max(1, ||b||_F), which rounding on another build moves less
  than a digit would.

The first line is a header, ``# environment`` and a JSON object: the
Python, numpy and BLAS versions, the BLAS thread variables, the machine
and the CPU count.  Run it on two checkouts and diff the output::

    python3 tools/stability.py > after.txt
    python3 tools/stability.py --src ../parent/src > before.txt
    diff before.txt after.txt

``tools/stability.txt`` is this output, checked in; a change that moves a
line regenerates it (``python3 tools/stability.py > tools/stability.txt``),
so that its git diff lists the lines moved.  ``--check`` diffs a fresh run
against it and exits 1 on any difference: every count, peak, verdict,
outcome and refusal line is compared on any machine, and the sha256 of a
value only when the header matches, since another numpy/LAPACK build or
thread count moves the values by rounding; on another environment each
sha256 is compared as a placeholder, so that the rest of its line still is.

``--src`` names the source directory to import pqinv from; it defaults
to this checkout's ``src``.  A checkout whose densela has no ``record``
is fingerprinted by its own ``tools/stability.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import platform
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

N = 64
COMPUTE_KINDS = ("2l", "2", "12l", "12")
CLASSICAL_KINDS = ("mp", "group", "drazin")
REPRESENT_ARGS = (("--method", "limit"), ("--method", "integral"),
                  ("--method", "integral", "--horizon", "200"),
                  ("--method", "limit", "--lambda-min", "1e-10"))
ROUTES = ("inner", "limit", "integral")
FORMULAS = ("group_formula", "inner_formula", "limit_formula", "integral_formula")
COUNTED = ("svd", "solve", "eigvals", "qr")
PEAK_N = 256
PEAK_FUNCTIONS = ("diagnose", "outer_inverse", "outer_inverse_strict", "one_two_inverse",
                  "one_two_inverse_strict", "matrix_with_range_kernel", "represent",
                  "group_formula", "inner_formula", "integral_formula")
# the arguments, from the problem and its instance, of a PEAK_FUNCTIONS
# entry that takes more than the problem
PEAK_ARGS = {"matrix_with_range_kernel": lambda prob, inst: (prob.p, prob.q),
             "represent": lambda prob, inst: (prob, "limit"),
             **{route: lambda prob, inst: (prob.a, inst["w"])
                for route in ("group_formula", "inner_formula", "integral_formula")}}
EXP_DIMS = (1, 2, 8, 64)
EXP_NORMS = (0.0, 1.0, 40.0)
EXP_TIMES = (0.0, 1.0)
# the varied_index_matrix (seed, n, core) whose Drazin inverse has index 3
DRAZIN_INDEX3 = (0, 16, 8)
OBLIQUE_DIMS = (8, 32)
OBLIQUE_T = (1e2, 1e4, 1e6)
OBLIQUE_SEEDS = 100
# the verdicts that hold on every instance whose subspace outer inverse exists
SUBSPACE_VERDICTS = ("ker_cap_ranp_trivial", "direct_sum", "cond5", "cond6", "l_exists")
PLANTED_SEED = 0
CERTIFICATE_N = 32
CERTIFICATE_T = (1.0, 1e3, 1e6)
STRADDLING_DIMS = (8, 40)
GRADED_KAPPAS = (1e2, 1e3, 1e4, 1e6, 1e8)
GRADED_DIMS = (8, 16, 32)
GRADED_SEEDS = 100
SMALL_SCALES = (1.0, 1e-6, 1e-8, 1e-9, 1e-12)
POLAR_ROUTES = ("limit", "integral")
ROUTE_DIMS = (4, 16, 64)
ROUTE_SEEDS = 4
ROUTE_RE_LO = (0.4, 1e-3)
RECORD = Path(__file__).with_name("stability.txt")
SHA256 = re.compile(r"\b[0-9a-f]{64}\b")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _run_counted(cli, argv: list[str]) -> tuple[int, str, dict[str, int]]:
    """:func:`_run` with a count of the COUNTED LAPACK calls it makes."""
    with importlib.import_module("pqinv.densela").record() as rec:
        code, stdout = _run(cli, argv)
    return code, stdout, {kind: rec.calls[kind] for kind in COUNTED}


def _without_elapsed(value):
    if isinstance(value, dict):
        return {k: _without_elapsed(v) for k, v in value.items() if k != "elapsed"}
    if isinstance(value, list):
        return [_without_elapsed(v) for v in value]
    return value


def _count_line(label: str, counts: dict[str, int]) -> str:
    return f"{label}  linalg  " + " ".join(f"{kind}={counts[kind]}" for kind in COUNTED)


def _suite_lines(cli, label: str, argv: list[str]) -> list[str]:
    code, stdout, counts = _run_counted(cli, argv)
    doc = _without_elapsed(json.loads(stdout))
    statuses = [(case["name"], case["status"]) for case in doc["cases"]]
    return [
        f"{label}  exit={code}  {_sha(json.dumps(doc, sort_keys=True))}",
        f"{label} statuses  {json.dumps(doc['summary'], sort_keys=True)}  "
        f"{_sha(json.dumps(statuses))}",
        _count_line(label, counts),
    ]


def _diagonalizable(verify) -> dict:
    return verify.diagonalizable_instance(np.random.default_rng(1), N)


def _problems(verify) -> dict[str, tuple]:
    inst = _diagonalizable(verify)
    return {
        f"diagonalizable-n{N}": (inst["a"], inst["p"], inst["q"]),
        f"random-triple-n{N}": verify.random_triple(np.random.default_rng(1), N),
    }


def _represent_core() -> tuple:
    a = np.diag([1.0, 2.0, 0.5, 1.5, 0.0, 0.0, 0.0, 0.0]).astype(complex)
    p = np.diag([1.0] * 4 + [0.0] * 4).astype(complex)
    return a, p, np.eye(8) - p


def _write_files(cli, tmp: str, name: str, matrices: tuple) -> list[str]:
    files = []
    for letter, m in zip("apq", matrices):
        path = Path(tmp) / f"{name}-{letter}.json"
        cli.write_matrix(str(path), m)
        files.append(str(path))
    return files


def _counted_lines(cli, label: str, argv: list[str]) -> list[str]:
    code, stdout, counts = _run_counted(cli, argv)
    return [f"{label}  exit={code}  {_sha(stdout)}", _count_line(label, counts)]


def _formula_lines(prescribed, verify, errors) -> list[str]:
    """Two lines per FORMULAS entry on the diagonalizable instance and its w:
    the outcome with the sha256 of the returned matrix, and the counts."""
    inst = _diagonalizable(verify)
    lines = []
    for name in FORMULAS:
        label = f"{name} diagonalizable-n{N}"
        with importlib.import_module("pqinv.densela").record() as rec:
            try:
                value = getattr(prescribed, name)(inst["a"], inst["w"])
                # the limit and integral formulas return the matrix with a diagnostic
                outcome = f"ok  {_array_sha(value[0] if isinstance(value, tuple) else value)}"
            except (errors.NonexistentInverseError, errors.NumericalError) as exc:
                outcome = type(exc).__name__
        lines += [f"{label}  outcome={outcome}", _count_line(label, rec.calls)]
    return lines


def _one_problem_line(prescribed, verify, errors) -> str:
    """The counts of ``diagnose`` and the four ``outer_inverse`` routes, run
    in turn on one problem of the diagonalizable instance."""
    inst = _diagonalizable(verify)
    prob = prescribed.PqProblem(inst["a"], inst["p"], inst["q"])
    with importlib.import_module("pqinv.densela").record() as rec:
        prescribed.diagnose(prob)
        for route in ("group", *ROUTES):
            try:
                prescribed.outer_inverse(prob, route)
            except (errors.NonexistentInverseError, errors.NumericalError):
                pass
    return _count_line(f"diagnose and outer_inverse x4 one problem diagonalizable-n{N}",
                       rec.calls)


def _peak_lines(cli, prescribed, verify, errors) -> list[str]:
    """One line per PEAK_FUNCTIONS entry, labelled by its name and string
    arguments: its outcome and tracemalloc peak; then :func:`_cli_peak_lines`."""
    inst = verify.diagonalizable_instance(np.random.default_rng(1), PEAK_N, r=PEAK_N // 2)
    lines = []
    for name in PEAK_FUNCTIONS:
        prob = prescribed.PqProblem(inst["a"], inst["p"], inst["q"])
        args = PEAK_ARGS.get(name, lambda prob, inst: (prob,))(prob, inst)
        label = " ".join([name, *(arg for arg in args if isinstance(arg, str))])
        tracemalloc.start()
        try:
            getattr(prescribed, name)(*args)
            outcome = "ok"
        except (errors.NonexistentInverseError, errors.NumericalError) as exc:
            outcome = type(exc).__name__
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        lines.append(f"{label} diagonalizable-n{PEAK_N}  tracemalloc  outcome={outcome}  "
                     f"peak_mib={peak / 2**20:.2f}")
    return lines + _cli_peak_lines(cli, inst)


def _cli_peak_lines(cli, inst: dict) -> list[str]:
    """The tracemalloc peak of ``write_matrix`` on the instance's a, that of
    ``read_matrix`` on the file it wrote, and that of the report
    ``compute --kind 2l`` prints, from the return of the compute function
    on: its rise above what is held then, with stdout on os.devnull."""
    label = f"diagonalizable-n{PEAK_N}  tracemalloc"
    with tempfile.TemporaryDirectory() as tmp:
        files = _write_files(cli, tmp, f"diagonalizable-n{PEAK_N}",
                             tuple(inst[key] for key in "apq"))
        tracemalloc.start()
        try:
            cli.write_matrix(files[0], inst["a"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lines = [f"write_matrix a {label}  outcome=ok  peak_mib={peak / 2**20:.2f}"]
        tracemalloc.start()
        try:
            cli.read_matrix(files[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lines.append(f"read_matrix a {label}  outcome=ok  peak_mib={peak / 2**20:.2f}")
        compute, held = cli.outer_inverse, []

        def resetting(*args, **kwargs):
            result = compute(*args, **kwargs)
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return result

        cli.outer_inverse = resetting  # cli looks its compute functions up per call
        tracemalloc.start()
        try:
            with open(os.devnull, "w", encoding="utf-8") as sink, \
                    contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["compute", *files, "--kind", "2l"])
            peak = tracemalloc.get_traced_memory()[1] - held[0]
        finally:
            tracemalloc.stop()
            cli.outer_inverse = compute
    return lines + [f"compute --kind 2l report {label}  exit={code}  "
                    f"peak_mib={peak / 2**20:.2f}"]


def _array_sha(m: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(m, dtype=np.complex128).tobytes()).hexdigest()


def _exp_lines(densela) -> list[str]:
    """One line per EXP_DIMS x EXP_NORMS input for ``matrix_exp``, and one
    per input and EXP_TIMES entry for ``exp_integral``'s two blocks."""
    lines = []
    for n in EXP_DIMS:
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a /= np.linalg.norm(a, 1)
        for norm in EXP_NORMS:
            label = f"n={n} norm1={norm:g}"
            lines.append(f"matrix_exp {label}  {_array_sha(densela.matrix_exp(norm * a))}")
            for t in EXP_TIMES:
                e, f = densela.exp_integral(norm * a, t)
                lines.append(f"exp_integral {label} t={t:g}  {_array_sha(e)}  {_array_sha(f)}")
    return lines


def _generators():
    """This checkout's ``tests/matrix_generators.py``."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
    return importlib.import_module("matrix_generators")


def _oblique_lines(prescribed) -> list[str]:
    """One line per oblique family: how many of its reports hold a false
    subspace-outer verdict."""
    oblique_instance = _generators().oblique_instance
    lines = []
    for n in OBLIQUE_DIMS:
        for t in OBLIQUE_T:
            false = 0
            for seed in range(OBLIQUE_SEEDS):
                inst = oblique_instance(np.random.default_rng(seed), n, t)
                rep = prescribed.diagnose(prescribed.PqProblem(inst["a"], inst["p"], inst["q"]))
                false += not all(getattr(rep, name) for name in SUBSPACE_VERDICTS)
            lines.append(f"oblique n={n} t={t:g}  false_verdicts={false}/{OBLIQUE_SEEDS}")
    return lines


def _certificate_line(densela) -> str:
    """The sketches ``idempotent_bases`` accepts and refuses on the oblique
    idempotents at each of CERTIFICATE_T, and on the straddling idempotent."""
    label = f"sketch certificate n={CERTIFICATE_N}"
    if not hasattr(densela, "idempotent_bases"):
        return f"{label}  no idempotent_bases: every basis from the SVD"
    generators = _generators()
    kernel = getattr(densela, "idempotent_kernel", None)
    # a checkout whose idempotent_bases takes the rank is handed the trace's
    takes_rank = "r" in inspect.signature(densela.idempotent_bases).parameters

    def cell(name: str, matrices: list) -> str:
        accepted = kernels = 0
        for m in matrices:
            rank = (round(complex(np.trace(m)).real),) if takes_rank else ()
            if (bases := densela.idempotent_bases(m, *rank)) is not None:
                accepted += 1
                kernels += kernel is not None and kernel(m, bases[-1]) is not None
        out = f"{name}:accept={accepted},fallback={len(matrices) - accepted}"
        return out if kernel is None else f"{out},kernel={kernels}"

    cells = []
    for t in CERTIFICATE_T:
        instances = [generators.oblique_instance(np.random.default_rng(seed), CERTIFICATE_N, t)
                     for seed in range(OBLIQUE_SEEDS)]
        cells.append(cell(f"t={t:g}", [inst[key] for inst in instances for key in "pq"]))
    straddling = generators.straddling_idempotent(np.random.default_rng(0), CERTIFICATE_N,
                                                  CERTIFICATE_N // 2)
    return f"{label}  " + " ".join(cells + [cell("straddling", [straddling])])


def _straddling_line(prescribed, verify, densela) -> str:
    """diagnose's dim Ran(p), fragile and near where p straddles the rank
    cutoff, at each of STRADDLING_DIMS."""
    cells = []
    for n in STRADDLING_DIMS:
        p = _generators().straddling_idempotent(np.random.default_rng([4, n]), n, n // 2)
        inst = verify.diagonalizable_instance(np.random.default_rng([4, n]), n, r=n // 2)
        with densela.record() as rec:
            rep = prescribed.diagnose(prescribed.PqProblem(inst["a"], p, inst["q"]))
        cells.append(f"n={n}:dim_ran_p={rep.dim_ran_p},fragile={int(rep.fragile)},"
                     f"near={int(rec.near)}")
    return "straddling p diagnose r=n/2  " + " ".join(cells)


def _graded_core_line(ginv, errors) -> str:
    """The Drazin refusals out of GRADED_SEEDS at each of GRADED_KAPPAS, and
    how many of them each gate raised, told by its message's prefix: the
    two staircases' disagreement, the core solve, and the axioms and
    certificate that validate the value."""
    prefixes_of = {"staircase": ("the Drazin staircases",), "core": ("the Drazin core",),
                   "axioms": ("Drazin axiom", "Drazin certificate", "spectral idempotent")}
    graded_core_matrix = _generators().graded_core_matrix
    cells = []
    for kappa in GRADED_KAPPAS:
        refused, gates = 0, dict.fromkeys(prefixes_of, 0)
        for seed in range(GRADED_SEEDS):
            n = GRADED_DIMS[seed % len(GRADED_DIMS)]
            a, _ = graded_core_matrix(np.random.default_rng(seed), n, kappa)
            try:
                ginv.drazin_inverse(a)
            except errors.NumericalError as exc:
                refused += 1
                for gate, prefixes in prefixes_of.items():
                    gates[gate] += str(exc).startswith(prefixes)
        counts = ",".join(f"{gate}={count}" for gate, count in gates.items())
        cells.append(f"kappa={kappa:g}:{refused}/{GRADED_SEEDS}({counts})")
    return "graded core drazin refusals  " + " ".join(cells)


def _planted_angle_line(densela, subspace) -> str:
    """The verdict and ``near`` flag of S ∩ T = {0} on each planted angle;
    the subspaces are built by ``range_of``, outside the recorded block."""
    generators = _generators()
    cells = []
    for x in generators.PLANTED_ANGLE_EXPONENTS:
        spans = generators.planted_angle_pair(np.random.default_rng(PLANTED_SEED),
                                              densela.DEFAULT_TOL.rank_rtol * 10.0 ** x)
        s, t = (subspace.range_of(m) for m in spans)
        with densela.record() as rec:
            trivial = subspace.meets_trivially(s, t)
        cells.append(f"x={x:g}:trivial={int(trivial)},near={int(rec.near)}")
    return "planted angle sin=rank_rtol*10^x  " + " ".join(cells)


def _small_scale_line(prescribed, errors) -> str:
    """The integral route's outcome on s diag(1, 2, 0, 0) for each of
    SMALL_SCALES, whose nonzero spectrum is {s, 2 s}."""
    p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    cells = []
    for s in SMALL_SCALES:
        prob = prescribed.PqProblem(s * np.diag([1.0, 2.0, 0.0, 0.0]), p, np.eye(4) - p)
        try:
            prescribed.outer_inverse(prob, route="integral")
            outcome = "ok"
        except (errors.NonexistentInverseError, errors.NumericalError) as exc:
            outcome = type(exc).__name__
        cells.append(f"s={s:g}:{outcome}")
    return "integral route a=s*diag(1,2,0,0)  " + " ".join(cells)


def _route_lines(prescribed, verify, errors) -> list[str]:
    """One line for each of POLAR_ROUTES: its passes over the ROUTE_DIMS
    problems, and its worst distance from the group value over the drift
    gate."""
    passed, worst, total = dict.fromkeys(POLAR_ROUTES, 0), dict.fromkeys(POLAR_ROUTES, 0.0), 0
    for n in ROUTE_DIMS:
        for seed in range(ROUTE_SEEDS):
            for re_lo in ROUTE_RE_LO:
                inst = verify.diagonalizable_instance(np.random.default_rng([seed, n]), n,
                                                      r=n // 2, re_lo=re_lo)
                prob = prescribed.PqProblem(inst["a"], inst["p"], inst["q"])
                total += 1
                for route in POLAR_ROUTES:
                    try:
                        b = prescribed.outer_inverse(prob, route=route).b
                    except (errors.NonexistentInverseError, errors.NumericalError):
                        continue
                    b_group = prescribed.outer_inverse(prob).b
                    gate = prob.tol.conv_tol * max(1.0, np.linalg.norm(b_group))
                    passed[route] += 1
                    worst[route] = max(worst[route], float(np.linalg.norm(b - b_group)) / gate)
    lines = []
    for route in POLAR_ROUTES:
        decade = f"<=1e{math.ceil(math.log10(worst[route]))}" if worst[route] else "=0"
        lines.append(f"{route} route diagonalizable n={','.join(map(str, ROUTE_DIMS))}  "
                     f"passed={passed[route]}/{total}  worst_error/gate{decade}")
    return lines


def fingerprints() -> list[str]:
    cli = importlib.import_module("pqinv.cli")
    verify = importlib.import_module("pqinv.verify")
    lines = _suite_lines(cli, "verify", ["verify"])
    lines += _suite_lines(cli, "fuzz --seed 42 --trials 500 --dim 8",
                          ["fuzz", "--seed", "42", "--trials", "500", "--dim", "8"])
    with tempfile.TemporaryDirectory() as tmp:
        problem_files = {}
        for name, matrices in _problems(verify).items():
            files = problem_files[name] = _write_files(cli, tmp, name, matrices)
            lines += _counted_lines(cli, f"check {name}", ["check", *files])
            for kind in COMPUTE_KINDS:
                lines += _counted_lines(cli, f"compute --kind {kind} {name}",
                                        ["compute", *files, "--kind", kind])
        name = f"random-triple-n{N}"
        for kind in CLASSICAL_KINDS:
            lines += _counted_lines(cli, f"compute --kind {kind} {name} a",
                                    ["compute", problem_files[name][0], "--kind", kind])
        seed, n, core = DRAZIN_INDEX3
        name = f"varied-index-n{n}"
        inst = _generators().varied_index_matrix(np.random.default_rng(seed), n, core=core)
        files = _write_files(cli, tmp, name, (inst["a"],))
        lines += _counted_lines(cli, f"compute --kind drazin {name} a",
                                ["compute", *files, "--kind", "drazin"])
        name = f"diagonalizable-n{N}"
        out = Path(tmp) / "out.json"
        code, _ = _run(cli, ["compute", *problem_files[name], "--kind", "2l", "--out", str(out)])
        lines.append(f"compute --kind 2l --out {name} file  exit={code}  "
                     f"{_sha(out.read_text(encoding='utf-8'))}")
        files = problem_files["diagonal-core-n8"] = _write_files(
            cli, tmp, "diagonal-core-n8", _represent_core())
        for args in REPRESENT_ARGS:
            lines += _counted_lines(cli, f"represent {' '.join(args)} diagonal-core-n8",
                                    ["represent", *files, *args])
        for name in (f"diagonalizable-n{N}", "diagonal-core-n8"):
            for route in ROUTES:
                lines += _counted_lines(cli, f"compute --kind 2l --route {route} {name}",
                                        ["compute", *problem_files[name], "--kind", "2l",
                                         "--route", route])
    prescribed = importlib.import_module("pqinv.prescribed")
    errors = importlib.import_module("pqinv.errors")
    lines += _formula_lines(prescribed, verify, errors)
    lines.append(_one_problem_line(prescribed, verify, errors))
    lines += _peak_lines(cli, prescribed, verify, errors)
    densela = importlib.import_module("pqinv.densela")
    return (lines + _exp_lines(densela) + _oblique_lines(prescribed)
            + [_certificate_line(densela),
               _straddling_line(prescribed, verify, densela),
               _graded_core_line(importlib.import_module("pqinv.ginv"), errors),
               _planted_angle_line(densela, importlib.import_module("pqinv.subspace")),
               _small_scale_line(prescribed, errors)]
            + _route_lines(prescribed, verify, errors))


def environment_line() -> str:
    """The header: what the value hashes depend on, read only."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy without the dicts mode
        blas = {"name": "unknown", "version": "unknown"}
    env = {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
           "blas_thread_env": {var: os.environ.get(var) for var in
                               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
           "machine": platform.machine(), "nproc": os.cpu_count()}
    return "# environment " + json.dumps(env, sort_keys=True)


def check(lines: list[str]) -> int:
    """Diff ``lines``, a fresh listing, against RECORD; 0 when they agree."""
    recorded = RECORD.read_text(encoding="utf-8").splitlines()
    if recorded[:1] != lines[:1]:
        print(f"environment differs from {RECORD.name}'s; value hashes are not compared")
        recorded, lines = ([SHA256.sub("<sha256>", line) for line in listing[1:]]
                           for listing in (recorded, lines))
    diff = list(difflib.unified_diff(recorded, lines, str(RECORD), "this run", lineterm=""))
    print("\n".join(diff) if diff else f"every line matches {RECORD.name}")
    return 1 if diff else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory holding the pqinv package (default: this checkout's src)")
    parser.add_argument("--check", action="store_true",
                        help=f"diff the output against {RECORD.name} and exit 1 on a difference")
    args = parser.parse_args(argv)
    if not (args.src / "pqinv" / "__init__.py").is_file():
        parser.error(f"no pqinv package under {args.src}")
    sys.path.insert(0, str(args.src.resolve()))
    if not hasattr(importlib.import_module("pqinv.densela"), "record"):
        parser.error(f"the pqinv under {args.src} has no densela.record to count LAPACK calls "
                     "with; run that checkout's own tools/stability.py instead")
    lines = [environment_line(), *fingerprints()]
    if args.check:
        return check(lines)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
