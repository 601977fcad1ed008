"""Verification suites: fixed counterexample reproduction and randomized fuzzing.

The fixed suite rebuilds the 2x2 counterexamples that separate the strict
and subspace notions of the prescribed-idempotent outer inverse, and
asserts the known verdicts exactly.  The fuzz suite generates both
guaranteed-existence instances (with an independently constructed oracle
value) and unconstrained random triples, and runs the full invariant
battery on each.  Both suites are deterministic given their inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import subspace as sub
from .densela import DEFAULT_TOL, Tolerances, eq_bound, frob, is_noise, rank, solve, svd
from .errors import NonexistentInverseError
from .ginv import (
    drazin_inverse,
    gi_idempotents,
    group_inverse,
    moore_penrose,
    reflexive_inverse,
)
from .prescribed import (
    ExistenceReport,
    PqProblem,
    _polar,
    _polar_integral,
    _polar_limit,
    diagnose,
    drazin_as_outer,
    group_formula,
    inner_formula,
    moore_penrose_as_outer,
    outer_inverse,
    outer_inverse_strict,
    one_two_inverse,
    one_two_inverse_strict,
)

__all__ = [
    "CaseResult",
    "SuiteReport",
    "run_counterexample_suite",
    "fuzz",
    "random_idempotent",
    "guaranteed_instance",
    "random_triple",
    "diagonalizable_instance",
]

# agreement targets for cross-route and cross-oracle comparisons
ORACLE_TOL = 1e-6
ROUTE_TOL = 1e-6


@dataclass(frozen=True)
class CaseResult:
    name: str
    status: str  # pass | fail | fragile
    residuals: dict[str, float]
    elapsed: float
    detail: str = ""

    def to_json_dict(self) -> dict:
        out = {
            "name": self.name,
            "status": self.status,
            "residuals": {k: float(v) for k, v in sorted(self.residuals.items())},
            "elapsed": self.elapsed,
        }
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass(frozen=True)
class SuiteReport:
    cases: list[CaseResult]
    seed: int | None = None
    tol: Tolerances = field(repr=False, default=DEFAULT_TOL)

    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "fragile": 0}
        for case in self.cases:
            out[case.status] += 1
        return out

    @property
    def ok(self) -> bool:
        return self.counts()["fail"] == 0

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": len(self.cases),
            "summary": self.counts(),
            "tolerances": self.tol.to_json_dict(),
            "cases": [c.to_json_dict() for c in sorted(self.cases, key=lambda c: c.name)],
        }


class _Recorder:
    """Collects named residuals and failure messages for one case."""

    def __init__(self):
        self.residuals: dict[str, float] = {}
        self.failures: list[str] = []

    def record(self, name: str, value: float):
        """Keep the largest value recorded under ``name``; a NaN, once
        recorded, is kept whatever is recorded before or after it."""
        value = float(value)
        if name not in self.residuals or value > self.residuals[name] or np.isnan(value):
            self.residuals[name] = value

    def check(self, name: str, value: float, bound: float):
        self.record(name, value)
        if not value <= bound:  # a NaN residual fails
            self.failures.append(f"{name}: {value:.3e} > {bound:.3e}")

    def expect(self, name: str, condition: bool):
        if not condition:
            self.failures.append(name)


def _run_case(name: str, fn) -> CaseResult:
    rec = _Recorder()
    start = time.perf_counter()
    fragile = False
    try:
        fragile = bool(fn(rec))
    except Exception as exc:  # the report carries the failure instead of raising
        rec.failures.append(f"exception: {type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    if rec.failures:
        status = "fail"
    elif fragile:
        status = "fragile"
    else:
        status = "pass"
    return CaseResult(name, status, rec.residuals, elapsed, "; ".join(rec.failures))


# ---------------------------------------------------------------------------
# Fixed 2x2 counterexample suite.
# ---------------------------------------------------------------------------

_A22 = np.array([[0, 0], [1, 0]], dtype=np.complex128)
_P22 = np.array([[1, 1], [0, 0]], dtype=np.complex128)
_ONE_MQ22 = np.array([[0, 1], [0, 1]], dtype=np.complex128)
_B22 = np.array([[0, 1], [0, 0]], dtype=np.complex128)


def _case_statement_products(rec: _Recorder) -> bool:
    """Integer 2x2 data: the one-sided equations hold exactly, yet ba != p."""
    a, p, b = _A22, _P22, _B22
    one_mq = _ONE_MQ22
    rec.check("pb_minus_b", frob(p @ b - b), 0.0)
    rec.check("bap_minus_p", frob(b @ a @ p - p), 0.0)
    rec.check("b1mq_minus_b", frob(b @ one_mq - b), 0.0)
    rec.check("1mqab_minus_1mq", frob(one_mq @ a @ b - one_mq), 0.0)
    ba = b @ a
    rec.check("ba_vs_diag10", frob(ba - np.diag([1.0, 0.0])), 0.0)
    rec.record("ba_minus_p", frob(ba - p))
    rec.expect("ba differs from p", frob(ba - p) > 0.5)
    ab = a @ b
    rec.check("ab_vs_diag01", frob(ab - np.diag([0.0, 1.0])), 0.0)
    rec.expect("ab differs from 1-q", frob(ab - one_mq) > 0.5)
    return False


def _counterexample(one_mq: np.ndarray, tol: Tolerances) -> tuple[PqProblem, ExistenceReport]:
    """The 2x2 problem with a = _A22, p = _P22 and 1 - q = ``one_mq``, and its diagnosis."""
    prob = PqProblem(_A22, _P22, np.eye(2) - one_mq, tol)
    return prob, diagnose(prob)


def _case_strict_vs_subspace(rec: _Recorder, tol: Tolerances) -> bool:
    prob, rep = _counterexample(_ONE_MQ22, tol)
    rec.expect("subspace outer inverse exists", rep.l_exists)
    rec.expect("strict outer inverse does not exist", not rep.strict_exists)
    result = outer_inverse(prob)
    rec.check("computed_vs_expected", frob(result.b - _B22), 1e-12)
    rec.check("outer_residual", result.residuals["outer"], 1e-12)
    rec.check("range_gap", result.residuals["range_gap"], 1e-12)
    rec.check("kernel_gap", result.residuals["kernel_gap"], 1e-12)
    raised = False
    try:
        outer_inverse_strict(prob)
    except NonexistentInverseError as exc:
        raised = True
        rec.record("strict_ba_residual", exc.residuals.get("ba_minus_p", -1.0))
    rec.expect("strict computation reports nonexistence", raised)
    reflexive = one_two_inverse(prob)
    rec.check("one_two_inner_residual", reflexive.residuals["inner"], 1e-12)
    return rep.fragile


def _case_direct_sum_without_image(rec: _Recorder, tol: Tolerances) -> bool:
    prob, rep = _counterexample(_ONE_MQ22, tol)
    rec.expect("trivial kernel intersection", rep.ker_cap_ranp_trivial)
    rec.expect("direct sum holds", rep.direct_sum)
    rec.expect("image does not match Ran(1-q)", not rep.image_match)
    a_ran_p = sub.image(prob.a, sub.range_of(prob.p, tol), tol)
    rec.record("image_gap", sub.gap(a_ran_p, sub.range_of(prob.one_minus_q, tol)))
    return rep.fragile


def _case_image_without_strict(rec: _Recorder, tol: Tolerances) -> bool:
    prob, rep = _counterexample(np.diag([0.0, 1.0]).astype(np.complex128), tol)
    rec.expect("image matches Ran(1-q)", rep.image_match)
    rec.expect("trivial kernel intersection", rep.ker_cap_ranp_trivial)
    rec.expect("strict outer inverse does not exist", not rep.strict_exists)
    result = outer_inverse(prob)
    rec.check("computed_vs_expected", frob(result.b - _B22), 1e-12)
    rec.record("ba_minus_p", result.residuals["ba_minus_p"])
    rec.expect("ba still differs from p", result.residuals["ba_minus_p"] > 0.5)
    return rep.fragile


def run_counterexample_suite(tol: Tolerances = DEFAULT_TOL) -> SuiteReport:
    """Reproduce the fixed 2x2 counterexamples and their documented verdicts."""
    cases = [_run_case("statement_products_exact", _case_statement_products)]
    for name, case in (("strict_vs_subspace_gap", _case_strict_vs_subspace),
                       ("direct_sum_without_image_match", _case_direct_sum_without_image),
                       ("image_match_without_strict", _case_image_without_strict)):
        cases.append(_run_case(name, partial(case, tol=tol)))
    return SuiteReport(cases=cases, tol=tol)


# ---------------------------------------------------------------------------
# Random instance generators.
# ---------------------------------------------------------------------------


def _complex_normal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_complex_normal(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _conditioned_matrix(rng: np.random.Generator, n: int, cond_cap: float) -> np.ndarray:
    """Invertible n x n matrix with condition number at most cond_cap."""
    if n == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    half = np.log10(cond_cap) / 2.0
    sigmas = 10.0 ** rng.uniform(-half, half, size=n)
    return (_random_unitary(rng, n) * sigmas) @ _random_unitary(rng, n)


def _rank_in_range(name: str, value: int, n: int) -> int:
    """``value`` when 0 <= value <= n; otherwise ValueError naming ``name``."""
    if not 0 <= value <= n:
        raise ValueError(f"{name} must lie in [0, {n}], got {value}")
    return value


def random_idempotent(
    rng: np.random.Generator, n: int, k: int | None = None, cond_cap: float = 100.0
) -> np.ndarray:
    """Similarity-transformed coordinate projection of rank k (possibly oblique)."""
    k = int(rng.integers(0, n + 1)) if k is None else _rank_in_range("k", k, n)
    s = _conditioned_matrix(rng, n, cond_cap)
    d = np.zeros((n, n), dtype=np.complex128)
    d[:k, :k] = np.eye(k)
    return s @ d @ np.linalg.inv(s)


def _orth_columns(rng: np.random.Generator, n: int, r: int) -> np.ndarray:
    if r == 0:
        return np.zeros((n, 0), dtype=np.complex128)
    q, _ = np.linalg.qr(_complex_normal(rng, n, r))
    return q


def guaranteed_instance(rng: np.random.Generator, n: int) -> dict:
    """Instance where the subspace outer inverse exists by construction.

    Draws full-rank factors X (n x r) and Y (r x n), sets w = X Y, takes
    p and q as the orthogonal projections onto Ran(w) and Ker(w), and
    redraws ``a`` until the r x r core Y a X is comfortably invertible.
    The oracle value b_ref = X (Y a X)^-1 Y is computed without any
    generalized-inverse machinery, by an LU solve, independent of the SVD
    with which :func:`pqinv.densela.solve_core` inverts the package's cores.
    """
    r = int(rng.integers(0, n + 1))
    x = _orth_columns(rng, n, r) @ _conditioned_matrix(rng, r, 25.0)
    y = _conditioned_matrix(rng, r, 25.0) @ _orth_columns(rng, n, r).conj().T

    a = None
    for _ in range(64):
        if rng.random() < 0.25 and n > 1:
            k = int(rng.integers(max(1, r), n + 1))
            cand = _complex_normal(rng, n, k) @ _complex_normal(rng, k, n) / np.sqrt(n)
        else:
            cand = _complex_normal(rng, n, n)
        if r == 0:
            a = cand
            break
        core = y @ cand @ x
        s = svd(core, compute_uv=False).s
        if s[-1] > 1e-3 * max(1.0, s[0]):
            a = cand
            break
    # the 64 redraws run out above n = 32, more often as n grows: for
    # default_rng(s), s = 0-39, on no seed at n <= 35, 1 at n = 36, 3 at
    # n = 40, 9 at n = 48 and 19 at n = 64.  So fuzz caps max_dim at 32,
    # where no trial has failed to draw
    if a is None:  # pragma: no cover - not reached at the test suite's sizes
        raise RuntimeError("failed to draw a well-posed instance")

    w = x @ y
    ran_w, ker_w = sub.range_and_kernel(w) if r else (sub.Subspace.zero(n), sub.Subspace.full(n))
    p = ran_w.projector()
    q = ker_w.projector()
    if r:
        b_ref = x @ solve(core, y)  # the accepted draw's core, y a x
    else:
        b_ref = np.zeros((n, n), dtype=np.complex128)
    return {"a": a, "p": p, "q": q, "w": w, "b_ref": b_ref, "r": r}


def random_triple(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unconstrained random (a, p, q); dimensions are made compatible often
    enough that the existing-inverse code paths get exercised."""
    style = rng.random()
    if style < 0.6:
        a = _complex_normal(rng, n, n)
    elif style < 0.85:
        k = int(rng.integers(0, n + 1))
        a = _complex_normal(rng, n, k) @ _complex_normal(rng, k, n) / max(1.0, np.sqrt(n))
    else:
        a = random_idempotent(rng, n)
    kp = int(rng.integers(0, n + 1))
    kq = n - kp if rng.random() < 0.6 else int(rng.integers(0, n + 1))
    p = random_idempotent(rng, n, kp)
    q = random_idempotent(rng, n, kq)
    return a, p, q


def diagonalizable_instance(
    rng: np.random.Generator,
    n: int,
    r: int | None = None,
    re_lo: float = 0.4,
    re_hi: float = 2.0,
    im_amp: float = 1.0,
    cond_cap: float = 9.0,
) -> dict:
    """Instance with a diagonalizable core and controlled spectrum.

    a = V D V^-1 and w = V E V^-1 share the eigenbasis V, D carries r
    eigenvalues with real part in [re_lo, re_hi] (zeros elsewhere) and E
    is the coordinate projection onto the core.  Then a w = w a = a, the
    exact inverse value is V D^+ V^-1, and the decay rate of the
    exponential integrand is min Re(spectrum of the core), inf at r = 0.
    """
    r = int(rng.integers(1, n + 1)) if r is None else _rank_in_range("r", r, n)
    mu = rng.uniform(re_lo, re_hi, size=r) + 1j * rng.uniform(-im_amp, im_amp, size=r)
    v = _conditioned_matrix(rng, n, cond_cap)
    v_inv = np.linalg.inv(v)
    d, e, d_plus = (np.diag(np.concatenate([x, np.zeros(n - r)]).astype(np.complex128))
                    for x in (mu, np.ones(r), 1.0 / mu))

    a = v @ d @ v_inv
    w = v @ e @ v_inv
    b_ref = v @ d_plus @ v_inv
    ran_w, ker_w = sub.range_and_kernel(w)  # w = 0 when r = 0, so Ran(w) = {0}
    p, q = ran_w.projector(), ker_w.projector()
    return {"a": a, "p": p, "q": q, "w": w, "b_ref": b_ref,
            "alpha": float(np.min(mu.real, initial=np.inf)), "r": r}


# ---------------------------------------------------------------------------
# The per-trial invariant battery.
# ---------------------------------------------------------------------------


def _regauged_witness(rng: np.random.Generator, ran_p: sub.Subspace,
                      co_q: sub.Subspace) -> np.ndarray:
    """An independently gauged w with Ran(w) = Ran(p) and Ker(w) = Ran(q),
    given Ran(p) and the orthogonal complement of Ran(q)."""
    mix = _conditioned_matrix(rng, ran_p.dim, 16.0)
    return ran_p.basis @ mix @ co_q.basis.conj().T


def _check_fixing_identities(rec, rng, prob: PqProblem, b: np.ndarray,
                             ran_p: sub.Subspace, ran_q: sub.Subspace):
    """b a x = x iff Ran(x) inside Ran(p); x a b = x iff Ran(q) inside Ker(x)."""
    tol = prob.tol
    n = prob.n

    probes = [prob.p @ _complex_normal(rng, n, n), _complex_normal(rng, n, n)]
    for i, x in enumerate(probes):
        if is_noise(x, 1e-9):  # numerically-zero probe carries no information
            continue
        fixed = frob(b @ prob.a @ x - x) <= eq_bound(x, x, tol)
        inside = sub.contains(ran_p, sub.range_of(x, tol), tol)
        rec.expect(f"left fixing identity (probe {i})", fixed == inside)

    q_proj = ran_q.projector()
    probes = [
        _complex_normal(rng, n, n) @ (np.eye(n) - q_proj),
        _complex_normal(rng, n, n),
    ]
    for i, x in enumerate(probes):
        if is_noise(x, 1e-9):
            continue
        fixed = frob(x @ prob.a @ b - x) <= eq_bound(x, x, tol)
        inside = sub.contains(sub.kernel_of(x, tol), ran_q, tol)
        rec.expect(f"right fixing identity (probe {i})", fixed == inside)


def _battery_classical(rec, a: np.ndarray, tol: Tolerances):
    """Classical-inverse invariants on the bare matrix."""
    pinv = moore_penrose(a, tol)
    scale = 1.0 + frob(a)
    rec.check("penrose_1", frob(a @ pinv @ a - a), 1e-10 * scale)
    rec.check("penrose_2", frob(pinv @ a @ pinv - pinv), 1e-10 * (1.0 + frob(pinv)))
    rec.check("penrose_3", frob((a @ pinv).conj().T - a @ pinv), 1e-10 * scale)
    rec.check("penrose_4", frob((pinv @ a).conj().T - pinv @ a), 1e-10 * scale)

    dz = drazin_inverse(a, tol)  # validates its own axioms, raises on breakdown
    d = dz.inverse
    dscale = 1.0 + frob(a) * frob(d)
    rec.check("drazin_outer", frob(d @ a @ d - d), 1e-9 * (1.0 + frob(d)))
    rec.check("drazin_commute", frob(a @ d - d @ a), 1e-9 * dscale)
    power = np.linalg.matrix_power(a, dz.index)
    rec.check(
        "drazin_power",
        frob(power @ a @ d - power),
        1e-9 * (1.0 + frob(power)),
    )

    g = group_inverse(a, tol)
    integer_verdict = rank(a, tol) == rank(a @ a, tol)
    rec.expect("group existence matches the rank test", (g is not None) == integer_verdict)
    if g is not None:
        rec.check("group_inner", frob(a @ g @ a - a), 1e-9 * (1.0 + frob(a)))
        rec.check("group_outer", frob(g @ a @ g - g), 1e-9 * (1.0 + frob(g)))
        rec.check("group_commute", frob(a @ g - g @ a), 1e-9 * (1.0 + frob(a) * frob(g)))

    p_hat, q_hat = gi_idempotents(a, tol)
    ran_a, ker_a = sub.range_and_kernel(a, tol)
    rec.expect(
        "gi idempotent shares the kernel",
        sub.equals(sub.kernel_of(p_hat, tol), ker_a, tol),
    )
    rec.expect(
        "gi idempotent shares the range",
        sub.equals(sub.range_of(q_hat, tol), ran_a, tol),
    )
    refl = reflexive_inverse(a, tol)
    rec.check("reflexive_inner", frob(a @ refl @ a - a), 1e-9 * (1.0 + frob(a)))
    rec.check("reflexive_outer", frob(refl @ a @ refl - refl), 1e-9 * (1.0 + frob(refl)))

    # the strict special cases: pseudo-inverse and index-aware inverse
    mp_case = moore_penrose_as_outer(a, tol)
    rec.record("mp_special_case", frob(mp_case.b - pinv))
    dz_case = drazin_as_outer(a, tol)
    rec.record("drazin_special_case", frob(dz_case.b - d))


def _battery_prescribed(rec, rng, prob: PqProblem, oracle_b, run_integral: bool):
    """Existence-theory invariants for one (a, p, q) problem; the route
    checks run when the instance carries an oracle value ``oracle_b``."""
    tol = prob.tol
    rep = diagnose(prob)
    if rep.fragile:
        return True

    rec.expect("existence criteria agree", rep.equivalence_consistent)
    rec.expect("strict implies image match", (not rep.strict_exists) or rep.image_match)
    rec.expect("image match implies direct sum", (not rep.image_match) or rep.direct_sum)
    rec.expect("strict implies subspace existence", (not rep.strict_exists) or rep.l_exists)
    rec.expect("reflexive implies outer", (not rep.l12_exists) or rep.l_exists)
    rec.expect("strict reflexive implies reflexive", (not rep.strict12_exists) or rep.l12_exists)

    if oracle_b is not None:
        rec.expect("oracle agrees about existence", rep.l_exists)

    if not rep.l_exists:
        return False

    result = outer_inverse(prob)
    b = result.b
    bscale = 1.0 + frob(b)
    rec.check("outer_axiom", result.residuals["outer"], eq_bound(b, b, tol))
    rec.check("range_gap", result.residuals["range_gap"], tol.eq_atol + tol.eq_rtol)
    rec.check("kernel_gap", result.residuals["kernel_gap"], tol.eq_atol + tol.eq_rtol)
    rec.check("fix_left", result.residuals["fix_left"], eq_bound(b, b, tol))
    rec.check("fix_right", result.residuals["fix_right"], eq_bound(b, b, tol))
    rec.check("gen_left", result.residuals["gen_left"], eq_bound(prob.p, prob.p, tol))
    rec.check(
        "gen_right",
        result.residuals["gen_right"],
        eq_bound(prob.one_minus_q, prob.one_minus_q, tol),
    )

    if oracle_b is not None:
        rec.check("oracle_agreement", frob(b - oracle_b), ORACLE_TOL * bscale)

    # the battery's own subspaces, taken once for every check below, apart
    # from the problem's views
    ran_p, ran_q = sub.range_of(prob.p, tol), sub.range_of(prob.q, tol)
    co_q = ran_q.complement(tol)

    # derived identities: b a shares its range with p, a b its kernel with q
    rec.expect(
        "range of b a matches the prescribed range",
        sub.equals(sub.range_of(b @ prob.a, tol), ran_p, tol),
    )
    rec.expect(
        "kernel of a b matches the prescribed kernel",
        sub.equals(sub.kernel_of(prob.a @ b, tol), ran_q, tol),
    )

    w2 = _regauged_witness(rng, ran_p, co_q)
    b2 = group_formula(prob.a, w2, tol)
    rec.check("witness_independence", frob(b - b2), 1e-8 * bscale)

    if rep.strict_exists:
        strict = outer_inverse_strict(prob)
        rec.check("strict_ba", strict.residuals["ba_minus_p"], eq_bound(b, prob.p, tol))
    if rep.l12_exists:
        reflexive = one_two_inverse(prob)
        rec.check("one_two_inner", reflexive.residuals["inner"], eq_bound(prob.a, prob.a, tol))
    if rep.strict12_exists:
        one_two_inverse_strict(prob)

    _check_fixing_identities(rec, rng, prob, b, ran_p, ran_q)

    if oracle_b is not None:
        # the compute functions' own routes on the battery's own bases: the
        # inner route on w = U N^H, and the limit and integral routes in the
        # polar gauge w = U Q N^H off the battery's own SVD of C; that gauge
        # is the same for every pair of orthonormal bases, so this is another
        # factorization of the routes' w
        u, nh = ran_p.basis, co_q.basis.conj().T
        a_u = prob.a @ u
        polar, s_min = _polar(svd(nh @ a_u))
        g = polar @ nh
        values = {"inner": lambda: inner_formula(prob.a, u @ nh, tol),
                  "limit": lambda: u @ _polar_limit(a_u, g, s_min, frob(b), tol)[0],
                  "integral": lambda: u @ _polar_integral(a_u, g, s_min, tol)[0]}
        for route in ("inner", "limit", "integral") if run_integral else ("inner", "limit"):
            rec.check(f"route_{route}", frob(values[route]() - b), ROUTE_TOL * bscale)
    return False


def fuzz(seed: int, trials: int, max_dim: int, tol: Tolerances = DEFAULT_TOL) -> SuiteReport:
    """Randomized invariant suite; deterministic for a given seed.

    Trials alternate between guaranteed-existence instances (with the
    constructed oracle) and unconstrained triples.  Fragile diagnoses are
    reported as such and exempted from the equivalence assertions.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 1 <= max_dim <= 32:
        raise ValueError(f"max_dim must be in [1, 32], got {max_dim}")
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(trials):
        n = int(rng.integers(1, max_dim + 1))

        def trial(rec, n=n, i=i):
            if i % 2 == 0:
                inst = guaranteed_instance(rng, n)
                a, p, q, oracle_b = inst["a"], inst["p"], inst["q"], inst["b_ref"]
            else:
                (a, p, q), oracle_b = random_triple(rng, n), None
            fragile = _battery_prescribed(
                rec, rng, PqProblem(a, p, q, tol), oracle_b, run_integral=i % 5 == 0
            )
            _battery_classical(rec, a, tol)
            return fragile

        cases.append(_run_case(f"trial_{i:05d}", trial))
    return SuiteReport(cases=cases, seed=seed, tol=tol)
