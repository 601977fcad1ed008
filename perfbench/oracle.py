"""Answer checks for every benchmark operation.

The oracle uses only matrix products and Frobenius norms, never a
decomposition, so a traced run counts no decomposition of its own and a
defect in the program's factorizations cannot hide in the check.  Each
check returns ``None`` when the answer is right and a one-line reason when
it is wrong.
"""

from __future__ import annotations

import json

import numpy as np

# Agreement with a constructed inverse: the package's ROUTE_TOL and
# ORACLE_TOL, kept here so that loosening them in the package cannot
# loosen the benchmark.
ANSWER_TOL = 1e-6
# The package's default equality bound, eq_atol + eq_rtol * max(|x|, |y|).
EQ_ATOL = 1e-10
EQ_RTOL = 1e-8

VERDICT_KEYS = (
    "ker_cap_ranp_trivial", "direct_sum", "image_match", "cond5", "cond6",
    "strict_exists", "l_exists", "l12_exists", "strict12_exists",
)


def frob(m) -> float:
    return float(np.linalg.norm(m))


def _eq_bound(x, y) -> float:
    return EQ_ATOL + EQ_RTOL * max(frob(x), frob(y))


def check_inverse(b, b_ref) -> str | None:
    """``b`` against the constructed inverse at ANSWER_TOL relative to 1 + |b_ref|."""
    if b.shape != b_ref.shape:
        return f"shape {b.shape} != {b_ref.shape}"
    err = frob(b - b_ref)
    bound = ANSWER_TOL * (1.0 + frob(b_ref))
    return None if err <= bound else f"|b - b_ref| = {err:.3e} > {bound:.3e}"


def check_outer_residuals(a, p, q, b) -> str | None:
    """The documented residual bounds of the (p, q) outer inverse.

    b a b = b, p b = b and b (1 - q) = b put Ran(b) in Ran(p) and Ran(q) in
    Ker(b); b a p = p and (1 - q) a b = 1 - q force equality.  Together they
    determine b, so they check an answer that has no constructed value.
    """
    one_mq = np.eye(a.shape[0], dtype=np.complex128) - q
    residuals = {
        "outer": (b @ a @ b, b, _eq_bound(b, b)),
        "fix_left": (p @ b, b, _eq_bound(b, b)),
        "fix_right": (b @ one_mq, b, _eq_bound(b, b)),
        "gen_left": (b @ a @ p, p, _eq_bound(p, p)),
        "gen_right": (one_mq @ a @ b, one_mq, _eq_bound(one_mq, one_mq)),
    }
    for name, (lhs, rhs, bound) in residuals.items():
        err = frob(lhs - rhs)
        if err > bound:
            return f"{name} residual {err:.3e} > {bound:.3e}"
    return None


def check_strict(a, p, q, b) -> str | None:
    """b a = p and a b = 1 - q at the package's equality bound."""
    one_mq = np.eye(a.shape[0], dtype=np.complex128) - q
    for name, lhs, rhs in (("ba - p", b @ a, p), ("ab - (1-q)", a @ b, one_mq)):
        err = frob(lhs - rhs)
        if err > _eq_bound(lhs, rhs):
            return f"{name} residual {err:.3e} > {_eq_bound(lhs, rhs):.3e}"
    return None


def diagonalizable_verdicts(n: int, r: int) -> dict:
    """What a diagonalizable instance with 0 < r < n must be diagnosed as.

    With a = V D V^-1 and w = V E V^-1, Ran(a) = Ran(w) = Ran(p) and
    Ker(a) = Ker(w) = Ran(q), so both subspace inverses exist.  b a = w is
    an oblique projector while p is orthogonal, so no strict kind exists and
    a Ran(p) = Ran(w) differs from Ran(1 - q) = Ker(w)^perp.
    """
    if not 0 < r < n:
        raise ValueError(f"rank must lie strictly between 0 and {n}, got {r}")
    verdicts = {key: True for key in VERDICT_KEYS}
    verdicts.update(image_match=False, strict_exists=False, strict12_exists=False)
    verdicts["dims"] = {"dim_ran_p": r, "dim_ran_q": n - r, "rank_a": r}
    verdicts["equivalence_consistent"] = True
    return verdicts


def check_verdicts(report: dict, expected: dict) -> str | None:
    """A ``check`` report against the verdicts the construction fixes."""
    wrong = [key for key, value in expected.items() if report.get(key) != value]
    return None if not wrong else "verdicts differ: " + ", ".join(sorted(wrong))


def check_consistent(report: dict) -> str | None:
    """A report on a problem without a construction must agree with itself."""
    if report.get("equivalence_consistent") is not True:
        return "existence criteria disagree (equivalence_consistent is false)"
    return None


def matrix_from_stdout(text: str) -> np.ndarray:
    """The result matrix of ``pqinv compute`` from its JSON report."""
    doc = json.loads(text)["matrix"]
    pairs = np.asarray(doc["data"], dtype=np.float64).reshape(-1, 2)
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(doc["rows"], doc["cols"])
