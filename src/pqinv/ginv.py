"""Classical generalized inverses on square and rectangular complex matrices.

Covers the inner ({1}), reflexive ({1,2}), Moore-Penrose, group and
Drazin inverses.  These are the building blocks the prescribed-idempotent
constructions consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densela import (
    DEFAULT_TOL,
    PRODUCT_NOISE,
    Tolerances,
    as_matrix,
    eq_bound,
    frob,
    is_noise,
    rank,
    rank_factorization,
    solve,
    svd,
)
from .errors import NumericalError, ShapeError

__all__ = [
    "DrazinResult",
    "moore_penrose",
    "inner_inverse",
    "reflexive_inverse",
    "group_inverse",
    "factored_group_inverse",
    "drazin_inverse",
    "gi_idempotents",
]


def moore_penrose(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse from the SVD with the package rank cutoff."""
    return svd(as_matrix(a)).pinv(tol)


def inner_inverse(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """A {1}-inverse of ``a``.

    Every matrix has one; the Moore-Penrose inverse is returned as the
    canonical, reproducible choice.
    """
    return moore_penrose(a, tol)


def reflexive_inverse(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """A {1,2}-inverse, built as g a g from an inner inverse g."""
    a = as_matrix(a)
    g = inner_inverse(a, tol)
    return g @ a @ g


def group_inverse(a, tol: Tolerances = DEFAULT_TOL) -> np.ndarray | None:
    """Group inverse, or None when a has index above one.

    :func:`factored_group_inverse` of the full-rank factorization a = F G.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"group inverse needs a square matrix, got {a.shape}")
    f, g = rank_factorization(a, tol)
    return factored_group_inverse(f, g @ f, g, tol)


def factored_group_inverse(f: np.ndarray, gf: np.ndarray, g: np.ndarray,
                           tol: Tolerances = DEFAULT_TOL) -> np.ndarray | None:
    """Group inverse of F G, given its full-rank factors and the core G F,
    or None when F G has index above one.

    Cline's gauge-invariant F (G F)^-2 G (SIAM J. Numer. Anal. 5 (1968)
    182-197), for F with r independent columns and G with r orthonormal
    rows, as :func:`rank_factorization` gives them.  As (F G)^2 = F (G F) G,
    index one is rank(G F) = r, read off the r x r core; a G F at the
    rounding floor of its factors counts as rank 0.
    """
    r = f.shape[1]
    if r == 0:
        return np.zeros((f.shape[0], g.shape[1]), dtype=np.complex128)
    # G has orthonormal rows, so its norm is sqrt(r)
    if is_noise(gf, PRODUCT_NOISE * frob(f) * np.sqrt(r)) or rank(gf, tol) < r:
        return None
    try:
        core = solve(gf, np.eye(r, dtype=np.complex128))
    except np.linalg.LinAlgError:
        # rank test said index one but the core is exactly singular
        return None
    return f @ core @ core @ g


@dataclass(frozen=True)
class DrazinResult:
    """Drazin inverse together with the index and spectral idempotent."""

    inverse: np.ndarray
    index: int
    spectral_idempotent: np.ndarray


def drazin_inverse(a, tol: Tolerances = DEFAULT_TOL) -> DrazinResult:
    """Drazin inverse via the inner-inverse formula a^k (a^(2k+1))^- a^k.

    The index is the least k with rank(a^k) = rank(a^(k+1)), read off the
    power chain of the spectrally normalized matrix (normalization keeps
    genuine powers at unit scale, so a power at the rounding floor is a
    vanished nilpotent part, not a small survivor).  All three defining
    identities are validated before returning; a failure raises
    NumericalError rather than handing back a silently inaccurate result.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"Drazin inverse needs a square matrix, got {a.shape}")
    n = a.shape[0]

    scale = float(svd(a, compute_uv=False).s[0])
    if scale == 0.0:
        return DrazinResult(
            inverse=np.zeros_like(a),
            index=1,
            spectral_idempotent=np.eye(n, dtype=np.complex128),
        )
    a_s = a / scale

    k = 0
    power = np.eye(n, dtype=np.complex128)  # a_s^k
    r_prev = n
    while True:
        nxt = power @ a_s
        if is_noise(nxt, 1e-10):  # noise floor of the normalized power chain
            nxt = np.zeros_like(nxt)
        r_next = rank(nxt, tol)
        if r_next == r_prev:
            break
        k += 1
        power = nxt
        r_prev = r_next
        if k > n:  # pragma: no cover - rank sequence must stabilise within n steps
            raise NumericalError("rank sequence failed to stabilise")

    middle = power @ a_s @ power  # a_s^(2k+1)
    d = (power @ moore_penrose(middle, tol) @ power) / scale

    _validate_drazin(a, d, k, tol)
    spectral = np.eye(n, dtype=np.complex128) - a @ d
    if frob(spectral @ spectral - spectral) > eq_bound(spectral, spectral, tol):
        raise NumericalError("spectral idempotent failed the idempotency check")
    return DrazinResult(inverse=d, index=k, spectral_idempotent=spectral)


def _validate_drazin(a: np.ndarray, d: np.ndarray, k: int, tol: Tolerances):
    ad = a @ d
    da = d @ a
    checks = {
        "outer": (d @ ad, d),
        "commute": (ad, da),
        "power": (np.linalg.matrix_power(a, k + 1) @ d, np.linalg.matrix_power(a, k)),
    }
    for name, (lhs, rhs) in checks.items():
        if frob(lhs - rhs) > eq_bound(lhs, rhs, tol):
            raise NumericalError(
                f"Drazin axiom '{name}' failed: residual {frob(lhs - rhs):.3e}"
            )


def gi_idempotents(a, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Idempotents (a^+ a, a a^+) sharing kernel and range with ``a``."""
    a = as_matrix(a)
    pinv = moore_penrose(a, tol)
    return pinv @ a, a @ pinv
