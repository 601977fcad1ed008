"""Classical generalized inverses on square and rectangular complex matrices.

Covers the inner ({1}), reflexive ({1,2}), Moore-Penrose, group and
Drazin inverses.  These are the building blocks the prescribed-idempotent
constructions consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .densela import (
    DEFAULT_TOL,
    PRODUCT_NOISE,
    Factored,
    Tolerances,
    _rank_factors,
    _solve_core,
    as_matrix,
    check_residual,
    eq_bound,
    frob,
    rank_factorization,
    rounding_bound,
    snap,
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
    index one is G F invertible, decided by :func:`densela.solve_core` on
    the r x r core at the rounding floor of its factors, whose one SVD
    decides the rank and inverts the core; at r = 0 F G is 0, and so is
    its group inverse.
    """
    return _group_of_core(f, gf, g, _core_floor(f), None, tol)[0]


def _core_floor(f: np.ndarray) -> float:
    """The rounding floor of the core G F, for G with r orthonormal rows."""
    # G has orthonormal rows, so its norm is sqrt(r)
    return PRODUCT_NOISE * frob(f) * np.sqrt(f.shape[1])


def _group_of_core(f: np.ndarray, gf: np.ndarray, g: np.ndarray, floor: float,
                   norm: float | None,
                   tol: Tolerances) -> tuple[np.ndarray | None, Factored | None]:
    """(:func:`factored_group_inverse` at the core's ``floor``, the SVD of
    G F that decided it, or None when G F is noise), reading ||G F||_F from
    ``norm`` when the caller has taken it."""
    core, factored = _solve_core(gf, np.eye(f.shape[1], dtype=np.complex128), floor, tol, norm)
    return (None if core is None else f @ core @ core @ g), factored


@dataclass(frozen=True)
class DrazinResult:
    """Drazin inverse together with the index and spectral idempotent."""

    inverse: np.ndarray
    index: int
    spectral_idempotent: np.ndarray


def drazin_inverse(a, tol: Tolerances = DEFAULT_TOL) -> DrazinResult:
    """Drazin inverse and index by Cline's factor sequence (:func:`_cline`),
    with the three defining identities validated: a failure raises
    NumericalError rather than handing back a silently inaccurate result."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"Drazin inverse needs a square matrix, got {a.shape}")
    d, k, r = _cline(a, tol)
    spectral = np.eye(a.shape[0], dtype=np.complex128) - _validate_drazin(a, d, k, r, tol)
    check_residual(frob(spectral @ spectral - spectral), eq_bound(spectral, spectral, tol),
                   "spectral idempotent failed the idempotency check")
    return DrazinResult(inverse=d, index=k, spectral_idempotent=spectral)


def _cline(a: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, int, int]:
    """(a^D, ind a, r) by Cline's factor sequence (SIAM J. Numer. Anal. 5
    (1968) 182-197): from m_0 = a, m_j = F_j G_j by :func:`rank_factorization`
    and m_(j+1) = G_j F_j, of falling rank, until :func:`factored_group_inverse`
    finds m_k group invertible.  (F G)^D = F ((G F)^D)^2 G unrolls to
    a^D = F_0 ... F_(k-1) (m_k^#)^(k+1) G_(k-1) ... G_0, whose rounding errors
    add where the nested form's double per level; ind a is k, plus one when
    m_k is singular, and r = rank m_k is the rank of a a^D.  a is scaled
    exactly, by a power of two, to keep the k-fold products in range; G F at
    its rounding floor is snapped to 0.
    """
    scale = 2.0 ** math.frexp(frob(a))[1]
    m, left, right, factored = a / scale, None, None, None
    for k in range(a.shape[0] + 1):  # the rank falls at every step
        # a refused core is factored by the SVD that refused it
        f, g = rank_factorization(m, tol) if factored is None else _rank_factors(factored, tol)
        r = f.shape[1]
        floor, gf = _core_floor(f), g @ f
        norm = frob(gf)  # one norm for the snap and the core's noise test
        gf = snap(gf, floor, norm)
        group, factored = _group_of_core(f, gf, g, floor, norm, tol)
        if group is not None:
            break
        left = f if left is None else left @ f
        right = g if right is None else g @ right
        m = gf
    else:  # pragma: no cover - a core's rank cannot stay put n + 1 times
        raise NumericalError("the factor ranks failed to fall")
    d = group if k == 0 else left @ np.linalg.matrix_power(group, k + 1) @ right
    return d / scale, k + int(r < m.shape[0]), r


def _validate_drazin(a: np.ndarray, d: np.ndarray, k: int, r: int, tol: Tolerances) -> np.ndarray:
    """d a d = d, a d = d a and a^(k+1) d = a^k within eq_bound, the last also
    at its products' rounding floor (:func:`densela.rounding_bound`): a^k of
    a nilpotent part is the noise of k products.  Then the certificate:
    a d is idempotent, so its trace is its rank, which must read r, the
    rank of the core the factor sequence ended on, to within 0.5.  It
    catches a d that misses a core eigenvalue whose part of a^k the others
    swamp.  A non-finite residual fails :func:`densela.check_residual`.
    Returns a d, which the spectral idempotent 1 - a d reads."""
    ad, da = a @ d, d @ a
    norm_a = np.float64(frob(a))  # a float64 power overflows to inf, not an error
    checks = {
        "outer": (d @ ad, d, 0.0),
        "commute": (ad, da, 0.0),
        "power": (np.linalg.matrix_power(a, k + 1) @ d, np.linalg.matrix_power(a, k),
                  norm_a ** k * (1.0 + norm_a * frob(d))),
    }
    for name, (lhs, rhs, scale) in checks.items():
        check_residual(frob(lhs - rhs), rounding_bound(lhs, rhs, scale, tol),
                       f"Drazin axiom '{name}' failed")
    check_residual(abs(np.trace(ad) - r), 0.5, f"Drazin certificate tr(a d) = {r} failed")
    return ad


def gi_idempotents(a, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Idempotents (a^+ a, a a^+) sharing kernel and range with ``a``."""
    a = as_matrix(a)
    pinv = moore_penrose(a, tol)
    return pinv @ a, a @ pinv
