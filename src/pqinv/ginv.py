"""Classical generalized inverses on square and rectangular complex matrices.

Covers the inner ({1}), reflexive ({1,2}), Moore-Penrose, group and
Drazin inverses.  These are the building blocks the prescribed-idempotent
constructions consume.  The group and Drazin inverses are outer inverses
with a prescribed range and kernel, and both invert their r x r core by
:func:`densela.solve_core`, the one rule of every (p,q) candidate, and
apply their own factors to the inverse it returns: G F of a full-rank
factorization for the group inverse, N^H a U on the bases of two unitary
staircases for the Drazin inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densela import (
    DEFAULT_TOL,
    PRODUCT_NOISE,
    Factored,
    Tolerances,
    adjoint,
    as_matrix,
    check_residual,
    eq_bound,
    frob,
    rank_factorization,
    rounding_bound,
    snap,
    solve_core,
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
    decides the rank and inverts the core, and the answer is
    F (G F)^-1 (G F)^-1 G; at r = 0 F G is 0, and so is its group inverse.
    """
    inverse = solve_core(gf, _core_floor(f), tol)[0]
    return None if inverse is None else f @ inverse @ inverse @ g


def _core_floor(f: np.ndarray) -> float:
    """The rounding floor of the core G F, for G with r orthonormal rows."""
    # G has orthonormal rows, so its norm is sqrt(r)
    return PRODUCT_NOISE * frob(f) * np.sqrt(f.shape[1])


@dataclass(frozen=True)
class DrazinResult:
    """Drazin inverse together with the index and spectral idempotent."""

    inverse: np.ndarray
    index: int
    spectral_idempotent: np.ndarray


def drazin_inverse(a, tol: Tolerances = DEFAULT_TOL) -> DrazinResult:
    """Drazin inverse and index as the outer inverse with range Ran(a^k)
    and kernel Ker(a^k), k = ind a, with the three defining identities
    validated: a failure raises NumericalError rather than handing back a
    silently inaccurate result.

    In the paper's terms a^D = a^(2)_{p,q} with p = 1 - a^π and q = a^π,
    so a^D = U (N^H a U)^-1 N^H for orthonormal bases U of Ran(a^k) and N
    of Ker(a^k)^⊥ (Y. Wei, Linear Algebra Appl. 280 (1998) 87-96): the
    core N^H a U is decided and inverted by :func:`densela.solve_core`,
    the rank rule and Newton step of every (p,q) candidate, and a^D is
    U ((N^H a U)^-1 N^H).  One SVD of a decides k = 0, where U = N = 1 and
    a^-1 itself is the answer.  Otherwise the SVD that refused a starts
    two unitary staircases (:func:`_staircase`), one on a, whose
    basis is N, and one on a^H, whose basis spans Ker((a^H)^k)^⊥ = Ran(a^k)
    and is U; no power of a is formed.  Each reads k and r = rank a^k off
    its own blocks, and when the two disagree NumericalError is raised.
    """
    a = as_matrix(a)
    n = a.shape[0]
    if n != a.shape[1]:
        raise ShapeError(f"Drazin inverse needs a square matrix, got {a.shape}")
    # a is no product: only the zero matrix is noise
    d, f = solve_core(a, 0.0, tol)
    k, r = 0, n
    if d is None:
        f = svd(a) if f is None else f
        nh, k = _staircase(f, tol)
        uh, k_adjoint = _staircase(Factored(adjoint(f.vh), f.s, adjoint(f.u)), tol)
        r = nh.shape[0]
        if (k, r) != (k_adjoint, uh.shape[0]):
            raise NumericalError(f"the Drazin staircases of a and a^H disagree: index {k} "
                                 f"and rank {r} against {k_adjoint} and {uh.shape[0]}")
        u = adjoint(uh)
        # N and U have unit columns, so the factors' norms are sqrt(r) each
        inverse = solve_core(nh @ a @ u, PRODUCT_NOISE * r * frob(a), tol)[0]
        if inverse is None:
            raise NumericalError(f"the Drazin core N^H a U of rank {r} is singular")
        d = u @ (inverse @ nh)
    spectral = np.eye(n, dtype=np.complex128) - _validate_drazin(a, d, k, r, tol)
    check_residual(frob(spectral @ spectral - spectral), eq_bound(spectral, spectral, tol),
                   "spectral idempotent failed the idempotency check")
    return DrazinResult(inverse=d, index=k, spectral_idempotent=spectral)


def _staircase(factored: Factored, tol: Tolerances) -> tuple[np.ndarray, int]:
    """(B^H, k) for the singular square m whose full SVD is ``factored``:
    k = ind m and B an orthonormal basis of Ker(m^k)^⊥, by the unitary
    staircase (G. H. Golub and J. H. Wilkinson, SIAM Rev. 18 (1976)
    578-619).  With m = U S V^H of rank r and V = [V_r | V_0], m V_0 = 0
    and m V_r = U_r S_r has full column rank, so Ker(m^(j+1))^⊥ =
    V_r Ker(M^j)^⊥ for the r x r block M = V_r^H m V_r = V_r^H (U_r S_r).
    Each block is snapped at its product's rounding floor and factored in
    turn, until the rank rule reads one invertible; the levels taken are
    k, and B^H is the product of the V_r^H.
    """
    basis, k = None, 0
    # the block shrinks at every level, so a 0 x 0 one ends the descent
    while (r := factored.rank(tol)) < factored.s.size:
        g, f = factored.vh[:r], factored.u[:, :r] * factored.s[:r]
        basis = g if basis is None else g @ basis
        factored, k = svd(snap(g @ f, _core_floor(f))), k + 1
    return basis, k


def _validate_drazin(a: np.ndarray, d: np.ndarray, k: int, r: int, tol: Tolerances) -> np.ndarray:
    """d a d = d, a d = d a and a^(k+1) d = a^k within eq_bound, the last also
    at its products' rounding floor (:func:`densela.rounding_bound`): a^k of
    a nilpotent part is the noise of k products.  Then the certificate:
    a d is idempotent, so its trace is its rank, which must read r, the
    rank of a^k that the staircases read, to within 0.5.  It
    catches a d that misses a core eigenvalue whose part of a^k the others
    swamp.  A non-finite residual fails :func:`densela.check_residual`.
    Returns a d, which the spectral idempotent 1 - a d reads."""
    ad, da = a @ d, d @ a
    norm_a = np.float64(frob(a))  # a float64 power overflows to inf, not an error
    power = np.linalg.matrix_power(a, k)
    checks = {
        "outer": (d @ ad, d, 0.0),
        "commute": (ad, da, 0.0),
        "power": (power @ ad, power, norm_a ** k * (1.0 + norm_a * frob(d))),
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
