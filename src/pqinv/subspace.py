"""Subspaces of C^n with orthonormal bases.

The algebra-level objects this package reasons about (principal right
ideals and right annihilators of matrices) are determined, inside the
full matrix algebra, by column spaces and null spaces of the matrices
themselves: x generates the same right ideal as y exactly when their
column spaces agree, and the annihilator of x matches the ideal of an
idempotent q exactly when Ker(x) = Ran(q).  Every set-level statement
therefore reduces to the n-dimensional subspace computations below.
Left-sided statements are reduced to these via conjugate transposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densela import (
    DEFAULT_TOL,
    PRODUCT_NOISE,
    Tolerances,
    as_matrix,
    check_residual,
    count_rank,
    frob,
    is_noise,
    svd,
)
from .errors import ShapeError

__all__ = [
    "Subspace",
    "range_of",
    "kernel_of",
    "range_and_kernel",
    "image",
    "intersect",
    "sum_of",
    "meets_trivially",
    "is_direct_sum_all",
    "contains",
    "equals",
    "gap",
]

_ORTHONORMALITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of C^n given by its basis, an n x d matrix with orthonormal
    columns; n, the ambient dimension, is the basis's row count.

    ``Subspace(basis)`` is the door for bases from outside the package: it
    checks the shape, d <= n and that ||B^H B - 1||_F is within
    _ORTHONORMALITY_TOL, and raises otherwise.  The bases the package cuts
    from an SVD factor (columns of u, conjugated rows of vh, of a full or a
    thin SVD) or from the Householder QR of an idempotent's sketch
    (:func:`densela.idempotent_bases`) are orthonormal to rounding by
    construction, and those of :meth:`zero` and :meth:`full` exactly, so
    they enter by :meth:`_cut`, unchecked.  The public constructors
    :func:`range_of`, :func:`kernel_of` and :func:`range_and_kernel` take
    matrices only and factor them themselves, so every unchecked basis is
    cut from an SVD or a QR the package took."""

    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=np.complex128)
        object.__setattr__(self, "basis", basis)
        if basis.ndim != 2 or self.ambient < 1:
            raise ShapeError(f"basis must be n x d with n >= 1, got shape {basis.shape}")
        if self.dim > self.ambient:
            raise ShapeError(f"basis has {self.dim} columns in ambient dimension {self.ambient}")
        defect = basis.conj().T @ basis
        defect.flat[::self.dim + 1] -= 1.0  # the Gram matrix minus the identity
        check_residual(frob(defect), _ORTHONORMALITY_TOL,
                       "basis columns are not orthonormal", ValueError)

    @classmethod
    def _cut(cls, basis: np.ndarray) -> "Subspace":
        """The subspace on a complex128 ``basis`` orthonormal by construction,
        without :meth:`__post_init__`'s checks."""
        s = object.__new__(cls)
        object.__setattr__(s, "basis", basis)
        return s

    @property
    def ambient(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls._cut(np.zeros((_ambient(n), 0), dtype=np.complex128))

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls._cut(np.eye(_ambient(n), dtype=np.complex128))

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the subspace (the zero matrix for {0})."""
        return self.basis @ self.basis.conj().T

    def complement(self, tol: Tolerances = DEFAULT_TOL) -> "Subspace":
        """Orthogonal complement."""
        if self.dim == 0:
            return Subspace.full(self.ambient)
        return kernel_of(self.basis.conj().T, tol)


def _ambient(n: int) -> int:
    """``n``, the ambient dimension a caller gave :meth:`Subspace.zero` or
    :meth:`Subspace.full`, when it is at least 1."""
    if n < 1:
        raise ShapeError(f"ambient dimension must be at least 1, got {n}")
    return n


def range_of(a, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Column space of a matrix."""
    return Subspace._cut(svd(as_matrix(a)).range_basis(tol))


def kernel_of(a, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Null space of a matrix."""
    return Subspace._cut(svd(as_matrix(a)).null_basis(tol))


def range_and_kernel(a, tol: Tolerances = DEFAULT_TOL) -> tuple[Subspace, Subspace]:
    """Column space and null space of a matrix, both from one factorization."""
    f = svd(as_matrix(a))
    return Subspace._cut(f.range_basis(tol)), Subspace._cut(f.null_basis(tol))


def image(a, s: Subspace, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """The subspace A . S.

    It is {0} when A B_S is noise at the rounding floor of its factors
    (:func:`densela.is_noise`), with no SVD; that holds for S = {0} too,
    whose n x 0 product has norm and floor 0.  Otherwise it is the range
    of A B_S."""
    a = as_matrix(a)
    if a.shape[1] != s.ambient:
        raise ShapeError(f"matrix has {a.shape[1]} cols, subspace lives in C^{s.ambient}")
    return _image_of(a @ s.basis, frob(a), tol)


def _image_of(mapped: np.ndarray, a_norm: float, tol: Tolerances) -> Subspace:
    """:func:`image` from A B_S and ||A||_F, both taken by the caller; the
    package's callers that hold them pass them here, unchecked.  The range
    of the n x d A B_S is read off its thin SVD, which holds no complement."""
    # the basis has unit columns, so its norm is sqrt(dim)
    if is_noise(mapped, PRODUCT_NOISE * a_norm * np.sqrt(mapped.shape[1])):
        return Subspace.zero(mapped.shape[0])
    return Subspace._cut(svd(mapped, thin=True).range_basis(tol))


def _check_same_ambient(s: Subspace, t: Subspace):
    if s.ambient != t.ambient:
        raise ShapeError(f"ambient dimensions differ: {s.ambient} vs {t.ambient}")


def intersect(s: Subspace, t: Subspace, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Intersection, from the null space of the stacked system [B_s | -B_t]."""
    _check_same_ambient(s, t)
    if s.dim == 0 or t.dim == 0:
        return Subspace.zero(s.ambient)
    stacked = np.hstack([s.basis, -t.basis])
    null = svd(stacked).null_basis(tol)
    vectors = s.basis @ null[: s.dim, :]
    return Subspace._cut(svd(vectors).range_basis(tol))


def sum_of(s: Subspace, t: Subspace, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Sum of two subspaces."""
    _check_same_ambient(s, t)
    return Subspace._cut(svd(np.hstack([s.basis, t.basis])).range_basis(tol))


def _outside(s: Subspace, t: Subspace) -> np.ndarray:
    """The components of T's basis vectors outside S, (1 - P_S) B_T: its
    singular values are the sines of the principal angles from T to S
    (Bjorck & Golub, Math. Comp. 27 (1973) 579-594)."""
    return t.basis - s.basis @ (s.basis.conj().T @ t.basis)


def _sines_clear(outside: np.ndarray, tol: Tolerances) -> bool:
    """True when all k singular values of the m x k ``outside``, the sines
    of the principal angles from a k-dimensional S to T, exceed rank_rtol:
    the one S ∩ T = {0} rule.  At m < k there are fewer than k, and it
    fails.  Sines lie in [0, 1], so :func:`densela.count_rank` counts them
    at the scale 1."""
    sines = svd(outside, compute_uv=False).s
    return count_rank(sines, tol, scale=1.0) == outside.shape[1]


def meets_trivially(s: Subspace, t: Subspace, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when S ∩ T = {0}: at once when either side is {0}, else when
    all dim S sines of the principal angles from S to T, the singular
    values of the n x dim S matrix (1 - P_T) B_S, exceed rank_rtol."""
    _check_same_ambient(s, t)
    if s.dim == 0 or t.dim == 0:
        return True
    return _sines_clear(_outside(t, s), tol)


def _meets_complement_trivially(s: Subspace, t_perp: Subspace, tol: Tolerances) -> bool:
    """:func:`meets_trivially` (s, T) for the T whose orthogonal complement
    ``t_perp`` the caller holds: the sines from S to T are then the singular
    values of the (n - dim T) x dim S matrix N^H B_S, N the basis of T^⊥,
    as ||(1 - P_T) x|| = ||N^H x||, taken from one product.

    S ∩ T = {0} is symmetric: the sines from T to S are the same
    min(dim S, dim T) principal sines, and the rest of the longer list are
    exactly 1, so a caller that holds the complement of S alone reads the
    relation from T's side with the same verdict, and, for rank_rtol
    below 1 / densela.FRAGILITY_FACTOR, the same ``near``."""
    _check_same_ambient(s, t_perp)
    if s.dim == 0 or t_perp.dim == t_perp.ambient:
        return True
    return _sines_clear(t_perp.basis.conj().T @ s.basis, tol)


def is_direct_sum_all(s: Subspace, t: Subspace, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when S ∩ T = {0} and S + T = C^n: with dim S + dim T = n,
    the principal-angle sines of :func:`meets_trivially` decide both."""
    _check_same_ambient(s, t)
    return s.dim + t.dim == s.ambient and meets_trivially(s, t, tol)


def _is_direct_sum_with_complement(s: Subspace, t_perp: Subspace, tol: Tolerances) -> bool:
    """:func:`is_direct_sum_all` (s, T) for the T whose orthogonal complement
    ``t_perp`` the caller holds: dim S + dim T = n is dim S = dim T^⊥, and
    the sines are those of :func:`_meets_complement_trivially`."""
    return s.dim == t_perp.dim and _meets_complement_trivially(s, t_perp, tol)


def contains(s: Subspace, t: Subspace, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when every basis vector of T lies in S at tolerance."""
    _check_same_ambient(s, t)
    if t.dim == 0:
        return True
    residual = _outside(s, t)
    # basis columns are unit vectors, so the mixed bound reduces to atol + rtol
    bound = tol.eq_atol + tol.eq_rtol
    # numpy.linalg.norm(residual, axis=0)'s column norms, without its dispatch
    norms = np.sqrt(np.add.reduce((residual.conj() * residual).real, axis=0))
    return float(np.max(norms)) <= bound


def equals(s: Subspace, t: Subspace, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Mutual containment."""
    return contains(s, t, tol) and contains(t, s, tol)


def gap(s: Subspace, t: Subspace) -> float:
    """Diagnostic distance: the sine of the largest principal angle between
    S and T when their dimensions agree, and 1.0 when they differ.

    For equal dimensions the two one-sided projection defects
    ||(1 - P_S) B_T||_2 and ||(1 - P_T) B_S||_2 are equal (Golub & Van Loan,
    Matrix Computations, 4th ed., Thm 2.5.1), so one singular-value-only SVD gives
    the distance.  For unequal dimensions the larger subspace holds a
    direction orthogonal to the smaller one, so its defect is exactly 1.
    """
    _check_same_ambient(s, t)
    if s.dim != t.dim:
        return 1.0
    if s.dim == 0:
        return 0.0
    return float(svd(_outside(s, t), compute_uv=False).s[0])
