"""Outer and reflexive inverses with prescribed idempotents.

Given a square matrix ``a`` and idempotents ``p``, ``q`` of the same
size, four related inverses are handled here, distinguished by how the
idempotents are imposed:

* strict outer inverse: b with  b a b = b,  b a = p,  1 - a b = q;
* subspace outer inverse: b with  b a b = b,  Ran(b) = Ran(p),
  Ker(b) = Ran(q)  (the relaxation of the strict definition, which is
  the one that mirrors the classical A^(2)_{T,S} of operator theory);
* the {1,2} variants of both, which additionally satisfy a b a = a.

Each inverse is unique when it exists.  Existence is decided by
:func:`diagnose`, which evaluates every equivalent criterion of the
existence theory independently and reports their verdicts side by side
(a criterion that asks for solutions of equations, such as cond6,
reports that they exist, not the solutions); the computation itself
runs through a matrix ``w`` with Ran(w) = Ran(p) and Ker(w) = Ran(q),
for which

    b = w (a w)^#  =  (w a)^# w  =  w (w a w)^- w
      = lim_{s -> 0} w (s + a w)^-1  =  integral_0^inf w exp(-(a w) t) dt,

giving four independent numerical routes that cross-validate each other.
Each call reads Ran and Ker of a, p and q, with Ran(1-q) = Ker(q) and
Ran(1-p) = Ker(p), from views that take each basis when a test first
reads it: a's off one SVD per call, and those of p and q from one view
each per problem, which every call on the problem at its tolerance reads,
by one rule: at rank r = tr m, the rank of an idempotent, Ran(m) with
Ran(m)^⊥ from one certified complete sketch QR from n = 32 on and Ker(m)
from that Ran(m)^⊥, or else cut at r off m's one SVD.
The package's w is U N^H, with U an orthonormal basis of Ran(p) and N one of
Ran(q)^⊥.  Then a w = (a U) N^H is a full-rank factorization, and the
group route w (a w)^# collapses to U C^-1 N^H with the r x r core
C = N^H a U, r = dim Ran(p): the candidate that the compute functions
return and :func:`diagnose` validates takes one SVD of C, which decides
that C is invertible and inverts it, never an n x n group inverse.  The
same SVD C = U_C S V_C^H gives sigma_min(C) and the unitary polar factor
Q = V_C U_C^H, with C Q = (C C^H)^(1/2): the limit and integral routes
of the compute functions run in the polar gauge w = U Q N^H, where the
nonzero spectrum of a w is sigma(C), with no eigensolve: the limit route
extrapolates over five shifts, and the integral route decays at
sigma_min(C).  Every route value but the group one is formed as b = L Y,
L orthonormal n x k and Y k x n, and its range and kernel gaps are read
off one thin SVD of Y.  The problem holds X = C^-1 N^H with Q and sigma_min(C) once
a call at its tolerance has built them, unless C's rank decision lies
near its cutoff, and each later call there forms b = U X from them; a
near build is repeated per call, so nothing held replays a decision.
The public route formulas take any admissible w and evaluate
the paper's expressions as written; the group and inner routes read
(a w)^#, (w a)^# and (w a w)^+ off one SVD of w, truncated at its rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import subspace as sub
from .densela import (
    DEFAULT_TOL,
    FRAGILITY_SCALES,
    PRODUCT_NOISE,
    Factored,
    Tolerances,
    adjoint,
    as_matrix,
    check_residual,
    eigenvalues,
    eq_bound,
    exp_integral,
    frob,
    idempotent_bases,
    idempotent_kernel,
    rank,
    rank_factorization,
    record,
    rounding_bound,
    snap,
    solve,
    solve_core,
    svd,
)
from .errors import (
    NonexistentInverseError,
    NumericalError,
    ShapeError,
    SpectrumError,
)
from .ginv import (
    drazin_inverse,
    factored_group_inverse,
    moore_penrose,
)

__all__ = [
    "PqProblem",
    "ExistenceReport",
    "PqResult",
    "diagnose",
    "matrix_with_range_kernel",
    "outer_inverse",
    "outer_inverse_strict",
    "one_two_inverse",
    "one_two_inverse_strict",
    "represent",
    "group_formula",
    "inner_formula",
    "limit_formula",
    "integral_formula",
    "moore_penrose_as_outer",
    "drazin_as_outer",
    "DEFAULT_LAMBDA_SCHEDULE",
]

DEFAULT_LAMBDA_SCHEDULE = tuple(10.0 ** (-k) for k in range(2, 9))


# A nonzero idempotent has spectral norm at least 1, so one at or below
# this Frobenius norm is cancellation noise standing in for 0, and is held as 0.
_IDEMPOTENT_NOISE = 0.5


def _check_idempotent(m: np.ndarray, name: str, tol: Tolerances) -> None:
    """Raise ValueError unless m² = m within eq_bound(m, m) and tr m lies
    within 0.25 of an integer, the rank that :class:`_Idempotent` reads off
    it.  The trace is linear, so that of a rounded idempotent is off its
    rank by about n ε ||m||, far inside that slack."""
    check_residual(frob(m @ m - m), eq_bound(m, m, tol),
                   f"{name} fails {name}² = {name}", ValueError)
    trace = complex(np.trace(m))
    check_residual(abs(trace - round(trace.real)), 0.25,
                   f"tr {name} is off an integer", ValueError)


@dataclass(frozen=True, eq=False)
class PqProblem:
    """A square matrix with two prescribed idempotents and tolerances.

    a, p and q are held as given, not copied (``np.asarray``: a complex128
    array is held itself), and must not be changed in place after
    construction: the norm of a, 1 - q and one :class:`_Idempotent` view
    each of p and q at ``tol`` are taken from them once, when first read,
    and every call on the problem reads those.  Beside the views the
    problem holds, read-only, the candidate's :class:`_Core` at ``tol``:
    the r x n factor X = C^-1 N^H of b = U X, and the polar factor Q and
    sigma_min(C) that the limit and integral routes read, all from C's
    one SVD.  The
    first call that builds them keeps them (:func:`_candidate`) unless C's
    rank decision lies near its cutoff: such a problem builds them per
    call, and nothing held replays a decision.  Neither the views nor the
    core hold a reference to the problem.

    p and q must be idempotents: p² = p within eq_bound, and tr p within
    0.25 of an integer, which is the rank that every view of p reads
    (:func:`_check_idempotent`); either failing is a ValueError.
    """

    a: np.ndarray
    p: np.ndarray
    q: np.ndarray
    tol: Tolerances = DEFAULT_TOL

    def __post_init__(self):
        a = as_matrix(self.a, "a")
        p = as_matrix(self.p, "p")
        q = as_matrix(self.q, "q")
        if a.shape[0] != a.shape[1]:
            raise ShapeError(f"a must be square, got shape {a.shape}")
        if p.shape != a.shape or q.shape != a.shape:
            raise ShapeError(
                f"a, p, q must share one shape, got {a.shape}, {p.shape}, {q.shape}"
            )
        _check_idempotent(p, "p", self.tol)
        _check_idempotent(q, "q", self.tol)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "p", snap(p, _IDEMPOTENT_NOISE))
        object.__setattr__(self, "q", snap(q, _IDEMPOTENT_NOISE))

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @cached_property
    def one_minus_q(self) -> np.ndarray:
        return snap(np.eye(self.n, dtype=np.complex128) - self.q, _IDEMPOTENT_NOISE)

    @cached_property
    def a_norm(self) -> float:
        """||a||_F, which the rounding floors of the core, of F and of
        a . Ran(p) read, at every threshold diagnose repeats."""
        return frob(self.a)

    @cached_property
    def _views(self) -> tuple[_Idempotent, _Idempotent]:
        """The :class:`_Idempotent` views of p and of q at ``tol``, which the
        :class:`_Spaces` of every call on the problem at that tolerance share."""
        return _Idempotent(self.p, self.tol), _Idempotent(self.q, self.tol)


@dataclass(frozen=True, eq=False)
class ExistenceReport:
    """Side-by-side verdicts of every existence criterion.

    The boolean fields are computed independently of each other, so
    ``equivalence_consistent`` is a genuine cross-check of the theory
    rather than a tautology.  ``fragile`` flags verdicts that flip when
    the rank threshold moves by ``densela.FRAGILITY_FACTOR`` (ten) either
    way.  ``cond6`` is whether t m = p and m s = 1 - q are solvable for
    m = (1-q) a p, decided on the n x r factor F = (1-q) a U, U an
    orthonormal basis of Ran(p), never on m.  The report holds verdicts and
    dimensions only, no matrix.
    """

    ker_cap_ranp_trivial: bool
    direct_sum: bool
    image_match: bool
    cond5: bool
    cond6: bool
    strict_exists: bool
    l_exists: bool
    l12_exists: bool
    strict12_exists: bool
    dim_ran_p: int
    dim_ran_q: int
    rank_a: int
    fragile: bool
    tol: Tolerances = field(repr=False, default=DEFAULT_TOL)

    @property
    def equivalence_consistent(self) -> bool:
        """All equivalent formulations of subspace-outer existence agree."""
        return (
            self.l_exists
            == (self.direct_sum and self.ker_cap_ranp_trivial)
            == self.cond5
            == self.cond6
        )

    VERDICTS = ("ker_cap_ranp_trivial", "direct_sum", "image_match", "cond5", "cond6",
                "strict_exists", "l_exists", "l12_exists", "strict12_exists")

    def booleans(self) -> dict[str, bool]:
        return {name: getattr(self, name) for name in self.VERDICTS}

    def to_json_dict(self) -> dict:
        out: dict = dict(sorted(self.booleans().items()))
        out["dims"] = {
            "dim_ran_p": self.dim_ran_p,
            "dim_ran_q": self.dim_ran_q,
            "rank_a": self.rank_a,
        }
        out["fragile"] = self.fragile
        out["equivalence_consistent"] = self.equivalence_consistent
        out["tolerances"] = self.tol.to_json_dict()
        return out


@dataclass(frozen=True, eq=False)
class PqResult:
    """A computed inverse, how it was computed, and its residuals."""

    kind: str  # outer2 | outer2l | one_two_l | one_two_strict
    b: np.ndarray
    route: str
    residuals: dict[str, float]


def matrix_with_range_kernel(p, q, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """A matrix w with Ran(w) = Ran(p) and Ker(w) = Ran(q).

    Built as U N^H from an orthonormal basis U of Ran(p) and an
    orthonormal basis N of the orthogonal complement of Ran(q).  Such a
    w exists exactly when dim Ran(p) + dim Ran(q) equals the ambient
    dimension; otherwise NonexistentInverseError is raised.  p and q are
    checked as :class:`PqProblem` checks them: a non-idempotent raises
    ValueError.
    """
    p = as_matrix(p, "p")
    q = as_matrix(q, "q")
    if p.shape != q.shape or p.shape[0] != p.shape[1]:
        raise ShapeError(f"p and q must be square of one size, got {p.shape}, {q.shape}")
    _check_idempotent(p, "p", tol)
    _check_idempotent(q, "q", tol)
    spaces = _Spaces(None, p, q, tol)
    broken = _dimension_failure(spaces)
    if broken:
        raise NonexistentInverseError(broken)
    return _witness(spaces)


def _held(basis: np.ndarray) -> sub.Subspace:
    """The subspace of ``basis``, which is held read-only from here on."""
    basis.flags.writeable = False
    return sub.Subspace._cut(basis)


class _Idempotent:
    """Ran(m), its orthogonal complement Ran(m)^⊥ and Ker(m) = Ran(1 - m) of
    one idempotent m at one tolerance, each taken when first read, by one
    rule for p and q.  m's rank is r = round(Re tr m), read once: the rank
    of an idempotent is its trace, and every nonzero singular value of one
    is at least 1, so no rank cutoff decides it.  From n =
    ``densela._SKETCH_MIN`` on, Ran(m) and Ran(m)^⊥ are one certified
    complete QR of a sketch of m at r (:func:`densela.idempotent_bases`),
    and Ker(m) comes from that Ran(m)^⊥ (:func:`densela.idempotent_kernel`):
    itself where m maps it to within the certificate's bound, else the QR of
    (1 - m) Ran(m)^⊥ under the same certificate on 1 - m.  Below that
    order, or once either refuses, m's one SVD is taken and kept, and every
    basis of m read after that is cut from it at r: the leading r and the
    trailing n - r left singular vectors, and the trailing n - r right
    ones.  That SVD must put sigma_r+1(m) within eq_bound(m, m), the bound
    that m² = m was checked to, else NumericalError.  A :class:`PqProblem`
    holds one view each of p and q, shared by its calls, so each basis is
    held read-only."""

    def __init__(self, m, tol: Tolerances):
        self.m, self.tol = m, tol

    @cached_property
    def r(self) -> int:
        return round(complex(np.trace(self.m)).real)

    @cached_property
    def _sketch(self) -> tuple | None:
        return idempotent_bases(self.m, self.r, self.tol)

    @cached_property
    def _svd(self) -> Factored:
        f, r = svd(self.m), self.r
        # to first order sigma_r+1(m) <= ||m² - m||, which the input check bounds
        if r < f.s.size:
            check_residual(f.s[r], eq_bound(self.m, self.m, self.tol),
                           f"sigma_{r + 1} of an idempotent of trace {r} is not at its noise floor")
        return f

    @cached_property
    def ran(self) -> sub.Subspace:
        return _held(self._sketch[0] if self._sketch else self._svd.u[:, :self.r].copy())

    @cached_property
    def co(self) -> sub.Subspace:
        return _held(self._sketch[1] if self._sketch else self._svd.u[:, self.r:].copy())

    @cached_property
    def ker(self) -> sub.Subspace:
        basis = self._sketch and idempotent_kernel(self.m, self._sketch[1], self.tol)
        return _held(self._svd.vh[self.r:].conj().T if basis is None else basis)


class _Spaces:
    """The subspaces of a, p and q that one call reads, at one tolerance:
    one :class:`_Idempotent` view each of p and q, and a's one SVD, which
    gives Ran(a), Ker(a) and the row space Ker(a)^⊥.  Each basis is taken
    the first time a test reads it, and no other, so a test that fails
    early leaves the later ones untaken; the n x r product a U is taken
    once, when first read.  a's SVD and a U belong to the one call; the
    views of p and q are the problem's own at its tolerance
    (:meth:`of`), so a basis of p or q is taken once per problem."""

    def __init__(self, a, p, q, tol: Tolerances):
        self.a, self.tol = a, tol
        self.p, self.q = _Idempotent(p, tol), _Idempotent(q, tol)

    @classmethod
    def of(cls, prob: PqProblem, tol: Tolerances) -> _Spaces:
        """The view of ``prob`` at ``tol``: on the problem's own views of p and
        q when ``tol`` is prob.tol, else on fresh ones."""
        if tol is not prob.tol:
            return cls(prob.a, prob.p, prob.q, tol)
        spaces = cls.__new__(cls)
        spaces.a, spaces.tol = prob.a, tol
        spaces.p, spaces.q = prob._views
        return spaces

    ran_a = property(lambda self: self._of_a[0])
    ker_a = property(lambda self: self._of_a[1])
    row_a = property(lambda self: self._of_a[2])

    @cached_property
    def _of_a(self) -> tuple:
        """Ran(a), Ker(a) and its orthogonal complement, the row space of
        a, all cut from a's one SVD."""
        f, tol = svd(self.a), self.tol
        return tuple(sub.Subspace._cut(read(tol))
                     for read in (f.range_basis, f.null_basis, f.row_basis))

    @cached_property
    def a_u(self) -> np.ndarray:
        """a U, U the basis of Ran(p): the one n x r product that a . Ran(p),
        the core N^H a U and F = (1-q) a U read."""
        return self.a @ self.p.ran.basis

    @cached_property
    def ker_a_meets_ran_p(self) -> bool:
        """Whether Ker(a) ∩ Ran(p) = {0}, read from Ran(p)'s side: the sines
        of the principal angles from Ran(p) to Ker(a) are the singular values
        of V^H U, U the basis of Ran(p) and V that of the row space Ker(a)^⊥
        (:func:`subspace._meets_complement_trivially`)."""
        return sub._meets_complement_trivially(self.p.ran, self.row_a, self.tol)


def _dimension_failure(spaces: _Spaces) -> str:
    """The dimension obstruction to a w with Ran(w) = Ran(p) and
    Ker(w) = Ran(q), or "" when dim Ran(p) + dim Ran(q) = n."""
    d_p, d_q, n = spaces.p.ran.dim, spaces.q.ran.dim, spaces.p.ran.ambient
    if d_p + d_q == n:
        return ""
    return f"dimension obstruction: dim Ran(p) + dim Ran(q) = {d_p} + {d_q} != {n}"


def _witness(spaces: _Spaces) -> np.ndarray:
    """w = U N^H from the basis U of Ran(p) and the basis N of Ran(q)^⊥."""
    return spaces.p.ran.basis @ adjoint(spaces.q.co.basis)


def _no_outer_inverse(reason: str) -> NonexistentInverseError:
    return NonexistentInverseError(f"subspace outer inverse does not exist: {reason}")


class _Core(NamedTuple):
    """What the candidate keeps of its r x r core C = N^H a U, all from C's
    one SVD C = U_C S V_C^H: X = C^-1 N^H, which gives b = U X; the unitary
    polar factor Q = V_C U_C^H, with C Q = U_C S U_C^H = (C C^H)^(1/2); and
    sigma_min(C), inf at r = 0.  Q and sigma_min(C) are what the limit
    and integral routes read (:func:`_polar_limit`, :func:`_polar_integral`)."""

    x: np.ndarray
    polar: np.ndarray
    s_min: float


def _polar(core_svd: Factored) -> tuple[np.ndarray, float]:
    """The polar factor Q = V_C U_C^H = (U_C V_C^H)^H and sigma_min(C), inf
    for a 0 x 0 C, off the SVD C = U_C S V_C^H of an r x r core: no LAPACK."""
    s = core_svd.s  # descending
    return adjoint(core_svd.u @ core_svd.vh), float(s[-1]) if s.size else np.inf


def _candidate(prob: PqProblem, spaces: _Spaces) -> tuple[np.ndarray, _Core]:
    """The subspace-outer candidate b, from Ran(p), Ran(q) and its
    orthogonal complement, with the :class:`_Core` it was formed from.

    With U and N the orthonormal bases of Ran(p) and Ran(q)^⊥ and
    w = U N^H, the factorization a w = (a U) N^H has full rank, so the
    paper's w (a w)^# is  b = U C^-1 N^H  with the r x r core  C = N^H a U
    (the full-rank representation of A^(2)_{T,S}).  The inverse exists
    exactly when C is invertible, decided by :func:`densela.solve_core` on
    the one SVD of C that also gives C^-1: C must have rank r = dim Ran(p)
    at rank_rtol, and a C at the rounding floor of its factors counts as 0;
    at r = 0, b = 0.  This is the definitional existence test, independent
    of the subspace criteria used by :func:`diagnose`; a failure, the
    dimension obstruction included, raises NonexistentInverseError.  The
    same SVD gives the core's polar factor and sigma_min(C)
    (:func:`_polar`), with no LAPACK call.

    The rank decision on C is also b's: b's nonzero singular values are
    those of C^-1.  So Ran(b) = Ran(U) = Ran(p) and Ker(b) = Ker(N^H) =
    Ran(q) hold by construction, with no SVD of b.  b a b = b is checked
    in the core's coordinates: with X = C^-1 N^H, b a b - b = U (X (a U) X
    - X), whose Frobenius norm is that of X (a U) X - X because U is
    orthonormal, and eq_bound(X, X) is eq_bound(b, b).  Formed on r x n
    factors, the residual rounds at ||X||^2 ||a U||, which grows with the
    condition of C, so it passes within :func:`densela.rounding_bound` of
    that scale, and no n x n product b a b is taken.  In exact arithmetic
    the identity holds whenever C is invertible, so a failure after the
    rank rule has called C invertible is numerical: NumericalError.

    The core is built here and nowhere else.  On the problem's own views
    (``spaces`` at prob.tol, :meth:`_Spaces.of`), a core that passed every
    check is kept on the problem read-only, and later calls there read it
    and form b = U X themselves, so no returned b is a held array; U is
    the view's own.  Not kept: a refusal, whose call raises again, a core
    at any other tolerance, such as :func:`diagnose`'s scaled repeats, and
    a core whose rank decision lies near its cutoff; the bases of p and q
    decide no rank (:class:`_Idempotent`).  A near core is built per call,
    so that every :func:`densela.record` block that reads the candidate
    sees that it is near, as on a fresh problem, and nothing held replays
    a decision.
    """
    own = spaces.tol is prob.tol  # the spaces read the problem's own views (_Spaces.of)
    if own and (held := prob.__dict__.get("_core")) is not None:
        return spaces.p.ran.basis @ held.x, held
    broken = _dimension_failure(spaces)
    if broken:
        raise _no_outer_inverse(broken)
    tol, a_u, u = spaces.tol, spaces.a_u, spaces.p.ran.basis
    r = u.shape[1]
    nh = spaces.q.co.basis.conj().T
    # N and U have unit columns, so the factors' norms are sqrt(r) each
    xn, core = solve_core(nh @ a_u, PRODUCT_NOISE * r * prob.a_norm, tol)
    if xn is None:
        raise _no_outer_inverse("the core C = N^H a U is singular (rank C < dim Ran(p))")
    # the 0 x 0 core is inverted without an SVD, and its polar factor is 0 x 0
    polar, s_min = (_polar(core) if core is not None
                    else (np.zeros((0, 0), dtype=np.complex128), np.inf))
    xn = xn @ nh  # X = C^-1 N^H, rebound so that C^-1 is not held beside it
    xbx = xn @ a_u @ xn
    residual = frob(xbx - xn)
    # the product rounds at its factors' norms, ||X||^2 ||a U||, which grow
    # with κ(C); they are read only for a residual not within eq_bound (NaN too)
    if not residual <= eq_bound(xbx, xn, tol):
        check_residual(residual, rounding_bound(xbx, xn, frob(xn) ** 2 * frob(a_u), tol),
                       "candidate fails b a b = b although its core is invertible")
    found = _Core(xn, polar, s_min)
    # the core's SVD keeps its (rank, near) decision per rank_rtol
    if own and not (core is not None and core._ranks[tol.rank_rtol][1]):
        xn.flags.writeable = polar.flags.writeable = False
        prob.__dict__["_core"] = found
    return u @ xn, found


def _check_drift(b: np.ndarray, b_group: np.ndarray, tol: Tolerances, what: str):
    """Raise NumericalError, its message begun by ``what``, when a route value
    b is farther than conv_tol · max(1, ||b_group||_F) from the group value."""
    check_residual(frob(b - b_group), tol.conv_tol * max(1.0, frob(b_group)), what)


def _route_factors(a: np.ndarray, spaces: _Spaces, core: _Core, route: str, b_norm: float,
                   tol: Tolerances) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The value b = L Y of the inner, limit or integral ``route`` with its
    factors (L, Y), L orthonormal n x k and Y k x n.  The inner route reads
    the witness w = U N^H and takes L off w's own SVD (:func:`_inner_route`).
    The limit and integral routes run in the polar gauge w = U g, g = Q N^H,
    on the call's a U and the core's Q and sigma_min(C), so L = U, the basis
    of Ran(p), and Y is g's route value, r x n; ``b_norm`` is ||b||_F of the
    group value, which the limit route's estimate is gated at."""
    if route == "inner":
        return _inner_route(a, _witness(spaces), tol)
    u, g = spaces.p.ran.basis, core.polar @ adjoint(spaces.q.co.basis)
    if route == "limit":
        y = _polar_limit(spaces.a_u, g, core.s_min, b_norm, tol)[0]
    else:
        y = _polar_integral(spaces.a_u, g, core.s_min, tol)[0]
    return u @ y, (u, y)


def _factored_gaps(l: np.ndarray, y: np.ndarray, ran_p: sub.Subspace, co_q: sub.Subspace,
                   tol: Tolerances) -> tuple[float, float]:
    """gap(Ran(b), Ran(p)) and gap(Ker(b), Ran(q)) for b = L Y, L orthonormal
    n x k and Y k x n, off one thin SVD of Y and the view's Ran(q)^⊥ ``co_q``.

    L is orthonormal, so b has Y's singular values and Y's rank decision at
    rank_rtol, Ran(b) = L Ran(Y), and Ker(b) = Ker(Y), the orthogonal
    complement of Y's row space.  At equal dimensions gap(S, T) =
    ||P_S - P_T||_2 = gap(S^⊥, T^⊥), so the kernel gap is that of Y's row
    space from Ran(q)^⊥; at unequal ones both gaps are 1.0 (:func:`sub.gap`).
    """
    f = svd(y, thin=True)
    ran_b = sub.Subspace._cut(l @ f.range_basis(tol))
    return sub.gap(ran_b, ran_p), sub.gap(sub.Subspace._cut(f.row_basis(tol)), co_q)


def _strict_products(prob: PqProblem, ba: np.ndarray, ab: np.ndarray,
                     tol: Tolerances) -> tuple[bool, float, float]:
    """Whether b a = p and a b = 1 - q hold, given b a and a b, with both residuals."""
    one_mq = prob.one_minus_q
    ba_res, ab_res = frob(ba - prob.p), frob(ab - one_mq)
    holds = ba_res <= eq_bound(ba, prob.p, tol) and ab_res <= eq_bound(ab, one_mq, tol)
    return holds, ba_res, ab_res


def _l12_failure(spaces: _Spaces) -> str:
    """The first failing decomposition of {1,2}-existence, or "".

    C^n = Ker(a) ∔ Ran(p) is dim Ker(a) + dim Ran(p) = n with
    Ker(a) ∩ Ran(p) = {0}.  p is read only once C^n = Ran(a) ∔ Ran(q)
    holds.
    """
    if not sub._is_direct_sum_with_complement(spaces.ran_a, spaces.q.co, spaces.tol):
        return "C^n = Ran(a) ∔ Ran(q)"
    # dim Ker(a) + dim Ran(p) = n is dim Ran(p) = rank a
    if spaces.p.ran.dim != spaces.ran_a.dim or not spaces.ker_a_meets_ran_p:
        return "C^n = Ker(a) ∔ Ran(p)"
    return ""


def _strict12_failure(spaces: _Spaces) -> str:
    """The first failing subspace equality of strict {1,2}-existence, or "".

    Ran(1-q) and Ran(1-p) are Ker(q) and Ker(p); p is read only once
    Ran(a) = Ran(1-q) holds.
    """
    if not sub.equals(spaces.ran_a, spaces.q.ker, spaces.tol):
        return "Ran(a) = Ran(1-q)"
    if not sub.equals(spaces.ker_a, spaces.p.ker, spaces.tol):
        return "Ker(a) = Ran(1-p)"
    return ""


def _cond5_cond6(prob: PqProblem, spaces: _Spaces) -> tuple[bool, bool]:
    """cond5 and cond6 for m = (1-q) a p, from one SVD of the n x r factor
    F = (1-q) a U, U the basis of Ran(p).

    p = U G with G = U^H p of full row rank, so m = F G, and cond5 is
    rank F = dim Ran(p) = dim Ker(q).  cond6 is two residual tests on F:
    t = U F^+ solves t m = p when F^+ F = 1, and, as G U = 1,
    s = U F^+ (1-q) solves m s = 1-q when F F^+ K = K, K the basis of
    Ker(q).  Each residual may sit at its product's rounding floor
    (:func:`densela.rounding_bound`), because F carries the condition of
    1-q, which no solution removes.  F is snapped to 0 at the rounding
    floor of its factors, as :func:`subspace.image` snaps.
    """
    tol, u, ker_q, one_mq = spaces.tol, spaces.p.ran.basis, spaces.q.ker.basis, prob.one_minus_q
    r = u.shape[1]
    f = one_mq @ spaces.a_u
    f_norm = frob(f)
    # U has unit columns, so its norm is sqrt(r)
    f = snap(f, PRODUCT_NOISE * frob(one_mq) * prob.a_norm * np.sqrt(r), f_norm)
    f_svd = svd(f, thin=True)  # F^+ and rank F read no complement of Ran(F)
    cond5 = f_svd.rank(tol) == r == ker_q.shape[1]
    f_pinv = f_svd.pinv(tol)
    f_pinv_k = f_pinv @ ker_q
    t_res = frob(f_pinv @ f - np.eye(r))
    s_res = frob(f @ f_pinv_k - ker_q)
    # a snapped F has F^+ = 0, so its norm before the snap gives the same bounds
    cond6 = (t_res <= rounding_bound(u, u, frob(f_pinv) * f_norm, tol)
             and s_res <= rounding_bound(ker_q, ker_q, f_norm * frob(f_pinv_k), tol))
    return cond5, cond6


def _booleans_at(prob: PqProblem, tol: Tolerances) -> ExistenceReport:
    """All existence criteria at one rank threshold, each computed on its own
    from the subspaces of one :class:`_Spaces` view, each input factored once
    and a U formed once; the report is not fragile at its own threshold.

    C^n = Ker(a) ∔ Ran(p) reuses the one principal-angle decision of
    ker_cap_ranp_trivial.
    """
    a = prob.a
    spaces = _Spaces.of(prob, tol)
    a_ran_p = sub._image_of(spaces.a_u, prob.a_norm, tol)

    direct = sub._is_direct_sum_with_complement(a_ran_p, spaces.q.co, tol)
    image_match = sub.equals(a_ran_p, spaces.q.ker, tol)
    cond5, cond6 = _cond5_cond6(prob, spaces)

    try:
        b = _candidate(prob, spaces)[0]
    except NonexistentInverseError:
        b = None
    l_exists = b is not None
    strict = l_exists and _strict_products(prob, b @ a, a @ b, tol)[0]

    l12 = not _l12_failure(spaces)
    strict12 = l12 and not _strict12_failure(spaces)

    return ExistenceReport(
        ker_cap_ranp_trivial=spaces.ker_a_meets_ran_p,
        direct_sum=direct,
        image_match=image_match,
        cond5=cond5,
        cond6=cond6,
        strict_exists=strict,
        l_exists=l_exists,
        l12_exists=l12,
        strict12_exists=strict12,
        dim_ran_p=spaces.p.ran.dim,
        dim_ran_q=spaces.q.ran.dim,
        rank_a=spaces.ran_a.dim,
        fragile=False,
        tol=tol,
    )


def diagnose(prob: PqProblem) -> ExistenceReport:
    """Evaluate every existence criterion and flag tolerance-fragile verdicts.

    Each criterion is computed on its own (subspace dimensions, range
    containments, cond5 and cond6 from one SVD of the n x r
    factor F = (1-q) a U, and the definitional candidate on the r x r core
    N^H a U), so disagreement between fields is detectable.  The criteria
    share the bases of the inputs and the one n x r product a U only: each
    basis of a, p and q is taken once, when a test first reads it
    (:class:`_Spaces`), those of p and q from the problem's own views,
    which every call on it shares, with Ran(1-q) and Ran(1-p) read as Ker(q) and
    Ker(p); Ker(p) is read only by the strict {1,2} test, once
    Ran(a) = Ran(1-q) holds.  No n x n (1-q) a p, b a b or SVD of b is
    formed.  A verdict is fragile when it flips with the rank threshold
    scaled by ``densela.FRAGILITY_FACTOR`` (ten) either way.  The diagnosis is
    repeated at those two thresholds only when one of its rank decisions
    (each a singular-value count) lies within that factor of its cutoff.
    Skipping the repeats otherwise is exact: the threshold enters only
    through those decisions, so each repeat would make the same decisions,
    perform the same operations and return the same verdicts.  The repeats
    take their own bases of p and q, at their own thresholds.
    """
    tol = prob.tol
    with record() as rec:
        base = _booleans_at(prob, tol)
    # any() stops at the first flip, so the second repeat runs only when needed
    fragile = rec.near and any(
        _booleans_at(prob, replace(tol, rank_rtol=tol.rank_rtol * scale)).booleans()
        != base.booleans()
        for scale in FRAGILITY_SCALES
    )
    return replace(base, fragile=True) if fragile else base


# the route names, checked by _route_result's callers before any work
_ROUTES = ("group", "inner", "limit", "integral")


def _check_route(route: str) -> None:
    if route not in _ROUTES:
        raise ValueError(f"unknown route {route!r}")


def _route_result(prob: PqProblem, w: np.ndarray | None, b_group: np.ndarray, route: str,
                  lambda_min: float = DEFAULT_LAMBDA_SCHEDULE[-1],
                  horizon: float | None = None) -> tuple[np.ndarray, str, list[tuple]]:
    """The value of ``route`` for w, its PqResult name and its trace, given
    the group value, which the group route returns without reading w; the
    shifts and horizons are those :func:`represent` describes."""
    tol = prob.tol
    if route == "group":
        return b_group, "group_formula", []
    if route == "inner":
        return inner_formula(prob.a, w, tol), "inner_formula", []
    if route == "limit":
        schedule = [s for s in DEFAULT_LAMBDA_SCHEDULE if s >= lambda_min]
        if not schedule or schedule[-1] > lambda_min:
            schedule.append(lambda_min)
        b, trace = limit_formula(prob.a, w, schedule, tol)
        return b, "limit", trace
    horizons = [None] if horizon is None else [horizon / 2 ** k for k in reversed(range(4))]
    b, trace = None, []
    for k, h in enumerate(horizons):
        try:
            estimate, tail = integral_formula(prob.a, w, horizon=h, tol=tol)
        except ValueError:
            if k == len(horizons) - 1:
                raise  # the requested horizon itself is too short
            continue  # a sweep point below the minimum horizon
        err = frob(estimate - b) if b is not None else float("nan")
        trace.append((h if h is not None else float("nan"), err, tail))
        b = estimate
    return b, "integral", trace


def represent(prob: PqProblem, route: str, lambda_min: float = DEFAULT_LAMBDA_SCHEDULE[-1],
              horizon: float | None = None) -> tuple[np.ndarray, list[tuple]]:
    """The subspace outer inverse along the limit or integral ``route``, as
    :func:`outer_inverse` decides and checks it, with the route's trace.

    The limit route runs the default shifts down to ``lambda_min``, which is
    appended when off that grid; its trace holds (shift, Cauchy difference)
    rows.  The integral route runs ``horizon`` and its halves down to h/8,
    skipping a sweep point below the minimum horizon but not h itself, or
    once on the automatic horizon; its trace holds (horizon, Cauchy
    difference, tail bound) rows, NaN for an absent value.
    """
    _check_route(route)
    spaces = _Spaces.of(prob, prob.tol)
    b_group = _candidate(prob, spaces)[0]
    w = _witness(spaces)
    del spaces  # the call's n x r product a U is not held through the route
    b, _, trace = _route_result(prob, w, b_group, route, lambda_min, horizon)
    _check_drift(b, b_group, prob.tol, "representation drifts from the direct value")
    return b, trace


# PqResult.kind by (strict, reflexive)
_KINDS = {(True, False): "outer2", (False, False): "outer2l",
          (True, True): "one_two_strict", (False, True): "one_two_l"}


def _pq_inverse(prob: PqProblem, route: str, strict: bool, reflexive: bool) -> PqResult:
    """The inverse with b a b = b, Ran(b) = Ran(p), Ker(b) = Ran(q), plus
    b a = p, a b = 1 - q when ``strict`` and a b a = a when ``reflexive``.

    The tests run once each, in this order: the strict {1,2} subspace
    equalities, the {1,2} decompositions, the definitional candidate, the
    limit route's own estimate (:func:`_polar_limit`) or the integral
    route's tail bound (:func:`_polar_integral`), the route value's drift
    gate, a b a = a when ``reflexive``, and the strict products; a rejected
    strict outer inverse forms no a b a.  The residuals are built only
    after every test has passed.

    Every route but the group route gives its value as b = L Y, with L an
    orthonormal n x k basis and Y a k x n factor (:func:`_route_factors`),
    so its range and kernel gaps are read off one thin SVD of Y
    (:func:`_factored_gaps`), never off an n x n SVD of b.
    """
    _check_route(route)
    tol, a = prob.tol, prob.a
    spaces = _Spaces.of(prob, tol)
    if strict and reflexive:
        broken = _strict12_failure(spaces)
        if broken:
            raise NonexistentInverseError(f"subspace equality {broken} fails")
    if reflexive:
        broken = _l12_failure(spaces)
        if broken:
            raise NonexistentInverseError(f"decomposition {broken} fails")
    b_group, core = _candidate(prob, spaces)
    if route == "group":
        del spaces  # the call's n x r product a U is not held through the products
        # the group value's Ran and Ker are the view's bases by construction (_candidate)
        b, route_name, range_gap, kernel_gap = b_group, "group_formula", 0.0, 0.0
    else:
        ran_p, co_q = spaces.p.ran, spaces.q.co
        b, (l, y) = _route_factors(a, spaces, core, route, frob(b_group), tol)
        del spaces
        route_name = "inner_formula" if route == "inner" else route
        _check_drift(b, b_group, tol, f"route '{route_name}' disagrees with the group formula")
        range_gap, kernel_gap = _factored_gaps(l, y, ran_p, co_q, tol)
    ba, ab = b @ a, a @ b
    holds, ba_res, ab_res = _strict_products(prob, ba, ab, tol)
    if strict and not holds and not reflexive:
        raise NonexistentInverseError(
            "strict (p,q)-outer inverse does not exist: "
            f"ba ≠ p (residual {ba_res:.3e}) or ab ≠ 1-q (residual {ab_res:.3e})",
            residuals={"ba_minus_p": ba_res, "ab_minus_1mq": ab_res},
        )
    inner_res = frob(ab @ a - a)
    if reflexive:
        check_residual(inner_res, eq_bound(a, a, tol),
                       "a b a = a failed although both decompositions hold")
        if strict and not holds:
            raise NumericalError(
                "product identities failed although the subspace equalities hold: "
                f"|ba-p|={ba_res:.3e}, |ab-(1-q)|={ab_res:.3e}"
            )
    p, one_mq = prob.p, prob.one_minus_q
    return PqResult(_KINDS[strict, reflexive], b, route_name, {
        "outer": frob(ba @ b - b),
        "inner": inner_res,
        "range_gap": range_gap,
        "kernel_gap": kernel_gap,
        "ba_minus_p": ba_res,
        "ab_minus_1mq": ab_res,
        "fix_left": frob(p @ b - b),
        "gen_left": frob(ba @ p - p),
        "fix_right": frob(b @ one_mq - b),
        "gen_right": frob(one_mq @ ab - one_mq),
    })


def outer_inverse(prob: PqProblem, route: str = "group") -> PqResult:
    """The outer inverse with Ran(b) = Ran(p) and Ker(b) = Ran(q).

    Decides existence through the definitional candidate; when a
    representation route other than the group formula is requested the
    candidate is recomputed along it and checked against the group-route
    value at the convergence tolerance.  The limit and integral routes run
    in the polar gauge w = U Q N^H and check their own estimate or tail
    bound first (:func:`_polar_limit`, :func:`_polar_integral`).
    """
    return _pq_inverse(prob, route, strict=False, reflexive=False)


def outer_inverse_strict(prob: PqProblem, route: str = "group") -> PqResult:
    """The strict outer inverse (b a = p, a b = 1 - q), when it exists.

    The unique subspace-outer candidate is computed first; strictness is
    then decided by testing the two product identities.  Nonexistence is
    reported with the failing residuals attached.
    """
    return _pq_inverse(prob, route, strict=True, reflexive=False)


def one_two_inverse(prob: PqProblem, route: str = "group") -> PqResult:
    """The {1,2}-inverse with prescribed range and kernel subspaces."""
    return _pq_inverse(prob, route, strict=False, reflexive=True)


def one_two_inverse_strict(prob: PqProblem, route: str = "group") -> PqResult:
    """The {1,2}-inverse with b a = p and a b = 1 - q, when it exists."""
    return _pq_inverse(prob, route, strict=True, reflexive=True)


# ---------------------------------------------------------------------------
# Representation routes.  Each takes the raw (a, w) pair so it can be
# exercised and cross-validated independently of the problem wrapper.
# ---------------------------------------------------------------------------


def _route_operands(a, w) -> tuple[np.ndarray, np.ndarray]:
    """a and w as matrices, checked to have the shapes a w and w a need."""
    a = as_matrix(a, "a")
    w = as_matrix(w, "w")
    if a.shape[1] != w.shape[0] or a.shape[0] != w.shape[1]:
        raise ShapeError(f"incompatible shapes a {a.shape}, w {w.shape}")
    return a, w


def _group_route(a: np.ndarray, w: np.ndarray,
                 tol: Tolerances) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """The group-route value b = w (a w)^#, (w a)^#, and the factors
    (U, s, V^H, V^H a U S) of w and of the k x k core that
    :func:`inner_formula` reads w (w a w)^+ w and its witness off.

    One SVD of w = U S V^H, truncated at k = rank(w), factors both products:
    once rank(a w) = k, a w = (a U S) V^H and (w a)^H = (a^H V S) U^H are
    full-rank factorizations with orthonormal G, so Cline's F (G F)^-2 G
    (:func:`ginv.factored_group_inverse`) gives (a w)^# from the k x k core
    V^H a U S and (w a)^# as the adjoint of its value on the core
    U^H a^H V S.  As rank(a w) = rank(w) - dim(Ker(a) ∩ Ran(w)), the
    precondition Ker(a) ∩ Ran(w) = {0} is rank(a w) = k, with rank(a w)
    read off a w's own singular values.  Every cross-check of
    :func:`group_formula` runs here, so each caller of the group route
    gets them all.
    """
    f = svd(w)
    k = f.rank(tol)
    u, s, vh = f.u[:, :k].copy(), f.s[:k], f.vh[:k].copy()
    del f  # the whole n x n factors are not held through the route
    aw = a @ w
    # rank(a U S) at its own scale would read an n x k a U S that is all
    # noise, as when Ker(a) ∩ Ran(w) = Ran(w), as rank k; the noise of a w
    # spreads over its n columns, so a w's own singular values show the loss
    if rank(aw, tol) != k:
        raise NonexistentInverseError("Ker(a) ∩ Ran(w) ≠ {0}")
    fw = a @ (u * s)
    core = vh @ fw
    g_aw = factored_group_inverse(fw, core, vh, tol)
    del fw
    # (w a)^# is factored only when (a w)^# exists
    if g_aw is None or (g_wa := _adjoint_group(a, u, s, vh, tol)) is None:
        raise NonexistentInverseError("aw (or wa) has no group inverse")
    b = w @ g_aw
    b_alt = g_wa @ w
    check_residual(frob(b - b_alt), eq_bound(b, b_alt, tol), "(wa)^# w and w (aw)^# disagree")
    # the anchor identities, with c = (aw)^#, on one a w c
    awc = aw @ g_aw
    del b_alt, aw, g_aw
    anchor = w @ awc
    check_residual(frob(anchor - w), eq_bound(anchor, w, tol), "w a w c = w failed")
    del anchor
    anchor_b = b @ awc
    check_residual(frob(anchor_b - b), eq_bound(anchor_b, b, tol), "b a w c = b failed")
    return b, g_wa, (u, s, vh, core)


def _adjoint_group(a: np.ndarray, u: np.ndarray, s: np.ndarray, vh: np.ndarray,
                   tol: Tolerances) -> np.ndarray | None:
    """(w a)^# for w = U S V^H, or None when w a has index above one: the
    adjoint of the group inverse of (w a)^H = (a^H V S) U^H."""
    f2 = adjoint(a) @ (adjoint(vh) * s)
    uh = adjoint(u)
    g = factored_group_inverse(f2, uh @ f2, uh, tol)
    return None if g is None else adjoint(g)


def _inner_factor(s: np.ndarray, vh: np.ndarray, waw: np.ndarray,
                  tol: Tolerances) -> np.ndarray:
    """Y = S K^+ (S V^H), the k x n factor of w (w a w)^+ w = U Y, for
    w = U S V^H and the k x k ``waw`` K = S V^H a U S, with w a w = U K V^H:
    U and V are orthonormal, so (w a w)^+ = V K^+ U^H, K has the singular
    values of w a w, and one SVD of K decides its rank."""
    return (s[:, None] * svd(waw).pinv(tol)) @ (s[:, None] * vh)


def _inner_route(a: np.ndarray, w: np.ndarray,
                 tol: Tolerances) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """:func:`inner_formula`'s value b = U Y, after all its checks, with its
    factors (U, Y): U the orthonormal n x k left singular vectors of w and
    Y = S K^+ (S V^H) (:func:`_inner_factor`)."""
    b_ref, g_wa, (u, s, vh, core) = _group_route(a, w, tol)
    waw = s[:, None] * core
    y = _inner_factor(s, vh, waw, tol)
    b = u @ y
    check_residual(frob(b - b_ref), eq_bound(b, b_ref, tol),
                   "inner formula disagrees with group formula")
    del b_ref
    kxk = waw @ (vh @ a @ g_wa @ g_wa @ u) @ waw
    check_residual(frob(kxk - waw), eq_bound(kxk, waw, tol),
                   "explicit witness failed (w a w) x (w a w) = w a w")
    return b, (u, y)


def group_formula(a, w, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """w (a w)^#, cross-checked against (w a)^# w and the anchor identities.

    Both group inverses are read off one SVD of w (:func:`_group_route`).
    Raises NonexistentInverseError when Ker(a) ∩ Ran(w) ≠ {0}, decided as
    rank(a w) ≠ rank(w), each rank at its own matrix's scale.  The anchor
    identities  w a w c = w  and  b a w c = b  with
    c = (a w)^# pin down that w really carries the prescribed range and
    kernel; their failure indicates a precondition violation rather than
    roundoff, so it raises.
    """
    return _group_route(*_route_operands(a, w), tol)[0]


def inner_formula(a, w, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """w (w a w)^- w with the canonical inner inverse, the Moore-Penrose
    (w a w)^+, read off the SVD of w that gives the group route's value.

    Agreement with the group formula, and the explicit inner-inverse
    witness x = a ((w a)^#)^2 for w a w, are both asserted.  Both read
    the k x k K of w a w = U K V^H, formed once: U and V are orthonormal,
    so ||(w a w) x (w a w) - w a w||_F = ||K (V^H x U) K - K||_F, and
    eq_bound(K (V^H x U) K, K) is the n x n bound; no n x n w a w is formed.
    """
    return _inner_route(*_route_operands(a, w), tol)[0]


def limit_formula(
    a,
    w,
    lambdas=None,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[np.ndarray, list[tuple[float, float]]]:
    """Resolvent limit  w (s + a w)^-1  along a decreasing shift schedule.

    Returns the value at the smallest shift together with the trace of
    Cauchy differences (shift, ||X_k - X_{k-1}||_F).  Each shift must be
    finite and positive and keep a relative margin from the spectrum of
    -a w; the trace must not grow from first to last entry.  Each value is
    one LU solve of the transposed system (s + a w)^T x^T = w^T.  The
    value's error is first order in the smallest shift; the compute
    functions' limit route extrapolates instead (:func:`_polar_limit`).
    """
    a, w = _route_operands(a, w)
    schedule = [float(s) for s in (DEFAULT_LAMBDA_SCHEDULE if lambdas is None else lambdas)]
    if not schedule or not all(0.0 < s < np.inf for s in schedule):  # NaN fails too
        raise ValueError("shift schedule must be positive and finite")
    if any(s1 <= s2 for s1, s2 in zip(schedule, schedule[1:])):
        raise ValueError("shift schedule must be strictly decreasing")

    aw = a @ w
    spectrum = eigenvalues(-aw)
    ident = np.eye(aw.shape[0], dtype=np.complex128)
    trace: list[tuple[float, float]] = []
    current = None
    for s in schedule:
        margin = float(np.min(np.abs(spectrum - s)))
        if margin <= tol.conv_tol * s:
            raise SpectrumError(f"shift {s:.3e} is within {margin:.3e} of the spectrum of -aw")
        try:  # w (s + a w)^-1 as one solve of the transposed system
            x = solve(s * ident + aw.T, w.T).T
        except np.linalg.LinAlgError as exc:
            raise SpectrumError(f"shifted system singular at shift {s:.3e}") from exc
        if current is not None:
            trace.append((s, frob(x - current)))
        current = x
    if len(trace) >= 2:
        check_residual(trace[-1][1], trace[0][1],
                       "Cauchy differences are not shrinking along the shift schedule")
    return current, trace


# the limit route's shifts as multiples of sigma_min(C), 0.2 * 4^-k for
# k = 0-4, and the ratio its Richardson tableau eliminates by
_LIMIT_RATIO = 4.0
_LIMIT_SHIFTS = tuple(0.2 / _LIMIT_RATIO ** k for k in range(5))


def _polar_limit(a_u: np.ndarray, g: np.ndarray, s_min: float, b_norm: float,
                 tol: Tolerances) -> tuple[np.ndarray, float]:
    """Y with U Y = lim_{s -> 0} w (s + a w)^-1 for w = U g in the polar gauge,
    g = Q N^H, by Richardson extrapolation over the shifts
    s_k = 0.2 sigma_min(C) 4^-k, k = 0-4, given the n x r a U and the r x n
    g, with Q the core's polar factor and sigma_min(C) its smallest
    singular value (:func:`_polar`); ``b_norm`` is ||b||_F of the group value.

    By the push-through identity w (s + a w)^-1 = U Q (s + C Q)^-1 N^H, and
    C Q = (C C^H)^(1/2) is Hermitian positive definite, so the nonzero
    spectrum of a w = (a U) g is sigma(C): every positive shift keeps a
    margin of at least s from the spectrum of -a w, and no eigensolve checks
    it.  The value is analytic in s for s < sigma_min(C), a power series in
    s / sigma_min(C), so the shifted systems have condition about kappa(C),
    not the kappa(C)^2 of the spectral gauge U C^H N^H, and each tableau
    level removes one power of s.  Each shift takes one LU solve of the
    transposed system (s + a w)^T Y^T = g^T, on g's r right-hand sides, so
    the tableau runs on r x n values.  Returns the tableau's R[4][4] and its
    error estimate ||R[4][4] - R[4][3]||_F, the last row's, which above
    conv_tol max(1, b_norm) raises NumericalError; U is orthonormal, so
    that is the estimate of U R[4][4] too.  The estimate reads the
    truncation of R[4][3], and the rounding of the smallest shift's solve
    only through the last level's weight 1/255; the caller's drift gate
    is what bounds the value.  At r = 0, Y is 0 x n with estimate 0.
    """
    if not g.size:
        return np.zeros_like(g), 0.0
    aw_t, g_t = (a_u @ g).T, g.T
    ident = np.eye(g.shape[1], dtype=np.complex128)
    row = []  # the tableau's last row, R[k][0..k], on the transposed values
    for k, shift in enumerate(_LIMIT_SHIFTS):
        level = [solve(shift * s_min * ident + aw_t, g_t)]
        for j, above in enumerate(row, start=1):
            level.append(level[-1] + (level[-1] - above) / (_LIMIT_RATIO ** j - 1.0))
        row = level
    estimate = check_residual(frob(row[-1] - row[-2]), tol.conv_tol * max(1.0, b_norm),
                              "limit route's Richardson estimate exceeds conv_tol")
    return row[-1].T, estimate


def _check_conv_tol(tol: Tolerances) -> None:
    """Raise ValueError unless conv_tol is positive, which the integral
    route's horizon and tail bound divide by."""
    if tol.conv_tol <= 0.0:
        raise ValueError(f"conv_tol must be positive for the integral route, got {tol.conv_tol}")


def _auto_horizon(alpha: float, w_norm: float, tol: Tolerances) -> float:
    """The integral route's automatic horizon T at the decay rate ``alpha``
    for a w of Frobenius norm ``w_norm``: exp(-alpha T) aims the raw tail at
    1e-2 conv_tol alpha / max(1, ||w||_F), so conditioning has headroom, and
    at most conv_tol, the minimum horizon log(1/conv_tol) / alpha, so that a
    large alpha, where the first target exceeds conv_tol, still leaves the
    value within conv_tol of its own scale and T is never negative."""
    target = 0.01 * tol.conv_tol * alpha / max(1.0, w_norm)
    return float(max(np.log(1.0 / target), np.log(1.0 / tol.conv_tol), 0.0) / alpha)


def _polar_integral(a_u: np.ndarray, g: np.ndarray, s_min: float,
                    tol: Tolerances) -> tuple[np.ndarray, float]:
    """Y with U Y = integral_0^T w exp(-(a w) t) dt for w = U g in the polar
    gauge, g = Q N^H, given the n x r a U and the r x n g, with its tail
    bound; Q and ``s_min`` = sigma_min(C) are the core's (:func:`_polar`).

    In this gauge the nonzero spectrum of a w = (a U) g is sigma(C) (see
    :func:`_polar_limit`), so once C is invertible a w has index one and
    decays at alpha = sigma_min(C), read off the core with no full-rank
    factorization of a w, no eigensolve and no static-part check.  T is
    :func:`integral_formula`'s automatic horizon at that alpha
    (:func:`_auto_horizon`), never below log(1/conv_tol) / alpha, and one
    :func:`densela.exp_integral` of -a w T on the n x n blocks gives the
    integral, so Y = g times it.  The tail bound
    ||g exp(-(a w) T)||_F / alpha, which is that of w since U is
    orthonormal, must come in under conv_tol, else NumericalError;
    conv_tol must be positive, else ValueError.  At r = 0, Y is 0 x n with
    tail bound 0.  Both that bound and the caller's drift gate are
    absolute, so at a large alpha it is the horizon's floor that keeps the
    truncation within conv_tol of the value's own scale.
    """
    _check_conv_tol(tol)
    if not g.size:
        return np.zeros_like(g), 0.0
    decay, integral = exp_integral(-(a_u @ g), _auto_horizon(s_min, frob(g), tol))
    tail = check_residual(frob(g @ decay) / s_min, tol.conv_tol,
                          "tail bound exceeds conv_tol; increase the horizon")
    return g @ integral, tail


def integral_formula(
    a,
    w,
    horizon: float | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[np.ndarray, float]:
    """Exponential integral  integral_0^T w exp(-(a w) t) dt.

    Evaluated in closed form by Van Loan's block exponential (C. Van Loan,
    IEEE Trans. Autom. Control 23 (1978) 395-404):

        exp([[-a w, 1], [0, 0]] T) = [[exp(-(a w) T), integral_0^T exp(-(a w) t) dt],
                                      [0,             1                             ]],

    so one exponential gives both the integral and the tail.  It is taken
    by :func:`densela.exp_integral` on the n x n blocks, without forming
    the block's zero row and identity column, for a quarter of the flops
    and a third of the memory; beyond T = 1 it exponentiates the block
    with (1,2) entry 1 and scales that block by T, so the squaring count
    is that of (a w) T.  Requires Re > 0 on the nonzero spectrum of
    ``a w``, and that w annihilates the non-decaying spectral part.  Both
    are read off one full-rank factorization a w = F G.  Index one is
    decided first: the r x r core G F must be invertible, which
    :func:`ginv.factored_group_inverse` decides by the rank rule on the
    core's one SVD.  The spectrum of G F is then the nonzero spectrum of
    F G, with no second cutoff on the eigenvalues, and Cline's
    F (G F)^-2 G is the (a w)^# of the static-part check.  The Re > 0
    test, the horizon tests and the static part follow, in that order.
    Returns the estimate and
    the analytic tail bound ||w exp(-(a w) T)||_F / alpha, which must come
    in under conv_tol; conv_tol must be positive.  For w = 0 the integrand
    is 0, so any horizon but NaN gives the value 0 with tail bound 0.
    """
    a, w = _route_operands(a, w)
    _check_conv_tol(tol)  # the horizons below divide by it
    if not w.any():
        if horizon is not None and np.isnan(horizon):
            raise ValueError(f"horizon {horizon} is not a number")
        return np.zeros_like(w), 0.0
    aw = a @ w
    f, g = rank_factorization(aw, tol)
    if f.shape[1] == 0:
        raise SpectrumError("aw has no nonzero spectrum; the integrand cannot decay")
    # index one is G F invertible; then the spectrum of G F is the whole
    # nonzero spectrum of aw = F G, and no second cutoff reads it
    gf = g @ f
    g_aw = factored_group_inverse(f, gf, g, tol)
    if g_aw is None:
        raise SpectrumError("aw is not group invertible; non-decaying part persists")
    # Re > 0 on the nonzero spectrum of aw; the smallest real part is the decay rate
    alpha = float(np.min(eigenvalues(gf).real))
    del f, g, gf  # not held through the exponential, which sets the peak
    if alpha <= 0.0:
        raise SpectrumError(
            f"aw has a nonzero eigenvalue with Re = {alpha:.3e} <= 0; "
            "the exponential integral does not converge"
        )

    min_horizon = float(np.log(1.0 / tol.conv_tol) / alpha)
    horizon = _auto_horizon(alpha, frob(w), tol) if horizon is None else float(horizon)
    if horizon == np.inf:  # would fill the exponential with inf and NaN
        raise ValueError(f"horizon {horizon} is not finite")
    if not horizon >= min_horizon:  # a NaN horizon fails too
        raise ValueError(
            f"horizon {horizon:.3e} is below the minimum {min_horizon:.3e} "
            "required by the convergence tolerance"
        )
    # the block's 1-norm is that of aw T, in Python floats, which overflow without a warning
    if horizon * float(np.linalg.norm(aw, 1)) == np.inf:
        raise ValueError(f"horizon {horizon!r} overflows the block exponential")

    static_part = w - w @ aw @ g_aw
    check_residual(frob(static_part), eq_bound(w, w, tol),
                   "w does not annihilate the non-decaying spectral part of aw", SpectrumError)
    del g_aw, static_part  # not held through the exponential, which sets the peak

    decay, integral = exp_integral(-aw, horizon)
    estimate = w @ integral
    tail_bound = check_residual(frob(w @ decay) / alpha, tol.conv_tol,
                                "tail bound exceeds conv_tol; increase the horizon")
    return estimate, tail_bound


# ---------------------------------------------------------------------------
# Classical inverses recovered as strict prescribed-idempotent inverses.
# ---------------------------------------------------------------------------


def _as_strict_outer(prob: PqProblem, expected: np.ndarray, name: str) -> PqResult:
    """The strict outer inverse of ``prob``, checked against ``expected``."""
    result = outer_inverse_strict(prob)
    check_residual(frob(result.b - expected), eq_bound(result.b, expected, prob.tol),
                   f"strict outer inverse deviates from the {name}")
    return result


def moore_penrose_as_outer(a, tol: Tolerances = DEFAULT_TOL) -> PqResult:
    """Recover a† as the strict outer inverse for p = a†a, q = 1 - aa†."""
    a = as_matrix(a, "a")
    pinv = moore_penrose(a, tol)
    q = np.eye(a.shape[0], dtype=np.complex128) - a @ pinv
    return _as_strict_outer(PqProblem(a, pinv @ a, q, tol), pinv, "Moore-Penrose inverse")


def drazin_as_outer(a, tol: Tolerances = DEFAULT_TOL) -> PqResult:
    """Recover a^D as the strict outer inverse for p = a a^D, q = 1 - a a^D."""
    dz = drazin_inverse(a, tol)
    pi = dz.spectral_idempotent
    prob = PqProblem(a, np.eye(pi.shape[0], dtype=np.complex128) - pi, pi, tol)
    return _as_strict_outer(prob, dz.inverse, "Drazin inverse")
