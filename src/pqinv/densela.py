"""Dense complex linear-algebra kernels backing every other module.

All routines operate on 2-D ``numpy.ndarray`` values with ``complex128``
entries.  The decision thresholds (numerical rank, matrix equality,
convergence) live in a single :class:`Tolerances` value that is threaded
through the whole package, so that no two modules can reach contradictory
verdicts about the same matrix.  Each numerical decision has one home
here: :func:`count_rank` turns singular values into a rank,
:func:`check_residual` decides that a residual is within its bound,
:func:`rounding_bound` bounds a residual formed from products,
:func:`is_noise` decides that a computed matrix is cancellation noise
(with :data:`PRODUCT_NOISE` the floor for products) and :func:`snap`
replaces such a matrix by an exact zero, :func:`solve_core`
decides on one SVD whether the r x r core of a factorization is
invertible and returns its inverse with that SVD (the (p,q) candidate's,
the group inverse's and the Drazin inverse's cores alike), and
:meth:`Tolerances.to_json_dict` is the one serialised form of the
thresholds.  :func:`svd`, :func:`idempotent_bases`
and :func:`idempotent_kernel` (their QRs), :func:`solve` and
:func:`eigenvalues` are the package's one calls of LAPACK; the
:class:`Factored` SVD gives the rank, range and null-space bases and the
pseudo-inverse, so a caller that needs several of them factors the matrix
once, and an idempotent's bases come from sketch QRs once a certificate
proves that its SVD would decide the same rank, not near.
Inside :func:`record`, each LAPACK call is counted, and every rank decision
read there marks whether it lies within :data:`FRAGILITY_FACTOR` of its
cutoff.  One [13/13] Pade
scaling-and-squaring core gives Van Loan's block exponential from n x n
products and one n x n solve: :func:`exp_integral` reads exp(m t) and its
integral off it, :func:`matrix_exp` its (1,1) block at a zero (1,2) block.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import NumericalError, ShapeError

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "PRODUCT_NOISE",
    "FRAGILITY_FACTOR",
    "FRAGILITY_SCALES",
    "as_matrix",
    "frob",
    "is_noise",
    "snap",
    "eq_bound",
    "check_residual",
    "rounding_bound",
    "adjoint",
    "count_rank",
    "idempotent_bases",
    "idempotent_kernel",
    "Record",
    "record",
    "rank",
    "Factored",
    "svd",
    "solve",
    "solve_core",
    "solve_right",
    "solve_left",
    "rank_factorization",
    "eigenvalues",
    "matrix_exp",
    "exp_integral",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical decision thresholds.

    rank_rtol
        Relative singular-value cutoff: sigma counts toward the rank when
        sigma > rank_rtol * sigma_max, and the sine of a principal angle
        counts as nonzero when it exceeds rank_rtol.
    eq_atol, eq_rtol
        Matrix equality uses the mixed bound
        ||X - Y||_F <= eq_atol + eq_rtol * max(||X||_F, ||Y||_F).
    conv_tol
        Target for limit/integral convergence decisions.
    """

    rank_rtol: float = 1e-10
    eq_atol: float = 1e-10
    eq_rtol: float = 1e-8
    conv_tol: float = 1e-8

    def __post_init__(self):
        for name in ("rank_rtol", "eq_atol", "eq_rtol", "conv_tol"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")

    def to_json_dict(self) -> dict[str, float]:
        """The thresholds by field name, in declaration order."""
        return asdict(self)


DEFAULT_TOL = Tolerances()

# Relative rounding floor of a computed product: a product whose norm is
# at most this times the product of its factors' norms is a true zero.
PRODUCT_NOISE = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite complex128 2-D array; ValueError when it holds
    no numbers, such as a :class:`Factored`."""
    try:
        m = np.asarray(a, dtype=np.complex128)
    except TypeError as exc:
        raise ValueError(f"{name} is not a numeric array ({exc})") from None
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"{name} must have positive dimensions, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _require_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {a.shape}")
    return a


def frob(a) -> float:
    """Frobenius norm, computed as ``numpy.linalg.norm(a)`` computes it
    (the raveled entries' re·re + im·im, then the square root) without
    that function's argument dispatch, so the two agree bit for bit on
    double-precision input: the square root of the one scalar is
    ``math.sqrt``, the IEEE square root that ``np.sqrt`` takes too."""
    x = np.asarray(a)
    if x.dtype.kind in "biu":
        x = x.astype(float)
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


def is_noise(m, floor: float, norm: float | None = None) -> bool:
    """True when ``m`` is at or below ``floor`` in Frobenius norm, read from
    ``norm`` when the caller has taken it.

    The one rule for snapping a computed matrix to zero, which
    :func:`snap` applies.  Each caller supplies the floor in the scale of
    its own factors; the relative rank cutoff would otherwise count pure
    cancellation noise as rank.
    """
    return (frob(m) if norm is None else norm) <= floor


def snap(m: np.ndarray, floor: float, norm: float | None = None) -> np.ndarray:
    """The exact zero matrix when ``m`` is noise at ``floor`` (:func:`is_noise`,
    given ``norm``), else ``m`` itself: the one snap of a computed matrix to zero."""
    return np.zeros_like(m) if is_noise(m, floor, norm) else m


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def eq_bound(x, y, tol: Tolerances = DEFAULT_TOL) -> float:
    """Admissible residual for declaring ``x`` and ``y`` equal; one norm is
    taken when ``y`` is ``x``."""
    return tol.eq_atol + tol.eq_rtol * (frob(x) if y is x else max(frob(x), frob(y)))


def check_residual(residual: float, bound: float, what: str, error=NumericalError) -> float:
    """``residual`` when it is within ``bound``; otherwise raise ``error`` (an
    exception class, or any callable that makes one from a message) on a
    message of ``what`` and both numbers.  The one gate for an identity
    that must hold to a bound: a NaN residual is never within it."""
    if residual <= bound:
        return residual
    raise error(f"{what} (residual {residual:.3e}, bound {bound:.3e})")


def rounding_bound(x, y, scale: float, tol: Tolerances = DEFAULT_TOL) -> float:
    """The bound for a residual x - y formed from products: the larger of
    :func:`eq_bound` and the products' rounding floor, PRODUCT_NOISE times
    ``scale``, the product of their factors' norms.  A residual within either
    is within this one; pass it to :func:`check_residual`."""
    return max(eq_bound(x, y, tol), PRODUCT_NOISE * scale)


# A rank verdict is fragile when it changes with the cutoff scaled by this
# factor either way; FRAGILITY_SCALES are the two scaled cutoffs' factors.
FRAGILITY_FACTOR = 10.0
FRAGILITY_SCALES = (FRAGILITY_FACTOR, 1.0 / FRAGILITY_FACTOR)


@dataclass
class Record:
    """What one :func:`record` block saw: LAPACK calls by kind, and ``near``."""

    calls: Counter = field(default_factory=Counter)
    near: bool = False


_RECORD: ContextVar[Record | None] = ContextVar("pqinv_record", default=None)


@contextmanager
def record() -> Iterator[Record]:
    """Count the LAPACK calls made inside the block, each attempt once, and
    note whether any rank decision read inside it would count differently
    at rank_rtol scaled by either of FRAGILITY_SCALES, also one that a
    :class:`Factored` took before the block began: every decision keeps
    its ``near`` and every read reports it.

    The count is monotone in the cutoff, so equal counts at the two scaled
    cutoffs mean equal counts at all three.  When ``near`` stays False, a
    re-run of the block at either scaled tolerance makes the same rank
    decisions and so repeats it operation for operation.  A nested block
    adds its record to the outer one when it ends, by an exception too.
    """
    outer, rec = _RECORD.get(), Record()
    token = _RECORD.set(rec)
    try:
        yield rec
    finally:
        _RECORD.reset(token)
        if outer is not None:
            outer.calls.update(rec.calls)
            outer.near |= rec.near


def _lapack(kind: str, *args, **kwargs):
    """numpy.linalg's ``kind``, counted in the active :func:`record` and
    looked up per call, so that wrappers installed on numpy.linalg see it."""
    if (rec := _RECORD.get()) is not None:
        rec.calls[kind] += 1
    return getattr(np.linalg, kind)(*args, **kwargs)


def _count_above(s: np.ndarray, rtol: float, scale: float) -> int:
    return int(np.count_nonzero(s > rtol * scale))


def _straddles_cutoff(s: np.ndarray, rtol: float, scale: float, low_count: int) -> bool:
    """True when the count of descending ``s`` differs between the two scaled
    cutoffs, given ``low_count``, its count at the low one: when it does
    not, the smallest value counted there also clears the high one."""
    return low_count > 0 and not s[low_count - 1] > (rtol * FRAGILITY_SCALES[0]) * scale


def _decide_rank(s: np.ndarray, tol: Tolerances, scale: float | None) -> tuple[int, bool]:
    """(rank, near) of descending ``s``: the one decision that turns values
    into a rank.  ``s`` is counted once, at the low scaled cutoff; when the
    decision does not straddle the two scaled cutoffs, the cutoff between
    them gives that same count, so it is the rank, and otherwise the
    decision is near and ``s`` is counted again at rank_rtol."""
    if s.size == 0 or s[0] == 0.0:
        return 0, False
    scale = s[0] if scale is None else scale
    low_count = _count_above(s, tol.rank_rtol * FRAGILITY_SCALES[1], scale)
    if not _straddles_cutoff(s, tol.rank_rtol, scale, low_count):
        return low_count, False
    return _count_above(s, tol.rank_rtol, scale), True


def _read(decided: tuple[int, bool]) -> int:
    """The rank of a (rank, near) decision, marking the active
    :func:`record` when the decision is near its cutoff."""
    if decided[1] and (rec := _RECORD.get()) is not None:
        rec.near = True
    return decided[0]


def count_rank(s: np.ndarray, tol: Tolerances = DEFAULT_TOL, *, scale: float | None = None) -> int:
    """Numerical rank from descending singular values ``s``: the count of
    those above rank_rtol * scale (0 when sigma_max is 0).  The scale is
    sigma_max unless given; values of a known range pass theirs, as the
    sines of principal angles pass 1.

    ``s`` is counted once, at the low scaled cutoff, and again at
    rank_rtol only when the decision straddles the two scaled cutoffs,
    which marks the active :func:`record` near; watched or not, the
    decision is made the same way.
    """
    return _read(_decide_rank(s, tol, scale))


# The order from which :func:`idempotent_bases` sketches, a constant: below
# it one SVD of an idempotent is the faster (44 against 56 us at n = 16),
# and at n = 32 outer_inverse takes 560 us with the sketch, 733 without.
_SKETCH_MIN = 32


def idempotent_bases(m: np.ndarray,
                     tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray] | None:
    """Orthonormal bases (Q, N) of Ran(m) and Ran(m)^⊥ for an n x n
    idempotent ``m``, from one complete QR of a sketch; None when its SVD
    is to be taken instead.

    An idempotent's rank is its trace.  For r = round(Re tr m), when
    |tr m - r| <= 0.25, the complete QR [Q N] of m Ω, Ω an n x r Gaussian
    seeded from (n, r), gives a basis Q of Ran(m) (N. Halko, P.-G.
    Martinsson and J. A. Tropp, SIAM Rev. 53 (2011) 217-288) and N of its
    orthogonal complement.  They are accepted only under the certificate
    of :func:`_certified`, with ||(1 - Q Q^H) m||_F = ||N^H m||_F, that
    :func:`_decide_rank` on the singular values of m would return
    (r, near=False), so that the SVD's bases span the same subspaces to
    rounding.  Below n = _SKETCH_MIN, at r = 0, off an integer trace or
    when the certificate fails, the answer is None.
    """
    n = m.shape[0]
    if n < _SKETCH_MIN:  # first: the trace alone costs a small problem's call a few per cent
        return None
    trace = complex(np.trace(_require_square(m)))
    r = round(trace.real)
    if not 0 < r <= n or abs(trace - r) > 0.25:
        return None
    omega = np.random.default_rng((n, r)).standard_normal((n, r))
    q = _lapack("qr", m @ omega, mode="complete")[0]
    basis, complement = q[:, :r], q[:, r:]
    if not _certified(m, basis, frob(adjoint(complement) @ m), tol):
        return None
    # copied, so that neither holds the whole complete Q alive
    return basis.copy(), complement.copy()


def _certified(m: np.ndarray, basis: np.ndarray, outside: float, tol: Tolerances) -> bool:
    """Whether the orthonormal n x r ``basis`` Q, with ``outside`` =
    ||(1 - Q Q^H) m||_F, proves that :func:`_decide_rank` on the singular
    values of the n x n ``m`` returns (r, near=False): the one certificate
    of an idempotent's sketched range.  As Q Q^H m has rank r
    (Eckart-Young) and ||m||_F / sqrt(n) <= sigma_max(m) <= ||m||_F,

        sigma_r+1(m) <= ||(1 - Q Q^H) m||_F <= 0.1 rank_rtol ||m||_F / sqrt(n)

    puts sigma_r+1 at or below the low scaled cutoff, and, as
    sigma_r(m) >= sigma_r(m Q) and Q has orthonormal columns (Weyl),

        sigma_r(m) >= 1 - ||m Q - Q||_F > 10 rank_rtol ||m||_F

    puts sigma_r above the high one."""
    m_norm = frob(m)
    return (outside <= tol.rank_rtol * FRAGILITY_SCALES[1] * m_norm / math.sqrt(m.shape[0])
            and 1.0 - frob(m @ basis - basis) > tol.rank_rtol * FRAGILITY_SCALES[0] * m_norm)


def idempotent_kernel(m: np.ndarray, complement: np.ndarray,
                      tol: Tolerances = DEFAULT_TOL) -> np.ndarray | None:
    """An orthonormal basis of Ker(m) = Ran(1 - m) for the n x n idempotent
    ``m``, given the basis N of Ran(m)^⊥ that :func:`idempotent_bases`
    returned under m's certificate; None when m's SVD is to be taken
    instead.  The one rule for the kernel of p and of q:

    1. N itself when ||m N||_F <= 0.1 rank_rtol ||m||_F / sqrt(n), the
       bound the certificate puts on sigma_r+1(m), as for an orthogonal
       projector.  That certificate proved m's rank decision r, not near,
       and sigma_r(m) > 10 rank_rtol ||m||_F.  With m = U diag(s) V^H and
       V_1 the r leading columns of V, U_1^H m N = diag(s_1..s_r) V_1^H N,
       so the sine of the largest principal angle between Ran(N) and the
       SVD's null space, ||V_1^H N||_2, is at most ||m N||_2 / sigma_r(m)
       (Wedin's sin-theta bound; P.-A. Wedin, BIT 12 (1972) 99-111), as
       that of Ran(Q) from the SVD's range is at most
       ||(1 - Q Q^H) m||_2 / sigma_r(m).
    2. Otherwise the Q of one reduced QR of (1 - m) N = N - m N, which
       reuses m N: 1 - m maps Ran(m)^⊥ one-to-one onto Ker(m), as
       (1 - m) x = 0 puts x in Ran(m), and with smallest singular value
       at least 1, as ||(1 - m) x|| >= ||x|| for x orthogonal to Ran(m) by
       Pythagoras on (1 - m) x = x - m x.  Q is accepted only under
       :func:`_certified` on 1 - m, whose rank decision n - r, not near,
       is then m's nullity; both sides thus read one split of C^n.
    3. Otherwise None.
    """
    n = m.shape[0]
    image = m @ complement
    if frob(image) <= tol.rank_rtol * FRAGILITY_SCALES[1] * frob(m) / math.sqrt(n):
        return complement
    basis = _lapack("qr", np.subtract(complement, image, out=image))[0]  # (1 - m) N
    one_minus = -m  # 1 - m, with no n x n identity formed
    one_minus.flat[::n + 1] += 1.0
    # in place: this n x n residual is the certificate's largest array
    residual = basis @ (adjoint(basis) @ one_minus)
    residual -= one_minus
    return basis if _certified(one_minus, basis, frob(residual), tol) else None


@dataclass(frozen=True)
class Factored:
    """An SVD m = u diag(s) vh of an n x m matrix: with square u and vh, or,
    when thin, the n x k u and k x m vh of k = min(n, m) singular triplets;
    u and vh are None when only s was taken.  A thin SVD holds the column
    space and the row space, and no complement of either beyond its k
    columns, so :meth:`left_null_basis` (:meth:`null_basis`) raises
    ValueError when u (vh) is not square.

    The rank is :func:`count_rank`'s, decided once per rank_rtol: every
    basis, the pseudo-inverse and each caller of :meth:`rank` read that
    one decision.  Whether it lies near its cutoff is kept with it, and
    every read marks the active :func:`record`, so a block that reads a
    decision sees it as if it were made there.

    Each basis is LAPACK's singular vectors, columns of u or conjugated
    rows of vh, with LAPACK's phases, copied so that it holds no factor
    alive.  They are deterministic for one machine, one numpy/LAPACK
    build and one thread count.  b = U C^-1 N^H and every existence
    verdict are invariant under U -> U D for a diagonal unitary D, so
    another build moves them only by rounding; the spectrum of a w for
    the witness w = U N^H is not, so whether the limit and integral
    routes accept a problem may differ between builds.
    """

    u: np.ndarray | None
    s: np.ndarray
    vh: np.ndarray | None
    # rank_rtol -> (rank, near)
    _ranks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def rank(self, tol: Tolerances = DEFAULT_TOL) -> int:
        if (decided := self._ranks.get(tol.rank_rtol)) is None:
            decided = self._ranks[tol.rank_rtol] = _decide_rank(self.s, tol, None)
        return _read(decided)

    def range_basis(self, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
        """Orthonormal basis of the column space (n x d, d may be 0)."""
        return self.u[:, :self.rank(tol)].copy()

    def null_basis(self, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
        """Orthonormal basis of the (right) null space."""
        _require_whole(self.vh, "null space")
        return self.vh[self.rank(tol):, :].conj().T

    def row_basis(self, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
        """Orthonormal basis of the row space, the orthogonal complement
        of the (right) null space (m x d); a thin SVD holds it too."""
        return self.vh[:self.rank(tol), :].conj().T

    def left_null_basis(self, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
        """Orthonormal basis of the left null space, the orthogonal
        complement of the column space (n x (n - d))."""
        _require_whole(self.u, "left null space")
        return self.u[:, self.rank(tol):].copy()

    def pinv(self, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
        """Moore-Penrose inverse (the zero matrix at rank 0)."""
        r = self.rank(tol)
        return (self.vh[:r, :].conj().T / self.s[:r]) @ self.u[:, :r].conj().T


def _require_whole(factor: np.ndarray, what: str) -> None:
    """Raise ValueError when ``factor``, u or vh, is not square: a thin SVD's,
    which holds no basis of the ``what``."""
    if factor.shape[0] != factor.shape[1]:
        raise ValueError(f"a thin SVD holds no basis of the {what}; factor with thin=False")


def svd(m, compute_uv: bool = True, *, thin: bool = False) -> Factored:
    """The SVD of ``m``, the package's one call of LAPACK's SVD; with
    ``thin``, only the min(n, m) leading singular vectors on each side.

    When LAPACK does not converge on ``m``, the adjoint is factored
    instead and its factors swapped; when that fails too, NumericalError
    is raised.  An empty matrix is factored without LAPACK, into square
    identity factors even when ``thin``.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.size == 0:
        return Factored(np.eye(m.shape[0], dtype=np.complex128), np.zeros(0),
                        np.eye(m.shape[1], dtype=np.complex128))
    shape = {"full_matrices": False} if thin else {}  # numpy's default is the full SVD
    for retry in (False, True):
        try:  # the adjoint, a copy of m, is built only for the retry
            out = _lapack("svd", adjoint(m) if retry else m, compute_uv=compute_uv, **shape)
        except np.linalg.LinAlgError as exc:
            error = exc
            continue
        if not compute_uv:
            return Factored(None, out, None)
        u, s, vh = out
        return Factored(adjoint(vh), s, adjoint(u)) if retry else Factored(u, s, vh)
    raise NumericalError(
        f"SVD of a {m.shape[0]}x{m.shape[1]} matrix and of its adjoint did not converge"
    ) from error


def solve(a, b) -> np.ndarray:
    """A^-1 B by LAPACK's LU solve, for a system whose invertibility no rank
    decides (a core that needs one goes through :func:`solve_core`); a
    singular ``a`` raises numpy's LinAlgError unchanged."""
    return _lapack("solve", a, b)


def rank(a, tol: Tolerances = DEFAULT_TOL) -> int:
    """Numerical rank of ``a`` (see :func:`count_rank`)."""
    return svd(a, compute_uv=False).rank(tol)


def solve_core(core, floor: float,
               tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray | None, Factored | None]:
    """(core^-1 or None, the SVD that decided it or None) for an r x r ``core``
    that a factorization needs invertible: the one decision of whether such
    a core is, and its one inversion; each caller applies its own factors.

    The core counts as singular when it is noise at ``floor`` (the rounding
    floor of its factors, :func:`is_noise`), with no SVD taken, or when the
    rank of its one SVD is below r; otherwise that SVD's pseudo-inverse X,
    after one Newton step X + X (1 - core X), is the inverse, and no second
    factorization of the core is taken.  The step brings the residual
    1 - core X down to an LU solve's on a column-scaled core, such as G F
    with F = u diag(s) from an SVD: the SVD's rounding grows with the
    scaling, LU's does not.  The SVD is returned with the answer, so that
    a caller that goes on from the core, as the Drazin inverse's staircases
    do, takes no second one of the same matrix.  A non-square core raises
    ShapeError, and a 0 x 0 core gives the 0 x 0 inverse, without LAPACK.
    """
    r = _require_square(core, "core").shape[0]
    if r == 0:
        return np.zeros((0, 0), dtype=np.complex128), None
    if is_noise(core, floor):
        return None, None
    if (f := svd(core)).rank(tol) < r:
        return None, f
    x = f.pinv(tol)
    return x + x @ (np.eye(r) - core @ x), f


def solve_right(a, b, tol: Tolerances = DEFAULT_TOL) -> np.ndarray | None:
    """Solve A X = B as X = A^+ B; return X only if A X equals B by
    :func:`eq_bound`'s rule, ||A X - B||_F <= eq_bound(B, B).

    Returns None for an inconsistent system; raises ShapeError when the
    row counts disagree (a different failure from inconsistency).
    """
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"A has {a.shape[0]} rows but B has {b.shape[0]}")
    x = svd(a).pinv(tol) @ b
    return x if frob(a @ x - b) <= eq_bound(b, b, tol) else None


def solve_left(a, b, tol: Tolerances = DEFAULT_TOL) -> np.ndarray | None:
    """Solve X A = B via the conjugate-transposed right system."""
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"A has {a.shape[1]} cols but B has {b.shape[1]}")
    xh = solve_right(adjoint(a), adjoint(b), tol)
    return None if xh is None else adjoint(xh)


def rank_factorization(a, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Full-rank factorization A = F G.

    F is n x r with full column rank, G is r x m with full row rank,
    r = rank(A).  The factors come from an SVD, so they are orthogonal up
    to the singular-value scaling; consumers must be invariant under the
    regauging F -> F M, G -> M^-1 G.
    """
    f = svd(as_matrix(a))
    r = f.rank(tol)
    return f.u[:, :r] * f.s[:r], f.vh[:r, :]


def eigenvalues(a) -> np.ndarray:
    """Eigenvalues with multiplicity (unordered)."""
    a = _require_square(as_matrix(a))
    try:
        return _lapack("eigvals", a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc


# [13/13] Pade coefficients for the scaling-and-squaring exponential.
_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_THETA13 = 5.371920351148152


def _pade_exp(x: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
    """exp(M) for the block M = [[x, c 1], [0, 0]] by [13/13] Pade
    approximation with scaling and squaring (N. J. Higham, SIAM J. Matrix
    Anal. Appl. 26 (2005) 1179-1193).

    Returns exp(x) and the (1,2) block of exp(M); the other blocks of
    exp(M) are 0 and 1.  The block is carried on its n x n blocks.  Since
    M^k = [[x^k, c x^(k-1)], [0, 0]], the Pade quotient's (1,2) block is
    (v - u)^-1 (2 c W(x)), where v and u = x W(x) are the even and odd
    parts that give exp(x); and each squaring of [[E, F], [0, 1]] maps F
    to E F + F.  The squaring count is the block's, from its 1-norm
    max(|x|_1, |c|), so c = 0 gives exp(x) with x's own count and a (1,2)
    block that stays exactly 0.  Raises NumericalError when that 1-norm
    overflows.
    """
    n = x.shape[0]
    with np.errstate(over="ignore"):  # an overflowing column sum is reported below
        norm = max(float(np.linalg.norm(x, 1)), abs(c))
    if norm == np.inf:
        raise NumericalError("the 1-norm of the matrix overflows; its exponential cannot be scaled")
    if norm == 0.0:
        return np.eye(n, dtype=np.complex128), np.zeros_like(x)
    squarings = 0
    if norm > _THETA13:
        squarings = int(np.ceil(np.log2(norm / _THETA13)))
        x = x / (2.0 ** squarings)
        c = c / (2.0 ** squarings)

    b = _PADE13
    ident = np.eye(n, dtype=np.complex128)
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x2 @ x4
    inner = (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * ident)
    u = x @ inner
    v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
         + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * ident)
    del x2, x4, x6, ident  # the peak is the solve's; drop what it does not read
    rhs = np.empty((n, 2 * n), dtype=np.complex128)
    np.add(v, u, out=rhs[:, :n])
    np.multiply(inner, 2.0 * c, out=rhs[:, n:])
    try:
        r = solve(v - u, rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - Pade denominator breakdown
        raise NumericalError(f"exponential Pade solve failed: {exc}") from exc
    del u, v, rhs  # the squarings hold only r and their products
    e, f = r[:, :n], r[:, n:]
    for _ in range(squarings):
        f = e @ f + f
        e = e @ e
    return e, f


def matrix_exp(a) -> np.ndarray:
    """Matrix exponential: :func:`exp_integral`'s core with a zero (1,2)
    block, so with ``a``'s own squaring count and exactly 1 at a = 0.

    Raises NumericalError when the 1-norm of ``a``, which sets the number
    of squarings, overflows although every entry is finite.
    """
    return _pade_exp(_require_square(as_matrix(a)), 0.0)[0]


def exp_integral(m, t: float) -> tuple[np.ndarray, np.ndarray]:
    """exp(m t) and integral_0^t exp(m s) ds, for a square ``m`` and a finite t.

    These are the (1,1) and (1,2) blocks of Van Loan's block exponential
    exp([[m t, c 1], [0, 0]]) (C. Van Loan, IEEE Trans. Autom. Control 23
    (1978) 395-404), evaluated by :func:`_pade_exp` on n x n blocks, never
    on the 2n x 2n block; :func:`matrix_exp` runs the same core with c = 0.
    For |t| <= 1, c = t.  For |t| > 1, c = 1 and the (1,2) block is scaled
    by t, as integral_0^t exp(m s) ds = t integral_0^1 exp(m t u) du: the
    squaring count is then that of m t, and a long t at a small ||m t||
    takes no squarings that only the (1,2) entry asks for.  t = 0 gives
    (1, 0) exactly.  Raises NumericalError when the block's 1-norm,
    max(|m t|_1, |c|), overflows.
    """
    m = _require_square(as_matrix(m))
    t = float(t)
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    with np.errstate(over="ignore"):  # an overflowing entry overflows the 1-norm, reported there
        x = m * t
    c = t if abs(t) <= 1.0 else 1.0
    e, f = _pade_exp(x, c)
    return e, f if c == t else f * t
