"""Matrices with prescribed index or rank for the tests: each comes with
the exact values the classical inverses must reproduce."""

import numpy as np

from pqinv.densela import DEFAULT_TOL
from pqinv.verify import _complex_normal, _conditioned_matrix, _random_unitary, guaranteed_instance


def varied_index_matrix(
    rng: np.random.Generator, n: int, max_index: int = 3, core: int | None = None,
    kappa: float | None = None,
) -> dict:
    """Matrix with prescribed core spectrum plus nilpotent shift blocks.

    Returns the matrix, its exact inverse-on-the-core (the oracle for the
    index-aware inverse), the exact spectral idempotent, and the index.
    ``core`` fixes the core dimension (0 forces a nilpotent matrix).  The
    core eigenvalues have random phases and magnitudes uniform over
    [0.7, 1.4], or log-uniform over [1/kappa, 1] when ``kappa`` is given.
    """
    if core is None:
        core = int(rng.integers(0, n + 1))
    blocks: list[int] = []
    remaining = n - core
    while remaining > 0:
        size = int(rng.integers(1, min(max_index, remaining) + 1))
        blocks.append(size)
        remaining -= size

    j = np.zeros((n, n), dtype=np.complex128)
    j_plus = np.zeros((n, n), dtype=np.complex128)
    pi = np.zeros((n, n), dtype=np.complex128)
    u = rng.random(core)
    lam = (0.7 + 0.7 * u if kappa is None else kappa ** -u) * np.exp(2j * np.pi * rng.random(core))
    j[:core, :core] = np.diag(lam)
    if core:
        j_plus[:core, :core] = np.diag(1.0 / lam)
    pos = core
    for size in blocks:
        for i in range(size - 1):
            j[pos + i, pos + i + 1] = 1.0
        pi[pos : pos + size, pos : pos + size] = np.eye(size)
        pos += size

    v = _conditioned_matrix(rng, n, 25.0)
    v_inv = np.linalg.inv(v)
    index = 0 if core == n else max(blocks) if blocks else 1
    return {
        "a": v @ j @ v_inv,
        "d_ref": v @ j_plus @ v_inv,
        "pi_ref": v @ pi @ v_inv,
        "index": index,
    }


def graded_core_matrix(rng: np.random.Generator, n: int, kappa: float) -> tuple:
    """(a, d_ref): a :func:`varied_index_matrix` whose core of dimension n/2
    has eigenvalue magnitudes log-uniform over [1/kappa, 1], beside nilpotent
    Jordan blocks of size at most 3, with its exact Drazin inverse."""
    inst = varied_index_matrix(rng, n, core=n // 2, kappa=kappa)
    return inst["a"], inst["d_ref"]


def varied_rank_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Matrix with decisive singular values (log-uniform in [0.3, 2]) and random rank."""
    r = int(rng.integers(0, n + 1))
    sigmas = np.zeros(n)
    sigmas[:r] = 10.0 ** rng.uniform(np.log10(0.3), np.log10(2.0), size=r)
    return (_random_unitary(rng, n) * sigmas) @ _random_unitary(rng, n)


def _oblique(rng: np.random.Generator, u: np.ndarray, t: float) -> np.ndarray:
    """The idempotent U (U^H + t G^H) with range Ran(U), for orthonormal U and
    a random G with U^H G = 0 and ||G||_2 = 1; G = 0 when U has 0 or n
    columns, since no nonzero G is then orthogonal to U."""
    n, r = u.shape
    g = np.zeros((n, r), dtype=np.complex128)
    if 0 < r < n:
        z = _complex_normal(rng, n, r)
        g = z - u @ (u.conj().T @ z)
        g /= np.linalg.norm(g, 2)
    return u @ (u.conj().T + t * g.conj().T)


def oblique_instance(rng: np.random.Generator, n: int, t: float) -> dict:
    """:func:`pqinv.verify.guaranteed_instance` with its orthogonal p and q
    replaced by oblique idempotents with the same ranges, p = U (U^H + t G^H)
    with G orthogonal to U and ||G||_2 = 1, and q likewise, so ||p||_2 and
    ||q||_2 are about t.  The oracle value b_ref = X (Y a X)^-1 Y depends on
    Ran(p) and Ran(q) only, so it and existence are unchanged."""
    inst = guaranteed_instance(rng, n)
    r = inst["r"]
    u_p = np.linalg.svd(inst["p"])[0][:, :r]
    u_q = np.linalg.svd(inst["q"])[0][:, :n - r]
    return {**inst, "p": _oblique(rng, u_p, t), "q": _oblique(rng, u_q, t)}


# the exponents x of the planted sines rank_rtol * 10^x: on either side of
# the cutoff, inside the fragility band (|x| < 1) and outside it
PLANTED_ANGLE_EXPONENTS = (-1.5, -0.5, -0.1, 0.1, 0.2, 0.5, 1.5)


def planted_angle_pair(rng: np.random.Generator, sin_theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal spanning sets (S, T) of C^8 whose smallest principal
    angle theta has the given sine: T is a random 4-dimensional subspace,
    and S is spanned by cos(theta) t_1 + sin(theta) u_1, with t_1 in T and
    u_1 orthogonal to T, and by two more vectors orthogonal to T.  Its
    other two angles are right angles."""
    q = _random_unitary(rng, 8)
    tilted = np.sqrt(1.0 - sin_theta ** 2) * q[:, :1] + sin_theta * q[:, 4:5]
    return np.hstack([tilted, q[:, 5:7]]), q[:, :4]


def planted_core_instance(rng: np.random.Generator, n: int, k: float) -> dict:
    """:func:`pqinv.verify.guaranteed_instance` with ``a`` moved along the
    smallest singular pair (x, y) of its core C = N^H a U, U and N orthonormal
    bases of Ran(p) and Ran(q)^⊥, so that sigma_min(C) becomes
    t = rank_rtol * sigma_max(C) * 10^k: a - (sigma_min - t) N y x^H U^H
    changes no other singular value of C, nor p and q.  So the core lies
    10^k times its rank cutoff above it, and the inverse exists for every
    k > 0; k = -inf gives t = 0, so sigma_min(C) = 0 and the inverse does
    not exist.  At r < 2 sigma_min is sigma_max, and the instance is
    returned unchanged.  b_ref is dropped, since the move changes b."""
    inst = guaranteed_instance(rng, n)
    r = inst["r"]
    out = {key: inst[key] for key in ("a", "p", "q", "r")}
    if r < 2:
        return out
    u = np.linalg.svd(inst["p"])[0][:, :r]
    nb = np.linalg.svd(inst["q"])[0][:, n - r:]
    left, s, right_h = np.linalg.svd(nb.conj().T @ inst["a"] @ u)
    t = DEFAULT_TOL.rank_rtol * s[0] * 10.0 ** k
    out["a"] = inst["a"] - (s[-1] - t) * np.outer(nb @ left[:, -1], (u @ right_h[-1].conj()).conj())
    return out


def straddling_idempotent(rng: np.random.Generator, n: int, r: int, x: float = 0.5) -> np.ndarray:
    """A rank-r orthogonal projector P onto a random subspace of C^n plus
    E = rank_rtol * 10^x * v v^H, v a unit vector in Ker(P).  Its singular
    values are 1 (r times), rank_rtol * 10^x and 0, so for |x| < 1 the
    (r+1)-st lies between the rank rule's two scaled cutoffs; its trace is
    r to within 1e-9, and ||(P + E)^2 - (P + E)||_F is below rank_rtol *
    10^x, within PqProblem's p^2 = p check.  Needs r < n."""
    u = _random_unitary(rng, n)
    v = u[:, r:r + 1]
    return u[:, :r] @ u[:, :r].conj().T + DEFAULT_TOL.rank_rtol * 10.0 ** x * (v @ v.conj().T)
