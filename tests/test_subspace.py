import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrix_generators import PLANTED_ANGLE_EXPONENTS, planted_angle_pair
from pqinv.densela import DEFAULT_TOL, Factored, frob, record, svd
from pqinv import subspace as sub
from pqinv.errors import ShapeError
from pqinv.subspace import (
    Subspace,
    contains,
    equals,
    gap,
    image,
    intersect,
    is_direct_sum_all,
    kernel_of,
    meets_trivially,
    range_and_kernel,
    range_of,
    sum_of,
)
from pqinv.verify import _complex_normal, random_idempotent

A22 = np.array([[0, 0], [1, 0]], dtype=complex)
P22 = np.array([[1, 1], [0, 0]], dtype=complex)
ONE_MQ22 = np.array([[0, 1], [0, 1]], dtype=complex)

E1 = Subspace(np.array([[1.0], [0.0]], dtype=complex))
E2 = Subspace(np.array([[0.0], [1.0]], dtype=complex))


class TestSubspaceType:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Subspace(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_rejects_too_many_columns(self):
        with pytest.raises(ShapeError):
            Subspace(np.ones((1, 2)))

    def test_projector_of_trivial(self):
        assert np.array_equal(Subspace.zero(3).projector(), np.zeros((3, 3)))

    def test_complement_roundtrip(self, rng):
        s = range_of(_complex_normal(rng, 5, 2))
        c = s.complement()
        assert s.dim + c.dim == 5
        assert frob(s.basis.conj().T @ c.basis) <= 1e-12


class TestRangeKernel:
    def test_range_of_projection(self):
        assert equals(range_of(P22), E1)

    def test_range_of_identity(self):
        assert range_of(np.eye(2)).dim == 2

    def test_range_of_zero(self):
        assert range_of(np.zeros((2, 2))).dim == 0

    def test_kernel_of_shift(self):
        assert equals(kernel_of(A22), E2)

    def test_kernel_of_identity(self):
        assert kernel_of(np.eye(2)).dim == 0

    def test_kernel_of_zero(self):
        assert kernel_of(np.zeros((2, 2))).dim == 2

    def test_range_and_kernel_from_one_factorization(self, rng, count_linalg):
        a = _complex_normal(rng, 5, 2) @ _complex_normal(rng, 2, 4)
        expected = (range_of(a).basis, kernel_of(a).basis)
        spaces = []
        assert count_linalg(lambda: spaces.extend(range_and_kernel(a))) == {"svd": 1}
        ran, ker = spaces
        assert (ran.ambient, ker.ambient) == (5, 4)
        # the same bases, bit for bit, as the single accessors give
        assert np.array_equal(ran.basis, expected[0]) and np.array_equal(ker.basis, expected[1])

    def test_empty_bases_hold_no_factor(self, rng):
        # a basis owns its data, of no columns or of many: a view of u or vh
        # would keep the whole n x n factor alive for as long as the subspace lives
        ran_zero = range_and_kernel(np.zeros((256, 256)))[0].basis
        co_one = svd(np.eye(256)).left_null_basis()
        for basis in (ran_zero, co_one):
            assert basis.shape == (256, 0) and basis.base is None
        r = 100
        f = svd(_complex_normal(rng, 256, r) @ _complex_normal(rng, r, 256))
        for basis, columns in ((f.range_basis(), f.u[:, :r]),
                               (f.null_basis(), f.vh[r:, :].conj().T),
                               (f.left_null_basis(), f.u[:, r:])):
            # LAPACK's own singular vectors, bit for bit, with no phase pinned
            assert np.array_equal(basis, columns)
            assert not np.shares_memory(basis, f.u) and not np.shares_memory(basis, f.vh)

    @pytest.mark.parametrize("constructor", [range_of, kernel_of, range_and_kernel])
    def test_hand_built_factorization_is_refused(self, constructor):
        # the constructors take matrices and factor them themselves: a
        # Factored from outside would hand in the unchecked basis 2 I
        with pytest.raises(ValueError):
            constructor(Factored(2 * np.eye(2), np.ones(2), np.eye(2)))

    def test_range_invariant_under_column_mixing(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 7))
            a = _complex_normal(rng, n, n)
            m = _complex_normal(rng, n, n) + 3 * np.eye(n)
            assert equals(range_of(a), range_of(a @ m))
            assert equals(kernel_of(a), kernel_of(m @ a))


class TestImage:
    def test_image_of_coordinate_line(self):
        assert equals(image(A22, E1), E2)

    def test_image_under_identity(self, rng):
        s = range_of(_complex_normal(rng, 4, 2))
        assert equals(image(np.eye(4), s), s)

    def test_image_under_zero(self):
        assert image(np.zeros((2, 2)), E1).dim == 0

    def test_image_of_zero_subspace_takes_no_svd(self, rng, count_linalg):
        # the n x 0 product is noise at its floor 0, so the noise test gives {0}
        a = _complex_normal(rng, 3, 2)
        spaces = []
        assert count_linalg(lambda: spaces.append(image(a, Subspace.zero(2)))) == {"svd": 0}
        assert (spaces[0].ambient, spaces[0].dim) == (3, 0)


class TestLattice:
    def test_intersect_coordinate_lines(self):
        assert intersect(E1, E2).dim == 0

    def test_intersect_self(self, rng):
        s = range_of(_complex_normal(rng, 5, 3))
        assert equals(intersect(s, s), s)

    def test_sum_coordinate_lines(self):
        assert sum_of(E1, E2).dim == 2

    def test_sum_with_trivial(self, rng):
        s = range_of(_complex_normal(rng, 4, 2))
        assert equals(sum_of(s, Subspace.zero(4)), s)

    def test_direct_sum_counterexample_data(self):
        # a Ran(p) and Ran(q) for the 2x2 counterexample fill the plane
        a_ran_p = image(A22, range_of(P22))
        ran_q = range_of(np.eye(2) - ONE_MQ22)
        assert is_direct_sum_all(a_ran_p, ran_q)

    def test_direct_sum_fails_on_overlap(self):
        assert not is_direct_sum_all(E1, E1)

    def test_direct_sum_trivial_and_full(self):
        assert is_direct_sum_all(Subspace.zero(2), Subspace.full(2))

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 10))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_dimension_formula(self, seed, n):
        rng = np.random.default_rng(seed)

        def draw():
            d = int(rng.integers(0, n + 1))
            return Subspace.zero(n) if d == 0 else range_of(_complex_normal(rng, n, d))

        s, t = draw(), draw()
        assert (
            sum_of(s, t).dim + intersect(s, t).dim == s.dim + t.dim
        )

    def test_direct_sum_takes_one_singular_value_decomposition(self, rng, monkeypatch):
        svd, calls = np.linalg.svd, []

        def counting_svd(*args, **kwargs):
            calls.append(kwargs.get("compute_uv", True))
            return svd(*args, **kwargs)

        s, t = range_of(_complex_normal(rng, 5, 2)), range_of(_complex_normal(rng, 5, 3))
        overlap = range_of(np.hstack([s.basis[:, :1], _complex_normal(rng, 5, 2)]))
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        assert is_direct_sum_all(s, t)
        assert not is_direct_sum_all(s, overlap)
        assert calls == [False, False]

    def test_direct_sum_gives_unique_split(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 8))
            d = int(rng.integers(1, n))
            basis = np.linalg.qr(_complex_normal(rng, n, n))[0]
            s = Subspace(basis[:, :d])
            t = range_of(_complex_normal(rng, n, n - d))
            if not is_direct_sum_all(s, t):
                continue
            v = _complex_normal(rng, n, 1)
            stacked = np.hstack([s.basis, t.basis])
            coords, *_ = np.linalg.lstsq(stacked, v, rcond=None)
            assert frob(stacked @ coords - v) <= 1e-10


class TestMeetsTrivially:
    @staticmethod
    def _pairs(rng):
        """Random pairs in C^n: generic ones (trivial intersection when
        dim S + dim T <= n), pairs sharing a direction of S, and pairs with a
        {0} or a full side."""
        for _ in range(40):
            n = int(rng.integers(1, 8))
            s = range_of(_complex_normal(rng, n, int(rng.integers(1, n + 1))))
            t = range_of(_complex_normal(rng, n, int(rng.integers(1, n + 1))))
            shared = range_of(np.hstack([s.basis[:, :1], _complex_normal(rng, n, t.dim - 1)]))
            yield from ((s, t), (s, shared), (t, s), (s, Subspace.zero(n)),
                        (Subspace.zero(n), t), (Subspace.full(n), s))

    def test_agrees_with_the_intersection(self, rng):
        verdicts = set()
        for s, t in self._pairs(rng):
            verdict = meets_trivially(s, t)
            assert verdict == (intersect(s, t).dim == 0)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_takes_one_singular_value_decomposition(self, rng, monkeypatch):
        # of the n x dim S matrix (1 - P_T) B_S, not of the joined bases
        svd, calls = np.linalg.svd, []

        def counting_svd(m, **kwargs):
            calls.append((kwargs.get("compute_uv", True), m.shape))
            return svd(m, **kwargs)

        s, t = range_of(_complex_normal(rng, 5, 2)), range_of(_complex_normal(rng, 5, 3))
        overlap = range_of(np.hstack([s.basis[:, :1], _complex_normal(rng, 5, 2)]))
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        assert meets_trivially(s, t)
        assert not meets_trivially(s, overlap)
        assert calls == [(False, (5, 2)), (False, (5, 2))]
        assert meets_trivially(Subspace.zero(5), t)
        assert meets_trivially(Subspace.full(5), Subspace.zero(5))
        assert len(calls) == 2

    @pytest.mark.parametrize("x", PLANTED_ANGLE_EXPONENTS)
    def test_planted_angle_against_the_cutoff(self, x):
        # the smallest sine is rank_rtol * 10^x: S ∩ T = {0} exactly when it
        # exceeds rank_rtol, and the decision is near exactly inside the
        # fragility band; the two right angles decide nothing
        for seed in range(10):
            rng = np.random.default_rng(seed)
            spans = planted_angle_pair(rng, DEFAULT_TOL.rank_rtol * 10.0 ** x)
            s, t = (range_of(m) for m in spans)
            with record() as rec:
                verdict = meets_trivially(s, t)
            assert (verdict, rec.near) == (x > 0, abs(x) < 1), seed

    @pytest.mark.parametrize("x", PLANTED_ANGLE_EXPONENTS)
    def test_planted_angle_from_either_side_and_from_a_complement(self, x):
        # S ∩ T = {0} is symmetric: from T's side the four sines are S's
        # three (the planted one and two right angles) and one more exact 1.
        # The held-complement form reads the sines from T^⊥ (or S^⊥); every
        # reading gives the one verdict and near of the planted sine
        for seed in range(10):
            rng = np.random.default_rng(seed)
            s, t = (range_of(m) for m in planted_angle_pair(rng, DEFAULT_TOL.rank_rtol * 10.0 ** x))
            s_perp, t_perp = s.complement(), t.complement()
            readings = []
            for read in (lambda: meets_trivially(s, t), lambda: meets_trivially(t, s),
                         lambda: sub._meets_complement_trivially(s, t_perp, DEFAULT_TOL),
                         lambda: sub._meets_complement_trivially(t, s_perp, DEFAULT_TOL)):
                with record() as rec:
                    readings.append((read(), rec.near))
            assert readings == [(x > 0, abs(x) < 1)] * 4, seed

    def test_the_complement_forms_agree_with_the_public_ones(self, rng):
        verdicts = set()
        for s, t in self._pairs(rng):
            t_perp = t.complement()
            verdict = sub._meets_complement_trivially(s, t_perp, DEFAULT_TOL)
            assert verdict == meets_trivially(s, t) == meets_trivially(t, s)
            assert (sub._is_direct_sum_with_complement(s, t_perp, DEFAULT_TOL)
                    == is_direct_sum_all(s, t))
            verdicts.add((verdict, s.dim + t.dim == s.ambient))
        assert verdicts == {(True, True), (False, True), (True, False), (False, False)}

    def test_ambient_mismatch(self):
        with pytest.raises(ShapeError):
            meets_trivially(Subspace.full(2), Subspace.full(3))
        with pytest.raises(ShapeError):
            sub._meets_complement_trivially(Subspace.full(2), Subspace.zero(3), DEFAULT_TOL)


def _contains_by_norm(s: Subspace, t: Subspace) -> bool:
    """contains(s, t) with the column norms taken by numpy.linalg.norm."""
    residual = t.basis - s.basis @ (s.basis.conj().T @ t.basis)
    bound = DEFAULT_TOL.eq_atol + DEFAULT_TOL.eq_rtol
    return float(np.max(np.linalg.norm(residual, axis=0))) <= bound


class TestContainsEquals:
    def test_agrees_with_the_norm_reference(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 9))
            s = range_of(_complex_normal(rng, n, int(rng.integers(1, n + 1))))
            k = int(rng.integers(1, s.dim + 1))
            inside = range_of(s.basis @ _complex_normal(rng, s.dim, k))
            t = range_of(_complex_normal(rng, n, int(rng.integers(1, n + 1))))
            for pair in ((s, t), (t, s), (s, inside), (inside, s)):
                assert contains(*pair) == _contains_by_norm(*pair)

    def test_agrees_with_the_norm_reference_at_the_bound(self, rng):
        # one unit vector whose component outside S is the bound plus a
        # rounding-sized offset, so that the verdict turns on the last bits
        bound = DEFAULT_TOL.eq_atol + DEFAULT_TOL.eq_rtol
        verdicts = set()
        for _ in range(20):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n))
            q = np.linalg.qr(_complex_normal(rng, n, n))[0]
            s = Subspace(q[:, :k])
            for step in range(-20, 21):
                out = bound + step * 1e-17
                t = Subspace(np.sqrt(1.0 - out ** 2) * q[:, :1] + out * q[:, k:k + 1])
                verdict = contains(s, t)
                assert verdict == _contains_by_norm(s, t), (n, k, step)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_image_differs_from_prescribed_range(self):
        # the separation witnessed by the counterexample data
        a_ran_p = image(A22, range_of(P22))
        ran_one_mq = range_of(ONE_MQ22)
        assert not equals(a_ran_p, ran_one_mq)
        assert gap(a_ran_p, ran_one_mq) > 0.5

    def test_contains_trivial(self, rng):
        s = range_of(_complex_normal(rng, 3, 2))
        assert contains(s, Subspace.zero(3))

    def test_full_contains_everything(self, rng):
        s = range_of(_complex_normal(rng, 3, 2))
        assert contains(Subspace.full(3), s)

    def test_ambient_mismatch(self):
        with pytest.raises(ShapeError):
            contains(Subspace.full(2), Subspace.full(3))
        with pytest.raises(ShapeError):
            intersect(Subspace.full(2), Subspace.full(3))
        with pytest.raises(ShapeError):
            sum_of(Subspace.full(2), Subspace.full(3))


class TestFixingLemma:
    """px = x exactly when Ran(x) sits inside Ran(p), and dually."""

    def test_left_fixing(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 7))
            p = random_idempotent(rng, n)
            inside = p @ _complex_normal(rng, n, n)
            x = inside if rng.random() < 0.5 else _complex_normal(rng, n, n)
            if frob(x) <= 1e-9:
                continue
            fixed = frob(p @ x - x) <= 1e-10 + 1e-8 * frob(x)
            assert fixed == contains(range_of(p), range_of(x))

    def test_right_fixing(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 7))
            p = random_idempotent(rng, n)
            through = _complex_normal(rng, n, n) @ p
            x = through if rng.random() < 0.5 else _complex_normal(rng, n, n)
            if frob(x) <= 1e-9:
                continue
            fixed = frob(x @ p - x) <= 1e-10 + 1e-8 * frob(x)
            assert fixed == contains(kernel_of(x), kernel_of(p))


class TestGap:
    def test_gap_of_identical(self, rng):
        s = range_of(_complex_normal(rng, 4, 2))
        assert gap(s, s) <= 1e-12

    def test_gap_of_orthogonal_lines(self):
        assert gap(E1, E2) == pytest.approx(1.0)

    def test_gap_against_trivial(self):
        assert gap(E1, Subspace.zero(2)) == pytest.approx(1.0)

    @staticmethod
    def _two_sided(s, t) -> float:
        """The larger of the two one-sided projection defects, each by its own SVD."""
        def defect(u, v):
            outside = v.basis - u.basis @ (u.basis.conj().T @ v.basis)
            return float(np.linalg.svd(outside, compute_uv=False)[0])

        return max(defect(s, t), defect(t, s))

    def test_gap_is_the_two_sided_defect_at_equal_dimensions(self, rng):
        # the one-sided defects of equal-dimension subspaces are equal, down
        # to angles near the rounding floor
        for n in range(1, 17):
            for d in range(1, n + 1):
                s = range_of(_complex_normal(rng, n, d))
                for eps in (1.0, 1e-4, 1e-12):
                    t = range_of(s.basis + eps * _complex_normal(rng, n, d))
                    assert t.dim == d
                    expected = self._two_sided(s, t)
                    assert abs(gap(s, t) - expected) <= 1e-14 + 1e-12 * expected, (n, d, eps)

    def test_gap_is_one_at_unequal_dimensions(self, rng):
        for n in range(1, 9):
            for d in range(n + 1):
                s = Subspace.zero(n) if d == 0 else range_of(_complex_normal(rng, n, d))
                for e in range(n + 1):
                    if e != d:
                        t = Subspace.zero(n) if e == 0 else range_of(_complex_normal(rng, n, e))
                        assert gap(s, t) == 1.0 and gap(t, s) == 1.0

    def test_gap_of_zero_spaces(self):
        assert gap(Subspace.zero(3), Subspace.zero(3)) == 0.0


def test_tolerance_is_threaded(rng):
    a = _complex_normal(rng, 4, 4)
    assert range_of(a, DEFAULT_TOL).dim == range_of(a).dim
