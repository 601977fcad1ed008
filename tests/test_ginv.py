import numpy as np
import pytest

from pqinv.densela import DEFAULT_TOL, frob, rank, rank_factorization
from pqinv.errors import NumericalError, ShapeError
from pqinv.ginv import (
    _validate_drazin,
    drazin_inverse,
    factored_group_inverse,
    gi_idempotents,
    group_inverse,
    inner_inverse,
    moore_penrose,
    reflexive_inverse,
)
from pqinv.subspace import equals, kernel_of, range_of
from pqinv.verify import _complex_normal

from matrix_generators import graded_core_matrix, varied_index_matrix, varied_rank_matrix

SHIFT = np.array([[0, 0], [1, 0]], dtype=complex)  # partial isometry
NILP = np.array([[0, 1], [0, 0]], dtype=complex)
IDEM = np.array([[1, 1], [0, 0]], dtype=complex)


class TestMoorePenrose:
    def test_partial_isometry(self):
        assert frob(moore_penrose(SHIFT) - SHIFT.conj().T) <= 1e-14

    def test_identity(self):
        assert np.allclose(moore_penrose(np.eye(3)), np.eye(3))

    def test_rank_one(self):
        # outer product u v^H has pseudo-inverse v u^H / (|u|^2 |v|^2)
        expected = np.array([[0.5, 0], [0.5, 0]], dtype=complex)
        assert frob(moore_penrose(IDEM) - expected) <= 1e-14

    def test_zero(self):
        assert np.array_equal(moore_penrose(np.zeros((2, 3))), np.zeros((3, 2)))

    def test_penrose_axioms_random(self, rng):
        for _ in range(30):
            n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            r = int(rng.integers(0, min(n, m) + 1))
            a = _complex_normal(rng, n, r) @ _complex_normal(rng, r, m)
            g = moore_penrose(a)
            scale = 1e-10 * (1.0 + frob(a))
            assert frob(a @ g @ a - a) <= scale
            assert frob(g @ a @ g - g) <= 1e-10 * (1.0 + frob(g))
            assert frob((a @ g).conj().T - a @ g) <= scale
            assert frob((g @ a).conj().T - g @ a) <= scale

    def test_against_regularized_limit_oracle(self, rng):
        # independent route: the pseudo-inverse is the small-eps limit of
        # (a^H a + eps)^-1 a^H; with singular values bounded below by 0.3
        # the regularization error at eps = 1e-8 stays under eps / 0.3^3
        for _ in range(10):
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            r = int(rng.integers(0, min(n, m) + 1))
            u, _ = np.linalg.qr(_complex_normal(rng, n, max(r, 1)))
            v, _ = np.linalg.qr(_complex_normal(rng, m, max(r, 1)))
            sigmas = rng.uniform(0.3, 2.0, size=r)
            a = (u[:, :r] * sigmas) @ v[:, :r].conj().T
            eps = 1e-8
            oracle = np.linalg.solve(
                a.conj().T @ a + eps * np.eye(m), a.conj().T
            )
            assert frob(moore_penrose(a) - oracle) <= 1e-5


class TestInnerReflexive:
    def test_inner_identity(self):
        assert np.allclose(inner_inverse(np.eye(2)), np.eye(2))

    def test_inner_zero(self):
        g = inner_inverse(np.zeros((2, 2)))
        assert frob(np.zeros((2, 2)) @ g @ np.zeros((2, 2))) == 0.0

    def test_inner_shift(self):
        g = inner_inverse(SHIFT)
        assert frob(SHIFT @ g @ SHIFT - SHIFT) <= 1e-14

    def test_reflexive_diagonal(self):
        assert frob(reflexive_inverse(np.diag([2.0, 0.0])) - np.diag([0.5, 0.0])) <= 1e-14

    def test_reflexive_axioms_random(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 8))
            a = varied_rank_matrix(rng, n)
            b = reflexive_inverse(a)
            assert frob(a @ b @ a - a) <= 1e-9 * (1.0 + frob(a))
            assert frob(b @ a @ b - b) <= 1e-9 * (1.0 + frob(b))


class TestGroupInverse:
    def test_nilpotent_has_none(self):
        assert group_inverse(NILP) is None

    def test_diagonal(self):
        assert frob(group_inverse(np.diag([2.0, 0.0])) - np.diag([0.5, 0.0])) <= 1e-14

    def test_idempotent_is_self_inverse(self):
        for e in (IDEM, np.eye(2)):
            assert frob(group_inverse(e) - e) <= 1e-12

    def test_rectangular_rejected(self):
        with pytest.raises(ShapeError):
            group_inverse(np.ones((2, 3)))

    def test_verdict_matches_rank_test(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 8))
            style = rng.random()
            if style < 0.4:
                a = _complex_normal(rng, n, n)
            elif style < 0.7:
                a = varied_rank_matrix(rng, n)
            else:
                a = np.triu(_complex_normal(rng, n, n), k=1)  # forced nilpotent
            g = group_inverse(a)
            assert (g is not None) == (rank(a) == rank(a @ a))

    def test_one_factorization_of_a(self, monkeypatch):
        # one full SVD of a gives both rank(a) and the factors F, G; index one
        # is the rank of the r x r core G F, from the one SVD that inverts it
        svd = np.linalg.svd
        calls = []

        def recording_svd(m, *args, **kwargs):
            calls.append((m.shape, kwargs.get("compute_uv", True)))
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        g = group_inverse(np.diag([2.0, 4.0, 0.0, 0.0]))
        assert frob(g - np.diag([0.5, 0.25, 0.0, 0.0])) <= 1e-14
        assert calls == [((4, 4), True), ((2, 2), True)]

    def test_factored_form_is_group_inverse_on_its_factors(self, rng):
        # group_inverse(a) is factored_group_inverse on a's own factorization,
        # bit for bit; rank 0 gives the n x n zero and index two None
        for a in (_complex_normal(rng, 5, 5), varied_rank_matrix(rng, 6), np.zeros((3, 3)), NILP):
            f, g = rank_factorization(a)
            expected = group_inverse(a)
            got = factored_group_inverse(f, g @ f, g)
            if expected is None:
                assert got is None
            else:
                assert got.shape == a.shape and np.array_equal(got, expected)

    def test_index_two_nilpotents_have_none(self, rng):
        # a = V J V^-1 with J^2 = 0 != J, so a a = F (G F) G = 0 and G F is
        # rounding noise, which only the snap at its factors' floor reads as 0
        for _ in range(300):
            n = int(rng.integers(2, 9))
            pairs = int(rng.integers(1, n // 2 + 1))
            j = np.zeros((n, n), dtype=complex)
            j[np.arange(0, 2 * pairs, 2), np.arange(1, 2 * pairs, 2)] = 1.0
            v = _complex_normal(rng, n, n)
            assert group_inverse(v @ j @ np.linalg.inv(v)) is None

    def test_axioms_when_it_exists(self, rng):
        for _ in range(20):
            inst = varied_index_matrix(rng, int(rng.integers(1, 8)), max_index=1)
            a, g = inst["a"], group_inverse(inst["a"])
            assert g is not None
            assert frob(a @ g @ a - a) <= 1e-9 * (1.0 + frob(a))
            assert frob(g @ a @ g - g) <= 1e-9 * (1.0 + frob(g))
            assert frob(a @ g - g @ a) <= 1e-9 * (1.0 + frob(a) * frob(g))

    def test_gauge_invariance(self, rng):
        for _ in range(10):
            inst = varied_index_matrix(rng, 6, max_index=1)
            a = inst["a"]
            f, g = rank_factorization(a)
            r = f.shape[1]
            mix = _complex_normal(rng, r, r) + 2 * np.eye(r)
            f2, g2 = f @ mix, np.linalg.inv(mix) @ g
            core = np.linalg.inv(g2 @ f2)
            regauged = f2 @ core @ core @ g2
            assert frob(regauged - group_inverse(a)) <= 1e-9 * (1.0 + frob(a))

    def test_against_eigendecomposition_oracle(self, rng):
        # independent route: invert the spectrum on the core of a
        # diagonalizable matrix and compare
        for _ in range(15):
            inst = varied_index_matrix(rng, int(rng.integers(2, 8)), max_index=1)
            a, d_ref = inst["a"], inst["d_ref"]
            g = group_inverse(a)
            assert g is not None
            assert frob(g - d_ref) <= 1e-8 * (1.0 + frob(d_ref))


class TestDrazin:
    def test_nilpotent(self):
        result = drazin_inverse(NILP)
        assert result.index == 2
        assert frob(result.inverse) == 0.0
        assert np.allclose(result.spectral_idempotent, np.eye(2))

    def test_invertible(self, rng):
        a = _complex_normal(rng, 4, 4) + 3 * np.eye(4)
        result = drazin_inverse(a)
        assert result.index == 0
        assert frob(result.inverse - np.linalg.inv(a)) <= 1e-10 * frob(np.linalg.inv(a))
        assert frob(result.spectral_idempotent) <= 1e-10

    def test_idempotent(self):
        result = drazin_inverse(IDEM)
        assert result.index == 1
        assert frob(result.inverse - IDEM) <= 1e-12
        assert frob(result.spectral_idempotent - (np.eye(2) - IDEM)) <= 1e-12

    def test_zero_matrix(self):
        result = drazin_inverse(np.zeros((3, 3)))
        assert result.index == 1
        assert frob(result.inverse) == 0.0

    def test_against_block_oracle(self, rng):
        for _ in range(25):
            inst = varied_index_matrix(rng, int(rng.integers(1, 9)))
            result = drazin_inverse(inst["a"])
            assert result.index == inst["index"]
            assert frob(result.inverse - inst["d_ref"]) <= 1e-8 * (1.0 + frob(inst["d_ref"]))
            assert frob(result.spectral_idempotent - inst["pi_ref"]) <= 1e-8 * (
                1.0 + frob(inst["pi_ref"])
            )

    def test_axioms(self, rng):
        for _ in range(25):
            inst = varied_index_matrix(rng, int(rng.integers(1, 9)))
            a = inst["a"]
            res = drazin_inverse(a)
            d, k = res.inverse, res.index
            assert frob(d @ a @ d - d) <= 1e-9 * (1.0 + frob(d))
            assert frob(a @ d - d @ a) <= 1e-9 * (1.0 + frob(a) * frob(d))
            power = np.linalg.matrix_power(a, k)
            assert frob(power @ a @ d - power) <= 1e-9 * (1.0 + frob(power))
            pi = res.spectral_idempotent
            assert frob(pi @ pi - pi) <= 1e-9 * (1.0 + frob(pi))

    def test_scale_invariance(self):
        # (s a)^D = a^D / s with the same index; at s = 1e6, seeds 23, 27, 30,
        # 34 and 35 pass the power axiom only at its products' rounding floor
        for seed in range(40):
            inst = varied_index_matrix(np.random.default_rng(seed), 8)
            d = drazin_inverse(inst["a"]).inverse
            for s in (1e-6, 1.0, 1e6):
                res = drazin_inverse(s * inst["a"])
                assert res.index == inst["index"]
                assert frob(res.inverse * s - d) <= 1e-8 * (1.0 + frob(d))

    @pytest.mark.parametrize("scale", [1e2, 1e3])
    def test_scaled_nilpotent_is_exact(self, scale):
        # a^k of a nilpotent part is only the rounding noise of its products
        for seed in range(40):
            inst = varied_index_matrix(np.random.default_rng(seed), 8, core=0)
            res = drazin_inverse(scale * inst["a"])
            assert res.index == inst["index"]
            assert frob(res.inverse) == 0.0

    @pytest.mark.parametrize("scale", [1.0, 1e2, 1e3])
    def test_index_too_low_is_rejected(self, scale):
        # d = 0 is a nilpotent's Drazin inverse, but not with index k - 1
        for seed in range(10):
            inst = varied_index_matrix(np.random.default_rng(seed), 8, core=0)
            with pytest.raises(NumericalError, match="axiom 'power'"):
                _validate_drazin(scale * inst["a"], np.zeros((8, 8), dtype=complex),
                                 inst["index"] - 1, 0, DEFAULT_TOL)

    @pytest.mark.parametrize("size", [16, 32, 64])
    def test_long_jordan_block_beside_a_core(self, size):
        # index = size: a nested recursion would double its rounding error
        # per level, and a power chain loses the core below the rank cutoff
        lam = np.diag([1.0, 1.5, 2.0])
        a = np.zeros((size + 3, size + 3), dtype=complex)
        a[:3, :3] = lam
        a[3:, 3:] = np.diag(np.ones(size - 1), 1)
        d_ref = np.zeros_like(a)
        d_ref[:3, :3] = np.linalg.inv(lam)
        res = drazin_inverse(a)
        assert res.index == size
        assert frob(res.inverse - d_ref) <= 1e-12

    def test_mildly_graded_core_is_accepted(self):
        # core magnitudes over [1e-2, 1]: accepted, and near V J^+ V^-1, which
        # is an oracle up to kappa = 1e2 only
        for seed in range(12):
            n = (8, 16, 32)[seed % 3]
            a, d_ref = graded_core_matrix(np.random.default_rng(seed), n, 1e2)
            assert frob(drazin_inverse(a).inverse - d_ref) <= 1e-8 * (1 + frob(d_ref))

    def test_missing_core_eigenvalue_is_rejected(self):
        # d without the eigenvalue-1 block passes the three axioms: in the
        # power axiom a^32 carries 2^32 on the eigenvalue 2, which swamps the
        # missing 1; tr(a d) reads 2 where the core has rank 3
        a = np.zeros((35, 35), dtype=complex)
        a[:3, :3] = np.diag([1.0, 1.5, 2.0])
        a[3:, 3:] = np.diag(np.ones(31), 1)
        d = np.zeros_like(a)
        d[1:3, 1:3] = np.diag([1 / 1.5, 0.5])
        with pytest.raises(NumericalError, match=r"^Drazin certificate tr\(a d\) = 3 failed"):
            _validate_drazin(a, d, 32, 3, DEFAULT_TOL)
        assert frob(_validate_drazin(a, d, 32, 2, DEFAULT_TOL) - a @ d) == 0.0

    def test_non_finite_inverse_is_rejected(self):
        d = np.full((2, 2), np.nan, dtype=complex)
        with pytest.raises(NumericalError, match="axiom 'outer'"):
            _validate_drazin(IDEM, d, 1, 1, DEFAULT_TOL)

    def test_staircases_take_no_power_decomposition(self, count_linalg, monkeypatch):
        # index 3: a factored once, its SVD starting both staircases, which
        # factor three blocks each; one SVD of the core solves.  No solve, no
        # matrix factored twice, no pseudo-inverse, and the one power of a is
        # the validation's a^k
        from pqinv import ginv

        a = varied_index_matrix(np.random.default_rng(0), 16, core=8)["a"]
        shapes, factored, powers = [], set(), []
        lapack_svd, lapack_power = np.linalg.svd, np.linalg.matrix_power

        def svd(m, compute_uv=True):
            shapes.append(m.shape)
            factored.add(m.tobytes())
            return lapack_svd(m, compute_uv=compute_uv)

        def matrix_power(m, k):
            powers.append(k)
            return lapack_power(m, k)

        def no_pinv(*args, **kwargs):
            raise AssertionError("moore_penrose called")

        monkeypatch.setattr(np.linalg, "svd", svd)
        monkeypatch.setattr(np.linalg, "matrix_power", matrix_power)
        monkeypatch.setattr(ginv, "moore_penrose", no_pinv)
        result = {}
        counts = count_linalg(lambda: result.update(dz=drazin_inverse(a)), ("svd", "solve"))
        assert result["dz"].index == 3
        assert counts == {"svd": 8, "solve": 0}
        assert shapes.count(a.shape) == 1 and len(factored) == len(shapes)
        assert powers == [3]

    @pytest.mark.parametrize("kappa", [1e3, 1e4])
    def test_graded_core_is_accepted(self, kappa):
        # the seeds and sizes of the stability line's graded-core count; the
        # axioms are checked here, not V J^+ V^-1, which is no oracle past
        # kappa = 1e2
        for seed in range(100):
            n = (8, 16, 32)[seed % 3]
            a, _ = graded_core_matrix(np.random.default_rng(seed), n, kappa)
            res = drazin_inverse(a)
            d, pi = res.inverse, res.spectral_idempotent
            assert res.index >= 1
            assert abs(np.trace(a @ d) - n // 2) <= 1e-8
            assert frob(d @ a @ d - d) <= 1e-10 * frob(d)
            assert frob(a @ d - d @ a) <= 1e-10 * frob(a) * frob(d)
            power = np.linalg.matrix_power(a, res.index)
            assert frob(power @ a @ d - power) <= 1e-10 * frob(power) * frob(a) * frob(d)
            assert frob(pi @ pi - pi) <= 1e-10 * frob(pi)

    @pytest.mark.parametrize("skew", ["index", "rank"])
    def test_staircase_disagreement_is_refused(self, monkeypatch, skew):
        # the staircase of a^H runs second; whatever it reads against that
        # of a, no value is returned
        from pqinv import ginv

        staircase, runs = ginv._staircase, []

        def skewed(factored, tol):
            basis, k = staircase(factored, tol)
            runs.append(k)
            if len(runs) == 2:
                return (basis, k + 1) if skew == "index" else (basis[1:], k)
            return basis, k

        monkeypatch.setattr(ginv, "_staircase", skewed)
        a = varied_index_matrix(np.random.default_rng(0), 16, core=8)["a"]
        with pytest.raises(NumericalError, match=r"^the Drazin staircases of a and a\^H disagree"):
            drazin_inverse(a)
        assert runs == [3, 3]


class TestGiIdempotents:
    def test_shift(self):
        p, q = gi_idempotents(SHIFT)
        assert frob(p - np.diag([1.0, 0.0])) <= 1e-14
        assert frob(q - np.diag([0.0, 1.0])) <= 1e-14

    def test_identity(self):
        p, q = gi_idempotents(np.eye(2))
        assert np.allclose(p, np.eye(2)) and np.allclose(q, np.eye(2))

    def test_zero(self):
        p, q = gi_idempotents(np.zeros((2, 2)))
        assert frob(p) == 0.0 and frob(q) == 0.0

    def test_kernel_and_range_characterization(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 8))
            a = varied_rank_matrix(rng, n)
            p, q = gi_idempotents(a)
            assert frob(p @ p - p) <= 1e-10 * (1 + frob(p))
            assert frob(q @ q - q) <= 1e-10 * (1 + frob(q))
            assert equals(kernel_of(p), kernel_of(a))
            assert equals(range_of(q), range_of(a))
