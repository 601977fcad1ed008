import ast
import inspect
import sys
import warnings
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pqinv
from pqinv import densela
from pqinv.densela import (
    DEFAULT_TOL,
    Tolerances,
    as_matrix,
    check_residual,
    count_rank,
    eigenvalues,
    exp_integral,
    frob,
    idempotent_bases,
    idempotent_kernel,
    is_noise,
    matrix_exp,
    rank,
    rank_factorization,
    record,
    rounding_bound,
    solve,
    solve_core,
    solve_left,
    solve_right,
    svd,
)
from pqinv.errors import NonexistentInverseError, NumericalError, ShapeError
from pqinv.ginv import drazin_inverse
from pqinv.prescribed import (
    PqProblem,
    diagnose,
    matrix_with_range_kernel,
    one_two_inverse,
    one_two_inverse_strict,
    outer_inverse,
    outer_inverse_strict,
    represent,
)
from pqinv.subspace import Subspace, image
from pqinv.verify import (
    _complex_normal,
    _conditioned_matrix,
    _random_unitary,
    diagonalizable_instance,
    fuzz,
    random_triple,
)

from matrix_generators import _oblique, oblique_instance, straddling_idempotent

P22 = np.array([[1, 1], [0, 0]], dtype=complex)


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances()
        assert tol.rank_rtol == 1e-10
        assert tol.eq_atol == 1e-10
        assert tol.eq_rtol == 1e-8
        assert tol.conv_tol == 1e-8

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Tolerances(rank_rtol=-1e-3)

    def test_json_dict_in_field_order(self):
        tol = Tolerances(rank_rtol=3e-11, eq_atol=2e-10, eq_rtol=5e-9, conv_tol=2e-8)
        assert list(tol.to_json_dict().items()) == [
            ("rank_rtol", 3e-11), ("eq_atol", 2e-10), ("eq_rtol", 5e-9), ("conv_tol", 2e-8),
        ]


class TestCheckResidual:
    def test_within_bound_returns_the_residual(self):
        assert check_residual(0.25, 1.0, "x = y") == 0.25

    def test_bound_is_inclusive(self):
        assert check_residual(1.0, 1.0, "x = y") == 1.0

    @pytest.mark.parametrize("residual", [float("nan"), float("inf"), 1.5],
                             ids=["nan", "inf", "above"])
    def test_nan_inf_and_above_fail(self, residual):
        with pytest.raises(NumericalError):
            check_residual(residual, 1.0, "x = y")

    def test_infinite_bound_does_not_pass_nan(self):
        with pytest.raises(NumericalError):
            check_residual(float("nan"), float("inf"), "x = y")

    def test_error_class_and_message_carry_what_and_both_numbers(self):
        with pytest.raises(ValueError) as exc:
            check_residual(2.5e-3, 1e-8, "p fails p² = p", ValueError)
        assert type(exc.value) is ValueError
        assert str(exc.value) == "p fails p² = p (residual 2.500e-03, bound 1.000e-08)"

    def test_error_factory(self):
        def factory(message):
            return NonexistentInverseError(f"prefix: {message}")

        with pytest.raises(NonexistentInverseError) as exc:
            check_residual(float("nan"), 1.0, "b a b = b", factory)
        assert exc.value.reason == "prefix: b a b = b (residual nan, bound 1.000e+00)"


class TestRoundingBound:
    X = np.array([[3.0, 4.0]])  # Frobenius norm 5

    def test_the_larger_of_eq_bound_and_the_product_floor(self):
        eq = densela.eq_bound(self.X, self.X)
        assert densela.PRODUCT_NOISE * 1.0 < eq < densela.PRODUCT_NOISE * 1e6
        assert rounding_bound(self.X, self.X, 1.0) == eq
        assert rounding_bound(self.X, self.X, 1e6) == densela.PRODUCT_NOISE * 1e6

    def test_scale_zero_is_eq_bound(self):
        tol = Tolerances(eq_atol=0.0, eq_rtol=1e-6)
        assert rounding_bound(self.X, 2 * self.X, 0.0, tol) == densela.eq_bound(
            self.X, 2 * self.X, tol)

    def test_infinite_scale(self):
        assert rounding_bound(self.X, self.X, float("inf")) == float("inf")

    def test_nan_residual_fails_through_check_residual(self):
        with pytest.raises(NumericalError):
            check_residual(float("nan"), rounding_bound(self.X, self.X, float("inf")), "x = y")


class TestEqBound:
    def test_one_norm_for_one_matrix(self, monkeypatch):
        x, y = np.array([[3.0, 4.0]]), np.array([[6.0, 8.0]])
        calls = []
        monkeypatch.setattr(densela, "frob", lambda m: calls.append(m) or frob(m))
        assert densela.eq_bound(x, x) == 1e-10 + 1e-8 * 5.0
        assert len(calls) == 1
        assert densela.eq_bound(x, y) == densela.eq_bound(y, x) == 1e-10 + 1e-8 * 10.0
        assert len(calls) == 5


class TestNoise:
    def test_floor_is_inclusive(self):
        m = np.array([[3.0, 4.0]])  # Frobenius norm 5
        assert is_noise(m, 5.0)
        assert not is_noise(m, 4.999)


class TestFrob:
    def test_matches_numpy_norm_bit_for_bit(self, rng):
        for n, m in ((1, 1), (3, 5), (8, 8), (17, 4)):
            real = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-8, 8)
            cplx = _complex_normal(rng, n, m) * 10.0 ** rng.integers(-8, 8)
            for x in (real, cplx, real.T, cplx.T, cplx.conj().T, real[::2, ::-1],
                      cplx[::2, ::3], cplx[::-1, 1::2].T, np.asfortranarray(cplx)):
                assert frob(x) == float(np.linalg.norm(x))

    def test_integer_and_empty_input(self):
        assert frob(np.array([[3, 4]])) == 5.0
        assert frob(np.zeros((0, 3), dtype=np.complex128)) == 0.0


class TestAsMatrix:
    def test_rejects_vector(self):
        with pytest.raises(ShapeError):
            as_matrix(np.ones(3))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix([[np.nan, 0], [0, 1]])

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            as_matrix(np.zeros((0, 2)))

    @pytest.mark.parametrize("entry", [complex(np.inf, 0.0), complex(0.0, -np.inf),
                                       complex(np.nan, 1.0), complex(1.0, np.nan)])
    def test_rejects_a_non_finite_part_by_name(self, entry):
        with pytest.raises(ValueError, match="^w contains non-finite entries$"):
            as_matrix([[1.0, entry], [0.0, 1.0]], "w")

    def test_keeps_finite_entries(self):
        m = as_matrix([[1e308, -1e308j], [0.0, 5e-324]])
        assert m.dtype == np.complex128 and m[0, 1] == -1e308j


@pytest.mark.parametrize("call, message", [
    (lambda: eigenvalues(np.ones((2, 3))), "matrix must be square, got shape (2, 3)"),
    (lambda: solve_left(np.eye(3), np.ones((3, 2))), "A has 3 cols but B has 2"),
    (lambda: drazin_inverse(np.ones((2, 3))), "Drazin inverse needs a square matrix, got (2, 3)"),
    (lambda: matrix_with_range_kernel(np.eye(2), np.eye(3)),
     "p and q must be square of one size, got (2, 2), (3, 3)"),
    (lambda: Subspace(np.zeros((0, 0))), "basis must be n x d with n >= 1, got shape (0, 0)"),
    (lambda: Subspace(np.zeros((2, 3))), "basis has 3 columns in ambient dimension 2"),
    (lambda: Subspace.zero(0), "ambient dimension must be at least 1, got 0"),
    (lambda: Subspace.full(0), "ambient dimension must be at least 1, got 0"),
    (lambda: image(np.eye(3), Subspace.full(2)), "matrix has 3 cols, subspace lives in C^2"),
    (lambda: solve_core(np.ones((2, 3)), 0.0), "core must be square, got shape (2, 3)"),
], ids=["require_square", "solve_left", "drazin", "range_kernel", "ambient", "basis_columns",
        "zero_ambient", "full_ambient", "image", "solve_core"])
def test_shape_error_names_the_mismatch(call, message):
    with pytest.raises(ShapeError) as info:
        call()
    assert (info.type, str(info.value)) == (ShapeError, message)


class TestSolve:
    def test_identity_system(self, rng):
        b = _complex_normal(rng, 3, 2)
        x = solve_right(np.eye(3), b)
        assert np.allclose(x, b)

    def test_consistent_rank_deficient(self):
        a = np.ones((2, 2), dtype=complex)
        b = np.array([[0, 1], [0, 1]], dtype=complex)
        x = solve_right(a, b)
        assert x is not None
        assert frob(a @ x - b) <= 1e-10 + 1e-8 * frob(b)
        # the displayed solution [[0,1],[0,0]] also satisfies the system
        assert frob(a @ np.array([[0, 1], [0, 0]]) - b) == 0.0

    def test_inconsistent(self):
        assert solve_right(np.array([[0, 1], [0, 0]], dtype=complex), np.eye(2)) is None

    def test_mismatch_is_not_inconsistency(self):
        with pytest.raises(ShapeError):
            solve_right(np.ones((3, 2)), np.ones((2, 2)))

    def test_left_system(self):
        # t solving t m = p for m = (1-q) a p of the counterexample data
        m = np.ones((2, 2), dtype=complex)
        t = solve_left(m, P22)
        assert t is not None
        assert frob(t @ m - P22) <= 1e-9

    def test_returned_solutions_are_consistent(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 7))
            a = _complex_normal(rng, n, n)
            a[:, 0] = a[:, -1]  # force rank deficiency for n > 1
            b = a @ _complex_normal(rng, n, n)
            x = solve_right(a, b)
            assert x is not None
            assert frob(a @ x - b) <= 1e-10 + 1e-8 * frob(b)


class TestSolveCore:
    def test_empty_core_is_the_zero_block_without_lapack(self):
        with record() as rec:
            inverse, f = solve_core(np.zeros((0, 0), dtype=complex), 0.0)
        assert (inverse.shape, inverse.dtype, f, sum(rec.calls.values())) == (
            (0, 0), np.complex128, None, 0)

    @pytest.mark.parametrize("core, floor", [
        (np.diag([1.0, 0.0]), 0.0),  # rank 1 < 2
        (1e-13 * np.eye(2), 1e-12),  # rank 2 at rank_rtol, but at the rounding floor
    ], ids=["rank", "noise"])
    def test_singular_core_is_none(self, core, floor):
        # a rank-deficient core comes with the SVD that refused it; noise takes none
        inverse, f = solve_core(core.astype(complex), floor)
        assert inverse is None
        assert f is None if floor else f.rank() < 2

    @pytest.mark.parametrize("core, floor, svds", [
        (np.diag([1.0, 2.0]), 0.0, 1),
        (np.diag([1.0, 0.0]), 0.0, 1),
        (1e-13 * np.eye(2), 1e-12, 0),
    ], ids=["invertible", "rank", "noise"])
    def test_one_svd_and_no_solve_per_core(self, count_linalg, core, floor, svds):
        # the SVD that decides the rank also inverts; a noise core takes none
        outs = []
        calls = count_linalg(lambda: outs.append(solve_core(core.astype(complex), floor)),
                             ("svd", "solve"))
        assert calls == {"svd": svds, "solve": 0}
        assert (outs[0][1] is None) == (svds == 0)

    @pytest.mark.parametrize("kappa", [1.0, 1e4, 1e8])
    def test_agrees_with_lu_on_graded_cores(self, kappa):
        # both solves are accurate to about kappa eps, relative to the solution
        for seed in range(10):
            rng = np.random.default_rng(seed)
            r = int(rng.integers(2, 17))
            sigmas = np.logspace(0.0, -np.log10(kappa), r)
            core = (_random_unitary(rng, r) * sigmas) @ _random_unitary(rng, r)
            rhs = _complex_normal(rng, r, 3)
            inverse, f = solve_core(core, 0.0)
            # the returned SVD's pseudo-inverse, after the Newton step, is the answer
            seed = f.pinv()
            assert np.array_equal(inverse, seed + seed @ (np.eye(r) - core @ seed))
            x, x_lu = inverse @ rhs, np.linalg.solve(core, rhs)
            assert frob(x - x_lu) <= r * kappa * np.finfo(float).eps * frob(x_lu)

    @pytest.mark.parametrize("kappa", [1e4, 1e8])
    def test_column_scaled_core_leaves_a_residual_of_r_eps(self, kappa):
        # a core G F = (G u) diag(s) of a rank factorization: the Newton step
        # takes 1 - core X to r eps, where the bare pseudo-inverse leaves
        # 10 to 40 times that
        for seed in range(10):
            rng = np.random.default_rng(seed)
            r = int(rng.integers(2, 17))
            core = _conditioned_matrix(rng, r, 10.0) * np.logspace(0.0, -np.log10(kappa), r)
            x, f = solve_core(core, 0.0)
            assert f.rank() == r
            assert frob(np.eye(r) - core @ x) <= r * np.finfo(float).eps


class TestRank:
    def test_diagonal(self):
        assert rank(np.diag([2.0, 0.0])) == 1

    def test_single_row(self):
        assert rank(P22) == 1

    def test_identity(self):
        assert rank(np.eye(5)) == 5

    def test_zero(self):
        assert rank(np.zeros((3, 3))) == 0

    def test_count_rank_from_singular_values(self):
        tol = Tolerances(rank_rtol=1e-3)
        # the cutoff is rank_rtol * sigma_max = 2e-3 exactly, and is not counted
        assert count_rank(np.array([2.0, 2.1e-3, 2e-3]), tol) == 2
        assert count_rank(np.array([0.0, 0.0]), tol) == 0
        assert count_rank(np.array([]), tol) == 0

    def test_default_scale_is_sigma_max(self, rng):
        # the relative rule written out: the count and near against
        # rank_rtol * sigma_max and its two scaled cutoffs
        rtol = DEFAULT_TOL.rank_rtol
        for _ in range(200):
            s = np.sort(10.0 ** rng.uniform(-13, 1, int(rng.integers(1, 8))))[::-1]
            counts = [int(np.count_nonzero(s > rtol * f * s[0])) for f in (1.0, 10.0, 0.1)]
            with record() as rec:
                assert count_rank(s) == counts[0]
            assert rec.near == (counts[1] != counts[2])

    def test_scale_one_counts_above_rank_rtol(self):
        # the cutoff is rank_rtol itself, not rank_rtol * sigma_max
        rtol = DEFAULT_TOL.rank_rtol
        s = np.array([0.5, 2 * rtol, rtol, 0.5 * rtol])
        assert (count_rank(s), count_rank(s, scale=1.0)) == (3, 2)
        s = np.array([1e-3, 1e-11])
        assert (count_rank(s), count_rank(s, scale=1.0)) == (2, 1)

    def test_adjoint_invariance(self, rng):
        for _ in range(10):
            a = _complex_normal(rng, 4, 6)
            assert rank(a) == rank(a.conj().T)


class TestRankBand:
    def test_decision_within_the_factor_band_is_near(self):
        # the cutoff is 1e-10 * sigma_max; 3e-10 and 3e-11 count at one of
        # the scaled cutoffs 1e-9 and 1e-11 but not at the other
        for edge in (3e-10, 3e-11):
            with record() as rec:
                assert count_rank(np.array([1.0, edge])) == (2 if edge > 1e-10 else 1)
            assert rec.near

    def test_decisions_outside_the_band_are_not_near(self):
        with record() as rec:
            count_rank(np.array([1.0, 2e-9, 1e-12, 0.0]))
            count_rank(np.array([0.0, 0.0]))
            rank(np.eye(3))
        assert not rec.near

    def test_band_edges_match_the_scaled_cutoffs(self):
        # a value counts when strictly above a cutoff, so the band is (lo, hi]
        hi, lo = 1e-10 * 10.0, 1e-10 * 0.1
        for edge, near in ((np.nextafter(hi, 1.0), False), (hi, True),
                           (np.nextafter(lo, 1.0), True), (lo, False)):
            with record() as rec:
                count_rank(np.array([1.0, edge]))
            assert rec.near == near, edge

    def test_least_squares_rank_is_watched(self):
        a = np.diag([1.0, 3e-10]).astype(complex)
        with record() as rec:
            solve_right(a, np.eye(2))
        assert rec.near
        with record() as rec:
            solve_left(np.diag([1.0, 0.5]), np.eye(2))
        assert not rec.near

    def test_decision_taken_unwatched_is_near_when_read_in_a_record(self):
        # the rank of one factorization is decided once; a block that reads
        # a decision first taken outside any block still sees it is near
        f = densela.Factored(None, np.array([1.0, 3e-10]), None)
        assert f.rank() == 2
        with record() as rec:
            assert f.rank() == 2
        assert rec.near
        with record() as again:
            assert f.rank() == 2
        assert again.near

    def test_no_record_after_the_watch_ends(self):
        with record() as rec:
            pass
        count_rank(np.array([1.0, 3e-10]))
        assert not rec.near


class TestRecord:
    def test_each_lapack_call_is_counted_by_kind(self, monkeypatch):
        with record() as rec:
            svd(np.eye(3))
            svd(np.zeros((3, 0)))  # factored without LAPACK
            solve(np.eye(2), np.ones((2, 1)))
            with pytest.raises(np.linalg.LinAlgError):
                solve(np.zeros((2, 2)), np.ones((2, 1)))
            eigenvalues(np.eye(2))
            matrix_exp(np.eye(2))  # one Pade solve
            monkeypatch.setattr(np.linalg, "svd", _fails_once(np.linalg.svd))
            svd(np.eye(2))  # the failed attempt and the adjoint retry
        assert rec.calls == {"svd": 3, "solve": 3, "eigvals": 1}

    def test_nested_blocks_record_apart_and_add_to_the_outer(self):
        with record() as outer:
            svd(np.eye(2))
            with record() as inner:
                count_rank(np.array([1.0, 3e-10]))
                solve(np.eye(2), np.eye(2))
            assert inner.near and inner.calls == {"solve": 1}
            assert outer.calls == {"svd": 1, "solve": 1} and outer.near
        with record() as outer:
            with pytest.raises(np.linalg.LinAlgError), record() as inner:
                count_rank(np.array([1.0, 3e-10]))
                solve(np.zeros((2, 2)), np.eye(2))
        assert inner.calls == {"solve": 1} and inner.near
        assert outer.calls == inner.calls and outer.near

    def test_outer_near_does_not_reach_the_inner_block(self):
        with record() as outer:
            count_rank(np.array([1.0, 3e-10]))
            with record() as inner:
                count_rank(np.array([1.0, 0.5]))
        assert outer.near and not inner.near


LAPACK_KINDS = ("svd", "solve", "eigvals")


def _counted_by_patch(monkeypatch, kinds=LAPACK_KINDS) -> Counter:
    """Calls of each ``kinds`` function of numpy.linalg from now on,
    counted by wrappers in both namespaces numpy's helpers look them up in."""
    calls = Counter()
    for kind in kinds:
        original = getattr(np.linalg, kind)

        def counting(*args, _kind=kind, _fn=original, **kwargs):
            calls[_kind] += 1
            return _fn(*args, **kwargs)

        for namespace in (np.linalg, sys.modules["numpy.linalg._linalg"]):
            if getattr(namespace, kind, None) is original:
                monkeypatch.setattr(namespace, kind, counting)
    return calls


def _problems() -> dict:
    # the integral route fails on the n = 16 instance before its exponential,
    # which the 8 x 8 diagonal core reaches
    inst = diagonalizable_instance(np.random.default_rng(1), 16)
    core, p = np.diag([1.0, 2.0, 0.5, 1.5, 0, 0, 0, 0]), np.diag([1.0] * 4 + [0.0] * 4)
    return {"diagonalizable-n16": PqProblem(inst["a"], inst["p"], inst["q"]),
            "random-triple-n16": PqProblem(*random_triple(np.random.default_rng(1), 16)),
            "diagonal-core-n8": PqProblem(core, p, np.eye(8) - p)}


_CALLS = {
    "diagnose": diagnose,
    **{fn.__name__: fn for fn in (outer_inverse, outer_inverse_strict, one_two_inverse,
                                  one_two_inverse_strict)},
    **{f"represent {route}": partial(represent, route=route) for route in ("limit", "integral")},
    **{f"route {route}": partial(outer_inverse, route=route)
       for route in ("inner", "limit", "integral")},
}


class TestRecordMatchesNumpy:
    """The recorder sees every LAPACK call the package makes."""

    @pytest.mark.parametrize("problem", ["diagonalizable-n16", "random-triple-n16",
                                         "diagonal-core-n8"])
    @pytest.mark.parametrize("call", sorted(_CALLS))
    def test_calls_equal_a_numpy_linalg_count(self, monkeypatch, problem, call):
        prob = _problems()[problem]
        patched = _counted_by_patch(monkeypatch)
        with record() as rec:
            try:
                _CALLS[call](prob)
            except (NonexistentInverseError, NumericalError):
                pass
        assert patched and rec.calls == patched

    @pytest.mark.parametrize("call", ["diagnose", "one_two_inverse_strict", "route inner"])
    def test_sketch_qr_calls_equal_a_numpy_linalg_count(self, monkeypatch, call):
        # from densela._SKETCH_MIN on the idempotents' bases come from QRs;
        # the generators' own QRs run before the count begins
        inst = diagonalizable_instance(np.random.default_rng(1), 64, r=32)
        prob = PqProblem(inst["a"], inst["p"], inst["q"])
        patched = _counted_by_patch(monkeypatch, (*LAPACK_KINDS, "qr"))
        with record() as rec:
            try:
                _CALLS[call](prob)
            except NonexistentInverseError:
                pass
        assert rec.calls == patched and patched["qr"] > 0

    def test_fuzz_calls_equal_a_numpy_linalg_count(self, monkeypatch):
        patched = _counted_by_patch(monkeypatch)
        with record() as rec:
            fuzz(7, 20, 8)
        assert rec.calls == patched and set(patched) == set(LAPACK_KINDS)


def test_only_densela_calls_lapack():
    # with the numpy helpers that factor through them; the generators' qr
    # and inv are not on a compute path and stay direct
    forbidden = {"svd", "solve", "eigvals", "lstsq", "pinv", "matrix_rank", "cond", "svdvals",
                 "eig", "eigh", "eigvalsh"}
    offenders = []
    for path in sorted(Path(pqinv.__file__).parent.glob("*.py")):
        if path.name == "densela.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in forbidden:
                if ast.unparse(node.value) in ("np.linalg", "numpy.linalg", "linalg"):
                    offenders.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                offenders += [f"{path.name}:{node.lineno}" for alias in node.names
                              if alias.name in forbidden]
    assert not offenders


def _never_converges(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


def _fails_once(original):
    """``original`` behind a first call that does not converge."""
    calls = []

    def fails_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            _never_converges()
        return original(*args, **kwargs)

    return fails_once


class TestSvd:
    def test_adjoint_of_the_seed_104_product(self):
        # LAPACK's gesdd does not converge on this 256 x 256 matrix, the
        # adjoint of m = (1-q) a p, though it does on m itself
        prob = PqProblem(*random_triple(np.random.default_rng([104, 3]), 256))
        mh = (prob.one_minus_q @ prob.a @ prob.p).conj().T
        f = svd(mh)
        assert frob((f.u * f.s) @ f.vh - mh) <= 1e-12 * frob(mh)
        assert np.all(np.diff(f.s) <= 0.0)

    @pytest.mark.parametrize("compute_uv", [True, False])
    def test_failure_falls_back_to_the_adjoint(self, rng, monkeypatch, compute_uv):
        m = _complex_normal(rng, 4, 3)
        original, inputs = np.linalg.svd, []

        def fails_once(x, *args, **kwargs):
            inputs.append(x)
            if len(inputs) == 1:
                _never_converges()
            return original(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", fails_once)
        f = svd(m, compute_uv=compute_uv)
        assert len(inputs) == 2 and np.array_equal(inputs[1], m.conj().T)
        if compute_uv:
            u, s, vh = original(m.conj().T)
            assert np.array_equal(f.u, vh.conj().T) and np.array_equal(f.vh, u.conj().T)
            assert frob((f.u[:, :3] * f.s) @ f.vh - m) <= 1e-12 * frob(m)
        else:
            s = original(m.conj().T, compute_uv=False)
            assert f.u is None and f.vh is None
        assert np.array_equal(f.s, s)

    @pytest.mark.parametrize("compute_uv", [True, False])
    def test_adjoint_is_built_only_for_the_retry(self, rng, monkeypatch, compute_uv):
        built = []
        monkeypatch.setattr(densela, "adjoint", lambda a: built.append(a) or a.conj().T)
        m = _complex_normal(rng, 5, 3)
        f = svd(m, compute_uv=compute_uv)
        assert built == []
        expected = np.linalg.svd(m, compute_uv=compute_uv)
        assert np.array_equal(f.s, expected[1] if compute_uv else expected)

    def test_failure_on_both_is_a_numerical_error(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "svd", _never_converges)
        with pytest.raises(NumericalError, match="did not converge"):
            svd(np.eye(2))

    def test_empty_matrix_is_not_handed_to_lapack(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "svd", _never_converges)
        f = svd(np.zeros((3, 0)))
        assert f.range_basis().shape == (3, 0)
        assert np.array_equal(f.null_basis(), np.zeros((0, 0)))

    def test_bases_and_pseudo_inverse_share_one_rank(self):
        f = svd(np.diag([2.0, 1e-12, 0.0]))
        assert f.rank() == 1
        assert np.array_equal(f.range_basis(), np.eye(3)[:, :1])
        assert np.array_equal(f.null_basis(), np.eye(3)[:, 1:])
        assert np.array_equal(f.row_basis(), np.eye(3)[:, :1])
        assert np.array_equal(f.pinv(), np.diag([0.5, 0.0, 0.0]))


class TestThinSvd:
    """A thin SVD holds k = min(n, m) singular triplets: what it gives agrees
    with the full SVD's, and a complement it does not hold is refused."""

    @pytest.mark.parametrize("shape, rank_", [((9, 4), 4), ((9, 4), 2), ((4, 9), 3), ((5, 5), 3)])
    def test_agrees_with_the_full_factor(self, rng, shape, rank_):
        m = _complex_normal(rng, shape[0], rank_) @ _complex_normal(rng, rank_, shape[1])
        thin, full = svd(m, thin=True), svd(m)
        k = min(shape)
        assert thin.u.shape == (shape[0], k) and thin.vh.shape == (k, shape[1])
        assert thin.rank() == full.rank() == rank_
        for read in ("range_basis", "row_basis"):
            b_thin, b_full = getattr(thin, read)(), getattr(full, read)()
            assert frob(b_thin @ b_thin.conj().T - b_full @ b_full.conj().T) <= 1e-13
        assert frob(thin.pinv() - full.pinv()) <= 1e-12 * frob(full.pinv())

    def test_a_complement_it_does_not_hold_is_refused(self, rng):
        tall, wide = svd(_complex_normal(rng, 6, 3), thin=True), svd(_complex_normal(rng, 3, 6), thin=True)
        with pytest.raises(ValueError, match="left null space"):
            tall.left_null_basis()
        with pytest.raises(ValueError, match="null space"):
            wide.null_basis()
        # the square factor of each is whole, so its complement is read
        assert tall.null_basis().shape == (3, 0) and wide.left_null_basis().shape == (3, 0)
        square = svd(np.diag([1.0, 0.0, 0.0]), thin=True)
        assert np.array_equal(square.left_null_basis(), svd(np.diag([1.0, 0.0, 0.0])).left_null_basis())

    def test_one_lapack_call_for_the_thin_factors(self, rng, monkeypatch):
        seen = []
        original = np.linalg.svd

        def recording(m, *args, **kwargs):
            seen.append(kwargs)
            return original(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        svd(_complex_normal(rng, 5, 2), thin=True)
        svd(_complex_normal(rng, 5, 2))
        assert seen == [{"compute_uv": True, "full_matrices": False}, {"compute_uv": True}]


class TestIdempotentBases:
    """Ran(m) of an idempotent from a certified sketch QR, or None for the SVD."""

    @staticmethod
    def _svd_decision(m, tol=DEFAULT_TOL):
        return densela._decide_rank(np.linalg.svd(m, compute_uv=False), tol, None)

    @pytest.mark.parametrize("t", [1.0, 1e3, 1e6])
    @pytest.mark.parametrize("n", [32, 64])
    def test_oblique_idempotents_are_accepted(self, n, t):
        # U (U^H + t G^H) with U^H G = 0 has range Ran(U); its entries, and
        # so the rounding of any basis of its range, grow like t
        rng = np.random.default_rng(n)
        for r in (n // 4, n - 3):
            u = _random_unitary(rng, n)[:, :r]
            m = _oblique(rng, u, t)
            with record() as rec:
                basis, co = idempotent_bases(m)
            assert rec.calls == {"qr": 1}
            assert self._svd_decision(m) == (r, False)
            assert basis.shape == (n, r) and co.shape == (n, n - r)
            q = np.hstack([basis, co])
            assert frob(q.conj().T @ q - np.eye(n)) <= 1e-13
            assert frob(u - basis @ (basis.conj().T @ u)) <= 1e-12 * t

    @pytest.mark.parametrize("n", [32, 64])
    def test_an_orthogonal_projector_keeps_its_complement_as_kernel(self, n):
        # U U^H maps its sketched Ran^⊥ to rounding, within the bound the
        # certificate puts on sigma_r+1: that complement is returned itself,
        # with no QR, and it is the SVD's null space
        rng = np.random.default_rng(n)
        for r in (n // 4, n - 3):
            u = _random_unitary(rng, n)[:, :r]
            m = u @ u.conj().T
            co = idempotent_bases(m)[1]
            with record() as rec:
                assert idempotent_kernel(m, co) is co
            assert rec.calls == {}
            null = np.linalg.svd(m)[2][r:].conj().T
            assert frob(null - co @ (co.conj().T @ null)) <= 1e-12

    @pytest.mark.parametrize("t", [1e-3, 1.0, 1e3, 1e6])
    @pytest.mark.parametrize("n", [32, 64])
    def test_oblique_kernels_are_accepted(self, n, t):
        # U (U^H + t G^H) maps its sketched Ran^⊥ to about t, so its kernel is
        # the QR of (1 - m) N under the certificate on 1 - m, which accepts it
        # at every t: at t = 1e6 ||m Q||_F alone lies above the sigma_r+1 bound
        rng = np.random.default_rng(n)
        for r in (n // 4, n - 3):
            u = _random_unitary(rng, n)[:, :r]
            m = _oblique(rng, u, t)
            co = idempotent_bases(m)[1]
            with record() as rec:
                kernel = idempotent_kernel(m, co)
            assert rec.calls == {"qr": 1}
            assert kernel.shape == (n, n - r)
            assert frob(kernel.conj().T @ kernel - np.eye(n - r)) <= 1e-13
            # within 1e-13 max(1, t) of the SVD's null space (1.3e-9 seen at t = 1e6)
            null = np.linalg.svd(m)[2][r:].conj().T
            assert frob(null - kernel @ (kernel.conj().T @ null)) <= 1e-13 * max(1.0, t)

    def test_the_sketch_is_seeded_from_n_and_r(self):
        m = oblique_instance(np.random.default_rng(5), 32, 10.0)["p"]
        assert all(np.array_equal(x, y) for x, y in zip(idempotent_bases(m), idempotent_bases(m)))

    def test_a_straddling_perturbation_is_refused(self):
        # p + E passes PqProblem's p^2 = p check and has trace r to 1e-9,
        # but its singular value rank_rtol * 10^0.5 lies between the two
        # scaled cutoffs: the SVD decision is near, so the certificate fails
        m = straddling_idempotent(np.random.default_rng(2), 40, 15)
        PqProblem(np.eye(40), m, np.eye(40) - m)
        assert self._svd_decision(m) == (16, True)
        with record() as rec:
            assert idempotent_bases(m) is None
        assert rec.calls == {"qr": 1}

    def test_below_the_crossover_no_qr_is_taken(self, monkeypatch):
        n = densela._SKETCH_MIN - 1
        m = oblique_instance(np.random.default_rng(1), n, 10.0)["p"]
        monkeypatch.setattr(np.linalg, "qr", None)
        assert idempotent_bases(m) is None

    def test_a_trace_off_an_integer_and_rank_zero_are_refused(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "qr", None)
        n = densela._SKETCH_MIN + 1
        assert idempotent_bases(np.zeros((n, n), dtype=complex)) is None
        assert idempotent_bases(np.diag([0.5] * n).astype(complex)) is None  # trace n / 2

    def test_the_bounds_follow_rank_rtol(self):
        # at rank_rtol = 1e-6 the high cutoff 10 rank_rtol ||m||_F passes
        # the 1 that sigma_r is known to exceed: the SVD there counts fewer
        # than tr m singular values, and the certificate refuses
        m = oblique_instance(np.random.default_rng(3), 32, 1e6)["p"]
        tol = Tolerances(rank_rtol=1e-6)
        assert idempotent_bases(m, tol) is None
        assert self._svd_decision(m, tol) != (round(np.trace(m).real), False)
        assert idempotent_bases(m) is not None


class TestRankFactorization:
    def test_identity(self):
        f, g = rank_factorization(np.eye(2))
        assert f.shape == (2, 2) and g.shape == (2, 2)
        assert np.allclose(f @ g, np.eye(2))

    def test_rank_one(self):
        f, g = rank_factorization(P22)
        assert f.shape == (2, 1) and g.shape == (1, 2)
        assert frob(f @ g - P22) <= 1e-12

    def test_zero(self):
        f, g = rank_factorization(np.zeros((2, 2)))
        assert f.shape == (2, 0) and g.shape == (0, 2)

    def test_random_reconstruction(self, rng):
        for _ in range(20):
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            r = int(rng.integers(0, min(n, m) + 1))
            a = _complex_normal(rng, n, r) @ _complex_normal(rng, r, m)
            f, g = rank_factorization(a)
            assert frob(f @ g - a) <= 1e-10 * max(1.0, frob(a))
            assert rank(a) == rank(f) == rank(g) == f.shape[1]


class TestEigenvalues:
    def test_diagonal(self):
        vals = sorted(eigenvalues(np.diag([2.0, 0.0])).real)
        assert np.allclose(vals, [0.0, 2.0])

    def test_nilpotent(self):
        assert np.allclose(eigenvalues(np.array([[0, 1], [0, 0]])), 0.0)

    def test_swap(self):
        vals = sorted(eigenvalues(np.array([[0, 1], [1, 0]])).real)
        assert np.allclose(vals, [-1.0, 1.0])

    def test_iteration_failure_is_a_numerical_error(self, monkeypatch):
        def fails(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fails)
        with pytest.raises(NumericalError, match="eigenvalue iteration failed"):
            eigenvalues(np.eye(2))

    def test_trace_and_determinant(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 9))
            a = _complex_normal(rng, n, n)
            vals = eigenvalues(a)
            assert abs(vals.sum() - np.trace(a)) <= 1e-8 * max(1.0, abs(np.trace(a)))
            det = np.linalg.det(a)
            assert abs(np.prod(vals) - det) <= 1e-8 * max(1.0, abs(det))


def _taylor_exp(a, terms=40):
    """Plain truncated series; valid oracle for small-norm matrices."""
    result = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        result = result + term
    return result


class TestMatrixExp:
    def test_zero(self):
        assert np.array_equal(matrix_exp(np.zeros((2, 2))), np.eye(2))

    def test_diagonal(self):
        assert np.allclose(matrix_exp(np.diag([0.0, -1.0])),
                           np.diag([1.0, np.exp(-1.0)]), rtol=1e-13)

    def test_nilpotent_series_terminates(self):
        n = np.array([[0, 1], [0, 0]], dtype=complex)
        assert frob(matrix_exp(n) - (np.eye(2) + n)) <= 1e-14

    def test_against_series_oracle(self, rng):
        for _ in range(10):
            k = int(rng.integers(1, 7))
            a = _complex_normal(rng, k, k)
            a = a / (2.0 * frob(a))
            assert frob(matrix_exp(a) - _taylor_exp(a)) <= 1e-13

    def test_large_norm_diagonal(self):
        a = np.diag([50.0, -3.0])
        expected = np.diag([np.exp(50.0), np.exp(-3.0)])
        assert frob(matrix_exp(a) - expected) <= 1e-10 * frob(expected)

    def test_overflowing_norm_names_it(self):
        # finite entries whose column sums overflow: no squaring count exists
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="1-norm"):
                matrix_exp(np.full((2, 2), 1e308))

    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    @pytest.mark.parametrize("norm1", [1.0, 40.0], ids=["below_theta13", "above_theta13"])
    def test_is_the_block_core_with_a_zero_block(self, n, norm1):
        # matrix_exp is exp_integral's core with c = 0; at t = 1 and
        # |a|_1 >= 1 the block's 1-norm max(|a|_1, 1) is a's, so the two
        # take the same squarings and the same (1,1) block bit for bit
        rng = np.random.default_rng(n)
        a = _complex_normal(rng, n, n)
        a *= norm1 / np.linalg.norm(a, 1)
        assert (norm1 > densela._THETA13) == (np.linalg.norm(a, 1) > densela._THETA13)
        assert np.array_equal(matrix_exp(a), exp_integral(a, 1.0)[0])
        assert np.array_equal(matrix_exp(np.zeros((n, n))), np.eye(n))

    def test_one_pade_path(self):
        # c is required: every call carries the (1,2) block
        params = inspect.signature(densela._pade_exp).parameters
        assert params["c"].default is inspect.Parameter.empty

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_inverse_pairing(self, seed, n):
        rng = np.random.default_rng(seed)
        a = _complex_normal(rng, n, n)
        norm = frob(a)
        if norm > 10.0:
            a = a * (10.0 / norm)
        product = matrix_exp(a) @ matrix_exp(-a)
        assert frob(product - np.eye(n)) <= 1e-9


def _van_loan_reference(m, t):
    """The (1,1) and (1,2) blocks of matrix_exp of the 2n x 2n block
    [[m t, t 1], [0, 0]]."""
    n = m.shape[0]
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    block[:n, :n] = m * t
    block[:n, n:] = np.eye(n) * t
    flow = matrix_exp(block)
    return flow[:n, :n], flow[:n, n:]


def _decaying_nonnormal(rng, n):
    """V D V^-1 with V a perturbed identity and Re D in [-1.5, -0.5]."""
    v = np.eye(n) + 0.3 * _complex_normal(rng, n, n) / np.sqrt(n)
    d = -rng.uniform(0.5, 1.5, n) + 1j * rng.uniform(-2.0, 2.0, n)
    return v @ np.diag(d) @ np.linalg.inv(v)


class TestExpIntegral:
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    @pytest.mark.parametrize("scale, squarings", [(0.5, 0), (6.0, 3), (768.0, 10)],
                             ids=["no_squaring", "few_squarings", "ten_squarings"])
    def test_matches_the_van_loan_block(self, rng, n, scale, squarings):
        # t is chosen so the block's 1-norm is scale * theta_13, which sets
        # the squaring count; both blocks are compared relative to the block row
        for _ in range(3):
            m = _decaying_nonnormal(rng, n)
            t = scale * pqinv.densela._THETA13 / max(1.0, float(np.linalg.norm(m, 1)))
            block_norm = max(float(np.linalg.norm(m * t, 1)), t)
            assert int(np.ceil(np.log2(max(1.0, block_norm / pqinv.densela._THETA13)))) == squarings
            decay, integral = exp_integral(m, t)
            ref_decay, ref_integral = _van_loan_reference(m, t)
            err = frob(np.hstack([decay - ref_decay, integral - ref_integral]))
            assert err <= 1e-12 * frob(np.hstack([ref_decay, ref_integral]))

    def test_integral_closed_form(self):
        # m invertible: integral_0^t exp(m s) ds = m^-1 (exp(m t) - 1)
        m = np.array([[-1.0, 3.0], [0.0, -2.0]], dtype=complex)
        decay, integral = exp_integral(m, 4.0)
        assert frob(integral - np.linalg.solve(m, decay - np.eye(2))) <= 1e-14
        assert frob(decay - matrix_exp(4.0 * m)) <= 1e-14

    @pytest.mark.parametrize("rate", [1e-6, 1e-9, 1e-12])
    def test_long_time_at_a_slow_rate_is_accurate(self, rate):
        # t = 40 / rate: the block [[m t, 1], [0, 0]] keeps the squaring count
        # of m t, where the (1,2) entry t would add about log2(t) squarings
        lam = rate * np.array([1.0, 2.0])
        t = 40.0 / rate
        decay, integral = exp_integral(np.diag(-lam), t)
        ref = np.diag(-np.expm1(-lam * t) / lam)
        assert frob(integral - ref) <= 1e-14 * frob(ref)
        assert frob(decay - np.diag(np.exp(-lam * t))) <= 1e-14

    def test_zero_matrix_integrates_to_t(self):
        decay, integral = exp_integral(np.zeros((3, 3)), 2.5)
        assert frob(decay - np.eye(3)) <= 1e-15
        assert frob(integral - 2.5 * np.eye(3)) <= 1e-15

    def test_zero_time_is_exact(self, rng):
        decay, integral = exp_integral(_complex_normal(rng, 4, 4), 0.0)
        assert np.array_equal(decay, np.eye(4))
        assert np.array_equal(integral, np.zeros((4, 4)))

    def test_overflowing_norm_names_it(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="1-norm"):
                exp_integral(np.full((2, 2), 1e308), 1.0)
            with pytest.raises(NumericalError, match="1-norm"):
                exp_integral(np.full((2, 2), 1e300), 1e10)  # m t overflows entrywise

    @pytest.mark.parametrize("t", [float("inf"), float("nan")])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ValueError, match="finite"):
            exp_integral(np.eye(2), t)

    def test_one_lapack_solve(self):
        with record() as rec:
            exp_integral(np.diag([-1.0, -2.0]), 100.0)
        assert rec.calls == Counter({"solve": 1})


def test_default_tolerances_are_shared():
    assert DEFAULT_TOL == Tolerances()
