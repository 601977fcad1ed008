import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from pqinv import densela, prescribed
from pqinv import subspace as sub
from pqinv.cli import main, write_matrix
from pqinv.densela import DEFAULT_TOL, Tolerances, frob
from pqinv.errors import NonexistentInverseError, NumericalError, ShapeError, SpectrumError
from pqinv.ginv import drazin_inverse, group_inverse, moore_penrose
from pqinv.prescribed import (
    PqProblem,
    diagnose,
    drazin_as_outer,
    group_formula,
    inner_formula,
    integral_formula,
    limit_formula,
    matrix_with_range_kernel,
    moore_penrose_as_outer,
    one_two_inverse,
    one_two_inverse_strict,
    outer_inverse,
    outer_inverse_strict,
    represent,
)
from pqinv.subspace import equals, kernel_of, range_of
from pqinv.verify import (
    ORACLE_TOL,
    _complex_normal,
    diagonalizable_instance,
    guaranteed_instance,
    random_idempotent,
    random_triple,
)

from exact_rank import exact_rank
from matrix_generators import (
    _oblique,
    oblique_instance,
    planted_core_instance,
    straddling_idempotent,
    varied_index_matrix,
    varied_rank_matrix,
)

A22 = np.array([[0, 0], [1, 0]], dtype=complex)
P22 = np.array([[1, 1], [0, 0]], dtype=complex)
ONE_MQ22 = np.array([[0, 1], [0, 1]], dtype=complex)
B22 = np.array([[0, 1], [0, 0]], dtype=complex)
Q22 = np.eye(2) - ONE_MQ22
W22 = np.array([[0, 1], [0, 0]], dtype=complex)


def counterexample_problem():
    return PqProblem(A22, P22, Q22)


class TestPqProblem:
    def test_non_idempotent_p_rejected(self):
        with pytest.raises(ValueError, match="p fails"):
            PqProblem(np.eye(2), np.array([[1, 1], [1, 1]], dtype=complex), np.zeros((2, 2)))

    def test_non_idempotent_q_rejected(self):
        with pytest.raises(ValueError, match="q fails"):
            PqProblem(np.eye(2), np.eye(2), 2 * np.eye(2))

    def test_rectangular_rejected(self):
        with pytest.raises(ShapeError):
            PqProblem(np.ones((2, 3)), np.eye(2), np.eye(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            PqProblem(np.eye(3), np.eye(2), np.eye(2))

    def test_numerically_zero_idempotent_snaps(self):
        noise = 1e-14 * np.ones((2, 2))
        prob = PqProblem(np.eye(2), np.eye(2), noise)
        assert frob(prob.q) == 0.0

    def test_nan_idempotency_residual_fails(self):
        # p is nilpotent, not idempotent, and p p rounds to inf - inf = NaN
        p = 1e200 * np.array([[1.0, -1.0], [1.0, -1.0]])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match=r"p fails p² = p \(residual nan"):
            PqProblem(np.eye(2), p, np.zeros((2, 2)))


class TestResultTypesCompareByIdentity:
    """Problems, reports and results hold arrays, so they compare, and hash,
    by identity: == answers instead of raising on the arrays' truth value."""

    def test_problem(self):
        prob = PqProblem(np.eye(2), np.eye(2), np.zeros((2, 2)))
        twin = PqProblem(prob.a, prob.p, prob.q)
        assert prob == prob and prob != twin
        assert len({prob, twin, prob}) == 2

    def test_report_and_result(self):
        prob = PqProblem(np.eye(2), np.eye(2), np.zeros((2, 2)))
        report = diagnose(prob)
        assert report == report and report != diagnose(prob)
        result = outer_inverse(prob)
        assert result == result and result != outer_inverse(prob)
        assert hash(report) != hash(result)


class TestDiagnose:
    def test_counterexample_data(self):
        rep = diagnose(counterexample_problem())
        assert rep.ker_cap_ranp_trivial
        assert rep.direct_sum
        assert not rep.image_match
        assert rep.l_exists
        assert not rep.strict_exists
        assert rep.cond5 and rep.cond6
        assert rep.l12_exists and not rep.strict12_exists
        assert rep.equivalence_consistent
        assert not rep.fragile
        assert (rep.dim_ran_p, rep.dim_ran_q, rep.rank_a) == (1, 1, 1)

    def test_image_match_without_strict(self):
        one_mq = np.diag([0.0, 1.0]).astype(complex)
        rep = diagnose(PqProblem(A22, P22, np.eye(2) - one_mq))
        assert rep.image_match
        assert not rep.strict_exists
        assert rep.l_exists

    def test_identity_instance(self):
        # b = diag(1,0) satisfies all three strict equations by hand, so
        # every outer-inverse criterion holds; the reflexive kinds need
        # a b a = a, which forces b = 1 here, so they cannot hold
        rep = diagnose(PqProblem(np.eye(2), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        flags = rep.booleans()
        assert flags["strict_exists"] and flags["l_exists"]
        assert flags["ker_cap_ranp_trivial"] and flags["direct_sum"]
        assert flags["image_match"] and flags["cond5"] and flags["cond6"]
        assert not flags["l12_exists"] and not flags["strict12_exists"]

    def test_cond6_solutions_solve_their_systems(self):
        # cond6 holds on each, and t = U F^+ solves t m = p and
        # s = U F^+ (1-q) solves m s = 1-q, for m = (1-q) a p and F = (1-q) a U
        probs = [counterexample_problem()]
        for seed in range(10):
            inst = guaranteed_instance(np.random.default_rng(seed), 8)
            probs.append(PqProblem(inst["a"], inst["p"], inst["q"]))
        for prob in probs:
            assert diagnose(prob).cond6
            spaces = prescribed._Spaces(prob.a, prob.p, prob.q, prob.tol)
            u, one_mq = spaces.p.ran.basis, prob.one_minus_q
            f_pinv = densela.svd(one_mq @ spaces.a_u).pinv(prob.tol)
            t, s = u @ f_pinv, u @ f_pinv @ one_mq
            m = one_mq @ prob.a @ prob.p
            assert frob(t @ m - prob.p) <= 1e-8 * max(1.0, frob(prob.p))
            assert frob(m @ s - one_mq) <= 1e-8 * max(1.0, frob(one_mq))

    def test_report_holds_no_matrix(self):
        inst = diagonalizable_instance(np.random.default_rng(1), 16, r=8)
        rep = diagnose(PqProblem(inst["a"], inst["p"], inst["q"]))
        values = {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)}
        assert type(values["cond6"]) is bool
        assert not [name for name, v in values.items() if isinstance(v, np.ndarray)]

    def test_json_dict_is_complete(self):
        doc = diagnose(counterexample_problem()).to_json_dict()
        assert doc["strict_exists"] is False
        assert doc["l_exists"] is True
        assert doc["fragile"] is False
        assert doc["tolerances"]["rank_rtol"] == DEFAULT_TOL.rank_rtol
        assert doc["dims"] == {"dim_ran_p": 1, "dim_ran_q": 1, "rank_a": 1}

    def test_knife_edge_rank_is_flagged_fragile(self):
        # one singular value of p sits between rank_rtol and 10 * rank_rtol,
        # so the dimension verdicts flip when the threshold moves
        p = np.diag([1.0, 3e-10, 0.0]).astype(complex)
        q = np.diag([0.0, 0.0, 1.0]).astype(complex)
        rep = diagnose(PqProblem(np.eye(3), p, q))
        assert rep.fragile


class TestMatrixWithRangeKernel:
    def test_complementary_diagonal_idempotents(self):
        w = matrix_with_range_kernel(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert frob(w - np.diag([1.0, 0.0])) <= 1e-14

    def test_full_and_trivial(self):
        w = matrix_with_range_kernel(np.eye(2), np.zeros((2, 2)))
        assert range_of(w).dim == 2
        assert kernel_of(w).dim == 0

    def test_equal_range_and_kernel(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        w = matrix_with_range_kernel(p, p)
        assert equals(range_of(w), range_of(p))
        assert equals(kernel_of(w), range_of(p))

    def test_dimension_obstruction(self):
        with pytest.raises(NonexistentInverseError, match="dimension obstruction"):
            matrix_with_range_kernel(np.eye(2), np.eye(2))

    def test_postconditions_random(self, rng):
        for _ in range(15):
            n = int(rng.integers(1, 8))
            k = int(rng.integers(0, n + 1))
            p = random_idempotent(rng, n, k)
            q = random_idempotent(rng, n, n - k)
            w = matrix_with_range_kernel(p, q)
            assert equals(range_of(w), range_of(p))
            assert equals(kernel_of(w), range_of(q))


class TestOuterInverse:
    def test_counterexample_value(self):
        result = outer_inverse(counterexample_problem())
        assert frob(result.b - B22) <= 1e-12
        assert result.kind == "outer2l"
        assert result.route == "group_formula"
        assert result.residuals["outer"] <= 1e-12
        assert result.residuals["range_gap"] <= 1e-12
        assert result.residuals["kernel_gap"] <= 1e-12

    def test_group_route_gaps_are_exact(self, rng):
        # the group value's Ran and Ker are Ran(p) and Ran(q) by construction;
        # another route's value is factored and measured against them
        inst = diagonalizable_instance(rng, 6, r=3)
        prob = PqProblem(inst["a"], inst["p"], inst["q"])
        group = outer_inverse(prob).residuals
        assert group["range_gap"] == group["kernel_gap"] == 0.0
        inner = outer_inverse(prob, route="inner").residuals
        assert 0.0 < max(inner["range_gap"], inner["kernel_gap"]) <= 1e-12

    def test_identity_matrix_gives_the_idempotent(self, rng):
        # with a = 1 the inverse is the oblique projector p itself
        for _ in range(5):
            n = int(rng.integers(2, 7))
            p = random_idempotent(rng, n)
            one_minus_p = np.eye(n) - p
            prob = PqProblem(np.eye(n), p, one_minus_p)
            result = outer_inverse(prob)
            assert frob(result.b - p) <= 1e-9 * (1 + frob(p))

    def test_variant_with_image_match(self):
        prob = PqProblem(A22, P22, np.eye(2) - np.diag([0.0, 1.0]))
        result = outer_inverse(prob)
        assert frob(result.b - B22) <= 1e-12
        assert frob(result.b @ A22 - np.diag([1.0, 0.0])) <= 1e-12
        assert result.residuals["ba_minus_p"] > 0.5

    def test_nonexistent_dimension(self):
        prob = PqProblem(np.eye(2), np.eye(2), np.eye(2))
        with pytest.raises(NonexistentInverseError, match="dimension obstruction"):
            outer_inverse(prob)

    def test_nonexistent_kernel_overlap(self):
        # Ker(a) = span e2 = Ran(p): candidate fails its defining equations
        prob = PqProblem(
            np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.diag([1.0, 0.0])
        )
        with pytest.raises(NonexistentInverseError):
            outer_inverse(prob)

    def test_equation_set_always_holds(self, rng):
        # the four product identities characterizing the subspace inverse
        for _ in range(15):
            inst = guaranteed_instance(rng, int(rng.integers(1, 8)))
            prob = PqProblem(inst["a"], inst["p"], inst["q"])
            res = outer_inverse(prob)
            bound = 1e-8 * (1 + frob(res.b)) * (1 + frob(prob.a))
            assert res.residuals["fix_left"] <= bound
            assert res.residuals["fix_right"] <= bound
            assert res.residuals["gen_left"] <= bound
            assert res.residuals["gen_right"] <= bound

    def test_oracle_agreement(self, rng):
        for _ in range(15):
            inst = guaranteed_instance(rng, int(rng.integers(1, 8)))
            prob = PqProblem(inst["a"], inst["p"], inst["q"])
            res = outer_inverse(prob)
            assert frob(res.b - inst["b_ref"]) <= 1e-7 * (1 + frob(inst["b_ref"]))

    def test_degenerate_trivial_p(self):
        # Ran(p) = 0 forces b = 0, which requires Ran(q) to be everything
        n = 3
        prob = PqProblem(np.eye(n), np.zeros((n, n)), np.eye(n))
        result = outer_inverse(prob)
        assert frob(result.b) == 0.0

    def test_degenerate_invertible(self, rng):
        a = _complex_normal(rng, 4, 4) + 3 * np.eye(4)
        prob = PqProblem(a, np.eye(4), np.zeros((4, 4)))
        result = outer_inverse(prob)
        assert frob(result.b - np.linalg.inv(a)) <= 1e-9 * frob(np.linalg.inv(a))

    def test_alternate_routes_agree(self):
        prob = counterexample_problem()
        for route in ("inner", "limit", "integral"):
            res = outer_inverse(prob, route=route)
            assert frob(res.b - B22) <= 1e-7
            assert res.route in ("inner_formula", "limit", "integral")

    @pytest.mark.parametrize("route", ["group_formula", "inner_formula", "bogus"])
    def test_only_short_route_names_accepted(self, route, count_linalg):
        # the name is checked before any decomposition, so a problem whose
        # inverse does not exist (the core C = N^H a U = 0) reports the name too
        nonexistent = PqProblem(np.zeros((2, 2)), np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        for prob in (counterexample_problem(), nonexistent):
            for fn in (outer_inverse, one_two_inverse_strict, represent):
                def run():
                    with pytest.raises(ValueError, match="unknown route"):
                        fn(prob, route=route)

                kinds = ("svd", "lstsq", "solve", "eigvals")
                assert count_linalg(run, kinds) == dict.fromkeys(kinds, 0)


class TestCoreRepresentation:
    """The group-route value b = U C^-1 N^H with the r x r core C = N^H a U."""

    @staticmethod
    def _assert_core_value(inst):
        prob = PqProblem(inst["a"], inst["p"], inst["q"])
        b = outer_inverse(prob).b
        paper = group_formula(prob.a, matrix_with_range_kernel(prob.p, prob.q))
        for ref in (paper, inst["b_ref"]):
            assert frob(b - ref) <= 1e-12 * frob(ref)

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_agrees_with_the_paper_formula_diagonalizable(self, n):
        for seed in range(200 if n < 64 else 50):
            self._assert_core_value(diagonalizable_instance(np.random.default_rng(seed), n))

    def test_agrees_with_the_paper_formula_guaranteed(self):
        for seed in range(200):
            self._assert_core_value(guaranteed_instance(np.random.default_rng(seed), 8))

    def test_singular_core_with_group_invertible_aw(self):
        # Ran(p) = Ran(q)^⊥ = Ker(a) = span e1: a w = 0 has a group inverse,
        # but C = N^H a U = 0
        prob = PqProblem(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        w = matrix_with_range_kernel(prob.p, prob.q)
        assert frob(prob.a @ w) == 0.0
        with pytest.raises(NonexistentInverseError, match="core"):
            outer_inverse(prob)
        rep = diagnose(prob)
        assert not rep.l_exists
        assert rep.equivalence_consistent

    def test_core_at_the_rounding_floor_is_singular(self):
        # Ran(p) = Ran(q) = span v and a = 1: C = N^H U is rounding noise,
        # which the relative rank cutoff alone would count as rank 1
        v = np.array([3.0, 1.0]) / np.sqrt(10.0)
        p = np.outer(v, v).astype(complex)
        with pytest.raises(NonexistentInverseError, match="core"):
            outer_inverse(PqProblem(np.eye(2), p, p))

    def test_rank_zero_takes_no_solve(self, count_linalg):
        # p = 0, q = 1: r = 0 and b = 0 without LAPACK's solve
        a = _complex_normal(np.random.default_rng(3), 4, 4)

        def run():
            result = outer_inverse(PqProblem(a, np.zeros((4, 4)), np.eye(4)))
            assert np.array_equal(result.b, np.zeros((4, 4)))

        assert count_linalg(run, ("solve",)) == {"solve": 0}
        assert diagnose(PqProblem(a, np.zeros((4, 4)), np.eye(4))).l_exists

    def test_full_rank_is_the_inverse(self, rng):
        # p = 1, q = 0: C = a in an orthonormal basis, so b = a^-1 or nothing
        a = _complex_normal(rng, 5, 5) + 3 * np.eye(5)
        b = outer_inverse(PqProblem(a, np.eye(5), np.zeros((5, 5)))).b
        assert frob(b - np.linalg.inv(a)) <= 1e-12 * frob(np.linalg.inv(a))
        singular = np.diag([1.0, 2.0, 3.0, 4.0, 0.0])
        prob = PqProblem(singular, np.eye(5), np.zeros((5, 5)))
        with pytest.raises(NonexistentInverseError, match="core"):
            outer_inverse(prob)
        assert not diagnose(prob).l_exists


class TestOuterInverseStrict:
    def test_counterexample_nonexistence_names_residuals(self):
        with pytest.raises(NonexistentInverseError) as failure:
            outer_inverse_strict(counterexample_problem())
        assert "ba" in str(failure.value)
        assert failure.value.residuals["ba_minus_p"] == pytest.approx(1.0)

    def test_identity_case(self):
        prob = PqProblem(np.eye(2), np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        result = outer_inverse_strict(prob)
        assert frob(result.b - np.diag([1.0, 0.0])) <= 1e-12
        assert result.kind == "outer2"

    def test_penrose_idempotents_give_pseudo_inverse(self):
        pinv = moore_penrose(A22)
        prob = PqProblem(A22, pinv @ A22, np.eye(2) - A22 @ pinv)
        result = outer_inverse_strict(prob)
        assert frob(result.b - pinv) <= 1e-12

    def test_external_witness_with_strict_products(self):
        # w chosen so that w a = p and a w = 1 - q; the representation
        # formula through this w must agree with the strict computation
        p = np.diag([1.0, 0.0]).astype(complex)
        q = np.diag([1.0, 0.0]).astype(complex)
        w = np.array([[0, 1], [0, 0]], dtype=complex)
        assert frob(w @ A22 - p) == 0.0
        assert frob(A22 @ w - (np.eye(2) - q)) == 0.0
        direct = outer_inverse_strict(PqProblem(A22, p, q))
        assert frob(group_formula(A22, w) - direct.b) <= 1e-12


class TestOneTwoInverse:
    def test_identity(self):
        prob = PqProblem(np.eye(2), np.eye(2), np.zeros((2, 2)))
        assert frob(one_two_inverse(prob).b - np.eye(2)) <= 1e-12

    def test_counterexample_data_is_reflexive(self):
        result = one_two_inverse(counterexample_problem())
        assert frob(result.b - B22) <= 1e-12
        assert result.residuals["inner"] <= 1e-12
        assert result.kind == "one_two_l"

    def test_dimension_failure_named(self):
        prob = PqProblem(np.diag([1.0, 0.0]), np.eye(2), np.zeros((2, 2)))
        with pytest.raises(NonexistentInverseError, match="decomposition"):
            one_two_inverse(prob)

    def test_double_failure_names_the_first_decomposition(self):
        # both decompositions fail here; the report stops at the first
        prob = PqProblem(np.diag([1.0, 0.0]), np.eye(2), np.zeros((2, 2)))
        with pytest.raises(NonexistentInverseError) as exc:
            one_two_inverse(prob)
        assert exc.value.reason == "decomposition C^n = Ran(a) ∔ Ran(q) fails"


class TestOneTwoInverseStrict:
    def test_identity(self):
        prob = PqProblem(np.eye(2), np.eye(2), np.zeros((2, 2)))
        assert frob(one_two_inverse_strict(prob).b - np.eye(2)) <= 1e-12

    def test_shift_with_matching_subspaces(self):
        prob = PqProblem(A22, np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
        result = one_two_inverse_strict(prob)
        assert frob(result.b - B22) <= 1e-12
        assert result.kind == "one_two_strict"

    def test_counterexample_fails_subspace_equality(self):
        with pytest.raises(NonexistentInverseError, match="Ran"):
            one_two_inverse_strict(counterexample_problem())

    def test_failed_products_under_the_equalities_are_a_numerical_error(self, monkeypatch):
        # the subspace equalities imply b a = p and a b = 1 - q, so products
        # that fail under them are a numerical fault, not a nonexistence
        monkeypatch.setattr(prescribed, "_strict_products", lambda *args: (False, 1.0, 2.0))
        prob = PqProblem(np.eye(2), np.eye(2), np.zeros((2, 2)))
        with pytest.raises(NumericalError, match="product identities failed although the "
                                                 "subspace equalities hold"):
            one_two_inverse_strict(prob)


class TestComputeAgreesWithDiagnose:
    VERDICTS = (
        (outer_inverse, "l_exists"),
        (outer_inverse_strict, "strict_exists"),
        (one_two_inverse, "l12_exists"),
        (one_two_inverse_strict, "strict12_exists"),
    )

    def test_nonexistence_exactly_when_verdict_false(self):
        rng = np.random.default_rng(2024)
        seen = {verdict: set() for _fn, verdict in self.VERDICTS}
        for i in range(150):
            n = int(rng.integers(1, 9))
            if i % 2 == 0:
                inst = guaranteed_instance(rng, n)
                prob = PqProblem(inst["a"], inst["p"], inst["q"])
            else:
                prob = PqProblem(*random_triple(rng, n))
            report = diagnose(prob)
            if report.fragile:
                continue
            for fn, verdict in self.VERDICTS:
                try:
                    fn(prob)
                    exists = True
                except NonexistentInverseError:
                    exists = False
                assert exists == getattr(report, verdict), (i, fn.__name__)
                seen[verdict].add(exists)
        assert all(outcomes == {True, False} for outcomes in seen.values())


class TestBasisGauge:
    def test_verdicts_and_value_are_invariant_under_a_diagonal_unitary(self):
        # conjugating (a, p, q) by a diagonal unitary D moves every SVD basis
        # by D and by a phase per column; no answer may depend on either
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            inst = guaranteed_instance(rng, n)
            d = np.exp(2j * np.pi * rng.random(n))
            gauged = [d[:, None] * inst[k] * d.conj()[None, :] for k in ("a", "p", "q")]
            prob, prob_d = PqProblem(inst["a"], inst["p"], inst["q"]), PqProblem(*gauged)
            assert diagnose(prob_d).to_json_dict() == diagnose(prob).to_json_dict()
            b = d[:, None] * outer_inverse(prob).b * d.conj()[None, :]
            b_d = outer_inverse(prob_d).b
            assert frob(b_d - b) <= densela.eq_bound(b_d, b)


class TestDecompositionCounts:
    # Ran(p); Ran(q) with its complement; the core's singular values; and for
    # the {1,2} kind Ran(a) with Ker(a) and the principal-angle sines of the
    # two decompositions.  Ran(b) and Ker(b) are the view's Ran(p) and Ran(q), so b
    # itself is never factored and the group route's two residual gaps are 0
    @pytest.mark.parametrize("fn, expected", [(outer_inverse, 3), (one_two_inverse, 6)],
                             ids=["outer_inverse", "one_two_inverse"])
    def test_residuals_reuse_validated_subspaces(self, count_linalg, fn, expected):
        inst = diagonalizable_instance(np.random.default_rng(1), 6, r=3)
        prob = PqProblem(inst["a"], inst["p"], inst["q"])
        assert count_linalg(lambda: fn(prob)) == {"svd": expected}

    def test_strict_failure_builds_no_residuals(self, count_linalg):
        # the candidate's 3 SVDs (p; q with its complement; the core's singular
        # values), and no residuals
        inst = diagonalizable_instance(np.random.default_rng(1), 6, r=3)
        prob = PqProblem(inst["a"], inst["p"], inst["q"])

        def run():
            with pytest.raises(NonexistentInverseError):
                outer_inverse_strict(prob)

        assert count_linalg(run) == {"svd": 3}

    def test_strict_reflexive_takes_ran_a_and_ker_a_once(self, count_linalg):
        # Ran(q) = {0} and Ker(a) = {0}: both {1,2} decompositions have a {0}
        # side, so neither takes its principal-angle sines; Ran(1-q) and
        # Ran(1-p) are Ker(q) and Ker(p), read off the SVDs of q and p; then the
        # core's singular values
        a = np.random.default_rng(1).standard_normal((6, 6))
        prob = PqProblem(a, np.eye(6), np.zeros((6, 6)))
        assert count_linalg(lambda: one_two_inverse_strict(prob)) == {"svd": 4}

    @pytest.mark.parametrize("fn, failure", [
        (one_two_inverse_strict, r"Ran\(a\) = Ran\(1-q\)"),
        (one_two_inverse, r"C\^n = Ran\(a\) ∔ Ran\(q\)"),
    ], ids=["one_two_inverse_strict", "one_two_inverse"])
    def test_reflexive_failure_factors_only_a_and_q(self, count_linalg, fn, failure):
        # the first test on a and q fails (rank a + rank q = 3 < 4 for the
        # plain kind), so p is never factored
        a = np.diag([1.0, 1.0, 0.0, 0.0])
        prob = PqProblem(a, np.diag([1.0, 1.0, 0.0, 0.0]), np.diag([1.0, 0.0, 0.0, 0.0]))

        def run():
            with pytest.raises(NonexistentInverseError, match=failure):
                fn(prob)

        assert count_linalg(run) == {"svd": 2}

    def test_represent_builds_one_candidate(self, count_linalg, tmp_path):
        # one each for Ran(p), Ran(q) with its complement and the singular
        # values of the core N^H a U, and two for the integral route's (a w)^#;
        # the reference value takes no (a w)^# and no SVD of b
        core = {"a": np.diag([1.0, 2.0, 0.5, 1.5, 0.0, 0.0, 0.0, 0.0]),
                "p": np.diag([1.0] * 4 + [0.0] * 4),
                "q": np.diag([0.0] * 4 + [1.0] * 4)}
        files = []
        for name, m in core.items():
            files.append(str(tmp_path / f"{name}.json"))
            write_matrix(files[-1], m)

        def run():
            assert main(["represent", *files, "--method", "integral"]) == 0

        assert count_linalg(run) == {"svd": 5}

    @pytest.mark.parametrize("n, svds, qrs", [(64, 7, 2), (31, 9, 0)])
    def test_diagnose_factors_each_input_once(self, count_linalg, n, svds, qrs):
        # a, p and q once each, Ran(1-q) and Ran(1-p) read as Ker(q) and
        # Ker(p); a . Ran(p) and the n x r F = (1-q) a U once each (thin), no
        # SVD of the n x n (1-q) a p, and no least-squares solve: cond6 is
        # decided on the pseudo-inverse of F; the candidate decides and
        # inverts its r x r core on one SVD, with no solve, no (a w)^# and no
        # SVD of b; Ker(a) ∩ Ran(p) is decided once for ker_cap_ranp_trivial
        # and C^n = Ker(a) ∔ Ran(p); the two direct sums take their
        # principal-angle sines.  From densela._SKETCH_MIN on, p and q take
        # no SVD: Ran(p) and Ran(q) with its complement each come from one
        # QR of a sketch, Ran(1-q) is that complement, as q is an orthogonal
        # projector, and Ran(1-p) is never read, as Ran(a) = Ran(1-q) fails
        inst = diagonalizable_instance(np.random.default_rng(1), n, r=n // 2)
        prob = PqProblem(inst["a"], inst["p"], inst["q"])
        calls = count_linalg(lambda: diagnose(prob), ("svd", "qr", "lstsq", "solve"))
        assert calls == {"svd": svds, "qr": qrs, "lstsq": 0, "solve": 0}

    @pytest.mark.parametrize("fn, svds", [(outer_inverse, 1), (one_two_inverse, 4)],
                             ids=["outer_inverse", "one_two_inverse"])
    def test_compute_views_sketch_p_and_q(self, count_linalg, fn, svds):
        # at n = 64 Ran(p) and Ran(q) with its complement are one QR each;
        # the SVDs left are the core's and, for the {1,2} kind, a's and the
        # principal-angle sines of the two decompositions
        inst = diagonalizable_instance(np.random.default_rng(1), 64, r=32)
        prob = PqProblem(inst["a"], inst["p"], inst["q"])
        assert count_linalg(lambda: fn(prob), ("svd", "qr")) == {"svd": svds, "qr": 2}

    @pytest.mark.parametrize("fn, decisions", [(diagnose, 9), (outer_inverse, 3)])
    def test_one_rank_decision_per_factorization(self, monkeypatch, fn, decisions):
        # each SVD's rank is decided once, however many bases, pseudo-inverses
        # and callers read it: diagnose takes 9 SVDs, outer_inverse 3 that
        # decide a rank (those of p and q, and of the r x r core); count_rank
        # and Factored.rank both take densela's one decision function
        inst = diagonalizable_instance(np.random.default_rng(1), 6, r=3)
        prob = PqProblem(inst["a"], inst["p"], inst["q"])
        calls = []
        decide_rank = densela._decide_rank

        def counting(*args, **kwargs):
            calls.append(args)
            return decide_rank(*args, **kwargs)

        monkeypatch.setattr(densela, "_decide_rank", counting)
        fn(prob)
        assert len(calls) == decisions

    @staticmethod
    def _built_subspaces(monkeypatch, run) -> list:
        """Every Subspace built while ``run()`` runs: by the public
        constructor, or by Subspace._cut for a basis cut from an SVD factor."""
        built = []
        post_init, cut = sub.Subspace.__post_init__, sub.Subspace._cut.__func__

        def recording(self):
            post_init(self)
            built.append(self)

        def recording_cut(cls, basis):
            built.append(cut(cls, basis))
            return built[-1]

        with monkeypatch.context() as patch:
            patch.setattr(sub.Subspace, "__post_init__", recording)
            patch.setattr(sub.Subspace, "_cut", classmethod(recording_cut))
            run()
        return built

    @pytest.mark.parametrize("fn", [outer_inverse, one_two_inverse])
    def test_compute_builds_no_kernel_of_p_or_q(self, monkeypatch, fn):
        # the diagonalizable instance under a similarity t: a, p and q are
        # oblique, so Ker(p) and Ker(q) differ from every basis fn reads
        # (Ran(p), Ran(q), Ran(q)^⊥, Ran(a), Ker(a), Ran(b) and Ker(b))
        inst = diagonalizable_instance(np.random.default_rng(1), 6, r=3)
        t = np.random.default_rng(2).standard_normal((6, 6)) + 3 * np.eye(6)
        t_inv = np.linalg.inv(t)
        prob = PqProblem(*(t @ inst[name] @ t_inv for name in "apq"))
        kernels = [kernel_of(prob.p), kernel_of(prob.q)]

        def kernels_among(built) -> list[bool]:
            return [any(s.dim == k.dim and equals(s, k) for s in built) for k in kernels]

        # diagnose reads Ker(q) for image_match; Ker(p) only once
        # Ran(a) = Ran(1-q) holds, which it does not here
        assert kernels_among(self._built_subspaces(monkeypatch, lambda: diagnose(prob))) == [
            False, True]
        assert kernels_among(self._built_subspaces(monkeypatch, lambda: fn(prob))) == [
            False, False]

    def test_view_without_kernels_holds_only_the_bases_read(self):
        # oblique p and q with dim Ran(p) = n/6 and dim Ran(q) = n/2: after
        # Ran(p), Ran(q) and Ran(q)^⊥ are read, the view holds its inputs,
        # those three bases and, below densela._SKETCH_MIN, the one SVD of
        # each idempotent, which later bases are cut from; from that order
        # on it holds p's Ran(p)^⊥ too, the other half of p's complete
        # sketch QR.  It holds no Ker(p) or Ker(q)
        rng = np.random.default_rng(3)
        for n, svds in ((6, 2), (64, 0)):
            p, q = random_idempotent(rng, n, n // 6, 10.0), random_idempotent(rng, n, n // 2, 10.0)
            spaces = prescribed._Spaces(None, p, q, DEFAULT_TOL)
            read = (spaces.p.ran, spaces.q.ran, spaces.q.co)
            held, factors, stack = [], [], [vars(spaces)]
            while stack:
                item = stack.pop()
                if isinstance(item, np.ndarray):
                    held.append(item)
                elif isinstance(item, dict):
                    stack.extend(item.values())
                elif isinstance(item, (tuple, list)):
                    stack.extend(item)
                elif isinstance(item, densela.Factored):
                    factors.append(item)
                    stack.append(vars(item))
                elif isinstance(item, (sub.Subspace, prescribed._Idempotent)):
                    stack.append(vars(item))
            assert len(factors) == svds
            sketched = () if svds else (spaces.p._sketch[1],)
            expected = (p, q, *(s.basis for s in read), *sketched, *(f.u for f in factors),
                        *(f.s for f in factors), *(f.vh for f in factors))
            # a sketched basis is held by the sketch and by the Subspace cut on it
            assert set(map(id, held)) == set(map(id, expected))
            assert "ker" not in vars(spaces.p) and "ker" not in vars(spaces.q)

    @pytest.mark.parametrize("order", [("ran", "co", "ker"), ("ker", "ran", "co")])
    def test_bases_of_q_below_the_crossover_share_one_svd(self, count_linalg, order):
        # Ran(q) with Ran(q)^⊥ and Ker(q), in either order, are cut from q's
        # one SVD, with no QR and no SVD of 1 - q
        n = densela._SKETCH_MIN - 1
        q = random_idempotent(np.random.default_rng(5), n, 10, 10.0)
        spaces = prescribed._Spaces(None, None, q, DEFAULT_TOL)

        def run():
            for name in order:
                getattr(spaces.q, name)

        assert count_linalg(run, ("svd", "qr")) == {"svd": 1, "qr": 0}
        assert (spaces.q.ran.dim, spaces.q.co.dim, spaces.q.ker.dim) == (10, n - 10, n - 10)
        assert equals(spaces.q.ker, kernel_of(q))


class TestCutBases:
    """The bases the package cuts from an SVD factor or a sketch's QR skip
    the Gram check of the public Subspace(basis); each must pass it with
    room to spare."""

    @staticmethod
    def _check(monkeypatch, problems):
        def run():
            for prob in problems:
                diagnose(prob)
                outer_inverse(prob)

        built = TestDecompositionCounts._built_subspaces(monkeypatch, run)
        assert built
        for s in built:
            assert frob(s.basis.conj().T @ s.basis - np.eye(s.dim)) < 1e-3 * sub._ORTHONORMALITY_TOL
            assert np.array_equal(sub.Subspace(s.basis).basis, s.basis)

    def test_small_guaranteed_instances(self, monkeypatch):
        rng = np.random.default_rng(33)
        instances = [guaranteed_instance(rng, int(rng.integers(1, 9))) for _ in range(40)]
        self._check(monkeypatch, [PqProblem(i["a"], i["p"], i["q"]) for i in instances])

    def test_diagonalizable_instance_at_n256(self, monkeypatch):
        inst = diagonalizable_instance(np.random.default_rng(33), 256)
        self._check(monkeypatch, [PqProblem(inst["a"], inst["p"], inst["q"])])


class TestSketchedIdempotents:
    """From densela._SKETCH_MIN on, p and q are read off certified sketch QRs;
    every verdict, ``fragile`` and the ``near`` of the record equal those of
    the SVD path, which the certificate proves makes the same decisions."""

    @staticmethod
    def _on_both_paths(prob) -> list:
        """(report, near, QRs taken) of diagnose with the sketches, then with
        the SVDs of p and q alone."""
        out = []
        for sketch_min in (densela._SKETCH_MIN, prob.n + 1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(densela, "_SKETCH_MIN", sketch_min)
                with densela.record() as rec:
                    report = diagnose(prob)
            out.append((report.to_json_dict(), rec.near, rec.calls["qr"]))
        return out

    # (builder, orders cycled through, QRs when every sketch is accepted):
    # two where q is an orthogonal projector, whose Ran(q)^⊥ is Ker(q), and
    # three where q is oblique and 1 - q is sketched.  guaranteed_instance's
    # redraws run out at some seeds from n = 40 on, so it and the oblique
    # family built on it stay at n <= 48
    FAMILIES = {
        "diagonalizable": (diagonalizable_instance, (32, 48, 64, 96, 128), 2),
        "random triple": (lambda rng, n: dict(zip("apq", random_triple(rng, n))),
                          (32, 48, 64, 96, 128), 3),
        "guaranteed": (guaranteed_instance, (32, 40, 48), 2),
        **{f"oblique t={t:g}": ((lambda t: lambda rng, n: oblique_instance(rng, n, t))(t),
                                (32, 40, 48), 3)
           for t in (1.0, 1e2, 1e4, 1e6)},
    }

    def test_verdicts_equal_the_svd_path(self):
        # 50 problems per family, the oblique ones split over four t; a seed
        # on which guaranteed_instance runs out of redraws is passed over
        compared = sketched = 0
        for name, (build, orders, sketches) in self.FAMILIES.items():
            quota, seed, taken = 13 if name.startswith("oblique") else 50, 0, 0
            while taken < quota:
                n = orders[seed % len(orders)]
                seed += 1
                try:
                    inst = build(np.random.default_rng([seed, n]), n)
                except RuntimeError:
                    continue
                taken += 1
                prob = PqProblem(inst["a"], inst["p"], inst["q"])
                (rep, near, qrs), (rep_svd, near_svd, qrs_svd) = self._on_both_paths(prob)
                assert (rep, near) == (rep_svd, near_svd), (name, seed, n)
                assert qrs_svd == 0
                compared += 1
                sketched += qrs == sketches
        assert compared == 202 and sketched >= 190

    def test_a_straddling_idempotent_takes_the_svd(self):
        # p + E passes p^2 = p, but its (r+1)-st singular value lies inside
        # the fragility band: the certificate refuses, p's SVD is taken,
        # and its near decision is read as on the SVD path
        rng = np.random.default_rng(4)
        n, r = 40, 20
        p = straddling_idempotent(rng, n, r)
        inst = diagonalizable_instance(rng, n, r=r)
        prob = PqProblem(inst["a"], p, inst["q"])
        (rep, near, qrs), (rep_svd, near_svd, _) = self._on_both_paths(prob)
        assert (rep, near) == (rep_svd, near_svd) and near and qrs > 0
        assert densela.idempotent_bases(prob.p) is None
        assert densela.idempotent_bases(prob.q) is not None

    @pytest.mark.parametrize("order", [("ran", "ker"), ("ker", "ran")],
                             ids=["ran_first", "ker_first"])
    def test_a_refused_sketch_leaves_every_basis_to_one_svd(self, count_linalg, order):
        # the sketch of the straddling p is refused; Ran(p) and Ker(p), in
        # either order, are cut from p's one SVD, and no sketch of 1 - p is
        # taken, though 1 - p's own certificate would accept one.  That SVD
        # counts the 21st singular value, rank_rtol 10^0.5, and Ker(p) takes
        # the other 19 columns of the one rank decision
        p = straddling_idempotent(np.random.default_rng(4), 40, 20)
        spaces = prescribed._Spaces(None, p, None, DEFAULT_TOL)

        def run():
            for name in order:
                getattr(spaces.p, name)

        assert count_linalg(run, ("svd", "qr")) == {"svd": 1, "qr": 1}
        assert (spaces.p.ran.dim, spaces.p.ker.dim) == (21, 19)
        assert densela.idempotent_bases(np.eye(40) - p) is not None

    def test_diagnose_sketches_ker_p_where_it_is_read(self, count_linalg):
        # p = a^+ a and q = 1 - a a^+ for a of rank 32: Ran(a) = Ran(1-q)
        # holds, so the strict {1,2} test reads Ker(p) too; p and q are
        # orthogonal projectors, so each kernel is the Ran^⊥ of its one
        # complete sketch QR, with no further QR
        rng = np.random.default_rng(6)
        a = _complex_normal(rng, 64, 32) @ _complex_normal(rng, 32, 64)
        a_pinv = np.linalg.pinv(a)
        prob = PqProblem(a, a_pinv @ a, np.eye(64) - a @ a_pinv)
        report = []
        assert count_linalg(lambda: report.append(diagnose(prob)), ("qr",)) == {"qr": 2}
        assert report[0].strict12_exists and not report[0].fragile

    def test_strict_reflexive_compute_sketches_no_ker_p(self, count_linalg, tmp_path):
        # Ran(a) = Ran(1-q) fails on the diagonalizable instance, so the CLI's
        # --kind 12 reads Ker(q), and Ran(q) before it, and no basis of p:
        # one QR, of the sketch of q, whose complement Ran(q)^⊥ is Ker(q)
        inst = diagonalizable_instance(np.random.default_rng(1), 64, r=32)
        files = []
        for name in "apq":
            files.append(str(tmp_path / f"{name}.json"))
            write_matrix(files[-1], inst[name])

        def run():
            assert main(["compute", *files, "--kind", "12"]) != 0

        assert count_linalg(run, ("qr",)) == {"qr": 1}

    @pytest.mark.parametrize("kind, svds, qrs", [("orthogonal", 0, 1), ("oblique", 0, 2),
                                                 ("straddling", 1, 1)])
    def test_ker_q_is_the_complement_where_q_maps_it_to_zero(self, count_linalg,
                                                              kind, svds, qrs):
        # Ker(q) is the sketched Ran(q)^⊥ for an orthogonal projector q; an
        # oblique q maps that complement far from 0, so Ker(q) is the QR of
        # (1 - q) Ran(q)^⊥;
        # a straddling q refuses its own sketch, and its one SVD gives all
        # three bases.  diagnose's verdicts and near equal the SVD path's
        if kind == "oblique":
            inst = oblique_instance(np.random.default_rng([2, 48]), 48, 1e3)
        else:
            inst = diagonalizable_instance(np.random.default_rng(1), 64, r=32)
        q = inst["q"]
        if kind == "straddling":
            q = straddling_idempotent(np.random.default_rng(4), 64, 32)
        prob = PqProblem(inst["a"], inst["p"], q)
        spaces = prescribed._Spaces(None, None, prob.q, DEFAULT_TOL)

        def run():
            for name in ("ran", "co", "ker"):
                getattr(spaces.q, name)

        assert count_linalg(run, ("svd", "qr")) == {"svd": svds, "qr": qrs}
        ker, co = spaces.q.ker, spaces.q.co
        assert (ker.basis is co.basis) == (kind == "orthogonal")
        assert ker.dim == co.dim and equals(ker, kernel_of(prob.q))
        (rep, near, diagnose_qrs), (rep_svd, near_svd, _) = self._on_both_paths(prob)
        assert (rep, near) == (rep_svd, near_svd)
        assert near == (kind == "straddling")
        if kind != "straddling":  # Ran(p) is one QR more; no repeat runs
            assert diagnose_qrs == qrs + 1

    @pytest.mark.parametrize("order", [("ran", "co", "ker"), ("ker", "co", "ran")],
                             ids=["ran_first", "ker_first"])
    @pytest.mark.parametrize("kind, calls", [("orthogonal", {"svd": 0, "qr": 1}),
                                             ("oblique", {"svd": 0, "qr": 2}),
                                             ("straddling", {"svd": 1, "qr": 1})])
    def test_p_and_q_read_their_bases_by_one_rule(self, count_linalg, kind, calls, order):
        # one idempotent m as both p and q of a bare view: each side reads
        # Ran(m), Ran(m)^⊥ and Ker(m) with the same calls in either order,
        # of dimensions r, n - r and n - r, and Ker(m) is m's SVD null space;
        # an orthogonal projector's kernel is its held complement, no QR more
        n, r = 48, 20
        rng = np.random.default_rng(7)
        if kind == "straddling":
            m = straddling_idempotent(rng, n, r)
        else:
            u = np.linalg.qr(_complex_normal(rng, n, r))[0]
            m = u @ u.conj().T if kind == "orthogonal" else _oblique(rng, u, 1e3)
        spaces = prescribed._Spaces(None, m, m, DEFAULT_TOL)
        for view in (spaces.p, spaces.q):
            def run():
                for name in order:
                    getattr(view, name)

            assert count_linalg(run, ("svd", "qr")) == calls
            ran, co, ker = view.ran, view.co, view.ker
            dim = r + (kind == "straddling")  # the straddling SVD counts rank_rtol 10^0.5
            assert (ran.dim, co.dim, ker.dim) == (dim, n - dim, n - dim)
            assert equals(ker, kernel_of(m)) and equals(ran, range_of(m))
            assert (ker.basis is co.basis) == (kind == "orthogonal")

    @pytest.mark.parametrize("fn", [diagnose, outer_inverse, one_two_inverse_strict])
    def test_below_the_crossover_no_qr_is_taken(self, count_linalg, fn):
        n = densela._SKETCH_MIN - 1
        inst = diagonalizable_instance(np.random.default_rng(1), n, r=n // 2)
        prob = PqProblem(inst["a"], inst["p"], inst["q"])

        def run():
            try:
                fn(prob)
            except NonexistentInverseError:
                pass

        assert count_linalg(run, ("qr",)) == {"qr": 0}

    def test_b_moves_only_by_rounding(self):
        # b = U C^-1 N^H is independent of the bases U and N
        for seed in range(2):
            inst = diagonalizable_instance(np.random.default_rng(seed), 48)
            prob = PqProblem(inst["a"], inst["p"], inst["q"])
            b = outer_inverse(prob).b
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(densela, "_SKETCH_MIN", 10**6)
                b_svd = outer_inverse(prob).b
            assert frob(b - b_svd) <= 1e-12 * frob(b_svd)


class TestPlantedCore:
    """a moved along its core's smallest singular pair so that sigma_min(C)
    = rank_rtol * sigma_max(C) * 10^k: above the cutoff the inverse exists,
    and the candidate's b a b = b check, bounded at the rounding floor of
    its product, must not deny it."""

    @staticmethod
    def _problems(k: float) -> list:
        # the 91 problems with r >= 2 among n = 2-16, seeds 0-7
        problems = []
        for n in range(2, 17):
            for seed in range(8):
                inst = planted_core_instance(np.random.default_rng([seed, n]), n, k)
                if inst["r"] >= 2:
                    problems.append(PqProblem(inst["a"], inst["p"], inst["q"]))
        return problems

    @classmethod
    def _reports(cls, k: float) -> list:
        return [diagnose(prob) for prob in cls._problems(k)]

    @pytest.mark.parametrize("k", [1.5, 2.0])
    def test_a_core_outside_the_band_exists_consistently(self, k):
        reports = self._reports(k)
        assert len(reports) == 91
        assert all(rep.l_exists and rep.equivalence_consistent for rep in reports)

    def test_a_singular_core_has_no_inverse_by_every_criterion(self):
        # k = -inf plants sigma_min(C) = 0: every equivalent criterion reads
        # the inverse as absent, none near its cutoff, and the candidate refuses
        problems = self._problems(-np.inf)
        assert len(problems) == 91
        for prob in problems:
            rep = diagnose(prob)
            assert not (rep.l_exists or rep.cond5 or rep.cond6
                        or (rep.direct_sum and rep.ker_cap_ranp_trivial))
            assert not rep.fragile
            with pytest.raises(NonexistentInverseError):
                outer_inverse(prob)

    def test_a_core_inside_the_band_exists(self):
        # at k = 0.5 the core's decision is near; one problem's a . Ran(p)
        # decision lies inside the band too, and that report is fragile
        reports = self._reports(0.5)
        assert all(rep.l_exists for rep in reports)
        assert all(rep.equivalence_consistent or rep.fragile for rep in reports)

    @pytest.mark.parametrize("factor", [2.0, np.nan])
    def test_a_failed_identity_after_an_invertible_core_is_numerical(self, monkeypatch, factor):
        # the rank rule has called C invertible, so b a b = b failing is a
        # numerical failure, not evidence that no inverse exists; a NaN
        # residual fails too
        inst = diagonalizable_instance(np.random.default_rng(1), 6, r=3)
        prob = PqProblem(inst["a"], inst["p"], inst["q"])
        solve_core = prescribed.solve_core

        def scaled_solve_core(*args):
            inverse, f = solve_core(*args)
            return factor * inverse, f

        monkeypatch.setattr(prescribed, "solve_core", scaled_solve_core)
        with pytest.raises(NumericalError, match="b a b = b although its core is invertible"):
            outer_inverse(prob)


def _unit_triangular_inverse(t: np.ndarray) -> np.ndarray:
    """The exact inverse of a unit triangular integer matrix (dtype object):
    with t = 1 + m and m nilpotent, t^-1 = sum_j (-m)^j."""
    ident = np.eye(t.shape[0], dtype=int).astype(object)
    inverse = power = ident
    for _ in range(t.shape[0] - 1):
        power = -(power @ (t - ident))
        inverse = inverse + power
    return inverse


def integer_idempotent(rng, n: int, r: int, depth: int) -> np.ndarray:
    """An exact rank-r integer idempotent S D S^-1, S the product of ``depth``
    unimodular matrices L U with entries of L and U in {-1, 0, 1}: oblique,
    with entries up to about 1e6 at depth 5 and 1e8 at depth 7 for n <= 5,
    every one exact in a float."""
    ident = np.eye(n, dtype=int).astype(object)
    s = s_inv = ident
    for _ in range(depth):
        low = np.tril(rng.integers(-1, 2, (n, n)), -1).astype(object) + ident
        up = np.triu(rng.integers(-1, 2, (n, n)), 1).astype(object) + ident
        s, s_inv = s @ low @ up, _unit_triangular_inverse(up) @ _unit_triangular_inverse(low) @ s_inv
    q = s @ np.diag([1] * r + [0] * (n - r)).astype(object) @ s_inv
    assert (q @ q == q).all()
    return np.array(q.tolist(), dtype=np.complex128)


def _exact_verdicts(a, p, q) -> tuple[dict[str, bool], tuple[int, int, int]]:
    """Every verdict of :func:`diagnose` and its dimensions, for integer
    matrices a, p, q (arrays of Python ints), from exact ranks alone.

    With exact ranks the criteria reduce to: Ker(a) ∩ Ran(p) = {0} iff
    rank a p = rank p; a . Ran(p) = Ran(a p); cond5 and cond6 both to
    rank (1-q) a p = rank p = n - rank q; subspace existence to
    rank p + rank q = n with rank [a p | q] = n.  The strict inverse adds
    a b = 1 - q, which for the subspace inverse b is a . Ran(p) = Ran(1-q),
    and b a = p, which is Ker((1-q) a) = Ker(p): (1-q) a (1-p) = 0 with
    rank (1-q) a = rank p.  The {1,2} decompositions are
    rank a + rank q = n = rank [a | q] and rank a = rank p = rank a p; the
    strict {1,2} kind adds Ran(a) = Ran(1-q) and Ker(a) = Ker(p), which is
    a (1-p) = 0 with rank a = rank p.
    """
    n = a.shape[0]
    one = np.eye(n, dtype=int).astype(object)
    one_mq, one_mp = one - q, one - p
    r_p, r_q, r_a = exact_rank(p), exact_rank(q), exact_rank(a)
    ap = a @ p
    r_ap, r_1mq = exact_rank(ap), exact_rank(one_mq)
    spans = exact_rank(np.hstack([ap, q])) == n
    image_match = r_ap == r_1mq == exact_rank(np.hstack([ap, one_mq]))
    cond = exact_rank(one_mq @ ap) == r_p == n - r_q
    l_exists = r_p + r_q == n and spans
    l12 = r_a + r_q == n and exact_rank(np.hstack([a, q])) == n and r_a == r_p == r_ap
    verdicts = {
        "ker_cap_ranp_trivial": r_ap == r_p,
        "direct_sum": r_ap + r_q == n and spans,
        "image_match": image_match,
        "cond5": cond,
        "cond6": cond,
        "strict_exists": (l_exists and image_match and not (one_mq @ a @ one_mp).any()
                          and exact_rank(one_mq @ a) == r_p),
        "l_exists": l_exists,
        "l12_exists": l12,
        "strict12_exists": (l12 and r_a == r_1mq == exact_rank(np.hstack([a, one_mq]))
                            and not (a @ one_mp).any()),
    }
    return verdicts, (r_p, r_q, r_a)


def _as_ints(m: np.ndarray) -> np.ndarray:
    """The entries of a float matrix of integers as Python ints, exactly."""
    ints = m.real.astype(np.int64)
    assert (ints == m).all()
    return ints.astype(object)


class TestExactOracle:
    """The verdicts of :func:`diagnose` against exact ranks, on integer
    triples whose p and q are oblique integer idempotents with entries up to
    about 1e8 (every one exact in a float).

    A triple is compared only where a's singular values resolve its exact
    rank at rank_rtol, and, where the inverse exists exactly, where the core
    C = N^H a U resolves as the candidate decides it: rank r at rank_rtol
    and above the rounding floor PRODUCT_NOISE r ||a||_F.  There l_exists,
    cond5 and the dimensions must be exact and outer_inverse must return.
    Every verdict must be exact where the data also fix C to the equality
    tolerance, sigma_min(C) > eps ||a||_F / eq_rtol: a = (1-q) X p reaches
    ||a||_F ~ 1e13 while C stays near 1, and any product with a then rounds
    by more than eq_rtol relative to C."""

    @staticmethod
    def _triples(depth: int, product: bool):
        """400 triples with a in [-3, 3], or 100 with a = (1-q) X p, X in
        [-2, 2]; n = 2-5, rank q = n - rank p three times in four."""
        rng = np.random.default_rng(1000 + depth)
        for _ in range(100 if product else 400):
            n = int(rng.integers(2, 6))
            r_p = int(rng.integers(0, n + 1))
            r_q = n - r_p if rng.random() < 0.75 else int(rng.integers(0, n + 1))
            p, q = (integer_idempotent(rng, n, r, depth) for r in (r_p, r_q))
            if product:
                # in integers, so that a is exact; its entries stay below 2^53
                x = rng.integers(-2, 3, (n, n)).astype(object)
                a = ((np.eye(n, dtype=int) - _as_ints(q)) @ x @ _as_ints(p)).astype(np.complex128)
            else:
                a = rng.integers(-3, 4, (n, n)).astype(np.complex128)
            yield a, p, q

    @staticmethod
    def _core_singular_values(prob: PqProblem, r_p: int, r_q: int) -> np.ndarray:
        """The singular values of C = N^H a U, U and N orthonormal bases of
        Ran(p) and Ran(q)^⊥ from numpy's SVDs at the exact ranks."""
        u = np.linalg.svd(prob.p)[0][:, :r_p]
        nh = np.linalg.svd(prob.q)[0][:, r_q:].conj().T
        return np.linalg.svd(nh @ prob.a @ u, compute_uv=False)

    @pytest.mark.parametrize("product", [False, True], ids=["integer-a", "a=(1-q)Xp"])
    @pytest.mark.parametrize("depth", [1, 3, 5, 7])
    def test_verdicts_match_exact_ranks(self, depth, product):
        tol, eps = DEFAULT_TOL, np.finfo(float).eps
        compared = existing = every = 0
        for i, (a, p, q) in enumerate(self._triples(depth, product)):
            prob = PqProblem(a, p, q)
            verdicts, ranks = _exact_verdicts(*map(_as_ints, (prob.a, prob.p, prob.q)))
            (r_p, r_q, r_a), norm_a = ranks, frob(prob.a)
            s = np.linalg.svd(prob.a, compute_uv=False)
            if np.count_nonzero(s > tol.rank_rtol * s[0]) != r_a:
                continue
            exists, decided = verdicts["l_exists"], True
            if exists and r_p:
                c = self._core_singular_values(prob, r_p, r_q)
                if c[-1] <= tol.rank_rtol * c[0] or c[-1] <= densela.PRODUCT_NOISE * r_p * norm_a:
                    continue
                decided = c[-1] * tol.eq_rtol > eps * norm_a
            rep = diagnose(prob)
            assert (rep.l_exists, rep.cond5) == (exists, verdicts["cond5"]), i
            assert (rep.dim_ran_p, rep.dim_ran_q, rep.rank_a) == ranks, i
            if exists:
                outer_inverse(prob)  # raises when it refuses an inverse that exists
            if decided:
                assert rep.booleans() == verdicts, i
            compared += 1
            existing += exists
            every += decided
        assert compared >= (0.9 if product else 1.0) * (100 if product else 400)
        assert every >= (0.75 if product else 1.0) * (100 if product else 400)
        assert 0 < existing < compared


class TestObliqueOracle:
    """diagnose and outer_inverse on guaranteed-existence instances whose p
    and q are oblique with ||p||_2, ||q||_2 about t: every subspace-outer
    verdict holds, and the value matches the oracle."""

    SUBSPACE_VERDICTS = ("ker_cap_ranp_trivial", "direct_sum", "cond5", "cond6", "l_exists")

    @pytest.mark.parametrize("t", [1e2, 1e4, 1e6])
    @pytest.mark.parametrize("n", [8, 32])
    def test_every_subspace_verdict_holds(self, n, t):
        for seed in range(100):
            inst = oblique_instance(np.random.default_rng(seed), n, t)
            prob = PqProblem(inst["a"], inst["p"], inst["q"])
            rep = diagnose(prob)
            assert all(getattr(rep, name) for name in self.SUBSPACE_VERDICTS), seed
            assert rep.equivalence_consistent, seed
            b_ref = inst["b_ref"]
            assert frob(outer_inverse(prob).b - b_ref) <= ORACLE_TOL * (1 + frob(b_ref)), seed

    def test_idempotents_are_oblique_with_the_instance_ranges(self):
        for n, seed in ((1, 0), (8, 1), (8, 2), (32, 3)):
            inst = oblique_instance(np.random.default_rng(seed), n, 1e4)
            plain = guaranteed_instance(np.random.default_rng(seed), n)
            for name in "pq":
                m = inst[name]
                assert frob(m @ m - m) <= 1e-8 * frob(m)
                assert equals(range_of(m), range_of(plain[name]))
            r = inst["r"]
            if 0 < r < n:
                assert np.linalg.norm(inst["p"], 2) == pytest.approx(np.hypot(1.0, 1e4))
            assert np.array_equal(inst["b_ref"], plain["b_ref"])


class TestSharedSubspaces:
    """Ran(1-q) is read as Ker(q) off q's one SVD, and C^n = Ker(a) ∔ Ran(p)
    reuses the rank of ker_cap_ranp_trivial; both agree with computing the
    subspace, or the decomposition, afresh."""

    @staticmethod
    def _assert_ker_q_is_ran_1mq(q):
        # q and 1-q as a problem holds them, each snapped to 0 when it is noise
        prob = PqProblem(np.eye(q.shape[0]), q, q)
        ker_q = prescribed._Spaces(prob.a, prob.p, prob.q, DEFAULT_TOL).q.ker
        ran_1mq = range_of(prob.one_minus_q)
        assert ker_q.dim == ran_1mq.dim
        assert equals(ker_q, ran_1mq)

    def test_ker_q_is_ran_1mq_on_oblique_idempotents(self, rng):
        for n in (1, 2, 5, 8, 16):
            for k in range(n + 1):
                for cond_cap in (10.0, 1e3):
                    self._assert_ker_q_is_ran_1mq(random_idempotent(rng, n, k, cond_cap))

    @pytest.mark.parametrize("n", [1, 4])
    def test_ker_q_is_ran_1mq_at_zero_and_one(self, n):
        for q in (np.zeros((n, n)), np.eye(n)):
            self._assert_ker_q_is_ran_1mq(q.astype(np.complex128))

    @pytest.mark.parametrize("depth", [1, 3, 5, 7])
    def test_ker_q_is_ran_1mq_on_integer_idempotents(self, depth):
        rng = np.random.default_rng([7, depth])
        for _ in range(100):
            n = int(rng.integers(2, 6))
            self._assert_ker_q_is_ran_1mq(integer_idempotent(rng, n, int(rng.integers(0, n + 1)), depth))

    @staticmethod
    def _meeting_problem(rng, n: int) -> PqProblem:
        """A rank-k a with dim Ran(p) = dim Ran(q) = n - k, where Ran(p) holds
        a vector of Ker(a) or Ran(q) one of Ran(a), each about half the time."""
        k = int(rng.integers(1, n))
        f, g = _complex_normal(rng, n, k), _complex_normal(rng, k, n)

        def oblique(meet):
            x, y = _complex_normal(rng, n, n - k), _complex_normal(rng, n - k, n)
            if rng.random() < 0.5:
                x[:, 0] = meet
            return x @ np.linalg.solve(y @ x, y)

        ker_vector = kernel_of(g).basis[:, 0]
        return PqProblem(f @ g, oblique(ker_vector), oblique(f @ _complex_normal(rng, k, 1)[:, 0]))

    def test_l12_verdict_is_the_shared_predicate(self):
        # the fresh side decides both decompositions from their definition;
        # diagnose reuses the rank of ker_cap_ranp_trivial
        rng = np.random.default_rng(1212)
        verdicts, meets, deficient = set(), 0, 0
        for i in range(150):
            n = int(rng.integers(2, 9))
            prob = self._meeting_problem(rng, n) if i % 2 else PqProblem(*random_triple(rng, n))
            ran_a, ker_a = sub.range_and_kernel(prob.a)
            ran_p = range_of(prob.p)
            left = sub.is_direct_sum_all(ran_a, range_of(prob.q))
            right = sub.is_direct_sum_all(ker_a, ran_p)
            assert diagnose(prob).l12_exists == (left and right), i
            verdicts.add(left and right)
            meets += left and not right and ker_a.dim + ran_p.dim == n
            deficient += ran_a.dim < n
        assert verdicts == {True, False}
        assert meets > 0 and deficient > 0


def _knife_edge_problems():
    """Problems with one singular value at 3e-10 or 3e-11 sigma_max, inside
    the factor-10 band around the default cutoff: in p; in a and so in
    (1-q) a p, the matrix of the least-squares witnesses; and in a with
    p = 0, q = 1, where no verdict depends on rank(a)."""
    q = np.diag([0.0, 0.0, 1.0]).astype(complex)
    p = np.diag([1.0, 1.0, 0.0]).astype(complex)
    for edge in (3e-10, 3e-11):
        yield PqProblem(np.eye(3), np.diag([1.0, edge, 0.0]), q)
        yield PqProblem(np.diag([1.0, edge, 1.0]), p, q)
        yield PqProblem(np.diag([1.0, edge, 1.0]), np.zeros((3, 3)), np.eye(3))


class TestOnePassDiagnose:
    """diagnose repeats itself at the scaled thresholds only near a cutoff."""

    @staticmethod
    def _problems():
        rng = np.random.default_rng(515)
        for i in range(150):
            n = int(rng.integers(1, 9))
            if i % 2 == 0:
                inst = guaranteed_instance(rng, n)
                yield PqProblem(inst["a"], inst["p"], inst["q"])
            else:
                yield PqProblem(*random_triple(rng, n))
        yield from _knife_edge_problems()

    @staticmethod
    def _summary(rep):
        return rep.booleans(), (rep.dim_ran_p, rep.dim_ran_q, rep.rank_a), rep.fragile

    @staticmethod
    def _count_passes(monkeypatch) -> list:
        passes = []
        booleans_at = prescribed._booleans_at

        def counting(prob, tol):
            passes.append(tol.rank_rtol)
            return booleans_at(prob, tol)

        monkeypatch.setattr(prescribed, "_booleans_at", counting)
        return passes

    def test_equals_the_three_pass_rule(self, monkeypatch):
        problems = list(self._problems())
        one_pass = [self._summary(diagnose(prob)) for prob in problems]
        # a band check that always reports "near" forces the repeats
        monkeypatch.setattr(densela, "_straddles_cutoff", lambda *args: True)
        three_pass = [self._summary(diagnose(prob)) for prob in problems]
        assert one_pass == three_pass
        assert {fragile for _flags, _dims, fragile in one_pass} == {True, False}

    def test_band_hit_without_flip_is_not_fragile(self, monkeypatch):
        # rank(a) is 2 or 3 depending on the threshold, but Ran(a) never
        # complements Ran(q) = C^3, so no verdict flips
        prob = PqProblem(np.diag([1.0, 3e-10, 1.0]), np.zeros((3, 3)), np.eye(3))
        passes = self._count_passes(monkeypatch)
        rep = diagnose(prob)
        assert not rep.fragile
        assert passes == [1e-10, 1e-10 * 10.0, 1e-10 * 0.1]

    def test_outside_the_band_takes_one_pass(self, monkeypatch):
        passes = self._count_passes(monkeypatch)
        rep = diagnose(counterexample_problem())
        assert not rep.fragile
        assert passes == [DEFAULT_TOL.rank_rtol]


def _recording_factorizations(monkeypatch, prob) -> list:
    """The kinds, "qr" or "svd", of the QRs and of the SVDs of p or q that
    LAPACK takes from now on; every QR the package takes is of a sketch of p
    or q, or of Ran(m)^⊥ mapped by 1 - m for m = p or q."""
    taken = []
    qr, svd = np.linalg.qr, np.linalg.svd

    def recording_qr(m, *args, **kwargs):
        taken.append("qr")
        return qr(m, *args, **kwargs)

    def recording_svd(m, *args, **kwargs):
        if any(m.shape == x.shape and np.array_equal(m, x) for x in (prob.p, prob.q)):
            taken.append("svd")
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    return taken


class TestProblemViews:
    """A PqProblem factors p and q once at its tolerance: every call on it
    reads the bases its first call took, and returns what it would return
    on a fresh problem, bit for bit."""

    CALLS = (("diagnose", diagnose),
             *((f"outer_inverse {route}", lambda prob, route=route: outer_inverse(prob, route))
               for route in ("group", "inner", "limit", "integral")),
             ("one_two_inverse", one_two_inverse))

    @staticmethod
    def _outcome(call, prob):
        try:
            out = call(prob)
        except (NonexistentInverseError, NumericalError) as exc:
            return type(exc).__name__, str(exc)
        if isinstance(out, prescribed.ExistenceReport):
            return out.to_json_dict()
        return out.kind, out.route, out.b.tobytes(), out.residuals

    @pytest.mark.parametrize("n", [64, 8], ids=["sketched", "svd"])
    def test_calls_on_one_problem_share_its_views(self, monkeypatch, n):
        inst = diagonalizable_instance(np.random.default_rng(45), n, r=n // 2)

        def problem():
            return PqProblem(inst["a"], inst["p"], inst["q"])

        shared = problem()
        taken = _recording_factorizations(monkeypatch, shared)
        per_call = []
        for name, call in self.CALLS:
            taken.clear()
            fresh_outcome = self._outcome(call, problem())
            fresh = list(taken)
            taken.clear()
            assert self._outcome(call, shared) == fresh_outcome, name
            per_call.append((name, fresh, list(taken)))
        # from n = densela._SKETCH_MIN on, p and q are sketched, and no SVD of
        # either is taken; below it each is factored by one SVD
        kind = "qr" if n >= densela._SKETCH_MIN else "svd"
        (_, first_fresh, first), *later = per_call
        assert first == first_fresh and set(first) == {kind} and len(first) >= 2
        for name, fresh, shared_taken in later:
            assert set(fresh) == {kind} and shared_taken == [], name

    def test_diagnose_after_a_compute_replays_a_near_decision(self, monkeypatch):
        # Ran(p) ∔ Ran(q) = C^8 with a = 1; p is oblique, and rank_rtol is half
        # the ratio of its smallest nonzero singular value to its largest, so
        # p's rank decision is near, and the ten times larger cutoff drops a
        # dimension of Ran(p): the verdicts flip, the report is fragile
        rng = np.random.default_rng(45)
        u = np.linalg.qr(_complex_normal(rng, 8, 8))[0]
        p = _oblique(rng, u[:, :4], 100.0)
        q = u[:, 4:] @ u[:, 4:].conj().T
        s = np.linalg.svd(p, compute_uv=False)
        tol = Tolerances(rank_rtol=0.5 * s[3] / s[0])

        def problem():
            return PqProblem(np.eye(8), p, q, tol)

        def diagnosed(prob):
            taken = _recording_factorizations(monkeypatch, prob)
            with densela.record() as rec:
                rep = diagnose(prob)
            monkeypatch.undo()
            return rep.to_json_dict(), rec.near, taken.count("svd")

        fresh, fresh_near, fresh_svds = diagnosed(problem())
        assert fresh_near and fresh["fragile"] and fresh["l_exists"]
        used = problem()
        outer_inverse(used)
        shared, shared_near, shared_svds = diagnosed(used)
        assert (shared, shared_near) == (fresh, fresh_near)
        # the base pass reads the views the compute took; each scaled repeat
        # factors p and q itself
        assert fresh_svds - shared_svds == 2 and shared_svds >= 2


class TestGroupFormula:
    def test_hand_value(self):
        assert frob(group_formula(A22, W22) - B22) <= 1e-12

    def test_identity_with_idempotent(self, rng):
        p = random_idempotent(rng, 4)
        assert frob(group_formula(np.eye(4), p) - p) <= 1e-9 * (1 + frob(p))

    def test_two_sided_agreement_random(self, rng):
        for _ in range(10):
            inst = guaranteed_instance(rng, int(rng.integers(1, 8)))
            b = group_formula(inst["a"], inst["w"])
            assert frob(b - inst["b_ref"]) <= 1e-7 * (1 + frob(inst["b_ref"]))

    def test_kernel_overlap_rejected(self):
        with pytest.raises(NonexistentInverseError, match="Ker"):
            group_formula(np.diag([0.0, 1.0]), np.eye(2))

    @staticmethod
    def _precondition_fails(a, w) -> bool:
        try:
            group_formula(a, w)
        except NonexistentInverseError as exc:
            return "Ker(a) ∩ Ran(w)" in str(exc)
        except NumericalError:
            pass  # a later check of the route
        return False

    def test_precondition_agrees_with_meets_trivially(self, rng):
        # rank(a w) = rank(w) against Ker(a) ∩ Ran(w) = {0} on principal angles, on
        # full-rank, low-rank and Ran(w)-killing a, with rank-deficient w
        seen = set()
        for _ in range(240):
            n = int(rng.integers(1, 17))
            k = int(rng.integers(0, n))
            w = _complex_normal(rng, n, k) @ _complex_normal(rng, k, n)
            style = int(rng.integers(0, 3)) if k else 0
            if style == 0:
                a = _complex_normal(rng, n, n)
            elif style == 1:
                j = int(rng.integers(0, n))
                a = _complex_normal(rng, n, j) @ _complex_normal(rng, j, n)
            else:
                x = range_of(w).basis @ _complex_normal(rng, k, 1)
                x /= np.linalg.norm(x)
                a = _complex_normal(rng, n, n) @ (np.eye(n) - x @ x.conj().T)
            reference = not sub.meets_trivially(kernel_of(a), range_of(w))
            assert self._precondition_fails(a, w) == reference
            seen.add((style, reference))
        assert seen == {(0, False), (1, False), (1, True), (2, True)}

    def test_one_factorization_of_w(self, monkeypatch):
        # w's full SVD gives rank(w) and the factors of both (a w)^# and
        # (w a)^#; rank(a w) takes singular values only, each of the two
        # r x r cores one SVD that decides and inverts it, and no basis of
        # Ker(a) or Ran(w) is built
        svd = np.linalg.svd
        calls = []

        def recording_svd(m, *args, **kwargs):
            calls.append((m.shape, kwargs.get("compute_uv", True)))
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        b = group_formula(np.diag([2.0, 4.0, 1.0, 3.0]), np.diag([1.0, 1.0, 0.0, 0.0]))
        assert frob(b - np.diag([0.5, 0.25, 0.0, 0.0])) <= 1e-14
        assert calls == [((4, 4), True), ((4, 4), False), ((2, 2), True), ((2, 2), True)]

    @pytest.mark.parametrize("formula", [group_formula, inner_formula])
    def test_kernel_of_a_is_read_at_the_scale_of_a_w(self, formula):
        # Ker(a) at the scale of ||a|| = 1e12 held e3, so Ker(a) ∩ Ran(w)
        # read as e3; a w = diag(0, 1, 1e-3) has the rank of w
        b = formula(np.diag([1e12, 1.0, 1e-3]), np.diag([0.0, 1.0, 1.0]))
        assert frob(b - np.diag([0.0, 1.0, 1000.0])) <= 1e-12 * 1000.0

    @pytest.mark.parametrize("formula", [group_formula, inner_formula])
    def test_a_w_that_loses_rank_is_rejected(self, formula):
        # Ker(a) = {0} at the scale of a, but a w = diag(1, 1e-12) has rank 1
        # against rank(w) = 2, so the anchor w a w c = w could not hold
        with pytest.raises(NonexistentInverseError, match="Ker\\(a\\) ∩ Ran\\(w\\)"):
            formula(np.diag([1.0, 1e-9]), np.diag([1.0, 1e-3]))

    @pytest.mark.parametrize("formula", [group_formula, inner_formula])
    def test_a_w_without_group_inverse_skips_w_a(self, formula, count_linalg):
        # a w = [[0, 0], [1, 0]] has the rank of w but index 2: the route
        # raises after the SVDs of w and a w, before (w a)^# is factored
        def run():
            with pytest.raises(NonexistentInverseError, match="aw \\(or wa\\) has no group inverse"):
                formula(np.array([[0.0, 0.0], [1.0, 0.0]]), np.diag([1.0, 0.0]))

        assert count_linalg(run) == {"svd": 2}

    @pytest.mark.parametrize("formula", [group_formula, inner_formula])
    def test_a_that_kills_a_rank_one_w_is_rejected(self, formula, rng):
        # a = M (1 - x x^H) maps Ran(w) = span(x) to noise.  a U S is then an
        # n x 1 column of noise, rank 1 = rank(w) at its own scale; a w's
        # noise is rank n at its own scale, so the decision stays on a w's
        # singular values, where Ker(a) ∩ Ran(w) = Ran(w) shows
        for n in range(2, 17):
            w = _complex_normal(rng, n, 1) @ _complex_normal(rng, 1, n)
            x = range_of(w).basis
            a = _complex_normal(rng, n, n) @ (np.eye(n) - x @ x.conj().T)
            with pytest.raises(NonexistentInverseError, match="Ker\\(a\\) ∩ Ran\\(w\\) ≠ \\{0\\}"):
                formula(a, w)

    def test_inverses_off_the_svd_of_w_match_the_classical_ones(self, rng):
        # (w a)^# and w (w a w)^+ w read off w = U S V^H against ginv's own, on
        # random rank-deficient w and on diagonalizable instances' witnesses
        pairs = []
        for _ in range(50):
            n = int(rng.integers(2, 17))
            k = int(rng.integers(1, n))
            pairs.append((_complex_normal(rng, n, n),
                          _complex_normal(rng, n, k) @ _complex_normal(rng, k, n)))
        for n in (2, 5, 8, 16):
            inst = diagonalizable_instance(rng, n, r=n // 2)
            pairs.append((inst["a"], inst["w"]))
            pairs.append((inst["a"], matrix_with_range_kernel(inst["p"], inst["q"])))
        for a, w in pairs:
            _, g_wa, (u, s, vh, core) = prescribed._group_route(a, w, DEFAULT_TOL)
            ref = group_inverse(w @ a)
            assert frob(g_wa - ref) <= densela.eq_bound(g_wa, ref)
            waw = s[:, None] * core
            inner = prescribed._inner_value(u, s, vh, waw, DEFAULT_TOL)
            m = w @ a @ w
            ref = w @ moore_penrose(m) @ w
            assert frob(inner - ref) <= densela.eq_bound(inner, ref)
            # inner_formula's witness residual on K, with w a w = U K V^H,
            # against the n x n one; doubling the witness x fails both
            for scale in (1.0, 2.0):
                x = scale * a @ g_wa @ g_wa
                kxk, mxm = waw @ (vh @ x @ u) @ waw, m @ x @ m
                on_k, on_n = frob(kxk - waw), frob(mxm - m)
                bound = densela.eq_bound(mxm, m)
                assert densela.eq_bound(kxk, waw) == pytest.approx(bound, rel=1e-12)
                if scale == 1.0:
                    assert on_k <= bound and abs(on_k - on_n) <= bound
                else:
                    assert on_k > bound and on_n > bound

    def test_no_full_svd_of_a_w_w_a_or_w_a_w(self, monkeypatch):
        # at n = 16: group_formula takes one full SVD, of w, and the
        # values of a w; the inner route adds to the group route the full
        # SVDs of w and of its value b, for the gaps, and the values of a w.
        # Each call has its own problem, so the inner call factors p and q
        # again, as the group call does, and only the route's SVDs differ
        inst = diagonalizable_instance(np.random.default_rng(3), 16, r=8)
        a = inst["a"]

        def problem():
            return PqProblem(inst["a"], inst["p"], inst["q"])

        prob = problem()
        w = matrix_with_range_kernel(prob.p, prob.q)
        svd = np.linalg.svd
        calls = []

        def recording_svd(m, *args, **kwargs):
            if m.shape == (16, 16):
                calls.append((m.copy(), kwargs.get("compute_uv", True)))
            return svd(m, *args, **kwargs)

        def full_and_values(run):
            calls.clear()
            out = run()
            return [m for m, uv in calls if uv], [m for m, uv in calls if not uv], out

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        full, values, _ = full_and_values(lambda: group_formula(a, inst["w"]))
        assert len(full) == 1 and len(values) == 1
        assert np.array_equal(full[0], inst["w"]) and np.array_equal(values[0], a @ inst["w"])
        group_full, group_values, _ = full_and_values(lambda: outer_inverse(problem(), "group"))
        full, values, res = full_and_values(lambda: outer_inverse(problem(), "inner"))
        assert len(full) == len(group_full) + 2 and len(values) == len(group_values) + 1
        assert np.array_equal(full[-1], res.b)
        products = (a @ w, w @ a, w @ a @ w)
        for m in full:
            assert all(frob(m - x) > 1e-8 * frob(x) for x in products)


@pytest.mark.parametrize("formula", [group_formula, inner_formula])
def test_route_operands_of_mismatched_size_name_both_shapes(formula):
    with pytest.raises(ShapeError, match=r"a \(2, 2\), w \(3, 3\)"):
        formula(np.eye(2), np.eye(3))


class TestInnerFormula:
    def test_hand_value(self):
        assert frob(inner_formula(A22, W22) - B22) <= 1e-12

    def test_identity(self):
        assert frob(inner_formula(np.eye(2), np.eye(2)) - np.eye(2)) <= 1e-14

    def test_agreement_random(self, rng):
        for _ in range(10):
            inst = guaranteed_instance(rng, int(rng.integers(1, 8)))
            b_inner = inner_formula(inst["a"], inst["w"])
            b_group = group_formula(inst["a"], inst["w"])
            assert frob(b_inner - b_group) <= 1e-8 * (1 + frob(b_group))


class TestLimitFormula:
    def test_closed_form_diag_core(self):
        lam = 1e-6
        value, trace = limit_formula(A22, W22, [1e-2, 1e-4, lam])
        expected = np.array([[0, 1.0 / (1.0 + lam)], [0, 0]], dtype=complex)
        assert frob(value - expected) <= 1e-12
        assert frob(value - B22) <= 2 * lam
        assert len(trace) == 2

    def test_identity_limit(self):
        value, _ = limit_formula(np.eye(2), np.eye(2), [1e-2, 1e-5, 1e-8])
        assert frob(value - np.eye(2)) <= 1e-7

    def test_shift_collision_rejected(self):
        a = np.diag([-1e-4, 1.0]).astype(complex)
        with pytest.raises(SpectrumError, match="spectrum"):
            limit_formula(a, np.eye(2))

    def test_trace_decreases_linearly(self, rng):
        inst = diagonalizable_instance(rng, 5)
        _, trace = limit_formula(inst["a"], inst["w"])
        errors = [e for _, e in trace]
        assert errors[-1] < errors[0]

    def test_increasing_schedule_rejected(self):
        with pytest.raises(ValueError):
            limit_formula(np.eye(2), np.eye(2), [1e-8, 1e-2])

    @pytest.mark.parametrize("shift", [float("nan"), float("inf")])
    def test_non_finite_shift_rejected(self, shift):
        with pytest.raises(ValueError, match="finite"):
            limit_formula(np.eye(2), np.eye(2), [shift])


    def test_singular_shifted_system_is_a_spectrum_error(self, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(prescribed, "solve", singular)
        with pytest.raises(SpectrumError, match="shifted system singular at shift 1.000e-02"):
            limit_formula(np.eye(2), np.eye(2))


class TestDriftGate:
    def test_nan_drift_fails(self):
        with pytest.raises(NumericalError, match="drifts"):
            prescribed._check_drift(np.full((2, 2), np.nan), np.eye(2), DEFAULT_TOL, "drifts")


class TestIntegralFormula:
    def test_closed_form_diag_core(self):
        value, tail = integral_formula(A22, W22)
        assert frob(value - B22) <= 1e-8
        assert tail <= 1e-8

    def test_identity(self):
        value, _ = integral_formula(np.eye(2), np.eye(2))
        assert frob(value - np.eye(2)) <= 1e-8

    def test_rotation_spectrum_rejected(self):
        rotation = np.array([[0, 1], [-1, 0]], dtype=complex)
        with pytest.raises(SpectrumError, match="Re"):
            integral_formula(rotation, np.eye(2))

    def test_nilpotent_rejected(self):
        with pytest.raises(SpectrumError):
            integral_formula(np.array([[0, 1], [0, 0]], dtype=complex), np.eye(2))

    def test_static_part_must_vanish(self):
        # w keeps the zero eigendirection of aw alive
        with pytest.raises(SpectrumError, match="decay"):
            integral_formula(np.diag([0.0, 1.0]), np.eye(2))

    def test_index_two_a_w_rejected(self):
        # a w = a has the nonzero spectrum {1}, in Re > 0, and a 2 x 2
        # nilpotent Jordan block, so its r x r core G F is singular
        a = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        with pytest.raises(SpectrumError, match="aw is not group invertible"):
            integral_formula(a, np.eye(3))

    def test_index_is_decided_before_the_spectrum_and_the_horizon(self):
        # the nonzero spectrum {-1} fails Re > 0 and the horizon 1 is short,
        # but the 2 x 2 nilpotent Jordan block beside it is reported first
        a = np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        for horizon in (None, 1.0):
            with pytest.raises(SpectrumError, match="aw is not group invertible"):
                integral_formula(a, np.eye(3), horizon=horizon)

    @pytest.mark.parametrize("a", [1e-9 * np.diag([1.0, 2.0, 0.0, 0.0]),
                                   1e-12 * np.diag([1.0, 2.0, 0.0, 0.0]),
                                   np.diag([1.0, 1e-8, 0.0, 0.0])],
                             ids=["scale_1e-9", "scale_1e-12", "graded_1e-8"])
    def test_small_nonzero_spectrum_is_integrated(self, a):
        # the core's rank rule counts every eigenvalue of a w as nonzero, so
        # no second cutoff reads them as zero; the horizon, about 40 / alpha,
        # leaves the squaring count that of (a w) T
        value, tail = integral_formula(a, np.diag([1.0, 1.0, 0.0, 0.0]))
        ref = moore_penrose(a)
        assert frob(value - ref) <= 1e-7 * frob(ref)
        assert tail <= 1e-8

    @pytest.mark.parametrize("s", [1e-8, 1e-9, 1e-12])
    def test_route_passes_its_drift_gate_at_small_scale(self, s):
        p = np.diag([1.0, 1.0, 0.0, 0.0])
        prob = PqProblem(s * np.diag([1.0, 2.0, 0.0, 0.0]), p, np.eye(4) - p)
        result = outer_inverse(prob, route="integral")
        b_ref = np.diag([1.0 / s, 0.5 / s, 0.0, 0.0])
        assert result.route == "integral"
        assert frob(result.b - b_ref) <= 1e-12 * frob(b_ref)

    def test_spectrum_is_read_off_the_r_by_r_core(self, monkeypatch):
        eigvals, shapes = np.linalg.eigvals, []

        def recording_eigvals(m):
            shapes.append(m.shape)
            return eigvals(m)

        monkeypatch.setattr(np.linalg, "eigvals", recording_eigvals)
        inst = diagonalizable_instance(np.random.default_rng(3), 8, r=3)
        value, _tail = integral_formula(inst["a"], inst["w"])
        assert frob(value - inst["b_ref"]) <= 1e-6 * (1 + frob(inst["b_ref"]))
        assert shapes == [(3, 3)]

    def test_rank_zero_a_w_has_no_nonzero_spectrum(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvals", None)  # r = 0 takes no eigenvalues
        with pytest.raises(SpectrumError, match="no nonzero spectrum"):
            integral_formula(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))

    def test_horizon_is_tested_before_the_static_part(self, count_linalg):
        # w = 1 keeps the zero eigendirection of diag(0, 1) alive, and the
        # horizon 1 is below the minimum log(1e8): the horizon is rejected
        # after the SVD of a w and the core's SVD, which decides index one
        # and so the nonzero spectrum, before the static-part check
        def run():
            with pytest.raises(ValueError, match="below the minimum"):
                integral_formula(np.diag([0.0, 1.0]), np.eye(2), horizon=1.0)

        assert count_linalg(run, ("svd", "solve")) == {"svd": 2, "solve": 0}

    def test_short_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            integral_formula(np.eye(2), np.eye(2), horizon=1.0)

    def test_nan_horizon_rejected(self):
        with pytest.raises(ValueError, match="below the minimum"):
            integral_formula(np.eye(2), np.eye(2), horizon=float("nan"))

    def test_infinite_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon inf is not finite"):
            integral_formula(np.eye(2), np.eye(2), horizon=float("inf"))

    @pytest.mark.parametrize("a", [np.diag([2.0, 1.0]), np.array([[1.0, 0.0], [1.0, 1.0]])],
                             ids=["entry", "column_sum"])
    def test_horizon_that_overflows_the_block_rejected(self, a):
        # 2e308 overflows an entry; the column sum 1e308 + 1e308 overflows the 1-norm
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="horizon 1e\\+308 overflows"):
                integral_formula(a, np.eye(2), horizon=1e308)

    def test_zero_conv_tol_rejected(self):
        with pytest.raises(ValueError, match="conv_tol"):
            integral_formula(np.eye(2), np.eye(2), tol=Tolerances(conv_tol=0.0))

    def test_agreement_random(self, rng):
        for _ in range(5):
            inst = diagonalizable_instance(rng, int(rng.integers(2, 7)))
            value, tail = integral_formula(inst["a"], inst["w"])
            assert frob(value - inst["b_ref"]) <= 1e-6 * (1 + frob(inst["b_ref"]))
            assert tail <= 1e-8

    def test_slow_decay_is_not_truncated(self):
        # alpha ~ 1e-3 with |Im| ~ 1: the horizon (~3e4) spans thousands of
        # oscillation periods of the integrand
        inst = diagonalizable_instance(
            np.random.default_rng(0), 6, r=3, re_lo=1e-3, re_hi=2e-3, im_amp=1.0
        )
        value, tail = integral_formula(inst["a"], inst["w"])
        assert frob(value - inst["b_ref"]) <= 1e-6 * (1 + frob(inst["b_ref"]))
        assert tail <= 1e-8

    def test_memory_quadratic_in_n(self):
        # the Van Loan exponential is carried on its n x n blocks, so the
        # call's peak is about 13 n x n matrices; the 2n x 2n block took 47
        n = 32
        inst = diagonalizable_instance(np.random.default_rng(2), n, re_lo=0.1, re_hi=10.0)
        tracemalloc.start()
        try:
            value, _tail = integral_formula(inst["a"], inst["w"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * n * n * 16
        assert frob(value - inst["b_ref"]) <= 1e-6 * (1 + frob(inst["b_ref"]))


class TestUniqueness:
    def test_witness_independence(self, rng):
        for _ in range(10):
            inst = guaranteed_instance(rng, int(rng.integers(1, 8)))
            p_basis = range_of(inst["p"]).basis
            co_q = range_of(inst["q"]).complement().basis
            d = p_basis.shape[1]
            results = []
            for _ in range(2):
                mix = _complex_normal(rng, d, d) + 2 * np.eye(d)
                w = p_basis @ mix @ co_q.conj().T
                results.append(group_formula(inst["a"], w))
            assert frob(results[0] - results[1]) <= 1e-8 * (1 + frob(results[0]))


class TestSpecialCases:
    def test_mp_shift(self):
        # the pseudo-inverse of the shift is its adjoint, [[0,1],[0,0]]
        result = moore_penrose_as_outer(A22)
        assert frob(result.b - B22) <= 1e-12
        assert frob(result.b - moore_penrose(A22)) <= 1e-12

    def test_mp_identity(self):
        assert frob(moore_penrose_as_outer(np.eye(3)).b - np.eye(3)) <= 1e-12

    def test_mp_random(self, rng):
        for _ in range(15):
            a = varied_rank_matrix(rng, int(rng.integers(1, 8)))
            result = moore_penrose_as_outer(a)
            assert frob(result.b - moore_penrose(a)) <= 1e-9

    def test_drazin_idempotent(self):
        idem = np.array([[1, 1], [0, 0]], dtype=complex)
        result = drazin_as_outer(idem)
        assert frob(result.b - idem) <= 1e-12

    def test_drazin_invertible(self, rng):
        a = _complex_normal(rng, 4, 4) + 3 * np.eye(4)
        result = drazin_as_outer(a)
        assert frob(result.b - np.linalg.inv(a)) <= 1e-9 * frob(np.linalg.inv(a))

    def test_drazin_nilpotent(self):
        result = drazin_as_outer(np.array([[0, 1], [0, 0]], dtype=complex))
        assert frob(result.b) == 0.0

    def test_drazin_random_indices(self, rng):
        for _ in range(15):
            inst = varied_index_matrix(rng, int(rng.integers(1, 8)))
            result = drazin_as_outer(inst["a"])
            dz = drazin_inverse(inst["a"])
            assert frob(result.b - dz.inverse) <= 1e-8 * (1 + frob(dz.inverse))
