import json

import numpy as np
import pytest

from pqinv.densela import frob
from pqinv.ginv import drazin_inverse
from pqinv.prescribed import PqProblem, outer_inverse
from pqinv.subspace import kernel_of, range_of
from pqinv.verify import (
    _battery_prescribed,
    _run_case,
    diagonalizable_instance,
    fuzz,
    guaranteed_instance,
    random_idempotent,
    run_counterexample_suite,
)

from matrix_generators import varied_index_matrix

EXPECTED_CASES = {
    "statement_products_exact",
    "strict_vs_subspace_gap",
    "direct_sum_without_image_match",
    "image_match_without_strict",
}


class TestCounterexampleSuite:
    def test_all_pass(self):
        report = run_counterexample_suite()
        assert report.ok
        assert report.counts() == {"pass": 4, "fail": 0, "fragile": 0}

    def test_each_case_appears_once(self):
        report = run_counterexample_suite()
        names = [c.name for c in report.cases]
        assert sorted(names) == sorted(EXPECTED_CASES)

    def test_products_case_is_exact(self):
        report = run_counterexample_suite()
        case = {c.name: c for c in report.cases}["statement_products_exact"]
        assert case.residuals["pb_minus_b"] == 0.0
        assert case.residuals["bap_minus_p"] == 0.0
        assert case.residuals["ba_minus_p"] == 1.0


class TestFuzz:
    def test_small_run_is_clean(self):
        report = fuzz(11, 30, 5)
        assert report.counts()["fail"] == 0

    def test_scalar_dimension_is_clean(self):
        # n = 1 degenerates every construction to scalar algebra
        report = fuzz(3, 20, 1)
        assert report.counts()["fail"] == 0

    def test_reproducible(self):
        def stripped(report):
            doc = report.to_json_dict()
            for case in doc["cases"]:
                case.pop("elapsed")
            return json.dumps(doc, sort_keys=True)

        assert stripped(fuzz(11, 20, 6)) == stripped(fuzz(11, 20, 6))

    def test_validation(self):
        with pytest.raises(ValueError):
            fuzz(1, 0, 4)
        with pytest.raises(ValueError):
            fuzz(1, 5, 0)
        with pytest.raises(ValueError):
            fuzz(1, 5, 64)

    def test_svd_count(self, count_linalg):
        # Ran(p), Ran(q) and the complement of Ran(q) once per problem, and
        # one SVD for the range and kernel of each generated or classical
        # matrix; the Drazin inverse takes one SVD of an invertible a and four
        # at index one; at n <= 8 no idempotent is sketched, so no QR is counted
        def run():
            assert fuzz(42, 20, 8).counts()["fail"] == 0

        assert count_linalg(run, ("svd", "qr")) == {"svd": 847, "qr": 0}

    def test_battery_routes_go_through_the_compute_dispatch(self, monkeypatch):
        # trial 0 carries an oracle and runs the integral route
        from pqinv import verify

        routes = []
        dispatch = verify._route_result

        def recording(prob, w, b_group, route):
            routes.append(route)
            return dispatch(prob, w, b_group, route)

        monkeypatch.setattr(verify, "_route_result", recording)
        assert fuzz(42, 1, 8).counts()["fail"] == 0
        assert routes == ["inner", "limit", "integral"]

    def test_report_json_shape(self):
        doc = fuzz(3, 4, 3).to_json_dict()
        assert doc["seed"] == 3
        assert doc["trials"] == 4
        assert set(doc["summary"]) == {"pass", "fail", "fragile"}
        assert doc["tolerances"]["rank_rtol"] == 1e-10
        assert [c["name"] for c in doc["cases"]] == sorted(c["name"] for c in doc["cases"])


def _raises(rec):
    raise RuntimeError("boom")


class TestRunCase:
    @pytest.mark.parametrize("fn, detail", [
        (_raises, "exception: RuntimeError: boom"),
        (lambda rec: rec.check("gap", 2.0, 1.0), "gap: 2.000e+00 > 1.000e+00"),
        (lambda rec: rec.check("gap", float("nan"), 1.0), "gap: nan > 1.000e+00"),
        # a failure outranks a fragile (truthy) return
        (lambda rec: rec.expect("ranges match", False) or True, "ranges match"),
    ], ids=["exception", "bound", "nan", "expectation"])
    def test_failure_is_fail_with_detail(self, fn, detail):
        doc = _run_case("case", fn).to_json_dict()
        assert (doc["status"], doc["detail"]) == ("fail", detail)

    def test_truthy_return_is_fragile(self):
        case = _run_case("case", lambda rec: rec.check("gap", 0.5, 1.0) or 1)
        assert (case.status, case.residuals) == ("fragile", {"gap": 0.5})
        assert "detail" not in case.to_json_dict()

    @pytest.mark.parametrize("values", [(1e-3, float("nan")), (float("nan"), 1e-3)],
                             ids=["nan-last", "nan-first"])
    def test_a_nan_is_the_reported_residual_in_either_order(self, values):
        def checks(rec):
            for value in values:
                rec.check("gap", value, 1.0)

        case = _run_case("case", checks)
        assert case.status == "fail"
        assert list(case.residuals) == ["gap"] and np.isnan(case.residuals["gap"])

    def test_fragile_diagnosis_ends_the_battery(self):
        # the knife edge: p's second singular value sits inside the fragility band
        prob = PqProblem(np.eye(3), np.diag([1.0, 3e-10, 0.0]), np.diag([0.0, 0.0, 1.0]))
        case = _run_case("case", lambda rec: _battery_prescribed(rec, None, prob, None, False))
        assert (case.status, case.residuals) == ("fragile", {})
        assert "detail" not in case.to_json_dict()


class TestGenerators:
    def test_random_idempotent_is_idempotent(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 9))
            p = random_idempotent(rng, n)
            assert frob(p @ p - p) <= 1e-9 * (1 + frob(p))

    def test_guaranteed_instance_oracle_is_the_inverse(self, rng):
        for _ in range(10):
            inst = guaranteed_instance(rng, int(rng.integers(1, 8)))
            a, b = inst["a"], inst["b_ref"]
            assert frob(b @ a @ b - b) <= 1e-8 * (1 + frob(b))
            computed = outer_inverse(PqProblem(inst["a"], inst["p"], inst["q"]))
            assert frob(computed.b - b) <= 1e-7 * (1 + frob(b))

    def test_diagonalizable_instance_consistency(self, rng):
        inst = diagonalizable_instance(rng, 6)
        a, w, b = inst["a"], inst["w"], inst["b_ref"]
        assert frob(a @ w - w @ a) <= 1e-9 * (1 + frob(a))
        assert frob(b @ a @ b - b) <= 1e-9 * (1 + frob(b))
        assert inst["alpha"] >= 0.4

    def test_diagonalizable_instance_at_rank_zero(self):
        # no core: a, w and b_ref are 0, p = 0, q = 1, and no eigenvalue
        # bounds the decay rate
        inst = diagonalizable_instance(np.random.default_rng(0), 5, r=0)
        assert inst["alpha"] == np.inf
        assert not (inst["a"].any() or inst["w"].any() or inst["b_ref"].any() or inst["p"].any())
        assert np.array_equal(inst["q"], np.eye(5))

    @pytest.mark.parametrize("k", [0, 4])
    def test_random_idempotent_at_the_end_ranks(self, k):
        p = random_idempotent(np.random.default_rng(0), 4, k)
        assert frob(p @ p - p) <= 1e-9 * (1 + frob(p))
        assert abs(np.trace(p) - k) <= 1e-9

    @pytest.mark.parametrize("call, message", [
        (lambda rng: diagonalizable_instance(rng, 4, r=5), "r must lie in [0, 4], got 5"),
        (lambda rng: diagonalizable_instance(rng, 4, r=-1), "r must lie in [0, 4], got -1"),
        (lambda rng: random_idempotent(rng, 4, 5), "k must lie in [0, 4], got 5"),
        (lambda rng: random_idempotent(rng, 4, -1), "k must lie in [0, 4], got -1"),
    ], ids=["r_above_n", "r_negative", "k_above_n", "k_negative"])
    def test_rank_outside_zero_to_n_is_refused_before_any_draw(self, call, message):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError) as info:
            call(rng)
        assert (str(info.value), rng.bit_generator.state) == (message, state)

    def test_varied_index_matches_drazin(self, rng):
        for _ in range(10):
            inst = varied_index_matrix(rng, int(rng.integers(1, 8)))
            result = drazin_inverse(inst["a"])
            assert result.index == inst["index"]
            assert frob(result.inverse - inst["d_ref"]) <= 1e-8 * (1 + frob(inst["d_ref"]))

    @pytest.mark.parametrize("generator, n", [(diagonalizable_instance, 64),
                                              (guaranteed_instance, 16)])
    def test_projectors_are_those_of_w(self, generator, n):
        # the benchmark draws its inputs from these generators: p and q must
        # stay bit-identical to the projectors onto Ran(w) and Ker(w)
        for seed in range(4):
            inst = generator(np.random.default_rng(seed), n)
            assert inst["r"] > 0
            assert np.array_equal(inst["p"], range_of(inst["w"]).projector())
            assert np.array_equal(inst["q"], kernel_of(inst["w"]).projector())
