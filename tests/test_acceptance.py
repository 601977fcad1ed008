"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

import time

import numpy as np
import pytest

from pqinv.densela import frob, rank
from pqinv.errors import NonexistentInverseError, SpectrumError
from pqinv.ginv import drazin_inverse, group_inverse, moore_penrose
from pqinv.prescribed import (
    PqProblem,
    diagnose,
    drazin_as_outer,
    group_formula,
    inner_formula,
    integral_formula,
    limit_formula,
    moore_penrose_as_outer,
    outer_inverse,
    outer_inverse_strict,
)
from pqinv.subspace import range_of
from pqinv.verify import (
    diagonalizable_instance,
    fuzz,
    guaranteed_instance,
    random_idempotent,
)

from matrix_generators import varied_index_matrix, varied_rank_matrix

A22 = np.array([[0, 0], [1, 0]], dtype=complex)
P22 = np.array([[1, 1], [0, 0]], dtype=complex)
ONE_MQ22 = np.array([[0, 1], [0, 1]], dtype=complex)
B22 = np.array([[0, 1], [0, 0]], dtype=complex)


def _verdict(number: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status} {name} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def _warmup():
    np.linalg.svd(np.eye(2, dtype=complex))


@pytest.mark.acceptance
def test_criterion_1_counterexample_reproduction():
    _warmup()
    start = time.perf_counter()
    q = np.eye(2) - ONE_MQ22
    prob = PqProblem(A22, P22, q)

    products_exact = (
        frob(P22 @ B22 - B22) == 0.0
        and frob(B22 @ A22 @ P22 - P22) == 0.0
        and frob(B22 @ ONE_MQ22 - B22) == 0.0
        and frob(ONE_MQ22 @ A22 @ B22 - ONE_MQ22) == 0.0
    )
    ba = B22 @ A22
    ba_separates = frob(ba - np.diag([1.0, 0.0])) == 0.0 and frob(ba - P22) == 1.0

    rep = diagnose(prob)
    strict_gone = not rep.strict_exists
    try:
        outer_inverse_strict(prob)
        raised = False
    except NonexistentInverseError:
        raised = True

    result = outer_inverse(prob)
    value_ok = frob(result.b - B22) <= 1e-12
    residuals_ok = all(
        result.residuals[key] <= 1e-12
        for key in ("outer", "range_gap", "kernel_gap", "fix_left", "gen_left",
                    "fix_right", "gen_right")
    )
    elapsed = time.perf_counter() - start

    ok = (products_exact and ba_separates and strict_gone and raised
          and value_ok and residuals_ok and elapsed < 0.1)
    _verdict(1, "counterexample reproduction", ok, f"runtime {elapsed:.3f}s")


@pytest.mark.acceptance
def test_criterion_2_one_way_implications():
    _warmup()
    start = time.perf_counter()
    rep_a = diagnose(PqProblem(A22, P22, np.eye(2) - ONE_MQ22))
    separation_3_not_4 = rep_a.direct_sum and not rep_a.image_match

    rep_b = diagnose(PqProblem(A22, P22, np.eye(2) - np.diag([0.0, 1.0])))
    separation_4_not_1 = rep_b.image_match and not rep_b.strict_exists
    elapsed = time.perf_counter() - start

    ok = separation_3_not_4 and separation_4_not_1 and elapsed < 0.1
    _verdict(2, "one-way implication witnesses", ok, f"runtime {elapsed:.3f}s")


@pytest.mark.acceptance
def test_criterion_3_six_condition_equivalence():
    start = time.perf_counter()
    report = fuzz(42, 500, 8)
    elapsed = time.perf_counter() - start
    counts = report.counts()
    ok = counts["fail"] == 0 and elapsed < 30.0
    _verdict(
        3,
        "six-condition equivalence over 500 trials",
        ok,
        f"{counts} in {elapsed:.1f}s",
    )


@pytest.mark.acceptance
def test_criterion_4_four_route_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(4242)
    worst = 0.0
    instances = 0
    while instances < 200:
        n = int(rng.integers(2, 9))
        inst = diagonalizable_instance(rng, n)
        a, w = inst["a"], inst["w"]
        values = [group_formula(a, w), inner_formula(a, w)]
        values.append(limit_formula(a, w)[0])
        try:
            values.append(integral_formula(a, w)[0])
        except SpectrumError:
            pass  # the spectrum of a w does not admit the integral route
        scale = 1.0 + frob(values[0])
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                worst = max(worst, frob(values[i] - values[j]) / scale)
        instances += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    _verdict(4, "four-route agreement", ok, f"max deviation {worst:.2e} in {elapsed:.1f}s")


@pytest.mark.acceptance
def test_criterion_5_witness_independence():
    rng = np.random.default_rng(555)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        inst = guaranteed_instance(rng, n)
        p_basis = range_of(inst["p"]).basis
        co_q = range_of(inst["q"]).complement().basis
        d = p_basis.shape[1]
        values = []
        for _ in range(2):
            mix = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                   + 2 * np.eye(d))
            values.append(group_formula(inst["a"], p_basis @ mix @ co_q.conj().T))
        worst = max(worst, frob(values[0] - values[1]) / (1.0 + frob(values[0])))
    ok = worst <= 1e-8
    _verdict(5, "witness independence", ok, f"max deviation {worst:.2e}")


@pytest.mark.acceptance
def test_criterion_6_special_case_recovery():
    rng = np.random.default_rng(66)
    worst_mp = 0.0
    for _ in range(100):
        a = varied_rank_matrix(rng, int(rng.integers(1, 9)))
        result = moore_penrose_as_outer(a)
        worst_mp = max(worst_mp, frob(result.b - moore_penrose(a)))
    worst_dz = 0.0
    for _ in range(100):
        inst = varied_index_matrix(rng, int(rng.integers(1, 9)))
        result = drazin_as_outer(inst["a"])
        worst_dz = max(worst_dz, frob(result.b - drazin_inverse(inst["a"]).inverse))
    ok = worst_mp <= 1e-9 and worst_dz <= 1e-8
    _verdict(
        6,
        "pseudo-inverse and index-aware special cases",
        ok,
        f"mp {worst_mp:.2e}, drazin {worst_dz:.2e}",
    )


@pytest.mark.acceptance
def test_criterion_7_limit_rate():
    rng = np.random.default_rng(77)
    shifts = [1e-2 / 2 ** k for k in range(14)]  # spans 1e-2 down past 1e-6
    lo, hi = np.inf, 0.0
    for _ in range(10):
        inst = diagonalizable_instance(rng, int(rng.integers(2, 9)))
        a, w, b_ref = inst["a"], inst["w"], inst["b_ref"]
        errors = []
        for s in shifts:
            value, _ = limit_formula(a, w, [s * 4, s * 2, s])
            errors.append(frob(value - b_ref))
        for first, second in zip(errors, errors[1:]):
            ratio = first / second
            lo, hi = min(lo, ratio), max(hi, ratio)
    ok = lo >= 1.6 and hi <= 2.4
    _verdict(7, "limit-route error halves with the shift", ok,
             f"ratios in [{lo:.2f}, {hi:.2f}]")


@pytest.mark.acceptance
def test_criterion_8_classical_inverse_axioms():
    rng = np.random.default_rng(88)
    worst_penrose = 0.0
    worst_drazin = 0.0
    verdicts_agree = True
    for i in range(500):
        n = int(rng.integers(1, 9))
        style = i % 4
        nilpotent_index = None
        if style == 0:
            a = varied_rank_matrix(rng, n)  # ranks varied, conditioning capped
        elif style == 1:
            a = varied_index_matrix(rng, n)["a"]  # indices varied
        elif style == 2:
            forced = varied_index_matrix(rng, n, core=0)  # forced nilpotent
            a = forced["a"]
            nilpotent_index = forced["index"]
        else:
            a = random_idempotent(rng, n)

        pinv = moore_penrose(a)
        scale = 1.0 + frob(a)
        worst_penrose = max(
            worst_penrose,
            frob(a @ pinv @ a - a) / scale,
            frob(pinv @ a @ pinv - pinv) / scale,
            frob((a @ pinv).conj().T - a @ pinv) / scale,
            frob((pinv @ a).conj().T - pinv @ a) / scale,
        )

        dz = drazin_inverse(a)
        d = dz.inverse
        power = np.linalg.matrix_power(a, dz.index)
        worst_drazin = max(
            worst_drazin,
            frob(d @ a @ d - d),
            frob(a @ d - d @ a),
            frob(power @ a @ d - power),
        )

        g = group_inverse(a)
        if (g is not None) != (rank(a) == rank(a @ a)):
            verdicts_agree = False
        if nilpotent_index is not None and nilpotent_index >= 2 and g is not None:
            verdicts_agree = False  # a genuinely nilpotent part kills the group inverse

    penrose_ok = worst_penrose <= 1e-10  # residuals measured against 1 + |a|_F
    drazin_ok = worst_drazin <= 1e-9
    ok = penrose_ok and drazin_ok and verdicts_agree
    _verdict(
        8,
        "classical inverse axioms and verdicts",
        ok,
        f"penrose {worst_penrose:.2e} (scaled), drazin {worst_drazin:.2e}, "
        f"group verdicts {'agree' if verdicts_agree else 'disagree'}",
    )
