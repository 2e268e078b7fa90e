"""Exact rational coefficient systems: solved, perturbed, cross-validated."""

from fractions import Fraction

import pytest

from polylogp.identities import (
    SingularSystemError,
    a_coeffs,
    c_sum,
    conds_nullity,
    conds_residuals,
    d_sum,
    e_coeffs,
    gen_function_check,
    identities_report,
    perturbation_detected,
    rank_exact,
    solve_conds,
    solve_exact,
)


def test_closed_form_frozen_values():
    assert a_coeffs(2) == [Fraction(-2), Fraction(1)]
    assert a_coeffs(3) == [Fraction(-3), Fraction(2), Fraction(-1, 2)]


def test_a_coeffs_returns_a_fresh_list():
    # the weights are computed once per weight; a caller's edit must not reach them
    first = a_coeffs(3)
    first[0] = Fraction(99)
    first.append(Fraction(1))
    assert a_coeffs(3) == [Fraction(-3), Fraction(2), Fraction(-1, 2)]
    assert a_coeffs(3) is not a_coeffs(3)


def test_solve_conds_hand_solvable_case():
    # n=2: normalization a0 + a1 = -1 and the single condition (a0+a1) + a1 = 0
    assert solve_conds(2) == [Fraction(-2), Fraction(1)]


def test_solve_matches_closed_form_up_to_12():
    for n in range(2, 13):
        assert solve_conds(n) == a_coeffs(n), n


def test_closed_form_satisfies_conditions_exactly():
    for n in range(2, 13):
        assert all(r == 0 for r in conds_residuals(n, a_coeffs(n)))


def test_homogeneous_nullity_is_one():
    for n in range(2, 13):
        assert conds_nullity(n) == 1, n


def test_single_coefficient_perturbations_are_detected():
    for n in range(2, 13):
        assert perturbation_detected(n), n


def test_generating_function_expansion():
    # spot value: coefficient of t^2 at n=3 is 1 - n/2 = -1/2
    a = a_coeffs(3)
    assert a[2] == Fraction(-1, 2)
    for n in range(2, 13):
        assert gen_function_check(n).passed, n


def test_binomial_constant_sums():
    assert c_sum(2) == Fraction(1, 3)
    assert d_sum(2) == 1
    for n in range(1, 21):
        assert c_sum(n) == Fraction(1, n + 1)
        assert d_sum(n) == 1
    assert d_sum(0) == 0  # boundary: the d identity starts at n = 1


def test_e_coeffs_shape():
    assert e_coeffs(2) == [Fraction(0), Fraction(-1), Fraction(-2)]
    e5 = e_coeffs(5)
    assert e5[5] == -5 and e5[4] == -1
    assert all(e5[i] == 0 for i in range(4))


def test_solver_rejects_singular_systems():
    with pytest.raises(SingularSystemError):
        solve_exact([[1, 1], [2, 2]], [1, 2])


def test_rank_exact_on_rationals():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]]
    assert rank_exact(m) == 1


def test_identities_report_passes():
    report = identities_report(nmax=12)
    assert report["pass"]
    assert report["failures"] == 0
