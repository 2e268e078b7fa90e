"""Acceptance gate: every criterion at its stated matrix and tolerance.

All congruence tolerances are exact equalities in finite rings; the series
comparisons require at least 3 certified digits as stated.  One line is
printed per criterion.

Criterion 12 is implemented exactly as stated.  Its k=2 cells FAIL because
the stated identity is not one on proper extensions (see notes on the
Frobenius-corrected form, which is also checked here and passes everywhere);
the failure is reported honestly rather than patched over.
"""

from fractions import Fraction

import pytest

from polylogp import matrix
from polylogp.coleman import verify_theorem
from polylogp.finite_poly import (
    FiniteField,
    check_inversion_identity,
    check_inversion_identity_frobenius,
)
from polylogp.identities import a_coeffs, c_sum, conds_nullity, d_sum, \
    perturbation_detected, solve_conds
from polylogp.padic_core import UnramifiedCtx
from polylogp.power_series import TruncSeries
from polylogp.report import to_json
from polylogp.rng import SplitMix64

SEED = matrix.DEFAULT_SEED


def cells(name: str, *keys: str) -> list:
    """The full-matrix cells of a check in the check table, as key tuples."""
    return [tuple(cell[key] for key in keys) for cell in matrix.CHECKS[name].full]


def full_reports(name: str) -> dict:
    """The reports of a check's full-matrix cells, keyed by the cell's
    values, each run as the matrix runs it: the cell and the matrix seed."""
    spec = matrix.CHECKS[name]
    seed = {"seed": SEED} if "seed" in spec.knobs else {}
    return {tuple(cell.values()): spec.run(**cell, **seed) for cell in spec.full}


def failing_cells(name: str) -> list:
    return [cell for cell, rep in full_reports(name).items() if not rep["pass"]]


def inversion_cells() -> list:
    return [(p, k, n) for p, k, ns in cells("inversion", "p", "k", "ns") for n in ns]


def _line(num: int, ok: bool, desc: str) -> bool:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


@pytest.fixture(scope="module")
def theorem_reports():
    return full_reports("theorem")


def test_criterion_01_theorem_valuation(theorem_reports):
    bad = [
        (cell, rec["index"])
        for cell, rep in theorem_reports.items()
        for rec in rep["perSample"]
        if not rec.get("valuationOk")
    ]
    ok = _line(1, not bad, "v_p(DF_n) >= n-1 over the full (p,n,k) matrix")
    assert ok, bad


def test_criterion_02_theorem_reduction(theorem_reports):
    bad = [
        (cell, rec["index"])
        for cell, rep in theorem_reports.items()
        for rec in rep["perSample"]
        if rec.get("lhsResidue") != rec.get("rhsResidue")
    ]
    windep = all(rep["wIndependence"]["pass"] for rep in theorem_reports.values())
    ok = _line(2, not bad and windep,
               "p^{1-n} DF_n mod p equals the finite-side value on 100% of samples")
    assert ok, bad


def test_criterion_03_uniqueness():
    ok = True
    for n in range(2, 13):
        ok = ok and solve_conds(n) == a_coeffs(n)
        ok = ok and conds_nullity(n) == 1
        ok = ok and perturbation_detected(n)
    ok = _line(3, ok, "coefficient system: unique solution = closed form, "
                      "nullity 1, perturbations detected (n <= 12)")
    assert ok


def test_criterion_04_proposition_reduction():
    failures = failing_cells("proposition1")
    ok = _line(4, not failures,
               "Riemann sums reduce to li_n(zbar)/(1-zbar^p) on every sample")
    assert ok, failures


def test_criterion_05_corollary_exhaustive():
    failures = failing_cells("corollary")
    ok = _line(5, not failures,
               "root-of-unity values: valuation >= n and mod-p formula, "
               "exhaustive for p^k <= 49")
    assert ok, failures


def test_criterion_06_disc_congruence():
    failures = failing_cells("maincong")
    ok = _line(6, not failures, "disc expansion mod p on every seeded pair")
    assert ok, failures


def test_criterion_07_series_valuation_lemma():
    failures = failing_cells("g-valuation")
    ok = _line(7, not failures,
               "every stored disc coefficient has v_p >= j - n - v_p(j!)")
    assert ok, failures


def test_criterion_08_functional_equation():
    failures = failing_cells("funceq")
    ok = _line(8, not failures,
               "F_n(z) + (-1)^n F_n(1/z) = 0 and the L-route identity, "
               ">= 3 certified digits on every sample")
    assert ok, failures


def test_criterion_09_difference_formula():
    failures = failing_cells("delprop")
    ok = _line(9, not failures,
               "two-point difference formula to >= 3 certified digits "
               "(includes the exact weight-0 case)")
    assert ok, failures


def test_criterion_10_iterated_integral_lemmas():
    failures = failing_cells("f-lemmas")
    ok = _line(10, not failures,
               "p^{-n} f_n congruence and v_p(Df_k) >= k on the same matrix")
    assert ok, failures


def test_criterion_11_constants_and_route_agreement():
    ok = all(c_sum(n) == Fraction(1, n + 1) and d_sum(n) == 1 for n in range(1, 21))
    failures = failing_cells("e-recover")
    ok = ok and not failures
    ok = _line(11, ok, "binomial constants exact for n <= 20; "
                       "simplified-weight route equals the closed form")
    assert ok, failures


def test_criterion_12_inversion_identity_as_stated():
    # Stated form z*li_{n-1}(1/z) + (-1)^n*li_{n-1}(z) = 0 over F_{p^k}^x.
    # Holds for k=1; FALSE for k=2 (spec defect; z in F_25 with z^3 = 1 is a
    # counterexample).  The Frobenius-corrected z^p form passes everywhere.
    stated_failures = []
    corrected_ok = True
    for (p, k, n) in inversion_cells():
        field = FiniteField(p, k)
        if not check_inversion_identity(n, field).passed:
            stated_failures.append((p, k, n))
        corrected_ok = corrected_ok and check_inversion_identity_frobenius(
            n, field
        ).passed
    ok = _line(12, not stated_failures,
               "inversion identity as stated, exhaustive over F_{p^k}^x "
               f"(corrected z^p form passes everywhere: {corrected_ok})")
    assert corrected_ok
    assert ok, (
        "the stated identity fails on every proper extension cell "
        f"{stated_failures}; it is not an identity over F_(p^k) for k >= 2 "
        "(exact counterexample: p=5, k=2, n=2, z a cube root of unity). "
        "The Frobenius-corrected form z^p*li(1/z) + (-1)^n*li(z) = 0 passes "
        "the entire matrix. See the project notes for the derivation."
    )


def test_criterion_13_infrastructure():
    # randomized arithmetic against independent exact-integer oracles
    ctx = UnramifiedCtx(7, 2, 5)
    pA = ctx.pA
    rng = SplitMix64(5150)
    arith_cases = 0
    while arith_cases < 1000:
        va = tuple(rng.below(pA) for _ in range(2))
        vb = tuple(rng.below(pA) for _ in range(2))
        if all(c % 7 == 0 for c in va) or all(c % 7 == 0 for c in vb):
            continue
        arith_cases += 1
        a, b = ctx.from_vec(va), ctx.from_vec(vb)
        h0, h1 = ctx.hbar[0], ctx.hbar[1]
        t = va[1] * vb[1] % pA
        oracle_mul = (
            (va[0] * vb[0] - t * h0) % pA,
            (va[0] * vb[1] + va[1] * vb[0] - t * h1) % pA,
        )
        assert ((a * b) - ctx.from_vec(oracle_mul)).valuation_ge(5)
        oracle_add = tuple((x + y) % pA for x, y in zip(va, vb))
        assert ((a + b) - ctx.from_vec(oracle_add)).valuation_ge(5)

    # series operations against plain integer recurrences: division by
    # (1 - r*w) is h_j = x_j + r*h_{j-1}, integration divides x_{j-1} by j
    ctx1 = UnramifiedCtx(5, 1, 5)
    p5 = ctx1.pA
    series_cases = 0
    while series_cases < 1000:
        xs = [rng.below(p5) for _ in range(5)]
        r = rng.below(p5)
        s = TruncSeries.from_coeffs(ctx1, "w", [ctx1.from_int(c) for c in xs])
        quot = s.over_linear(ctx1.from_int(r))
        h = 0
        for j in range(5):
            h = (xs[j] + r * h) % p5
            assert (quot.coeffs[j] - ctx1.from_int(h)).valuation_ge(5)
            series_cases += 1
        integral = s.integrate(Fraction(-1, 4), 0)  # v_5(x_{j-1}/j) >= -j/4
        assert integral.coeffs[0].exact
        for j in range(1, 5):
            expected = xs[j - 1] * pow(j, -1, p5) % p5
            assert (integral.coeffs[j] - ctx1.from_int(expected)).valuation_ge(5)

    # determinism: identical seeds give byte-identical reports
    rep_a = verify_theorem(5, 2, 1, samples=5, seed=77)
    rep_b = verify_theorem(5, 2, 1, samples=5, seed=77)
    deterministic = to_json(rep_a) == to_json(rep_b)

    ok = _line(13, deterministic,
               ">= 1000 randomized oracle cases each for ring and series "
               "arithmetic; seeded reports byte-identical")
    assert ok
