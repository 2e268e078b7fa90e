"""Polylogarithm routes against each other and against finite-field oracles."""

import math
from fractions import Fraction

import pytest

from polylogp.coleman import (
    PolylogEvaluator,
    XPoint,
    check_corollary,
    check_functional_equation,
    check_g_valuations,
    check_maincong,
    check_prop_reduction,
    default_precision,
    default_riemann_m,
    factorial_valuation,
    sample_w,
    verify_theorem,
)
from polylogp.finite_poly import li_finite
from polylogp.padic_core import UnramifiedCtx, residue, teichmuller
from polylogp.report import sample_zbar, to_json
from polylogp.rng import SplitMix64

from test_power_series import series_derivative, series_mul


def sample_xpoint(ev, rng):
    """A point of the locus: a uniform residue, then a uniform disc coordinate."""
    return ev.xpoint(sample_zbar(ev.ctx, rng), sample_w(ev.ctx, rng))


def xpoint_from_z(ctx, z):
    """Split z into its Teichmuller part alpha and disc coordinate w."""
    zbar = residue(z)
    if zbar.is_zero() or zbar.is_one():
        raise ValueError("residue must avoid 0 and 1 on this locus")
    alpha = teichmuller(ctx, zbar)
    w = (z * alpha.inv() - ctx.one()).shift(-1)
    return XPoint(ctx, z, alpha, w, zbar)


def measure_value(z, a, m):
    """Mass of the cell a + p^m Z_p under the measure attached to z."""
    ctx = z.ctx
    if not 0 <= a < ctx.p**m:
        raise ValueError("cell index out of range")
    if residue(z).is_zero() or residue(z).is_one():
        raise ValueError("measure requires |z| = |z-1| = 1")
    return z**a * (ctx.one() - z ** (ctx.p**m)).inv()


def _evaluator(p, n, k=1):
    ctx = UnramifiedCtx(p, k, default_precision(n))
    return ctx, PolylogEvaluator(ctx, default_riemann_m(n), max_weight=n)


# -- the cell measure -----------------------------------------------------------


def test_measure_total_mass():
    ctx, _ = _evaluator(5, 1)
    z = ctx.from_int(2)
    total = measure_value(z, 0, 0)
    assert total.eq_to_prec((ctx.one() - z).inv())


def test_measure_at_minus_one():
    for p in (5, 7, 11):
        ctx = UnramifiedCtx(p, 1, 4)
        got = measure_value(ctx.from_int(-1), 0, 1)
        assert got.eq_to_prec(ctx.from_int(2).inv())


def test_measure_additivity_over_refinement():
    # distribution property: children of a cell sum to the cell
    ctx, ev = _evaluator(5, 1)
    rng = SplitMix64(77)
    z = sample_xpoint(ev, rng).z
    p = ctx.p
    for m in (0, 1, 2):
        for a in range(p**m):
            parent = measure_value(z, a, m)
            kids = [measure_value(z, a + c * p**m, m + 1) for c in range(p)]
            total = kids[0]
            for kid in kids[1:]:
                total = total + kid
            assert (total - parent).is_zero_to(min(total.abs_prec, parent.abs_prec))


def test_measure_rejects_bad_points():
    ctx = UnramifiedCtx(5, 1, 4)
    with pytest.raises(ValueError):
        measure_value(ctx.one(), 0, 1)  # residue 1 not allowed


# -- the Riemann sum -------------------------------------------------------------


def test_weight_zero_riemann_sum_telescopes_exactly():
    # integrand 1 makes the sum exactly mu(Z_p^x) = z/(1-z) - z^p/(1-z^p);
    # exact-rational oracle at the integer point z = 2
    p, m = 5, 3
    z_int = 2
    total = Fraction(0)
    denom = Fraction(1 - z_int ** (p**m))
    for a in range(1, p**m):
        if a % p:
            total += Fraction(z_int**a) / denom
    expected = Fraction(z_int, 1 - z_int) - Fraction(z_int**p, 1 - z_int**p)
    diff = total - expected
    assert diff == 0

    ctx = UnramifiedCtx(p, 1, default_precision(2))
    ev = PolylogEvaluator(ctx, m, max_weight=2)
    z = ctx.from_int(z_int)
    got = ev.li_p_riemann(z, 0)
    ring_expected = z * (ctx.one() - z).inv() - (z**p) * (ctx.one() - z**p).inv()
    assert (got - ring_expected).is_zero_to(m)


def test_riemann_reduction_mod_p_sampled():
    for p, k in ((5, 1), (7, 2), (11, 1)):
        for n in (1, 2, 3):
            ctx, ev = _evaluator(p, n, k)
            field = ctx.residue_field
            rng = SplitMix64(1000 * p + n)
            for i in range(8):
                x = sample_xpoint(ev, rng.fork(i))
                lip = ev.li_p_riemann(x.z, n)
                lhs = residue(lip)
                rhs = li_finite(n, x.zbar) * (field.one() - x.zbar**p).inverse()
                assert lhs == rhs


def test_riemann_m_consistency():
    ctx, ev = _evaluator(7, 2)
    rng = SplitMix64(4)
    x = sample_xpoint(ev, rng)
    ev_small = PolylogEvaluator(ctx, 2, max_weight=2)
    ev_large = PolylogEvaluator(ctx, 3, max_weight=2)
    for n in (1, 2):
        small = ev_small.li_p_riemann(x.z, n)
        large = ev_large.li_p_riemann(x.z, n)
        assert (small - large).is_zero_to(2)


# -- Teichmuller closed formula ---------------------------------------------------


def test_corollary_reduction_exhaustive_small():
    for p, k in ((5, 1), (7, 1), (5, 2), (7, 2)):
        report = check_corollary(p, k, ns=(1, 2, 3))
        assert report["pass"], (p, k, report["failures"])


def test_even_weight_at_minus_one_gains_a_digit():
    # li_n(-1) = 0 for even n and 1-(-1) = 2 is a unit, so one extra digit
    for p in (5, 7):
        ctx = UnramifiedCtx(p, 1, 7)
        ev = PolylogEvaluator(ctx, 4, max_weight=2)
        alpha = ctx.from_int(-1)
        li2 = ev.li_n_teich(alpha, 2)
        assert li2.valuation_ge(3)


def test_degree_one_orbit_formula_degenerates():
    # k=1: Li_n(alpha) = p^n/(p^n - 1) Li^(p)_n(alpha)
    ctx, ev = _evaluator(7, 2)
    alpha = ev.teich(ctx.residue_field.element(3))
    lin = ev.li_n_teich(alpha, 2)
    lip = ev.li_p_riemann(alpha, 2)
    expected = lip.shift(2) * ctx.from_int(7**2 - 1).inv()
    assert (lin - expected).is_zero_to(min(lin.abs_prec, expected.abs_prec))


# -- the disc series ------------------------------------------------------------------


def test_disc_series_constant_terms():
    ctx, ev = _evaluator(5, 2)
    alpha = ev.teich(ctx.residue_field.element(2))
    g0 = ev.g_series(alpha, 0)
    assert g0.coeffs[0].eq_to_prec(alpha * (ctx.one() - alpha).inv())
    g2 = ev.g_series(alpha, 2)
    assert g2.coeffs[0].eq_to_prec(ev.li_tilde(alpha, 2))


def test_disc_series_derivative_recursion_post_hoc():
    # d/dw g_n * (1+pw) = g_{n-1} up to truncation
    ctx, ev = _evaluator(7, 3)
    alpha = ev.teich(ctx.residue_field.element(4))
    from polylogp.power_series import TruncSeries

    g3, g2 = ev.g_series(alpha, 3), ev.g_series(alpha, 2)
    lin = TruncSeries.from_coeffs(
        ctx, "w", [ctx.one(), ctx.from_int(ctx.p)], order=g3.order, slope=1
    )
    lhs = series_mul(series_derivative(g3), lin)
    for j in range(g3.order - 1):
        assert lhs.coeffs[j].eq_to_prec(g2.coeffs[j]), j


def test_disc_coefficients_reduce_to_scaled_values():
    # coefficient j: Li~_{n-j}(alpha)/j! for j <= n, 0 for n < j < p
    p, n = 7, 2
    ctx, ev = _evaluator(p, n)
    field = ctx.residue_field
    for t in (2, 3, 5):
        alpha = ev.teich(field.from_int(t))
        g = ev.g_series(alpha, n)
        for j in range(min(g.order, p - 1) + 1):
            cbar = residue(g.coeffs[j])
            if j <= n:
                expected = residue(ev.li_tilde(alpha, n - j)) * field.element(
                    math.factorial(j) % p
                ).inverse()
                assert cbar == expected, j
            else:
                assert cbar.is_zero(), j


def test_g_coefficient_valuation_bound():
    for p, n in ((5, 2), (7, 3), (11, 3)):
        report = check_g_valuations(p, n, 1, count=4, seed=9)
        assert report["pass"]


def test_disc_series_tail_soundness_spot_check():
    # extending the truncation must stay within the certified tail bound
    ctx, ev = _evaluator(5, 2)
    alpha = ev.teich(ctx.residue_field.element(3))
    g = PolylogEvaluator(ctx, ev.m, max_weight=2, series_order=12).g_series(alpha, 2)
    g_long = PolylogEvaluator(ctx, ev.m, max_weight=2, series_order=22).g_series(alpha, 2)
    rng = SplitMix64(15)
    for i in range(10):
        w = sample_w(ctx, rng.fork(i))
        tail_v = g.tail_valuation_at(w.min_valuation if not w.is_exact_zero else 0)
        a = g.eval_at(w, target=1)
        b = g_long.eval_at(w, target=1)
        assert (a - b).is_zero_to(min(tail_v, a.abs_prec, b.abs_prec))


# -- point values -----------------------------------------------------------------------


def test_li0_at_minus_one():
    ctx, ev = _evaluator(5, 1)
    x = xpoint_from_z(ctx, ctx.from_int(-1))
    li0 = ev.li_n_at(x, 0)
    expected = ctx.from_rational(Fraction(-1, 2))
    assert (li0 - expected).is_zero_to(4)


def test_li_n_at_teichmuller_point_matches_orbit_formula():
    ctx, ev = _evaluator(7, 2)
    alpha = ev.teich(ctx.residue_field.element(5))
    x = XPoint.from_alpha_w(ctx, alpha, ctx.exact_zero())
    via_series = ev.li_n_at(x, 2)
    via_orbit = ev.li_n_teich(alpha, 2)
    assert (via_series - via_orbit).is_zero_to(
        min(via_series.abs_prec, via_orbit.abs_prec)
    )


def test_log_at_examples():
    ctx, ev = _evaluator(5, 2)
    field = ctx.residue_field
    alpha = ev.teich(field.from_int(3))
    assert ev.log_at(XPoint.from_alpha_w(ctx, alpha, ctx.exact_zero())).is_zero_to(4)
    rng = SplitMix64(8)
    for i in range(10):
        x = sample_xpoint(ev, rng.fork(i))
        lg = ev.log_at(x)
        # p^{-1} log = w mod p
        assert (lg.shift(-1) - x.w).is_zero_to(1)
        # log z + log(1/z) = 0
        inv_lg = ev.log_at(x.inverse_point())
        assert (lg + inv_lg).is_zero_to(min(lg.abs_prec, inv_lg.abs_prec))


def test_big_l_weight_one_is_li_one():
    ctx, ev = _evaluator(7, 1)
    rng = SplitMix64(21)
    x = sample_xpoint(ev, rng)
    l1 = ev.big_l_at(x, 1)
    li1 = ev.li_n_at(x, 1)
    assert (l1 - li1).is_zero_to(min(l1.abs_prec, li1.abs_prec))


def test_big_l_at_teichmuller_is_orbit_value():
    ctx, ev = _evaluator(7, 3)
    alpha = ev.teich(ctx.residue_field.element(2))
    x = XPoint.from_alpha_w(ctx, alpha, ctx.exact_zero())
    lval = ev.big_l_at(x, 3)
    teich_val = ev.li_n_teich(alpha, 3)
    assert (lval - teich_val).is_zero_to(min(lval.abs_prec, teich_val.abs_prec))


def test_df_reduction_at_minus_one():
    # weight 2 at z = -1: the reduction is li_1(p-1), inverse Frobenius trivial
    for p in (7, 11):
        ctx, ev = _evaluator(p, 2)
        x = xpoint_from_z(ctx, ctx.from_int(-1))
        df = ev.df_n_at(x, 2)
        assert df.valuation_ge(1)
        field = ctx.residue_field
        assert residue(df.shift(-1)) == li_finite(1, field.element(p - 1))


def test_theorem_rejects_small_prime():
    with pytest.raises(Exception):
        verify_theorem(5, 4, 1, 5, 0)


def test_big_l_rejects_small_prime():
    ctx, ev = _evaluator(5, 4)
    rng = SplitMix64(2)
    x = sample_xpoint(ev, rng)
    with pytest.raises(ValueError):
        ev.big_l_at(x, 5)


# -- cross-check suite (standard fact, not part of the main congruence gate) ---------


def test_cross_check_li1_is_minus_log_one_minus_z():
    for p, k in ((5, 1), (7, 2)):
        ctx = UnramifiedCtx(p, k, 6)
        ev = PolylogEvaluator(ctx, 5, max_weight=1)
        rng = SplitMix64(p)
        for i in range(10):
            x = sample_xpoint(ev, rng.fork(i))
            one_minus = xpoint_from_z(ctx, ctx.one() - x.z)
            li1 = ev.li_n_at(x, 1)
            neg_log = -ev.log_at(one_minus)
            assert (li1 - neg_log).is_zero_to(
                min(3, li1.abs_prec, neg_log.abs_prec)
            )


# -- drivers: determinism and replay ---------------------------------------------------


def test_report_determinism_byte_identical():
    a = verify_theorem(5, 2, 1, samples=6, seed=123)
    b = verify_theorem(5, 2, 1, samples=6, seed=123)
    assert to_json(a) == to_json(b)


def test_theorem_windependence_recorded():
    report = verify_theorem(5, 2, 1, samples=4, seed=5)
    assert report["wIndependence"]["pass"]
    assert report["wIndependence"]["residue1"] == report["wIndependence"]["residue2"]


def test_replay_reproduces_samples():
    report = verify_theorem(7, 2, 2, samples=5, seed=99)
    replayed = verify_theorem(7, 2, 2, points=report["perSample"])
    for orig, again in zip(report["perSample"], replayed["perSample"]):
        assert orig["zbar"] == again["zbar"]
        assert orig["lhsResidue"] == again["lhsResidue"]
        assert orig["pass"] == again["pass"]


def test_driver_reports_pass_small_cells():
    assert verify_theorem(5, 2, 1, 6, 1)["pass"]
    assert check_prop_reduction(5, 1, 1, 10, 1)["pass"]
    assert check_maincong(5, 2, 2, 8, 1)["pass"]
    assert check_functional_equation(7, 2, 1, 5, 1)["pass"]


def test_factorial_valuation():
    assert factorial_valuation(0, 5) == 0
    assert factorial_valuation(25, 5) == 6
    assert factorial_valuation(10, 3) == 4
