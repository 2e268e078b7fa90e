"""Polylogarithm routes against each other and against finite-field oracles."""

import math
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylogp import coleman, finite_poly, padic_core, section3
from polylogp.matrix import CHECKS, run_matrix
from polylogp.power_series import TruncSeries
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
    log_sum,
    sample_w,
    verify_theorem,
)
from polylogp.finite_poly import li_finite
from polylogp.padic_core import PrecisionError, UnramifiedCtx, padic_log, residue, teichmuller
from polylogp.report import sample_zbar, to_json
from polylogp.rng import SplitMix64

from test_padic_core import count_values, oracle_padic_log
from test_power_series import _fields, interval_values, series_derivative, series_mul


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
            assert (total - parent).valuation_ge(min(total.abs_prec, parent.abs_prec))


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
    assert (got - ring_expected).valuation_ge(m)


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
        assert (small - large).valuation_ge(2)


# -- Teichmuller closed formula ---------------------------------------------------


def test_corollary_reduction_exhaustive_small():
    for p, k in ((5, 1), (7, 1), (5, 2), (7, 2)):
        report = check_corollary(p, k, ns=(1, 2, 3))
        assert report["pass"], (p, k, report["failures"])


def test_corollary_on_f3_checks_its_one_residue():
    # q - 1 = 2: the walk is 1, 2 and the only residue other than 0, 1 is 2
    report = check_corollary(3, 1, ns=(1, 2))
    assert report["pass"]
    assert [(r["alphabar"], r["n"]) for r in report["perSample"]] == [([2], 1), ([2], 2)]


# poly_mul calls of a warm check_corollary(5, k=3, ns=(2,)): 931 with the
# p-th powers of each measure sum at a root of unity taken by the Frobenius
# and only the weight read summed; 1,444 with one
# orbit sum per Frobenius orbit and the finite side read off the unit walk;
# 2,016 with an orbit sum and a li_finite per record, and 2,385 with an
# inverse of 1 - alphabar per record as well; 4,705 with a measure sum at
# every point of the orbit, the lifts walked as powers of one lift and the
# orbit stepped by the Witt Frobenius; 8,984 with a lift per residue and the
# orbit by x -> x^p, 18,834 with x^(q-2), sigma as a power and A-step lifts.
# About 10% headroom.
COROLLARY_POLY_MUL_BOUND = 1_024


def test_corollary_ring_work_is_bounded(monkeypatch):
    # a deterministic count, not a timing; the first run fills the caches
    check_corollary(5, 3, ns=(2,))
    calls = []
    poly_mul = finite_poly.poly_mul

    def counted(a, b, h, pm):
        calls.append(pm)
        return poly_mul(a, b, h, pm)

    for module in (finite_poly, padic_core, coleman):
        monkeypatch.setattr(module, "poly_mul", counted)
    assert check_corollary(5, 3, ns=(2,))["pass"]
    assert len(calls) <= COROLLARY_POLY_MUL_BOUND, len(calls)


@pytest.mark.parametrize("p, k", [(5, 1), (7, 2), (3, 3), (5, 3)])
def test_corollary_reads_its_inverses_off_the_unit_walk(monkeypatch, p, k):
    # 1/(1 - alphabar) is g^{q-1-i} for 1 - alphabar = g^i; a wrong power of
    # the walk would fail the records
    calls = []
    inverse = finite_poly.FpkElement.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(finite_poly.FpkElement, "inverse", counted)
    assert check_corollary(p, k, ns=(1, 2))["pass"]
    assert calls == []


# (eval_at, padic_log) calls over the full cells of each check: funceq made
# (1,680, 800) and e-recover (210, 120) before the evaluator memoized li_n_at
# and log_at, and delprop (520, 220)
EVALUATIONS_PER_CHECK = {"funceq": (920, 320), "e-recover": (80, 30), "delprop": (520, 110)}


@pytest.mark.parametrize("name", sorted(EVALUATIONS_PER_CHECK))
def test_each_series_and_point_pair_is_evaluated_once(monkeypatch, name):
    # a deterministic count, not a timing
    calls = {"eval_at": 0, "padic_log": 0}
    eval_at, padic_log = TruncSeries.eval_at, coleman.padic_log

    def counted_eval(self, w, target):
        calls["eval_at"] += 1
        return eval_at(self, w, target)

    def counted_log(u):
        calls["padic_log"] += 1
        return padic_log(u)

    monkeypatch.setattr(TruncSeries, "eval_at", counted_eval)
    monkeypatch.setattr(coleman, "padic_log", counted_log)
    spec = CHECKS[name]
    for cell in spec.full:
        assert spec.run(**cell)["pass"], cell
    assert (calls["eval_at"], calls["padic_log"]) == EVALUATIONS_PER_CHECK[name]


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
    assert (lin - expected).valuation_ge(min(lin.abs_prec, expected.abs_prec))


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
        tail_v = g.tail_valuation_at(w.min_valuation if not w.exact else 0)
        a = g.eval_at(w, target=1)
        b = g_long.eval_at(w, target=1)
        assert (a - b).valuation_ge(min(tail_v, a.abs_prec, b.abs_prec))


# -- point values -----------------------------------------------------------------------


def test_li0_at_minus_one():
    ctx, ev = _evaluator(5, 1)
    x = xpoint_from_z(ctx, ctx.from_int(-1))
    li0 = ev.li_n_at(x, 0)
    expected = ctx.from_rational(Fraction(-1, 2))
    assert (li0 - expected).valuation_ge(4)


def test_li_n_at_teichmuller_point_matches_orbit_formula():
    ctx, ev = _evaluator(7, 2)
    alpha = ev.teich(ctx.residue_field.element(5))
    x = XPoint.from_alpha_w(ctx, alpha, ctx.exact_zero())
    via_series = ev.li_n_at(x, 2)
    via_orbit = ev.li_n_teich(alpha, 2)
    assert (via_series - via_orbit).valuation_ge(
        min(via_series.abs_prec, via_orbit.abs_prec)
    )


def test_log_at_examples():
    ctx, ev = _evaluator(5, 2)
    field = ctx.residue_field
    alpha = ev.teich(field.from_int(3))
    assert ev.log_at(XPoint.from_alpha_w(ctx, alpha, ctx.exact_zero())).valuation_ge(4)
    rng = SplitMix64(8)
    for i in range(10):
        x = sample_xpoint(ev, rng.fork(i))
        lg = ev.log_at(x)
        # p^{-1} log = w mod p
        assert (lg.shift(-1) - x.w).valuation_ge(1)
        # log z + log(1/z) = 0
        inv_lg = ev.log_at(x.inverse_point())
        assert (lg + inv_lg).valuation_ge(min(lg.abs_prec, inv_lg.abs_prec))


def test_big_l_weight_one_is_li_one():
    ctx, ev = _evaluator(7, 1)
    rng = SplitMix64(21)
    x = sample_xpoint(ev, rng)
    l1 = ev.big_l_at(x, 1)
    li1 = ev.li_n_at(x, 1)
    assert (l1 - li1).valuation_ge(min(l1.abs_prec, li1.abs_prec))


def test_big_l_at_teichmuller_is_orbit_value():
    ctx, ev = _evaluator(7, 3)
    alpha = ev.teich(ctx.residue_field.element(2))
    x = XPoint.from_alpha_w(ctx, alpha, ctx.exact_zero())
    lval = ev.big_l_at(x, 3)
    teich_val = ev.li_n_teich(alpha, 3)
    assert (lval - teich_val).valuation_ge(min(lval.abs_prec, teich_val.abs_prec))


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


# -- the log-weighted sum ---------------------------------------------------------------
#
# ``log_sum`` replaced three loops: the evaluator's L_n/F_n/D F_n combination,
# delprop's descending sum over f-values and e-recover's sum of L-values
# against logz ** (n - m).  Each is kept here as an oracle, term by term as it
# was written; weights[j] sits on log^j(z) and values[j].


def loop_log_combination(ctx, logz, weights, values):
    acc = ctx.exact_zero()
    logpow = ctx.one()
    for k, c in enumerate(weights):
        acc = acc + ctx.from_rational(c) * logpow * values[k]
        logpow = logpow * logz
    return acc


def loop_descending(ctx, logz, weights, values):
    # delprop's integer weights went through from_int
    n = len(weights) - 1
    acc = ctx.exact_zero()
    logpow = ctx.one()
    for kk in range(n, -1, -1):
        c = weights[n - kk]
        scalar = ctx.from_int(int(c)) if c.denominator == 1 else ctx.from_rational(c)
        acc = acc + scalar * values[n - kk] * logpow
        logpow = logpow * logz
    return acc


def loop_log_powers(ctx, logz, weights, values):
    n = len(weights)
    acc = ctx.exact_zero()
    for mm in range(1, n + 1):
        if weights[n - mm] == 0:
            continue
        acc = acc + ctx.from_rational(weights[n - mm]) * values[n - mm] * logz ** (n - mm)
    return acc


@st.composite
def log_sum_cases(draw):
    p = draw(st.sampled_from((3, 5, 7, 11)))
    ctx = UnramifiedCtx(p, draw(st.integers(1, 3)), draw(st.integers(1, 6)))
    denominators = st.integers(1, 12).filter(lambda d: d % p)
    weight = st.one_of(st.just(Fraction(0)), st.integers(-30, 30).map(Fraction),
                       st.builds(Fraction, st.integers(-30, 30), denominators))
    weights = draw(st.lists(weight, min_size=1, max_size=6))
    values = [draw(interval_values(ctx)) for _ in weights]
    # log z: an exact zero, an approximate zero, or a value of valuation >= 0
    return ctx, draw(interval_values(ctx, min_scale=0)), weights, values


@settings(max_examples=300, deadline=None)
@given(log_sum_cases())
def test_log_sum_takes_the_steps_of_the_three_loops(case):
    ctx, logz, weights, values = case
    called = []

    def value(j):
        called.append(j)
        return values[j]

    got = _fields(log_sum(ctx, logz, weights, value))
    assert called == [j for j, c in enumerate(weights) if c]
    for loop in (loop_log_combination, loop_descending, loop_log_powers):
        assert got == _fields(loop(ctx, logz, weights, values)), loop.__name__


def oracle_log_sum(ctx, logz, weights, value):
    # ``log_sum``'s operator loop before it ran on states, each weight built
    # afresh as ``from_rational`` built it before the context memoized it
    acc = ctx.exact_zero()
    logpow, power = ctx.one(), 0
    for j, c in enumerate(weights):
        if c:
            for _ in range(power, j):
                logpow = logpow * logz
            power = j
            c = Fraction(c)
            weight = ctx.from_int(c.numerator) * ctx.inv_int(c.denominator)
            acc = acc + weight * logpow * value(j)
    return acc


@st.composite
def log_cases(draw):
    """u = 1 + p^e w, with w an exact zero, an approximate zero, a multiple of
    p or a unit, so that u - 1 may also be a unit (e = 0) or O(p^0); weights
    with zeros and both signs; values that may be exact or approximate zeros."""
    p = draw(st.sampled_from((3, 5, 7, 11, 13)))
    ctx = UnramifiedCtx(p, draw(st.integers(1, 3)), draw(st.integers(1, 8)))
    vec = tuple(draw(st.integers(0, ctx.pA - 1)) for _ in range(ctx.k))
    w = draw(st.sampled_from((
        ctx.exact_zero(), ctx.zero_approx(draw(st.integers(0, 3))),
        ctx.make(1, vec, draw(st.integers(1, ctx.A))),  # w = 0 mod p
        ctx.make(0, vec, draw(st.integers(1, ctx.A))))))
    u = ctx.one() + w.shift(draw(st.sampled_from((0, 1, 1, 1))))
    denominators = st.integers(1, 12).filter(lambda d: d % p)
    weight = st.one_of(st.just(0), st.integers(-30, 30),
                       st.builds(Fraction, st.integers(-30, 30), denominators))
    weights = draw(st.lists(weight, max_size=6))
    return ctx, u, weights, [draw(interval_values(ctx)) for _ in weights]


@settings(max_examples=300, deadline=None)
@given(log_cases())
def test_log_and_log_sum_take_the_steps_of_their_operator_loops(case):
    ctx, u, weights, values = case
    try:
        logz = oracle_padic_log(u)
    except (ValueError, PrecisionError) as err:
        with pytest.raises(type(err)):
            padic_log(u)
        logz = u
    else:
        assert padic_log(u).to_record() == logz.to_record()
    called = []

    def value(j):
        called.append(j)
        return values[j]

    got = log_sum(ctx, logz, weights, value)
    assert called == [j for j, c in enumerate(weights) if c]
    assert got.to_record() == oracle_log_sum(ctx, logz, weights, values.__getitem__).to_record()


def test_log_sum_builds_only_its_result(monkeypatch):
    # a deterministic count: the operator loop built a value per log power and
    # 5 per term, 2 of them for the weight
    ctx = UnramifiedCtx(7, 2, 6)
    logz = ctx.from_vec((3, 4)).shift(1)
    weights = [Fraction(1, 2), 0, -3, Fraction(5, 6), 0, Fraction(-1, 24)]
    values = [ctx.from_vec((j + 1, 2), j % 2) for j in range(len(weights))]
    log_sum(ctx, logz, weights, values.__getitem__)  # fills the memo of rationals
    counts = count_values(monkeypatch)
    got = log_sum(ctx, logz, weights, values.__getitem__)
    assert counts == {"init": 1, "wrap": 1}
    monkeypatch.undo()
    assert got.to_record() == oracle_log_sum(ctx, logz, weights, values.__getitem__).to_record()


def test_log_sum_examples():
    ctx = UnramifiedCtx(5, 2, 4)
    logz = ctx.from_int(5)

    def never(j):
        pytest.fail(f"value({j}) evaluated at a zero weight")

    assert log_sum(ctx, logz, [], never).exact
    assert log_sum(ctx, logz, [0, 0], never).exact
    # 3 * log^2(z) * 2 = 6 * 25
    got = log_sum(ctx, logz, [0, 0, 3], lambda j: ctx.from_int(2))
    assert got.eq_to_prec(ctx.from_int(150))
    # a value from another context is refused, as the operators refused it
    with pytest.raises(ValueError, match="different contexts"):
        log_sum(ctx, logz, [1], lambda j: UnramifiedCtx(5, 2, 5).one())


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
            assert (li1 - neg_log).valuation_ge(
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


# -- evaluators shared within a matrix run ---------------------------------------------


def test_outside_a_matrix_every_driver_call_gets_fresh_evaluators(monkeypatch):
    # so a monkeypatch or a build count sees every build of a direct call
    built = []
    init = PolylogEvaluator.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(PolylogEvaluator, "__init__", recording_init)
    verify_theorem(5, 2, samples=3)
    check_maincong(5, 2, samples=3)  # the theorem's key (p, k, A, m, M)
    assert len(built) == 2 and built[0].ctx is not built[1].ctx
    assert coleman.evaluator(5, 1, 6, None, 2) is not coleman.evaluator(5, 1, 6, None, 2)


def test_shared_evaluators_serve_one_per_resolved_key_and_keep_the_most_recent():
    with coleman.shared_evaluators():
        ev = coleman.evaluator(5, 1, 6, None, 2)
        # max_weight only sets the defaults of m and M
        same = coleman.evaluator(5, 1, 6, 4, 3, M=coleman.default_series_order(5, 2, 6))
        assert same is ev and ev.m == 4
        assert coleman.evaluator(5, 1, 6, None, 2, trace=print) is not ev
        others = [coleman.evaluator(5, 1, 6, m, 2) for m in range(5, 5 + coleman.SHARED_SLOTS)]
        assert coleman.evaluator(5, 1, 6, others[0].m, 2) is others[0]  # still held
        assert coleman.evaluator(5, 1, 6, None, 2) is not ev  # evicted
    assert coleman.evaluator(5, 1, 6, None, 2) is not coleman.evaluator(5, 1, 6, None, 2)


def test_the_shared_evaluators_are_released_when_a_driver_raises(monkeypatch):
    live = weakref.WeakSet()
    init = PolylogEvaluator.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        live.add(self)

    def broken(**kwargs):
        assert len(live) > 0  # the cells run before this one left evaluators
        raise RuntimeError("a driver fails mid-run")

    monkeypatch.setattr(PolylogEvaluator, "__init__", recording_init)
    monkeypatch.setattr(section3, "f_lemmas_check", broken)
    with pytest.raises(RuntimeError, match="mid-run"):
        run_matrix("small")
    assert len(live) == 0
    assert coleman.evaluator(5, 1, 6, None, 2) is not coleman.evaluator(5, 1, 6, None, 2)


def test_a_traced_theorem_in_a_matrix_run_traces_every_build():
    alone, shared = [], []
    report = verify_theorem(5, 2, samples=4, trace=alone.append)
    with coleman.shared_evaluators():
        verify_theorem(5, 2, samples=4)  # fills the shared evaluator of this key
        assert verify_theorem(5, 2, samples=4, trace=shared.append) == report
    assert shared == alone != []
