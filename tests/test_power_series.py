"""Truncated series ring laws, calculus pairs, and certified evaluation."""

import pytest

from polylogp.padic_core import PrecisionError, UnramifiedCtx
from polylogp.power_series import TruncSeries
from polylogp.rng import SplitMix64


def _random_series(ctx, rng, order, var="w"):
    coeffs = [ctx.from_vec(tuple(rng.below(ctx.pA) for _ in range(ctx.k)))
              for _ in range(order + 1)]
    return TruncSeries.from_coeffs(ctx, var, coeffs)


def test_integrate_of_one_is_w():
    ctx = UnramifiedCtx(5, 1, 4)
    one = TruncSeries.from_coeffs(ctx, "w", [ctx.one()], order=3)
    integrated = one.integrate()
    assert integrated.coeffs[0].is_exact_zero
    assert integrated.coeffs[1].eq_to_prec(ctx.one())
    assert all(c.is_exact_zero for c in integrated.coeffs[2:])


def test_derivative_integrate_round_trip():
    ctx = UnramifiedCtx(7, 1, 5)
    rng = SplitMix64(11)
    for _ in range(50):
        s = _random_series(ctx, rng, 6)
        back = s.integrate().derivative()
        for j in range(s.order):  # up to order M-1
            assert back.coeffs[j].eq_to_prec(s.coeffs[j])


def test_associativity_randomized():
    ctx = UnramifiedCtx(5, 2, 4)
    rng = SplitMix64(12)
    for _ in range(40):
        s = _random_series(ctx, rng, 4)
        t = _random_series(ctx, rng, 4)
        u = _random_series(ctx, rng, 4)
        left = (s * t) * u
        right = s * (t * u)
        for a, b in zip(left.coeffs, right.coeffs):
            assert a.eq_to_prec(b)


def test_leibniz_rule_randomized():
    ctx = UnramifiedCtx(7, 1, 5)
    rng = SplitMix64(13)
    for _ in range(40):
        s = _random_series(ctx, rng, 5)
        t = _random_series(ctx, rng, 5)
        lhs = (s * t).derivative()
        rhs = s.derivative() * t + s * t.derivative()
        for j in range(s.order - 1):
            assert lhs.coeffs[j].eq_to_prec(rhs.coeffs[j])


def test_geometric_times_one_minus_ratio_telescopes():
    ctx = UnramifiedCtx(5, 1, 5)
    q = ctx.from_int(7)
    M = 8
    geo = TruncSeries.geometric(ctx, "w", q, M)
    lin = TruncSeries.from_coeffs(ctx, "w", [ctx.one(), -q], order=M)
    prod = geo * lin
    assert prod.coeffs[0].eq_to_prec(ctx.one())
    for c in prod.coeffs[1:]:
        assert c.is_zero_to(c.abs_prec if not c.is_exact_zero else 5)


def test_eval_inverse_series_matches_direct_inverse():
    # 1/(1+pw) at w=1 against the ring inverse of 1+p
    for p in (5, 7):
        ctx = UnramifiedCtx(p, 1, 5)
        series = TruncSeries.geometric(ctx, "w", ctx.from_int(-p), 12)
        got = series.eval_at(ctx.one(), target=4)
        expected = ctx.from_int(1 + p).inv()
        assert (got - expected).is_zero_to(4)


def test_eval_at_zero_returns_constant_term():
    ctx = UnramifiedCtx(5, 1, 4)
    s = TruncSeries.from_coeffs(ctx, "w", [ctx.from_int(9), ctx.from_int(2)], order=4)
    assert s.eval_at(ctx.exact_zero(), target=4).eq_to_prec(ctx.from_int(9))


def test_eval_with_insufficient_order_raises_not_lies():
    ctx = UnramifiedCtx(5, 1, 6)
    series = TruncSeries.geometric(ctx, "w", ctx.from_int(-5), 2)
    with pytest.raises(PrecisionError):
        series.eval_at(ctx.one(), target=6)


def test_eval_rejects_points_outside_unit_disc():
    ctx = UnramifiedCtx(5, 1, 4)
    s = TruncSeries.from_coeffs(ctx, "w", [ctx.one()], order=2)
    with pytest.raises(ValueError):
        s.eval_at(ctx.from_int(3).shift(-1), target=1)


def test_var_and_ctx_mismatch_rejected():
    ctx = UnramifiedCtx(5, 1, 4)
    other = UnramifiedCtx(7, 1, 4)
    s = TruncSeries.from_coeffs(ctx, "w", [ctx.one()], order=1)
    t = TruncSeries.from_coeffs(ctx, "u", [ctx.one()], order=1)
    with pytest.raises(ValueError):
        s + t
    u = TruncSeries.from_coeffs(other, "w", [other.one()], order=1)
    with pytest.raises(ValueError):
        s * u


def test_scalar_mul_and_tail_shift():
    ctx = UnramifiedCtx(5, 1, 5)
    s = TruncSeries.geometric(ctx, "w", ctx.from_int(5), 6)
    scaled = s.scalar_mul(ctx.from_int(25))
    assert scaled.tail.offset == s.tail.offset + 2
    assert scaled.coeffs[1].valuation() == 3


def test_integrate_tracks_divisor_precision_loss():
    ctx = UnramifiedCtx(5, 1, 4)
    coeffs = [ctx.one() for _ in range(6)]
    s = TruncSeries.from_coeffs(ctx, "w", coeffs)
    integrated = s.integrate()
    # coefficient of w^5 is 1/5: scale -1, one digit of absolute precision lost
    assert integrated.coeffs[5].valuation() == -1
    assert integrated.coeffs[5].abs_prec == ctx.A - 1


def test_debug_info_shape():
    ctx = UnramifiedCtx(5, 1, 4)
    s = TruncSeries.geometric(ctx, "w", ctx.from_int(5), 3)
    info = s.debug_info()
    assert info["order"] == 3
    assert info["tailSlope"] == "1"
    assert [c["minValuation"] for c in info["coefficients"]] == [0, 1, 2, 3]
