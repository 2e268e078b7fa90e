"""Series division by a linear factor, integration, and certified evaluation.

``src/`` keeps only the operations the two series routes use.  The general
series ring (sum, convolution product, derivative) lives here as plain
functions: it is the oracle the construction checks are written against.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylogp import coleman, padic_core
from polylogp.coleman import PolylogEvaluator, default_series_order
from polylogp.finite_poly import poly_inverse
from polylogp.padic_core import PrecisionError, UnramifiedCtx
from polylogp.power_series import TailBound, TruncSeries
from polylogp.rng import SplitMix64
from polylogp.section3 import default_f_order, dz_series, f_series

PRIMES = (3, 5, 7, 11, 13)


# -- the series ring, as test oracles -------------------------------------------


def _same_ring(s: TruncSeries, t: TruncSeries):
    if s.ctx != t.ctx:
        raise ValueError("series over different contexts")
    if s.var != t.var:
        raise ValueError(f"variable mismatch: {s.var} vs {t.var}")


def series_add(s: TruncSeries, t: TruncSeries) -> TruncSeries:
    _same_ring(s, t)
    m = min(s.order, t.order)
    coeffs = [s.coeffs[j] + t.coeffs[j] for j in range(m + 1)]
    if s.tail.is_infinite() or t.tail.is_infinite():
        tail = t.tail if s.tail.is_infinite() else s.tail
    else:
        tail = TailBound(min(s.tail.slope, t.tail.slope), min(s.tail.offset, t.tail.offset))
    return TruncSeries(s.ctx, s.var, coeffs, tail)


def series_mul(s: TruncSeries, t: TruncSeries) -> TruncSeries:
    """Convolution product, truncated to the smaller order."""
    _same_ring(s, t)
    m = min(s.order, t.order)
    out = []
    for j in range(m + 1):
        acc = s.ctx.exact_zero()
        for i in range(j + 1):
            acc = acc + s.coeffs[i] * t.coeffs[j - i]
        out.append(acc)
    if s.tail.is_infinite() or t.tail.is_infinite():
        tail = TailBound.zero_series()
    else:
        tail = TailBound(min(s.tail.slope, t.tail.slope), s.tail.offset + t.tail.offset)
    return TruncSeries(s.ctx, s.var, out, tail)


def series_derivative(s: TruncSeries) -> TruncSeries:
    if s.order == 0:
        coeffs = [s.ctx.exact_zero()]
    else:
        coeffs = [s.coeffs[j + 1] * (j + 1) for j in range(s.order)]
    tail = s.tail
    if not tail.is_infinite():
        tail = TailBound(tail.slope, tail.offset + tail.slope)
    return TruncSeries(s.ctx, s.var, coeffs, tail)


def geometric(ctx, var, ratio, order) -> TruncSeries:
    """1 + q w + q^2 w^2 + ... by repeated products, with tail (v_p(q), 0)."""
    if ratio.exact:
        return TruncSeries.from_coeffs(ctx, var, [ctx.one()], order=order)
    coeffs = [ctx.one()]
    for _ in range(order):
        coeffs.append(coeffs[-1] * ratio)
    return TruncSeries(ctx, var, coeffs, TailBound(Fraction(ratio.valuation()), Fraction(0)))


def _integral_tail(s: TruncSeries) -> TailBound:
    """The generic bound for an antiderivative of ``s``: c_j -> c_{j-1}/j and
    v_p(j) <= j/(p-1), so the slope drops by 1/(p-1) and the offset by the slope."""
    if s.tail.is_infinite():
        return s.tail
    return TailBound(s.tail.slope - Fraction(1, s.ctx.p - 1), s.tail.offset - s.tail.slope)


def _integrate(s: TruncSeries) -> TruncSeries:
    """``s.integrate`` with the generic bound of ``_integral_tail``."""
    tail = _integral_tail(s)
    return s.integrate(tail.slope, tail.offset)


def _integrate_growing(s: TruncSeries) -> TruncSeries:
    """Antiderivative whose order grows by one (no truncation)."""
    coeffs = [s.ctx.exact_zero()]
    for j, c in enumerate(s.coeffs):
        coeffs.append(c / s.ctx.from_int(j + 1))
    return TruncSeries(s.ctx, s.var, coeffs, _integral_tail(s))


def _one_over_linear(ctx, q, order) -> TruncSeries:
    """1/(1 - q w) from ``over_linear``, with the tail slope v_p(q)."""
    one = TruncSeries.from_coeffs(ctx, "w", [ctx.one()], order=order, slope=q.valuation())
    return one.over_linear(q)


def _random_series(ctx, rng, order, var="w"):
    coeffs = [ctx.from_vec(tuple(rng.below(ctx.pA) for _ in range(ctx.k)))
              for _ in range(order + 1)]
    return TruncSeries.from_coeffs(ctx, var, coeffs)


# -- the geometric-kernel construction, as it was built by products ---------------


def _product_built_g_series(ev, alpha, n, M) -> list:
    ctx, p = ev.ctx, ev.ctx.p
    one = ctx.one()
    slope = 1 - Fraction(1, p - 1)
    lead = alpha * (one - alpha).inv()
    lin = TruncSeries.from_coeffs(ctx, "w", [one, ctx.from_int(p)], order=M, slope=1)
    g = series_mul(geometric(ctx, "w", lead.shift(1), M).scalar_mul(lead), lin)
    out = [g.with_tail(slope, 0)]
    kernel = geometric(ctx, "w", ctx.from_int(-p), M)
    for j in range(1, n + 1):
        integrated = _integrate_growing(series_mul(out[-1], kernel))
        coeffs = list(integrated.coeffs[: M + 1])
        coeffs[0] = ev.li_tilde(alpha, j)
        out.append(TruncSeries(ctx, "w", coeffs, integrated.tail).with_tail(slope, -j))
    return out


def _product_built_f_series(ctx, z, kmax, M) -> tuple:
    """f_0..f_kmax, and dz_1..dz_kmax (entry k-1 is dz_k)."""
    one = ctx.one()
    inv1z = (one - z).inv()
    slope = -Fraction(1, ctx.p - 1)
    f0 = series_add(geometric(ctx, "u", inv1z, M).scalar_mul(inv1z),
                    TruncSeries.from_coeffs(ctx, "u", [-one], order=M))
    zinv = z.inv()
    kernel = geometric(ctx, "u", -zinv, M).scalar_mul(zinv)

    def step(s):
        integrated = _integrate_growing(series_mul(s, kernel))
        truncated = TruncSeries(ctx, "u", integrated.coeffs[: M + 1], integrated.tail)
        return truncated.with_tail(slope, 0)

    fs = [f0]
    dzs = [TruncSeries.from_coeffs(ctx, "u", [-inv1z], order=M)]
    for k in range(1, kmax + 1):
        fs.append(step(fs[-1]))
        if k > 1:
            dzs.append(step(dzs[-1]))
    return fs, dzs


def _assert_identical(new: TruncSeries, old: TruncSeries):
    assert new.order == old.order
    assert new.tail == old.tail
    for a, b in zip(new.coeffs, old.coeffs):
        assert (a.scale, a.coeffs, a.prec, a.exact) == (b.scale, b.coeffs, b.prec, b.exact)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("k", (1, 2))
def test_over_linear_builds_what_the_products_built(p, k):
    A, kmax = 5, 6
    ctx = UnramifiedCtx(p, k, A)
    M = default_series_order(p, kmax, A)
    ev = PolylogEvaluator(ctx, 2, max_weight=kmax, series_order=M)
    for t in (2, p**k - 1):
        alpha = ev.teich(ctx.residue_field.from_int(t))
        for n, old in enumerate(_product_built_g_series(ev, alpha, kmax, M)):
            _assert_identical(ev.g_series(alpha, n), old)
        z = alpha * (ctx.one() + ctx.from_int(p * t))
        old_fs, old_dzs = _product_built_f_series(ctx, z, 4, 10)
        new_fs = f_series(ctx, z, 4, M=10)
        assert len(new_fs) == len(old_fs) == 5
        for new_f, old_f in zip(new_fs, old_fs):
            _assert_identical(new_f, old_f)
        for order, old_dz in enumerate(old_dzs, start=1):
            _assert_identical(dz_series(ctx, z, order, 10), old_dz)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("k", (1, 2, 3))
def test_integrate_matches_the_division_path(p, k):
    ctx = UnramifiedCtx(p, k, 6)
    rng = SplitMix64(100 * p + k)
    for order in (max(3 * p, 30), 5):  # past p^2 (p^3 at p = 3), then a cached rerun
        s = _random_series(ctx, rng, order)
        coeffs = list(s.coeffs)
        coeffs[1], coeffs[2], coeffs[3] = (ctx.exact_zero(), ctx.zero_approx(3),
                                           coeffs[3].cap_abs(2))
        s = TruncSeries.from_coeffs(ctx, "w", coeffs)
        old = _integrate_growing(s)  # divides by a fresh from_int(j + 1)
        _assert_identical(_integrate(s), TruncSeries(ctx, "w", old.coeffs[:-1], old.tail))


def _count_poly_inverse(monkeypatch) -> list:
    """Record r for each unit inverse of ``WittApprox.inv`` and the measure sum."""
    calls = []

    def counted(a, h, p, r):
        calls.append(r)
        return poly_inverse(a, h, p, r)

    for module in (padic_core, coleman):
        monkeypatch.setattr(module, "poly_inverse", counted)
    return calls


def _refuted_degrees(s: TruncSeries) -> list:
    """Degrees whose stored coefficient certifiably violates the installed
    tail bound: a unit form has exact valuation ``scale``."""
    return [j for j, c in enumerate(s.coeffs)
            if c.prec > 0 and c.scale < math.floor(s.tail.slope * j + s.tail.offset)]


@pytest.mark.parametrize("p, k, A", [(3, 1, 8), (5, 1, 7), (5, 2, 6), (7, 3, 5), (13, 1, 6)])
def test_installed_integration_bounds_hold_on_the_stored_coefficients(p, k, A):
    # the bounds g_series, f_series and dz_series pass to integrate are
    # proven, not derived; no stored coefficient may contradict them
    n = 4
    ctx = UnramifiedCtx(p, k, A)
    ev = PolylogEvaluator(ctx, 3, max_weight=n)
    field = ctx.residue_field
    for t in range(2, min(field.order, 6)):
        alpha = ev.teich(field.from_int(t))
        for j in range(n + 1):
            assert _refuted_degrees(ev.g_series(alpha, j)) == [], (t, j)
        M = default_f_order(A, n)
        for member, f in enumerate(f_series(ctx, alpha, n, M)):
            assert _refuted_degrees(f) == [], (t, member)
        for order in range(1, n + 1):
            assert _refuted_degrees(dz_series(ctx, alpha, order, M)) == [], (t, order)


@pytest.mark.parametrize("p, k", [(5, 1), (7, 2)])
def test_series_builds_invert_each_integer_once_per_context(monkeypatch, p, k):
    # a deterministic count, not a timing: integration divides by 1..M, and
    # those inverses are shared by every weight and every member of the family
    n, A = 4, 9
    ctx = UnramifiedCtx(p, k, A)
    M = default_series_order(p, n, A)
    ev = PolylogEvaluator(ctx, 3, max_weight=n, series_order=M)
    alpha = ev.teich(ctx.residue_field.from_int(3))
    calls = _count_poly_inverse(monkeypatch)
    for j in range(n + 1):
        ev.g_series(alpha, j)
    assert M <= len(calls) <= M + 3 * (n + 1)

    ctx = UnramifiedCtx(p, k, A)  # a fresh context, so no inverse is cached yet
    z = ctx.from_vec(alpha.coeffs)
    calls.clear()
    Mf = default_f_order(A, n)
    f_series(ctx, z, n, Mf)
    assert Mf <= len(calls) <= Mf + 3 * (n + 1)


@st.composite
def linear_cases(draw):
    p = draw(st.sampled_from(PRIMES))
    k = draw(st.integers(1, 2))
    A = draw(st.integers(1, 6))
    ctx = UnramifiedCtx(p, k, A)
    order = draw(st.integers(1, 6))
    digits = st.integers(0, ctx.pA - 1)
    coeffs = [ctx.from_vec(tuple(draw(digits) for _ in range(k)), draw(st.integers(0, 2)))
              for _ in range(order + 1)]
    if draw(st.booleans()):
        q = ctx.exact_zero()
    else:
        unit = (draw(st.integers(1, p - 1)),) + tuple(draw(digits) for _ in range(k - 1))
        q = ctx.from_vec(unit, draw(st.integers(0, 2)))
    return ctx, TruncSeries.from_coeffs(ctx, "w", coeffs), q


@settings(max_examples=60, deadline=None)
@given(linear_cases())
def test_over_linear_times_the_linear_factor_gives_back_the_series(case):
    ctx, s, q = case
    lin = TruncSeries.from_coeffs(ctx, "w", [ctx.one(), -q], order=s.order)
    back = series_mul(s.over_linear(q), lin)
    for a, b in zip(back.coeffs, s.coeffs):
        assert (a - b).valuation_ge(ctx.A)


# -- the interval kernel against the per-operation loops -------------------------
#
# ``over_linear``, ``eval_at``, ``scalar_mul`` and ``integrate`` fold and map
# raw states; these loops take the same steps on values, one operator at a
# time, and every field of every result must agree.


def loop_over_linear(coeffs, q):
    out = [coeffs[0]]
    for c in coeffs[1:]:
        out.append(c + q * out[-1])
    return out


def loop_horner(coeffs, w):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * w + c
    return acc


def loop_scalar_mul(coeffs, c):
    return [c * x for x in coeffs]


def loop_integrate(coeffs):
    ctx = coeffs[0].ctx
    return [ctx.exact_zero(), *(c * ctx.inv_int(j) for j, c in enumerate(coeffs[:-1], 1))]


def _fields(x):
    return x.scale, x.coeffs, x.prec, x.exact


@st.composite
def interval_values(draw, ctx, min_scale=-3):
    """An exact zero, an approximate zero O(p^s), or a value of either sign of
    scale whose relative precision may be below A."""
    kind = draw(st.sampled_from(("exact", "approx", "value", "value")))
    if kind == "exact":
        return ctx.exact_zero()
    scale = draw(st.integers(min_scale, 3))
    if kind == "approx":
        return ctx.zero_approx(scale)
    vec = tuple(draw(st.integers(0, ctx.pA - 1)) for _ in range(ctx.k))
    return ctx.make(scale, vec, draw(st.integers(1, ctx.A)))


@st.composite
def kernel_cases(draw):
    p = draw(st.sampled_from((3, 5, 7, 11)))
    k = draw(st.sampled_from((1, 2, 3)))
    ctx = UnramifiedCtx(p, k, draw(st.integers(1, 6)))
    coeffs = draw(st.lists(interval_values(ctx), min_size=1, max_size=8))
    q = draw(interval_values(ctx, min_scale=0).filter(lambda x: x.exact or x.prec))
    w = draw(interval_values(ctx, min_scale=0))
    c = draw(interval_values(ctx))
    tail = draw(st.sampled_from((TailBound.zero_series(), TailBound(Fraction(1), Fraction(-1)),
                                 TailBound(Fraction(1, 2), Fraction(2)))))
    return ctx, TruncSeries(ctx, "w", coeffs, tail), q, w, c


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_interval_kernel_takes_the_steps_of_the_operator_loops(case):
    ctx, s, q, w, c = case
    coeffs = list(s.coeffs)
    pairs = [
        (s.over_linear(q).coeffs, loop_over_linear(coeffs, q) if not q.exact else coeffs),
        (s.scalar_mul(c).coeffs, loop_scalar_mul(coeffs, c)),
        (s.integrate(0, 0).coeffs, loop_integrate(coeffs)),
    ]
    # the chain of a dlog step, its states passed from one operation to the next
    chained = s.over_linear(q).scalar_mul(c).integrate(0, 0)
    pairs.append((chained.coeffs, loop_integrate(loop_scalar_mul(pairs[0][1], c))))
    for got, want in pairs:
        assert [_fields(x) for x in got] == [_fields(x) for x in want]
    for series, values in ((s, coeffs), (chained, pairs[-1][1])):
        if w.exact:
            want = values[0]
        else:
            want = loop_horner(values, w)
            tail_v = series.tail_valuation_at(w.min_valuation)
            if tail_v is not None:
                want = want.cap_abs(tail_v)
        assert _fields(series.eval_at(w, target=-10)) == _fields(want)


@pytest.mark.parametrize("k", (1, 2, 3))
def test_series_operations_build_values_only_for_an_evaluation(monkeypatch, k):
    # a deterministic count: series hold raw states, so over_linear,
    # scalar_mul and integrate build no WittApprox, and eval_at builds at most
    # two, its sum and the cap of that sum
    ctx = UnramifiedCtx(5, k, 6)
    s = _random_series(ctx, SplitMix64(40 + k), 12)
    q, c = ctx.from_int(-5), ctx.from_int(3).inv()
    points = (ctx.exact_zero(), ctx.from_int(5), ctx.one())
    s.integrate(0, 0)  # fills the context's cache of 1/j
    built = []
    init = padic_core.WittApprox.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(padic_core.WittApprox, "__init__", counted)
    t = s.over_linear(q).scalar_mul(c).integrate(0, 0).over_linear(q)
    assert built == []
    for w in points:
        t.eval_at(w, target=0)
        assert len(built) <= 2, w
        built.clear()


def test_over_linear_integrate_and_eval_at_build_no_fraction(monkeypatch):
    # the tail bounds are kept as passed and read in integers
    ctx = UnramifiedCtx(5, 2, 6)
    s = _random_series(ctx, SplitMix64(7), 12).with_tail(Fraction(1, 2), Fraction(-3, 4))
    slope, offset = Fraction(1, 4), Fraction(-7, 3)
    s.integrate(slope, offset)  # fills the context's cache of 1/j
    q, points = ctx.from_int(-5), (ctx.from_int(5), ctx.one(), ctx.exact_zero())
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    for t in (s.over_linear(q).integrate(slope, offset), s.integrate(-1, offset)):
        for w in points[: 1 if t.tail.slope == -1 else 3]:  # sigma = 0 at v_p(w) = 1
            t.eval_at(w, target=-10)
    assert built == []


def oracle_tail_valuation(tail, order, w_val):
    # ``tail_valuation_at`` as it was written, in Fractions
    if tail.is_infinite():
        return None
    sigma = Fraction(tail.slope) + w_val
    if sigma > 0:
        return math.floor(sigma * (order + 1) + Fraction(tail.offset))
    if sigma == 0:
        return math.floor(Fraction(tail.offset))
    raise PrecisionError("tail bound diverges on the unit disc (negative combined slope)")


RATIONALS = st.one_of(st.integers(-20, 20),
                      st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3), RATIONALS, RATIONALS, st.integers(0, 12), st.booleans())
def test_tail_valuation_is_the_floor_of_the_fraction_formula(w_val, slope, offset, order,
                                                              on_the_edge):
    if on_the_edge:  # sigma = slope + w_val = 0
        slope = -w_val if isinstance(slope, int) else Fraction(-w_val)
    ctx = UnramifiedCtx(5, 1, 3)
    s = TruncSeries.from_coeffs(ctx, "w", [ctx.one()], order=order).with_tail(slope, offset)
    try:
        want = oracle_tail_valuation(s.tail, order, w_val)
    except PrecisionError:
        with pytest.raises(PrecisionError):
            s.tail_valuation_at(w_val)
    else:
        assert s.tail_valuation_at(w_val) == want


def test_tail_valuation_examples():
    ctx = UnramifiedCtx(5, 1, 3)
    s = TruncSeries.from_coeffs(ctx, "w", [ctx.one()], order=4)
    # floor(5 * 1/3 - 7/2) = floor(-11/6) = -2, and floor(-7/2) = -4 at sigma = 0
    assert s.with_tail(Fraction(-2, 3), Fraction(-7, 2)).tail_valuation_at(1) == -2
    assert s.with_tail(-1, Fraction(-7, 2)).tail_valuation_at(1) == -4
    with pytest.raises(PrecisionError):
        s.with_tail(Fraction(-1, 2), 0).tail_valuation_at(0)
    zero = TruncSeries.from_coeffs(ctx, "w", [ctx.exact_zero()], order=4)
    assert zero.tail.is_infinite() and zero.tail_valuation_at(0) is None


def test_over_linear_rejects_ratios_off_the_unit_disc():
    ctx = UnramifiedCtx(5, 1, 4)
    s = TruncSeries.from_coeffs(ctx, "w", [ctx.one()], order=3)
    with pytest.raises(ValueError):
        s.over_linear(ctx.from_int(2).shift(-1))
    with pytest.raises(PrecisionError):
        s.over_linear(ctx.zero_approx(2))  # v_p(q) only bounded below


# -- calculus and evaluation -------------------------------------------------------


def test_integrate_of_one_is_w():
    ctx = UnramifiedCtx(5, 1, 4)
    one = TruncSeries.from_coeffs(ctx, "w", [ctx.one()], order=3)
    integrated = _integrate(one)
    assert integrated.order == 3
    assert integrated.coeffs[0].exact
    assert integrated.coeffs[1].eq_to_prec(ctx.one())
    assert all(c.exact for c in integrated.coeffs[2:])


def test_derivative_integrate_round_trip():
    ctx = UnramifiedCtx(7, 1, 5)
    rng = SplitMix64(11)
    for _ in range(50):
        s = _random_series(ctx, rng, 6)
        back = series_derivative(_integrate(s))
        for j in range(s.order):  # up to order M-1
            assert back.coeffs[j].eq_to_prec(s.coeffs[j])


def test_associativity_randomized():
    ctx = UnramifiedCtx(5, 2, 4)
    rng = SplitMix64(12)
    for _ in range(40):
        s = _random_series(ctx, rng, 4)
        t = _random_series(ctx, rng, 4)
        u = _random_series(ctx, rng, 4)
        left = series_mul(series_mul(s, t), u)
        right = series_mul(s, series_mul(t, u))
        for a, b in zip(left.coeffs, right.coeffs):
            assert a.eq_to_prec(b)


def test_leibniz_rule_randomized():
    ctx = UnramifiedCtx(7, 1, 5)
    rng = SplitMix64(13)
    for _ in range(40):
        s = _random_series(ctx, rng, 5)
        t = _random_series(ctx, rng, 5)
        lhs = series_derivative(series_mul(s, t))
        rhs = series_add(series_mul(series_derivative(s), t),
                         series_mul(s, series_derivative(t)))
        for j in range(s.order - 1):
            assert lhs.coeffs[j].eq_to_prec(rhs.coeffs[j])


def test_geometric_times_one_minus_ratio_telescopes():
    ctx = UnramifiedCtx(5, 1, 5)
    q = ctx.from_int(7)
    M = 8
    geo = _one_over_linear(ctx, q, M)
    lin = TruncSeries.from_coeffs(ctx, "w", [ctx.one(), -q], order=M)
    prod = series_mul(geo, lin)
    assert prod.coeffs[0].eq_to_prec(ctx.one())
    for c in prod.coeffs[1:]:
        assert c.valuation_ge(c.abs_prec if not c.exact else 5)


def test_eval_inverse_series_matches_direct_inverse():
    # 1/(1+pw) at w=1 against the ring inverse of 1+p
    for p in (5, 7):
        ctx = UnramifiedCtx(p, 1, 5)
        series = _one_over_linear(ctx, ctx.from_int(-p), 12)
        got = series.eval_at(ctx.one(), target=4)
        expected = ctx.from_int(1 + p).inv()
        assert (got - expected).valuation_ge(4)


def test_eval_at_zero_returns_constant_term():
    ctx = UnramifiedCtx(5, 1, 4)
    s = TruncSeries.from_coeffs(ctx, "w", [ctx.from_int(9), ctx.from_int(2)], order=4)
    assert s.eval_at(ctx.exact_zero(), target=4).eq_to_prec(ctx.from_int(9))


def test_eval_with_insufficient_order_raises_not_lies():
    ctx = UnramifiedCtx(5, 1, 6)
    series = _one_over_linear(ctx, ctx.from_int(-5), 2)
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
    with pytest.raises(ValueError):
        s.over_linear(other.from_int(7))
    with pytest.raises(ValueError):
        s.eval_at(other.from_int(7), target=1)
    # the test-side ring refuses to combine series it cannot line up
    t = TruncSeries.from_coeffs(ctx, "u", [ctx.one()], order=1)
    with pytest.raises(ValueError):
        series_add(s, t)
    u = TruncSeries.from_coeffs(other, "w", [other.one()], order=1)
    with pytest.raises(ValueError):
        series_mul(s, u)


def test_scalar_mul_and_tail_shift():
    ctx = UnramifiedCtx(5, 1, 5)
    s = _one_over_linear(ctx, ctx.from_int(5), 6)
    scaled = s.scalar_mul(ctx.from_int(25))
    assert scaled.tail.offset == s.tail.offset + 2
    assert scaled.coeffs[1].valuation() == 3


def test_integrate_tracks_divisor_precision_loss():
    ctx = UnramifiedCtx(5, 1, 4)
    coeffs = [ctx.one() for _ in range(6)]
    s = TruncSeries.from_coeffs(ctx, "w", coeffs)
    integrated = _integrate(s)
    # coefficient of w^5 is 1/5: scale -1, one digit of absolute precision lost
    assert integrated.coeffs[5].valuation() == -1
    assert integrated.coeffs[5].abs_prec == ctx.A - 1


def test_debug_info_shape():
    ctx = UnramifiedCtx(5, 1, 4)
    s = _one_over_linear(ctx, ctx.from_int(5), 3)
    info = s.debug_info()
    assert info["order"] == 3
    assert info["tailSlope"] == "1"
    assert [c["minValuation"] for c in info["coefficients"]] == [0, 1, 2, 3]
