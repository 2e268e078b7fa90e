"""Capped-precision ring arithmetic against independent exact oracles."""

import math
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylogp import padic_core
from polylogp.finite_poly import frobenius, poly_inverse, poly_pow, unit_powers
from polylogp.padic_core import (
    PrecisionError,
    UnramifiedCtx,
    WittApprox,
    add_states,
    int_val,
    mul_states,
    neg_state,
    normalize,
    padic_log,
    residue,
    teichmuller,
    teichmuller_powers,
)
from polylogp.rng import SplitMix64

from test_finite_poly import WALK_FIELDS


# -- context construction ------------------------------------------------------


def test_ctx_degree_one_modulus_is_x():
    ctx = UnramifiedCtx(5, 1, 4)
    assert ctx.hbar == (0, 1)


def test_ctx_degree_two_modulus_is_first_lex_irreducible():
    ctx = UnramifiedCtx(5, 2, 4)
    assert ctx.hbar == (1, 1, 1)  # x^2 + x + 1, irreducible over F_5


def test_ctx_rejects_bad_parameters():
    with pytest.raises(ValueError):
        UnramifiedCtx(4, 1, 4)
    with pytest.raises(ValueError):
        UnramifiedCtx(9, 1, 4)
    with pytest.raises(ValueError):
        UnramifiedCtx(2, 1, 4)
    with pytest.raises(ValueError):
        UnramifiedCtx(5, 0, 4)
    with pytest.raises(ValueError):
        UnramifiedCtx(5, 1, 0)


# -- arithmetic vs exact-integer oracles ----------------------------------------


def _naive_poly_mulmod(a, b, h, pm):
    # independent schoolbook reference, long division by the monic modulus
    k = len(h) - 1
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % pm
    for top in range(2 * k - 2, k - 1, -1):
        c = prod[top]
        prod[top] = 0
        for j in range(k):
            prod[top - k + j] = (prod[top - k + j] - c * h[j]) % pm
    return tuple(prod[:k])


@pytest.mark.parametrize("p,k,A", [(5, 1, 6), (7, 1, 5), (5, 2, 4), (7, 2, 4),
                                   (13, 2, 4), (7, 3, 4), (5, 3, 5), (3, 5, 6)])
def test_unit_arithmetic_matches_integer_oracle(p, k, A):
    # one kernel serves W(F_{p^k}) mod p^A and, at r = 1, the residue field
    ctx = UnramifiedCtx(p, k, A)
    field = ctx.residue_field
    pA = p**A
    rng = SplitMix64(101)
    checked = 0
    while checked < 1100:
        va = tuple(rng.below(pA) for _ in range(k))
        vb = tuple(rng.below(pA) for _ in range(k))
        if all(c % p == 0 for c in va) or all(c % p == 0 for c in vb):
            continue
        checked += 1
        a, b = ctx.from_vec(va), ctx.from_vec(vb)
        s = a + b
        total = tuple((x + y) % pA for x, y in zip(va, vb))
        assert (s - ctx.from_vec(total)).valuation_ge(A)
        m = a * b
        prod = _naive_poly_mulmod(va, vb, ctx.hbar, pA)
        assert (m - ctx.from_vec(prod)).valuation_ge(A)
        q = a / b
        assert (q * b - a).valuation_ge(A)
        # r = 1: residue-field products, and WittApprox products at one digit
        abar, bbar = (tuple(c % p for c in v) for v in (va, vb))
        prod1 = _naive_poly_mulmod(abar, bbar, ctx.hbar, p)
        assert (field.element(abar) * field.element(bbar)).coeffs == prod1
        assert (ctx.make(0, va, 1) * ctx.make(0, vb, 1)).coeffs == prod1
        inv1 = field.element(abar).inverse().coeffs
        assert poly_inverse(va, ctx.hbar, p, 1) == inv1
        assert _naive_poly_mulmod(abar, inv1, ctx.hbar, p) == field.one().coeffs


@pytest.mark.parametrize("p,k", [(13, 2), (7, 3), (5, 3), (3, 5)])
def test_poly_inverse_inverts_mod_every_precision(p, k):
    # the fields of the exhaustive residue sweeps; the oracle product is naive
    ctx = UnramifiedCtx(p, k, 8)
    one = ctx.one().coeffs
    rng = SplitMix64(7 * p + k)
    for _ in range(60):
        va = tuple(rng.below(ctx.pA) for _ in range(k))
        if all(c % p == 0 for c in va):
            continue
        for r in range(1, ctx.A + 1):
            pr = p**r
            a = tuple(c % pr for c in va)
            assert _naive_poly_mulmod(a, poly_inverse(va, ctx.hbar, p, r), ctx.hbar, pr) == one


@pytest.mark.parametrize("p", (3, 5, 7, 13))
@pytest.mark.parametrize("k", (1, 2, 3))
def test_inv_int_is_the_inverse_of_from_int(p, k):
    # every c = +-1..40, so multiples of p (and of p^2, p^3 for p = 3) too
    for A in (1, 2, 5, 8):
        ctx = UnramifiedCtx(p, k, A)
        for c in range(1, 41):
            for signed in (c, -c):
                got = ctx.inv_int(signed)
                assert got.to_record() == ctx.from_int(signed).inv().to_record()
                assert ctx.inv_int(signed) is got  # computed once per context
    with pytest.raises(ZeroDivisionError):
        UnramifiedCtx(p, k, 3).inv_int(0)


@dataclass(frozen=True)
class _FrozenWitt:
    """The field layout WittApprox had as a frozen dataclass, for == and hash."""

    ctx: UnramifiedCtx
    scale: int
    coeffs: tuple
    prec: int
    exact: bool


def _frozen(x: WittApprox) -> _FrozenWitt:
    return _FrozenWitt(x.ctx, x.scale, x.coeffs, x.prec, x.exact)


def test_values_from_equal_contexts_combine_and_unequal_ones_raise():
    ctx, twin, other = UnramifiedCtx(7, 2, 5), UnramifiedCtx(7, 2, 5), UnramifiedCtx(7, 2, 6)
    a, b = ctx.from_vec((3, 4)), ctx.from_vec((5, 1)).shift(1)
    b_twin = twin.from_vec((5, 1)).shift(1)
    assert b_twin.ctx is not b.ctx
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
               lambda x, y: x / y):
        assert op(a, b_twin).to_record() == op(a, b).to_record()
        assert op(b_twin, a).to_record() == op(b, a).to_record()
        with pytest.raises(ValueError):
            op(a, other.from_vec((5, 1)))
    with pytest.raises(ValueError):
        a + UnramifiedCtx(5, 2, 5).one()


def test_witt_equality_and_hash_are_those_of_the_frozen_fields():
    ctx, twin, other = UnramifiedCtx(7, 2, 5), UnramifiedCtx(7, 2, 5), UnramifiedCtx(7, 2, 6)
    values = [ctx.from_vec((3, 4)), twin.from_vec((3, 4)), ctx.from_vec((3, 5)),
              other.from_vec((3, 4)), ctx.from_vec((3, 4)).shift(2), ctx.exact_zero(),
              twin.exact_zero(), ctx.zero_approx(3), ctx.zero_approx(4),
              ctx.from_vec((3, 4)).cap_abs(2)]
    for x in values:
        assert hash(x) == hash(_frozen(x))
        for y in values:
            assert (x == y) == (_frozen(x) == _frozen(y))
            assert (x != y) == (_frozen(x) != _frozen(y))
    assert values[0] == values[1] and hash(values[0]) == hash(values[1])
    assert values[0] != (3, 4) and values[0] != _frozen(values[0])
    assert len({values[0], values[1], values[2]}) == 2


def test_inverse_of_two_mod_625():
    ctx = UnramifiedCtx(5, 1, 4)
    assert ctx.from_int(2).inv().coeffs == (313,)


def test_inverse_of_one_is_one():
    ctx = UnramifiedCtx(7, 2, 4)
    assert ctx.one().inv().eq_to_prec(ctx.one())


def test_scale_bookkeeping_through_mul():
    # (p*u) * (p^{-1}*v) lands back at scale 0
    ctx = UnramifiedCtx(5, 1, 4)
    a = ctx.from_int(10)  # 5 * 2
    b = ctx.from_int(3).inv().shift(-1)  # 5^{-1} * 3^{-1}
    prod = a * b
    assert prod.valuation() == 0


def test_division_by_p_power_lowers_scale_exactly():
    ctx = UnramifiedCtx(5, 1, 6)
    a = ctx.from_int(7)
    assert (a / ctx.from_int(25)).valuation() == -2
    assert (a / ctx.from_int(25)).abs_prec == a.abs_prec - 2


def test_inverting_uncertified_zero_raises():
    ctx = UnramifiedCtx(5, 1, 4)
    approx = ctx.zero_approx(4)
    with pytest.raises(PrecisionError):
        approx.inv()
    with pytest.raises(ZeroDivisionError):
        ctx.exact_zero().inv()


def _pow_by_mul(x: WittApprox, e: int) -> WittApprox:
    """x^e as |e| products, the inverse first when e < 0."""
    if e < 0:
        x, e = x.inv(), -e
    out = x.ctx.one()
    for _ in range(e):
        out = out * x
    return out


@pytest.mark.parametrize("p, k, A", [(5, 1, 6), (3, 2, 5), (7, 2, 4), (3, 3, 4)])
def test_pow_matches_repeated_mul(p, k, A):
    ctx = UnramifiedCtx(p, k, A)
    q = p**k
    rng = SplitMix64(p * 100 + k)
    unit = tuple(rng.below(ctx.pA) for _ in range(k - 1))
    values = [
        ctx.exact_zero(), ctx.zero_approx(-2), ctx.zero_approx(3),
        ctx.make(-1, (1 + p * rng.below(p),) + unit, A - 1),
        ctx.make(2, (p - 1,) + unit, 2),
        teichmuller(ctx, ctx.residue_field.from_int(2)),
    ]
    for x in values:
        for e in (0, 1, 2, p, q - 1, q, -1, -2, -p, -q):
            try:
                expected = _pow_by_mul(x, e)
            except (ZeroDivisionError, PrecisionError) as err:
                with pytest.raises(type(err)):
                    x**e
                continue
            assert x**e == expected, (x, e)  # every field: ctx, scale, coeffs, prec, exact


@settings(max_examples=60, deadline=None)
@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_ring_laws_on_embedded_integers(x, y):
    ctx = UnramifiedCtx(7, 2, 5)
    a, b = ctx.from_int(x), ctx.from_int(y)
    assert (a + b).eq_to_prec(b + a)
    assert (a * b).eq_to_prec(b * a)
    assert ((a + b) - b - a).valuation_ge(4)
    total = ctx.from_int(x + y)
    assert (a + b).eq_to_prec(total)


# -- the interval rules against their vector-path form -----------------------------
#
# ``normalize``, ``mul_states`` and ``add_states`` read p^r from the context's
# table ``pows`` and take a single integer at k = 1.  These oracles are the
# same rules on the vector path at every k, with p** on every call and the
# schoolbook product; every state they return must be the same.


def oracle_normalize(ctx, scale, vec, rel):
    if rel > ctx.A:
        rel = ctx.A
    if rel <= 0:
        return scale + rel, ctx.zero_vec, 0
    p = ctx.p
    vec = tuple([c % p**rel for c in vec])
    j = min([int_val(c, p) for c in vec if c], default=rel)
    if j >= rel:
        return scale + rel, ctx.zero_vec, 0
    return scale + j, tuple([c // p**j for c in vec]), rel - j


def oracle_mul_states(ctx, a, b):
    if a is None or b is None:
        return None
    (sa, va, ra), (sb, vb, rb) = a, b
    if not ra or not rb:
        return sa + sb, ctx.zero_vec, 0
    r = min(ra, rb)
    return sa + sb, _naive_poly_mulmod(va, vb, ctx.hbar, ctx.p**r), r


def oracle_add_states(ctx, a, b):
    if a is None or b is None:
        return b if a is None else a
    (sa, va, ra), (sb, vb, rb) = a, b
    n = min(sa + ra, sb + rb)
    if sa <= sb:
        f = ctx.p ** (sb - sa)
        return oracle_normalize(ctx, sa, [x + f * y for x, y in zip(va, vb)], n - sa)
    f = ctx.p ** (sa - sb)
    return oracle_normalize(ctx, sb, [f * x + y for x, y in zip(va, vb)], n - sb)


def oracle_neg_state(ctx, a):
    # ``WittApprox.__neg__`` as it was written before it wrapped ``neg_state``
    if a is None or a[2] == 0:
        return a
    return a[0], tuple((-c) % ctx.p ** a[2] for c in a[1]), a[2]


@st.composite
def rule_cases(draw):
    """A context, two states and a ``normalize`` input.  States are exact
    zeros, approximate zeros (prec 0) or unreduced vectors with entries of
    either sign and high powers of p, at scales up to 2A + 2 apart, so sums
    run past the table of p^0..p^A."""
    p = draw(st.sampled_from((3, 5, 7, 11, 13)))
    k = draw(st.integers(1, 3))
    A = draw(st.integers(1, 8))
    ctx = UnramifiedCtx(p, k, A)
    entry = st.builds(lambda c, e: c * p**e, st.integers(-p**A, p**A), st.integers(0, A + 1))
    vec = st.one_of(st.just(ctx.zero_vec), st.tuples(*[entry] * k))
    scales = st.integers(-A - 1, A + 1)

    def state():
        kind = draw(st.sampled_from(("exact", "approx", "vector", "vector")))
        if kind == "exact":
            return None
        if kind == "approx":
            return draw(scales), ctx.zero_vec, 0
        return draw(scales), draw(vec), draw(st.integers(1, A))

    return ctx, state(), state(), (draw(scales), draw(vec), draw(st.integers(-2, A + 3)))


@settings(max_examples=500, deadline=None)
@given(rule_cases())
def test_interval_rules_return_the_states_of_the_vector_path(case):
    ctx, a, b, (scale, vec, rel) = case
    assert normalize(ctx, scale, vec, rel) == oracle_normalize(ctx, scale, vec, rel)
    assert normalize(ctx, scale, list(vec), rel) == oracle_normalize(ctx, scale, vec, rel)
    assert mul_states(ctx, a, b) == oracle_mul_states(ctx, a, b)
    assert add_states(ctx, a, b) == oracle_add_states(ctx, a, b)
    assert add_states(ctx, b, a) == oracle_add_states(ctx, b, a)
    assert neg_state(ctx, a) == oracle_neg_state(ctx, a)


@pytest.mark.parametrize("k", (1, 2, 3))
def test_a_sum_whose_scales_differ_by_more_than_a(k):
    # the scale gap d = 2A + 1 is past the table of p^0..p^A; the sum takes
    # p^A there, as p^d the term vanishes mod p^rel, rel <= A
    ctx = UnramifiedCtx(5, k, 3)
    unit = (1,) + (2,) * (k - 1)
    low, high = (0, unit, 3), (7, unit, 3)
    assert add_states(ctx, low, high) == oracle_add_states(ctx, low, high) == low
    assert add_states(ctx, high, low) == low


# -- exact zero vs approximate zero ------------------------------------------------


def test_zero_state_distinction():
    ctx = UnramifiedCtx(5, 1, 4)
    exact = ctx.exact_zero()
    approx = ctx.zero_approx(4)
    assert exact.exact and not approx.exact
    assert exact.valuation() == math.inf
    assert approx.valuation_ge(4)
    with pytest.raises(PrecisionError):
        approx.valuation_ge(5)
    assert approx.valuation_ge(3)


def test_cancellation_produces_approx_zero_not_exact():
    ctx = UnramifiedCtx(5, 1, 4)
    diff = ctx.from_int(7) - ctx.from_int(7)
    assert not diff.exact
    assert diff.valuation_ge(4)


def test_precision_is_monotone_nonincreasing():
    ctx = UnramifiedCtx(5, 2, 5)
    rng = SplitMix64(3)
    for _ in range(300):
        va = tuple(rng.below(ctx.pA) for _ in range(2))
        vb = tuple(rng.below(ctx.pA) for _ in range(2))
        a, b = ctx.from_vec(va), ctx.from_vec(vb)
        if a.exact or b.exact:
            continue
        s = a + b
        if not s.exact:
            assert s.abs_prec <= min(a.abs_prec, b.abs_prec)
        m = a * b
        if m.prec:
            assert m.abs_prec <= min(
                a.abs_prec + b.min_valuation, b.abs_prec + a.min_valuation
            )


# -- Teichmuller lifts --------------------------------------------------------------


@pytest.mark.parametrize(
    "p,k",
    [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (7, 1), (7, 2), (11, 1),
     (11, 2), (13, 1)],
)
def test_teichmuller_exhaustive(p, k):
    # p^k <= 121 throughout: root-of-unity property and residue round-trip
    ctx = UnramifiedCtx(p, k, 5)
    field = ctx.residue_field
    q = p**k
    for a in field.units():
        t = teichmuller(ctx, a)
        assert (t ** (q - 1)).eq_to_prec(ctx.one()), (p, k, a)
        assert residue(t) == a


def _teichmuller_by_a_steps(ctx, a):
    """The lift by A applications of x -> x^q, one digit per step at least."""
    q, pm = ctx.p**ctx.k, ctx.pA
    vec = tuple(c % pm for c in a.coeffs)
    for _ in range(ctx.A):
        vec = poly_pow(vec, q, ctx.hbar, pm)
    return vec


TEICH_FIELDS = [(13, 1), (7, 2), (5, 3), (3, 4), (3, 5)]  # one per k = 1..5


@pytest.mark.parametrize("p, k", TEICH_FIELDS)
def test_teichmuller_matches_the_a_step_loop(p, k):
    field = UnramifiedCtx(p, k, 1).residue_field
    q = p**k
    units = list(field.units())
    for A in sorted({1, 2, k, k + 1, 9, 30}):
        ctx = UnramifiedCtx(p, k, A)
        # every unit in the small cells, an even spread of about 25 in the large
        step = 1 if A * q <= 600 else max(1, len(units) // 25)
        for a in units[::step]:
            t = teichmuller(ctx, a)
            assert t.coeffs == _teichmuller_by_a_steps(ctx, a), (p, k, A, a)
            assert (t.scale, t.prec, t.exact) == (0, A, False)
            assert poly_pow(t.coeffs, q, ctx.hbar, ctx.pA) == t.coeffs  # T^q = T
            assert residue(t) == a


@pytest.mark.parametrize("p, k", TEICH_FIELDS)
def test_teichmuller_takes_ceil_a_minus_one_over_k_steps(monkeypatch, p, k):
    # a deterministic count, not a timing: each q-th power gains k digits
    calls = []

    def counted(a, e, h, pm):
        calls.append(e)
        return poly_pow(a, e, h, pm)

    monkeypatch.setattr(padic_core, "poly_pow", counted)
    a = UnramifiedCtx(p, k, 1).residue_field.from_int(2)
    for A in (1, 2, k, k + 1, 2 * k + 1, 9, 30):
        calls.clear()
        teichmuller(UnramifiedCtx(p, k, A), a)
        assert calls == [p**k] * math.ceil((A - 1) / k), (A, len(calls))


@pytest.mark.parametrize("p, k", WALK_FIELDS)
def test_teichmuller_powers_are_the_lifts_of_the_walk(p, k):
    field = UnramifiedCtx(p, k, 1).residue_field
    units = [field.element(c) for c in unit_powers(p, k)]
    for A in sorted({1, 2, k, k + 1, 9}):
        ctx = UnramifiedCtx(p, k, A)
        lifts = teichmuller_powers(ctx)
        assert len(lifts) == len(units)
        for a, t in zip(units, lifts):
            assert t == teichmuller(ctx, a), (p, k, A, a)


def _random_values(ctx, rng, count):
    """Random units, non-units and short-precision values of ctx."""
    out = []
    for i in range(count):
        vec = tuple(rng.below(ctx.pA) for _ in range(ctx.k))
        out.append(ctx.make(i % 3, vec, ctx.A - i % 4))
    return out


@pytest.mark.parametrize("p, k", WALK_FIELDS)
def test_witt_frobenius_is_the_p_power_map_on_roots_of_unity(p, k):
    for A in sorted({1, 2, k + 1, 9}):
        ctx = UnramifiedCtx(p, k, A)
        for t in teichmuller_powers(ctx):
            assert t.frobenius() == t**p, (p, k, A, t)


@pytest.mark.parametrize("p, k", WALK_FIELDS)
def test_witt_frobenius_is_a_ring_automorphism_of_order_k(p, k):
    ctx = UnramifiedCtx(p, k, 9)
    rng = SplitMix64(31 * p + k)
    values = _random_values(ctx, rng, 40)
    for x, y in zip(values, values[1:]):
        assert (x * y).frobenius() == x.frobenius() * y.frobenius(), (x, y)
        assert (x + y).frobenius() == x.frobenius() + y.frobenius(), (x, y)
    for x in values:
        fx = x.frobenius()
        assert (fx.scale, fx.prec) == (x.scale, x.prec)
        if x.scale == 0:
            assert residue(fx) == frobenius(residue(x))
        for _ in range(k - 1):
            fx = fx.frobenius()
        assert fx == x, x  # phi^k = id
    for c in (1, -1, p, 2 * p + 1, 1 - p**3):
        assert ctx.from_int(c).frobenius() == ctx.from_int(c)  # phi fixes Z_p
    for z in (ctx.exact_zero(), ctx.zero_approx(4)):
        assert z.frobenius() == z


def test_teichmuller_frozen_example():
    # the lift of 2 in Z_5 is 7 mod 25
    ctx = UnramifiedCtx(5, 1, 4)
    t = teichmuller(ctx, ctx.residue_field.element(2))
    assert t.coeffs[0] % 25 == 7
    assert (t**5).eq_to_prec(t)


def test_teichmuller_of_minus_one():
    ctx = UnramifiedCtx(7, 1, 5)
    t = teichmuller(ctx, ctx.residue_field.element(6))
    assert (t + ctx.one()).valuation_ge(5)


def test_teichmuller_rejects_zero():
    ctx = UnramifiedCtx(5, 1, 4)
    with pytest.raises(ValueError):
        teichmuller(ctx, ctx.residue_field.zero())


# -- the logarithm on 1 + pW ---------------------------------------------------------


def test_log_frozen_value():
    # exact rational partial sum 5 - 25/2 + 125/3 reduced mod 625 is 555
    ctx = UnramifiedCtx(5, 1, 4)
    lg = padic_log(ctx.from_int(6))
    assert (lg - ctx.from_int(555)).valuation_ge(4)


def test_log_of_one_is_zero():
    ctx = UnramifiedCtx(5, 1, 4)
    assert padic_log(ctx.one()).valuation_ge(4)


def test_log_leading_term():
    for p in (5, 7, 11):
        ctx = UnramifiedCtx(p, 1, 4)
        lg = padic_log(ctx.from_int(1 + p))
        assert (lg - ctx.from_int(p)).valuation_ge(2)


def test_log_requires_one_mod_p():
    ctx = UnramifiedCtx(5, 1, 4)
    with pytest.raises(ValueError):
        padic_log(ctx.from_int(2))


def test_log_is_a_homomorphism_randomized():
    ctx = UnramifiedCtx(5, 2, 5)
    rng = SplitMix64(17)
    count = 0
    while count < 220:
        vu = tuple(rng.below(ctx.pA) for _ in range(2))
        vv = tuple(rng.below(ctx.pA) for _ in range(2))
        u = ctx.one() + ctx.from_vec(vu).shift(1)
        v = ctx.one() + ctx.from_vec(vv).shift(1)
        count += 1
        lhs = padic_log(u * v)
        rhs = padic_log(u) + padic_log(v)
        assert (lhs - rhs).valuation_ge(min(lhs.abs_prec, rhs.abs_prec))


def test_log_kills_teichmuller_part():
    # (p^k - 1) log(alpha(1+pw)) = log((alpha(1+pw))^{p^k-1}) and the right
    # side has trivial root-of-unity part
    ctx = UnramifiedCtx(5, 2, 5)
    field = ctx.residue_field
    rng = SplitMix64(23)
    q = 25
    for _ in range(20):
        zbar = field.from_int(2 + rng.below(q - 2))
        alpha = teichmuller(ctx, zbar)
        w = ctx.from_vec(tuple(rng.below(ctx.pA) for _ in range(2)))
        z = alpha * (ctx.one() + w.shift(1))
        lhs = padic_log(z ** (q - 1))
        rhs = padic_log(ctx.one() + w.shift(1)) * (q - 1)
        assert (lhs - rhs).valuation_ge(min(lhs.abs_prec, rhs.abs_prec))


# ``padic_log`` runs its loop on raw states; the operator loop it replaced is
# the oracle, with the negation as ``WittApprox.__neg__`` wrote it then.


def operator_neg(x):
    if x.exact or x.prec == 0:
        return x
    pm = x.ctx.p**x.prec
    return WittApprox(x.ctx, x.scale, tuple((-c) % pm for c in x.coeffs), x.prec, False)


def oracle_padic_log(u):
    ctx = u.ctx
    t = u + operator_neg(ctx.one())
    if not t.valuation_ge(1):
        raise ValueError("padic_log requires u = 1 mod p")
    if t.exact:
        return ctx.exact_zero()
    acc = ctx.exact_zero()
    power = ctx.one()
    for m in range(1, padic_core._log_cutoff(ctx.p, ctx.A) + 1):
        power = power * t
        term = power * ctx.inv_int(m)
        acc = acc + (term if m % 2 else operator_neg(term))
    return acc


def count_values(monkeypatch) -> dict:
    """Count ``WittApprox.__init__`` and ``UnramifiedCtx.wrap`` calls."""
    counts = {"init": 0, "wrap": 0}
    init, wrap = WittApprox.__init__, UnramifiedCtx.wrap

    def counted_init(self, *args):
        counts["init"] += 1
        init(self, *args)

    def counted_wrap(self, state):
        counts["wrap"] += 1
        return wrap(self, state)

    monkeypatch.setattr(WittApprox, "__init__", counted_init)
    monkeypatch.setattr(UnramifiedCtx, "wrap", counted_wrap)
    return counts


@pytest.mark.parametrize("k", (1, 2, 3))
def test_the_log_builds_only_its_result(monkeypatch, k):
    # a deterministic count: the operator loop built 3 values per odd term and
    # 4 per even one
    ctx = UnramifiedCtx(7, k, 6)
    u = ctx.one() + ctx.from_vec((3,) + (4,) * (k - 1)).shift(1)
    want = oracle_padic_log(u)  # fills the context's cache of 1/m
    counts = count_values(monkeypatch)
    got = padic_log(u)
    assert counts == {"init": 1, "wrap": 1}
    assert got.to_record() == want.to_record()


def test_one_and_each_rational_are_built_once_per_context():
    ctx = UnramifiedCtx(5, 2, 4)
    assert ctx.one() is ctx.one()
    assert ctx.one().state == (0, (1, 0), 4)
    for q in (Fraction(-7, 3), Fraction(1, 2), 3, 0, Fraction(0)):
        value = ctx.from_rational(q)
        assert ctx.from_rational(q) is value
        f = Fraction(q)
        assert value.to_record() == (ctx.from_int(f.numerator) * ctx.inv_int(f.denominator)).to_record()
    assert ctx.from_rational(0).exact
    with pytest.raises(ValueError):
        ctx.from_rational(Fraction(1, 5))


# -- residue map ------------------------------------------------------------------


def test_residue_examples():
    ctx = UnramifiedCtx(5, 2, 4)
    assert residue(ctx.one()).is_one()
    assert residue(ctx.from_int(25)).is_zero()
    with pytest.raises(ValueError):
        residue(ctx.from_int(3).shift(-1))


# -- serialization ------------------------------------------------------------------


def test_record_round_trip():
    from polylogp.report import witt_from_record

    ctx = UnramifiedCtx(7, 2, 5)
    value = ctx.from_vec((12, 40)).shift(-2)
    rec = value.to_record()
    assert rec["p"] == 7 and rec["k"] == 2 and rec["A"] == 5
    back = witt_from_record(ctx, rec)
    assert back.eq_to_prec(value) and back.scale == value.scale


# -- scalar capped-relative values cross-check the vector implementation ------------


@dataclass(frozen=True)
class PadicApprox:
    """p^v * unit + O(p^{v+r}) in Q_p, unit coprime to p (or a tagged zero).

    Independent of WittApprox (no shared arithmetic), so the two can serve
    as cross-checking implementations at k = 1.
    """

    p: int
    v: int
    unit: int
    r: int
    exact: bool = False

    @staticmethod
    def exact_zero(p: int) -> "PadicApprox":
        return PadicApprox(p, 0, 0, 0, True)

    @staticmethod
    def from_int(p: int, c: int, r: int) -> "PadicApprox":
        if c == 0:
            return PadicApprox.exact_zero(p)
        v = int_val(c, p)
        return PadicApprox(p, v, (c // p**v) % p**r, r)

    @staticmethod
    def from_rational(p: int, q: Fraction, r: int) -> "PadicApprox":
        q = Fraction(q)
        if q == 0:
            return PadicApprox.exact_zero(p)
        vn = int_val(q.numerator, p)
        vd = int_val(q.denominator, p)
        pr = p**r
        num = (q.numerator // p**vn) % pr
        den = (q.denominator // p**vd) % pr
        return PadicApprox(p, vn - vd, num * pow(den, -1, pr) % pr, r)

    @property
    def abs_prec(self):
        return None if self.exact else self.v + self.r

    def _norm(self, v: int, x: int, digits: int) -> "PadicApprox":
        if digits <= 0:
            return PadicApprox(self.p, v + digits, 0, 0)
        pm = self.p**digits
        x %= pm
        if x == 0:
            return PadicApprox(self.p, v + digits, 0, 0)
        j = int_val(x, self.p)
        return PadicApprox(self.p, v + j, (x // self.p**j) % self.p ** (digits - j),
                           digits - j)

    def __add__(self, other: "PadicApprox") -> "PadicApprox":
        assert self.p == other.p
        if self.exact:
            return other
        if other.exact:
            return self
        n = min(self.abs_prec, other.abs_prec)
        if self.r == 0 and other.r == 0:
            return PadicApprox(self.p, n, 0, 0)
        s = min(self.v, other.v) if (self.r and other.r) else (
            self.v if self.r else other.v
        )
        if s >= n:
            return PadicApprox(self.p, n, 0, 0)
        x = 0
        for t in (self, other):
            if t.r:
                x += t.unit * self.p ** (t.v - s)
        return self._norm(s, x, n - s)

    def __neg__(self) -> "PadicApprox":
        if self.exact or self.r == 0:
            return self
        return PadicApprox(self.p, self.v, (-self.unit) % self.p**self.r, self.r)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "PadicApprox") -> "PadicApprox":
        assert self.p == other.p
        if self.exact or other.exact:
            return PadicApprox.exact_zero(self.p)
        if self.r == 0 or other.r == 0:
            return PadicApprox(self.p, self.v + other.v, 0, 0)
        r = min(self.r, other.r)
        return PadicApprox(self.p, self.v + other.v,
                           (self.unit * other.unit) % self.p**r, r)

    def inv(self) -> "PadicApprox":
        if self.exact:
            raise ZeroDivisionError("inverse of exact zero")
        if self.r == 0:
            raise PrecisionError("cannot invert a value indistinguishable from zero")
        return PadicApprox(self.p, -self.v, pow(self.unit, -1, self.p**self.r), self.r)

    def valuation_ge(self, n: int) -> bool:
        if self.exact:
            return True
        if self.r > 0:
            return self.v >= n
        if self.v >= n:
            return True
        raise PrecisionError(f"cannot certify valuation >= {n}")

    def to_witt(self, ctx: UnramifiedCtx) -> WittApprox:
        if self.p != ctx.p:
            raise ValueError("prime mismatch")
        if self.exact:
            return ctx.exact_zero()
        if self.r == 0:
            return ctx.zero_approx(self.v)
        return ctx.make(self.v, (self.unit,) + (0,) * (ctx.k - 1), self.r)



def test_padic_approx_matches_witt_at_degree_one():
    p, r = 7, 5
    ctx = UnramifiedCtx(p, 1, r)
    rng = SplitMix64(31)
    for _ in range(1000):
        x = rng.below(p**r) - p**r // 2
        y = rng.below(p**r) - p**r // 2
        a_s, b_s = PadicApprox.from_int(p, x, r), PadicApprox.from_int(p, y, r)
        a_w, b_w = ctx.from_int(x), ctx.from_int(y)
        for scalar, witt in (
            (a_s + b_s, a_w + b_w),
            (a_s * b_s, a_w * b_w),
            (a_s - b_s, a_w - b_w),
        ):
            if scalar.exact:
                assert witt.valuation_ge(witt.abs_prec if not witt.exact else 1)
                continue
            if scalar.r == 0:
                assert witt.valuation_ge(min(scalar.v, witt.abs_prec))
                continue
            assert not witt.exact
            assert scalar.v == witt.valuation()
            shared = min(scalar.abs_prec, witt.abs_prec)
            assert (witt - scalar.to_witt(ctx)).valuation_ge(shared)


def test_padic_approx_rational():
    x = PadicApprox.from_rational(7, Fraction(3, 14), 5)  # v_7 = -1
    assert x.v == -1
    y = PadicApprox.from_rational(7, Fraction(14, 3), 5)
    assert (x * y - PadicApprox.from_int(7, 1, 5)).valuation_ge(4)
