"""Capped-precision ring arithmetic against independent exact oracles."""

import math
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylogp.padic_core import (
    PrecisionError,
    UnramifiedCtx,
    WittApprox,
    int_val,
    padic_log,
    residue,
    teichmuller,
)
from polylogp.rng import SplitMix64


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
        assert (s - ctx.from_vec(total)).is_zero_to(A)
        m = a * b
        prod = _naive_poly_mulmod(va, vb, ctx.hbar, pA)
        assert (m - ctx.from_vec(prod)).is_zero_to(A)
        q = a / b
        assert (q * b - a).is_zero_to(A)
        # r = 1: residue-field products, and WittApprox products at one digit
        abar, bbar = (tuple(c % p for c in v) for v in (va, vb))
        prod1 = _naive_poly_mulmod(abar, bbar, ctx.hbar, p)
        assert (field.element(abar) * field.element(bbar)).coeffs == prod1
        assert (ctx.make(0, va, 1) * ctx.make(0, vb, 1)).coeffs == prod1
        inv1 = field.element(abar).inverse().coeffs
        assert ctx.vec_inv(va, 1) == inv1
        assert _naive_poly_mulmod(abar, inv1, ctx.hbar, p) == field.one().coeffs


@pytest.mark.parametrize("p,k", [(13, 2), (7, 3), (5, 3), (3, 5)])
def test_vec_inv_inverts_mod_every_precision(p, k):
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
            assert _naive_poly_mulmod(a, ctx.vec_inv(va, r), ctx.hbar, pr) == one


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


@settings(max_examples=60, deadline=None)
@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_ring_laws_on_embedded_integers(x, y):
    ctx = UnramifiedCtx(7, 2, 5)
    a, b = ctx.from_int(x), ctx.from_int(y)
    assert (a + b).eq_to_prec(b + a)
    assert (a * b).eq_to_prec(b * a)
    assert ((a + b) - b - a).is_zero_to(4)
    total = ctx.from_int(x + y)
    assert (a + b).eq_to_prec(total)


# -- exact zero vs approximate zero ------------------------------------------------


def test_zero_state_distinction():
    ctx = UnramifiedCtx(5, 1, 4)
    exact = ctx.exact_zero()
    approx = ctx.zero_approx(4)
    assert exact.is_exact_zero and not approx.is_exact_zero
    assert exact.valuation() == math.inf
    assert approx.valuation_ge(4)
    with pytest.raises(PrecisionError):
        approx.valuation_ge(5)
    assert approx.is_zero_to(3)
    with pytest.raises(PrecisionError):
        approx.is_zero_to(5)


def test_cancellation_produces_approx_zero_not_exact():
    ctx = UnramifiedCtx(5, 1, 4)
    diff = ctx.from_int(7) - ctx.from_int(7)
    assert not diff.is_exact_zero
    assert diff.is_zero_to(4)


def test_precision_is_monotone_nonincreasing():
    ctx = UnramifiedCtx(5, 2, 5)
    rng = SplitMix64(3)
    for _ in range(300):
        va = tuple(rng.below(ctx.pA) for _ in range(2))
        vb = tuple(rng.below(ctx.pA) for _ in range(2))
        a, b = ctx.from_vec(va), ctx.from_vec(vb)
        if a.is_exact_zero or b.is_exact_zero:
            continue
        s = a + b
        if not s.is_exact_zero:
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


def test_teichmuller_frozen_example():
    # the lift of 2 in Z_5 is 7 mod 25
    ctx = UnramifiedCtx(5, 1, 4)
    t = teichmuller(ctx, ctx.residue_field.element(2))
    assert t.coeffs[0] % 25 == 7
    assert (t**5).eq_to_prec(t)


def test_teichmuller_of_minus_one():
    ctx = UnramifiedCtx(7, 1, 5)
    t = teichmuller(ctx, ctx.residue_field.element(6))
    assert (t + ctx.one()).is_zero_to(5)


def test_teichmuller_rejects_zero():
    ctx = UnramifiedCtx(5, 1, 4)
    with pytest.raises(ValueError):
        teichmuller(ctx, ctx.residue_field.zero())


# -- the logarithm on 1 + pW ---------------------------------------------------------


def test_log_frozen_value():
    # exact rational partial sum 5 - 25/2 + 125/3 reduced mod 625 is 555
    ctx = UnramifiedCtx(5, 1, 4)
    lg = padic_log(ctx.from_int(6))
    assert (lg - ctx.from_int(555)).is_zero_to(4)


def test_log_of_one_is_zero():
    ctx = UnramifiedCtx(5, 1, 4)
    assert padic_log(ctx.one()).is_zero_to(4)


def test_log_leading_term():
    for p in (5, 7, 11):
        ctx = UnramifiedCtx(p, 1, 4)
        lg = padic_log(ctx.from_int(1 + p))
        assert (lg - ctx.from_int(p)).is_zero_to(2)


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
        assert (lhs - rhs).is_zero_to(min(lhs.abs_prec, rhs.abs_prec))


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
        assert (lhs - rhs).is_zero_to(min(lhs.abs_prec, rhs.abs_prec))


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

    def is_zero_to(self, n: int) -> bool:
        if self.exact:
            return True
        if self.r > 0:
            return self.v >= n
        if self.v >= n:
            return True
        raise PrecisionError(f"cannot decide vanishing mod p^{n}")

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
                assert witt.is_zero_to(witt.abs_prec if not witt.exact else 1)
                continue
            if scalar.r == 0:
                assert witt.is_zero_to(min(scalar.v, witt.abs_prec))
                continue
            assert not witt.exact
            assert scalar.v == witt.valuation()
            shared = min(scalar.abs_prec, witt.abs_prec)
            assert (witt - scalar.to_witt(ctx)).is_zero_to(shared)


def test_padic_approx_rational():
    x = PadicApprox.from_rational(7, Fraction(3, 14), 5)  # v_7 = -1
    assert x.v == -1
    y = PadicApprox.from_rational(7, Fraction(14, 3), 5)
    assert (x * y - PadicApprox.from_int(7, 1, 5)).is_zero_to(4)
