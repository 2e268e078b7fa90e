"""Capped-precision arithmetic in Z_p, Q_p and W(F_{p^k}) mod p^A.

Values are tracked as intervals p^s * u + O(p^N): a unit representative with
an explicit certified absolute precision.  Three states are distinguished:

* exact zero            -- provably 0 (infinite valuation),
* approximate zero      -- 0 + O(p^N): nothing known below p^N,
* unit form             -- p^scale * u with u a unit mod p^prec.

The distinction matters for valuation assertions: a unit form certifies its
valuation exactly, an approximate zero only certifies a lower bound, and
comparisons are always "equal to certified precision".  No operation returns
digits beyond what it can certify.

The unit vectors are multiplied and powered by ``finite_poly.poly_mul`` and
``poly_pow`` modulo p^r: the residue field F_{p^k} uses the same kernel with
r = 1, so the two layers share one implementation of the ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .finite_poly import FiniteField, FpkElement, poly_mul, poly_pow


class PrecisionError(ArithmeticError):
    """A certification was requested that the tracked precision cannot give."""


def int_val(c: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if c == 0:
        raise ValueError("valuation of 0")
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


class UnramifiedCtx:
    """W(F_{p^k}) mod p^A in the polynomial basis (Z/p^A)[x]/(hbar).

    ``hbar`` is the lowest-lexicographic monic irreducible of degree k over
    F_p, lifted coefficient-wise with entries in [0, p), so a context is fully
    determined by (p, k, A) and runs reproduce exactly.
    """

    def __init__(self, p: int, k: int, A: int):
        self.residue_field = FiniteField(p, k)  # validates p and k
        if A < 1:
            raise ValueError(f"precision must be >= 1, got {A}")
        self.p = p
        self.k = k
        self.A = A
        self.hbar = self.residue_field.hbar  # (c_0, ..., c_{k-1}, 1)
        self.pA = p**A
        self._pow_p = [p**i for i in range(A + 1)]

    def __eq__(self, other):
        return (
            isinstance(other, UnramifiedCtx)
            and (self.p, self.k, self.A) == (other.p, other.k, other.A)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.A))

    def __repr__(self):
        return f"UnramifiedCtx(p={self.p}, k={self.k}, A={self.A})"

    # -- raw polynomial-basis arithmetic on coefficient tuples -------------

    def vec_mul(self, a: tuple, b: tuple, pm: int) -> tuple:
        """a * b mod (p^r, hbar) for pm = p^r; the unit-cost benchmark times it."""
        return poly_mul(a, b, self.hbar, pm)

    def vec_inv(self, a: tuple, r: int) -> tuple:
        """Inverse of a unit vector mod p^r: residue-field inverse, Newton-lifted."""
        p, h = self.p, self.hbar
        pm = p**r
        abar = tuple([c % p for c in a])
        if not any(abar):
            raise ZeroDivisionError("inverse of a vector that is 0 mod p")
        x = poly_pow(abar, p**self.k - 2, h, p)
        # x_{i+1} = x_i (2 - a x_i) doubles the number of correct digits
        prec = 1
        while prec < r:
            ax = poly_mul(a, x, h, pm)
            two_minus = ((2 - ax[0]) % pm, *[-c % pm for c in ax[1:]])
            x = poly_mul(x, two_minus, h, pm)
            prec *= 2
        return x

    # -- constructors -------------------------------------------------------

    def make(self, scale: int, vec, rel: int) -> "WittApprox":
        """Normalize p^scale * vec + O(p^{scale+rel}) into canonical form."""
        rel = min(rel, self.A)
        if rel <= 0:
            return WittApprox(self, scale + rel, _ZVEC[self.k], 0, False)
        pm = self.p**rel
        vec = tuple(c % pm for c in vec)
        j = rel
        for c in vec:
            if c:
                j = min(j, int_val(c, self.p))
                if j == 0:
                    break
        if j >= rel:
            return WittApprox(self, scale + rel, _ZVEC[self.k], 0, False)
        if j:
            pj = self.p**j
            pmj = self.p ** (rel - j)
            vec = tuple((c // pj) % pmj for c in vec)
        return WittApprox(self, scale + j, vec, rel - j, False)

    def from_int(self, c: int) -> "WittApprox":
        if c == 0:
            return self.exact_zero()
        j = int_val(c, self.p)
        u = c // self._pow(j)
        vec = (u % self.pA,) + (0,) * (self.k - 1)
        return WittApprox(self, j, vec, self.A, False)

    def from_rational(self, q: Fraction | int) -> "WittApprox":
        q = Fraction(q)
        if q.denominator % self.p == 0:
            raise ValueError(
                f"denominator {q.denominator} is divisible by p={self.p}"
            )
        if q == 0:
            return self.exact_zero()
        return self.from_int(q.numerator) * self.from_int(q.denominator).inv()

    def from_vec(self, vec, scale: int = 0) -> "WittApprox":
        """Unit-or-zero element from k residues mod p^A, known to full precision."""
        return self.make(scale, tuple(vec), self.A)

    def exact_zero(self) -> "WittApprox":
        return WittApprox(self, 0, _ZVEC[self.k], 0, True)

    def zero_approx(self, abs_prec: int) -> "WittApprox":
        return WittApprox(self, abs_prec, _ZVEC[self.k], 0, False)

    def one(self) -> "WittApprox":
        return self.from_int(1)

    def _pow(self, j: int) -> int:
        if 0 <= j <= self.A:
            return self._pow_p[j]
        return self.p**j

    def metadata(self) -> dict:
        return {"p": self.p, "k": self.k, "A": self.A, "hbar": list(self.hbar)}


class _ZeroVecs(dict):
    def __missing__(self, k):
        self[k] = (0,) * k
        return self[k]


_ZVEC = _ZeroVecs()


@dataclass(frozen=True)
class WittApprox:
    """p^scale * coeffs + O(p^{scale+prec}), coeffs a unit vector mod p^prec.

    ``prec == 0`` encodes an approximate zero O(p^scale); ``exact`` a proven
    zero.  Instances are immutable; all operations return new values.
    """

    ctx: UnramifiedCtx
    scale: int
    coeffs: tuple
    prec: int
    exact: bool

    # -- state predicates ----------------------------------------------------

    @property
    def is_exact_zero(self) -> bool:
        return self.exact

    @property
    def abs_prec(self):
        """Certified absolute precision (None means exact)."""
        return None if self.exact else self.scale + self.prec

    def valuation(self):
        """Exact p-adic valuation; raises if only a lower bound is known."""
        if self.exact:
            return math.inf
        if self.prec == 0:
            raise PrecisionError(
                f"valuation undetermined: value is O(p^{self.scale})"
            )
        return self.scale

    @property
    def min_valuation(self):
        """Certified lower bound on the valuation (inf for exact zero)."""
        if self.exact:
            return math.inf
        return self.scale

    def valuation_ge(self, n: int) -> bool:
        """Certified test v_p(self) >= n; raises when undecidable."""
        if self.exact:
            return True
        if self.prec > 0:
            return self.scale >= n
        if self.scale >= n:
            return True
        raise PrecisionError(
            f"cannot certify valuation >= {n}: value is O(p^{self.scale})"
        )

    def is_zero_to(self, n: int) -> bool:
        """Certified test self = 0 mod p^n; raises when undecidable."""
        if self.exact:
            return True
        if self.prec > 0:
            return self.scale >= n
        if self.scale >= n:
            return True
        raise PrecisionError(
            f"cannot decide vanishing mod p^{n}: value is O(p^{self.scale})"
        )

    # -- ring operations -----------------------------------------------------

    def _check(self, other: "WittApprox"):
        if self.ctx != other.ctx:
            raise ValueError("operands from different contexts")

    def __add__(self, other: "WittApprox") -> "WittApprox":
        self._check(other)
        ctx = self.ctx
        if self.exact:
            return other
        if other.exact:
            return self
        a, b = self, other
        na, nb = a.abs_prec, b.abs_prec
        n = min(na, nb)
        if a.prec == 0 and b.prec == 0:
            return ctx.zero_approx(n)
        if a.prec == 0:
            a, b = b, a
        if b.prec == 0:
            # unit + O(p^n)
            if a.scale >= n:
                return ctx.zero_approx(n)
            return ctx.make(a.scale, a.coeffs, n - a.scale)
        s = min(a.scale, b.scale)
        digits = n - s
        pm = ctx.p**digits
        fa = ctx._pow(a.scale - s) if a.scale > s else 1
        fb = ctx._pow(b.scale - s) if b.scale > s else 1
        vec = tuple((fa * x + fb * y) % pm for x, y in zip(a.coeffs, b.coeffs))
        return ctx.make(s, vec, digits)

    def __neg__(self) -> "WittApprox":
        if self.exact or self.prec == 0:
            return self
        pm = self.ctx.p**self.prec
        return WittApprox(
            self.ctx, self.scale, tuple((-c) % pm for c in self.coeffs), self.prec, False
        )

    def __sub__(self, other: "WittApprox") -> "WittApprox":
        return self + (-other)

    def __mul__(self, other) -> "WittApprox":
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        self._check(other)
        ctx = self.ctx
        if self.exact or other.exact:
            return ctx.exact_zero()
        if self.prec == 0 or other.prec == 0:
            return ctx.zero_approx(self.min_valuation + other.min_valuation)
        r = min(self.prec, other.prec)
        vec = poly_mul(self.coeffs, other.coeffs, ctx.hbar, ctx.p**r)
        return WittApprox(ctx, self.scale + other.scale, vec, r, False)

    __rmul__ = __mul__

    def inv(self) -> "WittApprox":
        if self.exact:
            raise ZeroDivisionError("inverse of exact zero")
        if self.prec == 0:
            raise PrecisionError(
                f"cannot invert: value indistinguishable from zero, O(p^{self.scale})"
            )
        ctx = self.ctx
        vec = ctx.vec_inv(self.coeffs, self.prec)
        return WittApprox(ctx, -self.scale, vec, self.prec, False)

    def __truediv__(self, other: "WittApprox") -> "WittApprox":
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        return self * other.inv()

    def __pow__(self, e: int) -> "WittApprox":
        if e < 0:
            return self.inv() ** (-e)
        result = self.ctx.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def shift(self, j: int) -> "WittApprox":
        """Multiply by p^j (exact: adjusts the scale only)."""
        if self.exact:
            return self
        return WittApprox(self.ctx, self.scale + j, self.coeffs, self.prec, self.exact)

    def cap_abs(self, n: int) -> "WittApprox":
        """Absorb an O(p^n) error term: the result certifies at most n digits.

        Exact zeros are downgraded too, because the error term is about the
        quantity being approximated, not about the computed representative.
        """
        if self.exact:
            return self.ctx.zero_approx(n)
        if self.abs_prec <= n:
            return self
        if self.prec == 0:
            return self.ctx.zero_approx(min(self.scale, n))
        if self.scale >= n:
            return self.ctx.zero_approx(n)
        return self.ctx.make(self.scale, self.coeffs, n - self.scale)

    # -- reductions and comparisons -------------------------------------------

    def eq_to_prec(self, other: "WittApprox") -> bool:
        """Equality to the shared certified precision."""
        diff = self - other
        # an approximate zero is equal to the full shared certified precision;
        # a unit form's valuation is below it by construction, so it differs
        return diff.exact or diff.prec == 0

    def to_record(self) -> dict:
        return {
            "p": self.ctx.p,
            "k": self.ctx.k,
            "A": self.ctx.A,
            "scale": self.scale,
            "coeffs": list(self.coeffs),
            "prec": self.prec,
            "exactZero": self.exact,
        }

    def __repr__(self):
        p = self.ctx.p
        if self.exact:
            return "Witt(0 exact)"
        if self.prec == 0:
            return f"Witt(O({p}^{self.scale}))"
        body = " + ".join(
            f"{c}*x^{i}" if i else f"{c}"
            for i, c in enumerate(self.coeffs)
            if c or i == 0
        )
        return f"Witt({p}^{self.scale}*({body}) + O({p}^{self.abs_prec}))"


def teichmuller(ctx: UnramifiedCtx, a: FpkElement) -> WittApprox:
    """Root of unity congruent to ``a``: the fixed point of x -> x^{p^k}.

    Lifts the residue and applies x -> x^{p^k} exactly A times; each
    application gains at least one digit of agreement with the fixed point.
    """
    if a.is_zero():
        raise ValueError("Teichmuller lift of 0 is not defined here")
    if a.field != ctx.residue_field:
        raise ValueError("residue from a different field")
    q = ctx.p**ctx.k
    pm = ctx.pA
    vec = tuple(c % pm for c in a.coeffs)
    for _ in range(ctx.A):
        vec = poly_pow(vec, q, ctx.hbar, pm)
    return WittApprox(ctx, 0, vec, ctx.A, False)


@lru_cache(maxsize=None)
def _log_cutoff(p: int, A: int) -> int:
    # beyond M, every series term m satisfies m - v_p(m) >= A
    return A + int(math.floor(math.log(A, p))) + 1


def padic_log(u: WittApprox) -> WittApprox:
    """log on 1 + pW: sum of (-1)^{m+1} (u-1)^m / m, certified truncation."""
    ctx = u.ctx
    t = u - ctx.one()
    if not t.valuation_ge(1):
        raise ValueError("padic_log requires u = 1 mod p")
    if t.exact:
        return ctx.exact_zero()
    cutoff = _log_cutoff(ctx.p, ctx.A)
    acc = ctx.exact_zero()
    power = ctx.one()
    for m in range(1, cutoff + 1):
        power = power * t
        term = power / ctx.from_int(m)
        acc = acc + (term if m % 2 else -term)
    return acc


def residue(z: WittApprox) -> FpkElement:
    """Reduction mod p into F_{p^k}; requires an integral value."""
    field = z.ctx.residue_field
    if z.exact or z.scale >= 1:
        return field.zero()
    if z.prec == 0:
        raise PrecisionError("residue of a value only known as O(p^0) or worse")
    if z.scale < 0:
        raise ValueError("residue of a non-integral value (negative scale)")
    return field.element([c % z.ctx.p for c in z.coeffs])
