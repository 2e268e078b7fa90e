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

The interval rules are written once, on raw states: a state is the triple
(scale, vec, prec), with vec the zero vector when prec == 0, or None for the
exact zero.  ``normalize`` is the canonical form (``make``); ``mul_states``,
``add_states`` and ``neg_state`` are a * b, a + b and -a.  ``WittApprox``
operators wrap them; series and ``padic_log`` run their loops on them.  The
rules read p^r from ``ctx.pows`` (r <= A).  At k = 1, ``normalize`` divides
the one entry 0 < c < p^rel by p while p | c, which gives the vector path's
j = int_val(c) < rel and c // p^j.

``WittApprox`` values are immutable by convention: no method mutates one,
every operation returns a new value.  The class is a slotted dataclass, not
a frozen one, because a run builds hundreds of thousands of them and a
frozen ``__init__`` sets each field through ``object.__setattr__``.  A context
memoizes 1/c per nonzero integer c (``inv_int``), each rational
(``from_rational``) and 1 (``one``), so the divisions of series integration,
of the logarithm and of rational weights cost one Newton lift per integer.

A unit vector mod p^r is multiplied, powered, inverted and mapped by the
Witt Frobenius in the ring kernel of ``finite_poly`` (``poly_mul``,
``poly_pow``, ``poly_inverse``, ``poly_frobenius``), called with the value's
own r; the residue field F_{p^k} is the same kernel at r = 1, so the two
layers share one implementation of the ring.  ``teichmuller_powers`` lifts
the whole unit group from one Teichmuller lift of a primitive root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .finite_poly import (
    FiniteField,
    FpkElement,
    poly_frobenius,
    poly_inverse,
    poly_mul,
    poly_pow,
    unit_powers,
)


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
        self.pows = tuple(p**r for r in range(A + 1))  # p^0 .. p^A
        self.pA = self.pows[A]
        self.zero_vec = (0,) * k
        self._inv_ints: dict = {}
        self._inv_states: list = [None]
        self._rationals: dict = {}
        self._one = self.from_int(1)

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

    # -- constructors -------------------------------------------------------

    def make(self, scale: int, vec, rel: int) -> "WittApprox":
        """Normalize p^scale * vec + O(p^{scale+rel}) into canonical form."""
        return self.wrap(normalize(self, scale, vec, rel))

    def wrap(self, state) -> "WittApprox":
        """The value of a raw state (``WittApprox.state``)."""
        return self.exact_zero() if state is None else WittApprox(self, *state, False)

    def from_int(self, c: int) -> "WittApprox":
        if c == 0:
            return self.exact_zero()
        j = int_val(c, self.p)
        u = c // self.p**j
        vec = (u % self.pA,) + (0,) * (self.k - 1)
        return WittApprox(self, j, vec, self.A, False)

    def from_rational(self, q: Fraction | int) -> "WittApprox":
        """q = a/b, b prime to p, as from_int(a) * (1/b) (exact at a = 0), once per context."""
        value = self._rationals.get(q)
        if value is None:
            f = Fraction(q)
            if f.denominator % self.p == 0:
                raise ValueError(f"denominator {f.denominator} is divisible by p={self.p}")
            value = self._rationals[q] = self.from_int(f.numerator) * self.inv_int(f.denominator)
        return value

    def inv_int(self, c: int) -> "WittApprox":
        """1/c for a nonzero integer c, computed once per context."""
        inv = self._inv_ints.get(c)
        if inv is None:
            inv = self._inv_ints[c] = self.from_int(c).inv()
        return inv

    def inv_states(self, n: int) -> list:
        """The states of 1/1, ..., 1/n, from ``inv_int``, kept once per context."""
        states = self._inv_states
        states += [self.inv_int(j).state for j in range(len(states), n + 1)]
        return states[1 : n + 1]

    def from_vec(self, vec, scale: int = 0) -> "WittApprox":
        """Unit-or-zero element from k residues mod p^A, known to full precision."""
        return self.make(scale, tuple(vec), self.A)

    def exact_zero(self) -> "WittApprox":
        return WittApprox(self, 0, self.zero_vec, 0, True)

    def zero_approx(self, abs_prec: int) -> "WittApprox":
        return WittApprox(self, abs_prec, self.zero_vec, 0, False)

    def one(self) -> "WittApprox":
        return self._one

    def metadata(self) -> dict:
        return {"p": self.p, "k": self.k, "A": self.A, "hbar": list(self.hbar)}


# -- the interval rules, on raw states (scale, vec, prec) or None ---------------


def normalize(ctx: UnramifiedCtx, scale: int, vec, rel: int) -> tuple:
    """p^scale * vec + O(p^{scale+rel}) in canonical form: rel capped at A,
    vec reduced mod p^rel and its common power of p moved into the scale."""
    if rel > ctx.A:
        rel = ctx.A
    if rel <= 0:
        return scale + rel, ctx.zero_vec, 0
    p = ctx.p
    pm = ctx.pows[rel]
    if ctx.k == 1:
        c, j = vec[0] % pm, 0
        if not c:
            return scale + rel, ctx.zero_vec, 0
        while not c % p:
            c, j = c // p, j + 1
        return scale + j, (c,), rel - j
    vec = tuple([c % pm for c in vec])
    j = rel
    for c in vec:
        if c:
            v = int_val(c, p)
            if v < j:
                j = v
                if j == 0:
                    break
    if j >= rel:
        return scale + rel, ctx.zero_vec, 0
    if j:  # each entry is below p^rel, so its quotient is below p^(rel-j)
        pj = ctx.pows[j]
        vec = tuple([c // pj for c in vec])
    return scale + j, vec, rel - j


def mul_states(ctx: UnramifiedCtx, a, b):
    """a * b: O(p^{sa+sb}) if a factor is an approximate zero, else to the
    smaller relative precision."""
    if a is None or b is None:
        return None
    sa, va, ra = a
    sb, vb, rb = b
    if not ra or not rb:
        return sa + sb, ctx.zero_vec, 0
    r = ra if ra < rb else rb
    return sa + sb, poly_mul(va, vb, ctx.hbar, ctx.pows[r]), r


def add_states(ctx: UnramifiedCtx, a, b):
    """a + b to the smaller absolute precision n, normalized."""
    if a is None:
        return b
    if b is None:
        return a
    sa, va, ra = a
    sb, vb, rb = b
    na, nb = sa + ra, sb + rb
    # n - s <= A for s = min(sa, sb), the scale of an operand whose scale + prec
    # is >= n; an approximate zero adds its zero vector, and n <= s gives O(p^n)
    n = na if na < nb else nb
    if sa > sb:
        sa, va, sb, vb = sb, vb, sa, va
    d = sb - sa
    # rel = n - sa <= A, so for d > A the term vanishes mod p^rel either way
    f = ctx.pows[d] if d <= ctx.A else ctx.pA
    if ctx.k == 1:
        return normalize(ctx, sa, (va[0] + f * vb[0],), n - sa)
    return normalize(ctx, sa, [x + f * y for x, y in zip(va, vb)], n - sa)


def neg_state(ctx: UnramifiedCtx, a):
    """-a: each entry negated mod p^prec; a zero is its own negation."""
    if a is None or not a[2]:
        return a
    pm = ctx.pows[a[2]]
    return a[0], tuple([-c % pm for c in a[1]]), a[2]


@dataclass(slots=True, unsafe_hash=True, repr=False)
class WittApprox:
    """p^scale * coeffs + O(p^{scale+prec}), coeffs a unit vector mod p^prec.

    ``prec == 0`` encodes an approximate zero O(p^scale); ``exact`` a proven
    zero.  Immutable by convention; all operations return new values.
    """

    ctx: UnramifiedCtx
    scale: int
    coeffs: tuple
    prec: int
    exact: bool

    # -- state predicates ----------------------------------------------------

    @property
    def abs_prec(self):
        """Certified absolute precision (None means exact)."""
        return None if self.exact else self.scale + self.prec

    def valuation(self):
        """Exact p-adic valuation; raises if only a lower bound is known."""
        if self.exact:
            return math.inf
        if self.prec == 0:
            raise PrecisionError(f"valuation undetermined: value is O(p^{self.scale})")
        return self.scale

    @property
    def min_valuation(self):
        """Certified lower bound on the valuation (inf for exact zero)."""
        return math.inf if self.exact else self.scale

    def valuation_ge(self, n: int) -> bool:
        """Certified test v_p(self) >= n; raises when undecidable."""
        if self.exact:
            return True
        if self.prec > 0:
            return self.scale >= n
        if self.scale >= n:
            return True
        raise PrecisionError(f"cannot certify valuation >= {n}: value is O(p^{self.scale})")

    @property
    def state(self):
        """The raw state ``(scale, coeffs, prec)``, or None for the exact zero."""
        return None if self.exact else (self.scale, self.coeffs, self.prec)

    # -- ring operations -----------------------------------------------------

    def _check(self, other: "WittApprox"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError("operands from different contexts")

    def __add__(self, other: "WittApprox") -> "WittApprox":
        self._check(other)
        return self.ctx.wrap(add_states(self.ctx, self.state, other.state))

    def __neg__(self) -> "WittApprox":
        return self.ctx.wrap(neg_state(self.ctx, self.state))

    def __sub__(self, other: "WittApprox") -> "WittApprox":
        return self + (-other)

    def __mul__(self, other) -> "WittApprox":
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        self._check(other)
        return self.ctx.wrap(mul_states(self.ctx, self.state, other.state))

    __rmul__ = __mul__

    def inv(self) -> "WittApprox":
        if self.exact:
            raise ZeroDivisionError("inverse of exact zero")
        if self.prec == 0:
            raise PrecisionError(
                f"cannot invert: value indistinguishable from zero, O(p^{self.scale})"
            )
        ctx = self.ctx
        vec = poly_inverse(self.coeffs, ctx.hbar, ctx.p, self.prec)
        return WittApprox(ctx, -self.scale, vec, self.prec, False)

    def __truediv__(self, other: "WittApprox") -> "WittApprox":
        if isinstance(other, int):
            return self * self.ctx.inv_int(other)
        return self * other.inv()

    def __pow__(self, e: int) -> "WittApprox":
        if e < 0:
            return self.inv() ** (-e)
        ctx = self.ctx
        if e == 0:
            return ctx.one()
        if self.exact:
            return self
        if self.prec == 0:
            return ctx.zero_approx(e * self.scale)
        vec = poly_pow(self.coeffs, e, ctx.hbar, ctx.p**self.prec)
        return WittApprox(ctx, e * self.scale, vec, self.prec, False)

    def frobenius(self) -> "WittApprox":
        """phi(self) for the Witt Frobenius phi, the ring automorphism of
        W(F_{p^k}) that lifts y -> y^p.

        phi fixes Z_p, so phi(p^s u) = p^s phi(u), and phi(u) mod p^prec
        depends only on u mod p^prec: it is ``finite_poly.poly_frobenius`` at
        r = prec, the kernel that is y -> y^p on F_{p^k} at r = 1.  At a root
        of unity alpha, phi(alpha) and alpha^p are both roots of unity
        congruent to alphabar^p mod p; reduction mod p is injective on the
        roots of unity of order prime to p, so phi(alpha) = alpha^p.  Cost
        O(k^2) per call.
        """
        if self.exact or self.prec == 0:
            return self
        ctx = self.ctx
        vec = poly_frobenius(self.coeffs, 1, ctx.hbar, ctx.p, self.prec)
        return WittApprox(ctx, self.scale, vec, self.prec, False)

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
    """Root of unity congruent to ``a``: the fixed point T of x -> x^q, q = p^k.

    Lifts the residue and applies x -> x^q exactly ceil((A-1)/k) times.
    Each application gains k digits of agreement with T: write
    x = T + e with v_p(e) = v >= 1; since T^q = T,

        x^q - T = sum_{j=1}^{q} C(q, j) T^{q-j} e^j,

    and v_p(C(q, j)) = k - v_p(j), so term j has valuation at least
    k - v_p(j) + j*v >= k + v, because (j-1)*v >= j-1 >= v_p(j).  The first
    lift agrees with T to v >= 1 digit, so after s steps it agrees to
    1 + s*k >= A digits.  For A = 1 no step is needed.  T mod p^A is unique,
    so the vector is the one that any number of steps beyond that returns.
    """
    if a.is_zero():
        raise ValueError("Teichmuller lift of 0 is not defined here")
    if a.field != ctx.residue_field:
        raise ValueError("residue from a different field")
    q = ctx.p**ctx.k
    pm = ctx.pA
    vec = a.coeffs
    for _ in range(-(-(ctx.A - 1) // ctx.k)):
        vec = poly_pow(vec, q, ctx.hbar, pm)
    return WittApprox(ctx, 0, vec, ctx.A, False)


def teichmuller_powers(ctx: UnramifiedCtx) -> list:
    """The Teichmuller lifts omega(g)^i, i < q-1, of the units g^i listed by
    ``finite_poly.unit_powers``, in the same order.

    One lift, of g, then q-2 products mod p^A.  omega is multiplicative and
    reduction mod p^A is a ring map, so entry i has the fields of
    ``teichmuller(ctx, g^i)``: both are the unique root of unity congruent to
    g^i, reduced mod p^A.
    """
    g = teichmuller(ctx, ctx.residue_field.element(unit_powers(ctx.p, ctx.k)[1]))
    vecs = [ctx.one().coeffs]
    for _ in range(ctx.p**ctx.k - 2):
        vecs.append(poly_mul(vecs[-1], g.coeffs, ctx.hbar, ctx.pA))
    return [WittApprox(ctx, 0, vec, ctx.A, False) for vec in vecs]


@lru_cache(maxsize=None)
def _log_cutoff(p: int, A: int) -> int:
    # beyond M, every series term m satisfies m - v_p(m) >= A
    return A + int(math.floor(math.log(A, p))) + 1


def padic_log(u: WittApprox) -> WittApprox:
    """log on 1 + pW: sum of (-1)^{m+1} (u-1)^m / m, certified truncation.

    Runs on raw states, with the interval rules in the operators' order for
    t = u - 1, power * t, power * (1/m) and acc +- term; builds only the result.
    """
    ctx, one = u.ctx, u.ctx.one().state
    t = add_states(ctx, u.state, neg_state(ctx, one))
    if t is None:
        return ctx.exact_zero()
    if t[0] < 1:
        ctx.wrap(t).valuation_ge(1)  # raises PrecisionError for O(p^s), s < 1
        raise ValueError("padic_log requires u = 1 mod p")
    acc, power = None, one
    for m, inv in enumerate(ctx.inv_states(_log_cutoff(ctx.p, ctx.A)), 1):
        power = mul_states(ctx, power, t)
        term = mul_states(ctx, power, inv)
        acc = add_states(ctx, acc, term if m % 2 else neg_state(ctx, term))
    return ctx.wrap(acc)


def residue(z: WittApprox) -> FpkElement:
    """Reduction mod p into F_{p^k} of an integral value; its k entries need no re-check."""
    field = z.ctx.residue_field
    if z.exact or z.scale >= 1:
        return field.zero()
    if z.prec == 0:
        raise PrecisionError("residue of a value only known as O(p^0) or worse")
    if z.scale < 0:
        raise ValueError("residue of a non-integral value (negative scale)")
    return FpkElement(field, tuple([c % z.ctx.p for c in z.coeffs]))
