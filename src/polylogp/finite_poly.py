"""F_{p^k} in a fixed polynomial basis, finite polylogarithms, inverse Frobenius.

Elements are coefficient vectors modulo a deterministically chosen monic
irreducible ``hbar`` of degree k over F_p, so that runs are reproducible.
``poly_mul`` and ``poly_pow`` are the one ring kernel of the package: they
work in (Z/p^r)[x]/(hbar), which is F_{p^k} at r = 1 and W(F_{p^k}) mod p^r
in the unramified p-adic layer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache


def poly_mul(a: tuple, b: tuple, h: tuple, pm: int) -> tuple:
    """a * b in (Z/pm)[x]/(h), h monic of degree k = len(a) = len(b)."""
    k = len(h) - 1
    if k == 1:
        return ((a[0] * b[0]) % pm,)
    if k == 2:
        t = a[1] * b[1] % pm
        return (
            (a[0] * b[0] - t * h[0]) % pm,
            (a[0] * b[1] + a[1] * b[0] - t * h[1]) % pm,
        )
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                prod[j] += ai * bj
    for i in range(2 * k - 2, k - 1, -1):
        c = prod[i] % pm
        if c:
            for j in range(k):
                prod[i - k + j] -= c * h[j]
    return tuple([c % pm for c in prod[:k]])


def poly_pow(a: tuple, e: int, h: tuple, pm: int) -> tuple:
    """a^e in (Z/pm)[x]/(h) by square-and-multiply, for e >= 0."""
    result = (1,) + (0,) * (len(h) - 2)
    base = a
    while e:
        if e & 1:
            result = poly_mul(result, base, h, pm)
        base = poly_mul(base, base, h, pm)
        e >>= 1
    return result


def _poly_gcd(a: list, b: list, p: int) -> list:
    a, b = list(a), list(b)
    while any(b):
        while b and b[-1] == 0:
            b.pop()
        if not b:
            break
        inv_lead = pow(b[-1], -1, p)
        while len(a) >= len(b) and any(a):
            while a and a[-1] == 0:
                a.pop()
            if len(a) < len(b):
                break
            c = (a[-1] * inv_lead) % p
            shift = len(a) - len(b)
            for i, bi in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bi) % p
        a, b = b, a
    while a and a[-1] == 0:
        a.pop()
    return a


def is_irreducible(coeffs: tuple, p: int) -> bool:
    """Irreducibility of the monic polynomial with the given low coefficients.

    ``coeffs`` are (c_0 .. c_{k-1}); the leading coefficient is 1.
    Checks x^{p^k} = x mod hbar and gcd(x^{p^j} - x, hbar) = 1 for 0 < j < k.
    """
    k = len(coeffs)
    if k == 1:
        return True
    hbar = tuple(coeffs) + (1,)
    x = tuple([0, 1] + [0] * (k - 2))
    frob = x
    for j in range(1, k):
        frob = poly_pow(frob, p, hbar, p)
        diff = [(frob[i] - x[i]) % p for i in range(k)]
        g = _poly_gcd(list(hbar), diff, p)
        if len(g) != 1:
            return False
    frob = poly_pow(frob, p, hbar, p)
    return frob == x


@lru_cache(maxsize=None)
def lowest_irreducible(p: int, k: int) -> tuple:
    """Lowest monic irreducible of degree k over F_p.

    Candidates are ordered lexicographically by the coefficient vector
    (c_0, c_1, ..., c_{k-1}); for k = 1 this yields the modulus x itself.
    Returns the full coefficient tuple (c_0, ..., c_{k-1}, 1).
    """
    for low in itertools.product(range(p), repeat=k):
        if k > 1 and all(c == 0 for c in low):
            continue
        if is_irreducible(low, p):
            return tuple(low) + (1,)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FiniteField:
    """F_{p^k} with basis 1, x, ..., x^{k-1} modulo ``hbar``."""

    def __init__(self, p: int, k: int = 1):
        if p < 3 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ValueError(f"p must be an odd prime, got {p}")
        if k < 1:
            raise ValueError(f"extension degree must be >= 1, got {k}")
        self.p = p
        self.k = k
        self.order = p**k
        self.hbar = lowest_irreducible(p, k)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and (self.p, self.k) == (other.p, other.k)
        )

    def __hash__(self):
        return hash((self.p, self.k))

    def __repr__(self):
        return f"FiniteField(p={self.p}, k={self.k})"

    def element(self, coeffs) -> "FpkElement":
        if isinstance(coeffs, int):
            coeffs = (coeffs,) + (0,) * (self.k - 1)
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) != self.k:
            raise ValueError(f"expected {self.k} coefficients, got {len(coeffs)}")
        return FpkElement(self, coeffs)

    def zero(self) -> "FpkElement":
        return self.element(0)

    def one(self) -> "FpkElement":
        return self.element(1)

    def from_int(self, n: int) -> "FpkElement":
        """Element with index n in base-p digits, low digit = constant term."""
        n %= self.order
        coeffs = []
        for _ in range(self.k):
            n, r = divmod(n, self.p)
            coeffs.append(r)
        return FpkElement(self, tuple(coeffs))

    def elements(self):
        """All p^k elements, ordered by their integer encoding."""
        for n in range(self.order):
            yield self.from_int(n)

    def units(self):
        for n in range(1, self.order):
            yield self.from_int(n)


@dataclass(frozen=True)
class FpkElement:
    field: FiniteField
    coeffs: tuple

    def _check(self, other: "FpkElement"):
        if self.field != other.field:
            raise ValueError("elements of different fields")

    def __add__(self, other):
        self._check(other)
        p = self.field.p
        return FpkElement(
            self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        self._check(other)
        p = self.field.p
        return FpkElement(
            self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        p = self.field.p
        return FpkElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            p = self.field.p
            return FpkElement(self.field, tuple((a * other) % p for a in self.coeffs))
        self._check(other)
        return FpkElement(
            self.field,
            poly_mul(self.coeffs, other.coeffs, self.field.hbar, self.field.p),
        )

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return FpkElement(
            self.field, poly_pow(self.coeffs, e, self.field.hbar, self.field.p)
        )

    def inverse(self) -> "FpkElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of 0 in a finite field")
        return self ** (self.field.order - 2)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def __repr__(self):
        return f"Fpk({list(self.coeffs)} mod {self.field.p})"


@lru_cache(maxsize=None)
def _li_coeff_table(p: int, n: int) -> tuple:
    """j^{-n} mod p for j = 1..p-1 (index j-1)."""
    return tuple(pow(j, -n, p) if n else 1 for j in range(1, p))


def li_finite(n: int, x: FpkElement) -> FpkElement:
    """Finite polylogarithm: sum_{j=1}^{p-1} x^j / j^n evaluated in F_{p^k}."""
    if n < 0:
        raise ValueError("weight must be >= 0")
    field = x.field
    table = _li_coeff_table(field.p, n)
    acc = field.zero()
    power = field.one()
    for j in range(1, field.p):
        power = power * x
        acc = acc + power * table[j - 1]
    return acc


def sigma(x: FpkElement) -> FpkElement:
    """Inverse Frobenius on F_{p^k}: x -> x^{p^{k-1}}."""
    return x ** (x.field.p ** (x.field.k - 1))


@dataclass
class InversionReport:
    p: int
    k: int
    n: int
    checked: int
    counterexamples: list

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def inversion_identities(n: int, field: FiniteField) -> tuple:
    """Both inversion forms over every unit z, in one pass over the field:

        plain:    z   * li_{n-1}(1/z) + (-1)^n li_{n-1}(z) = 0,
        twisted:  z^p * li_{n-1}(1/z) + (-1)^n li_{n-1}(z) = 0.

    The twisted form is the exact polynomial identity behind inversion:
    substituting j -> p-j in sum_j z^{p-j}/j^{n-1} makes the two terms cancel
    termwise, for any k.  The plain form is an identity on F_p, where z^p = z,
    but not on proper extensions.  Returns the (plain, twisted) reports;
    counterexamples are reported, not raised.
    """
    if n < 2:
        raise ValueError("identity needs weight n >= 2")
    sign = -1 if n % 2 else 1
    plain, twisted = [], []
    count = 0
    for z in field.units():
        li_inv = li_finite(n - 1, z.inverse())
        rhs = li_finite(n - 1, z) * sign
        count += 1
        for bad, factor in ((plain, z), (twisted, z**field.p)):
            lhs = factor * li_inv
            if not (lhs + rhs).is_zero():
                bad.append({"z": list(z.coeffs), "lhs": list(lhs.coeffs),
                            "rhs": list(rhs.coeffs)})
    return (InversionReport(field.p, field.k, n, count, plain),
            InversionReport(field.p, field.k, n, count, twisted))


def check_inversion_identity(n: int, field: FiniteField) -> InversionReport:
    """The plain form of ``inversion_identities``: false on F_{p^k}, k >= 2."""
    return inversion_identities(n, field)[0]


def check_inversion_identity_frobenius(n: int, field: FiniteField) -> InversionReport:
    """The z^p-twisted form of ``inversion_identities``: holds on every F_{p^k}."""
    return inversion_identities(n, field)[1]
