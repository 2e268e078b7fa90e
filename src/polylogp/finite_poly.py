"""F_{p^k} in a fixed polynomial basis, finite polylogarithms, inverse Frobenius.

Elements are coefficient vectors modulo a deterministically chosen monic
irreducible ``hbar`` of degree k over F_p, so that runs are reproducible.
The four ring functions below are the one ring kernel of the package.  They
work in (Z/p^r)[x]/(hbar), which is F_{p^k} at r = 1 and W(F_{p^k}) mod p^r
in the unramified p-adic layer, and every caller names its r.  ``poly_mul``
and ``poly_pow`` multiply; ``poly_frobenius`` applies a power of the Witt
Frobenius phi, which is y -> y^{p^e} at r = 1, as a cached linear map; and
``poly_inverse`` inverts a unit by the norm mod p, Newton-lifted to p^r.
``unit_powers`` lists the cyclic group F_{p^k}^* as the powers of one
primitive root, and ``walk_index`` maps each unit back to its index, so an
exhaustive sweep can walk it and read 1/z = g^{-i} off the walk.  On that
walk x^j is a table read, g^{ij mod (q-1)}, so ``li_finite_walk`` gives li_n
at every unit as sums of table rows with no ring product, and a product of
two walk entries is a sum of their indices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from types import MappingProxyType


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
    if len(h) == 2:  # k = 1: Z/pm itself
        return (pow(a[0], e, pm),)
    result = (1,) + (0,) * (len(h) - 2)
    base = a
    while e:
        if e & 1:
            result = poly_mul(result, base, h, pm)
        base = poly_mul(base, base, h, pm)
        e >>= 1
    return result


@lru_cache(maxsize=None)
def _frobenius_columns(h: tuple, p: int, r: int, e: int) -> tuple:
    """Columns of the matrix of phi^e on (Z/p^r)[x]/(h), basis 1, ..., x^{k-1},
    for the Witt Frobenius phi; row i is phi^e(x)^i.

    phi^e(x) is the root of h congruent to x^{p^e} mod p: h has coefficients
    in Z_p, so phi^e(h(x)) = h(phi^e(x)) = 0, and h(x^{p^e}) = h(x)^{p^e} = 0
    mod p.  The root is simple, since h'(x^{p^e}) = h'(x)^{p^e} is a unit (h
    is separable mod p), so it is unique and Newton finds it from x^{p^e}:
    with y = root + d and v_p(d) >= j, h(y) = h'(y) d + O(d^2), so
    y - h(y)/h'(y) = root mod p^{2j}.  At r = 1 no step is taken and the map
    is y -> y^{p^e} on F_{p^k}.

    The key is the precision r of the value the map is applied to.  Reduction
    mod p^s is a ring map, so the root mod p^s is the reduction of the root
    mod p^r for s <= r, and the columns at r = s are those at r reduced.
    """
    k = len(h) - 1
    pm = p**r
    rows = [(1,) + (0,) * (k - 1)]
    if k > 1:
        y = poly_pow((0, 1) + (0,) * (k - 2), p**e, h, pm)
        digits = 1
        while digits < r:
            pows = [rows[0], y]
            for _ in range(k - 1):
                pows.append(poly_mul(pows[-1], y, h, pm))
            hy = [sum(h[i] * pows[i][j] for i in range(k + 1)) for j in range(k)]
            dhy = [sum(i * h[i] * pows[i - 1][j] for i in range(1, k + 1))
                   for j in range(k)]
            step = poly_mul(tuple(hy), poly_inverse(tuple(dhy), h, p, r), h, pm)
            y = tuple([(a - b) % pm for a, b in zip(y, step)])
            digits *= 2
        for _ in range(k - 1):
            rows.append(poly_mul(rows[-1], y, h, pm))
    return tuple(zip(*rows))


def poly_frobenius(a: tuple, e: int, h: tuple, p: int, r: int) -> tuple:
    """phi^e(a) in (Z/p^r)[x]/(h), h monic of degree k irreducible mod p, for
    e >= 0; at r = 1 this is a^{p^e} in F_{p^k}.

    phi is Z/p^r-linear and phi^k = 1, so this applies the images of the
    basis, computed once per (h, p, r, e mod k): O(k^2) per call.
    """
    cols = _frobenius_columns(h, p, r, e % (len(h) - 1))
    pm = p**r
    return tuple([sum(map(mul, a, col)) % pm for col in cols])


def poly_inverse(a: tuple, h: tuple, p: int, r: int) -> tuple:
    """1/a in (Z/p^r)[x]/(h), h monic of degree k irreducible mod p, for a
    unit a; raises ZeroDivisionError when a is 0 mod p.

    Mod p it is the norm inverse (Itoh-Tsujii): with c = prod_{e=1}^{k-1}
    a^{p^e}, the norm N(a) = a * c lies in F_p^*, so 1/a = c / N(a).  Newton
    lifts it: if a x = 1 - d, then a x (2 - a x) = 1 - d^2, so each step
    doubles the correct digits.
    """
    abar = tuple([c % p for c in a])
    if not any(abar):
        raise ZeroDivisionError("inverse of a vector that is 0 mod p")
    if len(h) == 2:  # k = 1: the inverse mod p^r is unique
        return (pow(a[0], -1, p**r),)
    c = (1,) + (0,) * (len(h) - 2)
    for e in range(1, len(h) - 1):
        c = poly_mul(c, poly_frobenius(abar, e, h, p, 1), h, p)
    n_inv = pow(poly_mul(abar, c, h, p)[0], -1, p)
    x = tuple([v * n_inv % p for v in c])
    pm, digits = p**r, 1
    while digits < r:
        ax = poly_mul(a, x, h, pm)
        x = poly_mul(x, ((2 - ax[0]) % pm, *[-v % pm for v in ax[1:]]), h, pm)
        digits *= 2
    return x


def check_odd_prime(p: int) -> None:
    """Raise ValueError unless p is an odd prime (trial division)."""
    if p < 3 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise ValueError(f"p must be an odd prime, got {p}")


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
        check_odd_prime(p)
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


@dataclass(slots=True, unsafe_hash=True, repr=False)
class FpkElement:
    """An element of ``field`` by its coefficient tuple; immutable by convention."""

    field: FiniteField
    coeffs: tuple

    def _check(self, other: "FpkElement"):
        if self.field is not other.field and self.field != other.field:
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
        return FpkElement(
            self.field, poly_inverse(self.coeffs, self.field.hbar, self.field.p, 1)
        )

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def __repr__(self):
        return f"Fpk({list(self.coeffs)} mod {self.field.p})"


@lru_cache(maxsize=None)
def unit_powers(p: int, k: int) -> tuple:
    """g^0, g^1, ..., g^{q-2} in F_q = F_p[x]/(hbar), q = p^k, as coefficient
    tuples, for g the least primitive root in integer-encoding order.

    F_q^* is cyclic of order q-1, so g generates it exactly when
    g^{(q-1)/r} != 1 for every prime r | q-1 (found by trial division), and
    then the q-1 powers list every unit once.  Built on first use per (p, k).
    """
    field = FiniteField(p, k)
    h, q = field.hbar, field.order
    primes, rest, d = [], q - 1, 2
    while d * d <= rest:
        if rest % d == 0:
            primes.append(d)
            while rest % d == 0:
                rest //= d
        d += 1
    if rest > 1:
        primes.append(rest)
    one = field.one().coeffs
    g = next(c for c in (field.from_int(t).coeffs for t in range(1, q))
             if all(poly_pow(c, (q - 1) // r, h, p) != one for r in primes))
    powers = [one]
    for _ in range(q - 2):
        powers.append(poly_mul(powers[-1], g, h, p))
    return tuple(powers)


@lru_cache(maxsize=None)
def walk_index(p: int, k: int) -> MappingProxyType:
    """The index i of each unit g^i of ``unit_powers``, keyed by coefficient
    tuple: a read-only map, built once per (p, k)."""
    return MappingProxyType({c: i for i, c in enumerate(unit_powers(p, k))})


@lru_cache(maxsize=None)
def _li_coeff_table(p: int, n: int) -> tuple:
    """j^{-n} mod p for j = 2..p-1 (index j-2); the j = 1 term of li_n is x."""
    return tuple(pow(j, -n, p) if n else 1 for j in range(2, p))


def li_finite(n: int, x: FpkElement) -> FpkElement:
    """Finite polylogarithm: sum_{j=1}^{p-1} x^j / j^n evaluated in F_{p^k}."""
    if n < 0:
        raise ValueError("weight must be >= 0")
    field = x.field
    p, h, xc = field.p, field.hbar, x.coeffs
    acc, power = list(xc), xc
    for c in _li_coeff_table(p, n):
        power = poly_mul(power, xc, h, p)
        acc = [a + c * b for a, b in zip(acc, power)]
    return FpkElement(field, tuple([a % p for a in acc]))


def li_finite_walk(n: int, field: FiniteField) -> list:
    """li_n(g^i) for i = 0..q-2 as coefficient tuples, on the walk g^i of
    ``unit_powers``: entry i is ``li_finite(n, g^i)``, field for field.

    g has order q-1, so (g^i)^j = g^{ij mod (q-1)} is entry ij mod (q-1) of
    the walk, and li_n(g^i) = sum_{j=1}^{p-1} j^{-n} walk[ij mod (q-1)] is an
    F_p-linear combination of p-1 walk entries, reduced mod p once: the same
    vector as ``li_finite``'s sum of powers.  Cost O(q p k), no ``poly_mul``.
    """
    if n < 0:
        raise ValueError("weight must be >= 0")
    p, walk = field.p, unit_powers(field.p, field.k)
    order = len(walk)
    weights = (1, *_li_coeff_table(p, n))  # j^{-n} for j = 1..p-1
    return [tuple([sum(map(mul, weights, col)) % p for col in
                   zip(*[walk[i * j % order] for j in range(1, p)])])
            for i in range(order)]


def frobenius(x: FpkElement, e: int = 1) -> FpkElement:
    """Frobenius power on F_{p^k}: x -> x^{p^e}, a cached F_p-linear map."""
    field = x.field
    return FpkElement(field, poly_frobenius(x.coeffs, e, field.hbar, field.p, 1))


def sigma(x: FpkElement) -> FpkElement:
    """Inverse Frobenius on F_{p^k}: x -> x^{p^{k-1}}."""
    return frobenius(x, x.field.k - 1)


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
    """Both inversion forms over every unit z:

        plain:    z   * li_{n-1}(1/z) + (-1)^n li_{n-1}(z) = 0,
        twisted:  z^p * li_{n-1}(1/z) + (-1)^n li_{n-1}(z) = 0.

    The twisted form is the exact polynomial identity behind inversion:
    substituting j -> p-j in sum_j z^{p-j}/j^{n-1} makes the two terms cancel
    termwise, for any k.  The plain form is an identity on F_p, where z^p = z,
    but not on proper extensions.  Returns the (plain, twisted) reports;
    counterexamples are reported, not raised, in integer-encoding order of z.

    Everything is read off the walk g^i of ``unit_powers``: li_{n-1} at
    every unit from ``li_finite_walk``, its value at 1/g^i = g^{q-1-i}, and
    the two products.  With z = g^i, z^p = g^{ip} and li_{n-1}(1/z) = g^e,
    the products z li and z^p li are walk entries i+e and ip+e mod q-1; a
    zero li gives a zero product.  No ring product or inverse is taken.
    """
    if n < 2:
        raise ValueError("identity needs weight n >= 2")
    sign = -1 if n % 2 else 1
    p, walk = field.p, unit_powers(field.p, field.k)
    order = len(walk)
    index = walk_index(field.p, field.k)
    li = li_finite_walk(n - 1, field)
    zero = (0,) * field.k
    plain, twisted = [], []
    for z in field.units():
        i = index[z.coeffs]
        e = index.get(li[-i % order])  # None where li_{n-1}(1/z) = 0
        rhs = tuple([sign * c % p for c in li[i]])
        for bad, step in ((plain, i), (twisted, i * p)):
            lhs = zero if e is None else walk[(step + e) % order]
            if any((a + b) % p for a, b in zip(lhs, rhs)):
                bad.append({"z": list(z.coeffs), "lhs": list(lhs), "rhs": list(rhs)})
    return (InversionReport(field.p, field.k, n, order, plain),
            InversionReport(field.p, field.k, n, order, twisted))


def check_inversion_identity(n: int, field: FiniteField) -> InversionReport:
    """The plain form of ``inversion_identities``: false on F_{p^k}, k >= 2."""
    return inversion_identities(n, field)[0]


def check_inversion_identity_frobenius(n: int, field: FiniteField) -> InversionReport:
    """The z^p-twisted form of ``inversion_identities``: holds on every F_{p^k}."""
    return inversion_identities(n, field)[1]
