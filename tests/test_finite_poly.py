"""Finite polylogarithms and field arithmetic against naive oracles."""

from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polylogp.finite_poly import (
    FiniteField,
    FpkElement,
    check_inversion_identity,
    check_inversion_identity_frobenius,
    frobenius,
    inversion_identities,
    is_irreducible,
    li_finite,
    li_finite_walk,
    lowest_irreducible,
    poly_frobenius,
    poly_inverse,
    poly_pow,
    sigma,
    unit_powers,
    walk_index,
)
from polylogp import finite_poly
from polylogp.matrix import CHECKS
from polylogp.rng import SplitMix64

PRIMES_TO_31 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


# -- modulus choice -----------------------------------------------------------


def test_lowest_irreducible_deg2_over_f5():
    # brute force: a monic quadratic is irreducible iff it has no root
    assert lowest_irreducible(5, 2) == (1, 1, 1)
    earlier = [(0, c1) for c1 in range(5)] + [(1, 0)]
    for c0, c1 in earlier:
        assert any((x * x + c1 * x + c0) % 5 == 0 for x in range(5))
    assert all((x * x + x + 1) % 5 != 0 for x in range(5))


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (7, 2), (3, 3), (5, 3)])
def test_irreducibility_test_matches_root_search(p, k):
    # degree 2 and 3: irreducible iff no roots in F_p
    import itertools

    for low in itertools.product(range(p), repeat=k):
        def value(x):
            return (sum(c * x**i for i, c in enumerate(low)) + x**k) % p

        has_root = any(value(x) == 0 for x in range(p))
        if is_irreducible(tuple(low), p):
            assert not has_root


# -- the finite polylogarithm -------------------------------------------------


@pytest.mark.parametrize("p", PRIMES_TO_31)
def test_li_matches_naive_oracle_exhaustively(p):
    # oracle: plain integer arithmetic, pow for the modular inverses
    field = FiniteField(p, 1)
    for n in range(0, 7):
        for x in range(p):
            expected = (
                sum(pow(x, j, p) * pow(pow(j, n, p), p - 2, p) for j in range(1, p)) % p
            )
            got = li_finite(n, field.element(x)).coeffs[0]
            assert got == expected, (p, n, x)


def _li_finite_by_elements(n, x):
    """li_n(x) as an FpkElement sum, one element per product and per sum."""
    field = x.field
    acc, power = field.zero(), field.one()
    for j in range(1, field.p):
        power = power * x
        acc = acc + power * pow(j, -n, field.p)
    return acc


@pytest.mark.parametrize("p, k", [(13, 2), (7, 3), (3, 5)])
def test_li_finite_matches_the_element_loop_everywhere(p, k):
    field = FiniteField(p, k)
    for x in field.elements():
        for n in range(7):
            got = li_finite(n, x)
            assert got.field is field
            assert got.coeffs == _li_finite_by_elements(n, x).coeffs, (p, k, n, x)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((3, 5, 7, 11, 13)), st.integers(1, 3), st.integers(0, 6))
@example(3, 5, 4)  # F_{3^5}
@example(3, 1, 0)  # F_3: the walk is 1, 2
def test_li_walk_sweep_is_li_finite_at_every_unit(p, k, n):
    # entry i is li_n(g^i) from the walk's own entries, field for field
    field = FiniteField(p, k)
    walk = unit_powers(p, k)
    sweep = li_finite_walk(n, field)
    assert len(sweep) == len(walk) == field.order - 1
    for c, value in zip(walk, sweep):
        assert value == li_finite(n, FpkElement(field, c)).coeffs, (p, k, n, c)


def test_li_walk_sweep_rejects_a_negative_weight():
    with pytest.raises(ValueError):
        li_finite_walk(-1, FiniteField(5, 2))


def test_li_frozen_values_p5():
    field = FiniteField(5, 1)
    assert [li_finite(1, field.element(a)).coeffs[0] for a in (2, 3, 4)] == [4, 3, 4]


def test_li_at_zero_and_one():
    for p in PRIMES_TO_31:
        field = FiniteField(p, 1)
        for n in range(0, 5):
            assert li_finite(n, field.zero()).is_zero()
        # harmonic-type pairing j <-> p-j
        assert li_finite(1, field.one()).is_zero()


def test_li_even_weight_at_minus_one_vanishes():
    for p in (5, 7, 11, 13):
        field = FiniteField(p, 1)
        for n in (2, 4, 6):
            assert li_finite(n, -field.one()).is_zero()


def test_li_evaluate_vs_expanded_polynomial():
    # the coefficient vector, Horner-evaluated, matches pointwise evaluation
    for p, k in ((5, 1), (5, 2), (7, 1)):
        field = FiniteField(p, k)
        for n in (1, 2, 3):
            coeffs = [pow(j, -n, p) for j in range(1, p)]  # c_j = j^{-n}
            for z in field.elements():
                acc = field.zero()
                for c in reversed(coeffs):
                    acc = acc * z + field.element(c)
                acc = acc * z  # the polynomial has no constant term
                assert acc == li_finite(n, z)


# -- inverse Frobenius ----------------------------------------------------------


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2),
                                 (7, 1), (7, 2), (11, 1), (11, 2), (13, 1)])
def test_sigma_is_field_automorphism_and_frobenius_inverse(p, k):
    field = FiniteField(p, k)
    for x in field.elements():
        assert sigma(x) ** p == x
        if k == 1:
            assert sigma(x) == x
    elems = list(field.elements())
    step = max(1, len(elems) // 12)
    probe = elems[::step]
    for x in probe:
        for y in probe:
            assert sigma(x + y) == sigma(x) + sigma(y)
            assert sigma(x * y) == sigma(x) * sigma(y)


KERNEL_FIELDS = [(13, 1), (13, 2), (7, 3), (5, 3), (5, 4), (3, 5)]


@pytest.mark.parametrize("p, k", KERNEL_FIELDS)
def test_frobenius_is_the_p_power_map(p, k):
    # oracle: square-and-multiply to the exponent p^e
    field = FiniteField(p, k)
    for x in field.elements():
        for e in range(k + 1):
            assert frobenius(x, e) == x ** p**e, (x, e)
        assert frobenius(x) == frobenius(x, 1)
        assert sigma(frobenius(x)) == x


@pytest.mark.parametrize("p, k", KERNEL_FIELDS)
def test_inverse_matches_the_q_minus_two_power(p, k):
    field = FiniteField(p, k)
    for x in field.units():
        inv = x.inverse()
        assert inv == x ** (field.order - 2), x
        assert (x * inv).is_one()
    with pytest.raises(ZeroDivisionError):
        field.zero().inverse()


@pytest.mark.parametrize("p, k", [pk for pk in KERNEL_FIELDS if pk[1] >= 3])
def test_sigma_is_not_the_frobenius_for_k_at_least_three(p, k):
    # sigma = Frobenius^(k-1) equals Frobenius only when Frobenius^2 = id, k <= 2
    field = FiniteField(p, k)
    assert any(sigma(x) != frobenius(x) for x in field.elements())


@pytest.mark.parametrize("p, k", [(13, 2), (7, 3), (5, 4), (3, 5)])
def test_one_frobenius_and_one_inverse_at_every_precision(p, k):
    # phi^e mod p^r is the p^e-th power at r = 1, reduces to phi^e mod p^s
    # for every s < r (the columns are cached per r), and is phi applied
    # e times; a vector that is 0 mod p has no inverse at any r
    h = lowest_irreducible(p, k)
    rng = SplitMix64(31 * p + k)
    vecs = [tuple(rng.below(p**9) for _ in range(k)) for _ in range(4)]
    for r in (1, 2, 5, 9):
        for a in vecs:
            a = tuple(c % p**r for c in a)
            iterated = a
            for e in range(2 * k + 1):
                got = poly_frobenius(a, e, h, p, r)
                assert got == iterated, (r, e, a)
                for s in range(1, r):
                    reduced = tuple(c % p**s for c in a)
                    assert tuple(c % p**s for c in got) == poly_frobenius(reduced, e, h, p, s)
                if r == 1:
                    assert got == poly_pow(a, p**e, h, p), (e, a)
                iterated = poly_frobenius(iterated, 1, h, p, r)
        for zero in ((0,) * k, tuple(p * c % p**r for c in vecs[0])):
            with pytest.raises(ZeroDivisionError):
                poly_inverse(zero, h, p, r)



def _poly_pow_by_squaring(a, e, h, pm):
    """a^e by square-and-multiply at every k: the oracle of ``poly_pow``,
    which takes the builtin ``pow`` at k = 1."""
    result = (1,) + (0,) * (len(h) - 2)
    while e:
        if e & 1:
            result = finite_poly.poly_mul(result, a, h, pm)
        a = finite_poly.poly_mul(a, a, h, pm)
        e >>= 1
    return result


def _poly_inverse_by_norm(a, h, p, r):
    """The norm inverse mod p, Newton-lifted to p^r, at every k: the oracle of
    ``poly_inverse``, which takes the builtin ``pow`` at k = 1."""
    mul = finite_poly.poly_mul
    abar = tuple([c % p for c in a])
    c = (1,) + (0,) * (len(h) - 2)
    for e in range(1, len(h) - 1):
        c = mul(c, poly_frobenius(abar, e, h, p, 1), h, p)
    n_inv = pow(mul(abar, c, h, p)[0], -1, p)
    x = tuple([v * n_inv % p for v in c])
    pm, digits = p**r, 1
    while digits < r:
        ax = mul(a, x, h, pm)
        x = mul(x, ((2 - ax[0]) % pm, *[-v % pm for v in ax[1:]]), h, pm)
        digits *= 2
    return x


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((3, 5, 7, 13)), st.integers(1, 3), st.integers(1, 6), st.data())
def test_powers_and_inverses_match_the_ring_loops(p, k, r, data):
    # field for field, also where the builtins serve k = 1; a vector that is
    # 0 mod p has no inverse
    h = lowest_irreducible(p, k)
    pm = p**r
    a = tuple(data.draw(st.integers(0, pm - 1)) for _ in range(k))
    e = data.draw(st.integers(0, 2 * pm))
    assert poly_pow(a, e, h, pm) == _poly_pow_by_squaring(a, e, h, pm)
    if any(c % p for c in a):
        assert poly_inverse(a, h, p, r) == _poly_inverse_by_norm(a, h, p, r)
    else:
        with pytest.raises(ZeroDivisionError):
            poly_inverse(a, h, p, r)

WALK_FIELDS = [(3, 1), (13, 1), (13, 2), (5, 3), (7, 3), (5, 4), (3, 5)]


def _multiplicative_order(x):
    """The order of a unit by repeated multiplication, the naive oracle."""
    power, order = x, 1
    while not power.is_one():
        power, order = power * x, order + 1
    return order


@pytest.mark.parametrize("p, k", WALK_FIELDS)
def test_unit_powers_walk_every_unit_once_from_one(p, k):
    field = FiniteField(p, k)
    q = field.order
    powers = unit_powers(p, k)
    assert powers[0] == field.one().coeffs
    assert len(powers) == q - 1
    assert set(powers) == {z.coeffs for z in field.units()}
    # g = powers[1] is the least primitive root in integer-encoding order
    g = field.element(powers[1])
    assert _multiplicative_order(g) == q - 1
    for t in range(1, next(t for t in range(q) if field.from_int(t) == g)):
        assert _multiplicative_order(field.from_int(t)) < q - 1, t
    assert unit_powers(p, k) is powers  # built once per field
    index = walk_index(p, k)
    assert [index[c] for c in powers] == list(range(q - 1))
    assert walk_index(p, k) is index


def test_sigma_fixes_zero_and_one():
    field = FiniteField(7, 2)
    assert sigma(field.zero()).is_zero()
    assert sigma(field.one()).is_one()


# -- inversion identities ----------------------------------------------------------


def test_inversion_identity_spec_examples():
    field = FiniteField(5, 1)
    two, three, four = (field.element(a) for a in (2, 3, 4))
    assert (two * li_finite(1, three) + li_finite(1, two)).is_zero()
    assert (four * li_finite(1, four) + li_finite(1, four)).is_zero()


def test_inversion_identity_on_prime_fields():
    for p in (5, 7, 11, 13):
        field = FiniteField(p, 1)
        for n in range(2, 7):
            assert check_inversion_identity(n, field).passed


def test_inversion_identity_fails_on_extension_as_stated():
    # the plain form is not an identity on F_25: z a cube root of unity breaks it
    field = FiniteField(5, 2)
    report = check_inversion_identity(2, field)
    assert not report.passed
    assert any(ce["z"] == [0, 1] for ce in report.counterexamples)


def test_frobenius_corrected_inversion_identity_everywhere():
    for p in (5, 7, 11, 13):
        for k in (1, 2):
            field = FiniteField(p, k)
            for n in range(2, 7):
                assert check_inversion_identity_frobenius(n, field).passed, (p, k, n)


def _inversion_loop(n, field, e):
    """The direct oracle: one walk over the units for the form with z^e."""
    sign = -1 if n % 2 else 1
    bad = []
    count = 0
    for z in field.units():
        lhs = z**e * li_finite(n - 1, z.inverse())
        rhs = li_finite(n - 1, z) * sign
        count += 1
        if not (lhs + rhs).is_zero():
            bad.append({"z": list(z.coeffs), "lhs": list(lhs.coeffs), "rhs": list(rhs.coeffs)})
    return count, bad


@pytest.mark.parametrize("cell", CHECKS["inversion"].full, ids=lambda c: f"p{c['p']}k{c['k']}")
def test_one_pass_inversion_matches_the_direct_loops(cell):
    p, k = cell["p"], cell["k"]
    field = FiniteField(p, k)
    for n in cell["ns"]:
        plain, twisted = inversion_identities(n, field)
        for rep, e in ((plain, 1), (twisted, p)):
            count, bad = _inversion_loop(n, field, e)
            assert (rep.p, rep.k, rep.n) == (p, k, n)
            assert rep.checked == count == p**k - 1
            assert rep.counterexamples == bad, (p, k, n, e)
        assert check_inversion_identity(n, field) == plain
        assert check_inversion_identity_frobenius(n, field) == twisted
        if k == 1:  # z^p = z on F_p, so the two forms are one
            assert plain == twisted


def test_inversion_ring_work_is_bounded(monkeypatch):
    # li_{n-1}, 1/z and both products are read off the unit walk: no li_finite,
    # ring product or inversion; the counterexamples are those of the direct
    # loops, in the same order (one li_finite per unit before the walk sweep)
    field = FiniteField(7, 3)
    plain, twisted = inversion_identities(3, field)
    assert plain.counterexamples == _inversion_loop(3, field, 1)[1]
    assert twisted.counterexamples == _inversion_loop(3, field, 7)[1] == []
    calls = []
    for name in ("li_finite", "poly_mul", "poly_inverse"):
        original = getattr(finite_poly, name)

        def counted(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(finite_poly, name, counted)
    assert inversion_identities(3, field) == (plain, twisted)
    assert calls == []


def test_one_pass_inversion_covers_the_full_matrix_fields():
    cells = {(c["p"], c["k"], tuple(c["ns"])) for c in CHECKS["inversion"].full}
    assert cells == {(p, k, (2, 3, 4, 5, 6)) for p in (5, 7, 11, 13) for k in (1, 2)}


# -- functional equations of li_1 -----------------------------------------------


def _inversion_fields():
    return [FiniteField(c["p"], c["k"]) for c in CHECKS["inversion"].full]


def test_li1_reflection_and_twisted_inversion_on_every_inversion_field():
    for field in _inversion_fields():
        one = field.one()
        for x in field.elements():
            assert li_finite(1, x) == li_finite(1, one - x), (field, x)
            if not x.is_zero():
                twisted = x**field.p * li_finite(1, x.inverse())
                assert (twisted + li_finite(1, x)).is_zero(), (field, x)


def test_li1_four_term_equation_on_the_small_inversion_fields():
    # Kontsevich: li_1(x) - li_1(y) + x^p li_1(y/x) + (1-x)^p li_1((1-y)/(1-x)) = 0
    fields = [f for f in _inversion_fields() if f.p**f.k <= 49]
    assert {f.p**f.k for f in fields} == {5, 7, 11, 13, 25, 49}
    for field in fields:
        p, one = field.p, field.one()
        li1 = {x.coeffs: li_finite(1, x) for x in field.elements()}
        for x in field.elements():
            if x.is_zero() or x.is_one():
                continue
            xinv, x1inv = x.inverse(), (one - x).inverse()
            xp, x1p = x**p, (one - x) ** p
            for y in field.elements():
                total = (li1[x.coeffs] - li1[y.coeffs] + xp * li1[(y * xinv).coeffs]
                         + x1p * li1[((one - y) * x1inv).coeffs])
                assert total.is_zero(), (field, x, y)


# -- field sanity ------------------------------------------------------------------


def test_field_axioms_small():
    field = FiniteField(5, 2)
    elems = list(field.elements())
    for x in elems:
        if not x.is_zero():
            assert (x * x.inverse()).is_one()
    a, b, c = elems[7], elems[13], elems[21]
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c


def test_element_int_encoding_round_trip():
    field = FiniteField(7, 2)
    for t in range(49):
        digits = field.from_int(t).coeffs  # low digit = constant term
        assert sum(c * 7**i for i, c in enumerate(digits)) == t


@dataclass(frozen=True)
class _FrozenElement:
    """The field layout FpkElement had as a frozen dataclass, for == and hash."""

    field: FiniteField
    coeffs: tuple


def test_elements_of_equal_fields_combine_and_unequal_ones_raise():
    field, twin = FiniteField(7, 2), FiniteField(7, 2)
    a, b, b_twin = field.from_int(23), field.from_int(31), twin.from_int(31)
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        assert op(a, b_twin).coeffs == op(a, b).coeffs
        assert op(b_twin, a).coeffs == op(b, a).coeffs
        for stranger in (FiniteField(7, 3).from_int(31), FiniteField(5, 2).from_int(3)):
            with pytest.raises(ValueError):
                op(a, stranger)


def test_element_equality_and_hash_are_those_of_the_frozen_fields():
    field, twin, other = FiniteField(7, 2), FiniteField(7, 2), FiniteField(5, 2)
    values = [field.from_int(9), twin.from_int(9), field.from_int(10), other.from_int(9),
              FpkElement(other, (2, 1)), field.zero(), twin.zero()]
    for x in values:
        assert hash(x) == hash(_FrozenElement(x.field, x.coeffs))
        for y in values:
            assert (x == y) == (_FrozenElement(x.field, x.coeffs)
                                == _FrozenElement(y.field, y.coeffs))
    assert values[0] == values[1] and values[0] != values[2]
    assert values[0] != (2, 1) and field.zero() != 0
    assert len(set(values)) == 5
