"""The closed-form measure sum against the direct Riemann loop, against
Coleman's inversion and distribution relations for Li^(p)_n, and against
the Witt Frobenius: one sum serves a whole Frobenius orbit, and so does one
orbit-formula value of Li_n at a root of unity."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polylogp.coleman import PolylogEvaluator, check_corollary, check_prop_reduction
from polylogp.finite_poly import FiniteField, frobenius
from polylogp.padic_core import (UnramifiedCtx, WittApprox, residue, teichmuller,
                                 teichmuller_powers)

PRIMES = (3, 5, 7, 11, 13)
WEIGHTS = (0, 1, 2, 3, 4)


def direct_measure_sums(ctx, z, ns, m):
    """Oracle: sum_{p∤a<p^m} (a^{-n} mod p^m) z^a over every cell, mod p^A.

    O(p^m) ring ops.  It agrees with the closed form mod p^min(m, A) only:
    both are the same Riemann sum mod p^m, written differently.
    """
    p, pA, k = ctx.p, ctx.pA, ctx.k
    P = p**m
    tables = {n: [pow(a, -n, P) if a % p else 0 for a in range(P)] for n in ns}
    acc = {n: [0] * k for n in ns}
    power = (1,) + (0,) * (k - 1)
    for a in range(1, P):
        power = ctx.vec_mul(power, z.coeffs, pA)
        if a % p == 0:
            continue
        for n in ns:
            c = tables[n][a]
            row = acc[n]
            for i in range(k):
                row[i] = (row[i] + c * power[i]) % pA
    return {n: tuple(acc[n]) for n in ns}


def direct_values(ctx, z, m):
    """The direct loop's Li^(p)_n(z) for every n in WEIGHTS, as li_p_riemann caps it."""
    ref = direct_measure_sums(ctx, z, WEIGHTS, m)
    inv_cell = (ctx.one() - z ** (ctx.p**m)).inv()
    certified = min(m, z.prec)
    return {n: (ctx.make(0, ref[n], ctx.A) * inv_cell).cap_abs(certified) for n in WEIGHTS}


def locus_point(ctx, t, lift):
    """A unit z with residue from_int(t) (not 0 or 1) and higher digits ``lift``."""
    zbar = ctx.residue_field.from_int(t)
    vec = tuple((c + ctx.p * d) % ctx.pA for c, d in zip(zbar.coeffs, lift))
    return ctx.make(0, vec, ctx.A)


@st.composite
def fields(draw, max_k=3, min_A=1, min_k=1):
    p = draw(st.sampled_from(PRIMES))
    k = draw(st.integers(min_k, max_k))
    A = draw(st.integers(min_A, 6))
    return p, k, A


@st.composite
def points(draw, p, k, A):
    t = draw(st.integers(2, p**k - 1))
    lift = tuple(draw(st.integers(0, p ** (A - 1))) for _ in range(k))
    return t, lift


@st.composite
def measure_cases(draw, **field_bounds):
    p, k, A = draw(fields(**field_bounds))
    m = draw(st.integers(1, 4))
    t, lift = draw(points(p, k, A))
    return p, k, A, m, t, lift


def _certified_equal(a, b) -> bool:
    digits = min(a.abs_prec, b.abs_prec)
    assert digits >= 1
    return (a - b).valuation_ge(digits)


@settings(max_examples=30, deadline=None)
@given(measure_cases())
@example((3, 1, 4, 4, 2, (5,)))
@example((3, 3, 2, 4, 17, (1, 0, 2)))  # m > A
@example((13, 2, 3, 4, 100, (7, 11)))
@example((5, 2, 5, 1, 7, (3, 9)))
def test_closed_form_matches_direct_loop(case):
    p, k, A, m, t, lift = case
    ctx = UnramifiedCtx(p, k, A)
    z = locus_point(ctx, t, lift)
    ev = PolylogEvaluator(ctx, m, max_weight=max(WEIGHTS))
    expected = direct_values(ctx, z, m)
    for n in WEIGHTS:
        assert ev.li_p_riemann(z, n) == expected[n], n


def _count_calls(monkeypatch, name) -> list:
    """Record the arguments of each call of the evaluator method ``name``."""
    calls = []
    method = getattr(PolylogEvaluator, name)

    def counted(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(PolylogEvaluator, name, counted)
    return calls


def _count_measure_sums(monkeypatch) -> list:
    # one weight-free build (``_measure_base``) is one measure sum's shared part
    return _count_calls(monkeypatch, "_measure_base")


@settings(max_examples=25, deadline=None)
@given(measure_cases(min_k=2, min_A=2))
@example((3, 5, 4, 3, 100, (2, 0, 1, 5, 26)))  # F_{3^5}
@example((5, 4, 3, 2, 200, (1, 2, 3, 4)))  # F_{5^4}
@example((7, 3, 2, 4, 100, (3, 5, 1)))  # m > A
def test_one_measure_sum_serves_the_frobenius_orbit(case):
    # S(phi z) = phi S(z): one weight-free build at z serves every weight
    # at every conjugate phi^i(z), and each value equals both a fresh
    # evaluator's and the direct loop's, field for field
    p, k, A, m, t, lift = case
    ctx = UnramifiedCtx(p, k, A)
    z = locus_point(ctx, t, lift)
    assume(z != teichmuller(ctx, residue(z)))
    conjugates = [z]
    for _ in range(k - 1):
        conjugates.append(conjugates[-1].frobenius())
    ev = PolylogEvaluator(ctx, m, max_weight=max(WEIGHTS))
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _count_measure_sums(monkeypatch)
        ev.li_p_riemann(z, 2)
        served = {i: {n: ev.li_p_riemann(zi, n) for n in WEIGHTS}
                  for i, zi in enumerate(conjugates)}
    assert len(calls) == 1
    for i, zi in enumerate(conjugates):
        fresh = PolylogEvaluator(ctx, m, max_weight=max(WEIGHTS))
        expected = direct_values(ctx, zi, m)
        for n in WEIGHTS:
            assert served[i][n] == fresh.li_p_riemann(zi, n), (i, n)
            assert served[i][n] == expected[n], (i, n)


def _frobenius_orbits(p: int, k: int) -> int:
    """The number of orbits of x -> x^p on F_{p^k} minus {0, 1}."""
    field = FiniteField(p, k)
    seen, orbits = set(), 0
    for t in range(2, p**k):
        x = field.from_int(t)
        if x.coeffs in seen:
            continue
        orbits += 1
        while x.coeffs not in seen:
            seen.add(x.coeffs)
            x = frobenius(x)
    return orbits


@pytest.mark.parametrize("p, k, sums", [(13, 2, 89), (7, 3, 117), (3, 5, 49), (13, 1, 11)])
def test_corollary_makes_one_measure_sum_per_frobenius_orbit(monkeypatch, p, k, sums):
    # a deterministic count, not a timing, of weight-free builds: 167, 341,
    # 241 and 11 when each point of an orbit ran its own
    assert _frobenius_orbits(p, k) == sums
    calls = _count_measure_sums(monkeypatch)
    assert check_corollary(p, k, ns=(1,))["pass"]
    assert len(calls) == sums


def _count_riemann_reads(monkeypatch) -> list:
    return _count_calls(monkeypatch, "li_p_riemann")


@settings(max_examples=20, deadline=None)
@given(st.tuples(st.sampled_from(PRIMES), st.sampled_from((2, 3, 5)), st.integers(2, 6),
                 st.integers(1, 4), st.integers(0, 10**6), st.integers(1, 4)))
@example((3, 5, 4, 2, 100, 2))  # F_{3^5}
@example((5, 3, 5, 3, 0, 3))  # residue 2 lies in F_5: an orbit of one point
def test_one_orbit_sum_serves_the_frobenius_orbit(case):
    # Li_n(phi alpha) = phi Li_n(alpha): after one li_n_teich(alpha, n), no
    # further orbit sum runs (an orbit sum reads li_p_riemann k times), and
    # every conjugate equals a fresh evaluator's value, field for field
    p, k, A, m, t, n = case
    assume(p**k <= 400)
    ctx = UnramifiedCtx(p, k, A)
    alpha = teichmuller(ctx, ctx.residue_field.from_int(2 + t % (p**k - 2)))
    conjugates = [alpha]
    for _ in range(k - 1):
        conjugates.append(conjugates[-1].frobenius())
    ev = PolylogEvaluator(ctx, m, max_weight=n)
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _count_riemann_reads(monkeypatch)
        ev.li_n_teich(alpha, n)
        assert len(calls) == k
        served = [ev.li_n_teich(zi, n) for zi in conjugates]
        assert len(calls) == k
    for i, zi in enumerate(conjugates):
        assert served[i] == PolylogEvaluator(ctx, m, max_weight=n).li_n_teich(zi, n), i


@pytest.mark.parametrize("p, k, orbits", [(5, 3, 43), (7, 2, 26), (3, 5, 49), (13, 1, 11)])
def test_corollary_makes_one_orbit_sum_per_orbit_and_weight(monkeypatch, p, k, orbits):
    # a deterministic count, not a timing: one orbit sum (k li_p_riemann
    # reads) per Frobenius orbit and weight, not one per residue and weight
    assert _frobenius_orbits(p, k) == orbits
    ns = (1, 2, 3)
    calls = _count_riemann_reads(monkeypatch)
    assert check_corollary(p, k, ns=ns)["pass"]
    assert len(calls) == k * orbits * len(ns)


def test_corollary_reads_each_orbit_from_its_measure_base(monkeypatch):
    # a deterministic count: per orbit, k - 1 Frobenius steps build the
    # measure base's orbit, and per weight k - 1 carry the measure sum and k - 1
    # the orbit sum to the conjugates; li_n_teich rebuilds no orbit
    p, k, orbits, ns = 5, 3, 43, (1, 2, 3)
    calls = []
    frobenius = WittApprox.frobenius

    def counted(self):
        calls.append(self)
        return frobenius(self)

    monkeypatch.setattr(WittApprox, "frobenius", counted)
    assert check_corollary(p, k, ns=ns)["pass"]
    assert len(calls) == (k - 1) * orbits * (1 + 2 * len(ns))


@pytest.mark.parametrize("p, k, n, orbits", [(5, 3, 2, 43), (7, 2, 3, 26), (13, 1, 1, 11)])
def test_corollary_sums_each_weight_once_per_orbit(monkeypatch, p, k, n, orbits):
    # a deterministic count: one per-weight sum per orbit for the one weight
    # read, not one for every weight up to the evaluator's default
    calls = _count_calls(monkeypatch, "_weight_sum")
    assert check_corollary(p, k, ns=(n,))["pass"]
    assert [w for _, w in calls] == [n] * orbits


@pytest.mark.parametrize("p, n, k, samples", [(5, 2, 2, 10), (7, 3, 1, 6)])
def test_proposition1_sums_one_weight_per_point(monkeypatch, p, n, k, samples):
    calls = _count_calls(monkeypatch, "_weight_sum")
    assert check_prop_reduction(p, n, k, samples=samples)["pass"]
    assert [w for _, w in calls] == [n] * samples


def _orbit_formula(ctx, riemann, n):
    """li_n_teich's orbit sum over the values L(phi^i alpha) in ``riemann``."""
    p, k = ctx.p, ctx.k
    acc = ctx.exact_zero()
    for i, value in enumerate(riemann):
        acc = acc + value.shift((k - 1 - i) * n)
    return acc.shift(n) * ctx.inv_int(p ** (k * n) - 1)


@st.composite
def teichmuller_reads(draw):
    p, k = draw(st.sampled_from([(p, k) for p in PRIMES for k in range(1, 5)
                                 if p**k <= 125]))
    A, m = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    t = draw(st.integers(2, p**k - 1))
    reads = draw(st.permutations([(i, n) for i in range(k) for n in WEIGHTS]))
    return p, k, A, m, t, reads


@settings(max_examples=25, deadline=None)
@given(teichmuller_reads())
@example((3, 4, 2, 1, 40, [(3, 1), (0, 0), (1, 4), (2, 2)]))  # m = 1
@example((5, 3, 2, 4, 17, [(2, 3), (1, 1), (0, 2)]))  # m > A
@example((11, 2, 3, 3, 100, [(1, 2), (0, 2), (1, 0)]))
def test_root_of_unity_sums_match_the_direct_loop(case):
    # the Frobenius path at a Teichmuller point: weights read in any order at
    # the point and its conjugates, through li_n_teich and li_p_riemann,
    # equal the direct loop's values field for field
    p, k, A, m, t, reads = case
    ctx = UnramifiedCtx(p, k, A)
    ev = PolylogEvaluator(ctx, m)
    conjugates = [ev.teich(ctx.residue_field.from_int(t))]
    for _ in range(k - 1):
        conjugates.append(conjugates[-1].frobenius())
    expected = [direct_values(ctx, zi, m) for zi in conjugates]
    for i, n in reads:
        if n:
            riemann = [expected[(i + j) % k][n] for j in range(k)]
            assert ev.li_n_teich(conjugates[i], n) == _orbit_formula(ctx, riemann, n), (i, n)
        assert ev.li_p_riemann(conjugates[i], n) == expected[i][n], (i, n)


def test_li_n_teich_rejects_a_point_that_is_not_a_root_of_unity():
    ctx = UnramifiedCtx(7, 2, 4)
    ev = PolylogEvaluator(ctx, 3)
    z = locus_point(ctx, 10, (1, 2))
    assert z != ev.teich(residue(z))
    with pytest.raises(ValueError, match="Teichmuller lift"):
        ev.li_n_teich(z, 2)
    assert ev.li_n_teich(ev.teich(residue(z)), 2).valuation_ge(2)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_inversion_relation(data):
    # Li^(p)_n(1/z) = (-1)^{n+1} Li^(p)_n(z)
    p, k, A = data.draw(fields(min_A=2))
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.sampled_from(WEIGHTS))
    ctx = UnramifiedCtx(p, k, A)
    z = locus_point(ctx, *data.draw(points(p, k, A)))
    ev = PolylogEvaluator(ctx, m, max_weight=n)
    direct = ev.li_p_riemann(z, n)
    inverted = ev.li_p_riemann(z.inv(), n)
    sign = ctx.from_int((-1) ** (n + 1))
    assert _certified_equal(inverted, sign * direct)


def _roots_of_unity(ctx, N):
    """Teichmuller lifts of the N-th roots of unity in F_{p^k}, N | p^k - 1."""
    field = ctx.residue_field
    e = (field.order - 1) // N
    roots = {}
    for u in field.units():
        r = u**e
        roots[r.coeffs] = r
        if len(roots) == N:
            break
    return [teichmuller(ctx, r) for r in roots.values()]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_distribution_relation(data):
    # sum_{zeta^N = 1} Li^(p)_n(zeta z) = N^{1-n} Li^(p)_n(z^N), p ∤ N
    p, k, A = data.draw(fields(max_k=2, min_A=2))
    q = p**k
    N = data.draw(st.sampled_from([d for d in range(2, 13) if (q - 1) % d == 0]))
    m = data.draw(st.integers(1, 5))
    n = data.draw(st.sampled_from(WEIGHTS))
    ctx = UnramifiedCtx(p, k, A)
    z = locus_point(ctx, *data.draw(points(p, k, A)))
    assume(not (residue(z) ** N).is_one())
    ev = PolylogEvaluator(ctx, m, max_weight=n)
    lhs = ctx.exact_zero()
    for zeta in _roots_of_unity(ctx, N):
        lhs = lhs + ev.li_p_riemann(zeta * z, n)
    rhs = ctx.from_rational(Fraction(N) ** (1 - n)) * ev.li_p_riemann(z**N, n)
    assert _certified_equal(lhs, rhs)
